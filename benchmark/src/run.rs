//! What every workload is handed and what it fills in.

use crate::gate::Gate;
use crate::metrics::PER_LAYER;
use crate::seeds::Seeds;
use crate::stats::median;
use crate::trace::Recorder;
use std::collections::BTreeMap;

/// A set-up stage runs at least this often, so `setup_s` is built from
/// medians, not single samples,
const SETUP_MIN_REPS: usize = 3;
/// and a stage that takes milliseconds goes on until it has been timed for
/// this long in total (or this often), because a 10 ms sample is mostly noise.
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 30;

/// One benchmark run: its inputs, its recorder and gate, and the metrics it
/// has produced so far.
#[derive(Debug)]
pub struct Run {
    /// The per-purpose seeds derived from `--seed`.
    pub seeds: Seeds,
    /// How long the timed part should measure, seconds.
    pub seconds: f64,
    /// `--quick`: sizes ÷ 10 and two repetitions, every gate still on.
    pub quick: bool,
    /// The span recorder (recording only in a traced run).
    pub rec: Recorder,
    /// The correctness gate.
    pub gate: Gate,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (filled only in a traced run).
    pub layers: BTreeMap<&'static str, f64>,
    setup_s: f64,
}

impl Run {
    /// A fresh run.
    pub fn new(seeds: Seeds, seconds: f64, quick: bool, rec: Recorder, gate: Gate) -> Self {
        Run {
            seeds,
            seconds,
            quick,
            rec,
            gate,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            setup_s: 0.0,
        }
    }

    /// Picks the full-size or the `--quick` value.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Runs one set-up stage repeatedly as spans named `name`, adds the
    /// median of its times to `setup_s` and keeps the last result. Earlier
    /// results are dropped before the next is built, so set-up repetitions
    /// do not add up in peak memory.
    pub fn setup_stage<T>(
        &mut self,
        name: &'static str,
        mut build: impl FnMut(&mut Recorder) -> T,
    ) -> T {
        let mut kept = None;
        let mut samples = Vec::new();
        while samples.len() < SETUP_MIN_REPS
            || (samples.len() < SETUP_MAX_REPS && samples.iter().sum::<f64>() < SETUP_MIN_SECONDS)
        {
            drop(kept.take());
            let (built, seconds) = self.rec.span(name, &mut build);
            samples.push(seconds);
            kept = Some(built);
        }
        self.setup_s += median(&samples);
        kept.expect("at least one repetition ran")
    }

    /// Closes set-up: `setup_s` is the sum over the stages of each stage's
    /// median time.
    pub fn finish_setup(&mut self) {
        self.e2e.insert("setup_s", self.setup_s);
    }

    /// `true` while a timed phase should go on: fewer than `min_reps`
    /// repetitions done, or less than `budget` seconds measured. `--quick`
    /// stops after two repetitions: the fewest that still let the
    /// same-counters gate compare something.
    pub fn more(&self, reps_done: usize, min_reps: usize, measured: f64, budget: f64) -> bool {
        if self.quick {
            reps_done < 2
        } else {
            reps_done < min_reps || measured < budget
        }
    }

    /// Records a per-layer metric (kept only in a traced run).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.rec.traced() {
            self.layers.insert(name, value);
        }
    }

    /// For each span name, records the per-layer metric `<span>_s` as the
    /// median seconds of the recorded spans of that name, when there are any.
    pub fn layers_from_spans(&mut self, spans: &[&str]) {
        for span in spans {
            let metric = PER_LAYER
                .iter()
                .map(|(name, _)| *name)
                .find(|name| name.strip_suffix("_s") == Some(span))
                .expect("every timed span has a per-layer metric named after it");
            let seconds = self.rec.seconds_of(span);
            if !seconds.is_empty() {
                self.layer(metric, median(&seconds));
            }
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
