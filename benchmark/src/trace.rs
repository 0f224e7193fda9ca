//! The span recorder: the benchmark times every call into a layer from
//! outside, keeps the spans in memory, and writes them out at exit.
//!
//! Every span is timed whether or not it is kept — the end-to-end metrics are
//! built from the returned durations — but only a *recording* recorder stores
//! it, so an untraced run allocates nothing per call.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    traced: bool,
    recording: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for a traced (`true`) or an untraced run.
    // The repository's clippy.toml bans wall-clock reads so simulation results
    // stay a pure function of (spec, seed); timing the code under test from
    // outside is this crate's whole job, and this is its one clock.
    #[allow(clippy::disallowed_methods)]
    pub fn new(traced: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            traced,
            recording: traced,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` in a traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// `true` while spans are being kept.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Starts repetition `rep`. A traced run records every other repetition,
    /// so the same process also yields the unrecorded times the tracing
    /// overhead is measured against.
    pub fn start_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.recording = self.traced && rep % 2 == 0;
    }

    /// Ends the repetition structure: spans outside repetitions (set-up,
    /// probes) are recorded whenever the run is traced.
    pub fn end_reps(&mut self) {
        self.recording = self.traced;
    }

    /// Times `f` as a span named `name` inside the currently open span, and
    /// returns its result with the elapsed seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let recorded = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        if let Some(index) = recorded {
            self.open.pop();
            self.spans[index].start_ns = start.as_nanos() as u64;
            self.spans[index].end_ns = end.as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of every recorded span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per span name: `(calls, total seconds, self seconds)`, where self time
    /// is the span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut table = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            let total = span.end_ns - span.start_ns;
            let entry = table.entry(span.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += total as f64 / 1e9;
            entry.2 += total.saturating_sub(covered) as f64 / 1e9;
        }
        table
    }

    /// The spans as a JSON array, for `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".to_string(), Value::Str(s.name.to_string())),
                        ("start_ns".to_string(), Value::U64(s.start_ns)),
                        ("end_ns".to_string(), Value::U64(s.end_ns)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("rep".to_string(), Value::U64(u64::from(s.rep))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("rep", 0, 1_000, None),
            span("core.apply", 100, 300, Some(0)),
            span("core.run", 300, 900, Some(0)),
            span("rep", 1_000, 1_500, None),
        ];
        let table = rec.self_times();
        let (calls, total, own) = table["rep"];
        assert_eq!(calls, 2);
        assert!((total - 1.5e-6).abs() < 1e-15);
        assert!((own - 0.7e-6).abs() < 1e-15, "{own}");
        assert_eq!(table["core.run"].0, 1);
        assert!((table["core.run"].2 - 0.6e-6).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_their_parent_and_repetition() {
        let mut rec = Recorder::new(true);
        rec.start_rep(2);
        rec.span("rep", |rec| {
            rec.span("core.run", |_| ());
        });
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].rep, 2);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }

    #[test]
    fn untraced_and_odd_repetitions_time_but_do_not_record() {
        let mut rec = Recorder::new(false);
        let ((), secs) = rec.span("core.run", |_| ());
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());

        let mut rec = Recorder::new(true);
        rec.start_rep(1);
        rec.span("core.run", |_| ());
        assert!(rec.spans().is_empty());
        rec.end_reps();
        rec.span("probe", |_| ());
        assert_eq!(rec.seconds_of("probe").len(), 1);
    }
}
