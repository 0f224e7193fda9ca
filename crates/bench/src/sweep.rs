//! The parallel sweep driver: fans independent experiment points across
//! worker threads with bit-identical results at any thread count.
//!
//! Every experiment of the paper's evaluation decomposes into *points* that
//! share nothing — a (scenario, session-count) cell of Experiment 1, a seed
//! repeat of Experiment 2, a protocol of Experiment 3, a (scenario, seed)
//! validation run. Each point builds its own network, schedule and
//! simulation (a `Send` unit), so the runner can execute points on any
//! thread in any order.
//!
//! Determinism is by construction: a point's result depends only on the
//! point itself (whose RNG seeds derive from its index in the sweep, never
//! from a thread id or global state), and results are returned in sweep
//! order regardless of which worker finished first. The determinism guard in
//! `crates/bench/tests/determinism.rs` asserts this by running the same
//! sweeps at 1 and N threads and comparing the reports.
//!
//! The thread count comes from the `BNECK_THREADS` environment variable when
//! set (the knob CI's `scale-smoke` job uses), otherwise from
//! [`std::thread::available_parallelism`]. This module is the one reader of
//! the variable; session planning is sequential and reads no environment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Runs closures over the points of a sweep on a fixed-size pool of scoped
/// worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with exactly `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// A runner honoring the `BNECK_THREADS` environment variable; unset,
    /// empty, zero or unparsable values fall back to the machine's available
    /// parallelism.
    pub(crate) fn from_env() -> Self {
        Self::new(threads_from_env())
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every point, fanning the points across the worker
    /// threads, and returns the results in point order.
    ///
    /// `f` receives the point's index within the sweep (derive per-point
    /// seeds from it, never from the executing thread) and the point itself.
    /// Work is claimed dynamically, so long points do not serialize behind
    /// short ones; the result order is the input order regardless.
    pub fn run<T, R, F>(&self, points: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = points.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return points
                .into_iter()
                .enumerate()
                .map(|(i, p)| f(i, p))
                .collect();
        }
        // Each point sits behind its own mutex so a worker can take it by
        // value; the atomic cursor hands out indices dynamically.
        let jobs: Vec<Mutex<Option<T>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let jobs = &jobs;
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let point = jobs[i]
                        .lock()
                        .expect("a sweep worker panicked while claiming a point")
                        .take()
                        .expect("every point is claimed exactly once");
                    let result = f(i, point);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                results[i] = Some(result);
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every point delivers exactly one result"))
            .collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Worker-thread count from `BNECK_THREADS`, falling back to the available
/// parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "thread count selects scheduling only; results are bit-identical at any value (determinism suite)"
)]
fn threads_from_env() -> usize {
    parse_threads(std::env::var("BNECK_THREADS").ok().as_deref())
}

fn parse_threads(value: Option<&str>) -> usize {
    match value.map(str::trim).map(str::parse::<usize>) {
        Some(Ok(n)) if n >= 1 => n,
        _ => available_parallelism(),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_knob_parsing() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 12 ")), 12);
        // Unset, empty, zero and junk all fall back to the machine default.
        let fallback = available_parallelism();
        assert_eq!(parse_threads(None), fallback);
        assert_eq!(parse_threads(Some("")), fallback);
        assert_eq!(parse_threads(Some("0")), fallback);
        assert_eq!(parse_threads(Some("lots")), fallback);
    }

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 8, 64] {
            let out = SweepRunner::new(threads).run(points.clone(), |i, p| {
                assert_eq!(i, p, "index matches the point's sweep position");
                p * p
            });
            assert_eq!(out, points.iter().map(|p| p * p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_does_not_change_the_results() {
        // A "computation" whose result depends only on the point index.
        let work = |i: usize, seed: u64| -> u64 {
            let mut x = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let points: Vec<u64> = (0..23).map(|i| i * 31).collect();
        let serial = SweepRunner::new(1).run(points.clone(), work);
        let parallel = SweepRunner::new(7).run(points.clone(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_sweeps_work() {
        let none: Vec<u8> = Vec::new();
        assert!(SweepRunner::new(4).run(none, |_, p| p).is_empty());
        assert_eq!(
            SweepRunner::new(4).run(vec![9u8], |i, p| (i, p)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn zero_threads_clamp_to_one_worker() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }
}
