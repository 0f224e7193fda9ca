//! The correctness gate: counts operations attempted and failed, and holds
//! the reasons, so a run that measured wrong outputs cannot report a number
//! as if it were right.

use bneck_maxmin::{compare_allocations, Allocation, SessionSet, Tolerance};

/// What `--self-test` breaks on purpose, to show the gate still bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// One expected (oracle) rate is scaled by 1.5.
    Rate,
    /// The second repetition's event counter is off by one.
    Counter,
}

/// The counters a deterministic repetition must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepCounters {
    /// Events the engine processed.
    pub events: u64,
    /// Protocol packets sent over links.
    pub packets: u64,
    /// Simulated time of quiescence, nanoseconds.
    pub quiescent_at_ns: u64,
}

/// Accumulates the verdict of one benchmark run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Session-level operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// Why, one line per failure class met.
    pub reasons: Vec<String>,
    perturb: Option<Perturb>,
    first_rep: Option<RepCounters>,
    reps_seen: u32,
}

impl Gate {
    /// A gate, optionally with one deliberate fault armed.
    pub fn new(perturb: Option<Perturb>) -> Self {
        Gate {
            perturb,
            ..Gate::default()
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reasons.is_empty()
    }

    /// Fails `ops` already-attempted operations for `reason`.
    pub fn void(&mut self, ops: u64, reason: String) {
        self.failed += ops;
        self.reasons.push(reason);
    }

    /// Applies the armed rate fault to the oracle's answer (a no-op in a
    /// normal run).
    pub fn tamper_expected(&mut self, sessions: &SessionSet, expected: &mut Allocation) {
        if self.perturb == Some(Perturb::Rate) {
            if let Some(session) = sessions.iter().next() {
                let rate = expected.rate(session.id()).unwrap_or(1.0);
                expected.set(session.id(), rate * 1.5);
            }
            self.perturb = None;
        }
    }

    /// Judges `ops` operations of one repetition (or one single operation).
    ///
    /// `health` is `Err(reason)` when the repetition as a whole is void — not
    /// quiescent, timed out, unacked frames, decode or transport errors —
    /// and then every one of its operations fails. Otherwise an operation
    /// fails when its session's rate disagrees with the oracle.
    pub fn judge(
        &mut self,
        ops: u64,
        health: Result<(), String>,
        sessions: &SessionSet,
        measured: &Allocation,
        expected: &Allocation,
        tolerance: Tolerance,
    ) {
        self.attempted += ops;
        if let Err(reason) = health {
            return self.void(ops, reason);
        }
        if let Err(violations) = compare_allocations(sessions, measured, expected, tolerance) {
            self.failed += (violations.len() as u64).min(ops);
            self.reasons.push(format!(
                "{} session(s) disagree with the oracle, first: {:?}",
                violations.len(),
                violations[0]
            ));
        }
    }

    /// Checks that a deterministic repetition reproduced the first one's
    /// counters; a repetition that did not voids its `ops` operations.
    pub fn same_counters(&mut self, ops: u64, mut counters: RepCounters) {
        self.reps_seen += 1;
        if self.perturb == Some(Perturb::Counter) && self.reps_seen == 2 {
            counters.events += 1;
            self.perturb = None;
        }
        match self.first_rep {
            None => self.first_rep = Some(counters),
            Some(first) if first != counters => self.void(
                ops,
                format!(
                    "repetition {} is not deterministic: {counters:?} != {first:?}",
                    self.reps_seen
                ),
            ),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_maxmin::{RateLimit, Session, SessionId};
    use bneck_net::prelude::*;

    fn instance() -> (SessionSet, Allocation) {
        let net = synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        let mut rates = Allocation::new();
        for i in 0..2 {
            let path = router
                .shortest_path(hosts[2 * i], hosts[2 * i + 1])
                .unwrap();
            sessions.insert(Session::new(
                SessionId(i as u64),
                path,
                RateLimit::unlimited(),
            ));
            rates.set(SessionId(i as u64), 30e6);
        }
        (sessions, rates)
    }

    const COUNTERS: RepCounters = RepCounters {
        events: 10,
        packets: 8,
        quiescent_at_ns: 5,
    };

    #[test]
    fn a_clean_run_passes() {
        let (sessions, rates) = instance();
        let mut gate = Gate::new(None);
        let mut expected = rates.clone();
        gate.tamper_expected(&sessions, &mut expected);
        gate.judge(
            2,
            Ok(()),
            &sessions,
            &rates,
            &expected,
            Tolerance::default(),
        );
        gate.same_counters(2, COUNTERS);
        gate.same_counters(2, COUNTERS);
        assert!(gate.correct());
        assert_eq!((gate.attempted, gate.failed), (2, 0));
    }

    #[test]
    fn a_perturbed_rate_fails_one_operation() {
        let (sessions, rates) = instance();
        let mut gate = Gate::new(Some(Perturb::Rate));
        let mut expected = rates.clone();
        gate.tamper_expected(&sessions, &mut expected);
        gate.judge(
            2,
            Ok(()),
            &sessions,
            &rates,
            &expected,
            Tolerance::default(),
        );
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn a_perturbed_counter_voids_the_repetition() {
        let mut gate = Gate::new(Some(Perturb::Counter));
        gate.same_counters(5, COUNTERS);
        gate.same_counters(5, COUNTERS);
        gate.same_counters(5, COUNTERS);
        assert!(!gate.correct());
        assert_eq!(gate.failed, 5);
    }

    #[test]
    fn an_unhealthy_repetition_fails_all_its_operations() {
        let (sessions, rates) = instance();
        let mut gate = Gate::new(None);
        gate.judge(
            7,
            Err("not quiescent".to_string()),
            &sessions,
            &rates,
            &rates,
            Tolerance::default(),
        );
        assert_eq!((gate.attempted, gate.failed), (7, 7));
        assert!(!gate.correct());
    }
}
