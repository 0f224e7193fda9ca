//! Systematic exploration of same-instant event orderings.
//!
//! The engine's calendar queue is deterministic: events carrying the same
//! timestamp are delivered FIFO in scheduling order. That is *one* of the
//! orderings a real distributed system could exhibit — messages that arrive
//! at the same instant at different tasks have no causal order, so a correct
//! protocol must produce the same outcome under every permutation of each
//! same-instant group. The explorer enumerates those permutations with a
//! bounded depth-first search, in the spirit of systematic concurrency
//! model checking: each *schedule* is one complete run of the simulation in
//! which every same-instant group was delivered in a prescribed order.
//!
//! Exploration is stateless re-execution: the driver rebuilds the simulation
//! from scratch for every schedule and steps it with
//! [`Engine::step_explored`](crate::Engine::step_explored), which consults a
//! [`ScheduleCursor`]. The cursor replays a prescribed prefix of choices and
//! extends it canonically (choice 0 = the engine's native FIFO order); after
//! the run, `ScheduleCursor::next_schedule` advances to the
//! lexicographically next unexplored schedule, exactly like incrementing a
//! mixed-radix counter whose digit arities were recorded during the run.
//!
//! ```
//! use bneck_sim::prelude::*;
//! use bneck_sim::explore::{explore_schedules, ScheduleCursor};
//!
//! struct Last(u32);
//! impl World for Last {
//!     type Message = u32;
//!     fn handle(&mut self, _ctx: &mut Context<'_, u32>, _to: Address, msg: u32) {
//!         self.0 = msg;
//!     }
//! }
//!
//! let stats = explore_schedules(100, |cursor| {
//!     let mut engine = Engine::new();
//!     let mut world = Last(0);
//!     for i in 0..3 {
//!         engine.inject(SimTime::from_micros(1), Address(0), i);
//!     }
//!     while engine.step_explored(&mut world, cursor) {}
//! });
//! assert!(stats.exhausted);
//! assert_eq!(stats.schedules, 6); // 3! orderings of one 3-event group
//! ```

/// Summary of one [`explore_schedules`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules executed.
    pub schedules: u64,
    /// `true` when every schedule within the choice space was executed;
    /// `false` when the budget ran out first.
    pub exhausted: bool,
    /// The largest number of non-trivial choice points seen in one schedule.
    pub max_choice_points: usize,
}

/// The per-schedule choice oracle handed to
/// [`Engine::step_explored`](crate::Engine::step_explored).
///
/// During a run it answers "which of the `arity` same-instant events goes
/// first?" by replaying a prescribed prefix and defaulting to 0 (the native
/// FIFO order) beyond it, while recording the arity of every non-trivial
/// choice point it passes.
#[derive(Debug, Default)]
pub struct ScheduleCursor {
    /// The choice to make at each recorded choice point of this schedule.
    prescribed: Vec<usize>,
    /// The arity observed at each choice point (recorded on first visit,
    /// checked on replay — a mismatch means the world is not deterministic).
    arities: Vec<usize>,
    /// The next choice point index within the current run.
    depth: usize,
}

impl ScheduleCursor {
    /// A cursor positioned at the all-canonical (native FIFO) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks which of `arity` same-instant events is delivered next.
    /// Called by the engine; `arity >= 2` (unique heads are not choices).
    pub(crate) fn choose(&mut self, arity: usize) -> usize {
        debug_assert!(arity >= 2, "a single head is not a choice point");
        let d = self.depth;
        self.depth += 1;
        if d < self.prescribed.len() {
            debug_assert_eq!(
                self.arities[d], arity,
                "replayed run diverged: the world is not deterministic"
            );
            self.prescribed[d]
        } else {
            self.prescribed.push(0);
            self.arities.push(arity);
            0
        }
    }

    /// Number of non-trivial choice points the current run has passed.
    pub(crate) fn choice_points(&self) -> usize {
        self.depth
    }

    /// Advances to the next unexplored schedule, returning `false` when the
    /// whole choice space has been covered. Must be called between runs;
    /// it also rewinds the cursor for the next run.
    pub(crate) fn next_schedule(&mut self) -> bool {
        // Truncate the recording to what the *current* run actually visited
        // (an earlier, longer run may have recorded deeper points that this
        // branch never reaches).
        self.prescribed.truncate(self.depth);
        self.arities.truncate(self.depth);
        self.depth = 0;
        // Mixed-radix increment: bump the deepest incrementable choice and
        // drop everything after it (to be re-recorded canonically).
        while let (Some(&c), Some(&a)) = (self.prescribed.last(), self.arities.last()) {
            if c + 1 < a {
                *self.prescribed.last_mut().expect("non-empty") = c + 1;
                return true;
            }
            self.prescribed.pop();
            self.arities.pop();
        }
        false
    }
}

/// Runs `run` once per schedule until the same-instant choice space is
/// exhausted or `budget` schedules have executed, whichever comes first.
///
/// `run` must rebuild its simulation from scratch and drive it to completion
/// with [`Engine::step_explored`](crate::Engine::step_explored), passing the
/// given cursor to every step; any other source of nondeterminism (wall
/// clock, global RNG) breaks the replay.
pub fn explore_schedules<F>(budget: u64, mut run: F) -> ExploreStats
where
    F: FnMut(&mut ScheduleCursor),
{
    assert!(budget > 0, "the schedule budget must be positive");
    let mut cursor = ScheduleCursor::new();
    let mut stats = ExploreStats::default();
    loop {
        run(&mut cursor);
        stats.schedules += 1;
        stats.max_choice_points = stats.max_choice_points.max(cursor.choice_points());
        if !cursor.next_schedule() {
            stats.exhausted = true;
            return stats;
        }
        if stats.schedules >= budget {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Address, Context, Engine, World};
    use crate::time::SimTime;
    use std::collections::BTreeSet;

    /// Logs delivery order of plain integer messages.
    struct Logger {
        log: Vec<u32>,
    }

    impl World for Logger {
        type Message = u32;
        fn handle(&mut self, _ctx: &mut Context<'_, u32>, _to: Address, msg: u32) {
            self.log.push(msg);
        }
    }

    fn run_one_group(cursor: &mut ScheduleCursor, group: u32) -> Vec<u32> {
        let mut engine = Engine::new();
        let mut world = Logger { log: Vec::new() };
        for i in 0..group {
            engine.inject(SimTime::from_micros(1), Address(i), i);
        }
        while engine.step_explored(&mut world, cursor) {}
        world.log
    }

    #[test]
    fn explores_every_permutation_of_one_group() {
        for n in 1..=4u32 {
            let mut seen = BTreeSet::new();
            let stats = explore_schedules(1_000, |cursor| {
                seen.insert(run_one_group(cursor, n));
            });
            let fact: u64 = (1..=n as u64).product();
            assert!(stats.exhausted);
            assert_eq!(stats.schedules, fact, "{n} events explore {n}!");
            assert_eq!(seen.len() as u64, fact, "every permutation is distinct");
        }
    }

    #[test]
    fn first_schedule_is_the_native_fifo_order() {
        let mut first = None;
        explore_schedules(1, |cursor| {
            first = Some(run_one_group(cursor, 3));
        });
        assert_eq!(first.unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn budget_caps_the_search() {
        let stats = explore_schedules(3, |cursor| {
            run_one_group(cursor, 4);
        });
        assert_eq!(stats.schedules, 3);
        assert!(!stats.exhausted);
    }

    #[test]
    fn multiple_groups_multiply() {
        // Two independent same-instant groups of 2 and 3 events → 2! * 3!.
        let mut seen = BTreeSet::new();
        let stats = explore_schedules(1_000, |cursor| {
            let mut engine = Engine::new();
            let mut world = Logger { log: Vec::new() };
            for i in 0..2 {
                engine.inject(SimTime::from_micros(1), Address(i), i);
            }
            for i in 0..3 {
                engine.inject(SimTime::from_micros(2), Address(i), 10 + i);
            }
            while engine.step_explored(&mut world, cursor) {}
            seen.insert(world.log);
        });
        assert!(stats.exhausted);
        assert_eq!(stats.schedules, 12);
        assert_eq!(seen.len(), 12);
        assert_eq!(stats.max_choice_points, 2 + 1, "2-group + 3-group choices");
    }

    #[test]
    fn cascades_created_by_handlers_are_explored_too() {
        // Each delivered message fans out two same-instant follow-ups; the
        // explorer must treat the growing group as new choice points.
        struct Fanout {
            log: Vec<u32>,
        }
        impl World for Fanout {
            type Message = u32;
            fn handle(&mut self, ctx: &mut Context<'_, u32>, _to: Address, msg: u32) {
                self.log.push(msg);
                if msg < 2 {
                    ctx.deliver_now(Address(0), msg * 10 + 11);
                    ctx.deliver_now(Address(1), msg * 10 + 12);
                }
            }
        }
        let mut seen = BTreeSet::new();
        let stats = explore_schedules(10_000, |cursor| {
            let mut engine = Engine::new();
            let mut world = Fanout { log: Vec::new() };
            engine.inject(SimTime::ZERO, Address(0), 0);
            engine.inject(SimTime::ZERO, Address(1), 1);
            while engine.step_explored(&mut world, cursor) {}
            assert_eq!(world.log.len(), 6, "every schedule delivers all events");
            seen.insert(world.log);
        });
        assert!(stats.exhausted);
        assert!(stats.schedules > 2, "cascade orderings multiply schedules");
        assert_eq!(stats.schedules, seen.len() as u64);
    }
}
