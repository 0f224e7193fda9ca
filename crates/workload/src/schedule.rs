//! Timed workload event schedules.

use crate::sessions::SessionRequest;
use bneck_core::BneckSimulation;
use bneck_maxmin::{RateLimit, SessionId};

use bneck_sim::SimTime;

/// One workload action (an invocation of an API primitive).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadEvent {
    /// `API.Join(s, r)` for a planned session (the request carries the
    /// already-routed path, so targets need not repeat the shortest-path
    /// search).
    Join {
        /// The planned session.
        request: SessionRequest,
    },
    /// `API.Leave(s)`.
    Leave {
        /// The departing session.
        session: SessionId,
    },
    /// `API.Change(s, r)`.
    Change {
        /// The session changing its request.
        session: SessionId,
        /// The new maximum requested rate.
        limit: RateLimit,
    },
}

/// A workload event with the time at which it is injected.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Injection time.
    pub at: SimTime,
    /// The event.
    pub event: WorkloadEvent,
}

/// Counters of how a schedule was applied to a harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Join events accepted.
    pub joins: usize,
    /// Leave events accepted.
    pub leaves: usize,
    /// Change events accepted.
    pub changes: usize,
    /// Events rejected by the harness (for example a join from a busy source
    /// host or a leave for an unknown session).
    pub rejected: usize,
}

impl ApplyStats {
    /// Total accepted events.
    pub fn accepted(&self) -> usize {
        self.joins + self.leaves + self.changes
    }
}

/// Anything that can accept workload events: the B-Neck harness, the baseline
/// harnesses, or test doubles.
pub trait ScheduleTarget {
    /// Applies a join; returns `false` if the target rejected it. The request
    /// carries the planner's routed path, which targets should reuse instead
    /// of recomputing the route.
    fn apply_join(&mut self, at: SimTime, request: &SessionRequest) -> bool;

    /// Applies a leave; returns `false` if the target rejected it.
    fn apply_leave(&mut self, at: SimTime, session: SessionId) -> bool;

    /// Applies a rate change; returns `false` if the target rejected it.
    fn apply_change(&mut self, at: SimTime, session: SessionId, limit: RateLimit) -> bool;
}

impl ScheduleTarget for BneckSimulation<'_> {
    fn apply_join(&mut self, at: SimTime, request: &SessionRequest) -> bool {
        self.join_with_path(at, request.session, request.path.clone(), request.limit)
            .is_ok()
    }

    fn apply_leave(&mut self, at: SimTime, session: SessionId) -> bool {
        self.leave(at, session).is_ok()
    }

    fn apply_change(&mut self, at: SimTime, session: SessionId, limit: RateLimit) -> bool {
        self.change(at, session, limit).is_ok()
    }
}

/// A time-ordered sequence of workload events.
///
/// Events are stored in push order and sorted lazily: [`Schedule::push`] is
/// O(1) (the schedule used to re-sort the whole vector on every push, which
/// is quadratic and ruled out paper-scale workloads of tens of thousands of
/// joins), and the ordered accessors ([`Schedule::iter`] and
/// [`Schedule::apply`]) sort a temporary index
/// permutation when pushes arrived out of order. Equal timestamps keep their
/// push order, as before.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    events: Vec<TimedEvent>,
    /// `true` while `events` is non-decreasing in time (pushes appended in
    /// order); ordered accessors then skip the permutation sort.
    sorted: bool,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule {
            events: Vec::new(),
            sorted: true,
        }
    }

    /// Adds an event in O(1); the schedule sorts lazily on ordered access.
    pub fn push(&mut self, at: SimTime, event: WorkloadEvent) {
        if let Some(last) = self.events.last() {
            if at < last.at {
                self.sorted = false;
            }
        }
        self.events.push(TimedEvent { at, event });
    }

    /// Adds a join event built from a [`SessionRequest`].
    pub(crate) fn push_join(&mut self, at: SimTime, request: SessionRequest) {
        self.push(at, WorkloadEvent::Join { request });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The indices of `events` in `(time, push order)` order.
    fn time_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.events.len() as u32).collect();
        if !self.sorted {
            order.sort_by_key(|&i| (self.events[i as usize].at, i));
        }
        order
    }

    /// Iterates over the events in time order (equal timestamps in push
    /// order).
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.time_order()
            .into_iter()
            .map(move |i| &self.events[i as usize])
    }

    /// Number of events of each kind `(joins, leaves, changes)`.
    pub fn breakdown(&self) -> (usize, usize, usize) {
        let mut joins = 0;
        let mut leaves = 0;
        let mut changes = 0;
        for e in &self.events {
            match e.event {
                WorkloadEvent::Join { .. } => joins += 1,
                WorkloadEvent::Leave { .. } => leaves += 1,
                WorkloadEvent::Change { .. } => changes += 1,
            }
        }
        (joins, leaves, changes)
    }

    /// Applies every event to `target`, in time order. Accepts unsized
    /// targets, so experiment drivers can apply a schedule through
    /// `&mut dyn ProtocolWorld` without monomorphizing per protocol.
    pub fn apply<T: ScheduleTarget + ?Sized>(&self, target: &mut T) -> ApplyStats {
        let mut stats = ApplyStats::default();
        for i in self.time_order() {
            let TimedEvent { at, event } = &self.events[i as usize];
            let accepted = match event {
                WorkloadEvent::Join { request } => {
                    let ok = target.apply_join(*at, request);
                    if ok {
                        stats.joins += 1;
                    }
                    ok
                }
                WorkloadEvent::Leave { session } => {
                    let ok = target.apply_leave(*at, *session);
                    if ok {
                        stats.leaves += 1;
                    }
                    ok
                }
                WorkloadEvent::Change { session, limit } => {
                    let ok = target.apply_change(*at, *session, *limit);
                    if ok {
                        stats.changes += 1;
                    }
                    ok
                }
            };
            if !accepted {
                stats.rejected += 1;
            }
        }
        stats
    }
}

impl FromIterator<TimedEvent> for Schedule {
    fn from_iter<T: IntoIterator<Item = TimedEvent>>(iter: T) -> Self {
        let mut events: Vec<TimedEvent> = iter.into_iter().collect();
        events.sort_by_key(|e| e.at);
        Schedule {
            events,
            sorted: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::prelude::*;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, &'static str)>,
        reject_leaves: bool,
    }

    impl ScheduleTarget for Recorder {
        fn apply_join(&mut self, at: SimTime, _request: &SessionRequest) -> bool {
            self.log.push((at.as_micros(), "join"));
            true
        }
        fn apply_leave(&mut self, at: SimTime, _session: SessionId) -> bool {
            self.log.push((at.as_micros(), "leave"));
            !self.reject_leaves
        }
        fn apply_change(&mut self, at: SimTime, _session: SessionId, _limit: RateLimit) -> bool {
            self.log.push((at.as_micros(), "change"));
            true
        }
    }

    fn sample_request() -> SessionRequest {
        let net = synthetic::line(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(100.0),
            Delay::from_micros(1),
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let path = Router::new(&net).shortest_path(hosts[0], hosts[1]).unwrap();
        SessionRequest {
            session: SessionId(0),
            source: hosts[0],
            destination: hosts[1],
            limit: RateLimit::unlimited(),
            path,
        }
    }

    fn sample_schedule() -> Schedule {
        let mut s = Schedule::new();
        s.push(
            SimTime::from_micros(30),
            WorkloadEvent::Leave {
                session: SessionId(0),
            },
        );
        s.push(
            SimTime::from_micros(10),
            WorkloadEvent::Join {
                request: sample_request(),
            },
        );
        s.push(
            SimTime::from_micros(20),
            WorkloadEvent::Change {
                session: SessionId(0),
                limit: RateLimit::finite(1e6),
            },
        );
        s
    }

    #[test]
    fn events_are_kept_in_time_order() {
        let s = sample_schedule();
        let times: Vec<u64> = s.iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(
            s.iter().last().map(|e| e.at),
            Some(SimTime::from_micros(30))
        );
        assert_eq!(s.breakdown(), (1, 1, 1));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn apply_preserves_order_and_counts() {
        let s = sample_schedule();
        let mut target = Recorder::default();
        let stats = s.apply(&mut target);
        assert_eq!(
            target.log,
            vec![(10, "join"), (20, "change"), (30, "leave")]
        );
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.changes, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.accepted(), 3);
    }

    #[test]
    fn rejections_are_counted() {
        let s = sample_schedule();
        let mut target = Recorder {
            reject_leaves: true,
            ..Default::default()
        };
        let stats = s.apply(&mut target);
        assert_eq!(stats.leaves, 0);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn merge_and_collect() {
        let (a, b) = (sample_schedule(), sample_schedule());
        let collected: Schedule = a.iter().chain(b.iter()).cloned().collect();
        assert_eq!(collected.len(), 6);
        let times: Vec<u64> = collected.iter().map(|e| e.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
