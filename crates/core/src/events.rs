//! The push-based observer surface of the harness.
//!
//! The paper's interface to B-Neck delivers rates *asynchronously*: the
//! protocol invokes `API.Rate(s, r)` whenever it (re)computes the rate of
//! session `s`, and — B-Neck being quiescent — those invocations simply stop
//! once the allocation has converged. This module is that surface in code:
//!
//! * [`RateEvent`] — one `API.Rate` invocation, timestamped and tagged with
//!   the [`RateCause`] that triggered it;
//! * [`Subscriber`] — the observer trait a harness fans events out to
//!   (callbacks for rates, per-packet transmissions and quiescence);
//! * [`RateEvents`] — a drainable queue handle for consumers that prefer
//!   pulling batches over registering a callback (obtained from
//!   `BneckSimulation::rate_events`).
//!
//! Per-packet observation is opt-in ([`Subscriber::wants_packets`]): a
//! simulation without packet observers pays one branch per packet, nothing
//! more.

use crate::packet::PacketKind;
use bneck_maxmin::{Rate, SessionId};
use bneck_sim::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Why an `API.Rate` notification fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateCause {
    /// First rate delivered to this incarnation of the session after its
    /// `API.Join`.
    Joined,
    /// The session was re-notified because the network re-converged around it
    /// (other sessions joined, left or changed their requests).
    Converged,
    /// First rate delivered after the session's own `API.Change`.
    Changed,
    /// The session left; the carried rate is the last rate its source was
    /// using. Emitted when the harness processes the `API.Leave`.
    Left,
}

/// One `API.Rate(s, r)` invocation, as delivered to [`Subscriber`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEvent {
    /// Simulated time of the notification.
    pub at: SimTime,
    /// The notified session.
    pub session: SessionId,
    /// The rate communicated to the session (bits per second).
    pub rate: Rate,
    /// What triggered the notification.
    pub cause: RateCause,
}

/// An observer of a protocol harness.
///
/// Subscribers are registered on a simulation (see
/// `BneckSimulation::subscribe`) and invoked synchronously while the
/// simulation runs; `Send` keeps a subscribed simulation a `Send` unit for
/// the parallel sweep drivers. All methods except [`Subscriber::on_rate`]
/// default to no-ops.
pub trait Subscriber: Send {
    /// Called for every `API.Rate` notification.
    fn on_rate(&mut self, event: &RateEvent);

    /// Called for every packet transmitted over a link — but only when
    /// [`Subscriber::wants_packets`] returns `true` at registration time.
    fn on_packet(&mut self, _at: SimTime, _kind: PacketKind) {}

    /// Called when a run drains the event queue (the network went quiescent).
    fn on_quiescent(&mut self, _at: SimTime) {}

    /// Opt-in for [`Subscriber::on_packet`]: per-packet fan-out costs a
    /// virtual call on the hottest path, so the harness skips subscribers
    /// that return `false` (the default) entirely.
    fn wants_packets(&self) -> bool {
        false
    }
}

/// Plain closures observe rates: `sim.subscribe(|e: &RateEvent| ...)`.
impl<F: FnMut(&RateEvent) + Send> Subscriber for F {
    fn on_rate(&mut self, event: &RateEvent) {
        self(event)
    }
}

/// A drainable handle onto the stream of [`RateEvent`]s of one simulation.
///
/// Obtained from `BneckSimulation::rate_events` (or
/// `BaselineSimulation::rate_events`): the simulation keeps the writing end
/// as a registered subscriber, the handle is the reading end. After
/// quiescence the stream goes silent — a drain returns the events of the
/// convergence and further runs add nothing.
#[derive(Debug, Clone, Default)]
pub struct RateEvents {
    queue: Arc<Mutex<VecDeque<RateEvent>>>,
}

impl RateEvents {
    /// Creates the reading end together with its writing subscriber.
    pub fn channel() -> (RateEvents, Box<dyn Subscriber>) {
        let events = RateEvents::default();
        let writer = QueueWriter {
            queue: Arc::clone(&events.queue),
        };
        (events, Box::new(writer))
    }

    /// Removes and returns all queued events, oldest first.
    pub fn drain(&self) -> Vec<RateEvent> {
        self.queue
            .lock()
            .expect("rate-event queue poisoned")
            .drain(..)
            .collect()
    }

    /// Removes and returns the oldest queued event, if any.
    pub fn next(&self) -> Option<RateEvent> {
        self.queue
            .lock()
            .expect("rate-event queue poisoned")
            .pop_front()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.lock().expect("rate-event queue poisoned").len()
    }

    /// `true` when no event is queued (after quiescence, draining once and
    /// running further keeps this `true`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct QueueWriter {
    queue: Arc<Mutex<VecDeque<RateEvent>>>,
}

impl Subscriber for QueueWriter {
    fn on_rate(&mut self, event: &RateEvent) {
        self.queue
            .lock()
            .expect("rate-event queue poisoned")
            .push_back(*event);
    }
}

/// The registered observers of one protocol world, with the packet fan-out
/// opt-in resolved once at registration.
///
/// Both harnesses of this workspace (`BneckSimulation` here and the
/// baselines' probing harness) embed one `SubscriberSet`, so the fan-out
/// logic — and its hot-path cost model (one branch per packet when nobody
/// listens) — lives in one place.
#[derive(Default)]
pub struct SubscriberSet {
    subscribers: Vec<Box<dyn Subscriber>>,
    /// `true` when any subscriber wants per-packet callbacks; checked on the
    /// transmit hot path so packet fan-out costs one branch when unused.
    wants_packets: bool,
}

impl SubscriberSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber.
    pub fn subscribe(&mut self, subscriber: Box<dyn Subscriber>) {
        self.wants_packets |= subscriber.wants_packets();
        self.subscribers.push(subscriber);
    }

    /// `true` when nobody is listening.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// `true` when some subscriber opted in to per-packet callbacks — lets a
    /// host whose clock is not free skip reading it for
    /// [`SubscriberSet::note_packet`].
    pub fn wants_packets(&self) -> bool {
        self.wants_packets
    }

    /// Delivers one rate event to every subscriber.
    pub fn emit_rate(&mut self, event: &RateEvent) {
        for subscriber in &mut self.subscribers {
            subscriber.on_rate(event);
        }
    }

    /// Per-packet fan-out to the subscribers that opted in; one branch when
    /// none did.
    #[inline]
    pub fn note_packet(&mut self, at: SimTime, kind: PacketKind) {
        if self.wants_packets {
            for subscriber in &mut self.subscribers {
                if subscriber.wants_packets() {
                    subscriber.on_packet(at, kind);
                }
            }
        }
    }

    /// Tells every subscriber the event queue drained.
    pub(crate) fn announce_quiescent(&mut self, at: SimTime) {
        for subscriber in &mut self.subscribers {
            subscriber.on_quiescent(at);
        }
    }
}

impl std::fmt::Debug for SubscriberSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriberSet")
            .field("subscribers", &self.subscribers.len())
            .field("wants_packets", &self.wants_packets)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_handle_drains_in_order() {
        let (events, mut writer) = RateEvents::channel();
        assert!(events.is_empty());
        for i in 0..3u64 {
            writer.on_rate(&RateEvent {
                at: SimTime::from_micros(i),
                session: SessionId(i),
                rate: i as f64,
                cause: RateCause::Joined,
            });
        }
        assert_eq!(events.len(), 3);
        let first = events.next().unwrap();
        assert_eq!(first.session, SessionId(0));
        let rest = events.drain();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[1].session, SessionId(2));
        assert!(events.is_empty());
    }

    #[test]
    fn closures_are_subscribers() {
        let mut seen = Vec::new();
        {
            let mut subscriber = |e: &RateEvent| seen.push(e.session);
            Subscriber::on_rate(
                &mut subscriber,
                &RateEvent {
                    at: SimTime::ZERO,
                    session: SessionId(9),
                    rate: 1.0,
                    cause: RateCause::Converged,
                },
            );
            assert!(!subscriber.wants_packets());
        }
        assert_eq!(seen, vec![SessionId(9)]);
    }
}

/// Test support: a subscriber that logs every transmitted packet.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Every packet sent, in order; clones share one log.
    #[derive(Clone, Default)]
    pub(crate) struct PacketLog(Arc<Mutex<Vec<(SimTime, PacketKind)>>>);

    impl PacketLog {
        /// A copy of the log so far.
        pub(crate) fn entries(&self) -> Vec<(SimTime, PacketKind)> {
            self.0.lock().expect("log poisoned").clone()
        }
    }

    impl Subscriber for PacketLog {
        fn on_rate(&mut self, _event: &RateEvent) {}

        fn on_packet(&mut self, at: SimTime, kind: PacketKind) {
            self.0.lock().expect("log poisoned").push((at, kind));
        }

        fn wants_packets(&self) -> bool {
            true
        }
    }
}
