//! Common vocabulary shared by the three protocol tasks.
//!
//! Every task handler is a pure function from an input (an API primitive or a
//! received packet) to a sequence of [`Action`]s, handed one at a time to a
//! caller-provided [`Emit`]. The task host's emitter routes, counts and
//! transmits each action the moment it is emitted, so no action is stored and
//! read back on the hot path; [`ActionBuffer`] collects them instead, for
//! callers that want to look at a handler's output.

use crate::packet::Packet;
use bneck_maxmin::{Rate, SessionId};
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Per-session probe state at a link (`μ_e^s` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum ProbeState {
    /// No probe activity pending for this session at this link.
    #[default]
    Idle,
    /// The link asked the session (through an `Update`) to start a new Probe
    /// cycle and is waiting for the corresponding `Probe` to come through.
    WaitingProbe,
    /// A `Join`/`Probe` went downstream through this link and the link is
    /// waiting for the matching `Response`.
    WaitingResponse,
}

impl ProbeState {
    /// `true` when the state is [`ProbeState::Idle`].
    pub fn is_idle(self) -> bool {
        matches!(self, ProbeState::Idle)
    }
}

/// An effect produced by a task handler.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum Action {
    /// Send a packet downstream (towards the session's destination).
    SendDownstream(Packet),
    /// Send a packet upstream (towards the session's source).
    SendUpstream(Packet),
    /// Invoke `API.Rate(session, rate)`: notify the application of its rate.
    NotifyRate {
        /// The session being notified.
        session: SessionId,
        /// The rate assigned to the session.
        rate: Rate,
    },
}

/// Where a task handler's [`Action`]s go, in emission order.
pub trait Emit {
    /// Carries out (or records) one action.
    fn emit(&mut self, action: Action);
}

/// An [`Emit`] that keeps the actions, for callers that inspect a handler's
/// output. Handlers only append; the caller decides when to
/// [`clear`](ActionBuffer::clear) the buffer, which keeps its allocation.
#[derive(Debug, Clone, Default)]
pub struct ActionBuffer {
    actions: Vec<Action>,
}

impl ActionBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` when no action is buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The buffered actions, in emission order.
    pub fn as_slice(&self) -> &[Action] {
        &self.actions
    }

    /// Removes all buffered actions, keeping the allocation.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Consumes the buffer into a plain vector (mainly for tests).
    pub fn into_vec(self) -> Vec<Action> {
        self.actions
    }
}

impl Emit for ActionBuffer {
    #[inline]
    fn emit(&mut self, action: Action) {
        self.actions.push(action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_state_default_is_idle() {
        assert_eq!(ProbeState::default(), ProbeState::Idle);
        assert!(ProbeState::Idle.is_idle());
        assert!(!ProbeState::WaitingProbe.is_idle());
        assert!(!ProbeState::WaitingResponse.is_idle());
    }
}
