//! Topology generators.
//!
//! Two families are provided:
//!
//! * [`transit_stub`] — [`transit_stub::paper_network`], a gt-itm style
//!   hierarchical Internet topology generator reproducing the paper's Small
//!   (110 routers), Medium (1,100 routers) and Big (11,000 routers) networks,
//!   with the paper's capacity plan (100/200/500 Mbps) and a [`DelayModel`],
//!   LAN or WAN.
//! * [`synthetic`] — small, hand-analyzable topologies (line, star, dumbbell,
//!   parking lot, tree) used by unit tests, examples and micro-benchmarks.

pub mod synthetic;
pub mod transit_stub;

use crate::delay::Delay;
use rand::Rng;

/// Propagation delay model used when generating a topology.
///
/// The paper evaluates two scenarios:
/// * **LAN** — every link has a 1 µs propagation delay.
/// * **WAN** — router-to-router links get a delay drawn uniformly at random
///   in 1–10 ms; host access links keep a 1 µs delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Fixed 1 µs propagation delay on every link.
    Lan,
    /// Uniform 1–10 ms on router links, 1 µs on host access links.
    Wan,
}

impl DelayModel {
    /// Samples the delay of a router-to-router link.
    pub(crate) fn router_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> Delay {
        match self {
            DelayModel::Lan => Delay::from_micros(1),
            DelayModel::Wan => {
                // Uniform in [1 ms, 10 ms], microsecond granularity.
                let us = rng.gen_range(1_000..=10_000);
                Delay::from_micros(us)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lan_delays_are_one_microsecond() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            DelayModel::Lan.router_delay(&mut rng),
            Delay::from_micros(1)
        );
    }

    #[test]
    fn wan_router_delays_are_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = DelayModel::Wan.router_delay(&mut rng);
            assert!(d >= Delay::from_millis(1) && d <= Delay::from_millis(10));
        }
    }
}
