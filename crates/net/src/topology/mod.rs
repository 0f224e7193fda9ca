//! Topology generators.
//!
//! Two families are provided:
//!
//! * [`transit_stub`] — a gt-itm style hierarchical Internet topology
//!   generator reproducing the paper's Small (110 routers), Medium (1,100
//!   routers) and Big (11,000 routers) networks, with the paper's capacity
//!   plan (100/200/500 Mbps) and LAN/WAN propagation delay models.
//! * [`synthetic`] — small, hand-analyzable topologies (line, star, dumbbell,
//!   parking lot, tree) used by unit tests, examples and micro-benchmarks.

pub mod synthetic;
pub mod transit_stub;

use crate::capacity::Capacity;
use crate::delay::Delay;
use rand::Rng;

/// Capacity plan for the three classes of links in a transit–stub topology.
///
/// The defaults follow the paper: 100 Mbps between hosts and stub routers,
/// 200 Mbps between stub routers, and 500 Mbps on transit routers' links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPlan {
    /// Capacity of host ↔ stub-router links.
    pub host_access: Capacity,
    /// Capacity of stub ↔ stub links (including stub ↔ transit attachment).
    pub stub: Capacity,
    /// Capacity of transit ↔ transit links.
    pub transit: Capacity,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan {
            host_access: Capacity::from_mbps(100.0),
            stub: Capacity::from_mbps(200.0),
            transit: Capacity::from_mbps(500.0),
        }
    }
}

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
    /// Fixed delay on every link (for controlled experiments and tests).
    Fixed(Delay),
}

impl DelayModel {
    /// Samples the delay of a host access link.
    pub(crate) fn host_delay<R: Rng + ?Sized>(&self, _rng: &mut R) -> Delay {
        match self {
            DelayModel::Lan | DelayModel::Wan => Delay::from_micros(1),
            DelayModel::Fixed(d) => *d,
        }
    }

    /// Samples the delay of a router-to-router link.
    pub(crate) fn router_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> Delay {
        match self {
            DelayModel::Lan => Delay::from_micros(1),
            DelayModel::Wan => {
                // Uniform in [1 ms, 10 ms], microsecond granularity.
                let us = rng.gen_range(1_000..=10_000);
                Delay::from_micros(us)
            }
            DelayModel::Fixed(d) => *d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_link_plan_matches_paper() {
        let plan = LinkPlan::default();
        assert_eq!(plan.host_access.as_mbps(), 100.0);
        assert_eq!(plan.stub.as_mbps(), 200.0);
        assert_eq!(plan.transit.as_mbps(), 500.0);
    }

    #[test]
    fn lan_delays_are_one_microsecond() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(DelayModel::Lan.host_delay(&mut rng), Delay::from_micros(1));
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
        assert_eq!(DelayModel::Wan.host_delay(&mut rng), Delay::from_micros(1));
    }

    #[test]
    fn fixed_model_is_fixed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = Delay::from_micros(42);
        assert_eq!(DelayModel::Fixed(d).host_delay(&mut rng), d);
        assert_eq!(DelayModel::Fixed(d).router_delay(&mut rng), d);
    }
}
