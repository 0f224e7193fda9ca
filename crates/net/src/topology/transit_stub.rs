//! gt-itm style transit–stub topology generator.
//!
//! The paper generates its evaluation networks with the gt-itm tool configured
//! with "a typical Internet transit-stub model" (Zegura et al.), in three
//! sizes: Small (110 routers), Medium (1,100 routers) and Big (11,000
//! routers), with up to 600,000 hosts. [`paper_network`] re-implements the
//! transit–stub construction:
//!
//! * a set of *transit domains*, each a connected random graph of transit
//!   routers; transit domains are interconnected;
//! * each transit router sponsors several *stub domains*, each a connected
//!   random graph of stub routers, attached to the sponsoring transit router;
//! * hosts attach to stub routers chosen uniformly at random.
//!
//! Link capacities follow the paper's plan (100 Mbps host access, 200 Mbps
//! stub, 500 Mbps transit) and propagation delays follow the LAN or WAN model.

use crate::capacity::Capacity;
use crate::delay::Delay;
use crate::graph::{Network, NetworkBuilder, NodeId};
use crate::topology::DelayModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Capacity of host ↔ stub-router links, in Mbps.
const HOST_ACCESS_MBPS: f64 = 100.0;
/// Capacity of stub ↔ stub links, including a stub domain's attachment to its
/// transit router, in Mbps.
const STUB_MBPS: f64 = 200.0;
/// Capacity of transit ↔ transit links, in Mbps.
const TRANSIT_MBPS: f64 = 500.0;
/// Propagation delay of a host access link, under either delay model.
const HOST_DELAY: Delay = Delay::from_micros(1);
/// Probability of a chord (beyond the connectivity ring) between two routers
/// of the same domain.
const CHORD_PROBABILITY: f64 = 0.2;

/// The three network sizes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkSize {
    /// 110 routers (10 transit + 100 stub).
    Small,
    /// 1,100 routers (20 transit + 1,080 stub).
    Medium,
    /// 11,000 routers (110 transit + 10,890 stub).
    Big,
}

impl NetworkSize {
    /// The total number of routers of this size class.
    pub fn router_count(self) -> usize {
        let (domains, transit_per_domain, stubs_per_transit, routers_per_stub) = self.parameters();
        let transit = domains * transit_per_domain;
        transit + transit * stubs_per_transit * routers_per_stub
    }

    /// The structural parameters (transit domains, transit routers per domain,
    /// stub domains per transit router, routers per stub domain).
    fn parameters(self) -> (usize, usize, usize, usize) {
        match self {
            NetworkSize::Small => (1, 10, 2, 5),
            NetworkSize::Medium => (2, 10, 6, 9),
            NetworkSize::Big => (10, 11, 9, 11),
        }
    }
}

impl std::fmt::Display for NetworkSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkSize::Small => write!(f, "small"),
            NetworkSize::Medium => write!(f, "medium"),
            NetworkSize::Big => write!(f, "big"),
        }
    }
}

/// Generates one of the paper's networks with `hosts` hosts, the given delay
/// model and seed. Deterministic for a given `(size, hosts, delay, seed)`.
///
/// The transit routers take the first node identifiers, then come the stub
/// routers, domain by domain, then the hosts.
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
/// use bneck_net::topology::transit_stub::paper_network;
///
/// let net = paper_network(NetworkSize::Small, 200, DelayModel::Lan, 42);
/// assert_eq!(net.router_count(), 110);
/// assert_eq!(net.host_count(), 200);
/// ```
pub fn paper_network(size: NetworkSize, hosts: usize, delay: DelayModel, seed: u64) -> Network {
    let (domains, transit_per_domain, stubs_per_transit, routers_per_stub) = size.parameters();
    let transit = Capacity::from_mbps(TRANSIT_MBPS);
    let stub = Capacity::from_mbps(STUB_MBPS);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();

    // 1. Transit domains.
    let mut transit_domains: Vec<Vec<NodeId>> = Vec::with_capacity(domains);
    for _ in 0..domains {
        let routers: Vec<NodeId> = (0..transit_per_domain).map(|_| b.add_router()).collect();
        connect_domain(&mut b, &routers, transit, delay, &mut rng);
        transit_domains.push(routers);
    }

    // 2. Interconnect transit domains in a ring (one link when there are
    //    two) so the backbone is connected.
    for t in 0..domains {
        let next = (t + 1) % domains;
        if t < next || domains > 2 {
            let a = *pick(&transit_domains[t], &mut rng);
            let z = *pick(&transit_domains[next], &mut rng);
            let d = delay.router_delay(&mut rng);
            b.connect(a, z, transit, d);
        }
    }

    // 3. Stub domains: every transit router sponsors a fixed number.
    let mut stub_routers: Vec<NodeId> = Vec::new();
    for &transit_router in transit_domains.iter().flatten() {
        for _ in 0..stubs_per_transit {
            let routers: Vec<NodeId> = (0..routers_per_stub).map(|_| b.add_router()).collect();
            connect_domain(&mut b, &routers, stub, delay, &mut rng);
            // Attach the stub domain to its sponsoring transit router.
            let gateway = *pick(&routers, &mut rng);
            let d = delay.router_delay(&mut rng);
            b.connect(gateway, transit_router, stub, d);
            stub_routers.extend(routers);
        }
    }

    // 4. Hosts, attached to uniformly random stub routers.
    let host_access = Capacity::from_mbps(HOST_ACCESS_MBPS);
    for _ in 0..hosts {
        let router = *pick(&stub_routers, &mut rng);
        b.add_host(router, host_access, HOST_DELAY);
    }

    b.build()
}

/// Connects the routers of one domain: a ring for guaranteed connectivity
/// plus random chords with probability [`CHORD_PROBABILITY`].
fn connect_domain(
    b: &mut NetworkBuilder,
    routers: &[NodeId],
    capacity: Capacity,
    delay: DelayModel,
    rng: &mut SmallRng,
) {
    let n = routers.len();
    if n == 1 {
        return;
    }
    for i in 0..n {
        let j = (i + 1) % n;
        if i < j || n > 2 {
            let d = delay.router_delay(rng);
            b.connect(routers[i], routers[j], capacity, d);
        }
    }
    for i in 0..n {
        for j in (i + 2)..n {
            if (i, j) == (0, n - 1) {
                continue; // already part of the ring
            }
            if rng.gen_bool(CHORD_PROBABILITY) {
                let d = delay.router_delay(rng);
                b.connect(routers[i], routers[j], capacity, d);
            }
        }
    }
}

fn pick<'a, T, R: Rng + ?Sized>(items: &'a [T], rng: &mut R) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;

    #[test]
    fn size_classes_have_paper_router_counts() {
        assert_eq!(NetworkSize::Small.router_count(), 110);
        assert_eq!(NetworkSize::Medium.router_count(), 1_100);
        assert_eq!(NetworkSize::Big.router_count(), 11_000);
    }

    #[test]
    fn small_network_is_generated_with_exact_counts() {
        let net = paper_network(NetworkSize::Small, 50, DelayModel::Lan, 1);
        assert_eq!(net.router_count(), 110);
        assert_eq!(net.host_count(), 50);
        assert_eq!(net.node_count(), 160);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = paper_network(NetworkSize::Small, 20, DelayModel::Wan, 33);
        let b = paper_network(NetworkSize::Small, 20, DelayModel::Wan, 33);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.link_count(), b.link_count());
        for (la, lb) in a.links().zip(b.links()) {
            assert_eq!(la.src(), lb.src());
            assert_eq!(la.dst(), lb.dst());
            assert_eq!(la.capacity(), lb.capacity());
            assert_eq!(la.delay(), lb.delay());
        }
        let c = paper_network(NetworkSize::Small, 20, DelayModel::Wan, 34);
        assert!(
            c.link_count() != a.link_count()
                || c.links()
                    .zip(a.links())
                    .any(|(x, y)| x.delay() != y.delay()),
            "different seeds should give different networks"
        );
    }

    #[test]
    fn every_host_pair_is_connected() {
        let net = paper_network(NetworkSize::Small, 30, DelayModel::Lan, 5);
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        for i in 0..hosts.len() {
            let j = (i + 7) % hosts.len();
            if i == j {
                continue;
            }
            assert!(
                router.shortest_path(hosts[i], hosts[j]).is_some(),
                "host {i} cannot reach host {j}"
            );
        }
    }

    #[test]
    fn capacity_plan_is_applied_per_link_class() {
        // Small has one transit domain of 10 routers: node ids 0..10.
        let is_transit = |node: NodeId| node.index() < 10;
        for delay in [DelayModel::Lan, DelayModel::Wan] {
            let net = paper_network(NetworkSize::Small, 40, delay, 9);
            for link in net.links() {
                let (src, dst) = (link.src(), link.dst());
                let mbps = link.capacity().as_mbps();
                if net.node(src).kind().is_host() || net.node(dst).kind().is_host() {
                    assert_eq!(mbps, 100.0);
                    assert_eq!(link.delay(), Delay::from_micros(1));
                } else if is_transit(src) && is_transit(dst) {
                    assert_eq!(mbps, 500.0);
                } else {
                    assert_eq!(mbps, 200.0);
                }
            }
        }
    }

    #[test]
    fn wan_delays_are_heterogeneous() {
        let net = paper_network(NetworkSize::Small, 10, DelayModel::Wan, 11);
        let mut distinct = std::collections::BTreeSet::new();
        for link in net.links() {
            distinct.insert(link.delay());
        }
        assert!(distinct.len() > 3, "WAN delays should vary across links");
    }

    #[test]
    fn medium_network_counts() {
        let net = paper_network(NetworkSize::Medium, 0, DelayModel::Lan, 2);
        assert_eq!(net.router_count(), 1_100);
    }
}
