//! gt-itm style transit–stub topology generator.
//!
//! The paper generates its evaluation networks with the gt-itm tool configured
//! with "a typical Internet transit-stub model" (Zegura et al.), in three
//! sizes: Small (110 routers), Medium (1,100 routers) and Big (11,000
//! routers), with up to 600,000 hosts. This module re-implements the
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
use crate::graph::{Network, NetworkBuilder, NodeId, RouterLevel};
use crate::topology::{DelayModel, LinkPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
        match self {
            NetworkSize::Small => 110,
            NetworkSize::Medium => 1_100,
            NetworkSize::Big => 11_000,
        }
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

/// Configuration of the transit–stub generator.
///
/// The link capacities are not part of it: every generated network uses the
/// paper's §IV plan, [`LinkPlan::default`] (100 Mbps host access, 200 Mbps
/// stub, 500 Mbps transit), the one plan the evaluation fixes.
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
///
/// let config = TransitStubConfig::of_size(NetworkSize::Small)
///     .with_hosts(200)
///     .with_delay_model(DelayModel::Lan)
///     .with_seed(42);
/// let net = TransitStubGenerator::new(config).generate();
/// assert_eq!(net.router_count(), 110);
/// assert_eq!(net.host_count(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_routers_per_domain: usize,
    /// Stub domains sponsored by each transit router.
    pub stub_domains_per_transit_router: usize,
    /// Routers per stub domain.
    pub routers_per_stub_domain: usize,
    /// Total number of hosts, attached to uniformly random stub routers.
    pub hosts: usize,
    /// Propagation delay model (LAN or WAN in the paper).
    pub delay_model: DelayModel,
    /// Probability of adding a chord edge (beyond the connectivity ring)
    /// between two routers of the same domain.
    pub intra_domain_chord_probability: f64,
    /// Seed for the deterministic random generator.
    pub seed: u64,
}

impl TransitStubConfig {
    /// Returns a configuration matching one of the paper's size classes, with
    /// no hosts (add them with [`TransitStubConfig::with_hosts`]).
    pub fn of_size(size: NetworkSize) -> Self {
        let (td, trpd, sdtr, rpsd) = size.parameters();
        TransitStubConfig {
            transit_domains: td,
            transit_routers_per_domain: trpd,
            stub_domains_per_transit_router: sdtr,
            routers_per_stub_domain: rpsd,
            hosts: 0,
            delay_model: DelayModel::Lan,
            intra_domain_chord_probability: 0.2,
            seed: 1,
        }
    }

    /// Sets the number of hosts.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Sets the propagation delay model.
    pub fn with_delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of routers this configuration will generate.
    pub fn router_count(&self) -> usize {
        let transit = self.transit_domains * self.transit_routers_per_domain;
        transit + transit * self.stub_domains_per_transit_router * self.routers_per_stub_domain
    }
}

/// Deterministic transit–stub topology generator.
#[derive(Debug, Clone)]
pub struct TransitStubGenerator {
    config: TransitStubConfig,
}

impl TransitStubGenerator {
    /// Creates a generator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero.
    pub fn new(config: TransitStubConfig) -> Self {
        assert!(config.transit_domains > 0, "need at least 1 transit domain");
        assert!(
            config.transit_routers_per_domain > 0,
            "need at least 1 transit router per domain"
        );
        assert!(
            config.stub_domains_per_transit_router > 0,
            "need at least 1 stub domain per transit router"
        );
        assert!(
            config.routers_per_stub_domain > 0,
            "need at least 1 router per stub domain"
        );
        TransitStubGenerator { config }
    }

    /// The configuration this generator was created with.
    pub fn config(&self) -> &TransitStubConfig {
        &self.config
    }

    /// Generates the network. Deterministic for a given configuration
    /// (including the seed).
    pub fn generate(&self) -> Network {
        let cfg = &self.config;
        let plan = LinkPlan::default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut b = NetworkBuilder::new();

        // 1. Transit domains.
        let mut transit_domains: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.transit_domains);
        for t in 0..cfg.transit_domains {
            let routers: Vec<NodeId> = (0..cfg.transit_routers_per_domain)
                .map(|i| b.add_router_at(format!("t{t}.{i}"), RouterLevel::Transit))
                .collect();
            self.connect_domain(&mut b, &routers, plan.transit, &mut rng);
            transit_domains.push(routers);
        }

        // 2. Interconnect transit domains in a ring plus random extra links so
        //    the backbone is connected even with a single pair of domains.
        if cfg.transit_domains > 1 {
            for t in 0..cfg.transit_domains {
                let next = (t + 1) % cfg.transit_domains;
                if t < next || cfg.transit_domains > 2 || t == 0 {
                    let a = *pick(&transit_domains[t], &mut rng);
                    let bnode = *pick(&transit_domains[next], &mut rng);
                    if !b.has_link(a, bnode) {
                        let d = cfg.delay_model.router_delay(&mut rng);
                        b.connect(a, bnode, plan.transit, d);
                    }
                }
            }
        }

        // 3. Stub domains: every transit router sponsors a fixed number.
        let mut stub_routers: Vec<NodeId> = Vec::new();
        for (t, domain) in transit_domains.iter().enumerate() {
            for (i, &transit_router) in domain.iter().enumerate() {
                for s in 0..cfg.stub_domains_per_transit_router {
                    let routers: Vec<NodeId> = (0..cfg.routers_per_stub_domain)
                        .map(|j| b.add_router_at(format!("s{t}.{i}.{s}.{j}"), RouterLevel::Stub))
                        .collect();
                    self.connect_domain(&mut b, &routers, plan.stub, &mut rng);
                    // Attach the stub domain to its sponsoring transit router.
                    let gateway = *pick(&routers, &mut rng);
                    let d = cfg.delay_model.router_delay(&mut rng);
                    b.connect(gateway, transit_router, plan.stub, d);
                    stub_routers.extend(routers);
                }
            }
        }

        // 4. Hosts, attached to uniformly random stub routers.
        for h in 0..cfg.hosts {
            let router = *pick(&stub_routers, &mut rng);
            let d = cfg.delay_model.host_delay(&mut rng);
            b.add_host(format!("h{h}"), router, plan.host_access, d);
        }

        b.build()
    }

    /// Connects the routers of one domain: a ring for guaranteed connectivity
    /// plus random chords with the configured probability.
    fn connect_domain(
        &self,
        b: &mut NetworkBuilder,
        routers: &[NodeId],
        capacity: Capacity,
        rng: &mut SmallRng,
    ) {
        let n = routers.len();
        if n == 1 {
            return;
        }
        for i in 0..n {
            let j = (i + 1) % n;
            if (i < j || n > 2) && !b.has_link(routers[i], routers[j]) {
                let d = self.config.delay_model.router_delay(rng);
                b.connect(routers[i], routers[j], capacity, d);
            }
        }
        for i in 0..n {
            for j in (i + 2)..n {
                if (i, j) == (0, n - 1) {
                    continue; // already part of the ring
                }
                if rng.gen_bool(self.config.intra_domain_chord_probability)
                    && !b.has_link(routers[i], routers[j])
                {
                    let d = self.config.delay_model.router_delay(rng);
                    b.connect(routers[i], routers[j], capacity, d);
                }
            }
        }
    }
}

fn pick<'a, T, R: Rng + ?Sized>(items: &'a [T], rng: &mut R) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Convenience constructor: generates one of the paper's networks with the
/// given number of hosts, delay model and seed.
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
/// let net = bneck_net::topology::transit_stub::paper_network(
///     NetworkSize::Small, 100, DelayModel::Lan, 7);
/// assert_eq!(net.router_count(), 110);
/// ```
pub fn paper_network(size: NetworkSize, hosts: usize, delay: DelayModel, seed: u64) -> Network {
    TransitStubGenerator::new(
        TransitStubConfig::of_size(size)
            .with_hosts(hosts)
            .with_delay_model(delay)
            .with_seed(seed),
    )
    .generate()
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
        for size in [NetworkSize::Small, NetworkSize::Medium, NetworkSize::Big] {
            assert_eq!(
                TransitStubConfig::of_size(size).router_count(),
                size.router_count(),
                "config router count must match the size class {size}"
            );
        }
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
        let net = paper_network(NetworkSize::Small, 40, DelayModel::Lan, 9);
        for link in net.links() {
            let src = net.node(link.src()).kind();
            let dst = net.node(link.dst()).kind();
            let mbps = link.capacity().as_mbps();
            use crate::graph::NodeKind::*;
            use crate::graph::RouterLevel::*;
            match (src, dst) {
                (Host, _) | (_, Host) => assert_eq!(mbps, 100.0),
                (Router(Transit), Router(Transit)) => assert_eq!(mbps, 500.0),
                _ => assert_eq!(mbps, 200.0),
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
