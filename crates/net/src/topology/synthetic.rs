//! Small hand-analyzable topologies used by tests, examples and benchmarks.
//!
//! Each generator returns a [`Network`] whose max-min fair allocation can be
//! computed by hand, which makes them ideal for unit tests of both the
//! centralized oracle and the distributed protocol.

use crate::capacity::Capacity;
use crate::delay::Delay;
use crate::graph::{Network, NetworkBuilder, NodeId};

/// A chain of `routers` routers, each with one host attached:
///
/// ```text
/// h0   h1   h2
///  |    |    |
/// r0 - r1 - r2 - ...
/// ```
///
/// Host links get `host_capacity`, router-to-router links get
/// `backbone_capacity`, and every link has propagation delay `delay`.
///
/// # Panics
///
/// Panics if `routers == 0`.
pub fn line(
    routers: usize,
    host_capacity: Capacity,
    backbone_capacity: Capacity,
    delay: Delay,
) -> Network {
    assert!(routers > 0, "a line needs at least one router");
    let mut b = NetworkBuilder::new();
    let mut prev: Option<NodeId> = None;
    for _ in 0..routers {
        let r = b.add_router();
        if let Some(p) = prev {
            b.connect(p, r, backbone_capacity, delay);
        }
        b.add_host(r, host_capacity, delay);
        prev = Some(r);
    }
    b.build()
}

/// A star: one central router with `hosts` hosts attached directly to it.
///
/// # Panics
///
/// Panics if `hosts == 0`.
pub fn star(hosts: usize, host_capacity: Capacity, delay: Delay) -> Network {
    assert!(hosts > 0, "a star needs at least one host");
    let mut b = NetworkBuilder::new();
    let hub = b.add_router();
    for _ in 0..hosts {
        b.add_host(hub, host_capacity, delay);
    }
    b.build()
}

/// The classic dumbbell: `pairs` sources on the left, `pairs` sinks on the
/// right, and a single shared bottleneck link between two routers.
///
/// ```text
/// s0 \          / d0
/// s1 - rl ==== rr - d1
/// s2 /  bottleneck \ d2
/// ```
///
/// # Panics
///
/// Panics if `pairs == 0`.
pub fn dumbbell(
    pairs: usize,
    host_capacity: Capacity,
    bottleneck_capacity: Capacity,
    delay: Delay,
) -> Network {
    assert!(pairs > 0, "a dumbbell needs at least one pair");
    let mut b = NetworkBuilder::new();
    let left = b.add_router();
    let right = b.add_router();
    b.connect(left, right, bottleneck_capacity, delay);
    for _ in 0..pairs {
        b.add_host(left, host_capacity, delay);
        b.add_host(right, host_capacity, delay);
    }
    b.build()
}

/// The "parking lot" topology with `segments` backbone links in a row and one
/// host per router. A long session crossing every segment competes with short
/// sessions that each cross a single segment, which produces a chain of
/// dependent bottlenecks — the classic stress test for max-min algorithms.
///
/// # Panics
///
/// Panics if `segments == 0`.
pub fn parking_lot(
    segments: usize,
    host_capacity: Capacity,
    backbone_capacity: Capacity,
    delay: Delay,
) -> Network {
    line(segments + 1, host_capacity, backbone_capacity, delay)
}

/// A balanced binary tree of routers of the given `depth` (the root is depth
/// 0), with `hosts_per_leaf` hosts attached to each leaf router.
///
/// Internal links get `backbone_capacity`; host links get `host_capacity`.
///
/// # Panics
///
/// Panics if `hosts_per_leaf == 0`.
pub fn binary_tree(
    depth: u32,
    hosts_per_leaf: usize,
    host_capacity: Capacity,
    backbone_capacity: Capacity,
    delay: Delay,
) -> Network {
    assert!(hosts_per_leaf > 0, "need at least one host per leaf");
    let mut b = NetworkBuilder::new();
    let mut level: Vec<NodeId> = vec![b.add_router()];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(level.len() * 2);
        for &parent in &level {
            for _ in 0..2 {
                let child = b.add_router();
                b.connect(parent, child, backbone_capacity, delay);
                next.push(child);
            }
        }
        level = next;
    }
    for &leaf in &level {
        for _ in 0..hosts_per_leaf {
            b.add_host(leaf, host_capacity, delay);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;

    fn c(m: f64) -> Capacity {
        Capacity::from_mbps(m)
    }
    fn d() -> Delay {
        Delay::from_micros(1)
    }

    #[test]
    fn line_counts() {
        let net = line(4, c(100.0), c(200.0), d());
        assert_eq!(net.router_count(), 4);
        assert_eq!(net.host_count(), 4);
        // 3 router-router connections * 2 + 4 host connections * 2
        assert_eq!(net.link_count(), 14);
    }

    #[test]
    fn star_counts_and_paths() {
        let net = star(5, c(100.0), d());
        assert_eq!(net.router_count(), 1);
        assert_eq!(net.host_count(), 5);
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut r = Router::new(&net);
        let p = r.shortest_path(hosts[0], hosts[4]).unwrap();
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn dumbbell_bottleneck_is_shared() {
        let net = dumbbell(3, c(100.0), c(150.0), d());
        assert_eq!(net.host_count(), 6);
        assert_eq!(net.router_count(), 2);
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut r = Router::new(&net);
        // src_i -> dst_i crosses the single bottleneck; all paths share it.
        let p0 = r.shortest_path(hosts[0], hosts[1]).unwrap();
        let p1 = r.shortest_path(hosts[2], hosts[3]).unwrap();
        let shared: Vec<_> = p0
            .links()
            .iter()
            .filter(|l| p1.links().contains(l))
            .collect();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn parking_lot_is_a_longer_line() {
        let net = parking_lot(3, c(100.0), c(200.0), d());
        assert_eq!(net.router_count(), 4);
    }

    #[test]
    fn binary_tree_structure() {
        let net = binary_tree(3, 2, c(100.0), c(500.0), d());
        // 1 + 2 + 4 + 8 = 15 routers, 8 leaves * 2 hosts = 16 hosts
        assert_eq!(net.router_count(), 15);
        assert_eq!(net.host_count(), 16);
        // every host can reach every other host
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut r = Router::new(&net);
        assert!(r.shortest_path(hosts[0], hosts[15]).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn empty_line_rejected() {
        let _ = line(0, c(1.0), c(1.0), d());
    }
}
