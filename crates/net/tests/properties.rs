//! Property-based tests of the network substrate: generated topologies are
//! well formed and connected, and the shortest-path router returns valid
//! minimum-hop paths.

use bneck_net::prelude::*;
use bneck_net::topology::transit_stub::paper_network;
use proptest::prelude::*;

fn check_network_invariants(network: &Network) {
    // Every link has a reverse companion (the paper's model: connected nodes
    // have links in both directions) and sane attributes.
    for link in network.links() {
        assert!(network.reverse_link(link.id()).is_some());
        assert!(link.capacity().as_bps() > 0.0);
        assert_ne!(link.src(), link.dst());
        assert_eq!(network.link(link.id()).id(), link.id());
    }
    // Hosts have exactly one bidirectional attachment and never forward.
    for host in network.hosts() {
        assert_eq!(network.out_links(host.id()).len(), 1);
        let attachment = network.out_links(host.id())[0];
        assert!(network
            .node(network.link(attachment).dst())
            .kind()
            .is_router());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Small transit-stub networks are structurally sound and fully connected
    /// between hosts, for any seed and either delay model.
    #[test]
    fn transit_stub_networks_are_well_formed(
        seed in 0u64..10_000,
        hosts in 2usize..60,
        wan in proptest::bool::ANY,
    ) {
        let delay = if wan { DelayModel::Wan } else { DelayModel::Lan };
        let network = paper_network(NetworkSize::Small, hosts, delay, seed);
        prop_assert_eq!(network.router_count(), 110);
        prop_assert_eq!(network.host_count(), hosts);
        check_network_invariants(&network);

        // Every sampled pair of hosts is mutually reachable.
        let host_ids: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&network);
        for i in (0..host_ids.len()).step_by(7.max(host_ids.len() / 5)) {
            let a = host_ids[i];
            let b = host_ids[(i + 1) % host_ids.len()];
            if a == b {
                continue;
            }
            let forward = router.shortest_path(a, b);
            let backward = router.shortest_path(b, a);
            prop_assert!(forward.is_some());
            prop_assert!(backward.is_some());
            // Minimum-hop distance is symmetric in a symmetric graph.
            prop_assert_eq!(forward.unwrap().hop_count(), backward.unwrap().hop_count());
        }
    }

    /// Shortest paths are valid chains between the requested endpoints, never
    /// longer than the hop distance reported by a full BFS, and never route
    /// through an intermediate host.
    #[test]
    fn shortest_paths_are_valid_and_minimal(
        seed in 0u64..10_000,
        hosts in 2usize..40,
    ) {
        let network = paper_network(NetworkSize::Small, hosts, DelayModel::Lan, seed);
        let host_ids: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&network);
        let a = host_ids[seed as usize % host_ids.len()];
        let b = host_ids[(seed as usize / 3 + 1) % host_ids.len()];
        prop_assume!(a != b);
        let distances = router.hop_distances(a);
        let path = router.shortest_path(a, b).expect("hosts are connected");
        prop_assert_eq!(path.source(), a);
        prop_assert_eq!(path.destination(), b);
        prop_assert_eq!(path.hop_count(), distances[b.index()]);
        // The path is a connected chain of existing links.
        for pair in path.links().windows(2) {
            prop_assert_eq!(network.link(pair[0]).dst(), network.link(pair[1]).src());
        }
        for node in &path.nodes()[1..path.nodes().len() - 1] {
            prop_assert!(network.node(*node).kind().is_router());
        }
    }

    /// Synthetic topologies expose the documented shape.
    #[test]
    fn synthetic_generators_have_expected_counts(
        n in 1usize..12,
        host_mbps in 10.0f64..200.0,
        core_mbps in 10.0f64..500.0,
    ) {
        let host = Capacity::from_mbps(host_mbps);
        let core = Capacity::from_mbps(core_mbps);
        let delay = Delay::from_micros(1);

        let line = synthetic::line(n, host, core, delay);
        prop_assert_eq!(line.router_count(), n);
        prop_assert_eq!(line.host_count(), n);

        let star = synthetic::star(n, host, delay);
        prop_assert_eq!(star.router_count(), 1);
        prop_assert_eq!(star.host_count(), n);
        prop_assert_eq!(star.link_count(), 2 * n);

        let dumbbell = synthetic::dumbbell(n, host, core, delay);
        prop_assert_eq!(dumbbell.host_count(), 2 * n);
        check_network_invariants(&dumbbell);
    }
}
