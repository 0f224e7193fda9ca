//! Sharing a tree-shaped datacenter fabric: many flows with heterogeneous
//! demands traverse a binary-tree topology; B-Neck computes the max-min fair
//! rates and reports which links end up as bottlenecks.
//!
//! Run with:
//!
//! ```text
//! cargo run -p bneck --example datacenter_fabric
//! ```

use bneck::prelude::*;

fn main() {
    // A binary tree of depth 3 (15 routers) with 4 hosts per leaf, 1 Gbps
    // core links and 100 Mbps host links: a miniature datacenter fabric.
    let network = synthetic::binary_tree(
        3,
        4,
        Capacity::from_mbps(100.0),
        Capacity::from_gbps(1.0),
        Delay::from_micros(5),
    );
    let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
    println!(
        "fabric: {} routers, {} hosts, {} directed links",
        network.router_count(),
        network.host_count(),
        network.link_count()
    );

    let mut sim = BneckSimulation::new(&network, BneckConfig::default());

    // Cross-rack flows: host i sends to the host "opposite" in the tree, so
    // every flow crosses the core. A third of the flows are small (capped),
    // mimicking short RPC-style traffic next to bulk transfers.
    let mut joined = 0u64;
    for (i, &source) in hosts.iter().enumerate() {
        let destination = hosts[(i + hosts.len() / 2) % hosts.len()];
        if source == destination {
            continue;
        }
        let limit = if i % 3 == 0 {
            RateLimit::finite(20e6)
        } else {
            RateLimit::unlimited()
        };
        let at = SimTime::from_micros(10 * i as u64);
        if sim
            .join(at, SessionId(joined), source, destination, limit)
            .is_ok()
        {
            joined += 1;
        }
    }
    println!("{joined} flows joined");

    let report = sim.run_to_quiescence();
    println!(
        "converged in {} us with {} control packets ({:.1} per flow)",
        report.quiescent_at.as_micros(),
        sim.packet_stats().total(),
        sim.packet_stats().total() as f64 / joined as f64
    );

    // Validate against the oracle and show the bottleneck structure.
    let sessions = sim.session_set();
    let solution = CentralizedBneck::new(&network, &sessions).solve_with_bottlenecks();
    compare_allocations(
        &sessions,
        &sim.allocation(),
        &solution.allocation,
        Tolerance::new(1e-6, 1.0),
    )
    .expect("the distributed rates match the centralized oracle");

    println!("\nbottleneck links (links that limit at least one flow):");
    let mut bottlenecks: Vec<_> = solution.bottleneck_links().collect();
    bottlenecks.sort_by(|a, b| {
        a.bottleneck_rate
            .partial_cmp(&b.bottleneck_rate)
            .expect("rates are not NaN")
    });
    for link in bottlenecks.iter().take(8) {
        let l = network.link(link.link);
        println!(
            "  {} -> {}: bottleneck rate {:.1} Mbps, {} flows restricted here, {} restricted elsewhere",
            l.src(),
            l.dst(),
            link.bottleneck_rate.unwrap_or(0.0) / 1e6,
            link.restricted.len(),
            link.unrestricted.len()
        );
    }

    // Rate distribution across flows.
    let mut rates: Vec<f64> = sim.allocation().iter().map(|(_, r)| r / 1e6).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are not NaN"));
    println!(
        "\nflow rates: min {:.1} Mbps, median {:.1} Mbps, max {:.1} Mbps",
        rates.first().unwrap(),
        rates[rates.len() / 2],
        rates.last().unwrap()
    );
}
