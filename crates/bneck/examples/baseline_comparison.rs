//! B-Neck versus a non-quiescent baseline (BFYZ) on the same workload: both
//! converge to (nearly) max-min fair rates, but B-Neck stops sending control
//! packets once the rates are computed while BFYZ keeps probing forever.
//!
//! This is a miniature version of the paper's Experiment 3 (Figures 7 and 8).
//!
//! Run with:
//!
//! ```text
//! cargo run -p bneck --example baseline_comparison
//! ```

use bneck::prelude::*;

fn main() {
    let scenario = NetworkScenario::small_lan(160).with_seed(11);
    let network = scenario.build();

    // The same 60-session workload for both protocols.
    let mut planner = SessionPlanner::new(&network, 23);
    let requests = planner.plan(60, LimitPolicy::Unlimited);
    println!(
        "workload: {} sessions on {}",
        requests.len(),
        scenario.label()
    );

    // Reference: the centralized max-min fair allocation.
    let mut router = Router::new(&network);
    let sessions: SessionSet = requests
        .iter()
        .filter_map(|r| {
            let path = router.shortest_path(r.source, r.destination)?;
            Some(Session::new(r.session, path, r.limit))
        })
        .collect();
    let solution = CentralizedBneck::new(&network, &sessions).solve_with_bottlenecks();

    // B-Neck.
    let mut bneck = BneckSimulation::new(&network, BneckConfig::default());
    // BFYZ on the same network and workload.
    let mut bfyz = BaselineSimulation::new(&network, Bfyz::default());
    for r in &requests {
        bneck
            .join(SimTime::ZERO, r.session, r.source, r.destination, r.limit)
            .expect("planned sessions are valid");
        bfyz.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
    }

    println!(
        "\n   time |        B-Neck mean error |          BFYZ mean error | B-Neck pkts | BFYZ pkts"
    );
    let mut bneck_prev = 0u64;
    let mut bfyz_prev = 0u64;
    for ms in (3..=45u64).step_by(3) {
        let at = SimTime::from_millis(ms);
        bneck.run_until(at);
        bfyz.run_until(at);
        let bneck_err = Summary::of(&rate_errors(&bneck.current_rates(), &solution.allocation));
        let bfyz_err = Summary::of(&rate_errors(&bfyz.current_rates(), &solution.allocation));
        let bneck_pkts = bneck.packet_stats().total() - bneck_prev;
        let bfyz_pkts = bfyz.stats().total() - bfyz_prev;
        bneck_prev = bneck.packet_stats().total();
        bfyz_prev = bfyz.stats().total();
        println!(
            "{:>5} ms | {:>22.2} % | {:>22.2} % | {:>11} | {:>9}",
            ms, bneck_err.mean, bfyz_err.mean, bneck_pkts, bfyz_pkts
        );
    }

    println!(
        "\nB-Neck total control packets: {} (quiescent: {})",
        bneck.packet_stats().total(),
        bneck.is_quiescent()
    );
    println!(
        "BFYZ   total control packets: {} (quiescent: {})",
        bfyz.stats().total(),
        bfyz.is_quiescent()
    );
    println!("\nNote how B-Neck's error approaches 0 from below (conservative transient rates),");
    println!("and how its per-interval traffic drops to 0 once the rates are computed, while");
    println!("the baseline keeps injecting the same amount of control traffic forever.");
}
