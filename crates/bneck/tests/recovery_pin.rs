//! The recovery layer's externally visible behaviour, pinned: every packet,
//! retransmission and injected fault of one lossy run.
//!
//! The constants were captured by running this body on the last commit whose
//! recovery layer kept its lanes in `BTreeMap`s and armed one engine timer
//! per frame (`de3226d`). The layer's state and timer mechanism may change;
//! which frame is (re)sent when, and in what order, may not — a
//! retransmission that moves by one instant or swaps places with a neighbour
//! reaches the seeded fault plan with different send counters and shifts
//! every number below.

use bneck::prelude::*;

#[test]
fn a_lossy_recovered_run_sends_what_the_per_frame_timers_sent() {
    let config = Experiment1Config::paper_scale(300);
    let network = config.scenario.build();
    let schedule = config.schedule(&network);
    let bneck = BneckConfig::default().with_recovery(Delay::from_millis(5));
    let mut sim = BneckSimulation::new(&network, bneck);
    sim.set_fault_plan(FaultPlan::new(1, 0.01, 0.01, 0.25, 4));
    schedule.apply(&mut sim);
    let report = sim.run_until(SimTime::from_secs(2));

    assert!(report.quiescent);
    assert_eq!(sim.unacked_frames(), 0);
    assert_eq!(report.packets_sent, 74_518);
    let expected = RecoveryStats {
        frames_sent: 36_150,
        retransmits: 725,
        acks_sent: 36_897,
        duplicates_dropped: 747,
        reordered_buffered: 59,
    };
    assert_eq!(sim.recovery_stats(), Some(expected));
    let faults = sim.fault_totals();
    let injected = (faults.dropped, faults.duplicated, faults.delayed);
    assert_eq!(injected, (746, 746, 18_373));

    // The final allocation, as an FNV-1a hash over (session id, rate bits).
    let allocation = sim.allocation();
    assert_eq!(allocation.len(), 300);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (session, rate) in allocation.iter() {
        for byte in session
            .0
            .to_le_bytes()
            .into_iter()
            .chain(rate.to_bits().to_le_bytes())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0xbcdd_2c71_9749_0c6d);
    // The run ends on its last armed wake-up, never later than the last
    // frame's own timer would have fired (t = 51,601,371 ns).
    assert!(report.quiescent_at <= SimTime::from_nanos(51_601_371));
}
