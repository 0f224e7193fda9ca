//! Property-based tests of the discrete-event engine: causality (time never
//! goes backwards), channel FIFO ordering, and conservation of injected
//! events.

use bneck_net::Delay;
use bneck_sim::prelude::*;
use proptest::prelude::*;

/// A world that records every delivery and forwards a configurable number of
/// extra messages through a channel.
struct Recorder {
    deliveries: Vec<(u64, u32)>,
    forwards_left: u32,
    channel: ChannelId,
}

impl World for Recorder {
    type Message = u32;
    fn handle(&mut self, ctx: &mut Context<'_, u32>, _to: Address, msg: u32) {
        self.deliveries.push((ctx.now().as_nanos(), msg));
        if self.forwards_left > 0 {
            self.forwards_left -= 1;
            ctx.send(self.channel, Address(1), msg + 1000);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deliveries happen in non-decreasing timestamp order and every injected
    /// or forwarded message is delivered exactly once.
    #[test]
    fn causality_and_conservation(
        injections in prop::collection::vec((0u64..1_000_000, 0u32..1000), 1..40),
        forwards in 0u32..20,
        bandwidth_mbps in 1.0f64..1000.0,
        delay_us in 0u64..10_000,
    ) {
        let mut engine = Engine::new();
        let channel = engine.add_channel(ChannelSpec::new(
            bandwidth_mbps * 1e6,
            Delay::from_micros(delay_us),
            512,
        ));
        let mut world = Recorder {
            deliveries: Vec::new(),
            forwards_left: forwards,
            channel,
        };
        for (at, payload) in &injections {
            engine.inject(SimTime::from_nanos(*at), Address(0), *payload);
        }
        let report = engine.run(&mut world);
        prop_assert!(report.quiescent);
        // Conservation: injected + forwarded messages are all delivered.
        let expected = injections.len() as u64 + u64::from(forwards.min(report.events_processed as u32));
        prop_assert_eq!(report.events_processed, expected);
        // Causality: delivery timestamps never decrease.
        for pair in world.deliveries.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
        // The reported quiescence time is the last delivery's timestamp.
        prop_assert_eq!(
            report.quiescent_at.as_nanos(),
            world.deliveries.last().map(|d| d.0).unwrap_or(0)
        );
    }

    /// Messages sent back-to-back through one channel arrive in FIFO order and
    /// respect the channel's transmission plus propagation latency.
    #[test]
    fn channels_are_fifo_and_respect_latency(
        count in 1usize..30,
        bandwidth_mbps in 1.0f64..1000.0,
        delay_us in 1u64..5_000,
        packet_bits in 64u64..4096,
    ) {
        struct Burst {
            to_send: u32,
            channel: ChannelId,
            arrivals: Vec<(u64, u32)>,
        }
        impl World for Burst {
            type Message = u32;
            fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
                if to == Address(0) {
                    for i in 0..self.to_send {
                        ctx.send(self.channel, Address(1), i);
                    }
                } else {
                    self.arrivals.push((ctx.now().as_nanos(), msg));
                }
            }
        }
        let mut engine = Engine::new();
        let spec = ChannelSpec::new(bandwidth_mbps * 1e6, Delay::from_micros(delay_us), packet_bits);
        let channel = engine.add_channel(spec);
        let mut world = Burst { to_send: count as u32, channel, arrivals: Vec::new() };
        engine.inject(SimTime::ZERO, Address(0), 0);
        let report = engine.run(&mut world);

        prop_assert_eq!(world.arrivals.len(), count);
        // FIFO: payloads arrive in the order they were sent.
        for (i, (_, payload)) in world.arrivals.iter().enumerate() {
            prop_assert_eq!(*payload, i as u32);
        }
        // Latency: the i-th packet cannot arrive before (i+1) transmissions
        // plus one propagation delay have elapsed.
        let tx = spec.transmission_delay().as_nanos();
        let prop_delay = Delay::from_micros(delay_us).as_nanos();
        for (i, (at, _)) in world.arrivals.iter().enumerate() {
            let min_arrival = (i as u64 + 1) * tx + prop_delay;
            prop_assert!(*at >= min_arrival,
                "packet {i} arrived at {at} ns, before the physical minimum {min_arrival} ns");
        }
        prop_assert_eq!(report.messages_sent, count as u64);
    }

    /// Splitting a run at an arbitrary horizon never changes what is delivered
    /// or when.
    #[test]
    fn horizon_splits_are_transparent(
        injections in prop::collection::vec((0u64..500_000, 0u32..100), 1..20),
        split_us in 0u64..600,
    ) {
        let run = |split: Option<SimTime>| {
            let mut engine = Engine::new();
            let channel = engine.add_channel(ChannelSpec::new(1e8, Delay::from_micros(10), 256));
            let mut world = Recorder { deliveries: Vec::new(), forwards_left: 5, channel };
            for (at, payload) in &injections {
                engine.inject(SimTime::from_nanos(*at), Address(0), *payload);
            }
            if let Some(t) = split {
                engine.run_until(&mut world, t);
            }
            engine.run(&mut world);
            world.deliveries
        };
        let whole = run(None);
        let split = run(Some(SimTime::from_micros(split_us)));
        prop_assert_eq!(whole, split);
    }
}
