//! The metric names and units this benchmark prints. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("ns_per_packet", "ns"),
    ("packets_per_op", "count"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.build_s", "s"),
    ("net.route_us_per_path", "us"),
    ("workload.plan_s", "s"),
    ("workload.plan_us_per_session", "us"),
    ("core.new_s", "s"),
    ("core.apply_s", "s"),
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("core.packets", "count"),
    ("core.packets.join", "count"),
    ("core.packets.probe", "count"),
    ("core.packets.response", "count"),
    ("core.packets.update", "count"),
    ("core.packets.bottleneck", "count"),
    ("core.packets.set_bottleneck", "count"),
    ("core.packets.leave", "count"),
    ("core.rate_events", "count"),
    ("core.sim_converge_us", "us"),
    ("sim.engine.ns_per_event_deep", "ns"),
    ("sim.engine.ns_per_event_shallow", "ns"),
    ("sim.engine.timer_ns_per_event", "ns"),
    ("sim.fault.ns_per_send", "ns"),
    ("sim.engine.share", "ratio"),
    ("core.router_link.ns_per_packet_small", "ns"),
    ("core.router_link.ns_per_packet_large", "ns"),
    ("core.router_link.actions_per_packet", "count"),
    ("core.source.ns_per_packet", "ns"),
    ("core.destination.ns_per_packet", "ns"),
    ("core.handler.share", "ratio"),
    ("core.harness.residual_share", "ratio"),
    ("paths.mean_hops", "count"),
    ("paths.large_link_share", "ratio"),
    ("core.recovery.frames", "count"),
    ("core.recovery.acks", "count"),
    ("core.recovery.retransmits", "count"),
    ("core.recovery.duplicates_dropped", "count"),
    ("core.recovery.reordered_buffered", "count"),
    ("core.recovery.goodput_ratio", "ratio"),
    ("core.recovery.unacked_at_end", "count"),
    ("core.recovery.clean_overhead_ratio", "ratio"),
    ("sim.fault.dropped", "count"),
    ("sim.fault.duplicated", "count"),
    ("sim.fault.delayed", "count"),
    ("maxmin.oracle_s", "s"),
    ("maxmin.compare_s", "s"),
    ("maxmin.snapshot_s", "s"),
    ("node.cluster.topology_s", "s"),
    ("node.runtime.plan_s", "s"),
    ("node.transport.mesh_setup_s", "s"),
    ("node.runtime.spawn_s", "s"),
    ("node.runtime.join_inject_s", "s"),
    ("node.runtime.silence_wait_s", "s"),
    ("node.runtime.shutdown_s", "s"),
    ("node.runtime.frames", "count"),
    ("node.runtime.packets", "count"),
    ("node.runtime.frames_per_packet", "ratio"),
    ("node.runtime.rate_events", "count"),
    ("node.runtime.us_per_frame", "us"),
    ("node.runtime.decode_errors", "count"),
    ("node.runtime.transport_errors", "count"),
    ("node.codec.encode_ns_per_frame", "ns"),
    ("node.codec.decode_ns_per_frame", "ns"),
    ("node.codec.bytes_per_frame", "count"),
    ("node.transport.tcp_stream_us_per_frame", "us"),
    ("node.transport.tcp_rtt_us", "us"),
    ("node.transport.channel_stream_us_per_frame", "us"),
    ("node.transport.channel_rtt_us", "us"),
    ("node.runtime.wire_share", "ratio"),
    ("op.samples", "count"),
    ("op.wall_ms_p50", "ms"),
    ("op.wall_ms_mean", "ms"),
    ("op.tail_percentile", "%"),
    ("op.wall_ms_tail", "ms"),
    ("reps", "count"),
    ("process.peak_rss_mib", "MiB"),
    ("ops_failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
        match value {
            Value::Map(entries) => &entries.iter().find(|(k, _)| k == name).expect(name).1,
            other => panic!("expected an object holding `{name}`, got {other:?}"),
        }
    }

    fn text(value: &Value) -> &str {
        match value {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn listed(contract: &Value, section: &str) -> Vec<(String, String)> {
        match field(contract, section) {
            Value::Seq(items) => items
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")).to_string(),
                        text(field(m, "unit")).to_string(),
                    )
                })
                .collect(),
            other => panic!("`{section}` is not a list: {other:?}"),
        }
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = Value::parse_json(&std::fs::read_to_string(path).expect(path)).expect(path);
        assert_eq!(listed(&contract, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&contract, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = match field(&contract, "workloads") {
            Value::Seq(items) => items.iter().map(|w| text(field(w, "name"))).collect(),
            other => panic!("`workloads` is not a list: {other:?}"),
        };
        let ours: Vec<&str> = crate::WORKLOADS.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            field(&contract, "run_seconds"),
            &Value::U64(crate::RUN_SECONDS as u64)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
