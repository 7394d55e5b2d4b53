//! The benchmark's vocabulary: workload and metric names with their units.
//! `BENCHMARK.json` at the repository root declares the same names (a unit
//! test keeps the two in step); bounds live only there, and `agree` reads
//! them from it.

/// A metric name with its unit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Workload names; `BENCHMARK.json` and the README say why each exists.
pub const WORKLOADS: &[&str] =
    &["stream_compute", "stream_wire", "stream_capped", "measure_batch", "serve_tenants"];

pub const END_TO_END: &[MetricSpec] = &[
    MetricSpec { name: "op_p50_s", unit: "s" },
    MetricSpec { name: "ops_per_s", unit: "1/s" },
    MetricSpec { name: "setup_s", unit: "s" },
];

pub const PER_LAYER: &[MetricSpec] = &[
    MetricSpec { name: "tensor.matmul_s", unit: "s" },
    MetricSpec { name: "tensor.matmul_flops", unit: "count" },
    MetricSpec { name: "graph.knn_coord_s", unit: "s" },
    MetricSpec { name: "graph.knn_feature_s", unit: "s" },
    MetricSpec { name: "nn.op.knn_s", unit: "s" },
    MetricSpec { name: "nn.op.edge_combine_s", unit: "s" },
    MetricSpec { name: "nn.op.aggregate_s", unit: "s" },
    MetricSpec { name: "nn.op.combine_s", unit: "s" },
    MetricSpec { name: "nn.op.global_pool_s", unit: "s" },
    MetricSpec { name: "nn.classify_s", unit: "s" },
    MetricSpec { name: "nn.device_prefix_s", unit: "s" },
    MetricSpec { name: "nn.edge_suffix_s", unit: "s" },
    MetricSpec { name: "compress.floats_s", unit: "s" },
    MetricSpec { name: "compress.floats_ratio", unit: "ratio" },
    MetricSpec { name: "compress.bytes_s", unit: "s" },
    MetricSpec { name: "compress.bytes_ratio", unit: "ratio" },
    MetricSpec { name: "compress.unpack_floats_s", unit: "s" },
    MetricSpec { name: "compress.unpack_bytes_s", unit: "s" },
    MetricSpec { name: "proto.encode_frame_s", unit: "s" },
    MetricSpec { name: "proto.decode_frame_s", unit: "s" },
    MetricSpec { name: "proto.socket_rtt_s", unit: "s" },
    MetricSpec { name: "proto.encode_plan_s", unit: "s" },
    MetricSpec { name: "proto.decode_plan_s", unit: "s" },
    MetricSpec { name: "proto.plan_bytes", unit: "B" },
    MetricSpec { name: "throttle.modeled_wait_s", unit: "s" },
    MetricSpec { name: "throttle.pace_overshoot_s", unit: "s" },
    MetricSpec { name: "runtime.uplink_bytes_per_frame", unit: "B" },
    MetricSpec { name: "runtime.frame_overhead_s", unit: "s" },
    MetricSpec { name: "runtime.pipeline_overlap", unit: "ratio" },
    MetricSpec { name: "runtime.frame_p95_s", unit: "s" },
    MetricSpec { name: "runtime.frame_max_s", unit: "s" },
    MetricSpec { name: "runtime.peak_rss_mb", unit: "MB" },
    MetricSpec { name: "pool.spawn_s", unit: "s" },
    MetricSpec { name: "pool.deploy_s", unit: "s" },
    MetricSpec { name: "pool.deploy_batch_s_per_plan", unit: "s" },
    MetricSpec { name: "optimizer.lower_s", unit: "s" },
    MetricSpec { name: "optimizer.ops_elided", unit: "count" },
    MetricSpec { name: "optimizer.ops_fused", unit: "count" },
    MetricSpec { name: "optimizer.splits_moved", unit: "count" },
    MetricSpec { name: "fleet.batch_s", unit: "s" },
    MetricSpec { name: "fleet.scaling_2v1", unit: "ratio" },
    MetricSpec { name: "backend.overhead_s_per_candidate", unit: "s" },
    MetricSpec { name: "backend.batch_p95_s", unit: "s" },
    MetricSpec { name: "cachelog.put_s", unit: "s" },
    MetricSpec { name: "cachelog.get_s", unit: "s" },
    MetricSpec { name: "cachelog.open_replay_s", unit: "s" },
    MetricSpec { name: "cachelog.bytes_per_entry", unit: "B" },
    MetricSpec { name: "cachelog.replay_per_s", unit: "1/s" },
    MetricSpec { name: "core.sample_valid_s", unit: "s" },
    MetricSpec { name: "core.analytic_eval_s", unit: "s" },
    MetricSpec { name: "sim.simulate_s", unit: "s" },
    MetricSpec { name: "core.search_evals_per_s", unit: "1/s" },
    MetricSpec { name: "core.memo_hit_share", unit: "ratio" },
    MetricSpec { name: "core.escalation_share", unit: "ratio" },
    MetricSpec { name: "server.connect_s", unit: "s" },
    MetricSpec { name: "server.open_s", unit: "s" },
    MetricSpec { name: "server.submit_s", unit: "s" },
    MetricSpec { name: "server.close_s", unit: "s" },
    MetricSpec { name: "server.polls_per_session", unit: "count" },
    MetricSpec { name: "server.busy_refusals", unit: "count" },
    MetricSpec { name: "server.time_to_winner_p95_s", unit: "s" },
    MetricSpec { name: "server.overhead_s", unit: "s" },
    MetricSpec { name: "trace.overhead_share", unit: "ratio" },
];

/// Per-layer metrics that count work rather than time it: with fixed op
/// counts and equal inputs they must repeat exactly, and `agree` holds
/// them to that.
pub const EXACT: &[&str] = &[
    "tensor.matmul_flops",
    "proto.plan_bytes",
    "runtime.uplink_bytes_per_frame",
    "optimizer.ops_elided",
    "optimizer.ops_fused",
    "optimizer.splits_moved",
    "cachelog.bytes_per_entry",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::RawJson;
    use serde::Value;

    fn names(list: &Value) -> Vec<(String, String)> {
        let text = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            _ => String::new(),
        };
        list.as_seq()
            .expect("a list")
            .iter()
            .map(|m| (text(m.field("name")), text(m.field("unit"))))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let RawJson(json) = serde_json::from_str(&text).expect("valid JSON");
        let of = |specs: &[MetricSpec]| -> Vec<(String, String)> {
            specs.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(names(json.field("end_to_end")), of(END_TO_END));
        assert_eq!(names(json.field("per_layer")), of(PER_LAYER));
        let workloads: Vec<String> =
            names(json.field("workloads")).into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
