//! Partition-point search over fixed architectures.
//!
//! This is the "architecture-mapping separation" strategy GCoDE argues
//! against (Motivation ❸): take an existing design, try every legal single
//! split, keep the best. It yields the paper's "HGNAS+Partition" /
//! "PNAS+Partition" rows and the Fig. 4 scheme comparison.

use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::op::Op;
use gcode_hardware::SystemConfig;
use gcode_sim::{simulate, SimConfig, SimReport};
use serde::{Deserialize, Serialize};

/// What to minimize when choosing a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionObjective {
    /// Minimize end-to-end frame latency.
    Latency,
    /// Minimize on-device energy.
    Energy,
}

/// One evaluated partitioning scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionResult {
    /// Index the `Communicate` was inserted at (`0` = edge-only;
    /// `arch.len()` would be device-only and is represented by `None` in
    /// [`best_partition`]'s search space).
    pub split_index: Option<usize>,
    /// The resulting architecture.
    pub arch: Architecture,
    /// Simulator report.
    pub report: SimReport,
}

/// Enumerates every valid single-split variant of `arch` (which must not
/// already contain `Communicate` ops), including edge-only (split at 0) and
/// device-only (no split).
fn enumerate_partitions(
    arch: &Architecture,
    profile: &WorkloadProfile,
) -> Vec<(Option<usize>, Architecture)> {
    assert_eq!(arch.num_communicates(), 0, "partition search expects a mapping-free architecture");
    let mut out = vec![(None, arch.clone())];
    for i in 0..=arch.len() {
        let mut ops = arch.ops().to_vec();
        ops.insert(i, Op::Communicate);
        let candidate = Architecture::new(ops);
        if candidate.validate(profile).is_ok() {
            out.push((Some(i), candidate));
        }
    }
    out
}

/// Finds the best single split under `objective`, simulating each variant.
pub fn best_partition(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    sim: &SimConfig,
    objective: PartitionObjective,
) -> PartitionResult {
    let mut best: Option<PartitionResult> = None;
    for (split_index, candidate) in enumerate_partitions(arch, profile) {
        let report = simulate(&candidate, profile, sys, sim);
        let metric = match objective {
            PartitionObjective::Latency => report.frame_latency_s,
            PartitionObjective::Energy => report.device_energy_j,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                let current = match objective {
                    PartitionObjective::Latency => b.report.frame_latency_s,
                    PartitionObjective::Energy => b.report.device_energy_j,
                };
                metric < current
            }
        };
        if better {
            best = Some(PartitionResult { split_index, arch: candidate, report });
        }
    }
    best.expect("device-only variant always exists")
}

/// The named DGCNN partitioning schemes of Fig. 4, in plot order:
/// All-Edge, after the first Aggregate, after the second (Edge)Combine,
/// after Pooling, All-Device. Returns `(label, architecture)` pairs.
pub fn fig4_schemes(dgcnn: &Architecture) -> Vec<(&'static str, Architecture)> {
    let ops = dgcnn.ops();
    let mut agg_seen = 0usize;
    let mut combine_seen = 0usize;
    let mut after_agg1 = None;
    let mut after_combine2 = None;
    let mut after_pool = None;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Aggregate(_) => {
                agg_seen += 1;
                if agg_seen == 1 && after_agg1.is_none() {
                    after_agg1 = Some(i + 1);
                }
            }
            Op::Combine { .. } | Op::EdgeCombine { .. } => {
                combine_seen += 1;
                if combine_seen == 2 && after_combine2.is_none() {
                    after_combine2 = Some(i + 1);
                }
            }
            Op::GlobalPool(_) if after_pool.is_none() => {
                after_pool = Some(i + 1);
            }
            _ => {}
        }
    }
    let insert = |at: usize| {
        let mut v = ops.to_vec();
        v.insert(at, Op::Communicate);
        Architecture::new(v)
    };
    let mut out = vec![("All-Edge", insert(0))];
    if let Some(i) = after_agg1 {
        out.push(("Agg1", insert(i)));
    }
    if let Some(i) = after_combine2 {
        out.push(("Combine2", insert(i)));
    }
    if let Some(i) = after_pool {
        out.push(("Pool", insert(i)));
    }
    out.push(("All-Device", dgcnn.clone()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use gcode_core::arch::WorkloadProfile;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    #[test]
    fn enumeration_includes_device_and_edge_only() {
        let h = models::hgnas().arch;
        let parts = enumerate_partitions(&h, &pc());
        assert!(parts.iter().any(|(i, _)| i.is_none()), "device-only present");
        assert!(parts.iter().any(|(i, _)| *i == Some(0)), "edge-only present");
        // All candidates valid.
        for (_, a) in &parts {
            assert!(a.validate(&pc()).is_ok());
        }
    }

    #[test]
    fn best_partition_beats_or_matches_device_only() {
        let h = models::hgnas().arch;
        let sys = SystemConfig::pi_to_1060(40.0);
        let sim = SimConfig::single_frame();
        let best = best_partition(&h, &pc(), &sys, &sim, PartitionObjective::Latency);
        let device_only = simulate(&h, &pc(), &sys, &sim);
        assert!(best.report.frame_latency_s <= device_only.frame_latency_s);
    }

    #[test]
    fn pi_prefers_offloading_heavily() {
        // On Pi⇌1060 the paper's HGNAS+Partition is ~4.5× faster than
        // HGNAS device-only — offloading must win on a weak device.
        let h = models::hgnas().arch;
        let sys = SystemConfig::pi_to_1060(40.0);
        let sim = SimConfig::single_frame();
        let best = best_partition(&h, &pc(), &sys, &sim, PartitionObjective::Latency);
        let device_only = simulate(&h, &pc(), &sys, &sim);
        assert!(
            device_only.frame_latency_s / best.report.frame_latency_s > 1.5,
            "offloading should clearly win on Pi"
        );
        assert!(best.split_index.is_some(), "a split should be chosen");
    }

    #[test]
    fn energy_objective_differs_from_latency_objective_sometimes() {
        // Not required to differ, but both must return finite sane results.
        let h = models::hgnas().arch;
        let sys = SystemConfig::tx2_to_i7(10.0);
        let sim = SimConfig::single_frame();
        let lat = best_partition(&h, &pc(), &sys, &sim, PartitionObjective::Latency);
        let en = best_partition(&h, &pc(), &sys, &sim, PartitionObjective::Energy);
        assert!(lat.report.frame_latency_s <= en.report.frame_latency_s + 1e-9);
        assert!(en.report.device_energy_j <= lat.report.device_energy_j + 1e-9);
    }

    #[test]
    fn fig4_schemes_cover_the_named_splits() {
        let d = models::dgcnn().arch;
        let schemes = fig4_schemes(&d);
        let labels: Vec<&str> = schemes.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["All-Edge", "Agg1", "Combine2", "Pool", "All-Device"]);
        for (label, arch) in &schemes {
            assert!(arch.validate(&pc()).is_ok(), "{label} invalid");
        }
    }

    #[test]
    fn fig4_pool_split_transfers_least() {
        // Splitting after pooling moves 1×1024 floats instead of node-level
        // tensors — its link stage must be the cheapest of the split schemes.
        use gcode_core::cost::trace;
        let d = models::dgcnn().arch;
        let mut comm_bytes = std::collections::HashMap::new();
        for (label, arch) in fig4_schemes(&d) {
            if label == "All-Device" {
                continue;
            }
            let bytes: usize = trace(&arch, &pc())
                .iter()
                .filter(|t| t.op == Op::Communicate)
                .map(|t| t.transfer_bytes)
                .sum();
            comm_bytes.insert(label, bytes);
        }
        let pool = comm_bytes["Pool"];
        for (label, bytes) in &comm_bytes {
            if *label != "Pool" {
                assert!(pool <= *bytes, "Pool ({pool}) vs {label} ({bytes})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mapping-free")]
    fn partitioning_a_split_arch_panics() {
        let b = models::branchy_gnn().arch;
        let _ = enumerate_partitions(&b, &pc());
    }
}
