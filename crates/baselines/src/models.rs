//! Fixed baseline architectures with their paper-reported accuracies.

use gcode_core::arch::Architecture;
use gcode_core::op::{Op, SampleFn};
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use serde::{Deserialize, Serialize};

/// Collaboration mode a baseline can be deployed in (Tab. 2's D/E/Co).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollabMode {
    /// Everything on the device.
    DeviceOnly,
    /// Raw input shipped to the edge, everything runs there.
    EdgeOnly,
    /// Architecture contains its own `Communicate` ops.
    CoInference,
}

impl std::fmt::Display for CollabMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollabMode::DeviceOnly => write!(f, "D"),
            CollabMode::EdgeOnly => write!(f, "E"),
            CollabMode::CoInference => write!(f, "Co"),
        }
    }
}

/// A named baseline with its architecture and reported task accuracy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Baseline {
    /// Display name matching the paper's tables.
    pub name: String,
    /// The architecture (device-only form; use [`as_edge_only`] /
    /// [`crate::partition`] for other modes).
    pub arch: Architecture,
    /// Reported overall accuracy, percent.
    pub overall_accuracy: f64,
    /// Reported balanced accuracy, percent (if the paper reports one).
    pub balanced_accuracy: Option<f64>,
}

/// DGCNN for point clouds: four edge convolutions, each re-running KNN in
/// feature space, a 1024-wide MLP, max pooling and the classifier head.
/// Reported ModelNet40 accuracy: 92.9 OA / 88.9 mAcc (Tab. 2).
pub fn dgcnn() -> Baseline {
    let k = 20;
    let mut ops = Vec::new();
    for dim in [64u32, 64, 128, 256] {
        ops.push(Op::Sample(SampleFn::Knn { k }));
        ops.push(Op::EdgeCombine { dim: dim as usize });
        ops.push(Op::Aggregate(AggMode::Max));
    }
    ops.push(Op::Combine { dim: 1024 }); // "MLP1" of Fig. 2
    ops.push(Op::GlobalPool(PoolMode::Max));
    ops.push(Op::Combine { dim: 512 });
    ops.push(Op::Combine { dim: 256 });
    Baseline {
        name: "DGCNN".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 92.9,
        balanced_accuracy: Some(88.9),
    }
}

/// Li et al.'s manually optimized DGCNN: the expensive per-layer KNN
/// recomputation is dropped (one KNN on input coordinates, reused), trading
/// a little accuracy headroom for large GPU savings.
/// Reported: 92.6 OA / 90.6 mAcc.
pub fn optimized_dgcnn() -> Baseline {
    let k = 20;
    let mut ops = vec![Op::Sample(SampleFn::Knn { k })];
    for dim in [64u32, 64, 128, 256] {
        ops.push(Op::EdgeCombine { dim: dim as usize });
        ops.push(Op::Aggregate(AggMode::Max));
    }
    ops.push(Op::Combine { dim: 1024 });
    ops.push(Op::GlobalPool(PoolMode::Max));
    ops.push(Op::Combine { dim: 512 });
    ops.push(Op::Combine { dim: 256 });
    Baseline {
        name: "Optimized DGCNN [1]".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 92.6,
        balanced_accuracy: Some(90.6),
    }
}

/// BRANCHY-GNN: split after the first edge convolution with a narrow
/// bottleneck encoder before the link and a decoder after it — intermediate
/// feature compression without architecture redesign.
/// Reported: 92.0 OA.
pub fn branchy_gnn() -> Baseline {
    let k = 20;
    let ops = vec![
        Op::Sample(SampleFn::Knn { k }),
        Op::EdgeCombine { dim: 64 },
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 16 }, // bottleneck encoder
        Op::Communicate,
        Op::Combine { dim: 64 }, // decoder on the edge
        Op::Sample(SampleFn::Knn { k }),
        Op::EdgeCombine { dim: 128 },
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 1024 },
        Op::GlobalPool(PoolMode::Max),
        Op::Combine { dim: 256 },
    ];
    Baseline {
        name: "BRANCHY-GNN".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 92.0,
        balanced_accuracy: None,
    }
}

/// HGNAS-style hardware-efficient GNN for edge devices: no per-layer KNN
/// recomputation, node (not edge) MLPs, modest widths.
/// Reported: 92.1–92.5 OA / 88.3–88.8 mAcc.
pub fn hgnas() -> Baseline {
    let ops = vec![
        Op::Sample(SampleFn::Knn { k: 20 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 128 },
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 128 },
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 256 },
        Op::GlobalPool(PoolMode::Max),
        Op::Combine { dim: 256 },
    ];
    Baseline {
        name: "HGNAS".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 92.3,
        balanced_accuracy: Some(88.5),
    }
}

/// PNAS-style text GNN for MR: two message-passing blocks over the provided
/// word graph with wide combines (300-dim embeddings in).
/// Reported MR accuracy: 76.7.
pub fn pnas_text() -> Baseline {
    let ops = vec![
        Op::Combine { dim: 96 },
        Op::Aggregate(AggMode::Mean),
        Op::Combine { dim: 96 },
        Op::Aggregate(AggMode::Mean),
        Op::Combine { dim: 64 },
        Op::GlobalPool(PoolMode::Max),
        Op::Combine { dim: 32 },
    ];
    Baseline {
        name: "PNAS".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 76.7,
        balanced_accuracy: None,
    }
}

/// BRANCHY-GNN's MR variant (same split + bottleneck idea on the text
/// model). Reported: 75.5.
pub fn branchy_text() -> Baseline {
    let ops = vec![
        Op::Combine { dim: 96 },
        Op::Aggregate(AggMode::Mean),
        Op::Combine { dim: 16 }, // bottleneck
        Op::Communicate,
        Op::Combine { dim: 96 },
        Op::Aggregate(AggMode::Mean),
        Op::Combine { dim: 64 },
        Op::GlobalPool(PoolMode::Max),
        Op::Combine { dim: 32 },
    ];
    Baseline {
        name: "BRANCHY-GNN".to_string(),
        arch: Architecture::new(ops),
        overall_accuracy: 75.5,
        balanced_accuracy: None,
    }
}

/// Converts a device-only architecture to edge-only deployment: a
/// `Communicate` of the raw input prepended to the sequence.
pub fn as_edge_only(arch: &Architecture) -> Architecture {
    let mut ops = vec![Op::Communicate];
    ops.extend_from_slice(arch.ops());
    Architecture::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::arch::WorkloadProfile;
    use gcode_core::estimate::estimate_latency;
    use gcode_core::op::OpKind;
    use gcode_hardware::{Processor, SystemConfig};

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    #[test]
    fn all_pointcloud_baselines_validate() {
        for b in [dgcnn(), optimized_dgcnn(), branchy_gnn(), hgnas()] {
            assert!(b.arch.validate(&pc()).is_ok(), "{} invalid", b.name);
        }
    }

    #[test]
    fn text_baselines_validate() {
        let mr = WorkloadProfile::mr();
        for b in [pnas_text(), branchy_text()] {
            assert!(b.arch.validate(&mr).is_ok(), "{} invalid", b.name);
        }
    }

    #[test]
    fn edge_only_conversion_prepends_communicate() {
        let e = as_edge_only(&dgcnn().arch);
        assert_eq!(e.ops()[0], Op::Communicate);
        assert_eq!(e.len(), dgcnn().arch.len() + 1);
        assert!(e.validate(&pc()).is_ok());
    }

    /// Device-only latency on each platform, milliseconds.
    fn dgcnn_ms_on(proc: Processor) -> f64 {
        // Build a degenerate "system" whose device is the platform under
        // test; device-only execution never touches edge or link.
        let sys =
            SystemConfig::new(proc, Processor::intel_i7_7700(), gcode_hardware::Link::mbps(40.0));
        estimate_latency(&dgcnn().arch, &pc(), &sys).total_s() * 1e3
    }

    // ——— Calibration anchors from the paper (Tab. 2 / Sec. 4.2) ———
    // We require the modelled DGCNN latency to land within ±35% of the
    // measured numbers; the *ratios* between platforms are what the search
    // dynamics depend on.

    #[test]
    fn calibration_dgcnn_tx2() {
        let ms = dgcnn_ms_on(Processor::jetson_tx2());
        assert!((150.0..330.0).contains(&ms), "TX2 DGCNN ≈ 242 ms, got {ms:.1}");
    }

    #[test]
    fn calibration_dgcnn_pi() {
        let ms = dgcnn_ms_on(Processor::raspberry_pi_4b());
        assert!((730.0..1520.0).contains(&ms), "Pi DGCNN ≈ 1122 ms, got {ms:.1}");
    }

    #[test]
    fn calibration_dgcnn_i7() {
        let ms = dgcnn_ms_on(Processor::intel_i7_7700());
        assert!((215.0..450.0).contains(&ms), "i7 DGCNN ≈ 333 ms, got {ms:.1}");
    }

    #[test]
    fn calibration_dgcnn_1060() {
        let ms = dgcnn_ms_on(Processor::nvidia_gtx_1060());
        assert!((60.0..135.0).contains(&ms), "1060 DGCNN ≈ 100 ms, got {ms:.1}");
    }

    /// Share of DGCNN latency attributable to a kind of op on a platform.
    fn op_share(proc: Processor, kind: OpKind) -> f64 {
        let sys =
            SystemConfig::new(proc, Processor::intel_i7_7700(), gcode_hardware::Link::mbps(40.0));
        let b = estimate_latency(&dgcnn().arch, &pc(), &sys);
        let total = b.total_s();
        let part: f64 =
            b.per_op.iter().filter(|(op, _, _)| op.kind() == kind).map(|&(_, _, s)| s).sum();
        part / total
    }

    #[test]
    fn fig3_knn_dominates_gpus() {
        assert!(op_share(Processor::jetson_tx2(), OpKind::Sample) > 0.4, "TX2 KNN share");
        assert!(op_share(Processor::nvidia_gtx_1060(), OpKind::Sample) > 0.5, "1060 KNN share");
    }

    #[test]
    fn fig3_aggregate_dominates_i7() {
        let agg = op_share(Processor::intel_i7_7700(), OpKind::Aggregate);
        let knn = op_share(Processor::intel_i7_7700(), OpKind::Sample);
        assert!(agg > knn, "i7: Aggregate ({agg:.2}) should top KNN ({knn:.2})");
    }

    #[test]
    fn fig3_pi_is_balanced() {
        // No single op class takes more than ~65% on the Pi.
        for kind in [OpKind::Sample, OpKind::Aggregate, OpKind::Combine] {
            let share = op_share(Processor::raspberry_pi_4b(), kind);
            assert!(share < 0.65, "Pi {kind:?} share {share:.2} too dominant");
        }
    }

    #[test]
    fn optimized_variant_faster_on_tx2() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let full = estimate_latency(&dgcnn().arch, &pc(), &sys).total_s();
        let opt = estimate_latency(&optimized_dgcnn().arch, &pc(), &sys).total_s();
        // Paper: 241.9 ms → 107.6 ms (≈ 2.3×).
        let speedup = full / opt;
        assert!(speedup > 1.5, "optimized DGCNN speedup {speedup:.2} too small");
    }

    #[test]
    fn hgnas_faster_than_dgcnn_everywhere() {
        for proc in [
            Processor::jetson_tx2(),
            Processor::raspberry_pi_4b(),
            Processor::intel_i7_7700(),
            Processor::nvidia_gtx_1060(),
        ] {
            let sys = SystemConfig::new(
                proc.clone(),
                Processor::intel_i7_7700(),
                gcode_hardware::Link::mbps(40.0),
            );
            let full = estimate_latency(&dgcnn().arch, &pc(), &sys).total_s();
            let h = estimate_latency(&hgnas().arch, &pc(), &sys).total_s();
            assert!(full / h > 2.0, "{}: HGNAS speedup {:.2} too small", proc.name, full / h);
        }
    }

    #[test]
    fn branchy_transfers_less_than_naive_split() {
        // The bottleneck encoder shrinks the transferred tensor versus
        // splitting at the same point without compression.
        use gcode_core::cost::trace;
        let traced = trace(&branchy_gnn().arch, &pc());
        let comm = traced.iter().find(|t| t.op == Op::Communicate).expect("branchy has a split");
        // 1024 nodes × 16 dims × 4 B = 64 KiB + graph; far below the
        // uncompressed 64-dim transfer (256 KiB + graph).
        assert!(comm.transfer_bytes < 200_000, "got {}", comm.transfer_bytes);
    }

    #[test]
    fn reported_accuracies_match_paper() {
        assert_eq!(dgcnn().overall_accuracy, 92.9);
        assert_eq!(optimized_dgcnn().overall_accuracy, 92.6);
        assert_eq!(branchy_gnn().overall_accuracy, 92.0);
        assert_eq!(pnas_text().overall_accuracy, 76.7);
        assert_eq!(branchy_text().overall_accuracy, 75.5);
    }

    #[test]
    fn mr_latency_ordering_matches_paper() {
        // Tab. 3 (PNAS device-only): Pi (13.6 ms) beats TX2 (29.1 ms) on the
        // tiny-graph workload because GPU dispatch overhead dominates.
        let mr = WorkloadProfile::mr();
        let tx2 = SystemConfig::new(
            Processor::jetson_tx2(),
            Processor::intel_i7_7700(),
            gcode_hardware::Link::mbps(40.0),
        );
        let pi = SystemConfig::new(
            Processor::raspberry_pi_4b(),
            Processor::intel_i7_7700(),
            gcode_hardware::Link::mbps(40.0),
        );
        let t = estimate_latency(&pnas_text().arch, &mr, &tx2).total_s();
        let p = estimate_latency(&pnas_text().arch, &mr, &pi).total_s();
        assert!(p < t, "Pi should beat TX2 on MR: {p} vs {t}");
    }
}
