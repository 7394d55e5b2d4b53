//! Cost estimation and on-device energy estimation (Sec. 3.5) — the
//! closed-form models behind the analytic evaluation backend
//! ([`crate::eval::backend::AnalyticBackend`]).

use crate::arch::{Architecture, WorkloadProfile};
use crate::cost::{trace, TracedOp};
use crate::op::{Op, OpKind, Placement};
use gcode_hardware::SystemConfig;
use serde::{Deserialize, Serialize};

/// Per-op latency attribution of one architecture on one system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Seconds spent computing on the device.
    pub device_s: f64,
    /// Seconds spent computing on the edge.
    pub edge_s: f64,
    /// Seconds spent transferring (all `Communicate` ops + output return).
    pub comm_s: f64,
    /// Per-op `(op, placement, seconds)` rows in execution order. Rows
    /// carry the op itself; a printer formats it with its `Display`.
    pub per_op: Vec<(Op, Placement, f64)>,
    /// Seconds returning the classifier output to the device — `Some` only
    /// when the output lands on the edge. Already counted in `comm_s`.
    pub return_s: Option<f64>,
}

impl LatencyBreakdown {
    /// End-to-end single-frame latency (sequential, no pipelining).
    pub fn total_s(&self) -> f64 {
        self.device_s + self.edge_s + self.comm_s
    }
}

/// LUT-style cost estimation: accumulate every op's latency on its mapped
/// processor plus link transfer times.
///
/// The paper: "based on the maintained latency LUT, we can easily accumulate
/// all operation latency in the architecture graph... this estimation may
/// not include potential runtime overheads" — those overheads (pipeline
/// interactions, queueing, per-frame sync) are exactly what `gcode-sim`
/// adds on top.
///
/// # Example
///
/// ```
/// use gcode_core::arch::{Architecture, WorkloadProfile};
/// use gcode_core::estimate::estimate_latency;
/// use gcode_core::op::{Op, SampleFn};
/// use gcode_hardware::SystemConfig;
/// use gcode_nn::{agg::AggMode, pool::PoolMode};
///
/// let arch = Architecture::new(vec![
///     Op::Sample(SampleFn::Knn { k: 20 }),
///     Op::Aggregate(AggMode::Max),
///     Op::GlobalPool(PoolMode::Max),
/// ]);
/// let b = estimate_latency(&arch, &WorkloadProfile::modelnet40(),
///                          &SystemConfig::tx2_to_i7(40.0));
/// assert!(b.total_s() > 0.0);
/// ```
pub fn estimate_latency(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
) -> LatencyBreakdown {
    breakdown_from_trace(&trace(arch, profile), arch, sys)
}

/// Cost estimation over a pre-computed trace (lets callers reuse traces).
pub fn breakdown_from_trace(
    traced: &[TracedOp],
    arch: &Architecture,
    sys: &SystemConfig,
) -> LatencyBreakdown {
    let mut device_s = 0.0;
    let mut edge_s = 0.0;
    let mut comm_s = 0.0;
    let mut per_op = Vec::with_capacity(traced.len());
    for t in traced {
        let seconds = if t.op.kind() == OpKind::Communicate {
            let s = sys.link.transfer_time(t.transfer_bytes);
            comm_s += s;
            s
        } else {
            let proc = match t.placement {
                Placement::Device => &sys.device,
                Placement::Edge => &sys.edge,
            };
            let s = proc.latency(&t.cost);
            match t.placement {
                Placement::Device => device_s += s,
                Placement::Edge => edge_s += s,
            }
            s
        };
        per_op.push((t.op, t.placement, seconds));
    }
    // If the classifier output lands on the edge, the (tiny) result returns
    // to the device.
    let return_s = (arch.output_placement() == Placement::Edge).then(|| {
        let s = sys.link.transfer_time(16);
        comm_s += s;
        s
    });
    LatencyBreakdown { device_s, edge_s, comm_s, per_op, return_s }
}

/// On-device energy estimate per frame (Sec. 3.5):
/// `E_total = E_idle + E_run + E_comm`.
///
/// * `E_run`: device active power × device compute time.
/// * `E_idle`: device idle power × time the device waits on the edge.
/// * `E_comm`: radio energy over all transfers, using the Huang et al.
///   power model (device pays tx power for device→edge transfers and rx
///   power for edge→device transfers).
pub fn estimate_device_energy(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
) -> f64 {
    let traced = trace(arch, profile);
    let b = breakdown_from_trace(&traced, arch, sys);
    energy_from_parts(&traced, &b, arch, sys)
}

/// Energy computation over a pre-computed trace and breakdown — lets the
/// analytic backend price latency and energy off a single trace.
pub(crate) fn energy_from_parts(
    traced: &[TracedOp],
    b: &LatencyBreakdown,
    arch: &Architecture,
    sys: &SystemConfig,
) -> f64 {
    let e_run = sys.device.run_power_w * b.device_s;
    let e_idle = sys.device.idle_power_w * (b.edge_s + b.comm_s);
    let mut sent = 0usize;
    let mut received = 0usize;
    for t in traced {
        if t.op.kind() == OpKind::Communicate {
            match t.placement {
                Placement::Device => sent += t.transfer_bytes,
                Placement::Edge => received += t.transfer_bytes,
            }
        }
    }
    if arch.output_placement() == Placement::Edge {
        received += 16;
    }
    let e_comm = sys.power.device_comm_energy(&sys.link, sent, received);
    e_run + e_idle + e_comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    fn device_only() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    fn split_arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn device_only_has_no_comm_or_edge_time() {
        let b = estimate_latency(&device_only(), &pc(), &SystemConfig::tx2_to_i7(40.0));
        assert_eq!(b.edge_s, 0.0);
        assert_eq!(b.comm_s, 0.0);
        assert!(b.device_s > 0.0);
    }

    #[test]
    fn split_moves_work_to_edge_and_adds_comm() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let b = estimate_latency(&split_arch(), &pc(), &sys);
        assert!(b.edge_s > 0.0);
        assert!(b.comm_s > 0.0);
        assert!(b.device_s > 0.0); // the KNN stays on the device
    }

    #[test]
    fn slower_link_increases_total() {
        let fast = estimate_latency(&split_arch(), &pc(), &SystemConfig::tx2_to_i7(40.0));
        let slow = estimate_latency(&split_arch(), &pc(), &SystemConfig::tx2_to_i7(10.0));
        assert!(slow.total_s() > fast.total_s());
        assert_eq!(slow.device_s, fast.device_s);
    }

    #[test]
    fn output_on_edge_adds_return_time() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let b = estimate_latency(&split_arch(), &pc(), &sys);
        assert_eq!(b.return_s, Some(sys.link.transfer_time(16)));
        let b2 = estimate_latency(&device_only(), &pc(), &sys);
        assert_eq!(b2.return_s, None);
        // The rows and the return sum to the total.
        for b in [b, b2] {
            let rows: f64 = b.per_op.iter().map(|&(_, _, s)| s).sum();
            let return_s = b.return_s.unwrap_or(0.0);
            assert!((rows + return_s - b.total_s()).abs() <= 1e-12 * b.total_s());
        }
    }

    #[test]
    fn offloading_knn_to_i7_beats_tx2_device_only() {
        // The Fig. 11(a) insight: feature-space KNN at DGCNN scale (wide
        // features, recomputed per layer) is inefficient on the TX2 and
        // cheap on the i7, so communicate-early wins on the TX2⇌i7 system.
        let heavy_tail = vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 128 },
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 128 },
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ];
        let sys = SystemConfig::tx2_to_i7(40.0);
        let all_device =
            estimate_latency(&Architecture::new(heavy_tail.clone()), &pc(), &sys).total_s();
        let mut offload_ops = vec![Op::Communicate];
        offload_ops.extend(heavy_tail);
        let offloaded = estimate_latency(&Architecture::new(offload_ops), &pc(), &sys).total_s();
        assert!(offloaded < all_device, "offloading should win: {offloaded} vs {all_device}");
    }

    #[test]
    fn energy_split_below_device_only_for_heavy_work() {
        let sys = SystemConfig::pi_to_1060(40.0);
        let e_dev = estimate_device_energy(&device_only(), &pc(), &sys);
        let offload_all = Architecture::new(vec![
            Op::Communicate,
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ]);
        let e_off = estimate_device_energy(&offload_all, &pc(), &sys);
        assert!(e_off < e_dev, "edge-only should save Pi energy: {e_off} vs {e_dev}");
    }

    #[test]
    fn energy_positive_and_finite() {
        for sys in SystemConfig::paper_systems(10.0) {
            let e = estimate_device_energy(&split_arch(), &pc(), &sys);
            assert!(e.is_finite() && e > 0.0);
        }
    }

    #[test]
    fn analytic_backend_wires_through() {
        use crate::eval::backend::AnalyticBackend;
        use crate::eval::Evaluator;
        use crate::space::DesignSpace;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let eval = AnalyticBackend {
            profile: pc(),
            sys: SystemConfig::tx2_to_1060(40.0),
            accuracy_fn: |_a: &Architecture| 0.9,
        };
        let arch = device_only();
        let m = eval.evaluate(&arch);
        assert!(m.latency_s > 0.0);
        assert!(m.energy_j > 0.0);
        assert_eq!(m.accuracy, 0.9);
        // Batch evaluation is the same computation.
        let batch = eval.evaluate_batch(&[arch.clone(), split_arch()]);
        assert_eq!(batch[0], m);
        // The single-trace path must agree with the standalone estimators
        // to the bit, over sampled candidates of every served profile.
        for profile in [pc(), WorkloadProfile::mr(), WorkloadProfile::modelnet40_mini(24, 4)] {
            let eval =
                AnalyticBackend { profile, sys: eval.sys.clone(), accuracy_fn: eval.accuracy_fn };
            let space = DesignSpace::paper(profile);
            let sampler = space.sampler();
            let mut rng = ChaCha8Rng::seed_from_u64(27);
            for _ in 0..2000 {
                let arch = sampler.sample(&mut rng);
                let m = eval.evaluate(&arch);
                let latency = estimate_latency(&arch, &profile, &eval.sys).total_s();
                let energy = estimate_device_energy(&arch, &profile, &eval.sys);
                assert_eq!(m.latency_s.to_bits(), latency.to_bits(), "{arch}");
                assert_eq!(m.energy_j.to_bits(), energy.to_bits(), "{arch}");
            }
        }
    }
}
