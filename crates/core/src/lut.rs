//! The operation-latency lookup table (Fig. 7, "Operation Latency LUT").
//!
//! The paper "maintains an operation latency LUT across various devices,
//! with negligible construction overhead due to the limited number of valid
//! operations". [`OperationLut`] materializes that table for one workload
//! and system by enumerating every operation × function setting × shape
//! context the design space can produce; the cost estimator and the
//! predictor's enhanced features can then run off pure table lookups
//! (useful when the analytic cost model is replaced by real measurements).

use crate::arch::{Architecture, WorkloadProfile};
use crate::cost::{apply_op, ShapeState};
use crate::op::{Op, OpKind, Placement, SampleFn};
use crate::space::DesignSpace;
use gcode_hardware::SystemConfig;
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Lookup key: the op plus the shape facts its latency depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LutKey {
    /// The operation (function setting included).
    pub op: Op,
    /// Node count at the op's input (1 after pooling).
    pub nodes: usize,
    /// Feature width at the op's input.
    pub dim: usize,
    /// Graph degree at the op's input (0 if no graph).
    pub degree: usize,
    /// Whether features are per-edge at the op's input.
    pub edge_features: bool,
    /// Which side executes the op.
    pub placement: Placement,
}

/// Materialized per-operation latency table for one workload + system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperationLut {
    entries: BTreeMap<LutKey, f64>,
}

impl OperationLut {
    /// Builds the table by enumerating the space's operations over every
    /// reachable shape context: dims from `{in_dim} ∪ combine_dims`,
    /// degrees from `{provided} ∪ sample_ks`, node counts `{n, 1}`.
    pub fn build(space: &DesignSpace, sys: &SystemConfig) -> Self {
        let profile = &space.profile;
        let mut dims: Vec<usize> = space.combine_dims.clone();
        dims.push(profile.in_dim);
        dims.sort_unstable();
        dims.dedup();
        let mut degrees: Vec<usize> = space.sample_ks.clone();
        degrees.push(if profile.provides_graph { profile.provided_degree } else { 0 });
        degrees.sort_unstable();
        degrees.dedup();

        let mut ops: Vec<Op> = Vec::new();
        for &k in &space.sample_ks {
            ops.push(Op::Sample(SampleFn::Knn { k }));
            ops.push(Op::Sample(SampleFn::Random { k }));
        }
        for m in AggMode::ALL {
            ops.push(Op::Aggregate(m));
        }
        for &dim in &space.combine_dims {
            ops.push(Op::Combine { dim });
        }
        for m in PoolMode::ALL {
            ops.push(Op::GlobalPool(m));
        }
        ops.push(Op::Identity);

        let mut entries = BTreeMap::new();
        for &op in &ops {
            for &nodes in &[profile.num_nodes, 1usize] {
                // Post-pooling node ops are invalid; skip those contexts.
                if nodes == 1 && op.needs_nodes() {
                    continue;
                }
                for &dim in &dims {
                    for &degree in &degrees {
                        for placement in [Placement::Device, Placement::Edge] {
                            let state = ShapeState {
                                nodes,
                                dim,
                                degree,
                                has_graph: degree > 0,
                                pooled: nodes == 1,
                                edge_features: false,
                            };
                            let (cost, _) = apply_op(&op, state);
                            let proc = match placement {
                                Placement::Device => &sys.device,
                                Placement::Edge => &sys.edge,
                            };
                            entries.insert(
                                LutKey { op, nodes, dim, degree, edge_features: false, placement },
                                proc.latency(&cost),
                            );
                        }
                    }
                }
            }
        }
        Self { entries }
    }

    /// Number of table rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Latency of `op` at `state` on `placement`, if tabulated.
    pub fn lookup(&self, op: Op, state: &ShapeState, placement: Placement) -> Option<f64> {
        self.entries
            .get(&LutKey {
                op,
                nodes: state.nodes,
                dim: state.dim,
                degree: state.degree,
                edge_features: state.edge_features,
                placement,
            })
            .copied()
    }

    /// LUT-only latency estimate of an architecture: accumulate tabulated
    /// op latencies plus link transfer times — exactly the paper's cost
    /// estimation, expressed as table lookups. Ops whose context is not in
    /// the table (e.g. `EdgeCombine` baselines) fall back to the analytic
    /// model, so the estimate is total.
    pub fn estimate(
        &self,
        arch: &Architecture,
        profile: &WorkloadProfile,
        sys: &SystemConfig,
    ) -> f64 {
        // Walk the sequence tracking pre-op states for lookups.
        let placements = arch.placements();
        let mut state = ShapeState::initial(profile);
        let mut total = 0.0;
        for (op, &placement) in arch.ops().iter().zip(&placements) {
            if op.kind() == OpKind::Communicate {
                total += sys.link.transfer_time(state.transfer_bytes());
                state = apply_op(op, state).1;
                continue;
            }
            let seconds = self.lookup(*op, &state, placement).unwrap_or_else(|| {
                let (cost, _) = apply_op(op, state);
                let proc = match placement {
                    Placement::Device => &sys.device,
                    Placement::Edge => &sys.edge,
                };
                proc.latency(&cost)
            });
            total += seconds;
            state = apply_op(op, state).1;
        }
        if arch.output_placement() == Placement::Edge {
            total += sys.link.transfer_time(16);
        }
        total
    }

    /// All tabulated latencies in milliseconds — the population the
    /// predictor's global z-score normalization is fitted on.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.entries.values().map(|s| s * 1e3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_latency;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (DesignSpace, SystemConfig) {
        (DesignSpace::paper(WorkloadProfile::modelnet40()), SystemConfig::tx2_to_i7(40.0))
    }

    #[test]
    fn construction_is_small() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        // "negligible construction overhead due to the limited number of
        // valid operations": a few thousand rows at most.
        assert!(!lut.is_empty());
        assert!(lut.len() < 5_000, "LUT blew up: {}", lut.len());
    }

    #[test]
    fn lookup_matches_analytic_model() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        let state = ShapeState {
            nodes: 1024,
            dim: 64,
            degree: 20,
            has_graph: true,
            pooled: false,
            edge_features: false,
        };
        let op = Op::Aggregate(AggMode::Max);
        let tabulated = lut.lookup(op, &state, Placement::Device).expect("tabulated");
        let (cost, _) = apply_op(&op, state);
        assert!((tabulated - sys.device.latency(&cost)).abs() < 1e-12);
    }

    #[test]
    fn estimate_agrees_with_cost_estimation_on_sampled_archs() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let sampler = space.sampler();
        for _ in 0..30 {
            let arch = sampler.sample(&mut rng);
            let via_lut = lut.estimate(&arch, &space.profile, &sys);
            let analytic = estimate_latency(&arch, &space.profile, &sys).total_s();
            assert!(
                (via_lut - analytic).abs() < 1e-9,
                "LUT {via_lut} vs analytic {analytic} for {arch}"
            );
        }
    }

    #[test]
    fn device_and_edge_rows_differ() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        let state = ShapeState {
            nodes: 1024,
            dim: 3,
            degree: 20,
            has_graph: true,
            pooled: false,
            edge_features: false,
        };
        let op = Op::Sample(SampleFn::Knn { k: 20 });
        let dev = lut.lookup(op, &state, Placement::Device).expect("device row");
        let edg = lut.lookup(op, &state, Placement::Edge).expect("edge row");
        assert_ne!(dev, edg, "heterogeneity must be visible in the table");
    }

    #[test]
    fn missing_context_falls_back() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        // EdgeCombine never appears in the searchable space's table…
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::EdgeCombine { dim: 64 },
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        // …but the estimate is still total and matches the analytic model.
        let via_lut = lut.estimate(&arch, &space.profile, &sys);
        let analytic = estimate_latency(&arch, &space.profile, &sys).total_s();
        assert!((via_lut - analytic).abs() < 1e-9);
    }

    #[test]
    fn latency_population_is_ms_scale() {
        let (space, sys) = setup();
        let lut = OperationLut::build(&space, &sys);
        let ms = lut.latencies_ms();
        assert_eq!(ms.len(), lut.len());
        assert!(ms.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
