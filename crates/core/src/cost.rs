//! Shape tracing and per-operation cost models.
//!
//! Walking an architecture while tracking `(nodes, dim, graph degree,
//! pooled)` is the common machinery behind the latency LUT, the cost
//! estimator, the energy estimator, the transfer-size analysis of Fig. 2
//! and the co-inference simulator.

use crate::arch::{Architecture, WorkloadProfile};
use crate::op::{Op, Placement};
use gcode_graph::knn::knn_flops;
use gcode_hardware::OpCost;
use serde::{Deserialize, Serialize};

/// Tensor/graph shape flowing between operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeState {
    /// Current node count (1 after pooling).
    pub nodes: usize,
    /// Current feature width.
    pub dim: usize,
    /// Mean degree of the live graph (0 if none).
    pub degree: usize,
    /// Whether a graph is currently materialized.
    pub has_graph: bool,
    /// Whether global pooling has collapsed the nodes.
    pub pooled: bool,
    /// Whether features are per-edge (set by `EdgeCombine`, cleared by
    /// `Aggregate`).
    pub edge_features: bool,
}

impl ShapeState {
    /// Initial state for a workload.
    pub fn initial(profile: &WorkloadProfile) -> Self {
        Self {
            nodes: profile.num_nodes,
            dim: profile.in_dim,
            degree: if profile.provides_graph { profile.provided_degree } else { 0 },
            has_graph: profile.provides_graph,
            pooled: false,
            edge_features: false,
        }
    }

    /// Bytes of the feature tensor at this point (f32 payload). Edge
    /// features count `nodes × degree` rows.
    fn feature_bytes(&self) -> usize {
        let rows = if self.edge_features { self.nodes * self.degree.max(1) } else { self.nodes };
        rows * self.dim * 4
    }

    /// Bytes needed to ship the live graph structure (CSR u32s), 0 if no
    /// graph is materialized. Fig. 2: a preceding KNN inflates the transfer
    /// size of a split placed after it.
    pub fn graph_bytes(&self) -> usize {
        if self.has_graph && !self.pooled {
            4 * (self.nodes * self.degree + self.nodes + 1)
        } else {
            0
        }
    }

    /// Total bytes a `Communicate` at this point must move.
    pub fn transfer_bytes(&self) -> usize {
        self.feature_bytes() + self.graph_bytes()
    }
}

/// One step of a shape trace: the op, its processor-independent cost, the
/// state *after* the op, and where it runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracedOp {
    /// The operation.
    pub op: Op,
    /// Compute cost (zero for `Communicate`/`Identity`).
    pub cost: OpCost,
    /// Bytes moved if this op is a `Communicate`, else 0.
    pub transfer_bytes: usize,
    /// Shape after the op.
    pub state_after: ShapeState,
    /// Mapped side.
    pub placement: Placement,
}

/// Computes the processor-independent cost of `op` applied at `state`, and
/// the successor state.
///
/// Cost formulas (n = nodes, d = dim, k = degree, m = out dim):
///
/// * `Sample(knn)`: selection-bound, `n²·2d` FLOPs over `n²·8` bytes.
/// * `Sample(random)`: negligible (index generation only).
/// * `Aggregate`: gather-bound, `n·k·d` FLOPs over `3·n·k·d·4` bytes.
/// * `Combine`: dense, `2·n·d·m` FLOPs (per-edge rows if edge features).
/// * `EdgeCombine`: dense, `2·(n·k)·(2d)·m` FLOPs — DGCNN's edge MLP.
/// * `GlobalPool`: streaming `n·d`.
pub fn apply_op(op: &Op, state: ShapeState) -> (OpCost, ShapeState) {
    let n = state.nodes as u64;
    let d = state.dim as u64;
    let k = state.degree.max(1) as u64;
    let mut next = state;
    let cost = match *op {
        Op::Sample(f) => {
            next.has_graph = true;
            next.degree = f.k();
            next.edge_features = false;
            match f {
                crate::op::SampleFn::Knn { .. } => {
                    OpCost::selection(knn_flops(state.nodes, state.dim), (n * n * 8).max(1))
                }
                crate::op::SampleFn::Random { k } => {
                    OpCost::regular(n * k as u64, n * k as u64 * 4)
                }
            }
        }
        Op::Aggregate(_) => {
            // Aggregation gathers k neighbor rows per node whether the
            // features live on nodes or edges.
            let rows = n * k;
            next.edge_features = false;
            OpCost::gather(rows * d, 3 * rows * d * 4)
        }
        Op::Combine { dim } => {
            let rows = if state.edge_features { n * k } else { n };
            next.dim = dim;
            OpCost::regular(
                2 * rows * d * dim as u64,
                4 * (rows * d + rows * dim as u64 + d * dim as u64),
            )
        }
        Op::EdgeCombine { dim } => {
            next.dim = dim;
            next.edge_features = true;
            OpCost::regular(
                2 * (n * k) * (2 * d) * dim as u64,
                4 * (n * k * 2 * d + n * k * dim as u64),
            )
        }
        Op::GlobalPool(_) => {
            let rows = if state.edge_features { n * k } else { n };
            next.nodes = 1;
            next.pooled = true;
            next.has_graph = false;
            next.degree = 0;
            next.edge_features = false;
            OpCost::regular(rows * d, rows * d * 4)
        }
        Op::Communicate | Op::Identity => OpCost::ZERO,
    };
    (cost, next)
}

/// Traces a whole architecture over a workload, attributing each op to its
/// mapped side and recording transfer sizes at every `Communicate`.
pub fn trace(arch: &Architecture, profile: &WorkloadProfile) -> Vec<TracedOp> {
    let placements = arch.placements();
    let mut state = ShapeState::initial(profile);
    let mut out = Vec::with_capacity(arch.len());
    for (op, &placement) in arch.ops().iter().zip(&placements) {
        let transfer_bytes =
            if op.kind() == crate::op::OpKind::Communicate { state.transfer_bytes() } else { 0 };
        let (cost, next) = apply_op(op, state);
        state = next;
        out.push(TracedOp { op: *op, cost, transfer_bytes, state_after: state, placement });
    }
    out
}

/// Final shape after the whole sequence (useful for classifier sizing and
/// the output-return transfer).
pub fn final_state(arch: &Architecture, profile: &WorkloadProfile) -> ShapeState {
    let mut state = ShapeState::initial(profile);
    for op in arch.ops() {
        state = apply_op(op, state).1;
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::SampleFn;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    #[test]
    fn initial_state_matches_profile() {
        let s = ShapeState::initial(&pc());
        assert_eq!(s.nodes, 1024);
        assert_eq!(s.dim, 3);
        assert!(!s.has_graph);
        let t = ShapeState::initial(&WorkloadProfile::mr());
        assert!(t.has_graph);
        assert_eq!(t.degree, 4);
    }

    #[test]
    fn combine_changes_dim() {
        let s = ShapeState::initial(&pc());
        let (_, next) = apply_op(&Op::Combine { dim: 64 }, s);
        assert_eq!(next.dim, 64);
        assert_eq!(next.nodes, 1024);
    }

    #[test]
    fn pool_collapses_nodes_and_graph() {
        let s = ShapeState::initial(&WorkloadProfile::mr());
        let (_, next) = apply_op(&Op::GlobalPool(PoolMode::Sum), s);
        assert_eq!(next.nodes, 1);
        assert!(next.pooled);
        assert!(!next.has_graph);
        assert_eq!(next.graph_bytes(), 0);
    }

    #[test]
    fn sample_sets_degree() {
        let s = ShapeState::initial(&pc());
        let (cost, next) = apply_op(&Op::Sample(SampleFn::Knn { k: 20 }), s);
        assert!(next.has_graph);
        assert_eq!(next.degree, 20);
        assert_eq!(cost.pattern, gcode_hardware::AccessPattern::Selection);
    }

    #[test]
    fn knn_transfer_inflation_matches_fig2() {
        // Splitting right after a KNN must move more bytes than before it.
        let before = ShapeState::initial(&pc());
        let (_, after) = apply_op(&Op::Sample(SampleFn::Knn { k: 20 }), before);
        assert!(after.transfer_bytes() > before.transfer_bytes());
    }

    #[test]
    fn pooling_shrinks_transfer_markedly() {
        // Fig. 2: Pooling reduces intermediate data sharply.
        let mut s = ShapeState::initial(&pc());
        s = apply_op(&Op::Combine { dim: 64 }, s).1;
        let pre_pool = s.transfer_bytes();
        let post_pool = apply_op(&Op::GlobalPool(PoolMode::Max), s).1.transfer_bytes();
        assert!(post_pool * 100 < pre_pool);
    }

    #[test]
    fn wider_combine_increases_transfer() {
        let s = ShapeState::initial(&pc());
        let narrow = apply_op(&Op::Combine { dim: 16 }, s).1.transfer_bytes();
        let wide = apply_op(&Op::Combine { dim: 128 }, s).1.transfer_bytes();
        assert!(wide > narrow);
    }

    #[test]
    fn edge_combine_produces_edge_features() {
        let mut s = ShapeState::initial(&pc());
        s = apply_op(&Op::Sample(SampleFn::Knn { k: 20 }), s).1;
        let (cost, next) = apply_op(&Op::EdgeCombine { dim: 64 }, s);
        assert!(next.edge_features);
        // Edge MLP is ~k× more work than the node MLP at equal dims.
        let (node_cost, _) = apply_op(&Op::Combine { dim: 64 }, s);
        assert!(cost.flops > 10 * node_cost.flops);
        // Aggregate clears the edge-feature flag.
        let (_, after_agg) = apply_op(&Op::Aggregate(AggMode::Max), next);
        assert!(!after_agg.edge_features);
    }

    #[test]
    fn trace_attributes_transfer_to_communicates_only() {
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Sum),
        ]);
        let t = trace(&arch, &pc());
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].transfer_bytes, 0);
        assert!(t[1].transfer_bytes > 0);
        assert_eq!(t[2].transfer_bytes, 0);
        assert_eq!(t[1].placement, Placement::Device);
        assert_eq!(t[2].placement, Placement::Edge);
    }

    #[test]
    fn final_state_reaches_pooled() {
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 10 }),
            Op::Aggregate(AggMode::Mean),
            Op::Combine { dim: 32 },
            Op::GlobalPool(PoolMode::Mean),
        ]);
        let s = final_state(&arch, &pc());
        assert!(s.pooled);
        assert_eq!(s.dim, 32);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn identity_and_communicate_are_compute_free() {
        let s = ShapeState::initial(&pc());
        assert_eq!(apply_op(&Op::Identity, s).0, OpCost::ZERO);
        assert_eq!(apply_op(&Op::Communicate, s).0, OpCost::ZERO);
    }
}
