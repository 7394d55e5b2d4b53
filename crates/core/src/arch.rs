//! Co-inference architectures: op sequences with derived mapping, validity,
//! shape tracing and lowering to runnable layers.

use crate::op::{Op, OpKind, Placement, SampleFn};
use gcode_nn::seq::LayerSpec;
use serde::{Deserialize, Serialize};

/// Static description of the workload an architecture will run on — the
/// handful of numbers that drive every cost computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Nodes per input graph (ModelNet40: 1024; MR: ~17).
    pub num_nodes: usize,
    /// Input feature width (ModelNet40: 3; MR: 300).
    pub in_dim: usize,
    /// Whether samples arrive with a pre-built graph (text) or the model
    /// must build one itself via `Sample` (point clouds).
    pub provides_graph: bool,
    /// Mean degree of the provided graph (ignored if `provides_graph` is
    /// false until a `Sample` op sets the degree).
    pub provided_degree: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl WorkloadProfile {
    /// ModelNet40-scale point-cloud profile.
    pub fn modelnet40() -> Self {
        Self {
            num_nodes: 1024,
            in_dim: 3,
            provides_graph: false,
            provided_degree: 0,
            num_classes: 40,
        }
    }

    /// MR-scale text-graph profile.
    pub fn mr() -> Self {
        Self {
            num_nodes: 17,
            in_dim: 300,
            provides_graph: true,
            provided_degree: 4,
            num_classes: 2,
        }
    }

    /// A reduced-size point-cloud profile for fast tests and examples.
    pub fn modelnet40_mini(num_nodes: usize, num_classes: usize) -> Self {
        Self { num_nodes, in_dim: 3, provides_graph: false, provided_degree: 0, num_classes }
    }
}

/// Why an architecture failed validation (Sec. 3.4's `Check`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidityError {
    /// Two `Communicate` ops in a row transfer data for nothing.
    ConsecutiveCommunicate,
    /// A node-level op (Sample/Aggregate/EdgeCombine/GlobalPool) appears
    /// after pooling already collapsed the nodes.
    NodeOpAfterPool(usize),
    /// More than one `GlobalPool`.
    MultiplePools,
    /// No `GlobalPool` — graph classification needs a readout.
    MissingPool,
    /// `Aggregate`/`EdgeCombine` before any graph exists.
    AggregateWithoutGraph(usize),
    /// Empty op list.
    Empty,
}

impl std::fmt::Display for ValidityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityError::ConsecutiveCommunicate => {
                write!(f, "consecutive communicate operations")
            }
            ValidityError::NodeOpAfterPool(i) => {
                write!(f, "node-level op at index {i} after global pooling")
            }
            ValidityError::MultiplePools => write!(f, "more than one global pooling"),
            ValidityError::MissingPool => write!(f, "no global pooling readout"),
            ValidityError::AggregateWithoutGraph(i) => {
                write!(f, "aggregate at index {i} before any graph is built")
            }
            ValidityError::Empty => write!(f, "empty architecture"),
        }
    }
}

impl std::error::Error for ValidityError {}

/// Sec. 3.4's `Check` as a state machine: everything the rules remember
/// about the ops seen so far. It is the only definition of validity —
/// [`Architecture::validate`] folds it over an op sequence and
/// [`crate::space::DesignSpace::sample_valid`] counts and unranks its
/// accepting paths — so the two cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Validity {
    has_graph: bool,
    pooled: bool,
    prev_comm: bool,
}

impl Validity {
    /// Number of distinct states (three bits).
    pub(crate) const STATES: usize = 8;

    /// The state before the first op.
    pub(crate) fn start(profile: &WorkloadProfile) -> Self {
        Self { has_graph: profile.provides_graph, pooled: false, prev_comm: false }
    }

    /// Dense index in `0..STATES`, for tables keyed by state.
    pub(crate) fn index(self) -> usize {
        usize::from(self.has_graph)
            | usize::from(self.pooled) << 1
            | usize::from(self.prev_comm) << 2
    }

    /// Inverse of [`Validity::index`].
    pub(crate) fn from_index(index: usize) -> Self {
        Self { has_graph: index & 1 != 0, pooled: index & 2 != 0, prev_comm: index & 4 != 0 }
    }

    /// Consumes the op at position `index` (reported in the error).
    pub(crate) fn step(self, index: usize, op: &Op) -> Result<Self, ValidityError> {
        let is_comm = op.kind() == OpKind::Communicate;
        if is_comm && self.prev_comm {
            return Err(ValidityError::ConsecutiveCommunicate);
        }
        if self.pooled && op.needs_nodes() {
            // A second pool is reported as MultiplePools, not as a
            // generic node-op violation.
            return Err(match op {
                Op::GlobalPool(_) => ValidityError::MultiplePools,
                _ => ValidityError::NodeOpAfterPool(index),
            });
        }
        let mut next = Self { prev_comm: is_comm, ..self };
        match op {
            Op::Sample(_) => next.has_graph = true,
            Op::Aggregate(_) | Op::EdgeCombine { .. } if !self.has_graph => {
                return Err(ValidityError::AggregateWithoutGraph(index));
            }
            Op::GlobalPool(_) => next.pooled = true,
            _ => {}
        }
        Ok(next)
    }

    /// Whether the sequence may end here: exactly one pool was seen (a
    /// second one is already a `step` error).
    pub(crate) fn finish(self) -> Result<(), ValidityError> {
        if self.pooled {
            Ok(())
        } else {
            Err(ValidityError::MissingPool)
        }
    }
}

/// A GNN co-inference architecture: an operation sequence in which
/// `Communicate` ops encode the device/edge mapping.
///
/// # Example
///
/// ```
/// use gcode_core::arch::{Architecture, WorkloadProfile};
/// use gcode_core::op::{Op, Placement, SampleFn};
/// use gcode_nn::agg::AggMode;
/// use gcode_nn::pool::PoolMode;
///
/// let arch = Architecture::new(vec![
///     Op::Sample(SampleFn::Knn { k: 20 }),
///     Op::Communicate,
///     Op::Aggregate(AggMode::Max),
///     Op::Combine { dim: 32 },
///     Op::GlobalPool(PoolMode::Max),
/// ]);
/// assert!(arch.validate(&WorkloadProfile::modelnet40()).is_ok());
/// assert_eq!(arch.placements()[0], Placement::Device);
/// assert_eq!(arch.placements()[2], Placement::Edge);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Architecture {
    ops: Vec<Op>,
}

impl Architecture {
    /// Wraps an op sequence. No validation is performed here; call
    /// [`Architecture::validate`].
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// The operation sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of `Communicate` ops.
    pub fn num_communicates(&self) -> usize {
        self.ops.iter().filter(|o| o.kind() == OpKind::Communicate).count()
    }

    /// Per-op placement: ops start on the device and flip sides at every
    /// `Communicate` (the `Communicate` op itself is attributed to the
    /// link, but is listed with the side that *initiates* the transfer).
    pub fn placements(&self) -> Vec<Placement> {
        let mut side = Placement::Device;
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            out.push(side);
            if op.kind() == OpKind::Communicate {
                side = side.flipped();
            }
        }
        out
    }

    /// Placement of the final output (where the classifier result lands).
    pub fn output_placement(&self) -> Placement {
        if self.num_communicates().is_multiple_of(2) {
            Placement::Device
        } else {
            Placement::Edge
        }
    }

    /// Validates the sequence against the paper's rules (Sec. 3.4): no
    /// consecutive `Communicate`, no node ops after pooling, exactly one
    /// pooling readout, and no aggregation before a graph exists.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidityError`] encountered.
    pub fn validate(&self, profile: &WorkloadProfile) -> Result<(), ValidityError> {
        if self.ops.is_empty() {
            return Err(ValidityError::Empty);
        }
        let mut state = Validity::start(profile);
        for (i, op) in self.ops.iter().enumerate() {
            state = state.step(i, op)?;
        }
        state.finish()
    }

    /// Lowers to runnable [`LayerSpec`]s for the supernet executor.
    /// `Communicate` lowers to `Identity` (it is compute-free), and
    /// `EdgeCombine` approximates to a node `Combine` (only baselines use
    /// it, and their accuracy is taken from reported numbers).
    pub fn lower(&self) -> Vec<LayerSpec> {
        self.ops
            .iter()
            .map(|op| match *op {
                Op::Sample(SampleFn::Knn { k }) => LayerSpec::BuildKnn { k },
                Op::Sample(SampleFn::Random { k }) => LayerSpec::BuildRandom { k },
                Op::Aggregate(m) => LayerSpec::Aggregate(m),
                Op::Combine { dim } | Op::EdgeCombine { dim } => {
                    LayerSpec::Combine { out_dim: dim }
                }
                Op::GlobalPool(m) => LayerSpec::GlobalPool(m),
                Op::Communicate | Op::Identity => LayerSpec::Identity,
            })
            .collect()
    }

    /// Compact single-line rendering, e.g.
    /// `"Sample(knn,k=20) → Communicate → Aggregate(max)"`.
    pub fn signature(&self) -> String {
        self.ops.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(" → ")
    }

    /// Multi-line ASCII rendering with device/edge lanes — the Fig. 11
    /// visualization.
    pub fn render(&self) -> String {
        let placements = self.placements();
        let mut out = String::new();
        out.push_str("Input (device)\n");
        for (op, side) in self.ops.iter().zip(&placements) {
            if op.kind() == OpKind::Communicate {
                let arrow = match side {
                    Placement::Device => "device ──▶ edge",
                    Placement::Edge => "edge ──▶ device",
                };
                out.push_str(&format!("  ~~~ Communicate [{arrow}] ~~~\n"));
            } else {
                let lane = match side {
                    Placement::Device => "",
                    Placement::Edge => "                    ",
                };
                out.push_str(&format!("{lane}  {op}\n"));
            }
        }
        out.push_str(&format!("Output ({})\n", self.output_placement()));
        out
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.signature())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    fn valid_ops() -> Vec<Op> {
        vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 32 },
            Op::Communicate,
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Sum),
        ]
    }

    #[test]
    fn valid_architecture_passes() {
        assert!(Architecture::new(valid_ops()).validate(&pc()).is_ok());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Architecture::new(vec![]).validate(&pc()), Err(ValidityError::Empty));
    }

    #[test]
    fn consecutive_communicate_rejected() {
        let mut ops = valid_ops();
        ops.insert(4, Op::Communicate);
        assert_eq!(
            Architecture::new(ops).validate(&pc()),
            Err(ValidityError::ConsecutiveCommunicate)
        );
    }

    #[test]
    fn aggregate_after_pool_rejected() {
        let mut ops = valid_ops();
        ops.push(Op::Aggregate(AggMode::Add));
        assert_eq!(Architecture::new(ops).validate(&pc()), Err(ValidityError::NodeOpAfterPool(6)));
    }

    #[test]
    fn combine_after_pool_allowed() {
        let mut ops = valid_ops();
        ops.push(Op::Combine { dim: 16 });
        assert!(Architecture::new(ops).validate(&pc()).is_ok());
    }

    #[test]
    fn aggregate_without_graph_rejected_for_pointclouds() {
        let ops = vec![Op::Aggregate(AggMode::Max), Op::GlobalPool(PoolMode::Sum)];
        assert_eq!(
            Architecture::new(ops).validate(&pc()),
            Err(ValidityError::AggregateWithoutGraph(0))
        );
    }

    #[test]
    fn aggregate_without_sample_ok_for_text() {
        let ops = vec![Op::Aggregate(AggMode::Mean), Op::GlobalPool(PoolMode::Mean)];
        assert!(Architecture::new(ops).validate(&WorkloadProfile::mr()).is_ok());
    }

    #[test]
    fn missing_pool_rejected() {
        let ops = vec![Op::Sample(SampleFn::Knn { k: 5 }), Op::Combine { dim: 16 }];
        assert_eq!(Architecture::new(ops).validate(&pc()), Err(ValidityError::MissingPool));
    }

    #[test]
    fn double_pool_rejected() {
        let ops = vec![
            Op::Sample(SampleFn::Knn { k: 5 }),
            Op::GlobalPool(PoolMode::Sum),
            Op::GlobalPool(PoolMode::Max),
        ];
        assert_eq!(Architecture::new(ops).validate(&pc()), Err(ValidityError::MultiplePools));
    }

    #[test]
    fn placements_alternate_at_communicate() {
        let arch = Architecture::new(valid_ops());
        let p = arch.placements();
        assert_eq!(p[0], Placement::Device);
        assert_eq!(p[3], Placement::Device); // the Communicate op itself
        assert_eq!(p[4], Placement::Edge);
        assert_eq!(arch.output_placement(), Placement::Edge);
    }

    #[test]
    fn output_returns_to_device_after_two_communicates() {
        let ops = vec![
            Op::Communicate,
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Sum),
            Op::Communicate,
            Op::Combine { dim: 16 },
        ];
        let arch = Architecture::new(ops);
        assert_eq!(arch.output_placement(), Placement::Device);
    }

    #[test]
    fn lowering_maps_communicate_to_identity() {
        let arch = Architecture::new(valid_ops());
        let specs = arch.lower();
        assert_eq!(specs.len(), arch.len());
        assert_eq!(specs[3], gcode_nn::seq::LayerSpec::Identity);
    }

    #[test]
    fn render_mentions_both_sides() {
        let arch = Architecture::new(valid_ops());
        let r = arch.render();
        assert!(r.contains("device ──▶ edge"));
        assert!(r.contains("Output (edge)"));
    }

    #[test]
    fn signature_round_trips_ops() {
        let arch = Architecture::new(valid_ops());
        let s = arch.signature();
        assert!(s.contains("Sample(knn,k=20)"));
        assert!(s.contains("Communicate"));
    }
}
