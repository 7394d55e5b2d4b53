//! Splitting an architecture into device- and edge-side executable parts.

use gcode_core::arch::Architecture;
use gcode_core::op::OpKind;
use gcode_nn::seq::LayerSpec;
use serde::{Deserialize, Serialize};

/// Executable deployment plan: the device runs `device_specs`, ships the
/// intermediate state, the edge runs `edge_specs` and returns the logits.
///
/// The split happens at the *first* `Communicate`; later `Communicate` ops
/// lower to `Identity` inside the edge part (they are compute-free), which
/// keeps every op at its original slot index so split execution shares the
/// exact weights a monolithic forward would use.
///
/// This is the only lowering: the search chose the mapping when it placed
/// `Communicate` in the sequence, so nothing between the search and the
/// deploy moves the cut, drops an op or merges two. Every op also carries
/// its weight slot (`device_slots`/`edge_slots`) — always its position in
/// the lowered architecture.
///
/// Serializable so a `SwapPlan` control frame can carry the next plan to a
/// persistent edge over the wire (`crate::proto::Frame::SwapPlan`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Layers executed on the device before transmission.
    pub device_specs: Vec<LayerSpec>,
    /// Layers executed on the edge after reception.
    pub edge_specs: Vec<LayerSpec>,
    /// Weight slot of each device op: its position, `0..device ops`.
    pub device_slots: Vec<usize>,
    /// Weight slot of each edge op: its position, from `edge_slot_offset`.
    pub edge_slots: Vec<usize>,
    /// Slot index where the edge part starts in the full lowered
    /// architecture (the wire/split semantics; individual ops execute by
    /// their explicit slot).
    pub edge_slot_offset: usize,
    /// Whether anything is offloaded at all.
    pub offloaded: bool,
}

impl ExecutionPlan {
    /// Assembles a plan with positional weight slots on both sides.
    pub(crate) fn raw(
        device_specs: Vec<LayerSpec>,
        edge_specs: Vec<LayerSpec>,
        edge_slot_offset: usize,
        offloaded: bool,
    ) -> Self {
        let device_slots = (0..device_specs.len()).collect();
        let edge_slots = (edge_slot_offset..edge_slot_offset + edge_specs.len()).collect();
        Self { device_specs, edge_specs, device_slots, edge_slots, edge_slot_offset, offloaded }
    }

    /// Builds a plan by splitting at the first `Communicate` op.
    pub fn from_architecture(arch: &Architecture) -> Self {
        let lowered = arch.lower();
        let first_comm = arch.ops().iter().position(|op| op.kind() == OpKind::Communicate);
        match first_comm {
            None => Self::raw(lowered, Vec::new(), arch.len(), false),
            Some(i) => {
                let device_specs = lowered[..i].to_vec();
                let edge_specs = lowered[i + 1..].to_vec();
                Self::raw(device_specs, edge_specs, i + 1, true)
            }
        }
    }

    /// Number of ops on each side, `(device, edge)`.
    pub fn op_counts(&self) -> (usize, usize) {
        (self.device_specs.len(), self.edge_specs.len())
    }
}

// For the frozen `perf/` package only (`perf/src/measure.rs`, `serve.rs`),
// which still names the retired plan optimizer: options ignored, counts 0,
// the plan is `from_architecture`. Nothing else may call it
// (`tests/structure.rs`); ROADMAP item 2 has the next `benchmark` PR drop
// it.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct OptimizeOptions {
    pub enabled: bool,
    pub profile: Option<gcode_core::arch::WorkloadProfile>,
    pub uplink_mbps: f64,
}
#[doc(hidden)]
pub struct NoRewrites;
#[doc(hidden)]
impl NoRewrites {
    pub fn ops_elided(&self) -> u64 {
        0
    }
    pub fn ops_fused(&self) -> u64 {
        0
    }
    pub fn splits_moved(&self) -> u64 {
        0
    }
}
#[doc(hidden)]
pub fn lower_and_optimize(arch: &Architecture, _: &OptimizeOptions) -> (ExecutionPlan, NoRewrites) {
    (ExecutionPlan::from_architecture(arch), NoRewrites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn split_arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 8 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn split_plan_partitions_ops() {
        let plan = ExecutionPlan::from_architecture(&split_arch());
        assert!(plan.offloaded);
        assert_eq!(plan.op_counts(), (1, 2));
        assert_eq!(plan.edge_slot_offset, 2);
        assert!(!plan.edge_specs.is_empty(), "the edge holds the classifier");
    }

    #[test]
    fn device_only_plan() {
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 8 }),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let plan = ExecutionPlan::from_architecture(&arch);
        assert!(!plan.offloaded);
        assert_eq!(plan.op_counts(), (2, 0));
        assert!(plan.edge_specs.is_empty(), "the device holds the classifier");
    }

    #[test]
    fn second_communicate_lowers_to_identity_in_edge_part() {
        let arch = Architecture::new(vec![
            Op::Combine { dim: 16 },
            Op::Communicate,
            Op::Combine { dim: 32 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Sum),
        ]);
        let plan = ExecutionPlan::from_architecture(&arch);
        assert_eq!(plan.op_counts(), (1, 3));
        assert_eq!(plan.edge_specs[1], LayerSpec::Identity);
    }

    #[test]
    fn slots_align_with_monolithic_lowering() {
        let arch = split_arch();
        let plan = ExecutionPlan::from_architecture(&arch);
        let lowered = arch.lower();
        for (i, spec) in plan.device_specs.iter().enumerate() {
            assert_eq!(*spec, lowered[i]);
        }
        for (i, spec) in plan.edge_specs.iter().enumerate() {
            assert_eq!(*spec, lowered[plan.edge_slot_offset + i]);
        }
    }

    #[test]
    fn plans_carry_positional_slots() {
        let plan = ExecutionPlan::from_architecture(&split_arch());
        assert_eq!(plan.device_slots, vec![0]);
        assert_eq!(plan.edge_slots, vec![2, 3]);
        let local = ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::GlobalPool(PoolMode::Max),
        ]));
        assert_eq!(local.device_slots, vec![0, 1]);
        assert!(local.edge_slots.is_empty());
    }
}
