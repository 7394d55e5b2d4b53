//! Engine-level runtime dispatcher: the deployment half of the paper's
//! "runtime dispatcher" (Sec. 3.6).
//!
//! `gcode-core`'s zoo decides *which* architecture fits the current
//! constraints; this module turns that decision into an [`ExecutionPlan`]
//! ready to hand to a [`crate::DeviceClient`]/[`crate::EdgeServer`] pair.
//! Because all zoo members were trained through the shared supernet
//! [`WeightBank`], one bank serves every dispatched plan — switching
//! architectures at runtime costs no weight transfer.
//!
//! Handed to a warm [`EdgeFleet`](crate::EdgeFleet) — the one owner of a
//! deployed pair — that claim is executed literally: each dispatched plan
//! is hot-swapped onto the warm pair via one `SwapPlan` control frame, and
//! the edge process, TCP connection and weights all survive the switch.

use crate::plan::ExecutionPlan;
use gcode_core::search::ScoredArch;
use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode_nn::seq::WeightBank;

/// A zoo bound to the shared weights that can serve it.
///
/// # Example
///
/// ```
/// use gcode_core::arch::Architecture;
/// use gcode_core::op::{Op, SampleFn};
/// use gcode_core::search::ScoredArch;
/// use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
/// use gcode_engine::EngineDispatcher;
/// use gcode_nn::seq::WeightBank;
/// use gcode_nn::{agg::AggMode, pool::PoolMode};
///
/// let entry = |latency_s: f64, accuracy: f64, split: bool| {
///     let mut ops = vec![Op::Sample(SampleFn::Knn { k: 8 }), Op::Aggregate(AggMode::Max)];
///     if split {
///         ops.push(Op::Communicate);
///     }
///     ops.push(Op::GlobalPool(PoolMode::Max));
///     ScoredArch {
///         arch: Architecture::new(ops),
///         score: accuracy,
///         accuracy,
///         latency_s,
///         energy_j: latency_s,
///     }
/// };
/// // An accurate co-inference design and a fast on-device fallback.
/// let zoo = ArchitectureZoo::new(vec![
///     entry(0.080, 0.93, true),
///     entry(0.010, 0.90, false),
/// ]);
/// let dispatcher = EngineDispatcher::new(zoo, WeightBank::new(4, 1));
///
/// // Relaxed constraints pick the accurate offloaded design…
/// let (plan, _) = dispatcher.dispatch(RuntimeConstraint::none()).expect("entry");
/// assert!(plan.offloaded);
/// // …a tight latency budget switches to the on-device one.
/// let (plan, _) = dispatcher.dispatch(RuntimeConstraint::latency(0.020)).expect("entry");
/// assert!(!plan.offloaded);
/// ```
pub struct EngineDispatcher {
    zoo: ArchitectureZoo,
    bank: WeightBank,
}

impl EngineDispatcher {
    /// Couples a searched zoo with the supernet weight bank its members
    /// were trained in.
    pub fn new(zoo: ArchitectureZoo, bank: WeightBank) -> Self {
        Self { zoo, bank }
    }

    /// The underlying zoo.
    pub fn zoo(&self) -> &ArchitectureZoo {
        &self.zoo
    }

    /// A clone of the shared weights (ship this to the edge side).
    pub fn bank(&self) -> WeightBank {
        self.bank.clone()
    }

    /// Picks the architecture for `constraint` and returns its deployment
    /// plan — the plan the search measured it under — together with the
    /// zoo entry, or `None` for an empty zoo.
    pub fn dispatch(&self, constraint: RuntimeConstraint) -> Option<(ExecutionPlan, &ScoredArch)> {
        let entry = self.zoo.dispatch(constraint)?;
        Some((ExecutionPlan::from_architecture(&entry.arch), entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::arch::Architecture;
    use gcode_core::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn entry(latency_s: f64, accuracy: f64, split: bool) -> ScoredArch {
        let mut ops = vec![Op::Sample(SampleFn::Knn { k: 8 }), Op::Aggregate(AggMode::Max)];
        if split {
            ops.push(Op::Communicate);
        }
        ops.push(Op::Combine { dim: 16 });
        ops.push(Op::GlobalPool(PoolMode::Max));
        ScoredArch {
            arch: Architecture::new(ops),
            score: accuracy,
            accuracy,
            latency_s,
            energy_j: latency_s,
        }
    }

    fn dispatcher() -> EngineDispatcher {
        let zoo = ArchitectureZoo::new(vec![
            entry(0.080, 0.93, true),  // accurate co-inference design
            entry(0.010, 0.90, false), // fast local design
        ]);
        EngineDispatcher::new(zoo, WeightBank::new(4, 1))
    }

    #[test]
    fn constraint_switches_the_plan() {
        let d = dispatcher();
        let (relaxed_plan, relaxed) = d.dispatch(RuntimeConstraint::none()).expect("entry");
        assert!(relaxed_plan.offloaded, "accuracy-first pick offloads");
        assert_eq!(relaxed.accuracy, 0.93);
        let (tight_plan, tight) = d.dispatch(RuntimeConstraint::latency(0.020)).expect("entry");
        assert!(!tight_plan.offloaded, "latency-first pick stays local");
        assert_eq!(tight.accuracy, 0.90);
    }

    #[test]
    fn empty_zoo_dispatches_none() {
        let d = EngineDispatcher::new(ArchitectureZoo::default(), WeightBank::new(2, 0));
        assert!(d.dispatch(RuntimeConstraint::none()).is_none());
    }

    #[test]
    fn bank_is_shared_across_dispatches() {
        let d = dispatcher();
        assert_eq!(d.bank().num_classes(), 4);
        assert_eq!(d.zoo().len(), 2);
    }

    #[test]
    fn constraint_switches_hot_swap_one_warm_fleet_pair() {
        use crate::fleet::{EdgeFleet, FleetSpec};
        use gcode_graph::datasets::PointCloudDataset;
        let ds = PointCloudDataset::generate(3, 14, 3, 17);
        let d = dispatcher();
        let mut fleet = EdgeFleet::new(FleetSpec::loopback(1), 4, 1, 5);
        let mut serve = |constraint| {
            let (plan, pick) = d.dispatch(constraint).expect("non-empty zoo");
            let (preds, stats) = fleet.run_batch(&[plan], ds.samples()).remove(0).expect("stream");
            assert_eq!(preds.len(), 3);
            (pick.accuracy, stats.bytes_sent)
        };

        // Relaxed constraint → offloaded pick; tight latency → local pick,
        // served by the same warm pair.
        let (accuracy, bytes_sent) = serve(RuntimeConstraint::none());
        assert_eq!(accuracy, 0.93);
        assert!(bytes_sent > 0, "offloaded pick ships traffic");
        let (accuracy, bytes_sent) = serve(RuntimeConstraint::latency(0.020));
        assert_eq!(accuracy, 0.90);
        assert_eq!(bytes_sent, 0, "local pick stays on-device");

        let stats = fleet.stats();
        assert_eq!(
            (stats.deployments(), stats.spawns()),
            (2, 1),
            "two constraint switches, two swaps, one pair"
        );
        fleet.shutdown().expect("clean fleet shutdown");
    }
}
