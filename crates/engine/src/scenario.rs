//! Scenario replay on the live engine: the engine's fidelity of
//! [`gcode_core::eval::scenario::replay`], the one walk over a
//! [`ScenarioTrace`].
//!
//! The paper's runtime dispatcher (Sec. 3.6) is pitched at *changing*
//! conditions — bursty arrivals, shrinking uplinks, constraint flips —
//! and [`replay_on_fleet`] is where those conditions are replayed against
//! a deployed zoo on a warm [`EdgeFleet`]. The walk in core carries the
//! constraint and uplink, dispatches, counts swaps and folds the reports;
//! this module supplies its two closures:
//!
//! 1. **Price.** An entry costs what the search stored for it
//!    (`latency_s`, `energy_j`, priced at the search's link), so dispatch
//!    here never sees the segment's uplink. A link-aware engine price
//!    needs a cost model of the measuring host.
//! 2. **Run a segment.** The current uplink re-caps the device throttle
//!    on the warm pairs, and the pick is deployed as a single-plan batch
//!    (one `SwapPlan` frame onto whichever warm pair pulls it). The
//!    segment's frames are real held-out dataset samples streamed through
//!    it, continuing round-robin from the previous segment (the trace
//!    `seed` rotates the starting offset), so accuracy is an honest
//!    per-segment stream hit rate and per-frame service is measured.
//!
//! Prediction-derived report fields replay bit-identically for a given
//! trace and seed (same supernet seeding + per-swap RNG restart contract
//! as the rest of the engine, for any pool count); wall-clock-derived
//! fields inherit scheduler noise — see
//! [`ScenarioReport::deterministic_view`].

use crate::fleet::EdgeFleet;
use crate::plan::ExecutionPlan;
use crate::EngineError;
use gcode_core::eval::scenario::{replay, ScenarioReport, ScenarioTrace};
use gcode_core::zoo::ArchitectureZoo;
use gcode_graph::datasets::Sample;

/// Replays `trace` against `zoo` on an [`EdgeFleet`] and returns one
/// [`ScenarioReport`] per segment, in timeline order: each segment runs
/// as a single-plan batch through the fleet's morsel queue (see the
/// module docs). Which pool serves a segment is timing-dependent; the
/// predictions (and therefore every prediction-derived report field) are
/// not — the fleet's per-slot seeding contract makes the reports'
/// deterministic views bit-identical for any pool count, which is exactly
/// what the scenario determinism suite asserts.
///
/// # Errors
///
/// Errors on an invalid trace, an empty zoo, no samples, or a segment no
/// fleet pool could measure.
pub fn replay_on_fleet(
    zoo: &ArchitectureZoo,
    fleet: &mut EdgeFleet,
    samples: &[Sample],
    trace: &ScenarioTrace,
) -> Result<Vec<ScenarioReport>, EngineError> {
    if samples.is_empty() {
        return Err(EngineError::Protocol("scenario replay needs samples".to_string()));
    }
    let mut offset = trace.seed as usize % samples.len();
    replay(
        trace,
        zoo,
        |entry, _| (entry.latency_s, entry.energy_j),
        |seg, pick, uplink_mbps| {
            if let Some(mbps) = uplink_mbps {
                fleet.set_uplink_mbps(mbps);
            }
            let stream: Vec<Sample> =
                (0..seg.frames).map(|i| samples[(offset + i) % samples.len()].clone()).collect();
            offset = (offset + seg.frames) % samples.len();
            let plan = ExecutionPlan::from_architecture(&pick.arch);
            let (preds, stats) = fleet.run_batch(&[plan], &stream).remove(0)?;
            let correct = preds.iter().zip(&stream).filter(|&(&p, s)| p == s.label).count();
            let accuracy = correct as f64 / preds.len().min(stream.len()).max(1) as f64;
            Ok((accuracy, stats.frame_latencies_s))
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::fleet::{EdgeFleet, FleetSpec};
    use crate::plan::ExecutionPlan;
    use gcode_core::arch::Architecture;
    use gcode_core::op::{Op, SampleFn};
    use gcode_core::search::ScoredArch;
    use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
    use gcode_graph::datasets::PointCloudDataset;
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

    #[test]
    fn constraint_switches_hot_swap_one_warm_fleet_pair() {
        let ds = PointCloudDataset::generate(3, 14, 3, 17);
        let zoo = ArchitectureZoo::new(vec![
            entry(0.080, 0.93, true),  // accurate co-inference design
            entry(0.010, 0.90, false), // fast local design
        ]);
        let fleet = EdgeFleet::new(FleetSpec::loopback(1), 4, 1, 5);
        let serve = |constraint| {
            let pick = zoo.dispatch(constraint).expect("non-empty zoo");
            let plan = ExecutionPlan::from_architecture(&pick.arch);
            let offloaded = plan.offloaded;
            let (preds, stats) = fleet.run_batch(&[plan], ds.samples()).remove(0).expect("stream");
            assert_eq!(preds.len(), 3);
            (pick.accuracy, offloaded, stats.bytes_sent)
        };

        // Relaxed constraint → offloaded pick; tight latency → local pick,
        // served by the same warm pair.
        let (accuracy, offloaded, bytes_sent) = serve(RuntimeConstraint::none());
        assert_eq!(accuracy, 0.93);
        assert!(offloaded && bytes_sent > 0, "accuracy-first pick offloads and ships traffic");
        let (accuracy, offloaded, bytes_sent) = serve(RuntimeConstraint::latency(0.020));
        assert_eq!(accuracy, 0.90);
        assert!(!offloaded && bytes_sent == 0, "latency-first pick stays on-device");

        let stats = fleet.stats();
        assert_eq!(
            (stats.deployments(), stats.spawns()),
            (2, 1),
            "two constraint switches, two swaps, one pair"
        );
        fleet.shutdown().expect("clean fleet shutdown");
    }
}
