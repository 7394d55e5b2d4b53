//! Scenario replay: drive a serialized timeline
//! ([`ScenarioTrace`]) through the live engine and account for it
//! segment by segment.
//!
//! The paper's runtime dispatcher (Sec. 3.6) is pitched at *changing*
//! conditions — bursty arrivals, shrinking uplinks, constraint flips —
//! and this module is where those conditions are actually replayed
//! against a deployed zoo. [`replay_on_fleet`] — the one replay loop —
//! walks a normalized trace's segments in timeline order over a warm
//! [`EdgeFleet`]:
//!
//! 1. **Segment boundary.** An `uplink_mbps` change re-caps the device
//!    throttle on the warm pairs; a `constraint` flip re-runs zoo
//!    dispatch. The segment's pick is deployed as a single-plan batch
//!    (one `SwapPlan` frame onto whichever warm pair pulls it), and
//!    [`ScenarioReport::swaps`] counts the segments whose pick differs
//!    from the previous one.
//! 2. **Frames.** The segment's frames are real held-out dataset samples
//!    streamed through the deployed plan, continuing round-robin from the
//!    previous segment (the trace `seed` rotates the starting offset), so
//!    measured accuracy is an honest per-segment stream hit rate.
//! 3. **Accounting.** Per-frame *service* comes from the measured run;
//!    per-frame *sojourn* replays the segment's arrival process through a
//!    single-queue recurrence over those measured service times (the
//!    open-loop model of `gcode_sim::simulate_open_loop`, with measured
//!    rather than modeled service) — so a burst that outruns the service
//!    rate visibly drags the deadline hit rate down while a slow steady
//!    segment keeps it at 1.0.
//!
//! Prediction-derived report fields replay bit-identically for a given
//! trace and seed (same supernet seeding + per-swap RNG restart contract
//! as the rest of the engine, for any pool count); wall-clock-derived
//! fields inherit scheduler noise — see
//! [`ScenarioReport::deterministic_view`].

use crate::fleet::EdgeFleet;
use crate::plan::ExecutionPlan;
use crate::runtime::EngineStats;
use crate::EngineError;
use gcode_core::arch::Architecture;
use gcode_core::eval::scenario::{ScenarioReport, ScenarioSegment, ScenarioTrace};
use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode_graph::datasets::Sample;

/// Replays `trace` (normalized first) against `zoo` on an [`EdgeFleet`]
/// and returns one [`ScenarioReport`] per segment, in timeline order:
/// each segment runs as a single-plan batch through the fleet's morsel
/// queue (see the module docs for the segment lifecycle). Which pool
/// serves a segment is timing-dependent; the predictions (and therefore
/// every prediction-derived report field) are not — the fleet's per-slot
/// seeding contract makes the reports' deterministic views bit-identical
/// for any pool count, which is exactly what the scenario determinism
/// suite asserts.
///
/// # Errors
///
/// Errors on an invalid trace, an empty zoo, or a segment no fleet pool
/// could measure.
pub fn replay_on_fleet(
    zoo: &ArchitectureZoo,
    fleet: &mut EdgeFleet,
    samples: &[Sample],
    trace: &ScenarioTrace,
) -> Result<Vec<ScenarioReport>, EngineError> {
    let trace = trace.clone().normalized();
    trace.validate().map_err(EngineError::Protocol)?;
    if samples.is_empty() {
        return Err(EngineError::Protocol("scenario replay needs samples".to_string()));
    }
    let mut reports = Vec::with_capacity(trace.segments.len());
    let mut constraint = RuntimeConstraint::none();
    let mut deployed: Option<Architecture> = None;
    let mut offset = trace.seed as usize % samples.len();
    for seg in &trace.segments {
        if let Some(mbps) = seg.uplink_mbps {
            fleet.set_uplink_mbps(mbps);
        }
        if let Some(flip) = seg.constraint {
            constraint = flip;
        }
        let pick = zoo
            .dispatch(constraint)
            .ok_or_else(|| {
                EngineError::Protocol("scenario replay needs a non-empty zoo".to_string())
            })?
            .arch
            .clone();
        let swaps = u64::from(deployed.as_ref() != Some(&pick));
        let plan = ExecutionPlan::from_architecture(&pick);
        deployed = Some(pick);
        let stream = segment_stream(samples, offset, seg.frames);
        let (preds, stats) = fleet.run_batch(&[plan], &stream).remove(0)?;
        reports.push(segment_report(seg, &preds, &stream, &stats, swaps));
        offset = (offset + seg.frames) % samples.len();
    }
    Ok(reports)
}

/// The segment's frame stream: `frames` held-out samples, round-robin
/// from `offset`.
fn segment_stream(samples: &[Sample], offset: usize, frames: usize) -> Vec<Sample> {
    (0..frames).map(|i| samples[(offset + i) % samples.len()].clone()).collect()
}

/// Folds one segment's measured run into its [`ScenarioReport`]:
/// measured accuracy from the predictions, sojourns from the arrival
/// replay over the measured per-frame service times (see module docs).
fn segment_report(
    seg: &ScenarioSegment,
    preds: &[usize],
    stream: &[Sample],
    stats: &EngineStats,
    swaps: u64,
) -> ScenarioReport {
    let frames = preds.len().min(stream.len());
    let correct = preds.iter().zip(stream).filter(|&(&p, sample)| p == sample.label).count();
    let sojourns = replay_sojourns(seg, &stats.frame_latencies_s);
    let hits = sojourns.iter().filter(|&&s| s <= seg.deadline_s).count();
    let (p50_s, p95_s, p99_s) = crate::runtime::latency_percentiles(&sojourns);
    ScenarioReport {
        label: seg.label.clone(),
        start_s: seg.start_s,
        frames: frames as u64,
        swaps,
        measured_accuracy: correct as f64 / frames.max(1) as f64,
        deadline_hit_rate: hits as f64 / sojourns.len().max(1) as f64,
        drops: (sojourns.len() - hits) as u64,
        p50_s,
        p95_s,
        p99_s,
    }
}

/// Single-queue sojourn replay: frames arrive per the segment's
/// [`ArrivalSpec`](gcode_core::eval::scenario::ArrivalSpec) and are
/// served in order, each costing its *measured* per-frame service time —
/// `completion_i = max(arrival_i, completion_{i-1}) + service_i`. This is
/// the open-loop recurrence of `gcode_sim::simulate_open_loop` with the
/// modeled stage times replaced by the live engine's measurements: the
/// deadline hit rate reflects queueing a burst would actually cause.
fn replay_sojourns(seg: &ScenarioSegment, service_s: &[f64]) -> Vec<f64> {
    let arrivals = seg.arrivals.arrival_times(service_s.len());
    let mut free = 0.0f64;
    arrivals
        .iter()
        .zip(service_s)
        .map(|(&arrival, &service)| {
            free = free.max(arrival) + service;
            free - arrival
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::eval::scenario::ArrivalSpec;

    fn seg(arrivals: ArrivalSpec, deadline_s: f64) -> ScenarioSegment {
        ScenarioSegment::new("s", 0.0, 4, arrivals, deadline_s)
    }

    #[test]
    fn slow_arrivals_see_pure_service_time() {
        // Gaps (1 s) dwarf service (10 ms): no queueing, sojourn == service.
        let s = seg(ArrivalSpec::Periodic { fps: 1.0 }, 0.05);
        let sojourns = replay_sojourns(&s, &[0.01, 0.01, 0.01, 0.01]);
        for v in &sojourns {
            assert!((v - 0.01).abs() < 1e-12, "unqueued sojourn is the service time");
        }
    }

    #[test]
    fn bursts_build_backlog_in_the_sojourn_replay() {
        // Arrivals every 1 ms, service 10 ms: frame i waits behind i
        // predecessors, so sojourns grow ~9 ms per frame.
        let s = seg(ArrivalSpec::Periodic { fps: 1000.0 }, 0.05);
        let sojourns = replay_sojourns(&s, &[0.01; 4]);
        assert!(sojourns.windows(2).all(|w| w[1] > w[0]), "backlog must grow: {sojourns:?}");
        assert!((sojourns[3] - (4.0 * 0.01 - 3.0 * 0.001)).abs() < 1e-9);
    }

    #[test]
    fn deadline_hits_split_steady_from_burst() {
        let service = [0.01; 4];
        let steady = seg(ArrivalSpec::Periodic { fps: 1.0 }, 0.02);
        let burst = seg(ArrivalSpec::Periodic { fps: 1000.0 }, 0.02);
        let steady_hits =
            replay_sojourns(&steady, &service).iter().filter(|&&s| s <= steady.deadline_s).count();
        let burst_hits =
            replay_sojourns(&burst, &service).iter().filter(|&&s| s <= burst.deadline_s).count();
        assert_eq!(steady_hits, 4, "steady arrivals all meet the deadline");
        assert!(burst_hits < steady_hits, "the burst must drop frames");
    }
}
