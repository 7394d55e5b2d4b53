//! Open-loop discrete-event simulation: frames arrive from a sensor at
//! their own rate (camera fps, LiDAR sweeps) rather than back-to-back, and
//! queue in front of the pipeline stages.
//!
//! The closed-loop pipeline recurrence in [`crate::simulate`] answers "how
//! fast can this design go"; this module answers the deployment question
//! the paper's intro poses (point-cloud apps need *real-time* service):
//! **does the design keep up with the sensor, and what latency do frames
//! see including queueing?**

use crate::{build_stages, SimConfig, Stage};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::scenario::ArrivalSpec;
use gcode_hardware::SystemConfig;
use serde::{Deserialize, Serialize};

/// Result of an open-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopReport {
    /// Frames processed.
    pub frames: usize,
    /// Mean sojourn time (arrival → completion), seconds.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn time, seconds.
    pub p95_sojourn_s: f64,
    /// Maximum backlog observed in front of the first stage.
    pub max_queue_depth: usize,
    /// Whether the system is stable (service keeps up with arrivals).
    pub stable: bool,
}

/// Simulates `num_frames` arrivals, timed by
/// [`ArrivalSpec::arrival_times`] (the first at t = 0), through the
/// architecture's stage graph.
///
/// Stability in the queueing sense: the pipeline keeps up iff the
/// bottleneck stage's service time is below the mean inter-arrival time;
/// the report flags it and the sojourn statistics show the blow-up when it
/// is not.
pub fn simulate_open_loop(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    cfg: &SimConfig,
    arrivals: ArrivalSpec,
    num_frames: usize,
) -> OpenLoopReport {
    let stages: Vec<Stage> = build_stages(arch, profile, sys, cfg);
    let num_stages = stages.len();
    let arrival_times = arrivals.arrival_times(num_frames);

    // Pipeline recurrence with release = arrival time.
    let mut stage_free = vec![0.0f64; num_stages];
    let mut sojourns = Vec::with_capacity(num_frames);
    let mut completions = Vec::with_capacity(num_frames);
    for &arrival in &arrival_times {
        let mut t = arrival;
        for (s, stage) in stages.iter().enumerate() {
            t = t.max(stage_free[s]) + stage.service_s;
            stage_free[s] = t;
        }
        completions.push(t);
        sojourns.push(t - arrival);
    }

    // Backlog in front of stage 0: frames that arrived but whose service
    // has not started yet, sampled at each arrival instant.
    let mut max_queue_depth = 0usize;
    for (i, &arrival) in arrival_times.iter().enumerate() {
        let waiting = completions[..i]
            .iter()
            .zip(&arrival_times[..i])
            .filter(|&(&done, &arr)| arr <= arrival && done > arrival)
            .count();
        max_queue_depth = max_queue_depth.max(waiting);
    }

    let mut sorted = sojourns.clone();
    sorted.sort_by(f64::total_cmp);
    let p95 = sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)];
    let bottleneck = stages.iter().map(|s| s.service_s).fold(0.0f64, f64::max);
    OpenLoopReport {
        frames: num_frames,
        mean_sojourn_s: sojourns.iter().sum::<f64>() / num_frames.max(1) as f64,
        p95_sojourn_s: p95,
        max_queue_depth,
        stable: bottleneck < 1.0 / arrivals.mean_fps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::eval::scenario::{ScenarioSegment, ScenarioTrace};
    use gcode_core::op::{Op, SampleFn};
    use gcode_core::zoo::RuntimeConstraint;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    fn arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn slow_arrivals_are_stable_with_low_sojourn() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let r = simulate_open_loop(
            &arch(),
            &pc(),
            &sys,
            &SimConfig::default(),
            ArrivalSpec::Periodic { fps: 2.0 },
            100,
        );
        assert!(r.stable);
        assert!(r.max_queue_depth <= 1, "no backlog at 2 fps, got {}", r.max_queue_depth);
        // Sojourn ≈ raw frame latency when unqueued.
        let closed = crate::simulate(&arch(), &pc(), &sys, &SimConfig::single_frame());
        assert!((r.mean_sojourn_s - closed.frame_latency_s).abs() < 1e-6);
    }

    #[test]
    fn overload_blows_up_the_queue() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let r = simulate_open_loop(
            &arch(),
            &pc(),
            &sys,
            &SimConfig::default(),
            ArrivalSpec::Periodic { fps: 1000.0 },
            200,
        );
        assert!(!r.stable);
        assert!(r.max_queue_depth > 10, "expected backlog, got {}", r.max_queue_depth);
        assert!(r.p95_sojourn_s > r.mean_sojourn_s * 0.5);
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_burstier() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let run = |seed| {
            simulate_open_loop(
                &arch(),
                &pc(),
                &sys,
                &SimConfig::default(),
                ArrivalSpec::Poisson { fps: 15.0, seed },
                300,
            )
        };
        assert_eq!(run(1), run(1));
        let periodic = simulate_open_loop(
            &arch(),
            &pc(),
            &sys,
            &SimConfig::default(),
            ArrivalSpec::Periodic { fps: 15.0 },
            300,
        );
        let poisson = run(2);
        // Same mean rate, bursty arrivals: queueing can only get worse.
        assert!(poisson.p95_sojourn_s >= periodic.p95_sojourn_s * 0.99);
    }

    /// One seeded random trace for the property tests below: 1–5 segments
    /// with random starts, rates, frame counts, and optional uplink /
    /// constraint changes.
    fn random_trace(rng: &mut ChaCha8Rng, i: usize) -> ScenarioTrace {
        let n = rng.gen_range(1..6usize);
        let mut trace = ScenarioTrace::new(format!("random-{i}"), rng.gen_range(0..u64::MAX));
        for s in 0..n {
            let fps = rng.gen_range(1.0..500.0);
            let arrivals = if rng.gen_bool(0.5) {
                ArrivalSpec::Periodic { fps }
            } else {
                ArrivalSpec::Poisson { fps, seed: rng.gen_range(0..u64::MAX) }
            };
            let mut seg = ScenarioSegment::new(
                format!("seg-{s}"),
                rng.gen_range(0.0..120.0),
                rng.gen_range(1..64usize),
                arrivals,
                rng.gen_range(0.001..0.5),
            );
            if rng.gen_bool(0.3) {
                seg = seg.with_uplink_mbps(rng.gen_range(0.5..100.0));
            }
            if rng.gen_bool(0.3) {
                seg = seg.with_constraint(if rng.gen_bool(0.5) {
                    RuntimeConstraint::latency(rng.gen_range(0.001..0.2))
                } else {
                    RuntimeConstraint::energy(rng.gen_range(0.01..2.0))
                });
            }
            trace = trace.with_segment(seg);
        }
        trace
    }

    #[test]
    fn trace_json_round_trip_is_lossless_over_random_traces() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7ACE);
        for i in 0..64 {
            let trace = random_trace(&mut rng, i);
            let json = trace.to_json().expect("serialize");
            let back = ScenarioTrace::from_json(&json).expect("parse");
            assert_eq!(back, trace, "trace {i} did not survive the JSON round trip");
        }
    }

    #[test]
    fn normalized_traces_have_monotone_segment_timestamps() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB057);
        for i in 0..64 {
            let trace = random_trace(&mut rng, i).normalized();
            assert!(trace.is_normalized(), "trace {i} not monotone after normalization");
            assert!(
                trace.segments.windows(2).all(|w| w[0].start_s <= w[1].start_s),
                "trace {i} segments out of order"
            );
        }
    }

    #[test]
    fn stability_threshold_matches_bottleneck() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let closed = crate::simulate(&arch(), &pc(), &sys, &SimConfig::default());
        let max_fps = 1.0 / closed.bottleneck_s;
        let just_under = simulate_open_loop(
            &arch(),
            &pc(),
            &sys,
            &SimConfig::default(),
            ArrivalSpec::Periodic { fps: max_fps * 0.9 },
            50,
        );
        let just_over = simulate_open_loop(
            &arch(),
            &pc(),
            &sys,
            &SimConfig::default(),
            ArrivalSpec::Periodic { fps: max_fps * 1.1 },
            50,
        );
        assert!(just_under.stable);
        assert!(!just_over.stable);
    }
}
