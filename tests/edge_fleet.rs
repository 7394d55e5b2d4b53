//! Fleet Measured-tier integration: N warm pools pulling a candidate
//! batch off the shared morsel queue must be invisible in the results —
//! bit-identical predictions for any pool count (uniform or skewed
//! per-candidate streams), matching a fresh spawn per candidate — and a
//! pool dying mid-batch must cost throughput, never candidates.

mod common;

use common::{spawn_flaky_then_healthy_edge, spawn_scripted_edge};
use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend};
use gcode::core::eval::{Evaluator, Objective, SearchSession};
use gcode::core::op::{Op, SampleFn};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::engine::{EdgeFleet, EngineBackend, ExecutionPlan, FleetSpec, DEPLOY_FAILURE_SENTINEL};
use gcode::graph::datasets::{PointCloudDataset, Sample};
use gcode::hardware::SystemConfig;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::WeightBank;
use gcode::sim::{SimBackend, SimConfig};

const BANK_SEED: u64 = 71;
const RUN_SEED: u64 = 23;

fn accuracy(a: &Architecture) -> f64 {
    0.8 + 0.001 * a.len() as f64
}

fn split_arch(dim: usize) -> Architecture {
    Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ])
}

/// Fresh-pair reference deployment: a pool of its own for this candidate
/// only.
fn run_fresh(arch: &Architecture, classes: usize, samples: &[Sample]) -> Vec<usize> {
    let plan = ExecutionPlan::from_architecture(arch);
    common::run_fresh(plan, WeightBank::new(classes, BANK_SEED), RUN_SEED, samples).0
}

#[test]
fn fleet_predictions_are_bit_identical_for_any_pool_count() {
    let ds = PointCloudDataset::generate(5, 18, 4, 13);
    let archs: Vec<Architecture> =
        [8, 16, 32, 8, 24, 16, 48].iter().map(|&d| split_arch(d)).collect();
    let plans: Vec<ExecutionPlan> = archs.iter().map(ExecutionPlan::from_architecture).collect();
    let fresh: Vec<Vec<usize>> = archs.iter().map(|a| run_fresh(a, 4, ds.samples())).collect();

    for pools in [1usize, 2, 3, 4] {
        let fleet = EdgeFleet::new(FleetSpec::loopback(pools), 4, BANK_SEED, RUN_SEED);
        let outcomes = fleet.run_batch(&plans, ds.samples());
        for (i, outcome) in outcomes.iter().enumerate() {
            let (preds, _) = outcome.as_ref().expect("healthy fleet measures everything");
            assert_eq!(
                preds, &fresh[i],
                "candidate {i} on a {pools}-pool fleet must reproduce fresh-spawn predictions"
            );
        }
        let stats = fleet.stats();
        assert_eq!(stats.deployments(), plans.len() as u64);
        assert_eq!(stats.failures(), 0);
        assert_eq!(stats.resharded, 0);
        fleet.shutdown().expect("every pool joins cleanly");
    }
}

#[test]
fn fleet_predictions_are_bit_identical_under_skewed_streams_for_any_pool_count() {
    let ds = PointCloudDataset::generate(5, 18, 4, 13);
    let archs: Vec<Architecture> =
        [8usize, 16, 32, 8, 24, 16, 48, 32].iter().map(|&d| split_arch(d)).collect();
    let plans: Vec<ExecutionPlan> = archs.iter().map(ExecutionPlan::from_architecture).collect();
    // ~10× frame-count spread with the heavy streams last — the shape
    // that starves a static contiguous shard; the morsel queue must
    // balance it without changing a single prediction.
    let frame_counts = [2usize, 3, 2, 4, 2, 3, 16, 20];
    let streams_owned: Vec<Vec<Sample>> = frame_counts
        .iter()
        .map(|&n| (0..n).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect())
        .collect();
    let streams: Vec<&[Sample]> = streams_owned.iter().map(Vec::as_slice).collect();
    let fresh: Vec<Vec<usize>> =
        archs.iter().zip(&streams).map(|(a, s)| run_fresh(a, 4, s)).collect();

    for pools in [1usize, 2, 3, 4] {
        let fleet = EdgeFleet::new(FleetSpec::loopback(pools), 4, BANK_SEED, RUN_SEED);
        let outcomes = fleet.run_batch_streams(&plans, &streams);
        for (i, outcome) in outcomes.iter().enumerate() {
            let (preds, stats) = outcome.as_ref().expect("healthy fleet measures everything");
            assert_eq!(
                stats.frame_latencies_s.len(),
                frame_counts[i],
                "candidate {i} ran its own stream"
            );
            assert_eq!(
                preds, &fresh[i],
                "skewed candidate {i} on a {pools}-pool fleet must reproduce fresh-spawn predictions"
            );
        }
        // Steal behaviour is observable: whichever pools measured work
        // report wall-clock busy time and per-candidate percentiles.
        let stats = fleet.stats();
        assert_eq!(stats.deployments(), plans.len() as u64);
        assert_eq!(stats.failures(), 0);
        assert_eq!(stats.resharded, 0);
        for p in stats.pools.iter().filter(|p| p.deployments > 0) {
            assert!(p.busy_s > 0.0, "a measuring pool accrues busy time");
            assert!(p.p50_s > 0.0, "a measuring pool has a latency median");
            assert!(p.p95_s >= p.p50_s, "p95 dominates p50");
        }
        let busy: f64 = stats.pools.iter().map(|p| p.busy_s).sum();
        assert!(busy > 0.0, "fleet busy time is non-zero");
        fleet.shutdown().expect("every pool joins cleanly");
    }
}

#[test]
fn fleet_ladder_search_shards_the_measured_tier_and_matches_fresh_winner() {
    let profile = WorkloadProfile::modelnet40_mini(24, 4);
    let space = DesignSpace::paper(profile);
    let objective = Objective::new(0.25, 1.0, 5.0);
    let cfg = SearchConfig { iterations: 48, seed: 9, ..SearchConfig::default() };
    let sys = SystemConfig::tx2_to_i7(40.0);
    let ds = PointCloudDataset::generate(6, 24, 4, 13);

    let cheap = AnalyticBackend { profile, sys: sys.clone(), accuracy_fn: accuracy };
    let mid = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: accuracy,
    };
    let engine = EngineBackend::new(ds.samples().to_vec(), 4, sys, accuracy)
        .with_frames(3)
        .with_warmup(1)
        .with_bank_seed(BANK_SEED)
        .with_fleet(FleetSpec::loopback(2));
    let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &engine], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));
    let best = result.best().expect("winner").clone();

    assert!(engine.deployments() > 1, "several candidates escalated to the engine tier");
    assert_eq!(engine.measured_profile().errors, 0);
    assert!(best.latency_s < DEPLOY_FAILURE_SENTINEL);
    let fleet_stats = engine.fleet_stats();
    assert_eq!(fleet_stats.pools.len(), 2);
    assert_eq!(fleet_stats.spawns(), 2, "both pools spawned exactly once");
    assert_eq!(fleet_stats.failures(), 0);
    assert_eq!(
        fleet_stats.deployments(),
        engine.deployments(),
        "fleet accounting matches backend accounting"
    );
    drop(ladder);
    drop(engine); // clean fleet shutdown on drop must not hang

    // The winner's deployed predictions are bit-for-bit identical whether
    // it is measured on a fresh pair or on fleets of any width.
    let fresh = run_fresh(&best.arch, 4, ds.samples());
    let winner_plan = vec![ExecutionPlan::from_architecture(&best.arch)];
    for pools in [1usize, 3] {
        let fleet = EdgeFleet::new(FleetSpec::loopback(pools), 4, BANK_SEED, RUN_SEED);
        let (preds, _) = fleet.run_batch(&winner_plan, ds.samples())[0]
            .as_ref()
            .expect("winner deploys")
            .clone();
        assert_eq!(preds, fresh, "{pools}-pool fleet must reproduce the fresh-spawn winner");
        fleet.shutdown().expect("clean");
    }
}

#[test]
fn fleet_survives_a_pool_death_mid_batch_by_resharding_its_candidates() {
    let ds = PointCloudDataset::generate(4, 16, 2, 5);
    // Two "remote machines": the first one's initial connection dies
    // mid-stream, the second serves faithfully from the start.
    let flaky = spawn_flaky_then_healthy_edge(2, BANK_SEED);
    let healthy = spawn_scripted_edge(2, BANK_SEED, 0);
    let spec: FleetSpec = format!("{flaky},{healthy}").parse().expect("remote fleet spec");
    let backend = EngineBackend::new(
        ds.samples().to_vec(),
        2,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as fn(&Architecture) -> f64,
    )
    .with_frames(2)
    .with_bank_seed(BANK_SEED)
    .with_fleet(spec);

    let archs: Vec<Architecture> = [8, 16, 24, 32].iter().map(|&d| split_arch(d)).collect();
    let metrics = backend.evaluate_batch(&archs);

    // Every candidate ends up measured: the dead pool's share is
    // re-sharded onto the survivor while the dead endpoint reconnects.
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            m.latency_s > 0.0 && m.latency_s < DEPLOY_FAILURE_SENTINEL,
            "candidate {i} must be measured despite the pool death"
        );
    }
    assert_eq!(backend.measured_profile().errors, 0, "recovery is not an error");
    assert_eq!(backend.deployments(), 4);
    let stats = backend.fleet_stats();
    assert!(stats.failures() >= 1, "the dead pool is counted");
    assert!(stats.resharded >= 1, "its candidates were re-sharded");
    assert_eq!(stats.deployments(), 4);
}

#[test]
fn a_giant_caller_does_not_gate_a_small_one_and_concurrency_changes_no_bit() {
    let ds = PointCloudDataset::generate(8, 64, 4, 13);
    let giant: Vec<ExecutionPlan> = [8, 16, 24, 32]
        .iter()
        .cycle()
        .take(16)
        .map(|&d| ExecutionPlan::from_architecture(&split_arch(d)))
        .collect();
    let small: Vec<ExecutionPlan> =
        [48, 40].iter().map(|&d| ExecutionPlan::from_architecture(&split_arch(d))).collect();
    // What a serial one-pool fleet measures: predictions, frames and wire
    // bytes, everything but the wall clock.
    let bits = |outcomes: &[gcode::engine::FleetOutcome]| -> Vec<(Vec<usize>, usize, Vec<usize>)> {
        outcomes
            .iter()
            .map(|o| {
                let (preds, stats) = o.as_ref().expect("healthy fleet measures everything");
                (preds.clone(), stats.frame_latencies_s.len(), stats.frame_bytes.clone())
            })
            .collect()
    };
    let serial = EdgeFleet::new(FleetSpec::loopback(1), 4, BANK_SEED, RUN_SEED);
    let (giant_serial, small_serial) = (
        bits(&serial.run_batch(&giant, ds.samples())),
        bits(&serial.run_batch(&small, ds.samples())),
    );
    serial.shutdown().expect("clean");

    let fleet = EdgeFleet::new(FleetSpec::loopback(2), 4, BANK_SEED, RUN_SEED);
    let (done, finished) = std::sync::mpsc::channel();
    let (giant_out, small_out) = std::thread::scope(|scope| {
        let giant_call = scope.spawn(|| {
            let outcomes = fleet.run_batch(&giant, ds.samples());
            done.send("giant").expect("recorded");
            outcomes
        });
        // The small call starts once the giant one is under way.
        while fleet.stats().deployments() < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let small_call = scope.spawn(|| {
            let outcomes = fleet.run_batch(&small, ds.samples());
            done.send("small").expect("recorded");
            outcomes
        });
        (giant_call.join().expect("giant call"), small_call.join().expect("small call"))
    });
    let order: Vec<&str> = finished.try_iter().collect();
    assert_eq!(order, ["small", "giant"], "the small call returns while the giant one runs");
    assert_eq!(bits(&giant_out), giant_serial, "the giant call's outcomes are the serial fleet's");
    assert_eq!(bits(&small_out), small_serial, "the small call's outcomes are the serial fleet's");
    assert_eq!(fleet.spawns(), 2, "both callers share the fleet's two pools");
    fleet.shutdown().expect("every pool joins cleanly");
}
