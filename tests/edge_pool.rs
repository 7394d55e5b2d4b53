//! Warm edge pool integration: the one warm pool a default
//! `EngineBackend` deploys on must be indistinguishable from fresh-spawn
//! measurement (bit-identical predictions) whatever the session's worker
//! count, retry a candidate once when its pool dies and only then price
//! the sentinel, never shut a shared remote edge down, account warmup
//! frames out of telemetry exactly, and leave no threads behind on
//! shutdown.

mod common;

use common::spawn_scripted_edge;
use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend};
use gcode::core::eval::{Evaluator, Objective, SearchSession};
use gcode::core::op::{Op, SampleFn};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::engine::{EdgePool, EngineBackend, ExecutionPlan, FleetSpec, DEPLOY_FAILURE_SENTINEL};
use gcode::graph::datasets::{PointCloudDataset, Sample};
use gcode::hardware::SystemConfig;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::WeightBank;
use gcode::sim::{SimBackend, SimConfig};
use std::net::SocketAddr;

const BANK_SEED: u64 = 71;
/// The run seed every `EngineBackend` deployment uses, so one fresh-pair
/// reference serves the raw pools and the backend alike.
const RUN_SEED: u64 = 0xE261;

type Accuracy = fn(&Architecture) -> f64;

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
fn run_fresh(arch: &Architecture, samples: &[Sample]) -> Vec<usize> {
    let plan = ExecutionPlan::from_architecture(arch);
    common::run_fresh(plan, WeightBank::new(4, BANK_SEED), RUN_SEED, samples).0
}

#[test]
fn pooled_ladder_search_spawns_one_edge_and_matches_fresh_predictions() {
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
        .with_bank_seed(BANK_SEED);
    let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &engine], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));
    let best = result.best().expect("winner").clone();

    // The whole Measured tier ran on exactly one spawned edge pair.
    assert!(engine.deployments() > 1, "several candidates escalated to the engine tier");
    assert_eq!(engine.fleet_stats().spawns(), 1, "one edge for the whole search");
    assert_eq!(engine.measured_profile().errors, 0);
    assert!(best.latency_s < DEPLOY_FAILURE_SENTINEL);
    drop(ladder);
    drop(engine); // clean pool shutdown on drop must not hang

    // The winner's deployed predictions are bit-for-bit identical whether
    // it is measured on a fresh pair or hot-swapped onto a warm pool.
    let fresh = run_fresh(&best.arch, ds.samples());
    let mut pool = EdgePool::spawn(WeightBank::new(4, BANK_SEED), RUN_SEED).expect("pool");
    // Swap an unrelated plan in first: residue from a previous candidate
    // must not leak into the winner's run.
    pool.deploy(ExecutionPlan::from_architecture(&split_arch(16))).expect("warm the pool");
    pool.run(ds.samples()).expect("unrelated candidate runs");
    pool.deploy(ExecutionPlan::from_architecture(&best.arch)).expect("swap winner in");
    let (pooled, _) = pool.run(ds.samples()).expect("winner runs pooled");
    assert_eq!(pooled, fresh, "pooled hot-swap must reproduce the fresh-spawn predictions");
    pool.shutdown().expect("no threads left behind");
}

/// A backend whose whole fleet is one remote edge at `addr`.
fn remote_backend(ds: &PointCloudDataset, addr: SocketAddr) -> EngineBackend<Accuracy> {
    let spec: FleetSpec = addr.to_string().parse().expect("remote fleet spec");
    EngineBackend::new(
        ds.samples().to_vec(),
        2,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as Accuracy,
    )
    .with_frames(2)
    .with_bank_seed(BANK_SEED)
    .with_fleet(spec)
}

#[test]
fn default_backend_keeps_one_warm_pool_whatever_the_worker_count() {
    let ds = PointCloudDataset::generate(6, 24, 4, 13);
    let archs: Vec<Architecture> = [8, 16, 24, 32].iter().map(|&d| split_arch(d)).collect();

    // No `with_fleet`: the default deployment. Measured accuracy makes each
    // candidate's predictions observable as its exact stream hit rate.
    let backend = EngineBackend::new(
        ds.samples().to_vec(),
        4,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as Accuracy,
    )
    .with_bank_seed(BANK_SEED)
    .with_measured_accuracy(ds.samples().to_vec());
    let metrics = backend.evaluate_batch_workers(&archs, 4);

    // Four workers asked for, one warm pool serving: `workers` never
    // reshapes a Measured batch.
    let fleet = backend.fleet_stats();
    assert_eq!(fleet.pools.len(), 1, "the default fleet is one loopback pool");
    assert_eq!(fleet.spawns(), 1, "one edge for the whole batch");
    assert_eq!(fleet.deployments(), 4);
    assert_eq!(backend.deployments(), 4);
    assert_eq!(backend.measured_profile().errors, 0);

    // Each candidate's hit rate is exactly what a fresh pair predicts for it.
    for (arch, m) in archs.iter().zip(&metrics) {
        let fresh = run_fresh(arch, ds.samples());
        let hits = fresh.iter().zip(ds.samples()).filter(|&(&p, s)| p == s.label).count();
        assert_eq!(m.accuracy, hits as f64 / fresh.len() as f64, "pooled run diverged from fresh");
    }
}

#[test]
fn pool_survives_a_deploy_failure_mid_search_and_measures_the_next_candidate() {
    let ds = PointCloudDataset::generate(4, 16, 2, 5);

    // One bad connection: the pool dies under candidate 1, the fleet
    // reconnects and retries it — a recovery, not an error.
    let backend = remote_backend(&ds, spawn_scripted_edge(2, BANK_SEED, 1));
    let m1 = backend.evaluate(&split_arch(8));
    assert!(m1.latency_s > 0.0 && m1.latency_s < DEPLOY_FAILURE_SENTINEL, "retried, measured");
    assert_eq!(backend.measured_profile().errors, 0);
    assert_eq!(backend.deployments(), 1);
    let fleet = backend.fleet_stats();
    assert_eq!((fleet.failures(), fleet.resharded), (1, 1), "one pool death, one requeue");
    assert_eq!(fleet.spawns(), 2, "one reconnect after the contained failure");

    // Two bad connections in a row exhaust candidate 1's retry: it is
    // priced with the sentinel, and candidate 2 finds a reconnected pool.
    let backend = remote_backend(&ds, spawn_scripted_edge(2, BANK_SEED, 2));
    let m1 = backend.evaluate(&split_arch(8));
    assert_eq!(m1.latency_s, DEPLOY_FAILURE_SENTINEL);
    assert_eq!(backend.measured_profile().errors, 1);
    assert_eq!(backend.deployments(), 0);
    let m2 = backend.evaluate(&split_arch(16));
    assert!(m2.latency_s > 0.0 && m2.latency_s < DEPLOY_FAILURE_SENTINEL, "search continues");
    assert_eq!(backend.deployments(), 1);
    assert_eq!(backend.measured_profile().errors, 1, "no new errors");
    assert_eq!(backend.fleet_stats().spawns(), 3, "two dead sessions, one live");
}

#[test]
fn dropping_a_backend_never_shuts_a_shared_remote_edge_down() {
    // A remote endpoint's pool does not own the edge: dropping the backend
    // must close its session without sending `Shutdown`, so a later
    // backend can still measure against the same machine.
    let ds = PointCloudDataset::generate(4, 16, 2, 5);
    let addr = spawn_scripted_edge(2, BANK_SEED, 0);
    let first = remote_backend(&ds, addr);
    assert!(first.evaluate(&split_arch(8)).latency_s < DEPLOY_FAILURE_SENTINEL);
    drop(first);
    let second = remote_backend(&ds, addr);
    let m = second.evaluate(&split_arch(16));
    assert!(
        m.latency_s < DEPLOY_FAILURE_SENTINEL,
        "the shared remote edge must outlive the first backend's drop"
    );
    assert_eq!(second.measured_profile().errors, 0);
}

#[test]
fn warmup_frames_are_excluded_from_telemetry_energy_and_accuracy() {
    let ds = PointCloudDataset::generate(4, 16, 4, 21);
    let frames = 3;
    let warmup = 2;
    let arch = split_arch(8);

    // Reference run: the exact stream the backend will drive (samples
    // cycled to warmup+frames), measured manually to get per-frame bytes.
    let stream: Vec<Sample> =
        (0..warmup + frames).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect();
    let plan = ExecutionPlan::from_architecture(&arch);
    let (preds, stats) = common::run_fresh(plan, WeightBank::new(4, BANK_SEED), RUN_SEED, &stream);
    assert_eq!(stats.frame_bytes.len(), warmup + frames, "one byte count per frame");
    assert!(stats.frame_bytes.iter().all(|&b| b > 0), "split design ships every frame");
    assert_eq!(stats.bytes_sent, stats.frame_bytes.iter().sum::<usize>());
    let measured_bytes: usize = stats.frame_bytes[warmup..].iter().sum();
    assert!(measured_bytes < stats.bytes_sent, "warmup traffic is non-trivial");

    // The backend must report exactly the measured window: frames, bytes
    // and measured hit rate all exclude the warmup prefix.
    let backend = EngineBackend::new(
        ds.samples().to_vec(),
        4,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as fn(&Architecture) -> f64,
    )
    .with_measured_accuracy(ds.samples().to_vec())
    .with_frames(frames)
    .with_warmup(warmup)
    .with_bank_seed(BANK_SEED);
    let m = backend.evaluate(&arch);
    assert!(m.latency_s > 0.0 && m.latency_s < DEPLOY_FAILURE_SENTINEL);
    let profile = backend.measured_profile();
    assert_eq!(profile.frames as usize, frames, "exactly the post-warmup frames");
    assert_eq!(
        profile.bytes_sent as usize, measured_bytes,
        "telemetry bytes are the measured window only"
    );
    let expected_correct = preds
        .iter()
        .enumerate()
        .skip(warmup)
        .filter(|&(i, &p)| p == ds.samples()[i % ds.samples().len()].label)
        .count();
    let expected_accuracy = expected_correct as f64 / frames as f64;
    assert!(
        (m.accuracy - expected_accuracy).abs() < 1e-12,
        "measured hit rate averages measured frames only"
    );
}

#[test]
fn pool_shutdown_after_real_use_leaves_no_live_threads() {
    let ds = PointCloudDataset::generate(3, 14, 2, 3);
    let mut pool = EdgePool::spawn(WeightBank::new(2, BANK_SEED), RUN_SEED).expect("pool");
    pool.deploy(ExecutionPlan::from_architecture(&split_arch(8))).expect("deploy");
    pool.run(ds.samples()).expect("run");
    // shutdown() sends the Shutdown control frame and *joins* the serve
    // thread — returning Ok proves the thread is gone, not detached.
    pool.shutdown().expect("serve thread joined cleanly");
}
