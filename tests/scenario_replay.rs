//! Trace-driven scenario replay and measured-accuracy pricing,
//! end-to-end: the committed golden trace must replay bit-identically
//! (in deterministic view) across repeated runs and fleet widths; a
//! mid-trace constraint flip must hot-swap to a plan whose predictions
//! match a fresh deployment bit-for-bit;
//! and `with_measured_accuracy` must price the exact stream hit rate,
//! also for a run a modeled-accuracy backend left in the cache log.

mod common;

use gcode::core::arch::Architecture;
use gcode::core::cachelog::open_shared;
use gcode::core::eval::scenario::{ScenarioReport, ScenarioTrace};
use gcode::core::eval::Evaluator;
use gcode::core::op::{Op, SampleFn};
use gcode::core::search::ScoredArch;
use gcode::core::zoo::ArchitectureZoo;
use gcode::engine::{replay_on_fleet, EdgeFleet, EngineBackend, ExecutionPlan, FleetSpec};
use gcode::graph::datasets::{PointCloudDataset, Sample};
use gcode::hardware::SystemConfig;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::WeightBank;
use std::path::PathBuf;

const CLASSES: usize = 4;
const BANK_SEED: u64 = 61;
const RUN_SEED: u64 = 29;

/// The committed example trace: steady → 10× burst → uplink degrade →
/// constraint flip. The README quickstart and `gcode replay` both point
/// at this exact file, so the suite replays the real artifact.
fn golden_trace() -> ScenarioTrace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenario_trace.json");
    let json = std::fs::read_to_string(&path).expect("example trace is committed");
    let trace = ScenarioTrace::from_json(&json).expect("example trace parses");
    trace.validate().expect("example trace is well-formed");
    trace
}

/// The replay zoo the trace's constraint flip is written against: an
/// accurate offloaded design the unconstrained dispatch picks, and a
/// fast on-device design the `max_latency_s: 0.02` flip forces.
fn zoo_entry(latency_s: f64, accuracy: f64, split: bool) -> ScoredArch {
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

fn replay_zoo() -> ArchitectureZoo {
    ArchitectureZoo::new(vec![zoo_entry(0.080, 0.93, true), zoo_entry(0.010, 0.90, false)])
}

fn held_out() -> PointCloudDataset {
    PointCloudDataset::generate(8, 24, CLASSES, 17)
}

fn views(reports: &[ScenarioReport]) -> Vec<ScenarioReport> {
    reports.iter().map(ScenarioReport::deterministic_view).collect()
}

/// Replays the golden trace on the dispatcher's deployment: one warm
/// pair, i.e. a fresh 1-pool fleet.
fn replay_on_dispatcher(trace: &ScenarioTrace, samples: &[Sample]) -> Vec<ScenarioReport> {
    let mut fleet = EdgeFleet::new(FleetSpec::loopback(1), CLASSES, BANK_SEED, RUN_SEED);
    let reports =
        replay_on_fleet(&replay_zoo(), &mut fleet, samples, trace).expect("trace replays");
    fleet.shutdown().expect("clean shutdown");
    reports
}

#[test]
fn golden_trace_replays_bit_identically_across_runs_and_fleet_widths() {
    let trace = golden_trace();
    let ds = held_out();

    let first = views(&replay_on_dispatcher(&trace, ds.samples()));
    let second = views(&replay_on_dispatcher(&trace, ds.samples()));
    assert_eq!(first, second, "two independent 1-pool replays of the golden trace must agree");

    for pools in [1usize, 2, 4] {
        let mut fleet = EdgeFleet::new(FleetSpec::loopback(pools), CLASSES, BANK_SEED, RUN_SEED);
        let reports = replay_on_fleet(&replay_zoo(), &mut fleet, ds.samples(), &trace)
            .expect("fleet replay succeeds");
        fleet.shutdown().expect("fleet shuts down cleanly");
        assert_eq!(
            views(&reports),
            first,
            "a {pools}-pool fleet replay must be bit-identical to the 1-pool replay"
        );
    }
}

#[test]
fn golden_trace_swaps_once_on_deploy_and_once_on_the_constraint_flip() {
    let trace = golden_trace();
    let ds = held_out();
    let reports = replay_on_dispatcher(&trace, ds.samples());

    let swaps: Vec<u64> = reports.iter().map(|r| r.swaps).collect();
    assert_eq!(
        swaps,
        vec![1, 0, 0, 1],
        "initial deploy and the constraint flip are the only hot-swaps"
    );
    let total_frames: u64 = reports.iter().map(|r| r.frames).sum();
    assert_eq!(total_frames, trace.total_frames() as u64);
}

/// Fresh-deployment reference: a pool of its own for this plan only,
/// seeded like the warm pool.
fn run_fresh(arch: &Architecture, samples: &[Sample]) -> Vec<usize> {
    let plan = ExecutionPlan::from_architecture(arch);
    common::run_fresh(plan, WeightBank::new(CLASSES, BANK_SEED), RUN_SEED, samples).0
}

#[test]
fn constraint_flip_segment_matches_a_fresh_deployment_bit_for_bit() {
    let trace = golden_trace().normalized();
    let ds = held_out();
    let reports = replay_on_dispatcher(&trace, ds.samples());

    // Rebuild the flip segment's exact frame stream: round-robin from
    // `seed % len`, advanced by every preceding segment's frame count.
    let samples = ds.samples();
    let flip_index = trace.segments.len() - 1;
    let mut offset = trace.seed as usize % samples.len();
    for seg in &trace.segments[..flip_index] {
        offset = (offset + seg.frames) % samples.len();
    }
    let seg = &trace.segments[flip_index];
    let stream: Vec<Sample> =
        (0..seg.frames).map(|i| samples[(offset + i) % samples.len()].clone()).collect();

    // The flip admits the fast local design; a fresh pair deployed with
    // the same plan and seeds must predict identically, so the segment's
    // measured accuracy equals the reference hit rate exactly.
    let constraint = seg.constraint.expect("golden trace ends on a constraint flip");
    let pick = replay_zoo().dispatch(constraint).expect("flip admits a design").arch.clone();
    assert!(
        !pick.ops().iter().any(|op| matches!(op, Op::Communicate)),
        "the latency flip must force the on-device design"
    );
    let preds = run_fresh(&pick, &stream);
    let correct = preds.iter().zip(&stream).filter(|&(&p, s)| p == s.label).count();
    let expected = correct as f64 / stream.len() as f64;
    let report = &reports[flip_index];
    assert_eq!(report.swaps, 1, "the flip hot-swaps exactly once");
    assert!(
        (report.measured_accuracy - expected).abs() == 0.0,
        "swapped-plan predictions must match a fresh deployment bit-for-bit: \
         replayed {} vs fresh {}",
        report.measured_accuracy,
        expected
    );
}

// ——— Measured-accuracy pricing ———

fn measured_arch(dim: usize) -> Architecture {
    Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ])
}

const MODELED_ACCURACY: f64 = 0.777;

fn modeled(_: &Architecture) -> f64 {
    MODELED_ACCURACY
}

/// A measured-accuracy backend over the held-out split, seeded like
/// [`reference_hit_rate`] so the reference hit rate is hand-computable.
fn measured_backend(warmup: usize) -> EngineBackend<fn(&Architecture) -> f64> {
    let ds = held_out();
    EngineBackend::new(
        ds.samples().to_vec(),
        CLASSES,
        SystemConfig::tx2_to_i7(40.0),
        modeled as fn(&Architecture) -> f64,
    )
    .with_measured_accuracy(ds.samples().to_vec())
    .with_warmup(warmup)
    .with_bank_seed(BANK_SEED)
}

/// The backend's default-seeded fresh-spawn reference: same stream, same
/// bank seed, same run seed (the constructor default), warmup included.
fn reference_hit_rate(arch: &Architecture, warmup: usize) -> f64 {
    let ds = held_out();
    let samples = ds.samples();
    let stream: Vec<Sample> =
        (0..warmup + samples.len()).map(|i| samples[i % samples.len()].clone()).collect();
    let plan = ExecutionPlan::from_architecture(arch);
    let (preds, _) = common::run_fresh(plan, WeightBank::new(CLASSES, BANK_SEED), 0xE261, &stream);
    let correct = preds.iter().zip(&stream).skip(warmup).filter(|&(&p, s)| p == s.label).count();
    correct as f64 / (stream.len() - warmup) as f64
}

#[test]
fn measured_accuracy_prices_the_exact_stream_hit_rate() {
    let warmup = 2;
    let arch = measured_arch(8);
    let expected = reference_hit_rate(&arch, warmup);

    let backend = measured_backend(warmup);
    let metrics = backend.evaluate(&arch);
    assert!(
        (metrics.accuracy - expected).abs() == 0.0,
        "measured pricing must equal the hand-computed hit rate exactly: {} vs {}",
        metrics.accuracy,
        expected
    );
    assert_ne!(
        metrics.accuracy, MODELED_ACCURACY,
        "the modeled accuracy_fn must not leak into measured pricing"
    );
}

#[test]
fn measured_accuracy_is_per_candidate_not_a_lifetime_average() {
    let warmup = 0;
    let first = measured_arch(8);
    let second = measured_arch(24);
    let rate_first = reference_hit_rate(&first, warmup);
    let rate_second = reference_hit_rate(&second, warmup);
    assert_ne!(rate_first, rate_second, "the regression needs candidates with different hit rates");

    // Two candidates back to back on one backend: each is priced at its
    // own reference hit rate, never at a blend with the one before it.
    let backend = measured_backend(warmup);
    let priced = [backend.evaluate(&first).accuracy, backend.evaluate(&second).accuracy];
    assert_eq!(priced, [rate_first, rate_second], "each candidate's own hit rate");
}

fn tmp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gcode-scenario-replay-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn a_modeled_run_on_record_is_priced_at_the_measured_hit_rate() {
    let path = tmp_cache("fidelity-tags.gclg");
    let arch = measured_arch(8);

    // The modeled pass stores its raw run and prices accuracy by model.
    let ds = held_out();
    let modeled_backend = EngineBackend::new(
        ds.samples().to_vec(),
        CLASSES,
        SystemConfig::tx2_to_i7(40.0),
        modeled as fn(&Architecture) -> f64,
    )
    .with_bank_seed(BANK_SEED)
    .with_cache_log(open_shared(&path).expect("log opens"));
    let modeled_metrics = modeled_backend.evaluate(&arch);
    assert_eq!(modeled_metrics.accuracy, MODELED_ACCURACY);

    // A measured backend over the same stream and the same log replays
    // that run — the run is the same — but never its modeled accuracy: it
    // scores the stored predictions against the stream's labels.
    let measured = measured_backend(0).with_cache_log(open_shared(&path).expect("log opens"));
    let measured_metrics = measured.evaluate(&arch);
    assert_eq!((measured.log_hits(), measured.deployments()), (1, 0), "the run is on record");
    assert_eq!(
        measured_metrics.accuracy,
        reference_hit_rate(&arch, 0),
        "a modeled accuracy never answers a measured lookup"
    );
    assert_eq!(measured_metrics.latency_s.to_bits(), modeled_metrics.latency_s.to_bits());
}

#[test]
fn a_fully_cached_measured_batch_spawns_no_pool() {
    let path = tmp_cache("warm-pool.gclg");
    let archs = [measured_arch(8), measured_arch(16), measured_arch(24)];

    let cold = measured_backend(0).with_cache_log(open_shared(&path).expect("log opens"));
    let cold_metrics: Vec<_> = archs.iter().map(|a| cold.evaluate(a)).collect();
    assert_eq!(cold.fleet_stats().spawns(), 1, "the cold pass warms exactly one pool");

    let warm = measured_backend(0).with_cache_log(open_shared(&path).expect("log opens"));
    let warm_metrics: Vec<_> = archs.iter().map(|a| warm.evaluate(a)).collect();
    assert_eq!(warm.log_hits(), archs.len() as u64, "every candidate replays from the log");
    assert_eq!(warm.fleet_stats().spawns(), 0, "a fully-cached batch must never spawn a pool");
    assert_eq!(warm.deployments(), 0, "…or deploy anything");
    assert_eq!(warm_metrics, cold_metrics, "replayed metrics are bit-identical");
}
