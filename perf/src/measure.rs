//! `measure_batch`: the search-time Measured tier. Distinct sampled
//! candidates are priced in batches of 64 through the 2-pool fleet
//! backend with a cold cache log, then replayed once from that log by a
//! fresh backend.
//!
//! Frames are tiny (24-point clouds), so lowering and the optimizer, the
//! plan codec, deploy round trips, the fleet queue and the cache log
//! dominate; stream kernels and the state codec barely register.

use crate::harness::{timed, Ctx, Report};
use crate::result::{peak_rss_mb, Fingerprint};
use crate::stats::{median, tail, Summary};
use crate::trace::{write_trace, Trace};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::cachelog::{self, CacheLog};
use gcode_core::eval::{Evaluator, Metrics};
use gcode_core::space::DesignSpace;
use gcode_engine::{
    decode_plan, encode_plan, lower_and_optimize, EdgeFleet, EdgePool, EngineBackend,
    ExecutionPlan, FleetSpec, OptimizeOptions, DEPLOY_FAILURE_SENTINEL,
};
use gcode_graph::datasets::{PointCloudDataset, Sample};
use gcode_hardware::SystemConfig;
use gcode_nn::seq::WeightBank;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

pub const NAME: &str = "measure_batch";
const BATCH: usize = 64;
/// Batches at full scale, and batches per throughput block.
const BATCHES: usize = 200;
const BLOCK_BATCHES: usize = 10;
const POINTS: usize = 24;
const CLASSES: usize = 4;
const FRAMES: usize = 8;
const WARMUP_FRAMES: usize = 2;
const POOLS: usize = 2;
/// Candidates behind the optimizer counts and the plan-codec probes — a
/// fixed number, so the counts repeat exactly at any run length.
const LOWERED: usize = 256;
const UPLINK_MBPS: f64 = 40.0;
/// Weights and engine RNG streams of the harness's own pools and fleets.
const MODEL_SEED: u64 = 0x5EED;

type Backend = EngineBackend<fn(&Architecture) -> f64>;

/// Accuracy is not under test here: any deterministic value will do.
fn accuracy(arch: &Architecture) -> f64 {
    0.8 + 0.001 * arch.len() as f64
}

fn profile() -> WorkloadProfile {
    WorkloadProfile::modelnet40_mini(POINTS, CLASSES)
}

/// Distinct valid candidates, drawn from the seed in a fixed order.
struct Candidates {
    space: DesignSpace,
    rng: ChaCha8Rng,
    seen: HashSet<Architecture>,
    /// Wall time of each `sample_valid` call.
    sample_s: Vec<f64>,
}

impl Candidates {
    fn new(seed: u64) -> Self {
        Self {
            space: DesignSpace::paper(profile()),
            rng: ChaCha8Rng::seed_from_u64(seed),
            seen: HashSet::new(),
            sample_s: Vec::new(),
        }
    }

    fn take(&mut self, n: usize) -> Vec<Architecture> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let ((arch, _), wall_s) = timed(|| self.space.sample_valid(&mut self.rng, 100_000));
            self.sample_s.push(wall_s);
            if self.seen.insert(arch.clone()) {
                out.push(arch);
            }
        }
        out
    }
}

fn frames(seed: u64) -> Vec<Sample> {
    PointCloudDataset::generate(WARMUP_FRAMES + FRAMES, POINTS, CLASSES, seed).samples().to_vec()
}

fn backend(samples: Vec<Sample>, log_path: &Path) -> Result<Backend, String> {
    let log =
        cachelog::open_shared(log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    Ok(EngineBackend::new(
        samples,
        CLASSES,
        SystemConfig::tx2_to_i7(UPLINK_MBPS),
        accuracy as fn(&Architecture) -> f64,
    )
    .with_frames(FRAMES)
    .with_warmup(WARMUP_FRAMES)
    .with_fleet(FleetSpec::loopback(POOLS))
    .with_cache_log(log))
}

struct Env {
    samples: Vec<Sample>,
    candidates: Candidates,
    log_path: PathBuf,
    backend: Backend,
}

/// Input generation, a cold cache log, the backend, and a warm-up batch
/// that spawns both pools. The warm-up is a whole batch: with a handful of
/// candidates `setup_s` is 3 ms and follows which ones the seed drew.
fn setup(ctx: &Ctx) -> Result<Env, String> {
    let samples = frames(ctx.seed);
    let mut candidates = Candidates::new(ctx.seed);
    let log_path = ctx.scratch.join(format!("measure-{}.gclg", ctx.seed));
    let _ = std::fs::remove_file(&log_path);
    let backend = backend(samples.clone(), &log_path)?;
    let warm = backend.evaluate_batch(&candidates.take(BATCH));
    if warm.iter().any(|m| m.latency_s >= DEPLOY_FAILURE_SENTINEL) {
        return Err("a warm-up candidate failed to deploy".to_string());
    }
    Ok(Env { samples, candidates, log_path, backend })
}

fn fingerprint(env: &Env, first_batch: &[Architecture], ctx: &Ctx) -> String {
    let mut fp = Fingerprint::new();
    fp.text(NAME);
    for arch in first_batch {
        fp.text(&arch.signature());
    }
    fp.samples(&env.samples);
    for n in [BATCH, BATCHES, BLOCK_BATCHES, FRAMES, WARMUP_FRAMES, POOLS] {
        fp.number(n as u64);
    }
    fp.text(&ctx.budget.label());
    fp.number(ctx.seed);
    fp.hex()
}

/// Everything the timed phase priced, in order.
#[derive(Default)]
struct Priced {
    archs: Vec<Architecture>,
    metrics: Vec<Metrics>,
    batch_walls_s: Vec<f64>,
}

/// Closed loop, one `evaluate_batch` of 64 in flight; candidates are drawn
/// between the timed calls.
fn price_batches(
    env: &mut Env,
    ctx: &Ctx,
    share: f64,
    report: &mut Report,
    trace: &mut Trace,
) -> Priced {
    let mut priced = Priced::default();
    let mut phase = ctx.budget.phase(BATCHES, BLOCK_BATCHES, share);
    while phase.next() {
        let batch = env.candidates.take(BATCH);
        if priced.archs.is_empty() {
            report.fingerprint = fingerprint(env, &batch, ctx);
        }
        trace.set_op(priced.batch_walls_s.len() as u64);
        let (metrics, wall_s) =
            timed(|| trace.call("backend.evaluate_batch", || env.backend.evaluate_batch(&batch)));
        report.attempted += batch.len() as u64;
        report.failed +=
            metrics.iter().filter(|m| m.latency_s >= DEPLOY_FAILURE_SENTINEL).count() as u64;
        priced.batch_walls_s.push(wall_s);
        priced.archs.extend(batch);
        priced.metrics.extend(metrics);
    }
    priced
}

/// Candidates per second over each block of `BLOCK_BATCHES` batches.
fn block_rates(batch_walls_s: &[f64]) -> Vec<f64> {
    batch_walls_s
        .chunks_exact(BLOCK_BATCHES)
        .map(|block| (BLOCK_BATCHES * BATCH) as f64 / block.iter().sum::<f64>())
        .collect()
}

/// Warm replay: a fresh backend over the same log must return every
/// `Metrics` bit for bit. Wall-clock measurements cannot repeat by
/// chance, so bit-identity also proves nothing was deployed again.
/// Returns the replay rate and the log reopen time.
fn replay_from_log(
    env: Env,
    priced: &Priced,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(f64, f64, u64), String> {
    let Env { samples, log_path, backend: cold, .. } = env;
    drop(cold);
    let log_bytes = std::fs::metadata(&log_path).map_or(0, |m| m.len());
    let (warm, open_s) =
        timed(|| trace.call("cachelog.open_replay", || backend(samples, &log_path)));
    let warm = warm?;
    let (replayed, replay_s) = timed(|| {
        trace.call("backend.replay", || {
            priced.archs.chunks(BATCH).flat_map(|b| warm.evaluate_batch(b)).collect::<Vec<_>>()
        })
    });
    let same = |a: &Metrics, b: &Metrics| {
        a.accuracy.to_bits() == b.accuracy.to_bits()
            && a.latency_s.to_bits() == b.latency_s.to_bits()
            && a.energy_j.to_bits() == b.energy_j.to_bits()
    };
    let differing =
        replayed.iter().zip(&priced.metrics).filter(|(warm, cold)| !same(warm, cold)).count();
    report.check(
        "warm_replay_is_bit_identical",
        differing == 0 && replayed.len() == priced.metrics.len(),
        format!("{differing} of {} candidates differed", priced.metrics.len()),
    );
    drop(warm);
    let _ = std::fs::remove_file(&log_path);
    Ok((priced.archs.len() as f64 / replay_s, open_s, log_bytes))
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Dropping a backend shuts its fleet down.
    let (mut env, setups) = ctx.budget.repeat_setup(
        || setup(ctx),
        |env| {
            drop(env);
            Ok(())
        },
    )?;
    let mut trace = Trace::new(false);
    let (priced, timed_s) = timed(|| price_batches(&mut env, ctx, 1.0, &mut report, &mut trace));
    report.timed_s = timed_s;
    replay_from_log(env, &priced, &mut report, &mut trace)?;
    report.put("op_p50_s", Summary::of_samples(&priced.batch_walls_s));
    report.put("ops_per_s", Summary::of_blocks(&block_rates(&priced.batch_walls_s)));
    report.put("setup_s", Summary::of_blocks(&setups));
    Ok(report)
}

fn optimize_options() -> OptimizeOptions {
    OptimizeOptions { enabled: true, profile: Some(profile()), uplink_mbps: UPLINK_MBPS }
}

/// Lowers `archs` one by one: per-candidate time, the plans, and the
/// optimizer's exact counts.
fn lower_all(archs: &[Architecture], trace: &mut Trace, report: &mut Report) -> Vec<ExecutionPlan> {
    let opts = optimize_options();
    let (mut elided, mut fused, mut moved) = (0, 0, 0);
    let mut lower_s = Vec::new();
    let mut plans = Vec::new();
    for (i, arch) in archs.iter().enumerate() {
        trace.set_op(i as u64);
        let ((plan, stats), wall_s) =
            timed(|| trace.call("optimizer.lower", || lower_and_optimize(arch, &opts)));
        lower_s.push(wall_s);
        elided += stats.ops_elided();
        fused += stats.ops_fused();
        moved += stats.splits_moved();
        plans.push(plan);
    }
    report.put("optimizer.lower_s", Summary::of_samples(&lower_s));
    report.put_exact("optimizer.ops_elided", elided as f64);
    report.put_exact("optimizer.ops_fused", fused as f64);
    report.put_exact("optimizer.splits_moved", moved as f64);
    plans
}

fn plan_codec_probes(plans: &[ExecutionPlan], trace: &mut Trace, report: &mut Report) {
    let mut encode_s = Vec::new();
    let mut decode_s = Vec::new();
    let mut bytes = Vec::new();
    let mut undecodable = 0;
    for (i, plan) in plans.iter().enumerate() {
        trace.set_op(i as u64);
        let (encoded, wall_s) = timed(|| trace.call("proto.encode_plan", || encode_plan(plan)));
        encode_s.push(wall_s);
        bytes.push(encoded.len() as f64);
        let (decoded, wall_s) = timed(|| trace.call("proto.decode_plan", || decode_plan(&encoded)));
        decode_s.push(wall_s);
        if decoded.ok().as_ref() != Some(plan) {
            undecodable += 1;
        }
    }
    report.check(
        "plan_codec_round_trips",
        undecodable == 0,
        format!("{undecodable} of {} plans did not round-trip", plans.len()),
    );
    report.put("proto.encode_plan_s", Summary::of_samples(&encode_s));
    report.put("proto.decode_plan_s", Summary::of_samples(&decode_s));
    report.put("proto.plan_bytes", Summary::of_samples(&bytes));
}

/// The frame stream a candidate is driven with, as the backend builds it.
fn candidate_stream(samples: &[Sample]) -> Vec<Sample> {
    (0..WARMUP_FRAMES + FRAMES).map(|i| samples[i % samples.len()].clone()).collect()
}

fn spawn_pool() -> Result<EdgePool, gcode_engine::EngineError> {
    EdgePool::spawn(WeightBank::new(CLASSES, MODEL_SEED), MODEL_SEED)
}

/// One pool, one batch of plans: spawn, a single deploy, a batched deploy
/// and each plan's run — the steps a fleet worker repeats.
fn pool_probes(
    plans: &[ExecutionPlan],
    stream: &[Sample],
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), String> {
    let mut spawns = Vec::new();
    let mut spawn = || {
        let (pool, spawn_s) = timed(|| trace.call("pool.spawn", spawn_pool));
        spawns.push(spawn_s);
        pool.map_err(|e| format!("pool spawn: {e}"))
    };
    for _ in 0..2 {
        spawn()?.shutdown().map_err(|e| format!("pool shutdown: {e}"))?;
    }
    let mut pool = spawn()?;
    report.put("pool.spawn_s", Summary::of_samples(&spawns));

    let mut deploys = Vec::new();
    for plan in plans.iter().take(BATCH) {
        let plan = plan.clone();
        let (result, deploy_s) = timed(|| trace.call("pool.deploy", || pool.deploy(plan)));
        result.map_err(|e| format!("deploy: {e}"))?;
        deploys.push(deploy_s);
    }
    report.put("pool.deploy_s", Summary::of_samples(&deploys));

    let mut per_plan = Vec::new();
    for (b, batch) in plans.chunks(BATCH).enumerate() {
        let entries: Vec<(ExecutionPlan, u32)> = batch
            .iter()
            .map(|p| (p.clone(), if p.offloaded { stream.len() as u32 } else { 0 }))
            .collect();
        let (result, batch_s) =
            timed(|| trace.call("pool.deploy_batch", || pool.deploy_batch(entries)));
        result.map_err(|e| format!("deploy_batch: {e}"))?;
        per_plan.push(batch_s / batch.len() as f64);
        // Each run pops the next queued plan; all must be drained.
        for i in 0..batch.len() {
            trace.set_op((b * BATCH + i) as u64);
            trace.call("pool.run", || pool.run(stream)).map_err(|e| format!("run: {e}"))?;
        }
    }
    report.put("pool.deploy_batch_s_per_plan", Summary::of_samples(&per_plan));
    pool.shutdown().map_err(|e| format!("pool shutdown: {e}"))
}

/// `run_batch_streams` over batches of 64 plans on a fleet of `pools`,
/// for `share` of the budget; the first (spawning) batch is not counted.
/// Returns the wall time of each counted batch.
fn fleet_batches(
    pools: usize,
    plans: &[ExecutionPlan],
    stream: &[Sample],
    ctx: &Ctx,
    share: f64,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut fleet = EdgeFleet::new(FleetSpec::loopback(pools), CLASSES, MODEL_SEED, MODEL_SEED);
    let streams: Vec<&[Sample]> = vec![stream; BATCH];
    let span = format!("fleet.batch_{pools}");
    let mut walls = Vec::new();
    let mut phase = ctx.budget.phase(BATCHES / 20, 4, share);
    let mut b = 0usize;
    while phase.next() {
        let batch: Vec<ExecutionPlan> =
            (0..BATCH).map(|i| plans[(b * BATCH + i) % plans.len()].clone()).collect();
        trace.set_op(b as u64);
        let (outcomes, wall_s) =
            timed(|| trace.call(&span, || fleet.run_batch_streams(&batch, &streams)));
        report.attempted += BATCH as u64;
        report.failed += outcomes.iter().filter(|o| o.is_err()).count() as u64;
        if b > 0 {
            walls.push(wall_s);
        }
        b += 1;
    }
    fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
    Ok(walls)
}

/// `CacheLog` alone: appends, lookups, and reopening the file.
fn cachelog_probes(
    priced: &Priced,
    ctx: &Ctx,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), String> {
    let path = ctx.scratch.join(format!("measure-probe-{}.gclg", ctx.seed));
    let _ = std::fs::remove_file(&path);
    let mut log = CacheLog::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tag = cachelog::tag_key("perf|measure_batch");
    let keys: Vec<u64> = priced.archs.iter().map(cachelog::arch_key).collect();
    let mut put_s = Vec::new();
    for (&key, &m) in keys.iter().zip(&priced.metrics) {
        put_s.push(timed(|| trace.call("cachelog.put", || log.put(key, tag, 0, m))).1);
    }
    let mut get_s = Vec::new();
    let mut missing = 0;
    for (&key, m) in keys.iter().zip(&priced.metrics) {
        let (found, wall_s) = timed(|| trace.call("cachelog.get", || log.get(key, tag, 0)));
        get_s.push(wall_s);
        if found.as_ref() != Some(m) {
            missing += 1;
        }
    }
    drop(log);
    let reopened = CacheLog::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lost = keys.iter().filter(|&&k| reopened.get(k, tag, 0).is_none()).count();
    report.check(
        "cache_log_keeps_every_entry",
        missing == 0 && lost == 0,
        format!("{missing} lookups missed, {lost} entries lost on reopen"),
    );
    let _ = std::fs::remove_file(&path);
    report.put("cachelog.put_s", Summary::of_samples(&put_s));
    report.put("cachelog.get_s", Summary::of_samples(&get_s));
    Ok(())
}

/// The traced run: the backend phase under a span per batch, then the
/// same candidates one layer at a time — lowering, plan codec, one pool,
/// the fleet at 2 and 1 pools, the cache log.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut env = setup(ctx)?;
    let mut trace = Trace::new(true);
    let run_start = std::time::Instant::now();

    let priced = price_batches(&mut env, ctx, 0.35, &mut report, &mut trace);
    let samples = env.samples.clone();
    let sample_valid_s = std::mem::take(&mut env.candidates.sample_s);
    let (replay_per_s, open_s, log_bytes) = replay_from_log(env, &priced, &mut report, &mut trace)?;
    let entries = (priced.archs.len() + BATCH) as f64;
    report.put_exact("cachelog.replay_per_s", replay_per_s);
    report.put_exact("cachelog.open_replay_s", open_s);
    report.put_exact("cachelog.bytes_per_entry", log_bytes as f64 / entries);
    report.put("core.sample_valid_s", Summary::of_samples(&sample_valid_s));

    let batch_p50_s = median(&priced.batch_walls_s);
    report.put_exact("backend.batch_p95_s", tail(&priced.batch_walls_s).0);

    let lowered = &priced.archs[..LOWERED.min(priced.archs.len())];
    let plans = lower_all(lowered, &mut trace, &mut report);
    plan_codec_probes(&plans, &mut trace, &mut report);
    let stream = candidate_stream(&samples);
    pool_probes(&plans, &stream, &mut trace, &mut report)?;
    let two = fleet_batches(POOLS, &plans, &stream, ctx, 0.2, &mut trace, &mut report)?;
    let one = fleet_batches(1, &plans, &stream, ctx, 0.2, &mut trace, &mut report)?;
    report.put("fleet.batch_s", Summary::of_samples(&two));
    report.put_exact("fleet.scaling_2v1", median(&one) / median(&two));
    cachelog_probes(&priced, ctx, &mut trace, &mut report)?;

    // What the backend adds per candidate on top of lowering and the
    // fleet's own batch: pricing, the cache-log partition and write-through.
    let lower_s = report.get("optimizer.lower_s").unwrap_or(0.0);
    let fleet_s = median(&two) / BATCH as f64;
    let per_candidate_s = batch_p50_s / BATCH as f64;
    report.put_exact("backend.overhead_s_per_candidate", per_candidate_s - lower_s - fleet_s);
    report.timed_s = run_start.elapsed().as_secs_f64();
    report.put_exact("runtime.peak_rss_mb", peak_rss_mb());

    let shares = [
        ("optimizer", lower_s),
        ("fleet+pool+proto", fleet_s),
        ("backend+cachelog", per_candidate_s - lower_s - fleet_s),
    ]
    .map(|(layer, s)| (layer.to_string(), s / per_candidate_s));
    write_trace(ctx, NAME, per_candidate_s, &shares, &trace)?;
    Ok(report)
}
