//! Ablations beyond the paper's figures (DESIGN.md §5 extension hooks):
//!
//! 1. pipelined engine vs frame-serial execution (throughput);
//! 2. transfer compression on/off (latency of split designs);
//! 3. λ sweep quantified by Pareto hypervolume (Fig. 8's knob, scalarized);
//! 4. adaptive runtime dispatch vs a pinned design under a fluctuating link;
//! 5. multi-fidelity search: the analytic→sim cascade backend vs a pure
//!    simulator-in-the-loop search (expensive evaluations saved, memo-cache
//!    effectiveness, end score);
//! 6. closing the loop: a three-tier analytic→sim→engine fidelity ladder
//!    that prices escalated candidates on the live TCP runtime, vs the
//!    pure-sim search, with live p50/p95/p99 frame latencies in the
//!    `SearchReport`;
//! 7. warm edge pool: per-candidate spawn/connect/teardown (a reference
//!    baseline built from `EdgeServer`/`DeviceClient` primitives) vs the
//!    default `EngineBackend`'s one warm pair hot-swapping plans
//!    (`SwapPlan` control frames) — deploy throughput and p50 per mode;
//! 8. edge fleet: Measured-tier deploy throughput as the same candidate
//!    batch is pulled off the shared morsel queue by 1 → 2 → 4 loopback
//!    pools (`EdgeFleet`) under a 10 Mbps uplink cap, uniform and with a
//!    10× per-candidate frame-count skew, warm cost reported separately;
//! 9. search-as-a-service: an in-process `gcode-serve` daemon at 1, 8 and
//!    64 concurrent tenant sessions over one warm fleet — sustained
//!    sessions/sec and p99 time-to-winner per concurrency level;
//! 10. plan wire encoding and the persistent evaluation cache: hot-swap
//!     throughput and bytes-per-plan of the binary columnar encoding vs
//!     one batched `SwapPlanBatch` deploy over the same capped uplink
//!     (the retired JSON `SwapPlan` appears only as a static byte-size
//!     reference), plus cold-search vs warm-restart wall time against one
//!     `--cache-file` log;
//! 11. the plan-optimizer pipeline: the same candidate list priced on the
//!     live engine with `--optimize on` vs `off` under a 10 Mbps uplink
//!     cap — deploys/s, p50/p95 deltas, per-pass counters and wire bytes
//!     per plan (optimized plans must never be larger);
//! 12. trace-driven scenario replay: a four-segment `ScenarioTrace`
//!     (steady → 10× arrival burst → 10→1 Mbps uplink degrade →
//!     mid-stream constraint flip) replayed on one warm dispatcher pool.
//!     Deadlines and arrival rates are derived from a probed per-frame
//!     service time, so the burst outruns the service rate on any host —
//!     the burst segment's deadline hit rate must land strictly below
//!     the steady segment's.
//!
//! Sections 5–12 also emit a `BENCH_eval.json` perf artifact (wall time,
//! evaluation counts and deploy throughput per mode; schema documented in
//! `docs/BENCHMARKS.md`) next to the working directory. `--quick` runs
//! only sections 7–12 at tiny frame counts and still emits the artifact —
//! the CI smoke path.

use gcode_baselines::models;
use gcode_bench::{
    header, print_row, run_gcode_search, run_gcode_search_reported, table_search_config,
};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::cachelog::open_shared;
use gcode_core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend};
use gcode_core::eval::FleetStats;
use gcode_core::eval::{Evaluator, Objective, SearchSession};
use gcode_core::op::{Op, SampleFn};
use gcode_core::pareto::{front_of, hypervolume};
use gcode_core::search::{RandomSearch, SearchConfig};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_core::zoo::ArchitectureZoo;
use gcode_engine::{
    encode_frame, latency_percentiles, lower_and_optimize, replay_on_fleet, DeviceClient,
    EdgeFleet, EdgePool, EdgeServer, EngineBackend, EngineDispatcher, ExecutionPlan, FleetSpec,
    Frame, OptimizeOptions, SessionSpec, SessionTask,
};
use gcode_graph::datasets::{PointCloudDataset, Sample};
use gcode_hardware::SystemConfig;
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use gcode_nn::seq::WeightBank;
use gcode_server::{SearchServer, ServerClient, ServerConfig};
use gcode_sim::{simulate, simulate_adaptive, BandwidthTrace, SimBackend, SimConfig};
use std::time::{Duration, Instant};

/// Deploy-throughput numbers from the pooled-vs-spawn ablation.
struct PoolAblation {
    candidates: usize,
    spawn_wall_s: f64,
    pooled_wall_s: f64,
    spawn_p50_s: f64,
    pooled_p50_s: f64,
    pool_spawns: u64,
}

/// Distinct split candidates so neither mode benefits from memoization.
fn pool_candidates(n: usize) -> Vec<Architecture> {
    (0..n)
        .map(|i| {
            Architecture::new(vec![
                Op::Sample(SampleFn::Knn { k: 4 + i % 3 }),
                Op::Aggregate(AggMode::Max),
                Op::Combine { dim: 8 + 8 * (i % 4) },
                Op::Communicate,
                Op::GlobalPool(PoolMode::Max),
            ])
        })
        .collect()
}

/// Section 7's reference baseline, built from the runtime primitives
/// outside `EngineBackend` (which only deploys on warm pools): a fresh
/// `EdgeServer`/`DeviceClient` pair spawned, streamed and torn down per
/// candidate, lowered and seeded exactly as the backend would. Returns
/// the wall over all candidates and the post-warmup per-frame p50.
fn spawn_per_candidate(archs: &[Architecture], samples: &[Sample], warmup: usize) -> (f64, f64) {
    let opts = OptimizeOptions {
        profile: Some(WorkloadProfile::modelnet40_mini(samples[0].features.rows(), 4)),
        ..OptimizeOptions::default()
    };
    let mut latencies_s = Vec::new();
    let start = Instant::now();
    for arch in archs {
        let (plan, _) = lower_and_optimize(arch, &opts);
        let bank = WeightBank::new(4, 0x5EED);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 0xE261).expect("edge spawns");
        let mut client =
            DeviceClient::connect(server.addr(), plan, bank, 0xE261).expect("device connects");
        let (_, stats) = client.run_pipelined(samples).expect("fresh pair streams");
        drop(client);
        server.join().expect("edge exits cleanly");
        latencies_s.extend_from_slice(&stats.frame_latencies_s[warmup..]);
    }
    (start.elapsed().as_secs_f64(), latency_percentiles(&latencies_s).0)
}

/// Section 7 body: price the same candidate list on a fresh pair per
/// candidate (the primitives baseline) vs the default `EngineBackend` —
/// one warm hot-swapping pool — and time both.
fn run_pool_ablation(candidates: usize, frames: usize, warmup: usize) -> PoolAblation {
    let sys = SystemConfig::tx2_to_i7(40.0);
    let ds = PointCloudDataset::generate(6, 20, 4, 47);
    let accuracy = |a: &Architecture| 0.8 + 0.001 * a.len() as f64;
    let archs = pool_candidates(candidates);

    let stream: Vec<Sample> =
        (0..warmup + frames).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect();
    let (spawn_wall_s, spawn_p50_s) = spawn_per_candidate(&archs, &stream, warmup);

    let pooled_backend = EngineBackend::new(ds.samples().to_vec(), 4, sys, accuracy)
        .with_frames(frames)
        .with_warmup(warmup);
    let pooled_start = Instant::now();
    for arch in &archs {
        pooled_backend.evaluate(arch);
    }
    let pooled_wall_s = pooled_start.elapsed().as_secs_f64();

    PoolAblation {
        candidates,
        spawn_wall_s,
        pooled_wall_s,
        spawn_p50_s,
        pooled_p50_s: pooled_backend.measured_profile().p50_s,
        pool_spawns: pooled_backend.fleet_stats().spawns(),
    }
}

/// The router uplink cap the fleet ablation measures under, in Mbit/s —
/// the paper's constrained-bandwidth regime. Under the cap a candidate's
/// wall is dominated by paced transfer time (sleep, not compute), which
/// is exactly the work N pools can overlap; unthrottled loopback pools
/// on a small host measure core count, not scheduling.
const FLEET_UPLINK_MBPS: f64 = 10.0;

/// One fleet size's deploy-throughput numbers from the scaling ablation.
struct FleetPoint {
    pools: usize,
    wall_s: f64,
    stats: FleetStats,
}

/// Section 8 results: the same uniform batch at 1/2/4 pools, a
/// ~10×-skewed batch at 1 vs 4 pools, and the pool spawn/warm wall kept
/// outside every timed window.
struct FleetAblation {
    candidates: usize,
    points: Vec<FleetPoint>,
    skew_candidates: usize,
    skew_points: Vec<FleetPoint>,
    warmup_s: f64,
}

impl FleetAblation {
    fn speedup_4v1(points: &[FleetPoint]) -> f64 {
        let wall =
            |pools: usize| points.iter().find(|p| p.pools == pools).map_or(f64::NAN, |p| p.wall_s);
        wall(1) / wall(4).max(1e-12)
    }

    /// Uniform-batch 4-pool speedup over 1 pool.
    fn uniform_speedup_4v1(&self) -> f64 {
        Self::speedup_4v1(&self.points)
    }

    /// Skewed-batch 4-pool speedup over 1 pool.
    fn skew_speedup_4v1(&self) -> f64 {
        Self::speedup_4v1(&self.skew_points)
    }
}

/// Section 8 body: price one uniform candidate batch through
/// `EngineBackend` fleets of 1, 2 and 4 loopback pools under the
/// [`FLEET_UPLINK_MBPS`] router cap and time each pass, then push a
/// skewed batch (per-candidate frame counts varying 10×, heavy streams
/// last) directly through `EdgeFleet::run_batch_streams` at 1 vs 4
/// pools. Distinct candidates (no memoization anywhere on this path) and
/// identical seeding mean every fleet size measures exactly the same
/// work — only the pool count changes. Spawning pools is setup, not
/// scaling: every fleet is warmed before its clock starts and the total
/// spawn/warm wall is reported separately as `fleet_warmup_s` so the
/// cost stays visible instead of polluting the curve.
fn run_fleet_ablation(quick: bool) -> FleetAblation {
    let (candidates, frames) = if quick { (8, 24) } else { (16, 32) };
    let (lights, heavies, light_frames) = if quick { (6, 4, 8) } else { (12, 12, 10) };

    let sys = SystemConfig::tx2_to_i7(40.0);
    let ds = PointCloudDataset::generate(6, 20, 4, 47);
    let accuracy = |a: &Architecture| 0.8 + 0.001 * a.len() as f64;
    let archs = pool_candidates(candidates);
    let mut warmup_s = 0.0;
    let points = [1usize, 2, 4]
        .iter()
        .map(|&pools| {
            let backend = EngineBackend::new(ds.samples().to_vec(), 4, sys.clone(), accuracy)
                .with_frames(frames)
                .with_uplink_mbps(FLEET_UPLINK_MBPS)
                .with_fleet(FleetSpec::loopback(pools));
            // A pools-sized slice is enough to spawn every pool (the
            // fleet never spawns more pools than pending candidates).
            let warm_start = Instant::now();
            backend.evaluate_batch(&archs[..pools]);
            warmup_s += warm_start.elapsed().as_secs_f64();
            let start = Instant::now();
            backend.evaluate_batch(&archs);
            let wall_s = start.elapsed().as_secs_f64();
            let stats = backend.fleet_stats();
            FleetPoint { pools, wall_s, stats }
        })
        .collect();

    // Skewed batch: light candidates first, 10×-heavier streams last —
    // the shape that starves a static contiguous shard (one tail shard
    // inherits every heavy) and that the pull model balances by
    // construction, each pool grabbing the next candidate as it frees up.
    let skew_total = lights + heavies;
    let skew_archs = pool_candidates(skew_total);
    let plans: Vec<ExecutionPlan> =
        skew_archs.iter().map(ExecutionPlan::from_architecture).collect();
    let stream_of = |frames: usize| -> Vec<Sample> {
        (0..frames).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect()
    };
    let streams_owned: Vec<Vec<Sample>> = (0..skew_total)
        .map(|i| stream_of(if i < lights { light_frames } else { 10 * light_frames }))
        .collect();
    let streams: Vec<&[Sample]> = streams_owned.iter().map(Vec::as_slice).collect();
    let skew_points = [1usize, 4]
        .iter()
        .map(|&pools| {
            let mut fleet = EdgeFleet::new(FleetSpec::loopback(pools), 4, 71, 23)
                .with_uplink_mbps(FLEET_UPLINK_MBPS);
            let warm_start = Instant::now();
            let warmed = fleet.run_batch_streams(&plans[..pools], &streams[..pools]);
            assert!(warmed.iter().all(Result::is_ok), "skew warm pass deploys");
            warmup_s += warm_start.elapsed().as_secs_f64();
            let start = Instant::now();
            let outcomes = fleet.run_batch_streams(&plans, &streams);
            let wall_s = start.elapsed().as_secs_f64();
            assert!(outcomes.iter().all(Result::is_ok), "skewed batch deploys");
            let stats = fleet.stats();
            fleet.shutdown().expect("clean fleet shutdown");
            FleetPoint { pools, wall_s, stats }
        })
        .collect();

    FleetAblation { candidates, points, skew_candidates: skew_total, skew_points, warmup_s }
}

fn print_fleet_ablation(fleet: &FleetAblation) {
    header("Ablation 8 — edge fleet: Measured-tier throughput vs pool count");
    println!(
        "  uniform batch ({} candidates, {:.0} Mbps uplink):",
        fleet.candidates, FLEET_UPLINK_MBPS
    );
    let base = fleet.points[0].wall_s;
    for p in &fleet.points {
        println!(
            "  {} pool{}: {:2} deployments in {:7.1} ms  ({:6.1} deploys/s, {:4.2}x vs 1 pool)  {} failures",
            p.pools,
            if p.pools == 1 { " " } else { "s" },
            fleet.candidates,
            p.wall_s * 1e3,
            fleet.candidates as f64 / p.wall_s.max(1e-12),
            base / p.wall_s.max(1e-12),
            p.stats.failures()
        );
    }
    println!("  skewed batch ({} candidates, 10x frame-count spread):", fleet.skew_candidates);
    let skew_base = fleet.skew_points[0].wall_s;
    for p in &fleet.skew_points {
        println!(
            "  {} pool{}: {:2} deployments in {:7.1} ms  ({:6.1} deploys/s, {:4.2}x vs 1 pool)  {} failures",
            p.pools,
            if p.pools == 1 { " " } else { "s" },
            fleet.skew_candidates,
            p.wall_s * 1e3,
            fleet.skew_candidates as f64 / p.wall_s.max(1e-12),
            skew_base / p.wall_s.max(1e-12),
            p.stats.failures()
        );
    }
    println!("  pool spawn/warm cost, outside every timed window: {:7.1} ms", fleet.warmup_s * 1e3);
}

/// One concurrency level of the search-service ablation.
struct ServePoint {
    concurrency: usize,
    wall_s: f64,
    p99_time_to_winner_s: f64,
}

/// Section 9 results: the same session spec served at 1/8/64 tenants.
struct ServeAblation {
    points: Vec<ServePoint>,
}

/// Section 9 body: one resident `gcode-serve` daemon (two warm loopback
/// pools, eight concurrent session slots), hammered by 1, 8 and 64
/// client threads. Each tenant runs the full protocol — handshake, open
/// with backoff on `Busy`, submit, poll to the winner — and times its
/// own submit→result span; the batch wall clock gives sustained
/// sessions/sec. Seeds differ per tenant so no result is memoized into
/// another's, and the daemon stays up across all three levels: the
/// 8- and 64-tenant points run over pools the 1-tenant point warmed.
fn run_serve_ablation(iterations: usize, zoo_size: usize) -> ServeAblation {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(2)).with_max_sessions(8),
    )
    .expect("serve ablation server starts");
    let addr = server.addr();
    let points = [1usize, 8, 64]
        .iter()
        .map(|&concurrency| {
            let start = Instant::now();
            let mut times: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..concurrency)
                    .map(|i| {
                        scope.spawn(move || {
                            let spec = SessionSpec {
                                config: SearchConfig {
                                    iterations,
                                    zoo_size,
                                    seed: 1000 * concurrency as u64 + i as u64,
                                    ..SearchConfig::default()
                                },
                                objective: Objective::new(0.25, 1.0, 5.0),
                                task: if i % 2 == 0 {
                                    SessionTask::ModelNet40
                                } else {
                                    SessionTask::Mr
                                },
                                measure_zoo: true,
                                scenario: None,
                            };
                            let mut client = ServerClient::connect(addr).expect("handshake");
                            let id = client
                                .open_session_retry(&spec, 10_000, Duration::from_millis(5))
                                .expect("admitted");
                            let submitted = Instant::now();
                            client.submit(id).expect("submitted");
                            let outcome = client
                                .wait_result(id, Duration::from_millis(5), Duration::from_secs(300))
                                .expect("winner");
                            client.close_session(id).expect("closed");
                            assert!(outcome.report.measured.is_some(), "zoo was measured");
                            submitted.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
            });
            let wall_s = start.elapsed().as_secs_f64();
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let p99 = times[((times.len() as f64 * 0.99).ceil() as usize - 1).min(times.len() - 1)];
            ServePoint { concurrency, wall_s, p99_time_to_winner_s: p99 }
        })
        .collect();
    server.shutdown().expect("serve ablation server shuts down");
    ServeAblation { points }
}

fn print_serve_ablation(serve: &ServeAblation) {
    header("Ablation 9 — search-as-a-service: concurrent tenants on one warm fleet");
    for p in &serve.points {
        println!(
            "  {:2} tenant{}: {:2} sessions in {:7.1} ms  ({:6.2} sessions/s)  p99 time-to-winner {:7.1} ms",
            p.concurrency,
            if p.concurrency == 1 { " " } else { "s" },
            p.concurrency,
            p.wall_s * 1e3,
            p.concurrency as f64 / p.wall_s.max(1e-12),
            p.p99_time_to_winner_s * 1e3
        );
    }
}

/// Section 10 numbers: the wire economics of plan deploys (binary
/// per-plan vs batched, with the retired JSON encoding's byte size as a
/// static reference) and the persistent evaluation cache (cold search vs
/// warm restart).
struct WireCacheAblation {
    plans: usize,
    binary_wall_s: f64,
    batched_wall_s: f64,
    json_bytes_per_plan: f64,
    binary_bytes_per_plan: f64,
    cache_candidates: usize,
    cold_wall_s: f64,
    warm_wall_s: f64,
    warm_log_hits: u64,
}

impl WireCacheAblation {
    fn binary_swaps_per_s(&self) -> f64 {
        self.plans as f64 / self.binary_wall_s.max(1e-12)
    }
    fn batched_deploys_per_s(&self) -> f64 {
        self.plans as f64 / self.batched_wall_s.max(1e-12)
    }
}

/// Section 10 body. Swap throughput: the same plan list hot-swapped onto
/// one warm [`EdgePool`], every control frame paced by the
/// [`FLEET_UPLINK_MBPS`] router cap — so wire bytes, the thing the
/// columnar encoding shrinks, cost real wall time. The batched pass
/// deploys the whole list through `SwapPlanBatch` frames on the already
/// warm pair. The retired JSON `SwapPlan` (kind 1) no longer ships, so it
/// appears only as a static serde-JSON byte size for scale. Cache: the
/// same candidate list priced twice on a live
/// [`EngineBackend`] against one cache-log file — the first pass deploys
/// and writes through, the second must answer every candidate from the
/// file without spawning a pair.
fn run_wire_cache_ablation(quick: bool) -> WireCacheAblation {
    let plan_count = if quick { 12 } else { 32 };
    let plans: Vec<ExecutionPlan> =
        pool_candidates(plan_count).iter().map(ExecutionPlan::from_architecture).collect();

    // Framed wire size (+4 for the length prefix; JSON +1 for its kind
    // byte — a reference figure, the path itself is gone).
    let json_bytes: usize = plans
        .iter()
        .map(|p| serde_json::to_string(p).expect("plan serializes").len() + 1 + 4)
        .sum();
    let binary_bytes: usize =
        plans.iter().map(|p| encode_frame(&Frame::SwapPlan(Box::new(p.clone()))).len() + 4).sum();

    let mut binary_pool = EdgePool::spawn(WeightBank::new(4, 5), 9)
        .expect("binary pool spawns")
        .with_uplink_mbps(FLEET_UPLINK_MBPS);
    let start = Instant::now();
    for p in &plans {
        binary_pool.deploy(p.clone()).expect("binary swap");
    }
    let binary_wall_s = start.elapsed().as_secs_f64();

    // Batched deploy on the same warm pair: the full queue in one control
    // round-trip per 64-plan chunk (frame budget 0 — deploy cost only).
    let entries: Vec<(ExecutionPlan, u32)> = plans.iter().map(|p| (p.clone(), 0)).collect();
    let start = Instant::now();
    binary_pool.deploy_batch(entries).expect("batched deploy");
    let batched_wall_s = start.elapsed().as_secs_f64();
    binary_pool.shutdown().expect("clean binary pool shutdown");

    // Cold vs warm against one cache file, on the live engine.
    let dir = std::env::temp_dir().join("gcode-ablation-cache");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("warm-restart-{}.gclg", if quick { "quick" } else { "full" }));
    let _ = std::fs::remove_file(&path);
    let sys = SystemConfig::tx2_to_i7(40.0);
    let ds = PointCloudDataset::generate(6, 20, 4, 47);
    let accuracy = |a: &Architecture| 0.8 + 0.001 * a.len() as f64;
    let archs = pool_candidates(if quick { 6 } else { 12 });
    let frames = if quick { 2 } else { 4 };

    let cold = EngineBackend::new(ds.samples().to_vec(), 4, sys.clone(), accuracy)
        .with_frames(frames)
        .with_warmup(1)
        .with_cache_log(open_shared(&path).expect("cache file opens"));
    let start = Instant::now();
    for a in &archs {
        cold.evaluate(a);
    }
    let cold_wall_s = start.elapsed().as_secs_f64();

    let warm = EngineBackend::new(ds.samples().to_vec(), 4, sys, accuracy)
        .with_frames(frames)
        .with_warmup(1)
        .with_cache_log(open_shared(&path).expect("cache file reopens"));
    let start = Instant::now();
    for a in &archs {
        warm.evaluate(a);
    }
    let warm_wall_s = start.elapsed().as_secs_f64();
    let warm_log_hits = warm.log_hits();
    assert_eq!(
        warm_log_hits as usize,
        archs.len(),
        "a warm restart must replay every candidate from the cache file"
    );
    assert_eq!(warm.fleet_stats().spawns(), 0, "a fully warm restart never spawns a pair");
    let _ = std::fs::remove_file(&path);

    WireCacheAblation {
        plans: plan_count,
        binary_wall_s,
        batched_wall_s,
        json_bytes_per_plan: json_bytes as f64 / plan_count as f64,
        binary_bytes_per_plan: binary_bytes as f64 / plan_count as f64,
        cache_candidates: archs.len(),
        cold_wall_s,
        warm_wall_s,
        warm_log_hits,
    }
}

fn print_wire_cache_ablation(w: &WireCacheAblation) {
    header("Ablation 10 — plan wire encoding and the persistent evaluation cache");
    println!(
        "  hot-swap encoding ({} plans over one warm pair, {:.0} Mbps uplink):",
        w.plans, FLEET_UPLINK_MBPS
    );
    println!(
        "    retired JSON v1: {:>7}              ({:6.1} bytes/plan framed, size reference only)",
        "—", w.json_bytes_per_plan
    );
    println!(
        "    binary v2 swaps: {:7.1} deploys/s  ({:6.1} bytes/plan framed, {:.2}x smaller)",
        w.binary_swaps_per_s(),
        w.binary_bytes_per_plan,
        w.json_bytes_per_plan / w.binary_bytes_per_plan.max(1e-12)
    );
    println!(
        "    batched binary:  {:7.1} deploys/s  ({:.2}x vs per-plan binary round-trips)",
        w.batched_deploys_per_s(),
        w.batched_deploys_per_s() / w.binary_swaps_per_s().max(1e-12)
    );
    println!("  persistent cache ({} candidates on the live engine):", w.cache_candidates);
    println!(
        "    cold search {:7.1} ms  →  warm restart {:7.1} ms  ({} replayed from file, {:.1}x faster)",
        w.cold_wall_s * 1e3,
        w.warm_wall_s * 1e3,
        w.warm_log_hits,
        w.cold_wall_s / w.warm_wall_s.max(1e-12)
    );
}

/// Section 11 numbers: the plan-optimizer pipeline priced on the live
/// engine — optimizer on vs off over the same candidates and uplink cap.
struct OptimizerAblation {
    candidates: usize,
    on_wall_s: f64,
    off_wall_s: f64,
    on_p50_s: f64,
    off_p50_s: f64,
    on_p95_s: f64,
    off_p95_s: f64,
    on_bytes_per_plan: f64,
    off_bytes_per_plan: f64,
    ops_elided: u64,
    ops_fused: u64,
    splits_moved: u64,
    modeled_bytes_saved: u64,
}

impl OptimizerAblation {
    fn on_deploys_per_s(&self) -> f64 {
        self.candidates as f64 / self.on_wall_s.max(1e-12)
    }
    fn off_deploys_per_s(&self) -> f64 {
        self.candidates as f64 / self.off_wall_s.max(1e-12)
    }
}

/// Candidates the optimizer can visibly bite on: an `Identity` op to
/// elide, an adjacent same-side `Aggregate`+`Combine` pair per side to
/// fuse (the pair straddling the split must be left alone), and a split
/// the cost model may re-place.
fn optimizer_candidates(n: usize) -> Vec<Architecture> {
    (0..n)
        .map(|i| {
            Architecture::new(vec![
                Op::Sample(SampleFn::Knn { k: 4 + i % 3 }),
                Op::Identity,
                Op::Aggregate(AggMode::Max),
                Op::Combine { dim: 8 + 8 * (i % 4) },
                Op::Communicate,
                Op::Aggregate(AggMode::Mean),
                Op::Combine { dim: 16 },
                Op::GlobalPool(PoolMode::Max),
            ])
        })
        .collect()
}

/// Section 11 body: price the same candidate list on a warm
/// pair twice — optimizer pipeline on, then off — under
/// the [`FLEET_UPLINK_MBPS`] cap, and read the per-pass counters back.
/// The wire-size comparison is static: the same candidates lowered both
/// ways through `lower_and_optimize` and framed.
fn run_optimizer_ablation(quick: bool) -> OptimizerAblation {
    let candidates = if quick { 6 } else { 16 };
    let frames = if quick { 2 } else { 4 };
    let archs = optimizer_candidates(candidates);
    let sys = SystemConfig::tx2_to_1060(FLEET_UPLINK_MBPS);
    let ds = PointCloudDataset::generate(6, 20, 4, 47);
    let accuracy = |a: &Architecture| 0.8 + 0.001 * a.len() as f64;

    let framed =
        |plan: &ExecutionPlan| encode_frame(&Frame::SwapPlan(Box::new(plan.clone()))).len() + 4;
    let mut on_bytes = 0usize;
    let mut off_bytes = 0usize;
    for a in &archs {
        let (opt, _) = lower_and_optimize(a, &OptimizeOptions::default());
        on_bytes += framed(&opt);
        off_bytes += framed(&ExecutionPlan::from_architecture(a));
    }

    let run = |optimize: bool| {
        let backend = EngineBackend::new(ds.samples().to_vec(), 4, sys.clone(), accuracy)
            .with_frames(frames)
            .with_warmup(1)
            .with_uplink_mbps(FLEET_UPLINK_MBPS)
            .with_optimize(optimize);
        let start = Instant::now();
        for a in &archs {
            backend.evaluate(a);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let profile = backend.measured_profile();
        (wall_s, profile.p50_s, profile.p95_s, backend.optimizer_stats())
    };
    let (on_wall_s, on_p50_s, on_p95_s, stats) = run(true);
    let (off_wall_s, off_p50_s, off_p95_s, _) = run(false);

    OptimizerAblation {
        candidates,
        on_wall_s,
        off_wall_s,
        on_p50_s,
        off_p50_s,
        on_p95_s,
        off_p95_s,
        on_bytes_per_plan: on_bytes as f64 / candidates as f64,
        off_bytes_per_plan: off_bytes as f64 / candidates as f64,
        ops_elided: stats.ops_elided(),
        ops_fused: stats.ops_fused(),
        splits_moved: stats.splits_moved(),
        modeled_bytes_saved: stats.modeled_bytes_saved(),
    }
}

fn print_optimizer_ablation(o: &OptimizerAblation) {
    header("Ablation 11 — plan optimizer on/off on the live engine (10 Mbps uplink)");
    println!(
        "  optimizer on:  {:2} candidates in {:7.1} ms  ({:6.1} deploys/s)  p50 {:.3} ms  p95 {:.3} ms  ({:5.1} wire bytes/plan)",
        o.candidates,
        o.on_wall_s * 1e3,
        o.on_deploys_per_s(),
        o.on_p50_s * 1e3,
        o.on_p95_s * 1e3,
        o.on_bytes_per_plan
    );
    println!(
        "  optimizer off: {:2} candidates in {:7.1} ms  ({:6.1} deploys/s)  p50 {:.3} ms  p95 {:.3} ms  ({:5.1} wire bytes/plan)",
        o.candidates,
        o.off_wall_s * 1e3,
        o.off_deploys_per_s(),
        o.off_p50_s * 1e3,
        o.off_p95_s * 1e3,
        o.off_bytes_per_plan
    );
    println!(
        "  passes: {} ops elided, {} fused, {} splits moved, {} modeled bytes saved; p50 delta {:+.3} ms, p95 delta {:+.3} ms",
        o.ops_elided,
        o.ops_fused,
        o.splits_moved,
        o.modeled_bytes_saved,
        (o.on_p50_s - o.off_p50_s) * 1e3,
        (o.on_p95_s - o.off_p95_s) * 1e3
    );
}

/// Section 12 numbers: per-segment deadline economics of one replayed
/// [`ScenarioTrace`](gcode_core::eval::scenario::ScenarioTrace).
struct ScenarioAblation {
    /// Probed per-frame service time every rate below is derived from.
    service_p50_s: f64,
    /// The trace-wide sojourn deadline, `12.5×` the probed service time.
    deadline_s: f64,
    steady_hit_rate: f64,
    burst_hit_rate: f64,
    degraded_hit_rate: f64,
    flip_hit_rate: f64,
    /// Frame-weighted measured accuracy across every segment.
    measured_accuracy: f64,
    /// Plan hot-swaps over the whole trace (initial deploy + flip = 2).
    swap_count: u64,
    reports: Vec<gcode_core::eval::scenario::ScenarioReport>,
}

/// Section 12 body: build a four-segment trace — steady cadence, a 10×
/// arrival burst, a 10→1 Mbps uplink degrade, and a latency-constraint
/// flip onto the local design — and replay it on one warm dispatcher
/// pool over real held-out samples.
///
/// The physics are host-independent by construction: a short probe run
/// measures the warm pair's real per-frame service time `s`, then the
/// steady segment arrives every `5s` (no queueing), the burst every
/// `0.5s` (queue grows ~`0.5s` per frame), and the deadline sits at
/// `12.5s`. The burst backlog blows through the deadline within a dozen
/// frames on any machine, so its hit rate lands strictly below steady's.
fn run_scenario_ablation(quick: bool) -> ScenarioAblation {
    use gcode_core::eval::scenario::{ArrivalSpec, ScenarioSegment, ScenarioTrace};
    use gcode_core::search::ScoredArch;
    use gcode_core::zoo::RuntimeConstraint;

    let (steady_frames, burst_frames) = if quick { (16, 128) } else { (32, 256) };

    let entry = |latency_s: f64, accuracy: f64, split: bool| {
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
    };
    let zoo = ArchitectureZoo::new(vec![
        entry(0.080, 0.93, true),  // accurate co-inference design
        entry(0.010, 0.90, false), // fast local design
    ]);
    let ds = PointCloudDataset::generate(8, 24, 4, 47);
    let dispatcher = EngineDispatcher::new(zoo, WeightBank::new(4, 12));
    let mut fleet = EdgeFleet::new(FleetSpec::loopback(1), 4, 12, 34);

    // Probe the warm pair's real service time on the plan the trace
    // opens with; a 16-frame median rides out spawn-adjacent jitter.
    let (plan, _) = dispatcher.dispatch(RuntimeConstraint::none()).expect("non-empty zoo");
    let probe: Vec<Sample> =
        (0..16).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect();
    let (_, stats) = fleet.run_batch(&[plan], &probe).remove(0).expect("probe stream");
    let mut lat = stats.frame_latencies_s.clone();
    lat.sort_by(f64::total_cmp);
    let service_p50_s = lat[lat.len() / 2].max(50e-6);

    let deadline_s = 12.5 * service_p50_s;
    let steady_fps = 1.0 / (5.0 * service_p50_s);
    let trace = ScenarioTrace::new("ablation-12", 47)
        .with_segment(
            ScenarioSegment::new(
                "steady",
                0.0,
                steady_frames,
                ArrivalSpec::Periodic { fps: steady_fps },
                deadline_s,
            )
            .with_uplink_mbps(FLEET_UPLINK_MBPS),
        )
        .with_segment(ScenarioSegment::new(
            "burst-10x",
            10.0,
            burst_frames,
            ArrivalSpec::Periodic { fps: 10.0 * steady_fps },
            deadline_s,
        ))
        .with_segment(
            ScenarioSegment::new(
                "uplink-degraded",
                20.0,
                steady_frames,
                ArrivalSpec::Periodic { fps: steady_fps },
                deadline_s,
            )
            .with_uplink_mbps(1.0),
        )
        .with_segment(
            ScenarioSegment::new(
                "constraint-flip",
                30.0,
                steady_frames,
                ArrivalSpec::Periodic { fps: steady_fps },
                deadline_s,
            )
            .with_constraint(RuntimeConstraint::latency(0.020)),
        );

    let reports =
        replay_on_fleet(dispatcher.zoo(), &mut fleet, ds.samples(), &trace).expect("trace replays");
    fleet.shutdown().expect("scenario pool shuts down");

    let hit = |label: &str| {
        reports
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("segment `{label}` missing from scenario reports"))
            .deadline_hit_rate
    };
    let total_frames: u64 = reports.iter().map(|r| r.frames).sum();
    let measured_accuracy =
        reports.iter().map(|r| r.measured_accuracy * r.frames as f64).sum::<f64>()
            / total_frames.max(1) as f64;
    ScenarioAblation {
        service_p50_s,
        deadline_s,
        steady_hit_rate: hit("steady"),
        burst_hit_rate: hit("burst-10x"),
        degraded_hit_rate: hit("uplink-degraded"),
        flip_hit_rate: hit("constraint-flip"),
        measured_accuracy,
        swap_count: reports.iter().map(|r| r.swaps).sum(),
        reports,
    }
}

fn print_scenario_ablation(s: &ScenarioAblation) {
    header("Ablation 12 — scenario replay: steady → 10x burst → degraded uplink → constraint flip");
    println!(
        "  probed service p50 {:.3} ms → deadline {:.3} ms, steady {:.0} fps, burst {:.0} fps",
        s.service_p50_s * 1e3,
        s.deadline_s * 1e3,
        1.0 / (5.0 * s.service_p50_s),
        10.0 / (5.0 * s.service_p50_s)
    );
    for r in &s.reports {
        println!(
            "  [{:15}] {:3} frames  {} swap(s)  deadline hit {:5.1}%  acc {:5.1}%  p95 {:.3} ms",
            r.label,
            r.frames,
            r.swaps,
            r.deadline_hit_rate * 100.0,
            r.measured_accuracy * 100.0,
            r.p95_s * 1e3
        );
    }
    println!(
        "  burst deadline hit rate lands strictly below steady: {:.1}% < {:.1}%  ({} swaps total)",
        s.burst_hit_rate * 100.0,
        s.steady_hit_rate * 100.0,
        s.swap_count
    );
}

fn print_pool_ablation(pool: &PoolAblation) {
    header("Ablation 7 — warm edge pool: per-candidate spawn (primitives baseline) vs hot-swap");
    println!(
        "  per-candidate spawn: {:2} deployments in {:7.1} ms  ({:6.1} deploys/s)  p50 {:.3} ms",
        pool.candidates,
        pool.spawn_wall_s * 1e3,
        pool.candidates as f64 / pool.spawn_wall_s.max(1e-12),
        pool.spawn_p50_s * 1e3
    );
    println!(
        "  pooled hot-swap:     {:2} deployments in {:7.1} ms  ({:6.1} deploys/s)  p50 {:.3} ms  ({} pair spawned)",
        pool.candidates,
        pool.pooled_wall_s * 1e3,
        pool.candidates as f64 / pool.pooled_wall_s.max(1e-12),
        pool.pooled_p50_s * 1e3,
        pool.pool_spawns
    );
    println!(
        "  deployment overhead amortized: {:.2}x faster end-to-end, p50 delta {:+.3} ms",
        pool.spawn_wall_s / pool.pooled_wall_s.max(1e-12),
        (pool.pooled_p50_s - pool.spawn_p50_s) * 1e3
    );
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        // CI smoke: sections 7–12 only, tiny budgets, artifact still
        // emitted (search-mode fields zeroed).
        let pool = run_pool_ablation(4, 2, 1);
        print_pool_ablation(&pool);
        let fleet = run_fleet_ablation(true);
        print_fleet_ablation(&fleet);
        let serve = run_serve_ablation(6, 2);
        print_serve_ablation(&serve);
        let wire = run_wire_cache_ablation(true);
        print_wire_cache_ablation(&wire);
        let opt = run_optimizer_ablation(true);
        print_optimizer_ablation(&opt);
        assert!(
            opt.ops_elided > 0,
            "the quick candidates carry Identity ops the pipeline must elide"
        );
        let scen = run_scenario_ablation(true);
        print_scenario_ablation(&scen);
        assert!(
            scen.burst_hit_rate < scen.steady_hit_rate,
            "burst deadline hit rate must land strictly below steady: {:.3} vs {:.3}",
            scen.burst_hit_rate,
            scen.steady_hit_rate
        );
        write_bench(
            &EvalBench::with_pool(&pool)
                .with_fleet(&fleet)
                .with_serve(&serve)
                .with_wire(&wire)
                .with_opt(&opt)
                .with_scenario(&scen),
        );
        return;
    }
    let profile = WorkloadProfile::modelnet40();

    // ——— 1. Pipelining ———
    header("Ablation 1 — pipelined engine vs frame-serial (64-frame stream)");
    let widths = [26usize, 14, 14, 10];
    print_row(
        ["architecture", "serial fps", "pipelined fps", "gain"].map(String::from).as_ref(),
        &widths,
    );
    for b in [models::branchy_gnn(), models::dgcnn()] {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let arch = if b.arch.num_communicates() == 0 {
            models::as_edge_only(&b.arch)
        } else {
            b.arch.clone()
        };
        let serial = simulate(
            &arch,
            &profile,
            &sys,
            &SimConfig { frames: 64, pipelined: false, ..SimConfig::default() },
        );
        let piped =
            simulate(&arch, &profile, &sys, &SimConfig { frames: 64, ..SimConfig::default() });
        print_row(
            &[
                b.name.clone(),
                format!("{:8.1}", serial.fps),
                format!("{:8.1}", piped.fps),
                format!("{:5.2}x", piped.fps / serial.fps),
            ],
            &widths,
        );
    }

    // ——— 2. Compression ———
    header("Ablation 2 — link compression on/off (BRANCHY split, 10 Mbps)");
    let b = models::branchy_gnn();
    for (label, ratio) in [("zlib-like on (1.6x)", 1.6), ("off (1.0x)", 1.0)] {
        let mut sys = SystemConfig::tx2_to_i7(10.0);
        sys.link.compression_ratio = ratio;
        let r = simulate(&b.arch, &profile, &sys, &SimConfig::single_frame());
        println!(
            "  {label:<22} latency {:7.1} ms  (comm {:5.1} ms)",
            r.frame_latency_s * 1e3,
            r.comm_s * 1e3
        );
    }

    // ——— 3. λ sweep, hypervolume ———
    header("Ablation 3 — λ sweep: Pareto hypervolume of the searched zoo");
    let sys = SystemConfig::tx2_to_i7(40.0);
    let dgcnn_anchor = simulate(&models::dgcnn().arch, &profile, &sys, &SimConfig::single_frame());
    for lambda in [0.05, 0.25, 1.0] {
        let (cfg, mut objective) =
            table_search_config(dgcnn_anchor.frame_latency_s, dgcnn_anchor.device_energy_j, 13);
        objective.lambda = lambda;
        let result = run_gcode_search(profile, SurrogateTask::ModelNet40, &sys, &cfg, &objective);
        let front = front_of(&result.zoo);
        let hv = hypervolume(&front, 0.85, dgcnn_anchor.frame_latency_s);
        let best_acc = front.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        let best_lat = front.iter().map(|p| p.latency_s).fold(f64::INFINITY, f64::min);
        println!(
            "  λ={lambda:<5} front size {:2}  best acc {:5.2}%  best latency {:6.1} ms  hypervolume {hv:.5}",
            front.len(),
            best_acc * 100.0,
            best_lat * 1e3
        );
    }

    // ——— 4. Adaptive dispatch ———
    header("Ablation 4 — runtime dispatcher under a fluctuating link (40↔2 Mbps)");
    // The zoo pairs the winners of two searches run for the two link
    // regimes — the dispatcher's job is to pick per-frame between them.
    let (cfg40, obj40) =
        table_search_config(dgcnn_anchor.frame_latency_s, dgcnn_anchor.device_energy_j, 19);
    let win40 = run_gcode_search(profile, SurrogateTask::ModelNet40, &sys, &cfg40, &obj40);
    let mut congested = sys.clone();
    congested.link.bandwidth_mbps = 2.0;
    let (cfg2, obj2) =
        table_search_config(dgcnn_anchor.frame_latency_s, dgcnn_anchor.device_energy_j, 23);
    let win2 = run_gcode_search(profile, SurrogateTask::ModelNet40, &congested, &cfg2, &obj2);
    let mut entries: Vec<_> = win40.zoo.iter().take(3).cloned().collect();
    entries.extend(win2.zoo.iter().take(3).cloned());
    let zoo = ArchitectureZoo::new(entries);
    let trace = BandwidthTrace::square_wave(40.0, 2.0, 0.25, 120.0);
    let slo = 0.020;
    let adaptive = simulate_adaptive(&zoo, &profile, &sys, &trace, 64, slo, false);
    let pinned = simulate_adaptive(&zoo, &profile, &sys, &trace, 64, slo, true);
    println!(
        "  adaptive: SLO hit {:5.1}%  mean {:5.1} ms  switches {}",
        adaptive.slo_hit_rate * 100.0,
        adaptive.mean_latency_s * 1e3,
        adaptive.switches
    );
    println!(
        "  pinned:   SLO hit {:5.1}%  mean {:5.1} ms",
        pinned.slo_hit_rate * 100.0,
        pinned.mean_latency_s * 1e3
    );

    // ——— 5. Multi-fidelity cascade ———
    header("Ablation 5 — multi-fidelity search: analytic→sim cascade vs pure sim");
    let (cfg5, obj5) =
        table_search_config(dgcnn_anchor.frame_latency_s, dgcnn_anchor.device_energy_j, 29);

    let pure_start = Instant::now();
    let (pure, pure_report) =
        run_gcode_search_reported(profile, SurrogateTask::ModelNet40, &sys, &cfg5, &obj5);
    let pure_wall_s = pure_start.elapsed().as_secs_f64();
    println!(
        "  pure sim:  best score {:6.3}  sim evals {:5}  cache hit rate {:4.1}%",
        pure.best().map_or(-1.0, |b| b.score),
        pure_report.cache.misses,
        pure_report.cache.hit_rate() * 100.0
    );

    let space = DesignSpace::paper(profile);
    let s_cheap = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let cheap = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| s_cheap.overall_accuracy(a),
    };
    let s_dear = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let expensive = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| s_dear.overall_accuracy(a),
    };
    let cascade = CascadeBackend::new(&cheap, &expensive, obj5).with_keep_frac(0.25);
    let cascade_start = Instant::now();
    let mut session = SearchSession::new(&space, &cascade).with_objective(obj5);
    let result = session.run(&RandomSearch::new(cfg5));
    let cascade_wall_s = cascade_start.elapsed().as_secs_f64();
    let report = session.report(cascade.name(), &result);
    let stats = cascade.stats();
    println!(
        "  cascade:   best score {:6.3}  sim evals {:5}  (screened {} cheaply, {:4.1}% escalated)  cache hit rate {:4.1}%",
        result.best().map_or(-1.0, |b| b.score),
        stats.expensive_evals,
        stats.cheap_evals,
        stats.escalation_rate() * 100.0,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "  sim evaluations saved vs pure sim: {} of {}",
        pure_report.cache.misses.saturating_sub(stats.expensive_evals),
        pure_report.cache.misses
    );
    println!(
        "\n  cascade search report (JSON):\n  {}",
        serde_json::to_string(&report).expect("report serializes")
    );

    // ——— 6. Closing the loop: the measured tier ———
    header("Ablation 6 — fidelity ladder with the live engine: analytic→sim→engine");
    // Smaller budget: the top tier deploys real TCP pairs per candidate.
    let cfg6 = gcode_core::search::SearchConfig { iterations: 200, seed: 31, ..cfg5 };
    let (pure6, pure6_report) =
        run_gcode_search_reported(profile, SurrogateTask::ModelNet40, &sys, &cfg6, &obj5);

    let s_screen = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let screen = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| s_screen.overall_accuracy(a),
    };
    let s_mid = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let mid = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| s_mid.overall_accuracy(a),
    };
    let s_top = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let frames = PointCloudDataset::generate(8, 24, 4, 11);
    let engine = EngineBackend::new(frames.samples().to_vec(), 4, sys.clone(), move |a| {
        s_top.overall_accuracy(a)
    })
    .with_frames(4)
    .with_warmup(1)
    .with_uplink_mbps(40.0);
    let ladder =
        CascadeBackend::ladder(vec![&screen, &mid, &engine], obj5).with_keep_fracs(&[0.25, 0.5]);
    let ladder_start = Instant::now();
    let mut session6 = SearchSession::new(&space, &ladder).with_objective(obj5);
    let result6 = session6.run(&RandomSearch::new(cfg6));
    let ladder_wall_s = ladder_start.elapsed().as_secs_f64();
    let measured = engine.measured_profile();
    let report6 = session6.report(ladder.name(), &result6).with_measured(measured);
    println!(
        "  pure sim ({} iters): best score {:6.3}  sim evals {:5}",
        cfg6.iterations,
        pure6.best().map_or(-1.0, |b| b.score),
        pure6_report.cache.misses
    );
    println!(
        "  ladder:              best score {:6.3}  tier evals:",
        result6.best().map_or(-1.0, |b| b.score)
    );
    for t in ladder.tier_stats() {
        println!(
            "    {:<10} {:?} fidelity, cost {:>6.1}x → {} evals",
            t.name, t.fidelity, t.cost_hint, t.evals
        );
    }
    println!(
        "  live engine: {} measured frames  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  ({} bytes, {} errors)",
        measured.frames,
        measured.p50_s * 1e3,
        measured.p95_s * 1e3,
        measured.p99_s * 1e3,
        measured.bytes_sent,
        measured.errors
    );
    println!(
        "\n  ladder search report (JSON):\n  {}",
        serde_json::to_string(&report6).expect("report serializes")
    );

    // ——— 7. Persistent edge pool ———
    let pool = run_pool_ablation(8, 4, 1);
    print_pool_ablation(&pool);

    // ——— 8. Edge fleet ———
    // A batch wide and deep enough for scheduling to matter: 16 uniform
    // candidates at 32 paced frames each keep every pool's uplink busy,
    // and the skewed batch stresses the pull model's load balancing.
    let fleet = run_fleet_ablation(false);
    print_fleet_ablation(&fleet);
    assert!(
        fleet.uniform_speedup_4v1() >= 2.0,
        "uniform 4-pool speedup regressed below 2x: {:.2}x",
        fleet.uniform_speedup_4v1()
    );
    assert!(
        fleet.skew_speedup_4v1() >= 3.0,
        "skewed 4-pool speedup regressed below 3x: {:.2}x",
        fleet.skew_speedup_4v1()
    );

    // ——— 9. Search-as-a-service ———
    let serve = run_serve_ablation(24, 2);
    print_serve_ablation(&serve);

    // ——— 10. Wire encoding + persistent cache ———
    let wire = run_wire_cache_ablation(false);
    print_wire_cache_ablation(&wire);
    assert!(
        wire.binary_bytes_per_plan < wire.json_bytes_per_plan,
        "binary plan encoding regressed: {:.1} bytes/plan vs JSON's {:.1}",
        wire.binary_bytes_per_plan,
        wire.json_bytes_per_plan
    );
    assert!(
        wire.batched_deploys_per_s() >= 1.3 * wire.binary_swaps_per_s(),
        "batched deploys regressed below 1.3x the per-plan binary baseline: {:.1}/s vs {:.1}/s",
        wire.batched_deploys_per_s(),
        wire.binary_swaps_per_s()
    );

    // ——— 11. Plan optimizer on/off ———
    let opt = run_optimizer_ablation(false);
    print_optimizer_ablation(&opt);
    assert!(opt.ops_elided > 0, "the candidates carry Identity ops the pipeline must elide");
    assert!(
        opt.on_bytes_per_plan <= opt.off_bytes_per_plan,
        "optimized plans must never be larger on the wire: {:.1} vs {:.1} bytes/plan",
        opt.on_bytes_per_plan,
        opt.off_bytes_per_plan
    );

    // ——— 12. Scenario replay ———
    let scen = run_scenario_ablation(false);
    print_scenario_ablation(&scen);
    assert!(
        scen.burst_hit_rate < scen.steady_hit_rate,
        "burst deadline hit rate must land strictly below steady: {:.3} vs {:.3}",
        scen.burst_hit_rate,
        scen.steady_hit_rate
    );
    assert!(scen.swap_count >= 2, "the trace must deploy once and swap on the constraint flip");

    // ——— Perf artifact ———
    let tiers = ladder.tier_stats();
    write_bench(&EvalBench {
        pure_sim_wall_s: pure_wall_s,
        pure_sim_evals: pure_report.cache.misses,
        cascade_wall_s,
        cascade_sim_evals: stats.expensive_evals,
        ladder_wall_s,
        ladder_sim_evals: tiers[1].evals,
        ladder_engine_evals: tiers[2].evals,
        measured_p50_s: measured.p50_s,
        measured_p95_s: measured.p95_s,
        measured_p99_s: measured.p99_s,
        ..EvalBench::with_pool(&pool)
            .with_fleet(&fleet)
            .with_serve(&serve)
            .with_wire(&wire)
            .with_opt(&opt)
            .with_scenario(&scen)
    });
}

fn write_bench(bench: &EvalBench) {
    let json = serde_json::to_string_pretty(bench).expect("bench artifact serializes");
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("\n  perf artifact written to BENCH_eval.json");
}

/// The `BENCH_eval.json` payload: wall time and evaluation economics of
/// the three search modes, the live engine's latency percentiles, the
/// pooled-vs-spawn deployment throughput, and the fleet scaling curve.
/// Every key is documented in `docs/BENCHMARKS.md` — update both together.
#[derive(Default, serde::Serialize, serde::Deserialize)]
struct EvalBench {
    pure_sim_wall_s: f64,
    pure_sim_evals: u64,
    cascade_wall_s: f64,
    cascade_sim_evals: u64,
    ladder_wall_s: f64,
    ladder_sim_evals: u64,
    ladder_engine_evals: u64,
    measured_p50_s: f64,
    measured_p95_s: f64,
    measured_p99_s: f64,
    spawn_deploys_per_s: f64,
    pooled_deploys_per_s: f64,
    spawn_p50_s: f64,
    pooled_p50_s: f64,
    pooled_p50_delta_s: f64,
    pool_spawns: u64,
    fleet_deploys_per_s_1: f64,
    fleet_deploys_per_s_2: f64,
    fleet_deploys_per_s_4: f64,
    fleet_speedup_4v1: f64,
    fleet_skew_deploys_per_s_1: f64,
    fleet_skew_deploys_per_s_4: f64,
    fleet_skew_speedup_4v1: f64,
    fleet_warmup_s: f64,
    fleet_pool_failures: u64,
    serve_sessions_per_s: f64,
    serve_p99_time_to_winner_s_1: f64,
    serve_p99_time_to_winner_s_8: f64,
    serve_p99_time_to_winner_s_64: f64,
    swap_round_trips_per_s_binary: f64,
    swap_bytes_per_plan_json: f64,
    swap_bytes_per_plan_binary: f64,
    batched_deploys_per_s: f64,
    cold_wall_s: f64,
    warm_restart_wall_s: f64,
    opt_deploys_per_s_on: f64,
    opt_deploys_per_s_off: f64,
    opt_p50_delta_s: f64,
    opt_p95_delta_s: f64,
    opt_ops_elided: u64,
    opt_ops_fused: u64,
    opt_splits_moved: u64,
    opt_modeled_bytes_saved: u64,
    scenario_deadline_hit_rate_steady: f64,
    scenario_deadline_hit_rate_burst: f64,
    scenario_deadline_hit_rate_degraded: f64,
    scenario_deadline_hit_rate_flip: f64,
    scenario_measured_accuracy: f64,
    scenario_swap_count: u64,
}

impl EvalBench {
    /// A zeroed payload carrying only the section-7 pool numbers — the
    /// full run fills the search-mode fields on top via struct update.
    fn with_pool(pool: &PoolAblation) -> Self {
        Self {
            spawn_deploys_per_s: pool.candidates as f64 / pool.spawn_wall_s.max(1e-12),
            pooled_deploys_per_s: pool.candidates as f64 / pool.pooled_wall_s.max(1e-12),
            spawn_p50_s: pool.spawn_p50_s,
            pooled_p50_s: pool.pooled_p50_s,
            pooled_p50_delta_s: pool.pooled_p50_s - pool.spawn_p50_s,
            pool_spawns: pool.pool_spawns,
            ..Self::default()
        }
    }

    /// Folds the section-8 fleet scaling numbers in: the uniform curve,
    /// the skewed-batch speedup and the out-of-window warm cost.
    fn with_fleet(mut self, fleet: &FleetAblation) -> Self {
        let per_s = |candidates: usize, p: &FleetPoint| candidates as f64 / p.wall_s.max(1e-12);
        for p in &fleet.points {
            match p.pools {
                1 => self.fleet_deploys_per_s_1 = per_s(fleet.candidates, p),
                2 => self.fleet_deploys_per_s_2 = per_s(fleet.candidates, p),
                4 => self.fleet_deploys_per_s_4 = per_s(fleet.candidates, p),
                other => unreachable!("unexpected fleet size {other}"),
            }
        }
        self.fleet_speedup_4v1 = self.fleet_deploys_per_s_4 / self.fleet_deploys_per_s_1.max(1e-12);
        for p in &fleet.skew_points {
            match p.pools {
                1 => self.fleet_skew_deploys_per_s_1 = per_s(fleet.skew_candidates, p),
                4 => self.fleet_skew_deploys_per_s_4 = per_s(fleet.skew_candidates, p),
                other => unreachable!("unexpected skew fleet size {other}"),
            }
        }
        self.fleet_skew_speedup_4v1 =
            self.fleet_skew_deploys_per_s_4 / self.fleet_skew_deploys_per_s_1.max(1e-12);
        self.fleet_warmup_s = fleet.warmup_s;
        self.fleet_pool_failures =
            fleet.points.iter().chain(&fleet.skew_points).map(|p| p.stats.failures()).sum();
        self
    }

    /// Folds the section-9 serve numbers in: sustained throughput at the
    /// widest concurrency, p99 time-to-winner per level.
    fn with_serve(mut self, serve: &ServeAblation) -> Self {
        for p in &serve.points {
            let per_s = p.concurrency as f64 / p.wall_s.max(1e-12);
            match p.concurrency {
                1 => self.serve_p99_time_to_winner_s_1 = p.p99_time_to_winner_s,
                8 => self.serve_p99_time_to_winner_s_8 = p.p99_time_to_winner_s,
                64 => {
                    self.serve_p99_time_to_winner_s_64 = p.p99_time_to_winner_s;
                    self.serve_sessions_per_s = per_s;
                }
                other => unreachable!("unexpected serve concurrency {other}"),
            }
        }
        self
    }

    /// Folds the section-10 numbers in: swap throughput and wire bytes
    /// per encoding, batched deploy throughput, and the cold-vs-warm
    /// cache walls.
    fn with_wire(mut self, wire: &WireCacheAblation) -> Self {
        self.swap_round_trips_per_s_binary = wire.binary_swaps_per_s();
        self.swap_bytes_per_plan_json = wire.json_bytes_per_plan;
        self.swap_bytes_per_plan_binary = wire.binary_bytes_per_plan;
        self.batched_deploys_per_s = wire.batched_deploys_per_s();
        self.cold_wall_s = wire.cold_wall_s;
        self.warm_restart_wall_s = wire.warm_wall_s;
        self
    }

    /// Folds the section-11 optimizer on/off numbers in: deploy
    /// throughput per mode, latency deltas, and the per-pass counters.
    fn with_opt(mut self, opt: &OptimizerAblation) -> Self {
        self.opt_deploys_per_s_on = opt.on_deploys_per_s();
        self.opt_deploys_per_s_off = opt.off_deploys_per_s();
        self.opt_p50_delta_s = opt.on_p50_s - opt.off_p50_s;
        self.opt_p95_delta_s = opt.on_p95_s - opt.off_p95_s;
        self.opt_ops_elided = opt.ops_elided;
        self.opt_ops_fused = opt.ops_fused;
        self.opt_splits_moved = opt.splits_moved;
        self.opt_modeled_bytes_saved = opt.modeled_bytes_saved;
        self
    }

    /// Folds the section-12 scenario replay numbers in: per-segment
    /// deadline hit rates, frame-weighted measured accuracy, and the
    /// trace's total plan hot-swaps.
    fn with_scenario(mut self, scen: &ScenarioAblation) -> Self {
        self.scenario_deadline_hit_rate_steady = scen.steady_hit_rate;
        self.scenario_deadline_hit_rate_burst = scen.burst_hit_rate;
        self.scenario_deadline_hit_rate_degraded = scen.degraded_hit_rate;
        self.scenario_deadline_hit_rate_flip = scen.flip_hit_rate;
        self.scenario_measured_accuracy = scen.measured_accuracy;
        self.scenario_swap_count = scen.swap_count;
        self
    }
}
