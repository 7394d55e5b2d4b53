//! Ablations beyond the paper's figures.
//! This binary records paper-ablation *facts*; how fast anything runs is
//! measured by `perf/` against `BENCHMARK.json` and nowhere else.
//!
//! 1. pipelined engine vs frame-serial execution (simulated throughput);
//! 2. transfer compression on/off (simulated latency of a split design);
//! 3. λ sweep quantified by Pareto hypervolume (Fig. 8's knob, scalarized);
//! 4. adaptive runtime dispatch vs a pinned design under a fluctuating link:
//!    a square-wave `ScenarioTrace` replayed at simulator fidelity;
//! 5. multi-fidelity search: the analytic→sim cascade vs a pure
//!    simulator-in-the-loop search — expensive evaluations saved,
//!    memo-cache effectiveness, end score;
//! 6. closing the loop: a three-tier analytic→sim→engine fidelity ladder
//!    that prices escalated candidates on the live TCP runtime — how many
//!    candidates reach each tier;
//! 8. edge fleet: the same candidate batch pulled off the shared morsel
//!    queue by 1 vs 4 loopback pools (`EdgeFleet`) under a 10 Mbps uplink
//!    cap, uniform and with a 10× per-candidate frame-count skew;
//! 12. trace-driven scenario replay: a four-segment `ScenarioTrace`
//!     (steady → 10× arrival burst → 10→1 Mbps uplink degrade →
//!     mid-stream constraint flip) replayed on one warm pool, deadlines
//!     and arrival rates derived from a probed per-frame service time.
//!
//! (7, 9 and 10 timed what `perf/` now measures with spreads and are gone,
//! and 11 counted the passes of the plan optimizer PR 24 retired;
//! `docs/BENCHMARKS.md` maps every retired key to what replaced it.)
//! [`SECTIONS`] is the one table `main` walks. A section owns the
//! `BENCH_eval.json` keys it returns, and a key is admitted by one rule: it
//! is a count, a byte size, or a ratio or ordering of two quantities taken
//! in the same run in a regime that is host-independent by construction
//! (paced sleep under the uplink cap; probe-calibrated deadlines). Only a
//! full run writes the artifact; `--quick` runs the model sections 3–5 at
//! their full budgets (they take milliseconds) and the engine-touching
//! sections at tiny budgets, all under the same asserts, and writes
//! nothing. Sections 3–6 run their searches as `SearchSpec`s through
//! `gcode_server::run_search`, except §6's three-tier ladder, whose
//! engine tier measures its own small stream.

use gcode_baselines::models;
use gcode_bench::{header, print_row, search, table_spec};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode_core::eval::scenario::{
    latency_percentiles, ArrivalSpec, ScenarioSegment, ScenarioTrace,
};
use gcode_core::eval::{Evaluator, SearchSession};
use gcode_core::op::{Op, SampleFn};
use gcode_core::pareto::{front_of, hypervolume};
use gcode_core::search::{RandomSearch, ScoredArch};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode_engine::{
    replay_on_fleet, EdgeFleet, EngineBackend, ExecutionPlan, FleetSpec, SearchSpec,
};
use gcode_graph::datasets::{PointCloudDataset, Sample};
use gcode_hardware::SystemConfig;
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use gcode_sim::{simulate, SimBackend, SimConfig, SimReport};
use std::time::Instant;

/// One `BENCH_eval.json` entry (counts are exact in an `f64` at any budget
/// this binary runs).
type Key = (&'static str, f64);

/// One ablation: what `main` prints above it, the artifact keys it owns,
/// and the function that runs it and returns them.
struct Section {
    id: u8,
    title: &'static str,
    /// In artifact order; each is a row of `docs/BENCHMARKS.md`.
    keys: &'static [&'static str],
    /// Whether `--quick` runs it too (`run` gets the flag and shrinks its
    /// budgets).
    quick: bool,
    run: fn(bool) -> Vec<Key>,
}

const SECTIONS: &[Section] = &[
    Section {
        id: 1,
        title: "pipelined engine vs frame-serial (64-frame stream)",
        keys: &[],
        quick: false,
        run: pipelining,
    },
    Section {
        id: 2,
        title: "link compression on/off (BRANCHY split, 10 Mbps)",
        keys: &[],
        quick: false,
        run: compression,
    },
    Section {
        id: 3,
        title: "λ sweep: Pareto hypervolume of the searched zoo",
        keys: &[],
        quick: true,
        run: lambda_sweep,
    },
    Section {
        id: 4,
        title: "runtime dispatcher: simulated scenario replay on a 40↔2 Mbps square wave",
        keys: &[],
        quick: true,
        run: adaptive_dispatch,
    },
    Section {
        id: 5,
        title: "multi-fidelity search: analytic→sim cascade vs pure sim",
        keys: &["pure_sim_evals", "cascade_sim_evals"],
        quick: true,
        run: cascade,
    },
    Section {
        id: 6,
        title: "fidelity ladder with the live engine: analytic→sim→engine",
        keys: &["ladder_sim_evals", "ladder_engine_evals"],
        quick: false,
        run: ladder,
    },
    Section {
        id: 8,
        title: "edge fleet: 4 pools vs 1 on the same batch (10 Mbps uplink)",
        keys: &["fleet_speedup_4v1", "fleet_skew_speedup_4v1", "fleet_pool_failures"],
        quick: true,
        run: fleet,
    },
    Section {
        id: 12,
        title: "scenario replay: steady → 10x burst → degraded uplink → constraint flip",
        keys: &[
            "scenario_deadline_hit_rate_steady",
            "scenario_deadline_hit_rate_burst",
            "scenario_deadline_hit_rate_degraded",
            "scenario_deadline_hit_rate_flip",
            "scenario_measured_accuracy",
            "scenario_swap_count",
        ],
        quick: true,
        run: scenario,
    },
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut artifact: Vec<Key> = Vec::new();
    for section in SECTIONS.iter().filter(|s| s.quick || !quick) {
        header(&format!("Ablation {} — {}", section.id, section.title));
        let keys = (section.run)(quick);
        assert!(
            keys.iter().map(|(name, _)| name).eq(section.keys),
            "section {} must return exactly the keys the table says it owns",
            section.id
        );
        assert!(keys.iter().all(|(_, v)| v.is_finite()), "section {}: {keys:?}", section.id);
        artifact.extend(keys);
    }
    if quick {
        // A smoke's tiny budgets never reach the committed artifact.
        return;
    }
    let rows: Vec<String> = artifact.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    std::fs::write("BENCH_eval.json", format!("{{\n{}\n}}\n", rows.join(",\n")))
        .expect("write BENCH_eval.json");
    println!("\n  artifact written to BENCH_eval.json");
}

/// The spec sections 3–6 search at `seed` — TX2 device, i7 edge, 40 Mbps,
/// the tables' budget — with the device-only DGCNN run that anchors its
/// constraints.
fn anchored_spec(seed: u64) -> (SearchSpec, SimReport) {
    let sys = SystemConfig::tx2_to_i7(40.0);
    let profile = WorkloadProfile::modelnet40();
    let anchor = simulate(&models::dgcnn().arch, &profile, &sys, &SimConfig::single_frame());
    let (latency_s, energy_j) = (anchor.frame_latency_s, anchor.device_energy_j);
    (table_spec(sys, SurrogateTask::ModelNet40, latency_s, energy_j, seed), anchor)
}

fn pipelining(_quick: bool) -> Vec<Key> {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let widths = [26usize, 14, 14, 10];
    print_row(
        ["architecture", "serial fps", "pipelined fps", "gain"].map(String::from).as_ref(),
        &widths,
    );
    for b in [models::branchy_gnn(), models::dgcnn()] {
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
    Vec::new()
}

fn compression(_quick: bool) -> Vec<Key> {
    let profile = WorkloadProfile::modelnet40();
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
    Vec::new()
}

fn lambda_sweep(_quick: bool) -> Vec<Key> {
    let (mut spec, anchor) = anchored_spec(13);
    for lambda in [0.05, 0.25, 1.0] {
        spec.objective.lambda = lambda;
        let (_, result, _) = search(&spec);
        let front = front_of(&result.zoo);
        let hv = hypervolume(&front, 0.85, anchor.frame_latency_s);
        let best_acc = front.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        let best_lat = front.iter().map(|p| p.latency_s).fold(f64::INFINITY, f64::min);
        println!(
            "  λ={lambda:<5} front size {:2}  best acc {:5.2}%  best latency {:6.1} ms  hypervolume {hv:.5}",
            front.len(),
            best_acc * 100.0,
            best_lat * 1e3
        );
    }
    Vec::new()
}

fn adaptive_dispatch(_quick: bool) -> Vec<Key> {
    // The zoo pairs the winners of two searches run for the two link
    // regimes — the dispatcher's job is to pick per segment between them.
    let (spec40, _) = anchored_spec(19);
    let (_, win40, _) = search(&spec40);
    let (mut spec2, _) = anchored_spec(23);
    spec2.system.link.bandwidth_mbps = 2.0;
    let (_, win2, _) = search(&spec2);
    let (profile, sys) = (spec40.profile, spec40.system);
    let mut entries: Vec<_> = win40.zoo.iter().take(3).cloned().collect();
    entries.extend(win2.zoo.iter().take(3).cloned());
    let adaptive = ArchitectureZoo::new(entries);
    // "Pinned" is the same replay with nothing to switch to.
    let pinned = ArchitectureZoo::new(vec![adaptive.entries()[0].clone()]);
    // A square wave: 8 segments of 8 frames at 10 fps, alternating 40 and
    // 2 Mbps, all judged against the SLO the first segment sets.
    let slo = 0.020;
    let trace = (0..8).fold(ScenarioTrace::new("ablation-4", 4), |trace, i| {
        let seg = ScenarioSegment::new(
            format!("seg-{i}"),
            f64::from(i) * 0.8,
            8,
            ArrivalSpec::Periodic { fps: 10.0 },
            slo,
        )
        .with_uplink_mbps(if i % 2 == 0 { 40.0 } else { 2.0 });
        trace.with_segment(if i == 0 {
            seg.with_constraint(RuntimeConstraint::latency(slo))
        } else {
            seg
        })
    });
    // Per-trace deadline hit rate, and the swaps after the first deploy.
    let replay = |name: &str, zoo: &ArchitectureZoo| {
        let reports = gcode_sim::replay(&trace, zoo, &profile, &sys).expect("valid trace");
        let frames: u64 = reports.iter().map(|r| r.frames).sum();
        let hit_rate = 1.0 - reports.iter().map(|r| r.drops).sum::<u64>() as f64 / frames as f64;
        let swaps: Vec<u64> = reports.iter().map(|r| r.swaps).collect();
        println!("  {name:<9} deadline hit {:5.1}%  swaps {swaps:?}", hit_rate * 100.0);
        (hit_rate, swaps[1..].iter().sum::<u64>())
    };
    let (adaptive_hit, adaptive_reswaps) = replay("adaptive", &adaptive);
    let (pinned_hit, _) = replay("pinned", &pinned);
    assert!(adaptive_hit >= pinned_hit, "adaptive {adaptive_hit} vs pinned {pinned_hit}");
    assert!(adaptive_reswaps > 0, "the link swing must move the dispatcher off its first pick");
    Vec::new()
}

fn cascade(_quick: bool) -> Vec<Key> {
    let (spec, _) = anchored_spec(29);
    let (pure_report, pure, _) = search(&spec);
    println!(
        "  pure sim:  best score {:6.3}  sim evals {:5}  cache hit rate {:4.1}%",
        pure.best().map_or(-1.0, |b| b.score),
        pure_report.cache.misses,
        pure_report.cache.hit_rate() * 100.0
    );

    let ladder = SearchSpec { tiers: vec![Fidelity::Analytic, Fidelity::Simulated], ..spec };
    let (report, result, tiers) = search(&ladder);
    let (cheap_evals, sim_evals) = (tiers[0].evals, tiers[1].evals);
    println!(
        "  cascade:   best score {:6.3}  sim evals {:5}  (screened {} cheaply, {:4.1}% escalated)  cache hit rate {:4.1}%",
        result.best().map_or(-1.0, |b| b.score),
        sim_evals,
        cheap_evals,
        sim_evals as f64 / cheap_evals.max(1) as f64 * 100.0,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "  sim evaluations saved vs pure sim: {} of {}",
        pure_report.cache.misses.saturating_sub(sim_evals),
        pure_report.cache.misses
    );
    println!(
        "\n  cascade search report (JSON):\n  {}",
        serde_json::to_string(&report).expect("report serializes")
    );
    vec![
        ("pure_sim_evals", pure_report.cache.misses as f64),
        ("cascade_sim_evals", sim_evals as f64),
    ]
}

fn ladder(_quick: bool) -> Vec<Key> {
    let (mut spec, _) = anchored_spec(29);
    // Smaller budget: the top tier deploys on real TCP pairs.
    spec.config.iterations = 200;
    spec.config.seed = 31;
    let (pure_report, pure, _) = search(&spec);

    let (profile, sys, objective, cfg) = (spec.profile, &spec.system, spec.objective, spec.config);
    let space = DesignSpace::paper(profile);
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let accuracy = move |a: &Architecture| surrogate.overall_accuracy(a);
    let screen = AnalyticBackend { profile, sys: sys.clone(), accuracy_fn: accuracy };
    let sim = SimConfig::single_frame();
    let mid = SimBackend { profile, sys: sys.clone(), sim, accuracy_fn: accuracy };
    let frames = PointCloudDataset::generate(8, 24, 4, 11);
    let engine = EngineBackend::new(frames.samples().to_vec(), 4, sys.clone(), accuracy)
        .with_frames(4)
        .with_warmup(1)
        .with_uplink_mbps(40.0);
    let ladder = CascadeBackend::ladder(vec![&screen, &mid, &engine], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));
    let measured = engine.measured_profile();
    let report = session.report(ladder.name(), &result).with_measured(measured);
    println!(
        "  pure sim ({} iters): best score {:6.3}  sim evals {:5}",
        cfg.iterations,
        pure.best().map_or(-1.0, |b| b.score),
        pure_report.cache.misses
    );
    println!(
        "  ladder:              best score {:6.3}  tier evals:",
        result.best().map_or(-1.0, |b| b.score)
    );
    let tiers = ladder.tier_stats();
    for t in &tiers {
        println!(
            "    {:<10} {:?} fidelity, cost {:>6.1}x → {} evals",
            t.name, t.fidelity, t.cost_hint, t.evals
        );
    }
    println!(
        "  live engine: {} measured frames, {} bytes, {} errors",
        measured.frames, measured.bytes_sent, measured.errors
    );
    println!(
        "\n  ladder search report (JSON):\n  {}",
        serde_json::to_string(&report).expect("report serializes")
    );
    vec![
        ("ladder_sim_evals", tiers[1].evals as f64),
        ("ladder_engine_evals", tiers[2].evals as f64),
    ]
}

/// The router uplink cap sections 8 and 12 measure under, in Mbit/s —
/// the paper's constrained-bandwidth regime. Under the cap a candidate's
/// wall is dominated by paced transfer time (sleep, not compute), which
/// is exactly the work N pools can overlap; unthrottled loopback pools
/// on a small host measure core count, not scheduling.
const UPLINK_MBPS: f64 = 10.0;

/// Distinct split candidates, so nothing on the fleet's path memoizes.
fn fleet_candidates(n: usize) -> Vec<Architecture> {
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

/// Section 8: one uniform candidate batch through `EngineBackend` fleets
/// of 1 and 4 loopback pools under the [`UPLINK_MBPS`] cap, then a skewed
/// batch (per-candidate frame counts varying 10×, heavy streams last)
/// straight through `EdgeFleet::run_batch_streams`. Distinct candidates
/// and identical seeding mean both fleet sizes measure exactly the same
/// paced work in the same run — only the pool count changes, so the ratio
/// of the two walls is the one timing this binary keeps. Spawning pools is
/// setup, not scaling: every fleet is warmed before its clock starts.
fn fleet(quick: bool) -> Vec<Key> {
    let (candidates, frames) = if quick { (8, 24) } else { (16, 128) };
    let (lights, heavies, light_frames) = if quick { (6, 4, 8) } else { (12, 12, 10) };
    let sys = SystemConfig::tx2_to_i7(40.0);
    let ds = PointCloudDataset::generate(6, 20, 4, 47);
    let accuracy = |a: &Architecture| 0.8 + 0.001 * a.len() as f64;
    let mut failures = 0;

    let archs = fleet_candidates(candidates);
    let uniform_walls = [1usize, 4].map(|pools| {
        let backend = EngineBackend::new(ds.samples().to_vec(), 4, sys.clone(), accuracy)
            .with_frames(frames)
            .with_uplink_mbps(UPLINK_MBPS)
            .with_fleet(FleetSpec::loopback(pools));
        // A pools-sized slice spawns every pool (the fleet never spawns
        // more pools than pending candidates).
        backend.evaluate_batch(&archs[..pools]);
        let start = Instant::now();
        backend.evaluate_batch(&archs);
        let wall_s = start.elapsed().as_secs_f64();
        failures += backend.fleet_stats().failures();
        wall_s
    });

    // Light candidates first, 10×-heavier streams last — the shape that
    // starves a static contiguous shard (one tail shard inherits every
    // heavy) and that the pull model balances by construction, each pool
    // grabbing the next candidate as it frees up.
    let skew_total = lights + heavies;
    let plans: Vec<ExecutionPlan> =
        fleet_candidates(skew_total).iter().map(ExecutionPlan::from_architecture).collect();
    let streams_owned: Vec<Vec<Sample>> = (0..skew_total)
        .map(|i| {
            let frames = if i < lights { light_frames } else { 10 * light_frames };
            (0..frames).map(|f| ds.samples()[f % ds.samples().len()].clone()).collect()
        })
        .collect();
    let streams: Vec<&[Sample]> = streams_owned.iter().map(Vec::as_slice).collect();
    let skew_walls = [1usize, 4].map(|pools| {
        let fleet =
            EdgeFleet::new(FleetSpec::loopback(pools), 4, 71, 23).with_uplink_mbps(UPLINK_MBPS);
        let warmed = fleet.run_batch_streams(&plans[..pools], &streams[..pools]);
        assert!(warmed.iter().all(Result::is_ok), "skew warm pass deploys");
        let start = Instant::now();
        let outcomes = fleet.run_batch_streams(&plans, &streams);
        let wall_s = start.elapsed().as_secs_f64();
        assert!(outcomes.iter().all(Result::is_ok), "skewed batch deploys");
        failures += fleet.stats().failures();
        fleet.shutdown().expect("clean fleet shutdown");
        wall_s
    });

    let speedup_4v1 = |label: &str, [one, four]: [f64; 2]| {
        let speedup = one / four.max(1e-12);
        println!(
            "  {label}: 1 pool {:7.1} ms, 4 pools {:7.1} ms  ({speedup:4.2}x)",
            one * 1e3,
            four * 1e3
        );
        speedup
    };
    let uniform = speedup_4v1(&format!("uniform batch of {candidates}"), uniform_walls);
    let skew = speedup_4v1(&format!("10x-skewed batch of {skew_total}"), skew_walls);
    println!("  pool failures across all four fleets: {failures}");
    if quick {
        assert!(skew >= 1.5, "skewed 4-pool speedup regressed below 1.5x: {skew:.2}x");
    } else {
        assert!(uniform >= 2.0, "uniform 4-pool speedup regressed below 2x: {uniform:.2}x");
        assert!(skew >= 3.0, "skewed 4-pool speedup regressed below 3x: {skew:.2}x");
    }
    vec![
        ("fleet_speedup_4v1", uniform),
        ("fleet_skew_speedup_4v1", skew),
        ("fleet_pool_failures", failures as f64),
    ]
}

/// Section 12: a four-segment trace — steady cadence, a 10× arrival
/// burst, a 10→1 Mbps uplink degrade, and a latency-constraint flip onto
/// the local design — replayed on one warm pool over held-out samples.
///
/// The physics are host-independent by construction: a short probe run
/// measures the warm pair's real per-frame service time `s`, then the
/// steady segment arrives every `5s` (no queueing), the burst every
/// `0.5s` (queue grows ~`0.5s` per frame), and the deadline sits at
/// `12.5s`. The burst backlog blows through the deadline within a dozen
/// frames on any machine, so its hit rate lands strictly below steady's.
fn scenario(quick: bool) -> Vec<Key> {
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
    let mut fleet = EdgeFleet::new(FleetSpec::loopback(1), 4, 12, 34);

    // Probe the warm pair's real service time on the plan the trace
    // opens with; a 16-frame median rides out spawn-adjacent jitter.
    let pick = zoo.dispatch(RuntimeConstraint::none()).expect("non-empty zoo");
    let plan = ExecutionPlan::from_architecture(&pick.arch);
    let probe: Vec<Sample> =
        (0..16).map(|i| ds.samples()[i % ds.samples().len()].clone()).collect();
    let (_, stats) = fleet.run_batch(&[plan], &probe).remove(0).expect("probe stream");
    let service_p50_s = latency_percentiles(&stats.frame_latencies_s).0.max(50e-6);

    let deadline_s = 12.5 * service_p50_s;
    let steady_fps = 1.0 / (5.0 * service_p50_s);
    let segment = |label: &str, start_s: f64, frames: usize, fps: f64| {
        ScenarioSegment::new(label, start_s, frames, ArrivalSpec::Periodic { fps }, deadline_s)
    };
    let trace = ScenarioTrace::new("ablation-12", 47)
        .with_segment(
            segment("steady", 0.0, steady_frames, steady_fps).with_uplink_mbps(UPLINK_MBPS),
        )
        .with_segment(segment("burst-10x", 10.0, burst_frames, 10.0 * steady_fps))
        .with_segment(
            segment("uplink-degraded", 20.0, steady_frames, steady_fps).with_uplink_mbps(1.0),
        )
        .with_segment(
            segment("constraint-flip", 30.0, steady_frames, steady_fps)
                .with_constraint(RuntimeConstraint::latency(0.020)),
        );
    let reports = replay_on_fleet(&zoo, &mut fleet, ds.samples(), &trace).expect("trace replays");
    fleet.shutdown().expect("scenario pool shuts down");

    println!(
        "  probed service p50 {:.3} ms → deadline {:.3} ms, steady {:.0} fps, burst {:.0} fps",
        service_p50_s * 1e3,
        deadline_s * 1e3,
        steady_fps,
        10.0 * steady_fps
    );
    for r in &reports {
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
    let swap_count: u64 = reports.iter().map(|r| r.swaps).sum();
    let (steady, burst) = (hit("steady"), hit("burst-10x"));
    assert!(
        burst < steady,
        "burst deadline hit rate must land strictly below steady: {burst:.3} vs {steady:.3}"
    );
    assert!((0.0..=1.0).contains(&measured_accuracy), "accuracy is a rate: {measured_accuracy}");
    assert!(swap_count >= 2, "the trace must deploy once and swap on the constraint flip");
    vec![
        ("scenario_deadline_hit_rate_steady", steady),
        ("scenario_deadline_hit_rate_burst", burst),
        ("scenario_deadline_hit_rate_degraded", hit("uplink-degraded")),
        ("scenario_deadline_hit_rate_flip", hit("constraint-flip")),
        ("scenario_measured_accuracy", measured_accuracy),
        ("scenario_swap_count", swap_count as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::SECTIONS;

    /// The section table, the committed artifact and the docs name the same
    /// keys, and the artifact is a full run's: adding a key to a section
    /// without its `docs/BENCHMARKS.md` row and a regenerated
    /// `BENCH_eval.json` fails here, as does committing a smoke's numbers.
    #[test]
    fn table_artifact_and_docs_agree() {
        // `main` writes one `"key": number` row per line between the braces.
        let artifact: Vec<(&str, f64)> = include_str!("../../../../BENCH_eval.json")
            .lines()
            .filter_map(|row| row.trim().trim_end_matches(',').split_once(": "))
            .map(|(key, value)| (key.trim_matches('"'), value.parse().expect("a number")))
            .collect();
        let docs = include_str!("../../../../docs/BENCHMARKS.md");
        let table: Vec<&str> = SECTIONS.iter().flat_map(|s| s.keys).copied().collect();
        let in_file: Vec<&str> = artifact.iter().map(|(key, _)| *key).collect();
        assert_eq!(in_file, table, "BENCH_eval.json keys, in table order");
        for key in &table {
            assert!(
                docs.contains(&format!("| `{key}` |")),
                "docs/BENCHMARKS.md has no `{key}` row"
            );
        }

        let value = |key: &str| artifact.iter().find(|(k, _)| *k == key).expect("checked above").1;
        for count in
            ["pure_sim_evals", "cascade_sim_evals", "ladder_sim_evals", "ladder_engine_evals"]
        {
            assert!(value(count) > 0.0, "{count} is zero: not a full run");
        }
        assert!(value("fleet_speedup_4v1") >= 2.0, "not a full run's uniform speed-up");
        assert!(value("fleet_skew_speedup_4v1") >= 3.0, "not a full run's skewed speed-up");
        assert!(value("scenario_swap_count") >= 2.0, "the trace never swapped on its flip");
    }
}
