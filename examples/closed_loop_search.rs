//! Closing the loop: an `analytic → sim → engine` fidelity ladder whose
//! top rung deploys each escalated candidate to a real loopback TCP
//! device/edge pair and prices it on the live pipelined runtime —
//! compression, framing, pipelining and the throttled uplink all charged
//! at face value, with p50/p95/p99 per-frame latencies in the report.
//!
//! ```sh
//! cargo run --release --example closed_loop_search
//! ```

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend};
use gcode::core::eval::{Objective, SearchSession};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::engine::EngineBackend;
use gcode::graph::datasets::PointCloudDataset;
use gcode::hardware::SystemConfig;
use gcode::sim::{SimBackend, SimConfig};

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);
    let objective = Objective::new(0.25, 0.5, 3.0);

    let s1 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let analytic = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| s1.overall_accuracy(a),
    };
    let s2 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let sim = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| s2.overall_accuracy(a),
    };
    // Top rung: the live engine, streaming 4 measured frames (after one
    // warmup frame) per candidate over a 40 Mbps-throttled loopback
    // uplink. One warm device/edge pair serves the whole search — every
    // escalated candidate hot-swaps its plan in.
    let frames = PointCloudDataset::generate(8, 24, 4, 3);
    let s3 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let engine = EngineBackend::new(frames.samples().to_vec(), 4, sys.clone(), move |a| {
        s3.overall_accuracy(a)
    })
    .with_frames(4)
    .with_warmup(1)
    .with_uplink_mbps(40.0);

    let ladder = CascadeBackend::ladder(vec![&analytic, &sim, &engine], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    println!("searching through `{}` ({:?} fidelity) …", ladder.name(), ladder.fidelity());
    let cfg = SearchConfig { iterations: 200, seed: 5, ..SearchConfig::default() };
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));

    println!("\nfidelity ladder (bottom → top):");
    for t in ladder.tier_stats() {
        println!(
            "  {:<10} {:?} fidelity, cost {:>6.1}x → {:4} evals",
            t.name, t.fidelity, t.cost_hint, t.evals
        );
    }
    let measured = engine.measured_profile();
    println!(
        "live engine: {} deployments hot-swapped onto {} warm pair(s), {} measured frames, p50 {:.2} ms / p95 {:.2} ms / p99 {:.2} ms, {} bytes sent, {} errors",
        engine.deployments(),
        engine.fleet_stats().spawns(),
        measured.frames,
        measured.p50_s * 1e3,
        measured.p95_s * 1e3,
        measured.p99_s * 1e3,
        measured.bytes_sent,
        measured.errors
    );
    let report = session.report(ladder.name(), &result).with_measured(measured);
    println!(
        "\nsearch report (JSON):\n{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    let best = result.best().expect("search finds a winner");
    println!(
        "\nbest — priced on the deployed engine (score {:.3}, {:.1}% acc, {:.2} ms, {:.4} J):\n{}",
        best.score,
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j,
        best.arch.render()
    );
}
