//! Closing the loop: an `analytic → sim → engine` fidelity ladder whose
//! top rung deploys each escalated candidate to a real loopback TCP
//! device/edge pair and prices it on the live pipelined runtime —
//! compression, framing, pipelining and the throttled uplink all charged
//! at face value, with p50/p95/p99 per-frame latencies in the report.
//! The search is one `SearchSpec`, so the engine streams frames of the
//! very profile the tiers below it price.
//!
//! ```sh
//! cargo run --release --example closed_loop_search
//! ```

use gcode::core::eval::backend::Fidelity;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{FleetSpec, SearchSpec, SessionTask};
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use std::sync::atomic::AtomicU64;

fn main() {
    // Top rung: the live engine, streaming 4 measured frames (after one
    // warmup frame) of 1024-point clouds per candidate over a 40 Mbps-
    // throttled loopback uplink. One warm device/edge pair serves the whole
    // search — every escalated candidate hot-swaps its plan in.
    let spec = SearchSpec {
        tiers: vec![Fidelity::Analytic, Fidelity::Simulated, Fidelity::Measured],
        keep_fracs: vec![0.25, 0.5],
        frames: 4,
        warmup: 1,
        objective: Objective::new(0.25, 0.5, 3.0),
        config: SearchConfig { iterations: 200, seed: 5, ..SearchConfig::default() },
        ..SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SessionTask::ModelNet40)
    };
    println!("searching through {:?} …", spec.tiers);
    let (report, result, ladder) =
        run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0)).expect("a valid ladder");

    println!("\nfidelity ladder (bottom → top):");
    for t in &ladder {
        println!(
            "  {:<10} {:?} fidelity, cost {:>6.1}x → {:4} evals",
            t.name, t.fidelity, t.cost_hint, t.evals
        );
    }
    let (measured, fleet) =
        (report.measured.expect("engine ran"), report.fleet.as_ref().expect("fleet"));
    println!(
        "live engine: {} deployments hot-swapped onto {} warm pair(s), {} measured frames, p50 {:.2} ms / p95 {:.2} ms / p99 {:.2} ms, {} bytes sent, {} errors",
        measured.deployed,
        fleet.spawns(),
        measured.frames,
        measured.p50_s * 1e3,
        measured.p95_s * 1e3,
        measured.p99_s * 1e3,
        measured.bytes_sent,
        measured.errors
    );
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
