//! Fleet measurement: the Measured tier of an
//! `analytic → sim → engine` ladder served by an `EdgeFleet` of
//! warm loopback pools. Each escalated batch becomes a shared morsel
//! queue of candidates that the pools drain concurrently, fast pools
//! pulling more work as they free up — predictions are bit-identical
//! for any pool count, so the fleet only changes wall-clock time,
//! never results.
//!
//! ```sh
//! cargo run --release --example fleet_search
//! ```

use gcode::core::eval::backend::Fidelity;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{FleetSpec, SearchSpec, SessionTask};
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use std::sync::atomic::AtomicU64;

fn main() {
    let spec = SearchSpec {
        tiers: vec![Fidelity::Analytic, Fidelity::Simulated, Fidelity::Measured],
        keep_fracs: vec![0.25, 0.5],
        frames: 4,
        warmup: 1,
        objective: Objective::new(0.25, 0.5, 3.0),
        config: SearchConfig { iterations: 200, seed: 5, ..SearchConfig::default() },
        ..SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SessionTask::ModelNet40)
    };
    // The top rung is drained by four warm loopback pools. On a LAN
    // deployment the fleet would name machines instead, e.g.
    // "10.0.0.7:9000,10.0.0.8:9000" — a pool per machine.
    let fleet: FleetSpec = "loopback:4".parse().expect("fleet spec");
    println!("searching through {:?} on {fleet} …", spec.tiers);
    let (report, result, ladder) =
        run_search(&spec, &fleet, None, &AtomicU64::new(0)).expect("a valid ladder");

    println!("\nfidelity ladder (bottom → top):");
    for t in &ladder {
        println!(
            "  {:<10} {:?} fidelity, cost {:>6.1}x → {:4} evals",
            t.name, t.fidelity, t.cost_hint, t.evals
        );
    }
    let fleet = report.fleet.as_ref().expect("the engine tier ran on the fleet");
    println!(
        "edge fleet: {} pools, {} deployments, {} failures, {} requeued",
        fleet.pools.len(),
        fleet.deployments(),
        fleet.failures(),
        fleet.resharded
    );
    for p in &fleet.pools {
        println!(
            "  {:<10} {:>3} deployments over {} spawn(s)",
            p.endpoint, p.deployments, p.spawns
        );
    }
    println!(
        "\nsearch report (JSON):\n{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    let best = result.best().expect("search finds a winner");
    println!(
        "\nbest — priced on the deployed fleet (score {:.3}, {:.1}% acc, {:.2} ms, {:.4} J):\n{}",
        best.score,
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j,
        best.arch.render()
    );
}
