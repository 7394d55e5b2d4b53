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

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend};
use gcode::core::eval::{Objective, SearchSession};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::engine::{EngineBackend, FleetSpec};
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
    // Top rung: the live engine, drained by four warm loopback pools.
    // On a LAN deployment the spec would name machines instead, e.g.
    // "10.0.0.7:9000,10.0.0.8:9000" — a pool per machine.
    let spec: FleetSpec = "loopback:4".parse().expect("fleet spec");
    let frames = PointCloudDataset::generate(8, 24, 4, 3);
    let s3 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let engine = EngineBackend::new(frames.samples().to_vec(), 4, sys.clone(), move |a| {
        s3.overall_accuracy(a)
    })
    .with_frames(4)
    .with_warmup(1)
    .with_uplink_mbps(40.0)
    .with_fleet(spec);

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
    let fleet = engine.fleet_stats();
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
    let measured = engine.measured_profile();
    let report = session.report(ladder.name(), &result).with_measured(measured).with_fleet(fleet);
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
