//! Runtime dispatching from the architecture zoo: one search produces a zoo
//! of optima; as runtime constraints fluctuate (battery sag, latency SLO
//! changes, congested link), the dispatcher swaps the deployed design —
//! and on a one-pool `EdgeFleet` the swap happens *live* on a warm TCP
//! pair via one `SwapPlan` control frame (no redeploy, no weight transfer:
//! every zoo member shares the supernet `WeightBank`).
//!
//! ```sh
//! cargo run --release --example runtime_dispatcher
//! ```

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::scenario::latency_percentiles;
use gcode::core::eval::Objective;
use gcode::core::search::{random_search, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode::engine::{EdgeFleet, ExecutionPlan, FleetSpec};
use gcode::graph::datasets::PointCloudDataset;
use gcode::hardware::SystemConfig;
use gcode::sim::{SimBackend, SimConfig};

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::pi_to_1060(40.0);
    let space = DesignSpace::paper(profile);
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let eval = SimBackend {
        profile,
        sys,
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let cfg = SearchConfig { iterations: 1200, zoo_size: 10, seed: 31, ..SearchConfig::default() };
    let objective = Objective::new(0.15, 0.3, 1.5);
    // One search, many optima: the zoo is free (paper Sec. 3.6).
    let result = random_search(&space, &cfg, &objective, &eval);
    let zoo = ArchitectureZoo::new(result.zoo);
    println!("architecture zoo after a single search ({} entries):", zoo.len());
    for z in zoo.entries() {
        println!(
            "  {:.1}% acc  {:6.1} ms  {:.3} J  — {}",
            z.accuracy * 100.0,
            z.latency_s * 1e3,
            z.energy_j,
            z.arch
        );
    }

    // The runtime dispatcher reacts to changing conditions.
    let scenarios = [
        ("idle dock, accuracy first", RuntimeConstraint::none()),
        ("interactive use: 40 ms SLO", RuntimeConstraint::latency(0.040)),
        ("battery saver: 0.06 J/frame", RuntimeConstraint::energy(0.06)),
        ("both tight", RuntimeConstraint { max_latency_s: Some(0.025), max_energy_j: Some(0.05) }),
    ];
    println!("\ndispatcher decisions:");
    for (label, constraint) in &scenarios {
        match zoo.dispatch(*constraint) {
            Some(pick) => println!(
                "  {label:<28} -> {:.1}% acc, {:.1} ms, {:.3} J",
                pick.accuracy * 100.0,
                pick.latency_s * 1e3,
                pick.energy_j
            ),
            None => println!("  {label:<28} -> zoo empty"),
        }
    }

    // The zoo serializes for deployment next to the engine binaries.
    let json = zoo.to_json().expect("serializable");
    println!("\nzoo serializes to {} bytes of JSON for deployment", json.len());

    // Now do it live: one persistent device/edge pair, and every
    // constraint switch hot-swaps the deployed plan in place.
    // Every zoo member shares the fleet's supernet bank: 4 classes, seed 7.
    let fleet = EdgeFleet::new(FleetSpec::loopback(1), 4, 7, 7);
    let frames = PointCloudDataset::generate(4, 24, 4, 3);
    println!("\nlive hot-swaps on one warm pair:");
    for (label, constraint) in &scenarios {
        let Some(pick) = zoo.dispatch(*constraint) else {
            continue;
        };
        let plan = ExecutionPlan::from_architecture(&pick.arch);
        let (_, stats) = fleet.run_batch(&[plan], frames.samples()).remove(0).expect("stream");
        let (p50_s, _, _) = latency_percentiles(&stats.frame_latencies_s);
        println!(
            "  {label:<28} -> {:.1}% acc promised, measured p50 {:.2} ms, {} bytes shipped",
            pick.accuracy * 100.0,
            p50_s * 1e3,
            stats.bytes_sent
        );
    }
    let served = fleet.stats();
    println!(
        "{} constraint switches served by {} edge process ({} plan swaps, 0 redeployments)",
        scenarios.len(),
        served.spawns(),
        served.deployments()
    );
    fleet.shutdown().expect("clean shutdown");
}
