//! Quickstart: search a co-inference architecture for one system and look
//! at what GCoDE designed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::core::surrogate::SurrogateTask;
use gcode::engine::{FleetSpec, SearchSpec};
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use std::sync::atomic::AtomicU64;

fn main() {
    // 1. One search is one value: the system, the task (its workload
    //    profile and calibrated surrogate accuracy), the objective
    //    (λ + constraints) and the search hyper-parameters. The paper spec
    //    searches the fused design space, where Communicate is just another
    //    operation, and prices candidates on the co-inference simulator.
    let spec = SearchSpec {
        objective: Objective::new(0.25, 0.100 /* 100 ms budget */, 1.0),
        config: SearchConfig { iterations: 800, seed: 42, ..SearchConfig::default() },
        ..SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SurrogateTask::ModelNet40)
    };

    // 2. Constraint-based random search (Alg. 1 of the paper), driven
    //    through a SearchSession that batches and memoizes evaluations.
    let (report, result, _) =
        run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0)).expect("a valid spec");
    let best = result.best().expect("constraints are satisfiable");

    println!(
        "searched {} candidates ({} constraint misses, {:.0}% served from the memo cache)",
        spec.config.iterations,
        result.constraint_misses,
        report.cache.hit_rate() * 100.0
    );
    println!("\nbest architecture (score {:.3}):", best.score);
    println!("{}", best.arch.render());
    println!(
        "accuracy {:.1}%   latency {:.1} ms   device energy {:.3} J",
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j
    );
    println!("\narchitecture zoo ({} entries):", result.zoo.len());
    for (i, z) in result.zoo.iter().enumerate() {
        println!(
            "  #{i}: {:.1}% acc, {:.1} ms, {:.3} J — {}",
            z.accuracy * 100.0,
            z.latency_s * 1e3,
            z.energy_j,
            z.arch
        );
    }
}
