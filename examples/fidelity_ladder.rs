//! Three-rung fidelity ladder with a trained middle tier:
//! `analytic → predictor → sim`.
//!
//! The bottom rung screens every batch with the LUT cost model, the GIN
//! latency predictor re-ranks the promising quarter, and the discrete-event
//! simulator prices half of those — with the batch winner always
//! escalated to simulator fidelity (honest-winner escalation).
//!
//! ```sh
//! cargo run --release --example fidelity_ladder
//! ```

use gcode::core::eval::backend::Fidelity;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::core::surrogate::SurrogateTask;
use gcode::engine::{FleetSpec, SearchSpec};
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use std::sync::atomic::AtomicU64;

fn main() {
    // Middle rung: `run_search` trains the GIN latency predictor on 48
    // sim-priced samples drawn from the spec's seed before the search
    // starts — the training-data pipeline inside the search loop.
    let spec = SearchSpec {
        tiers: vec![Fidelity::Analytic, Fidelity::Predicted, Fidelity::Simulated],
        keep_fracs: vec![0.25, 0.5],
        objective: Objective::new(0.25, 0.5, 3.0),
        config: SearchConfig { iterations: 600, seed: 7, ..SearchConfig::default() },
        ..SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SurrogateTask::ModelNet40)
    };
    println!("searching through {:?} …", spec.tiers);
    let (_, result, ladder) =
        run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0)).expect("a valid ladder");

    println!("\nfidelity ladder (bottom → top):");
    for t in ladder {
        println!(
            "  {:<10} {:?} fidelity, cost {:>5.1}x, keep {:4.2} → {:4} evals",
            t.name, t.fidelity, t.cost_hint, t.keep_frac, t.evals
        );
    }
    let best = result.best().expect("search finds a winner");
    println!(
        "\nbest (score {:.3}, {:.1}% acc, {:.1} ms, {:.3} J):\n{}",
        best.score,
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j,
        best.arch.render()
    );
}
