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

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend};
use gcode::core::eval::{Objective, SearchSession};
use gcode::core::predictor::{LatencyPredictor, PredictorConfig, PredictorEvaluator};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::hardware::SystemConfig;
use gcode::sim::{simulate, SimBackend, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);
    let objective = Objective::new(0.25, 0.5, 3.0);

    // Middle rung: train the GIN latency predictor on a small sim-priced
    // seed population — the training-data pipeline inside the search loop.
    println!("training the predictor tier on 48 sim-priced samples …");
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let sampler = space.sampler();
    let data: Vec<(Architecture, f64)> = (0..48)
        .map(|_| {
            let a = sampler.sample(&mut rng);
            let lat = simulate(&a, &profile, &sys, &SimConfig::single_frame()).frame_latency_s;
            (a, lat)
        })
        .collect();
    let predictor = LatencyPredictor::train(
        PredictorConfig { hidden: 32, epochs: 60, ..PredictorConfig::default() },
        profile,
        sys.clone(),
        &data,
    );

    let s1 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let analytic = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| s1.overall_accuracy(a),
    };
    let s2 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let predicted = PredictorEvaluator {
        predictor,
        accuracy_fn: move |a: &Architecture| s2.overall_accuracy(a),
    };
    let s3 = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let sim = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| s3.overall_accuracy(a),
    };

    let ladder = CascadeBackend::ladder(vec![&analytic, &predicted, &sim], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    println!("searching through `{}` …", ladder.name());
    let cfg = SearchConfig { iterations: 600, seed: 7, ..SearchConfig::default() };
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));

    println!("\nfidelity ladder (bottom → top):");
    for t in ladder.tier_stats() {
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
