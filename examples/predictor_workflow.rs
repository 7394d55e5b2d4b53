//! The system-performance-awareness workflow (paper Sec. 3.5): sample
//! architectures, label them with the co-inference simulator, train the
//! GIN latency predictor with enhanced node features, check its accuracy,
//! persist it, and run a strict-latency search guided by it.
//!
//! ```sh
//! cargo run --release --example predictor_workflow
//! ```

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::Objective;
use gcode::core::predictor::{
    pairwise_order_accuracy, within_bound_accuracy, LatencyPredictor, PredictorConfig,
    PredictorEvaluator,
};
use gcode::core::search::{random_search, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::hardware::SystemConfig;
use gcode::sim::{simulate, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);

    // 1. Sample + label (the paper samples 9K; 600 keeps this quick).
    println!("labelling 600 sampled architectures with the simulator…");
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let sim = SimConfig::single_frame();
    let sampler = space.sampler();
    let data: Vec<(Architecture, f64)> = (0..600)
        .map(|_| {
            let arch = sampler.sample(&mut rng);
            let lat = simulate(&arch, &profile, &sys, &sim).frame_latency_s;
            (arch, lat)
        })
        .collect();
    let (train, val) = data.split_at(450);

    // 2. Train the GIN predictor (enhanced features).
    println!("training the GIN predictor…");
    let cfg = PredictorConfig { hidden: 64, ..PredictorConfig::default() };
    let predictor = LatencyPredictor::train(cfg, profile, sys.clone(), train);

    // 3. Validate: the paper's Fig. 9 metrics.
    let preds: Vec<f64> = val.iter().map(|(a, _)| predictor.predict_s(a)).collect();
    let targets: Vec<f64> = val.iter().map(|&(_, t)| t).collect();
    println!(
        "validation: {:.1}% within ±10%, {:.1}% within ±5%, {:.1}% pairwise order",
        100.0 * within_bound_accuracy(&preds, &targets, 0.10),
        100.0 * within_bound_accuracy(&preds, &targets, 0.05),
        100.0 * pairwise_order_accuracy(&preds, &targets),
    );

    // 4. Persist + restore (deployment artifact).
    let json = predictor.to_json().expect("serializable");
    println!("predictor serializes to {} KiB", json.len() / 1024);
    let restored = LatencyPredictor::from_json(&json).expect("restores");

    // 5. Strict-latency search guided by the predictor (no simulator in
    //    the loop — the paper's fast path for hard latency constraints).
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let eval = PredictorEvaluator {
        predictor: restored,
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let cfg = SearchConfig { iterations: 800, seed: 7, ..SearchConfig::default() };
    let objective = Objective::new(0.25, 0.040, 0.5);
    let result = random_search(&space, &cfg, &objective, &eval);
    let best = result.best().expect("found under 40 ms");
    let measured = simulate(&best.arch, &profile, &sys, &sim).frame_latency_s;
    println!(
        "\npredictor-guided winner: predicted {:.1} ms, measured {:.1} ms (constraint 40 ms)",
        best.latency_s * 1e3,
        measured * 1e3,
    );
    println!("{}", best.arch.render());
}
