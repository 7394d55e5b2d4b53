//! End-to-end point-cloud pipeline: pretrain the one-shot supernet on a
//! synthetic ModelNet40-like dataset, search with *real* supernet accuracy,
//! then deploy the winner through the TCP co-inference engine and classify
//! a stream of point clouds.
//!
//! ```sh
//! cargo run --release --example pointcloud_pipeline
//! ```

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::Objective;
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::supernet::SuperNet;
use gcode::engine::{EdgePool, ExecutionPlan};
use gcode::graph::datasets::PointCloudDataset;
use gcode::hardware::SystemConfig;
use gcode::nn::seq::WeightBank;
use gcode::sim::{simulate, SimConfig};

fn main() {
    // Reduced-scale workload so the example runs in seconds: 64-point
    // clouds, 8 shape classes.
    let profile = WorkloadProfile::modelnet40_mini(64, 8);
    let dataset = PointCloudDataset::generate(96, 64, 8, 7);
    let (train, val) = dataset.split(0.75);
    let sys = SystemConfig::tx2_to_i7(40.0);

    // Supernet pretraining: shared weights over sampled valid paths.
    let mut space = DesignSpace::paper(profile);
    space.num_layers = 6;
    let mut supernet = SuperNet::new(space.clone(), 3);
    println!("pretraining supernet ({} weight tensors will materialize)…", 0);
    supernet.pretrain(&train, 40, 0.01);
    println!("supernet holds {} shared weight tensors", supernet.num_weights());

    // Search with real one-shot accuracy + simulated system latency. The
    // supernet needs mutable access for its forward passes, and `Evaluator`
    // is `Sync` (the session may shard batches across workers), so the
    // evaluator wraps it in a Mutex behind the shared `&self` interface.
    struct SupernetEval<'a> {
        supernet: std::sync::Mutex<&'a mut SuperNet>,
        val: &'a [gcode::graph::datasets::Sample],
        profile: WorkloadProfile,
        sys: SystemConfig,
    }
    impl gcode::core::eval::Evaluator for SupernetEval<'_> {
        fn evaluate(&self, arch: &Architecture) -> gcode::core::eval::Metrics {
            let report = simulate(arch, &self.profile, &self.sys, &SimConfig::single_frame());
            gcode::core::eval::Metrics {
                accuracy: self.supernet.lock().expect("supernet lock").accuracy(arch, self.val),
                latency_s: report.frame_latency_s,
                energy_j: report.device_energy_j,
            }
        }
    }
    let cfg = SearchConfig { iterations: 60, seed: 5, ..SearchConfig::default() };
    let objective = Objective::new(0.2, 0.2, 1.0);
    let eval =
        SupernetEval { supernet: std::sync::Mutex::new(&mut supernet), val: &val, profile, sys };
    // The supernet advances internal state on every accuracy query, so its
    // output is call-order dependent — exactly the case the SearchSession
    // docs say to run without memoization.
    let mut session = gcode::core::eval::SearchSession::new(&space, &eval)
        .with_objective(objective)
        .with_memoization(false);
    let result = session.run(&RandomSearch::new(cfg));
    let best = result.best().expect("found a deployable design");
    println!("\nsearched design (one-shot acc {:.1}%):", best.accuracy * 100.0);
    println!("{}", best.arch.render());

    // Fine-tune the winner's path, then deploy over TCP loopback.
    supernet.train_arch(&best.arch, &train, 60, 0.01);
    let trained_acc = supernet.accuracy(&best.arch, &val);
    println!("after fine-tuning: validation accuracy {:.1}%", trained_acc * 100.0);

    // NOTE: the engine shares weights by cloning the bank to both sides —
    // exactly what a real deployment would ship to the edge.
    let bank = WeightBank::new(8, 3);
    let mut warm = bank.clone();
    // Warm a fresh bank by training the deployed path (the supernet's bank
    // is private; deployment re-trains the final path from scratch).
    let specs = best.arch.lower();
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
    for _ in 0..60 {
        for s in &train {
            gcode::nn::seq::train_step(
                &specs,
                gcode::nn::seq::GraphInput { features: &s.features, graph: s.graph.as_ref() },
                s.label,
                &mut warm,
                0.01,
                &mut rng,
            );
        }
    }

    let plan = ExecutionPlan::from_architecture(&best.arch);
    println!("\ndeploying: {} device ops, {} edge ops", plan.op_counts().0, plan.op_counts().1);
    let mut pool = EdgePool::spawn(warm, 1).expect("edge up");
    pool.deploy(plan).expect("plan deployed");
    let (preds, stats) = pool.run(&val).expect("stream processed");
    pool.shutdown().expect("clean shutdown");
    let hits = preds.iter().zip(&val).filter(|&(&p, s)| p == s.label).count();
    println!(
        "engine: {} frames at {:.0} fps, {} bytes sent, stream accuracy {:.1}%",
        preds.len(),
        preds.len() as f64 / stats.wall_s,
        stats.bytes_sent,
        100.0 * hits as f64 / preds.len() as f64
    );
}
