//! Cross-crate integration: search a design, train its path, deploy it
//! through the TCP engine, and verify the deployed pipeline agrees with
//! local execution.

mod common;

use common::run_fresh;
use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::Objective;
use gcode::core::op::{Op, SampleFn};
use gcode::core::search::{random_search, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::engine::ExecutionPlan;
use gcode::graph::datasets::PointCloudDataset;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::{forward, GraphInput, WeightBank};
use gcode::sim::{SimBackend, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn searched_design_deploys_and_matches_local_inference() {
    // Search a design (fast surrogate accuracy) at mini scale.
    let profile = WorkloadProfile::modelnet40_mini(24, 4);
    let space = DesignSpace::paper(profile);
    let eval = SimBackend {
        profile,
        sys: gcode::hardware::SystemConfig::tx2_to_i7(40.0),
        sim: SimConfig::single_frame(),
        accuracy_fn: |a: &Architecture| 0.8 + 0.001 * a.len() as f64,
    };
    let cfg = SearchConfig { iterations: 80, seed: 77, ..SearchConfig::default() };
    let objective =
        Objective { latency_constraint_s: 1.0, energy_constraint_j: 5.0, ..Objective::default() };
    let result = random_search(&space, &cfg, &objective, &eval);
    // Pin Random sampling to KNN so the deployed and local runs build the
    // same graphs (Random draws differ across RNG streams by design).
    let ops: Vec<Op> = result
        .best()
        .expect("found")
        .arch
        .ops()
        .iter()
        .map(|op| match *op {
            Op::Sample(SampleFn::Random { k }) => Op::Sample(SampleFn::Knn { k }),
            other => other,
        })
        .collect();
    let best = Architecture::new(ops);

    // Deploy through the engine and compare against monolithic execution.
    let ds = PointCloudDataset::generate(5, 24, 4, 3);
    let bank = WeightBank::new(4, 55);
    let plan = ExecutionPlan::from_architecture(&best);
    let (preds, _) = run_fresh(plan, bank.clone(), 9, ds.samples());

    let mut local_bank = bank;
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let specs = best.lower();
    for (i, s) in ds.samples().iter().enumerate() {
        let logits = forward(
            &specs,
            GraphInput { features: &s.features, graph: None },
            &mut local_bank,
            &mut rng,
        );
        assert_eq!(preds[i], logits.argmax_row(0), "frame {i} diverged for {best}");
    }
    assert_eq!(preds.len(), 5);
}

#[test]
fn compression_reduces_engine_traffic() {
    // Same architecture, one run — wire bytes must be below the raw f32
    // payload the device would otherwise ship.
    let arch = Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 6 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 32 },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]);
    let n_points = 64;
    let ds = PointCloudDataset::generate(8, n_points, 3, 13);
    let bank = WeightBank::new(3, 21);
    let plan = ExecutionPlan::from_architecture(&arch);
    let (_, stats) = run_fresh(plan, bank, 5, ds.samples());
    // Raw payload: 8 frames × (64×32 floats + graph 64×6 u32 + offsets).
    let raw = 8 * (n_points * 32 * 4 + (n_points * 6 + n_points + 1) * 4);
    assert!(
        stats.bytes_sent < raw,
        "compressed traffic {} should undercut raw {}",
        stats.bytes_sent,
        raw
    );
}

#[test]
fn engine_handles_text_graphs_with_provided_structure() {
    use gcode::graph::datasets::TextGraphDataset;
    let arch = Architecture::new(vec![
        Op::Combine { dim: 16 },
        Op::Aggregate(AggMode::Mean),
        Op::Communicate,
        Op::Combine { dim: 16 },
        Op::GlobalPool(PoolMode::Mean),
    ]);
    let ds = TextGraphDataset::generate(6, 12, 24, 19);
    let bank = WeightBank::new(2, 31);
    let plan = ExecutionPlan::from_architecture(&arch);
    let (preds, _) = run_fresh(plan, bank, 6, ds.samples());
    assert_eq!(preds.len(), 6);
}
