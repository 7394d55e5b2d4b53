//! What is searched is what is deployed. `ExecutionPlan::from_architecture`
//! is the only lowering: it cuts a candidate at its first `Communicate`
//! and leaves every op at its positional slot, so the mapping the search
//! chose is the mapping the engine runs — and running it split, on one
//! process or two, computes what the unsplit sequence computes.

mod common;

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::op::{Op, OpKind, SampleFn};
use gcode::core::search::ScoredArch;
use gcode::core::space::DesignSpace;
use gcode::core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode::engine::{plan_wire_id, ExecutionPlan};
use gcode::graph::datasets::{PointCloudDataset, Sample, TextGraphDataset};
use gcode::nn::seq::{forward, GraphInput, WeightBank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const BANK_SEED: u64 = 55;
const RUN_SEED: u64 = 9;

fn input(s: &Sample) -> GraphInput<'_> {
    GraphInput { features: &s.features, graph: s.graph.as_ref() }
}

/// The unsplit sequence over the same bank: what the candidate computes
/// before anyone decides where it runs.
fn monolithic_predictions(arch: &Architecture, samples: &[Sample], classes: usize) -> Vec<usize> {
    let mut bank = WeightBank::new(classes, BANK_SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(RUN_SEED);
    let specs = arch.lower();
    samples.iter().map(|s| forward(&specs, input(s), &mut bank, &mut rng).argmax_row(0)).collect()
}

/// 64 seeded `sample_valid` candidates of `profile`'s paper space: the
/// plan's shape, its loopback pair against the in-process oracle and the
/// monolithic forward, and the dispatcher's plan for the same candidate.
fn check_profile(profile: WorkloadProfile, samples: &[Sample]) {
    let space = DesignSpace::paper(profile);
    let classes = profile.num_classes;
    let (mut offloaded, mut multi_comm, mut monolithic) = (0, 0, 0);
    for seed in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (arch, _) = space.sample_valid(&mut rng, 100_000);
        let lowered = arch.lower();
        let comms = arch.ops().iter().filter(|op| op.kind() == OpKind::Communicate).count();
        let first_comm = arch.ops().iter().position(|op| op.kind() == OpKind::Communicate);
        let plan = ExecutionPlan::from_architecture(&arch);

        // The deployed cut is the candidate's first `Communicate`; nothing
        // is dropped, merged or renumbered on either side of it.
        let cut = first_comm.unwrap_or(lowered.len());
        let edge_from = (cut + 1).min(lowered.len());
        assert_eq!(plan.device_specs, lowered[..cut], "seed {seed}: {arch}");
        assert_eq!(plan.edge_specs, lowered[edge_from..], "seed {seed}: {arch}");
        assert_eq!(plan.device_slots, (0..cut).collect::<Vec<_>>(), "seed {seed}: {arch}");
        assert_eq!(plan.edge_slots, (edge_from..lowered.len()).collect::<Vec<_>>(), "{arch}");
        assert_eq!(plan.offloaded, first_comm.is_some(), "seed {seed}: {arch}");
        offloaded += usize::from(plan.offloaded);
        multi_comm += usize::from(comms > 1);

        // One process or two, the split computes the same predictions: a
        // fresh loopback pool (its `SwapPlan` crossing the wire codec)
        // against the in-process oracle…
        let bank = WeightBank::new(classes, BANK_SEED);
        let split = plan.run_in_process(bank.clone(), RUN_SEED, samples).expect("in process");
        let (on_loopback, _) = common::run_fresh(plan.clone(), bank, RUN_SEED, samples);
        assert_eq!(on_loopback, split, "seed {seed}: {arch}");
        // …and, where the two sides' separate RNG streams are never drawn
        // from, exactly what the unsplit candidate predicts.
        if !arch.ops().iter().any(|op| matches!(op, Op::Sample(SampleFn::Random { .. }))) {
            assert_eq!(monolithic_predictions(&arch, samples, classes), split, "{seed}: {arch}");
            monolithic += 1;
        }

        // The plan a dispatcher deploys for this candidate is the plan it
        // was lowered to here — one architecture, one wire id.
        let entry = ScoredArch {
            arch: arch.clone(),
            score: 0.9,
            accuracy: 0.9,
            latency_s: 0.1,
            energy_j: 0.1,
        };
        let zoo = ArchitectureZoo::new(vec![entry]);
        let pick = zoo.dispatch(RuntimeConstraint::none()).expect("one entry");
        let picked = ExecutionPlan::from_architecture(&pick.arch);
        assert_eq!(plan_wire_id(&picked), plan_wire_id(&plan), "seed {seed}: {arch}");
    }
    // The sweep must reach the cases the invariant is about.
    assert!(offloaded >= 16, "only {offloaded}/64 candidates offload");
    assert!(multi_comm >= 4, "only {multi_comm}/64 candidates cross the link more than once");
    assert!(monolithic >= 16, "only {monolithic}/64 candidates are free of Sample(Random)");
}

#[test]
fn sixty_four_point_cloud_candidates_deploy_the_mapping_they_were_searched_under() {
    let profile = WorkloadProfile::modelnet40_mini(24, 4);
    let ds = PointCloudDataset::generate(3, profile.num_nodes, profile.num_classes, 101);
    check_profile(profile, ds.samples());
}

#[test]
fn sixty_four_text_candidates_deploy_the_mapping_they_were_searched_under() {
    let ds = TextGraphDataset::generate(3, 12, 24, 101);
    check_profile(WorkloadProfile::mr(), ds.samples());
}
