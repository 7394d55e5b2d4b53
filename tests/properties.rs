//! Workspace-level randomized-property tests: invariants that must hold
//! for *every* architecture the design space can produce. Cases are drawn
//! from a fixed seed grid (no proptest offline), so every run checks the
//! same deterministic case set across all three workload profiles.

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::cost::{final_state, trace};
use gcode::core::estimate::{estimate_device_energy, estimate_latency};
use gcode::core::op::{OpKind, Placement};
use gcode::core::predictor::{abstract_architecture, FeatureMode, FEATURE_DIM};
use gcode::core::space::DesignSpace;
use gcode::hardware::SystemConfig;
use gcode::sim::{build_stages, simulate, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEEDS_PER_PROFILE: u64 = 21;

fn profiles() -> [WorkloadProfile; 3] {
    [WorkloadProfile::modelnet40(), WorkloadProfile::mr(), WorkloadProfile::modelnet40_mini(64, 8)]
}

fn sampled_arch(profile: WorkloadProfile, seed: u64) -> Architecture {
    let space = DesignSpace::paper(profile);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    space.sample_valid(&mut rng, 100_000).0
}

/// Runs `check` over the profile × seed grid.
fn for_each_case(mut check: impl FnMut(WorkloadProfile, Architecture)) {
    for profile in profiles() {
        for seed in 0..SEEDS_PER_PROFILE {
            check(profile, sampled_arch(profile, seed * 131 + 7));
        }
    }
}

#[test]
fn sampled_architectures_always_validate() {
    for_each_case(|profile, arch| {
        assert!(arch.validate(&profile).is_ok(), "{arch}");
    });
}

/// The paper's space and its single-device variant, with and without a
/// dataset-provided graph: the four shapes the validity rules distinguish.
fn space_configurations() -> [DesignSpace; 4] {
    let (cloud, text) = (WorkloadProfile::modelnet40(), WorkloadProfile::mr());
    [
        DesignSpace::paper(cloud),
        DesignSpace::single_device(cloud),
        DesignSpace::paper(text),
        DesignSpace::single_device(text),
    ]
}

#[test]
fn every_sample_of_every_space_configuration_validates() {
    for space in space_configurations() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..500 {
            let (arch, draws) = space.sample_valid(&mut rng, 100_000);
            assert!(arch.validate(&space.profile).is_ok(), "{arch}");
            assert_eq!(arch.len(), space.num_layers);
            assert_eq!(draws, 1);
            assert!(space.allow_communicate || arch.num_communicates() == 0, "{arch}");
        }
    }
}

#[test]
fn same_seed_samples_the_same_candidates() {
    for space in space_configurations() {
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..50).map(|_| space.sample_valid(&mut rng, 100_000).0).collect::<Vec<_>>()
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23), run(24));
    }
}

#[test]
fn placement_flips_exactly_at_communicates() {
    for_each_case(|_, arch| {
        let placements = arch.placements();
        let mut side = Placement::Device;
        for (op, &p) in arch.ops().iter().zip(&placements) {
            assert_eq!(p, side);
            if op.kind() == OpKind::Communicate {
                side = side.flipped();
            }
        }
        assert_eq!(arch.output_placement(), side);
    });
}

#[test]
fn latency_and_energy_are_finite_positive() {
    for_each_case(|profile, arch| {
        for sys in SystemConfig::paper_systems(40.0) {
            let lat = estimate_latency(&arch, &profile, &sys).total_s();
            let e = estimate_device_energy(&arch, &profile, &sys);
            assert!(lat.is_finite() && lat > 0.0);
            assert!(e.is_finite() && e > 0.0);
        }
    });
}

#[test]
fn simulation_never_undercuts_cost_estimate() {
    // The simulator only *adds* overheads on top of the LUT terms.
    for_each_case(|profile, arch| {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let est = estimate_latency(&arch, &profile, &sys).total_s();
        let sim = simulate(&arch, &profile, &sys, &SimConfig::single_frame()).frame_latency_s;
        assert!(sim >= est * 0.999, "sim {sim} vs estimate {est}");
    });
}

#[test]
fn pipelined_throughput_at_least_serial() {
    for_each_case(|profile, arch| {
        let sys = SystemConfig::pi_to_1060(40.0);
        let pipelined =
            simulate(&arch, &profile, &sys, &SimConfig { frames: 16, ..SimConfig::default() });
        let serial = simulate(
            &arch,
            &profile,
            &sys,
            &SimConfig { frames: 16, pipelined: false, ..SimConfig::default() },
        );
        assert!(pipelined.fps >= serial.fps * 0.999);
    });
}

#[test]
fn stage_count_matches_communicate_count() {
    for_each_case(|profile, arch| {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let stages = build_stages(&arch, &profile, &sys, &SimConfig::default());
        let comms =
            arch.num_communicates() + usize::from(arch.output_placement() == Placement::Edge);
        let links = stages.iter().filter(|s| s.kind == gcode::sim::StageKind::Link).count();
        assert_eq!(links, comms);
    });
}

#[test]
fn trace_conserves_op_count_and_transfer_attribution() {
    for_each_case(|profile, arch| {
        let traced = trace(&arch, &profile);
        assert_eq!(traced.len(), arch.len());
        for t in &traced {
            let is_comm = t.op.kind() == OpKind::Communicate;
            assert_eq!(t.transfer_bytes > 0, is_comm);
        }
    });
}

#[test]
fn final_state_is_pooled_with_unit_nodes() {
    // Validity demands exactly one GlobalPool, so every sampled arch ends
    // pooled with a single "node".
    for_each_case(|profile, arch| {
        let s = final_state(&arch, &profile);
        assert!(s.pooled);
        assert_eq!(s.nodes, 1);
    });
}

#[test]
fn predictor_abstraction_is_well_formed() {
    for_each_case(|profile, arch| {
        let sys = SystemConfig::pi_to_i7(40.0);
        for mode in [FeatureMode::Enhanced, FeatureMode::OneHot] {
            let (g, x) = abstract_architecture(&arch, &profile, &sys, mode);
            assert_eq!(g.num_nodes(), arch.len() + 3);
            assert_eq!(x.shape(), (arch.len() + 3, FEATURE_DIM));
            // Every node carries exactly one type bit.
            for i in 0..x.rows() {
                let ones = x.row(i)[..FEATURE_DIM - 1].iter().filter(|&&v| v == 1.0).count();
                assert_eq!(ones, 1, "node {i} one-hot malformed");
            }
            // Graph is symmetric (dataflow edges added both ways).
            for (u, v) in g.iter_edges() {
                assert!(g.neighbors(v as usize).contains(&u));
            }
        }
    });
}

#[test]
fn slower_bandwidth_never_speeds_anything_up() {
    for_each_case(|profile, arch| {
        let fast = estimate_latency(&arch, &profile, &SystemConfig::tx2_to_1060(40.0)).total_s();
        let slow = estimate_latency(&arch, &profile, &SystemConfig::tx2_to_1060(10.0)).total_s();
        assert!(slow >= fast * 0.999);
    });
}
