//! End-to-end checks of the paper's headline claims at reduced search
//! budgets — the "shape" of every major result.

use gcode::baselines::models;
use gcode::baselines::nas::hgnas_search;
use gcode::baselines::partition::{
    best_partition, fig4_schemes, PartitionObjective, PartitionResult,
};
use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::ea::{evolutionary_search, EaConfig};
use gcode::core::eval::Objective;
use gcode::core::search::{random_search, SearchConfig, SearchResult};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::engine::{FleetSpec, SearchSpec};
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use gcode::sim::{simulate, SimBackend, SimConfig};
use std::sync::atomic::AtomicU64;

/// The paper spec of `task` on `sys` (the task's profile, priced by the
/// simulator with the calibrated surrogate accuracy) under `config` and
/// `objective`, searched.
fn search(
    sys: &SystemConfig,
    task: SurrogateTask,
    config: SearchConfig,
    objective: Objective,
) -> SearchResult {
    let spec = SearchSpec { config, objective, ..SearchSpec::paper(sys.clone(), task) };
    run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0)).expect("a valid spec").1
}

/// GCoDE's ModelNet40 design on `sys`: the fastest entry at ≥ 92 % OA in the
/// zoo of a 500-trial search anchored to device-only DGCNN.
fn gcode_best(sys: &SystemConfig, seed: u64) -> Architecture {
    let profile = WorkloadProfile::modelnet40();
    let anchor = simulate(&models::dgcnn().arch, &profile, sys, &SimConfig::single_frame());
    let cfg = SearchConfig { iterations: 500, seed, ..SearchConfig::default() };
    let objective = Objective::new(0.25, anchor.frame_latency_s, anchor.device_energy_j);
    let result = search(sys, SurrogateTask::ModelNet40, cfg, objective);
    result
        .zoo
        .iter()
        .filter(|z| z.accuracy >= 0.92)
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .or_else(|| result.best())
        .expect("found")
        .arch
        .clone()
}

#[test]
fn tab2_gcode_beats_every_baseline_on_every_system() {
    let profile = WorkloadProfile::modelnet40();
    let sim = SimConfig::single_frame();
    for sys in SystemConfig::paper_systems(40.0) {
        let gcode_arch = gcode_best(&sys, 7);
        let g = simulate(&gcode_arch, &profile, &sys, &sim);
        for baseline in [models::dgcnn(), models::optimized_dgcnn(), models::branchy_gnn()] {
            let b = simulate(&baseline.arch, &profile, &sys, &sim);
            assert!(
                g.frame_latency_s < b.frame_latency_s,
                "{}: GCoDE {:.1} ms should beat {} {:.1} ms",
                sys.label(),
                g.frame_latency_s * 1e3,
                baseline.name,
                b.frame_latency_s * 1e3
            );
            assert!(
                g.device_energy_j < b.device_energy_j,
                "{}: GCoDE energy should beat {}",
                sys.label(),
                baseline.name
            );
        }
        // And the architecture-mapping *separation* strategy.
        let part = best_partition(
            &models::hgnas().arch,
            &profile,
            &sys,
            &sim,
            PartitionObjective::Latency,
        );
        assert!(
            g.frame_latency_s < part.report.frame_latency_s,
            "{}: co-design should beat best-partition",
            sys.label()
        );
    }
}

#[test]
fn tab3_gcode_wins_the_text_workload() {
    let profile = WorkloadProfile::mr();
    let sim = SimConfig::single_frame();
    for sys in SystemConfig::paper_systems(40.0) {
        let cfg = SearchConfig { iterations: 500, seed: 11, ..SearchConfig::default() };
        let objective = Objective::new(0.25, 0.05, 0.5);
        let result = search(&sys, SurrogateTask::Mr, cfg, objective);
        let g = result.best_latency().expect("found");
        let pnas = simulate(&models::pnas_text().arch, &profile, &sys, &sim);
        assert!(
            g.latency_s < pnas.frame_latency_s,
            "{}: GCoDE {:.2} ms vs PNAS {:.2} ms",
            sys.label(),
            g.latency_s * 1e3,
            pnas.frame_latency_s * 1e3
        );
    }
}

#[test]
fn fig4_no_single_partition_scheme_wins_everywhere() {
    // The motivation-❸ argument: the best split moves with the system.
    let profile = WorkloadProfile::modelnet40();
    let dgcnn = models::dgcnn().arch;
    let sim = SimConfig::single_frame();
    let mut winners = std::collections::HashSet::new();
    for sys in [
        SystemConfig::tx2_to_i7(10.0),
        SystemConfig::tx2_to_i7(40.0),
        SystemConfig::tx2_to_1060(10.0),
        SystemConfig::tx2_to_1060(40.0),
        SystemConfig::pi_to_i7(40.0),
        SystemConfig::pi_to_1060(10.0),
    ] {
        let best = fig4_schemes(&dgcnn)
            .into_iter()
            .min_by(|a, b| {
                let la = simulate(&a.1, &profile, &sys, &sim).frame_latency_s;
                let lb = simulate(&b.1, &profile, &sys, &sim).frame_latency_s;
                la.total_cmp(&lb)
            })
            .expect("schemes non-empty")
            .0;
        winners.insert(best);
    }
    assert!(winners.len() >= 2, "the winning split should vary across systems, got {winners:?}");
}

#[test]
fn fig10a_random_search_outperforms_ea_in_the_fused_space() {
    let profile = WorkloadProfile::modelnet40();
    let space = DesignSpace::paper(profile);
    let sys = SystemConfig::tx2_to_i7(40.0);
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let cfg = SearchConfig { iterations: 600, seed: 3, ..SearchConfig::default() };
    let objective = Objective::new(0.25, 0.15, 1.5);
    let mk_eval = || SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let e1 = mk_eval();
    let rand_history = random_search(&space, &cfg, &objective, &e1).history;
    let e2 = mk_eval();
    let ea_result = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &e2);
    // The paper's Fig. 10a point is search *efficiency*: within a modest
    // trial budget the random strategy is well ahead, because the EA burns
    // evaluations on invalid offspring (scored −1) in the fused space.
    for checkpoint in [50usize, 100, 200] {
        assert!(
            rand_history[checkpoint - 1] >= ea_result.history[checkpoint - 1],
            "at {checkpoint} trials random ({:.3}) should lead EA ({:.3})",
            rand_history[checkpoint - 1],
            ea_result.history[checkpoint - 1]
        );
    }
    // And the EA demonstrably wastes budget on invalid candidates.
    let ea_invalid = ea_result.history.iter().take(5).filter(|&&s| s <= -0.999).count();
    assert!(ea_invalid > 0, "plain EA should start with invalid candidates");
}

#[test]
fn gcode_keeps_winning_under_degraded_bandwidth() {
    // Tab. 2's 10 Mbps block: even on the constrained link, a search run
    // *for that link* still beats every baseline deployed on it.
    let profile = WorkloadProfile::modelnet40();
    let sim = SimConfig::single_frame();
    for sys in SystemConfig::paper_systems(10.0) {
        let g = gcode_best(&sys, 7);
        let gl = simulate(&g, &profile, &sys, &sim).frame_latency_s;
        for baseline in [
            models::dgcnn().arch,
            models::as_edge_only(&models::dgcnn().arch),
            models::branchy_gnn().arch,
        ] {
            let bl = simulate(&baseline, &profile, &sys, &sim).frame_latency_s;
            assert!(
                gl < bl,
                "{} @10Mbps: GCoDE {:.1} ms should beat baseline {:.1} ms",
                sys.label(),
                gl * 1e3,
                bl * 1e3
            );
        }
    }
}

/// The separation pipeline the abstract argues against, on ModelNet40: a
/// single-device NAS for the system's device (300 trials, seed 5), then
/// the best latency partition of its winner on the real co-inference
/// system.
fn separation_pipeline(sys: &SystemConfig) -> PartitionResult {
    let profile = WorkloadProfile::modelnet40();
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let result = hgnas_search(
        profile,
        sys.device.clone(),
        &separation_cfg(),
        &separation_objective(),
        move |a: &Architecture| surrogate.overall_accuracy(a),
    );
    let best = result.best().expect("single-device search found candidates");
    best_partition(
        &best.arch,
        &profile,
        sys,
        &SimConfig::single_frame(),
        PartitionObjective::Latency,
    )
}

fn separation_cfg() -> SearchConfig {
    SearchConfig { iterations: 300, seed: 5, ..SearchConfig::default() }
}

fn separation_objective() -> Objective {
    Objective::new(0.25, 1.5, 8.0)
}

#[test]
fn separation_pipeline_produces_valid_partitioned_design() {
    let sys = SystemConfig::pi_to_1060(40.0);
    let part = separation_pipeline(&sys);
    assert!(part.arch.validate(&WorkloadProfile::modelnet40()).is_ok());
    assert!(part.report.frame_latency_s.is_finite());
}

#[test]
fn codesign_beats_the_separation_pipeline() {
    // The central comparison: same budget, same accuracy model — the
    // fused search must match or beat search-then-partition.
    let sys = SystemConfig::tx2_to_i7(40.0);
    let part = separation_pipeline(&sys);

    let fused = search(&sys, SurrogateTask::ModelNet40, separation_cfg(), separation_objective());
    let fused_best_latency = fused.best_latency().expect("fused search found candidates").latency_s;
    assert!(
        fused_best_latency <= part.report.frame_latency_s * 1.05,
        "co-design {fused_best_latency:.4}s should not lose to separation {:.4}s",
        part.report.frame_latency_s
    );
}
