//! Shared harness for the table/figure generators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (the README's "Paper artifacts and benchmarks" lists them). This library
//! holds the pieces they share: running a GCoDE search on a system,
//! evaluating baselines in each collaboration mode, and plain-text table
//! formatting.

#![deny(unsafe_code)]

use gcode_baselines::models::{as_edge_only, Baseline};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::{Objective, SearchReport, SearchSession};
use gcode_core::search::{RandomSearch, ScoredArch, SearchConfig, SearchResult};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_hardware::SystemConfig;
use gcode_sim::{simulate, SimBackend, SimConfig};

/// Latency (ms) and device energy (J) of an architecture on a system,
/// measured by the single-frame simulator.
pub fn measure(arch: &Architecture, profile: &WorkloadProfile, sys: &SystemConfig) -> (f64, f64) {
    let r = simulate(arch, profile, sys, &SimConfig::single_frame());
    (r.frame_latency_s * 1e3, r.device_energy_j)
}

/// Pipelined throughput in frames/second over a 64-frame stream.
pub fn measure_fps(arch: &Architecture, profile: &WorkloadProfile, sys: &SystemConfig) -> f64 {
    let cfg = SimConfig { frames: 64, ..SimConfig::default() };
    simulate(arch, profile, sys, &cfg).fps
}

/// A baseline evaluated in device-only and edge-only modes.
pub struct BaselineRows {
    /// The baseline.
    pub baseline: Baseline,
    /// `(latency ms, energy J)` device-only.
    pub device: (f64, f64),
    /// `(latency ms, energy J)` edge-only.
    pub edge: (f64, f64),
}

/// Evaluates a baseline's D and E modes on a system.
pub fn baseline_rows(
    baseline: Baseline,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
) -> BaselineRows {
    let device = measure(&baseline.arch, profile, sys);
    let edge = measure(&as_edge_only(&baseline.arch), profile, sys);
    BaselineRows { baseline, device, edge }
}

/// GCoDE search settings used by the table generators: the constraints are
/// set relative to the device-only DGCNN anchor so every system gets a
/// feasible but non-trivial budget.
pub fn table_search_config(
    anchor_latency_s: f64,
    anchor_energy_j: f64,
    seed: u64,
) -> (SearchConfig, Objective) {
    (
        SearchConfig { iterations: 2000, seed, ..SearchConfig::default() },
        Objective::new(0.25, anchor_latency_s, anchor_energy_j),
    )
}

/// Runs the full GCoDE pipeline (simulator-in-the-loop constraint-based
/// random search with the calibrated surrogate accuracy) for one system.
pub fn run_gcode_search(
    profile: WorkloadProfile,
    task: SurrogateTask,
    sys: &SystemConfig,
    cfg: &SearchConfig,
    objective: &Objective,
) -> SearchResult {
    run_gcode_search_reported(profile, task, sys, cfg, objective).0
}

/// Like [`run_gcode_search`], but also returns the session's
/// [`SearchReport`] (backend, memo-cache hit rate, unique evaluations) so
/// generators can surface evaluation-side statistics next to the zoo.
pub fn run_gcode_search_reported(
    profile: WorkloadProfile,
    task: SurrogateTask,
    sys: &SystemConfig,
    cfg: &SearchConfig,
    objective: &Objective,
) -> (SearchResult, SearchReport) {
    let space = DesignSpace::paper(profile);
    let surrogate = SurrogateAccuracy::new(task);
    let eval = SimBackend {
        profile,
        sys: sys.clone(),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let mut session = SearchSession::new(&space, &eval).with_objective(*objective);
    let result = session.run(&RandomSearch::new(*cfg));
    let report = session.report("sim", &result);
    (result, report)
}

/// Convenience: the GCoDE candidate a user would deploy for low latency —
/// the fastest zoo entry whose accuracy stays within the paper's reported
/// band (≥ 92.1% OA on ModelNet40 / ≥ 76.1% on MR), falling back to the
/// best-scoring entry when none qualifies.
pub fn best_gcode(
    profile: WorkloadProfile,
    task: SurrogateTask,
    sys: &SystemConfig,
    seed: u64,
) -> ScoredArch {
    let (dgcnn, acc_floor) = if matches!(task, SurrogateTask::ModelNet40) {
        (gcode_baselines::models::dgcnn().arch, 0.921)
    } else {
        (gcode_baselines::models::pnas_text().arch, 0.761)
    };
    let (anchor_ms, anchor_j) = measure(&dgcnn, &profile, sys);
    let (cfg, objective) = table_search_config(anchor_ms / 1e3, anchor_j, seed);
    let result = run_gcode_search(profile, task, sys, &cfg, &objective);
    result
        .zoo
        .iter()
        .filter(|z| z.accuracy >= acc_floor)
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .or_else(|| result.best())
        .cloned()
        .expect("search with DGCNN-anchored constraints always finds candidates")
}

/// Prints a row of fixed-width cells.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> =
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
    println!("{}", line.join("  "));
}

/// Section header for the generators' stdout.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::surrogate::SurrogateTask;

    #[test]
    fn measure_returns_positive_metrics() {
        let d = gcode_baselines::models::dgcnn();
        let (ms, j) =
            measure(&d.arch, &WorkloadProfile::modelnet40(), &SystemConfig::tx2_to_i7(40.0));
        assert!(ms > 0.0 && j > 0.0);
    }

    #[test]
    fn gcode_beats_dgcnn_device_only_on_every_system() {
        // The headline claim of Tab. 2, checked end-to-end at reduced
        // search budget.
        let profile = WorkloadProfile::modelnet40();
        for sys in SystemConfig::paper_systems(40.0) {
            let dgcnn = gcode_baselines::models::dgcnn();
            let (base_ms, base_j) = measure(&dgcnn.arch, &profile, &sys);
            let (base_cfg, objective) = table_search_config(base_ms / 1e3, base_j, 3);
            let cfg = SearchConfig { iterations: 300, ..base_cfg };
            let result =
                run_gcode_search(profile, SurrogateTask::ModelNet40, &sys, &cfg, &objective);
            let best = result.best().expect("found");
            let (ms, j) = measure(&best.arch, &profile, &sys);
            assert!(ms < base_ms, "{}: GCoDE {ms:.1} vs DGCNN {base_ms:.1}", sys.label());
            assert!(j < base_j, "{}: GCoDE {j:.2} J vs DGCNN {base_j:.2} J", sys.label());
        }
    }

    #[test]
    fn fps_exceeds_single_frame_rate() {
        let h = gcode_baselines::models::branchy_gnn();
        let profile = WorkloadProfile::modelnet40();
        let sys = SystemConfig::tx2_to_i7(40.0);
        let fps = measure_fps(&h.arch, &profile, &sys);
        let (ms, _) = measure(&h.arch, &profile, &sys);
        assert!(fps >= 1000.0 / ms * 0.95, "pipelining should not lose throughput");
    }
}
