//! N-tier fidelity ladders end-to-end: a three-rung
//! `analytic → sim(1 frame) → sim(32 frames)` cascade must find the same
//! winner as a pure top-tier search while pricing strictly fewer
//! candidates with the simulator, for any worker count.

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode::core::eval::{Evaluator, Objective, SearchSession};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::hardware::SystemConfig;
use gcode::sim::{SimBackend, SimConfig};

fn profile() -> WorkloadProfile {
    WorkloadProfile::modelnet40()
}

fn analytic() -> AnalyticBackend<impl Fn(&Architecture) -> f64 + Sync> {
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    AnalyticBackend {
        profile: profile(),
        sys: SystemConfig::tx2_to_i7(40.0),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    }
}

/// Simulator tier over `frames` frames: the 1-frame probe is the ladder's
/// middle rung, the 32-frame pipelined pass its (pricier) top rung.
fn sim(frames: usize) -> SimBackend<impl Fn(&Architecture) -> f64 + Sync> {
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    SimBackend {
        profile: profile(),
        sys: SystemConfig::tx2_to_i7(40.0),
        sim: SimConfig { frames, pipelined: frames > 1, ..SimConfig::default() },
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    }
}

fn cfg() -> SearchConfig {
    SearchConfig { iterations: 300, seed: 21, ..SearchConfig::default() }
}

fn objective() -> Objective {
    Objective::new(0.25, 0.5, 3.0)
}

#[test]
fn three_tier_ladder_matches_pure_top_tier_score_with_fewer_expensive_evals() {
    // Pure top-tier search: every unique candidate costs one 32-frame
    // simulator pass.
    let space = DesignSpace::paper(profile());
    let pure = sim(32);
    let mut pure_session = SearchSession::new(&space, &pure).with_objective(objective());
    let pure_result = pure_session.run(&RandomSearch::new(cfg()));
    let pure_evals = pure_session.cache_stats().misses;
    let pure_best = pure_result.best().expect("pure search finds a winner");

    // Same search through the three-rung ladder.
    let cheap = analytic();
    let mid = sim(1);
    let top = sim(32);
    let ladder =
        CascadeBackend::ladder(vec![&cheap, &mid, &top], objective()).with_keep_fracs(&[0.25, 0.5]);
    assert_eq!(ladder.fidelity(), Fidelity::Simulated);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective());
    let result = session.run(&RandomSearch::new(cfg()));
    let best = result.best().expect("ladder search finds a winner");

    // Honest-winner escalation prices every batch argmax with the top
    // tier, so the ladder lands on the same winner at the same score —
    // bit-for-bit — while the simulator tiers saw only a fraction of the
    // candidates.
    assert_eq!(best.arch, pure_best.arch);
    assert_eq!(best.score.to_bits(), pure_best.score.to_bits());
    assert_eq!(best.latency_s.to_bits(), pure_best.latency_s.to_bits());
    let tiers = ladder.tier_stats();
    let sim_evals = tiers[1].evals + tiers[2].evals;
    assert!(
        sim_evals < pure_evals,
        "ladder must issue strictly fewer simulator evaluations: {sim_evals} vs {pure_evals}"
    );
    assert!(tiers[2].evals < tiers[1].evals, "the top rung must narrow further");
    // The cheap rung screens every *batched* candidate; only stage-2
    // tuning probes (single lookups, priced straight at the top tier)
    // bypass it.
    assert!(tiers[0].evals > 0);
    assert!(tiers[0].evals <= pure_evals);
}

#[test]
fn ladder_escalation_narrows_rung_by_rung_and_winner_is_top_priced() {
    let space = DesignSpace::paper(profile());
    let cheap = analytic();
    let mid = sim(1);
    let top = sim(32);
    let ladder =
        CascadeBackend::ladder(vec![&cheap, &mid, &top], objective()).with_keep_fracs(&[0.3, 0.4]);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective());
    let result = session.run(&RandomSearch::new(cfg()));
    let best = result.best().expect("found");
    // The winner must reproduce a standalone top-tier run exactly.
    let re_run = top.evaluate(&best.arch);
    assert_eq!(best.latency_s.to_bits(), re_run.latency_s.to_bits());
    assert_eq!(best.energy_j.to_bits(), re_run.energy_j.to_bits());
    let tiers = ladder.tier_stats();
    assert!(tiers[0].evals > tiers[1].evals);
    assert!(tiers[1].evals > tiers[2].evals);
}

#[test]
fn three_tier_ladder_is_worker_invariant() {
    let space = DesignSpace::paper(profile());
    let runs: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|workers| {
            let cheap = analytic();
            let mid = sim(1);
            let top = sim(32);
            let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &top], objective())
                .with_keep_fracs(&[0.25, 0.5]);
            let mut session = SearchSession::new(&space, &ladder)
                .with_objective(objective())
                .with_workers(workers);
            let result = session.run(&RandomSearch::new(cfg()));
            (result, ladder.tier_stats())
        })
        .collect();
    let (baseline, baseline_tiers) = &runs[0];
    for (result, tiers) in &runs[1..] {
        assert_eq!(tiers, baseline_tiers);
        for (a, b) in result.history.iter().zip(&baseline.history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn ladder_report_names_the_full_stack() {
    let space = DesignSpace::paper(profile());
    let cheap = analytic();
    let mid = sim(1);
    let top = sim(32);
    let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &top], objective());
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective());
    let result = session.run(&RandomSearch::new(SearchConfig {
        iterations: 40,
        seed: 3,
        ..SearchConfig::default()
    }));
    let report = session.report(ladder.name(), &result);
    assert_eq!(report.backend, "cascade(analytic->sim->sim)");
    assert!(report.measured.is_none(), "no live engine took part");
    let json = serde_json::to_string(&report).expect("serialize");
    let restored: gcode::core::eval::SearchReport =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored, report);
}
