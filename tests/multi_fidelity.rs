//! Multi-fidelity search through the `CascadeBackend`: screen every batch
//! with the cheap analytic backend, re-price only the top fraction with
//! the simulator — the paper's "estimate thousands, measure the promising
//! few" economy (Sec. 3.5) as an end-to-end scenario.

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode::core::eval::{Objective, SearchSession};
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

fn sim() -> SimBackend<impl Fn(&Architecture) -> f64 + Sync> {
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    SimBackend {
        profile: profile(),
        sys: SystemConfig::tx2_to_i7(40.0),
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    }
}

fn cfg() -> SearchConfig {
    SearchConfig { iterations: 300, seed: 17, ..SearchConfig::default() }
}

fn objective() -> Objective {
    Objective::new(0.25, 0.5, 3.0)
}

#[test]
fn cascade_issues_strictly_fewer_sim_evaluations_than_pure_sim() {
    // Pure simulator-in-the-loop search: every unique candidate costs one
    // sim run — the session's cache misses count exactly that.
    let space = DesignSpace::paper(profile());
    let pure_sim = sim();
    let mut pure_session = SearchSession::new(&space, &pure_sim).with_objective(objective());
    let pure_result = pure_session.run(&RandomSearch::new(cfg()));
    let pure_sim_evals = pure_session.cache_stats().misses;
    assert!(pure_sim_evals > 0);

    // Same search through the cascade: the analytic tier screens, the sim
    // tier re-prices only the top quarter of each deduplicated batch.
    let cheap = analytic();
    let expensive = sim();
    let cascade =
        CascadeBackend::ladder(vec![&cheap, &expensive], objective()).with_keep_fracs(&[0.25]);
    let mut session = SearchSession::new(&space, &cascade).with_objective(objective());
    let result = session.run(&RandomSearch::new(cfg()));
    let tiers = cascade.tier_stats();

    assert!(
        tiers[1].evals < pure_sim_evals,
        "cascade must issue strictly fewer sim evaluations: {} vs {}",
        tiers[1].evals,
        pure_sim_evals
    );
    // Batched candidates were screened cheaply; only stage-2 tuning
    // probes (single lookups) bypass the screen, so the cheap tier covers
    // at most — and almost all of — the session's unique evaluations.
    assert!(tiers[0].evals > 0);
    assert!(tiers[0].evals <= session.cache_stats().misses);
    // Both searches found feasible designs.
    assert!(pure_result.best().is_some());
    assert!(result.best().is_some());
}

#[test]
fn cascade_search_is_deterministic_and_worker_invariant() {
    let space = DesignSpace::paper(profile());
    let runs: Vec<_> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            let cheap = analytic();
            let expensive = sim();
            let cascade = CascadeBackend::ladder(vec![&cheap, &expensive], objective())
                .with_keep_fracs(&[0.25]);
            let mut session = SearchSession::new(&space, &cascade)
                .with_objective(objective())
                .with_workers(workers);
            let result = session.run(&RandomSearch::new(cfg()));
            (result, cascade.tier_stats())
        })
        .collect();
    let (baseline, baseline_tiers) = &runs[0];
    for (result, tiers) in &runs[1..] {
        assert_eq!(tiers, baseline_tiers, "tier counters must not depend on workers");
        assert_eq!(result.history.len(), baseline.history.len());
        for (a, b) in result.history.iter().zip(&baseline.history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in result.zoo.iter().zip(&baseline.zoo) {
            assert_eq!(a.arch, b.arch);
            assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        }
    }
}

#[test]
fn cascade_winner_carries_sim_fidelity_metrics() {
    // The search winner is some batch's argmax, and the cascade escalates
    // until every batch argmax is expensive-priced — so the best zoo entry
    // must reproduce a standalone simulator run exactly, never a cheap
    // estimate.
    let space = DesignSpace::paper(profile());
    let cheap = analytic();
    let expensive = sim();
    let cascade =
        CascadeBackend::ladder(vec![&cheap, &expensive], objective()).with_keep_fracs(&[0.25]);
    let mut session = SearchSession::new(&space, &cascade).with_objective(objective());
    let result = session.run(&RandomSearch::new(cfg()));
    let best = result.best().expect("found");
    let re_sim = gcode::sim::simulate(
        &best.arch,
        &profile(),
        &SystemConfig::tx2_to_i7(40.0),
        &SimConfig::single_frame(),
    );
    assert_eq!(
        best.latency_s.to_bits(),
        re_sim.frame_latency_s.to_bits(),
        "the best zoo entry must be sim-priced"
    );
    assert_eq!(best.energy_j.to_bits(), re_sim.device_energy_j.to_bits());
}

#[test]
fn full_escalation_reduces_the_cascade_to_pure_sim() {
    // With keep_frac = 1.0 every screened candidate is re-priced, so the
    // cascade must reproduce the pure-sim search bit-for-bit — the cascade
    // is an economy knob, not a different oracle.
    let space = DesignSpace::paper(profile());
    let pure_sim = sim();
    let mut pure_session = SearchSession::new(&space, &pure_sim).with_objective(objective());
    let pure = pure_session.run(&RandomSearch::new(cfg()));

    let cheap = analytic();
    let expensive = sim();
    let cascade =
        CascadeBackend::ladder(vec![&cheap, &expensive], objective()).with_keep_fracs(&[1.0]);
    assert_eq!(cascade.fidelity(), Fidelity::Simulated);
    let mut session = SearchSession::new(&space, &cascade).with_objective(objective());
    let result = session.run(&RandomSearch::new(cfg()));

    assert_eq!(result.history.len(), pure.history.len());
    for (a, b) in result.history.iter().zip(&pure.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(result.zoo.len(), pure.zoo.len());
    for (a, b) in result.zoo.iter().zip(&pure.zoo) {
        assert_eq!(a.arch, b.arch);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }
    assert_eq!(cascade.tier_stats()[1].evals, pure_session.cache_stats().misses);
}

#[test]
fn cascade_report_names_the_backend_stack() {
    let space = DesignSpace::paper(profile());
    let cheap = analytic();
    let expensive = sim();
    let cascade = CascadeBackend::ladder(vec![&cheap, &expensive], objective());
    let mut session = SearchSession::new(&space, &cascade).with_objective(objective());
    let result = session.run(&RandomSearch::new(SearchConfig {
        iterations: 40,
        seed: 1,
        ..SearchConfig::default()
    }));
    let report = session.report(cascade.name(), &result);
    assert_eq!(report.backend, "cascade(analytic->sim)");
    assert_eq!(report.trials, 40);
    assert_eq!(report.cache.misses as usize, report.unique_architectures);
    // The report survives a JSON round trip (the CLI writes it).
    let json = serde_json::to_string(&report).expect("serialize");
    let restored: gcode::core::eval::SearchReport =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored, report);
}
