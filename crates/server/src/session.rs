//! The search runner, and the per-session pipeline built on it.
//!
//! [`run_search`] runs one [`SearchSpec`]: it builds the spec's tiers,
//! checks the ladder and runs the search. `gcode search` and every served
//! session call it — a session runs [`SearchSpec::served`] of its
//! [`SessionSpec`], the daemon's preset, so every source of randomness is
//! derived from `config.seed`, and the stage is bit-reproducible and
//! independent of the other tenants. When `measure_zoo` is set, a served
//! session then deploys the finished zoo on an edge fleet and records the
//! live measurements; predictions there are pinned by the fleet's
//! per-slot-seeded supernet `WeightBank`, so *which* fleet measures the
//! zoo — the server's shared one, interleaved candidate by candidate with
//! other tenants, or a private single pool — never changes them.
//!
//! [`run_standalone`] runs a session without any server, over a private
//! one-pool fleet: the reference a served session is asserted
//! bit-identical against in the session-isolation tests. The two differ
//! only in the fleet the zoo runs on and the cache log, if any; the rest
//! of the pipeline is one function (`run_pipeline`).
//!
//! The server owns all workload fixtures (datasets, streams, system
//! config, fleet seeds): a client ships a [`SessionSpec`], never data, so
//! two clients submitting the same spec get the same answer.

use gcode_core::arch::Architecture;
use gcode_core::cachelog::SharedCacheLog;
use gcode_core::eval::backend::{
    AnalyticBackend, CascadeBackend, EvalBackend, Fidelity, TierStats,
};
use gcode_core::eval::{Evaluator, Metrics, SearchReport, SearchSession};
use gcode_core::predictor::{
    sampled_latencies, LatencyPredictor, PredictorConfig, PredictorEvaluator,
};
use gcode_core::search::{RandomSearch, SearchResult};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::SurrogateAccuracy;
use gcode_engine::{
    measure_cached, EdgeFleet, EngineBackend, ExecutionPlan, FleetSpec, ProfileFold, SearchSpec,
    SessionOutcome, SessionSpec,
};
use gcode_graph::datasets::Sample;
use gcode_sim::{simulate, SimBackend, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Classes in the shared supernet `WeightBank` every fleet pool serves.
/// Fleet-fixed (one bank per fleet), so it is a server constant rather
/// than a per-task value; a 2-class text stream simply ignores the upper
/// logits. Measured accuracy is not consumed anywhere — accuracy comes
/// from the calibrated surrogate during the search.
pub const SERVE_NUM_CLASSES: usize = 4;

/// Seed of the shared supernet `WeightBank` on every serve-side fleet.
pub const SERVE_BANK_SEED: u64 = 0x5EED_BA2C;

/// Per-deployment RNG seed on every serve-side fleet.
pub const SERVE_RUN_SEED: u64 = 0x5EED_0123;

/// The one serve-side fleet constructor: the daemon's shared fleet, a
/// standalone run's private pool and a scenario's private pool all serve
/// the same bank with the same seeds, which is what makes their
/// predictions interchangeable.
pub(crate) fn serve_fleet(spec: FleetSpec) -> EdgeFleet {
    EdgeFleet::new(spec, SERVE_NUM_CLASSES, SERVE_BANK_SEED, SERVE_RUN_SEED)
}

/// Pass-through evaluator that counts candidate evaluations for the
/// session's `Progress` frames. Every entry point delegates verbatim —
/// including the batch-scoped `evaluate_batch_workers`, which the cascade
/// overrides — so counting never perturbs what gets evaluated.
struct CountingEval<'a> {
    inner: &'a dyn Evaluator,
    evaluated: &'a AtomicU64,
}

impl Evaluator for CountingEval<'_> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(arch)
    }

    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        self.evaluated.fetch_add(archs.len() as u64, Ordering::Relaxed);
        self.inner.evaluate_batch(archs)
    }

    fn evaluate_batch_workers(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        self.evaluated.fetch_add(archs.len() as u64, Ordering::Relaxed);
        self.inner.evaluate_batch_workers(archs, workers)
    }
}

/// Runs one search. Builds `spec`'s tiers — every one prices
/// `spec.profile` on `spec.system` with the task's surrogate accuracy; the
/// engine tier measures [`SearchSpec::stream`] on `fleet` — stacks two or
/// more into a ladder, and runs the search, bumping `evaluated` per
/// candidate. With a `cache` log the engine tier answers repeated runs
/// from it and the session's memo files its records under
/// [`SearchSpec::cache_tag`]. Returns the report (with the engine tier's
/// telemetry when it ran), the result and the ladder's per-tier counters
/// (empty for a single tier).
///
/// # Errors
///
/// A spec that names no tier, tiers that are not cheapest first, or keep
/// fractions that are not 1 or one per step, each in `[0, 1]`.
pub fn run_search(
    spec: &SearchSpec,
    fleet: &FleetSpec,
    cache: Option<&SharedCacheLog>,
    evaluated: &AtomicU64,
) -> Result<(SearchReport, SearchResult, Vec<TierStats>), String> {
    let n = spec.tiers.len();
    if n == 0 {
        return Err("--tiers: name at least one tier".into());
    }
    if n > 1 && spec.keep_fracs.len() != 1 && spec.keep_fracs.len() != n - 1 {
        return Err(format!("--keep-frac: need 1 or {} fractions for {n} tiers", n - 1));
    }
    if let Some(f) = spec.keep_fracs.iter().find(|f| !(0.0..=1.0).contains(*f)) {
        return Err(format!("--keep-frac: `{f}` is not a fraction in [0, 1]"));
    }
    let (profile, sys) = (spec.profile, &spec.system);
    let space = DesignSpace::paper(profile);
    let surrogate = SurrogateAccuracy::new(spec.task);
    let accuracy = move |a: &Architecture| surrogate.overall_accuracy(a);
    // The engine tier stays concrete so its telemetry can be read back.
    let engine = spec.tiers.contains(&Fidelity::Measured).then(|| {
        let engine = EngineBackend::new(spec.stream(), profile.num_classes, sys.clone(), accuracy)
            .with_frames(spec.frames)
            .with_warmup(spec.warmup)
            .with_uplink_mbps(sys.link.bandwidth_mbps)
            .with_fleet(fleet.clone());
        match cache {
            Some(log) => engine.with_cache_log(log.clone()),
            None => engine,
        }
    });
    let sim = SimConfig::single_frame();
    let analytic = AnalyticBackend { profile, sys: sys.clone(), accuracy_fn: accuracy };
    let simulated = SimBackend { profile, sys: sys.clone(), sim, accuracy_fn: accuracy };
    let predictor = spec.tiers.contains(&Fidelity::Predicted).then(|| {
        // The training-data pipeline in the search loop: price a small
        // seed population with the simulator and fit the GIN latency
        // predictor on it before the search starts.
        let data = sampled_latencies(&space, 48, spec.config.seed ^ 0x9D1C70, |a| {
            simulate(a, &profile, sys, &sim).frame_latency_s
        });
        let config = PredictorConfig { hidden: 32, epochs: 60, ..Default::default() };
        let predictor = LatencyPredictor::train(config, profile, sys.clone(), &data);
        PredictorEvaluator { predictor, accuracy_fn: accuracy }
    });
    let tiers: Vec<&dyn EvalBackend> = spec
        .tiers
        .iter()
        .map(|tier| match tier {
            Fidelity::Analytic => &analytic as &dyn EvalBackend,
            Fidelity::Simulated => &simulated,
            Fidelity::Predicted => predictor.as_ref().expect("the predictor tier is built"),
            Fidelity::Measured => engine.as_ref().expect("the engine tier is built"),
        })
        .collect();
    if let Some(pair) = tiers.windows(2).find(|p| p[0].cost_hint() > p[1].cost_hint()) {
        return Err(format!(
            "--tiers must be ordered cheapest-first: `{}` (cost {:.0}x) precedes `{}` (cost {:.0}x)",
            pair[0].name(),
            pair[0].cost_hint(),
            pair[1].name(),
            pair[1].cost_hint()
        ));
    }
    let ladder = (n > 1).then(|| {
        let fracs = match spec.keep_fracs[..] {
            [f] => vec![f; n - 1],
            ref fracs => fracs.to_vec(),
        };
        CascadeBackend::ladder(tiers.clone(), spec.objective).with_keep_fracs(&fracs)
    });
    let backend = ladder.as_ref().map_or(tiers[0], |l| l as &dyn EvalBackend);
    let counting = CountingEval { inner: backend, evaluated };
    let mut session = SearchSession::new(&space, &counting)
        .with_objective(spec.objective)
        .with_workers(spec.workers);
    if let Some(log) = cache {
        session = session.with_cache_log(log.clone(), &spec.cache_tag(fleet));
    }
    let result = session.run(&RandomSearch::new(spec.config));
    let mut report = session.report(backend.name(), &result);
    if let Some(engine) = &engine {
        report = report.with_measured(engine.measured_profile()).with_fleet(engine.fleet_stats());
    }
    Ok((report, result, ladder.map_or_else(Vec::new, |l| l.tier_stats())))
}

/// Lowers every zoo entry to its runnable plan, winner first: the one
/// lowering, so the plan measured and cached here is the plan the backend
/// priced during the search and the plan a dispatcher deploys.
fn zoo_plans(result: &SearchResult) -> Vec<ExecutionPlan> {
    result.zoo.iter().map(|z| ExecutionPlan::from_architecture(&z.arch)).collect()
}

/// Stage three (when the spec carries a [`ScenarioTrace`]): replay the
/// trace against the finished zoo on a *session-private* one-pool fleet
/// seeded with the serve-side constants, driving the spec's measurement
/// stream. Private because a scenario mutates fleet state between
/// segments (uplink re-caps, plan swaps) — it must never touch the shared
/// tenant fleet. The per-slot seeding contract makes the reports'
/// prediction-derived fields bit-identical between a served session and
/// [`run_standalone`], for any pool count.
///
/// Returns `None` when the spec has no trace or the replay failed — an
/// empty zoo fails it before anything is spawned (a scenario is a
/// best-effort addendum to the report: it never fails the session that
/// carried it).
///
/// [`ScenarioTrace`]: gcode_core::eval::scenario::ScenarioTrace
fn run_scenario_stage(
    spec: &SearchSpec,
    stream: &[Sample],
    result: &SearchResult,
) -> Option<Vec<gcode_core::eval::scenario::ScenarioReport>> {
    let trace = spec.scenario.as_ref()?;
    let zoo = gcode_core::zoo::ArchitectureZoo::new(result.zoo.clone());
    let mut fleet = serve_fleet(FleetSpec::loopback(1));
    let reports = gcode_engine::replay_on_fleet(&zoo, &mut fleet, stream, trace).ok();
    let _ = fleet.shutdown();
    reports
}

/// The whole session pipeline, shared by a served session and
/// [`run_standalone`]: search [`SearchSpec::served`] (bumping `evaluated`
/// per candidate), measure the zoo (when `measure_zoo` is set, zoo order,
/// winner first) on `fleet` through [`measure_cached`] — a plan whose run
/// is already on record for this fleet and the spec's stream never
/// reaches the fleet, and `on_deploy` is called only when some plan does —
/// fold the runs into the report's `MeasuredProfile`, then replay the
/// spec's scenario trace, if any.
pub(crate) fn run_pipeline(
    spec: &SessionSpec,
    session: u64,
    evaluated: &AtomicU64,
    cache: Option<&SharedCacheLog>,
    fleet: &EdgeFleet,
    on_deploy: impl FnOnce(),
) -> SessionOutcome {
    let spec = SearchSpec::served(spec);
    let (mut report, result, _) = run_search(&spec, &FleetSpec::default(), None, evaluated)
        .expect("the served preset is a valid ladder");
    // The name served reports have always carried.
    report.backend = "serve:analytic-sim".into();
    let stream = spec.stream();
    let mut winner_predictions = Vec::new();
    if spec.measure_zoo && !result.zoo.is_empty() {
        let plans = zoo_plans(&result);
        let runs = measure_cached(fleet, &plans, &stream, cache, on_deploy);
        let mut fold = ProfileFold::default();
        for (outcome, from_cache) in &runs {
            fold.absorb(outcome, 0, *from_cache);
        }
        report = report.with_measured(fold.profile());
        if let Some((Ok((preds, _)), _)) = runs.into_iter().next() {
            winner_predictions = preds;
        }
    }
    if let Some(scenarios) = run_scenario_stage(&spec, &stream, &result) {
        report = report.with_scenarios(scenarios);
    }
    SessionOutcome { session, report, result, winner_predictions }
}

/// Runs a session spec to completion without any server: the identical
/// search, then (when `measure_zoo` is set) the identical zoo deployment
/// on a private one-pool fleet with the serve-side seeds, then (when the
/// spec carries a scenario trace) the identical scenario replay. The
/// returned outcome's zoo, scores, winner predictions and scenario
/// reports' deterministic views are bit-identical to what a
/// [`crate::SearchServer`] answers for the same spec — only the
/// wall-clock side of the measured profile may differ, which is exactly
/// what the session-isolation tests mask out before comparing.
pub fn run_standalone(spec: &SessionSpec) -> SessionOutcome {
    let fleet = serve_fleet(FleetSpec::loopback(1));
    let outcome = run_pipeline(spec, 0, &AtomicU64::new(0), None, &fleet, || {});
    let _ = fleet.shutdown();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::eval::Objective;
    use gcode_core::search::SearchConfig;
    use gcode_engine::{plan_wire_id, SessionTask, MAX_SESSION_ITERATIONS};

    fn served_search(spec: &SessionSpec, evaluated: &AtomicU64) -> (SearchReport, SearchResult) {
        let spec = SearchSpec::served(spec);
        let (report, result, _) =
            run_search(&spec, &FleetSpec::default(), None, evaluated).expect("a valid ladder");
        (report, result)
    }

    fn spec(seed: u64, task: SessionTask) -> SessionSpec {
        SessionSpec {
            config: SearchConfig { iterations: 24, zoo_size: 3, seed, ..SearchConfig::default() },
            objective: Objective::new(0.25, 1.0, 5.0),
            task,
            measure_zoo: false,
            scenario: None,
        }
    }

    #[test]
    fn search_stage_is_seed_reproducible_and_seed_sensitive() {
        let scratch = AtomicU64::new(0);
        let (r1, a) = served_search(&spec(7, SessionTask::ModelNet40), &scratch);
        let (r2, b) = served_search(&spec(7, SessionTask::ModelNet40), &scratch);
        assert_eq!(a, b, "same seed, same zoo");
        assert_eq!(r1, r2, "same seed, same report");
        let (_, c) = served_search(&spec(8, SessionTask::ModelNet40), &scratch);
        assert_ne!(a.history, c.history, "different seed, different trajectory");
    }

    #[test]
    fn zoo_plans_are_the_plans_the_search_and_the_dispatcher_lower() {
        // One architecture, one plan, one wire id: what this server measures
        // and caches is what `EngineBackend` priced and what a dispatcher
        // deploys for `ArchitectureZoo::dispatch`'s pick (gcode-engine's
        // `backend_deploys_the_plan_the_dispatcher_picks` is the other half).
        let scratch = AtomicU64::new(0);
        for task in [SessionTask::ModelNet40, SessionTask::Mr] {
            let (_, result) = served_search(&spec(7, task), &scratch);
            let plans = zoo_plans(&result);
            assert_eq!(plans.len(), result.zoo.len());
            for (entry, plan) in result.zoo.iter().zip(&plans) {
                let lowered = ExecutionPlan::from_architecture(&entry.arch);
                assert_eq!(plan_wire_id(plan), plan_wire_id(&lowered), "{task:?}: {}", entry.arch);
            }
        }
    }

    #[test]
    fn both_tasks_produce_feasible_winners() {
        let scratch = AtomicU64::new(0);
        for task in [SessionTask::ModelNet40, SessionTask::Mr] {
            let (_, result) = served_search(&spec(3, task), &scratch);
            assert!(result.best().is_some(), "{task:?} search finds a feasible candidate");
        }
    }

    #[test]
    fn evaluation_counter_tracks_the_trial_budget() {
        let evaluated = AtomicU64::new(0);
        let s = spec(5, SessionTask::ModelNet40);
        served_search(&s, &evaluated);
        let n = evaluated.load(Ordering::Relaxed);
        assert!(
            n >= s.config.iterations as u64,
            "stage 1 + stage 2 evaluate at least the trial budget, got {n}"
        );
    }

    #[test]
    fn stage_two_budget_is_capped_like_stage_one() {
        // Stage 2 only stops early when no scale-down is left; a client's
        // `usize::MAX` must not park a worker for good.
        let mut capped = spec(9, SessionTask::ModelNet40);
        capped.config.tuning_iterations = MAX_SESSION_ITERATIONS;
        let mut unbounded = capped.clone();
        unbounded.config.tuning_iterations = usize::MAX;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_standalone(&unbounded));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a usize::MAX stage-2 budget finishes within 60 s");
        assert_eq!(outcome, run_standalone(&capped));
    }

    #[test]
    fn standalone_run_measures_the_zoo_when_asked() {
        let mut s = spec(11, SessionTask::ModelNet40);
        s.config.iterations = 16;
        s.config.zoo_size = 2;
        s.measure_zoo = true;
        let outcome = run_standalone(&s);
        let measured = outcome.report.measured.expect("measured profile attached");
        assert!(measured.frames > 0, "zoo deployments streamed frames");
        assert_eq!(measured.errors, 0);
        assert_eq!(
            outcome.winner_predictions.len(),
            SearchSpec::served(&s).stream().len(),
            "one prediction per stream frame"
        );
    }
}
