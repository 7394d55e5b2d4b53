//! The deterministic per-session search pipeline, and its standalone twin.
//!
//! A served session runs in two stages. Stage one is the search itself: a
//! two-rung analytic→sim fidelity ladder over the task's design space,
//! driven by the client's `SearchConfig` — every source of randomness is
//! derived from `config.seed`, so the stage is bit-reproducible and
//! completely independent of the other tenants. Stage two (when
//! `measure_zoo` is set) deploys the finished zoo on an edge fleet and
//! records the live measurements; predictions there are pinned by the
//! fleet's per-slot-seeded supernet `WeightBank`, so *which* fleet
//! measures the zoo — the server's shared one, interleaved candidate by
//! candidate with other tenants, or a private single pool — never changes
//! them.
//!
//! [`run_standalone`] runs both stages without any server, over a private
//! one-pool fleet: the reference a served session is asserted
//! bit-identical against in the session-isolation tests. The two differ
//! only in the fleet the zoo runs on and the cache log, if any; the rest
//! of the pipeline is one function (`run_pipeline`).
//!
//! The server owns all workload fixtures (datasets, streams, system
//! config, fleet seeds): a client ships a [`SessionSpec`], never data, so
//! two clients submitting the same spec get the same answer.

use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::backend::{AnalyticBackend, CascadeBackend};
use gcode_core::eval::{Evaluator, Metrics, SearchReport, SearchSession};
use gcode_core::search::{RandomSearch, SearchResult};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_engine::{
    measure_cached, EdgeFleet, ExecutionPlan, FleetSpec, ProfileFold, SessionOutcome, SessionSpec,
    SessionTask,
};
use gcode_graph::datasets::{PointCloudDataset, Sample, TextGraphDataset};
use gcode_hardware::SystemConfig;
use gcode_sim::{SimBackend, SimConfig};
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

/// Seed of the per-task measurement streams.
const SERVE_STREAM_SEED: u64 = 47;

/// Frames per zoo deployment (stream length).
const SERVE_STREAM_LEN: usize = 4;

/// Hard cap on a client's trial budget in both search stages (stage-1
/// `iterations` and stage-2 `tuning_iterations`) — admission control for
/// the search stage itself: one tenant must not park a worker slot on a
/// year-long search.
pub const MAX_SESSION_ITERATIONS: usize = 20_000;

/// The design-space profile a task's sessions search over (reduced-size
/// mini workloads: the serve loop optimizes for session throughput, and
/// the space/cost structure is what matters, not the node count).
fn profile_of(task: SessionTask) -> WorkloadProfile {
    match task {
        SessionTask::ModelNet40 => WorkloadProfile::modelnet40_mini(24, 4),
        SessionTask::Mr => WorkloadProfile {
            num_nodes: 12,
            in_dim: 24,
            provides_graph: true,
            provided_degree: 4,
            num_classes: 2,
        },
    }
}

fn surrogate_of(task: SessionTask) -> SurrogateTask {
    match task {
        SessionTask::ModelNet40 => SurrogateTask::ModelNet40,
        SessionTask::Mr => SurrogateTask::Mr,
    }
}

/// The fixed measurement stream zoo winners of this task deploy against.
/// Regenerated per call (cheap at this size) and seeded by server
/// constants, so every session of a task measures the identical frames.
fn stream_of(task: SessionTask) -> Vec<Sample> {
    match task {
        SessionTask::ModelNet40 => {
            PointCloudDataset::generate(SERVE_STREAM_LEN, 24, 4, SERVE_STREAM_SEED)
                .samples()
                .to_vec()
        }
        SessionTask::Mr => TextGraphDataset::generate(SERVE_STREAM_LEN, 12, 24, SERVE_STREAM_SEED)
            .samples()
            .to_vec(),
    }
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

/// Stage one: the deterministic search. `evaluated` is bumped per
/// candidate so the server can answer `Poll` with live progress; pass a
/// scratch counter when running standalone.
fn run_search(spec: &SessionSpec, evaluated: &AtomicU64) -> (SearchReport, SearchResult) {
    let profile = profile_of(spec.task);
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);
    let s_cheap = SurrogateAccuracy::new(surrogate_of(spec.task));
    let cheap = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| s_cheap.overall_accuracy(a),
    };
    let s_mid = SurrogateAccuracy::new(surrogate_of(spec.task));
    let mid = SimBackend {
        profile,
        sys,
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| s_mid.overall_accuracy(a),
    };
    let ladder =
        CascadeBackend::ladder(vec![&cheap, &mid], spec.objective).with_keep_fracs(&[0.25]);
    let counting = CountingEval { inner: &ladder, evaluated };
    let mut session = SearchSession::new(&space, &counting).with_objective(spec.objective);
    let mut config = spec.config;
    config.iterations = config.iterations.min(MAX_SESSION_ITERATIONS);
    config.tuning_iterations = config.tuning_iterations.min(MAX_SESSION_ITERATIONS);
    let result = session.run(&RandomSearch::new(config));
    let report = session.report("serve:analytic-sim", &result);
    (report, result)
}

/// Lowers every zoo entry to its runnable plan, winner first: the one
/// lowering, so the plan measured and cached here is the plan the backend
/// priced during the search and the plan a dispatcher deploys.
fn zoo_plans(result: &SearchResult) -> Vec<ExecutionPlan> {
    result.zoo.iter().map(|z| ExecutionPlan::from_architecture(&z.arch)).collect()
}

/// Stage three (when the spec carries a [`ScenarioTrace`]): replay the
/// trace against the finished zoo on a *session-private* one-pool fleet
/// seeded with the serve-side constants, driving the task's fixed
/// measurement stream. Private because a scenario mutates fleet state
/// between segments (uplink re-caps, plan swaps) — it must never touch
/// the shared tenant fleet. The per-slot seeding contract makes the
/// reports' prediction-derived fields bit-identical between a served
/// session and [`run_standalone`], for any pool count.
///
/// Returns `None` when the spec has no trace or the replay failed — an
/// empty zoo fails it before anything is spawned (a scenario is a
/// best-effort addendum to the report: it never fails the session that
/// carried it).
fn run_scenario_stage(
    spec: &SessionSpec,
    result: &SearchResult,
) -> Option<Vec<gcode_core::eval::scenario::ScenarioReport>> {
    let trace = spec.scenario.as_ref()?;
    let zoo = gcode_core::zoo::ArchitectureZoo::new(result.zoo.clone());
    let mut fleet = serve_fleet(FleetSpec::loopback(1));
    let reports =
        gcode_engine::replay_on_fleet(&zoo, &mut fleet, &stream_of(spec.task), trace).ok();
    let _ = fleet.shutdown();
    reports
}

/// The whole session pipeline, shared by a served session and
/// [`run_standalone`]: search (bumping `evaluated` per candidate), measure
/// the zoo (when `measure_zoo` is set, zoo order, winner first) on `fleet`
/// through [`measure_cached`] — a plan whose run is already on record for
/// this fleet and the task's stream never reaches the fleet, and
/// `on_deploy` is called only when some plan does — fold the runs into the
/// report's `MeasuredProfile`, then replay the spec's scenario trace, if
/// any.
pub(crate) fn run_pipeline(
    spec: &SessionSpec,
    session: u64,
    evaluated: &AtomicU64,
    cache: Option<&gcode_core::cachelog::SharedCacheLog>,
    fleet: &EdgeFleet,
    on_deploy: impl FnOnce(),
) -> SessionOutcome {
    let (mut report, result) = run_search(spec, evaluated);
    let mut winner_predictions = Vec::new();
    if spec.measure_zoo && !result.zoo.is_empty() {
        let plans = zoo_plans(&result);
        let runs = measure_cached(fleet, &plans, &stream_of(spec.task), cache, on_deploy);
        let mut fold = ProfileFold::default();
        for (outcome, from_cache) in &runs {
            fold.absorb(outcome, 0, *from_cache);
        }
        report = report.with_measured(fold.profile());
        if let Some((Ok((preds, _)), _)) = runs.into_iter().next() {
            winner_predictions = preds;
        }
    }
    if let Some(scenarios) = run_scenario_stage(spec, &result) {
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
    use gcode_engine::plan_wire_id;

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
        let (r1, a) = run_search(&spec(7, SessionTask::ModelNet40), &scratch);
        let (r2, b) = run_search(&spec(7, SessionTask::ModelNet40), &scratch);
        assert_eq!(a, b, "same seed, same zoo");
        assert_eq!(r1, r2, "same seed, same report");
        let (_, c) = run_search(&spec(8, SessionTask::ModelNet40), &scratch);
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
            let (_, result) = run_search(&spec(7, task), &scratch);
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
            let (_, result) = run_search(&spec(3, task), &scratch);
            assert!(result.best().is_some(), "{task:?} search finds a feasible candidate");
        }
    }

    #[test]
    fn evaluation_counter_tracks_the_trial_budget() {
        let evaluated = AtomicU64::new(0);
        let s = spec(5, SessionTask::ModelNet40);
        run_search(&s, &evaluated);
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
            SERVE_STREAM_LEN,
            "one prediction per stream frame"
        );
    }
}
