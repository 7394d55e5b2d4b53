//! Evolutionary-algorithm search baseline for the Fig. 10(a) ablation.
//!
//! The paper's finding: in the fused architecture+mapping space, an EA "gets
//! stuck in a cycle of identifying valid architectures" because mutation and
//! crossover keep producing invalid sequences (scored −1), even when the
//! initial population is seeded with valid candidates.

use crate::arch::Architecture;
use crate::eval::{Evaluator, Objective, SearchSession, SearchStrategy};
use crate::search::{ScoredArch, SearchConfig, SearchResult};
use crate::space::DesignSpace;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// EA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EaConfig {
    /// Population size.
    pub population: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-offspring mutation probability.
    pub mutation_prob: f64,
    /// Slots perturbed per mutation. A naive EA explores the fused space
    /// with multi-point mutation; in a space where most sequences are
    /// invalid, this is precisely what makes it burn its budget (Fig. 10a).
    pub mutation_points: usize,
    /// Seed the initial population with *valid* architectures
    /// (the "EA+Valid initial" series of Fig. 10a).
    pub valid_init: bool,
}

impl Default for EaConfig {
    fn default() -> Self {
        Self {
            population: 20,
            tournament: 3,
            mutation_prob: 0.9,
            mutation_points: 3,
            valid_init: false,
        }
    }
}

/// Evolutionary search with the same evaluation budget semantics as
/// [`crate::search::RandomSearch`]: `cfg.iterations` candidate evaluations
/// total, history records the running best score. The initial population
/// is evaluated in `cfg.batch_size` batches; the generational loop is
/// inherently sequential but still benefits from the session's memo cache
/// whenever crossover/mutation reproduce an already-scored candidate.
#[derive(Debug, Clone, Copy)]
pub struct Ea {
    /// Shared search hyper-parameters (budget, seed, zoo size).
    pub cfg: SearchConfig,
    /// EA-specific hyper-parameters.
    pub ea: EaConfig,
}

impl Ea {
    /// Builds the strategy from its hyper-parameters.
    pub fn new(cfg: SearchConfig, ea: EaConfig) -> Self {
        Self { cfg, ea }
    }
}

/// Sentinel entry for a structurally invalid sequence: it costs a full
/// evaluation slot but never reaches the evaluator.
fn invalid_candidate(arch: Architecture) -> ScoredArch {
    ScoredArch {
        arch,
        score: -1.0,
        accuracy: 0.0,
        latency_s: f64::INFINITY,
        energy_j: f64::INFINITY,
    }
}

/// Scores one candidate the way the EA sees it.
fn score_candidate(
    session: &mut SearchSession<'_>,
    objective: &Objective,
    arch: Architecture,
    misses: &mut usize,
) -> ScoredArch {
    if arch.validate(&session.space().profile).is_err() {
        return invalid_candidate(arch);
    }
    let m = session.evaluate(&arch);
    if !objective.feasible(&m) {
        *misses += 1;
    }
    objective.scored(arch, m)
}

impl SearchStrategy for Ea {
    fn search(&self, session: &mut SearchSession<'_>) -> SearchResult {
        let (cfg, ea) = (&self.cfg, &self.ea);
        let objective = session.objective();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xEA);
        let mut history = Vec::with_capacity(cfg.iterations);
        let mut best_so_far = f64::NEG_INFINITY;
        let mut constraint_misses = 0usize;
        let mut zoo: Vec<ScoredArch> = Vec::new();

        // Initial population, evaluated in batches.
        let mut budget = cfg.iterations;
        let mut validity_draws = 0usize;
        let init_len = ea.population.min(budget);
        let mut initial = Vec::with_capacity(init_len);
        let sampler = ea.valid_init.then(|| session.space().sampler());
        for _ in 0..init_len {
            let arch = match &sampler {
                Some(sampler) => {
                    validity_draws += 1;
                    sampler.sample(&mut rng)
                }
                None => session.space().sample_ops(&mut rng),
            };
            initial.push(arch);
        }
        let validity: Vec<bool> =
            initial.iter().map(|a| a.validate(&session.space().profile).is_ok()).collect();
        let valid: Vec<Architecture> =
            initial.iter().zip(&validity).filter(|(_, ok)| **ok).map(|(a, _)| a.clone()).collect();
        // Batched evaluation (honoring cfg.batch_size) covers the whole
        // valid initial population; the results are consumed directly
        // (never re-requested), so each member costs exactly one
        // evaluation even with memoization off.
        let mut valid_metrics = Vec::with_capacity(valid.len());
        for chunk in valid.chunks(cfg.batch_size.max(1)) {
            valid_metrics.extend(session.evaluate_batch(chunk));
        }
        let mut valid_metrics = valid_metrics.into_iter();
        let mut population: Vec<ScoredArch> = Vec::with_capacity(init_len);
        for (arch, is_valid) in initial.into_iter().zip(validity) {
            let scored = if is_valid {
                let m = valid_metrics.next().expect("one batch result per valid member");
                if !objective.feasible(&m) {
                    constraint_misses += 1;
                }
                objective.scored(arch, m)
            } else {
                invalid_candidate(arch)
            };
            budget -= 1;
            best_so_far = best_so_far.max(scored.score);
            history.push(best_so_far);
            population.push(scored);
        }

        // Generational loop.
        while budget > 0 {
            let parent_a = tournament(&population, ea.tournament, &mut rng);
            let parent_b = tournament(&population, ea.tournament, &mut rng);
            let mut child = session.space().crossover(&parent_a.arch, &parent_b.arch, &mut rng);
            if rng.gen_bool(ea.mutation_prob) {
                for _ in 0..ea.mutation_points.max(1) {
                    child = session.space().mutate(&child, &mut rng);
                }
            }
            let scored = score_candidate(session, &objective, child, &mut constraint_misses);
            budget -= 1;
            best_so_far = best_so_far.max(scored.score);
            history.push(best_so_far);
            // Replace the worst member.
            if let Some((worst_idx, worst)) =
                population.iter().enumerate().min_by(|a, b| a.1.score.total_cmp(&b.1.score))
            {
                if scored.score > worst.score {
                    population[worst_idx] = scored;
                }
            }
        }

        for member in population {
            if member.score > -1.0 {
                zoo.push(member);
            }
        }
        zoo.sort_by(|a, b| b.score.total_cmp(&a.score));
        zoo.truncate(cfg.zoo_size);
        SearchResult { zoo, history, constraint_misses, validity_draws }
    }
}

/// Convenience wrapper: runs [`Ea`] through a fresh
/// [`SearchSession`].
pub fn evolutionary_search(
    space: &DesignSpace,
    cfg: &SearchConfig,
    ea: &EaConfig,
    objective: &Objective,
    evaluator: &dyn Evaluator,
) -> SearchResult {
    SearchSession::new(space, evaluator).with_objective(*objective).run(&Ea::new(*cfg, *ea))
}

fn tournament<'a>(population: &'a [ScoredArch], k: usize, rng: &mut impl Rng) -> &'a ScoredArch {
    let mut best: Option<&ScoredArch> = None;
    for _ in 0..k.max(1) {
        let cand = population.choose(rng).expect("non-empty population");
        if best.is_none() || cand.score > best.expect("set").score {
            best = Some(cand);
        }
    }
    best.expect("tournament winner")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::WorkloadProfile;
    use crate::eval::backend::AnalyticBackend;
    use crate::search::random_search;
    use gcode_hardware::SystemConfig;

    fn setup() -> (DesignSpace, SearchConfig, Objective) {
        let space = DesignSpace::paper(WorkloadProfile::modelnet40());
        let cfg = SearchConfig { iterations: 200, seed: 21, ..SearchConfig::default() };
        let objective = Objective {
            latency_constraint_s: 0.5,
            energy_constraint_j: 3.0,
            ..Objective::default()
        };
        (space, cfg, objective)
    }

    fn evaluator() -> AnalyticBackend<impl Fn(&Architecture) -> f64 + Sync> {
        AnalyticBackend {
            profile: WorkloadProfile::modelnet40(),
            sys: SystemConfig::tx2_to_i7(40.0),
            // Capacity-sensitive accuracy so the search has a real signal.
            accuracy_fn: |a: &Architecture| {
                let cap: usize = a
                    .ops()
                    .iter()
                    .map(|o| match o {
                        crate::op::Op::Combine { dim } => *dim,
                        crate::op::Op::Aggregate(_) => 16,
                        crate::op::Op::Sample(_) => 8,
                        _ => 0,
                    })
                    .sum();
                0.85 + 0.08 * (1.0 - (-(cap as f64) / 96.0).exp())
            },
        }
    }

    #[test]
    fn ea_history_monotone_and_budgeted() {
        let (space, cfg, objective) = setup();
        let eval = evaluator();
        let r = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &eval);
        assert_eq!(r.history.len(), cfg.iterations);
        for w in r.history.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn random_search_leads_plain_ea_early() {
        // The Fig. 10a claim is about search *efficiency*: within a modest
        // trial budget the constraint-based random search is ahead, because
        // the EA burns early evaluations on invalid offspring (scored −1)
        // in the fused space. Checked at the paper's early checkpoints
        // under its tight constraints.
        let (space, mut cfg, mut objective) = setup();
        cfg.iterations = 300;
        objective.latency_constraint_s = 0.15;
        objective.energy_constraint_j = 1.0;
        let e1 = evaluator();
        let rand_result = random_search(&space, &cfg, &objective, &e1);
        let e2 = evaluator();
        let ea_result = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &e2);
        for checkpoint in [50usize, 100] {
            assert!(
                rand_result.history[checkpoint - 1] >= ea_result.history[checkpoint - 1],
                "at {checkpoint} trials random ({:.3}) should lead EA ({:.3})",
                rand_result.history[checkpoint - 1],
                ea_result.history[checkpoint - 1]
            );
        }
    }

    #[test]
    fn valid_init_starts_above_minus_one() {
        let (space, cfg, objective) = setup();
        let eval = evaluator();
        let ea = EaConfig { valid_init: true, ..EaConfig::default() };
        let r = evolutionary_search(&space, &cfg, &ea, &objective, &eval);
        // With a valid initial population, some early candidate usually
        // passes constraints; at minimum the validity draws were spent.
        assert!(r.validity_draws > 0);
    }

    #[test]
    fn plain_ea_wastes_evaluations_on_invalid_candidates() {
        let (space, cfg, objective) = setup();
        let eval = evaluator();
        let r = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &eval);
        // Scores of -1 dominate early history for the plain EA.
        assert!(r.history[0] <= 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, cfg, objective) = setup();
        let e1 = evaluator();
        let e2 = evaluator();
        let r1 = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &e1);
        let r2 = evolutionary_search(&space, &cfg, &EaConfig::default(), &objective, &e2);
        assert_eq!(r1.history, r2.history);
    }

    #[test]
    fn initial_population_is_evaluated_once_even_without_memoization() {
        // The batched init path must consume its own results: no member may
        // be evaluated twice just because the memo cache is off.
        use crate::eval::Evaluator;
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Counting {
            calls: AtomicU64,
        }
        impl Evaluator for Counting {
            fn evaluate(&self, arch: &Architecture) -> crate::eval::Metrics {
                self.calls.fetch_add(1, Ordering::Relaxed);
                crate::eval::Metrics {
                    accuracy: 0.9,
                    latency_s: 0.001 * arch.len() as f64,
                    energy_j: 0.01,
                }
            }
        }

        let (space, mut cfg, objective) = setup();
        let ea = EaConfig { valid_init: true, population: 20, ..EaConfig::default() };
        cfg.iterations = 20; // init only: every slot is a population member
        let eval = Counting { calls: AtomicU64::new(0) };
        let mut session =
            SearchSession::new(&space, &eval).with_objective(objective).with_memoization(false);
        let r = session.run(&Ea::new(cfg, ea));
        assert_eq!(r.history.len(), 20);
        assert_eq!(eval.calls.load(Ordering::Relaxed), 20, "one evaluation per initial member");
    }
}
