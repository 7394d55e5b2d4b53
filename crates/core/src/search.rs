//! Constraint-based random search (Alg. 1) expressed as a
//! [`SearchStrategy`], plus the result types shared by every strategy.

use crate::arch::Architecture;
use crate::eval::{Evaluator, Objective, SearchSession, SearchStrategy};
use crate::space::DesignSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Search hyper-parameters (Alg. 1 inputs). The objective — `λ` and the
/// performance constraints — lives separately in
/// [`crate::eval::Objective`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Stage-1 iterations `T` (paper: 2000).
    pub iterations: usize,
    /// Stage-2 tuning iterations `T_f` (paper: 10).
    pub tuning_iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// How many top candidates to keep for the architecture zoo.
    pub zoo_size: usize,
    /// Accuracy loss tolerated by stage-2 scale-down (fraction, e.g. 0.003).
    pub tuning_tolerance: f64,
    /// Candidates per batched evaluation call. Batching preserves the
    /// trial order (and therefore seed-for-seed results) while letting
    /// evaluators amortize work across candidates.
    pub batch_size: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            iterations: 2000,
            tuning_iterations: 10,
            seed: 0,
            zoo_size: 8,
            tuning_tolerance: 0.003,
            batch_size: 16,
        }
    }
}

/// A fully evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredArch {
    /// The architecture.
    pub arch: Architecture,
    /// Combined score `acc − λ(P̂_sys + Ê_dev)` (−1 for constraint misses).
    pub score: f64,
    /// Validation accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Estimated/simulated system latency in seconds.
    pub latency_s: f64,
    /// Estimated on-device energy in joules.
    pub energy_j: f64,
}

/// Outcome of a search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Top candidates by score, best first — the architecture-zoo payload.
    pub zoo: Vec<ScoredArch>,
    /// Running best score after each trial (Fig. 10a series).
    pub history: Vec<f64>,
    /// Trials that failed the performance constraints.
    pub constraint_misses: usize,
    /// Candidates drawn by [`DesignSpace::sampler`], one draw each;
    /// kept because it is in the session-outcome JSON.
    pub validity_draws: usize,
}

impl SearchResult {
    /// Best candidate, if any trial passed the constraints.
    pub fn best(&self) -> Option<&ScoredArch> {
        self.zoo.first()
    }

    /// Candidate with the lowest latency in the zoo.
    pub fn best_latency(&self) -> Option<&ScoredArch> {
        self.zoo.iter().min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
    }
}

/// The two-stage constraint-based random search of Alg. 1.
///
/// Stage 1 samples valid operation sets, rejects constraint violators, and
/// keeps a zoo of top scorers; candidates are evaluated in batches through
/// the session's memo cache without changing the trial order. Stage 2
/// tries function scale-downs on the best candidate, adopting any variant
/// that stays within `tuning_tolerance` of its accuracy while improving
/// latency or energy.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// Hyper-parameters.
    pub cfg: SearchConfig,
}

impl RandomSearch {
    /// Builds the strategy from its hyper-parameters.
    pub fn new(cfg: SearchConfig) -> Self {
        Self { cfg }
    }
}

impl SearchStrategy for RandomSearch {
    fn search(&self, session: &mut SearchSession<'_>) -> SearchResult {
        let cfg = &self.cfg;
        let objective = session.objective();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut zoo: Vec<ScoredArch> = Vec::new();
        let mut history = Vec::with_capacity(cfg.iterations);
        let mut best_so_far = f64::NEG_INFINITY;
        let mut constraint_misses = 0usize;
        let mut validity_draws = 0usize;
        let sampler = session.space().sampler();

        // Stage 1: operation search, in evaluation batches.
        let mut remaining = cfg.iterations;
        while remaining > 0 {
            let batch_len = remaining.min(cfg.batch_size.max(1));
            let mut batch = Vec::with_capacity(batch_len);
            for _ in 0..batch_len {
                batch.push(sampler.sample(&mut rng));
            }
            validity_draws += batch_len;
            let metrics = session.evaluate_batch(&batch);
            for (arch, m) in batch.into_iter().zip(metrics) {
                if !objective.feasible(&m) {
                    constraint_misses += 1;
                }
                let scored = objective.scored(arch, m);
                best_so_far = best_so_far.max(scored.score);
                history.push(best_so_far);
                if scored.score > -1.0 {
                    insert_into_zoo(&mut zoo, scored, cfg.zoo_size);
                }
            }
            remaining -= batch_len;
        }

        // Stage 2: function scale-down tuning on the best candidate. Each
        // acceptance feeds the next proposal, so this stays sequential.
        if let Some(best) = zoo.first().cloned() {
            let mut current = best;
            for _ in 0..cfg.tuning_iterations {
                let Some(candidate) = session.space().scale_down(&current.arch, &mut rng) else {
                    break;
                };
                if candidate.validate(&session.space().profile).is_err() {
                    continue;
                }
                let m = session.evaluate(&candidate);
                if !objective.feasible(&m) {
                    continue;
                }
                let improves = m.latency_s < current.latency_s || m.energy_j < current.energy_j;
                if improves && m.accuracy + cfg.tuning_tolerance >= current.accuracy {
                    current = objective.scored(candidate, m);
                }
            }
            insert_into_zoo(&mut zoo, current, cfg.zoo_size);
        }

        SearchResult { zoo, history, constraint_misses, validity_draws }
    }
}

/// Convenience wrapper: runs [`RandomSearch`] through a fresh
/// [`SearchSession`] and returns the result.
pub fn random_search(
    space: &DesignSpace,
    cfg: &SearchConfig,
    objective: &Objective,
    evaluator: &dyn Evaluator,
) -> SearchResult {
    SearchSession::new(space, evaluator).with_objective(*objective).run(&RandomSearch::new(*cfg))
}

pub(crate) fn insert_into_zoo(zoo: &mut Vec<ScoredArch>, candidate: ScoredArch, cap: usize) {
    if zoo.iter().any(|z| z.arch == candidate.arch && z.score >= candidate.score) {
        return;
    }
    zoo.retain(|z| z.arch != candidate.arch);
    zoo.push(candidate);
    zoo.sort_by(|a, b| b.score.total_cmp(&a.score));
    zoo.truncate(cap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::WorkloadProfile;
    use crate::eval::backend::AnalyticBackend;
    use gcode_hardware::SystemConfig;

    fn setup() -> (DesignSpace, SearchConfig, Objective) {
        let space = DesignSpace::paper(WorkloadProfile::modelnet40());
        let cfg = SearchConfig {
            iterations: 150,
            tuning_iterations: 5,
            seed: 11,
            ..SearchConfig::default()
        };
        let objective = Objective {
            latency_constraint_s: 0.5,
            energy_constraint_j: 3.0,
            ..Objective::default()
        };
        (space, cfg, objective)
    }

    fn evaluator(sys: SystemConfig) -> AnalyticBackend<impl Fn(&Architecture) -> f64 + Sync> {
        AnalyticBackend {
            profile: WorkloadProfile::modelnet40(),
            sys,
            // Accuracy proxy: mildly rewards more Combine capacity.
            accuracy_fn: |a: &Architecture| {
                let cap: usize = a
                    .ops()
                    .iter()
                    .map(|o| match o {
                        crate::op::Op::Combine { dim } => *dim,
                        crate::op::Op::Aggregate(_) => 8,
                        _ => 0,
                    })
                    .sum();
                0.85 + 0.10 * (1.0 - (-(cap as f64) / 64.0).exp())
            },
        }
    }

    #[test]
    fn search_finds_constraint_satisfying_architectures() {
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        let result = random_search(&space, &cfg, &objective, &eval);
        let best = result.best().expect("should find candidates");
        assert!(best.latency_s < objective.latency_constraint_s);
        assert!(best.energy_j < objective.energy_constraint_j);
        assert!(best.score > -1.0);
        assert!(best.arch.validate(&space.profile).is_ok());
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::tx2_to_1060(40.0));
        let result = random_search(&space, &cfg, &objective, &eval);
        assert_eq!(result.history.len(), cfg.iterations);
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn zoo_sorted_and_bounded() {
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::pi_to_1060(40.0));
        let result = random_search(&space, &cfg, &objective, &eval);
        assert!(result.zoo.len() <= cfg.zoo_size);
        for w in result.zoo.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // No duplicate architectures in the zoo.
        for i in 0..result.zoo.len() {
            for j in i + 1..result.zoo.len() {
                assert_ne!(result.zoo[i].arch, result.zoo[j].arch);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, cfg, objective) = setup();
        let e1 = evaluator(SystemConfig::tx2_to_i7(40.0));
        let e2 = evaluator(SystemConfig::tx2_to_i7(40.0));
        let r1 = random_search(&space, &cfg, &objective, &e1);
        let r2 = random_search(&space, &cfg, &objective, &e2);
        assert_eq!(r1.history, r2.history);
        assert_eq!(r1.best().map(|b| b.arch.clone()), r2.best().map(|b| b.arch.clone()));
    }

    #[test]
    fn batch_size_does_not_change_results() {
        // Batching is an evaluation-transport detail: the sampled trial
        // sequence, history and zoo must be identical for any batch size.
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        let baseline =
            random_search(&space, &SearchConfig { batch_size: 1, ..cfg }, &objective, &eval);
        for batch_size in [2usize, 7, 64, 1000] {
            let run = random_search(&space, &SearchConfig { batch_size, ..cfg }, &objective, &eval);
            assert_eq!(run.history, baseline.history, "batch_size {batch_size}");
            assert_eq!(run.best().map(|b| b.arch.clone()), baseline.best().map(|b| b.arch.clone()));
        }
    }

    #[test]
    fn tight_constraints_produce_misses() {
        let (space, cfg, mut objective) = setup();
        objective.latency_constraint_s = 1e-6; // impossible
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        let result = random_search(&space, &cfg, &objective, &eval);
        assert_eq!(result.constraint_misses, cfg.iterations);
        assert!(result.zoo.is_empty());
        assert!(result.history.iter().all(|&s| s == -1.0));
    }

    #[test]
    fn best_latency_selector() {
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        let result = random_search(&space, &cfg, &objective, &eval);
        let bl = result.best_latency().expect("non-empty zoo");
        for z in &result.zoo {
            assert!(bl.latency_s <= z.latency_s);
        }
    }

    #[test]
    fn lambda_tradeoff_moves_selection_toward_speed() {
        let (space, mut cfg, mut objective) = setup();
        cfg.iterations = 300;
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        objective.lambda = 0.01;
        let accurate = random_search(&space, &cfg, &objective, &eval);
        objective.lambda = 1.0;
        let fast = random_search(&space, &cfg, &objective, &eval);
        let (a, f) = (accurate.best().unwrap(), fast.best().unwrap());
        assert!(
            f.latency_s <= a.latency_s,
            "large λ should prefer faster archs: {} vs {}",
            f.latency_s,
            a.latency_s
        );
    }

    #[test]
    fn session_reuse_carries_the_cache_across_runs() {
        let (space, cfg, objective) = setup();
        let eval = evaluator(SystemConfig::tx2_to_i7(40.0));
        let mut session = SearchSession::new(&space, &eval).with_objective(objective);
        let first = session.run(&RandomSearch::new(cfg));
        let after_first = session.cache_stats();
        // A rerun with the same seed resamples the same candidates: every
        // evaluation is served from the memo cache.
        let second = session.run(&RandomSearch::new(cfg));
        let after_second = session.cache_stats();
        assert_eq!(first.history, second.history);
        assert_eq!(after_second.misses, after_first.misses, "rerun must not re-evaluate");
        assert!(after_second.hits > after_first.hits);
    }
}
