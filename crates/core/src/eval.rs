//! The evaluation/search seam every strategy runs through.
//!
//! This module owns the public API for scoring candidates:
//!
//! * [`Metrics`] — the three numbers the paper's objective consumes;
//! * [`Evaluator`] — how metrics are produced, with a batched entry point
//!   ([`Evaluator::evaluate_batch`]) and a parallel one
//!   ([`Evaluator::evaluate_batch_workers`]) so backends can amortize
//!   per-candidate setup and shard work without touching any strategy;
//! * [`backend`] — the fidelity-tagged backend layer
//!   ([`backend::EvalBackend`]): the analytic LUT estimator
//!   ([`backend::AnalyticBackend`]), the discrete-event simulator
//!   (`gcode_sim::SimBackend`), and the multi-fidelity
//!   [`backend::CascadeBackend`] that screens batches cheaply and re-prices
//!   only the most promising fraction at high fidelity;
//! * [`Objective`] — the single canonical home of the constraint check and
//!   the score `acc − λ(P̂_sys/C_lat + Ê_dev/C_e)`;
//! * [`SearchStrategy`] — a search algorithm (Alg. 1 random search, the EA
//!   ablation, the single-device NAS baseline) expressed against a session;
//! * [`SearchSession`] — the driver that owns a hash-keyed memo cache over
//!   evaluated architectures and routes every strategy's candidates through
//!   batched, deduplicated, optionally multi-worker evaluation.
//!
//! # Example
//!
//! ```
//! use gcode_core::arch::WorkloadProfile;
//! use gcode_core::eval::backend::AnalyticBackend;
//! use gcode_core::eval::{Objective, SearchSession};
//! use gcode_core::search::{RandomSearch, SearchConfig};
//! use gcode_core::space::DesignSpace;
//! use gcode_hardware::SystemConfig;
//!
//! let space = DesignSpace::paper(WorkloadProfile::modelnet40());
//! let eval = AnalyticBackend {
//!     profile: space.profile,
//!     sys: SystemConfig::tx2_to_i7(40.0),
//!     accuracy_fn: |_| 0.92,
//! };
//! let objective = Objective::new(0.1, 0.5, 3.0);
//! let cfg = SearchConfig { iterations: 50, seed: 1, ..SearchConfig::default() };
//! let mut session = SearchSession::new(&space, &eval)
//!     .with_objective(objective)
//!     .with_workers(4); // sharded evaluation, bit-identical to serial
//! let result = session.run(&RandomSearch::new(cfg));
//! assert!(result.best().is_some());
//! assert!(session.cache_stats().lookups() >= 50);
//! ```

pub mod backend;
pub mod scenario;

use crate::arch::Architecture;
use crate::cachelog::{self, SharedCacheLog};
use crate::search::{ScoredArch, SearchResult};
use crate::space::DesignSpace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The measured qualities of one candidate architecture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Validation accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// End-to-end system latency in seconds.
    pub latency_s: f64,
    /// On-device energy per inference in joules.
    pub energy_j: f64,
}

/// Produces [`Metrics`] for candidate architectures.
///
/// `evaluate` takes `&self` so one evaluator can serve many concurrent
/// lookups, and the trait requires [`Sync`] so the session's parallel
/// driver can shard a batch across scoped worker threads; backends needing
/// interior state (a supernet being fine-tuned, say) wrap it in a lock.
/// The batched entry point exists so backends can amortize setup across
/// candidates — the default simply loops.
///
/// Unlike the paper's Alg. 1 narration, all three metrics — accuracy
/// included — are produced per candidate, even ones a strategy later
/// rejects on constraints: the evaluator doesn't know the [`Objective`],
/// which is what keeps scoring in one place and batching trivial. The
/// session's memo cache bounds the cost to one evaluation per *unique*
/// architecture; an evaluator whose accuracy model is genuinely expensive
/// (a supernet) can additionally gate its own accuracy computation behind
/// cheap internal feasibility screens if it chooses.
pub trait Evaluator: Sync {
    /// Evaluates one architecture.
    fn evaluate(&self, arch: &Architecture) -> Metrics;

    /// Evaluates a batch. Override when the backend can do better than a
    /// sequential loop (shared traces, vectorized cost models, worker
    /// pools).
    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        archs.iter().map(|a| self.evaluate(a)).collect()
    }

    /// Evaluates a batch across `workers` scoped threads, merging results
    /// in input order so serial and parallel runs are bit-identical.
    ///
    /// The default shards the batch into contiguous chunks and runs
    /// [`Evaluator::evaluate_batch`] on each — correct whenever batching is
    /// *pointwise* (each candidate's metrics are independent of its batch
    /// mates; true for every measurement oracle in this workspace). A
    /// backend whose batch semantics are batch-scoped — the multi-fidelity
    /// [`backend::CascadeBackend`] screens the *whole* batch before
    /// re-pricing — must override this so worker count never changes what a
    /// candidate's metrics are.
    fn evaluate_batch_workers(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        backend::shard_batch(self, archs, workers)
    }
}

/// The search objective: the trade-off weight and the performance
/// constraints, split out of the search hyper-parameters so that every
/// strategy and baseline shares one scoring/feasibility implementation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Accuracy/efficiency trade-off `λ` (larger = lower latency).
    pub lambda: f64,
    /// Latency constraint `C_lat` in seconds.
    pub latency_constraint_s: f64,
    /// On-device energy constraint `C_e` in joules.
    pub energy_constraint_j: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Self { lambda: 0.1, latency_constraint_s: 0.2, energy_constraint_j: 1.0 }
    }
}

impl Objective {
    /// Builds an objective from `λ` and the two constraints.
    pub fn new(lambda: f64, latency_constraint_s: f64, energy_constraint_j: f64) -> Self {
        Self { lambda, latency_constraint_s, energy_constraint_j }
    }

    /// Whether the metrics satisfy both performance constraints
    /// (Alg. 1 line 8's check).
    pub fn feasible(&self, m: &Metrics) -> bool {
        m.latency_s < self.latency_constraint_s && m.energy_j < self.energy_constraint_j
    }

    /// The paper's score `acc − λ(lat/C_lat + e/C_e)`. Latency and energy
    /// are normalized by their constraints so the magnitudes are
    /// comparable ("P_sys and E_dev are normalized during architecture
    /// scoring").
    pub fn score(&self, m: &Metrics) -> f64 {
        m.accuracy
            - self.lambda
                * (m.latency_s / self.latency_constraint_s + m.energy_j / self.energy_constraint_j)
    }

    /// Packs an architecture and its metrics into a [`ScoredArch`],
    /// assigning the sentinel score −1 to constraint violators.
    pub fn scored(&self, arch: Architecture, m: Metrics) -> ScoredArch {
        let score = if self.feasible(&m) { self.score(&m) } else { -1.0 };
        ScoredArch {
            arch,
            score,
            accuracy: m.accuracy,
            latency_s: m.latency_s,
            energy_j: m.energy_j,
        }
    }
}

/// Memo-cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Subset of `hits` answered from the persistent
    /// [`CacheLog`](crate::cachelog::CacheLog) rather than this session's
    /// in-memory memo — non-zero only on warm restarts.
    pub log_hits: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// FxHash-style hasher of the memo cache: one rotate, xor and multiply per
/// word where SipHash runs its rounds. It resists no adversary and need
/// not: its keys are architectures this process sampled itself, never
/// bytes from a peer, and the map is never iterated (only its `len` is
/// read), so the hasher cannot move any result.
#[derive(Default)]
struct MemoHasher(u64);

impl Hasher for MemoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// The memo cache: evaluated architecture → its metrics.
type Memo = HashMap<Architecture, Metrics, BuildHasherDefault<MemoHasher>>;

/// Where one batch member's metrics come from in
/// [`SearchSession::evaluate_batch`].
enum Slot {
    /// Already known: from the memo or the cache log.
    Known(Metrics),
    /// The `i`-th candidate handed to the evaluator.
    Fresh(usize),
}

/// A search algorithm driven through a [`SearchSession`].
pub trait SearchStrategy {
    /// Runs the strategy to completion against the session's space,
    /// objective and (cached, batched) evaluator.
    fn search(&self, session: &mut SearchSession<'_>) -> SearchResult;
}

/// Builder-style driver owning the evaluation plumbing every strategy
/// shares: the design space, the [`Objective`], the evaluator, a
/// hash-keyed memo cache of evaluated architectures with hit-rate stats,
/// and the worker count for the deterministic parallel batch driver.
///
/// Searches in the fused space resample identical candidates often
/// (especially at small `num_layers` or under tight validity rules); the
/// cache turns each repeat into a lookup, and the batched path deduplicates
/// within a batch before the evaluator sees it. Whatever survives
/// deduplication is handed to [`Evaluator::evaluate_batch_workers`], which
/// shards it across scoped threads and merges in input order — worker
/// count never changes results, only wall-clock time.
pub struct SearchSession<'a> {
    space: &'a DesignSpace,
    evaluator: &'a dyn Evaluator,
    objective: Objective,
    memoize: bool,
    workers: usize,
    cache: Memo,
    stats: CacheStats,
    log: Option<(SharedCacheLog, u64)>,
}

impl<'a> SearchSession<'a> {
    /// Creates a session over `space` scoring through `evaluator`, with the
    /// default [`Objective`], memoization enabled and a single worker.
    pub fn new(space: &'a DesignSpace, evaluator: &'a dyn Evaluator) -> Self {
        Self {
            space,
            evaluator,
            objective: Objective::default(),
            memoize: true,
            workers: 1,
            cache: Memo::default(),
            stats: CacheStats::default(),
            log: None,
        }
    }

    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Enables or disables the memo cache (enabled by default). Disabling
    /// is useful for measuring an evaluator's raw cost or for evaluators
    /// whose output deliberately changes between calls.
    #[must_use]
    pub fn with_memoization(mut self, enabled: bool) -> Self {
        self.memoize = enabled;
        self
    }

    /// Attaches a persistent [`CacheLog`](crate::cachelog::CacheLog): memo
    /// misses consult the log before the evaluator (counted in
    /// [`CacheStats::log_hits`]), and fresh evaluations are written
    /// through, so a later session over the same log starts warm.
    ///
    /// `tag` is the backend fidelity namespace — it must encode everything
    /// that affects the metrics (backend kind, seeds, frame counts, uplink
    /// caps, workload), because log entries are shared across processes,
    /// not just across sessions. The objective is hashed into the key
    /// automatically. The log is ignored while memoization is disabled,
    /// matching the memo cache's semantics.
    #[must_use]
    pub fn with_cache_log(mut self, log: SharedCacheLog, tag: &str) -> Self {
        self.log = Some((log, cachelog::tag_key(tag)));
        self
    }

    /// Sets how many worker threads the batch driver shards deduplicated
    /// batches across (default 1 = serial). Results are bit-identical for
    /// any worker count; `0` is treated as `1`.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The design space being searched.
    pub fn space(&self) -> &'a DesignSpace {
        self.space
    }

    /// The active objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Cache hit/miss counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Worker threads used by the parallel batch driver.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of distinct architectures held in the cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Consults the attached cache log for `arch` under the session's tag
    /// and objective. `None` when no log is attached or the entry is
    /// absent.
    fn log_lookup(&self, arch: &Architecture) -> Option<Metrics> {
        let (log, tag) = self.log.as_ref()?;
        let objective = cachelog::objective_key(&self.objective);
        log.lock().ok()?.get(cachelog::arch_key(arch), *tag, objective)
    }

    /// Writes a fresh evaluation through to the attached cache log, if any.
    /// Append failures are swallowed inside the log — durability loss never
    /// kills a search.
    fn log_store(&self, arch: &Architecture, m: Metrics) {
        if let Some((log, tag)) = &self.log {
            let objective = cachelog::objective_key(&self.objective);
            if let Ok(mut log) = log.lock() {
                log.put(cachelog::arch_key(arch), *tag, objective, m);
            }
        }
    }

    /// Evaluates one architecture through the cache.
    pub fn evaluate(&mut self, arch: &Architecture) -> Metrics {
        if !self.memoize {
            self.stats.misses += 1;
            return self.evaluator.evaluate(arch);
        }
        if let Some(m) = self.cache.get(arch) {
            self.stats.hits += 1;
            return *m;
        }
        if let Some(m) = self.log_lookup(arch) {
            self.stats.hits += 1;
            self.stats.log_hits += 1;
            self.cache.insert(arch.clone(), m);
            return m;
        }
        let m = self.evaluator.evaluate(arch);
        self.stats.misses += 1;
        self.cache.insert(arch.clone(), m);
        self.log_store(arch, m);
        m
    }

    /// Evaluates a batch through the cache: cached entries are reused,
    /// in-batch duplicates are evaluated once, and only the remaining
    /// unique candidates reach the evaluator — sharded across the
    /// session's workers via [`Evaluator::evaluate_batch_workers`].
    ///
    /// Each member costs one memo lookup; an in-batch duplicate is found
    /// by scanning the batch's fresh candidates instead.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator breaks the [`Evaluator`] contract by
    /// returning other than one [`Metrics`] per candidate.
    pub fn evaluate_batch(&mut self, archs: &[Architecture]) -> Vec<Metrics> {
        if !self.memoize {
            self.stats.misses += archs.len() as u64;
            return self.evaluator.evaluate_batch_workers(archs, self.workers);
        }
        let mut fresh: Vec<Architecture> = Vec::new();
        let mut slots = Vec::with_capacity(archs.len());
        for arch in archs {
            let slot = if let Some(&m) = self.cache.get(arch) {
                self.stats.hits += 1;
                Slot::Known(m)
            } else if let Some(i) = fresh.iter().position(|f| f == arch) {
                self.stats.hits += 1;
                Slot::Fresh(i)
            } else if let Some(m) = self.log_lookup(arch) {
                self.stats.hits += 1;
                self.stats.log_hits += 1;
                self.cache.insert(arch.clone(), m);
                Slot::Known(m)
            } else {
                self.stats.misses += 1;
                fresh.push(arch.clone());
                Slot::Fresh(fresh.len() - 1)
            };
            slots.push(slot);
        }
        let metrics = if fresh.is_empty() {
            Vec::new()
        } else {
            self.evaluator.evaluate_batch_workers(&fresh, self.workers)
        };
        assert_eq!(
            metrics.len(),
            fresh.len(),
            "Evaluator contract broken: evaluate_batch_workers must return one Metrics per candidate"
        );
        for (arch, &m) in fresh.into_iter().zip(&metrics) {
            self.log_store(&arch, m);
            self.cache.insert(arch, m);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Known(m) => m,
                Slot::Fresh(i) => metrics[i],
            })
            .collect()
    }

    /// Runs a strategy to completion.
    pub fn run(&mut self, strategy: &dyn SearchStrategy) -> SearchResult {
        strategy.search(self)
    }

    /// Packs the session's evaluation-side counters and a result's summary
    /// into a serializable [`SearchReport`] for CLI/bench JSON output.
    pub fn report(&self, backend: impl Into<String>, result: &SearchResult) -> SearchReport {
        SearchReport {
            backend: backend.into(),
            workers: self.workers,
            cache: self.stats,
            unique_architectures: self.cache.len(),
            zoo_len: result.zoo.len(),
            best_score: result.best().map(|b| b.score),
            constraint_misses: result.constraint_misses,
            trials: result.history.len(),
            measured: None,
            fleet: None,
            scenarios: None,
        }
    }
}

/// Live-measurement telemetry for `Fidelity::Measured` runs: per-frame
/// latency percentiles and traffic observed on the deployed engine across
/// every candidate a search actually measured. Produced by
/// `gcode_engine::EngineBackend::measured_profile` and attached to a
/// [`SearchReport`] via [`SearchReport::with_measured`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredProfile {
    /// Measured (post-warmup) frames across all engine deployments.
    pub frames: u64,
    /// Median per-frame latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile per-frame latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile per-frame latency, seconds.
    pub p99_s: f64,
    /// Compressed application bytes shipped device→edge.
    pub bytes_sent: u64,
    /// Candidate deployments that failed (socket/protocol errors) and were
    /// priced with the infeasible sentinel instead.
    pub errors: u64,
    /// Candidates actually deployed on an engine during this run.
    pub deployed: u64,
    /// Candidates whose measurements were served from a persistent
    /// [`CacheLog`](crate::cachelog::CacheLog) instead of a deployment —
    /// non-zero only on warm restarts over a `--cache-file`.
    pub cached: u64,
}

/// One pool's share of a fleet Measured run: where it pointed, how many
/// candidates it pulled off the shared morsel queue, and how its
/// lifecycle went. Produced by `gcode_engine::EdgeFleet` and carried
/// inside [`FleetStats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Endpoint label: `"loopback"` for a pool that spawned its own edge,
    /// or the remote `host:port` it connected to.
    pub endpoint: String,
    /// Candidates this pool successfully deployed and measured.
    pub deployments: u64,
    /// Times this pool died (socket/protocol error mid-morsel, or a failed
    /// spawn/reconnect attempt) and was discarded.
    pub failures: u64,
    /// Times a pool was spawned/connected at this endpoint — 1 for a
    /// healthy run, +1 per respawn after a contained failure.
    pub spawns: u64,
    /// Wall-clock seconds this pool's worker spent deploying and running
    /// candidates (failed attempts included) — compare across pools to
    /// see skew and steal behaviour: under the morsel scheduler busy
    /// times stay level even when per-candidate costs differ wildly.
    pub busy_s: f64,
    /// Median per-candidate measurement wall time (deploy + run) over
    /// this pool's successful deployments, seconds.
    pub p50_s: f64,
    /// 95th-percentile per-candidate measurement wall time, seconds.
    pub p95_s: f64,
}

/// Per-pool telemetry for a fleet `Fidelity::Measured` run: one
/// [`PoolStats`] per configured endpoint plus the fleet-level recovery
/// counters. Produced by `gcode_engine::EngineBackend::fleet_stats` and
/// attached to a [`SearchReport`] via [`SearchReport::with_fleet`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// One entry per configured fleet endpoint, in spec order.
    pub pools: Vec<PoolStats>,
    /// Candidates returned to the shared morsel queue after the pool
    /// measuring them died mid-batch (one count per requeue).
    pub resharded: u64,
}

impl FleetStats {
    /// Total successful deployments across every pool.
    pub fn deployments(&self) -> u64 {
        self.pools.iter().map(|p| p.deployments).sum()
    }

    /// Total pool deaths (and failed spawn attempts) across the fleet.
    pub fn failures(&self) -> u64 {
        self.pools.iter().map(|p| p.failures).sum()
    }

    /// Total pool spawns/connects across the fleet.
    pub fn spawns(&self) -> u64 {
        self.pools.iter().map(|p| p.spawns).sum()
    }
}

/// Serializable summary of one search run: which backend priced the
/// candidates, how the parallel driver was configured, and how effective
/// the memo cache was — the numbers the CLI and the bench/ablation
/// generators surface alongside the zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchReport {
    /// Name of the evaluation backend that priced the candidates.
    pub backend: String,
    /// Worker threads used by the batch driver.
    pub workers: usize,
    /// Memo-cache hit/miss counters (derive the hit rate via
    /// [`CacheStats::hit_rate`]).
    pub cache: CacheStats,
    /// Distinct architectures actually evaluated (cache entries).
    pub unique_architectures: usize,
    /// Entries in the final zoo.
    pub zoo_len: usize,
    /// Best score found, if any trial passed the constraints.
    pub best_score: Option<f64>,
    /// Trials that failed the performance constraints.
    pub constraint_misses: usize,
    /// Total trials recorded in the history.
    pub trials: usize,
    /// Live-engine telemetry, present only when a `Measured`-fidelity
    /// backend took part in the run.
    pub measured: Option<MeasuredProfile>,
    /// Per-pool fleet telemetry, present only when the Measured tier ran
    /// on an edge fleet (`--fleet`).
    pub fleet: Option<FleetStats>,
    /// Per-segment scenario-replay outcomes, present only when a
    /// [`scenario::ScenarioTrace`] was replayed against the run's zoo
    /// (`gcode replay --trace`, or a `Submit`ted session carrying one).
    pub scenarios: Option<Vec<scenario::ScenarioReport>>,
}

impl SearchReport {
    /// Attaches live-measurement telemetry to the report.
    #[must_use]
    pub fn with_measured(mut self, measured: MeasuredProfile) -> Self {
        self.measured = Some(measured);
        self
    }

    /// Attaches per-pool fleet telemetry to the report.
    #[must_use]
    pub fn with_fleet(mut self, fleet: FleetStats) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Attaches per-segment scenario-replay outcomes to the report.
    #[must_use]
    pub fn with_scenarios(mut self, scenarios: Vec<scenario::ScenarioReport>) -> Self {
        self.scenarios = Some(scenarios);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::WorkloadProfile;
    use crate::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Evaluator that counts every real evaluation it performs.
    struct Counting {
        calls: AtomicU64,
    }

    impl Counting {
        fn new() -> Self {
            Self { calls: AtomicU64::new(0) }
        }

        fn count(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl Evaluator for Counting {
        fn evaluate(&self, arch: &Architecture) -> Metrics {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Metrics {
                accuracy: 0.9,
                latency_s: 0.001 * arch.len() as f64,
                energy_j: 0.01 * arch.len() as f64,
            }
        }
    }

    fn arch(dim: usize) -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn objective_scores_and_checks_feasibility() {
        let o = Objective::new(0.5, 0.1, 1.0);
        let good = Metrics { accuracy: 0.9, latency_s: 0.05, energy_j: 0.5 };
        assert!(o.feasible(&good));
        assert!((o.score(&good) - (0.9 - 0.5 * (0.5 + 0.5))).abs() < 1e-12);
        let slow = Metrics { latency_s: 0.2, ..good };
        assert!(!o.feasible(&slow));
        let hungry = Metrics { energy_j: 2.0, ..good };
        assert!(!o.feasible(&hungry));
        assert_eq!(o.scored(arch(16), slow).score, -1.0);
    }

    #[test]
    fn cache_serves_repeats_without_reevaluating() {
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let eval = Counting::new();
        let mut session = SearchSession::new(&space, &eval);
        let a = arch(16);
        let first = session.evaluate(&a);
        let second = session.evaluate(&a);
        assert_eq!(first, second);
        assert_eq!(eval.count(), 1);
        assert_eq!(session.cache_stats(), CacheStats { hits: 1, misses: 1, log_hits: 0 });
        assert_eq!(session.cache_len(), 1);
    }

    #[test]
    fn batch_deduplicates_before_the_evaluator() {
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let eval = Counting::new();
        let mut session = SearchSession::new(&space, &eval);
        // Warm the cache with one entry.
        session.evaluate(&arch(16));
        let batch = vec![arch(16), arch(32), arch(32), arch(64)];
        let metrics = session.evaluate_batch(&batch);
        assert_eq!(metrics.len(), 4);
        // arch(16) was cached; arch(32) is an in-batch duplicate: only 32
        // and 64 hit the evaluator.
        assert_eq!(eval.count(), 3);
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        assert!((stats.hit_rate() - 0.4).abs() < 1e-12);
        // Duplicates receive identical metrics.
        assert_eq!(metrics[1], metrics[2]);
    }

    /// Evaluator that answers every batch with one `Metrics` too few.
    struct ShortBatch;

    impl Evaluator for ShortBatch {
        fn evaluate(&self, _arch: &Architecture) -> Metrics {
            Metrics { accuracy: 0.9, latency_s: 0.01, energy_j: 0.1 }
        }

        fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
            archs[1..].iter().map(|a| self.evaluate(a)).collect()
        }
    }

    #[test]
    #[should_panic(
        expected = "Evaluator contract broken: evaluate_batch_workers must return one Metrics per candidate"
    )]
    fn a_short_batch_names_the_evaluator_contract() {
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let mut session = SearchSession::new(&space, &ShortBatch);
        session.evaluate_batch(&[arch(16), arch(32)]);
    }

    #[test]
    fn disabled_memoization_always_reevaluates() {
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let eval = Counting::new();
        let mut session = SearchSession::new(&space, &eval).with_memoization(false);
        let a = arch(16);
        session.evaluate(&a);
        session.evaluate(&a);
        session.evaluate_batch(&[a.clone(), a.clone()]);
        assert_eq!(eval.count(), 4);
        assert_eq!(session.cache_stats().hits, 0);
        assert_eq!(session.cache_len(), 0);
    }

    #[test]
    fn cached_metrics_are_bit_identical_to_fresh() {
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let eval = Counting::new();
        let fresh = eval.evaluate(&arch(32));
        let mut session = SearchSession::new(&space, &eval);
        let via_cache_miss = session.evaluate(&arch(32));
        let via_cache_hit = session.evaluate(&arch(32));
        assert_eq!(fresh.latency_s.to_bits(), via_cache_miss.latency_s.to_bits());
        assert_eq!(fresh.latency_s.to_bits(), via_cache_hit.latency_s.to_bits());
        assert_eq!(fresh.energy_j.to_bits(), via_cache_hit.energy_j.to_bits());
        assert_eq!(fresh.accuracy.to_bits(), via_cache_hit.accuracy.to_bits());
    }

    #[test]
    fn hit_rate_handles_empty_session() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn cache_log_makes_a_second_session_start_warm() {
        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("eval-warm.gclg");
        let _ = std::fs::remove_file(&path);
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let batch = vec![arch(16), arch(32), arch(64)];

        // Cold session: every candidate reaches the evaluator, and every
        // fresh evaluation is written through to the log.
        let cold_eval = Counting::new();
        let log = crate::cachelog::open_shared(&path).expect("open log");
        let mut cold = SearchSession::new(&space, &cold_eval).with_cache_log(log, "sim|seed4");
        let cold_metrics = cold.evaluate_batch(&batch);
        assert_eq!(cold_eval.count(), 3);
        assert_eq!(cold.cache_stats().log_hits, 0);
        drop(cold);

        // Warm session (fresh process): zero evaluator calls, bit-identical
        // metrics, all lookups satisfied from the log.
        let warm_eval = Counting::new();
        let log = crate::cachelog::open_shared(&path).expect("reopen log");
        let mut warm = SearchSession::new(&space, &warm_eval).with_cache_log(log, "sim|seed4");
        let one = warm.evaluate(&batch[0]);
        let rest = warm.evaluate_batch(&batch);
        assert_eq!(warm_eval.count(), 0, "warm restart re-evaluates nothing");
        assert_eq!(warm.cache_stats().log_hits, 3);
        assert_eq!(one.latency_s.to_bits(), cold_metrics[0].latency_s.to_bits());
        for (w, c) in rest.iter().zip(&cold_metrics) {
            assert_eq!(w.accuracy.to_bits(), c.accuracy.to_bits());
            assert_eq!(w.latency_s.to_bits(), c.latency_s.to_bits());
            assert_eq!(w.energy_j.to_bits(), c.energy_j.to_bits());
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn cache_log_namespaces_by_tag_and_objective() {
        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("eval-namespace.gclg");
        let _ = std::fs::remove_file(&path);
        let space = crate::space::DesignSpace::paper(WorkloadProfile::modelnet40());
        let a = arch(16);

        let eval = Counting::new();
        let log = crate::cachelog::open_shared(&path).expect("open log");
        let mut first = SearchSession::new(&space, &eval).with_cache_log(log.clone(), "sim|seed4");
        first.evaluate(&a);
        assert_eq!(eval.count(), 1);

        // A different fidelity tag must not see the entry…
        let mut other_tag = SearchSession::new(&space, &eval).with_cache_log(log.clone(), "engine");
        other_tag.evaluate(&a);
        assert_eq!(eval.count(), 2);
        assert_eq!(other_tag.cache_stats().log_hits, 0);

        // …and neither must a different objective under the same tag.
        let mut other_obj = SearchSession::new(&space, &eval)
            .with_cache_log(log, "sim|seed4")
            .with_objective(Objective::new(0.9, 0.5, 3.0));
        other_obj.evaluate(&a);
        assert_eq!(eval.count(), 3);
        assert_eq!(other_obj.cache_stats().log_hits, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
