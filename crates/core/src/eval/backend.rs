//! The evaluation-backend layer: fidelity-tagged measurement oracles and
//! the deterministic parallel batch driver.
//!
//! The paper prices thousands of candidates with a cheap LUT estimate and
//! closes the estimate-vs-measured gap with higher-fidelity measurement
//! (Sec. 3.5). This module makes that an explicit architecture instead of
//! scattered call sites: every oracle implements [`EvalBackend`] — an
//! [`Evaluator`] that also declares *what it is* ([`Fidelity`]) and *what
//! it costs* ([`EvalBackend::cost_hint`]) — so strategy code never names a
//! concrete estimator, and new oracles (the live TCP engine, say) register
//! without touching any search code.
//!
//! The workspace's backends, cheapest first:
//!
//! * [`AnalyticBackend`] (here) — LUT-style cost estimation plus the
//!   analytic energy model; the cheap screen.
//! * `gcode_sim::SimBackend` — the discrete-event co-inference simulator;
//!   the expensive "measured" oracle that sees runtime overheads.
//! * [`CascadeBackend`] (here) — multi-fidelity search over an ordered
//!   *fidelity ladder*: screens every batch with the cheapest tier and
//!   escalates only the top fraction rung by rung, with the batch winner
//!   always priced by the top tier. `gcode_engine::EngineBackend` — the
//!   live TCP engine, tagged [`Fidelity::Measured`] — slots in as the top
//!   rung of an `analytic → sim → engine` ladder to close the loop against
//!   the deployed runtime.
//!
//! [`shard_batch`] is the parallel driver behind
//! [`Evaluator::evaluate_batch_workers`]: contiguous shards across scoped
//! worker threads, merged in input order, so serial and parallel runs are
//! bit-identical.

use crate::arch::{Architecture, WorkloadProfile};
use crate::cost::trace;
use crate::estimate::{breakdown_from_trace, energy_from_parts};
use crate::eval::{Evaluator, Metrics, Objective};
use gcode_hardware::SystemConfig;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// How trustworthy (and how expensive) a backend's numbers are, ordered
/// from cheapest estimate to ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Fidelity {
    /// Closed-form LUT accumulation — no runtime overheads.
    Analytic,
    /// A trained predictor interpolating measured data.
    Predicted,
    /// Discrete-event simulation with runtime overheads charged.
    Simulated,
    /// Live measurement on real hardware (the TCP engine).
    Measured,
}

/// An [`Evaluator`] that declares its fidelity tier and relative cost, the
/// unit every oracle plugs into. `Sync` is inherited from [`Evaluator`],
/// so any backend can be sharded by the parallel driver or stacked under a
/// [`CascadeBackend`].
pub trait EvalBackend: Evaluator {
    /// The fidelity tier of the metrics this backend produces.
    fn fidelity(&self) -> Fidelity;

    /// Rough per-candidate cost relative to the analytic estimator (1.0).
    /// Cascades use this to report how much work screening saved.
    fn cost_hint(&self) -> f64;

    /// Short human-readable name for reports and CLI output.
    fn name(&self) -> &str;
}

/// Shards `archs` into `workers` contiguous chunks, evaluates each chunk
/// on its own scoped thread via [`Evaluator::evaluate_batch`], and merges
/// the results in input order.
///
/// Determinism: shard boundaries depend only on `archs.len()` and
/// `workers`, the merge consumes join handles in spawn order, and each
/// candidate's metrics are computed by the same pointwise code that a
/// serial run would execute — so the output is bit-identical to
/// `evaluator.evaluate_batch(archs)` for any pointwise backend, regardless
/// of thread scheduling.
pub fn shard_batch<E: Evaluator + ?Sized>(
    evaluator: &E,
    archs: &[Architecture],
    workers: usize,
) -> Vec<Metrics> {
    let workers = workers.max(1).min(archs.len());
    if workers <= 1 {
        return evaluator.evaluate_batch(archs);
    }
    let shard_len = archs.len().div_ceil(workers);
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = archs
            .chunks(shard_len)
            .map(|shard| s.spawn(move |_| evaluator.evaluate_batch(shard)))
            .collect();
        let mut merged = Vec::with_capacity(archs.len());
        for handle in handles {
            merged.extend(handle.join().expect("evaluation worker panicked"));
        }
        merged
    })
    .expect("worker scope")
}

/// [`EvalBackend`] backed by the analytic cost/energy estimators plus a
/// user-supplied accuracy function (surrogate model or supernet query) —
/// the paper's LUT-style estimate and the cheap tier of every cascade.
/// Latency and energy come from a single shape trace per candidate.
pub struct AnalyticBackend<F: Fn(&Architecture) -> f64 + Sync> {
    /// Workload being optimized for.
    pub profile: WorkloadProfile,
    /// Target system.
    pub sys: SystemConfig,
    /// Accuracy callback.
    pub accuracy_fn: F,
}

impl<F: Fn(&Architecture) -> f64 + Sync> Evaluator for AnalyticBackend<F> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        let traced = trace(arch, &self.profile);
        let b = breakdown_from_trace(&traced, arch, &self.sys);
        Metrics {
            accuracy: (self.accuracy_fn)(arch),
            latency_s: b.total_s(),
            energy_j: energy_from_parts(&traced, &b, arch, &self.sys),
        }
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> EvalBackend for AnalyticBackend<F> {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Analytic
    }

    fn cost_hint(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &str {
        "analytic"
    }
}

/// One rung of a ladder's per-tier breakdown: identity, configured
/// escalation fraction and how many candidates the tier has priced so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierStats {
    /// The tier backend's [`EvalBackend::name`].
    pub name: String,
    /// The tier's fidelity tag.
    pub fidelity: Fidelity,
    /// The tier's relative cost hint.
    pub cost_hint: f64,
    /// Fraction of the previous tier's survivors escalated into this tier
    /// (1.0 for the bottom tier, which sees every candidate).
    pub keep_frac: f64,
    /// Candidates this tier has evaluated so far.
    pub evals: u64,
}

/// Multi-fidelity backend: an ordered *ladder* of [`EvalBackend`] tiers,
/// cheapest first (`analytic → predictor → sim → engine`, or any prefix
/// of at least two rungs). Every batch is priced by the bottom tier; each
/// higher tier then re-prices only the top `keep_frac` fraction (by the
/// screening [`Objective`] score) of the candidates that reached the tier
/// below it — at least one candidate per step. Whatever a candidate's
/// last-visited tier produced is what it keeps — exactly the paper's
/// "estimate thousands, measure the promising few" economy, packaged as
/// just another backend so strategies stay oblivious.
///
/// Because cheap tiers are optimistic (they miss the runtime overheads the
/// expensive tiers charge), a fixed top-k cut would systematically leave a
/// just-below-cutoff candidate holding an inflated cheap score above every
/// honestly re-priced one. After the tier sweep the ladder therefore keeps
/// escalating the batch's current argmax *straight to the top tier* until
/// the best-scoring candidate of the batch is top-tier priced — so a
/// batch's winner (and hence the search winner, which is some batch's
/// argmax) always carries top-tier metrics. Candidates that never led
/// their batch may retain lower-tier metrics; only escalation order, not
/// results, depends on the tiers' relative bias.
///
/// Determinism: ranking sorts by screening score with the batch index as
/// tie-break, and every tier runs through
/// [`Evaluator::evaluate_batch_workers`] — so results never depend on
/// worker count. The ladder holds no cross-batch state beyond its
/// counters: a batch's metrics depend only on that batch (screening is
/// batch-scoped by design), so runs are reproducible for a fixed
/// `SearchConfig::batch_size`.
///
/// Single-candidate lookups ([`Evaluator::evaluate`], e.g. Alg. 1's
/// stage-2 tuning probes) always go straight to the top tier: screening a
/// batch of one is pure overhead.
pub struct CascadeBackend<'a> {
    tiers: Vec<&'a dyn EvalBackend>,
    objective: Objective,
    /// One escalation fraction per step `tiers[t-1] → tiers[t]`
    /// (`tiers.len() - 1` entries).
    keep_fracs: Vec<f64>,
    name: String,
    evals: Vec<AtomicU64>,
}

/// How many of `n` candidates survive a step screening at `keep_frac`:
/// `ceil(keep_frac · n)`, at least one and at most `n`.
fn keep_of(keep_frac: f64, n: usize) -> usize {
    ((keep_frac * n as f64).ceil() as usize).clamp(1, n)
}

impl<'a> CascadeBackend<'a> {
    /// Builds a fidelity ladder from `tiers`, cheapest first. Every
    /// escalation step starts at the default `keep_frac` 0.25.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two tiers are given or if the tiers are not
    /// sorted by ascending [`EvalBackend::cost_hint`] — a ladder that gets
    /// *more* expensive to screen than to measure is a configuration bug,
    /// not a tuning choice.
    pub fn ladder(tiers: Vec<&'a dyn EvalBackend>, objective: Objective) -> Self {
        assert!(tiers.len() >= 2, "a fidelity ladder needs at least two tiers");
        for pair in tiers.windows(2) {
            assert!(
                pair[0].cost_hint() <= pair[1].cost_hint(),
                "ladder tiers out of order: {} (cost {}) precedes {} (cost {})",
                pair[0].name(),
                pair[0].cost_hint(),
                pair[1].name(),
                pair[1].cost_hint()
            );
        }
        let name =
            format!("cascade({})", tiers.iter().map(|t| t.name()).collect::<Vec<_>>().join("->"));
        Self {
            name,
            evals: (0..tiers.len()).map(|_| AtomicU64::new(0)).collect(),
            keep_fracs: vec![0.25; tiers.len() - 1],
            tiers,
            objective,
        }
    }

    /// Sets each escalation step's fraction individually, bottom step
    /// first (clamped to `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics unless exactly `tiers.len() - 1` fractions are given.
    #[must_use]
    pub fn with_keep_fracs(mut self, keep_fracs: &[f64]) -> Self {
        assert_eq!(
            keep_fracs.len(),
            self.tiers.len() - 1,
            "need one keep_frac per escalation step"
        );
        self.keep_fracs = keep_fracs.iter().map(|f| f.clamp(0.0, 1.0)).collect();
        self
    }

    /// Per-tier identity, escalation fraction and evaluation count,
    /// bottom tier first.
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.tiers
            .iter()
            .enumerate()
            .map(|(t, tier)| TierStats {
                name: tier.name().to_string(),
                fidelity: tier.fidelity(),
                cost_hint: tier.cost_hint(),
                keep_frac: if t == 0 { 1.0 } else { self.keep_fracs[t - 1] },
                evals: self.evals[t].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Screening rank: feasible candidates by score, infeasible ones at
    /// the sentinel −1 (matching [`Objective::scored`] semantics).
    fn screen_score(&self, m: &Metrics) -> f64 {
        if self.objective.feasible(m) {
            self.objective.score(m)
        } else {
            -1.0
        }
    }

    /// The batch-scoped screen-then-re-price pipeline shared by the serial
    /// and parallel entry points.
    fn rescore(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        if archs.is_empty() {
            return Vec::new();
        }
        let top_tier = self.tiers.len() - 1;
        let mut metrics = self.tiers[0].evaluate_batch_workers(archs, workers);
        self.evals[0].fetch_add(archs.len() as u64, Ordering::Relaxed);

        // Tier sweep: each step re-prices the top fraction of the
        // candidates that reached the tier below it.
        let mut pool: Vec<usize> = (0..archs.len()).collect();
        let mut reached = vec![0usize; archs.len()];
        for (step, &frac) in self.keep_fracs.iter().enumerate() {
            let tier = step + 1;
            let keep = keep_of(frac, pool.len());
            pool.sort_by(|&i, &j| {
                self.screen_score(&metrics[j])
                    .total_cmp(&self.screen_score(&metrics[i]))
                    .then(i.cmp(&j))
            });
            let mut chosen: Vec<usize> = pool[..keep].to_vec();
            // Re-price in batch order so the tier sees a stable sub-batch
            // regardless of score ties.
            chosen.sort_unstable();
            let chosen_archs: Vec<Architecture> =
                chosen.iter().map(|&i| archs[i].clone()).collect();
            let refined = self.tiers[tier].evaluate_batch_workers(&chosen_archs, workers);
            self.evals[tier].fetch_add(chosen.len() as u64, Ordering::Relaxed);
            for (&i, m) in chosen.iter().zip(refined) {
                metrics[i] = m;
                reached[i] = tier;
            }
            pool = chosen;
        }
        // Escalate-until-fixpoint: re-pricing lowers scores, so the batch
        // argmax may hold an optimistic lower-tier estimate. Keep pricing
        // the current argmax with the top tier until the batch's best
        // score belongs to a top-tier-priced candidate.
        loop {
            let top = (0..archs.len())
                .max_by(|&i, &j| {
                    self.screen_score(&metrics[i])
                        .total_cmp(&self.screen_score(&metrics[j]))
                        .then(j.cmp(&i))
                })
                .expect("non-empty batch");
            if reached[top] == top_tier {
                break;
            }
            metrics[top] = self.tiers[top_tier].evaluate(&archs[top]);
            reached[top] = top_tier;
            self.evals[top_tier].fetch_add(1, Ordering::Relaxed);
        }
        metrics
    }
}

impl Evaluator for CascadeBackend<'_> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        let top = self.tiers.len() - 1;
        self.evals[top].fetch_add(1, Ordering::Relaxed);
        self.tiers[top].evaluate(arch)
    }

    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        self.rescore(archs, 1)
    }

    fn evaluate_batch_workers(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        self.rescore(archs, workers)
    }
}

impl EvalBackend for CascadeBackend<'_> {
    /// A ladder can hand back metrics from any tier; it reports the
    /// fidelity of its *top* tier, which is what the zoo's winners carry.
    fn fidelity(&self) -> Fidelity {
        self.tiers[self.tiers.len() - 1].fidelity()
    }

    /// Expected per-candidate cost at the default
    /// [`SearchConfig::batch_size`](crate::search::SearchConfig), with the
    /// one-candidate floor folded in: each step's effective escalated
    /// fraction is `keep_of(survivors)/nominal`, which exceeds the raw
    /// `keep_frac` whenever the floor binds (tiny fractions).
    fn cost_hint(&self) -> f64 {
        let nominal = crate::search::SearchConfig::default().batch_size;
        let mut total = self.tiers[0].cost_hint();
        let mut survivors = nominal;
        for (step, &frac) in self.keep_fracs.iter().enumerate() {
            let keep = keep_of(frac, survivors);
            total += keep as f64 / nominal as f64 * self.tiers[step + 1].cost_hint();
            survivors = keep;
        }
        total
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    fn arch(dim: usize) -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    fn analytic() -> AnalyticBackend<fn(&Architecture) -> f64> {
        AnalyticBackend {
            profile: pc(),
            sys: SystemConfig::tx2_to_i7(40.0),
            accuracy_fn: |a: &Architecture| 0.85 + 0.001 * a.len() as f64,
        }
    }

    /// An "expensive" backend distinguishable from the analytic one. The
    /// inflation is tiny so re-pricing never re-ranks the batch — which
    /// keeps the top-k escalation tests focused on the cut itself (the
    /// [`Inflating`] backend below exercises the re-ranking fixpoint).
    struct Marked {
        inner: AnalyticBackend<fn(&Architecture) -> f64>,
        calls: AtomicU64,
    }

    impl Marked {
        fn new() -> Self {
            Self { inner: analytic(), calls: AtomicU64::new(0) }
        }
    }

    impl Evaluator for Marked {
        fn evaluate(&self, arch: &Architecture) -> Metrics {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let m = self.inner.evaluate(arch);
            Metrics { latency_s: m.latency_s * (1.0 + 1e-9), ..m }
        }
    }

    impl EvalBackend for Marked {
        fn fidelity(&self) -> Fidelity {
            Fidelity::Simulated
        }

        fn cost_hint(&self) -> f64 {
            25.0
        }

        fn name(&self) -> &str {
            "marked"
        }
    }

    fn batch(n: usize) -> Vec<Architecture> {
        (0..n).map(|i| arch(8 * (i + 1))).collect()
    }

    #[test]
    fn analytic_backend_reports_identity() {
        let a = analytic();
        assert_eq!(a.fidelity(), Fidelity::Analytic);
        assert_eq!(a.name(), "analytic");
        assert_eq!(a.cost_hint(), 1.0);
        assert!(Fidelity::Analytic < Fidelity::Simulated);
        assert!(Fidelity::Simulated < Fidelity::Measured);
    }

    #[test]
    fn shard_batch_is_bit_identical_to_serial_for_any_worker_count() {
        let a = analytic();
        let archs = batch(13);
        let serial = a.evaluate_batch(&archs);
        for workers in [2usize, 3, 4, 8, 16, 64] {
            let parallel = shard_batch(&a, &archs, workers);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.latency_s.to_bits(), s.latency_s.to_bits(), "workers {workers}");
                assert_eq!(p.energy_j.to_bits(), s.energy_j.to_bits());
                assert_eq!(p.accuracy.to_bits(), s.accuracy.to_bits());
            }
        }
    }

    #[test]
    fn shard_batch_handles_degenerate_sizes() {
        let a = analytic();
        assert!(shard_batch(&a, &[], 8).is_empty());
        let one = batch(1);
        assert_eq!(shard_batch(&a, &one, 8).len(), 1);
        // workers = 0 is treated as serial.
        assert_eq!(shard_batch(&a, &one, 0).len(), 1);
    }

    #[test]
    fn cascade_reprices_only_the_top_fraction() {
        let cheap = analytic();
        let expensive = Marked::new();
        let objective = Objective::new(0.1, 10.0, 100.0);
        let cascade =
            CascadeBackend::ladder(vec![&cheap, &expensive], objective).with_keep_fracs(&[0.25]);
        let archs = batch(16);
        let metrics = cascade.evaluate_batch(&archs);
        assert_eq!(metrics.len(), 16);
        let tiers = cascade.tier_stats();
        assert_eq!(tiers[0].evals, 16);
        assert_eq!(tiers[1].evals, 4, "ceil(0.25 * 16)");
        assert_eq!(expensive.calls.load(Ordering::Relaxed), 4);
        // Exactly the re-priced candidates carry the expensive (inflated)
        // latency.
        let cheap_metrics = cheap.evaluate_batch(&archs);
        let inflated =
            metrics.iter().zip(&cheap_metrics).filter(|(m, c)| m.latency_s > c.latency_s).count();
        assert_eq!(inflated, 4);
    }

    #[test]
    fn cascade_is_worker_invariant() {
        let cheap = analytic();
        let expensive = Marked::new();
        let objective = Objective::new(0.1, 10.0, 100.0);
        let cascade =
            CascadeBackend::ladder(vec![&cheap, &expensive], objective).with_keep_fracs(&[0.3]);
        let archs = batch(11);
        let serial = cascade.evaluate_batch_workers(&archs, 1);
        for workers in [2usize, 4, 8] {
            let parallel = cascade.evaluate_batch_workers(&archs, workers);
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.latency_s.to_bits(), s.latency_s.to_bits(), "workers {workers}");
            }
        }
    }

    /// Expensive backend whose latency is so much higher than the cheap
    /// estimate that every top-k escalation dethrones itself.
    struct Inflating {
        inner: AnalyticBackend<fn(&Architecture) -> f64>,
    }

    impl Evaluator for Inflating {
        fn evaluate(&self, arch: &Architecture) -> Metrics {
            let m = self.inner.evaluate(arch);
            Metrics { latency_s: m.latency_s * 50.0, ..m }
        }
    }

    impl EvalBackend for Inflating {
        fn fidelity(&self) -> Fidelity {
            Fidelity::Simulated
        }

        fn cost_hint(&self) -> f64 {
            50.0
        }

        fn name(&self) -> &str {
            "inflating"
        }
    }

    #[test]
    fn batch_argmax_is_always_expensive_priced() {
        // The cheap tier is optimistic, so after the top-k pass the batch
        // argmax may hold an unverified estimate; the fixpoint loop must
        // keep escalating until the winner is honestly priced — even when
        // the expensive tier dethrones every candidate it re-prices.
        let cheap = analytic();
        let expensive = Inflating { inner: analytic() };
        let objective = Objective::new(0.1, 10.0, 100.0);
        let cascade = CascadeBackend::ladder(vec![&cheap, &expensive], objective);
        let archs = batch(16);
        let metrics = cascade.evaluate_batch(&archs);
        // The argmax by screening score carries the 50x-inflated
        // (expensive-tier) latency, not a cheap estimate.
        let top = (0..archs.len())
            .max_by(|&i, &j| {
                let s = |m: &Metrics| {
                    if objective.feasible(m) {
                        objective.score(m)
                    } else {
                        -1.0
                    }
                };
                s(&metrics[i]).total_cmp(&s(&metrics[j])).then(j.cmp(&i))
            })
            .expect("non-empty");
        let honest = expensive.evaluate(&archs[top]);
        assert_eq!(metrics[top].latency_s.to_bits(), honest.latency_s.to_bits());
        // Escalation went beyond the initial top-k but stayed counted.
        let top_evals = cascade.tier_stats()[1].evals;
        assert!(top_evals > 4, "fixpoint must escalate past the top-k cut");
        assert!(top_evals <= 16);
    }

    #[test]
    fn cascade_single_lookups_are_full_fidelity() {
        let cheap = analytic();
        let expensive = Marked::new();
        let cascade = CascadeBackend::ladder(vec![&cheap, &expensive], Objective::default());
        let m = cascade.evaluate(&arch(16));
        assert_eq!(m.latency_s.to_bits(), expensive.evaluate(&arch(16)).latency_s.to_bits());
        let tiers = cascade.tier_stats();
        assert_eq!(tiers[1].evals, 1);
        assert_eq!(tiers[0].evals, 0);
    }

    #[test]
    fn cascade_keep_bounds() {
        assert_eq!(keep_of(0.25, 16), 4);
        assert_eq!(keep_of(0.25, 1), 1, "at least one candidate escalates");
        assert_eq!(keep_of(0.0, 16), 1, "keep_frac 0 still escalates one");
        assert_eq!(keep_of(1.0, 7), 7);
    }

    #[test]
    fn cascade_reports_top_tier_identity() {
        let cheap = analytic();
        let expensive = Marked::new();
        let c = CascadeBackend::ladder(vec![&cheap, &expensive], Objective::default());
        assert_eq!(c.fidelity(), Fidelity::Simulated);
        assert_eq!(c.name(), "cascade(analytic->marked)");
        assert!(c.cost_hint() < expensive.cost_hint());
        assert!(c.cost_hint() > cheap.cost_hint());
    }

    #[test]
    fn cascade_empty_batch_is_empty() {
        let cheap = analytic();
        let expensive = Marked::new();
        let c = CascadeBackend::ladder(vec![&cheap, &expensive], Objective::default());
        assert!(c.evaluate_batch(&[]).is_empty());
        assert!(c.tier_stats().iter().all(|t| t.evals == 0));
    }

    /// A middle tier for three-rung ladders: analytic numbers with a
    /// distinguishable tiny inflation and its own cost/fidelity identity.
    struct Mid {
        inner: AnalyticBackend<fn(&Architecture) -> f64>,
        calls: AtomicU64,
    }

    impl Mid {
        fn new() -> Self {
            Self { inner: analytic(), calls: AtomicU64::new(0) }
        }
    }

    impl Evaluator for Mid {
        fn evaluate(&self, arch: &Architecture) -> Metrics {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let m = self.inner.evaluate(arch);
            Metrics { latency_s: m.latency_s * (1.0 + 1e-10), ..m }
        }
    }

    impl EvalBackend for Mid {
        fn fidelity(&self) -> Fidelity {
            Fidelity::Predicted
        }

        fn cost_hint(&self) -> f64 {
            5.0
        }

        fn name(&self) -> &str {
            "mid"
        }
    }

    #[test]
    fn three_tier_ladder_narrows_at_every_rung() {
        let cheap = analytic();
        let mid = Mid::new();
        let top = Marked::new();
        let objective = Objective::new(0.1, 10.0, 100.0);
        let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &top], objective)
            .with_keep_fracs(&[0.5, 0.5]);
        let archs = batch(16);
        let metrics = ladder.evaluate_batch(&archs);
        assert_eq!(metrics.len(), 16);
        let tiers = ladder.tier_stats();
        assert_eq!(tiers.len(), 3);
        assert_eq!(tiers[0].evals, 16, "bottom tier sees everything");
        assert_eq!(tiers[1].evals, 8, "half escalate to the middle tier");
        // ceil(0.5 * 8) = 4 from the sweep; the honest-winner fixpoint may
        // add a few more, never more than the batch.
        assert!((4..=16).contains(&(tiers[2].evals as usize)));
        assert!(tiers[1].evals > tiers[2].evals, "each rung must narrow");
        assert_eq!(mid.calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn ladder_winner_is_top_tier_priced() {
        let cheap = analytic();
        let mid = Mid::new();
        let top = Inflating { inner: analytic() };
        let objective = Objective::new(0.1, 10.0, 100.0);
        let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &top], objective)
            .with_keep_fracs(&[0.25, 0.5]);
        let archs = batch(12);
        let metrics = ladder.evaluate_batch(&archs);
        let s = |m: &Metrics| {
            if objective.feasible(m) {
                objective.score(m)
            } else {
                -1.0
            }
        };
        let winner = (0..archs.len())
            .max_by(|&i, &j| s(&metrics[i]).total_cmp(&s(&metrics[j])).then(j.cmp(&i)))
            .expect("non-empty");
        let honest = top.evaluate(&archs[winner]);
        assert_eq!(metrics[winner].latency_s.to_bits(), honest.latency_s.to_bits());
    }

    #[test]
    fn ladder_reports_identity_and_cost() {
        let cheap = analytic();
        let mid = Mid::new();
        let top = Marked::new();
        let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &top], Objective::default());
        assert_eq!(ladder.name(), "cascade(analytic->mid->marked)");
        assert_eq!(ladder.fidelity(), Fidelity::Simulated);
        assert!(ladder.cost_hint() > cheap.cost_hint());
        assert!(ladder.cost_hint() < top.cost_hint());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_ladder_is_rejected() {
        let cheap = analytic();
        let top = Marked::new();
        let _ = CascadeBackend::ladder(vec![&top, &cheap], Objective::default());
    }

    #[test]
    #[should_panic(expected = "at least two tiers")]
    fn single_rung_ladder_is_rejected() {
        let cheap = analytic();
        let _ = CascadeBackend::ladder(vec![&cheap], Objective::default());
    }

    #[test]
    fn cost_hint_folds_the_one_candidate_floor() {
        let cheap = analytic();
        let expensive = Marked::new();
        let objective = Objective::default();
        // keep_frac 0.01 on the default batch of 16 would suggest ~0.16
        // escalations per batch, but at least one candidate always
        // escalates: the effective fraction is 1/16, not 0.01.
        assert_eq!(crate::search::SearchConfig::default().batch_size, 16);
        let c =
            CascadeBackend::ladder(vec![&cheap, &expensive], objective).with_keep_fracs(&[0.01]);
        let expected = 1.0 + (1.0 / 16.0) * expensive.cost_hint();
        assert!((c.cost_hint() - expected).abs() < 1e-12, "got {}", c.cost_hint());
        // A naive keep_frac-only estimate under-reports.
        assert!(c.cost_hint() > 1.0 + 0.01 * expensive.cost_hint());
        // keep_frac 0 prices the same: the floor, not the fraction, binds.
        let zero =
            CascadeBackend::ladder(vec![&cheap, &expensive], objective).with_keep_fracs(&[0.0]);
        assert_eq!(zero.cost_hint(), c.cost_hint());
    }
}
