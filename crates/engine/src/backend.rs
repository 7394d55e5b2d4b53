//! The `Measured`-fidelity evaluation backend: price candidates on the
//! *deployed* pipelined engine instead of a model of it.
//!
//! This closes the paper's loop (Sec. 3.6): the searched architecture is
//! lowered to an [`ExecutionPlan`], hot-swapped onto a warm device/edge
//! pair of an [`EdgeFleet`], and driven with a real frame stream over
//! real sockets — compression, framing, pipelining and
//! (optionally) a throttled uplink all charged at face value. As the top
//! rung of a `gcode_core::eval::backend::CascadeBackend` ladder
//! (`analytic → sim → engine`), it prices exactly the few candidates the
//! cheaper tiers promote, so every search winner carries live-runtime
//! metrics.

use crate::fleet::{EdgeFleet, FleetOutcome, FleetSpec};
use crate::plan::ExecutionPlan;
use crate::proto::{plan_wire_id, PROTOCOL_VERSION};
use crate::runtime::EngineStats;
use crate::EngineError;
use gcode_core::arch::Architecture;
use gcode_core::cachelog::SharedCacheLog;
use gcode_core::eval::backend::{EvalBackend, Fidelity};
use gcode_core::eval::scenario::latency_percentiles;
use gcode_core::eval::{Evaluator, FleetStats, MeasuredProfile, Metrics};
use gcode_graph::datasets::Sample;
use gcode_hardware::SystemConfig;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Latency/energy assigned to a candidate whose deployment failed
/// (socket or protocol error): large but finite so it serializes cleanly
/// and can never pass a sane constraint.
pub const DEPLOY_FAILURE_SENTINEL: f64 = 1e9;

/// The Measured tier's one cache record: runs `plans` against `stream`
/// on `fleet`, answering each plan's raw run — predictions and
/// [`EngineStats`] — with whether it came from `cache`. A record is keyed
/// by `(plan_wire_id(plan), context)`, where the context hashes only what
/// shapes the run (see `EdgeFleet::run_context`); pricing is no part of
/// it, so every caller prices a cached run on read exactly as a fresh one.
///
/// * the log is consulted once per plan, and a hit never reaches the
///   fleet;
/// * the misses run as one fleet batch, in input order, after `on_deploy`
///   is called — neither happens for a fully cached batch, so such a
///   batch never spawns a pool;
/// * misses that share a key share one run: a plan twice in a batch (two
///   candidates can lower to one plan) runs once, and its later positions
///   count as from the cache, exactly as in a later batch;
/// * each fresh `Ok` run is stored exactly once; an `Err` is returned
///   but never stored, so a transient failure is retried on the next run
///   rather than cached forever;
/// * cached and fresh runs merge at input positions.
pub fn measure_cached(
    fleet: &EdgeFleet,
    plans: &[ExecutionPlan],
    stream: &[Sample],
    cache: Option<&SharedCacheLog>,
    on_deploy: impl FnOnce(),
) -> Vec<(FleetOutcome, bool)> {
    let context = cache.map(|_| fleet.run_context(stream, PROTOCOL_VERSION));
    let keys: Vec<(u64, u64)> =
        context.map_or_else(Vec::new, |c| plans.iter().map(|p| (plan_wire_id(p), c)).collect());
    let log = cache.and_then(|log| log.lock().ok());
    let lookup = |i: usize| -> Option<(FleetOutcome, bool)> {
        let blob = log.as_ref()?.get_blob(keys[i])?;
        Some((Ok(serde_json::from_str(std::str::from_utf8(blob).ok()?).ok()?), true))
    };
    let mut runs: Vec<Option<(FleetOutcome, bool)>> = (0..plans.len()).map(lookup).collect();
    drop(log);
    let misses: Vec<usize> = (0..plans.len()).filter(|&i| runs[i].is_none()).collect();
    if !misses.is_empty() {
        on_deploy();
        // Misses that share a record share its one run, as they would
        // across batches: a plan twice in a batch runs once.
        let mut first = HashMap::new();
        let fresh: Vec<usize> = (misses.iter().copied())
            .filter(|&i| keys.get(i).is_none_or(|&key| *first.entry(key).or_insert(i) == i))
            .collect();
        let fresh_plans: Vec<ExecutionPlan> = fresh.iter().map(|&i| plans[i].clone()).collect();
        let outcomes = fleet.run_batch(&fresh_plans, stream);
        let mut log = cache.and_then(|log| log.lock().ok());
        for (&i, outcome) in fresh.iter().zip(outcomes) {
            if let (Some(log), Ok(run)) = (log.as_mut(), &outcome) {
                log.put_blob(
                    keys[i],
                    serde_json::to_string(run).expect("a run serializes").as_bytes(),
                );
            }
            runs[i] = Some((outcome, false));
        }
        for &i in &misses {
            if runs[i].is_none() {
                runs[i] = Some(match &runs[first[&keys[i]]] {
                    Some((Ok(run), _)) => (Ok(run.clone()), true),
                    _ => (Err(EngineError::Protocol("the same plan failed".to_string())), false),
                });
            }
        }
    }
    runs.into_iter().map(|run| run.expect("every plan has a run")).collect()
}

/// The post-warmup window of one run: where it starts, its per-frame
/// latencies, and its wire bytes. Warmup frames primed the pipeline and
/// must not leak into latency, traffic, energy or hit rates.
fn measured_window(stats: &EngineStats, warmup: usize) -> (usize, &[f64], usize) {
    let cut = warmup.min(stats.frame_latencies_s.len());
    (cut, &stats.frame_latencies_s[cut..], stats.frame_bytes.iter().skip(cut).sum())
}

/// The one accumulator that folds deployment outcomes into a
/// [`MeasuredProfile`] — the backend's search-wide telemetry and a served
/// session's zoo measurement are both this fold.
#[derive(Debug, Default)]
pub struct ProfileFold {
    /// Post-warmup per-frame latencies of every successful outcome.
    latencies_s: Vec<f64>,
    /// Compressed device→edge bytes of those same frames.
    bytes_sent: u64,
    errors: u64,
    deployed: u64,
    cached: u64,
}

impl ProfileFold {
    /// Folds one candidate's outcome. A success contributes the frames
    /// past `warmup` and counts as served `from_cache` or deployed; a
    /// failure counts as an error.
    pub fn absorb(&mut self, outcome: &FleetOutcome, warmup: usize, from_cache: bool) {
        match outcome {
            Ok((_, stats)) => {
                let (_, measured, bytes) = measured_window(stats, warmup);
                self.latencies_s.extend_from_slice(measured);
                self.bytes_sent += bytes as u64;
                *(if from_cache { &mut self.cached } else { &mut self.deployed }) += 1;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Percentiles, traffic and counters over everything absorbed so far.
    pub fn profile(&self) -> MeasuredProfile {
        let (p50_s, p95_s, p99_s) = latency_percentiles(&self.latencies_s);
        MeasuredProfile {
            frames: self.latencies_s.len() as u64,
            p50_s,
            p95_s,
            p99_s,
            bytes_sent: self.bytes_sent,
            errors: self.errors,
            deployed: self.deployed,
            cached: self.cached,
        }
    }
}

/// [`EvalBackend`] that measures candidates on the live TCP engine —
/// [`Fidelity::Measured`], the ground truth every cheaper tier
/// approximates.
///
/// Every candidate takes the one deployment path: lower to an
/// [`ExecutionPlan`], hand it to the backend's [`EdgeFleet`] — by default
/// one warm loopback pool, spawned lazily on the first uncached candidate;
/// [`with_fleet`](Self::with_fleet) widens it to N pools and/or points it
/// at remote pre-deployed edges — and stream `warmup + frames` real
/// samples through the pipelined runtime. Each candidate hot-swaps its
/// plan onto a warm pair via one `SwapPlan` control frame (none for a
/// local plan, which the edge never serves): no process spawn, TCP
/// handshake or teardown per candidate, exactly the paper's Sec. 3.6
/// dispatcher move (the shared supernet `WeightBank` makes a swap
/// weight-transfer-free). Weights are keyed and seeded per
/// slot and the edge RNG restarts on every swap, so predictions are
/// bit-identical to a freshly spawned pair, for any pool count.
///
/// Warmup frames prime the pipeline and are excluded from pricing and
/// telemetry: latency is the mean *post-warmup* per-frame latency, energy
/// prices the measured window's own traffic (run power over the measured
/// frame latency plus link energy for measured bytes per measured frame —
/// the busy/idle split is not observable from wall clock), and a measured
/// accuracy ([`with_measured_accuracy`](Self::with_measured_accuracy))
/// counts measured frames only.
///
/// Deployment failures never poison a search. A pool that dies under a
/// candidate is discarded and respawned (loopback) or reconnected
/// (remote), and the candidate is retried once
/// ([`MAX_TRIES_PER_CANDIDATE`](crate::fleet::MAX_TRIES_PER_CANDIDATE));
/// only one that fails again — or outlives every endpoint — is priced at
/// [`DEPLOY_FAILURE_SENTINEL`] (infeasible under any sane constraint) and
/// counted in [`EngineBackend::measured_profile`]. The backend remains
/// usable for the next candidate either way.
///
/// Being a wall-clock measurement, metrics are *not* bit-reproducible
/// across runs — that is the point of the tier. Memoization still holds
/// within a `SearchSession` (each unique candidate is measured once).
///
/// # Example
///
/// ```
/// use gcode_core::arch::Architecture;
/// use gcode_core::eval::Evaluator;
/// use gcode_core::op::{Op, SampleFn};
/// use gcode_engine::EngineBackend;
/// use gcode_graph::datasets::PointCloudDataset;
/// use gcode_hardware::SystemConfig;
/// use gcode_nn::{agg::AggMode, pool::PoolMode};
///
/// let ds = PointCloudDataset::generate(3, 12, 2, 7);
/// let backend = EngineBackend::new(
///     ds.samples().to_vec(),
///     2,
///     SystemConfig::tx2_to_i7(40.0),
///     |a: &Architecture| 0.8 + 0.001 * a.len() as f64,
/// )
/// .with_frames(2)
/// .with_warmup(1);
///
/// let arch = Architecture::new(vec![
///     Op::Sample(SampleFn::Knn { k: 4 }),
///     Op::Aggregate(AggMode::Max),
///     Op::Communicate,
///     Op::GlobalPool(PoolMode::Max),
/// ]);
/// let metrics = backend.evaluate(&arch); // deploys over real loopback TCP
/// assert!(metrics.latency_s > 0.0);
/// let profile = backend.measured_profile();
/// assert_eq!(profile.frames, 2); // the warmup frame is excluded
/// ```
pub struct EngineBackend<F: Fn(&Architecture) -> f64 + Sync> {
    samples: Vec<Sample>,
    num_classes: usize,
    sys: SystemConfig,
    frames: usize,
    warmup: usize,
    uplink_mbps: Option<f64>,
    bank_seed: u64,
    run_seed: u64,
    fleet_spec: FleetSpec,
    measured_accuracy: bool,
    accuracy_fn: F,
    cache_log: Option<SharedCacheLog>,
    profile: Mutex<ProfileFold>,
    fleet: OnceLock<EdgeFleet>,
}

impl<F: Fn(&Architecture) -> f64 + Sync> EngineBackend<F> {
    /// Creates a backend that streams `samples` (cycled as needed) through
    /// each candidate's deployed pipeline. `num_classes` sizes the shared
    /// supernet `WeightBank`; `sys` supplies the power/link model used to
    /// convert measured times and bytes into energy; `accuracy_fn` prices
    /// accuracy (surrogate or supernet; see
    /// [`with_measured_accuracy`](Self::with_measured_accuracy) to price
    /// the frame stream's own hit rate instead).
    ///
    /// Defaults: measure every sample once, no warmup, no uplink throttle,
    /// one loopback pool.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty — the engine needs frames to drive.
    pub fn new(
        samples: Vec<Sample>,
        num_classes: usize,
        sys: SystemConfig,
        accuracy_fn: F,
    ) -> Self {
        assert!(!samples.is_empty(), "EngineBackend needs at least one sample frame");
        Self {
            frames: samples.len(),
            samples,
            num_classes,
            sys,
            warmup: 0,
            uplink_mbps: None,
            bank_seed: 0x5EED,
            run_seed: 0xE261,
            fleet_spec: FleetSpec::default(),
            measured_accuracy: false,
            accuracy_fn,
            cache_log: None,
            profile: Mutex::new(ProfileFold::default()),
            fleet: OnceLock::new(),
        }
    }

    /// Switches accuracy pricing from the modeled `accuracy_fn` to the
    /// *measured* stream hit rate: every candidate is driven with
    /// `dataset` (a held-out split, replacing the constructor's samples),
    /// and [`Metrics::accuracy`] becomes the fraction of post-warmup
    /// frames whose live prediction matched its label. A run cached by a
    /// modeled-accuracy backend over the same stream serves this one too:
    /// the hit rate is scored from its stored predictions.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` is empty — measured accuracy needs labeled
    /// frames to score against.
    #[must_use]
    pub fn with_measured_accuracy(mut self, dataset: Vec<Sample>) -> Self {
        assert!(!dataset.is_empty(), "measured accuracy needs a held-out dataset");
        self.frames = dataset.len();
        self.samples = dataset;
        self.measured_accuracy = true;
        self
    }

    /// Sets how many frames are measured per candidate (at least 1;
    /// samples are cycled when the count exceeds the dataset).
    #[must_use]
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames.max(1);
        self
    }

    /// Sets how many warmup frames prime the pipeline before measurement
    /// starts (excluded from pricing and telemetry).
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Caps the device uplink at `mbps`, reproducing the paper's router
    /// bandwidth limits on loopback.
    #[must_use]
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.uplink_mbps = Some(mbps);
        self
    }

    /// Seeds the shared weight bank (device and edge halves always agree).
    #[must_use]
    pub fn with_bank_seed(mut self, seed: u64) -> Self {
        self.bank_seed = seed;
        self
    }

    /// Replaces the default one-loopback-pool fleet with `spec`'s
    /// endpoints — more loopback pools, remote pre-deployed edges, or a
    /// mix. Every escalated batch becomes a shared morsel queue that one
    /// worker per live pool drains, each pulling the next candidate the
    /// moment its previous measurement finishes. Predictions are
    /// bit-identical for any pool count; per-pool lifecycle counters, busy
    /// time and per-candidate latency percentiles surface via
    /// [`fleet_stats`](Self::fleet_stats). A pool that dies mid-morsel is
    /// respawned/excluded and its candidate goes back on the queue, so one
    /// dead machine costs throughput, not results.
    #[must_use]
    pub fn with_fleet(mut self, spec: FleetSpec) -> Self {
        self.fleet_spec = spec;
        self
    }

    /// Attaches a persistent [`CacheLog`](gcode_core::cachelog::CacheLog):
    /// before deploying a candidate the backend consults the log, and every
    /// fresh successful run is written through, so a later process over the
    /// same log re-prices repeated candidates without a single deployment
    /// — zero pool spawns, zero socket traffic, bit-exact `f64` metrics.
    /// Failed deployments are never stored, so a transient socket error is
    /// retried on the next run rather than cached forever.
    ///
    /// The log holds each plan's raw run (predictions and
    /// [`EngineStats`]), keyed by the plan's wire id and a context of
    /// everything that shapes the run — bank and run seeds, uplink cap,
    /// fleet endpoints, the frame stream's content, the wire version — so
    /// differently configured fleets and streams never share a record.
    /// Pricing happens on read: backends that differ only in
    /// `SystemConfig`, accuracy function, warmup cut or accuracy mode share
    /// runs and each prices them its own way.
    #[must_use]
    pub fn with_cache_log(mut self, log: SharedCacheLog) -> Self {
        self.cache_log = Some(log);
        self
    }

    /// Candidates priced from the persistent cache log instead of a live
    /// deployment.
    pub fn log_hits(&self) -> u64 {
        self.profile.lock().cached
    }

    /// Percentiles and traffic accumulated over every *measured* frame so
    /// far — the payload a `SearchReport` surfaces for Measured runs.
    /// Warmup frames contribute nothing here: their latencies, bytes and
    /// hit/miss outcomes are all dropped before accumulation.
    pub fn measured_profile(&self) -> MeasuredProfile {
        self.profile.lock().profile()
    }

    /// Successful deployments so far.
    pub fn deployments(&self) -> u64 {
        self.profile.lock().deployed
    }

    /// The fleet every deployment runs on, built from the configured spec,
    /// seeds and uplink cap. Construction does no I/O — pools spawn or
    /// connect on the first batch that needs them.
    fn new_fleet(&self) -> EdgeFleet {
        let fleet = EdgeFleet::new(
            self.fleet_spec.clone(),
            self.num_classes,
            self.bank_seed,
            self.run_seed,
        );
        match self.uplink_mbps {
            Some(mbps) => fleet.with_uplink_mbps(mbps),
            None => fleet,
        }
    }

    /// Per-pool fleet telemetry — spawns, deployments, failures, busy time
    /// and per-candidate latency percentiles per endpoint. All-zero
    /// counters until the first uncached candidate spawns a pool.
    pub fn fleet_stats(&self) -> FleetStats {
        self.fleet.get().map_or_else(|| self.new_fleet().stats(), EdgeFleet::stats)
    }

    /// The warmup+measured frame stream for one candidate.
    fn stream(&self) -> Vec<Sample> {
        (0..self.warmup + self.frames)
            .map(|i| self.samples[i % self.samples.len()].clone())
            .collect()
    }

    /// Converts one successful run's raw predictions and [`EngineStats`]
    /// into [`Metrics`] under this backend's `SystemConfig`, accuracy
    /// pricing and warmup cut — the same for a cached and a fresh run, so
    /// backends sharing a log never see each other's prices. Everything
    /// priced here comes from the measured window only — never empty, since
    /// a candidate streams at least one frame past its warmup: warmup
    /// frames primed the pipeline and must not leak into latency, traffic,
    /// energy or a measured hit rate.
    fn price(&self, arch: &Architecture, outcome: &FleetOutcome) -> Option<Metrics> {
        let (predictions, stats) = outcome.as_ref().ok()?;
        let (cut, measured, measured_bytes) = measured_window(stats, self.warmup);
        let mean_s = measured.iter().sum::<f64>() / measured.len() as f64;
        let bytes_per_frame = measured_bytes / measured.len();
        let energy_j = self.sys.device.run_power_w * mean_s
            + self.sys.power.device_comm_energy(&self.sys.link, bytes_per_frame, 0);
        let accuracy = if self.measured_accuracy {
            let correct = predictions
                .iter()
                .enumerate()
                .skip(cut)
                .filter(|&(i, &p)| p == self.samples[i % self.samples.len()].label)
                .count();
            correct as f64 / measured.len() as f64
        } else {
            (self.accuracy_fn)(arch)
        };
        Some(Metrics { accuracy, latency_s: mean_s, energy_j })
    }

    /// The one deployment path: the batch is lowered to plans — the one
    /// lowering, the cut the candidate itself carries — and
    /// [`measure_cached`] answers each plan's run from the cache log or
    /// from the [`EdgeFleet`]'s pools (the fleet is built lazily on first
    /// use). Every run, cached or fresh, is folded into the telemetry and
    /// priced by this backend's own [`price`](Self::price). Fleet-internal
    /// recoveries are invisible here — only candidates the fleet
    /// definitively gave up on come back as errors, and those get the
    /// sentinel.
    fn run_fleet_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        let plans: Vec<ExecutionPlan> =
            archs.iter().map(ExecutionPlan::from_architecture).collect();
        let fleet = self.fleet.get_or_init(|| self.new_fleet());
        let runs = measure_cached(fleet, &plans, &self.stream(), self.cache_log.as_ref(), || {});
        let failed = Metrics {
            accuracy: 0.0,
            latency_s: DEPLOY_FAILURE_SENTINEL,
            energy_j: DEPLOY_FAILURE_SENTINEL,
        };
        let priced = archs.iter().zip(&runs).map(|(arch, (outcome, from_cache))| {
            self.profile.lock().absorb(outcome, self.warmup, *from_cache);
            self.price(arch, outcome).unwrap_or(failed)
        });
        priced.collect()
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> Drop for EngineBackend<F> {
    /// Shuts the fleet (if one was ever built) down cleanly — `Shutdown`
    /// control frames, then join — so no serve thread outlives the
    /// backend.
    fn drop(&mut self) {
        if let Some(fleet) = self.fleet.take() {
            let _ = fleet.shutdown();
        }
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> Evaluator for EngineBackend<F> {
    /// Single lookups (the ladder's honest-winner escalations) are a batch
    /// of one, so every deployment shares the warm pools and the per-pool
    /// accounting.
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        self.run_fleet_batch(std::slice::from_ref(arch))
            .pop()
            .expect("one metric for one candidate")
    }

    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        self.run_fleet_batch(archs)
    }

    /// The fleet is its own parallel driver: the batch is handed over
    /// whole so scheduling follows pools, not `workers` — the session's
    /// worker count never changes how a Measured batch is served.
    fn evaluate_batch_workers(&self, archs: &[Architecture], _workers: usize) -> Vec<Metrics> {
        self.run_fleet_batch(archs)
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> EvalBackend for EngineBackend<F> {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Measured
    }

    fn cost_hint(&self) -> f64 {
        // Real kernels over real sockets, per frame streamed: orders of
        // magnitude above the analytic LUT walk and well above a
        // discrete-event pass, scaling with the configured stream length.
        50.0 * (self.warmup + self.frames) as f64
    }

    fn name(&self) -> &str {
        "engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::op::{Op, SampleFn};
    use gcode_graph::datasets::PointCloudDataset;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn split_arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 8 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    fn backend() -> EngineBackend<fn(&Architecture) -> f64> {
        let ds = PointCloudDataset::generate(4, 12, 2, 7);
        EngineBackend::new(
            ds.samples().to_vec(),
            2,
            SystemConfig::tx2_to_i7(40.0),
            |a: &Architecture| 0.8 + 0.001 * a.len() as f64,
        )
    }

    fn tmp_log(name: &str) -> (std::path::PathBuf, SharedCacheLog) {
        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let log = gcode_core::cachelog::open_shared(&path).expect("open log");
        (path, log)
    }

    fn split_plan(dim: usize) -> ExecutionPlan {
        ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]))
    }

    /// The successful run of an outcome, for comparisons (`EngineError`
    /// has no equality).
    fn ok(outcome: &FleetOutcome) -> Option<&(Vec<usize>, EngineStats)> {
        outcome.as_ref().ok()
    }

    #[test]
    fn measure_cached_partitions_merges_and_stores_only_successes() {
        let (path, log) = tmp_log("measure-cached.gclg");
        let ds = PointCloudDataset::generate(2, 12, 2, 7);
        let stream = ds.samples();
        // Plan 4 is plan 0 again: one record, so one run.
        let plans: Vec<ExecutionPlan> = [8, 16, 24, 32, 8].into_iter().map(split_plan).collect();
        let fleet = EdgeFleet::new(FleetSpec::default(), 2, 0x5EED, 0xE261);
        let context = fleet.run_context(stream, PROTOCOL_VERSION);

        // Runs on record for plans 1 and 3: stand-ins no fleet would produce.
        let held = |i: usize| {
            let stats = EngineStats {
                wall_s: i as f64,
                bytes_sent: i,
                frame_bytes: vec![i],
                frame_latencies_s: vec![i as f64],
            };
            (vec![90 + i; stream.len()], stats)
        };
        for i in [1, 3] {
            let blob = serde_json::to_string(&held(i)).expect("serializes");
            log.lock().expect("log").put_blob((plan_wire_id(&plans[i]), context), blob.as_bytes());
        }

        // Interleaved: hits stay at their positions, the distinct misses
        // run as one batch after one `on_deploy`, a repeated plan shares its
        // first occurrence's run, and exactly the fresh runs are stored.
        let mut deploys = 0;
        let runs = measure_cached(&fleet, &plans, stream, Some(&log), || deploys += 1);
        assert_eq!(deploys, 1);
        let from_cache: Vec<bool> = runs.iter().map(|r| r.1).collect();
        assert_eq!(from_cache, [false, true, false, true, true]);
        assert_eq!(ok(&runs[4].0), ok(&runs[0].0), "a repeated plan is one run");
        for i in [1, 3] {
            assert_eq!(ok(&runs[i].0), Some(&held(i)), "plan {i} answered from the log");
        }
        assert_eq!(fleet.stats().deployments(), 2, "a hit never reaches the fleet");
        let stored = |plan: &ExecutionPlan, context| {
            log.lock().expect("log").get_blob((plan_wire_id(plan), context)).is_some()
        };
        assert!(plans.iter().all(|plan| stored(plan, context)), "both fresh runs were stored");

        // Fully cached: no `on_deploy`, no deployment, the stored fresh runs
        // replay bit for bit.
        let again = measure_cached(&fleet, &plans, stream, Some(&log), || panic!("deployed"));
        assert!(again.iter().all(|r| r.1), "every plan answered from the log");
        for (cold, warm) in runs.iter().zip(&again) {
            assert_eq!(ok(&cold.0), ok(&warm.0));
        }
        assert_eq!(fleet.stats().deployments(), 2);
        fleet.shutdown().expect("clean");

        // A failed run is returned, never stored: nothing listens on port 1.
        let dead = EdgeFleet::new("127.0.0.1:1".parse().expect("spec"), 2, 0x5EED, 0xE261);
        let failed = measure_cached(&dead, &plans[..1], stream, Some(&log), || {});
        assert!(matches!(failed[..], [(Err(_), false)]));
        let dead_context = dead.run_context(stream, PROTOCOL_VERSION);
        assert!(!stored(&plans[0], dead_context), "a failure is retried, not cached");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_run_cached_with_the_ten_field_stats_still_decodes() {
        // A cache file outlives the build that wrote it: a blob holding
        // the derived columns (frames, fps, accuracy, percentiles) that
        // `EngineStats` no longer keeps must still serve its predictions
        // and its measured columns, not force a re-measure.
        let (path, log) = tmp_log("ten-field-stats.gclg");
        let ds = PointCloudDataset::generate(3, 12, 2, 7);
        let plan = split_plan(8);
        let fleet = EdgeFleet::new(FleetSpec::default(), 2, 0x5EED, 0xE261);
        let key = (plan_wire_id(&plan), fleet.run_context(ds.samples(), PROTOCOL_VERSION));
        let blob = br#"[[3,0,2],{"frames":3,"wall_s":0.25,"fps":12.0,"bytes_sent":300,"frame_bytes":[100,120,80],"accuracy":0.6666666666666666,"p50_s":0.002,"p95_s":0.003,"p99_s":0.003,"frame_latencies_s":[0.001,0.002,0.003]}]"#;
        log.lock().expect("log").put_blob(key, blob);
        let runs = measure_cached(&fleet, &[plan], ds.samples(), Some(&log), || panic!("deployed"));
        let kept = EngineStats {
            wall_s: 0.25,
            bytes_sent: 300,
            frame_bytes: vec![100, 120, 80],
            frame_latencies_s: vec![0.001, 0.002, 0.003],
        };
        assert!(runs[0].1, "the old format answers from the log");
        assert_eq!(ok(&runs[0].0), Some(&(vec![3, 0, 2], kept)));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn run_context_names_everything_that_shapes_a_run() {
        let ds = PointCloudDataset::generate(3, 12, 2, 7);
        let stream = ds.samples().to_vec();
        let fleet = |spec: &str| EdgeFleet::new(spec.parse().expect("spec"), 2, 0x5EED, 0xE261);
        let context =
            |fleet: EdgeFleet, stream: &[Sample]| fleet.run_context(stream, PROTOCOL_VERSION);
        let base = context(fleet("loopback"), &stream);
        assert_eq!(base, context(fleet("loopback"), &stream), "one run, one context");

        // A cache file outlives the build that wrote it: another `State`
        // codec measures other bytes and latencies.
        assert_ne!(base, fleet("loopback").run_context(&stream, PROTOCOL_VERSION - 1));
        // The bank, the seeds and the uplink cap shape the run.
        let seeded = |classes, bank, run| EdgeFleet::new(FleetSpec::default(), classes, bank, run);
        assert_ne!(base, context(seeded(3, 0x5EED, 0xE261), &stream), "classes");
        assert_ne!(base, context(seeded(2, 0x5EEE, 0xE261), &stream), "bank seed");
        assert_ne!(base, context(seeded(2, 0x5EED, 0xE262), &stream), "run seed");
        assert_ne!(base, context(fleet("loopback").with_uplink_mbps(40.0), &stream), "uplink");
        // Same width, different endpoints: what one fleet measured says
        // nothing about the other's machines. Width counts, spelling not.
        let lan = |spec| context(fleet(spec), &stream);
        assert_ne!(lan("loopback:2"), lan("10.0.0.7:9000,10.0.0.8:9000"));
        assert_ne!(lan("10.0.0.7:9000,10.0.0.8:9000"), lan("10.0.0.7:9000,10.0.0.9:9000"));
        assert_ne!(base, lan("loopback:2"), "width still counts");
        assert_eq!(lan("loopback:2"), lan("loopback,loopback"), "spelling does not");

        // The stream's content, not just its shape: one feature bit, one
        // label, one graph edge, one more frame.
        let mut feature = stream.clone();
        feature[2].features.as_mut_slice()[5] += 1.0;
        let mut label = stream.clone();
        label[0].label ^= 1;
        let graph = |edges: &[(u32, u32)]| {
            let mut graphed = stream.clone();
            graphed[1].graph = Some(gcode_graph::CsrGraph::from_edges(12, edges));
            graphed
        };
        let longer: Vec<Sample> = stream.iter().chain(&stream[..1]).cloned().collect();
        let contexts: Vec<u64> = [feature, label, graph(&[(0, 1)]), graph(&[(0, 2)]), longer]
            .iter()
            .map(|s| context(fleet("loopback"), s))
            .chain([base])
            .collect();
        let distinct: std::collections::HashSet<u64> = contexts.iter().copied().collect();
        assert_eq!(distinct.len(), contexts.len(), "{contexts:x?}");
    }

    #[test]
    fn streams_differing_in_one_feature_value_never_share_a_record() {
        let (path, log) = tmp_log("stream-content.gclg");
        let ds = PointCloudDataset::generate(4, 12, 2, 7);
        let mut tweaked = ds.samples().to_vec();
        tweaked[1].features.as_mut_slice()[0] += 0.5;
        let over = |samples: Vec<Sample>| {
            EngineBackend::new(samples, 2, SystemConfig::tx2_to_i7(40.0), |_: &Architecture| 0.8)
                .with_cache_log(log.clone())
        };
        let first = over(ds.samples().to_vec());
        first.evaluate(&split_arch());
        assert_eq!(first.deployments(), 1);
        let second = over(tweaked);
        second.evaluate(&split_arch());
        assert_eq!(
            (second.log_hits(), second.deployments()),
            (0, 1),
            "another dataset, another run"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn profile_fold_cuts_warmup_and_splits_deployed_from_cached() {
        let run = |latencies: &[f64], bytes: &[usize]| -> FleetOutcome {
            Ok((
                vec![0; latencies.len()],
                EngineStats {
                    wall_s: 1.0,
                    bytes_sent: bytes.iter().sum(),
                    frame_bytes: bytes.to_vec(),
                    frame_latencies_s: latencies.to_vec(),
                },
            ))
        };
        let mut fold = ProfileFold::default();
        assert_eq!(fold.profile().frames, 0, "an empty fold is an all-zero profile");
        fold.absorb(&run(&[9.0, 0.1, 0.2], &[900, 10, 20]), 1, false);
        fold.absorb(&run(&[9.0, 0.3], &[900, 30]), 1, true);
        fold.absorb(&run(&[9.0], &[900]), 4, false); // all warmup: nothing measured
        fold.absorb(&Err(crate::EngineError::Protocol("dead pool".to_string())), 1, false);
        let p = fold.profile();
        assert_eq!((p.frames, p.bytes_sent), (3, 60), "warmup frames contribute nothing");
        assert_eq!((p.deployed, p.cached, p.errors), (2, 1, 1));
        assert_eq!((p.p50_s, p.p99_s), (0.2, 0.3));
    }

    #[test]
    fn measures_offloaded_candidate_with_real_sockets() {
        let b = backend().with_frames(3).with_warmup(1);
        let m = b.evaluate(&split_arch());
        assert!(m.latency_s > 0.0 && m.latency_s < DEPLOY_FAILURE_SENTINEL);
        assert!(m.energy_j > 0.0 && m.energy_j < DEPLOY_FAILURE_SENTINEL);
        assert!(m.accuracy > 0.0);
        let profile = b.measured_profile();
        assert_eq!(profile.frames, 3, "warmup frames are excluded");
        assert_eq!(profile.errors, 0);
        assert!(profile.bytes_sent > 0, "a split design must ship traffic");
        assert!(profile.p50_s <= profile.p95_s && profile.p95_s <= profile.p99_s);
        assert_eq!(b.deployments(), 1);
    }

    #[test]
    fn measures_device_only_candidate_without_traffic() {
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let b = backend().with_frames(2);
        let m = b.evaluate(&arch);
        assert!(m.latency_s < DEPLOY_FAILURE_SENTINEL);
        assert_eq!(b.measured_profile().bytes_sent, 0);
        // A second candidate reuses the backend cleanly.
        let m2 = b.evaluate(&split_arch());
        assert!(m2.latency_s < DEPLOY_FAILURE_SENTINEL);
        assert_eq!(b.deployments(), 2);
    }

    #[test]
    fn cache_log_warm_restart_deploys_nothing_and_is_bit_identical() {
        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("backend-warm.gclg");
        let _ = std::fs::remove_file(&path);
        let local = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);

        // Cold process: real deployments, written through to the log.
        let log = gcode_core::cachelog::open_shared(&path).expect("open log");
        let cold = backend().with_frames(2).with_cache_log(log);
        let cold_split = cold.evaluate(&split_arch());
        let cold_local = cold.evaluate(&local);
        assert_eq!(cold.deployments(), 2);
        assert_eq!(cold.log_hits(), 0);
        drop(cold);

        // Warm process: same configuration, same log — every candidate is
        // priced from the log with bit-exact metrics and no engine at all.
        let log = gcode_core::cachelog::open_shared(&path).expect("reopen log");
        let warm = backend().with_frames(2).with_cache_log(log);
        let warm_split = warm.evaluate(&split_arch());
        let warm_local = warm.evaluate(&local);
        assert_eq!(warm.deployments(), 0, "warm restart deploys nothing");
        assert_eq!(warm.fleet_stats().spawns(), 0, "no pool was even spawned");
        assert_eq!(warm.log_hits(), 2);
        for (w, c) in [(warm_split, cold_split), (warm_local, cold_local)] {
            assert_eq!(w.accuracy.to_bits(), c.accuracy.to_bits());
            assert_eq!(w.latency_s.to_bits(), c.latency_s.to_bits());
            assert_eq!(w.energy_j.to_bits(), c.energy_j.to_bits());
        }

        // A differently-configured backend must not see those entries.
        let log = gcode_core::cachelog::open_shared(&path).expect("reopen log");
        let other = backend().with_frames(3).with_cache_log(log);
        other.evaluate(&split_arch());
        assert_eq!(other.log_hits(), 0, "a longer stream is another run");
        assert_eq!(other.deployments(), 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn candidates_lowering_to_one_plan_share_one_run_cold_and_warm() {
        // `Combine` and `EdgeCombine` lower alike: two candidates, one plan,
        // one record. The cold batch must already price them from one run,
        // or its warm replay could not repeat both.
        let (path, log) = tmp_log("one-plan-two-candidates.gclg");
        let edge_combine = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::EdgeCombine { dim: 8 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]);
        let archs = [split_arch(), edge_combine];
        let plan = |a: &Architecture| plan_wire_id(&ExecutionPlan::from_architecture(a));
        assert_eq!(plan(&archs[0]), plan(&archs[1]), "the premise: one plan");

        let cold = backend().with_cache_log(log.clone());
        let cold_metrics = cold.evaluate_batch(&archs);
        assert_eq!((cold.deployments(), cold.log_hits()), (1, 1), "one plan, one run");
        assert_eq!(cold_metrics[0].latency_s.to_bits(), cold_metrics[1].latency_s.to_bits());
        let warm = backend().with_cache_log(log);
        assert_eq!(warm.evaluate_batch(&archs), cold_metrics, "the warm replay repeats both");
        assert_eq!(warm.deployments(), 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn backend_deploys_the_plan_the_dispatcher_picks() {
        use crate::proto::{decode_frame, plan_wire_id, read_message, Frame};
        use gcode_core::search::ScoredArch;
        use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
        // A remote "edge" that records the id of every plan shipped to it
        // and hangs up: the measurement fails, the deployed plan is known.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (seen, deployed) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                while let Ok(Some(body)) = read_message(&mut stream) {
                    if let Ok(Frame::SwapPlan(plan)) = decode_frame(&body) {
                        let _ = seen.send(plan_wire_id(&plan));
                        break;
                    }
                }
            }
        });
        // An identity, a fusable pair and a late cut: everything the retired
        // optimizer rewrote for the backend and left alone for the dispatcher.
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Identity,
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 8 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]);
        let b = backend().with_fleet(addr.to_string().parse().expect("fleet spec"));
        assert_eq!(b.evaluate(&arch).latency_s, DEPLOY_FAILURE_SENTINEL, "the edge hung up");

        let entry = ScoredArch {
            arch: arch.clone(),
            score: 0.9,
            accuracy: 0.9,
            latency_s: 0.1,
            energy_j: 0.1,
        };
        let zoo = ArchitectureZoo::new(vec![entry]);
        let pick = zoo.dispatch(RuntimeConstraint::none()).expect("one entry");
        let picked = ExecutionPlan::from_architecture(&pick.arch);
        let deployed: Vec<u64> = deployed.try_iter().collect();
        assert!(!deployed.is_empty(), "the backend shipped a plan before the edge hung up");
        assert!(deployed.iter().all(|&id| id == plan_wire_id(&picked)), "{deployed:x?}");
        assert_eq!(picked, ExecutionPlan::from_architecture(&arch));
    }

    #[test]
    fn reports_measured_identity() {
        let b = backend().with_frames(4).with_warmup(2);
        assert_eq!(b.fidelity(), Fidelity::Measured);
        assert_eq!(b.name(), "engine");
        assert_eq!(b.cost_hint(), 50.0 * 6.0);
    }
}
