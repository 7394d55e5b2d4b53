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
use crate::proto::PROTOCOL_VERSION;
use crate::runtime::EngineStats;
use gcode_core::arch::Architecture;
use gcode_core::cachelog::{self, SharedCacheLog};
use gcode_core::eval::backend::{EvalBackend, Fidelity};
use gcode_core::eval::scenario::latency_percentiles;
use gcode_core::eval::{Evaluator, FleetStats, MeasuredProfile, Metrics};
use gcode_graph::datasets::Sample;
use gcode_hardware::SystemConfig;
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Latency/energy assigned to a candidate whose deployment failed
/// (socket or protocol error): large but finite so it serializes cleanly
/// and can never pass a sane constraint.
pub const DEPLOY_FAILURE_SENTINEL: f64 = 1e9;

/// What [`measure_cached`] answers: one outcome per key in input order,
/// and the input positions that had to be measured.
type Merged<T, E> = (Vec<Result<T, E>>, Vec<usize>);

/// The one cache-partition routine of the Measured tier: price `keys`
/// from `lookup` where it answers and from `measure` where it does not.
/// It owns the invariants every caller relies on:
///
/// * `lookup` is consulted once per key, in input order, and a hit never
///   reaches `measure`;
/// * `measure` receives the input positions of the misses, in order, and
///   answers one outcome per position — it is not invoked at all for a
///   fully cached batch, so such a batch never builds or spawns a fleet;
/// * `store` sees each fresh `Ok` outcome exactly once; an `Err` outcome
///   is returned but never stored, so a transient failure is retried on
///   the next run rather than cached forever;
/// * hits and fresh outcomes merge at input positions, and the positions
///   that were measured come back alongside (everything else was a hit).
///
/// The measuring step is passed in because its callers build their
/// batches differently — [`EngineBackend`] prices metrics, a served
/// session keeps raw predictions.
///
/// # Panics
///
/// Panics if `measure` answers fewer outcomes than it was given positions.
pub fn measure_cached<K, T, E>(
    keys: &[K],
    mut lookup: impl FnMut(&K) -> Option<T>,
    measure: impl FnOnce(&[usize]) -> Vec<Result<T, E>>,
    mut store: impl FnMut(&K, &T),
) -> Merged<T, E> {
    let mut results: Vec<Option<Result<T, E>>> = keys.iter().map(|k| lookup(k).map(Ok)).collect();
    let uncached: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
    if !uncached.is_empty() {
        for (&i, outcome) in uncached.iter().zip(measure(&uncached)) {
            if let Ok(value) = &outcome {
                store(&keys[i], value);
            }
            results[i] = Some(outcome);
        }
    }
    (results.into_iter().map(|r| r.expect("every batch slot was filled")).collect(), uncached)
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
/// local plan, which the edge never serves): no process spawn, TCP handshake or teardown per candidate, exactly the
/// paper's Sec. 3.6 dispatcher move (the shared supernet `WeightBank`
/// makes a swap weight-transfer-free). Weights are keyed and seeded per
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
    /// frames whose live prediction matched its label. The cache-log
    /// fidelity tag carries the pricing mode (`acc:measured` vs
    /// `acc:modeled`), so logs shared across both modes never serve each
    /// other's accuracy numbers.
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
    /// fresh successful measurement is written through, so a later process
    /// over the same log re-prices repeated candidates without a single
    /// deployment — zero pool spawns, zero socket traffic, bit-exact `f64`
    /// metrics. Failed deployments (sentinel metrics) are never stored, so
    /// a transient socket error is retried on the next run rather than
    /// cached forever.
    ///
    /// The log key's fidelity tag is derived from the backend configuration
    /// (seeds, frame counts, uplink cap, fleet endpoints, a dataset
    /// fingerprint), so differently-configured backends sharing one log
    /// file never serve each other's numbers. The accuracy function is the
    /// one input the tag cannot see — callers swapping accuracy models
    /// should use distinct log files.
    #[must_use]
    pub fn with_cache_log(mut self, log: SharedCacheLog) -> Self {
        self.cache_log = Some(log);
        self
    }

    /// The log-key fidelity tag for this configuration, computed once per
    /// batch (not per backend, so builder-method order never matters).
    /// Covers every knob that shapes the measured numbers plus a
    /// shape/label fingerprint of the frame stream.
    /// The fleet is tagged by its endpoint list, not its width: two specs
    /// of one length can name different machines.
    /// The wire protocol version is in it for the same reason: latency,
    /// energy and `bytes_sent` are functions of the `State` codec, so a
    /// log written by a build with another codec must re-measure.
    fn fidelity_tag(&self) -> u64 {
        self.fidelity_tag_under(PROTOCOL_VERSION)
    }

    /// [`fidelity_tag`](Self::fidelity_tag) as a build speaking
    /// `wire_version` would compute it.
    fn fidelity_tag_under(&self, wire_version: u8) -> u64 {
        let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
        for s in &self.samples {
            for v in [s.features.rows() as u64, s.features.cols() as u64, s.label as u64] {
                fingerprint ^= v;
                fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let uplink = match self.uplink_mbps {
            Some(mbps) => format!("{mbps}"),
            None => "none".to_string(),
        };
        let acc = if self.measured_accuracy { "measured" } else { "modeled" };
        cachelog::tag_key(&format!(
            "engine|classes{}|bank{:#x}|run{:#x}|frames{}|warmup{}|uplink{uplink}|fleet:{}|data{fingerprint:#x}|acc:{acc}|wire{wire_version}",
            self.num_classes, self.bank_seed, self.run_seed, self.frames, self.warmup,
            self.fleet_spec,
        ))
    }

    /// Consults the cache log for a candidate's stored metrics under `tag`.
    fn log_lookup(&self, arch: &Architecture, tag: u64) -> Option<Metrics> {
        let log = self.cache_log.as_ref()?;
        log.lock().ok()?.get(cachelog::arch_key(arch), tag, 0)
    }

    /// Writes a fresh successful measurement through to the cache log
    /// ([`measure_cached`] never hands a failed one over).
    fn log_store(&self, arch: &Architecture, tag: u64, m: Metrics) {
        if let Some(log) = &self.cache_log {
            if let Ok(mut log) = log.lock() {
                log.put(cachelog::arch_key(arch), tag, 0, m);
            }
        }
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

    /// Folds one fleet outcome into the telemetry and, for a successful
    /// deployment, converts its raw predictions and [`EngineStats`] into
    /// [`Metrics`]. Everything priced here comes from the measured window
    /// only — never empty, since a candidate streams at least one frame
    /// past its warmup: warmup frames primed the pipeline and must not leak
    /// into latency, traffic, energy or a measured hit rate.
    fn price(&self, arch: &Architecture, outcome: &FleetOutcome) -> Option<Metrics> {
        self.profile.lock().absorb(outcome, self.warmup, false);
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

    /// The one deployment path: [`measure_cached`] prices what the cache
    /// log holds; the rest of the batch is lowered to plans — the one
    /// lowering, the cut the candidate itself carries — pulled off the
    /// shared morsel queue by the [`EdgeFleet`]'s pools (the fleet is built
    /// lazily on first use) and priced. Fleet-internal recoveries are
    /// invisible here — only candidates the fleet definitively gave up on
    /// come back as errors, and those get the sentinel.
    fn run_fleet_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        let tag = self.fidelity_tag();
        let (priced, fresh) = measure_cached(
            archs,
            |arch| self.log_lookup(arch, tag),
            |uncached| {
                let plans: Vec<ExecutionPlan> =
                    uncached.iter().map(|&i| ExecutionPlan::from_architecture(&archs[i])).collect();
                let stream = self.stream();
                let outcomes =
                    self.fleet.get_or_init(|| self.new_fleet()).run_batch(&plans, &stream);
                let measured = uncached.iter().zip(&outcomes);
                measured.map(|(&i, o)| self.price(&archs[i], o).ok_or(())).collect()
            },
            |arch, &m| self.log_store(arch, tag, m),
        );
        self.profile.lock().cached += (archs.len() - fresh.len()) as u64;
        let failed = Metrics {
            accuracy: 0.0,
            latency_s: DEPLOY_FAILURE_SENTINEL,
            energy_j: DEPLOY_FAILURE_SENTINEL,
        };
        priced.into_iter().map(|m| m.unwrap_or(failed)).collect()
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

    #[test]
    fn measure_cached_partitions_merges_and_stores_only_successes() {
        // (case, keys the cache already holds, keys whose measurement fails)
        let cases: [(&str, &[u32], &[u32]); 4] = [
            ("all hits", &[1, 2, 3, 4, 5], &[]),
            ("all misses", &[], &[]),
            ("interleaved", &[2, 4], &[]),
            ("a failed outcome", &[1], &[3, 5]),
        ];
        let keys = [1u32, 2, 3, 4, 5];
        for (case, held, failing) in cases {
            let mut measured: Option<Vec<usize>> = None;
            let mut stored = Vec::new();
            let (outcomes, fresh) = measure_cached(
                &keys,
                |k| held.contains(k).then_some(*k * 10),
                |uncached| {
                    measured = Some(uncached.to_vec());
                    let fresh = uncached.iter().map(|&i| keys[i]);
                    fresh.map(|k| if failing.contains(&k) { Err(k) } else { Ok(k * 100) }).collect()
                },
                |k, v| stored.push((*k, *v)),
            );

            // Hits and fresh outcomes land at their input positions…
            let expected: Vec<Result<u32, u32>> = keys
                .iter()
                .map(|k| match (held.contains(k), failing.contains(k)) {
                    (true, _) => Ok(k * 10),
                    (false, false) => Ok(k * 100),
                    (false, true) => Err(*k),
                })
                .collect();
            assert_eq!(outcomes, expected, "{case}");
            // …a hit never reaches the measuring step, which is not even
            // invoked for a fully cached batch…
            let misses: Vec<usize> =
                (0..keys.len()).filter(|&i| !held.contains(&keys[i])).collect();
            assert_eq!(fresh, misses, "{case}");
            assert_eq!(measured, (!misses.is_empty()).then_some(misses), "{case}");
            // …and exactly the fresh successes are stored.
            let fresh_ok: Vec<(u32, u32)> = keys
                .iter()
                .filter(|k| !held.contains(k) && !failing.contains(k))
                .map(|&k| (k, k * 100))
                .collect();
            assert_eq!(stored, fresh_ok, "{case}");
        }
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
        assert_eq!(other.log_hits(), 0, "frames count is part of the fidelity tag");
        assert_eq!(other.deployments(), 1);
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
    fn wire_versions_never_share_a_log_entry() {
        // A cache file outlives the build that wrote it. Two builds that
        // differ only in the wire codec measure different bytes and
        // latencies for the same candidate, so what one stored the other
        // must not find.
        let b = backend().with_frames(3);
        let (ours, theirs) = (b.fidelity_tag(), b.fidelity_tag_under(PROTOCOL_VERSION - 1));
        assert_eq!(ours, b.fidelity_tag_under(PROTOCOL_VERSION));
        assert_ne!(ours, theirs);

        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("backend-wire-version.gclg");
        let _ = std::fs::remove_file(&path);
        let arch = cachelog::arch_key(&split_arch());
        let stored = Metrics { accuracy: 0.5, latency_s: 0.25, energy_j: 0.125 };
        let mut log = cachelog::CacheLog::open(&path).expect("open log");
        log.put(arch, theirs, 0, stored);
        assert_eq!(log.get(arch, theirs, 0), Some(stored));
        assert_eq!(log.get(arch, ours, 0), None, "another codec's entry must not replay");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn fleets_naming_different_machines_never_share_a_log_entry() {
        // Same width, different endpoints: what one fleet measured says
        // nothing about the other's machines.
        let tag =
            |spec: &str| backend().with_fleet(spec.parse().expect("fleet spec")).fidelity_tag();
        assert_ne!(tag("loopback:2"), tag("10.0.0.7:9000,10.0.0.8:9000"));
        assert_ne!(tag("10.0.0.7:9000,10.0.0.8:9000"), tag("10.0.0.7:9000,10.0.0.9:9000"));
        assert_ne!(tag("loopback"), tag("loopback:2"), "width still counts");
        assert_eq!(tag("loopback"), backend().fidelity_tag(), "the default is one loopback pool");
        assert_eq!(tag("loopback:2"), tag("loopback,loopback"), "spelling does not");
    }

    #[test]
    fn reports_measured_identity() {
        let b = backend().with_frames(4).with_warmup(2);
        assert_eq!(b.fidelity(), Fidelity::Measured);
        assert_eq!(b.name(), "engine");
        assert_eq!(b.cost_hint(), 50.0 * 6.0);
    }
}
