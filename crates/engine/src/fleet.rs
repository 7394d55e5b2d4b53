//! Fleet Measured tier: N warm [`EdgePool`]s draining one shared morsel
//! queue of candidates.
//!
//! One persistent pool (PR 4) removed the per-candidate deploy cost; the
//! fleet removes the *serialization*: an [`EdgeFleet`] owns one pool per
//! configured endpoint ([`FleetSpec`] — spawned loopback edges, remote
//! pre-deployed edges, or a mix) and runs each batch with a pull model.
//! The batch becomes a queue of `(index, candidate)` morsels in input
//! order; one worker thread per live pool pops the front morsel, measures
//! it, and immediately pops the next — so a pool that finishes early keeps
//! working instead of idling at a barrier, and a single slow candidate
//! delays only the pool that holds it. This is the work-stealing shape of
//! partition-pipeline schedulers (pipelines as schedulable tasks pulled
//! from a shared queue), not statically sharded work.
//!
//! Which pool measures a candidate is timing-dependent, but it cannot
//! change the candidate's *predictions*: every endpoint serves the same
//! per-slot-seeded supernet `WeightBank` and each deployment restarts its
//! RNG stream, so results merged at input positions are bit-identical for
//! any pool count — mirroring the worker-sharding guarantee of the
//! parallel batch driver.
//!
//! Failures stay contained per pool, and recovery is incremental: a pool
//! that dies mid-morsel is discarded, its candidate goes back on the
//! queue for whichever pool frees up next (counted in
//! [`FleetStats::resharded`]), and the dead endpoint is respawned
//! (loopback) or reconnected (remote, bounded by the spec's connect
//! timeout) *while the surviving workers keep draining the queue*. A
//! candidate only gets the deploy-failure sentinel when it has killed
//! pools repeatedly ([`MAX_TRIES_PER_CANDIDATE`]) or no pool is left.
//!
//! # Example
//!
//! ```
//! use gcode_core::arch::Architecture;
//! use gcode_core::op::{Op, SampleFn};
//! use gcode_engine::{EdgeFleet, ExecutionPlan, FleetSpec};
//! use gcode_graph::datasets::PointCloudDataset;
//! use gcode_nn::{agg::AggMode, pool::PoolMode};
//!
//! let ds = PointCloudDataset::generate(3, 12, 2, 7);
//! let arch = Architecture::new(vec![
//!     Op::Sample(SampleFn::Knn { k: 4 }),
//!     Op::Aggregate(AggMode::Max),
//!     Op::Communicate,
//!     Op::GlobalPool(PoolMode::Max),
//! ]);
//! let plans = vec![ExecutionPlan::from_architecture(&arch); 4];
//!
//! // Two loopback pools pull the four candidates off the shared queue.
//! let spec: FleetSpec = "loopback:2".parse().expect("spec");
//! let mut fleet = EdgeFleet::new(spec, 2, 0x5EED, 0xE261);
//! let outcomes = fleet.run_batch(&plans, ds.samples());
//! assert!(outcomes.iter().all(Result::is_ok));
//! assert_eq!(fleet.stats().deployments(), 4);
//! fleet.shutdown().expect("all pools joined");
//! ```

use crate::plan::ExecutionPlan;
use crate::pool::EdgePool;
use crate::runtime::EngineStats;
use crate::EngineError;
use gcode_core::eval::scenario::latency_percentiles;
use gcode_core::eval::{FleetStats, PoolStats};
use gcode_graph::datasets::Sample;
use gcode_nn::seq::WeightBank;
use std::io;
use std::net::SocketAddr;
use std::str::FromStr;
use std::thread::{self, Scope};

/// Where one fleet pool points: a loopback [`crate::EdgeServer`] the pool
/// spawns (and respawns) itself, or an already-running remote edge it
/// connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEndpoint {
    /// Spawn a private loopback edge for this pool.
    Loopback,
    /// Connect to a persistent edge at this address (one session per
    /// pool — the remote edge is shared, never shut down by the fleet).
    Remote(SocketAddr),
}

impl std::fmt::Display for FleetEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetEndpoint::Loopback => write!(f, "loopback"),
            FleetEndpoint::Remote(addr) => write!(f, "{addr}"),
        }
    }
}

/// Parsed fleet endpoint spec: which pools an [`EdgeFleet`] should run.
///
/// The textual form (CLI `--fleet`) is a comma-separated list where each
/// entry is either `loopback[:N]` (N spawned loopback pools, default 1) or
/// a remote `host:port` socket address:
///
/// ```
/// use gcode_engine::FleetSpec;
///
/// let local: FleetSpec = "loopback:4".parse().expect("4 loopback pools");
/// assert_eq!(local.len(), 4);
///
/// let lan: FleetSpec = "10.0.0.7:9000,10.0.0.8:9000".parse().expect("2 remotes");
/// assert_eq!(lan.len(), 2);
///
/// let mixed: FleetSpec = "loopback:2,10.0.0.7:9000".parse().expect("mixed");
/// assert_eq!(mixed.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    endpoints: Vec<FleetEndpoint>,
    connect_timeout: std::time::Duration,
}

/// Upper bound on pools per fleet — a typo like `loopback:4000` should be
/// a parse error, not four thousand spawned edge processes.
pub const MAX_FLEET_POOLS: usize = 64;

/// Default upper bound on one remote connect attempt. A LAN edge answers
/// in milliseconds; a powered-off machine whose SYNs vanish would
/// otherwise hold the coordinating thread for the OS default (minutes).
/// Override per spec with [`FleetSpec::with_connect_timeout`].
pub const DEFAULT_REMOTE_CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

impl FleetSpec {
    /// A fleet of `n` spawned loopback pools (1 ≤ n ≤ [`MAX_FLEET_POOLS`]).
    ///
    /// # Panics
    ///
    /// Panics when `n` is 0 or above the cap.
    pub fn loopback(n: usize) -> Self {
        assert!((1..=MAX_FLEET_POOLS).contains(&n), "fleet size {n} outside 1..={MAX_FLEET_POOLS}");
        Self {
            endpoints: vec![FleetEndpoint::Loopback; n],
            connect_timeout: DEFAULT_REMOTE_CONNECT_TIMEOUT,
        }
    }

    /// The configured endpoints, in spec order.
    pub fn endpoints(&self) -> &[FleetEndpoint] {
        &self.endpoints
    }

    /// Number of pools this spec configures.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the spec is empty (never true for a parsed spec).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Caps each remote connect/reconnect attempt at `timeout` instead of
    /// [`DEFAULT_REMOTE_CONNECT_TIMEOUT`] (loopback pools spawn locally
    /// and never consult it).
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// The per-attempt remote connect timeout this spec configures.
    pub fn connect_timeout(&self) -> std::time::Duration {
        self.connect_timeout
    }
}

impl Default for FleetSpec {
    /// One spawned loopback pool — what `EngineBackend` deploys on unless
    /// told otherwise.
    fn default() -> Self {
        Self::loopback(1)
    }
}

impl std::fmt::Display for FleetSpec {
    /// The endpoint list in spec order, comma-separated — the textual form
    /// [`FromStr`] accepts, one entry per pool. Cache tags use it, so two
    /// specs naming different machines never read as the same fleet.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, endpoint) in self.endpoints.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{endpoint}")?;
        }
        Ok(())
    }
}

impl FromStr for FleetSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut endpoints = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err("empty fleet entry (stray comma?)".to_string());
            }
            if entry == "loopback" {
                endpoints.push(FleetEndpoint::Loopback);
            } else if let Some(count) = entry.strip_prefix("loopback:") {
                let n: usize =
                    count.parse().map_err(|_| format!("bad loopback pool count `{count}`"))?;
                if n == 0 {
                    return Err("loopback pool count must be at least 1".to_string());
                }
                endpoints.extend((0..n).map(|_| FleetEndpoint::Loopback));
            } else {
                let addr: SocketAddr = entry.parse().map_err(|_| {
                    format!("`{entry}` is neither `loopback[:N]` nor a host:port address")
                })?;
                endpoints.push(FleetEndpoint::Remote(addr));
            }
        }
        if endpoints.is_empty() {
            return Err("a fleet needs at least one endpoint".to_string());
        }
        if endpoints.len() > MAX_FLEET_POOLS {
            return Err(format!(
                "{} endpoints exceed the {MAX_FLEET_POOLS}-pool fleet cap",
                endpoints.len()
            ));
        }
        Ok(Self { endpoints, connect_timeout: DEFAULT_REMOTE_CONNECT_TIMEOUT })
    }
}

/// One fleet slot: a (possibly currently dead) pool plus its counters.
struct PoolSlot {
    endpoint: FleetEndpoint,
    pool: Option<EdgePool>,
    stats: PoolStats,
    /// Wall time of every successful candidate measurement (deploy + run)
    /// this slot served, for the [`PoolStats`] latency percentiles.
    candidate_walls_s: Vec<f64>,
    /// Spawn/connect attempts that failed since the last success; at
    /// [`MAX_SPAWN_FAILURES`] the slot is excluded for good.
    spawn_failures_in_a_row: u8,
}

impl PoolSlot {
    /// Books the outcome of spawning this slot's worker thread and returns
    /// how many workers that added: a refused thread took the pool handed
    /// to it down with it, which is one failure and no worker.
    fn started(&mut self, spawned: io::Result<()>) -> usize {
        self.stats.failures += u64::from(spawned.is_err());
        usize::from(spawned.is_ok())
    }
}

/// Consecutive failed spawn/connect attempts after which a slot is
/// permanently excluded — an endpoint that is down stays down for the
/// batch timescale, and probing it on every respawn opportunity would pay
/// the connect timeout over and over across the search.
const MAX_SPAWN_FAILURES: u8 = 3;

/// Retries per candidate before it is written off as a deploy failure: a
/// candidate whose plan keeps killing pools must not chew through the
/// whole fleet.
pub const MAX_TRIES_PER_CANDIDATE: u8 = 2;

/// Morsel chunk a worker pops per batched deploy while the queue is deep.
/// Chunking amortizes the deploy control traffic (one `SwapPlanBatch`
/// round-trip per chunk instead of one `SwapPlan` per candidate), but near
/// the tail of the queue workers fall back to single-candidate morsels —
/// otherwise one pool could hoard the last stragglers while its
/// fleet-mates idle, exactly the skew the morsel queue exists to absorb.
const DEPLOY_CHUNK: usize = 2;

/// What one pool worker reports back to the coordinating thread while it
/// drains the morsel queue.
enum WorkerEvent {
    /// One candidate's measurement attempt finished (either way).
    Measured {
        slot: usize,
        cand: usize,
        wall_s: f64,
        result: Result<(Vec<usize>, EngineStats), EngineError>,
    },
    /// The worker stopped: queue empty (pool handed back warm) or pool
    /// death (`None` — the broken pool was dropped in the worker).
    Exited { slot: usize, pool: Option<Box<EdgePool>> },
}

/// One candidate's measurement through the fleet: predictions plus the
/// run's [`EngineStats`], or the error that exhausted its retries.
pub type FleetOutcome = Result<(Vec<usize>, EngineStats), EngineError>;

/// N warm [`EdgePool`]s draining candidate batches from a shared morsel
/// queue — the Measured tier at fleet scale.
///
/// Construction does no I/O: each slot's pool is spawned (loopback) or
/// connected (remote) lazily on the first [`run_batch`](Self::run_batch)
/// and respawned after a contained failure. All pools share one seeding
/// scheme, so *which* pool measures a candidate never changes its
/// predictions — see the module docs for the determinism argument.
pub struct EdgeFleet {
    slots: Vec<PoolSlot>,
    num_classes: usize,
    bank_seed: u64,
    run_seed: u64,
    uplink_mbps: Option<f64>,
    connect_timeout: std::time::Duration,
    resharded: u64,
}

impl EdgeFleet {
    /// Creates a fleet over `spec`'s endpoints. `num_classes` and
    /// `bank_seed` define the shared [`WeightBank`] every pool serves;
    /// `run_seed` seeds each deployment's RNG streams exactly as a single
    /// [`EdgePool`] would be seeded.
    pub fn new(spec: FleetSpec, num_classes: usize, bank_seed: u64, run_seed: u64) -> Self {
        let connect_timeout = spec.connect_timeout;
        let slots = spec
            .endpoints
            .into_iter()
            .map(|endpoint| PoolSlot {
                endpoint,
                pool: None,
                stats: PoolStats { endpoint: endpoint.to_string(), ..PoolStats::default() },
                candidate_walls_s: Vec::new(),
                spawn_failures_in_a_row: 0,
            })
            .collect();
        Self {
            slots,
            num_classes,
            bank_seed,
            run_seed,
            uplink_mbps: None,
            connect_timeout,
            resharded: 0,
        }
    }

    /// Caps every pool's device uplink at `mbps`.
    #[must_use]
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.uplink_mbps = Some(mbps);
        self
    }

    /// Re-caps the fleet's device uplink at `mbps` — scenario replay's
    /// per-segment link degradation. Live pools pick the cap up on their
    /// next run; pools spawned later inherit it.
    pub fn set_uplink_mbps(&mut self, mbps: f64) {
        self.uplink_mbps = Some(mbps);
        for slot in &mut self.slots {
            if let Some(pool) = slot.pool.as_mut() {
                pool.set_uplink_mbps(mbps);
            }
        }
    }

    /// Number of configured pool slots (live or not).
    pub fn pools(&self) -> usize {
        self.slots.len()
    }

    /// Total pool spawns/connects so far, across every slot.
    pub fn spawns(&self) -> u64 {
        self.slots.iter().map(|s| s.stats.spawns).sum()
    }

    /// Per-pool counters plus the fleet-level recovery tally. The
    /// per-candidate latency percentiles are computed here from each
    /// slot's full measurement-wall sample.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            pools: self
                .slots
                .iter()
                .map(|s| {
                    let (p50_s, p95_s, _) = latency_percentiles(&s.candidate_walls_s);
                    PoolStats { p50_s, p95_s, ..s.stats.clone() }
                })
                .collect(),
            resharded: self.resharded,
        }
    }

    /// Spawns/connects the slot's pool if it is currently dead. A failed
    /// attempt counts against the slot and leaves it excluded for the
    /// round; [`MAX_SPAWN_FAILURES`] failures in a row exclude it for
    /// good (a later successful respawn after a mid-shard death resets
    /// the count). Remote connects are bounded by the spec's
    /// [`FleetSpec::connect_timeout`] so a dead machine cannot stall the
    /// fleet.
    fn ensure_pool(&mut self, idx: usize) {
        if self.slots[idx].pool.is_some()
            || self.slots[idx].spawn_failures_in_a_row >= MAX_SPAWN_FAILURES
        {
            return;
        }
        let bank = WeightBank::new(self.num_classes, self.bank_seed);
        let spawned = match self.slots[idx].endpoint {
            FleetEndpoint::Loopback => EdgePool::spawn(bank, self.run_seed),
            FleetEndpoint::Remote(addr) => {
                EdgePool::connect_with_timeout(addr, bank, self.run_seed, self.connect_timeout)
            }
        };
        let slot = &mut self.slots[idx];
        match spawned {
            Ok(mut pool) => {
                if let Some(mbps) = self.uplink_mbps {
                    pool = pool.with_uplink_mbps(mbps);
                }
                slot.stats.spawns += 1;
                slot.spawn_failures_in_a_row = 0;
                slot.pool = Some(pool);
            }
            Err(_) => {
                slot.stats.failures += 1;
                slot.spawn_failures_in_a_row += 1;
            }
        }
    }

    /// Deploys and measures every plan in `plans`, streaming `stream`
    /// through each, with the fleet's live pools pulling candidates off a
    /// shared morsel queue. See [`run_batch_streams`](Self::run_batch_streams)
    /// (which this delegates to with one shared stream) for the
    /// scheduling, determinism and failure contract.
    pub fn run_batch(&mut self, plans: &[ExecutionPlan], stream: &[Sample]) -> Vec<FleetOutcome> {
        let streams: Vec<&[Sample]> = vec![stream; plans.len()];
        self.run_batch_streams(plans, &streams)
    }

    /// Deploys and measures every plan in `plans`, streaming `streams[i]`
    /// through `plans[i]` — the per-candidate-stream variant that skewed
    /// workloads (and multi-tenant callers whose sessions carry their own
    /// frame streams) feed.
    ///
    /// Scheduling is a pull model: candidate indices queue up in input
    /// order and one worker thread per live pool pops the next index the
    /// moment its previous measurement finishes, so pools never idle at a
    /// barrier while a slow shard-mate drags on. Which pool serves which
    /// candidate is timing-dependent; predictions are not — every pool
    /// computes bit-identical predictions for a given candidate (shared
    /// per-slot-seeded `WeightBank`, per-deployment RNG restart), and
    /// results are merged at input positions, so the outcome vector is
    /// bit-identical for any pool count.
    ///
    /// Failure recovery is incremental: a pool that dies mid-morsel drops,
    /// its candidate returns to the queue (counted in
    /// [`FleetStats::resharded`]) for whichever pool frees up next, and
    /// the dead endpoint respawns/reconnects immediately — without the
    /// surviving workers stopping. Only a candidate that has killed
    /// [`MAX_TRIES_PER_CANDIDATE`] pools, or outlives every pool, comes
    /// back as an `Err`.
    ///
    /// # Panics
    ///
    /// Panics if `plans` and `streams` have different lengths.
    pub fn run_batch_streams(
        &mut self,
        plans: &[ExecutionPlan],
        streams: &[&[Sample]],
    ) -> Vec<FleetOutcome> {
        self.run_batch_streams_with(plans, streams, |scope, slot, worker| {
            thread::Builder::new()
                .name(format!("gcode-fleet-{slot}"))
                .spawn_scoped(scope, worker)
                .map(drop)
        })
    }

    /// [`run_batch_streams`](Self::run_batch_streams) with the worker-thread
    /// spawner as an argument, so a test can hand in one that fails. A
    /// worker the OS refuses is a pool death like any other: its pool drops
    /// with it, the slot counts one failure, and its candidates stay on the
    /// queue for the workers that did start.
    fn run_batch_streams_with(
        &mut self,
        plans: &[ExecutionPlan],
        streams: &[&[Sample]],
        spawn: impl for<'scope> Fn(
            &'scope Scope<'scope, '_>,
            usize,
            Box<dyn FnOnce() + Send + 'scope>,
        ) -> io::Result<()>,
    ) -> Vec<FleetOutcome> {
        assert_eq!(plans.len(), streams.len(), "one stream per plan");
        let total = plans.len();
        let mut out: Vec<Option<FleetOutcome>> = (0..total).map(|_| None).collect();
        if total == 0 {
            return Vec::new();
        }
        let mut tries = vec![0u8; total];
        // Spawn/connect only as many pools as there are candidates to
        // measure: a batch of one on a 64-slot fleet must not stand up 64
        // edges. Slots are ensured lazily in spec order.
        let mut live = self.slots.iter().filter(|s| s.pool.is_some()).count();
        for idx in 0..self.slots.len() {
            if live >= total {
                break;
            }
            if self.slots[idx].pool.is_none() {
                self.ensure_pool(idx);
                live += usize::from(self.slots[idx].pool.is_some());
            }
        }
        let fleet_width = self.slots.iter().filter(|s| s.pool.is_some()).count().max(1);
        let queue: parking_lot::Mutex<std::collections::VecDeque<usize>> =
            parking_lot::Mutex::new((0..total).collect());
        let (tx, rx) = std::sync::mpsc::channel::<WorkerEvent>();
        let mut filled = 0usize;
        thread::scope(|s| {
            // One worker per live pool, but never more workers than
            // candidates — an excess pool stays warm in its slot.
            let spawn_worker = |slot: usize, mut pool: EdgePool| {
                let tx = tx.clone();
                let queue = &queue;
                let worker = move || {
                    loop {
                        // Pop a chunk while the queue is deep enough that
                        // every pool keeps at least one chunk of work;
                        // near the tail, fall back to single morsels.
                        let chunk: Vec<usize> = {
                            let mut q = queue.lock();
                            let take =
                                if q.len() > fleet_width * DEPLOY_CHUNK { DEPLOY_CHUNK } else { 1 };
                            (0..take).filter_map(|_| q.pop_front()).collect()
                        };
                        if chunk.is_empty() {
                            break;
                        }
                        if chunk.len() > 1 {
                            // One SwapPlanBatch round-trip deploys the
                            // whole chunk; each run pops its queued plan.
                            let entries: Vec<(ExecutionPlan, u32)> = chunk
                                .iter()
                                .map(|&cand| {
                                    let plan = plans[cand].clone();
                                    let frames =
                                        if plan.offloaded { streams[cand].len() as u32 } else { 0 };
                                    (plan, frames)
                                })
                                .collect();
                            let start = std::time::Instant::now();
                            if let Err(e) = pool.deploy_batch(entries) {
                                // Charge the failure to the chunk's first
                                // candidate; its mates go back to the
                                // front of the queue untainted.
                                let mut q = queue.lock();
                                for &cand in chunk[1..].iter().rev() {
                                    q.push_front(cand);
                                }
                                drop(q);
                                let wall_s = start.elapsed().as_secs_f64();
                                let _ = tx.send(WorkerEvent::Measured {
                                    slot,
                                    cand: chunk[0],
                                    wall_s,
                                    result: Err(e),
                                });
                                let _ = tx.send(WorkerEvent::Exited { slot, pool: None });
                                return;
                            }
                        }
                        for (i, &cand) in chunk.iter().enumerate() {
                            let start = std::time::Instant::now();
                            let result = if chunk.len() > 1 {
                                pool.run(streams[cand])
                            } else {
                                pool.deploy(plans[cand].clone())
                                    .and_then(|()| pool.run(streams[cand]))
                            };
                            let wall_s = start.elapsed().as_secs_f64();
                            let died = result.is_err();
                            let _ = tx.send(WorkerEvent::Measured { slot, cand, wall_s, result });
                            if died {
                                // The broken pool drops here; unfinished
                                // chunk-mates return to the queue for
                                // whichever pool frees up next, and the
                                // coordinator requeues the victim and
                                // respawns the slot.
                                let mut q = queue.lock();
                                for &mate in chunk[i + 1..].iter().rev() {
                                    q.push_front(mate);
                                }
                                drop(q);
                                let _ = tx.send(WorkerEvent::Exited { slot, pool: None });
                                return;
                            }
                        }
                    }
                    let _ = tx.send(WorkerEvent::Exited { slot, pool: Some(Box::new(pool)) });
                };
                spawn(s, slot, Box::new(worker))
            };
            let mut running = 0usize;
            for idx in 0..self.slots.len() {
                if running >= total {
                    break;
                }
                if let Some(pool) = self.slots[idx].pool.take() {
                    running += self.slots[idx].started(spawn_worker(idx, pool));
                }
            }
            // Coordinator: merge results, requeue the victims of pool
            // deaths, and bring replacement workers up while the rest of
            // the fleet keeps draining the queue. Runs until every
            // candidate is resolved AND every worker has handed its pool
            // back (a warm pool must never be dropped on the floor).
            while running > 0 || filled < total {
                if running == 0 {
                    // Queued work but no workers: every pool died at once.
                    // Respawn what this batch still needs; if nothing
                    // comes back the leftovers become deploy failures.
                    let pending = total - filled;
                    let mut revived = self.slots.iter().filter(|s| s.pool.is_some()).count();
                    for idx in 0..self.slots.len() {
                        if revived >= pending {
                            break;
                        }
                        if self.slots[idx].pool.is_none() {
                            self.ensure_pool(idx);
                            revived += usize::from(self.slots[idx].pool.is_some());
                        }
                    }
                    for idx in 0..self.slots.len() {
                        if running >= pending {
                            break;
                        }
                        if let Some(pool) = self.slots[idx].pool.take() {
                            running += self.slots[idx].started(spawn_worker(idx, pool));
                        }
                    }
                    if running == 0 {
                        break; // every endpoint is dead and would not come back
                    }
                }
                match rx.recv().expect("coordinator holds a sender") {
                    WorkerEvent::Measured { slot, cand, wall_s, result } => {
                        self.slots[slot].stats.busy_s += wall_s;
                        match result {
                            Ok(ok) => {
                                self.slots[slot].stats.deployments += 1;
                                self.slots[slot].candidate_walls_s.push(wall_s);
                                out[cand] = Some(Ok(ok));
                                filled += 1;
                            }
                            Err(e) => {
                                tries[cand] += 1;
                                if tries[cand] >= MAX_TRIES_PER_CANDIDATE {
                                    out[cand] = Some(Err(e));
                                    filled += 1;
                                } else {
                                    self.resharded += 1;
                                    queue.lock().push_back(cand);
                                }
                            }
                        }
                    }
                    WorkerEvent::Exited { slot, pool: Some(pool) } => {
                        running -= 1;
                        self.slots[slot].pool = Some(*pool);
                        // The queue can refill after a worker saw it empty
                        // (a death elsewhere requeued its candidate) —
                        // put the warm pool straight back to work.
                        if filled < total && !queue.lock().is_empty() {
                            let pool = self.slots[slot].pool.take().expect("just returned");
                            running += self.slots[slot].started(spawn_worker(slot, pool));
                        }
                    }
                    WorkerEvent::Exited { slot, pool: None } => {
                        running -= 1;
                        self.slots[slot].stats.failures += 1;
                        // Incremental recovery: respawn/reconnect the dead
                        // endpoint now — survivors keep draining while the
                        // spawn (bounded by the connect timeout) runs.
                        if filled < total && !queue.lock().is_empty() {
                            self.ensure_pool(slot);
                            if let Some(pool) = self.slots[slot].pool.take() {
                                running += self.slots[slot].started(spawn_worker(slot, pool));
                            }
                        }
                    }
                }
            }
        });
        out.into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    Err(EngineError::Protocol(
                        "no live fleet pool left to measure this candidate".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// Shuts every live pool down cleanly (loopback pools join their serve
    /// threads; remote sessions just disconnect — a shared edge is never
    /// terminated).
    ///
    /// # Errors
    ///
    /// Returns the first pool-teardown error after attempting all pools.
    pub fn shutdown(self) -> Result<(), EngineError> {
        let mut first_err = None;
        for slot in self.slots {
            if let Some(pool) = slot.pool {
                if let Err(e) = pool.shutdown() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::arch::Architecture;
    use gcode_core::op::{Op, SampleFn};
    use gcode_graph::datasets::PointCloudDataset;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn split_plan(dim: usize) -> ExecutionPlan {
        ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]))
    }

    #[test]
    fn spec_parses_loopback_counts_remotes_and_mixes() {
        assert_eq!("loopback".parse::<FleetSpec>().expect("one").len(), 1);
        assert_eq!("loopback:4".parse::<FleetSpec>().expect("four").len(), 4);
        let lan: FleetSpec = "127.0.0.1:9000, 127.0.0.1:9001".parse().expect("two remotes");
        assert_eq!(lan.len(), 2);
        assert!(matches!(lan.endpoints()[0], FleetEndpoint::Remote(_)));
        let mixed: FleetSpec = "loopback:2,127.0.0.1:9000".parse().expect("mixed");
        assert_eq!(mixed.len(), 3);
        assert_eq!(mixed.endpoints()[2].to_string(), "127.0.0.1:9000");
        // Display writes one entry per pool and parses back to the same spec.
        assert_eq!(mixed.to_string(), "loopback,loopback,127.0.0.1:9000");
        assert_eq!(mixed.to_string().parse::<FleetSpec>().expect("round trip"), mixed);
        assert_eq!(FleetSpec::default(), FleetSpec::loopback(1));
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("".parse::<FleetSpec>().is_err());
        assert!("loopback:0".parse::<FleetSpec>().is_err());
        assert!("loopback:many".parse::<FleetSpec>().is_err());
        assert!("loopback:4,".parse::<FleetSpec>().is_err(), "stray comma");
        assert!("example.com".parse::<FleetSpec>().is_err(), "no port, no DNS");
        assert!(format!("loopback:{}", MAX_FLEET_POOLS + 1).parse::<FleetSpec>().is_err());
    }

    #[test]
    fn connect_timeout_defaults_and_overrides_plumb_into_the_fleet() {
        let spec: FleetSpec = "loopback:2,127.0.0.1:9000".parse().expect("spec");
        assert_eq!(spec.connect_timeout(), DEFAULT_REMOTE_CONNECT_TIMEOUT);
        assert_eq!(FleetSpec::loopback(3).connect_timeout(), DEFAULT_REMOTE_CONNECT_TIMEOUT);

        let quick = spec.clone().with_connect_timeout(std::time::Duration::from_millis(250));
        assert_eq!(quick.connect_timeout(), std::time::Duration::from_millis(250));
        assert_eq!(quick.endpoints(), spec.endpoints(), "timeout leaves endpoints alone");

        let fleet = EdgeFleet::new(quick, 2, 9, 5);
        assert_eq!(
            fleet.connect_timeout,
            std::time::Duration::from_millis(250),
            "every remote connect attempt uses the spec's timeout"
        );
        let default_fleet = EdgeFleet::new(FleetSpec::loopback(1), 2, 9, 5);
        assert_eq!(default_fleet.connect_timeout, DEFAULT_REMOTE_CONNECT_TIMEOUT);
    }

    #[test]
    fn batch_shards_across_loopback_pools_and_merges_in_input_order() {
        let ds = PointCloudDataset::generate(3, 12, 2, 7);
        let plans: Vec<ExecutionPlan> = [8, 16, 8, 32, 16].iter().map(|&d| split_plan(d)).collect();
        let mut fleet = EdgeFleet::new(FleetSpec::loopback(2), 2, 9, 5);
        let outcomes = fleet.run_batch(&plans, ds.samples());
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            let (preds, stats) = o.as_ref().expect("healthy pools measure everything");
            assert_eq!(preds.len(), 3);
            assert!(stats.bytes_sent > 0, "split plans ship traffic");
        }
        let stats = fleet.stats();
        assert_eq!(stats.pools.len(), 2);
        assert_eq!(stats.deployments(), 5);
        assert_eq!(stats.failures(), 0);
        assert_eq!(stats.spawns(), 2, "one spawn per slot");
        assert_eq!(stats.resharded, 0);
        fleet.shutdown().expect("clean fleet shutdown");
    }

    #[test]
    fn small_batches_leave_excess_pools_unspawned_threads_unleaked() {
        let ds = PointCloudDataset::generate(2, 10, 2, 3);
        let mut fleet = EdgeFleet::new(FleetSpec::loopback(4), 2, 9, 5);
        let outcomes = fleet.run_batch(&[split_plan(8)], ds.samples());
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_ok());
        assert_eq!(fleet.stats().deployments(), 1);
        // A batch of one needs one pool: the other three slots never
        // spawn an edge (a ladder's honest-winner single escalations
        // must not stand up the whole fleet).
        assert_eq!(fleet.spawns(), 1, "excess slots stay unspawned");
        // A wider batch later widens the fleet on demand.
        let plans: Vec<ExecutionPlan> = [8, 16, 24].iter().map(|&d| split_plan(d)).collect();
        let outcomes = fleet.run_batch(&plans, ds.samples());
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(fleet.spawns(), 3, "two more slots spawned for a 3-candidate batch");
        fleet.shutdown().expect("all pools join");
    }

    #[test]
    fn a_refused_worker_thread_is_a_counted_failure_never_a_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ds = PointCloudDataset::generate(2, 10, 2, 3);
        let plans: Vec<ExecutionPlan> = [8, 16, 24].iter().map(|&d| split_plan(d)).collect();
        let streams = vec![ds.samples(); plans.len()];
        // The OS refuses the first worker thread, or every one.
        for refused in [1usize, usize::MAX] {
            let asked = AtomicUsize::new(0);
            let mut fleet = EdgeFleet::new(FleetSpec::loopback(2), 2, 9, 5);
            let outcomes = fleet.run_batch_streams_with(&plans, &streams, |scope, _, worker| {
                if asked.fetch_add(1, Ordering::Relaxed) < refused {
                    Err(io::Error::from(io::ErrorKind::WouldBlock))
                } else {
                    thread::Builder::new().spawn_scoped(scope, worker).map(drop)
                }
            });
            if refused == 1 {
                assert!(outcomes.iter().all(Result::is_ok), "the worker that started drains it");
                assert_eq!(fleet.stats().failures(), 1);
                assert_eq!(fleet.stats().deployments(), 3);
            } else {
                assert!(outcomes.iter().all(Result::is_err), "no worker, no measurement");
                assert_eq!(fleet.stats().deployments(), 0);
            }
            fleet.shutdown().expect("whatever is still warm joins");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let ds = PointCloudDataset::generate(2, 10, 2, 3);
        let mut fleet = EdgeFleet::new(FleetSpec::loopback(2), 2, 9, 5);
        assert!(fleet.run_batch(&[], ds.samples()).is_empty());
        assert_eq!(fleet.spawns(), 0, "no batch, no spawns");
        fleet.shutdown().expect("nothing to tear down");
    }

    #[test]
    fn repeatedly_dead_endpoint_stops_being_probed() {
        let ds = PointCloudDataset::generate(2, 10, 2, 3);
        // Port 1 on loopback: nothing listens, every connect fails fast.
        let spec: FleetSpec = "127.0.0.1:1".parse().expect("spec");
        let mut fleet = EdgeFleet::new(spec, 2, 9, 5);
        for _ in 0..5 {
            let outcomes = fleet.run_batch(&[split_plan(8)], ds.samples());
            assert!(outcomes[0].is_err(), "no pool can ever measure");
        }
        assert_eq!(
            fleet.stats().failures(),
            u64::from(MAX_SPAWN_FAILURES),
            "a dead endpoint is excluded for good instead of re-probed every batch"
        );
        fleet.shutdown().expect("nothing to tear down");
    }

    #[test]
    fn unreachable_remote_endpoint_is_excluded_not_fatal() {
        let ds = PointCloudDataset::generate(2, 10, 2, 3);
        // Port 1 on loopback: nothing listens, connect fails fast.
        let spec: FleetSpec = "loopback:1,127.0.0.1:1".parse().expect("spec");
        let mut fleet = EdgeFleet::new(spec, 2, 9, 5);
        let outcomes = fleet.run_batch(&[split_plan(8), split_plan(16)], ds.samples());
        assert!(outcomes.iter().all(Result::is_ok), "the loopback pool covers the batch");
        let stats = fleet.stats();
        assert_eq!(stats.pools[0].deployments, 2);
        assert!(stats.pools[1].failures >= 1, "dead remote counted");
        assert_eq!(stats.pools[1].spawns, 0);
        fleet.shutdown().expect("clean");
    }
}
