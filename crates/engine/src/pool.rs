//! Persistent edge pool: one warm [`EdgeServer`]/[`DeviceClient`] pair
//! reused across candidates via plan hot-swap.
//!
//! The paper's runtime dispatcher (Sec. 3.6) switches architectures
//! without redeploying the edge because every zoo member shares the one
//! supernet `WeightBank`. The pool is that idea applied to *search-time
//! measurement*: instead of a fresh process + TCP handshake + teardown per
//! candidate, spawn once, then ship a `SwapPlan` control frame per
//! candidate — the connection, serve thread and lazily materialized
//! weights all stay warm, and each weight tensor is keyed and seeded by
//! slot, so a swapped-in candidate computes bit-for-bit what a freshly
//! spawned pair would.

use crate::plan::ExecutionPlan;
use crate::runtime::{DeviceClient, EdgeServer, EngineStats};
use crate::EngineError;
use gcode_graph::datasets::Sample;
use gcode_nn::seq::WeightBank;
use std::collections::VecDeque;
use std::net::SocketAddr;

/// A warm device/edge pair serving an arbitrary sequence of plans.
///
/// Deploy a candidate with [`deploy`](Self::deploy), stream frames with
/// [`run`](Self::run), repeat; [`shutdown`](Self::shutdown) (or drop)
/// ends the serve thread cleanly via the `Shutdown` control frame. A pool
/// holds at most one spawned [`EdgeServer`] for its whole lifetime; an
/// `EdgeFleet` of such pools is what `EngineBackend` routes every
/// `Measured`-tier candidate through.
///
/// # Example
///
/// ```
/// use gcode_core::arch::Architecture;
/// use gcode_core::op::{Op, SampleFn};
/// use gcode_engine::{EdgePool, ExecutionPlan};
/// use gcode_graph::datasets::PointCloudDataset;
/// use gcode_nn::seq::WeightBank;
/// use gcode_nn::{agg::AggMode, pool::PoolMode};
///
/// let ds = PointCloudDataset::generate(2, 12, 2, 3);
/// let mut pool = EdgePool::spawn(WeightBank::new(2, 7), 9)?;
/// for dim in [8, 16] {
///     let arch = Architecture::new(vec![
///         Op::Sample(SampleFn::Knn { k: 4 }),
///         Op::Aggregate(AggMode::Max),
///         Op::Combine { dim },
///         Op::Communicate,
///         Op::GlobalPool(PoolMode::Max),
///     ]);
///     pool.deploy(ExecutionPlan::from_architecture(&arch))?; // one SwapPlan frame
///     let (predictions, stats) = pool.run(ds.samples())?;
///     assert_eq!(predictions.len(), 2);
///     assert!(stats.bytes_sent > 0);
/// }
/// assert_eq!(pool.swaps(), 2);
/// pool.shutdown()?; // serve thread joined — nothing leaks
/// # Ok::<(), gcode_engine::EngineError>(())
/// ```
pub struct EdgePool {
    // Field order is drop order: the client's socket must close first so
    // a persistent edge falls back to `accept`, where the server's drop
    // nudge reaches it immediately.
    client: DeviceClient,
    server: Option<EdgeServer>,
    swaps: u64,
    queued: VecDeque<(ExecutionPlan, u32)>,
}

/// An inert plan for the moment between connecting and the first
/// [`EdgePool::deploy`]: nothing offloaded, nothing executed.
fn placeholder_plan() -> ExecutionPlan {
    ExecutionPlan::raw(Vec::new(), Vec::new(), 0, false)
}

impl EdgePool {
    /// Spawns a persistent loopback [`EdgeServer`] over `bank` and
    /// connects a session-mode [`DeviceClient`] to it. The pair stays
    /// warm until [`shutdown`](Self::shutdown) or drop.
    ///
    /// # Errors
    ///
    /// Returns bind/connect errors.
    pub fn spawn(bank: WeightBank, seed: u64) -> Result<Self, EngineError> {
        let server = EdgeServer::spawn_persistent(bank.clone(), seed)?;
        let client =
            DeviceClient::connect(server.addr(), placeholder_plan(), bank, seed)?.with_session();
        Ok(Self { server: Some(server), client, swaps: 0, queued: VecDeque::new() })
    }

    /// Connects a session-mode client to an already-running persistent
    /// edge at `addr` (a pre-deployed LAN edge, or a test double) instead
    /// of spawning one. The TCP connect may block for at most `timeout` — a
    /// machine that silently drops SYNs then costs `timeout`, not the OS
    /// default of minutes — so a dead endpoint cannot stall an `EdgeFleet`'s
    /// coordinating thread.
    ///
    /// # Errors
    ///
    /// Returns connection errors, including the timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        bank: WeightBank,
        seed: u64,
        timeout: std::time::Duration,
    ) -> Result<Self, EngineError> {
        let client = DeviceClient::connect_timeout(addr, placeholder_plan(), bank, seed, timeout)?
            .with_session();
        Ok(Self { server: None, client, swaps: 0, queued: VecDeque::new() })
    }

    /// Caps the device uplink at `mbps` for every subsequent run.
    #[must_use]
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.client = self.client.with_uplink_mbps(mbps);
        self
    }

    /// Re-caps the device uplink on the warm pair — scenario replay's
    /// per-segment link degradation. Takes effect on the next
    /// [`run`](Self::run) (the client rebuilds its token bucket per run).
    pub fn set_uplink_mbps(&mut self, mbps: f64) {
        self.client.set_uplink_mbps(mbps);
    }

    /// Hot-swaps `plan` onto the warm pair (one `SwapPlan` control frame
    /// for an offloaded plan, nothing on the wire for a local one; no
    /// reconnect, no weight transfer). Drops any plans still queued by
    /// [`deploy_batch`](Self::deploy_batch).
    ///
    /// # Errors
    ///
    /// Returns an error if the connection is gone.
    pub fn deploy(&mut self, plan: ExecutionPlan) -> Result<(), EngineError> {
        self.queued.clear();
        self.client.swap_plan(plan)?;
        self.swaps += 1;
        Ok(())
    }

    /// Queues `(plan, declared state frames)` entries locally; each later
    /// [`run`](Self::run) pops one, checks that it streams the declared
    /// number of frames (`0` for a local plan) and deploys it. Kept for
    /// the benchmark harness, which times this call; nothing is sent here.
    ///
    /// # Errors
    ///
    /// Never fails; the budget check happens in [`run`](Self::run).
    #[doc(hidden)]
    pub fn deploy_batch(&mut self, entries: Vec<(ExecutionPlan, u32)>) -> Result<(), EngineError> {
        self.queued.extend(entries);
        Ok(())
    }

    /// Streams `samples` through the currently deployed plan, after
    /// deploying the next queued plan if there is one.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors, and refuses a queued plan
    /// whose declared frame count disagrees with `samples`; after an
    /// error the pool should be discarded (the caller respawns a fresh
    /// one).
    pub fn run(&mut self, samples: &[Sample]) -> Result<(Vec<usize>, EngineStats), EngineError> {
        if let Some((plan, declared)) = self.queued.pop_front() {
            let streamed = if plan.offloaded { samples.len() } else { 0 };
            if declared as usize != streamed {
                self.queued.clear();
                return Err(EngineError::Protocol(format!(
                    "queued plan declared {declared} state frames but this run streams {streamed}"
                )));
            }
            self.client.swap_plan(plan)?;
            self.swaps += 1;
        }
        self.client.run_pipelined(samples)
    }

    /// Plans deployed over this pool's lifetime.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Cleanly ends the pool. For a pool that spawned its own edge, a
    /// `Shutdown` control frame stops the serve loop and the serve thread
    /// is joined — no thread outlives the pool. A pool that connected to a
    /// remote edge ([`connect_with_timeout`](Self::connect_with_timeout))
    /// does *not* own it: it only closes its session (the remote
    /// persistent edge sees a clean disconnect and loops back to `accept`
    /// for its next client), never terminating a shared pre-deployed edge
    /// out from under other users.
    ///
    /// # Errors
    ///
    /// Propagates any error the serve thread hit.
    pub fn shutdown(self) -> Result<(), EngineError> {
        let Self { server, client, .. } = self;
        match server {
            Some(server) => {
                client.shutdown()?;
                server.shutdown()
            }
            None => {
                // Not ours to stop: dropping the client closes the socket,
                // which the remote edge handles as PeerClosed.
                drop(client);
                Ok(())
            }
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

    fn arch(dim: usize) -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn pool_swaps_and_shuts_down_cleanly() {
        let ds = PointCloudDataset::generate(4, 14, 2, 3);
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        for dim in [8, 16, 8] {
            pool.deploy(ExecutionPlan::from_architecture(&arch(dim))).expect("swap");
            let (preds, stats) = pool.run(ds.samples()).expect("run");
            assert_eq!(preds.len(), 4);
            assert!(stats.bytes_sent > 0);
        }
        assert_eq!(pool.swaps(), 3);
        pool.shutdown().expect("clean pool shutdown");
    }

    #[test]
    fn device_only_plans_run_without_touching_the_connection() {
        let ds = PointCloudDataset::generate(3, 12, 2, 7);
        let local = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        pool.deploy(ExecutionPlan::from_architecture(&local)).expect("swap");
        let (preds, stats) = pool.run(ds.samples()).expect("run");
        assert_eq!(preds.len(), 3);
        assert_eq!(stats.bytes_sent, 0);
        // The connection is still healthy for an offloaded plan next.
        pool.deploy(ExecutionPlan::from_architecture(&arch(8))).expect("swap");
        let (_, stats) = pool.run(ds.samples()).expect("run");
        assert!(stats.bytes_sent > 0);
        pool.shutdown().expect("clean");
    }

    #[test]
    fn batched_deploy_matches_individual_swaps_bit_identically() {
        let ds = PointCloudDataset::generate(4, 14, 2, 3);
        let dims = [8usize, 16, 32];

        // Reference: one SwapPlan control frame per candidate.
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        let mut reference = Vec::new();
        for &dim in &dims {
            pool.deploy(ExecutionPlan::from_architecture(&arch(dim))).expect("swap");
            reference.push(pool.run(ds.samples()).expect("run").0);
        }
        pool.shutdown().expect("clean");

        // Queued: three runs popping the queue, each deploying its plan —
        // predictions must be bit-identical.
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        let entries: Vec<(ExecutionPlan, u32)> = dims
            .iter()
            .map(|&dim| (ExecutionPlan::from_architecture(&arch(dim)), ds.samples().len() as u32))
            .collect();
        pool.deploy_batch(entries).expect("batched deploy");
        for expected in &reference {
            let (preds, stats) = pool.run(ds.samples()).expect("run");
            assert_eq!(&preds, expected, "batched deploy must match individual swaps");
            assert!(stats.bytes_sent > 0);
        }
        assert_eq!(pool.swaps(), 3);
        pool.shutdown().expect("clean");
    }

    #[test]
    fn batched_deploy_skips_local_plans_and_polices_frame_budgets() {
        let ds = PointCloudDataset::generate(3, 12, 2, 7);
        let local = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        // Offloaded, local (zero declared frames), offloaded again: the
        // local entry never reaches the edge.
        pool.deploy_batch(vec![
            (ExecutionPlan::from_architecture(&arch(8)), 3),
            (ExecutionPlan::from_architecture(&local), 0),
            (ExecutionPlan::from_architecture(&arch(16)), 3),
        ])
        .expect("batched deploy");
        let (_, stats) = pool.run(ds.samples()).expect("offloaded run");
        assert!(stats.bytes_sent > 0);
        let (_, stats) = pool.run(ds.samples()).expect("local run");
        assert_eq!(stats.bytes_sent, 0, "local plan never touches the wire");
        let (_, stats) = pool.run(ds.samples()).expect("offloaded run");
        assert!(stats.bytes_sent > 0);
        pool.shutdown().expect("clean");

        // A run whose sample count disagrees with its declared budget
        // fails locally before desynchronizing the edge.
        let mut pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        pool.deploy_batch(vec![(ExecutionPlan::from_architecture(&arch(8)), 99)])
            .expect("batched deploy");
        assert!(pool.run(ds.samples()).is_err(), "declared 99 frames, streaming 3");
        pool.shutdown().expect("clean");
    }

    #[test]
    fn dropping_an_unused_pool_leaks_nothing() {
        let pool = EdgePool::spawn(WeightBank::new(2, 5), 9).expect("pool");
        drop(pool); // EdgeServer::drop nudges + joins the serve thread
    }
}
