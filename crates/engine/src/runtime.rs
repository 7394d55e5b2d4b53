//! Device client and edge server: the running halves of the engine.

use crate::plan::ExecutionPlan;
use crate::proto::{
    decode_frame, encode_frame, frame_name, read_message, write_message, Frame, WireState,
};
use crate::EngineError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gcode_core::eval::scenario::latency_percentiles;
use gcode_graph::datasets::Sample;
use gcode_nn::seq::{classify, forward_features_slotted, GraphInput, WeightBank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Throughput/latency statistics from one engine run. Alongside the
/// aggregates, every run records its full per-frame latency distribution:
/// frame `f`'s latency runs from the moment its device prefix starts to
/// the moment its result arrives back — queueing included, which is what a
/// deployed client experiences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Frames processed.
    pub frames: usize,
    /// Wall-clock for the whole stream, seconds.
    pub wall_s: f64,
    /// Achieved frames per second.
    pub fps: f64,
    /// Application bytes sent device→edge (after compression).
    pub bytes_sent: usize,
    /// Wire bytes per frame in frame order (length prefix included; all
    /// zeros for a non-offloaded plan). Callers that prepend warmup frames
    /// to the stream slice this to price only the measured window.
    pub frame_bytes: Vec<usize>,
    /// Fraction of frames whose prediction matched the label — over the
    /// *whole* stream; a caller that prepended warmup frames must
    /// recompute from its predictions to exclude them.
    pub accuracy: f64,
    /// Median per-frame latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile per-frame latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile per-frame latency, seconds.
    pub p99_s: f64,
    /// Per-frame latencies in frame order, seconds.
    pub frame_latencies_s: Vec<f64>,
}

/// The edge half: accepts device connections and serves edge-side
/// inference for every incoming frame. [`spawn`](Self::spawn) serves one
/// connection for one fixed plan; [`spawn_persistent`](Self::spawn_persistent)
/// keeps serving across connections and hot-swaps its active plan on
/// `SwapPlan` control frames — the paper's runtime dispatcher: the process,
/// socket and shared supernet [`WeightBank`] all survive a plan switch.
pub struct EdgeServer {
    addr: SocketAddr,
    handle: Option<ServeHandle>,
}

impl EdgeServer {
    /// Binds to an ephemeral loopback port and spawns the serving thread:
    /// one connection, one fixed `plan`, then exit — the fresh pair the
    /// bit-identity suites use as their reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub fn spawn(plan: ExecutionPlan, bank: WeightBank, seed: u64) -> Result<Self, EngineError> {
        Self::spawn_serving(Some(plan), bank, seed)
    }

    /// Binds to an ephemeral loopback port and serves *indefinitely*: no
    /// initial plan — the first `SwapPlan` control frame deploys one, later
    /// swaps replace it in place (same shared `bank`, so no weight
    /// transfer), and a client disconnect loops back to `accept` instead of
    /// exiting. Only a `Shutdown` control frame (see
    /// [`shutdown`](Self::shutdown)) or a connection error ends the serve
    /// thread. A reconnecting client must re-send `SwapPlan` before its
    /// first data frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub fn spawn_persistent(bank: WeightBank, seed: u64) -> Result<Self, EngineError> {
        Self::spawn_serving(None, bank, seed)
    }

    /// The one accept loop. With an initial `plan` the edge is one-shot —
    /// it serves a single connection under that plan; without one it is
    /// persistent and keeps accepting until a `Shutdown` frame.
    fn spawn_serving(
        mut plan: Option<ExecutionPlan>,
        mut bank: WeightBank,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let one_shot = plan.is_some();
        let serve = move || -> Result<(), EngineError> {
            loop {
                let (stream, _) = listener.accept()?;
                let outcome = serve_frames(stream, plan.take(), &mut bank, seed)?;
                if one_shot || matches!(outcome, ServeOutcome::Shutdown) {
                    return Ok(());
                }
            }
        };
        let handle = std::thread::Builder::new().name("gcode-edge".to_string()).spawn(serve)?;
        Ok(Self { addr, handle: Some(handle) })
    }

    /// The address the device should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the serving thread to finish (the device closing its
    /// connection ends a one-shot loop; persistent servers finish on
    /// `Shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates any error the serving thread hit.
    pub fn join(mut self) -> Result<(), EngineError> {
        self.handle.take().map_or(Ok(()), joined)
    }

    /// Ends the serving thread cleanly and joins it, even when no device
    /// ever connected: loopback connections carrying `Shutdown` control
    /// frames wake the thread out of `accept` (the early-`?`-return leak —
    /// a client that failed to connect used to strand the accept thread
    /// forever). Call after the last client has disconnected.
    ///
    /// # Errors
    ///
    /// Propagates any error the serving thread hit (a `Shutdown`-triggered
    /// exit itself is clean). If a peer still holds a live connection the
    /// serve thread cannot be woken; rather than hanging the caller, the
    /// wait is bounded (2 s by the clock) and an error is returned, leaving
    /// the thread to finish when that peer disconnects (the `Shutdown`
    /// nudge stays queued for it).
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        join_within(handle, self.addr, Duration::from_secs(2)).unwrap_or_else(|| {
            Err(EngineError::Protocol(
                "edge still serving a live connection; disconnect clients before shutdown"
                    .to_string(),
            ))
        })
    }

    /// Whether the serving thread has exited (joined or finished running).
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

type ServeHandle = JoinHandle<Result<(), EngineError>>;

/// The serve thread's own result, a panic in it reported as an error.
fn joined(handle: ServeHandle) -> Result<(), EngineError> {
    handle.join().map_err(|_| EngineError::Protocol("edge thread panicked".to_string()))?
}

/// Queues a `Shutdown` frame for a (possibly accept-blocked) edge thread
/// and says whether it got there. The timeout matters: connecting to a
/// listener whose backlog is full (or that stopped accepting) would
/// otherwise block indefinitely.
fn nudge_shutdown(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_millis(50))
        .is_ok_and(|mut stream| write_message(&mut stream, &encode_frame(&Frame::Shutdown)).is_ok())
}

/// The one bounded wait [`EdgeServer::shutdown`] and `Drop` share: joins
/// the serve thread if it ends within `limit` of the clock, `None` (thread
/// left to finish by itself) otherwise. One queued nudge is enough — it
/// ends the thread now if the edge is accept-blocked, or as soon as the
/// current peer disconnects — so another is sent only if the last one
/// failed to connect or write.
fn join_within(
    handle: ServeHandle,
    addr: SocketAddr,
    limit: Duration,
) -> Option<Result<(), EngineError>> {
    let deadline = Instant::now() + limit;
    let mut nudged = false;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return None;
        }
        nudged = nudged || nudge_shutdown(addr);
        std::thread::sleep(Duration::from_micros(500));
    }
    Some(joined(handle))
}

impl Drop for EdgeServer {
    /// Best-effort clean teardown for servers that were never joined —
    /// including ones whose device never managed to connect, which would
    /// otherwise strand the accept thread forever. The wait is bounded
    /// (100 ms): a peer that keeps its connection open must not block drop.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = join_within(handle, self.addr, Duration::from_millis(100));
        }
    }
}

/// How one served connection ended.
enum ServeOutcome {
    /// The peer closed its socket at a frame boundary.
    PeerClosed,
    /// The peer sent a `Shutdown` control frame.
    Shutdown,
}

/// Serves one device connection frame by frame. `plan` is the initially
/// active plan (`None` for a persistent edge awaiting its first
/// `SwapPlan`); a `SwapPlan` frame replaces it in place and restarts the
/// edge RNG stream, so a swapped-in candidate computes exactly what a
/// freshly spawned edge would.
fn serve_frames(
    stream: TcpStream,
    mut plan: Option<ExecutionPlan>,
    bank: &mut WeightBank,
    seed: u64,
) -> Result<ServeOutcome, EngineError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xED6E);
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(body) = read_message(&mut reader)? {
        match decode_frame(&body)? {
            Frame::Shutdown => return Ok(ServeOutcome::Shutdown),
            Frame::SwapPlan(next) => {
                plan = Some(*next);
                rng = ChaCha8Rng::seed_from_u64(seed ^ 0xED6E);
            }
            Frame::State(state) => {
                let active = plan.as_ref().ok_or_else(|| {
                    EngineError::Protocol(
                        "state frame arrived before any plan was deployed".to_string(),
                    )
                })?;
                let (h, _) = forward_features_slotted(
                    &active.edge_specs,
                    &active.edge_slots,
                    GraphInput { features: &state.features, graph: state.graph.as_ref() },
                    bank,
                    &mut rng,
                );
                let logits = classify(&h, bank);
                let reply = WireState {
                    frame_id: state.frame_id,
                    features: logits,
                    graph: None,
                    label: state.label,
                };
                write_message(&mut writer, &encode_frame(&Frame::State(reply)))?;
            }
            // Session frames belong to the gcode-serve daemon, not a raw
            // edge — rejecting them here keeps a client that dialed the
            // wrong port from silently hanging.
            other => {
                return Err(EngineError::Protocol(format!(
                    "edge serve loop cannot handle a {} frame",
                    frame_name(&other)
                )))
            }
        }
    }
    Ok(ServeOutcome::PeerClosed)
}

/// The device half: runs prefixes, streams intermediates, collects results.
pub struct DeviceClient {
    plan: ExecutionPlan,
    bank: WeightBank,
    stream: Option<TcpStream>,
    seed: u64,
    uplink_mbps: Option<f64>,
    session: bool,
}

impl DeviceClient {
    /// Connects to an [`EdgeServer`]. For a non-offloaded plan the
    /// connection is still established but unused.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect(
        addr: SocketAddr,
        plan: ExecutionPlan,
        bank: WeightBank,
        seed: u64,
    ) -> Result<Self, EngineError> {
        Self::over(TcpStream::connect(addr)?, plan, bank, seed)
    }

    /// Like [`connect`](Self::connect), but gives up after `timeout`
    /// instead of blocking for the OS default (minutes against a host
    /// that silently drops SYNs) — for callers that must stay responsive
    /// when an edge machine is down, like a fleet reconnecting a dead
    /// endpoint.
    ///
    /// # Errors
    ///
    /// Returns connection errors, including the timeout.
    pub fn connect_timeout(
        addr: SocketAddr,
        plan: ExecutionPlan,
        bank: WeightBank,
        seed: u64,
        timeout: std::time::Duration,
    ) -> Result<Self, EngineError> {
        Self::over(TcpStream::connect_timeout(&addr, timeout)?, plan, bank, seed)
    }

    /// A one-shot, unthrottled client over an established connection.
    fn over(
        stream: TcpStream,
        plan: ExecutionPlan,
        bank: WeightBank,
        seed: u64,
    ) -> Result<Self, EngineError> {
        stream.set_nodelay(true)?;
        Ok(Self { plan, bank, stream: Some(stream), seed, uplink_mbps: None, session: false })
    }

    /// Caps the uplink at `mbps`, emulating the paper's router bandwidth
    /// limits (10/40 Mbps) on loopback. The pacing runs inside the sender
    /// thread so device compute stays unthrottled. The throttle is rebuilt
    /// per run, so every run (session or one-shot) starts with a full
    /// token bucket.
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.uplink_mbps = Some(mbps);
        self
    }

    /// Re-caps the uplink mid-session (scenario replay's per-segment
    /// degradation). Safe between runs because the token bucket is rebuilt
    /// from this field at the start of every
    /// [`run_pipelined`](Self::run_pipelined); control-frame pacing reads
    /// it live.
    pub fn set_uplink_mbps(&mut self, mbps: f64) {
        self.uplink_mbps = Some(mbps);
    }

    /// Switches to session mode: [`run_pipelined`](Self::run_pipelined)
    /// keeps the connection open afterwards instead of closing it, so one
    /// warm device/edge pair serves many candidates —
    /// [`swap_plan`](Self::swap_plan) between runs, and
    /// [`shutdown`](Self::shutdown) (or drop) when done. Pair with
    /// [`EdgeServer::spawn_persistent`].
    #[must_use]
    pub fn with_session(mut self) -> Self {
        self.session = true;
        self
    }

    /// Paces a control frame against the emulated uplink: swap frames
    /// cross the same capped router as data frames, so their bytes
    /// must cost wire time too — that is exactly the saving the binary
    /// encoding buys.
    fn pace_control(&self, wire_bytes: usize) {
        if let Some(mbps) = self.uplink_mbps {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                wire_bytes as f64 * 8.0 / (mbps * 1e6),
            ));
        }
    }

    /// Hot-swaps the active plan on both halves: sends a `SwapPlan`
    /// control frame to the edge (which keeps its process, socket and
    /// shared [`WeightBank`], restarting only its RNG stream) and adopts
    /// the plan locally. The shared supernet bank means no weight transfer
    /// accompanies the switch — the paper's Sec. 3.6 dispatcher claim.
    ///
    /// A plan that is not offloaded ships nothing: the edge never serves
    /// one, and the next offloaded plan's `SwapPlan` replaces whatever the
    /// edge holds and restarts its RNG stream anyway.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection is gone or the send fails.
    pub fn swap_plan(&mut self, plan: ExecutionPlan) -> Result<(), EngineError> {
        if !plan.offloaded {
            self.plan = plan;
            return Ok(());
        }
        let body = encode_frame(&Frame::SwapPlan(Box::new(plan.clone())));
        self.pace_control(body.len() + 4);
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| EngineError::Protocol("client connection closed".to_string()))?;
        write_message(stream, &body)?;
        self.plan = plan;
        Ok(())
    }

    /// Tells the edge to end its serve loop (a `Shutdown` control frame)
    /// and closes the connection.
    ///
    /// # Errors
    ///
    /// Returns an error if the send fails; the connection is dropped
    /// either way.
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        match self.stream.take() {
            Some(mut stream) => write_message(&mut stream, &encode_frame(&Frame::Shutdown)),
            None => Ok(()),
        }
    }

    /// Processes `samples` through the co-inference pipeline and returns
    /// `(predictions, stats)`.
    ///
    /// Pipelined mode: the main thread runs device prefixes and hands
    /// encoded frames to a dedicated sender thread; a dedicated receiver
    /// thread collects results — the paper's separate send/recv threads
    /// with message queues. The device never waits for frame `f`'s result
    /// before starting frame `f+1`.
    ///
    /// One-shot clients close the connection when the run completes;
    /// session clients ([`with_session`](Self::with_session)) keep it open
    /// for the next [`swap_plan`](Self::swap_plan)/run cycle.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors from either thread.
    pub fn run_pipelined(
        &mut self,
        samples: &[Sample],
    ) -> Result<(Vec<usize>, EngineStats), EngineError> {
        let start = Instant::now();
        if !self.plan.offloaded {
            return self.run_local(samples, start);
        }
        let stream = self
            .stream
            .take()
            .ok_or_else(|| EngineError::Protocol("client already consumed".to_string()))?;
        let mut writer = stream.try_clone()?;
        let mut reader = stream;

        let (send_q, send_rx): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = unbounded();
        let mut throttle = self.uplink_mbps.map(crate::Throttle::mbps);
        let send = move || -> Result<Vec<usize>, EngineError> {
            // Frames leave in frame order (a single queue feeds a single
            // sender), so the per-frame byte log indexes by frame id.
            let mut frame_bytes = Vec::new();
            for body in send_rx.iter() {
                if let Some(t) = throttle.as_mut() {
                    t.pace(body.len() + 4);
                }
                frame_bytes.push(body.len() + 4);
                write_message(&mut writer, &body)?;
            }
            Ok(frame_bytes)
        };
        let sender = std::thread::Builder::new().name("gcode-uplink".to_string()).spawn(send)?;

        // One collected result: `(frame_id, prediction, label, done_s)`;
        // the receiver hands the socket back for session reuse.
        type Collected = (Vec<(u64, usize, u32, f64)>, TcpStream);
        let expected = samples.len();
        let epoch = start;
        let receive = move || -> Result<Collected, EngineError> {
            let mut results = Vec::with_capacity(expected);
            while results.len() < expected {
                let Some(body) = read_message(&mut reader)? else {
                    return Err(EngineError::Protocol(
                        "edge closed before all results arrived".to_string(),
                    ));
                };
                let Frame::State(state) = decode_frame(&body)? else {
                    return Err(EngineError::Protocol(
                        "edge sent a control frame where a result was expected".to_string(),
                    ));
                };
                let done_s = epoch.elapsed().as_secs_f64();
                results.push((state.frame_id, state.features.argmax_row(0), state.label, done_s));
            }
            // Hand the socket back so a session client can reuse it.
            Ok((results, reader))
        };
        let receiver =
            std::thread::Builder::new().name("gcode-results".to_string()).spawn(receive)?;

        // Main thread: device prefix per frame; never blocks on results.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xDE71CE);
        let mut starts_s = Vec::with_capacity(samples.len());
        for (frame_id, sample) in samples.iter().enumerate() {
            starts_s.push(start.elapsed().as_secs_f64());
            let (h, graph) = forward_features_slotted(
                &self.plan.device_specs,
                &self.plan.device_slots,
                GraphInput { features: &sample.features, graph: sample.graph.as_ref() },
                &mut self.bank,
                &mut rng,
            );
            let state = WireState {
                frame_id: frame_id as u64,
                features: h,
                graph,
                label: sample.label as u32,
            };
            send_q
                .send(encode_frame(&Frame::State(state)))
                .map_err(|_| EngineError::Protocol("sender thread died".to_string()))?;
        }
        drop(send_q);
        let frame_bytes =
            sender.join().map_err(|_| EngineError::Protocol("sender panicked".to_string()))??;
        let (mut results, reader) = receiver
            .join()
            .map_err(|_| EngineError::Protocol("receiver panicked".to_string()))??;
        if self.session {
            // Keep the warm connection: the next candidate swaps its plan
            // in over the same socket. One-shot clients drop it here,
            // which the edge sees as a clean end of stream.
            self.stream = Some(reader);
        }
        results.sort_by_key(|&(frame_id, _, _, _)| frame_id);
        // Exactly the ids we sent, each once — a duplicate or out-of-range
        // id from a rogue edge must be a protocol error, not a panic or a
        // silent prediction/latency misalignment.
        if let Some(&(bad, ..)) =
            results.iter().enumerate().find(|(i, &(fid, ..))| fid != *i as u64).map(|(_, r)| r)
        {
            return Err(EngineError::Protocol(format!(
                "edge returned unexpected frame id {bad} (expected 0..{expected})"
            )));
        }

        let predictions: Vec<usize> = results.iter().map(|&(_, p, _, _)| p).collect();
        let correct = results.iter().filter(|&&(_, p, l, _)| p == l as usize).count();
        let frame_latencies_s: Vec<f64> = results
            .iter()
            .map(|&(frame_id, _, _, done_s)| (done_s - starts_s[frame_id as usize]).max(0.0))
            .collect();
        let (p50_s, p95_s, p99_s) = latency_percentiles(&frame_latencies_s);
        let wall_s = start.elapsed().as_secs_f64();
        let stats = EngineStats {
            frames: samples.len(),
            wall_s,
            fps: samples.len() as f64 / wall_s.max(1e-12),
            bytes_sent: frame_bytes.iter().sum(),
            frame_bytes,
            accuracy: correct as f64 / samples.len().max(1) as f64,
            p50_s,
            p95_s,
            p99_s,
            frame_latencies_s,
        };
        Ok((predictions, stats))
    }

    fn run_local(
        &mut self,
        samples: &[Sample],
        start: Instant,
    ) -> Result<(Vec<usize>, EngineStats), EngineError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xDE71CE);
        let mut predictions = Vec::with_capacity(samples.len());
        let mut frame_latencies_s = Vec::with_capacity(samples.len());
        let mut correct = 0usize;
        for sample in samples {
            let frame_start = start.elapsed().as_secs_f64();
            let (h, _) = forward_features_slotted(
                &self.plan.device_specs,
                &self.plan.device_slots,
                GraphInput { features: &sample.features, graph: sample.graph.as_ref() },
                &mut self.bank,
                &mut rng,
            );
            let logits = classify(&h, &mut self.bank);
            let pred = logits.argmax_row(0);
            if pred == sample.label {
                correct += 1;
            }
            predictions.push(pred);
            frame_latencies_s.push((start.elapsed().as_secs_f64() - frame_start).max(0.0));
        }
        let (p50_s, p95_s, p99_s) = latency_percentiles(&frame_latencies_s);
        let wall_s = start.elapsed().as_secs_f64();
        Ok((
            predictions,
            EngineStats {
                frames: samples.len(),
                wall_s,
                fps: samples.len() as f64 / wall_s.max(1e-12),
                bytes_sent: 0,
                frame_bytes: vec![0; samples.len()],
                accuracy: correct as f64 / samples.len().max(1) as f64,
                p50_s,
                p95_s,
                p99_s,
                frame_latencies_s,
            },
        ))
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
    use gcode_nn::seq::forward;

    fn split_arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 6 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::Communicate,
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn end_to_end_matches_local_execution() {
        let arch = split_arch();
        let ds = PointCloudDataset::generate(6, 20, 3, 17);
        let bank = WeightBank::new(3, 99);
        let plan = ExecutionPlan::from_architecture(&arch);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 1).expect("spawn");
        let mut client =
            DeviceClient::connect(server.addr(), plan, bank.clone(), 1).expect("connect");
        let (preds, stats) = client.run_pipelined(ds.samples()).expect("run");
        server.join().expect("edge clean shutdown");

        // Reference: monolithic local forward with the same shared weights.
        let mut local_bank = bank;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let specs = arch.lower();
        for (i, s) in ds.samples().iter().enumerate() {
            let logits = forward(
                &specs,
                GraphInput { features: &s.features, graph: None },
                &mut local_bank,
                &mut rng,
            );
            assert_eq!(preds[i], logits.argmax_row(0), "frame {i} diverged");
        }
        assert_eq!(stats.frames, 6);
        assert!(stats.bytes_sent > 0);
        assert!(stats.fps > 0.0);
    }

    #[test]
    fn device_only_plan_runs_without_edge_traffic() {
        let arch = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 6 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Max),
        ]);
        let ds = PointCloudDataset::generate(4, 16, 2, 23);
        let bank = WeightBank::new(2, 5);
        let plan = ExecutionPlan::from_architecture(&arch);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 2).expect("spawn");
        let mut client = DeviceClient::connect(server.addr(), plan, bank, 2).expect("connect");
        let (preds, stats) = client.run_pipelined(ds.samples()).expect("run");
        assert_eq!(preds.len(), 4);
        assert_eq!(stats.bytes_sent, 0);
        // Never contacted with data frames: dropping nudges the accept
        // thread with a Shutdown frame and joins it — no leak.
        drop(server);
    }

    #[test]
    fn shutdown_terminates_an_uncontacted_server() {
        let plan = ExecutionPlan::from_architecture(&split_arch());
        let server = EdgeServer::spawn(plan, WeightBank::new(2, 1), 7).expect("spawn");
        // No client ever connects; shutdown must still join the thread.
        server.shutdown().expect("clean shutdown without any client");
    }

    #[test]
    fn shutdown_terminates_an_uncontacted_persistent_server() {
        let server = EdgeServer::spawn_persistent(WeightBank::new(2, 1), 7).expect("spawn");
        server.shutdown().expect("clean shutdown without any client");
    }

    #[test]
    fn shutdown_with_a_live_peer_is_bounded_by_the_clock_and_the_queued_nudge_ends_the_edge() {
        let server = EdgeServer::spawn_persistent(WeightBank::new(2, 1), 7).expect("spawn");
        let addr = server.addr();
        // Accepted first (the backlog is FIFO), so the edge sits in this
        // peer's read while the shutdown nudge waits behind it.
        let peer = TcpStream::connect(addr).expect("peer connects");
        let start = Instant::now();
        let err = server.shutdown().expect_err("a live peer keeps the edge serving");
        assert!(start.elapsed() < Duration::from_secs(3), "took {:?}", start.elapsed());
        assert!(err.to_string().contains("still serving a live connection"), "{err}");
        // The peer leaves, the edge returns to `accept`, reads the one
        // queued nudge and exits: its listener closes with it.
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(5);
        while TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_ok() {
            assert!(Instant::now() < deadline, "the edge never exited on the queued nudge");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn persistent_server_hot_swaps_plans_bit_identically() {
        let arch_a = split_arch();
        let arch_b = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Mean),
            Op::Combine { dim: 8 },
            Op::GlobalPool(PoolMode::Mean),
        ]);
        let ds = PointCloudDataset::generate(5, 18, 3, 29);
        let bank = WeightBank::new(3, 41);
        let seed = 11;

        // Reference: a fresh spawn/connect/teardown per candidate.
        let mut fresh = Vec::new();
        for arch in [&arch_a, &arch_b, &arch_a] {
            let plan = ExecutionPlan::from_architecture(arch);
            let server = EdgeServer::spawn(plan.clone(), bank.clone(), seed).expect("spawn");
            let mut client =
                DeviceClient::connect(server.addr(), plan, bank.clone(), seed).expect("connect");
            let (preds, _) = client.run_pipelined(ds.samples()).expect("run");
            drop(client);
            server.join().expect("clean");
            fresh.push(preds);
        }

        // One persistent pair, three hot swaps (A → B → A again).
        let server = EdgeServer::spawn_persistent(bank.clone(), seed).expect("spawn");
        let placeholder = ExecutionPlan::raw(Vec::new(), Vec::new(), 0, false);
        let mut client = DeviceClient::connect(server.addr(), placeholder, bank, seed)
            .expect("connect")
            .with_session();
        for (&arch, expected) in [&arch_a, &arch_b, &arch_a].iter().zip(&fresh) {
            client.swap_plan(ExecutionPlan::from_architecture(arch)).expect("swap");
            let (preds, stats) = client.run_pipelined(ds.samples()).expect("run");
            assert_eq!(&preds, expected, "hot-swapped run must match a fresh spawn");
            assert_eq!(stats.frame_bytes.len(), 5);
            assert_eq!(stats.bytes_sent, stats.frame_bytes.iter().sum::<usize>());
        }
        client.shutdown().expect("shutdown frame sent");
        server.join().expect("persistent edge exits on Shutdown");
    }

    #[test]
    fn local_plans_ship_no_frame() {
        // A peer that records every frame until the device hangs up.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut frames = Vec::new();
            while let Some(body) = read_message(&mut stream).expect("read") {
                frames.push(decode_frame(&body).expect("decode"));
            }
            frames
        });
        let local = ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 4 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]));
        let offloaded = ExecutionPlan::from_architecture(&split_arch());
        let mut client = DeviceClient::connect(addr, local.clone(), WeightBank::new(2, 1), 7)
            .expect("connect")
            .with_session();
        client.swap_plan(local).expect("local swap");
        client.swap_plan(offloaded.clone()).expect("offloaded swap");
        client.shutdown().expect("shutdown");
        let frames = peer.join().expect("peer");
        assert_eq!(frames, vec![Frame::SwapPlan(Box::new(offloaded)), Frame::Shutdown]);
    }

    #[test]
    fn results_arrive_in_frame_order() {
        let arch = split_arch();
        let ds = PointCloudDataset::generate(12, 16, 4, 31);
        let bank = WeightBank::new(4, 7);
        let plan = ExecutionPlan::from_architecture(&arch);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 3).expect("spawn");
        let mut client =
            DeviceClient::connect(server.addr(), plan.clone(), bank.clone(), 3).expect("connect");
        let (preds_a, _) = client.run_pipelined(ds.samples()).expect("run");
        server.join().expect("clean");
        // Re-running with a fresh pair must be deterministic.
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 3).expect("spawn");
        let mut client = DeviceClient::connect(server.addr(), plan, bank, 3).expect("connect");
        let (preds_b, _) = client.run_pipelined(ds.samples()).expect("run");
        server.join().expect("clean");
        assert_eq!(preds_a, preds_b);
    }

    #[test]
    fn edge_only_plan_ships_raw_input() {
        let arch = Architecture::new(vec![
            Op::Communicate,
            Op::Sample(SampleFn::Knn { k: 6 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Max),
        ]);
        let plan = ExecutionPlan::from_architecture(&arch);
        assert_eq!(plan.op_counts().0, 0, "edge-only: empty device prefix");
        let ds = PointCloudDataset::generate(3, 16, 2, 41);
        let bank = WeightBank::new(2, 11);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 4).expect("spawn");
        let mut client = DeviceClient::connect(server.addr(), plan, bank, 4).expect("connect");
        let (preds, stats) = client.run_pipelined(ds.samples()).expect("run");
        server.join().expect("clean");
        assert_eq!(preds.len(), 3);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn throttled_client_still_completes_correctly() {
        let arch = Architecture::new(vec![
            Op::Combine { dim: 16 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]);
        let plan = ExecutionPlan::from_architecture(&arch);
        let bank = WeightBank::new(2, 9);
        let server = EdgeServer::spawn(plan.clone(), bank.clone(), 4).expect("edge");
        let ds = PointCloudDataset::generate(4, 12, 2, 5);
        let mut client = DeviceClient::connect(server.addr(), plan, bank, 4)
            .expect("device")
            .with_uplink_mbps(5.0);
        let (preds, stats) = client.run_pipelined(ds.samples()).expect("stream");
        server.join().expect("clean");
        assert_eq!(preds.len(), 4);
        // 5 Mbps on a few KB: the wall time reflects pacing but finishes.
        assert!(stats.wall_s < 10.0);
    }
}
