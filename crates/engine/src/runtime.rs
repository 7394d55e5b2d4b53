//! Device client and edge server: the running halves of the engine. They
//! drive the socket-free cores of [`crate::frame`], which decide what each
//! frame computes; here bytes move, the link is paced and time is stamped.

use crate::frame::{DeviceCore, DeviceStep, EdgeCore, EdgeStep};
use crate::plan::ExecutionPlan;
use crate::proto::{
    decode_frame, encode_frame, read_message, read_message_into, write_message, Frame,
};
use crate::throttle::Throttle;
use crate::{protocol, EngineError};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gcode_graph::datasets::Sample;
use gcode_nn::seq::WeightBank;
use serde::{Deserialize, Serialize};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one engine run measured: its wall clock, its wire bytes and its
/// full per-frame latency distribution. Frame `f`'s latency runs from the
/// moment its device prefix starts to the moment its result arrives back
/// — queueing included, which is what a deployed client experiences.
/// Frame counts, rates, percentiles and hit rates all derive from these
/// and the run's predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Wall-clock for the whole stream, seconds.
    pub wall_s: f64,
    /// Application bytes sent device→edge (after compression).
    pub bytes_sent: usize,
    /// Wire bytes per frame in frame order (length prefix included; all
    /// zeros for a non-offloaded plan). Callers that prepend warmup frames
    /// to the stream slice this to price only the measured window.
    pub frame_bytes: Vec<usize>,
    /// Per-frame latencies in frame order, seconds.
    pub frame_latencies_s: Vec<f64>,
}

impl EngineStats {
    /// A run's stats, its wall clock read now.
    fn since(start: Instant, frame_bytes: Vec<usize>, frame_latencies_s: Vec<f64>) -> Self {
        let (wall_s, bytes_sent) = (start.elapsed().as_secs_f64(), frame_bytes.iter().sum());
        Self { wall_s, bytes_sent, frame_bytes, frame_latencies_s }
    }
}

/// The edge half: accepts device connections and serves edge-side
/// inference for every incoming frame. It keeps serving across
/// connections and hot-swaps its active plan on `SwapPlan` control frames
/// — the paper's runtime dispatcher: the process, socket and shared
/// supernet [`WeightBank`] all survive a plan switch.
pub(crate) struct EdgeServer {
    addr: SocketAddr,
    handle: Option<ServeHandle>,
}

impl EdgeServer {
    /// Binds to an ephemeral loopback port and serves until shut down:
    /// no plan at first — the first `SwapPlan` control frame deploys one,
    /// later swaps replace it in place (same shared `bank`, so no weight
    /// transfer), and a client disconnect loops back to `accept`. Only a
    /// `Shutdown` control frame (see [`shutdown`](Self::shutdown)) or a
    /// connection error ends the serve thread. A reconnecting client must
    /// re-send `SwapPlan` before its first data frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub(crate) fn spawn(bank: WeightBank, seed: u64) -> Result<Self, EngineError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("gcode-edge".to_string())
            .spawn(move || serve(listener, EdgeCore::new(bank, seed)))?;
        Ok(Self { addr, handle: Some(handle) })
    }

    /// The address the device should connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
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
    pub(crate) fn shutdown(mut self) -> Result<(), EngineError> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        join_within(handle, self.addr, Duration::from_secs(2)).unwrap_or_else(|| {
            Err(protocol(
                "edge still serving a live connection; disconnect clients before shutdown",
            ))
        })
    }
}

type ServeHandle = JoinHandle<Result<(), EngineError>>;

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
    // The serve thread's own result, a panic in it reported as an error.
    Some(handle.join().unwrap_or_else(|_| Err(protocol("edge thread panicked"))))
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

/// Serves device connections one after another, frame by frame, through
/// the edge core: each connection starts a session with no plan, and a
/// `Shutdown` frame ends the loop.
fn serve(listener: TcpListener, mut core: EdgeCore) -> Result<(), EngineError> {
    // One receive buffer for the edge, not one per frame: a fresh buffer
    // freed beside the decoded features puts two same-sized transient
    // allocations (256 KiB each for a 1024 × 64 activation) at glibc's
    // dynamic trim threshold, where a few KiB of heap layout decide
    // whether every frame hands its memory back to the OS and faults it in
    // again.
    let mut body = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        core.end_session();
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        let mut writer = stream;
        while read_message_into(&mut reader, &mut body)? {
            match core.serve(decode_frame(&body)?)? {
                EdgeStep::Reply(reply) => {
                    write_message(&mut writer, &encode_frame(&Frame::State(reply)))?;
                }
                EdgeStep::Deployed => {}
                EdgeStep::Shutdown => return Ok(()),
            }
        }
    }
}

/// The device half: runs prefixes, streams intermediates, collects results.
///
/// A connection has one uplink thread and one results thread for its
/// whole life, not one pair per run: the first offloaded run starts them,
/// every run hands them its work over message queues, and they are joined
/// when the client shuts down, is dropped or a run fails.
pub(crate) struct DeviceClient {
    core: DeviceCore,
    stream: Option<TcpStream>,
    io: Option<IoThreads>,
    uplink_mbps: Option<f64>,
}

impl DeviceClient {
    /// Connects to a persistent edge at `addr` with no plan deployed yet,
    /// giving up after `timeout` instead of blocking for the OS default
    /// (minutes against a host that silently drops SYNs). The connection
    /// stays open across [`swap_plan`](Self::swap_plan)/run cycles until
    /// [`shutdown`](Self::shutdown), drop or a failed run.
    ///
    /// # Errors
    ///
    /// Returns connection errors, including the timeout.
    pub(crate) fn connect(
        addr: SocketAddr,
        bank: WeightBank,
        seed: u64,
        timeout: Duration,
    ) -> Result<Self, EngineError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        let core = DeviceCore::new(bank, seed);
        Ok(Self { core, stream: Some(stream), io: None, uplink_mbps: None })
    }

    /// Caps the uplink at `mbps`, emulating the paper's router bandwidth
    /// limits (10/40 Mbps) on loopback; scenario replay re-caps it between
    /// segments. The pacing runs inside the uplink thread so device
    /// compute stays unthrottled, and the token bucket is rebuilt from
    /// this field at the start of every
    /// [`run_pipelined`](Self::run_pipelined), so every run starts with a
    /// full bucket; control-frame pacing reads it live.
    pub(crate) fn set_uplink_mbps(&mut self, mbps: f64) {
        self.uplink_mbps = Some(mbps);
    }

    /// Paces a control frame against the emulated uplink: swap frames
    /// cross the same capped router as data frames, so their bytes
    /// must cost wire time too — that is exactly the saving the binary
    /// encoding buys.
    fn pace_control(&self, wire_bytes: usize) {
        if let Some(mbps) = self.uplink_mbps {
            std::thread::sleep(Duration::from_secs_f64(wire_bytes as f64 * 8.0 / (mbps * 1e6)));
        }
    }

    /// Hot-swaps the active plan on both halves: deploys it on the device
    /// core and sends the `SwapPlan` control frame it returns to the edge
    /// (which keeps its process, socket and shared [`WeightBank`]). The
    /// shared supernet bank means no weight transfer accompanies the
    /// switch — the paper's Sec. 3.6 dispatcher claim.
    ///
    /// A plan that is not offloaded ships nothing: the edge never serves
    /// one, and the next offloaded plan's `SwapPlan` replaces whatever the
    /// edge holds.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection is gone or the send fails.
    pub(crate) fn swap_plan(&mut self, plan: ExecutionPlan) -> Result<(), EngineError> {
        if let Some(swap) = self.core.deploy(plan) {
            let body = encode_frame(&swap);
            self.pace_control(body.len() + 4);
            let stream =
                self.stream.as_mut().ok_or_else(|| protocol("client connection closed"))?;
            write_message(stream, &body)?;
        }
        Ok(())
    }

    /// Tells the edge to end its serve loop (a `Shutdown` control frame),
    /// joins the connection's I/O threads and closes the connection.
    ///
    /// # Errors
    ///
    /// Returns an error if the send fails; the threads are joined and the
    /// connection is dropped either way.
    pub(crate) fn shutdown(mut self) -> Result<(), EngineError> {
        let sent = match self.stream.as_mut() {
            Some(stream) => write_message(stream, &encode_frame(&Frame::Shutdown)),
            None => Ok(()),
        };
        self.close();
        sent
    }

    /// Processes `samples` through the deployed plan and returns
    /// `(predictions, stats)`.
    ///
    /// Pipelined mode: the calling thread runs device prefixes and hands
    /// encoded frames to the connection's uplink thread; its results
    /// thread collects the edge's replies — the paper's separate send/recv
    /// threads with message queues. The device never waits for frame `f`'s
    /// result before starting frame `f+1`. Both threads belong to the
    /// connection, not to the call: the first offloaded run starts them,
    /// and each run after it only queues its frames and a request for its
    /// results. A failed run shuts the connection down and joins the
    /// threads, so neither the client nor the edge is left blocked on the
    /// socket.
    ///
    /// # Errors
    ///
    /// Refuses a run before the first [`swap_plan`](Self::swap_plan), and
    /// propagates socket and protocol errors from either thread.
    pub(crate) fn run_pipelined(
        &mut self,
        samples: &[Sample],
    ) -> Result<(Vec<usize>, EngineStats), EngineError> {
        let start = Instant::now();
        if !self.core.offloaded()? {
            return run_local(&mut self.core, samples, start);
        }
        let run = self.run_offloaded(samples, start);
        if run.is_err() {
            self.close();
        }
        run
    }

    fn run_offloaded(
        &mut self,
        samples: &[Sample],
        start: Instant,
    ) -> Result<(Vec<usize>, EngineStats), EngineError> {
        let Self { core, stream: Some(stream), io, uplink_mbps } = self else {
            return Err(protocol("client connection closed"));
        };
        let io = match io {
            Some(io) => io,
            None => io.insert(IoThreads::start(stream)?),
        };

        // The results thread is asked first, so it is reading before the
        // edge can have anything to reply.
        let (collected_tx, collected) = unbounded();
        io.results
            .send(CollectRun { frames: samples.len(), epoch: start, reply: collected_tx })
            .map_err(|_| io_thread_died("results"))?;
        let (frames_tx, frames) = unbounded();
        let (sent_tx, sent) = unbounded();
        let throttle = uplink_mbps.map(Throttle::mbps);
        io.uplink
            .send(UplinkRun { frames, throttle, reply: sent_tx })
            .map_err(|_| io_thread_died("uplink"))?;

        // This thread: device prefix per frame; never blocks on results.
        let mut starts_s = Vec::with_capacity(samples.len());
        for (frame_id, sample) in (0..).zip(samples) {
            starts_s.push(start.elapsed().as_secs_f64());
            let DeviceStep::Ship(state) = core.frame(frame_id, sample)? else {
                unreachable!("an offloaded plan ships every frame")
            };
            // A closed queue means the uplink thread failed; its reply
            // says why.
            if frames_tx.send(encode_frame(&Frame::State(state))).is_err() {
                break;
            }
        }
        drop(frames_tx);
        let frame_bytes = sent.recv().ok_or_else(|| io_thread_died("uplink"))??;
        let results = collected.recv().ok_or_else(|| io_thread_died("results"))??;
        let predictions = results.iter().map(|&(prediction, _)| prediction).collect();
        let frame_latencies_s =
            results.iter().zip(starts_s).map(|(&(_, done_s), s)| (done_s - s).max(0.0)).collect();
        Ok((predictions, EngineStats::since(start, frame_bytes, frame_latencies_s)))
    }

    /// Shuts the socket down, then joins the I/O threads and drops the
    /// connection. The shutdown returns a thread blocked mid-run in a read
    /// or write (a failed or unwound run) and lets the edge see the
    /// connection end; between runs both threads wait on their queues,
    /// which joining closes, and a `Shutdown` frame already written still
    /// reaches the edge ahead of the FIN.
    fn close(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(io) = self.io.take() {
            io.join();
        }
    }
}

/// Runs a plan that is not offloaded: every frame on the device, nothing
/// on the wire.
fn run_local(
    core: &mut DeviceCore,
    samples: &[Sample],
    start: Instant,
) -> Result<(Vec<usize>, EngineStats), EngineError> {
    let mut predictions = Vec::with_capacity(samples.len());
    let mut frame_latencies_s = Vec::with_capacity(samples.len());
    for (frame_id, sample) in (0..).zip(samples) {
        let frame_start = start.elapsed().as_secs_f64();
        let DeviceStep::Predicted(prediction) = core.frame(frame_id, sample)? else {
            unreachable!("a local plan ships no frame")
        };
        predictions.push(prediction);
        frame_latencies_s.push((start.elapsed().as_secs_f64() - frame_start).max(0.0));
    }
    Ok((predictions, EngineStats::since(start, vec![0; samples.len()], frame_latencies_s)))
}

impl Drop for DeviceClient {
    /// Closes a client that was never shut down, joining its I/O threads
    /// even when a caught panic left a run unfinished. Never panics.
    fn drop(&mut self) {
        self.close();
    }
}

/// One frame's result as the results thread collects it:
/// `(prediction, done_s)`.
type Collected = (usize, f64);

/// A run's work for the uplink thread: write `frames` as they arrive,
/// paced by `throttle`, and reply with each frame's wire bytes once the
/// run's queue closes.
struct UplinkRun {
    frames: Receiver<Vec<u8>>,
    throttle: Option<Throttle>,
    reply: Sender<Result<Vec<usize>, EngineError>>,
}

/// A run's work for the results thread: read `frames` results, stamping
/// each with the time since `epoch`.
struct CollectRun {
    frames: usize,
    epoch: Instant,
    reply: Sender<Result<Vec<Collected>, EngineError>>,
}

/// A connection's two I/O threads, each serving one run at a time from
/// its queue until the queue closes. A thread whose run fails replies and
/// exits; the results thread also shuts the socket down first.
struct IoThreads {
    uplink: Sender<UplinkRun>,
    results: Sender<CollectRun>,
    handles: [JoinHandle<()>; 2],
}

impl IoThreads {
    /// Starts both threads over their own clones of `stream`. Should the
    /// second spawn fail, the first thread's queue is closed and the
    /// thread joined before the error returns.
    fn start(stream: &TcpStream) -> Result<Self, EngineError> {
        let mut writer = stream.try_clone()?;
        let mut reader = stream.try_clone()?;
        let (uplink, uplink_runs) = unbounded::<UplinkRun>();
        let (results, collect_runs) = unbounded::<CollectRun>();
        let uplink_thread =
            std::thread::Builder::new().name("gcode-uplink".to_string()).spawn(move || {
                for UplinkRun { frames, throttle, reply } in uplink_runs.iter() {
                    if !hand_back(send_run(&mut writer, frames, throttle), &reply) {
                        return;
                    }
                }
            })?;
        let results_thread =
            std::thread::Builder::new().name("gcode-results".to_string()).spawn(move || {
                for CollectRun { frames, epoch, reply } in collect_runs.iter() {
                    let collected = collect_run(&mut reader, frames, epoch);
                    if collected.is_err() {
                        // The device thread may be waiting on the uplink,
                        // itself stuck writing to an edge that no longer
                        // reads; the shutdown fails that write.
                        let _ = reader.shutdown(Shutdown::Both);
                    }
                    if !hand_back(collected, &reply) {
                        return;
                    }
                }
            });
        match results_thread {
            Ok(results_thread) => {
                Ok(Self { uplink, results, handles: [uplink_thread, results_thread] })
            }
            Err(e) => {
                drop(uplink);
                let _ = uplink_thread.join();
                Err(e.into())
            }
        }
    }

    /// Closes both queues and joins the threads. A thread that panicked
    /// has already failed its run by dropping its reply queue.
    fn join(self) {
        let Self { uplink, results, handles } = self;
        drop((uplink, results));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn io_thread_died(name: &str) -> EngineError {
    protocol(format!("{name} thread died"))
}

/// Writes one run's frames. They arrive in frame order (one queue feeds
/// one thread), so the per-frame byte log indexes by frame id.
fn send_run(
    writer: &mut TcpStream,
    frames: Receiver<Vec<u8>>,
    mut throttle: Option<Throttle>,
) -> Result<Vec<usize>, EngineError> {
    let mut frame_bytes = Vec::new();
    for body in frames.iter() {
        if let Some(t) = throttle.as_mut() {
            t.pace(body.len() + 4);
        }
        frame_bytes.push(body.len() + 4);
        write_message(&mut *writer, &body)?;
    }
    Ok(frame_bytes)
}

/// Reads one run's `frames` results off the connection, in frame order.
/// Exactly the ids sent, each once: a duplicate or out-of-range id from a
/// rogue edge is a protocol error, not a panic or a silent
/// prediction/latency misalignment.
fn collect_run(
    reader: &mut TcpStream,
    frames: usize,
    epoch: Instant,
) -> Result<Vec<Collected>, EngineError> {
    let mut results = vec![None; frames];
    for _ in 0..frames {
        let Some(body) = read_message(&mut *reader)? else {
            return Err(protocol("edge closed before all results arrived"));
        };
        let (frame_id, prediction) = DeviceCore::reply(decode_frame(&body)?)?;
        let slot = results.get_mut(frame_id as usize).filter(|slot| slot.is_none());
        *slot.ok_or_else(|| {
            protocol(format!("edge returned unexpected frame id {frame_id} (expected 0..{frames})"))
        })? = Some((prediction, epoch.elapsed().as_secs_f64()));
    }
    Ok(results.into_iter().flatten().collect())
}

/// Hands a run's outcome back to the device thread and says whether the
/// I/O thread serves on. The device thread may already have stopped
/// listening (the other thread failed first); the outcome is then dropped.
fn hand_back<T>(outcome: Result<T, EngineError>, reply: &Sender<Result<T, EngineError>>) -> bool {
    let ok = outcome.is_ok();
    let _ = reply.send(outcome);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::EdgePool;
    use crate::proto::WireState;
    use gcode_core::arch::Architecture;
    use gcode_core::op::{Op, SampleFn};
    use gcode_graph::datasets::PointCloudDataset;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;
    use gcode_nn::seq::{forward, GraphInput};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const CONNECT: Duration = Duration::from_secs(5);

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

    /// A fresh pair for one plan: deployed, streamed once, shut down.
    fn run_fresh(
        plan: ExecutionPlan,
        bank: WeightBank,
        seed: u64,
        samples: &[Sample],
    ) -> Result<(Vec<usize>, EngineStats), EngineError> {
        let mut pool = EdgePool::spawn(bank, seed)?;
        pool.deploy(plan)?;
        let run = pool.run(samples)?;
        pool.shutdown()?;
        Ok(run)
    }

    #[test]
    fn end_to_end_matches_local_execution() {
        let arch = split_arch();
        let ds = PointCloudDataset::generate(6, 20, 3, 17);
        let bank = WeightBank::new(3, 99);
        let plan = ExecutionPlan::from_architecture(&arch);
        let (preds, stats) = run_fresh(plan, bank.clone(), 1, ds.samples()).expect("run");

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
        assert_eq!(stats.frame_latencies_s.len(), 6);
        assert!(stats.bytes_sent > 0);
        assert!(stats.wall_s > 0.0);
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
        let plan = ExecutionPlan::from_architecture(&arch);
        let (preds, stats) = run_fresh(plan, WeightBank::new(2, 5), 2, ds.samples()).expect("run");
        assert_eq!(preds.len(), 4);
        assert_eq!(stats.bytes_sent, 0);
        assert_eq!(stats.frame_bytes, vec![0; 4]);
    }

    #[test]
    fn shutdown_terminates_an_uncontacted_server() {
        let server = EdgeServer::spawn(WeightBank::new(2, 1), 7).expect("spawn");
        // No client ever connects; shutdown must still join the thread.
        server.shutdown().expect("clean shutdown without any client");
    }

    #[test]
    fn shutdown_with_a_live_peer_is_bounded_by_the_clock_and_the_queued_nudge_ends_the_edge() {
        let server = EdgeServer::spawn(WeightBank::new(2, 1), 7).expect("spawn");
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
        // Random neighborhoods on both halves: every frame draws from the
        // device's stream and from the edge's.
        let arch_r = Architecture::new(vec![
            Op::Sample(SampleFn::Random { k: 3 }),
            Op::Aggregate(AggMode::Mean),
            Op::Combine { dim: 8 },
            Op::Communicate,
            Op::Sample(SampleFn::Random { k: 3 }),
            Op::Aggregate(AggMode::Mean),
            Op::Combine { dim: 8 },
            Op::GlobalPool(PoolMode::Mean),
        ]);
        let ds = PointCloudDataset::generate(5, 18, 3, 29);
        let twice = [ds.samples(), ds.samples()].concat();
        let bank = WeightBank::new(3, 41);
        let seed = 11;

        // One pair, hot swaps A → R → B → R → A, two runs per deploy.
        let server = EdgeServer::spawn(bank.clone(), seed).expect("spawn");
        let mut client =
            DeviceClient::connect(server.addr(), bank.clone(), seed, CONNECT).expect("connect");
        let mut random_runs = Vec::new();
        for arch in [&arch_a, &arch_r, &arch_b, &arch_r, &arch_a] {
            let plan = ExecutionPlan::from_architecture(arch);
            // References: a fresh pair, and the in-process oracle over the
            // stream of both runs (a stream restarts on deploy only).
            let fresh = run_fresh(plan.clone(), bank.clone(), seed, ds.samples()).expect("run").0;
            let oracle = plan.run_in_process(bank.clone(), seed, &twice).expect("oracle");
            client.swap_plan(plan).expect("swap");
            let (first, stats) = client.run_pipelined(ds.samples()).expect("run");
            assert_eq!(first, fresh, "{arch}: a deploy's first run must match a fresh pair");
            assert_eq!(first, oracle[..5], "{arch}: …and the in-process oracle");
            assert_eq!(stats.frame_bytes.len(), 5);
            assert_eq!(stats.bytes_sent, stats.frame_bytes.iter().sum::<usize>());
            let (second, _) = client.run_pipelined(ds.samples()).expect("run");
            assert_eq!(second, oracle[5..], "{arch}: a second run continues both streams");
            if std::ptr::eq(arch, &arch_r) {
                random_runs.push((first, second));
            }
        }
        assert_eq!(random_runs[0], random_runs[1], "R's runs after each deploy agree");
        assert_ne!(random_runs[0].0, random_runs[0].1, "R draws from the streams");
        client.shutdown().expect("shutdown frame sent");
        server.shutdown().expect("the edge exits on Shutdown");
    }

    #[test]
    fn an_empty_logits_reply_is_a_typed_error_not_a_panic() {
        // A peer that reads the deploy and every state frame, then answers
        // each with well-formed but empty 0×4 logits.
        let ds = PointCloudDataset::generate(3, 16, 2, 9);
        let frames = ds.samples().len();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut states = Vec::new();
            while states.len() < frames {
                let body = read_message(&mut stream).expect("read").expect("a frame");
                if let Frame::State(state) = decode_frame(&body).expect("decode") {
                    states.push(state);
                }
            }
            for state in states {
                let empty = gcode_tensor::Matrix::zeros(0, 4);
                let reply = Frame::State(WireState { features: empty, graph: None, ..state });
                // The device hangs up after the first reply.
                let _ = write_message(&mut stream, &encode_frame(&reply));
            }
        });
        let plan = ExecutionPlan::from_architecture(&split_arch());
        let mut client =
            DeviceClient::connect(addr, WeightBank::new(2, 1), 7, CONNECT).expect("connect");
        client.swap_plan(plan).expect("swap");
        let err = client.run_pipelined(ds.samples()).expect_err("empty logits are refused");
        assert!(
            matches!(&err, EngineError::Protocol(m) if m.contains("0×4 logits are empty")),
            "{err}"
        );
        drop(client);
        peer.join().expect("the peer exits");
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
        let mut client =
            DeviceClient::connect(addr, WeightBank::new(2, 1), 7, CONNECT).expect("connect");
        client.swap_plan(local).expect("local swap");
        client.swap_plan(offloaded.clone()).expect("offloaded swap");
        client.shutdown().expect("shutdown");
        let frames = peer.join().expect("peer");
        assert_eq!(frames, vec![Frame::SwapPlan(Box::new(offloaded)), Frame::Shutdown]);
    }

    #[test]
    fn results_arrive_in_frame_order() {
        let ds = PointCloudDataset::generate(12, 16, 4, 31);
        let bank = WeightBank::new(4, 7);
        let plan = ExecutionPlan::from_architecture(&split_arch());
        let (preds_a, _) = run_fresh(plan.clone(), bank.clone(), 3, ds.samples()).expect("run");
        // Re-running with a fresh pair must be deterministic.
        let (preds_b, _) = run_fresh(plan, bank, 3, ds.samples()).expect("run");
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
        let (preds, stats) = run_fresh(plan, WeightBank::new(2, 11), 4, ds.samples()).expect("run");
        assert_eq!(preds.len(), 3);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn a_failed_run_releases_the_edge() {
        // An edge-only plan ships its raw input: 4.2 M points of four
        // non-zero floats pack in stored mode to just over the 64 MiB
        // message cap, so the uplink thread refuses the frame.
        let plan = ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]));
        let (rows, cols) = (4_200_000, 4);
        let sample = Sample {
            features: gcode_tensor::Matrix::from_vec(rows, cols, vec![1.0; rows * cols]),
            label: 0,
            graph: None,
        };
        let bank = WeightBank::new(2, 3);
        let server = EdgeServer::spawn(bank.clone(), 5).expect("spawn");
        let mut client = DeviceClient::connect(server.addr(), bank, 5, CONNECT).expect("connect");
        client.swap_plan(plan).expect("swap");
        let err = client.run_pipelined(&[sample]).expect_err("the frame is over the cap");
        assert!(err.to_string().contains("-byte cap"), "{err}");
        // The failed run shut the connection down and joined its threads:
        // the edge's read returned, so the edge is not left serving it.
        server.shutdown().expect("the edge is released");
        drop(client);
    }

    #[test]
    fn a_client_dropped_after_a_caught_panic_mid_run_releases_the_edge() {
        let plan = ExecutionPlan::from_architecture(&split_arch());
        let ds = PointCloudDataset::generate(2, 16, 3, 8);
        let bank = WeightBank::new(3, 2);
        let server = EdgeServer::spawn(bank.clone(), 6).expect("spawn");
        let addr = server.addr();
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut client = DeviceClient::connect(addr, bank, 6, CONNECT).expect("connect");
            client.swap_plan(plan).expect("swap");
            // A zero rate makes the run panic after it has asked the
            // results thread for replies the edge will never send.
            client.set_uplink_mbps(0.0);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                client.run_pipelined(ds.samples())
            }));
            assert!(run.is_err(), "a zero-rate throttle panics");
            drop(client);
            let _ = done_tx.send(());
        });
        done.recv_timeout(Duration::from_secs(10)).expect("dropping the client returns");
        server.shutdown().expect("the edge is released");
    }

    #[test]
    fn throttled_client_still_completes_correctly() {
        let arch = Architecture::new(vec![
            Op::Combine { dim: 16 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]);
        let plan = ExecutionPlan::from_architecture(&arch);
        let ds = PointCloudDataset::generate(4, 12, 2, 5);
        let mut pool =
            EdgePool::spawn(WeightBank::new(2, 9), 4).expect("pool").with_uplink_mbps(5.0);
        pool.deploy(plan).expect("deploy");
        let (preds, stats) = pool.run(ds.samples()).expect("stream");
        pool.shutdown().expect("clean");
        assert_eq!(preds.len(), 4);
        // 5 Mbps on a few KB: the wall time reflects pacing but finishes.
        assert!(stats.wall_s < 10.0);
    }
}
