//! The resident daemon: accept loop, per-connection protocol handlers,
//! admission control, and the session worker pool.
//!
//! Thread layout (for a server with `max_sessions = W`):
//!
//! * 1 accept thread (`gcode-serve-accept`) — owns the listener, spawns a
//!   handler per connection;
//! * N handler threads (`gcode-serve-conn`) — one per live client, pure
//!   request/response over the session frames;
//! * W worker threads (`gcode-serve-worker`) — pull admitted sessions off
//!   one shared queue and run the deterministic search pipeline, measuring
//!   each zoo by calling the shared warm [`gcode_engine::EdgeFleet`]
//!   directly; while a zoo is measured, its call runs up to one
//!   `gcode-fleet-N` thread per pool, and the fleet's first come, first
//!   served pool checkout interleaves tenants candidate by candidate.
//!
//! Admission: at most `max_sessions + queue_limit` sessions may be
//! in flight (admitted, not yet finished). An `OpenSession` beyond that
//! is answered with a `Busy` frame carrying the live running/queued
//! counts — backpressure the client can see and retry on — never with a
//! dropped connection or an unbounded queue.

use crate::session::{run_pipeline, serve_fleet};
use crate::ServerError;
use gcode_core::cachelog::{open_shared, SharedCacheLog};
use gcode_core::eval::FleetStats;
use gcode_engine::{
    decode_frame, encode_frame, frame_name, read_message, write_message, EdgeFleet, FleetSpec,
    Frame, SessionOutcome, SessionProgress, SessionSpec, SessionState, MAX_SESSION_ITERATIONS,
    PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs for a [`SearchServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    fleet: FleetSpec,
    max_sessions: usize,
    queue_limit: usize,
    sessions_limit: Option<u64>,
    cache_file: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// A server over `fleet` with the default admission bounds: 4
    /// concurrently running sessions plus a queue of 8.
    pub fn new(fleet: FleetSpec) -> Self {
        Self { fleet, max_sessions: 4, queue_limit: 8, sessions_limit: None, cache_file: None }
    }

    /// Sets the number of concurrently *running* sessions (worker
    /// threads); the admission queue follows at twice that, until
    /// overridden by [`with_queue_limit`](Self::with_queue_limit).
    #[must_use]
    pub fn with_max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self.queue_limit = self.max_sessions.saturating_mul(2);
        self
    }

    /// Sets how many admitted sessions may wait for a worker beyond the
    /// running ones before `OpenSession` answers `Busy`.
    #[must_use]
    pub fn with_queue_limit(mut self, n: usize) -> Self {
        self.queue_limit = n;
        self
    }

    /// Makes the server shut itself down after delivering `n` session
    /// results — the CI smoke path: serve exactly one search, then exit
    /// cleanly without an external kill.
    #[must_use]
    pub fn with_sessions_limit(mut self, n: u64) -> Self {
        self.sessions_limit = Some(n.max(1));
        self
    }

    /// Persists zoo measurements in an append-only
    /// [`CacheLog`](gcode_core::cachelog::CacheLog) at `path`: each
    /// deployed plan's predictions and [`gcode_engine::EngineStats`] are
    /// stored through [`gcode_engine::measure_cached`], the record an
    /// `EngineBackend` keeps too — keyed by the plan's wire id and a
    /// context of the fleet (seeds, endpoints, uplink cap), the task's
    /// stream content and the wire version — so a restarted server (or a
    /// re-submitted session) serves repeat measurements without a single
    /// fleet deployment. Sessions report the split via
    /// `MeasuredProfile::{deployed, cached}`.
    #[must_use]
    pub fn with_cache_file(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cache_file = Some(path.into());
        self
    }
}

/// Where a served session is in its lifecycle, with its terminal payload.
enum SessionPhase {
    /// Opened, not yet submitted.
    Open,
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker is running the search stage.
    Searching,
    /// The zoo is being measured on the shared fleet.
    Measuring,
    /// Finished; polls answer with this outcome.
    Done(Box<SessionOutcome>),
    /// Failed server-side; polls answer with this error.
    Failed(String),
}

impl SessionPhase {
    fn state(&self) -> SessionState {
        match self {
            SessionPhase::Open | SessionPhase::Queued => SessionState::Queued,
            SessionPhase::Searching => SessionState::Searching,
            SessionPhase::Measuring => SessionState::Measuring,
            SessionPhase::Done(_) => SessionState::Done,
            SessionPhase::Failed(_) => SessionState::Failed,
        }
    }
}

/// One admitted session, shared between its handler and its worker.
struct SessionEntry {
    id: u64,
    spec: SessionSpec,
    phase: Mutex<SessionPhase>,
    evaluated: AtomicU64,
    delivered: AtomicBool,
}

impl SessionEntry {
    /// Progress snapshot against an already-held phase guard. The split
    /// from [`progress`](Self::progress) matters: callers inspecting the
    /// phase must NOT re-lock it here — the phase mutex is not reentrant.
    fn progress_locked(&self, phase: &SessionPhase) -> SessionProgress {
        let best_score = match phase {
            SessionPhase::Done(outcome) => outcome.report.best_score,
            _ => None,
        };
        SessionProgress {
            session: self.id,
            state: phase.state(),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            total: self.spec.config.iterations.min(MAX_SESSION_ITERATIONS) as u64,
            best_score,
        }
    }

    fn progress(&self) -> SessionProgress {
        let phase = self.phase.lock().expect("phase lock");
        self.progress_locked(&phase)
    }
}

/// State shared by the accept loop, handlers and workers.
struct Shared {
    max_sessions: usize,
    queue_limit: usize,
    sessions_limit: Option<u64>,
    registry: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    /// Sessions admitted and not yet terminal (counts against admission).
    in_flight: AtomicUsize,
    /// Sessions currently occupying a worker.
    active: AtomicUsize,
    /// Session results delivered to a client (first delivery only).
    delivered: AtomicU64,
    /// Feed to the worker pool; dropped at shutdown to drain the workers.
    work_tx: Mutex<Option<Sender<Arc<SessionEntry>>>>,
    /// Self-shutdown trigger (admin `Shutdown` frame, sessions limit).
    trigger: Mutex<Sender<()>>,
    shutting_down: AtomicBool,
    /// A clone of every live connection by connection id, for forced
    /// unblock at shutdown; a handler drops its own when it returns.
    conns: Mutex<HashMap<usize, TcpStream>>,
    /// Handler threads not yet seen finished, joined at shutdown; the
    /// accept loop reaps the finished ones.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = self.trigger.lock().expect("trigger lock").send(());
        }
    }
}

/// The resident search daemon. See the crate docs for the protocol and
/// the module docs for the thread layout.
pub struct SearchServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    fleet: Arc<EdgeFleet>,
    trigger_rx: Receiver<()>,
}

impl SearchServer {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// builds the shared fleet (no pool spawns before the first zoo is
    /// measured), spawns the worker pool, and starts accepting clients.
    pub fn start(listen: &str, config: ServerConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let cache = config.cache_file.as_ref().map(open_shared).transpose()?;
        let fleet = Arc::new(serve_fleet(config.fleet.clone()));
        let (work_tx, work_rx) = std::sync::mpsc::channel::<Arc<SessionEntry>>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (trigger_tx, trigger_rx) = std::sync::mpsc::channel::<()>();
        let shared = Arc::new(Shared {
            max_sessions: config.max_sessions,
            queue_limit: config.queue_limit,
            sessions_limit: config.sessions_limit,
            registry: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            in_flight: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            delivered: AtomicU64::new(0),
            work_tx: Mutex::new(Some(work_tx)),
            trigger: Mutex::new(trigger_tx),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let workers = (0..config.max_sessions)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let work_rx = Arc::clone(&work_rx);
                let fleet = Arc::clone(&fleet);
                let cache = cache.clone();
                std::thread::Builder::new()
                    .name(format!("gcode-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &work_rx, &fleet, cache.as_ref()))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gcode-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self { addr, shared, accept, workers, fleet, trigger_rx })
    }

    /// The bound listen address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live per-pool counters of the shared fleet.
    ///
    /// # Errors
    ///
    /// None: the fleet is read directly, so this always answers `Ok`.
    pub fn fleet_stats(&self) -> Result<FleetStats, ServerError> {
        Ok(self.fleet.stats())
    }

    /// Blocks until the server triggers its own shutdown (admin
    /// `Shutdown` frame, or the configured sessions limit delivered),
    /// then tears it down cleanly.
    pub fn wait(self) -> Result<(), ServerError> {
        let _ = self.trigger_rx.recv();
        self.teardown()
    }

    /// Shuts the server down now: stops accepting, closes every client
    /// connection, drains the worker pool, shuts the fleet down, and joins
    /// every thread.
    pub fn shutdown(self) -> Result<(), ServerError> {
        self.shared.trigger_shutdown();
        self.teardown()
    }

    fn teardown(self) -> Result<(), ServerError> {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Nudge the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        // Force every handler out of its blocking read.
        for conn in self.shared.conns.lock().expect("conns lock").values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handlers lock"));
        for h in handlers {
            let _ = h.join();
        }
        // Workers finish their current session, then see the closed
        // channel and exit.
        drop(self.shared.work_tx.lock().expect("work_tx lock").take());
        for w in self.workers {
            let _ = w.join();
        }
        // The joined workers dropped their handles: the fleet is ours alone.
        if let Some(fleet) = Arc::into_inner(self.fleet) {
            let _ = fleet.shutdown();
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for (conn, stream) in listener.incoming().enumerate() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").insert(conn, clone);
        }
        let handler_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name("gcode-serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn, &handler_shared))
        {
            Ok(handle) => {
                // A resident server holds handles for its live connections
                // only, not one per connection ever made.
                let mut handlers = shared.handlers.lock().expect("handlers lock");
                handlers.retain(|h| !h.is_finished());
                handlers.push(handle);
            }
            // No handler will ever drop this connection's clone.
            Err(_) => drop(shared.conns.lock().expect("conns lock").remove(&conn)),
        }
    }
}

/// Best-effort frame send; a client that vanished mid-reply is its own
/// problem.
fn send(stream: &mut TcpStream, frame: &Frame) -> bool {
    write_message(&mut *stream, &encode_frame(frame)).is_ok()
}

fn handle_connection(mut stream: TcpStream, conn: usize, shared: &Arc<Shared>) {
    let mut opened = Vec::new();
    drive_connection(&mut stream, shared, &mut opened);
    // However the client left: a session it opened and never submitted has
    // no worker to account for it, so its admission slot goes back here.
    for id in opened {
        if lookup(shared, id).is_some_and(|entry| release_unsubmitted(&entry, shared)) {
            shared.registry.lock().expect("registry lock").remove(&id);
        }
    }
    // Drop the accept loop's clone of this stream before closing ours, so
    // a client that sees EOF knows the server tracks it no longer.
    shared.conns.lock().expect("conns lock").remove(&conn);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serves one client until it leaves, recording in `opened` the id of every
/// session it opens.
fn drive_connection(mut stream: &mut TcpStream, shared: &Arc<Shared>, opened: &mut Vec<u64>) {
    // Handshake: the first frame must be a Hello with our protocol
    // version. Anything else gets a clean Error frame, never a silent
    // drop or a decode failure on the client.
    match read_message(&mut stream) {
        Ok(Some(body)) => match decode_frame(&body) {
            Ok(Frame::Hello(v)) if v == PROTOCOL_VERSION => {
                if !send(stream, &Frame::Hello(PROTOCOL_VERSION)) {
                    return;
                }
            }
            Ok(Frame::Hello(v)) => {
                send(
                    stream,
                    &Frame::Error(format!(
                        "protocol version mismatch: server speaks v{PROTOCOL_VERSION}, client sent v{v}"
                    )),
                );
                return;
            }
            Ok(other) => {
                send(
                    stream,
                    &Frame::Error(format!(
                        "expected a Hello handshake, got a {} frame",
                        frame_name(&other)
                    )),
                );
                return;
            }
            Err(e) => {
                send(stream, &Frame::Error(format!("bad handshake frame: {e}")));
                return;
            }
        },
        // Clean EOF before a handshake (port probe, shutdown nudge) or a
        // broken first read: nothing to answer.
        _ => return,
    }
    loop {
        let frame = match read_message(&mut stream) {
            Ok(Some(body)) => match decode_frame(&body) {
                Ok(frame) => frame,
                Err(e) => {
                    // Malformed request: answer cleanly and close — the
                    // stream offset is unreliable after a bad frame.
                    send(stream, &Frame::Error(format!("bad request frame: {e}")));
                    return;
                }
            },
            Ok(None) => return, // clean disconnect
            Err(_) => return,   // truncated frame / reset: nothing to answer
        };
        let (reply, trigger) = handle_request(frame, shared);
        if let Frame::SessionOpened(id) = reply {
            opened.push(id);
        }
        let sent = send(stream, &reply);
        // Shutdown is triggered only after the reply frame is on the
        // wire, so the peer that caused it (an explicit Shutdown, or the
        // Result that exhausted --sessions-limit) still gets its answer
        // before teardown closes every connection.
        if trigger {
            shared.trigger_shutdown();
        }
        if !sent || matches!(reply, Frame::Shutdown) {
            return;
        }
    }
}

/// Applies one post-handshake request frame and builds its reply, plus
/// whether server shutdown should be triggered once the reply is sent.
fn handle_request(frame: Frame, shared: &Arc<Shared>) -> (Frame, bool) {
    match frame {
        Frame::OpenSession(spec) => (open_session(*spec, shared), false),
        Frame::Submit(id) => match lookup(shared, id) {
            Some(entry) => (submit(&entry, shared), false),
            None => (unknown_session(id), false),
        },
        Frame::Poll(id) => match lookup(shared, id) {
            Some(entry) => poll(&entry, shared),
            None => (unknown_session(id), false),
        },
        Frame::CloseSession(id) => {
            let entry = shared.registry.lock().expect("registry lock").remove(&id);
            match entry {
                Some(entry) => {
                    release_unsubmitted(&entry, shared);
                    (Frame::CloseSession(id), false)
                }
                None => (unknown_session(id), false),
            }
        }
        Frame::Shutdown => (Frame::Shutdown, true),
        other => (
            Frame::Error(format!("the serve loop cannot handle a {} frame", frame_name(&other))),
            false,
        ),
    }
}

/// Gives back the admission slot of a session that was never submitted —
/// a submitted one is accounted by its worker when it finishes — and
/// reports whether it did. The session turns terminal under its phase
/// lock, so a `Submit` racing in on another connection cannot queue a
/// session whose slot is already returned.
fn release_unsubmitted(entry: &SessionEntry, shared: &Shared) -> bool {
    let mut phase = entry.phase.lock().expect("phase lock");
    let unsubmitted = matches!(*phase, SessionPhase::Open);
    if unsubmitted {
        *phase = SessionPhase::Failed("closed before it was submitted".to_string());
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
    unsubmitted
}

fn lookup(shared: &Shared, id: u64) -> Option<Arc<SessionEntry>> {
    shared.registry.lock().expect("registry lock").get(&id).cloned()
}

fn unknown_session(id: u64) -> Frame {
    Frame::Error(format!("unknown session {id}"))
}

fn open_session(spec: SessionSpec, shared: &Arc<Shared>) -> Frame {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Frame::Error("server is shutting down".to_string());
    }
    let cap = shared.max_sessions + shared.queue_limit;
    let admitted = shared
        .in_flight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < cap).then_some(n + 1))
        .is_ok();
    if !admitted {
        let running = shared.active.load(Ordering::SeqCst);
        let queued = shared.in_flight.load(Ordering::SeqCst).saturating_sub(running);
        return Frame::Busy { running: running as u32, queued: queued as u32 };
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let entry = Arc::new(SessionEntry {
        id,
        spec,
        phase: Mutex::new(SessionPhase::Open),
        evaluated: AtomicU64::new(0),
        delivered: AtomicBool::new(false),
    });
    shared.registry.lock().expect("registry lock").insert(id, entry);
    Frame::SessionOpened(id)
}

fn submit(entry: &Arc<SessionEntry>, shared: &Shared) -> Frame {
    {
        let mut phase = entry.phase.lock().expect("phase lock");
        match &*phase {
            SessionPhase::Open => *phase = SessionPhase::Queued,
            // Submit is idempotent: re-submitting just reports progress.
            other => return Frame::Progress(entry.progress_locked(other)),
        }
    }
    let work_tx = shared.work_tx.lock().expect("work_tx lock");
    match work_tx.as_ref().map(|tx| tx.send(Arc::clone(entry))) {
        Some(Ok(())) => Frame::Progress(entry.progress()),
        _ => {
            *entry.phase.lock().expect("phase lock") =
                SessionPhase::Failed("worker pool is shut down".to_string());
            Frame::Error("worker pool is shut down".to_string())
        }
    }
}

fn poll(entry: &Arc<SessionEntry>, shared: &Shared) -> (Frame, bool) {
    let phase = entry.phase.lock().expect("phase lock");
    match &*phase {
        SessionPhase::Done(outcome) => {
            let outcome = outcome.clone();
            drop(phase);
            let mut exhausted = false;
            if !entry.delivered.swap(true, Ordering::SeqCst) {
                let delivered = shared.delivered.fetch_add(1, Ordering::SeqCst) + 1;
                exhausted = shared.sessions_limit.is_some_and(|limit| delivered >= limit);
            }
            // `exhausted` asks the connection driver to trigger shutdown
            // *after* this Result frame is sent, so the final tenant
            // still receives its winner.
            (Frame::Result(outcome), exhausted)
        }
        SessionPhase::Failed(msg) => {
            (Frame::Error(format!("session {} failed: {msg}", entry.id)), false)
        }
        other => (Frame::Progress(entry.progress_locked(other)), false),
    }
}

/// One worker: pull admitted sessions off the shared queue and run them
/// to a terminal phase.
fn worker_loop(
    shared: &Arc<Shared>,
    work_rx: &Arc<Mutex<Receiver<Arc<SessionEntry>>>>,
    fleet: &EdgeFleet,
    cache: Option<&SharedCacheLog>,
) {
    loop {
        // Hold the receiver lock only while blocking for the next
        // session; the channel closing (shutdown) ends the loop.
        let entry = {
            let rx = work_rx.lock().expect("work_rx lock");
            match rx.recv() {
                Ok(entry) => entry,
                Err(_) => return,
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        let terminal = run_session(&entry, fleet, cache);
        *entry.phase.lock().expect("phase lock") = terminal;
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one session's pipeline and returns its terminal phase. The zoo's
/// uncached plans are one batch on the shared fleet; a fully cached zoo
/// skips the Measuring phase outright.
fn run_session(
    entry: &Arc<SessionEntry>,
    fleet: &EdgeFleet,
    cache: Option<&SharedCacheLog>,
) -> SessionPhase {
    *entry.phase.lock().expect("phase lock") = SessionPhase::Searching;
    let outcome = run_pipeline(&entry.spec, entry.id, &entry.evaluated, cache, fleet, || {
        *entry.phase.lock().expect("phase lock") = SessionPhase::Measuring;
    });
    SessionPhase::Done(Box::new(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServerClient;
    use gcode_core::eval::Objective;
    use gcode_core::search::SearchConfig;
    use gcode_engine::SessionTask;
    use std::time::Duration;

    #[test]
    fn the_default_queue_saturates_for_a_huge_session_count() {
        let config = ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(usize::MAX);
        assert_eq!((config.max_sessions, config.queue_limit), (usize::MAX, usize::MAX));
        let config = ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(3);
        assert_eq!((config.max_sessions, config.queue_limit), (3, 6));
    }

    #[test]
    fn connections_are_untracked_and_their_handlers_reaped_as_clients_leave() {
        let server = SearchServer::start("127.0.0.1:0", ServerConfig::new(FleetSpec::loopback(1)))
            .expect("server starts");
        const CYCLES: usize = 64;
        for _ in 0..CYCLES {
            let mut raw = TcpStream::connect(server.addr()).expect("connect");
            write_message(&mut raw, &encode_frame(&Frame::Hello(PROTOCOL_VERSION))).expect("send");
            let reply = read_message(&mut raw).expect("read").expect("handshake answered");
            assert!(matches!(decode_frame(&reply), Ok(Frame::Hello(_))));
            // Half-close and read to EOF: the handler closes its end only
            // after it has dropped the server's clone of this connection.
            raw.shutdown(std::net::Shutdown::Write).expect("half-close");
            assert!(read_message(&mut raw).expect("clean close").is_none());
        }
        assert_eq!(
            server.shared.conns.lock().expect("conns lock").len(),
            0,
            "a departed client leaves no duplicated fd behind"
        );

        // One more client still gets a whole session out of the daemon…
        let spec = SessionSpec {
            config: SearchConfig { iterations: 8, zoo_size: 1, seed: 3, ..SearchConfig::default() },
            objective: Objective::new(0.25, 1.0, 5.0),
            task: SessionTask::ModelNet40,
            measure_zoo: false,
            scenario: None,
        };
        let mut client = ServerClient::connect(server.addr()).expect("handshake");
        let id = client.open_session_retry(&spec, 10, Duration::from_millis(10)).expect("admitted");
        client.submit(id).expect("submitted");
        client.wait_result(id, Duration::from_millis(5), Duration::from_secs(60)).expect("done");
        // …and accepting it reaped the departed clients' handler threads:
        // each had nothing left to do but return once its client saw EOF.
        let handlers = server.shared.handlers.lock().expect("handlers lock").len();
        assert!(handlers < CYCLES, "{handlers} handles held for 1 live connection");
        assert_eq!(server.shared.conns.lock().expect("conns lock").len(), 1);
        server.shutdown().expect("clean shutdown");
    }
}
