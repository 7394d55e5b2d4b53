//! The fleet executor: one thread owning the shared warm [`EdgeFleet`],
//! fed by a fair round-robin `Scheduler`.
//!
//! Every measurement in the server flows through here — the fleet is the
//! one piece of state tenants genuinely share, and funneling it through a
//! single owning thread keeps the warm pools alive across sessions (the
//! Measured tier never re-spawns per request) while giving the rest of
//! the server a plain message-passing interface with no locking around
//! the fleet itself.
//!
//! Fairness: a session's zoo measurement arrives as one [`MeasureJob`]
//! but is *executed* in `CHUNK_PLANS`-sized slices, with the scheduler
//! rotating between sessions after every slice. Each executor turn pulls
//! up to one slice per fleet pool — from different sessions whenever the
//! rotation has them — and feeds them into the fleet's shared morsel
//! queue as one combined batch ([`EdgeFleet::run_batch_streams`], each
//! candidate carrying its own session's stream). Pools pull candidates
//! as they free up, so a giant tenant's slice no longer gates a small
//! tenant's: the small zoo rides the same morsel queue and finishes as
//! soon as any pool frees up, at most one quantum behind. Slicing and
//! interleaving are invisible to determinism: the fleet's per-deployment
//! seeding makes predictions independent of how a batch is cut or which
//! pool serves it (the same guarantee that makes them independent of
//! pool count).

use crate::session::serve_fleet;
use gcode_core::eval::FleetStats;
use gcode_engine::{EdgeFleet, ExecutionPlan, FleetOutcome, FleetSpec};
use gcode_graph::datasets::Sample;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Plans measured per scheduler turn before the executor rotates to the
/// next session — the fairness quantum.
const CHUNK_PLANS: usize = 2;

/// Round-robin work interleaver: sessions enqueue their chunk lists, and
/// [`next_chunk`](Scheduler::next_chunk) hands out one chunk per turn, rotating
/// through the enqueued sessions so no tenant monopolizes the resource.
///
/// Generic over the chunk payload so the unit tests can drive it with
/// plain integers; the executor instantiates it with plan-range chunks.
struct Scheduler<T> {
    /// Sessions with work left, in service order (front is next).
    rotation: VecDeque<u64>,
    /// Per-session queue of chunks still to run.
    chunks: HashMap<u64, VecDeque<T>>,
}

impl<T> Scheduler<T> {
    /// An empty scheduler.
    fn new() -> Self {
        Self { rotation: VecDeque::new(), chunks: HashMap::new() }
    }

    /// Adds a session's chunk list at the back of the rotation. A session
    /// already in rotation keeps its position and appends the new chunks.
    fn enqueue(&mut self, session: u64, chunks: impl IntoIterator<Item = T>) {
        let queue = self.chunks.entry(session).or_default();
        let was_empty = queue.is_empty();
        queue.extend(chunks);
        if was_empty && !queue.is_empty() {
            self.rotation.push_back(session);
        }
    }

    /// The next `(session, chunk)` pair in round-robin order: the front
    /// session's front chunk; the session re-enters at the back of the
    /// rotation if it still has chunks left.
    fn next_chunk(&mut self) -> Option<(u64, T)> {
        let session = self.rotation.pop_front()?;
        let queue = self.chunks.get_mut(&session).expect("rotated session has a queue");
        let chunk = queue.pop_front().expect("rotated session has a chunk");
        if queue.is_empty() {
            self.chunks.remove(&session);
        } else {
            self.rotation.push_back(session);
        }
        Some((session, chunk))
    }

    /// Whether no session has work queued.
    fn is_empty(&self) -> bool {
        self.rotation.is_empty()
    }
}

/// One session's measurement request: deploy `plans` (winner first)
/// against `stream` and send the input-ordered outcomes back on `reply`.
pub struct MeasureJob {
    /// Session the job belongs to (scheduler key).
    pub session: u64,
    /// Zoo plans to deploy, winner first.
    pub plans: Vec<ExecutionPlan>,
    /// Measurement stream shared by every chunk of the job.
    pub stream: Arc<Vec<Sample>>,
    /// Where the completed, input-ordered outcomes go.
    pub reply: Sender<Vec<FleetOutcome>>,
}

/// Commands accepted by the executor thread.
pub enum FleetCommand {
    /// Measure a session's zoo (chunk-interleaved with other tenants).
    Measure(MeasureJob),
    /// Snapshot the fleet's per-pool counters.
    Stats(Sender<FleetStats>),
    /// Stop: drop pending jobs (their waiters see a disconnected reply
    /// channel) and shut the fleet down.
    Shutdown,
}

/// A measure job in flight: its chunks are in the scheduler; completed
/// outcomes accumulate here until every slot is filled.
struct PendingJob {
    plans: Vec<ExecutionPlan>,
    stream: Arc<Vec<Sample>>,
    reply: Sender<Vec<FleetOutcome>>,
    outcomes: Vec<Option<FleetOutcome>>,
    remaining: usize,
}

/// Handle to the executor thread owning the shared [`EdgeFleet`].
pub struct FleetExecutor {
    tx: Sender<FleetCommand>,
    handle: JoinHandle<()>,
}

impl FleetExecutor {
    /// Spawns the executor thread over a fleet built from `spec` with the
    /// serve-side bank/run seeds.
    pub fn spawn(spec: FleetSpec) -> std::io::Result<Self> {
        let (tx, rx) = std::sync::mpsc::channel::<FleetCommand>();
        let handle = std::thread::Builder::new()
            .name("gcode-serve-fleet".to_string())
            .spawn(move || run_executor(spec, &rx))?;
        Ok(Self { tx, handle })
    }

    /// A sender for submitting commands (cloneable per connection/worker).
    pub fn sender(&self) -> Sender<FleetCommand> {
        self.tx.clone()
    }

    /// Sends `Shutdown` and joins the thread (idempotent against an
    /// executor that already exited).
    pub fn shutdown(self) {
        let _ = self.tx.send(FleetCommand::Shutdown);
        let _ = self.handle.join();
    }
}

/// The executor loop: block for a command when idle, drain whatever is
/// queued without blocking when there is scheduled work, then run one
/// combined scheduler turn — up to one [`CHUNK_PLANS`]-slice per fleet
/// pool, round-robin across sessions — through the fleet's shared
/// morsel queue.
fn run_executor(spec: FleetSpec, rx: &Receiver<FleetCommand>) {
    let mut fleet = serve_fleet(spec);
    let mut scheduler: Scheduler<std::ops::Range<usize>> = Scheduler::new();
    let mut jobs: HashMap<u64, PendingJob> = HashMap::new();
    'serve: loop {
        // Idle: block until something arrives. Busy: only drain.
        if scheduler.is_empty() {
            match rx.recv() {
                Ok(cmd) => {
                    if handle_command(cmd, &mut scheduler, &mut jobs, &fleet) {
                        break 'serve;
                    }
                }
                Err(_) => break 'serve, // server dropped its senders
            }
        }
        loop {
            match rx.try_recv() {
                Ok(cmd) => {
                    if handle_command(cmd, &mut scheduler, &mut jobs, &fleet) {
                        break 'serve;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'serve,
            }
        }
        // One turn = up to one fairness quantum per pool, drawn
        // round-robin so the quanta come from as many sessions as the
        // rotation holds — the fleet never idles a pool while another
        // tenant has work, yet no tenant gets more than its share of
        // the queue per turn.
        let mut turn: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
        while turn.len() < fleet.pools().max(1) {
            match scheduler.next_chunk() {
                Some(chunk) => turn.push(chunk),
                None => break,
            }
        }
        if turn.is_empty() {
            continue;
        }
        let mut batch_plans: Vec<ExecutionPlan> = Vec::new();
        let mut batch_streams: Vec<Arc<Vec<Sample>>> = Vec::new();
        let mut batch_slots: Vec<(u64, usize)> = Vec::new();
        for (session, range) in &turn {
            let job = jobs.get(session).expect("scheduled job exists");
            for slot in range.clone() {
                batch_plans.push(job.plans[slot].clone());
                batch_streams.push(Arc::clone(&job.stream));
                batch_slots.push((*session, slot));
            }
        }
        let stream_refs: Vec<&[Sample]> = batch_streams.iter().map(|s| s.as_slice()).collect();
        let outcomes = fleet.run_batch_streams(&batch_plans, &stream_refs);
        for ((session, slot), outcome) in batch_slots.into_iter().zip(outcomes) {
            let job = jobs.get_mut(&session).expect("scheduled job exists");
            job.outcomes[slot] = Some(outcome);
            job.remaining -= 1;
            if job.remaining == 0 {
                let job = jobs.remove(&session).expect("finished job exists");
                let full: Vec<FleetOutcome> =
                    job.outcomes.into_iter().map(|o| o.expect("all chunks ran")).collect();
                // A waiter that gave up (disconnected) is not an
                // executor problem; drop the result on the floor.
                let _ = job.reply.send(full);
            }
        }
    }
    // Pending jobs die with the executor: dropping their reply senders
    // wakes every waiting worker with a disconnect error.
    drop(jobs);
    let _ = fleet.shutdown();
}

/// Applies one command; returns `true` on `Shutdown`.
fn handle_command(
    cmd: FleetCommand,
    scheduler: &mut Scheduler<std::ops::Range<usize>>,
    jobs: &mut HashMap<u64, PendingJob>,
    fleet: &EdgeFleet,
) -> bool {
    match cmd {
        FleetCommand::Measure(job) => {
            let total = job.plans.len();
            if total == 0 {
                let _ = job.reply.send(Vec::new());
                return false;
            }
            let chunks: Vec<std::ops::Range<usize>> = (0..total)
                .step_by(CHUNK_PLANS)
                .map(|start| start..(start + CHUNK_PLANS).min(total))
                .collect();
            scheduler.enqueue(job.session, chunks);
            jobs.insert(
                job.session,
                PendingJob {
                    plans: job.plans,
                    stream: job.stream,
                    reply: job.reply,
                    outcomes: (0..total).map(|_| None).collect(),
                    remaining: total,
                },
            );
            false
        }
        FleetCommand::Stats(reply) => {
            let _ = reply.send(fleet.stats());
            false
        }
        FleetCommand::Shutdown => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_round_robins_between_sessions() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enqueue(1, [10, 11, 12]);
        s.enqueue(2, [20]);
        s.enqueue(3, [30, 31]);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| s.next_chunk()).collect();
        assert_eq!(order, vec![(1, 10), (2, 20), (3, 30), (1, 11), (3, 31), (1, 12)]);
        assert!(s.is_empty());
    }

    #[test]
    fn scheduler_appends_to_an_in_rotation_session_without_requeueing_it() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enqueue(1, [10]);
        s.enqueue(1, [11]);
        assert_eq!(s.next_chunk(), Some((1, 10)));
        assert_eq!(s.next_chunk(), Some((1, 11)));
        assert_eq!(s.next_chunk(), None, "session rotated exactly once per live queue");
    }

    #[test]
    fn scheduler_handles_empty_enqueues() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enqueue(7, []);
        assert!(s.is_empty());
        assert_eq!(s.next_chunk(), None);
    }

    #[test]
    fn executor_measures_and_reports_stats_then_shuts_down() {
        use crate::session::run_search;
        use crate::session::{stream_of, zoo_plans};
        use gcode_core::eval::Objective;
        use gcode_core::search::SearchConfig;
        use gcode_engine::{SessionSpec, SessionTask};
        use std::sync::atomic::AtomicU64;

        let spec = SessionSpec {
            config: SearchConfig {
                iterations: 12,
                zoo_size: 2,
                seed: 3,
                ..SearchConfig::default()
            },
            objective: Objective::new(0.25, 1.0, 5.0),
            task: SessionTask::ModelNet40,
            measure_zoo: true,
            scenario: None,
        };
        let (_, result) = run_search(&spec, &AtomicU64::new(0));
        let plans = zoo_plans(&result);
        assert!(!plans.is_empty());

        let executor = FleetExecutor::spawn(FleetSpec::loopback(1)).expect("executor spawns");
        let tx = executor.sender();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        tx.send(FleetCommand::Measure(MeasureJob {
            session: 1,
            plans: plans.clone(),
            stream: Arc::new(stream_of(SessionTask::ModelNet40)),
            reply: reply_tx,
        }))
        .expect("executor accepts jobs");
        let outcomes = reply_rx.recv().expect("job completes");
        assert_eq!(outcomes.len(), plans.len());
        assert!(outcomes.iter().all(Result::is_ok));

        let (stats_tx, stats_rx) = std::sync::mpsc::channel();
        tx.send(FleetCommand::Stats(stats_tx)).expect("executor accepts stats");
        let stats = stats_rx.recv().expect("stats roundtrip");
        assert_eq!(stats.deployments(), plans.len() as u64);
        executor.shutdown();
    }

    #[test]
    fn giant_tenant_zoo_does_not_gate_a_small_tenants_reply() {
        use crate::session::run_search;
        use crate::session::{stream_of, zoo_plans};
        use gcode_core::eval::Objective;
        use gcode_core::search::SearchConfig;
        use gcode_engine::{SessionSpec, SessionTask};
        use std::sync::atomic::AtomicU64;

        let spec = SessionSpec {
            config: SearchConfig {
                iterations: 12,
                zoo_size: 2,
                seed: 3,
                ..SearchConfig::default()
            },
            objective: Objective::new(0.25, 1.0, 5.0),
            task: SessionTask::ModelNet40,
            measure_zoo: true,
            scenario: None,
        };
        let (_, result) = run_search(&spec, &AtomicU64::new(0));
        let plans = zoo_plans(&result);
        assert!(!plans.is_empty());
        let giant: Vec<ExecutionPlan> =
            plans.iter().cycle().take(8 * CHUNK_PLANS).cloned().collect();
        let small: Vec<ExecutionPlan> = plans.iter().take(2).cloned().collect();
        let stream = Arc::new(stream_of(SessionTask::ModelNet40));

        let executor = FleetExecutor::spawn(FleetSpec::loopback(2)).expect("executor spawns");
        let tx = executor.sender();
        // Both tenants reply into ONE channel, so recv order is completion
        // order. The giant zoo is submitted first; round-robin slicing plus
        // the shared morsel queue must still answer the small tenant while
        // the giant one is mid-flight.
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        tx.send(FleetCommand::Measure(MeasureJob {
            session: 1,
            plans: giant.clone(),
            stream: Arc::clone(&stream),
            reply: reply_tx.clone(),
        }))
        .expect("executor accepts the giant job");
        tx.send(FleetCommand::Measure(MeasureJob {
            session: 2,
            plans: small.clone(),
            stream,
            reply: reply_tx,
        }))
        .expect("executor accepts the small job");
        let first = reply_rx.recv().expect("first job completes");
        assert_eq!(
            first.len(),
            small.len(),
            "small tenant's time-to-winner is not gated by the giant zoo"
        );
        assert!(first.iter().all(Result::is_ok));
        let second = reply_rx.recv().expect("giant job completes");
        assert_eq!(second.len(), giant.len());
        assert!(second.iter().all(Result::is_ok));
        executor.shutdown();
    }

    #[test]
    fn executor_shutdown_disconnects_waiting_replies() {
        let executor = FleetExecutor::spawn(FleetSpec::loopback(1)).expect("executor spawns");
        let tx = executor.sender();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Shutdown races ahead of the (never-scheduled-to-finish) job’s
        // enqueue on the same channel, so order the sends: job first.
        tx.send(FleetCommand::Measure(MeasureJob {
            session: 9,
            plans: Vec::new(), // empty job: answered immediately
            stream: Arc::new(Vec::new()),
            reply: reply_tx,
        }))
        .expect("send job");
        assert!(reply_rx.recv().expect("empty job answered").is_empty());
        executor.shutdown();
    }
}
