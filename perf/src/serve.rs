//! `serve_tenants`: the tenant's view of `gcode-serve`. An in-process
//! daemon over two loopback pools, two clients, each running sessions
//! back to back: open, submit, wait for the winner, close.
//!
//! Most of a session is the analytic→sim ladder search in `gcode-core`
//! and `gcode-sim`; admission, chunked zoo measurement and polling in
//! `gcode-server` come on top. Engine data-path changes should not move
//! this workload.

use crate::harness::{timed, Ctx, Phase, Report};
use crate::result::{peak_rss_mb, Fingerprint};
use crate::stats::{median, tail, Summary};
use crate::trace::{write_trace, Trace};
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode_core::eval::{Evaluator, Metrics, Objective, SearchSession};
use gcode_core::search::{RandomSearch, ScoredArch, SearchConfig};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_engine::{
    lower_and_optimize, EdgeFleet, ExecutionPlan, FleetSpec, OptimizeOptions, SessionSpec,
    SessionTask,
};
use gcode_graph::datasets::{PointCloudDataset, Sample, TextGraphDataset};
use gcode_hardware::SystemConfig;
use gcode_server::{
    Admission, PollReply, SearchServer, ServerClient, ServerConfig, SERVE_BANK_SEED, SERVE_RUN_SEED,
};
use gcode_sim::{simulate, SimBackend, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_tenants";
const POOLS: usize = 2;
const MAX_SESSIONS: usize = 2;
/// Sessions per client at full scale.
const SESSIONS: usize = 600;
const ITERATIONS: usize = 2000;
const ZOO_SIZE: usize = 8;
const POLL_EVERY: Duration = Duration::from_millis(1);
const SESSION_TIMEOUT: Duration = Duration::from_secs(120);
/// Sessions per throughput block, once there are enough for nine blocks.
const BLOCK_SESSIONS: usize = 100;

fn spec(seed: u64, index: usize) -> SessionSpec {
    SessionSpec {
        config: SearchConfig {
            iterations: ITERATIONS,
            zoo_size: ZOO_SIZE,
            seed,
            ..SearchConfig::default()
        },
        objective: Objective::new(0.25, 1.0, 5.0),
        task: if index.is_multiple_of(2) { SessionTask::ModelNet40 } else { SessionTask::Mr },
        measure_zoo: true,
        scenario: None,
    }
}

/// Session `index` of client `client`. Both clients' first session shares
/// one seed (the identical-zoo check); every other seed is distinct.
fn session_seed(run_seed: u64, client: usize, index: usize) -> u64 {
    let base = run_seed.wrapping_mul(1_000_003);
    if index == 0 {
        base
    } else {
        base.wrapping_add((client * 1_000_000 + index) as u64)
    }
}

struct Env {
    server: SearchServer,
    clients: Vec<ServerClient>,
}

fn start_server() -> Result<SearchServer, String> {
    let config = ServerConfig::new(FleetSpec::loopback(POOLS)).with_max_sessions(MAX_SESSIONS);
    SearchServer::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))
}

/// Daemon start, both clients connected, and one warm-up session each —
/// the first measured zoo spawns the fleet's pools.
fn setup(ctx: &Ctx, clients: usize) -> Result<Env, String> {
    let server = start_server()?;
    let mut connected = Vec::new();
    for c in 0..clients {
        let mut client =
            ServerClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        timed_session(&mut client, &spec(ctx.seed ^ 0xBEEF ^ c as u64, c))?;
        connected.push(client);
    }
    Ok(Env { server, clients: connected })
}

fn teardown(env: Env) -> Result<(), String> {
    drop(env.clients);
    env.server.shutdown().map_err(|e| format!("server shutdown: {e}"))
}

fn fingerprint(ctx: &Ctx, clients: usize) -> String {
    let mut fp = Fingerprint::new();
    fp.text(NAME);
    for n in [clients, POOLS, MAX_SESSIONS, SESSIONS, ITERATIONS, ZOO_SIZE] {
        fp.number(n as u64);
    }
    for c in 0..clients {
        fp.number(session_seed(ctx.seed, c, 0));
        fp.number(session_seed(ctx.seed, c, 1));
    }
    fp.text(&ctx.budget.label());
    fp.number(ctx.seed);
    fp.hex()
}

/// Time to winner and the zoo of one session, or why it failed.
type SessionResult = Result<(f64, Vec<ScoredArch>), String>;

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// `open_session` start → `wait_result` returns, per session.
    time_to_winner_s: Vec<f64>,
    /// Completion times since the phase began.
    done_at_s: Vec<f64>,
    first_zoo: Option<Vec<ScoredArch>>,
    attempted: u64,
    failed: u64,
}

/// Closed loop: each client opens its next session when the last closed.
fn run_clients(
    clients: &mut [ServerClient],
    ctx: &Ctx,
    share: f64,
    session: impl Fn(usize, usize, &mut ServerClient, &SessionSpec) -> SessionResult + Sync,
) -> Vec<ClientLog> {
    let phases: Vec<Phase> = clients.iter().map(|_| ctx.budget.phase(SESSIONS, 5, share)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(phases)
            .enumerate()
            .map(|(c, (client, mut phase))| {
                let session = &session;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut index = 0usize;
                    while phase.next() {
                        let spec = spec(session_seed(ctx.seed, c, index), index);
                        log.attempted += 1;
                        match session(c, index, client, &spec) {
                            Ok((time_to_winner_s, zoo)) => {
                                log.time_to_winner_s.push(time_to_winner_s);
                                log.done_at_s.push(start.elapsed().as_secs_f64());
                                log.first_zoo.get_or_insert(zoo);
                            }
                            Err(_) => log.failed += 1,
                        }
                        index += 1;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// One session as the e2e metric defines it: `open_session` start to
/// `wait_result` returning, polling every millisecond.
fn timed_session(client: &mut ServerClient, spec: &SessionSpec) -> SessionResult {
    let start = Instant::now();
    let id =
        client.open_session_retry(spec, 10_000, POLL_EVERY).map_err(|e| format!("open: {e}"))?;
    client.submit(id).map_err(|e| format!("submit: {e}"))?;
    let outcome =
        client.wait_result(id, POLL_EVERY, SESSION_TIMEOUT).map_err(|e| format!("wait: {e}"))?;
    let time_to_winner_s = start.elapsed().as_secs_f64();
    client.close_session(id).map_err(|e| format!("close: {e}"))?;
    if !outcome.result.zoo.is_empty() && outcome.winner_predictions.is_empty() {
        return Err("the zoo came back unmeasured".to_string());
    }
    Ok((time_to_winner_s, outcome.result.zoo))
}

/// Sessions per second over equal blocks of the merged completion
/// timeline of all clients.
fn block_rates(logs: &[ClientLog]) -> Vec<f64> {
    let mut done: Vec<f64> = logs.iter().flat_map(|l| l.done_at_s.iter().copied()).collect();
    done.sort_by(f64::total_cmp);
    let block = (done.len() / 9).clamp(1, BLOCK_SESSIONS);
    let mut rates = Vec::new();
    let mut block_start = 0.0;
    for chunk in done.chunks_exact(block) {
        let block_end = chunk[block - 1];
        rates.push(block as f64 / (block_end - block_start));
        block_start = block_end;
    }
    rates
}

fn tally(logs: &[ClientLog], report: &mut Report) -> Vec<f64> {
    report.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    report.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    let same_zoo =
        logs.windows(2).all(|w| w[0].first_zoo.is_some() && w[0].first_zoo == w[1].first_zoo);
    report.check(
        "same_seed_sessions_return_identical_zoos",
        same_zoo,
        format!("{} clients compared", logs.len()),
    );
    logs.iter().flat_map(|l| l.time_to_winner_s.iter().copied()).collect()
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let clients = ctx.driver_threads.clamp(1, 2);
    let mut report = Report::default();
    report.fingerprint = fingerprint(ctx, clients);
    let (mut env, setups) = ctx.budget.repeat_setup(|| setup(ctx, clients), teardown)?;
    let (logs, timed_s) = timed(|| {
        run_clients(&mut env.clients, ctx, 1.0, |_, _, client, spec| timed_session(client, spec))
    });
    report.timed_s = timed_s;
    let time_to_winner_s = tally(&logs, &mut report);
    report.put("op_p50_s", Summary::of_samples(&time_to_winner_s));
    report.put("ops_per_s", Summary::of_blocks(&block_rates(&logs)));
    report.put("setup_s", Summary::of_blocks(&setups));
    teardown(env)?;
    Ok(report)
}

// ---- the traced run --------------------------------------------------

/// Counts the candidates a ladder tier prices, delegating verbatim.
struct CountedTier<'a> {
    inner: &'a dyn EvalBackend,
    priced: AtomicU64,
}

impl<'a> CountedTier<'a> {
    fn new(inner: &'a dyn EvalBackend) -> Self {
        Self { inner, priced: AtomicU64::new(0) }
    }
}

impl Evaluator for CountedTier<'_> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        self.priced.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(arch)
    }

    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        self.priced.fetch_add(archs.len() as u64, Ordering::Relaxed);
        self.inner.evaluate_batch(archs)
    }

    fn evaluate_batch_workers(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        self.priced.fetch_add(archs.len() as u64, Ordering::Relaxed);
        self.inner.evaluate_batch_workers(archs, workers)
    }
}

impl EvalBackend for CountedTier<'_> {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn cost_hint(&self) -> f64 {
        self.inner.cost_hint()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

// The daemon keeps its per-task fixtures private; these mirror
// `gcode_server::session`. The traced run checks every standalone zoo
// against the served one, so a drift here fails a check instead of
// skewing `server.overhead_s` silently.
fn task_profile(task: SessionTask) -> WorkloadProfile {
    match task {
        SessionTask::ModelNet40 => WorkloadProfile::modelnet40_mini(24, 4),
        SessionTask::Mr => WorkloadProfile {
            num_nodes: 12,
            in_dim: 24,
            provides_graph: true,
            provided_degree: 4,
            num_classes: 2,
        },
    }
}

fn task_stream(task: SessionTask) -> Vec<Sample> {
    match task {
        SessionTask::ModelNet40 => PointCloudDataset::generate(4, 24, 4, 47).samples().to_vec(),
        SessionTask::Mr => TextGraphDataset::generate(4, 12, 24, 47).samples().to_vec(),
    }
}

fn task_surrogate(task: SessionTask) -> SurrogateAccuracy {
    SurrogateAccuracy::new(match task {
        SessionTask::ModelNet40 => SurrogateTask::ModelNet40,
        SessionTask::Mr => SurrogateTask::Mr,
    })
}

/// Ladder counts of one standalone search.
struct SearchCounts {
    trials: u64,
    analytic: u64,
    simulated: u64,
}

/// The session's search stage without a server: `SearchSession` over a
/// two-rung `CascadeBackend::ladder`.
fn standalone_search(spec: &SessionSpec) -> (Vec<ScoredArch>, SearchCounts) {
    let profile = task_profile(spec.task);
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);
    let surrogate = task_surrogate(spec.task);
    let cheap = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let mid = SimBackend {
        profile,
        sys,
        sim: SimConfig::single_frame(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let (cheap, mid) = (CountedTier::new(&cheap), CountedTier::new(&mid));
    let ladder =
        CascadeBackend::ladder(vec![&cheap, &mid], spec.objective).with_keep_fracs(&[0.25]);
    let mut session = SearchSession::new(&space, &ladder).with_objective(spec.objective);
    let result = session.run(&RandomSearch::new(spec.config));
    let counts = SearchCounts {
        trials: result.history.len() as u64,
        analytic: cheap.priced.load(Ordering::Relaxed),
        simulated: mid.priced.load(Ordering::Relaxed),
    };
    (result.zoo, counts)
}

fn zoo_plans(zoo: &[ScoredArch], task: SessionTask) -> Vec<ExecutionPlan> {
    let opts = OptimizeOptions { profile: Some(task_profile(task)), ..OptimizeOptions::default() };
    zoo.iter().map(|z| lower_and_optimize(&z.arch, &opts).0).collect()
}

/// One session with a span around each client call, counting polls and
/// `Busy` refusals in the harness.
fn staged_session(
    trace: &mut Trace,
    counts: &mut (u64, u64),
    client: &mut ServerClient,
    spec: &SessionSpec,
) -> SessionResult {
    let start = Instant::now();
    trace.span("session", |t| {
        let id = t.call("server.open", || loop {
            match client.open_session(spec) {
                Ok(Admission::Opened(id)) => return Ok(id),
                Ok(Admission::Busy { .. }) => {
                    counts.1 += 1;
                    std::thread::sleep(POLL_EVERY);
                }
                Err(e) => return Err(format!("open: {e}")),
            }
        })?;
        t.call("server.submit", || client.submit(id)).map_err(|e| format!("submit: {e}"))?;
        let outcome = t.call("server.wait", || loop {
            counts.0 += 1;
            match client.poll(id) {
                Ok(PollReply::Done(outcome)) => return Ok(outcome),
                Ok(PollReply::Progress(_)) if start.elapsed() < SESSION_TIMEOUT => {
                    std::thread::sleep(POLL_EVERY)
                }
                Ok(PollReply::Progress(_)) => return Err("session timed out".to_string()),
                Err(e) => return Err(format!("poll: {e}")),
            }
        })?;
        let time_to_winner_s = start.elapsed().as_secs_f64();
        t.call("server.close", || client.close_session(id)).map_err(|e| format!("close: {e}"))?;
        Ok((time_to_winner_s, outcome.result.zoo))
    })
}

fn connect_probe(addr: SocketAddr, report: &mut Report) {
    let mut connects = Vec::new();
    for _ in 0..10 {
        let (client, connect_s) = timed(|| ServerClient::connect(addr));
        if client.is_ok() {
            connects.push(connect_s);
        }
    }
    report.put("server.connect_s", Summary::of_samples(&connects));
}

/// Per-candidate cost of the search's building blocks on the ModelNet40
/// session space.
fn core_probes(seed: u64, report: &mut Report) {
    let profile = task_profile(SessionTask::ModelNet40);
    let sys = SystemConfig::tx2_to_i7(40.0);
    let space = DesignSpace::paper(profile);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let surrogate = task_surrogate(SessionTask::ModelNet40);
    let analytic = AnalyticBackend {
        profile,
        sys: sys.clone(),
        accuracy_fn: move |a: &Architecture| surrogate.overall_accuracy(a),
    };
    let (mut sample_s, mut analytic_s, mut simulate_s) = (Vec::new(), Vec::new(), Vec::new());
    let sim = SimConfig::single_frame();
    for _ in 0..2000 {
        let ((arch, _), wall_s) = timed(|| space.sample_valid(&mut rng, 100_000));
        sample_s.push(wall_s);
        analytic_s.push(timed(|| std::hint::black_box(analytic.evaluate(&arch))).1);
        simulate_s.push(timed(|| std::hint::black_box(simulate(&arch, &profile, &sys, &sim))).1);
    }
    report.put("core.sample_valid_s", Summary::of_samples(&sample_s));
    report.put("core.analytic_eval_s", Summary::of_samples(&analytic_s));
    report.put("sim.simulate_s", Summary::of_samples(&simulate_s));
}

/// The traced run: the same two-client loop with a span around every
/// client call, then the sessions' two stages standalone — the ladder
/// search and the zoo measurement on a private one-pool fleet.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let clients = ctx.driver_threads.clamp(1, 2);
    let mut report = Report::default();
    report.fingerprint = fingerprint(ctx, clients);
    let mut env = setup(ctx, clients)?;
    let run_start = Instant::now();
    connect_probe(env.server.addr(), &mut report);

    // Each client thread keeps its own trace; they share one clock.
    let epoch = Instant::now();
    let traces: Vec<std::sync::Mutex<(Trace, (u64, u64))>> =
        (0..clients).map(|_| std::sync::Mutex::new((Trace::starting_at(epoch), (0, 0)))).collect();
    let logs = run_clients(&mut env.clients, ctx, 0.45, |c, index, client, spec| {
        let mut guard = traces[c].lock().expect("one thread per trace");
        let (trace, counts) = &mut *guard;
        trace.set_op(((c as u64) << 32) | index as u64);
        staged_session(trace, counts, client, spec)
    });
    let time_to_winner_s = tally(&logs, &mut report);
    let mut trace = Trace::starting_at(epoch);
    let (mut polls, mut refusals) = (0, 0);
    for shard in traces {
        let (shard, counts) = shard.into_inner().expect("client threads have ended");
        trace.absorb(shard);
        polls += counts.0;
        refusals += counts.1;
    }
    let sessions = time_to_winner_s.len().max(1) as f64;
    let winner_p50_s = median(&time_to_winner_s);
    report.put_exact("server.time_to_winner_p95_s", tail(&time_to_winner_s).0);
    report.put_exact("server.polls_per_session", polls as f64 / sessions);
    report.put_exact("server.busy_refusals", refusals as f64);
    for (metric, span) in [
        ("server.open_s", "server.open"),
        ("server.submit_s", "server.submit"),
        ("server.close_s", "server.close"),
    ] {
        report.put(metric, Summary::of_samples(&trace.durations(span)));
    }

    // Standalone stages on client 0's sessions, in order.
    let mut fleets: Vec<(SessionTask, EdgeFleet, Vec<Sample>)> =
        [SessionTask::ModelNet40, SessionTask::Mr]
            .map(|task| {
                let fleet =
                    EdgeFleet::new(FleetSpec::loopback(1), 4, SERVE_BANK_SEED, SERVE_RUN_SEED);
                (task, fleet, task_stream(task))
            })
            .into();
    let (mut search_s, mut measure_s, mut evals_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trials, mut analytic, mut simulated) = (0u64, 0u64, 0u64);
    let mut zoo_drift = 0;
    let mut phase = ctx.budget.phase(SESSIONS / 4, 4, 0.35);
    let mut index = 0usize;
    while phase.next() {
        let spec = spec(session_seed(ctx.seed, 0, index), index);
        trace.set_op((1 << 40) | index as u64);
        let ((zoo, counts), wall_s) =
            timed(|| trace.call("core.search", || standalone_search(&spec)));
        search_s.push(wall_s);
        evals_per_s.push(counts.trials as f64 / wall_s);
        trials += counts.trials;
        analytic += counts.analytic;
        simulated += counts.simulated;
        if index == 0 && logs[0].first_zoo.as_ref() != Some(&zoo) {
            zoo_drift += 1;
        }
        let (_, fleet, stream) =
            fleets.iter_mut().find(|(task, ..)| *task == spec.task).expect("both tasks");
        let (outcomes, wall_s) = timed(|| {
            trace.span("fleet.zoo_measure", |t| {
                let plans = t.call("optimizer.lower_zoo", || zoo_plans(&zoo, spec.task));
                let streams: Vec<&[Sample]> = vec![stream.as_slice(); plans.len()];
                t.call("fleet.batch", || fleet.run_batch_streams(&plans, &streams))
            })
        });
        report.attempted += outcomes.len() as u64;
        report.failed += outcomes.iter().filter(|o| o.is_err()).count() as u64;
        // The first measurement of each task spawns its pool.
        if index >= 2 {
            measure_s.push(wall_s);
        }
        index += 1;
    }
    for (_, fleet, _) in fleets {
        fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
    }
    report.check(
        "served_zoo_equals_standalone_search",
        zoo_drift == 0,
        "first session of client 0".to_string(),
    );
    report.put("core.search_evals_per_s", Summary::of_samples(&evals_per_s));
    report.put_exact("core.memo_hit_share", 1.0 - analytic as f64 / trials.max(1) as f64);
    report.put_exact("core.escalation_share", simulated as f64 / analytic.max(1) as f64);
    report.put("fleet.batch_s", Summary::of_samples(&measure_s));
    let standalone_s = median(&search_s) + median(&measure_s);
    report.put_exact("server.overhead_s", winner_p50_s - standalone_s);

    core_probes(ctx.seed, &mut report);
    report.timed_s = run_start.elapsed().as_secs_f64();
    report.put_exact("runtime.peak_rss_mb", peak_rss_mb());
    teardown(env)?;

    let shares = [
        ("core+sim", median(&search_s)),
        ("fleet+optimizer", median(&measure_s)),
        ("server", winner_p50_s - standalone_s),
    ]
    .map(|(layer, s)| (layer.to_string(), s / winner_p50_s));
    write_trace(ctx, NAME, winner_p50_s, &shares, &trace)?;
    Ok(report)
}
