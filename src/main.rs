//! `gcode` command-line interface: run searches, inspect designs and export
//! architecture zoos without writing Rust.
//!
//! ```text
//! gcode search   --device tx2 --edge i7 --mbps 40 --task modelnet40 \
//!                [--tiers analytic,predictor,sim,engine]
//!                [--frames N] [--warmup N]
//!                [--fleet loopback:N|host:port,host:port,…]
//!                [--workers N] [--keep-frac F[,F…]]
//!                [--iterations N] [--lambda F] [--latency-ms F] [--energy-j F]
//!                [--seed N] [--cache-file FILE] [--zoo-out FILE] [--report-out FILE]
//! gcode serve    --listen ADDR [--fleet SPEC] [--max-sessions N] [--cache-file FILE]
//! gcode submit   --server ADDR [--task modelnet40|mr] [--iterations N] …
//! gcode systems                       # list built-in device/edge pairs
//! gcode describe --zoo FILE [--index N]
//! gcode dispatch --zoo FILE [--latency-ms F] [--energy-j F]
//! gcode replay   --trace FILE [--zoo FILE] [--pools N] [--report-out FILE]
//! ```
//!
//! `--tiers` names what prices candidates, cheapest first: one name
//! (default `sim`) is a single backend; two or more build a fidelity
//! ladder that escalates the top `--keep-frac` of each rung, at least one
//! candidate per step, to the next. The `engine` tier prices each
//! escalated candidate on the live pipelined runtime: one warm loopback
//! TCP device/edge pair serves the whole search, each candidate's plan
//! hot-swapped onto it (`SwapPlan` control
//! frames). `--fleet` widens that to N warm pairs (spawned loopback pools
//! and/or remote pre-deployed edges) that pull each escalated batch's
//! candidates off a shared morsel queue, with results merged at input
//! positions — predictions stay bit-identical for any pool count. The
//! engine tier streams frames of the profile the tiers below it price.
//! `--frames`, `--warmup` and `--fleet` without the `engine` tier, and
//! `--keep-frac` without a ladder, are refused by name.
//!
//! `gcode search` parses its flags into one `SearchSpec` and runs it
//! with `gcode_server::run_search` — the runner every daemon session
//! calls too, on the daemon's preset — and keeps only the printing.
//!
//! `gcode serve` keeps that fleet resident: a daemon that multiplexes
//! concurrent search sessions over one warm fleet, with admission
//! control, and the fleet's first come, first served pool checkout
//! interleaving the sessions' measurements; `--max-sessions` above 64 is
//! refused by value before any worker starts. `gcode submit`
//! is the matching client — open a session, follow its progress, print
//! the winner.
//!
//! `gcode replay` replays a serialized scenario trace (arrival bursts,
//! uplink degradations, runtime-constraint flips at absolute timestamps)
//! against a zoo on an [`engine::EdgeFleet`](gcode::engine::EdgeFleet)
//! of `--pools N` warm deployed pairs (default one) and prints one
//! measured report per segment. The same trace rides `gcode submit
//! --trace` to be replayed server-side against the freshly searched zoo.
//!
//! `--cache-file` makes evaluation results outlive the process: an
//! append-only log of `candidate × fidelity-tag × objective → metrics`
//! records, plus the Measured tier's one raw-run record per deployed
//! plan (predictions and per-frame stats, priced when read). A repeated
//! search (the same spec: every flag but `--workers`) replays every
//! Measured-tier price from the file — zero new deployments,
//! bit-identical winner: the metrics records are tagged with the spec's
//! canonical JSON.
//! Under `gcode serve` the same flag caches the same raw-run record, so
//! a restarted daemon answers repeat sessions without touching the
//! fleet.

use gcode::core::arch::Architecture;
use gcode::core::eval::backend::Fidelity;
use gcode::core::eval::scenario::ScenarioTrace;
use gcode::core::eval::Objective;
use gcode::core::search::{SearchConfig, SearchResult};
use gcode::core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode::engine::{FleetSpec, SearchSpec, SessionSpec, SessionState, SessionTask};
use gcode::graph::datasets::PointCloudDataset;
use gcode::hardware::{Link, Processor, SystemConfig};
use gcode::server::{run_search, PollReply, SearchServer, ServerClient, ServerConfig};
use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = parse_opts(command, rest).and_then(|opts| match command.as_str() {
        "search" => cmd_search(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "systems" => cmd_systems(),
        "describe" => cmd_describe(&opts),
        "dispatch" => cmd_dispatch(&opts),
        "replay" => cmd_replay(&opts),
        other => unreachable!("`{other}` has a flag table but no handler"),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  gcode search   --device <tx2|pi> --edge <i7|1060> [--mbps F] [--task <modelnet40|mr>]
                 [--tiers <analytic,predictor,sim,engine>]
                 [--frames N] [--warmup N]
                 [--fleet <loopback:N|host:port,...>]
                 [--workers N] [--keep-frac F[,F...]]
                 [--iterations N] [--lambda F] [--latency-ms F] [--energy-j F]
                 [--seed N] [--cache-file FILE] [--zoo-out FILE] [--report-out FILE]
  gcode serve    --listen ADDR [--fleet <loopback:N|host:port,...>]
                 [--max-sessions N] [--queue N] [--sessions-limit N]
                 [--cache-file FILE]
  gcode submit   --server ADDR [--task <modelnet40|mr>] [--iterations N]
                 [--zoo-size N] [--seed N] [--lambda F] [--latency-ms F]
                 [--energy-j F] [--measure <true|false>] [--timeout-s N]
                 [--shutdown <true|false>] [--trace FILE] [--zoo-out FILE]
  gcode replay   --trace FILE [--zoo FILE] [--pools N] [--seed N] [--report-out FILE]
  gcode systems
  gcode describe --zoo FILE [--index N]
  gcode dispatch --zoo FILE [--latency-ms F] [--energy-j F]";

/// The flags each subcommand accepts — the names [`USAGE`] prints for it
/// (a unit test holds the two together). Anything else is refused before
/// the command runs, so a misspelt or retired flag is never silently
/// ignored.
#[rustfmt::skip] // one row per `USAGE` row
const SEARCH_FLAGS: &[&str] = &[
    "device", "edge", "mbps", "task",
    "tiers",
    "frames", "warmup",
    "fleet",
    "workers", "keep-frac",
    "iterations", "lambda", "latency-ms", "energy-j",
    "seed", "cache-file", "zoo-out", "report-out",
];
const SERVE_FLAGS: &[&str] =
    &["listen", "fleet", "max-sessions", "queue", "sessions-limit", "cache-file"];
#[rustfmt::skip] // one row per `USAGE` row
const SUBMIT_FLAGS: &[&str] = &[
    "server", "task", "iterations",
    "zoo-size", "seed", "lambda", "latency-ms",
    "energy-j", "measure", "timeout-s",
    "shutdown", "trace", "zoo-out",
];
const REPLAY_FLAGS: &[&str] = &["trace", "zoo", "pools", "seed", "report-out"];
const SYSTEMS_FLAGS: &[&str] = &[];
const DESCRIBE_FLAGS: &[&str] = &["zoo", "index"];
const DISPATCH_FLAGS: &[&str] = &["zoo", "latency-ms", "energy-j"];

fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "search" => SEARCH_FLAGS,
        "serve" => SERVE_FLAGS,
        "submit" => SUBMIT_FLAGS,
        "replay" => REPLAY_FLAGS,
        "systems" => SYSTEMS_FLAGS,
        "describe" => DESCRIBE_FLAGS,
        "dispatch" => DISPATCH_FLAGS,
        _ => return None,
    })
}

fn parse_opts(command: &str, rest: &[String]) -> Result<HashMap<String, String>, String> {
    let accepted = accepted_flags(command).ok_or_else(|| format!("unknown command `{command}`"))?;
    let mut opts = HashMap::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{key}`"));
        };
        if !accepted.contains(&name) {
            return Err(format!("unknown flag --{name} for {command}"));
        }
        let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn device(name: &str) -> Result<Processor, String> {
    match name {
        "tx2" => Ok(Processor::jetson_tx2()),
        "pi" => Ok(Processor::raspberry_pi_4b()),
        other => Err(format!("unknown device `{other}` (tx2|pi)")),
    }
}

fn edge(name: &str) -> Result<Processor, String> {
    match name {
        "i7" => Ok(Processor::intel_i7_7700()),
        "1060" => Ok(Processor::nvidia_gtx_1060()),
        other => Err(format!("unknown edge `{other}` (i7|1060)")),
    }
}

fn get_f64(opts: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    opts.get(key)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{key}: bad number `{v}`")))
}

fn get_usize(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    opts.get(key)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{key}: bad number `{v}`")))
}

/// The most sessions `gcode serve` runs at once. The daemon starts one
/// worker thread per session before it listens, so the count is refused
/// above this cap (the fleet's own pool cap) rather than spawned.
const MAX_SERVE_SESSIONS: usize = 64;

/// Parses `--max-sessions` (default 4; 0 means 1), refusing a count above
/// [`MAX_SERVE_SESSIONS`] by value.
fn parse_max_sessions(opts: &HashMap<String, String>) -> Result<usize, String> {
    let n = get_usize(opts, "max-sessions", 4)?.max(1);
    if n > MAX_SERVE_SESSIONS {
        return Err(format!(
            "--max-sessions: `{n}` exceeds the {MAX_SERVE_SESSIONS}-session cap (one worker \
             thread each)"
        ));
    }
    Ok(n)
}

fn cmd_systems() -> Result<(), String> {
    println!("built-in systems (--device ⇌ --edge):");
    for sys in SystemConfig::paper_systems(40.0) {
        println!("  {}", sys.label());
    }
    Ok(())
}

/// Parses `--keep-frac`: one escalation fraction for every step, or one
/// per step, each a finite number in `[0, 1]`.
fn parse_keep_fracs(list: &str) -> Result<Vec<f64>, String> {
    list.split(',')
        .map(|f| {
            let f = f.trim();
            match f.parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => Ok(v),
                Ok(_) => Err(format!("--keep-frac: `{f}` is not a fraction in [0, 1]")),
                Err(_) => Err(format!("--keep-frac: bad number `{f}`")),
            }
        })
        .collect()
}

/// Parses `--mbps`: an uplink bandwidth, finite and positive.
fn parse_mbps(v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(mbps) if mbps.is_finite() && mbps > 0.0 => Ok(mbps),
        Ok(_) => Err(format!("--mbps: `{v}` is not a finite positive bandwidth")),
        Err(_) => Err(format!("--mbps: bad number `{v}`")),
    }
}

/// Parses a boolean flag: `true|1|yes` or `false|0|no`, nothing else.
fn parse_bool(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        _ => Err(format!("--{key}: `{v}` is not a boolean (true|false|1|0|yes|no)")),
    }
}

/// `--task`: the workload a search or a session runs on.
fn task(opts: &HashMap<String, String>) -> Result<SessionTask, String> {
    match opts.get("task").map(String::as_str).unwrap_or("modelnet40") {
        "modelnet40" => Ok(SessionTask::ModelNet40),
        "mr" => Ok(SessionTask::Mr),
        other => Err(format!("unknown task `{other}` (modelnet40|mr)")),
    }
}

/// One `--tiers` name: the fidelity of the backend it builds.
fn tier(name: &str) -> Result<Fidelity, String> {
    match name {
        "analytic" => Ok(Fidelity::Analytic),
        "predictor" => Ok(Fidelity::Predicted),
        "sim" => Ok(Fidelity::Simulated),
        "engine" => Ok(Fidelity::Measured),
        other => Err(format!("unknown tier `{other}` (analytic|predictor|sim|engine)")),
    }
}

/// Parses `gcode search`'s flags into the spec of the search and the
/// fleet its engine tier runs on. A flag that would shape nothing — an
/// engine flag without the `engine` tier, `--keep-frac` without a ladder —
/// is refused by name before anything runs.
fn search_spec(opts: &HashMap<String, String>) -> Result<(SearchSpec, FleetSpec), String> {
    let dev = device(opts.get("device").ok_or("--device is required")?)?;
    let edg = edge(opts.get("edge").ok_or("--edge is required")?)?;
    let mbps = opts.get("mbps").map_or(Ok(40.0), |v| parse_mbps(v))?;
    let mut spec = SearchSpec::paper(SystemConfig::new(dev, edg, Link::mbps(mbps)), task(opts)?);
    let tiers = opts.get("tiers").map_or("sim", String::as_str).split(',');
    spec.tiers = tiers.map(|name| tier(name.trim())).collect::<Result<_, _>>()?;
    let measured = spec.tiers.contains(&Fidelity::Measured);
    if let Some(flag) =
        ["fleet", "frames", "warmup"].iter().find(|f| !measured && opts.contains_key(**f))
    {
        return Err(format!(
            "--{flag} drives the Measured tier; add the `engine` tier (e.g. \
             --tiers engine or --tiers analytic,sim,engine)"
        ));
    }
    if let Some(fracs) = opts.get("keep-frac") {
        if spec.tiers.len() == 1 {
            return Err("--keep-frac sets a ladder's escalation; name two or more tiers \
                        (e.g. --tiers analytic,sim)"
                .into());
        }
        spec.keep_fracs = parse_keep_fracs(fracs)?;
    }
    spec.frames = get_usize(opts, "frames", spec.frames)?.max(1);
    spec.warmup = get_usize(opts, "warmup", spec.warmup)?;
    spec.workers = get_usize(opts, "workers", spec.workers)?;
    spec.config.iterations = get_usize(opts, "iterations", spec.config.iterations)?;
    spec.config.seed = get_usize(opts, "seed", spec.config.seed as usize)? as u64;
    let objective = &mut spec.objective;
    objective.lambda = get_f64(opts, "lambda", objective.lambda)?;
    objective.latency_constraint_s =
        get_f64(opts, "latency-ms", objective.latency_constraint_s * 1e3)? / 1e3;
    objective.energy_constraint_j = get_f64(opts, "energy-j", objective.energy_constraint_j)?;
    let fleet = opts.get("fleet").map_or(Ok(FleetSpec::default()), |s| s.parse());
    Ok((spec, fleet.map_err(|e| format!("--fleet: {e}"))?))
}

fn cmd_search(opts: &HashMap<String, String>) -> Result<(), String> {
    let (spec, fleet) = search_spec(opts)?;
    // The persistent evaluation cache: consulted by the search session on
    // memo misses and by the engine tier before any live deployment, and
    // written through on every fresh price.
    let cache_log = opts
        .get("cache-file")
        .map(|p| gcode::core::cachelog::open_shared(p).map_err(|e| format!("--cache-file: {e}")))
        .transpose()?;
    println!(
        "searching {} on {} via `{}` ({:?} fidelity, {} worker{}) …",
        spec.config.iterations,
        spec.system.label(),
        opts.get("tiers").map_or("sim", String::as_str),
        spec.tiers[spec.tiers.len() - 1],
        spec.workers,
        if spec.workers == 1 { "" } else { "s" }
    );
    let (report, result, ladder) =
        run_search(&spec, &fleet, cache_log.as_ref(), &AtomicU64::new(0))?;
    println!(
        "evaluations: {} unique ({} cache hits of {} lookups, {:.1}% hit rate)",
        report.unique_architectures,
        report.cache.hits,
        report.cache.lookups(),
        report.cache.hit_rate() * 100.0
    );
    if report.cache.log_hits > 0 {
        println!(
            "  {} of those hits replayed from the cache file (warm restart)",
            report.cache.log_hits
        );
    }
    if !ladder.is_empty() {
        println!("fidelity ladder (bottom → top):");
        for t in &ladder {
            println!(
                "  {:<10} {:?} fidelity, cost {:>6.1}x, keep {:4.2} → {} evals",
                t.name, t.fidelity, t.cost_hint, t.keep_frac, t.evals
            );
        }
    }
    if let (Some(profile), Some(fleet)) = (&report.measured, &report.fleet) {
        println!(
            "measured on the live engine: {} frames (p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms), {} bytes sent, {} failed deployments ({} newly deployed, {} from cache)",
            profile.frames,
            profile.p50_s * 1e3,
            profile.p95_s * 1e3,
            profile.p99_s * 1e3,
            profile.bytes_sent,
            profile.errors,
            profile.deployed,
            profile.cached
        );
        println!(
            "edge fleet: {} pools, {} spawns, {} deployments, {} pool failures, {} candidates requeued",
            fleet.pools.len(),
            fleet.spawns(),
            fleet.deployments(),
            fleet.failures(),
            fleet.resharded
        );
        for p in &fleet.pools {
            println!(
                "  {:<22} {:>4} deployments  {} spawns  {} failures  busy {:.2} s  cand p50 {:.1} ms  p95 {:.1} ms",
                p.endpoint,
                p.deployments,
                p.spawns,
                p.failures,
                p.busy_s,
                p.p50_s * 1e3,
                p.p95_s * 1e3
            );
        }
    }
    if let Some(path) = opts.get("report-out") {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("search report written to {path}");
    }
    print_winner(&result, opts)
}

/// Prints a search's winner and writes its zoo to `--zoo-out`, if given.
fn print_winner(result: &SearchResult, opts: &HashMap<String, String>) -> Result<(), String> {
    let Some(best) = result.best() else {
        return Err("no candidate met the constraints; relax --latency-ms/--energy-j".into());
    };
    println!(
        "\nbest (score {:.3}, accuracy {:.1}%, latency {:.1} ms, energy {:.3} J):",
        best.score,
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j
    );
    println!("{}", best.arch.render());
    if let Some(path) = opts.get("zoo-out") {
        let zoo = ArchitectureZoo::new(result.zoo.clone());
        let json = zoo.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("zoo ({} entries) written to {path}", zoo.len());
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let listen = opts.get("listen").ok_or("--listen is required (e.g. 127.0.0.1:7470)")?;
    let fleet = opts
        .get("fleet")
        .map(String::as_str)
        .unwrap_or("loopback:2")
        .parse::<FleetSpec>()
        .map_err(|e| format!("--fleet: {e}"))?;
    let max_sessions = parse_max_sessions(opts)?;
    let mut config = ServerConfig::new(fleet.clone()).with_max_sessions(max_sessions);
    if let Some(q) = opts.get("queue") {
        config =
            config.with_queue_limit(q.parse().map_err(|_| format!("--queue: bad number `{q}`"))?);
    }
    if let Some(n) = opts.get("sessions-limit") {
        config = config.with_sessions_limit(
            n.parse().map_err(|_| format!("--sessions-limit: bad number `{n}`"))?,
        );
    }
    let cache_file = opts.get("cache-file");
    if let Some(path) = cache_file {
        config = config.with_cache_file(path);
    }
    let server = SearchServer::start(listen, config).map_err(|e| e.to_string())?;
    println!(
        "gcode-serve listening on {} ({} warm pool{}, {} concurrent session{})",
        server.addr(),
        fleet.endpoints().len(),
        if fleet.endpoints().len() == 1 { "" } else { "s" },
        max_sessions,
        if max_sessions == 1 { "" } else { "s" },
    );
    if let Some(path) = cache_file {
        println!("measurement cache: {path} (repeat sessions replay without deploying)");
    }
    println!("submit with: gcode submit --server {}", server.addr());
    server.wait().map_err(|e| e.to_string())
}

fn cmd_submit(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("server")
        .ok_or("--server is required (the address `gcode serve` printed)")?
        .to_socket_addrs()
        .map_err(|e| format!("--server: {e}"))?
        .next()
        .ok_or("--server: resolved to no address")?;
    let spec = SessionSpec {
        config: SearchConfig {
            iterations: get_usize(opts, "iterations", 200)?,
            zoo_size: get_usize(opts, "zoo-size", 4)?,
            seed: get_usize(opts, "seed", 0)? as u64,
            ..SearchConfig::default()
        },
        objective: Objective::new(
            get_f64(opts, "lambda", 0.25)?,
            get_f64(opts, "latency-ms", 1000.0)? / 1e3,
            get_f64(opts, "energy-j", 5.0)?,
        ),
        task: task(opts)?,
        measure_zoo: opts.get("measure").map_or(Ok(true), |v| parse_bool("measure", v))?,
        scenario: opts.get("trace").map(|path| load_trace(path)).transpose()?,
    };
    let timeout = Duration::from_secs(get_usize(opts, "timeout-s", 600)? as u64);
    let shutdown = opts.get("shutdown").map_or(Ok(false), |v| parse_bool("shutdown", v))?;

    let mut client = ServerClient::connect(addr).map_err(|e| e.to_string())?;
    let id = client
        .open_session_retry(&spec, 120, Duration::from_millis(250))
        .map_err(|e| e.to_string())?;
    println!("session {id} opened on {addr} ({:?}, seed {})", spec.task, spec.config.seed);
    client.submit(id).map_err(|e| e.to_string())?;

    // Poll until the result lands, echoing each state transition.
    let deadline = Instant::now() + timeout;
    let mut last_state: Option<SessionState> = None;
    let outcome = loop {
        if Instant::now() >= deadline {
            return Err(format!("session {id}: no result within {}s", timeout.as_secs()));
        }
        match client.poll(id).map_err(|e| e.to_string())? {
            PollReply::Done(outcome) => break outcome,
            PollReply::Progress(p) => {
                if last_state != Some(p.state) {
                    println!(
                        "session {id}: {:?} ({} / {} evaluations)",
                        p.state, p.evaluated, p.total
                    );
                    last_state = Some(p.state);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    let report = &outcome.report;
    println!(
        "session {id} done: {} unique architectures, best score {}",
        report.unique_architectures,
        report.best_score.map_or("—".into(), |s| format!("{s:.3}")),
    );
    if let Some(m) = &report.measured {
        println!(
            "measured on the shared fleet: {} frames (p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms), {} bytes sent, {} errors ({} newly deployed, {} from cache)",
            m.frames,
            m.p50_s * 1e3,
            m.p95_s * 1e3,
            m.p99_s * 1e3,
            m.bytes_sent,
            m.errors,
            m.deployed,
            m.cached
        );
    }
    if let Some(scenarios) = &report.scenarios {
        println!("scenario replay ({} segments):", scenarios.len());
        for r in scenarios {
            println!(
                "  [{:8.3}s] {:<24} {:4} frames  {} swap(s)  acc {:5.1}%  deadline {:5.1}%  {} drop(s)",
                r.start_s,
                r.label,
                r.frames,
                r.swaps,
                r.measured_accuracy * 100.0,
                r.deadline_hit_rate * 100.0,
                r.drops,
            );
        }
    }
    print_winner(&outcome.result, opts)?;
    // Best-effort: the result is already in hand, and a server started
    // with --sessions-limit may tear down right after delivering it.
    let _ = client.close_session(id);
    if shutdown {
        let _ = client.request_shutdown();
        println!("server shutdown requested");
    }
    Ok(())
}

fn load_zoo(opts: &HashMap<String, String>) -> Result<ArchitectureZoo, String> {
    let path = opts.get("zoo").ok_or("--zoo is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ArchitectureZoo::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_describe(opts: &HashMap<String, String>) -> Result<(), String> {
    let zoo = load_zoo(opts)?;
    match opts.get("index") {
        Some(i) => {
            let i: usize = i.parse().map_err(|_| "--index: bad number".to_string())?;
            let entry = zoo
                .entries()
                .get(i)
                .ok_or_else(|| format!("index {i} out of range (zoo has {})", zoo.len()))?;
            println!("{}", entry.arch.render());
            println!(
                "accuracy {:.1}%  latency {:.1} ms  energy {:.3} J",
                entry.accuracy * 100.0,
                entry.latency_s * 1e3,
                entry.energy_j
            );
        }
        None => {
            println!("zoo with {} entries:", zoo.len());
            for (i, z) in zoo.entries().iter().enumerate() {
                println!(
                    "  #{i}: {:.1}% acc  {:7.1} ms  {:.3} J  — {}",
                    z.accuracy * 100.0,
                    z.latency_s * 1e3,
                    z.energy_j,
                    z.arch
                );
            }
        }
    }
    Ok(())
}

fn cmd_dispatch(opts: &HashMap<String, String>) -> Result<(), String> {
    let zoo = load_zoo(opts)?;
    let constraint = RuntimeConstraint {
        max_latency_s: opts
            .get("latency-ms")
            .map(|v| v.parse::<f64>().map(|ms| ms / 1e3))
            .transpose()
            .map_err(|_| "--latency-ms: bad number".to_string())?,
        max_energy_j: opts
            .get("energy-j")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "--energy-j: bad number".to_string())?,
    };
    let pick = zoo.dispatch(constraint).ok_or("zoo is empty; nothing to dispatch")?;
    println!(
        "dispatched: {:.1}% acc  {:.1} ms  {:.3} J",
        pick.accuracy * 100.0,
        pick.latency_s * 1e3,
        pick.energy_j
    );
    println!("{}", pick.arch.render());
    Ok(())
}

fn load_trace(path: &str) -> Result<ScenarioTrace, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = ScenarioTrace::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    trace.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(trace)
}

/// Fallback zoo for `gcode replay` without `--zoo`: the dispatcher
/// pairing from the paper's runtime story — an accurate co-inference
/// design and a fast on-device one, so constraint flips in the trace
/// visibly switch plans.
fn builtin_replay_zoo() -> ArchitectureZoo {
    use gcode::core::op::{Op, SampleFn};
    use gcode::core::search::ScoredArch;
    use gcode::nn::{agg::AggMode, pool::PoolMode};
    let entry = |latency_s: f64, accuracy: f64, split: bool| {
        let mut ops = vec![Op::Sample(SampleFn::Knn { k: 8 }), Op::Aggregate(AggMode::Max)];
        if split {
            ops.push(Op::Communicate);
        }
        ops.push(Op::Combine { dim: 16 });
        ops.push(Op::GlobalPool(PoolMode::Max));
        ScoredArch {
            arch: Architecture::new(ops),
            score: accuracy,
            accuracy,
            latency_s,
            energy_j: latency_s,
        }
    };
    ArchitectureZoo::new(vec![entry(0.080, 0.93, true), entry(0.010, 0.90, false)])
}

fn cmd_replay(opts: &HashMap<String, String>) -> Result<(), String> {
    use gcode::engine::{replay_on_fleet, EdgeFleet};

    let trace = load_trace(opts.get("trace").ok_or("--trace is required")?)?;
    let zoo = match opts.get("zoo") {
        Some(_) => load_zoo(opts)?,
        None => builtin_replay_zoo(),
    };
    let pools = get_usize(opts, "pools", 1)?;
    let fleet_spec: FleetSpec =
        format!("loopback:{pools}").parse().map_err(|e| format!("--pools: {e}"))?;
    let seed = get_usize(opts, "seed", 0)? as u64;
    let num_classes = 4;
    let ds = PointCloudDataset::generate(8, 24, num_classes, seed ^ 0xF4);

    println!(
        "replaying `{}` ({} segments, {} frames) over {pools} pool(s), zoo of {}",
        trace.name,
        trace.segments.len(),
        trace.total_frames(),
        zoo.len(),
    );
    let mut fleet = EdgeFleet::new(fleet_spec, num_classes, seed, seed);
    let reports =
        replay_on_fleet(&zoo, &mut fleet, ds.samples(), &trace).map_err(|e| e.to_string())?;
    fleet.shutdown().map_err(|e| e.to_string())?;

    for r in &reports {
        println!(
            "  [{:8.3}s] {:<24} {:4} frames  {} swap(s)  acc {:5.1}%  deadline {:5.1}%  {} drop(s)  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
            r.start_s,
            r.label,
            r.frames,
            r.swaps,
            r.measured_accuracy * 100.0,
            r.deadline_hit_rate * 100.0,
            r.drops,
            r.p50_s * 1e3,
            r.p95_s * 1e3,
            r.p99_s * 1e3,
        );
    }
    if let Some(path) = opts.get("report-out") {
        let json = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("segment reports written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode::core::arch::WorkloadProfile;

    /// The `--flag` names `USAGE` prints under each `gcode <command>` line.
    fn usage_flags() -> Vec<(String, Vec<String>)> {
        let mut commands: Vec<(String, Vec<String>)> = Vec::new();
        for line in USAGE.lines().skip(1) {
            let mut words = line.split_whitespace().peekable();
            if words.next_if_eq(&"gcode").is_some() {
                commands.push((words.next().expect("command name").to_string(), Vec::new()));
            }
            let flags = &mut commands.last_mut().expect("usage opens with a command line").1;
            flags.extend(
                words
                    .filter_map(|w| w.trim_start_matches('[').strip_prefix("--"))
                    .map(str::to_string),
            );
        }
        commands
    }

    #[test]
    fn flag_tables_and_usage_name_the_same_flags() {
        let usage = usage_flags();
        assert_eq!(usage.len(), 7, "every command has a usage line");
        for (command, printed) in &usage {
            let table = accepted_flags(command).expect("a printed command has a flag table");
            assert_eq!(printed, table, "`gcode {command}`: USAGE and its flag table differ");
        }
        assert_eq!(SEARCH_FLAGS.len(), 18);
    }

    #[test]
    fn unknown_and_retired_flags_are_refused_by_name() {
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        // Retired search flags are unknown flags like any other.
        for flag in ["optimize", "backend", "adaptive-keep"] {
            let err = parse_opts("search", &args(&["--device", "tx2", &format!("--{flag}"), "on"]));
            assert_eq!(err, Err(format!("unknown flag --{flag} for search")));
        }
        let err = parse_opts("dispatch", &args(&["--zoo", "z.json", "--pools", "2"]));
        assert_eq!(err, Err("unknown flag --pools for dispatch".to_string()));
        assert_eq!(parse_opts("bogus", &[]), Err("unknown command `bogus`".to_string()));
        let ok = parse_opts("replay", &args(&["--trace", "t.json", "--pools", "2"])).expect("ok");
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn keep_fracs_outside_the_unit_interval_are_refused_by_value() {
        for bad in ["nan", "-0.1", "1.5", "inf", "0.25,7"] {
            let err = parse_keep_fracs(bad).expect_err(bad);
            let value = bad.rsplit(',').next().expect("a value");
            assert_eq!(err, format!("--keep-frac: `{value}` is not a fraction in [0, 1]"));
        }
        assert_eq!(parse_keep_fracs("x"), Err("--keep-frac: bad number `x`".to_string()));
        assert_eq!(parse_keep_fracs("0.25,0.5"), Ok(vec![0.25, 0.5]));
        assert_eq!(parse_keep_fracs(" 0 , 1 "), Ok(vec![0.0, 1.0]));
    }

    #[test]
    fn uplinks_that_are_not_finite_and_positive_are_refused_by_value() {
        for bad in ["0", "-1", "NaN", "inf"] {
            let err = parse_mbps(bad).expect_err(bad);
            assert_eq!(err, format!("--mbps: `{bad}` is not a finite positive bandwidth"));
        }
        assert_eq!(parse_mbps("x"), Err("--mbps: bad number `x`".to_string()));
        assert_eq!(parse_mbps("2.5"), Ok(2.5));
    }

    #[test]
    fn session_counts_above_the_cap_are_refused_by_value() {
        let opts = |v: &str| HashMap::from([("max-sessions".to_string(), v.to_string())]);
        for bad in ["65", "18446744073709551615"] {
            assert_eq!(
                parse_max_sessions(&opts(bad)),
                Err(format!(
                    "--max-sessions: `{bad}` exceeds the 64-session cap (one worker thread each)"
                ))
            );
        }
        assert_eq!(parse_max_sessions(&opts("64")), Ok(MAX_SERVE_SESSIONS));
        assert_eq!(parse_max_sessions(&opts("0")), Ok(1));
        assert_eq!(parse_max_sessions(&HashMap::new()), Ok(4));
        assert_eq!(parse_max_sessions(&opts("x")), Err("--max-sessions: bad number `x`".into()));
    }

    #[test]
    fn boolean_flags_refuse_anything_but_a_boolean_by_name_and_value() {
        for (v, want) in [("true", true), ("1", true), ("yes", true)] {
            assert_eq!(parse_bool("measure", v), Ok(want), "{v}");
        }
        for (v, want) in [("false", false), ("0", false), ("no", false)] {
            assert_eq!(parse_bool("shutdown", v), Ok(want), "{v}");
        }
        for bad in ["ture", "", "TRUE", "on", "2"] {
            assert_eq!(
                parse_bool("measure", bad),
                Err(format!("--measure: `{bad}` is not a boolean (true|false|1|0|yes|no)"))
            );
        }
    }

    fn search_args(words: &[&str]) -> Result<(SearchSpec, FleetSpec), String> {
        let args = ["--device", "tx2", "--edge", "i7"].iter().chain(words);
        search_spec(&parse_opts("search", &args.map(|w| w.to_string()).collect::<Vec<_>>())?)
    }

    #[test]
    fn engine_flags_without_the_engine_tier_are_refused_by_name() {
        for (flag, value) in [("fleet", "loopback:2"), ("frames", "3"), ("warmup", "0")] {
            let err = search_args(&["--tiers", "analytic,sim", &format!("--{flag}"), value]);
            assert_eq!(
                err.expect_err(flag),
                format!(
                    "--{flag} drives the Measured tier; add the `engine` tier (e.g. --tiers \
                     engine or --tiers analytic,sim,engine)"
                )
            );
        }
        let engine =
            ["--tiers", "sim,engine", "--frames", "3", "--warmup", "0", "--fleet", "loopback:2"];
        let (spec, fleet) = search_args(&engine).expect("engine flags with the engine tier");
        assert_eq!((spec.frames, spec.warmup, fleet.endpoints().len()), (3, 0, 2));
    }

    #[test]
    fn keep_frac_without_a_ladder_is_refused_by_name() {
        let err = search_args(&["--tiers", "sim", "--keep-frac", "0.5"]).expect_err("one tier");
        assert_eq!(
            err,
            "--keep-frac sets a ladder's escalation; name two or more tiers (e.g. --tiers \
             analytic,sim)"
        );
        let (spec, _) =
            search_args(&["--tiers", "analytic,sim", "--keep-frac", "0.5"]).expect("ok");
        assert_eq!(spec.keep_fracs, vec![0.5]);
    }

    #[test]
    fn the_engine_tier_measures_the_profile_the_tiers_below_it_price() {
        for (task, profile) in
            [("modelnet40", WorkloadProfile::modelnet40()), ("mr", WorkloadProfile::mr())]
        {
            let args = ["--task", task, "--tiers", "analytic,sim,engine", "--frames", "3"];
            let (spec, _) = search_args(&args).expect(task);
            assert_eq!(spec.profile, profile, "{task}: the tiers price the paper profile");
            let stream = spec.stream();
            assert_eq!(stream.len(), spec.warmup + 3);
            for s in &stream {
                // Text graphs vary by up to three words around the mean.
                let slack = if profile.provides_graph { 3 } else { 0 };
                assert!(s.features.rows().abs_diff(profile.num_nodes) <= slack, "{task}: nodes");
                assert_eq!(s.features.cols(), profile.in_dim, "{task}: feature width");
                assert!(s.label < profile.num_classes, "{task}: class count");
            }
        }
    }
}
