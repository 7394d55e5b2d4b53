//! `perf`: the repository's performance benchmark.
//!
//! Five workloads, three end-to-end metrics each, and one rung of
//! per-layer metrics per crate layer — all measured from outside, by
//! timing calls into public functions. `BENCHMARK.json` at the repository
//! root declares the names and the regression bounds; `README.md` beside
//! this package defines every one of them.
//!
//! ```text
//! perf --workload all --seed 1 --out target/perf/result.json   # every end-to-end metric
//! perf --workload all --seed 1 --trace                          # plus the traced runs
//! perf --workload stream_wire --seed 3 --seconds 15 --trace 0   # one time-budgeted run
//! perf --workload all --smoke                                   # 1/20 scale, all checks
//! perf agree A.json B.json                                      # two result files
//! ```

mod agree;
mod harness;
mod measure;
mod result;
mod serve;
mod spec;
mod stats;
mod stream;
mod trace;

use harness::{Budget, Ctx, Report};
use result::{Host, ResultFile, WorkloadResult, SCHEMA};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// Which runs a `--trace` flag selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runs {
    /// No flag, or `--trace 0`: the untraced run.
    Untraced,
    /// `--trace 1`: the traced run only.
    Traced,
    /// A bare `--trace`: the untraced run, then the separate traced one.
    Both,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    runs: Runs,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out FILE]\n       perf agree A.json B.json";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        runs: Runs::Untraced,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.runs = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Runs::Untraced,
                    Some("1") => Runs::Traced,
                    _ => Runs::Both,
                };
                if parsed.runs != Runs::Both {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !spec::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be all or one of {}", spec::WORKLOADS.join(", ")));
    }
    if parsed.smoke && parsed.seconds.is_some() {
        return Err("--smoke and --seconds exclude each other".to_string());
    }
    Ok(parsed)
}

/// Where cache logs, trace files and result files go: under the build
/// directory, which is inside the checkout and ignored by git.
fn scratch_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    if let Some(stream) = stream::STREAMS.iter().find(|s| s.name == name) {
        return if ctx.traced { stream::run_traced(stream, ctx) } else { stream::run(stream, ctx) };
    }
    match (name, ctx.traced) {
        (measure::NAME, false) => measure::run(ctx),
        (measure::NAME, true) => measure::run_traced(ctx),
        (serve::NAME, false) => serve::run(ctx),
        (serve::NAME, true) => serve::run_traced(ctx),
        _ => Err(format!("no workload called {name}")),
    }
}

fn print_metrics(result: &WorkloadResult) {
    for m in &result.metrics {
        println!("{} {} {} {}", result.name, m.name, m.value, m.unit);
    }
    for check in result.checks.iter().filter(|c| !c.ok) {
        println!("{} CHECK FAILED {}: {}", result.name, check.name, check.detail);
    }
}

/// The line the benchmark driver reads: the last line of standard output.
struct DriverLine<'a>(&'a WorkloadResult);

impl Serialize for DriverLine<'_> {
    fn to_value(&self) -> Value {
        let metrics = self
            .0
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.0.correct())),
            ("attempted".to_string(), Value::UInt(self.0.attempted)),
            ("failed".to_string(), Value::UInt(self.0.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }
}

fn write_result(path: &PathBuf, file: &ResultFile) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(file).map_err(|e| format!("result file: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    let mut results = Vec::new();
    for traced in [false, true] {
        let wanted = match args.runs {
            Runs::Untraced => !traced,
            Runs::Traced => traced,
            Runs::Both => true,
        };
        if !wanted {
            continue;
        }
        let ctx = Ctx {
            seed: args.seed,
            budget: Budget { seconds: args.seconds, smoke: args.smoke },
            traced,
            scratch: scratch_dir()?,
            driver_threads: host.driver_threads,
        };
        let result = run_workload(&args.workload, &ctx)?.finish(&args.workload, traced);
        print_metrics(&result);
        results.push(result);
    }
    let correct = results.iter().all(WorkloadResult::correct);
    let last = results.last().expect("at least one run was selected");
    let line = serde_json::to_string(&DriverLine(last)).map_err(|e| format!("result line: {e}"))?;
    if let Some(path) = &args.out {
        let file = ResultFile {
            schema: SCHEMA,
            smoke: args.smoke,
            seed: args.seed,
            seconds: args.seconds,
            host,
            workloads: results,
        };
        write_result(path, &file)?;
    }
    println!("{line}");
    Ok(correct)
}

/// `--workload all`: this binary again, once per workload, so set-up time
/// and peak memory are each workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let scratch = scratch_dir()?;
    let mut merged: Option<ResultFile> = None;
    let mut correct = true;
    for &workload in spec::WORKLOADS {
        let part = scratch.join(format!("part-{workload}.json"));
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        child.arg("--out").arg(&part);
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        match args.runs {
            Runs::Untraced => {}
            Runs::Traced => drop(child.args(["--trace", "1"])),
            Runs::Both => drop(child.arg("--trace")),
        }
        // The child prints its own metric lines; its result line is for
        // the driver and is not repeated here.
        let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
        correct &= status.success();
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let file: ResultFile =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        match merged.as_mut() {
            Some(all) => all.workloads.extend(file.workloads),
            None => merged = Some(file),
        }
    }
    let merged = merged.expect("the workload table is not empty");
    let out = args.out.clone().unwrap_or_else(|| scratch.join("result.json"));
    write_result(&out, &merged)?;
    println!("results: {}", out.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(64);
        };
        return match agree::run(a, b) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("perf agree: {message}");
                ExitCode::from(3)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let outcome = if parsed.workload == "all" { run_all(&parsed) } else { run_one(&parsed) };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: an output check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
