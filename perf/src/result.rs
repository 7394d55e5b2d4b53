//! The result file: one entry per workload run, each metric stored with
//! its bounds, sample count and spread, plus the fingerprints that say
//! whether two files measured the same thing on a comparable host.

use crate::stats::Summary;
use serde::{Deserialize, Serialize, Value};

/// Result-file layout version; `agree` refuses any other.
pub const SCHEMA: u32 = 1;

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, s: Summary) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.value,
            min: s.min,
            max: s.max,
            n: s.n,
            spread: s.spread,
        }
    }
}

/// One output check and how it went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One run of one workload (untraced or traced).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    /// Hash of architecture signatures, dataset checksums, configured
    /// counts and the seed: equal fingerprints mean equal inputs.
    pub fingerprint: String,
    pub traced: bool,
    /// Operations attempted in the timed phases and checks.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed output checks.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Wall time of the timed phases, seconds.
    pub timed_s: f64,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Where the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: usize,
    /// Threads or connections the load generator drives at most.
    pub driver_threads: usize,
    pub load_avg_1m: f64,
    pub governor: String,
    pub rustc: String,
    pub git_commit: String,
}

/// A whole result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: u32,
    pub smoke: bool,
    pub seed: u64,
    /// `--seconds` when the run was time-budgeted, else fixed op counts.
    pub seconds: Option<f64>,
    pub host: Host,
    pub workloads: Vec<WorkloadResult>,
}

/// An unparsed JSON document — `BENCHMARK.json` is read through this, so
/// the harness depends on its layout in one place (`agree::bounds`).
pub struct RawJson(pub Value);

impl Deserialize for RawJson {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Self(value.clone()))
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` directly; the driver's
/// checkout is not a repository, so this is `unknown` there.
fn git_commit() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            read_trimmed(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".to_string())
        }
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Reads the host fingerprint; call before any timed work so the load
    /// average is the one the run started under.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let load_avg_1m = read_trimmed("/proc/loadavg")
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(-1.0);
        let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_or_else(|| "unreadable".to_string());
        Self {
            nproc,
            driver_threads: nproc.min(2),
            load_avg_1m,
            governor,
            rustc: rustc_version(),
            git_commit: git_commit(),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a accumulator behind the workload fingerprints.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    pub fn number(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a dataset: every feature's bit pattern and every label.
    pub fn samples(&mut self, samples: &[gcode_graph::datasets::Sample]) {
        for s in samples {
            self.number(s.label as u64);
            for v in s.features.as_slice() {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
