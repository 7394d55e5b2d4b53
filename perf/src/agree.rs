//! `perf agree A.json B.json`: do two result files of the same inputs
//! agree, metric by metric, within the bounds `BENCHMARK.json` fixes?

use crate::result::{Metric, RawJson, ResultFile, WorkloadResult, SCHEMA};
use crate::spec::EXACT;
use serde::Value;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base value by which the metric may get worse.
    pub bound: f64,
}

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound, and both runs were steadier than it.
    Worse,
    /// Worse by more than the bound, but a run's own spread is wider than
    /// the bound: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list =
        benchmark.field("end_to_end").as_seq().ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let text = |key: &str| match entry.field(key) {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry without a {key}")),
            };
            let bound = match entry.field("bound") {
                Value::Float(v) => *v,
                Value::Int(v) => *v as f64,
                Value::UInt(v) => *v as f64,
                _ => return Err("BENCHMARK.json: end_to_end entry without a bound".to_string()),
            };
            Ok(Bound { name: text("name")?, lower_is_better: text("better")? == "lower", bound })
        })
        .collect()
}

/// Compares `b` against the base `a` under `rule`.
pub fn verdict(a: &Metric, b: &Metric, rule: &Bound) -> Verdict {
    let worse_by = if rule.lower_is_better { b.value - a.value } else { a.value - b.value };
    if worse_by <= rule.bound * a.value.abs() {
        Verdict::Ok
    } else if a.spread > rule.bound || b.spread > rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

/// Why two files cannot be compared at all, if they cannot.
fn refusal(a: &ResultFile, b: &ResultFile) -> Option<String> {
    if a.schema != SCHEMA || b.schema != SCHEMA {
        return Some(format!("schema {} vs {}, this build reads {SCHEMA}", a.schema, b.schema));
    }
    if a.seed != b.seed {
        return Some(format!("seeds differ: {} vs {}", a.seed, b.seed));
    }
    if a.smoke != b.smoke {
        return Some("one file is a --smoke run, the other is not".to_string());
    }
    if a.seconds != b.seconds {
        return Some(format!("run lengths differ: {:?} vs {:?}", a.seconds, b.seconds));
    }
    None
}

fn find<'a>(file: &'a ResultFile, like: &WorkloadResult) -> Option<&'a WorkloadResult> {
    file.workloads.iter().find(|w| w.name == like.name && w.traced == like.traced)
}

/// The comparison table, one row per (workload, metric), and the worst
/// verdict in it.
pub fn compare(
    a: &ResultFile,
    b: &ResultFile,
    rules: &[Bound],
) -> Result<(Vec<String>, Verdict), String> {
    if let Some(why) = refusal(a, b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut rows = Vec::new();
    let mut worst = Verdict::Ok;
    for wa in &a.workloads {
        let wb = find(b, wa).ok_or_else(|| {
            format!("refusing to compare: {} (traced: {}) is missing from B", wa.name, wa.traced)
        })?;
        if wa.fingerprint != wb.fingerprint {
            return Err(format!(
                "refusing to compare: {} ran different inputs ({} vs {})",
                wa.name, wa.fingerprint, wb.fingerprint
            ));
        }
        for ma in &wa.metrics {
            let Some(mb) = wb.metric(&ma.name) else { continue };
            let rule = rules.iter().find(|r| r.name == ma.name);
            let label = match rule {
                Some(rule) => {
                    let v = verdict(ma, mb, rule);
                    if v == Verdict::Worse || (v == Verdict::Unresolved && worst == Verdict::Ok) {
                        worst = v;
                    }
                    v.label()
                }
                // Per-layer metrics carry no bound: exact counts must
                // repeat, the rest is shown for the reader.
                None if EXACT.contains(&ma.name.as_str()) && a.seconds.is_none() => {
                    if ma.value == mb.value {
                        "same"
                    } else {
                        worst = Verdict::Worse;
                        "differs"
                    }
                }
                None => "-",
            };
            let ratio = if ma.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mb.value / ma.value)
            };
            rows.push(format!(
                "{} {} {} {} {} {ratio} {label}",
                wa.name, ma.name, ma.value, mb.value, ma.unit
            ));
        }
        let failed = wa.failed + wb.failed;
        if failed > 0 {
            worst = Verdict::Worse;
            rows.push(format!(
                "{} failed_operations {} {} count - worse",
                wa.name, wa.failed, wb.failed
            ));
        }
    }
    Ok((rows, worst))
}

fn load<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs the subcommand against the `BENCHMARK.json` of the working
/// directory; the process exit code is the return value: 0 all ok,
/// 1 something got worse, 2 only unresolved differences.
pub fn run(a_path: &str, b_path: &str) -> Result<u8, String> {
    let a: ResultFile = load(a_path)?;
    let b: ResultFile = load(b_path)?;
    let RawJson(benchmark) = load("BENCHMARK.json")?;
    let (rows, worst) = compare(&a, &b, &bounds(&benchmark)?)?;
    println!("workload metric A B unit B/A verdict");
    for row in rows {
        println!("{row}");
    }
    Ok(match worst {
        Verdict::Ok => 0,
        Verdict::Worse => 1,
        Verdict::Unresolved => 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Host;
    use crate::stats::Summary;

    fn metric(name: &str, unit: &str, value: f64, spread: f64) -> Metric {
        Metric::new(name, unit, Summary { value, min: value, max: value, n: 9, spread })
    }

    fn lower(bound: f64) -> Bound {
        Bound { name: "op_p50_s".to_string(), lower_is_better: true, bound }
    }

    fn higher(bound: f64) -> Bound {
        Bound { name: "ops_per_s".to_string(), lower_is_better: false, bound }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = metric("op_p50_s", "s", 1.0, 0.01);
        assert_eq!(verdict(&base, &metric("op_p50_s", "s", 1.09, 0.01), &lower(0.1)), Verdict::Ok);
        assert_eq!(verdict(&base, &metric("op_p50_s", "s", 0.5, 0.01), &lower(0.1)), Verdict::Ok);
        assert_eq!(
            verdict(&base, &metric("op_p50_s", "s", 1.2, 0.01), &lower(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &metric("op_p50_s", "s", 1.2, 0.3), &lower(0.1)),
            Verdict::Unresolved
        );
        let rate = metric("ops_per_s", "1/s", 100.0, 0.0);
        assert_eq!(
            verdict(&rate, &metric("ops_per_s", "1/s", 95.0, 0.0), &higher(0.1)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&rate, &metric("ops_per_s", "1/s", 80.0, 0.0), &higher(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rate, &metric("ops_per_s", "1/s", 180.0, 0.0), &higher(0.1)),
            Verdict::Ok
        );
    }

    fn file(seed: u64, smoke: bool, fingerprint: &str, p50: f64) -> ResultFile {
        ResultFile {
            schema: SCHEMA,
            smoke,
            seed,
            seconds: None,
            host: Host {
                nproc: 2,
                driver_threads: 2,
                load_avg_1m: 0.0,
                governor: String::new(),
                rustc: String::new(),
                git_commit: String::new(),
            },
            workloads: vec![WorkloadResult {
                name: "stream_wire".to_string(),
                fingerprint: fingerprint.to_string(),
                traced: false,
                attempted: 10,
                failed: 0,
                checks: Vec::new(),
                timed_s: 1.0,
                metrics: vec![metric("op_p50_s", "s", p50, 0.01)],
            }],
        }
    }

    #[test]
    fn mismatched_files_are_refused() {
        let rules = [lower(0.1)];
        let a = file(1, false, "aa", 1.0);
        assert!(compare(&a, &file(2, false, "aa", 1.0), &rules).is_err(), "seed");
        assert!(compare(&a, &file(1, true, "aa", 1.0), &rules).is_err(), "smoke");
        assert!(compare(&a, &file(1, false, "bb", 1.0), &rules).is_err(), "fingerprint");
        let (rows, worst) = compare(&a, &file(1, false, "aa", 1.05), &rules).expect("comparable");
        assert_eq!(worst, Verdict::Ok);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ends_with("1.0500 ok"), "{}", rows[0]);
        let (_, worst) = compare(&a, &file(1, false, "aa", 1.5), &rules).expect("comparable");
        assert_eq!(worst, Verdict::Worse);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let RawJson(json) = serde_json::from_str(text).expect("valid");
        assert_eq!(bounds(&json).expect("two rules"), vec![lower(0.1), higher(0.1)]);
    }
}
