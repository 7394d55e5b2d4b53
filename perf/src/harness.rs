//! What every workload shares: the run context, phase budgets (fixed op
//! counts, or a share of `--seconds`), and the report a run fills in.

use crate::result::{Check, Metric, WorkloadResult};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `--seconds`: phases run for a share of this instead of a fixed count.
    pub seconds: Option<f64>,
    /// `--smoke`: fixed counts at about 1/20 scale.
    pub smoke: bool,
}

/// No fixed-count phase may run longer than this, whatever the host.
const PHASE_CAP: Duration = Duration::from_secs(30);

impl Budget {
    /// Starts a phase of `full` operations at full scale (at least `min`
    /// at any scale), or of `share` of the time budget when one was given.
    pub fn phase(&self, full: usize, min: usize, share: f64) -> Phase {
        let now = Instant::now();
        match self.seconds {
            Some(seconds) => Phase {
                max: usize::MAX,
                min,
                deadline: now + Duration::from_secs_f64(seconds * share),
                done: 0,
            },
            None => {
                let max = if self.smoke { (full / 20).max(min) } else { full };
                Phase { max, min, deadline: now + PHASE_CAP, done: 0 }
            }
        }
    }

    /// Configured scale, for the workload fingerprint.
    pub fn label(&self) -> String {
        match (self.seconds, self.smoke) {
            (Some(s), _) => format!("timed:{s}"),
            (None, true) => "smoke".to_string(),
            (None, false) => "full".to_string(),
        }
    }

    /// Sets up repeatedly for the `setup_s` median, tearing each
    /// environment but the last down again: at least three times, and for
    /// cheap set-ups up to fifteen times or one second. Returns the
    /// environment to run on and every set-up's wall time.
    pub fn repeat_setup<E>(
        &self,
        mut setup: impl FnMut() -> Result<E, String>,
        mut teardown: impl FnMut(E) -> Result<(), String>,
    ) -> Result<(E, Vec<f64>), String> {
        let mut walls = Vec::new();
        loop {
            let (env, wall_s) = timed(&mut setup);
            let env = env?;
            walls.push(wall_s);
            let enough =
                walls.len() >= 3 && (walls.len() >= 15 || walls.iter().sum::<f64>() >= 1.0);
            if self.smoke || enough {
                return Ok((env, walls));
            }
            teardown(env)?;
        }
    }
}

/// One timed phase: counts operations and says when to stop.
pub struct Phase {
    max: usize,
    min: usize,
    deadline: Instant,
    done: usize,
}

impl Phase {
    /// Whether another operation should start; counts it if so.
    pub fn next(&mut self) -> bool {
        let go = self.done < self.min || (self.done < self.max && Instant::now() < self.deadline);
        if go {
            self.done += 1;
        }
        go
    }
}

/// Everything a workload run is told.
pub struct Ctx {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    /// Directory for cache logs and trace files, inside the checkout.
    pub scratch: PathBuf,
    /// Threads or connections the load generator may use.
    pub driver_threads: usize,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Report {
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub timed_s: f64,
    checks: Vec<Check>,
    metrics: Vec<(String, Summary)>,
}

impl Report {
    pub fn put(&mut self, name: &str, summary: Summary) {
        self.metrics.push((name.to_string(), summary));
    }

    /// Records a single measurement or an exact count.
    pub fn put_exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s.value)
    }

    /// Records an output check; a failed one counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name: name.to_string(), ok, detail });
    }

    /// Lays the collected metrics out in declaration order. The untraced
    /// run must have produced every end-to-end metric. In the traced run a
    /// per-layer metric nobody recorded is a layer this workload never
    /// calls: it reads 0.
    pub fn finish(self, workload: &str, traced: bool) -> WorkloadResult {
        let specs: &[MetricSpec] = if traced { PER_LAYER } else { END_TO_END };
        let metrics = specs
            .iter()
            .map(|spec| {
                let summary = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == spec.name)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_else(|| {
                        assert!(traced, "{workload} did not measure {}", spec.name);
                        Summary::exact(0.0)
                    });
                Metric::new(spec.name, spec.unit, summary)
            })
            .collect();
        WorkloadResult {
            name: workload.to_string(),
            fingerprint: self.fingerprint,
            traced,
            attempted: self.attempted.max(1),
            failed: self.failed,
            checks: self.checks,
            timed_s: self.timed_s,
            metrics,
        }
    }
}

/// Times `f`, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_phase_stops_at_its_count_and_smoke_scales_it() {
        let full = Budget { seconds: None, smoke: false };
        let mut phase = full.phase(40, 2, 0.5);
        assert_eq!(std::iter::from_fn(|| phase.next().then_some(())).count(), 40);
        let smoke = Budget { seconds: None, smoke: true };
        let mut phase = smoke.phase(40, 3, 0.5);
        assert_eq!(std::iter::from_fn(|| phase.next().then_some(())).count(), 3);
    }

    #[test]
    fn timed_phase_runs_its_minimum_past_the_deadline() {
        let budget = Budget { seconds: Some(0.0), smoke: false };
        let mut phase = budget.phase(1000, 4, 0.5);
        assert_eq!(std::iter::from_fn(|| phase.next().then_some(())).count(), 4);
    }

    #[test]
    fn failed_check_counts_as_a_failed_operation() {
        let mut report = Report::default();
        report.check("a", true, String::new());
        report.check("b", false, "diverged".to_string());
        for spec in END_TO_END {
            report.put_exact(spec.name, 1.0);
        }
        let result = report.finish("w", false);
        assert_eq!(result.failed, 1);
        assert!(!result.correct());
        assert_eq!(result.metrics.len(), END_TO_END.len());
    }
}
