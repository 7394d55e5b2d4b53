//! Trace-driven scenario replay: the serializable timeline format the
//! runtime dispatcher is measured against, and [`replay`], the one walk
//! over it.
//!
//! The paper's dispatcher (Sec. 3.6) exists to survive *changing*
//! conditions — bursty arrivals, shrinking uplinks, constraint flips —
//! but a single measured run only prices one steady state. A
//! [`ScenarioTrace`] describes a full timeline instead: an ordered list
//! of [`ScenarioSegment`]s, each starting at an absolute timestamp and
//! carrying its own arrival process ([`ArrivalSpec`]), an optional
//! device-uplink change, an optional
//! [`RuntimeConstraint`] flip, and the per-frame latency deadline the
//! segment is judged against.
//!
//! Traces are plain JSON (see `examples/scenario_trace.json` at the
//! repository root). [`replay`] walks one segment by segment and emits
//! one [`ScenarioReport`] per segment; a full run's reports ride in
//! [`SearchReport::scenarios`](crate::eval::SearchReport). The walk owns
//! everything but the fidelity: it carries the constraint and the uplink
//! across segments, picks each segment's plan with
//! [`ArchitectureZoo::dispatch`] over the zoo priced at the current
//! uplink, counts swaps, and folds the per-frame service times a segment
//! run hands back into sojourns by `ArrivalSpec::arrival_times`. Two
//! fidelities plug into it through two closures — what an entry costs at
//! an uplink, and what running a segment measured:
//! `gcode_engine::replay_on_fleet` streams real samples through a live
//! fleet, and `gcode_sim::replay` prices every frame in the simulator.
//!
//! # Example
//!
//! ```
//! use gcode_core::eval::scenario::{ArrivalSpec, ScenarioSegment, ScenarioTrace};
//! use gcode_core::zoo::RuntimeConstraint;
//!
//! let trace = ScenarioTrace::new("steady-then-burst", 7)
//!     .with_segment(ScenarioSegment::new(
//!         "steady", 0.0, 16, ArrivalSpec::Periodic { fps: 100.0 }, 0.040,
//!     ))
//!     .with_segment(
//!         ScenarioSegment::new(
//!             "burst", 0.16, 32, ArrivalSpec::Poisson { fps: 1000.0, seed: 7 }, 0.040,
//!         )
//!         .with_constraint(RuntimeConstraint::latency(0.020)),
//!     );
//! let json = trace.to_json().expect("serializable");
//! assert_eq!(ScenarioTrace::from_json(&json).expect("round trip"), trace);
//! assert_eq!(trace.total_frames(), 48);
//! ```

use crate::search::ScoredArch;
use crate::zoo::{ArchitectureZoo, RuntimeConstraint};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How frames arrive within one scenario segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Fixed-rate camera: one frame every `1/fps` seconds.
    Periodic {
        /// Frames per second.
        fps: f64,
    },
    /// Memoryless bursts: exponential inter-arrival gaps with mean
    /// `1/fps`, drawn from a stream seeded by `seed` (deterministic per
    /// seed).
    Poisson {
        /// Mean frames per second.
        fps: f64,
        /// Seed for the gap stream.
        seed: u64,
    },
}

impl ArrivalSpec {
    /// Mean arrival rate in frames per second.
    fn mean_fps(&self) -> f64 {
        match *self {
            ArrivalSpec::Periodic { fps } | ArrivalSpec::Poisson { fps, .. } => fps,
        }
    }

    /// Deterministic arrival offsets (seconds since segment start, the
    /// first at 0) for `frames` frames: periodic arrivals land every
    /// `1/fps`, Poisson gaps are `-ln(u)/fps` drawn from
    /// `ChaCha8Rng::seed_from_u64(seed)`.
    fn arrival_times(&self, frames: usize) -> Vec<f64> {
        match *self {
            ArrivalSpec::Periodic { fps } => {
                (0..frames).map(|i| i as f64 / fps.max(f64::EPSILON)).collect()
            }
            ArrivalSpec::Poisson { fps, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut t = 0.0;
                (0..frames)
                    .map(|_| {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let gap = -u.ln() / fps.max(f64::EPSILON);
                        let at = t;
                        t += gap;
                        at
                    })
                    .collect()
            }
        }
    }
}

/// One contiguous stretch of a scenario timeline: frames arriving under
/// one [`ArrivalSpec`], judged against one latency deadline, optionally
/// opening with a device-uplink change and/or a
/// [`RuntimeConstraint`] flip (both applied at the segment boundary,
/// before its first frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSegment {
    /// Human-readable segment name (`"steady"`, `"burst"`, …), echoed in
    /// the segment's [`ScenarioReport`].
    pub label: String,
    /// Absolute timeline position in seconds; segments are replayed in
    /// `start_s` order after [`ScenarioTrace::normalized`].
    pub start_s: f64,
    /// Frames this segment drives through the engine.
    pub frames: usize,
    /// Arrival process for this segment's frames.
    pub arrivals: ArrivalSpec,
    /// New device-uplink cap in Mbit/s applied at the segment boundary
    /// (`None` keeps the previous segment's uplink).
    pub uplink_mbps: Option<f64>,
    /// New runtime constraint dispatched at the segment boundary —
    /// `Some` re-runs zoo dispatch and hot-swaps the deployed plan if
    /// the admitted entry changed (`None` keeps the deployed plan).
    pub constraint: Option<RuntimeConstraint>,
    /// Per-frame sojourn deadline in seconds; the segment's deadline hit
    /// rate is the fraction of frames answered within it.
    pub deadline_s: f64,
}

impl ScenarioSegment {
    /// A segment with no uplink change and no constraint flip.
    pub fn new(
        label: impl Into<String>,
        start_s: f64,
        frames: usize,
        arrivals: ArrivalSpec,
        deadline_s: f64,
    ) -> Self {
        Self {
            label: label.into(),
            start_s,
            frames,
            arrivals,
            uplink_mbps: None,
            constraint: None,
            deadline_s,
        }
    }

    /// Caps the device uplink at `mbps` from this segment on.
    #[must_use]
    pub fn with_uplink_mbps(mut self, mbps: f64) -> Self {
        self.uplink_mbps = Some(mbps);
        self
    }

    /// Flips the runtime constraint at this segment's boundary.
    #[must_use]
    pub fn with_constraint(mut self, constraint: RuntimeConstraint) -> Self {
        self.constraint = Some(constraint);
        self
    }
}

/// A serializable scenario timeline: named, seeded, and an ordered list
/// of [`ScenarioSegment`]s. See the module docs for the format's role.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTrace {
    /// Trace name, echoed in reports and logs.
    pub name: String,
    /// Trace-level seed: the replay's sample stream and any seed-less
    /// derived randomness key off it.
    pub seed: u64,
    /// Timeline segments; replay order is `start_s` order (see
    /// [`normalized`](Self::normalized)).
    pub segments: Vec<ScenarioSegment>,
}

impl ScenarioTrace {
    /// An empty trace; add segments with
    /// [`with_segment`](Self::with_segment).
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self { name: name.into(), seed, segments: Vec::new() }
    }

    /// Appends a segment.
    #[must_use]
    pub fn with_segment(mut self, segment: ScenarioSegment) -> Self {
        self.segments.push(segment);
        self
    }

    /// The trace with its segments in replay order: a stable sort by
    /// `start_s` (ties keep input order) with non-finite or negative
    /// start times clamped to `0.0`. After normalization segment
    /// timestamps are monotone non-decreasing.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        for seg in &mut self.segments {
            if !seg.start_s.is_finite() || seg.start_s < 0.0 {
                seg.start_s = 0.0;
            }
        }
        self.segments
            .sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap_or(std::cmp::Ordering::Equal));
        self
    }

    /// Total frames across every segment.
    pub fn total_frames(&self) -> usize {
        self.segments.iter().map(|s| s.frames).sum()
    }

    /// Rejects traces a replay cannot execute: no segments, a segment
    /// with zero frames, a non-positive arrival rate, a non-positive
    /// deadline, or an uplink that is not a finite positive rate.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending
    /// segment.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err(format!("trace `{}` has no segments", self.name));
        }
        for seg in &self.segments {
            if seg.frames == 0 {
                return Err(format!("segment `{}` has zero frames", seg.label));
            }
            if seg.arrivals.mean_fps() <= 0.0 {
                return Err(format!("segment `{}` has non-positive arrival rate", seg.label));
            }
            if !seg.deadline_s.is_finite() || seg.deadline_s <= 0.0 {
                return Err(format!("segment `{}` has non-positive deadline", seg.label));
            }
            if let Some(mbps) = seg.uplink_mbps.filter(|m| !(m.is_finite() && *m > 0.0)) {
                return Err(format!(
                    "segment `{}` has uplink {mbps} Mbps; it must be finite and positive",
                    seg.label
                ));
            }
        }
        Ok(())
    }

    /// Serializes the trace to pretty JSON (the `--trace FILE` format).
    ///
    /// # Errors
    ///
    /// Propagates the serializer error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a trace from JSON.
    ///
    /// # Errors
    ///
    /// Propagates the parse error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// One segment's replay outcome: what the plan dispatch picked did while
/// that stretch of the timeline was driven through it. Emitted by
/// [`replay`] at either fidelity, carried in
/// [`SearchReport::scenarios`](crate::eval::SearchReport).
///
/// Two kinds of fields coexist: *prediction-derived* numbers (`frames`,
/// `measured_accuracy`, `swaps`) are bit-reproducible for a given trace
/// and seed, while *wall-clock-derived* numbers (`deadline_hit_rate`,
/// `drops`, the latency percentiles) inherit OS-scheduler noise.
/// Determinism tests compare [`deterministic_view`](Self::deterministic_view)s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Segment label, copied from the trace.
    pub label: String,
    /// Segment start on the trace timeline, seconds.
    pub start_s: f64,
    /// Frames replayed in this segment.
    pub frames: u64,
    /// Changes of plan at this segment's boundary: 1 when dispatch
    /// admitted a different zoo entry than the previous segment ran (the
    /// initial deploy included), 0 when the constraint kept admitting the
    /// deployed plan. The fleet re-sends `SwapPlan` with every segment's
    /// batch either way; this counts the picks that changed.
    pub swaps: u64,
    /// The segment's accuracy as its fidelity knows it: on the engine the
    /// measured stream hit rate (the fraction of deployed-engine
    /// predictions matching the held-out labels), in the simulator the
    /// picked entry's modeled `accuracy`.
    pub measured_accuracy: f64,
    /// Fraction of frames whose sojourn (queueing per the segment's
    /// arrival process + per-frame service) met `deadline_s`.
    pub deadline_hit_rate: f64,
    /// Frames that missed the deadline (`frames - hits`).
    pub drops: u64,
    /// Median per-frame sojourn, seconds.
    pub p50_s: f64,
    /// 95th-percentile per-frame sojourn, seconds.
    pub p95_s: f64,
    /// 99th-percentile per-frame sojourn, seconds.
    pub p99_s: f64,
}

impl ScenarioReport {
    /// The report with every wall-clock-derived field zeroed, keeping
    /// only the prediction-derived fields that must replay bit-identically
    /// for a given trace and seed (see the type docs).
    #[must_use]
    pub fn deterministic_view(&self) -> Self {
        Self {
            deadline_hit_rate: 0.0,
            drops: 0,
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            ..self.clone()
        }
    }
}

/// Replays `trace` (normalized first) against `zoo` and returns one
/// [`ScenarioReport`] per segment, in timeline order. This is the one
/// segment walk; the fidelity is the two closures:
///
/// - `price(entry, uplink_mbps)` returns the entry's `(latency_s,
///   energy_j)` at the current uplink (`None` until a segment sets one).
///   Each segment dispatches its constraint on the zoo priced this way,
///   through [`ArchitectureZoo::dispatch`], the one selection policy.
/// - `run_segment(segment, pick, uplink_mbps)` runs the segment's frames
///   on the picked (priced) entry and returns the segment's accuracy and
///   one service time per frame, in frame order.
///
/// The constraint and the uplink carry over from segment to segment until
/// a segment changes them. [`ScenarioReport::swaps`] is 1 when a
/// segment's pick differs from the previous one's (the initial deploy
/// included). Sojourns replay the segment's arrivals through a single
/// queue over the returned service times:
/// `completion_i = max(arrival_i, completion_{i-1}) + service_i`.
///
/// # Errors
///
/// An invalid trace or an empty zoo is refused before either closure is
/// called; an error from `run_segment` stops the walk and is returned.
pub fn replay<E: From<String>>(
    trace: &ScenarioTrace,
    zoo: &ArchitectureZoo,
    mut price: impl FnMut(&ScoredArch, Option<f64>) -> (f64, f64),
    mut run_segment: impl FnMut(
        &ScenarioSegment,
        &ScoredArch,
        Option<f64>,
    ) -> Result<(f64, Vec<f64>), E>,
) -> Result<Vec<ScenarioReport>, E> {
    let trace = trace.clone().normalized();
    trace.validate()?;
    let mut reports = Vec::with_capacity(trace.segments.len());
    let mut constraint = RuntimeConstraint::none();
    let mut uplink_mbps = None;
    let mut deployed = None;
    for seg in &trace.segments {
        uplink_mbps = seg.uplink_mbps.or(uplink_mbps);
        constraint = seg.constraint.unwrap_or(constraint);
        let priced = zoo.repriced(|entry| price(entry, uplink_mbps));
        let pick = priced
            .dispatch(constraint)
            .ok_or_else(|| "scenario replay needs a non-empty zoo".to_string())?;
        let swaps = u64::from(deployed.as_ref() != Some(&pick.arch));
        deployed = Some(pick.arch.clone());
        let (accuracy, service_s) = run_segment(seg, pick, uplink_mbps)?;
        reports.push(segment_report(seg, swaps, accuracy, &service_s));
    }
    Ok(reports)
}

/// Folds one segment's run into its [`ScenarioReport`]: sojourns from the
/// arrival replay over the per-frame service times, the deadline hit rate
/// and nearest-rank percentiles over those sojourns.
fn segment_report(
    seg: &ScenarioSegment,
    swaps: u64,
    accuracy: f64,
    service_s: &[f64],
) -> ScenarioReport {
    let sojourns = replay_sojourns(seg, service_s);
    let hits = sojourns.iter().filter(|&&s| s <= seg.deadline_s).count();
    let (p50_s, p95_s, p99_s) = latency_percentiles(&sojourns);
    ScenarioReport {
        label: seg.label.clone(),
        start_s: seg.start_s,
        frames: sojourns.len() as u64,
        swaps,
        measured_accuracy: accuracy,
        deadline_hit_rate: hits as f64 / sojourns.len().max(1) as f64,
        drops: (sojourns.len() - hits) as u64,
        p50_s,
        p95_s,
        p99_s,
    }
}

/// Single-queue sojourn replay (see [`replay`]): frames arrive per the
/// segment's [`ArrivalSpec`] and are served in order, so the deadline hit
/// rate reflects the queueing a burst would cause, whichever fidelity
/// priced the service.
fn replay_sojourns(seg: &ScenarioSegment, service_s: &[f64]) -> Vec<f64> {
    let arrivals = seg.arrivals.arrival_times(service_s.len());
    let mut free = 0.0f64;
    arrivals
        .iter()
        .zip(service_s)
        .map(|(&arrival, &service)| {
            free = free.max(arrival) + service;
            free - arrival
        })
        .collect()
}

/// `(p50, p95, p99)` of an unsorted latency sample, by nearest rank (all
/// 0 when empty) — the one percentile definition every scenario, engine,
/// fleet, backend and served-session report uses.
pub fn latency_percentiles(latencies: &[f64]) -> (f64, f64, f64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 50.0), percentile(&sorted, 95.0), percentile(&sorted, 99.0))
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty):
/// the smallest element with at least `p`% of the sample at or below it,
/// i.e. the element at rank `⌈p/100 · n⌉` (1-based, clamped to `1..=n`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ScenarioTrace {
        ScenarioTrace::new("t", 9)
            .with_segment(ScenarioSegment::new(
                "steady",
                0.0,
                8,
                ArrivalSpec::Periodic { fps: 50.0 },
                0.05,
            ))
            .with_segment(
                ScenarioSegment::new(
                    "burst",
                    0.16,
                    16,
                    ArrivalSpec::Poisson { fps: 500.0, seed: 3 },
                    0.05,
                )
                .with_uplink_mbps(1.0)
                .with_constraint(RuntimeConstraint::latency(0.02)),
            )
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = trace();
        let json = t.to_json().expect("serialize");
        assert_eq!(ScenarioTrace::from_json(&json).expect("parse"), t);
    }

    #[test]
    fn optional_fields_default_when_absent() {
        let json = r#"{
            "name": "minimal", "seed": 1,
            "segments": [{
                "label": "only", "start_s": 0.0, "frames": 4,
                "arrivals": { "Periodic": { "fps": 10.0 } },
                "deadline_s": 0.1
            }]
        }"#;
        let t = ScenarioTrace::from_json(json).expect("parse without optionals");
        assert_eq!(t.segments[0].uplink_mbps, None);
        assert_eq!(t.segments[0].constraint, None);
        t.validate().expect("minimal trace is valid");
    }

    #[test]
    fn normalized_sorts_segments_and_clamps_bad_starts() {
        let shuffled = ScenarioTrace::new("s", 0)
            .with_segment(ScenarioSegment::new(
                "c",
                2.0,
                1,
                ArrivalSpec::Periodic { fps: 1.0 },
                1.0,
            ))
            .with_segment(ScenarioSegment::new(
                "a",
                -5.0,
                1,
                ArrivalSpec::Periodic { fps: 1.0 },
                1.0,
            ))
            .with_segment(ScenarioSegment::new(
                "b",
                1.0,
                1,
                ArrivalSpec::Periodic { fps: 1.0 },
                1.0,
            ));
        let monotone =
            |t: &ScenarioTrace| t.segments.windows(2).all(|w| w[0].start_s <= w[1].start_s);
        assert!(!monotone(&shuffled));
        let n = shuffled.normalized();
        assert!(monotone(&n));
        let labels: Vec<&str> = n.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(n.segments[0].start_s, 0.0, "negative start clamped");
    }

    #[test]
    fn validate_rejects_degenerate_traces() {
        assert!(ScenarioTrace::new("empty", 0).validate().is_err());
        let zero_frames = ScenarioTrace::new("z", 0).with_segment(ScenarioSegment::new(
            "s",
            0.0,
            0,
            ArrivalSpec::Periodic { fps: 1.0 },
            1.0,
        ));
        assert!(zero_frames.validate().is_err());
        let bad_rate = ScenarioTrace::new("r", 0).with_segment(ScenarioSegment::new(
            "s",
            0.0,
            1,
            ArrivalSpec::Periodic { fps: 0.0 },
            1.0,
        ));
        assert!(bad_rate.validate().is_err());
        let bad_deadline = ScenarioTrace::new("d", 0).with_segment(ScenarioSegment::new(
            "s",
            0.0,
            1,
            ArrivalSpec::Periodic { fps: 1.0 },
            0.0,
        ));
        assert!(bad_deadline.validate().is_err());
    }

    #[test]
    fn arrival_times_are_deterministic_and_start_at_zero() {
        let periodic = ArrivalSpec::Periodic { fps: 10.0 };
        assert_eq!(periodic.arrival_times(3), vec![0.0, 0.1, 0.2]);

        let poisson = ArrivalSpec::Poisson { fps: 100.0, seed: 42 };
        let a = poisson.arrival_times(64);
        let b = poisson.arrival_times(64);
        assert_eq!(a, b, "same seed, same arrivals");
        assert_eq!(a[0], 0.0, "first frame arrives at segment start");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals strictly increase");
        let other = ArrivalSpec::Poisson { fps: 100.0, seed: 43 }.arrival_times(64);
        assert_ne!(a, other, "different seed, different gaps");
    }

    #[test]
    fn deterministic_view_zeroes_only_wall_clock_fields() {
        let r = ScenarioReport {
            label: "burst".to_string(),
            start_s: 0.16,
            frames: 16,
            swaps: 1,
            measured_accuracy: 0.75,
            deadline_hit_rate: 0.5,
            drops: 8,
            p50_s: 0.01,
            p95_s: 0.02,
            p99_s: 0.03,
        };
        let v = r.deterministic_view();
        assert_eq!(
            (v.label.as_str(), v.start_s, v.frames, v.swaps, v.measured_accuracy),
            ("burst", 0.16, 16, 1, 0.75)
        );
        assert_eq!(
            (v.deadline_hit_rate, v.drops, v.p50_s, v.p95_s, v.p99_s),
            (0.0, 0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn validate_refuses_uplinks_that_are_not_finite_and_positive() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut t = trace();
            t.segments[1].uplink_mbps = Some(bad);
            let err = t.validate().expect_err("a bad uplink must be refused");
            assert!(err.starts_with("segment `burst` has uplink"), "{bad}: {err}");
        }
    }

    fn seg(arrivals: ArrivalSpec, deadline_s: f64) -> ScenarioSegment {
        ScenarioSegment::new("s", 0.0, 4, arrivals, deadline_s)
    }

    #[test]
    fn slow_arrivals_see_pure_service_time() {
        // Gaps (1 s) dwarf service (10 ms): no queueing, sojourn == service.
        let s = seg(ArrivalSpec::Periodic { fps: 1.0 }, 0.05);
        let sojourns = replay_sojourns(&s, &[0.01, 0.01, 0.01, 0.01]);
        for v in &sojourns {
            assert!((v - 0.01).abs() < 1e-12, "unqueued sojourn is the service time");
        }
    }

    #[test]
    fn bursts_build_backlog_in_the_sojourn_replay() {
        // Arrivals every 1 ms, service 10 ms: frame i waits behind i
        // predecessors, so sojourns grow ~9 ms per frame.
        let s = seg(ArrivalSpec::Periodic { fps: 1000.0 }, 0.05);
        let sojourns = replay_sojourns(&s, &[0.01; 4]);
        assert!(sojourns.windows(2).all(|w| w[1] > w[0]), "backlog must grow: {sojourns:?}");
        assert!((sojourns[3] - (4.0 * 0.01 - 3.0 * 0.001)).abs() < 1e-9);
    }

    #[test]
    fn deadline_hits_split_steady_from_burst() {
        let service = [0.01; 4];
        let steady = seg(ArrivalSpec::Periodic { fps: 1.0 }, 0.02);
        let burst = seg(ArrivalSpec::Periodic { fps: 1000.0 }, 0.02);
        let steady_hits =
            replay_sojourns(&steady, &service).iter().filter(|&&s| s <= steady.deadline_s).count();
        let burst_hits =
            replay_sojourns(&burst, &service).iter().filter(|&&s| s <= burst.deadline_s).count();
        assert_eq!(steady_hits, 4, "steady arrivals all meet the deadline");
        assert!(burst_hits < steady_hits, "the burst must drop frames");
    }

    #[test]
    fn nearest_rank_percentile_boundaries() {
        // 1-element sample: every percentile is that element.
        assert_eq!(percentile(&[4.0], 0.0), 4.0);
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        // 2-element sample: p50 is the *first* element under nearest-rank
        // (⌈0.5·2⌉ = rank 1), anything above 50% is the second.
        assert_eq!(percentile(&[1.0, 9.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 51.0), 9.0);
        assert_eq!(percentile(&[1.0, 9.0], 100.0), 9.0);
        // Small samples: p99 over n=10 is rank ⌈9.9⌉ = 10 → the maximum.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        // Empty sample stays 0.
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// An accurate offloaded entry whose latency is link-bound under
    /// [`link_price`], and a less accurate local one that is not.
    fn link_zoo() -> ArchitectureZoo {
        use crate::arch::Architecture;
        use crate::op::Op;
        use gcode_nn::pool::PoolMode;
        let entry = |accuracy: f64, ops: Vec<Op>| ScoredArch {
            arch: Architecture::new(ops),
            score: accuracy,
            accuracy,
            latency_s: 0.03,
            energy_j: 0.1,
        };
        ArchitectureZoo::new(vec![
            entry(
                0.93,
                vec![Op::Communicate, Op::Combine { dim: 16 }, Op::GlobalPool(PoolMode::Max)],
            ),
            entry(0.90, vec![Op::Combine { dim: 16 }, Op::GlobalPool(PoolMode::Max)]),
        ])
    }

    /// The offloaded entry costs `0.4 s / uplink` (40 Mbps before any
    /// segment sets one); the local entry keeps its stored 30 ms.
    fn link_price(entry: &ScoredArch, uplink_mbps: Option<f64>) -> (f64, f64) {
        if entry.arch.num_communicates() > 0 {
            (0.4 / uplink_mbps.unwrap_or(40.0), entry.energy_j)
        } else {
            (entry.latency_s, entry.energy_j)
        }
    }

    /// Five segments: a 50 ms constraint on the default link, a 1 Mbps
    /// degrade, a segment that changes nothing, the constraint lifted, and
    /// the constraint back at 10 Mbps.
    fn link_trace() -> ScenarioTrace {
        let periodic = ArrivalSpec::Periodic { fps: 10.0 };
        let at = |label: &str, i: usize| ScenarioSegment::new(label, i as f64, 2, periodic, 0.1);
        ScenarioTrace::new("link", 3)
            .with_segment(at("open", 0).with_constraint(RuntimeConstraint::latency(0.05)))
            .with_segment(at("degraded", 1).with_uplink_mbps(1.0))
            .with_segment(at("carried", 2))
            .with_segment(at("lifted", 3).with_constraint(RuntimeConstraint::none()))
            .with_segment(
                at("restored", 4)
                    .with_uplink_mbps(10.0)
                    .with_constraint(RuntimeConstraint::latency(0.05)),
            )
    }

    /// [`replay`] with recording closures: every uplink `price` saw, and
    /// the `(pick accuracy, uplink)` each `run_segment` call saw.
    #[allow(clippy::type_complexity)]
    fn replay_recorded(
        trace: &ScenarioTrace,
    ) -> (Vec<ScenarioReport>, Vec<Option<f64>>, Vec<(f64, Option<f64>)>) {
        let mut priced_at = Vec::new();
        let mut ran = Vec::new();
        let reports = replay::<String>(
            trace,
            &link_zoo(),
            |entry, uplink| {
                priced_at.push(uplink);
                link_price(entry, uplink)
            },
            |seg, pick, uplink| {
                ran.push((pick.accuracy, uplink));
                Ok((pick.accuracy, vec![pick.latency_s; seg.frames]))
            },
        )
        .expect("valid trace replays");
        (reports, priced_at, ran)
    }

    #[test]
    fn invalid_traces_and_empty_zoos_never_reach_a_closure() {
        let never_price = |_: &ScoredArch, _: Option<f64>| -> (f64, f64) {
            panic!("price called on a refused replay")
        };
        let never_run = |_: &ScenarioSegment,
                         _: &ScoredArch,
                         _: Option<f64>|
         -> Result<(f64, Vec<f64>), String> {
            panic!("run_segment called on a refused replay")
        };
        let mut bad = link_trace();
        bad.segments[2].uplink_mbps = Some(0.0);
        let err = replay(&bad, &link_zoo(), never_price, never_run).expect_err("zero uplink");
        assert!(err.contains("`carried`"), "{err}");
        let empty = ScenarioTrace::new("empty", 0);
        assert!(replay(&empty, &link_zoo(), never_price, never_run).is_err());
        let err = replay(&link_trace(), &ArchitectureZoo::default(), never_price, never_run)
            .expect_err("empty zoo");
        assert!(err.contains("non-empty zoo"), "{err}");
    }

    #[test]
    fn uplink_and_constraint_carry_over_to_later_segments() {
        let (reports, _, ran) = replay_recorded(&link_trace());
        let uplinks: Vec<Option<f64>> = ran.iter().map(|&(_, u)| u).collect();
        assert_eq!(uplinks, [None, Some(1.0), Some(1.0), Some(1.0), Some(10.0)]);
        // `carried` keeps both the 1 Mbps link and the 50 ms constraint,
        // so it stays local; `lifted` keeps the link but drops the cap.
        let picks: Vec<f64> = ran.iter().map(|&(acc, _)| acc).collect();
        assert_eq!(picks, [0.93, 0.90, 0.90, 0.93, 0.93]);
        let accuracies: Vec<f64> = reports.iter().map(|r| r.measured_accuracy).collect();
        assert_eq!(accuracies, picks, "the report carries the segment run's accuracy");
        assert!(reports.iter().all(|r| r.frames == 2));
    }

    #[test]
    fn swaps_count_changed_picks_and_price_sees_each_segments_uplink() {
        let (reports, priced_at, _) = replay_recorded(&link_trace());
        let swaps: Vec<u64> = reports.iter().map(|r| r.swaps).collect();
        assert_eq!(swaps, [1, 1, 0, 1, 0]);
        // Both entries are priced once per segment, at that segment's link.
        let per_segment: Vec<Option<f64>> = priced_at.chunks(2).map(|c| c[0]).collect();
        assert!(priced_at.chunks(2).all(|c| c[0] == c[1]));
        assert_eq!(per_segment, [None, Some(1.0), Some(1.0), Some(1.0), Some(10.0)]);
        // Service is the priced latency: once the cap is lifted at 1 Mbps
        // the offloaded pick's 0.4 s misses the 0.1 s deadline.
        let hits: Vec<f64> = reports.iter().map(|r| r.deadline_hit_rate).collect();
        assert_eq!(hits, [1.0, 1.0, 1.0, 0.0, 1.0]);
        let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["open", "degraded", "carried", "lifted", "restored"]);
    }

    /// One seeded random trace for the property tests below: 1–5 segments
    /// with random starts, rates, frame counts, and optional uplink /
    /// constraint changes.
    fn random_trace(rng: &mut ChaCha8Rng, i: usize) -> ScenarioTrace {
        let n = rng.gen_range(1..6usize);
        let mut trace = ScenarioTrace::new(format!("random-{i}"), rng.gen_range(0..u64::MAX));
        for s in 0..n {
            let fps = rng.gen_range(1.0..500.0);
            let arrivals = if rng.gen_bool(0.5) {
                ArrivalSpec::Periodic { fps }
            } else {
                ArrivalSpec::Poisson { fps, seed: rng.gen_range(0..u64::MAX) }
            };
            let mut seg = ScenarioSegment::new(
                format!("seg-{s}"),
                rng.gen_range(0.0..120.0),
                rng.gen_range(1..64usize),
                arrivals,
                rng.gen_range(0.001..0.5),
            );
            if rng.gen_bool(0.3) {
                seg = seg.with_uplink_mbps(rng.gen_range(0.5..100.0));
            }
            if rng.gen_bool(0.3) {
                seg = seg.with_constraint(if rng.gen_bool(0.5) {
                    RuntimeConstraint::latency(rng.gen_range(0.001..0.2))
                } else {
                    RuntimeConstraint::energy(rng.gen_range(0.01..2.0))
                });
            }
            trace = trace.with_segment(seg);
        }
        trace
    }

    #[test]
    fn trace_json_round_trip_is_lossless_over_random_traces() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7ACE);
        for i in 0..64 {
            let trace = random_trace(&mut rng, i);
            let json = trace.to_json().expect("serialize");
            let back = ScenarioTrace::from_json(&json).expect("parse");
            assert_eq!(back, trace, "trace {i} did not survive the JSON round trip");
        }
    }

    #[test]
    fn normalized_traces_have_monotone_segment_timestamps() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB057);
        for i in 0..64 {
            let trace = random_trace(&mut rng, i).normalized();
            assert!(
                trace.segments.windows(2).all(|w| w[0].start_s <= w[1].start_s),
                "trace {i} segments out of order"
            );
        }
    }
}
