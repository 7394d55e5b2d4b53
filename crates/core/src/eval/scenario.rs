//! Trace-driven scenario replay: the serializable timeline format the
//! runtime dispatcher is measured against.
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
//! repository root) and are replayed by `gcode_engine::replay_on_fleet`,
//! which emits one [`ScenarioReport`] per segment; a full run's reports
//! ride in [`SearchReport::scenarios`](crate::eval::SearchReport).
//!
//! [`ArrivalSpec`] (Periodic/Poisson, seeded, deterministic) is the one
//! arrival model: the engine's replay and the simulator's
//! `gcode_sim::simulate_open_loop` both time frames with
//! [`ArrivalSpec::arrival_times`].
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

use crate::zoo::RuntimeConstraint;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How frames arrive — within one scenario segment, or into
/// `gcode_sim::simulate_open_loop`.
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
    pub fn mean_fps(&self) -> f64 {
        match *self {
            ArrivalSpec::Periodic { fps } | ArrivalSpec::Poisson { fps, .. } => fps,
        }
    }

    /// Deterministic arrival offsets (seconds since segment start, the
    /// first at 0) for `frames` frames: periodic arrivals land every
    /// `1/fps`, Poisson gaps are `-ln(u)/fps` drawn from
    /// `ChaCha8Rng::seed_from_u64(seed)`.
    pub fn arrival_times(&self, frames: usize) -> Vec<f64> {
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

    /// Whether segment timestamps are already monotone non-decreasing.
    pub fn is_normalized(&self) -> bool {
        self.segments.windows(2).all(|w| w[0].start_s <= w[1].start_s)
    }

    /// Total frames across every segment.
    pub fn total_frames(&self) -> usize {
        self.segments.iter().map(|s| s.frames).sum()
    }

    /// Rejects traces a replay cannot execute: no segments, a segment
    /// with zero frames, a non-positive arrival rate, or a non-positive
    /// deadline.
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

/// One segment's replay outcome: what the live engine did while that
/// stretch of the timeline was driven through it. Emitted by
/// `gcode_engine::replay_on_fleet`, carried in
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
    /// Measured stream hit rate over this segment's frames: the fraction
    /// of deployed-engine predictions matching the held-out labels.
    pub measured_accuracy: f64,
    /// Fraction of frames whose sojourn (queueing per the segment's
    /// arrival process + measured service) met `deadline_s`.
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
        assert!(!shuffled.is_normalized());
        let n = shuffled.normalized();
        assert!(n.is_normalized());
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
}
