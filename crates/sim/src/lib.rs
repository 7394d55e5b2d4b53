//! Discrete-event simulator of pipelined device-edge co-inference.
//!
//! This crate is the reproduction's substitute for the paper's physical
//! testbed (Jetson/Pi devices + i7/1060 edges behind a bandwidth-capped
//! router). It executes an architecture's *stage graph* — alternating
//! device-compute, link-transfer and edge-compute segments — over a stream
//! of input frames, with the pipeline recurrence the paper's co-inference
//! engine creates by processing frame `f+1` on the device while the edge
//! still works on frame `f` (Sec. 3.6).
//!
//! Crucially, the simulator charges **runtime overheads that the LUT-style
//! cost estimation does not see**: per-message framing, (de)serialization,
//! a platform inefficiency factor and a deterministic per-architecture
//! perturbation. This gap is what makes the GIN latency predictor worth
//! training (Sec. 3.5: cost estimation "may not include potential runtime
//! overheads compared to measured latency").
//!
//! [`replay`] is the simulator's fidelity of the one scenario walk,
//! [`gcode_core::eval::scenario::replay`]: a `ScenarioTrace` replayed
//! against a zoo, every entry re-priced by [`simulate`] at each segment's
//! uplink before the runtime dispatcher picks — the paper's Sec. 3.6
//! dispatcher adapting to a fluctuating link, deterministically.
//!
//! # Example
//!
//! ```
//! use gcode_core::arch::{Architecture, WorkloadProfile};
//! use gcode_core::op::{Op, SampleFn};
//! use gcode_hardware::SystemConfig;
//! use gcode_nn::{agg::AggMode, pool::PoolMode};
//! use gcode_sim::{simulate, SimConfig};
//!
//! let arch = Architecture::new(vec![
//!     Op::Sample(SampleFn::Knn { k: 20 }),
//!     Op::Communicate,
//!     Op::Aggregate(AggMode::Max),
//!     Op::GlobalPool(PoolMode::Max),
//! ]);
//! let report = simulate(&arch, &WorkloadProfile::modelnet40(),
//!                       &SystemConfig::tx2_to_i7(40.0), &SimConfig::default());
//! assert!(report.frame_latency_s > 0.0);
//! assert!(report.fps > 0.0);
//! ```

#![deny(unsafe_code)]

use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::cost::trace;
use gcode_core::eval::backend::{EvalBackend, Fidelity};
use gcode_core::eval::scenario::{self, ScenarioReport, ScenarioTrace};
use gcode_core::eval::{Evaluator, Metrics};
use gcode_core::op::{OpKind, Placement};
use gcode_core::zoo::ArchitectureZoo;
use gcode_hardware::SystemConfig;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Simulator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Frames to push through the pipeline.
    pub frames: usize,
    /// Whether the engine pipelines frames (paper's engine) or processes
    /// them strictly one at a time (ablation).
    pub pipelined: bool,
    /// Serialization/deserialization throughput at segment boundaries, GB/s.
    pub serialize_gbps: f64,
    /// Fixed cost per message handed to the network stack, seconds.
    pub per_message_overhead_s: f64,
    /// Multiplicative runtime inefficiency on compute segments
    /// (framework dispatch, cache pollution between ops).
    pub runtime_inefficiency: f64,
    /// Amplitude of the deterministic per-architecture perturbation
    /// (stands in for measurement-to-measurement system variance).
    pub noise_frac: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            frames: 32,
            pipelined: true,
            serialize_gbps: 1.5,
            per_message_overhead_s: 1.2e-3,
            runtime_inefficiency: 0.08,
            noise_frac: 0.03,
        }
    }
}

impl SimConfig {
    /// Single-frame, non-pipelined configuration (pure latency probe).
    pub fn single_frame() -> Self {
        Self { frames: 1, pipelined: false, ..Self::default() }
    }
}

/// Which resource a pipeline stage occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Device compute segment.
    Device,
    /// Wireless link transfer.
    Link,
    /// Edge compute segment.
    Edge,
}

/// One pipeline stage with its deterministic service time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Resource this stage occupies.
    pub kind: StageKind,
    /// Service time per frame, seconds.
    pub service_s: f64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// End-to-end latency of one frame through all stages.
    pub frame_latency_s: f64,
    /// Completion time of the last of `frames` frames.
    pub makespan_s: f64,
    /// Steady-state throughput, frames per second.
    pub fps: f64,
    /// Service time of the slowest stage (the pipeline bottleneck).
    pub bottleneck_s: f64,
    /// Device compute time per frame.
    pub device_compute_s: f64,
    /// Edge compute time per frame.
    pub edge_compute_s: f64,
    /// Link time per frame.
    pub comm_s: f64,
    /// On-device energy per frame, joules.
    pub device_energy_j: f64,
    /// The stage decomposition used.
    pub stages: Vec<Stage>,
}

/// Builds the stage graph of an architecture: maximal runs of same-side ops
/// become one compute stage; every `Communicate` becomes a link stage whose
/// service time includes transfer, per-message overhead and serialization
/// at both ends.
pub fn build_stages(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    cfg: &SimConfig,
) -> Vec<Stage> {
    let traced = trace(arch, profile);
    let jitter = 1.0 + cfg.noise_frac * arch_noise(arch);
    let ineff = (1.0 + cfg.runtime_inefficiency) * jitter;
    let mut stages: Vec<Stage> = Vec::new();
    let mut current: Option<Stage> = None;

    for t in &traced {
        if t.op.kind() == OpKind::Communicate {
            if let Some(s) = current.take() {
                stages.push(s);
            }
            let serialize = 2.0 * t.transfer_bytes as f64 / (cfg.serialize_gbps * 1e9);
            let service =
                sys.link.transfer_time(t.transfer_bytes) + cfg.per_message_overhead_s + serialize;
            stages.push(Stage { kind: StageKind::Link, service_s: service });
        } else {
            let (proc, kind) = match t.placement {
                Placement::Device => (&sys.device, StageKind::Device),
                Placement::Edge => (&sys.edge, StageKind::Edge),
            };
            let service = proc.latency(&t.cost) * ineff;
            match &mut current {
                Some(s) if s.kind == kind => s.service_s += service,
                _ => {
                    if let Some(s) = current.take() {
                        stages.push(s);
                    }
                    current = Some(Stage { kind, service_s: service });
                }
            }
        }
    }
    if let Some(s) = current.take() {
        stages.push(s);
    }
    // Result return if the classifier output lands on the edge.
    if arch.output_placement() == Placement::Edge {
        stages.push(Stage {
            kind: StageKind::Link,
            service_s: sys.link.transfer_time(16) + cfg.per_message_overhead_s,
        });
    }
    if stages.is_empty() {
        stages.push(Stage { kind: StageKind::Device, service_s: 0.0 });
    }
    stages
}

/// Runs the discrete-event pipeline over `cfg.frames` frames.
///
/// Pipelined mode uses the classic recurrence
/// `done[f][s] = max(done[f][s-1], done[f-1][s]) + service[s]` — each stage
/// is a resource that serves frames in order; non-pipelined mode forces
/// frame `f` to wait for frame `f-1` to fully finish.
pub fn simulate(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    cfg: &SimConfig,
) -> SimReport {
    let stages = build_stages(arch, profile, sys, cfg);
    let frames = cfg.frames.max(1);
    let num_stages = stages.len();

    let mut prev_frame_done = vec![0.0f64; num_stages];
    let mut frame_latency = 0.0;
    let mut makespan = 0.0;
    for f in 0..frames {
        let release = if cfg.pipelined {
            0.0
        } else {
            // Strictly serial: wait for the previous frame to fully drain.
            prev_frame_done.last().copied().unwrap_or(0.0)
        };
        let mut t = release;
        let mut done = vec![0.0f64; num_stages];
        for (s, stage) in stages.iter().enumerate() {
            let ready = t;
            let free = if cfg.pipelined { prev_frame_done[s] } else { ready };
            t = ready.max(free) + stage.service_s;
            done[s] = t;
        }
        if f == 0 {
            frame_latency = t;
        }
        makespan = t;
        prev_frame_done = done;
    }

    let device_compute_s: f64 =
        stages.iter().filter(|s| s.kind == StageKind::Device).map(|s| s.service_s).sum();
    let edge_compute_s: f64 =
        stages.iter().filter(|s| s.kind == StageKind::Edge).map(|s| s.service_s).sum();
    let comm_s: f64 =
        stages.iter().filter(|s| s.kind == StageKind::Link).map(|s| s.service_s).sum();
    let bottleneck_s = stages.iter().map(|s| s.service_s).fold(0.0f64, f64::max);

    // Per-frame device energy with simulated times.
    let traced = trace(arch, profile);
    let mut sent = 0usize;
    let mut received = 0usize;
    for t in &traced {
        if t.op.kind() == OpKind::Communicate {
            match t.placement {
                Placement::Device => sent += t.transfer_bytes,
                Placement::Edge => received += t.transfer_bytes,
            }
        }
    }
    if arch.output_placement() == Placement::Edge {
        received += 16;
    }
    let e_run = sys.device.run_power_w * device_compute_s;
    let e_idle = sys.device.idle_power_w * (edge_compute_s + comm_s);
    let e_comm = sys.power.device_comm_energy(&sys.link, sent, received);
    let device_energy_j = e_run + e_idle + e_comm;

    SimReport {
        frame_latency_s: frame_latency,
        makespan_s: makespan,
        fps: frames as f64 / makespan.max(1e-12),
        bottleneck_s,
        device_compute_s,
        edge_compute_s,
        comm_s,
        device_energy_j,
        stages,
    }
}

/// Replays `trace` against `zoo` at simulator fidelity and returns one
/// [`ScenarioReport`] per segment. Each segment prices every entry with a
/// single-frame [`simulate`] on `sys` with its link set to the segment's
/// uplink (`sys`'s own link until a segment sets one); dispatch picks on
/// those prices, every frame's service time is the pick's simulated
/// latency, and the reported accuracy is the entry's modeled `accuracy`.
/// The result is a pure function of its inputs — no wall clock.
///
/// # Errors
///
/// Refuses an invalid trace or an empty zoo.
pub fn replay(
    trace: &ScenarioTrace,
    zoo: &ArchitectureZoo,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
) -> Result<Vec<ScenarioReport>, String> {
    scenario::replay(
        trace,
        zoo,
        |entry, uplink_mbps| {
            let mut sys = sys.clone();
            sys.link.bandwidth_mbps = uplink_mbps.unwrap_or(sys.link.bandwidth_mbps);
            let r = simulate(&entry.arch, profile, &sys, &SimConfig::single_frame());
            (r.frame_latency_s, r.device_energy_j)
        },
        |seg, pick, _| Ok((pick.accuracy, vec![pick.latency_s; seg.frames])),
    )
}

/// Deterministic per-architecture perturbation in `[-1, 1]`.
fn arch_noise(arch: &Architecture) -> f64 {
    let mut h = DefaultHasher::new();
    arch.hash(&mut h);
    ((h.finish() % 8192) as f64 / 8192.0) * 2.0 - 1.0
}

/// [`EvalBackend`] backed by the simulator — the "measured" oracle used to
/// train the predictor and to fill the paper's tables. One simulator run
/// per candidate prices latency and energy together (the old per-metric
/// interface simulated the same architecture twice). As the expensive tier
/// of a `gcode_core::eval::backend::CascadeBackend` it re-prices only the
/// candidates that survive the cheap analytic screen.
pub struct SimBackend<F: Fn(&Architecture) -> f64 + Sync> {
    /// Workload being optimized.
    pub profile: WorkloadProfile,
    /// Target system.
    pub sys: SystemConfig,
    /// Simulator settings (single-frame by default for latency scoring).
    pub sim: SimConfig,
    /// Accuracy callback (surrogate or supernet).
    pub accuracy_fn: F,
}

impl<F: Fn(&Architecture) -> f64 + Sync> Evaluator for SimBackend<F> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        let report = simulate(arch, &self.profile, &self.sys, &self.sim);
        Metrics {
            accuracy: (self.accuracy_fn)(arch),
            latency_s: report.frame_latency_s,
            energy_j: report.device_energy_j,
        }
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> EvalBackend for SimBackend<F> {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Simulated
    }

    fn cost_hint(&self) -> f64 {
        // A discrete-event pipeline pass over `sim.frames` frames vs one
        // LUT accumulation; single-frame probes still pay the stage build
        // plus the event loop.
        10.0 + self.sim.frames as f64
    }

    fn name(&self) -> &str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::estimate::estimate_latency;
    use gcode_core::eval::scenario::{ArrivalSpec, ScenarioSegment};
    use gcode_core::op::{Op, SampleFn};
    use gcode_core::search::ScoredArch;
    use gcode_core::zoo::RuntimeConstraint;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn pc() -> WorkloadProfile {
        WorkloadProfile::modelnet40()
    }

    fn split_arch() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Communicate,
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    fn device_only() -> Architecture {
        Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 64 },
            Op::GlobalPool(PoolMode::Max),
        ])
    }

    #[test]
    fn stage_decomposition_alternates() {
        let stages = build_stages(
            &split_arch(),
            &pc(),
            &SystemConfig::tx2_to_i7(40.0),
            &SimConfig::default(),
        );
        let kinds: Vec<StageKind> = stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![StageKind::Device, StageKind::Link, StageKind::Edge, StageKind::Link]
        );
    }

    #[test]
    fn device_only_has_single_stage() {
        let stages = build_stages(
            &device_only(),
            &pc(),
            &SystemConfig::tx2_to_i7(40.0),
            &SimConfig::default(),
        );
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].kind, StageKind::Device);
    }

    #[test]
    fn simulated_latency_exceeds_cost_estimate() {
        // The simulator charges runtime overheads the LUT accumulation
        // cannot see — the motivation for the learned predictor.
        let sys = SystemConfig::tx2_to_i7(40.0);
        let est = estimate_latency(&split_arch(), &pc(), &sys).total_s();
        let sim = simulate(&split_arch(), &pc(), &sys, &SimConfig::single_frame());
        assert!(
            sim.frame_latency_s > est,
            "sim {} should exceed estimate {}",
            sim.frame_latency_s,
            est
        );
    }

    #[test]
    fn pipelining_improves_throughput_not_latency() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let pipelined = simulate(&split_arch(), &pc(), &sys, &SimConfig::default());
        let serial = simulate(
            &split_arch(),
            &pc(),
            &sys,
            &SimConfig { pipelined: false, ..SimConfig::default() },
        );
        assert!(pipelined.fps > serial.fps, "pipelining should raise fps");
        assert!((pipelined.frame_latency_s - serial.frame_latency_s).abs() < 1e-9);
    }

    #[test]
    fn steady_state_fps_approaches_bottleneck_rate() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let cfg = SimConfig { frames: 400, ..SimConfig::default() };
        let r = simulate(&split_arch(), &pc(), &sys, &cfg);
        let ideal = 1.0 / r.bottleneck_s;
        assert!(r.fps <= ideal + 1e-9);
        assert!(r.fps > 0.9 * ideal, "fps {} vs ideal {ideal}", r.fps);
    }

    #[test]
    fn makespan_matches_pipeline_formula() {
        let sys = SystemConfig::pi_to_1060(40.0);
        let cfg = SimConfig { frames: 10, ..SimConfig::default() };
        let r = simulate(&split_arch(), &pc(), &sys, &cfg);
        let expected = r.frame_latency_s + 9.0 * r.bottleneck_s;
        assert!((r.makespan_s - expected).abs() < 1e-9, "{} vs {expected}", r.makespan_s);
    }

    #[test]
    fn slower_link_slows_split_architectures() {
        let fast = simulate(
            &split_arch(),
            &pc(),
            &SystemConfig::tx2_to_i7(40.0),
            &SimConfig::single_frame(),
        );
        let slow = simulate(
            &split_arch(),
            &pc(),
            &SystemConfig::tx2_to_i7(10.0),
            &SimConfig::single_frame(),
        );
        assert!(slow.frame_latency_s > fast.frame_latency_s);
        // Device-only is link-independent.
        let d_fast = simulate(
            &device_only(),
            &pc(),
            &SystemConfig::tx2_to_i7(40.0),
            &SimConfig::single_frame(),
        );
        let d_slow = simulate(
            &device_only(),
            &pc(),
            &SystemConfig::tx2_to_i7(10.0),
            &SimConfig::single_frame(),
        );
        assert!((d_fast.frame_latency_s - d_slow.frame_latency_s).abs() < 1e-12);
    }

    #[test]
    fn energy_accounts_idle_and_comm() {
        let sys = SystemConfig::pi_to_1060(40.0);
        let r = simulate(&split_arch(), &pc(), &sys, &SimConfig::single_frame());
        let floor = sys.device.run_power_w * r.device_compute_s;
        assert!(r.device_energy_j > floor, "must include idle+comm energy");
    }

    #[test]
    fn noise_is_deterministic() {
        let sys = SystemConfig::tx2_to_1060(40.0);
        let a = simulate(&split_arch(), &pc(), &sys, &SimConfig::default());
        let b = simulate(&split_arch(), &pc(), &sys, &SimConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn evaluator_interface_works() {
        let eval = SimBackend {
            profile: pc(),
            sys: SystemConfig::tx2_to_i7(40.0),
            sim: SimConfig::single_frame(),
            accuracy_fn: |_: &Architecture| 0.92,
        };
        let arch = split_arch();
        let m = eval.evaluate(&arch);
        assert!(m.latency_s > 0.0);
        assert!(m.energy_j > 0.0);
        assert_eq!(m.accuracy, 0.92);
        // The one-pass metrics must match the standalone simulator runs.
        let report = simulate(&arch, &pc(), &eval.sys, &eval.sim);
        assert_eq!(m.latency_s, report.frame_latency_s);
        assert_eq!(m.energy_j, report.device_energy_j);
    }

    /// Zoo with one accurate-but-chatty design and one frugal local design.
    fn chatty_local_zoo() -> ArchitectureZoo {
        let chatty = Architecture::new(vec![
            Op::Combine { dim: 64 },
            Op::Communicate, // ships 1024×64 features: bandwidth-sensitive
            Op::Sample(SampleFn::Knn { k: 10 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let local = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 10 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Max),
        ]);
        ArchitectureZoo::new(vec![
            ScoredArch {
                arch: chatty,
                score: 0.93,
                accuracy: 0.93,
                latency_s: 0.05,
                energy_j: 0.1,
            },
            ScoredArch { arch: local, score: 0.91, accuracy: 0.91, latency_s: 0.02, energy_j: 0.2 },
        ])
    }

    /// `uplinks.len()` segments of 8 frames at 10 fps under a 120 ms SLO
    /// set by the first segment, one uplink each.
    fn link_trace(uplinks: &[f64]) -> ScenarioTrace {
        let slo = 0.12;
        uplinks.iter().enumerate().fold(ScenarioTrace::new("link", 1), |trace, (i, &mbps)| {
            let seg = ScenarioSegment::new(
                format!("seg-{i}"),
                i as f64,
                8,
                ArrivalSpec::Periodic { fps: 10.0 },
                slo,
            )
            .with_uplink_mbps(mbps);
            trace.with_segment(if i == 0 {
                seg.with_constraint(RuntimeConstraint::latency(slo))
            } else {
                seg
            })
        })
    }

    #[test]
    fn replay_moves_off_a_congested_link() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let reports = replay(&link_trace(&[40.0, 2.0, 40.0]), &chatty_local_zoo(), &pc(), &sys)
            .expect("valid trace");
        let picks: Vec<f64> = reports.iter().map(|r| r.measured_accuracy).collect();
        assert_eq!(picks, [0.93, 0.91, 0.93], "2 Mbps must switch the chatty pick to local");
        let swaps: Vec<u64> = reports.iter().map(|r| r.swaps).collect();
        assert_eq!(swaps, [1, 1, 1]);
        assert!(reports.iter().all(|r| r.deadline_hit_rate == 1.0));
    }

    #[test]
    fn replay_on_a_constant_link_swaps_only_on_the_initial_deploy() {
        let sys = SystemConfig::tx2_to_i7(40.0);
        let reports =
            replay(&link_trace(&[40.0; 4]), &chatty_local_zoo(), &pc(), &sys).expect("valid trace");
        let swaps: Vec<u64> = reports.iter().map(|r| r.swaps).collect();
        assert_eq!(swaps, [1, 0, 0, 0]);
    }

    #[test]
    fn replay_is_deterministic() {
        let sys = SystemConfig::pi_to_1060(40.0);
        let trace = link_trace(&[40.0, 2.0, 10.0, 2.0]);
        let run = || replay(&trace, &chatty_local_zoo(), &pc(), &sys).expect("valid trace");
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_stage_guard() {
        // An architecture of only Identity ops still produces a stage list.
        let arch = Architecture::new(vec![Op::Identity, Op::Identity]);
        let stages =
            build_stages(&arch, &pc(), &SystemConfig::tx2_to_i7(40.0), &SimConfig::default());
        assert!(!stages.is_empty());
    }
}
