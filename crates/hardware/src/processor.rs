//! Roofline-style processor models of the four platforms in the paper.

use crate::cost::{AccessPattern, OpCost};
use serde::{Deserialize, Serialize};

/// Broad class of a processor; used by cost heuristics and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessorKind {
    /// Desktop/server-class CPU (Intel i7-7700).
    Cpu,
    /// Low-power embedded CPU (Raspberry Pi 4B).
    EmbeddedCpu,
    /// Discrete or integrated GPU (GTX 1060, Jetson TX2's iGPU).
    Gpu,
}

/// An analytical processor model.
///
/// Latency of an op is a roofline over effective compute and effective
/// bandwidth, where "effective" divides the peak by the penalty matching the
/// op's [`AccessPattern`], plus a constant per-kernel dispatch overhead:
///
/// ```text
/// t = overhead + max(flops / (gflops/pen), bytes / (bw/pen))
/// ```
///
/// The presets are calibrated against the paper's measured anchors; see the
/// crate docs and `gcode-baselines`' calibration tests.
///
/// # Example
///
/// ```
/// use gcode_hardware::{OpCost, Processor};
///
/// let gpu = Processor::nvidia_gtx_1060();
/// let dense = OpCost::regular(1_000_000_000, 0);
/// let knn = OpCost::selection(1_000_000_000, 0);
/// assert!(gpu.latency(&knn) > 10.0 * gpu.latency(&dense));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Processor {
    /// Human-readable platform name.
    pub name: String,
    /// Processor class.
    pub kind: ProcessorKind,
    /// Effective dense throughput in GFLOP/s.
    pub gflops: f64,
    /// Effective streaming memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Compute slowdown multiplier for [`AccessPattern::Selection`] ops.
    pub select_penalty: f64,
    /// Bandwidth slowdown multiplier for [`AccessPattern::Selection`] ops
    /// (GPUs mask latency on streaming reads even when the *ranking*
    /// serializes, so the two penalties differ).
    pub select_mem_penalty: f64,
    /// Compute slowdown multiplier for [`AccessPattern::Gather`] ops.
    pub gather_penalty: f64,
    /// Bandwidth slowdown multiplier for [`AccessPattern::Gather`] ops.
    pub gather_mem_penalty: f64,
    /// Per-kernel dispatch overhead in seconds.
    pub op_overhead_s: f64,
    /// Idle power draw in watts (device-side energy model).
    pub idle_power_w: f64,
    /// Active-compute power draw in watts.
    pub run_power_w: f64,
}

impl Processor {
    /// Jetson TX2 (used as a *device*). GPU-class: strong dense compute,
    /// heavy selection penalty — KNN dominates its DGCNN profile (Fig. 3).
    pub fn jetson_tx2() -> Self {
        Self {
            name: "Jetson TX2".to_string(),
            kind: ProcessorKind::Gpu,
            gflops: 65.0,
            mem_bw_gbs: 30.0,
            select_penalty: 16.0,
            select_mem_penalty: 30.0,
            gather_penalty: 2.0,
            gather_mem_penalty: 2.0,
            op_overhead_s: 1.5e-3,
            idle_power_w: 1.9,
            run_power_w: 10.5,
        }
    }

    /// Raspberry Pi 4B (used as a *device*). Everything is slow; no single
    /// op dominates (Fig. 3).
    pub fn raspberry_pi_4b() -> Self {
        Self {
            name: "Raspberry Pi 4B".to_string(),
            kind: ProcessorKind::EmbeddedCpu,
            gflops: 8.0,
            mem_bw_gbs: 2.0,
            select_penalty: 3.0,
            select_mem_penalty: 3.0,
            gather_penalty: 6.0,
            gather_mem_penalty: 6.0,
            op_overhead_s: 0.5e-3,
            idle_power_w: 2.7,
            run_power_w: 5.0,
        }
    }

    /// Intel i7-7700 (used as an *edge*). Gather-heavy Aggregate is its
    /// bottleneck on point clouds; wide Combine dominates on MR (Fig. 3).
    pub fn intel_i7_7700() -> Self {
        Self {
            name: "Intel i7-7700".to_string(),
            kind: ProcessorKind::Cpu,
            gflops: 60.0,
            mem_bw_gbs: 10.0,
            select_penalty: 5.0,
            select_mem_penalty: 2.0,
            gather_penalty: 10.0,
            gather_mem_penalty: 10.0,
            op_overhead_s: 0.15e-3,
            idle_power_w: 10.0,
            run_power_w: 65.0,
        }
    }

    /// Nvidia GTX 1060 (used as an *edge*). Fastest platform overall but
    /// with the harshest selection penalty (Fig. 3: KNN ≈ everything).
    pub fn nvidia_gtx_1060() -> Self {
        Self {
            name: "Nvidia GTX 1060".to_string(),
            kind: ProcessorKind::Gpu,
            gflops: 1200.0,
            mem_bw_gbs: 120.0,
            select_penalty: 200.0,
            select_mem_penalty: 4.0,
            gather_penalty: 2.0,
            gather_mem_penalty: 2.0,
            op_overhead_s: 1.0e-3,
            idle_power_w: 8.0,
            run_power_w: 90.0,
        }
    }

    /// Compute penalty multiplier applying to `pattern` on this processor.
    pub fn penalty(&self, pattern: AccessPattern) -> f64 {
        match pattern {
            AccessPattern::Regular => 1.0,
            AccessPattern::Gather => self.gather_penalty,
            AccessPattern::Selection => self.select_penalty,
        }
    }

    /// Bandwidth penalty multiplier applying to `pattern`.
    fn mem_penalty(&self, pattern: AccessPattern) -> f64 {
        match pattern {
            AccessPattern::Regular => 1.0,
            AccessPattern::Gather => self.gather_mem_penalty,
            AccessPattern::Selection => self.select_mem_penalty,
        }
    }

    /// Latency in seconds of one op on this processor.
    pub fn latency(&self, cost: &OpCost) -> f64 {
        if *cost == OpCost::ZERO {
            return 0.0;
        }
        let compute = cost.flops as f64 / (self.gflops * 1e9 / self.penalty(cost.pattern));
        let memory = cost.bytes as f64 / (self.mem_bw_gbs * 1e9 / self.mem_penalty(cost.pattern));
        self.op_overhead_s + compute.max(memory)
    }
}

impl std::fmt::Display for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_is_free() {
        let p = Processor::jetson_tx2();
        assert_eq!(p.latency(&OpCost::ZERO), 0.0);
    }

    #[test]
    fn overhead_floors_nonzero_ops() {
        let p = Processor::intel_i7_7700();
        let tiny = OpCost::regular(1, 1);
        assert!(p.latency(&tiny) >= p.op_overhead_s);
    }

    #[test]
    fn selection_penalty_bites_gpus_harder_than_cpus() {
        let gpu = Processor::nvidia_gtx_1060();
        let cpu = Processor::intel_i7_7700();
        let knn = OpCost::selection(500_000_000, 8_000_000);
        let dense = OpCost::regular(500_000_000, 8_000_000);
        let gpu_ratio = gpu.latency(&knn) / gpu.latency(&dense);
        let cpu_ratio = cpu.latency(&knn) / cpu.latency(&dense);
        assert!(gpu_ratio > cpu_ratio);
    }

    #[test]
    fn gather_penalty_bites_cpus_harder_than_gpus() {
        let gpu = Processor::nvidia_gtx_1060();
        let cpu = Processor::intel_i7_7700();
        let agg = OpCost::gather(1_000_000, 100_000_000);
        let dense = OpCost::regular(1_000_000, 100_000_000);
        let gpu_ratio = gpu.latency(&agg) / gpu.latency(&dense);
        let cpu_ratio = cpu.latency(&agg) / cpu.latency(&dense);
        assert!(cpu_ratio > gpu_ratio);
    }

    #[test]
    fn platform_speed_ordering_on_dense_work() {
        let work = OpCost::regular(2_000_000_000, 50_000_000);
        let pi = Processor::raspberry_pi_4b().latency(&work);
        let i7 = Processor::intel_i7_7700().latency(&work);
        let tx2 = Processor::jetson_tx2().latency(&work);
        let g1060 = Processor::nvidia_gtx_1060().latency(&work);
        assert!(g1060 < tx2 && tx2 < i7 && i7 < pi);
    }

    #[test]
    fn latency_monotone_in_flops() {
        let p = Processor::raspberry_pi_4b();
        let small = OpCost::regular(1_000_000, 0);
        let large = OpCost::regular(2_000_000, 0);
        assert!(p.latency(&small) < p.latency(&large));
    }
}
