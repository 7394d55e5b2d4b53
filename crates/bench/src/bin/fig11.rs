//! Figure 11: visualization of the architectures GCoDE designs for the
//! TX2 ⇌ i7 system on both workloads, rendered as device/edge lanes.

use gcode_bench::{best_gcode, header};
use gcode_core::surrogate::SurrogateTask;
use gcode_hardware::SystemConfig;

fn main() {
    let sys = SystemConfig::tx2_to_i7(40.0);
    for (label, task, seed) in
        [("ModelNet40", SurrogateTask::ModelNet40, 7u64), ("MR", SurrogateTask::Mr, 11)]
    {
        header(&format!("Fig. 11 — GCoDE design for TX2 ⇌ i7 on {label}"));
        let best = best_gcode(task, &sys, seed);
        println!("{}", best.arch.render());
        println!(
            "accuracy {:.1}%  latency {:.1} ms  device energy {:.3} J  (score {:.3})",
            best.accuracy * 100.0,
            best.latency_s * 1e3,
            best.energy_j,
            best.score
        );
    }
    println!(
        "\nShape checks: on ModelNet40 the design offloads KNN-heavy work away \
         from the TX2 (the paper maps KNN to the KNN-friendly i7); on MR the \
         bottleneck Combine stays on the TX2 and data crosses after dimension \
         reduction."
    );
}
