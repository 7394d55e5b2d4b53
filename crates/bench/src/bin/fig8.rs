//! Figure 8: accuracy-vs-latency design-space exploration scatter with
//! Jetson TX2 as the device (i7 edge, 40 Mbps): GCoDE's zoo against every
//! baseline point, approaching the ideal top-left corner.

use gcode_baselines::models;
use gcode_baselines::partition::{best_partition, PartitionObjective};
use gcode_bench::{header, measure, print_row, search, table_spec};
use gcode_core::arch::WorkloadProfile;
use gcode_core::surrogate::SurrogateTask;
use gcode_hardware::SystemConfig;
use gcode_sim::SimConfig;

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let widths = [26usize, 10, 14];
    header("Fig. 8 — accuracy vs latency, TX2 ⇌ i7 @ 40 Mbps");
    print_row(["point", "OA (%)", "latency (ms)"].map(String::from).as_ref(), &widths);

    for b in [models::dgcnn(), models::optimized_dgcnn(), models::hgnas(), models::branchy_gnn()] {
        let (ms, _) = measure(&b.arch, &profile, &sys);
        print_row(
            &[b.name.clone(), format!("{:6.1}", b.overall_accuracy), format!("{ms:10.1}")],
            &widths,
        );
    }
    let part = best_partition(
        &models::hgnas().arch,
        &profile,
        &sys,
        &SimConfig::single_frame(),
        PartitionObjective::Latency,
    );
    print_row(
        &[
            "HGNAS+Partition".to_string(),
            "92.2".to_string(),
            format!("{:10.1}", part.report.frame_latency_s * 1e3),
        ],
        &widths,
    );

    // GCoDE: the whole zoo with λ sweep to trace the Pareto frontier.
    let dgcnn = models::dgcnn();
    let (anchor_ms, anchor_j) = measure(&dgcnn.arch, &profile, &sys);
    let mut spec = table_spec(sys, SurrogateTask::ModelNet40, anchor_ms / 1e3, anchor_j, 13);
    for (lambda, tag) in [(0.05, "λ=0.05"), (0.25, "λ=0.25"), (1.0, "λ=1.00")] {
        spec.objective.lambda = lambda;
        let (_, result, _) = search(&spec);
        for (i, z) in result.zoo.iter().take(3).enumerate() {
            print_row(
                &[
                    format!("GCoDE {tag} #{i}"),
                    format!("{:6.1}", z.accuracy * 100.0),
                    format!("{:10.1}", z.latency_s * 1e3),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nShape checks: GCoDE points push the Pareto frontier toward the \
         top-left; smaller λ trades latency for accuracy, larger λ the \
         reverse (paper Sec. 4.2)."
    );
}
