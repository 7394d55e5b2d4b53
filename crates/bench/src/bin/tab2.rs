//! Table 2: ModelNet40 performance comparison across four device-edge
//! systems and two bandwidths, all methods and collaboration modes.

use gcode_baselines::models;
use gcode_baselines::partition::{best_partition, PartitionObjective};
use gcode_bench::{baseline_rows, best_gcode, header, measure, print_row};
use gcode_core::arch::WorkloadProfile;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_hardware::SystemConfig;
use gcode_sim::SimConfig;

fn main() {
    let profile = WorkloadProfile::modelnet40();
    let widths = [24usize, 12, 4, 18, 10];

    for bandwidth in [40.0, 10.0] {
        header(&format!(
            "Table 2 — ModelNet40, S_L <= {bandwidth} Mbps (latency ms, device energy J)"
        ));
        for sys in SystemConfig::paper_systems(bandwidth) {
            println!("\n--- {} ---", sys.label());
            print_row(
                ["method", "OA (%)", "mode", "latency (ms)", "energy (J)"]
                    .map(String::from)
                    .as_ref(),
                &widths,
            );
            let dgcnn = baseline_rows(models::dgcnn(), &profile, &sys);
            let (base_ms, base_j) = dgcnn.device;
            let mut rows: Vec<(String, String, &str, f64, f64)> = Vec::new();
            for b in [
                dgcnn,
                baseline_rows(models::optimized_dgcnn(), &profile, &sys),
                baseline_rows(models::hgnas(), &profile, &sys),
            ] {
                let acc = format!("{:.1}", b.baseline.overall_accuracy);
                rows.push((b.baseline.name.clone(), acc.clone(), "D", b.device.0, b.device.1));
                rows.push((b.baseline.name.clone(), acc, "E", b.edge.0, b.edge.1));
            }
            // BRANCHY-GNN co-inference.
            let branchy = models::branchy_gnn();
            let (ms, j) = measure(&branchy.arch, &profile, &sys);
            rows.push((
                branchy.name.clone(),
                format!("{:.1}", branchy.overall_accuracy),
                "Co",
                ms,
                j,
            ));
            // HGNAS + best partition.
            let part = best_partition(
                &models::hgnas().arch,
                &profile,
                &sys,
                &SimConfig::single_frame(),
                PartitionObjective::Latency,
            );
            rows.push((
                "HGNAS+Partition".to_string(),
                "92.2".to_string(),
                "Co",
                part.report.frame_latency_s * 1e3,
                part.report.device_energy_j,
            ));
            // GCoDE.
            let best = best_gcode(SurrogateTask::ModelNet40, &sys, 7);
            let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
            rows.push((
                "GCoDE".to_string(),
                format!(
                    "{:.1} (mAcc {:.1})",
                    best.accuracy * 100.0,
                    surrogate.balanced_accuracy(&best.arch) * 100.0
                ),
                "Co",
                best.latency_s * 1e3,
                best.energy_j,
            ));

            for (name, acc, mode, ms, j) in rows {
                print_row(
                    &[
                        name,
                        acc,
                        mode.to_string(),
                        format!("{ms:8.1} ({:5.1}x)", base_ms / ms),
                        format!("{j:6.2} ({:5.1}%)", (1.0 - j / base_j) * 100.0),
                    ],
                    &widths,
                );
            }
        }
    }
    println!(
        "\nShape checks: GCoDE should hold the lowest latency/energy per system; \
         Edge-Only should lag Co on slow links; speedups grow on the Pi device."
    );
}
