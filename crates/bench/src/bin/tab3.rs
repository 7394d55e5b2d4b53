//! Table 3: MR text-classification comparison under 40 Mbps.

use gcode_baselines::models;
use gcode_baselines::partition::{best_partition, PartitionObjective};
use gcode_bench::{baseline_rows, best_gcode, header, measure, print_row};
use gcode_core::arch::WorkloadProfile;
use gcode_core::surrogate::SurrogateTask;
use gcode_hardware::SystemConfig;
use gcode_sim::SimConfig;

fn main() {
    let profile = WorkloadProfile::mr();
    let widths = [18usize, 10, 4, 14, 12];
    header("Table 3 — MR, 40 Mbps (latency ms, device energy J)");

    for sys in SystemConfig::paper_systems(40.0) {
        println!("\n--- {} ---", sys.label());
        print_row(
            ["method", "acc (%)", "mode", "latency (ms)", "energy (J)"].map(String::from).as_ref(),
            &widths,
        );
        let pnas = baseline_rows(models::pnas_text(), &profile, &sys);
        let branchy = models::branchy_text();
        let (ms, j) = measure(&branchy.arch, &profile, &sys);
        let mut rows: Vec<(String, f64, &str, f64, f64)> = vec![
            ("BRANCHY-GNN".into(), branchy.overall_accuracy, "Co", ms, j),
            ("PNAS".into(), pnas.baseline.overall_accuracy, "D", pnas.device.0, pnas.device.1),
            ("PNAS".into(), pnas.baseline.overall_accuracy, "E", pnas.edge.0, pnas.edge.1),
        ];
        let part = best_partition(
            &models::pnas_text().arch,
            &profile,
            &sys,
            &SimConfig::single_frame(),
            PartitionObjective::Latency,
        );
        rows.push((
            "PNAS+Partition".into(),
            pnas.baseline.overall_accuracy,
            "Co",
            part.report.frame_latency_s * 1e3,
            part.report.device_energy_j,
        ));
        let best = best_gcode(SurrogateTask::Mr, &sys, 11);
        let (ms, j) = (best.latency_s * 1e3, best.energy_j);
        rows.push(("GCoDE".into(), best.accuracy * 100.0, "Co", ms, j));

        for (name, acc, mode, ms, j) in rows {
            print_row(
                &[
                    name,
                    format!("{acc:.1}"),
                    mode.to_string(),
                    format!("{ms:9.2}"),
                    format!("{j:9.3}"),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nShape checks: GCoDE fastest and most energy-frugal per system; \
         Pi beats TX2 on this tiny-graph workload; partition helps PNAS but \
         less than co-design."
    );
}
