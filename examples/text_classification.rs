//! MR-style text-graph classification: search a design for the tiny-graph /
//! wide-feature regime, train it for real on synthetic sentiment graphs,
//! and compare the mapping against the point-cloud case.
//!
//! ```sh
//! cargo run --release --example text_classification
//! ```

use gcode::core::arch::WorkloadProfile;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::core::space::DesignSpace;
use gcode::core::supernet::SuperNet;
use gcode::core::surrogate::SurrogateTask;
use gcode::engine::{FleetSpec, SearchSpec};
use gcode::graph::datasets::TextGraphDataset;
use gcode::hardware::SystemConfig;
use gcode::server::run_search;
use std::sync::atomic::AtomicU64;

fn main() {
    // MR regime: ~17-node word graphs, wide embeddings (64 here for speed;
    // the paper's MR uses 300), binary labels.
    let profile = WorkloadProfile {
        num_nodes: 17,
        in_dim: 64,
        provides_graph: true,
        provided_degree: 4,
        num_classes: 2,
    };

    // Fast surrogate-driven search, as the table benches do.
    let spec = SearchSpec {
        profile,
        // The paper's MR designs land well below 30 ms.
        objective: Objective::new(0.3, 0.030, 0.3),
        config: SearchConfig { iterations: 600, seed: 17, ..SearchConfig::default() },
        ..SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SurrogateTask::Mr)
    };
    let (_, result, _) =
        run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0)).expect("a valid spec");
    let best = result.best().expect("MR constraints are easy to meet");
    println!("searched MR design:\n{}", best.arch.render());
    println!(
        "surrogate accuracy {:.1}%  latency {:.2} ms  energy {:.3} J",
        best.accuracy * 100.0,
        best.latency_s * 1e3,
        best.energy_j
    );

    // Now train that architecture for real on synthetic sentiment graphs.
    let dataset = TextGraphDataset::generate(120, 17, 64, 23);
    let (train, val) = dataset.split(0.75);
    let mut supernet = SuperNet::new(DesignSpace::paper(profile), 29);
    let loss = supernet.train_arch(&best.arch, &train, 80, 0.02);
    let acc = supernet.accuracy(&best.arch, &val);
    println!(
        "\ntrained on synthetic MR stand-in: final loss {loss:.3}, validation accuracy {:.1}%",
        acc * 100.0
    );
    println!(
        "\nnote the mapping: on tiny graphs the search keeps wide Combine work \
         where dispatch overhead is lowest and transfers reduced features — \
         compare examples/pointcloud_pipeline.rs where KNN-heavy work moves \
         to the edge (paper Fig. 11)."
    );
}
