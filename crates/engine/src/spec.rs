//! One search as one value: a [`SearchSpec`] names everything that shapes
//! a search — the device–edge system, the task and the one workload
//! profile every tier prices (the Measured tier's frame stream included),
//! the tiers and their keep fractions, the objective and the search
//! hyper-parameters. `gcode search` parses its flags into one, and every
//! served session runs [`SearchSpec::served`]; `gcode_server::run_search`
//! builds the tiers and runs it. Its canonical JSON, minus `workers`, is
//! the cache tag a persistent evaluation log files the run's records under.

use crate::proto::{SessionSpec, SessionTask};
use crate::FleetSpec;
use gcode_core::arch::WorkloadProfile;
use gcode_core::eval::backend::Fidelity;
use gcode_core::eval::scenario::ScenarioTrace;
use gcode_core::eval::Objective;
use gcode_core::search::SearchConfig;
use gcode_graph::datasets::{PointCloudDataset, Sample, TextGraphDataset};
use gcode_hardware::SystemConfig;
use serde::{Deserialize, Serialize};

/// Hard cap on a served session's trial budget in both search stages
/// (stage-1 `iterations` and stage-2 `tuning_iterations`) — admission
/// control for the search stage itself: one tenant must not park a worker
/// slot on a year-long search.
pub const MAX_SESSION_ITERATIONS: usize = 20_000;

/// Everything that shapes one search. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// The device–edge system every tier prices against; the engine
    /// tier's uplink is capped at its link bandwidth.
    pub system: SystemConfig,
    /// The task whose calibrated surrogate prices accuracy on every tier.
    pub task: SessionTask,
    /// The one workload every tier prices, the engine tier's frames
    /// included ([`stream`](Self::stream)).
    pub profile: WorkloadProfile,
    /// The tiers, cheapest first, each named by its fidelity: one is a
    /// single backend, two or more a fidelity ladder.
    pub tiers: Vec<Fidelity>,
    /// A ladder's escalation fractions: one for every step, or one per
    /// step, bottom step first.
    pub keep_fracs: Vec<f64>,
    /// Frames the engine tier measures per candidate.
    pub frames: usize,
    /// Uncounted frames that prime the pipeline before measurement.
    pub warmup: usize,
    /// Trade-off weight and performance constraints.
    pub objective: Objective,
    /// Search hyper-parameters, the seed included.
    pub config: SearchConfig,
    /// Batch-driver threads: the one field that never shapes a metric.
    pub workers: usize,
    /// Deploy the finished zoo on an edge fleet and measure it.
    pub measure_zoo: bool,
    /// Scenario trace to replay against the finished zoo.
    pub scenario: Option<ScenarioTrace>,
}

impl SearchSpec {
    /// A paper-scale search of `task` on `system` — `gcode search`'s
    /// defaults: the task's full workload profile priced by the simulator
    /// alone, the paper's `T`, one worker.
    pub fn paper(system: SystemConfig, task: SessionTask) -> Self {
        Self {
            system,
            task,
            profile: match task {
                SessionTask::ModelNet40 => WorkloadProfile::modelnet40(),
                SessionTask::Mr => WorkloadProfile::mr(),
            },
            tiers: vec![Fidelity::Simulated],
            keep_fracs: vec![0.25],
            frames: 8,
            warmup: 2,
            objective: Objective::new(0.25, 0.3, 3.0),
            config: SearchConfig::default(),
            workers: 1,
            measure_zoo: false,
            scenario: None,
        }
    }

    /// The daemon's preset for a client's session: reduced-size mini
    /// workloads (the serve loop optimizes for session throughput; the
    /// space and cost structure is what matters, not the node count) on
    /// TX2 → i7 at 40 Mbps, an analytic→sim ladder at keep 0.25, both
    /// trial budgets capped at [`MAX_SESSION_ITERATIONS`], and a
    /// four-frame measurement stream.
    pub fn served(session: &SessionSpec) -> Self {
        let mut config = session.config;
        config.iterations = config.iterations.min(MAX_SESSION_ITERATIONS);
        config.tuning_iterations = config.tuning_iterations.min(MAX_SESSION_ITERATIONS);
        Self {
            profile: match session.task {
                SessionTask::ModelNet40 => WorkloadProfile::modelnet40_mini(24, 4),
                SessionTask::Mr => WorkloadProfile {
                    num_nodes: 12,
                    in_dim: 24,
                    provides_graph: true,
                    provided_degree: 4,
                    num_classes: 2,
                },
            },
            tiers: vec![Fidelity::Analytic, Fidelity::Simulated],
            frames: 4,
            warmup: 0,
            objective: session.objective,
            config,
            measure_zoo: session.measure_zoo,
            scenario: session.scenario.clone(),
            ..Self::paper(SystemConfig::tx2_to_i7(40.0), session.task)
        }
    }

    /// The Measured stream: `warmup + frames` samples of the profile's
    /// own dataset — point clouds of `num_nodes` points in `num_classes`
    /// classes, or text graphs of about `num_nodes` words with `in_dim`
    /// features — at one fixed seed, so every run of a spec measures the
    /// identical frames.
    pub fn stream(&self) -> Vec<Sample> {
        const SEED: u64 = 47;
        let (n, p) = (self.warmup + self.frames, self.profile);
        match self.task {
            SessionTask::ModelNet40 => {
                PointCloudDataset::generate(n, p.num_nodes, p.num_classes, SEED).samples().to_vec()
            }
            SessionTask::Mr => {
                TextGraphDataset::generate(n, p.num_nodes, p.in_dim, SEED).samples().to_vec()
            }
        }
    }

    /// The cache tag of this spec's run on `fleet`: the spec's canonical
    /// JSON with `workers` zeroed (worker count never shapes a metric),
    /// then the fleet's endpoints. Replay is only bit-exact when the whole
    /// run matches the one that wrote the records: a ladder prices a culled
    /// candidate with its cheap tier, so batch composition counts too.
    pub fn cache_tag(&self, fleet: &FleetSpec) -> String {
        let spec = Self { workers: 0, ..self.clone() };
        let json = serde_json::to_string(&spec).expect("a search spec always serializes");
        format!("{json}|fleet:{fleet}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::cachelog::tag_key;
    use gcode_hardware::Link;

    #[test]
    fn cache_tag_names_everything_that_shapes_a_search_but_workers() {
        let base = SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SessionTask::ModelNet40);
        let fleet = FleetSpec::default();
        let tag = base.cache_tag(&fleet);
        assert_eq!(tag, base.clone().cache_tag(&fleet), "one spec, one tag");
        let threaded = SearchSpec { workers: 4, ..base.clone() };
        assert_eq!(threaded.cache_tag(&fleet), tag, "worker count never shapes a metric");

        fn trace() -> ScenarioTrace {
            let json = include_str!("../../../examples/scenario_trace.json");
            ScenarioTrace::from_json(json).expect("the example trace parses")
        }
        type Edit = fn(&mut SearchSpec);
        let edits: &[(&str, Edit)] = &[
            ("system", |s| s.system.link = Link::mbps(10.0)),
            ("task", |s| s.task = SessionTask::Mr),
            ("profile", |s| s.profile.num_nodes = 512),
            ("tiers", |s| s.tiers = vec![Fidelity::Analytic, Fidelity::Simulated]),
            ("keep_fracs", |s| s.keep_fracs = vec![0.5]),
            ("frames", |s| s.frames += 1),
            ("warmup", |s| s.warmup += 1),
            ("objective", |s| s.objective.lambda = 0.5),
            ("config", |s| s.config.seed = 1),
            ("measure_zoo", |s| s.measure_zoo = true),
            ("scenario", |s| s.scenario = Some(trace())),
        ];
        let mut tags = vec![tag.clone(), base.cache_tag(&"loopback:2".parse().expect("spec"))];
        for (field, edit) in edits {
            let mut spec = base.clone();
            edit(&mut spec);
            assert_ne!(spec.cache_tag(&fleet), tag, "{field}");
            tags.push(spec.cache_tag(&fleet));
        }
        let distinct: std::collections::HashSet<&String> = tags.iter().collect();
        assert_eq!(distinct.len(), edits.len() + 2, "every field and the fleet move the tag");
    }

    /// FNV-1a of the JSON of each task's served measurement stream, as the
    /// daemon generated it before the stream was derived from the spec.
    const SERVED_STREAM_DIGESTS: [(SessionTask, u64); 2] = [
        (SessionTask::ModelNet40, 0x5113_58cd_174d_591f),
        (SessionTask::Mr, 0xdd2c_de0e_2a2e_363a),
    ];

    #[test]
    fn the_served_preset_measures_the_frames_the_daemon_always_measured() {
        for (task, digest) in SERVED_STREAM_DIGESTS {
            let session = SessionSpec {
                config: SearchConfig::default(),
                objective: Objective::new(0.25, 1.0, 5.0),
                task,
                measure_zoo: true,
                scenario: None,
            };
            let stream = SearchSpec::served(&session).stream();
            let json = serde_json::to_string(&stream).expect("samples serialize");
            assert_eq!(tag_key(&json), digest, "{task:?}: served frames moved");
        }
    }
}
