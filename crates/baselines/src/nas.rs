//! HGNAS-style single-device NAS — the first stage of the strongest
//! baseline *pipeline* the paper compares against: search an efficient
//! architecture for one device (no mapping awareness), then bolt on the
//! best partition afterwards with [`crate::partition::best_partition`]
//! ("HGNAS + Partition").
//!
//! The contrast with GCoDE is the whole point of Motivation ❸: the same
//! search machinery over the same space, minus the fused `Communicate`
//! operation, followed by post-hoc splitting, leaves performance on the
//! table relative to joint optimization. Both pipelines run through the
//! same [`SearchSession`] driver, so the comparison isolates the space and
//! the evaluator, not the plumbing.

use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::eval::backend::{EvalBackend, Fidelity};
use gcode_core::eval::{Evaluator, Metrics, Objective, SearchSession, SearchStrategy};
use gcode_core::search::{RandomSearch, SearchConfig, SearchResult};
use gcode_core::space::DesignSpace;
use gcode_hardware::{Link, Processor, SystemConfig};
use gcode_sim::{simulate, SimConfig};

/// [`Evaluator`] pricing candidates on a *single device* — how a
/// device-focused NAS like HGNAS sees the world (no edge, no link).
struct SingleDeviceEvaluator<F: Fn(&Architecture) -> f64 + Sync> {
    /// Workload being optimized.
    pub profile: WorkloadProfile,
    /// The device everything runs on.
    pub device: Processor,
    /// Accuracy callback.
    pub accuracy_fn: F,
}

impl<F: Fn(&Architecture) -> f64 + Sync> SingleDeviceEvaluator<F> {
    fn device_system(&self) -> SystemConfig {
        // The edge/link are placeholders; a single-device architecture
        // never touches them.
        SystemConfig::new(self.device.clone(), Processor::intel_i7_7700(), Link::mbps(40.0))
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> Evaluator for SingleDeviceEvaluator<F> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        let report =
            simulate(arch, &self.profile, &self.device_system(), &SimConfig::single_frame());
        Metrics {
            accuracy: (self.accuracy_fn)(arch),
            latency_s: report.frame_latency_s,
            energy_j: report.device_energy_j,
        }
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> EvalBackend for SingleDeviceEvaluator<F> {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Simulated
    }

    fn cost_hint(&self) -> f64 {
        11.0 // single-frame simulator probe
    }

    fn name(&self) -> &str {
        "single-device-sim"
    }
}

/// The single-device NAS baseline as a [`SearchStrategy`]: identical
/// search machinery to GCoDE's Alg. 1, expected to run against a
/// mapping-free ([`DesignSpace::single_device`]) space and a
/// `SingleDeviceEvaluator`.
#[derive(Debug, Clone, Copy)]
pub struct SingleDeviceNas {
    /// Search hyper-parameters.
    pub cfg: SearchConfig,
}

impl SingleDeviceNas {
    /// Builds the strategy from its hyper-parameters.
    pub fn new(cfg: SearchConfig) -> Self {
        Self { cfg }
    }
}

impl SearchStrategy for SingleDeviceNas {
    fn search(&self, session: &mut SearchSession<'_>) -> SearchResult {
        RandomSearch::new(self.cfg).search(session)
    }
}

/// Runs a single-device hardware-aware NAS for `device`.
pub fn hgnas_search(
    profile: WorkloadProfile,
    device: Processor,
    cfg: &SearchConfig,
    objective: &Objective,
    accuracy_fn: impl Fn(&Architecture) -> f64 + Sync,
) -> SearchResult {
    let space = DesignSpace::single_device(profile);
    let eval = SingleDeviceEvaluator { profile, device, accuracy_fn };
    SearchSession::new(&space, &eval).with_objective(*objective).run(&SingleDeviceNas::new(*cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};

    fn cfg() -> SearchConfig {
        SearchConfig { iterations: 300, seed: 5, ..SearchConfig::default() }
    }

    fn objective() -> Objective {
        Objective::new(0.25, 1.5, 8.0)
    }

    fn acc() -> impl Fn(&Architecture) -> f64 {
        let s = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
        move |a: &Architecture| s.overall_accuracy(a)
    }

    #[test]
    fn hgnas_search_yields_device_only_designs() {
        let r = hgnas_search(
            WorkloadProfile::modelnet40(),
            Processor::jetson_tx2(),
            &cfg(),
            &objective(),
            acc(),
        );
        let best = r.best().expect("found");
        assert_eq!(best.arch.num_communicates(), 0);
        assert!(best.latency_s < 1.5);
    }

    #[test]
    fn device_choice_changes_the_searched_design() {
        let a = hgnas_search(
            WorkloadProfile::modelnet40(),
            Processor::jetson_tx2(),
            &cfg(),
            &objective(),
            acc(),
        );
        let b = hgnas_search(
            WorkloadProfile::modelnet40(),
            Processor::raspberry_pi_4b(),
            &cfg(),
            &objective(),
            acc(),
        );
        // Same seed, different hardware sensitivities: the winners' costs
        // must reflect the device (identical archs are possible but their
        // latencies must differ).
        let (la, lb) = (a.best().expect("a").latency_s, b.best().expect("b").latency_s);
        assert!((la - lb).abs() > 1e-6, "device model should matter: {la} vs {lb}");
    }
}
