//! The system performance predictor (Sec. 3.5 / Fig. 7): architecture-graph
//! abstraction, enhanced node features, and a GIN regressor (with the GCN
//! and one-hot ablations of Fig. 10b).

use crate::arch::{Architecture, WorkloadProfile};
use crate::cost::trace;
use crate::op::{OpKind, Placement};
use gcode_graph::CsrGraph;
use gcode_hardware::SystemConfig;
use gcode_nn::gcn::GcnRegressor;
use gcode_nn::gin::GinRegressor;
use gcode_tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Node feature construction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// One-hot op kind ⊕ z-scored per-op LUT latency on the mapped
    /// processor — the paper's "enhanced" features.
    Enhanced,
    /// One-hot op kind only (HGNAS-style; the ablation's weak variant).
    OneHot,
}

/// Regressor backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backbone {
    /// 3 × GIN(mean) + global sum pooling (the paper's choice).
    Gin,
    /// 3 × GCN + global sum pooling (ablation).
    Gcn,
}

/// Predictor hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Hidden width (paper: 1024; tests use far less).
    pub hidden: usize,
    /// Number of message-passing layers (paper: 3).
    pub layers: usize,
    /// Training epochs (paper: 200).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Feature strategy.
    pub features: FeatureMode,
    /// Backbone choice.
    pub backbone: Backbone,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            layers: 3,
            epochs: 120,
            lr: 3e-3,
            features: FeatureMode::Enhanced,
            backbone: Backbone::Gin,
            seed: 0,
        }
    }
}

/// Number of one-hot node-type channels: Input, Output, Global + 6 op kinds.
const NODE_TYPE_CHANNELS: usize = 9;

/// Total feature width (one-hot ⊕ latency channel).
pub const FEATURE_DIM: usize = NODE_TYPE_CHANNELS + 1;

/// Z-score parameters for the latency feature channel.
///
/// The paper normalizes the LUT latencies *globally* ("to mitigate the
/// effect of varying operation magnitudes, latency values are normalized
/// using z-score normalization") — the statistics are those of the whole
/// operation-latency LUT, not of one architecture, so absolute magnitude
/// survives and global sum pooling can recover the total latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LatencyNorm {
    /// Mean op latency, milliseconds.
    pub mean_ms: f64,
    /// Standard deviation, milliseconds.
    pub std_ms: f64,
}

impl Default for LatencyNorm {
    fn default() -> Self {
        // Ballpark statistics of the paper-scale LUT (ms-scale ops).
        Self { mean_ms: 5.0, std_ms: 15.0 }
    }
}

impl LatencyNorm {
    /// Fits the normalization to a population of per-op latencies (ms).
    fn fit(values_ms: &[f64]) -> Self {
        if values_ms.is_empty() {
            return Self::default();
        }
        let n = values_ms.len() as f64;
        let mean = values_ms.iter().sum::<f64>() / n;
        let var = values_ms.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self { mean_ms: mean, std_ms: var.sqrt().max(1e-9) }
    }

    /// Normalizes one latency value.
    fn apply(&self, ms: f64) -> f64 {
        (ms - self.mean_ms) / self.std_ms
    }
}

fn node_type_index(kind: Option<OpKind>) -> usize {
    match kind {
        None => 0, // set explicitly by caller for Input/Output/Global
        Some(OpKind::Sample) => 3,
        Some(OpKind::Aggregate) => 4,
        Some(OpKind::Communicate) => 5,
        Some(OpKind::Combine) => 6,
        Some(OpKind::GlobalPool) => 7,
        Some(OpKind::Identity) => 8,
    }
}

/// Abstracts an architecture into the predictor's input graph:
/// `Input → op₁ → … → op_L → Output` dataflow edges (both directions so
/// information flows under any aggregation), self-connections, and a global
/// node linked to every other node (Sec. 3.5, "Graph abstraction").
///
/// Returns `(graph, node_features)`; features follow `mode`.
pub fn abstract_architecture(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    mode: FeatureMode,
) -> (CsrGraph, Matrix) {
    abstract_architecture_with_norm(arch, profile, sys, mode, &LatencyNorm::default())
}

/// [`abstract_architecture`] with explicit latency normalization — used by
/// a trained [`LatencyPredictor`], which fits the normalization on its
/// training population.
fn abstract_architecture_with_norm(
    arch: &Architecture,
    profile: &WorkloadProfile,
    sys: &SystemConfig,
    mode: FeatureMode,
    norm: &LatencyNorm,
) -> (CsrGraph, Matrix) {
    let l = arch.len();
    let input = l; // node ids: 0..l are ops
    let output = l + 1;
    let global = l + 2;
    let n = l + 3;

    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(4 * n);
    let mut chain: Vec<u32> = Vec::with_capacity(l + 2);
    chain.push(input as u32);
    chain.extend(0..l as u32);
    chain.push(output as u32);
    for w in chain.windows(2) {
        edges.push((w[0], w[1]));
        edges.push((w[1], w[0]));
    }
    for v in 0..n as u32 {
        if v != global as u32 {
            edges.push((global as u32, v));
            edges.push((v, global as u32));
        }
    }
    let graph = CsrGraph::from_edges(n, &edges).with_self_loops();

    // Per-node LUT latency (ms) on the mapped processor.
    let traced = trace(arch, profile);
    let mut latencies = vec![0.0f64; n];
    for (i, t) in traced.iter().enumerate() {
        latencies[i] = if t.op.kind() == OpKind::Communicate {
            sys.link.transfer_time(t.transfer_bytes) * 1e3
        } else {
            let proc = match t.placement {
                Placement::Device => &sys.device,
                Placement::Edge => &sys.edge,
            };
            proc.latency(&t.cost) * 1e3
        };
    }
    let mut feats = Matrix::zeros(n, FEATURE_DIM);
    for i in 0..l {
        feats[(i, node_type_index(Some(arch.ops()[i].kind())))] = 1.0;
        if mode == FeatureMode::Enhanced {
            feats[(i, NODE_TYPE_CHANNELS)] = norm.apply(latencies[i]) as f32;
        }
    }
    feats[(input, 0)] = 1.0;
    feats[(output, 1)] = 1.0;
    feats[(global, 2)] = 1.0;
    (graph, feats)
}

/// A trained latency predictor.
pub struct LatencyPredictor {
    cfg: PredictorConfig,
    /// Workload the predictor was trained for.
    pub profile: WorkloadProfile,
    /// System the predictor was trained for.
    pub sys: SystemConfig,
    norm: LatencyNorm,
    model: Model,
}

#[derive(Serialize, Deserialize)]
enum Model {
    Gin(GinRegressor),
    Gcn(GcnRegressor),
}

/// Serializable snapshot of a trained predictor (deployment artifact).
#[derive(Serialize, Deserialize)]
struct PredictorSnapshot {
    cfg: PredictorConfig,
    profile: WorkloadProfile,
    sys: SystemConfig,
    norm: LatencyNorm,
    model: Model,
}

impl LatencyPredictor {
    /// Trains a predictor on `(architecture, measured latency seconds)`
    /// pairs. Targets are learned in milliseconds (well-scaled for MAPE).
    pub fn train(
        cfg: PredictorConfig,
        profile: WorkloadProfile,
        sys: SystemConfig,
        data: &[(Architecture, f64)],
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9E3779B9);
        // Fit the latency-channel normalization over the whole training
        // population's per-op LUT latencies (the paper's global z-score).
        let mut all_op_ms: Vec<f64> = Vec::new();
        for (arch, _) in data {
            for t in trace(arch, &profile) {
                let ms = if t.op.kind() == OpKind::Communicate {
                    sys.link.transfer_time(t.transfer_bytes) * 1e3
                } else {
                    let proc = match t.placement {
                        Placement::Device => &sys.device,
                        Placement::Edge => &sys.edge,
                    };
                    proc.latency(&t.cost) * 1e3
                };
                all_op_ms.push(ms);
            }
        }
        let norm = LatencyNorm::fit(&all_op_ms);
        let samples: Vec<(CsrGraph, Matrix, f32)> = data
            .iter()
            .map(|(arch, lat)| {
                let (g, x) =
                    abstract_architecture_with_norm(arch, &profile, &sys, cfg.features, &norm);
                (g, x, (*lat * 1e3) as f32)
            })
            .collect();
        let model = match cfg.backbone {
            Backbone::Gin => {
                let mut net = GinRegressor::new(FEATURE_DIM, cfg.hidden, cfg.layers, &mut rng);
                net.fit(&samples, cfg.epochs, cfg.lr);
                Model::Gin(net)
            }
            Backbone::Gcn => {
                let mut net = GcnRegressor::new(FEATURE_DIM, cfg.hidden, cfg.layers, &mut rng);
                net.fit(&samples, cfg.epochs, cfg.lr);
                Model::Gcn(net)
            }
        };
        Self { cfg, profile, sys, norm, model }
    }

    /// Predicts the system latency of an architecture, in seconds.
    pub fn predict_s(&self, arch: &Architecture) -> f64 {
        let (g, x) = abstract_architecture_with_norm(
            arch,
            &self.profile,
            &self.sys,
            self.cfg.features,
            &self.norm,
        );
        let ms = match &self.model {
            Model::Gin(net) => net.predict(&g, &x),
            Model::Gcn(net) => net.predict(&g, &x),
        };
        (ms as f64).max(0.0) * 1e-3
    }

    /// The training configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Serializes the trained predictor to JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let snapshot = PredictorSnapshot {
            cfg: self.cfg,
            profile: self.profile,
            sys: self.sys.clone(),
            norm: self.norm,
            model: match &self.model {
                Model::Gin(m) => Model::Gin(m.clone()),
                Model::Gcn(m) => Model::Gcn(m.clone()),
            },
        };
        serde_json::to_string(&snapshot)
    }

    /// Restores a predictor from [`LatencyPredictor::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let snapshot: PredictorSnapshot = serde_json::from_str(json)?;
        Ok(Self {
            cfg: snapshot.cfg,
            profile: snapshot.profile,
            sys: snapshot.sys,
            norm: snapshot.norm,
            model: snapshot.model,
        })
    }
}

/// `n` architectures drawn from `space` by a ChaCha8 stream seeded with
/// `seed`, each labelled with `latency_s` — the training set of a
/// predictor tier fitted inside the search loop.
pub fn sampled_latencies(
    space: &crate::space::DesignSpace,
    n: usize,
    seed: u64,
    latency_s: impl Fn(&Architecture) -> f64,
) -> Vec<(Architecture, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sampler = space.sampler();
    (0..n)
        .map(|_| {
            let arch = sampler.sample(&mut rng);
            let latency = latency_s(&arch);
            (arch, latency)
        })
        .collect()
}

/// Fraction of predictions within `bound` relative error of the target —
/// the Fig. 9(a) metric (`bound` = 0.05 or 0.10).
pub fn within_bound_accuracy(preds: &[f64], targets: &[f64], bound: f64) -> f64 {
    assert_eq!(preds.len(), targets.len(), "pred/target length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let ok = preds
        .iter()
        .zip(targets)
        .filter(|(p, t)| **t != 0.0 && ((*p - *t) / *t).abs() <= bound)
        .count();
    ok as f64 / preds.len() as f64
}

/// Fraction of pairs whose predicted latency ordering matches the true
/// ordering — the Fig. 9(b) "relative latency relationship" metric.
pub fn pairwise_order_accuracy(preds: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(preds.len(), targets.len(), "pred/target length mismatch");
    let n = preds.len();
    if n < 2 {
        return 1.0;
    }
    let mut ok = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += 1;
            if (preds[i] - preds[j]).signum() == (targets[i] - targets[j]).signum() {
                ok += 1;
            }
        }
    }
    ok as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_latency;
    use crate::space::DesignSpace;

    fn make_data(n: usize, seed: u64) -> (Vec<(Architecture, f64)>, WorkloadProfile, SystemConfig) {
        let profile = WorkloadProfile::modelnet40();
        let space = DesignSpace::paper(profile);
        let sys = SystemConfig::tx2_to_i7(40.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sampler = space.sampler();
        let data = (0..n)
            .map(|_| {
                let arch = sampler.sample(&mut rng);
                let lat = estimate_latency(&arch, &profile, &sys).total_s();
                (arch, lat)
            })
            .collect();
        (data, profile, sys)
    }

    #[test]
    fn abstraction_shapes() {
        let (data, profile, sys) = make_data(1, 1);
        let arch = &data[0].0;
        let (g, x) = abstract_architecture(arch, &profile, &sys, FeatureMode::Enhanced);
        assert_eq!(g.num_nodes(), arch.len() + 3);
        assert_eq!(x.shape(), (arch.len() + 3, FEATURE_DIM));
        // Global node reaches everything.
        assert_eq!(g.degree(arch.len() + 2), g.num_nodes()); // n-1 others + self loop
    }

    #[test]
    fn onehot_mode_zeroes_latency_channel() {
        let (data, profile, sys) = make_data(1, 2);
        let (_, x) = abstract_architecture(&data[0].0, &profile, &sys, FeatureMode::OneHot);
        for i in 0..x.rows() {
            assert_eq!(x[(i, NODE_TYPE_CHANNELS)], 0.0);
        }
    }

    #[test]
    fn enhanced_mode_populates_latency_channel() {
        let (data, profile, sys) = make_data(1, 3);
        let (_, x) = abstract_architecture(&data[0].0, &profile, &sys, FeatureMode::Enhanced);
        let nonzero = (0..x.rows()).filter(|&i| x[(i, NODE_TYPE_CHANNELS)] != 0.0).count();
        assert!(nonzero > 0, "z-scored latencies should be present");
    }

    #[test]
    fn trained_predictor_orders_architectures() {
        let (data, profile, sys) = make_data(40, 4);
        let cfg = PredictorConfig { epochs: 40, hidden: 32, ..PredictorConfig::default() };
        let predictor = LatencyPredictor::train(cfg, profile, sys, &data[..30]);
        let preds: Vec<f64> = data[30..].iter().map(|(a, _)| predictor.predict_s(a)).collect();
        let targets: Vec<f64> = data[30..].iter().map(|&(_, t)| t).collect();
        let order = pairwise_order_accuracy(&preds, &targets);
        assert!(order > 0.7, "ordering should be learnable, got {order}");
    }

    #[test]
    fn within_bound_metric_basics() {
        assert_eq!(within_bound_accuracy(&[1.0, 2.0], &[1.0, 4.0], 0.10), 0.5);
        assert_eq!(within_bound_accuracy(&[], &[], 0.1), 0.0);
        assert_eq!(within_bound_accuracy(&[1.05], &[1.0], 0.10), 1.0);
        assert_eq!(within_bound_accuracy(&[1.2], &[1.0], 0.10), 0.0);
    }

    #[test]
    fn pairwise_metric_basics() {
        assert_eq!(pairwise_order_accuracy(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(pairwise_order_accuracy(&[3.0, 2.0, 1.0], &[10.0, 20.0, 30.0]), 0.0);
        assert_eq!(pairwise_order_accuracy(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    fn gcn_backbone_also_trains() {
        let (data, profile, sys) = make_data(12, 5);
        let cfg = PredictorConfig {
            epochs: 10,
            hidden: 16,
            backbone: Backbone::Gcn,
            ..PredictorConfig::default()
        };
        let predictor = LatencyPredictor::train(cfg, profile, sys, &data);
        assert!(predictor.predict_s(&data[0].0).is_finite());
    }
}

/// [`Evaluator`](crate::eval::Evaluator) that prices latency with a trained
/// [`LatencyPredictor`] instead of a measurement oracle — the paper's
/// strict-latency search mode ("the highly accurate system latency
/// predictor ensures that the explored architecture meets the strict
/// latency requirements", Sec. 3.5). Energy still comes from the analytic
/// estimator, accuracy from the supplied callback.
pub struct PredictorEvaluator<F: Fn(&Architecture) -> f64 + Sync> {
    /// Trained latency predictor (carries profile + system).
    pub predictor: LatencyPredictor,
    /// Accuracy callback.
    pub accuracy_fn: F,
}

impl<F: Fn(&Architecture) -> f64 + Sync> crate::eval::Evaluator for PredictorEvaluator<F> {
    fn evaluate(&self, arch: &Architecture) -> crate::eval::Metrics {
        crate::eval::Metrics {
            accuracy: (self.accuracy_fn)(arch),
            latency_s: self.predictor.predict_s(arch),
            energy_j: crate::estimate::estimate_device_energy(
                arch,
                &self.predictor.profile,
                &self.predictor.sys,
            ),
        }
    }
}

impl<F: Fn(&Architecture) -> f64 + Sync> crate::eval::backend::EvalBackend
    for PredictorEvaluator<F>
{
    fn fidelity(&self) -> crate::eval::backend::Fidelity {
        crate::eval::backend::Fidelity::Predicted
    }

    fn cost_hint(&self) -> f64 {
        // One GIN forward pass per candidate: pricier than LUT
        // accumulation, far cheaper than a simulator run.
        3.0
    }

    fn name(&self) -> &str {
        "predictor"
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::estimate::estimate_latency;
    use crate::space::DesignSpace;

    #[test]
    fn trained_predictor_round_trips_through_json() {
        let profile = WorkloadProfile::modelnet40();
        let space = DesignSpace::paper(profile);
        let sys = SystemConfig::tx2_to_i7(40.0);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let sampler = space.sampler();
        let data: Vec<(Architecture, f64)> = (0..20)
            .map(|_| {
                let arch = sampler.sample(&mut rng);
                let lat = estimate_latency(&arch, &profile, &sys).total_s();
                (arch, lat)
            })
            .collect();
        let cfg = PredictorConfig { hidden: 16, epochs: 5, ..PredictorConfig::default() };
        let p = LatencyPredictor::train(cfg, profile, sys, &data);
        let json = p.to_json().expect("serialize");
        let restored = LatencyPredictor::from_json(&json).expect("deserialize");
        for (arch, _) in &data[..5] {
            assert_eq!(p.predict_s(arch), restored.predict_s(arch), "{arch}");
        }
    }
}
