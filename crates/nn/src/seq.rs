//! Sequential GNN executor with shared weights — the runnable form of a
//! sampled co-inference architecture, and the weight store behind the
//! one-shot supernet.
//!
//! `gcode-core` lowers an `Architecture` (which still contains `Communicate`
//! ops) into a [`Vec<LayerSpec>`]; `Communicate` disappears because it is
//! compute-free. The [`WeightBank`] keys every Combine weight by
//! `(layer slot, in_dim, out_dim)` so that any two sampled architectures
//! that place the same function at the same slot *share* weights — the
//! paper's one-shot decoupling of supernet training from search (Sec. 3.1).

use crate::agg::{aggregate, aggregate_backward, aggregate_forward, AggCache, AggMode};
use crate::linear::Linear;
use crate::pool::{global_pool, global_pool_backward, global_pool_forward, PoolCache, PoolMode};
use gcode_graph::knn::{knn_graph, random_graph};
use gcode_graph::CsrGraph;
use gcode_tensor::{loss, ops, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One executable step of a sequential GNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Rebuild the graph as k-NN in current feature space (`Sample`/KNN).
    BuildKnn {
        /// Neighbors per node.
        k: usize,
    },
    /// Rebuild the graph with k random neighbors (`Sample`/Random).
    BuildRandom {
        /// Neighbors per node.
        k: usize,
    },
    /// Aggregate neighbor features.
    Aggregate(AggMode),
    /// Linear + ReLU to `out_dim` (`Combine`).
    Combine {
        /// Output feature width.
        out_dim: usize,
    },
    /// Global readout to a single graph feature.
    GlobalPool(PoolMode),
    /// Pass-through (`Identity`; also how `Communicate` lowers).
    Identity,
}

/// Shared weight store for the supernet.
///
/// Weights are lazily created with a deterministic per-key seed, so two
/// banks built with the same `seed` agree bit-for-bit regardless of the
/// order architectures were executed in.
#[derive(Debug, Clone)]
pub struct WeightBank {
    seed: u64,
    combine: HashMap<(usize, usize, usize), Linear>,
    classifier: HashMap<usize, Linear>,
    num_classes: usize,
}

impl WeightBank {
    /// Creates an empty bank producing `num_classes`-way classifiers.
    pub fn new(num_classes: usize, seed: u64) -> Self {
        Self { seed, combine: HashMap::new(), classifier: HashMap::new(), num_classes }
    }

    /// Number of classes the classifier heads output.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of distinct weight tensors currently materialized.
    pub fn len(&self) -> usize {
        self.combine.len() + self.classifier.len()
    }

    /// Whether no weights have been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.combine.is_empty() && self.classifier.is_empty()
    }

    fn combine_mut(&mut self, slot: usize, in_dim: usize, out_dim: usize) -> &mut Linear {
        let seed = self.seed;
        self.combine.entry((slot, in_dim, out_dim)).or_insert_with(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(
                seed ^ (slot as u64) << 40 ^ (in_dim as u64) << 20 ^ out_dim as u64,
            );
            Linear::new(in_dim, out_dim, &mut rng)
        })
    }

    fn classifier_mut(&mut self, in_dim: usize) -> &mut Linear {
        let seed = self.seed;
        let num_classes = self.num_classes;
        self.classifier.entry(in_dim).or_insert_with(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1A5_51F1 ^ (in_dim as u64) << 32);
            Linear::new(in_dim, num_classes, &mut rng)
        })
    }
}

/// Input to one forward pass: node features plus an optional pre-built
/// graph (text datasets provide one; point clouds rebuild via `Sample`).
#[derive(Debug, Clone)]
pub struct GraphInput<'a> {
    /// `n × d` node features.
    pub features: &'a Matrix,
    /// Input graph, if the dataset provides one.
    pub graph: Option<&'a CsrGraph>,
}

/// What one op of the training pass leaves for its backward step; ops
/// without one (`Sample`, `Identity`) leave nothing.
enum StepCache {
    Agg { graph: CsrGraph, cache: AggCache },
    Combine { key: (usize, usize, usize), x: Matrix, pre: Matrix },
    Pool(PoolCache),
}

/// Executes `specs` over `input` using shared weights from `bank`,
/// returning `1 × num_classes` logits: [`forward_features`] from slot 0,
/// then [`classify`].
///
/// If the sequence never pools, a mean readout is applied before the
/// classifier so the executor is total; the validity checker in
/// `gcode-core` normally guarantees a `GlobalPool` is present.
///
/// The RNG drives `BuildRandom` sampling only.
pub fn forward(
    specs: &[LayerSpec],
    input: GraphInput<'_>,
    bank: &mut WeightBank,
    rng: &mut impl Rng,
) -> Matrix {
    let (h, _) = forward_features(specs, 0, input, bank, rng);
    classify(&h, bank)
}

/// Executes `specs` **without** the trailing readout/classifier, returning
/// the raw features and the live graph. This is what a *device-side prefix*
/// of a split architecture runs: the intermediate state then crosses the
/// link and the edge resumes from it (its `GraphInput.graph`).
///
/// `slot_offset` is the position of `specs[0]` within the *full* lowered
/// architecture, so that split execution shares the exact weights a
/// monolithic [`forward`] would use.
pub fn forward_features(
    specs: &[LayerSpec],
    slot_offset: usize,
    input: GraphInput<'_>,
    bank: &mut WeightBank,
    rng: &mut impl Rng,
) -> (Matrix, Option<CsrGraph>) {
    let slots: Vec<usize> = (0..specs.len()).map(|i| slot_offset + i).collect();
    forward_features_slotted(specs, &slots, input, bank, rng)
}

/// [`forward_features`] with an explicit weight slot per op instead of a
/// contiguous range — what a deployed `ExecutionPlan` executes, reading
/// its slot columns. The one lowering emits positional slots only, so the
/// columns say nothing `slot_offset` does not; the frozen `perf/` harness
/// calls this by name (ROADMAP item 2 folds it back into
/// [`forward_features`]).
///
/// # Panics
///
/// Panics if `specs` and `slots` have different lengths.
pub fn forward_features_slotted(
    specs: &[LayerSpec],
    slots: &[usize],
    input: GraphInput<'_>,
    bank: &mut WeightBank,
    rng: &mut impl Rng,
) -> (Matrix, Option<CsrGraph>) {
    assert_eq!(specs.len(), slots.len(), "one weight slot per op");
    let mut h = input.features.clone();
    let mut graph: Option<CsrGraph> = input.graph.cloned();
    for (spec, &slot) in specs.iter().zip(slots) {
        match *spec {
            LayerSpec::BuildKnn { k } => graph = Some(knn_graph(&h, k)),
            LayerSpec::BuildRandom { k } => graph = Some(random_graph(h.rows(), k, rng)),
            LayerSpec::Aggregate(mode) => {
                h = aggregate_forward(live_graph(&mut graph, &h), &h, mode);
            }
            LayerSpec::Combine { out_dim } => {
                h = bank.combine_mut(slot, h.cols(), out_dim).forward_relu(&h);
            }
            LayerSpec::GlobalPool(mode) => {
                h = global_pool_forward(&h, mode);
                graph = None;
            }
            LayerSpec::Identity => {}
        }
    }
    (h, graph)
}

/// The graph an `Aggregate` reads: the live one, or — when no `Sample` op
/// and no input graph provided any — the default k-NN over `h`, built once
/// and left live for the ops that follow.
fn live_graph<'g>(graph: &'g mut Option<CsrGraph>, h: &Matrix) -> &'g CsrGraph {
    graph.get_or_insert_with(|| knn_graph(h, default_k(h.rows())))
}

/// Final readout + classifier over features produced by
/// [`forward_features`]: node-level features are mean-pooled first, a
/// pooled `1 × d` vector goes straight to the `d`-keyed classifier head.
pub fn classify(h: &Matrix, bank: &mut WeightBank) -> Matrix {
    let pooled = if h.rows() == 1 { h.clone() } else { global_pool_forward(h, PoolMode::Mean) };
    bank.classifier_mut(pooled.cols()).forward(&pooled)
}

/// One training step: forward, cross-entropy against `label`, backward, and
/// SGD on every weight the architecture touched. Returns the loss.
pub fn train_step(
    specs: &[LayerSpec],
    input: GraphInput<'_>,
    label: usize,
    bank: &mut WeightBank,
    lr: f32,
    rng: &mut impl Rng,
) -> f32 {
    let (logits, caches, pooled_in) = run(specs, input, bank, rng);
    let (loss_value, glogits) = loss::cross_entropy(&logits, &[label]);

    // Classifier backward.
    let cls_in_dim = pooled_in.cols();
    let cls = bank.classifier_mut(cls_in_dim);
    let gcls = cls.backward(&pooled_in, &glogits);
    cls.sgd_step(&gcls, lr);
    let mut g = gcls.gx;

    // Walk the caches in reverse.
    for step in caches.into_iter().rev() {
        match step {
            StepCache::Agg { graph, cache } => {
                g = aggregate_backward(&graph, &cache, &g);
            }
            StepCache::Combine { key, x, pre } => {
                let g_pre = g.hadamard(&ops::relu_grad_mask(&pre));
                let lin = bank.combine_mut(key.0, key.1, key.2);
                let grads = lin.backward(&x, &g_pre);
                lin.sgd_step(&grads, lr);
                g = grads.gx;
            }
            StepCache::Pool(cache) => {
                g = global_pool_backward(&cache, &g);
            }
        }
    }
    loss_value
}

/// The recording forward pass behind [`train_step`]: the ops of
/// [`forward`], each leaving what its backward pass needs. Returns the
/// logits, the caches in op order, and the classifier's input.
fn run(
    specs: &[LayerSpec],
    input: GraphInput<'_>,
    bank: &mut WeightBank,
    rng: &mut impl Rng,
) -> (Matrix, Vec<StepCache>, Matrix) {
    let mut h = input.features.clone();
    let mut graph: Option<CsrGraph> = input.graph.cloned();
    let mut caches = Vec::with_capacity(specs.len() + 1);
    let mut pooled = false;

    for (slot, spec) in specs.iter().enumerate() {
        match *spec {
            LayerSpec::BuildKnn { k } => graph = Some(knn_graph(&h, k)),
            LayerSpec::BuildRandom { k } => graph = Some(random_graph(h.rows(), k, rng)),
            LayerSpec::Aggregate(mode) => {
                let g = live_graph(&mut graph, &h);
                let (out, cache) = aggregate(g, &h, mode);
                caches.push(StepCache::Agg { graph: g.clone(), cache });
                h = out;
            }
            LayerSpec::Combine { out_dim } => {
                let key = (slot, h.cols(), out_dim);
                let pre = bank.combine_mut(key.0, key.1, key.2).forward(&h);
                let out = ops::relu(&pre);
                caches.push(StepCache::Combine { key, x: h, pre });
                h = out;
            }
            LayerSpec::GlobalPool(mode) => {
                let (out, cache) = global_pool(&h, mode);
                h = out;
                pooled = true;
                // Pooling invalidates the node-level graph.
                graph = None;
                caches.push(StepCache::Pool(cache));
            }
            LayerSpec::Identity => {}
        }
    }

    if !pooled {
        let (out, cache) = global_pool(&h, PoolMode::Mean);
        h = out;
        caches.push(StepCache::Pool(cache));
    }

    let logits = bank.classifier_mut(h.cols()).forward(&h);
    (logits, caches, h)
}

fn default_k(n: usize) -> usize {
    // DGCNN uses k = 20 on 1024-point clouds; clamp for tiny graphs.
    20.min(n.saturating_sub(1)).max(1)
}

/// Classification accuracy of `specs` over a labelled evaluation set.
pub fn evaluate_accuracy(
    specs: &[LayerSpec],
    samples: &[gcode_graph::datasets::Sample],
    bank: &mut WeightBank,
    rng: &mut impl Rng,
) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for s in samples {
        let logits = forward(
            specs,
            GraphInput { features: &s.features, graph: s.graph.as_ref() },
            bank,
            rng,
        );
        if logits.argmax_row(0) == s.label {
            correct += 1;
        }
    }
    correct as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcode_graph::datasets::{PointCloudDataset, Sample, TextGraphDataset};

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(123)
    }

    fn pc_specs() -> Vec<LayerSpec> {
        vec![
            LayerSpec::BuildKnn { k: 8 },
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::Combine { out_dim: 16 },
            LayerSpec::GlobalPool(PoolMode::Max),
            LayerSpec::Combine { out_dim: 16 },
        ]
    }

    #[test]
    fn forward_logit_shape() {
        let ds = PointCloudDataset::generate(1, 32, 4, 1);
        let s = &ds.samples()[0];
        let mut bank = WeightBank::new(4, 0);
        let logits = forward(
            &pc_specs(),
            GraphInput { features: &s.features, graph: None },
            &mut bank,
            &mut rng(),
        );
        assert_eq!(logits.shape(), (1, 4));
    }

    #[test]
    fn weight_bank_shares_weights_across_archs() {
        let mut bank = WeightBank::new(3, 9);
        let a = bank.combine_mut(2, 8, 16).clone();
        let b = bank.combine_mut(2, 8, 16).clone();
        assert_eq!(a, b, "same key must return the same weights");
        let c = bank.combine_mut(3, 8, 16).clone();
        assert_ne!(a, c, "different slots get independent weights");
    }

    #[test]
    fn bank_len_tracks_materialization() {
        let mut bank = WeightBank::new(2, 0);
        assert!(bank.is_empty());
        bank.combine_mut(0, 4, 8);
        bank.classifier_mut(8);
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn training_reduces_loss_on_pointclouds() {
        let ds = PointCloudDataset::generate(12, 24, 3, 7);
        let specs = pc_specs();
        let mut bank = WeightBank::new(3, 5);
        let mut r = rng();
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..30 {
            let mut total = 0.0;
            for s in ds.samples() {
                total += train_step(
                    &specs,
                    GraphInput { features: &s.features, graph: None },
                    s.label,
                    &mut bank,
                    0.01,
                    &mut r,
                );
            }
            if epoch == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn training_learns_text_graphs() {
        let ds = TextGraphDataset::generate(16, 12, 32, 3);
        let specs = vec![
            LayerSpec::Combine { out_dim: 16 },
            LayerSpec::Aggregate(AggMode::Mean),
            LayerSpec::GlobalPool(PoolMode::Mean),
        ];
        let mut bank = WeightBank::new(2, 1);
        let mut r = rng();
        for _ in 0..40 {
            for s in ds.samples() {
                train_step(
                    &specs,
                    GraphInput { features: &s.features, graph: s.graph.as_ref() },
                    s.label,
                    &mut bank,
                    0.02,
                    &mut r,
                );
            }
        }
        let acc = evaluate_accuracy(&specs, ds.samples(), &mut bank, &mut r);
        assert!(acc > 0.8, "text task should be learnable, got {acc}");
    }

    #[test]
    fn unpooled_architecture_still_classifies() {
        let ds = PointCloudDataset::generate(1, 16, 2, 2);
        let s = &ds.samples()[0];
        let specs = vec![LayerSpec::BuildKnn { k: 4 }, LayerSpec::Aggregate(AggMode::Add)];
        let mut bank = WeightBank::new(2, 0);
        let logits = forward(
            &specs,
            GraphInput { features: &s.features, graph: None },
            &mut bank,
            &mut rng(),
        );
        assert_eq!(logits.shape(), (1, 2));
    }

    #[test]
    fn identity_is_a_noop_on_features() {
        let ds = PointCloudDataset::generate(1, 16, 2, 4);
        let s: &Sample = &ds.samples()[0];
        let mut bank1 = WeightBank::new(2, 0);
        let mut bank2 = WeightBank::new(2, 0);
        let with_id = vec![LayerSpec::Identity, LayerSpec::GlobalPool(PoolMode::Mean)];
        let without = vec![LayerSpec::GlobalPool(PoolMode::Mean)];
        let l1 = forward(
            &with_id,
            GraphInput { features: &s.features, graph: None },
            &mut bank1,
            &mut rng(),
        );
        let l2 = forward(
            &without,
            GraphInput { features: &s.features, graph: None },
            &mut bank2,
            &mut rng(),
        );
        assert_eq!(l1, l2);
    }

    #[test]
    fn slotted_execution_with_gaps_matches_contiguous_weights() {
        let ds = PointCloudDataset::generate(1, 16, 3, 8);
        let s = &ds.samples()[0];
        let full = vec![
            LayerSpec::BuildKnn { k: 4 },
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::Combine { out_dim: 16 },
            LayerSpec::Identity,
            LayerSpec::Combine { out_dim: 8 },
        ];
        // The same plan with the Identity removed, keeping original slots.
        let elided = vec![
            LayerSpec::BuildKnn { k: 4 },
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::Combine { out_dim: 16 },
            LayerSpec::Combine { out_dim: 8 },
        ];
        let mut bank1 = WeightBank::new(3, 11);
        let mut bank2 = WeightBank::new(3, 11);
        let (h1, _) = forward_features(
            &full,
            0,
            GraphInput { features: &s.features, graph: None },
            &mut bank1,
            &mut rng(),
        );
        let (h2, _) = forward_features_slotted(
            &elided,
            &[0, 1, 2, 4],
            GraphInput { features: &s.features, graph: None },
            &mut bank2,
            &mut rng(),
        );
        assert_eq!(h1, h2, "slot-gapped execution must reuse the same weights");
        assert_eq!(classify(&h1, &mut bank1), classify(&h2, &mut bank2));
    }

    #[test]
    fn training_pass_and_inference_pass_compute_the_same_logits() {
        use crate::test_util::bits;
        let clouds = PointCloudDataset::generate(2, 18, 3, 6);
        let texts = TextGraphDataset::generate(2, 12, 32, 3);
        let plans = [
            pc_specs(),
            // Never pools: both passes fall back to a mean readout.
            vec![LayerSpec::BuildKnn { k: 4 }, LayerSpec::Aggregate(AggMode::Add)],
            // No Sample op: both build the default k-NN, once.
            vec![
                LayerSpec::Aggregate(AggMode::Max),
                LayerSpec::Aggregate(AggMode::Mean),
                LayerSpec::Combine { out_dim: 8 },
                LayerSpec::BuildRandom { k: 3 },
                LayerSpec::Aggregate(AggMode::Max),
                LayerSpec::GlobalPool(PoolMode::Sum),
            ],
        ];
        for specs in &plans {
            for s in clouds.samples().iter().chain(texts.samples()) {
                let input = GraphInput { features: &s.features, graph: s.graph.as_ref() };
                let mut bank = WeightBank::new(3, 21);
                let (recorded, _, _) = run(specs, input.clone(), &mut bank, &mut rng());
                let inferred = forward(specs, input, &mut WeightBank::new(3, 21), &mut rng());
                assert_eq!(bits(&recorded), bits(&inferred), "{specs:?}");
            }
        }
    }

    #[test]
    fn empty_unpooled_input_still_yields_one_row_of_logits() {
        let mut bank = WeightBank::new(2, 0);
        let empty = Matrix::zeros(0, 5);
        let logits = forward(
            &[LayerSpec::Identity],
            GraphInput { features: &empty, graph: None },
            &mut bank,
            &mut rng(),
        );
        assert_eq!(logits.shape(), (1, 2));
    }

    #[test]
    fn aggregate_without_sample_builds_default_knn() {
        let ds = PointCloudDataset::generate(1, 10, 2, 5);
        let s = &ds.samples()[0];
        let specs = vec![LayerSpec::Aggregate(AggMode::Mean)];
        let mut bank = WeightBank::new(2, 0);
        // Must not panic even though no Sample op precedes Aggregate.
        let logits = forward(
            &specs,
            GraphInput { features: &s.features, graph: None },
            &mut bank,
            &mut rng(),
        );
        assert_eq!(logits.shape(), (1, 2));
    }
}
