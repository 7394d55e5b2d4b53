//! GCN-based graph regressor — the ablation baseline of Fig. 10(b).
//!
//! HGNAS builds its latency predictor from GCN layers; the paper shows GIN
//! beats it on architecture-graph latency learning. A GCN layer here is
//! `ReLU((mean over N(u) ∪ {u}) · W + b)`, i.e. symmetric-normalized
//! propagation approximated by mean-with-self-loop, which preserves the
//! relevant property: neighborhood *averaging* rather than GIN's injective
//! sum-style update.

use crate::agg::{aggregate, aggregate_backward, AggCache, AggMode};
use crate::linear::Linear;
use crate::pool::{global_pool, global_pool_backward, PoolMode};
use gcode_graph::CsrGraph;
use gcode_tensor::{loss, ops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One GCN layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GcnLayer {
    lin: Linear,
}

/// Forward cache for one GCN layer.
#[derive(Debug, Clone)]
struct GcnLayerCache {
    agg_cache: AggCache,
    agg: Matrix,
    pre: Matrix,
}

impl GcnLayer {
    /// Creates a layer mapping `in_dim` to `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self { lin: Linear::new(in_dim, out_dim, rng) }
    }

    /// Forward pass. The caller is expected to pass a graph that already
    /// contains self-loops (see [`CsrGraph::with_self_loops`]).
    pub fn forward(&self, graph: &CsrGraph, x: &Matrix) -> (Matrix, GcnLayerCache) {
        let (agg, agg_cache) = aggregate(graph, x, AggMode::Mean);
        let pre = self.lin.forward(&agg);
        let out = ops::relu(&pre);
        (out, GcnLayerCache { agg_cache, agg, pre })
    }

    /// Backward pass; returns input gradient and applies SGD in place.
    pub fn backward_and_step(
        &mut self,
        graph: &CsrGraph,
        cache: &GcnLayerCache,
        gout: &Matrix,
        lr: f32,
    ) -> Matrix {
        let g_pre = gout.hadamard(&ops::relu_grad_mask(&cache.pre));
        let g = self.lin.backward(&cache.agg, &g_pre);
        let gx = aggregate_backward(graph, &cache.agg_cache, &g.gx);
        self.lin.sgd_step(&g, lr);
        gx
    }
}

/// Stacked GCN regressor with sum pooling and a scalar head, mirroring
/// [`crate::gin::GinRegressor`]'s interface so the two are swappable in the
/// predictor ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcnRegressor {
    layers: Vec<GcnLayer>,
    head: Linear,
}

impl GcnRegressor {
    /// Builds a regressor with `num_layers` GCN layers of width `hidden`.
    pub fn new(in_dim: usize, hidden: usize, num_layers: usize, rng: &mut impl Rng) -> Self {
        assert!(num_layers >= 1, "need at least one GCN layer");
        let mut layers = Vec::with_capacity(num_layers);
        layers.push(GcnLayer::new(in_dim, hidden, rng));
        for _ in 1..num_layers {
            layers.push(GcnLayer::new(hidden, hidden, rng));
        }
        Self { layers, head: Linear::new(hidden, 1, rng) }
    }

    /// Predicts a scalar for one graph.
    pub fn predict(&self, graph: &CsrGraph, x: &Matrix) -> f32 {
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, _) = layer.forward(graph, &h);
            h = out;
        }
        let (pooled, _) = global_pool(&h, PoolMode::Sum);
        self.head.forward(&pooled)[(0, 0)]
    }

    /// One per-sample MAPE SGD step; returns the pre-update prediction.
    pub fn train_step(&mut self, graph: &CsrGraph, x: &Matrix, target: f32, lr: f32) -> f32 {
        let mut h = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward(graph, &h);
            caches.push(cache);
            h = out;
        }
        let (pooled, pool_cache) = global_pool(&h, PoolMode::Sum);
        let pred = self.head.forward(&pooled)[(0, 0)];
        let (_, gvec) = loss::mape(&[pred], &[target]);
        if gvec[0] == 0.0 {
            return pred;
        }
        let gh = self.head.backward(&pooled, &Matrix::from_rows(&[&[gvec[0]]]));
        self.head.sgd_step(&gh, lr);
        let mut g = global_pool_backward(&pool_cache, &gh.gx);
        for (layer, cache) in self.layers.iter_mut().zip(&caches).rev() {
            g = layer.backward_and_step(graph, cache, &g, lr);
        }
        pred
    }

    /// Trains for `epochs`, returning final-epoch MAPE.
    pub fn fit(&mut self, data: &[(CsrGraph, Matrix, f32)], epochs: usize, lr: f32) -> f32 {
        let mut last = f32::INFINITY;
        for _ in 0..epochs {
            let mut preds = Vec::with_capacity(data.len());
            let mut targets = Vec::with_capacity(data.len());
            for (g, x, t) in data {
                preds.push(self.train_step(g, x, *t, lr));
                targets.push(*t);
            }
            last = loss::mape(&preds, &targets).0;
        }
        last
    }

    /// MAPE over a held-out set.
    pub fn evaluate_mape(&self, data: &[(CsrGraph, Matrix, f32)]) -> f32 {
        let preds: Vec<f32> = data.iter().map(|(g, x, _)| self.predict(g, x)).collect();
        let targets: Vec<f32> = data.iter().map(|&(_, _, t)| t).collect();
        loss::mape(&preds, &targets).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges).with_self_loops()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = GcnLayer::new(3, 5, &mut rng);
        let (out, _) = layer.forward(&toy(4), &Matrix::zeros(4, 3));
        assert_eq!(out.shape(), (4, 5));
    }

    #[test]
    fn training_reduces_mape() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = GcnRegressor::new(2, 12, 2, &mut rng);
        let mut data = Vec::new();
        for i in 1..6 {
            let n = 3 + i % 2;
            let mut x = Matrix::zeros(n, 2);
            for u in 0..n {
                x[(u, 0)] = i as f32 * 0.2;
                x[(u, 1)] = 1.0;
            }
            data.push((toy(n), x, 1.0 + i as f32));
        }
        let before = net.evaluate_mape(&data);
        let after = net.fit(&data, 300, 1e-3);
        assert!(after < before, "MAPE should drop: {before} -> {after}");
    }

    #[test]
    fn mean_propagation_smooths_features() {
        // GCN's averaging maps a chain's interior node toward its neighbors'
        // mean — the smoothing that limits its discriminative power.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = GcnLayer::new(1, 1, &mut rng);
        layer.lin.w = Matrix::eye(1);
        layer.lin.b = Matrix::zeros(1, 1);
        let g = CsrGraph::from_edges(3, &[(1, 0), (1, 2)]).with_self_loops();
        let x = Matrix::from_rows(&[&[0.0], &[9.0], &[0.0]]);
        let (out, _) = layer.forward(&g, &x);
        assert!((out[(1, 0)] - 3.0).abs() < 1e-6);
    }
}
