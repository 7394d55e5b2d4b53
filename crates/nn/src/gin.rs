//! GIN-based graph regressor — the paper's system latency predictor.
//!
//! Sec. 3.5 / Fig. 7: three GIN layers with *mean* aggregation, global *sum*
//! pooling, trained with MAPE loss. GIN's injective update
//! `MLP((1+ε)·h_u + agg(h_N(u)))` is what lets the predictor tell apart
//! architecture graphs that GCN confuses (Fig. 10b).

use crate::agg::{aggregate, aggregate_backward, AggCache, AggMode};
use crate::linear::Linear;
use crate::pool::{global_pool, global_pool_backward, PoolMode};
use gcode_graph::CsrGraph;
use gcode_tensor::{loss, ops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One GIN layer: `ReLU(MLP((1+ε)·h + mean_agg(h)))` with a two-layer MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GinLayer {
    lin1: Linear,
    lin2: Linear,
    /// GIN's ε; 0 is the common fixed choice.
    pub eps: f32,
}

/// Forward cache for one GIN layer.
#[derive(Debug, Clone)]
struct GinLayerCache {
    agg_cache: AggCache,
    z: Matrix,
    a: Matrix,
    r: Matrix,
    pre_out: Matrix,
}

impl GinLayer {
    /// Creates a layer mapping `in_dim` to `out_dim` through `hidden`.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            lin1: Linear::new(in_dim, hidden, rng),
            lin2: Linear::new(hidden, out_dim, rng),
            eps: 0.0,
        }
    }

    /// Forward pass over `graph`.
    pub fn forward(&self, graph: &CsrGraph, x: &Matrix) -> (Matrix, GinLayerCache) {
        let (agg, agg_cache) = aggregate(graph, x, AggMode::Mean);
        let z = x.scale(1.0 + self.eps).add(&agg);
        let a = self.lin1.forward(&z);
        let r = ops::relu(&a);
        let pre_out = self.lin2.forward(&r);
        let out = ops::relu(&pre_out);
        (out, GinLayerCache { agg_cache, z, a, r, pre_out })
    }

    /// Backward pass; returns the input gradient and applies SGD in place.
    pub fn backward_and_step(
        &mut self,
        graph: &CsrGraph,
        cache: &GinLayerCache,
        gout: &Matrix,
        lr: f32,
    ) -> Matrix {
        let g_pre = gout.hadamard(&ops::relu_grad_mask(&cache.pre_out));
        let g2 = self.lin2.backward(&cache.r, &g_pre);
        let g_a = g2.gx.hadamard(&ops::relu_grad_mask(&cache.a));
        let g1 = self.lin1.backward(&cache.z, &g_a);
        let gz = g1.gx.clone();
        let gx_direct = gz.scale(1.0 + self.eps);
        let gx_agg = aggregate_backward(graph, &cache.agg_cache, &gz);
        self.lin1.sgd_step(&g1, lr);
        self.lin2.sgd_step(&g2, lr);
        gx_direct.add(&gx_agg)
    }
}

/// The full latency predictor: stacked GIN layers, global sum pooling and a
/// scalar head.
///
/// # Example
///
/// ```
/// use gcode_graph::CsrGraph;
/// use gcode_nn::gin::GinRegressor;
/// use gcode_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let net = GinRegressor::new(4, 16, 3, &mut rng);
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).with_self_loops();
/// let y = net.predict(&g, &Matrix::zeros(3, 4));
/// assert!(y.is_finite());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GinRegressor {
    layers: Vec<GinLayer>,
    head: Linear,
}

impl GinRegressor {
    /// Builds a regressor with `num_layers` GIN layers of width `hidden`
    /// over `in_dim` input features.
    pub fn new(in_dim: usize, hidden: usize, num_layers: usize, rng: &mut impl Rng) -> Self {
        assert!(num_layers >= 1, "need at least one GIN layer");
        let mut layers = Vec::with_capacity(num_layers);
        layers.push(GinLayer::new(in_dim, hidden, hidden, rng));
        for _ in 1..num_layers {
            layers.push(GinLayer::new(hidden, hidden, hidden, rng));
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

    /// One SGD step on a single `(graph, features, target)` sample using the
    /// gradient of `|pred - target| / |target|` (per-sample MAPE).
    ///
    /// Returns the prediction before the update.
    pub fn train_step(&mut self, graph: &CsrGraph, x: &Matrix, target: f32, lr: f32) -> f32 {
        // Forward with caches.
        let mut h = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward(graph, &h);
            caches.push(cache);
            h = out;
        }
        let (pooled, pool_cache) = global_pool(&h, PoolMode::Sum);
        let pred = self.head.forward(&pooled)[(0, 0)];

        // MAPE gradient wrt pred.
        let (_, gvec) = loss::mape(&[pred], &[target]);
        let gpred = gvec[0];
        if gpred == 0.0 {
            return pred;
        }
        let g_head_out = Matrix::from_rows(&[&[gpred]]);
        let gh = self.head.backward(&pooled, &g_head_out);
        self.head.sgd_step(&gh, lr);
        let mut g = global_pool_backward(&pool_cache, &gh.gx);
        for (layer, cache) in self.layers.iter_mut().zip(&caches).rev() {
            g = layer.backward_and_step(graph, cache, &g, lr);
        }
        pred
    }

    /// Trains for `epochs` over the dataset, returning the final-epoch MAPE.
    ///
    /// `data` items are `(graph, node_features, target)`.
    pub fn fit(&mut self, data: &[(CsrGraph, Matrix, f32)], epochs: usize, lr: f32) -> f32 {
        let mut last = f32::INFINITY;
        for _ in 0..epochs {
            let mut preds = Vec::with_capacity(data.len());
            let mut targets = Vec::with_capacity(data.len());
            for (g, x, t) in data {
                let p = self.train_step(g, x, *t, lr);
                preds.push(p);
                targets.push(*t);
            }
            last = loss::mape(&preds, &targets).0;
        }
        last
    }

    /// Mean absolute percentage error over a held-out set.
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

    fn toy_graph(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges).with_self_loops()
    }

    #[test]
    fn predict_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = GinRegressor::new(3, 8, 2, &mut rng);
        let g = toy_graph(4);
        let x = Matrix::full(4, 3, 0.5);
        assert_eq!(net.predict(&g, &x), net.predict(&g, &x));
    }

    #[test]
    fn training_reduces_mape_on_learnable_target() {
        // Target = sum of a feature column; GIN with sum pooling can fit it.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut net = GinRegressor::new(2, 16, 2, &mut rng);
        let mut data = Vec::new();
        for i in 1..8 {
            let n = 3 + i % 3;
            let g = toy_graph(n);
            let mut x = Matrix::zeros(n, 2);
            for u in 0..n {
                x[(u, 0)] = (i as f32) * 0.1 + u as f32 * 0.05;
                x[(u, 1)] = 1.0;
            }
            let target: f32 = 2.0 + (0..n).map(|u| x[(u, 0)]).sum::<f32>();
            data.push((g, x, target));
        }
        let before = net.evaluate_mape(&data);
        let after = net.fit(&data, 300, 1e-3);
        assert!(after < before, "MAPE should drop: {before} -> {after}");
        assert!(after < 0.15, "should fit closely, got {after}");
    }

    #[test]
    fn distinguishes_graph_structure() {
        // Same features, different wiring: predictions should differ — the
        // property the latency predictor relies on.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = GinRegressor::new(2, 8, 3, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let chain = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).with_self_loops();
        let star = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]).with_self_loops();
        let p1 = net.predict(&chain, &x);
        let p2 = net.predict(&star, &x);
        assert!((p1 - p2).abs() > 1e-6);
    }

    #[test]
    fn fit_handles_single_sample() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut net = GinRegressor::new(1, 8, 1, &mut rng);
        let data = vec![(toy_graph(2), Matrix::full(2, 1, 1.0), 5.0f32)];
        let mape = net.fit(&data, 3000, 2e-2);
        assert!(mape < 0.05, "single sample should be memorized, got {mape}");
    }
}
