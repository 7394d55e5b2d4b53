//! Neighborhood aggregation over a CSR graph, with backward pass.

use gcode_graph::CsrGraph;
use gcode_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Reduction applied over each node's neighborhood — the `Aggregate`
/// operation's function choices in the design space (Fig. 6: add/mean/max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AggMode {
    /// Sum of neighbor features.
    Add,
    /// Mean of neighbor features (isolated nodes yield zeros).
    Mean,
    /// Elementwise maximum (isolated nodes yield zeros).
    Max,
}

impl AggMode {
    /// All modes, in design-space order.
    pub const ALL: [AggMode; 3] = [AggMode::Add, AggMode::Mean, AggMode::Max];
}

impl std::fmt::Display for AggMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggMode::Add => "add",
            AggMode::Mean => "mean",
            AggMode::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Cached state from [`aggregate`] needed by [`aggregate_backward`].
#[derive(Debug, Clone)]
pub struct AggCache {
    mode: AggMode,
    /// For `Max`: the source node chosen per (node, feature).
    argmax: Option<Vec<u32>>,
}

/// Aggregates neighbor features: `out[u] = reduce({ x[v] : v ∈ N(u) })`.
///
/// Returns the aggregated features and a cache for the backward pass;
/// inference, which needs no cache, calls [`aggregate_forward`].
///
/// # Panics
///
/// Panics if `graph.num_nodes() != x.rows()`.
///
/// # Example
///
/// ```
/// use gcode_graph::CsrGraph;
/// use gcode_nn::agg::{aggregate, AggMode};
/// use gcode_tensor::Matrix;
///
/// let g = CsrGraph::from_edges(2, &[(0, 1)]);
/// let x = Matrix::from_rows(&[&[1.0], &[5.0]]);
/// let (out, _) = aggregate(&g, &x, AggMode::Add);
/// assert_eq!(out[(0, 0)], 5.0); // node 0 sums its neighbor (node 1)
/// assert_eq!(out[(1, 0)], 0.0); // node 1 has no neighbors
/// ```
pub fn aggregate(graph: &CsrGraph, x: &Matrix, mode: AggMode) -> (Matrix, AggCache) {
    let mut argmax = (mode == AggMode::Max).then(|| vec![u32::MAX; x.len()]);
    let out = reduce(graph, x, mode, argmax.as_deref_mut());
    (out, AggCache { mode, argmax })
}

/// [`aggregate`] without the backward cache: the same features, bit for
/// bit, and no `argmax` table built along the way.
///
/// # Panics
///
/// Panics if `graph.num_nodes() != x.rows()`.
pub fn aggregate_forward(graph: &CsrGraph, x: &Matrix, mode: AggMode) -> Matrix {
    reduce(graph, x, mode, None)
}

/// The one implementation of every reduction. Neighbor rows are streamed
/// whole, in neighbor order, into the output row, so each `out[u][j]` folds
/// its neighbors in the order the graph lists them; `Max` is a
/// compare-and-select over the row (a NaN never wins, the first of equal
/// maxima keeps the `argmax`).
fn reduce(graph: &CsrGraph, x: &Matrix, mode: AggMode, mut argmax: Option<&mut [u32]>) -> Matrix {
    assert_eq!(graph.num_nodes(), x.rows(), "graph/features node count mismatch");
    let (n, d) = x.shape();
    let mut out = Matrix::zeros(n, d);
    for u in 0..n {
        let neighbors = graph.neighbors(u);
        if neighbors.is_empty() {
            continue;
        }
        let dst = out.row_mut(u);
        match mode {
            AggMode::Add | AggMode::Mean => {
                for &v in neighbors {
                    for (o, s) in dst.iter_mut().zip(x.row(v as usize)) {
                        *o += s;
                    }
                }
                if mode == AggMode::Mean {
                    let inv = 1.0 / neighbors.len() as f32;
                    for o in dst {
                        *o *= inv;
                    }
                }
            }
            AggMode::Max => {
                dst.fill(f32::NEG_INFINITY);
                let mut chosen = argmax.as_deref_mut().map(|a| &mut a[u * d..(u + 1) * d]);
                for &v in neighbors {
                    let src = x.row(v as usize);
                    // Two plain select loops vectorise; one loop with two
                    // selects does not.
                    if let Some(chosen) = chosen.as_deref_mut() {
                        for ((a, &o), &s) in chosen.iter_mut().zip(dst.iter()).zip(src) {
                            *a = if s > o { v } else { *a };
                        }
                    }
                    for (o, &s) in dst.iter_mut().zip(src) {
                        *o = if s > *o { s } else { *o };
                    }
                }
            }
        }
    }
    out
}

/// Backward pass of [`aggregate`]: routes `gout` back to the neighbor
/// features that produced each output.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the forward call.
pub fn aggregate_backward(graph: &CsrGraph, cache: &AggCache, gout: &Matrix) -> Matrix {
    let (n, d) = gout.shape();
    assert_eq!(graph.num_nodes(), n, "graph/grad node count mismatch");
    let mut gx = Matrix::zeros(n, d);
    match cache.mode {
        AggMode::Add | AggMode::Mean => {
            for u in 0..n {
                let neighbors = graph.neighbors(u);
                if neighbors.is_empty() {
                    continue;
                }
                let scale =
                    if cache.mode == AggMode::Mean { 1.0 / neighbors.len() as f32 } else { 1.0 };
                for &v in neighbors {
                    for j in 0..d {
                        gx[(v as usize, j)] += gout[(u, j)] * scale;
                    }
                }
            }
        }
        AggMode::Max => {
            let am = cache.argmax.as_ref().expect("Max cache has argmax");
            assert_eq!(am.len(), n * d, "argmax cache shape mismatch");
            for u in 0..n {
                for j in 0..d {
                    let v = am[u * d + j];
                    if v != u32::MAX {
                        gx[(v as usize, j)] += gout[(u, j)];
                    }
                }
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> CsrGraph {
        // 0 -> 1, 0 -> 2; 1 -> 2
        CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)])
    }

    fn feats() -> Matrix {
        Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 3.0], &[4.0, -5.0]])
    }

    /// The column-wise `aggregate` that [`reduce`] replaced, kept as the
    /// reference for features and `argmax` alike.
    fn aggregate_reference(graph: &CsrGraph, x: &Matrix, mode: AggMode) -> (Matrix, AggCache) {
        let (n, d) = x.shape();
        let mut out = Matrix::zeros(n, d);
        let mut argmax = if mode == AggMode::Max { Some(vec![u32::MAX; n * d]) } else { None };
        for u in 0..n {
            let neighbors = graph.neighbors(u);
            if neighbors.is_empty() {
                continue;
            }
            match mode {
                AggMode::Add | AggMode::Mean => {
                    for &v in neighbors {
                        let src = x.row(v as usize);
                        let dst = out.row_mut(u);
                        for (o, s) in dst.iter_mut().zip(src) {
                            *o += s;
                        }
                    }
                    if mode == AggMode::Mean {
                        let inv = 1.0 / neighbors.len() as f32;
                        for o in out.row_mut(u) {
                            *o *= inv;
                        }
                    }
                }
                AggMode::Max => {
                    let am = argmax.as_mut().expect("argmax allocated for Max");
                    for (j, o) in out.row_mut(u).iter_mut().enumerate() {
                        *o = f32::NEG_INFINITY;
                        for &v in neighbors {
                            let val = x[(v as usize, j)];
                            if val > *o {
                                *o = val;
                                am[u * d + j] = v;
                            }
                        }
                    }
                }
            }
        }
        (out, AggCache { mode, argmax })
    }

    #[test]
    fn row_wise_aggregate_matches_the_column_wise_reference() {
        use crate::test_util::{bits, tie_heavy};
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xA66);
        let k = 20;
        for n in [0usize, 1, 2, k, k + 1, 133, 257] {
            for d in [1usize, 3, 16, 64] {
                let x = tie_heavy(n, d, &mut rng);
                // Random neighbor lists of uneven length, isolated nodes and
                // repeated neighbors included.
                let adj = (0..n)
                    .map(|_| {
                        let degree = rng.gen_range(0..=k.min(n));
                        (0..degree).map(|_| rng.gen_range(0..n) as u32).collect()
                    })
                    .collect();
                let g = CsrGraph::from_adjacency(adj);
                for mode in AggMode::ALL {
                    let (want, want_cache) = aggregate_reference(&g, &x, mode);
                    let (got, got_cache) = aggregate(&g, &x, mode);
                    assert_eq!(bits(&got), bits(&want), "n {n} d {d} {mode}");
                    assert_eq!(got_cache.argmax, want_cache.argmax, "n {n} d {d} {mode}");
                    assert_eq!(bits(&aggregate_forward(&g, &x, mode)), bits(&want));
                }
            }
        }
    }

    #[test]
    fn add_aggregation() {
        let (out, _) = aggregate(&chain3(), &feats(), AggMode::Add);
        assert_eq!(out.row(0), &[6.0, -2.0]);
        assert_eq!(out.row(1), &[4.0, -5.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn mean_aggregation() {
        let (out, _) = aggregate(&chain3(), &feats(), AggMode::Mean);
        assert_eq!(out.row(0), &[3.0, -1.0]);
    }

    #[test]
    fn max_aggregation() {
        let (out, _) = aggregate(&chain3(), &feats(), AggMode::Max);
        assert_eq!(out.row(0), &[4.0, 3.0]);
    }

    #[test]
    fn isolated_nodes_output_zero() {
        let g = CsrGraph::empty(2);
        let x = Matrix::full(2, 3, 9.0);
        for mode in AggMode::ALL {
            let (out, _) = aggregate(&g, &x, mode);
            assert_eq!(out, Matrix::zeros(2, 3), "mode {mode}");
        }
    }

    #[test]
    fn backward_add_routes_to_all_neighbors() {
        let g = chain3();
        let x = feats();
        let (_, cache) = aggregate(&g, &x, AggMode::Add);
        let gout = Matrix::full(3, 2, 1.0);
        let gx = aggregate_backward(&g, &cache, &gout);
        // node1 receives grad from node0; node2 from node0 and node1.
        assert_eq!(gx.row(0), &[0.0, 0.0]);
        assert_eq!(gx.row(1), &[1.0, 1.0]);
        assert_eq!(gx.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn backward_max_routes_to_argmax_only() {
        let g = chain3();
        let x = feats();
        let (_, cache) = aggregate(&g, &x, AggMode::Max);
        let gout = Matrix::full(3, 2, 1.0);
        let gx = aggregate_backward(&g, &cache, &gout);
        // out[0] = max(x1, x2) = [4 (from 2), 3 (from 1)]
        // out[1] = x2 = [4, -5]
        assert_eq!(gx.row(1), &[0.0, 1.0]);
        assert_eq!(gx.row(2), &[2.0, 1.0]);
    }

    #[test]
    fn finite_difference_mean_backward() {
        let g = chain3();
        let x = feats();
        let (_, cache) = aggregate(&g, &x, AggMode::Mean);
        let gout = Matrix::full(3, 2, 1.0);
        let gx = aggregate_backward(&g, &cache, &gout);
        let eps = 1e-3f32;
        for i in 0..3 {
            for j in 0..2 {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let fp: f32 = aggregate(&g, &xp, AggMode::Mean).0.as_slice().iter().sum();
                let fm: f32 = aggregate(&g, &xm, AggMode::Mean).0.as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - gx[(i, j)]).abs() < 1e-2,
                    "mismatch at ({i},{j}): {numeric} vs {}",
                    gx[(i, j)]
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AggMode::Add.to_string(), "add");
        assert_eq!(AggMode::Mean.to_string(), "mean");
        assert_eq!(AggMode::Max.to_string(), "max");
    }
}
