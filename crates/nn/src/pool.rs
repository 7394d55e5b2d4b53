//! Global graph pooling (readout), with backward pass.

use gcode_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Global readout over all nodes — the `GlobalPooling` operation's function
/// choices (Fig. 6: sum/mean/max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PoolMode {
    /// Sum over nodes.
    Sum,
    /// Mean over nodes.
    Mean,
    /// Elementwise max over nodes.
    Max,
}

impl PoolMode {
    /// All modes, in design-space order.
    pub const ALL: [PoolMode; 3] = [PoolMode::Sum, PoolMode::Mean, PoolMode::Max];
}

impl std::fmt::Display for PoolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PoolMode::Sum => "sum",
            PoolMode::Mean => "mean",
            PoolMode::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Cache for [`global_pool_backward`].
#[derive(Debug, Clone)]
pub struct PoolCache {
    mode: PoolMode,
    n: usize,
    /// For `Max`: row index chosen per feature column.
    argmax: Option<Vec<usize>>,
}

/// Pools `n × d` node features into a `1 × d` graph feature, and returns
/// the cache for the backward pass; inference, which needs no cache, calls
/// [`global_pool_forward`].
///
/// # Example
///
/// ```
/// use gcode_nn::pool::{global_pool, PoolMode};
/// use gcode_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 2.0]]);
/// let (out, _) = global_pool(&x, PoolMode::Max);
/// assert_eq!(out.row(0), &[3.0, 4.0]);
/// ```
pub fn global_pool(x: &Matrix, mode: PoolMode) -> (Matrix, PoolCache) {
    let n = x.rows();
    if mode != PoolMode::Max || n == 0 {
        return (global_pool_forward(x, mode), PoolCache { mode, n, argmax: None });
    }
    // `Matrix::max_rows` with the winning row tracked alongside: node rows
    // streamed whole, the first of equal maxima keeps the column.
    let mut out = Matrix::from_vec(1, x.cols(), x.row(0).to_vec());
    let mut argmax = vec![0usize; x.cols()];
    for i in 1..n {
        let (row, best) = (x.row(i), out.as_mut_slice());
        // Two plain select loops vectorise; one loop with two selects does not.
        for ((a, &o), &v) in argmax.iter_mut().zip(best.iter()).zip(row) {
            *a = if v > o { i } else { *a };
        }
        for (o, &v) in best.iter_mut().zip(row) {
            *o = if v > *o { v } else { *o };
        }
    }
    (out, PoolCache { mode, n, argmax: Some(argmax) })
}

/// [`global_pool`] without the backward cache: the same pooled feature,
/// bit for bit, and no `argmax` built along the way.
pub fn global_pool_forward(x: &Matrix, mode: PoolMode) -> Matrix {
    match mode {
        PoolMode::Sum => x.sum_rows(),
        PoolMode::Mean => x.mean_rows(),
        PoolMode::Max => x.max_rows(),
    }
}

/// Backward pass of [`global_pool`]; `gout` is `1 × d`.
pub fn global_pool_backward(cache: &PoolCache, gout: &Matrix) -> Matrix {
    let d = gout.cols();
    let n = cache.n;
    let mut gx = Matrix::zeros(n, d);
    match cache.mode {
        PoolMode::Sum => {
            for i in 0..n {
                for j in 0..d {
                    gx[(i, j)] = gout[(0, j)];
                }
            }
        }
        PoolMode::Mean => {
            if n > 0 {
                let inv = 1.0 / n as f32;
                for i in 0..n {
                    for j in 0..d {
                        gx[(i, j)] = gout[(0, j)] * inv;
                    }
                }
            }
        }
        PoolMode::Max => {
            if let Some(idx) = &cache.argmax {
                for j in 0..d {
                    gx[(idx[j], j)] = gout[(0, j)];
                }
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Matrix {
        Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.0], &[-1.0, 5.0]])
    }

    /// The `global_pool` this module had before: an indexed maximum plus a
    /// column-wise `argmax` walk. Kept as the reference.
    fn global_pool_reference(x: &Matrix, mode: PoolMode) -> (Matrix, PoolCache) {
        let (n, d) = x.shape();
        let out = match mode {
            PoolMode::Sum => x.sum_rows(),
            PoolMode::Mean => x.mean_rows(),
            PoolMode::Max if n == 0 => Matrix::zeros(1, d),
            PoolMode::Max => {
                let mut out = Matrix::from_vec(1, d, x.row(0).to_vec());
                for i in 1..n {
                    for j in 0..d {
                        if x[(i, j)] > out[(0, j)] {
                            out[(0, j)] = x[(i, j)];
                        }
                    }
                }
                out
            }
        };
        let argmax = if mode == PoolMode::Max && n > 0 {
            let mut idx = vec![0usize; d];
            for (j, slot) in idx.iter_mut().enumerate() {
                for i in 1..n {
                    if x[(i, j)] > x[(*slot, j)] {
                        *slot = i;
                    }
                }
            }
            Some(idx)
        } else {
            None
        };
        (out, PoolCache { mode, n, argmax })
    }

    #[test]
    fn row_wise_pool_matches_the_column_wise_reference() {
        use crate::test_util::{bits, tie_heavy};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9001);
        for n in [0usize, 1, 2, 20, 21, 133, 257] {
            for d in [1usize, 3, 16, 64] {
                // A NaN in row 0 stays that column's "maximum".
                let x = tie_heavy(n, d, &mut rng);
                for mode in PoolMode::ALL {
                    let (want, want_cache) = global_pool_reference(&x, mode);
                    let (got, got_cache) = global_pool(&x, mode);
                    assert_eq!(bits(&got), bits(&want), "n {n} d {d} {mode}");
                    assert_eq!(got_cache.argmax, want_cache.argmax, "n {n} d {d} {mode}");
                    assert_eq!(got_cache.n, n);
                    assert_eq!(bits(&global_pool_forward(&x, mode)), bits(&want));
                }
            }
        }
    }

    #[test]
    fn sum_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Sum);
        assert_eq!(out.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn mean_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Mean);
        assert_eq!(out.row(0), &[1.0, 1.0]);
    }

    #[test]
    fn max_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Max);
        assert_eq!(out.row(0), &[3.0, 5.0]);
    }

    #[test]
    fn sum_backward_broadcasts() {
        let (_, cache) = global_pool(&x(), PoolMode::Sum);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[1.0, 2.0]]));
        for i in 0..3 {
            assert_eq!(gx.row(i), &[1.0, 2.0]);
        }
    }

    #[test]
    fn mean_backward_divides() {
        let (_, cache) = global_pool(&x(), PoolMode::Mean);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[3.0, 3.0]]));
        for i in 0..3 {
            assert_eq!(gx.row(i), &[1.0, 1.0]);
        }
    }

    #[test]
    fn max_backward_routes_to_winner() {
        let (_, cache) = global_pool(&x(), PoolMode::Max);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[1.0, 1.0]]));
        assert_eq!(gx.row(1), &[1.0, 0.0]); // col 0 max is row 1
        assert_eq!(gx.row(2), &[0.0, 1.0]); // col 1 max is row 2
        assert_eq!(gx.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn pool_reduces_transfer_size() {
        // The paper's Fig. 2 notes Pooling shrinks intermediate data; here
        // pooling 100 nodes to 1 divides wire size by 100.
        let big = Matrix::zeros(100, 16);
        let (pooled, _) = global_pool(&big, PoolMode::Mean);
        assert_eq!(pooled.len() * 100, big.len());
    }
}
