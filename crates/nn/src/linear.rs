//! Fully-connected layer with explicit backward pass.

use gcode_tensor::{init, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense affine layer `y = x·W + b`.
///
/// # Example
///
/// ```
/// use gcode_nn::linear::Linear;
/// use gcode_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let lin = Linear::new(3, 5, &mut rng);
/// let y = lin.forward(&Matrix::zeros(2, 3));
/// assert_eq!(y.shape(), (2, 5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// `in_dim × out_dim` weight.
    pub w: Matrix,
    /// `1 × out_dim` bias.
    pub b: Matrix,
}

/// Gradients produced by [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// Gradient with respect to the input, `n × in_dim`.
    pub gx: Matrix,
    /// Gradient with respect to the weight.
    pub gw: Matrix,
    /// Gradient with respect to the bias.
    pub gb: Matrix,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self { w: init::xavier_uniform(in_dim, out_dim, rng), b: Matrix::zeros(1, out_dim) }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass `x·W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.affine_then(x, |pre| pre)
    }

    /// `relu(x·W + b)` — what a `Combine` computes — with the bias and the
    /// ReLU applied in place on the product, so the layer allocates its
    /// output and nothing else. Bit-identical to `ops::relu(&self.forward(x))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward_relu(&self, x: &Matrix) -> Matrix {
        self.affine_then(x, |pre| pre.max(0.0))
    }

    fn affine_then(&self, x: &Matrix, act: impl Fn(f32) -> f32) -> Matrix {
        let mut y = x.matmul(&self.w);
        for i in 0..y.rows() {
            for (o, b) in y.row_mut(i).iter_mut().zip(self.b.as_slice()) {
                *o = act(*o + b);
            }
        }
        y
    }

    /// Backward pass. `x` must be the same input given to `forward`;
    /// `gy` is the gradient flowing back from the output.
    pub fn backward(&self, x: &Matrix, gy: &Matrix) -> LinearGrads {
        LinearGrads { gx: gy.matmul_nt(&self.w), gw: x.matmul_tn(gy), gb: gy.sum_rows() }
    }

    /// Applies a plain SGD update in place.
    pub fn sgd_step(&mut self, grads: &LinearGrads, lr: f32) {
        for (p, g) in self.w.as_mut_slice().iter_mut().zip(grads.gw.as_slice()) {
            *p -= lr * g;
        }
        for (p, g) in self.b.as_mut_slice().iter_mut().zip(grads.gb.as_slice()) {
            *p -= lr * g;
        }
    }

    /// Accumulates `other`'s gradients into `self` (used when a shared
    /// weight is hit several times in one batch).
    pub fn accumulate(acc: &mut LinearGrads, other: &LinearGrads) {
        acc.gw = acc.gw.add(&other.gw);
        acc.gb = acc.gb.add(&other.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn forward_shape() {
        let lin = Linear::new(4, 7, &mut rng());
        assert_eq!(lin.forward(&Matrix::zeros(5, 4)).shape(), (5, 7));
        assert_eq!(lin.in_dim(), 4);
        assert_eq!(lin.out_dim(), 7);
    }

    #[test]
    fn zero_input_outputs_bias() {
        let mut lin = Linear::new(3, 2, &mut rng());
        lin.b = Matrix::from_rows(&[&[1.5, -0.5]]);
        let y = lin.forward(&Matrix::zeros(2, 3));
        assert_eq!(y.row(0), &[1.5, -0.5]);
        assert_eq!(y.row(1), &[1.5, -0.5]);
    }

    #[test]
    fn in_place_bias_and_relu_match_the_allocating_ops() {
        let mut r = rng();
        let mut lin = Linear::new(5, 19, &mut r);
        lin.b = gcode_tensor::init::uniform(1, 19, 1.0, &mut r);
        let x = gcode_tensor::init::uniform(7, 5, 2.0, &mut r);
        use crate::test_util::bits;
        let pre = x.matmul(&lin.w).add_row_broadcast(&lin.b);
        assert_eq!(bits(&lin.forward(&x)), bits(&pre));
        assert_eq!(bits(&lin.forward_relu(&x)), bits(&gcode_tensor::ops::relu(&pre)));
        assert_eq!(lin.forward_relu(&Matrix::zeros(0, 5)).shape(), (0, 19));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut r = rng();
        let lin = Linear::new(3, 2, &mut r);
        let x = gcode_tensor::init::uniform(4, 3, 1.0, &mut r);
        // Scalar loss = sum of outputs; gy = ones.
        let gy = Matrix::full(4, 2, 1.0);
        let grads = lin.backward(&x, &gy);
        let eps = 1e-3f32;
        // Check dLoss/dW[0,0] numerically.
        let mut lp = lin.clone();
        lp.w[(0, 0)] += eps;
        let mut lm = lin.clone();
        lm.w[(0, 0)] -= eps;
        let fp: f32 = lp.forward(&x).as_slice().iter().sum();
        let fm: f32 = lm.forward(&x).as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - grads.gw[(0, 0)]).abs() < 1e-2);
        // Check dLoss/dx[1,2] numerically.
        let mut xp = x.clone();
        xp[(1, 2)] += eps;
        let mut xm = x.clone();
        xm[(1, 2)] -= eps;
        let fp: f32 = lin.forward(&xp).as_slice().iter().sum();
        let fm: f32 = lin.forward(&xm).as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - grads.gx[(1, 2)]).abs() < 1e-2);
    }

    #[test]
    fn sgd_reduces_simple_regression_loss() {
        let mut r = rng();
        let mut lin = Linear::new(1, 1, &mut r);
        // Learn y = 3x.
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0]]);
        let target = Matrix::from_rows(&[&[3.0], &[6.0], &[-3.0]]);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let y = lin.forward(&x);
            let diff = y.sub(&target);
            let loss: f32 = diff.as_slice().iter().map(|d| d * d).sum();
            let gy = diff.scale(2.0);
            let grads = lin.backward(&x, &gy);
            lin.sgd_step(&grads, 0.05);
            last = loss;
        }
        assert!(last < 1e-3, "loss should converge, got {last}");
        assert!((lin.w[(0, 0)] - 3.0).abs() < 0.05);
    }

    #[test]
    fn accumulate_sums_gradients() {
        let lin = Linear::new(2, 2, &mut rng());
        let x = Matrix::eye(2);
        let gy = Matrix::full(2, 2, 1.0);
        let mut a = lin.backward(&x, &gy);
        let b = lin.backward(&x, &gy);
        let before = a.gw[(0, 0)];
        Linear::accumulate(&mut a, &b);
        assert!((a.gw[(0, 0)] - 2.0 * before).abs() < 1e-6);
    }
}
