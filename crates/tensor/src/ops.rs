//! Elementwise activations and the row-wise softmax.

use crate::Matrix;

/// Rectified linear unit, elementwise.
///
/// # Example
///
/// ```
/// use gcode_tensor::{ops, Matrix};
/// let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
/// assert_eq!(ops::relu(&m), Matrix::from_rows(&[&[0.0, 2.0]]));
/// ```
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

/// Gradient mask of ReLU: 1 where the forward input was positive, else 0.
pub fn relu_grad_mask(forward_input: &Matrix) -> Matrix {
    forward_input.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Numerically stable row-wise softmax.
///
/// Each row of the result sums to 1.
///
/// # Example
///
/// ```
/// use gcode_tensor::{ops, Matrix};
/// let p = ops::softmax_rows(&Matrix::from_rows(&[&[0.0, 0.0]]));
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_rows(&[&[-3.0, 0.0, 2.5]]);
        assert_eq!(relu(&m), Matrix::from_rows(&[&[0.0, 0.0, 2.5]]));
    }

    #[test]
    fn relu_grad_mask_matches_sign() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 3.0]]);
        assert_eq!(relu_grad_mask(&m), Matrix::from_rows(&[&[0.0, 0.0, 1.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&m);
        for i in 0..p.rows() {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Matrix::from_rows(&[&[1000.0, 1000.0]]);
        let p = softmax_rows(&m);
        assert!((p[(0, 0)] - 0.5).abs() < 1e-5);
    }
}
