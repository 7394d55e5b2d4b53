//! Weight initialization schemes.

use crate::Matrix;
use rand::Rng;

/// Glorot/Xavier uniform initialization for a `fan_in × fan_out` weight.
///
/// Samples from `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`, the
/// standard choice for the linear/Combine layers in the reproduction.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let w = gcode_tensor::init::xavier_uniform(8, 4, &mut rng);
/// assert_eq!(w.shape(), (8, 4));
/// ```
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for x in m.as_mut_slice() {
        *x = rng.gen_range(-a..=a);
    }
    m
}

/// Uniform initialization in `[-scale, scale]`.
pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for x in m.as_mut_slice() {
        *x = rng.gen_range(-scale..=scale);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn xavier_within_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = xavier_uniform(16, 16, &mut rng);
        let a = (6.0f32 / 32.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= a));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(xavier_uniform(4, 4, &mut r1), xavier_uniform(4, 4, &mut r2));
    }

    #[test]
    fn nonzero_with_high_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let w = uniform(8, 8, 0.5, &mut rng);
        assert!(w.norm() > 0.0);
    }
}
