//! From-scratch GNN layers with manual backpropagation.
//!
//! Three consumers sit on top of this crate:
//!
//! * the **supernet** used by GCoDE's one-shot search ([`seq`] executes a
//!   sampled operation sequence with weights drawn from a shared
//!   [`seq::WeightBank`]),
//! * the **GIN latency predictor** of Sec. 3.5 ([`gin::GinRegressor`]), and
//! * its **GCN ablation** counterpart from Fig. 10(b) ([`gcn::GcnRegressor`]).
//!
//! Everything is dense `f32` on [`gcode_tensor::Matrix`]; graphs are
//! [`gcode_graph::CsrGraph`]. No autodiff — each layer exposes an explicit
//! `forward`/`backward` pair, which keeps the substrate small and testable.
//!
//! # Example
//!
//! ```
//! use gcode_nn::linear::Linear;
//! use gcode_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let lin = Linear::new(4, 2, &mut rng);
//! let x = Matrix::zeros(3, 4);
//! assert_eq!(lin.forward(&x).shape(), (3, 2));
//! ```

#![deny(unsafe_code)]

pub mod agg;
pub mod gcn;
pub mod gin;
pub mod linear;
pub mod pool;
pub mod seq;
pub mod trainer;

/// Helpers shared by the kernels' reference-equivalence tests.
#[cfg(test)]
pub(crate) mod test_util {
    use gcode_tensor::Matrix;
    use rand::Rng;

    /// Bit patterns of every element: equality that tells `-0.0` from
    /// `0.0` and one NaN from another.
    pub(crate) fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `n × d` values from a coarse signed grid with ReLU-style zeros, so
    /// exact `Max` ties occur in every row and column, and now and then a
    /// NaN, which must never win one.
    pub(crate) fn tie_heavy(n: usize, d: usize, rng: &mut impl Rng) -> Matrix {
        let data = (0..n * d)
            .map(|_| match rng.gen_range(0..40) {
                0 => f32::NAN,
                1..=15 => 0.0,
                _ => rng.gen_range(-3i32..=3) as f32 * 0.7,
            })
            .collect();
        Matrix::from_vec(n, d, data)
    }
}
