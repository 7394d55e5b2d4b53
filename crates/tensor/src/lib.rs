//! Dense `f32` tensor substrate for the GCoDE reproduction.
//!
//! The GNN layers, the supernet trainer and the GIN latency predictor are all
//! built on the small row-major [`Matrix`] type defined here, together with a
//! handful of elementwise kernels, initializers and losses. The
//! crate is deliberately dependency-light: everything is plain Rust so the
//! whole reproduction runs on any machine without BLAS.
//!
//! # Example
//!
//! ```
//! use gcode_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![deny(unsafe_code)]

pub mod init;
pub mod loss;
mod matrix;
pub mod ops;
// `pub` only because `gcode-graph`'s kNN shares it: how many bands a kernel
// runs in, and which build fills them, is not an option of this crate.
#[doc(hidden)]
pub mod rows;

pub use matrix::Matrix;
