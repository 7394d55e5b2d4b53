//! Graph substrate: CSR adjacency, k-NN graph construction and the synthetic
//! datasets that stand in for ModelNet40 and MR.
//!
//! The paper evaluates on two regimes with opposite execution profiles
//! (Sec. 2, Motivation ❷):
//!
//! * **Point clouds** (ModelNet40): many nodes (1024), tiny features (3) —
//!   graph construction (KNN) and aggregation dominate.
//! * **Text graphs** (MR): few nodes (~17), wide features (300) — the dense
//!   Combine layers dominate.
//!
//! [`datasets::PointCloudDataset`] and [`datasets::TextGraphDataset`]
//! reproduce exactly those statistics with parametric generators, so every
//! computation/communication trade-off the paper measures has the same shape
//! here.
//!
//! # Example
//!
//! ```
//! use gcode_graph::{knn::knn_graph, CsrGraph};
//! use gcode_tensor::Matrix;
//!
//! let pts = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
//! let g: CsrGraph = knn_graph(&pts, 1);
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.degree(0), 1);
//! ```

#![deny(unsafe_code)]

mod csr;
pub mod datasets;
pub mod knn;

pub use csr::CsrGraph;
