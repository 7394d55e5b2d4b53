//! Baseline GNN architectures and partition-point search.
//!
//! Everything GCoDE is compared against in the paper's evaluation:
//!
//! * [`models::dgcnn`] — the manual DGCNN (Wang et al., baseline \[9\]);
//! * [`models::optimized_dgcnn`] — Li et al.'s manually optimized variant
//!   (baseline \[1\], single KNN reused across layers);
//! * [`models::branchy_gnn`] — BRANCHY-GNN's split + bottleneck compression
//!   (baseline \[8\]);
//! * [`models::hgnas`] — an HGNAS-style hardware-efficient edge design
//!   (baseline \[6\]);
//! * [`models::pnas_text`] — a PNAS-style text-graph model for MR
//!   (baseline \[2\]);
//! * [`partition`] — optimal single-split search over a fixed architecture
//!   ("HGNAS+Partition", "PNAS+Partition", and the Fig. 4 schemes).
//!
//! Task accuracies are the numbers *reported in the papers* (the paper
//! itself does the same: "we used the reported task accuracy in these
//! papers and tested efficiency... under the same experimental conditions").
//! Efficiency comes from `gcode-sim` on our calibrated hardware models; the
//! calibration tests in this crate pin the DGCNN anchors from Tab. 2/Fig. 3.

#![deny(unsafe_code)]

pub mod models;
pub mod nas;
pub mod partition;

pub use models::{Baseline, CollabMode};
