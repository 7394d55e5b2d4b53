//! Hardware substrate: analytical models of the paper's four platforms
//! (Jetson TX2, Raspberry Pi 4B, Intel i7-7700, Nvidia GTX 1060), the
//! wireless link, and the device power model.
//!
//! The physical testbed is unavailable, so each platform is modelled by a
//! small roofline-style parameter set — effective dense throughput, memory
//! bandwidth, an irregular-access penalty and a per-kernel dispatch
//! overhead — calibrated so that DGCNN's total latency and per-op breakdown
//! reproduce the paper's Figs. 2–3 and Table 2 anchors (TX2 ≈ 242 ms,
//! Pi ≈ 1122 ms, i7 ≈ 340 ms, GTX 1060 ≈ 100 ms on ModelNet40-scale input).
//!
//! # Example
//!
//! ```
//! use gcode_hardware::{OpCost, Processor};
//!
//! let tx2 = Processor::jetson_tx2();
//! let pi = Processor::raspberry_pi_4b();
//! let cost = OpCost::regular(1_000_000_000, 40_000_000);
//! assert!(tx2.latency(&cost) < pi.latency(&cost));
//! ```

#![deny(unsafe_code)]

mod cost;
mod link;
mod power;
mod processor;
mod system;

pub use cost::{AccessPattern, OpCost};
pub use link::Link;
pub use power::PowerModel;
pub use processor::{Processor, ProcessorKind};
pub use system::SystemConfig;
