//! GCoDE umbrella crate: re-exports the whole workspace public API.
//!
//! The central entry point is [`core::eval::SearchSession`], which drives
//! any [`core::eval::SearchStrategy`] (constraint-based
//! [`core::search::RandomSearch`], the [`core::ea::Ea`] ablation, the
//! single-device [`baselines::nas::SingleDeviceNas`] baseline) over a
//! [`core::space::DesignSpace`] through a batched, memoized, worker-sharded
//! [`core::eval::Evaluator`]. Metrics come from a fidelity-tagged
//! [`core::eval::backend::EvalBackend`] — analytic cost model
//! ([`core::eval::backend::AnalyticBackend`]), discrete-event simulator
//! ([`sim::SimBackend`]), trained latency predictor
//! ([`core::predictor::PredictorEvaluator`]), or the multi-fidelity
//! [`core::eval::backend::CascadeBackend`] that screens each batch cheaply
//! and re-prices only the top fraction with the simulator. Search winners
//! land in a [`core::zoo::ArchitectureZoo`], which the [`engine`] deploys
//! over TCP. The [`server`] crate packages the whole loop as a resident
//! daemon (`gcode serve`): concurrent search sessions multiplexed over
//! one shared warm [`engine::EdgeFleet`].
//!
//! ```
//! use gcode::core::arch::WorkloadProfile;
//! use gcode::core::eval::{Objective, SearchSession};
//! use gcode::core::search::{RandomSearch, SearchConfig};
//! use gcode::core::space::DesignSpace;
//! use gcode::core::eval::backend::AnalyticBackend;
//! use gcode::hardware::SystemConfig;
//!
//! let space = DesignSpace::paper(WorkloadProfile::modelnet40());
//! let eval = AnalyticBackend {
//!     profile: space.profile,
//!     sys: SystemConfig::tx2_to_i7(40.0),
//!     accuracy_fn: |_| 0.92,
//! };
//! let mut session = SearchSession::new(&space, &eval)
//!     .with_objective(Objective::new(0.25, 0.2, 1.0));
//! let cfg = SearchConfig { iterations: 50, seed: 7, ..SearchConfig::default() };
//! let result = session.run(&RandomSearch::new(cfg));
//! assert!(result.best().is_some());
//! ```

#![deny(unsafe_code)]

pub use gcode_baselines as baselines;
pub use gcode_compress as compress;
pub use gcode_core as core;
pub use gcode_engine as engine;
pub use gcode_graph as graph;
pub use gcode_hardware as hardware;
pub use gcode_nn as nn;
pub use gcode_server as server;
pub use gcode_sim as sim;
pub use gcode_tensor as tensor;
