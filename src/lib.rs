//! GCoDE umbrella crate: re-exports the whole workspace public API.
//!
//! The entry point is one value and one call: an [`engine::SearchSpec`]
//! names everything that shapes a search (the device–edge system, the task
//! and its workload profile, the fidelity tiers, the objective and the
//! search hyper-parameters), and [`server::run_search`] builds its tiers and
//! runs it. `gcode search`, every session the daemon serves and every
//! surrogate-priced search of the paper's table/figure generators and the
//! examples go through it (`fig10a` compares search strategies, which a
//! spec does not name, and drives the session below directly).
//!
//! Beneath it, [`core::eval::SearchSession`] drives any
//! [`core::eval::SearchStrategy`] (constraint-based
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
//! use gcode::core::eval::backend::Fidelity;
//! use gcode::core::eval::Objective;
//! use gcode::core::surrogate::SurrogateTask;
//! use gcode::engine::{FleetSpec, SearchSpec};
//! use gcode::hardware::SystemConfig;
//! use std::sync::atomic::AtomicU64;
//!
//! let mut spec = SearchSpec::paper(SystemConfig::tx2_to_i7(40.0), SurrogateTask::ModelNet40);
//! spec.tiers = vec![Fidelity::Analytic];
//! spec.objective = Objective::new(0.25, 0.2, 1.0);
//! spec.config.iterations = 50;
//! spec.config.seed = 7;
//! let (report, result, _) =
//!     gcode::server::run_search(&spec, &FleetSpec::default(), None, &AtomicU64::new(0))?;
//! assert!(result.best().is_some());
//! assert_eq!(report.backend, "analytic");
//! # Ok::<(), String>(())
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
