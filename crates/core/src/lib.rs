//! GCoDE core: the unified architecture+mapping design space, the
//! constraint-based search, system performance awareness and the
//! architecture zoo.
//!
//! This crate is the paper's primary contribution. The flow mirrors Fig. 5:
//!
//! 1. [`space::DesignSpace`] defines the fused co-inference space in which
//!    [`op::Op::Communicate`] is an ordinary operation;
//! 2. an [`eval::SearchSession`] drives a [`eval::SearchStrategy`] —
//!    [`search::RandomSearch`] (Alg. 1), with [`ea::Ea`] as the ablation
//!    baseline — scoring candidates through a batched, memoized,
//!    worker-sharded [`eval::Evaluator`] against one shared
//!    [`eval::Objective`];
//! 3. metrics come from a fidelity-tagged
//!    [`eval::backend::EvalBackend`]: the analytic
//!    [`eval::backend::AnalyticBackend`] (LUT-style [`estimate`]), the
//!    trained [`predictor`] (GIN over the architecture graph), the
//!    discrete-event simulator (`gcode_sim::SimBackend`), or a
//!    multi-fidelity [`eval::backend::CascadeBackend`] that screens
//!    cheaply and re-prices only the promising fraction expensively;
//! 4. accuracy comes from the one-shot [`supernet`] or the calibrated
//!    [`surrogate`] model;
//! 5. winners land in the [`zoo`], from which the runtime dispatcher picks.
//!
//! # Example
//!
//! ```
//! use gcode_core::arch::WorkloadProfile;
//! use gcode_core::eval::backend::AnalyticBackend;
//! use gcode_core::eval::{Objective, SearchSession};
//! use gcode_core::search::{RandomSearch, SearchConfig};
//! use gcode_core::space::DesignSpace;
//! use gcode_hardware::SystemConfig;
//!
//! let space = DesignSpace::paper(WorkloadProfile::modelnet40());
//! let eval = AnalyticBackend {
//!     profile: space.profile,
//!     sys: SystemConfig::tx2_to_i7(40.0),
//!     accuracy_fn: |_| 0.92,
//! };
//! let cfg = SearchConfig { iterations: 50, seed: 1, ..SearchConfig::default() };
//! let mut session = SearchSession::new(&space, &eval)
//!     .with_objective(Objective::new(0.1, 0.2, 1.0));
//! let result = session.run(&RandomSearch::new(cfg));
//! assert!(result.best().is_some());
//! // Every evaluation went through the session's memo cache: one lookup
//! // per stage-1 sample, plus one per stage-2 scale-down the winner allowed.
//! let lookups = session.cache_stats().lookups();
//! assert!((50..=50 + cfg.tuning_iterations as u64).contains(&lookups));
//! ```

#![deny(unsafe_code)]

pub mod arch;
pub mod cachelog;
pub mod cost;
pub mod ea;
pub mod estimate;
pub mod eval;
pub mod lut;
pub mod op;
pub mod pareto;
pub mod predictor;
pub mod search;
pub mod space;
pub mod supernet;
pub mod surrogate;
pub mod zoo;
