//! Pipelined co-inference engine over real TCP sockets.
//!
//! The paper's deployment layer (Sec. 3.6) rebuilt in Rust: the device
//! executes its architecture prefix, ships the compressed intermediate
//! tensor to the edge over a socket, and **immediately begins the next
//! frame** instead of waiting for the result; sending and receiving run on
//! separate threads with their own message queues, and every transmitted
//! payload is compressed (the paper uses zlib; we use `gcode-compress`).
//!
//! A pool connected to a remote endpoint that speaks the same persistent
//! edge protocol runs the identical device-side code path — only the
//! socket address differs.
//!
//! Architectures typically arrive from a `gcode_core::eval::SearchSession`
//! run: the zoo's winners lower to an [`ExecutionPlan`] here, the one
//! lowering of whatever `ArchitectureZoo::dispatch` picks as runtime
//! constraints move.
//! The loop closes in the other direction too: [`EngineBackend`] registers
//! this runtime as a `Measured`-fidelity evaluation backend, so a search
//! can price its most promising candidates on the deployed engine itself
//! (typically as the top rung of an `analytic → sim → engine` fidelity
//! ladder).
//!
//! Deployment is cheap to repeat: the wire protocol carries control
//! frames (`SwapPlan`, `Shutdown`) alongside data frames, so an
//! [`EdgePool`] — the engine's one device/edge pair: a persistent edge
//! plus a device connected to it — serves an arbitrary sequence of plans
//! over one warm TCP connection and the shared supernet `WeightBank`,
//! with no process spawn or weight transfer per switch (the paper's
//! Sec. 3.6 runtime dispatcher, applied to search-time measurement as
//! well). At fleet scale, an [`EdgeFleet`] runs each escalated batch as a
//! shared morsel queue drained by N such pools — spawned loopback edges
//! or remote machines, per a parsed [`FleetSpec`] — concurrently and
//! deterministically.
//!
//! The byte-level wire format and the full pool/fleet lifecycle are
//! documented in `docs/ARCHITECTURE.md` at the repository root.
//!
//! # Example
//!
//! ```no_run
//! use gcode_core::arch::Architecture;
//! use gcode_core::op::{Op, SampleFn};
//! use gcode_engine::{EdgePool, ExecutionPlan};
//! use gcode_graph::datasets::PointCloudDataset;
//! use gcode_nn::seq::WeightBank;
//! use gcode_nn::{agg::AggMode, pool::PoolMode};
//!
//! let arch = Architecture::new(vec![
//!     Op::Sample(SampleFn::Knn { k: 8 }),
//!     Op::Communicate,
//!     Op::Aggregate(AggMode::Max),
//!     Op::GlobalPool(PoolMode::Max),
//! ]);
//! let ds = PointCloudDataset::generate(4, 32, 4, 1);
//! let mut pool = EdgePool::spawn(WeightBank::new(4, 0), 4)?;
//! pool.deploy(ExecutionPlan::from_architecture(&arch))?;
//! let (predictions, stats) = pool.run(ds.samples())?;
//! pool.shutdown()?;
//! # Ok::<(), gcode_engine::EngineError>(())
//! ```

#![deny(unsafe_code)]

pub mod backend;
pub mod fleet;
pub mod frame;
pub mod plan;
pub mod pool;
pub mod proto;
pub mod runtime;
pub mod scenario;
pub mod throttle;

pub use backend::{measure_cached, EngineBackend, ProfileFold, DEPLOY_FAILURE_SENTINEL};
pub use fleet::{
    EdgeFleet, FleetEndpoint, FleetOutcome, FleetSpec, DEFAULT_REMOTE_CONNECT_TIMEOUT,
    MAX_FLEET_POOLS,
};
pub use frame::{EdgeCore, EdgeStep};
pub use plan::ExecutionPlan;
#[doc(hidden)]
pub use plan::{lower_and_optimize, OptimizeOptions};
pub use pool::EdgePool;
pub use proto::{
    decode_frame, decode_plan, decode_state, encode_frame, encode_plan, encode_state, frame_name,
    plan_wire_id, read_message, write_message, Frame, SessionOutcome, SessionProgress, SessionSpec,
    SessionState, SessionTask, WireState, PLAN_WIRE_VERSION, PROTOCOL_VERSION,
};
pub use runtime::EngineStats;
pub use scenario::replay_on_fleet;
pub use throttle::Throttle;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed wire payload.
    Decode(gcode_compress::DecodeError),
    /// Protocol violation (unexpected message, lost worker, …).
    Protocol(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "engine io error: {e}"),
            EngineError::Decode(e) => write!(f, "engine decode error: {e}"),
            EngineError::Protocol(m) => write!(f, "engine protocol error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            EngineError::Decode(e) => Some(e),
            EngineError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// A protocol error saying `message`.
pub(crate) fn protocol(message: impl Into<String>) -> EngineError {
    EngineError::Protocol(message.into())
}

/// A caller-side refusal (an invalid scenario trace, an empty zoo) is a
/// protocol error.
impl From<String> for EngineError {
    fn from(m: String) -> Self {
        EngineError::Protocol(m)
    }
}

impl From<gcode_compress::DecodeError> for EngineError {
    fn from(e: gcode_compress::DecodeError) -> Self {
        EngineError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `perf/` — a package of its own that no workspace build compiles —
    /// shares `&EdgePool` across scoped threads, and the daemon shares one
    /// fleet between its session workers. A field that is not `Send + Sync` (one
    /// `mpsc::Receiver` is enough) has to fail here, not there.
    #[test]
    fn pools_and_fleets_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EdgePool>();
        assert_send_sync::<EdgeFleet>();
    }
}
