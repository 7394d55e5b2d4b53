//! `gcode-serve`: a resident search-as-a-service daemon.
//!
//! Every earlier layer of this workspace runs a search as a one-shot
//! process that spawns its own edge fleet and throws the warm state away.
//! This crate turns that inside out: a [`SearchServer`] listens on TCP,
//! speaks the session frames of `gcode_engine::proto` (versioned
//! `Hello` handshake, `OpenSession`/`Submit`/`Poll`/`Result`), and
//! multiplexes many concurrent search sessions over **one** shared warm
//! [`gcode_engine::EdgeFleet`] — the Measured tier never re-spawns per
//! request.
//!
//! The moving parts:
//!
//! * [`server::SearchServer`] — accept loop, per-connection handlers, the
//!   admission controller (bounded in-flight sessions; a full house is
//!   answered with a `Busy` frame carrying the running/queued counts) and
//!   the worker pool that runs admitted sessions, each worker calling the
//!   shared [`gcode_engine::EdgeFleet`] directly — the fleet's first come,
//!   first served pool checkout interleaves tenants candidate by
//!   candidate, so one giant zoo cannot starve a small one;
//! * [`session`] — [`run_search`], the one search runner `gcode search`
//!   and every served session call on a [`SearchSpec`]; the per-session
//!   pipeline (the daemon's analytic→sim preset seeded by the client's
//!   `SearchConfig`, then zoo deployment on the fleet); and
//!   [`run_standalone`], the same pipeline run without a server — the
//!   reference every served session is asserted bit-identical against;
//! * [`client::ServerClient`] — the typed client: handshake, open with
//!   backoff on `Busy`, submit, poll, and wait for the winner.
//!
//! Determinism contract: a session's zoo, scores and winner predictions
//! depend only on its [`gcode_engine::SessionSpec`] (task, config,
//! objective, seed) — never on which tenants share the fleet, how their
//! candidates interleave on its pools, or how many pools the fleet runs.
//! The session-isolation integration tests assert this bit-for-bit.
//!
//! # Example
//!
//! ```no_run
//! use gcode_core::eval::Objective;
//! use gcode_core::search::SearchConfig;
//! use gcode_engine::{FleetSpec, SessionSpec, SessionTask};
//! use gcode_server::{ServerClient, ServerConfig, SearchServer};
//! use std::time::Duration;
//!
//! let server = SearchServer::start(
//!     "127.0.0.1:0",
//!     ServerConfig::new(FleetSpec::loopback(2)).with_max_sessions(4),
//! )?;
//! let spec = SessionSpec {
//!     config: SearchConfig { iterations: 64, seed: 7, ..SearchConfig::default() },
//!     objective: Objective::new(0.25, 1.0, 5.0),
//!     task: SessionTask::ModelNet40,
//!     measure_zoo: true,
//!     scenario: None,
//! };
//! let mut client = ServerClient::connect(server.addr())?;
//! let id = client.open_session_retry(&spec, 100, Duration::from_millis(20))?;
//! client.submit(id)?;
//! let outcome = client.wait_result(id, Duration::from_millis(25), Duration::from_secs(60))?;
//! println!("winner score: {:?}", outcome.report.best_score);
//! client.close_session(id)?;
//! server.shutdown()?;
//! # Ok::<(), gcode_server::ServerError>(())
//! ```

#![deny(unsafe_code)]

pub mod client;
pub mod server;
pub mod session;

pub use client::{Admission, PollReply, ServerClient};
pub use gcode_engine::{SearchSpec, MAX_SESSION_ITERATIONS};
pub use server::{SearchServer, ServerConfig};
pub use session::{run_search, run_standalone, SERVE_BANK_SEED, SERVE_RUN_SEED};

use gcode_engine::EngineError;

/// Errors surfaced by the server and client layers.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Wire-protocol failure from the engine framing layer.
    Engine(EngineError),
    /// The peer answered with a clean [`gcode_engine::Frame::Error`]
    /// (version mismatch, unknown session, failed session, …).
    Rejected(String),
    /// The peer broke the session protocol (unexpected frame kind,
    /// connection closed mid-call, poll timeout).
    Protocol(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server io error: {e}"),
            ServerError::Engine(e) => write!(f, "server wire error: {e}"),
            ServerError::Rejected(m) => write!(f, "rejected by peer: {m}"),
            ServerError::Protocol(m) => write!(f, "session protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            ServerError::Rejected(_) | ServerError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}
