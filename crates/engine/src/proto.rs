//! Wire protocol: length-prefixed frames — packed intermediate states
//! as data frames, plus the control frames that drive a persistent edge
//! and the session frames that drive the `gcode-serve` daemon.
//!
//! Layout of one message: `[u32 total_len][u8 kind][body…]`. The original
//! three kinds carry co-inference traffic (see [`Frame`]): a `State` data
//! frame whose body is the packed feature tensor plus the optional CSR
//! graph (the paper's Fig. 2 point: splits after KNN must also ship graph
//! data; layout at [`encode_state`]), a `SwapPlan` control frame carrying
//! the next [`ExecutionPlan`] a persistent edge should serve (the paper's
//! Sec. 3.6 dispatcher: all zoo members share one supernet `WeightBank`,
//! so a swap ships a plan, never weights), and a bodiless `Shutdown`
//! control frame that ends the serve loop cleanly.
//!
//! Since protocol v2 a `SwapPlan` body is the binary columnar plan
//! encoding ([`encode_plan`]) rather than JSON — a fixed header (codec
//! version, FNV-1a integrity id, op counts, slot offset, flags) followed
//! by one contiguous tag column, one contiguous parameter column and one
//! contiguous weight-slot column across all ops. One `SwapPlan` per
//! deploy is the only way a plan reaches an edge, and only an offloaded
//! plan is shipped: a local plan never serves an edge frame. The legacy
//! JSON kind (1) of protocol v1 and the batched-deploy kinds (14, 15) are
//! no longer decoded; their bytes stay reserved and are refused by name.
//!
//! The remaining kinds are the search-as-a-service session protocol spoken
//! by `gcode_server`: a [`Frame::Hello`] handshake carrying
//! [`PROTOCOL_VERSION`] (the server answers a mismatch with a clean
//! [`Frame::Error`], never a decode failure), [`Frame::OpenSession`] /
//! [`Frame::SessionOpened`] / [`Frame::Busy`] for admission,
//! [`Frame::Submit`] / [`Frame::Poll`] / [`Frame::Progress`] /
//! [`Frame::Result`] for running a session to its winner, and
//! [`Frame::CloseSession`] to drop the server-side state.
//!
//! The byte-level layout of every frame kind is diagrammed in
//! `docs/ARCHITECTURE.md`; this module is the implementation.
//!
//! # Example
//!
//! Every frame round-trips through the message layer:
//!
//! ```
//! use gcode_engine::proto::{
//!     decode_frame, encode_frame, read_message, write_message, Frame,
//! };
//!
//! let mut wire = Vec::new();
//! write_message(&mut wire, &encode_frame(&Frame::Shutdown)).expect("write");
//!
//! let mut cursor = std::io::Cursor::new(wire);
//! let body = read_message(&mut cursor).expect("read").expect("one message");
//! assert_eq!(decode_frame(&body).expect("decode"), Frame::Shutdown);
//! // The stream ends at a message boundary: a clean EOF, not an error.
//! assert!(read_message(&mut cursor).expect("eof").is_none());
//! ```

use crate::plan::ExecutionPlan;
use crate::EngineError;
use bytes::{BufMut, BytesMut};
use gcode_compress::{compress_floats_into, decompress_floats};
use gcode_core::eval::scenario::ScenarioTrace;
use gcode_core::eval::{Objective, SearchReport};
use gcode_core::search::{SearchConfig, SearchResult};
use gcode_graph::CsrGraph;
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use gcode_nn::seq::LayerSpec;
use gcode_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::io::{IoSlice, Read, Write};

/// Intermediate execution state crossing the link.
#[derive(Debug, Clone, PartialEq)]
pub struct WireState {
    /// Monotone frame counter (pipelining keeps results ordered by it).
    pub frame_id: u64,
    /// Node/pooled features.
    pub features: Matrix,
    /// Live neighbor graph, if one was materialized on the sender side.
    pub graph: Option<CsrGraph>,
    /// Ground-truth label piggybacked for end-to-end accuracy accounting
    /// (not used for inference).
    pub label: u32,
}

/// Encodes a state into a message body:
///
/// ```text
/// [u64 frame_id][u32 label][u32 rows][u32 cols]
/// [u32 float_len][float blob — gcode_compress::compress_floats_into]
/// [u8 has_graph]([graph blob, to the end of the body])
/// ```
///
/// The graph blob ships the CSR arrays at the narrowest width that holds
/// them, neighbor order untouched (`Mean` aggregation sums in that order,
/// so the order is part of bit-identity):
///
/// ```text
/// [u32 n][u32 d]             d = every node's out-degree, or u32::MAX
/// [u32 degree × n]           only when d = u32::MAX (irregular)
/// [id × edges]               w LE bytes each, w = fewest bytes holding n−1
/// ```
///
/// `d = 0` is reserved for `n = 0`: an edgeless graph over `n > 0` nodes
/// ships its (all-zero) degree column, so every node a decoder allocates
/// for is backed by bytes that arrived.
///
/// # Panics
///
/// Panics if a neighbor id is `>= n` (narrowing would silently alias it)
/// or a count overflows its `u32` field.
pub fn encode_state(state: &WireState) -> Vec<u8> {
    let mut body = Vec::new();
    encode_state_into(state, &mut body);
    body
}

/// `d` field of a graph blob whose nodes differ in out-degree.
const IRREGULAR_DEGREE: u32 = u32::MAX;

fn wire_u32(v: usize) -> u32 {
    u32::try_from(v).expect("state frame counts fit their u32 fields")
}

/// Bytes per neighbor id in a graph blob over `n` nodes.
fn id_width(n: usize) -> usize {
    match n {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        0x1_0001..=0x100_0000 => 3,
        _ => 4,
    }
}

/// Appends the encoded state to `body` — lets [`encode_frame`] seed the
/// kind byte first, and every blob is written in place behind it.
fn encode_state_into(state: &WireState, body: &mut Vec<u8>) {
    body.extend_from_slice(&state.frame_id.to_le_bytes());
    body.extend_from_slice(&state.label.to_le_bytes());
    body.extend_from_slice(&wire_u32(state.features.rows()).to_le_bytes());
    body.extend_from_slice(&wire_u32(state.features.cols()).to_le_bytes());
    let len_at = body.len();
    body.extend_from_slice(&[0; 4]);
    compress_floats_into(state.features.as_slice(), body);
    let float_len = wire_u32(body.len() - len_at - 4);
    body[len_at..len_at + 4].copy_from_slice(&float_len.to_le_bytes());
    match &state.graph {
        None => body.push(0),
        Some(g) => {
            body.push(1);
            encode_graph_into(g, body);
        }
    }
}

fn encode_graph_into(g: &CsrGraph, body: &mut Vec<u8>) {
    let n = g.num_nodes();
    let degree = if n == 0 { 0 } else { g.degree(0) };
    let uniform = n == 0 || (degree > 0 && (1..n).all(|u| g.degree(u) == degree));
    let width = id_width(n);
    body.reserve(8 + if uniform { 0 } else { 4 * n } + width * g.num_edges());
    body.extend_from_slice(&wire_u32(n).to_le_bytes());
    if uniform {
        body.extend_from_slice(&wire_u32(degree).to_le_bytes());
    } else {
        body.extend_from_slice(&IRREGULAR_DEGREE.to_le_bytes());
        for u in 0..n {
            body.extend_from_slice(&wire_u32(g.degree(u)).to_le_bytes());
        }
    }
    let ids_at = body.len();
    body.resize(ids_at + width * g.num_edges(), 0);
    let ids = &mut body[ids_at..];
    let max_id = match width {
        1 => put_ids::<1>(g, ids),
        2 => put_ids::<2>(g, ids),
        3 => put_ids::<3>(g, ids),
        _ => put_ids::<4>(g, ids),
    };
    assert!(g.num_edges() == 0 || (max_id as usize) < n, "graph neighbor {max_id} out of range");
}

/// Writes every neighbor id, node by node, as its `W` low LE bytes;
/// returns the largest id seen.
fn put_ids<const W: usize>(g: &CsrGraph, mut out: &mut [u8]) -> u32 {
    let mut max_id = 0u32;
    for u in 0..g.num_nodes() {
        let neighbors = g.neighbors(u);
        let (row, rest) = out.split_at_mut(W * neighbors.len());
        for (slot, &v) in row.chunks_exact_mut(W).zip(neighbors) {
            slot.copy_from_slice(&v.to_le_bytes()[..W]);
            max_id = max_id.max(v);
        }
        out = rest;
    }
    max_id
}

/// Widens `W`-byte LE ids back to `u32`, rejecting any id `>= n`.
fn get_ids<const W: usize>(bytes: &[u8], n: usize) -> Result<Vec<u32>, EngineError> {
    let ids: Vec<u32> = bytes
        .chunks_exact(W)
        .map(|chunk| {
            let mut word = [0u8; 4];
            word[..W].copy_from_slice(chunk);
            u32::from_le_bytes(word)
        })
        .collect();
    if ids.iter().any(|&v| v as usize >= n) {
        return Err(EngineError::Protocol("graph neighbor out of range".to_string()));
    }
    Ok(ids)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, EngineError> {
    let end = *pos + 4;
    if end > buf.len() {
        return Err(EngineError::Protocol("truncated u32".to_string()));
    }
    let v = u32::from_le_bytes(buf[*pos..end].try_into().expect("4 bytes"));
    *pos = end;
    Ok(v)
}

/// The out-degrees of an irregular graph blob's degree column.
fn column_degrees(column: &[u8]) -> impl Iterator<Item = u32> + '_ {
    column.chunks_exact(4).map(|d| u32::from_le_bytes(d.try_into().expect("4 bytes")))
}

/// Decodes a graph blob (layout at [`encode_state`]). Strict: the id
/// bytes must be exactly what `n` and the degrees call for, and both are
/// checked against the bytes present before anything is allocated — the
/// CSR arrays never exceed 32× the blob.
fn decode_graph(blob: &[u8]) -> Result<CsrGraph, EngineError> {
    let mut pos = 0usize;
    let n = read_u32(blob, &mut pos)? as usize;
    let degree = read_u32(blob, &mut pos)?;
    let column = if degree == IRREGULAR_DEGREE {
        let column = n
            .checked_mul(4)
            .and_then(|len| blob[pos..].get(..len))
            .ok_or_else(|| EngineError::Protocol("graph degree column exceeds buffer".into()))?;
        pos += column.len();
        Some(column)
    } else if (degree == 0) != (n == 0) {
        return Err(EngineError::Protocol("uniform degree 0 is reserved for n = 0".to_string()));
    } else {
        None
    };
    // u32 counts: neither the sum nor the product can overflow a u64.
    let edges = match column {
        Some(column) => column_degrees(column).map(u64::from).sum(),
        None => n as u64 * u64::from(degree),
    };
    let width = id_width(n);
    let ids = &blob[pos..];
    if edges.checked_mul(width as u64) != Some(ids.len() as u64) {
        return Err(EngineError::Protocol(format!(
            "graph of {n} nodes and {edges} edges needs {width}-byte ids, got {} id bytes",
            ids.len()
        )));
    }
    let targets = match width {
        1 => get_ids::<1>(ids, n),
        2 => get_ids::<2>(ids, n),
        3 => get_ids::<3>(ids, n),
        _ => get_ids::<4>(ids, n),
    }?;
    Ok(match column {
        Some(column) => CsrGraph::from_degrees(column_degrees(column).map(|d| d as usize), targets),
        None => CsrGraph::from_degrees(std::iter::repeat_n(degree as usize, n), targets),
    })
}

/// Decodes a message body produced by [`encode_state`]. Strict: every
/// length must agree with the bytes present and nothing may trail the
/// last blob.
///
/// # Errors
///
/// Returns [`EngineError`] on truncation, trailing bytes or codec failure.
pub fn decode_state(body: &[u8]) -> Result<WireState, EngineError> {
    if body.len() < 12 {
        return Err(EngineError::Protocol("short body".to_string()));
    }
    let frame_id = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let mut pos = 8usize;
    let label = read_u32(body, &mut pos)?;
    let rows = read_u32(body, &mut pos)? as usize;
    let cols = read_u32(body, &mut pos)? as usize;
    let float_len = read_u32(body, &mut pos)? as usize;
    let packed = body[pos..]
        .get(..float_len)
        .ok_or_else(|| EngineError::Protocol("truncated features".to_string()))?;
    let values = decompress_floats(packed)?;
    if rows.checked_mul(cols) != Some(values.len()) {
        return Err(EngineError::Protocol("feature shape mismatch".to_string()));
    }
    let features = Matrix::from_vec(rows, cols, values);
    pos += float_len;
    let graph = match body.get(pos) {
        Some(0) if body.len() == pos + 1 => None,
        Some(0) => {
            return Err(EngineError::Protocol("bytes trail a graphless state".to_string()));
        }
        Some(1) => Some(decode_graph(&body[pos + 1..])?),
        Some(flag) => {
            return Err(EngineError::Protocol(format!("unknown graph flag {flag}")));
        }
        None => return Err(EngineError::Protocol("missing graph flag".to_string())),
    };
    Ok(WireState { frame_id, features, graph, label })
}

/// Version byte carried by [`Frame::Hello`]. Bump on any wire-visible
/// change to the session protocol; the server answers a mismatched client
/// with a [`Frame::Error`] naming both versions instead of letting the
/// peer trip over a frame it cannot decode.
///
/// History: v1 shipped `SwapPlan` as JSON (kind 1); v2 switched plan
/// deploys to the binary columnar encoding (kind 13) and added batched
/// deploys (kinds 14/15, one plan queue per round-trip). The legacy JSON
/// kind was decoded for one release after the switch; that window has
/// closed and kind 1 is now rejected. v3 changed the `State` body: the
/// byte-plane-shuffled LZ77 streams (which shipped post-ReLU activations
/// 2–3 % *larger* than raw) gave way to the zero-bitmap float blob and the
/// narrow-id graph blob laid out at [`encode_state`]. v4 carries plan
/// codec v3 in `SwapPlan` bodies (see [`PLAN_WIRE_VERSION`]) and a
/// `Result` report without the retired plan optimizer's counters. Still
/// v4 after kinds 14 and 15 were retired: no remaining frame's bytes
/// changed, so measurement-cache tags and cache files stay valid, and a
/// peer that still sends a batch gets a typed refusal naming the kind.
///
/// Frame sizes depend on it, so the measurement-cache keys of
/// `EngineBackend` and `gcode-serve` fold this byte in: a cache file
/// written under another version re-measures instead of replaying.
pub const PROTOCOL_VERSION: u8 = 4;

/// Version byte leading every binary-encoded plan. Independent of
/// [`PROTOCOL_VERSION`]: it gates the *plan codec* layout, so a decoder
/// can reject a plan blob from a future layout with a clean error
/// instead of misreading columns.
///
/// History: plan codec v1 carried two columns (tag, parameter); v2 added
/// the per-op weight-slot column, a fused-kernel tag (6) and an 8-byte
/// pipeline fingerprint in the header for the plan optimizer; v3 drops
/// the fingerprint and tag 6 with the optimizer itself. The version byte
/// is the first byte [`decode_plan`] checks, so a v2 blob is refused, not
/// misread, and no v2 id can be taken for a v3 one.
pub const PLAN_WIRE_VERSION: u8 = 3;

/// Which built-in workload a served search session runs on. The server
/// owns the dataset/space fixtures for each task so that every client
/// submitting the same `(task, config, objective)` gets bit-identical
/// results — a client never ships data, only the task name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionTask {
    /// Point-cloud classification (ModelNet40-style mini workload).
    ModelNet40,
    /// Text-graph classification (MR-style mini workload).
    Mr,
}

/// Everything a client ships to open a search session: the search
/// hyper-parameters (including the per-session seed that keeps tenants
/// bit-reproducible), the objective, the workload, and whether the zoo
/// winners should be deployed and measured on the server's shared warm
/// [`crate::EdgeFleet`] after the search converges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Search hyper-parameters; `config.seed` is the per-session seed.
    pub config: SearchConfig,
    /// Trade-off weight and performance constraints.
    pub objective: Objective,
    /// Which built-in workload fixture to search on.
    pub task: SessionTask,
    /// Deploy the finished zoo on the shared edge fleet and attach live
    /// measurements (and the winner's predictions) to the result.
    pub measure_zoo: bool,
    /// Scenario trace to replay against the finished zoo on a
    /// session-private pool after the measurement stage; per-segment
    /// [`ScenarioReport`](gcode_core::eval::scenario::ScenarioReport)s are
    /// attached to the result's report. Absent in older clients' specs —
    /// the JSON framing reads a missing field as `None`, so the protocol
    /// version is unchanged.
    pub scenario: Option<ScenarioTrace>,
}

/// Where a served session currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionState {
    /// Admitted and waiting for a worker slot.
    Queued,
    /// A worker is running the search loop.
    Searching,
    /// The search converged; zoo winners are being deployed on the fleet.
    Measuring,
    /// Finished — the next [`Frame::Poll`] returns the [`Frame::Result`].
    Done,
    /// Failed server-side; the progress frame carries no further data.
    Failed,
}

/// Reply to [`Frame::Submit`] and to [`Frame::Poll`] while a session is
/// still running: where the session is and how far along.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionProgress {
    /// Session this progress frame describes.
    pub session: u64,
    /// Lifecycle state.
    pub state: SessionState,
    /// Candidate evaluations performed so far.
    pub evaluated: u64,
    /// Stage-1 trial budget (`config.iterations`) for scale.
    pub total: u64,
    /// Best feasible score seen so far, if any.
    pub best_score: Option<f64>,
}

/// Terminal payload of a served session: the session's [`SearchReport`]
/// (with fleet measurements attached when `measure_zoo` was set), the full
/// [`SearchResult`] zoo, and the winner's deployed per-frame predictions —
/// the values asserted bit-identical to a standalone run in the session
/// isolation tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Session this outcome belongs to.
    pub session: u64,
    /// Evaluation-side report for the run.
    pub report: SearchReport,
    /// The zoo, history and constraint counters.
    pub result: SearchResult,
    /// The winner's class predictions from its fleet deployment (empty
    /// when `measure_zoo` was false or no candidate was feasible).
    pub winner_predictions: Vec<usize>,
}

/// One framed message on the wire: a data frame (an intermediate
/// [`WireState`] crossing the split, in both directions), one of the
/// control frames that drive a persistent edge, or one of the session
/// frames that drive the `gcode-serve` daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Intermediate execution state (device→edge) or result logits
    /// (edge→device).
    State(WireState),
    /// Hot-swap the edge's active plan in place: the connection, process
    /// and shared [`gcode_nn::seq::WeightBank`] all survive — only the
    /// layer assignment changes, exactly the paper's runtime-dispatcher
    /// claim.
    SwapPlan(Box<ExecutionPlan>),
    /// End the serve loop cleanly (the edge replies nothing and returns).
    /// On a `gcode-serve` connection (after [`Frame::Hello`]) this is the
    /// administrative shutdown request for the whole daemon.
    Shutdown,
    /// Handshake: first frame in each direction of a session connection,
    /// carrying the sender's [`PROTOCOL_VERSION`].
    Hello(u8),
    /// Clean, human-readable rejection (version mismatch, unknown
    /// session, malformed request) — the server's alternative to
    /// hanging up with nothing on the wire.
    Error(String),
    /// Client → server: open a session with this spec.
    OpenSession(Box<SessionSpec>),
    /// Server → client: the session was admitted under this id.
    SessionOpened(u64),
    /// Server → client: admission refused — `running` sessions hold the
    /// worker slots and `queued` more already wait; back off and retry.
    Busy {
        /// Sessions currently holding worker slots.
        running: u32,
        /// Admitted sessions waiting for a slot.
        queued: u32,
    },
    /// Client → server: start the identified session's search.
    Submit(u64),
    /// Client → server: ask how the identified session is doing.
    Poll(u64),
    /// Server → client: session still in flight (reply to `Submit`/`Poll`).
    Progress(SessionProgress),
    /// Server → client: the finished session's report, zoo and winner
    /// predictions (reply to `Poll` once the session is done).
    Result(Box<SessionOutcome>),
    /// Client → server: drop the session's server-side state.
    CloseSession(u64),
}

const KIND_STATE: u8 = 0;
/// Reserved: protocol v1's JSON `SwapPlan`. No longer encoded or
/// decoded; the byte stays reserved so it is never reassigned to a frame
/// an old peer would misread.
const KIND_SWAP_PLAN_LEGACY_JSON: u8 = 1;
const KIND_SHUTDOWN: u8 = 2;
const KIND_HELLO: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_OPEN_SESSION: u8 = 5;
const KIND_SESSION_OPENED: u8 = 6;
const KIND_BUSY: u8 = 7;
const KIND_SUBMIT: u8 = 8;
const KIND_POLL: u8 = 9;
const KIND_PROGRESS: u8 = 10;
const KIND_RESULT: u8 = 11;
const KIND_CLOSE_SESSION: u8 = 12;
const KIND_SWAP_PLAN_BINARY: u8 = 13;
/// Reserved: protocol v2–v4's batched deploy (a plan queue with per-plan
/// frame budgets) and its acknowledgement. Retired for one `SwapPlan` per
/// deploy; refused by name like kind 1, and never reassigned.
const KIND_SWAP_PLAN_BATCH_RETIRED: u8 = 14;
const KIND_ACK_BATCH_RETIRED: u8 = 15;

/// Columnar [`LayerSpec`] tags, one byte per op. The parameter column
/// holds `k` / `out_dim` for the parameterized ops and the mode index
/// (design-space order) for `Aggregate`/`GlobalPool`.
const TAG_BUILD_KNN: u8 = 0;
const TAG_BUILD_RANDOM: u8 = 1;
const TAG_AGGREGATE: u8 = 2;
const TAG_COMBINE: u8 = 3;
const TAG_GLOBAL_POOL: u8 = 4;
const TAG_IDENTITY: u8 = 5;

/// Fixed-header bytes of a binary plan: version byte, integrity id, op
/// counts, slot offset, flags. The three columns (one tag byte + one u32
/// parameter + one u32 weight slot per op) follow.
const PLAN_HEADER_LEN: usize = 1 + 8 + 2 + 2 + 4 + 1;

fn agg_mode_index(mode: AggMode) -> u32 {
    match mode {
        AggMode::Add => 0,
        AggMode::Mean => 1,
        AggMode::Max => 2,
    }
}

fn agg_mode_from_index(idx: u32) -> Result<AggMode, EngineError> {
    match idx {
        0 => Ok(AggMode::Add),
        1 => Ok(AggMode::Mean),
        2 => Ok(AggMode::Max),
        other => Err(EngineError::Protocol(format!("unknown aggregate mode index {other}"))),
    }
}

fn spec_column_entry(spec: &LayerSpec) -> (u8, u32) {
    match spec {
        LayerSpec::BuildKnn { k } => (TAG_BUILD_KNN, *k as u32),
        LayerSpec::BuildRandom { k } => (TAG_BUILD_RANDOM, *k as u32),
        LayerSpec::Aggregate(mode) => (TAG_AGGREGATE, agg_mode_index(*mode)),
        LayerSpec::Combine { out_dim } => (TAG_COMBINE, *out_dim as u32),
        LayerSpec::GlobalPool(mode) => {
            let idx = match mode {
                PoolMode::Sum => 0,
                PoolMode::Mean => 1,
                PoolMode::Max => 2,
            };
            (TAG_GLOBAL_POOL, idx)
        }
        LayerSpec::Identity => (TAG_IDENTITY, 0),
    }
}

fn spec_from_column(tag: u8, param: u32) -> Result<LayerSpec, EngineError> {
    match tag {
        TAG_BUILD_KNN => Ok(LayerSpec::BuildKnn { k: param as usize }),
        TAG_BUILD_RANDOM => Ok(LayerSpec::BuildRandom { k: param as usize }),
        TAG_AGGREGATE => Ok(LayerSpec::Aggregate(agg_mode_from_index(param)?)),
        TAG_COMBINE => Ok(LayerSpec::Combine { out_dim: param as usize }),
        TAG_GLOBAL_POOL => match param {
            0 => Ok(LayerSpec::GlobalPool(PoolMode::Sum)),
            1 => Ok(LayerSpec::GlobalPool(PoolMode::Mean)),
            2 => Ok(LayerSpec::GlobalPool(PoolMode::Max)),
            other => Err(EngineError::Protocol(format!("unknown pool mode index {other}"))),
        },
        TAG_IDENTITY => {
            if param == 0 {
                Ok(LayerSpec::Identity)
            } else {
                Err(EngineError::Protocol(format!("identity op carries parameter {param}")))
            }
        }
        other => Err(EngineError::Protocol(format!("unknown layer-spec tag {other}"))),
    }
}

/// FNV-1a over `bytes` — the stable (build- and process-independent)
/// hash behind [`plan_wire_id`] and the plan blob's integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Serializes the non-id portion of a binary plan: counts, offset,
/// flags, then the tag column, the parameter column and the weight-slot
/// column (device ops first, edge ops after — one contiguous array per
/// field across all ops). All of it is hashed into the wire id.
fn encode_plan_columns(plan: &ExecutionPlan) -> BytesMut {
    let ops = plan.device_specs.len() + plan.edge_specs.len();
    let mut cols = BytesMut::with_capacity(PLAN_HEADER_LEN - 9 + 9 * ops);
    cols.put_u16_le(plan.device_specs.len() as u16);
    cols.put_u16_le(plan.edge_specs.len() as u16);
    cols.put_u32_le(plan.edge_slot_offset as u32);
    cols.put_u8(u8::from(plan.offloaded));
    for spec in plan.device_specs.iter().chain(&plan.edge_specs) {
        cols.put_u8(spec_column_entry(spec).0);
    }
    for spec in plan.device_specs.iter().chain(&plan.edge_specs) {
        cols.put_u32_le(spec_column_entry(spec).1);
    }
    for &slot in plan.device_slots.iter().chain(&plan.edge_slots) {
        cols.put_u32_le(slot as u32);
    }
    cols
}

/// Stable 64-bit identity of a plan: the FNV-1a hash of its columnar
/// encoding. Doubles as the wire-level integrity check ([`decode_plan`]
/// recomputes it, so a bit-flipped blob is rejected instead of deploying
/// a scrambled plan) and as a persistent cache key for deployed-plan
/// measurements (`gcode-serve`'s warm-restart cache).
pub fn plan_wire_id(plan: &ExecutionPlan) -> u64 {
    fnv1a(&encode_plan_columns(plan))
}

/// Encodes a plan into the length-delimited binary columnar layout:
///
/// ```text
/// [u8 PLAN_WIRE_VERSION][u64 plan id][u16 device ops][u16 edge ops]
/// [u32 edge_slot_offset][u8 flags (bit0 = offloaded)]
/// [u8 tag × ops][u32 param × ops][u32 slot × ops]   (device, then edge)
/// ```
///
/// Strictly smaller than the equivalent JSON serialization for every
/// plan (asserted in the round-trip tests) and decodable without a
/// parser pass.
pub fn encode_plan(plan: &ExecutionPlan) -> Vec<u8> {
    let cols = encode_plan_columns(plan);
    let mut buf = BytesMut::with_capacity(9 + cols.len());
    buf.put_u8(PLAN_WIRE_VERSION);
    buf.put_u64_le(fnv1a(&cols));
    buf.put_slice(&cols);
    buf.into_vec()
}

/// Decodes a binary columnar plan produced by [`encode_plan`],
/// recomputing the integrity id.
///
/// # Errors
///
/// [`EngineError::Protocol`] on a codec-version mismatch, truncated or
/// oversized buffer, unknown tag/mode, or an id mismatch (bit corruption).
pub fn decode_plan(buf: &[u8]) -> Result<ExecutionPlan, EngineError> {
    if buf.len() < PLAN_HEADER_LEN {
        return Err(EngineError::Protocol(format!(
            "binary plan needs at least {PLAN_HEADER_LEN} bytes, got {}",
            buf.len()
        )));
    }
    if buf[0] != PLAN_WIRE_VERSION {
        return Err(EngineError::Protocol(format!(
            "plan codec version mismatch: decoder speaks v{PLAN_WIRE_VERSION}, blob is v{}",
            buf[0]
        )));
    }
    let id = u64::from_le_bytes(buf[1..9].try_into().expect("8 bytes"));
    let cols = &buf[9..];
    if fnv1a(cols) != id {
        return Err(EngineError::Protocol(
            "plan integrity check failed (corrupt blob)".to_string(),
        ));
    }
    let device_ops = u16::from_le_bytes(cols[0..2].try_into().expect("2 bytes")) as usize;
    let edge_ops = u16::from_le_bytes(cols[2..4].try_into().expect("2 bytes")) as usize;
    let mut pos = 4usize;
    let edge_slot_offset = read_u32(cols, &mut pos)? as usize;
    let flags = cols[pos];
    if flags > 1 {
        return Err(EngineError::Protocol(format!("unknown plan flag bits {flags:#04x}")));
    }
    pos += 1;
    let ops = device_ops + edge_ops;
    if cols.len() != pos + 9 * ops {
        return Err(EngineError::Protocol(format!(
            "binary plan length mismatch: {ops} ops need {} column bytes, got {}",
            9 * ops,
            cols.len() - pos
        )));
    }
    let (tags, rest) = cols[pos..].split_at(ops);
    let (params, slot_col) = rest.split_at(4 * ops);
    let mut specs = Vec::with_capacity(ops);
    let mut slots = Vec::with_capacity(ops);
    for (i, &tag) in tags.iter().enumerate() {
        let param = u32::from_le_bytes(params[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        specs.push(spec_from_column(tag, param)?);
        slots
            .push(u32::from_le_bytes(slot_col[4 * i..4 * i + 4].try_into().expect("4 bytes"))
                as usize);
    }
    let edge_specs = specs.split_off(device_ops);
    let edge_slots = slots.split_off(device_ops);
    Ok(ExecutionPlan {
        device_specs: specs,
        edge_specs,
        device_slots: slots,
        edge_slots,
        edge_slot_offset,
        offloaded: flags & 1 == 1,
    })
}

/// Encodes a frame into a message body (pass to [`write_message`]).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::State(state) => {
            let mut body = vec![KIND_STATE];
            encode_state_into(state, &mut body);
            body
        }
        Frame::SwapPlan(plan) => {
            let mut body = vec![KIND_SWAP_PLAN_BINARY];
            body.extend_from_slice(&encode_plan(plan));
            body
        }
        Frame::Shutdown => vec![KIND_SHUTDOWN],
        Frame::Hello(version) => vec![KIND_HELLO, *version],
        Frame::Error(msg) => {
            let mut body = vec![KIND_ERROR];
            body.extend_from_slice(msg.as_bytes());
            body
        }
        Frame::OpenSession(spec) => encode_json_frame(KIND_OPEN_SESSION, spec.as_ref()),
        Frame::SessionOpened(id) => encode_session_id(KIND_SESSION_OPENED, *id),
        Frame::Busy { running, queued } => {
            let mut body = vec![KIND_BUSY];
            body.extend_from_slice(&running.to_le_bytes());
            body.extend_from_slice(&queued.to_le_bytes());
            body
        }
        Frame::Submit(id) => encode_session_id(KIND_SUBMIT, *id),
        Frame::Poll(id) => encode_session_id(KIND_POLL, *id),
        Frame::Progress(progress) => encode_json_frame(KIND_PROGRESS, progress),
        Frame::Result(outcome) => encode_json_frame(KIND_RESULT, outcome.as_ref()),
        Frame::CloseSession(id) => encode_session_id(KIND_CLOSE_SESSION, *id),
    }
}

/// Short human-readable name of a frame's kind, for error messages.
pub fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::State(_) => "state",
        Frame::SwapPlan(_) => "swap-plan",
        Frame::Shutdown => "shutdown",
        Frame::Hello(_) => "hello",
        Frame::Error(_) => "error",
        Frame::OpenSession(_) => "open-session",
        Frame::SessionOpened(_) => "session-opened",
        Frame::Busy { .. } => "busy",
        Frame::Submit(_) => "submit",
        Frame::Poll(_) => "poll",
        Frame::Progress(_) => "progress",
        Frame::Result(_) => "result",
        Frame::CloseSession(_) => "close-session",
    }
}

/// Kind byte plus a JSON body — the encoding shared by every structured
/// session frame (and by `SwapPlan`).
fn encode_json_frame<T: Serialize>(kind: u8, payload: &T) -> Vec<u8> {
    let mut body = vec![kind];
    body.extend_from_slice(
        serde_json::to_string(payload).expect("session payloads always serialize").as_bytes(),
    );
    body
}

/// Kind byte plus a little-endian u64 session id.
fn encode_session_id(kind: u8, id: u64) -> Vec<u8> {
    let mut body = vec![kind];
    body.extend_from_slice(&id.to_le_bytes());
    body
}

/// Decodes the 8-byte session id carried by `SessionOpened`, `Submit`,
/// `Poll` and `CloseSession` bodies.
fn decode_session_id(rest: &[u8], kind: &str) -> Result<u64, EngineError> {
    let bytes: [u8; 8] = rest
        .try_into()
        .map_err(|_| EngineError::Protocol(format!("{kind} frame body must be exactly 8 bytes")))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Decodes a JSON frame body into its payload type.
fn decode_json_frame<T: Deserialize>(rest: &[u8], kind: &str) -> Result<T, EngineError> {
    let text = std::str::from_utf8(rest)
        .map_err(|_| EngineError::Protocol(format!("{kind} frame body is not UTF-8")))?;
    serde_json::from_str(text)
        .map_err(|e| EngineError::Protocol(format!("malformed {kind} frame body: {e}")))
}

/// Decodes a message body produced by [`encode_frame`].
///
/// # Errors
///
/// Returns [`EngineError`] on an empty body, an unknown kind byte, or a
/// malformed frame body.
pub fn decode_frame(body: &[u8]) -> Result<Frame, EngineError> {
    let (&kind, rest) = body
        .split_first()
        .ok_or_else(|| EngineError::Protocol("empty frame (missing kind byte)".to_string()))?;
    match kind {
        KIND_STATE => Ok(Frame::State(decode_state(rest)?)),
        KIND_SWAP_PLAN_LEGACY_JSON => Err(EngineError::Protocol(
            "legacy JSON swap-plan (kind 1) is no longer supported; \
             re-encode with encode_plan (kind 13)"
                .to_string(),
        )),
        KIND_SHUTDOWN => {
            if rest.is_empty() {
                Ok(Frame::Shutdown)
            } else {
                Err(EngineError::Protocol(format!(
                    "shutdown frame carries {} unexpected body bytes",
                    rest.len()
                )))
            }
        }
        KIND_HELLO => match rest {
            [version] => Ok(Frame::Hello(*version)),
            _ => Err(EngineError::Protocol(format!(
                "hello frame body must be exactly one version byte, got {}",
                rest.len()
            ))),
        },
        KIND_ERROR => {
            let msg = std::str::from_utf8(rest)
                .map_err(|_| EngineError::Protocol("error frame body is not UTF-8".to_string()))?;
            Ok(Frame::Error(msg.to_string()))
        }
        KIND_OPEN_SESSION => {
            Ok(Frame::OpenSession(Box::new(decode_json_frame(rest, "open-session")?)))
        }
        KIND_SESSION_OPENED => Ok(Frame::SessionOpened(decode_session_id(rest, "session-opened")?)),
        KIND_BUSY => {
            if rest.len() != 8 {
                return Err(EngineError::Protocol(format!(
                    "busy frame body must be exactly 8 bytes, got {}",
                    rest.len()
                )));
            }
            let mut pos = 0usize;
            let running = read_u32(rest, &mut pos)?;
            let queued = read_u32(rest, &mut pos)?;
            Ok(Frame::Busy { running, queued })
        }
        KIND_SUBMIT => Ok(Frame::Submit(decode_session_id(rest, "submit")?)),
        KIND_POLL => Ok(Frame::Poll(decode_session_id(rest, "poll")?)),
        KIND_PROGRESS => Ok(Frame::Progress(decode_json_frame(rest, "progress")?)),
        KIND_RESULT => Ok(Frame::Result(Box::new(decode_json_frame(rest, "result")?))),
        KIND_CLOSE_SESSION => Ok(Frame::CloseSession(decode_session_id(rest, "close-session")?)),
        KIND_SWAP_PLAN_BINARY => Ok(Frame::SwapPlan(Box::new(decode_plan(rest)?))),
        KIND_SWAP_PLAN_BATCH_RETIRED | KIND_ACK_BATCH_RETIRED => {
            let name = if kind == KIND_ACK_BATCH_RETIRED { "ack-batch" } else { "swap-plan-batch" };
            Err(EngineError::Protocol(format!(
                "{name} (kind {kind}) is retired; deploy each plan with one swap-plan (kind 13)"
            )))
        }
        other => Err(EngineError::Protocol(format!("unknown frame kind {other}"))),
    }
}

/// Writes one length-prefixed message to a stream.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer, and refuses bodies
/// over [`MAX_MESSAGE_LEN`] — the sender fails fast instead of emitting a
/// frame the peer is guaranteed to reject (and a body past `u32::MAX`
/// would silently wrap the length prefix and desynchronize framing).
/// A `&mut TcpStream` can be passed directly.
pub fn write_message<W: Write>(mut w: W, body: &[u8]) -> Result<(), EngineError> {
    if body.len() > MAX_MESSAGE_LEN {
        return Err(EngineError::Protocol(format!(
            "refusing to send a {}-byte message over the {MAX_MESSAGE_LEN}-byte cap",
            body.len()
        )));
    }
    // One vectored write, not a copy behind the prefix: on a `TcpStream`
    // prefix and body still leave in one segment — a separate 4-byte
    // prefix write would tickle Nagle + delayed-ACK (40 ms stalls) on
    // sockets without nodelay. A writer may take any part of it, so the
    // prefix is re-offered until it is out; `write_all` finishes the body.
    let prefix = (body.len() as u32).to_le_bytes();
    let mut sent = 0usize;
    while sent < prefix.len() {
        match w.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.write_all(&body[sent - prefix.len()..])?;
    w.flush()?;
    Ok(())
}

/// Largest message body [`read_message`] will accept. Real payloads are a
/// packed feature tensor plus a CSR graph — well under a megabyte at
/// paper scale — so a corrupted length prefix must not drive a multi-GiB
/// allocation on a constrained device.
pub const MAX_MESSAGE_LEN: usize = 64 << 20;

/// Most [`read_message`] reserves on the word of a length prefix alone; a
/// longer body grows its buffer as the bytes actually arrive.
const MAX_EAGER_RESERVE: usize = 1 << 20;

/// Reads one length-prefixed message; `Ok(None)` signals a clean EOF at a
/// message boundary (peer closed the stream).
///
/// # Errors
///
/// Propagates I/O errors and mid-message truncation — including a stream
/// that ends partway through the 4-byte length prefix, which is corruption,
/// not a clean shutdown — and rejects length prefixes beyond
/// [`MAX_MESSAGE_LEN`] before allocating.
pub fn read_message<R: Read>(r: R) -> Result<Option<Vec<u8>>, EngineError> {
    let mut body = Vec::new();
    Ok(read_message_into(r, &mut body)?.then_some(body))
}

/// [`read_message`] into a buffer the caller keeps across messages;
/// returns `false` on a clean EOF at a message boundary. A loop that
/// reads every frame of a connection this way allocates its buffer once,
/// not once per frame. A buffer an earlier message grew past the eager
/// reserve is released first, so one large message is not held for the
/// rest of the connection.
pub(crate) fn read_message_into<R: Read>(
    mut r: R,
    body: &mut Vec<u8>,
) -> Result<bool, EngineError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(EngineError::Protocol(
                    "stream truncated inside a message length prefix".to_string(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_MESSAGE_LEN {
        return Err(EngineError::Protocol(format!(
            "message length {len} exceeds the {MAX_MESSAGE_LEN}-byte cap"
        )));
    }
    if body.capacity() > MAX_EAGER_RESERVE {
        *body = Vec::new();
    }
    body.clear();
    body.reserve(len.min(MAX_EAGER_RESERVE));
    let arrived = r.by_ref().take(len as u64).read_to_end(body)?;
    if arrived < len {
        return Err(EngineError::Protocol(format!(
            "stream truncated inside a message body: {arrived} of {len} bytes arrived"
        )));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_graph() -> WireState {
        WireState {
            frame_id: 42,
            features: Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.5, -1.0]]),
            graph: Some(CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])),
            label: 7,
        }
    }

    #[test]
    fn state_round_trip_with_graph() {
        let s = state_with_graph();
        let body = encode_state(&s);
        let back = decode_state(&body).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn state_round_trip_without_graph() {
        let s = WireState { graph: None, ..state_with_graph() };
        let back = decode_state(&encode_state(&s)).expect("round trip");
        assert_eq!(back.graph, None);
        assert_eq!(back.features, s.features);
    }

    #[test]
    fn truncated_body_rejected() {
        let body = encode_state(&state_with_graph());
        assert!(decode_state(&body[..body.len() - 2]).is_err());
        assert!(decode_state(&body[..6]).is_err());
    }

    #[test]
    fn message_framing_round_trip() {
        let mut buf = Vec::new();
        write_message(&mut buf, b"hello").expect("write");
        write_message(&mut buf, b"").expect("write empty");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_message(&mut cursor).expect("read").expect("some"), b"hello");
        assert_eq!(read_message(&mut cursor).expect("read").expect("some"), b"");
        assert!(read_message(&mut cursor).expect("eof").is_none());
    }

    #[test]
    fn frame_kinds_round_trip() {
        let state = Frame::State(state_with_graph());
        assert_eq!(decode_frame(&encode_frame(&state)).expect("state"), state);

        let plan = ExecutionPlan::raw(
            vec![gcode_nn::seq::LayerSpec::BuildKnn { k: 4 }],
            vec![gcode_nn::seq::LayerSpec::Identity],
            2,
            true,
        );
        let swap = Frame::SwapPlan(Box::new(plan));
        assert_eq!(decode_frame(&encode_frame(&swap)).expect("swap"), swap);

        assert_eq!(
            decode_frame(&encode_frame(&Frame::Shutdown)).expect("shutdown"),
            Frame::Shutdown
        );
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode_frame(&[]).is_err(), "empty body");
        assert!(decode_frame(&[99]).is_err(), "unknown kind");
        assert!(decode_frame(&[super::KIND_STATE]).is_err(), "state with no body");
        assert!(
            decode_frame(&[super::KIND_SWAP_PLAN_LEGACY_JSON, b'{']).is_err(),
            "legacy JSON swap-plan kind is rejected"
        );
        assert!(decode_frame(&[super::KIND_SHUTDOWN, 0]).is_err(), "shutdown with a body");
        // Truncating a state frame mid-body must fail, never mis-decode.
        let body = encode_frame(&Frame::State(state_with_graph()));
        assert!(decode_frame(&body[..body.len() - 3]).is_err());
    }

    fn session_spec() -> SessionSpec {
        SessionSpec {
            config: SearchConfig { iterations: 24, seed: 11, ..SearchConfig::default() },
            objective: Objective::new(0.25, 1.0, 5.0),
            task: SessionTask::ModelNet40,
            measure_zoo: true,
            scenario: None,
        }
    }

    #[test]
    fn session_frames_round_trip() {
        let frames = [
            Frame::Hello(PROTOCOL_VERSION),
            Frame::Error("protocol version mismatch".to_string()),
            Frame::OpenSession(Box::new(session_spec())),
            Frame::SessionOpened(7),
            Frame::Busy { running: 4, queued: 9 },
            Frame::Submit(7),
            Frame::Poll(u64::MAX),
            Frame::Progress(SessionProgress {
                session: 7,
                state: SessionState::Searching,
                evaluated: 12,
                total: 24,
                best_score: Some(0.5),
            }),
            Frame::CloseSession(7),
        ];
        for frame in frames {
            assert_eq!(decode_frame(&encode_frame(&frame)).expect("round trip"), frame);
        }
    }

    #[test]
    fn result_frame_round_trips_with_report_and_zoo() {
        let report = SearchReport {
            backend: "serve".to_string(),
            workers: 1,
            cache: Default::default(),
            unique_architectures: 3,
            zoo_len: 1,
            best_score: Some(0.25),
            constraint_misses: 2,
            trials: 24,
            measured: None,
            fleet: None,
            scenarios: None,
        };
        let outcome = SessionOutcome {
            session: 9,
            report,
            result: SearchResult {
                zoo: vec![],
                history: vec![0.1, 0.25],
                constraint_misses: 2,
                validity_draws: 5,
            },
            winner_predictions: vec![0, 3, 1],
        };
        let frame = Frame::Result(Box::new(outcome));
        assert_eq!(decode_frame(&encode_frame(&frame)).expect("round trip"), frame);
    }

    #[test]
    fn malformed_session_frames_rejected() {
        assert!(decode_frame(&[KIND_HELLO]).is_err(), "hello needs its version byte");
        assert!(decode_frame(&[KIND_HELLO, 1, 2]).is_err(), "hello with extra bytes");
        assert!(decode_frame(&[KIND_SUBMIT, 1, 2, 3]).is_err(), "short session id");
        assert!(decode_frame(&[KIND_BUSY, 0, 0]).is_err(), "short busy counters");
        assert!(decode_frame(&[KIND_OPEN_SESSION, b'{']).is_err(), "truncated spec json");
        assert!(decode_frame(&[KIND_RESULT, 0xFF]).is_err(), "non-UTF-8 result body");
    }

    fn split_plan() -> ExecutionPlan {
        ExecutionPlan::raw(
            vec![
                LayerSpec::BuildKnn { k: 20 },
                LayerSpec::Aggregate(AggMode::Max),
                LayerSpec::Combine { out_dim: 64 },
            ],
            vec![
                LayerSpec::BuildRandom { k: 10 },
                LayerSpec::Aggregate(AggMode::Mean),
                LayerSpec::Combine { out_dim: 40 },
                LayerSpec::GlobalPool(PoolMode::Mean),
            ],
            3,
            true,
        )
    }

    #[test]
    fn binary_plan_round_trips() {
        let plan = split_plan();
        let blob = encode_plan(&plan);
        assert_eq!(decode_plan(&blob).expect("round trip"), plan);
        // The wire id is the id embedded in the blob.
        assert_eq!(
            u64::from_le_bytes(blob[1..9].try_into().expect("8 bytes")),
            plan_wire_id(&plan)
        );
    }

    fn local_plan() -> ExecutionPlan {
        ExecutionPlan::raw(
            vec![LayerSpec::BuildKnn { k: 4 }, LayerSpec::GlobalPool(PoolMode::Sum)],
            Vec::new(),
            2,
            false,
        )
    }

    #[test]
    fn binary_plan_beats_json_size() {
        for plan in [split_plan(), local_plan()] {
            let binary = encode_plan(&plan);
            let json = serde_json::to_string(&plan).expect("serializes");
            assert!(
                binary.len() < json.len(),
                "binary plan ({} B) must be strictly smaller than JSON ({} B)",
                binary.len(),
                json.len()
            );
        }
    }

    #[test]
    fn legacy_json_swap_plan_is_rejected() {
        // PR 8 kept the JSON decode path for one release; that release has
        // shipped. A well-formed v1 body must now be refused outright.
        let mut body = vec![KIND_SWAP_PLAN_LEGACY_JSON];
        body.extend_from_slice(
            serde_json::to_string(&split_plan()).expect("serializes").as_bytes(),
        );
        let err = decode_frame(&body).expect_err("legacy kind must be rejected");
        assert!(err.to_string().contains("no longer supported"), "got: {err}");
    }

    #[test]
    fn gapped_plan_round_trips_with_its_slots() {
        // The lowering never emits non-contiguous slots, but the slot
        // column is on the wire and must carry what it is given.
        let plan = ExecutionPlan {
            device_specs: vec![LayerSpec::BuildKnn { k: 20 }, LayerSpec::Combine { out_dim: 64 }],
            edge_specs: vec![
                LayerSpec::Combine { out_dim: 40 },
                LayerSpec::GlobalPool(PoolMode::Mean),
            ],
            device_slots: vec![0, 2],
            edge_slots: vec![6, 7],
            edge_slot_offset: 6,
            offloaded: true,
        };
        let blob = encode_plan(&plan);
        let back = decode_plan(&blob).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(back.device_slots, vec![0, 2]);
        assert_eq!(back.edge_slots, vec![6, 7]);
        // Slot assignments are identity-bearing.
        let shifted = ExecutionPlan { device_slots: vec![0, 3], ..plan.clone() };
        assert_ne!(plan_wire_id(&plan), plan_wire_id(&shifted));
    }

    /// A blob whose integrity id matches its columns, as a peer speaking
    /// plan codec `version` would frame them.
    fn framed_plan(version: u8, cols: &[u8]) -> Vec<u8> {
        let mut blob = vec![version];
        blob.extend_from_slice(&fnv1a(cols).to_le_bytes());
        blob.extend_from_slice(cols);
        blob
    }

    #[test]
    fn a_well_formed_v2_plan_blob_is_refused() {
        // What the previous build shipped for `split_plan()`: the v3
        // columns with the 8-byte optimizer fingerprint after the flags.
        let v3 = encode_plan_columns(&split_plan());
        let mut cols = v3[..9].to_vec();
        cols.extend_from_slice(&0xBEEF_CAFE_F00D_1234u64.to_le_bytes());
        cols.extend_from_slice(&v3[9..]);
        let err = decode_plan(&framed_plan(2, &cols)).expect_err("v2 must be refused");
        assert!(matches!(&err, EngineError::Protocol(m) if m.contains("blob is v2")), "{err}");
    }

    #[test]
    fn the_retired_fused_tag_is_refused_as_unknown() {
        let plan = split_plan();
        let mut cols = encode_plan_columns(&plan).to_vec();
        cols[9 + 1] = 6; // the tag column follows the 9 header bytes
        let err = decode_plan(&framed_plan(PLAN_WIRE_VERSION, &cols)).expect_err("tag 6");
        assert!(
            matches!(&err, EngineError::Protocol(m) if m.contains("unknown layer-spec tag 6")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_plan_blob_rejected() {
        let blob = encode_plan(&split_plan());
        // Flip one bit in every byte position: the integrity id (or, for
        // flips inside the id/version itself, the mismatch check) must
        // reject each corruption — never decode a scrambled plan.
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(decode_plan(&bad).is_err(), "bit flip at byte {i} must be rejected");
        }
        assert!(decode_plan(&blob[..blob.len() - 1]).is_err(), "truncated blob");
        assert!(decode_plan(&[]).is_err(), "empty blob");
    }

    /// What `stream_wire` ships: the `Combine { dim: 64 }` output of the
    /// supernet bank on a 1024-point cloud — post-ReLU, half `+0.0`.
    fn relu_activation() -> Matrix {
        use crate::frame::{DeviceCore, DeviceStep};
        let cloud = gcode_graph::datasets::PointCloudDataset::generate(1, 1024, 40, 1);
        let mut device = DeviceCore::new(gcode_nn::seq::WeightBank::new(40, 0x5EED), 0);
        device.deploy(ExecutionPlan::raw(
            vec![LayerSpec::Combine { out_dim: 64 }],
            vec![],
            2,
            true,
        ));
        let Ok(DeviceStep::Ship(state)) = device.frame(0, &cloud.samples()[0]) else {
            panic!("an offloaded plan ships its frame")
        };
        assert_eq!(state.features.shape(), (1024, 64));
        state.features
    }

    /// The `float_len` field of the state's encoding.
    fn packed_float_len(features: &Matrix) -> usize {
        let state = WireState { frame_id: 0, features: features.clone(), graph: None, label: 0 };
        u32::from_le_bytes(encode_state(&state)[20..24].try_into().expect("4 bytes")) as usize
    }

    #[test]
    fn relu_activation_packs_to_about_half_its_raw_size() {
        let h = relu_activation();
        let packed = packed_float_len(&h);
        assert!(
            packed as f64 <= 0.56 * (4 * h.len()) as f64,
            "a post-ReLU activation must pack to <= 0.56x raw, got {packed} of {}",
            4 * h.len()
        );
        // A dense (post-Aggregate-style) tensor pays the 5-byte header only.
        let dense = h.map(|v| v + 1.0);
        assert_eq!(packed_float_len(&dense), 5 + 4 * dense.len());
    }

    #[test]
    fn measured_float_ratio_meets_the_link_models_default() {
        // `gcode_hardware::Link` prices every modeled transfer at its
        // default `compression_ratio`; the codec must deliver at least that
        // on the activations the engine ships, or the Analytic/Sim tiers
        // undercharge the link relative to the Measured tier.
        let h = relu_activation();
        let measured = (4 * h.len()) as f64 / packed_float_len(&h) as f64;
        let modeled = gcode_hardware::Link::mbps(10.0).compression_ratio;
        assert!(measured >= modeled, "measured ratio {measured:.3} < modeled {modeled}");
    }

    /// A graph over `n` nodes whose node `u` has `degree(u)` neighbors,
    /// ids scattered over the whole range and deliberately unsorted.
    fn scattered_graph(n: usize, degree: impl Fn(usize) -> usize) -> CsrGraph {
        let degrees: Vec<usize> = (0..n).map(degree).collect();
        let mut targets = Vec::with_capacity(degrees.iter().sum());
        for (u, &d) in degrees.iter().enumerate() {
            for j in 0..d {
                targets.push(((u * 2_654_435_761 + (d - j) * 40_503) % n) as u32);
            }
        }
        CsrGraph::from_degrees(degrees, targets)
    }

    fn state_over(graph: CsrGraph) -> WireState {
        WireState {
            frame_id: 9,
            features: Matrix::zeros(graph.num_nodes(), 1),
            graph: Some(graph),
            label: 2,
        }
    }

    #[test]
    fn graphs_round_trip_at_every_id_width_with_neighbor_order_intact() {
        for n in [0usize, 1, 2, 256, 257, 65536, 65537] {
            let regular = scattered_graph(n, |_| 3);
            let irregular = scattered_graph(n, |u| u % 4);
            let edgeless = CsrGraph::empty(n);
            for graph in [regular, irregular, edgeless] {
                let state = state_over(graph);
                let back = decode_state(&encode_state(&state)).expect("round trip");
                // `CsrGraph` equality is offsets and targets, element for
                // element: neighbor order is part of it.
                assert_eq!(back, state, "n = {n}");
            }
        }
        // The endpoints of each width: n - 1 is the largest id there is.
        for n in [256usize, 257, 65536, 65537] {
            let graph = CsrGraph::from_degrees(vec![2; n], [0, n as u32 - 1].repeat(n));
            let state = state_over(graph);
            assert_eq!(decode_state(&encode_state(&state)).expect("round trip"), state);
        }
    }

    #[test]
    fn knn_graph_blob_is_two_bytes_an_edge() {
        let graph = scattered_graph(1024, |_| 20);
        let with = encode_state(&state_over(graph.clone())).len();
        let without = encode_state(&WireState { graph: None, ..state_over(graph) }).len();
        assert_eq!(with - without, 8 + 2 * 1024 * 20);
    }

    #[test]
    fn a_stream_state_encodes_to_the_bytes_its_protocol_version_pins() {
        // A seeded 1024 × 64 post-ReLU activation (half its words +0.0,
        // sparse mode) over a 20-regular graph (two-byte ids): both blobs
        // a `State` frame carries. A codec edit that moves one byte fails
        // here until it bumps `PROTOCOL_VERSION` and repins the digest —
        // the measurement-cache keys fold the version in.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x57A7E);
        let data = (0..1024 * 64).map(|_| rng.gen_range(-1.0f32..1.0).max(0.0)).collect();
        let state = WireState {
            frame_id: 7,
            features: Matrix::from_vec(1024, 64, data),
            graph: Some(scattered_graph(1024, |_| 20)),
            label: 3,
        };
        let body = encode_state(&state);
        assert_eq!(
            (PROTOCOL_VERSION, body.len(), fnv1a(&body)),
            (4, 179_530, 0xD662_885D_0F3C_C300)
        );
    }

    /// `[n][d]` + payload behind a graphless 0x0 state's flag byte.
    fn state_with_graph_blob(n: u32, d: u32, payload: &[u8]) -> Vec<u8> {
        let empty = WireState { frame_id: 0, features: Matrix::zeros(0, 0), graph: None, label: 0 };
        let mut body = encode_state(&empty);
        *body.last_mut().expect("flag byte") = 1;
        body.extend_from_slice(&n.to_le_bytes());
        body.extend_from_slice(&d.to_le_bytes());
        body.extend_from_slice(payload);
        body
    }

    #[test]
    fn hand_built_hostile_graph_blobs_are_rejected() {
        assert!(decode_state(&state_with_graph_blob(3, 1, &[1, 2, 0])).is_ok(), "canonical");
        let cases: [(&str, Vec<u8>); 9] = [
            ("id >= n", state_with_graph_blob(3, 1, &[1, 3, 0])),
            ("degree x width over the buffer", state_with_graph_blob(3, 2, &[1, 2, 0])),
            ("degree x width under the buffer", state_with_graph_blob(3, 1, &[1, 2, 0, 0])),
            ("huge uniform degree", state_with_graph_blob(3, u32::MAX - 1, &[1, 2, 0])),
            ("huge node count, no bytes", state_with_graph_blob(u32::MAX, 1, &[])),
            ("edgeless nodes without a degree column", state_with_graph_blob(1 << 30, 0, &[])),
            (
                "degree column over the buffer",
                state_with_graph_blob(1 << 30, IRREGULAR_DEGREE, &[0; 64]),
            ),
            (
                "degrees disagree with ids",
                state_with_graph_blob(2, IRREGULAR_DEGREE, &[2, 0, 0, 0, 0, 0, 0, 0, 1]),
            ),
            ("one-byte ids where n needs two", state_with_graph_blob(300, 1, &[0; 300])),
        ];
        for (what, body) in cases {
            let err = decode_state(&body).expect_err(what);
            assert!(matches!(err, EngineError::Protocol(_)), "{what}: {err}");
        }
        let mut flagged = encode_state(&state_with_graph());
        let trailing = [&flagged[..], &[0]].concat();
        assert!(decode_state(&trailing).is_err(), "trailing byte behind the graph");
        let graphless = encode_state(&WireState { graph: None, ..state_with_graph() });
        assert!(decode_state(&[&graphless[..], &[0]].concat()).is_err(), "trailing byte, no graph");
        let flag_at = graphless.len() - 1;
        flagged[flag_at] = 2;
        assert!(decode_state(&flagged).is_err(), "unknown graph flag");
    }

    /// Deterministic xorshift stream for the seeded hostile-byte loops
    /// (stands in for proptest, which is unavailable offline).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn hostile_state_bodies_yield_errors_or_bounded_values() {
        // Every truncation, every single-bit flip of everything up to and
        // including the float bitmap and of the graph header, and seeded
        // garbage: a typed error or a state no larger than the bytes
        // present justify — never a panic.
        let mut rng = 0x5EED_0013u64;
        let check = |body: &[u8]| match decode_state(body) {
            Err(EngineError::Protocol(_) | EngineError::Decode(_)) => {}
            Err(other) => panic!("untyped error {other}"),
            Ok(state) => {
                let graph_bytes =
                    state.graph.as_ref().map_or(0, |g| 8 * (g.num_nodes() + 1) + 4 * g.num_edges());
                assert!(4 * state.features.len() + graph_bytes <= 32 * body.len());
            }
        };
        for (n, cols) in [(1usize, 1usize), (5, 3), (64, 4), (300, 2)] {
            for graph in
                [None, Some(scattered_graph(n, |_| 2)), Some(scattered_graph(n, |u| u % 3))]
            {
                let values: Vec<f32> = (0..n * cols)
                    .map(|_| {
                        let r = xorshift(&mut rng);
                        // Finite, so `PartialEq` can witness the round trip.
                        f32::from_bits(if r.is_multiple_of(2) {
                            0
                        } else {
                            (r >> 32) as u32 & 0xBFFF_FFFF | 1
                        })
                    })
                    .collect();
                let features = Matrix::from_vec(n, cols, values);
                let state = WireState { frame_id: 7, features, graph, label: 1 };
                let body = encode_state(&state);
                assert_eq!(decode_state(&body).expect("round trip"), state);
                for cut in 0..body.len() {
                    assert!(decode_state(&body[..cut]).is_err(), "cut {cut} of {}", body.len());
                }
                let float_len = u32::from_le_bytes(body[20..24].try_into().expect("4 bytes"));
                let graph_header = 24 + float_len as usize + 1;
                let float_head = 24 + 5 + (n * cols).div_ceil(8);
                let flips =
                    (0..float_head).chain(graph_header - 1..(graph_header + 8).min(body.len()));
                for byte in flips {
                    for bit in 0..8 {
                        let mut bad = body.clone();
                        bad[byte] ^= 1 << bit;
                        check(&bad);
                    }
                }
                for _ in 0..32 {
                    let mut bad = body.clone();
                    let at = xorshift(&mut rng) as usize % bad.len();
                    bad[at] = xorshift(&mut rng) as u8;
                    check(&bad);
                }
            }
        }
        for _ in 0..256 {
            let len = xorshift(&mut rng) as usize % 96;
            let garbage: Vec<u8> = (0..len).map(|_| xorshift(&mut rng) as u8).collect();
            check(&garbage);
        }
    }

    /// Accepts one byte per call and never vectors: the slowest legal peer.
    struct OneByteWriter(Vec<u8>);

    impl Write for OneByteWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(&buf[..buf.len().min(1)]);
            Ok(buf.len().min(1))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Hands out at most `step` bytes per call, interrupting now and then.
    struct DribblingReader {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
        calls: usize,
    }

    impl Read for DribblingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.step.min(buf.len()).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn write_message_survives_a_writer_that_takes_one_byte_per_call() {
        let mut expected = Vec::new();
        let mut slow = OneByteWriter(Vec::new());
        for body in [&b""[..], b"x", b"hello, edge", &[0xC3; 1000]] {
            write_message(&mut expected, body).expect("vec write");
            write_message(&mut slow, body).expect("one byte per call");
        }
        assert_eq!(slow.0, expected);
        let mut cursor = std::io::Cursor::new(slow.0);
        assert_eq!(read_message(&mut cursor).expect("read").expect("some"), b"");
        assert_eq!(read_message(&mut cursor).expect("read").expect("some"), b"x");
    }

    #[test]
    fn write_message_reports_a_writer_that_takes_nothing() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_message(Full, b"body").expect_err("nothing was written");
        assert!(matches!(err, EngineError::Io(e) if e.kind() == std::io::ErrorKind::WriteZero));
    }

    #[test]
    fn read_message_reassembles_a_dribbled_stream() {
        let bodies: [&[u8]; 3] = [b"alpha", b"", &[0x5A; 70_000]];
        let mut wire = Vec::new();
        for body in bodies {
            write_message(&mut wire, body).expect("write");
        }
        for step in [1usize, 3, 4096] {
            let mut reader = DribblingReader { bytes: wire.clone(), at: 0, step, calls: 0 };
            for body in bodies {
                assert_eq!(read_message(&mut reader).expect("read").expect("message"), body);
            }
            assert!(read_message(&mut reader).expect("clean eof").is_none());
        }
    }

    #[test]
    fn oversized_header_then_eof_is_a_typed_truncation_not_an_allocation() {
        // The largest length the cap admits, then nothing: the reader
        // reserves for what a frame plausibly is, not for the header's word.
        let mut wire = (MAX_MESSAGE_LEN as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(b"seven b");
        let err = read_message(std::io::Cursor::new(wire)).expect_err("truncated");
        match err {
            EngineError::Protocol(msg) => {
                assert!(msg.contains("truncated inside a message body"), "got: {msg}");
                assert!(msg.contains("7 of 67108864"), "got: {msg}");
            }
            other => panic!("expected a protocol error, got {other}"),
        }
    }
}
