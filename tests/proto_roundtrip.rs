//! Round-trip tests for the engine wire protocol (`gcode_engine::proto`):
//! state encode/decode, message framing over in-memory and socket
//! transports, session control frames with their protocol-version
//! handshake, binary columnar plan frames, retired frame kinds, and
//! truncated-payload error paths.

use gcode::core::arch::WorkloadProfile;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::core::space::DesignSpace;
use gcode::engine::{
    decode_frame, decode_state, encode_frame, encode_plan, encode_state, read_message,
    write_message, EngineError, ExecutionPlan, Frame, SessionSpec, SessionTask, WireState,
    PLAN_WIRE_VERSION, PROTOCOL_VERSION,
};
use gcode::graph::CsrGraph;
use gcode::tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;

/// A seeded spread of real plans: architectures sampled from both paper
/// design spaces, lowered and split exactly as a deploy would.
fn sampled_plans(seed: u64, count: usize) -> Vec<ExecutionPlan> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let spaces = [
        DesignSpace::paper(WorkloadProfile::modelnet40()),
        DesignSpace::paper(WorkloadProfile::mr()),
    ];
    (0..count)
        .map(|i| {
            let arch = spaces[i % spaces.len()].sample_valid(&mut rng, 100_000).0;
            ExecutionPlan::from_architecture(&arch)
        })
        .collect()
}

fn dense_state() -> WireState {
    let values: Vec<f32> = (0..256).map(|i| (i as f32 * 0.02).sin()).collect();
    WireState {
        frame_id: 0xDEAD_BEEF_0042,
        features: Matrix::from_vec(64, 4, values),
        graph: Some(CsrGraph::from_edges(
            64,
            &(0..64u32).flat_map(|u| [(u, (u + 1) % 64), ((u + 1) % 64, u)]).collect::<Vec<_>>(),
        )),
        label: 17,
    }
}

#[test]
fn state_round_trip_preserves_every_field() {
    let state = dense_state();
    let decoded = decode_state(&encode_state(&state)).expect("round trip");
    assert_eq!(decoded, state);
    assert_eq!(decoded.frame_id, 0xDEAD_BEEF_0042);
    assert_eq!(decoded.label, 17);
    assert_eq!(decoded.features.shape(), (64, 4));
    let graph = decoded.graph.expect("graph survives");
    assert_eq!(graph.num_nodes(), 64);
}

#[test]
fn graphless_state_round_trips() {
    let state = WireState { graph: None, ..dense_state() };
    let decoded = decode_state(&encode_state(&state)).expect("round trip");
    assert_eq!(decoded, state);
    assert!(decoded.graph.is_none());
}

#[test]
fn empty_feature_matrix_round_trips() {
    let state =
        WireState { frame_id: 1, features: Matrix::from_vec(0, 0, vec![]), graph: None, label: 0 };
    let decoded = decode_state(&encode_state(&state)).expect("round trip");
    assert_eq!(decoded.features.shape(), (0, 0));
}

#[test]
fn every_truncation_of_the_body_errors() {
    let body = encode_state(&dense_state());
    for cut in 0..body.len() {
        assert!(
            decode_state(&body[..cut]).is_err(),
            "truncation at byte {cut}/{} must be rejected",
            body.len()
        );
    }
}

#[test]
fn framed_messages_round_trip_through_a_buffer() {
    let bodies: [&[u8]; 4] = [b"alpha", b"", b"\x00\x01\x02", &[0xFF; 300]];
    let mut wire = Vec::new();
    for body in bodies {
        write_message(&mut wire, body).expect("write");
    }
    let mut cursor = Cursor::new(wire);
    for body in bodies {
        let read = read_message(&mut cursor).expect("read").expect("message present");
        assert_eq!(read, body);
    }
    assert!(
        read_message(&mut cursor).expect("clean eof").is_none(),
        "exhausted stream reads as clean EOF"
    );
}

#[test]
fn truncated_message_payload_is_an_error_not_eof() {
    // Frame header promises 32 bytes; only 5 arrive before the stream ends.
    let mut wire = Vec::new();
    wire.extend_from_slice(&32u32.to_le_bytes());
    wire.extend_from_slice(b"short");
    let result = read_message(&mut Cursor::new(wire));
    assert!(result.is_err(), "mid-payload truncation must error, got {result:?}");
}

#[test]
fn absurd_length_prefix_is_rejected_before_allocation() {
    // A corrupted prefix claiming ~4 GiB must fail fast with a protocol
    // error, not attempt the allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    let result = read_message(&mut Cursor::new(wire));
    assert!(result.is_err(), "oversized length prefix must error, got {result:?}");
}

#[test]
fn truncated_length_prefix_is_an_error() {
    // Only 2 of the 4 length-prefix bytes arrive: a mid-header cut is also
    // truncation, not a clean end-of-stream.
    let result = read_message(&mut Cursor::new(vec![9u8, 0]));
    assert!(result.is_err(), "mid-header truncation must error, got {result:?}");
}

#[test]
fn session_frames_survive_framing_round_trip() {
    let spec = SessionSpec {
        config: SearchConfig { iterations: 40, seed: 11, ..SearchConfig::default() },
        objective: Objective::new(0.25, 1.0, 5.0),
        task: SessionTask::Mr,
        measure_zoo: true,
        scenario: None,
    };
    let frames = vec![
        Frame::Hello(PROTOCOL_VERSION),
        Frame::OpenSession(Box::new(spec)),
        Frame::SessionOpened(3),
        Frame::Busy { running: 8, queued: 16 },
        Frame::Submit(3),
        Frame::Poll(3),
        Frame::CloseSession(3),
        Frame::Error("protocol version mismatch".to_string()),
    ];
    let mut wire = Vec::new();
    for frame in &frames {
        write_message(&mut wire, &encode_frame(frame)).expect("write");
    }
    let mut cursor = Cursor::new(wire);
    for frame in &frames {
        let body = read_message(&mut cursor).expect("read").expect("frame present");
        assert_eq!(&decode_frame(&body).expect("decode"), frame);
    }
    assert!(read_message(&mut cursor).expect("clean eof").is_none());
}

/// `OpenSession` bodies as clients sent them while `SessionTask` was an
/// enum of its own: the surrogate's task enum it now names must keep
/// every byte.
const OPEN_SESSION_JSON: [(SessionTask, &str); 2] = [
    (
        SessionTask::ModelNet40,
        r#"{"config":{"iterations":400,"tuning_iterations":10,"seed":11,"zoo_size":4,"tuning_tolerance":0.003,"batch_size":16},"objective":{"lambda":0.25,"latency_constraint_s":1,"energy_constraint_j":5},"task":"ModelNet40","measure_zoo":true,"scenario":null}"#,
    ),
    (
        SessionTask::Mr,
        r#"{"config":{"iterations":400,"tuning_iterations":10,"seed":11,"zoo_size":4,"tuning_tolerance":0.003,"batch_size":16},"objective":{"lambda":0.25,"latency_constraint_s":1,"energy_constraint_j":5},"task":"Mr","measure_zoo":true,"scenario":null}"#,
    ),
];

#[test]
fn open_session_json_is_pinned_per_task() {
    for (task, json) in OPEN_SESSION_JSON {
        let spec = SessionSpec {
            config: SearchConfig {
                iterations: 400,
                zoo_size: 4,
                seed: 11,
                ..SearchConfig::default()
            },
            objective: Objective::new(0.25, 1.0, 5.0),
            task,
            measure_zoo: true,
            scenario: None,
        };
        let body = encode_frame(&Frame::OpenSession(Box::new(spec.clone())));
        assert_eq!(std::str::from_utf8(&body[1..]).expect("JSON body"), json, "{task:?}");
        assert_eq!(decode_frame(&body).expect("decode"), Frame::OpenSession(Box::new(spec)));
    }
}

#[test]
fn hello_frame_carries_the_protocol_version_byte() {
    // The handshake must stay decodable by design: a v1 server can read a
    // v9 client's Hello (and answer a clean Error frame) because the
    // version lives in the body, not in the frame kind.
    for version in [0u8, PROTOCOL_VERSION, PROTOCOL_VERSION + 1, u8::MAX] {
        let decoded = decode_frame(&encode_frame(&Frame::Hello(version))).expect("decode");
        assert_eq!(decoded, Frame::Hello(version));
    }
}

#[test]
fn truncated_session_frames_error_instead_of_panicking() {
    for frame in [Frame::SessionOpened(77), Frame::Poll(77), Frame::Busy { running: 1, queued: 2 }]
    {
        let body = encode_frame(&frame);
        // Cut after the kind byte but before the payload ends.
        for cut in 1..body.len() {
            assert!(
                decode_frame(&body[..cut]).is_err(),
                "truncation at byte {cut}/{} of {frame:?} must be rejected",
                body.len()
            );
        }
    }
}

#[test]
fn binary_plan_codec_is_symmetric_across_sampled_plans() {
    // Property-style sweep: 64 seeded real plans, each must survive the
    // columnar encode/decode bit-exactly — and always come out smaller
    // than the retired JSON encoding it replaced (computed statically;
    // a kind-1 frame was one kind byte plus the serialized plan).
    for (i, plan) in sampled_plans(0x9A7_5EED, 64).iter().enumerate() {
        let binary = encode_frame(&Frame::SwapPlan(Box::new(plan.clone())));
        match decode_frame(&binary).expect("binary plan decodes") {
            Frame::SwapPlan(decoded) => {
                assert_eq!(*decoded, *plan, "plan {i}: decode(encode(plan)) != plan")
            }
            other => panic!("plan {i}: wrong frame kind {other:?}"),
        }
        let json_len = 1 + serde_json::to_string(plan).expect("serializable").len();
        assert!(
            binary.len() < json_len,
            "plan {i}: binary ({}) must beat the retired JSON form ({json_len}) on the wire",
            binary.len(),
        );
    }
}

#[test]
fn legacy_json_swap_plan_kind_is_rejected() {
    // The one-release decode window for the v1 JSON plan frame has
    // closed: a well-formed legacy body must be refused with an error
    // that names the replacement, never silently adopted.
    for plan in sampled_plans(0x1E6_ACE, 8) {
        let mut body = vec![1u8];
        body.extend_from_slice(serde_json::to_string(&plan).expect("serializable").as_bytes());
        let err = decode_frame(&body).expect_err("legacy kind 1 must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("no longer supported") && msg.contains("13"),
            "rejection must point at the binary encoding, got: {msg}"
        );
    }
}

#[test]
fn retired_batch_kinds_are_refused_by_name() {
    // Kinds 14 and 15 carried the batched deploy and its ack until one
    // `SwapPlan` per deploy replaced them. Well-formed bodies as a v4 peer
    // built them must be refused with a typed error naming the kind.
    let plans = sampled_plans(0xBA7C4, 2);
    let mut batch = vec![14u8, PLAN_WIRE_VERSION];
    batch.extend_from_slice(&(plans.len() as u16).to_le_bytes());
    for plan in &plans {
        let blob = encode_plan(plan);
        batch.extend_from_slice(&4u32.to_le_bytes());
        batch.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        batch.extend_from_slice(&blob);
    }
    let mut ack = vec![15u8];
    ack.extend_from_slice(&(plans.len() as u32).to_le_bytes());
    for (body, name) in [(batch, "swap-plan-batch (kind 14)"), (ack, "ack-batch (kind 15)")] {
        match decode_frame(&body) {
            Err(EngineError::Protocol(msg)) => {
                assert!(msg.contains(name) && msg.contains("retired"), "got: {msg}");
            }
            other => panic!("{name} must be refused as retired, got {other:?}"),
        }
    }
}

#[test]
fn every_truncation_of_a_binary_plan_frame_errors() {
    let plan = sampled_plans(7, 1).remove(0);
    let body = encode_frame(&Frame::SwapPlan(Box::new(plan)));
    for cut in 1..body.len() {
        assert!(
            decode_frame(&body[..cut]).is_err(),
            "truncation at byte {cut}/{} must be rejected",
            body.len()
        );
    }
}

#[test]
fn corrupted_binary_plan_bytes_are_rejected_not_misread() {
    // The trailing 8-byte FNV column hash turns silent bit rot into a
    // clean decode error: flip any single byte past the kind byte and the
    // frame must fail to decode (never yield a *different* valid plan).
    let plan = sampled_plans(11, 1).remove(0);
    let body = encode_frame(&Frame::SwapPlan(Box::new(plan.clone())));
    for i in 1..body.len() {
        let mut bad = body.clone();
        bad[i] ^= 0x40;
        if let Ok(Frame::SwapPlan(decoded)) = decode_frame(&bad) {
            assert_eq!(*decoded, plan, "byte {i}: corruption decoded to a different plan");
        }
    }
}

#[test]
fn state_survives_framing_round_trip() {
    let state = dense_state();
    let mut wire = Vec::new();
    write_message(&mut wire, &encode_state(&state)).expect("write");
    let body = read_message(&mut Cursor::new(wire)).expect("read").expect("one message");
    assert_eq!(decode_state(&body).expect("decode"), state);
}
