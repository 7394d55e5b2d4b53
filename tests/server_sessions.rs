//! End-to-end tests for the `gcode-serve` daemon: bit-identical results
//! through the service path, concurrent tenants sharing one warm fleet,
//! admission backpressure, and misbehaving-client containment.

use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{
    decode_frame, encode_frame, read_message, write_message, FleetSpec, Frame, SessionOutcome,
    SessionSpec, SessionTask, PROTOCOL_VERSION,
};
use gcode::server::{run_standalone, Admission, SearchServer, ServerClient, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

fn spec(seed: u64, task: SessionTask) -> SessionSpec {
    SessionSpec {
        config: SearchConfig { iterations: 16, zoo_size: 2, seed, ..SearchConfig::default() },
        objective: Objective::new(0.25, 1.0, 5.0),
        task,
        measure_zoo: true,
        scenario: None,
    }
}

/// Strips the parts that legitimately differ between a served and a
/// standalone run: the session id (server-assigned) and the wall-clock
/// latency percentiles inside the measured profile. Everything else —
/// zoo, scores, history, counters, frame/byte tallies, predictions —
/// must match bit for bit.
fn normalized(mut outcome: SessionOutcome) -> SessionOutcome {
    outcome.session = 0;
    if let Some(measured) = outcome.report.measured.as_mut() {
        measured.p50_s = 0.0;
        measured.p95_s = 0.0;
        measured.p99_s = 0.0;
    }
    outcome
}

fn run_served(client: &mut ServerClient, spec: &SessionSpec) -> SessionOutcome {
    let id = client.open_session_retry(spec, 200, Duration::from_millis(10)).expect("admitted");
    client.submit(id).expect("submitted");
    let outcome =
        client.wait_result(id, Duration::from_millis(10), Duration::from_secs(120)).expect("done");
    client.close_session(id).expect("closed");
    outcome
}

#[test]
fn served_session_is_bit_identical_to_standalone() {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(2),
    )
    .expect("server starts");
    let spec = spec(7, SessionTask::ModelNet40);
    let mut client = ServerClient::connect(server.addr()).expect("handshake");
    let served = run_served(&mut client, &spec);
    assert!(served.report.measured.is_some(), "measure_zoo attaches live telemetry");
    assert!(!served.winner_predictions.is_empty(), "winner was deployed and measured");

    let standalone = run_standalone(&spec);
    assert_eq!(normalized(served), normalized(standalone), "service path changes nothing");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn eight_concurrent_tenants_stay_bit_identical_over_one_shared_fleet() {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(2)).with_max_sessions(8),
    )
    .expect("server starts");
    let addr = server.addr();
    let served: Vec<(u64, SessionOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                scope.spawn(move || {
                    let seed = 100 + i;
                    let task = if i % 2 == 0 { SessionTask::ModelNet40 } else { SessionTask::Mr };
                    let mut client = ServerClient::connect(addr).expect("handshake");
                    (seed, run_served(&mut client, &spec(seed, task)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });

    for (i, (seed, outcome)) in served.into_iter().enumerate() {
        let task = if i % 2 == 0 { SessionTask::ModelNet40 } else { SessionTask::Mr };
        let standalone = run_standalone(&spec(seed, task));
        assert_eq!(
            normalized(outcome),
            normalized(standalone),
            "tenant with seed {seed} must be unaffected by the other seven"
        );
    }

    let stats = server.fleet_stats().expect("stats");
    assert!(stats.deployments() > 0, "the shared fleet did the measuring");
    assert!(
        stats.spawns() <= 2,
        "warm pools are reused across all eight sessions, got {} spawns",
        stats.spawns()
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn measurement_cache_makes_a_restarted_server_deploy_nothing() {
    let dir = std::env::temp_dir().join("gcode-cachelog-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("serve-warm.gclg");
    let _ = std::fs::remove_file(&path);
    let spec = spec(7, SessionTask::ModelNet40);

    // Cold server: the zoo is measured on the fleet and persisted.
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(2).with_cache_file(&path),
    )
    .expect("cold server starts");
    let mut client = ServerClient::connect(server.addr()).expect("handshake");
    let cold = run_served(&mut client, &spec);
    let cold_measured = cold.report.measured.expect("measured profile");
    assert!(cold_measured.deployed > 0, "cold run deploys the zoo");
    assert_eq!(cold_measured.cached, 0);
    server.shutdown().expect("clean shutdown");

    // Restarted server over the same cache file: the identical session is
    // answered without a single fleet deployment, bit-identically.
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(2).with_cache_file(&path),
    )
    .expect("warm server starts");
    let mut client = ServerClient::connect(server.addr()).expect("handshake");
    let warm = run_served(&mut client, &spec);
    let warm_measured = warm.report.measured.expect("measured profile");
    assert_eq!(warm_measured.deployed, 0, "warm restart deploys nothing");
    assert_eq!(warm_measured.cached, cold_measured.deployed, "every plan came from the cache");
    let stats = server.fleet_stats().expect("stats");
    assert_eq!(stats.deployments(), 0, "the warm fleet never measured anything");
    server.shutdown().expect("clean shutdown");

    // Replayed measurements are the cold run's bytes: masking only the
    // deployed/cached split (and the server-assigned id), the outcomes —
    // zoo, scores, predictions, even the wall-clock latency percentiles —
    // match bit for bit.
    let mask = |mut o: SessionOutcome| {
        o.session = 0;
        if let Some(m) = o.report.measured.as_mut() {
            m.deployed = 0;
            m.cached = 0;
        }
        o
    };
    assert_eq!(mask(warm), mask(cold), "cache replay is bit-exact");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn admission_answers_busy_and_recovers_when_a_slot_frees() {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(1).with_queue_limit(0),
    )
    .expect("server starts");
    let mut client = ServerClient::connect(server.addr()).expect("handshake");
    let mut spec = spec(1, SessionTask::ModelNet40);
    spec.measure_zoo = false;

    let first = match client.open_session(&spec).expect("first open") {
        Admission::Opened(id) => id,
        Admission::Busy { .. } => panic!("an idle server must admit the first session"),
    };
    match client.open_session(&spec).expect("second open") {
        Admission::Busy { running, queued } => {
            assert_eq!(running, 0, "the first session was never submitted");
            assert_eq!(queued, 1, "it occupies the one admission slot");
        }
        Admission::Opened(id) => panic!("session {id} admitted past the bound"),
    }
    client.close_session(first).expect("close releases the slot");
    match client.open_session(&spec).expect("third open") {
        Admission::Opened(_) => {}
        Admission::Busy { .. } => panic!("closing the unsubmitted session must free its slot"),
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn a_client_that_opens_and_vanishes_gives_its_admission_slot_back() {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(1).with_queue_limit(0),
    )
    .expect("server starts");
    let spec = spec(1, SessionTask::ModelNet40);

    // Client A takes the one admission slot, then disconnects without ever
    // submitting. It half-closes and reads to EOF, which the server sends
    // only once its handler is done with the connection — so what follows
    // is ordered after the server's cleanup, with no sleep.
    let mut vanisher = TcpStream::connect(server.addr()).expect("connect");
    let mut call = |frame: &Frame| {
        write_message(&mut vanisher, &encode_frame(frame)).expect("send");
        decode_frame(&read_message(&mut vanisher).expect("read").expect("reply")).expect("decode")
    };
    assert!(matches!(call(&Frame::Hello(PROTOCOL_VERSION)), Frame::Hello(_)));
    assert!(
        matches!(call(&Frame::OpenSession(Box::new(spec.clone()))), Frame::SessionOpened(_)),
        "an idle server must admit the first session"
    );
    vanisher.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert!(read_message(&mut vanisher).expect("clean close").is_none());

    // Client B must find the slot free again, not a daemon that answers
    // `Busy` for the rest of its life.
    let mut client = ServerClient::connect(server.addr()).expect("handshake");
    match client.open_session(&spec).expect("open") {
        Admission::Opened(_) => {}
        Admission::Busy { running, queued } => panic!(
            "the vanished client's unsubmitted session still holds the slot \
             ({running} running, {queued} queued)"
        ),
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn version_mismatch_is_answered_with_a_clean_error_frame() {
    let server = SearchServer::start("127.0.0.1:0", ServerConfig::new(FleetSpec::loopback(1)))
        .expect("server starts");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    write_message(&mut raw, &encode_frame(&Frame::Hello(PROTOCOL_VERSION + 1))).expect("send");
    let body = read_message(&mut raw).expect("read").expect("server answers, not drops");
    match decode_frame(&body).expect("decodable reply") {
        Frame::Error(msg) => {
            assert!(msg.contains("version mismatch"), "unexpected error text: {msg}");
            assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "names its own version: {msg}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert!(
        read_message(&mut raw).expect("clean close").is_none(),
        "the connection is closed after the rejection"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn non_hello_handshake_is_rejected_cleanly() {
    let server = SearchServer::start("127.0.0.1:0", ServerConfig::new(FleetSpec::loopback(1)))
        .expect("server starts");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    write_message(&mut raw, &encode_frame(&Frame::Poll(1))).expect("send");
    let body = read_message(&mut raw).expect("read").expect("server answers");
    assert!(
        matches!(decode_frame(&body).expect("decodable reply"), Frame::Error(_)),
        "a non-Hello first frame gets an Error frame"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn misbehaving_client_leaves_the_shared_fleet_healthy_for_other_tenants() {
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(2),
    )
    .expect("server starts");
    let addr = server.addr();
    let spec_good = spec(42, SessionTask::ModelNet40);

    // Tenant A starts a real session.
    let mut good = ServerClient::connect(addr).expect("handshake");
    let id = good.open_session_retry(&spec_good, 100, Duration::from_millis(10)).expect("open");
    good.submit(id).expect("submit");

    // Tenant B misbehaves twice: a truncated frame (length prefix
    // promises 64 bytes, 3 arrive), then a handshaken client that opens
    // a session and vanishes mid-search.
    {
        use std::io::Write;
        let mut trunc = TcpStream::connect(addr).expect("connect");
        trunc.write_all(&64u32.to_le_bytes()).expect("prefix");
        trunc.write_all(&[1, 2, 3]).expect("partial body");
        drop(trunc);
    }
    {
        let mut vanisher = ServerClient::connect(addr).expect("handshake");
        let dropped =
            vanisher.open_session_retry(&spec_good, 100, Duration::from_millis(10)).expect("open");
        vanisher.submit(dropped).expect("submit");
        drop(vanisher); // disconnect mid-search; the session is orphaned
    }

    // Tenant A is unaffected: same result as a standalone run.
    let outcome =
        good.wait_result(id, Duration::from_millis(10), Duration::from_secs(120)).expect("done");
    assert_eq!(
        normalized(outcome),
        normalized(run_standalone(&spec_good)),
        "a truncated frame and a vanished tenant must not perturb a healthy one"
    );

    // And the fleet is still willing to serve a fresh tenant.
    let mut after = ServerClient::connect(addr).expect("handshake");
    let again = run_served(&mut after, &spec_good);
    assert!(again.report.measured.is_some(), "fleet still measuring after the abuse");
    server.shutdown().expect("clean shutdown");
}
