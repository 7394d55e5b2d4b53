//! Closing the loop end-to-end: searches whose top fidelity tier is the
//! *deployed* TCP engine, plus failure containment — a misbehaving edge
//! peer must cost one sentinel-priced candidate, never a hung search.

use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::cachelog::open_shared;
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode::core::eval::{Evaluator, Objective, SearchSession};
use gcode::core::op::{Op, SampleFn};
use gcode::core::search::{RandomSearch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::engine::{EngineBackend, DEPLOY_FAILURE_SENTINEL};
use gcode::graph::datasets::PointCloudDataset;
use gcode::hardware::SystemConfig;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::sim::{SimBackend, SimConfig};
use std::io::Read;
use std::net::{SocketAddr, TcpListener};

fn mini_profile() -> WorkloadProfile {
    WorkloadProfile::modelnet40_mini(24, 4)
}

fn accuracy(a: &Architecture) -> f64 {
    0.8 + 0.001 * a.len() as f64
}

fn engine_backend(frames: usize, warmup: usize) -> EngineBackend<fn(&Architecture) -> f64> {
    let ds = PointCloudDataset::generate(6, 24, 4, 13);
    EngineBackend::new(
        ds.samples().to_vec(),
        4,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as fn(&Architecture) -> f64,
    )
    .with_frames(frames)
    .with_warmup(warmup)
}

#[test]
fn ladder_with_engine_top_prices_winners_on_the_live_runtime() {
    let profile = mini_profile();
    let space = DesignSpace::paper(profile);
    let objective = Objective::new(0.25, 1.0, 5.0);
    let cfg = SearchConfig { iterations: 48, seed: 9, ..SearchConfig::default() };

    // Reference: pure simulator-in-the-loop search.
    let pure = SimBackend {
        profile,
        sys: SystemConfig::tx2_to_i7(40.0),
        sim: SimConfig::single_frame(),
        accuracy_fn: accuracy,
    };
    let mut pure_session = SearchSession::new(&space, &pure).with_objective(objective);
    let pure_result = pure_session.run(&RandomSearch::new(cfg));
    let pure_sim_evals = pure_session.cache_stats().misses;
    assert!(pure_result.best().is_some());

    // The same search through an analytic → sim → engine ladder.
    let cheap =
        AnalyticBackend { profile, sys: SystemConfig::tx2_to_i7(40.0), accuracy_fn: accuracy };
    let mid = SimBackend {
        profile,
        sys: SystemConfig::tx2_to_i7(40.0),
        sim: SimConfig::single_frame(),
        accuracy_fn: accuracy,
    };
    let engine = engine_backend(3, 1);
    let ladder = CascadeBackend::ladder(vec![&cheap, &mid, &engine], objective)
        .with_keep_fracs(&[0.25, 0.5]);
    assert_eq!(ladder.fidelity(), Fidelity::Measured);
    let mut session = SearchSession::new(&space, &ladder).with_objective(objective);
    let result = session.run(&RandomSearch::new(cfg));
    let best = result.best().expect("ladder search finds a winner");

    // The winner carries live-engine metrics: finite, positive, and far
    // from the failure sentinel.
    assert!(best.latency_s > 0.0 && best.latency_s < DEPLOY_FAILURE_SENTINEL);
    assert!(best.energy_j > 0.0 && best.energy_j < DEPLOY_FAILURE_SENTINEL);

    // Economy: the sim and engine tiers together priced strictly fewer
    // candidates than a pure sim search evaluates.
    let tiers = ladder.tier_stats();
    assert!(tiers[1].evals > 0 && tiers[2].evals > 0);
    assert!(
        tiers[1].evals + tiers[2].evals < pure_sim_evals,
        "sim + engine evals {} + {} must undercut pure sim {}",
        tiers[1].evals,
        tiers[2].evals,
        pure_sim_evals
    );
    assert!(tiers[2].evals < tiers[1].evals, "the measured rung is the narrowest");

    // Telemetry: every successful deployment contributed measured frames,
    // none failed, and the percentile ordering holds.
    let measured = engine.measured_profile();
    assert_eq!(measured.errors, 0);
    assert!(measured.frames >= tiers[2].evals * 3, "3 measured frames per deployment");
    assert!(measured.p50_s <= measured.p95_s && measured.p95_s <= measured.p99_s);
    assert!(measured.p50_s > 0.0);
    let report = session.report(ladder.name(), &result).with_measured(measured);
    assert_eq!(report.backend, "cascade(analytic->sim->engine)");
    let json = serde_json::to_string(&report).expect("serialize");
    let restored: gcode::core::eval::SearchReport =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored.measured, Some(measured));
}

#[test]
fn engine_run_records_per_frame_percentiles() {
    let engine = engine_backend(5, 0);
    let arch = Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 8 },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]);
    let m = engine.evaluate(&arch);
    assert!(m.latency_s > 0.0 && m.latency_s < DEPLOY_FAILURE_SENTINEL);
    let profile = engine.measured_profile();
    assert_eq!(profile.frames, 5);
    assert!(profile.bytes_sent > 0, "split design must ship traffic");
    assert!(profile.p50_s <= profile.p95_s && profile.p95_s <= profile.p99_s);
}

/// Two backends over one cache log that differ only in how they price a
/// run — power model and accuracy function. The second deploys nothing:
/// it gets the first one's run and prices it its own way.
#[test]
fn backends_sharing_a_log_price_a_shared_run_their_own_way() {
    let dir = std::env::temp_dir().join("gcode-engine-backend-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("shared-runs.gclg");
    let _ = std::fs::remove_file(&path);
    let arch = Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim: 8 },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]);
    let ds = PointCloudDataset::generate(6, 24, 4, 13);
    let over = |sys: SystemConfig, accuracy_fn: fn(&Architecture) -> f64| {
        EngineBackend::new(ds.samples().to_vec(), 4, sys, accuracy_fn)
            .with_frames(3)
            .with_warmup(1)
            .with_cache_log(open_shared(&path).expect("log opens"))
    };

    let tx2 = over(SystemConfig::tx2_to_i7(40.0), |_| 0.5);
    let first = tx2.evaluate(&arch);
    assert_eq!(tx2.deployments(), 1);
    drop(tx2);

    let sys = SystemConfig::pi_to_i7(40.0);
    let pi = over(sys.clone(), |_| 0.9);
    let second = pi.evaluate(&arch);
    assert_eq!((pi.deployments(), pi.log_hits()), (0, 1), "the run is on record");
    assert_eq!(second.latency_s.to_bits(), first.latency_s.to_bits(), "the same run");
    assert_eq!(second.accuracy, 0.9, "its own accuracy_fn, not the first backend's");
    let profile = pi.measured_profile();
    let bytes_per_frame = (profile.bytes_sent / profile.frames) as usize;
    let energy_j = sys.device.run_power_w * second.latency_s
        + sys.power.device_comm_energy(&sys.link, bytes_per_frame, 0);
    assert_eq!(second.energy_j.to_bits(), energy_j.to_bits(), "its own power model");
    assert_ne!(second.energy_j, first.energy_j, "pi and tx2 draw different power");
    std::fs::remove_file(&path).expect("cleanup");
}

/// A rogue edge peer: accepts every connection, reads a few bytes, then
/// drops the socket mid-stream — the pattern from
/// `tests/engine_failures.rs`, aimed at the backend instead of the raw
/// protocol. It misbehaves identically on every connection, so the
/// backend's retry on a reconnected pool meets the same fault.
fn spawn_rogue_edge() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rogue edge");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let mut header = [0u8; 4];
            let _ = stream.read_exact(&mut header);
            // Drop mid-message: the device's receiver sees a protocol
            // error, never a clean result stream.
        }
    });
    addr
}

/// A rogue edge that *replies* well-formed frames, but with frame ids the
/// device never sent — those must surface as a protocol error, never a
/// panic or a silent prediction misalignment. Every connection gets the
/// same treatment: a double that served only its first connection would
/// leave the retry's reconnect parked in the listen backlog forever.
fn spawn_bad_frame_id_edge(replies: usize) -> SocketAddr {
    use gcode::engine::{encode_frame, write_message, Frame, WireState};
    use gcode::tensor::Matrix;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rogue edge");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            for _ in 0..replies {
                let reply = WireState {
                    frame_id: 999,
                    features: Matrix::from_rows(&[&[1.0, 0.0]]),
                    graph: None,
                    label: 0,
                };
                if write_message(&mut stream, &encode_frame(&Frame::State(reply))).is_err() {
                    break;
                }
            }
            // Keep the socket open until the client has sent something.
            let _ = stream.read_exact(&mut [0u8; 1]);
        }
    });
    addr
}

/// A backend whose whole fleet is the one remote edge at `addr`.
fn backend_against(addr: SocketAddr) -> EngineBackend<fn(&Architecture) -> f64> {
    let ds = PointCloudDataset::generate(4, 16, 2, 5);
    EngineBackend::new(
        ds.samples().to_vec(),
        2,
        SystemConfig::tx2_to_i7(40.0),
        accuracy as fn(&Architecture) -> f64,
    )
    .with_frames(2)
    .with_fleet(addr.to_string().parse().expect("remote fleet spec"))
}

#[test]
fn engine_backend_rejects_rogue_frame_ids_as_contained_failure() {
    let backend = backend_against(spawn_bad_frame_id_edge(2));
    let arch = Architecture::new(vec![
        Op::Combine { dim: 8 },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]);
    // The call returns — first try and retry both rejected — never hangs.
    let m = backend.evaluate(&arch);
    assert_eq!(m.latency_s, DEPLOY_FAILURE_SENTINEL);
    assert_eq!(backend.measured_profile().errors, 1, "one error per candidate, retry included");
    assert_eq!(backend.deployments(), 0);
}

#[test]
fn engine_backend_contains_protocol_failures_and_stays_usable() {
    let backend = backend_against(spawn_rogue_edge());
    let arch = Architecture::new(vec![
        Op::Combine { dim: 8 },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]);
    // Two consecutive failures (each a first try plus its retry on a
    // reconnected pool): both contained, both sentinel-priced, one error
    // per `evaluate`, and the call returns instead of hanging.
    for round in 1..=2u64 {
        let m = backend.evaluate(&arch);
        assert_eq!(m.latency_s, DEPLOY_FAILURE_SENTINEL, "round {round}");
        assert_eq!(m.energy_j, DEPLOY_FAILURE_SENTINEL);
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(backend.measured_profile().errors, round);
    }
    assert_eq!(backend.deployments(), 0);

    // A failed-deployment candidate is infeasible under any sane
    // objective, so searches shrug it off.
    let objective = Objective::new(0.25, 1.0, 5.0);
    let m = backend.evaluate(&arch);
    assert!(!objective.feasible(&m));

    // The same backend configuration against a healthy (self-spawned)
    // edge works — failures poisoned nothing global.
    let ds = PointCloudDataset::generate(4, 16, 2, 5);
    let healthy =
        EngineBackend::new(ds.samples().to_vec(), 2, SystemConfig::tx2_to_i7(40.0), accuracy)
            .with_frames(2);
    let m = healthy.evaluate(&arch);
    assert!(m.latency_s < DEPLOY_FAILURE_SENTINEL);
    assert_eq!(healthy.measured_profile().errors, 0);
}
