//! Search-as-a-service: an in-process `gcode-serve` daemon multiplexing
//! two concurrent tenants over **one** shared warm edge fleet.
//!
//! Both tenants run the full loop — versioned `Hello` handshake, admitted
//! session, deterministic analytic→sim cascade search, zoo measurement on
//! the shared fleet — at the same time, yet each result is bit-identical
//! to what a standalone run of the same `SessionSpec` produces: the fleet's
//! first come, first served pool checkout interleaves their candidates
//! without letting either tenant observe the other.
//!
//! ```sh
//! cargo run --release --example search_service
//! ```

use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{FleetSpec, SessionSpec, SessionTask};
use gcode::server::{run_standalone, SearchServer, ServerClient, ServerConfig};
use std::time::Duration;

fn spec(seed: u64, task: SessionTask) -> SessionSpec {
    SessionSpec {
        config: SearchConfig { iterations: 48, zoo_size: 3, seed, ..SearchConfig::default() },
        objective: Objective::new(0.25, 1.0, 5.0),
        task,
        measure_zoo: true,
        scenario: None,
    }
}

fn main() {
    // One resident daemon: two warm loopback pools, room for four tenants.
    let server = SearchServer::start(
        "127.0.0.1:0",
        ServerConfig::new(FleetSpec::loopback(2)).with_max_sessions(4),
    )
    .expect("server starts");
    let addr = server.addr();
    println!("gcode-serve listening on {addr}\n");

    // Two tenants with different tasks and seeds, submitted concurrently.
    let tenants =
        [(7u64, SessionTask::ModelNet40, "point clouds"), (11, SessionTask::Mr, "movie reviews")];
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|&(seed, task, label)| {
                scope.spawn(move || {
                    let spec = spec(seed, task);
                    let mut client = ServerClient::connect(addr).expect("handshake");
                    let id = client
                        .open_session_retry(&spec, 100, Duration::from_millis(20))
                        .expect("admitted");
                    println!("tenant `{label}` opened session {id} (seed {seed})");
                    client.submit(id).expect("submitted");
                    let outcome = client
                        .wait_result(id, Duration::from_millis(20), Duration::from_secs(120))
                        .expect("result");
                    client.close_session(id).expect("closed");
                    (spec, label, outcome)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });

    for (spec, label, outcome) in outcomes {
        let best = outcome.result.best().expect("a feasible winner");
        let measured = outcome.report.measured.expect("zoo was measured");
        println!(
            "\ntenant `{label}` (session {}): best score {:.3}, accuracy {:.1}%, \
             latency {:.1} ms — measured {} frames on the shared fleet",
            outcome.session,
            best.score,
            best.accuracy * 100.0,
            best.latency_s * 1e3,
            measured.frames
        );

        // The punchline: serving changed nothing. A standalone run of the
        // same spec produces the same zoo, scores and predictions.
        let alone = run_standalone(&spec);
        assert_eq!(alone.result, outcome.result, "served search == standalone search");
        assert_eq!(
            alone.winner_predictions, outcome.winner_predictions,
            "served winner predictions == standalone winner predictions"
        );
        println!("  bit-identical to a standalone run of the same spec ✓");
    }

    let stats = server.fleet_stats().expect("stats");
    println!(
        "\nshared fleet after both tenants: {} pools, {} deployments, {} spawns (warm reuse)",
        stats.pools.len(),
        stats.deployments(),
        stats.spawns()
    );
    server.shutdown().expect("clean shutdown");
    println!("server shut down cleanly");
}
