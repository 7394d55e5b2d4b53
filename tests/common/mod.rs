//! Shared harnesses for the engine integration suites: the fresh-pair
//! reference every warm deployment is held to, and scripted remote edges
//! that serve through the engine's own edge core over the public wire
//! codec, so fault-injection tests exercise the real protocol.

use gcode::engine::{
    decode_frame, encode_frame, read_message, write_message, EdgeCore, EdgePool, EdgeStep,
    EngineStats, ExecutionPlan, Frame,
};
use gcode::graph::datasets::Sample;
use gcode::nn::seq::WeightBank;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};

/// Fresh-pair reference deployment: a new edge, `bank` and RNG streams
/// for `plan` alone — deployed, streamed once and shut down.
#[allow(dead_code)] // each test binary uses the subset it needs
pub fn run_fresh(
    plan: ExecutionPlan,
    bank: WeightBank,
    seed: u64,
    samples: &[Sample],
) -> (Vec<usize>, EngineStats) {
    let mut pool = EdgePool::spawn(bank, seed).expect("spawn");
    pool.deploy(plan).expect("deploy");
    let run = pool.run(samples).expect("run");
    pool.shutdown().expect("clean");
    run
}

/// A scripted remote edge: the first `flaky_connections` connections die
/// mid-stream (deploy failures), every later connection is served by an
/// [`EdgeCore`], the engine's own. Like a real long-lived LAN edge it
/// keeps accepting new sessions after a client disconnects, until a
/// `Shutdown` frame arrives. Its run seed is 0, not the device's, so its
/// predictions equal a pair's only when the plan draws no RNG word.
#[allow(dead_code)] // each test binary uses the subset it needs
pub fn spawn_scripted_edge(classes: usize, bank_seed: u64, flaky_connections: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        // Flaky phase: read a few bytes per connection, then drop it
        // mid-message.
        for _ in 0..flaky_connections {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut header = [0u8; 4];
                let _ = stream.read_exact(&mut header);
            }
        }
        // Healthy phase: the engine's edge core, one session per connection.
        let mut core = EdgeCore::new(WeightBank::new(classes, bank_seed), 0);
        loop {
            let Ok((mut stream, _)) = listener.accept() else { return };
            stream.set_nodelay(true).expect("nodelay");
            core.end_session();
            while let Ok(Some(body)) = read_message(&mut stream) {
                let frame = decode_frame(&body).expect("well-formed frame");
                match core.serve(frame).expect("a device↔edge frame") {
                    EdgeStep::Reply(reply) => {
                        write_message(&mut stream, &encode_frame(&Frame::State(reply)))
                            .expect("reply")
                    }
                    EdgeStep::Deployed => {}
                    EdgeStep::Shutdown => return,
                }
            }
        }
    });
    addr
}
