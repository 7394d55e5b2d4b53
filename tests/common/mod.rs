//! Shared harnesses for the engine integration suites: the fresh-pair
//! reference every warm deployment is held to, and scripted remote edges
//! built from the same public wire/nn primitives the engine uses, so
//! fault-injection tests exercise the real protocol.

use gcode::engine::{
    decode_frame, encode_frame, read_message, write_message, EdgePool, EngineStats, ExecutionPlan,
    Frame, WireState,
};
use gcode::graph::datasets::Sample;
use gcode::nn::seq::{classify, forward_features, GraphInput, WeightBank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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
/// mid-stream (deploy failures), every later connection serves the real
/// persistent protocol. Like a real long-lived LAN edge it keeps
/// accepting new sessions after a client disconnects, until a `Shutdown`
/// frame arrives.
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
        // Healthy phase: a faithful persistent serve loop per session.
        let mut bank = WeightBank::new(classes, bank_seed);
        loop {
            let Ok((stream, _)) = listener.accept() else { return };
            stream.set_nodelay(true).expect("nodelay");
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let mut reader = stream.try_clone().expect("clone");
            let mut writer = stream;
            let mut plan: Option<ExecutionPlan> = None;
            while let Ok(Some(body)) = read_message(&mut reader) {
                match decode_frame(&body).expect("well-formed frame") {
                    Frame::Shutdown => return,
                    Frame::SwapPlan(next) => plan = Some(*next),
                    Frame::State(state) => {
                        let p = plan.as_ref().expect("plan deployed before data");
                        let (h, _) = forward_features(
                            &p.edge_specs,
                            p.edge_slot_offset,
                            GraphInput { features: &state.features, graph: state.graph.as_ref() },
                            &mut bank,
                            &mut rng,
                        );
                        let logits = classify(&h, &mut bank);
                        let reply = WireState {
                            frame_id: state.frame_id,
                            features: logits,
                            graph: None,
                            label: state.label,
                        };
                        write_message(&mut writer, &encode_frame(&Frame::State(reply)))
                            .expect("reply");
                    }
                    // Session frames belong to the gcode-serve daemon,
                    // not the device↔edge link this edge speaks.
                    other => panic!("scripted edge got a session frame: {other:?}"),
                }
            }
        }
    });
    addr
}

/// The classic single-failure script: connection 1 dies mid-stream,
/// connection 2 onwards serves faithfully.
#[allow(dead_code)]
pub fn spawn_flaky_then_healthy_edge(classes: usize, bank_seed: u64) -> SocketAddr {
    spawn_scripted_edge(classes, bank_seed, 1)
}
