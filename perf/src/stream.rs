//! The three stream workloads: one deployed split, 1024-point clouds
//! cycled through a warm `EdgePool`, first one frame at a time (closed
//! loop), then pipelined in equal blocks.
//!
//! They differ in where a frame's time goes — kernels (`stream_compute`),
//! codec and socket (`stream_wire`), paced sleep under the 10 Mbps cap
//! (`stream_capped`) — so a change to one layer moves one of them and
//! leaves the other two alone.

use crate::harness::{timed, Ctx, Phase, Report};
use crate::result::{peak_rss_mb, Fingerprint};
use crate::stats::{median, tail, Summary};
use crate::trace::{write_trace, Trace};
use gcode_core::arch::Architecture;
use gcode_core::op::{Op, SampleFn};
use gcode_engine::{
    decode_frame, decode_plan, encode_frame, encode_plan, read_message, write_message, EdgePool,
    EngineStats, ExecutionPlan, Frame, Throttle, WireState,
};
use gcode_graph::datasets::{PointCloudDataset, Sample};
use gcode_graph::knn::knn_graph;
use gcode_graph::CsrGraph;
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use gcode_nn::seq::{classify, forward_features_slotted, GraphInput, LayerSpec, WeightBank};
use gcode_tensor::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};

const CLOUDS: usize = 64;
const POINTS: usize = 1024;
const CLASSES: usize = 40;
const WARMUP_FRAMES: usize = 4;
/// Seed of the supernet weights and of the engine's RNG streams. The
/// model is part of the system under test, not an input: only the clouds
/// follow `--seed`. Activation sparsity, and with it kernel time and
/// compressed size, depends on the weights, so a per-seed model would put
/// a 10 % seed-to-seed difference into every metric.
const MODEL_SEED: u64 = 0x5EED;
/// Shares of `--seconds` given to the closed-loop and pipelined phases.
const CLOSED_SHARE: f64 = 0.4;
const PIPELINED_SHARE: f64 = 0.6;

/// One stream workload. Architectures are written out here, not taken
/// from `gcode-baselines`, so a change there cannot move the benchmark.
pub struct StreamSpec {
    pub name: &'static str,
    ops: fn() -> Vec<Op>,
    uplink_mbps: Option<f64>,
    /// Closed-loop frames at full scale.
    closed_frames: usize,
    /// Frames per pipelined block, and blocks at full scale.
    block_frames: usize,
    blocks: usize,
}

pub const STREAMS: &[StreamSpec] = &[
    StreamSpec {
        name: "stream_compute",
        ops: || {
            vec![
                Op::Sample(SampleFn::Knn { k: 20 }),
                Op::EdgeCombine { dim: 64 },
                Op::Aggregate(AggMode::Max),
                Op::Combine { dim: 16 },
                Op::Communicate,
                Op::Combine { dim: 64 },
                Op::Sample(SampleFn::Knn { k: 20 }),
                Op::EdgeCombine { dim: 128 },
                Op::Aggregate(AggMode::Max),
                Op::Combine { dim: 1024 },
                Op::GlobalPool(PoolMode::Max),
                Op::Combine { dim: 256 },
            ]
        },
        uplink_mbps: None,
        closed_frames: 160,
        block_frames: 10,
        blocks: 9,
    },
    // No `Sample` on the device side: a 1024-point kNN alone costs 20 ms
    // and would turn this into a second compute workload.
    StreamSpec {
        name: "stream_wire",
        ops: || {
            vec![
                Op::Combine { dim: 64 },
                Op::Communicate,
                Op::GlobalPool(PoolMode::Max),
                Op::Combine { dim: 256 },
            ]
        },
        uplink_mbps: None,
        closed_frames: 2000,
        block_frames: 256,
        blocks: 10,
    },
    StreamSpec {
        name: "stream_capped",
        ops: || {
            vec![
                Op::Combine { dim: 16 },
                Op::Communicate,
                Op::GlobalPool(PoolMode::Max),
                Op::Combine { dim: 256 },
            ]
        },
        uplink_mbps: Some(10.0),
        closed_frames: 200,
        block_frames: 16,
        blocks: 12,
    },
];

struct Env {
    samples: Vec<Sample>,
    plan: ExecutionPlan,
    pool: EdgePool,
}

fn spawn_pool(spec: &StreamSpec) -> Result<EdgePool, String> {
    let pool = EdgePool::spawn(WeightBank::new(CLASSES, MODEL_SEED), MODEL_SEED)
        .map_err(|e| format!("pool spawn: {e}"))?;
    Ok(match spec.uplink_mbps {
        Some(mbps) => pool.with_uplink_mbps(mbps),
        None => pool,
    })
}

/// Input generation, pool spawn, deploy and warm-up frames: everything
/// before the first timed frame.
fn setup(spec: &StreamSpec, arch: &Architecture, seed: u64) -> Result<Env, String> {
    let samples = PointCloudDataset::generate(CLOUDS, POINTS, CLASSES, seed).samples().to_vec();
    let plan = ExecutionPlan::from_architecture(arch);
    let mut pool = spawn_pool(spec)?;
    pool.deploy(plan.clone()).map_err(|e| format!("deploy: {e}"))?;
    pool.run(&samples[..WARMUP_FRAMES]).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Env { samples, plan, pool })
}

fn fingerprint(spec: &StreamSpec, arch: &Architecture, samples: &[Sample], ctx: &Ctx) -> String {
    let mut fp = Fingerprint::new();
    fp.text(spec.name);
    fp.text(&arch.signature());
    fp.samples(samples);
    fp.text(&format!("{:?}", spec.uplink_mbps));
    fp.number(spec.closed_frames as u64);
    fp.number(spec.block_frames as u64);
    fp.number(spec.blocks as u64);
    fp.text(&ctx.budget.label());
    fp.number(ctx.seed);
    fp.hex()
}

/// In-process replay of `plan` on one sample: device prefix, edge suffix,
/// classifier — what the deployed pair must predict, bit for bit.
fn replay(plan: &ExecutionPlan, sample: &Sample, bank: &mut WeightBank) -> usize {
    // The RNG only drives `BuildRandom`, which no stream plan contains.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let (h, graph) = forward_features_slotted(
        &plan.device_specs,
        &plan.device_slots,
        GraphInput { features: &sample.features, graph: sample.graph.as_ref() },
        bank,
        &mut rng,
    );
    let (h, _) = forward_features_slotted(
        &plan.edge_specs,
        &plan.edge_slots,
        GraphInput { features: &h, graph: graph.as_ref() },
        bank,
        &mut rng,
    );
    classify(&h, bank).argmax_row(0)
}

/// What the deployed pair answered, frame by frame, and what it sent.
#[derive(Default)]
struct Tally {
    frames: u64,
    bytes: u64,
    /// `(sample index, prediction)` of every frame that came back.
    observed: Vec<(usize, usize)>,
    /// Runs whose `bytes_sent` was not the sum of their `frame_bytes`.
    byte_mismatches: u64,
}

impl Tally {
    fn add(&mut self, first: usize, clouds: usize, predictions: &[usize], stats: &EngineStats) {
        self.frames += predictions.len() as u64;
        self.bytes += stats.bytes_sent as u64;
        if stats.frame_bytes.iter().sum::<usize>() != stats.bytes_sent
            || stats.frame_bytes.len() != predictions.len()
        {
            self.byte_mismatches += 1;
        }
        let indexed = predictions.iter().enumerate().map(|(j, &p)| ((first + j) % clouds, p));
        self.observed.extend(indexed);
    }

    /// Replays every distinct sample that was streamed (spread over the
    /// driver threads — after the timed phases, so it disturbs nothing)
    /// and records the two output checks.
    fn verify(&self, env: &Env, ctx: &Ctx, report: &mut Report) {
        let mut distinct: Vec<usize> = self.observed.iter().map(|&(i, _)| i).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let per_thread = distinct.len().div_ceil(ctx.driver_threads.max(1)).max(1);
        let reference: BTreeMap<usize, usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(per_thread)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut bank = WeightBank::new(CLASSES, MODEL_SEED);
                        chunk
                            .iter()
                            .map(|&i| (i, replay(&env.plan, &env.samples[i], &mut bank)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("replay thread")).collect()
        });
        let diverged = self.observed.iter().filter(|(i, p)| reference[i] != *p).count();
        report.check(
            "predictions_match_in_process_replay",
            diverged == 0,
            format!("{diverged} of {} frames diverged", self.observed.len()),
        );
        report.check(
            "bytes_sent_is_sum_of_frame_bytes",
            self.byte_mismatches == 0,
            format!("{} runs disagreed", self.byte_mismatches),
        );
    }
}

/// How many closed-loop frames run with span recording on, then off, in
/// turn — the two halves of `trace.overhead_share`.
const OVERHEAD_BLOCK: usize = 10;

/// Whether closed-loop frame `i` of a traced run records its span.
fn records_span(i: usize) -> bool {
    (i / OVERHEAD_BLOCK).is_multiple_of(2)
}

/// Closed loop: one `run(&[sample])` call in flight at a time. Returns
/// each call's wall time. With a trace, a `pool.run` span is recorded
/// around the frames `records_span` selects.
fn closed_loop(
    env: &mut Env,
    mut phase: Phase,
    tally: &mut Tally,
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut i = 0usize;
    while phase.next() {
        let idx = i % env.samples.len();
        let frame = std::slice::from_ref(&env.samples[idx]);
        let (result, wall_s) = match trace.as_deref_mut() {
            Some(trace) => {
                trace.set_enabled(records_span(i));
                trace.set_op(i as u64);
                timed(|| trace.call("pool.run", || env.pool.run(frame)))
            }
            None => timed(|| env.pool.run(frame)),
        };
        report.attempted += 1;
        match result {
            Ok((predictions, stats)) => {
                latencies.push(wall_s);
                tally.add(idx, env.samples.len(), &predictions, &stats);
            }
            Err(_) => {
                // The pool is gone after an error; the rest of the phase
                // cannot run.
                report.failed += 1;
                break;
            }
        }
        i += 1;
    }
    if let Some(trace) = trace {
        trace.set_enabled(true);
    }
    latencies
}

/// Pipelined: `run(stream)` over equal blocks. Returns each block's rate.
fn pipelined(
    spec: &StreamSpec,
    env: &mut Env,
    ctx: &Ctx,
    share: f64,
    tally: &mut Tally,
    report: &mut Report,
) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut phase = ctx.budget.phase(spec.blocks, 3, share);
    let mut first = 0usize;
    while phase.next() {
        let clouds = env.samples.len();
        let stream: Vec<Sample> =
            (0..spec.block_frames).map(|j| env.samples[(first + j) % clouds].clone()).collect();
        let (result, wall_s) = timed(|| env.pool.run(&stream));
        report.attempted += stream.len() as u64;
        match result {
            Ok((predictions, stats)) => {
                rates.push(stream.len() as f64 / wall_s);
                tally.add(first, clouds, &predictions, &stats);
            }
            Err(_) => {
                report.failed += stream.len() as u64;
                break;
            }
        }
        first += spec.block_frames;
    }
    rates
}

/// The untraced run: set-up (repeated for its median), closed loop,
/// pipelined blocks, output checks.
pub fn run(spec: &StreamSpec, ctx: &Ctx) -> Result<Report, String> {
    let arch = Architecture::new((spec.ops)());
    let mut report = Report::default();
    let (mut env, setups) = ctx.budget.repeat_setup(
        || setup(spec, &arch, ctx.seed),
        |env| env.pool.shutdown().map_err(|e| format!("pool shutdown: {e}")),
    )?;
    report.fingerprint = fingerprint(spec, &arch, &env.samples, ctx);

    let mut tally = Tally::default();
    let phase = ctx.budget.phase(spec.closed_frames, 20, CLOSED_SHARE);
    let (latencies, closed_s) =
        timed(|| closed_loop(&mut env, phase, &mut tally, &mut report, None));
    let (rates, pipelined_s) =
        timed(|| pipelined(spec, &mut env, ctx, PIPELINED_SHARE, &mut tally, &mut report));
    report.timed_s = closed_s + pipelined_s;

    tally.verify(&env, ctx, &mut report);
    report.put("op_p50_s", Summary::of_samples(&latencies));
    report.put("ops_per_s", Summary::of_blocks(&rates));
    report.put("setup_s", Summary::of_blocks(&setups));
    env.pool.shutdown().map_err(|e| format!("pool shutdown: {e}"))?;
    Ok(report)
}

/// The peer of the `proto.socket_rtt` probe: reads one message, answers
/// with `reply_len` bytes — a state frame out, a logits frame back.
fn spawn_reply_peer(
    reply_len: usize,
) -> Result<(TcpStream, std::thread::JoinHandle<()>), std::io::Error> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let peer = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else { return };
        let _ = stream.set_nodelay(true);
        let reply = vec![0u8; reply_len];
        while let Ok(Some(_)) = read_message(&mut stream) {
            if write_message(&mut stream, &reply).is_err() {
                return;
            }
        }
    });
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok((stream, peer))
}

/// Neighbor lists in the byte layout a state frame ships them in.
fn graph_bytes(g: &CsrGraph) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + 4 * (g.num_nodes() + g.num_edges()));
    bytes.extend_from_slice(&(g.num_nodes() as u32).to_le_bytes());
    for u in 0..g.num_nodes() {
        let neighbors = g.neighbors(u);
        bytes.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
        for v in neighbors {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

fn op_span_name(op: &Op) -> &'static str {
    match op {
        Op::Sample(_) => "nn.op.knn",
        Op::EdgeCombine { .. } => "nn.op.edge_combine",
        Op::Aggregate(_) => "nn.op.aggregate",
        Op::Combine { .. } => "nn.op.combine",
        Op::GlobalPool(_) => "nn.op.global_pool",
        Op::Communicate | Op::Identity => "nn.op.identity",
    }
}

/// Inputs of the kernel probes, captured from the first staged frame so
/// `tensor.matmul_s` and `graph.knn_*_s` run on real activations.
#[derive(Default)]
struct ProbeInputs {
    /// Input of the plan's largest `Combine` and that op's output width.
    matmul: Option<(Matrix, usize)>,
    /// Input and `k` of the first kNN over raw coordinates / over features.
    knn_coord: Option<(Matrix, usize)>,
    knn_feature: Option<(Matrix, usize)>,
}

/// One side of the plan, one `LayerSpec` at a time, each output chained
/// into the next call.
fn staged_ops(
    trace: &mut Trace,
    ops: &[Op],
    specs: &[LayerSpec],
    slots: &[usize],
    input: (Matrix, Option<CsrGraph>),
    bank: &mut WeightBank,
    probes: Option<&mut ProbeInputs>,
) -> (Matrix, Option<CsrGraph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let (mut h, mut graph) = input;
    let mut probes = probes;
    for ((op, spec), slot) in ops.iter().zip(specs).zip(slots) {
        if let Some(p) = probes.as_deref_mut() {
            match *spec {
                LayerSpec::Combine { out_dim } => {
                    let flops = h.rows() * h.cols() * out_dim;
                    let best = p.matmul.as_ref().map_or(0, |(m, out)| m.rows() * m.cols() * out);
                    if flops > best {
                        p.matmul = Some((h.clone(), out_dim));
                    }
                }
                LayerSpec::BuildKnn { k } => {
                    let slot = if h.cols() <= 3 { &mut p.knn_coord } else { &mut p.knn_feature };
                    slot.get_or_insert_with(|| (h.clone(), k));
                }
                _ => {}
            }
        }
        (h, graph) = trace.call(op_span_name(op), || {
            forward_features_slotted(
                std::slice::from_ref(spec),
                std::slice::from_ref(slot),
                GraphInput { features: &h, graph: graph.as_ref() },
                bank,
                &mut rng,
            )
        });
    }
    (h, graph)
}

/// What one staged frame produced.
struct StagedFrame {
    prediction: usize,
    modeled_wait_s: f64,
}

/// One frame driven one public call at a time, a span around each call,
/// all under one `frame` span.
fn staged_frame(
    trace: &mut Trace,
    spec: &StreamSpec,
    plan: &ExecutionPlan,
    sample: &Sample,
    peer: &mut TcpStream,
    bank: &mut WeightBank,
) -> Result<StagedFrame, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    trace.span("frame", |t| {
        let (h, graph) = t.call("nn.device_prefix", || {
            forward_features_slotted(
                &plan.device_specs,
                &plan.device_slots,
                GraphInput { features: &sample.features, graph: sample.graph.as_ref() },
                bank,
                &mut rng,
            )
        });
        let state =
            Frame::State(WireState { frame_id: 0, features: h, graph, label: sample.label as u32 });
        let body = t.call("proto.encode_frame", || encode_frame(&state));
        let wire_bytes = body.len() + 4;
        let mut modeled_wait_s = 0.0;
        if let Some(mbps) = spec.uplink_mbps {
            // A closed-loop run starts every frame on a full token bucket.
            modeled_wait_s = Throttle::mbps(mbps).consume(wire_bytes).as_secs_f64();
            let mut throttle = Throttle::mbps(mbps);
            t.call("throttle.pace", || throttle.pace(wire_bytes));
        }
        t.call("proto.socket_rtt", || {
            write_message(&mut *peer, &body)?;
            read_message(&mut *peer)
        })
        .map_err(|e| format!("socket probe: {e}"))?;
        let arrived = t
            .call("proto.decode_frame", || decode_frame(&body))
            .map_err(|e| format!("decode: {e}"))?;
        let Frame::State(arrived) = arrived else {
            return Err("a state frame decoded to another kind".to_string());
        };
        let (h, _) = t.call("nn.edge_suffix", || {
            forward_features_slotted(
                &plan.edge_specs,
                &plan.edge_slots,
                GraphInput { features: &arrived.features, graph: arrived.graph.as_ref() },
                bank,
                &mut rng,
            )
        });
        let logits = t.call("nn.classify", || classify(&h, bank));
        let reply =
            Frame::State(WireState { frame_id: 0, features: logits, graph: None, label: 0 });
        let reply_body = t.call("proto.encode_reply", || encode_frame(&reply));
        let reply = t
            .call("proto.decode_reply", || decode_frame(&reply_body))
            .map_err(|e| format!("decode reply: {e}"))?;
        match reply {
            Frame::State(state) => {
                Ok(StagedFrame { prediction: state.features.argmax_row(0), modeled_wait_s })
            }
            _ => Err("a reply frame decoded to another kind".to_string()),
        }
    })
}

/// The codec alone on the state a frame shipped. Returns the float ratio
/// and, when a graph crossed the split, the graph-bytes ratio.
fn codec_probes(
    trace: &mut Trace,
    (h, graph): &(Matrix, Option<CsrGraph>),
) -> Result<(f64, Option<f64>), String> {
    let packed = trace.call("compress.floats", || gcode_compress::compress_floats(h.as_slice()));
    let floats_ratio = (4 * h.len()) as f64 / packed.len().max(1) as f64;
    trace
        .call("compress.unpack_floats", || gcode_compress::decompress_floats(&packed))
        .map_err(|e| format!("unpack floats: {e}"))?;
    let Some(g) = graph else {
        return Ok((floats_ratio, None));
    };
    let raw = graph_bytes(g);
    let packed = trace.call("compress.bytes", || gcode_compress::compress(&raw));
    trace
        .call("compress.unpack_bytes", || gcode_compress::decompress(&packed))
        .map_err(|e| format!("unpack bytes: {e}"))?;
    Ok((floats_ratio, Some(raw.len() as f64 / packed.len().max(1) as f64)))
}

/// Both sides of the plan as a ladder of single-op calls, and between
/// them the codec alone on the state that crosses the split. Returns the
/// codec's ratios.
fn op_ladder(
    trace: &mut Trace,
    arch: &Architecture,
    plan: &ExecutionPlan,
    sample: &Sample,
    bank: &mut WeightBank,
    mut probes: Option<&mut ProbeInputs>,
) -> Result<(f64, Option<f64>), String> {
    let ops = arch.ops();
    // A raw lowering keeps one spec per op; the `Communicate` at the split
    // belongs to neither side.
    let split = plan.device_specs.len();
    let shipped = staged_ops(
        trace,
        &ops[..split],
        &plan.device_specs,
        &plan.device_slots,
        (sample.features.clone(), sample.graph.clone()),
        bank,
        probes.as_deref_mut(),
    );
    let ratios = codec_probes(trace, &shipped)?;
    staged_ops(trace, &ops[split + 1..], &plan.edge_specs, &plan.edge_slots, shipped, bank, probes);
    Ok(ratios)
}

/// Medians of `reps` timed calls of `f`.
fn probe(reps: usize, mut f: impl FnMut()) -> Summary {
    let walls: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    Summary::of_samples(&walls)
}

/// Kernel probes on the activations captured from the first staged frame.
fn kernel_probes(inputs: &ProbeInputs, seed: u64, report: &mut Report) {
    if let Some((x, out_dim)) = &inputs.matmul {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights: Vec<f32> =
            (0..x.cols() * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let w = Matrix::from_vec(x.cols(), *out_dim, weights);
        report.put("tensor.matmul_s", probe(5, || drop(std::hint::black_box(x.matmul(&w)))));
        report.put_exact("tensor.matmul_flops", (2 * x.rows() * x.cols() * out_dim) as f64);
    }
    for (name, input) in
        [("graph.knn_coord_s", &inputs.knn_coord), ("graph.knn_feature_s", &inputs.knn_feature)]
    {
        if let Some((x, k)) = input {
            report.put(name, probe(5, || drop(std::hint::black_box(knn_graph(x, *k)))));
        }
    }
}

/// Pool and plan-codec probes: what set-up and a deploy are made of.
fn deploy_probes(spec: &StreamSpec, env: &mut Env, report: &mut Report) {
    let mut spawns = Vec::new();
    for _ in 0..3 {
        let (pool, spawn_s) = timed(|| spawn_pool(spec));
        if let Ok(pool) = pool {
            spawns.push(spawn_s);
            let _ = pool.shutdown();
        }
    }
    report.put("pool.spawn_s", Summary::of_samples(&spawns));
    let mut deploys = Vec::new();
    for _ in 0..20 {
        let plan = env.plan.clone();
        let (result, deploy_s) = timed(|| env.pool.deploy(plan));
        if result.is_ok() {
            deploys.push(deploy_s);
        }
    }
    report.put("pool.deploy_s", Summary::of_samples(&deploys));
    let encoded = encode_plan(&env.plan);
    report.put("proto.encode_plan_s", probe(200, || drop(encode_plan(&env.plan))));
    report.put("proto.decode_plan_s", probe(200, || drop(decode_plan(&encoded))));
    report.put_exact("proto.plan_bytes", encoded.len() as f64);
}

/// About the size of a 40-class logits frame coming back.
const REPLY_LEN: usize = 200;

/// The traced run: the closed loop with and without a span around each
/// call, a few pipelined blocks, then the staged replay — the same frames
/// one public call at a time — and the kernel, codec and deploy probes.
pub fn run_traced(spec: &StreamSpec, ctx: &Ctx) -> Result<Report, String> {
    let arch = Architecture::new((spec.ops)());
    let mut report = Report::default();
    let mut env = setup(spec, &arch, ctx.seed)?;
    report.fingerprint = fingerprint(spec, &arch, &env.samples, ctx);
    let mut trace = Trace::new(true);
    let run_start = std::time::Instant::now();

    let mut tally = Tally::default();
    let phase = ctx.budget.phase(spec.closed_frames, 4 * OVERHEAD_BLOCK, 0.3);
    let closed = closed_loop(&mut env, phase, &mut tally, &mut report, Some(&mut trace));
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    for (i, &wall_s) in closed.iter().enumerate() {
        (if records_span(i) { &mut traced_s } else { &mut untraced_s }).push(wall_s);
    }
    let frame_p50_s = median(&closed);
    let (p95_s, max_s) = tail(&closed);
    report.put_exact("runtime.frame_p95_s", p95_s);
    report.put_exact("runtime.frame_max_s", max_s);
    if !untraced_s.is_empty() {
        let share = median(&traced_s) / median(&untraced_s) - 1.0;
        report.put_exact("trace.overhead_share", share);
    }

    let rates = pipelined(spec, &mut env, ctx, 0.25, &mut tally, &mut report);
    let frames_per_s = median(&rates);
    report.put_exact(
        "runtime.uplink_bytes_per_frame",
        tally.bytes as f64 / tally.frames.max(1) as f64,
    );

    // Staged replay.
    let (mut peer, peer_thread) =
        spawn_reply_peer(REPLY_LEN).map_err(|e| format!("reply peer: {e}"))?;
    let mut bank = WeightBank::new(CLASSES, MODEL_SEED);
    let mut inputs = ProbeInputs::default();
    let mut floats_ratios = Vec::new();
    let mut bytes_ratios = Vec::new();
    let mut modeled_waits = Vec::new();
    let mut staged_predictions = BTreeMap::new();
    let mut phase = ctx.budget.phase(spec.closed_frames / 4, 10, 0.2);
    let mut frame = 0usize;
    while phase.next() {
        let idx = frame % env.samples.len();
        trace.set_op((1 << 32) | frame as u64);
        let staged =
            staged_frame(&mut trace, spec, &env.plan, &env.samples[idx], &mut peer, &mut bank)?;
        modeled_waits.push(staged.modeled_wait_s);
        staged_predictions.insert(idx, staged.prediction);
        frame += 1;
    }
    // The same frames again as a ladder of single ops, with the codec
    // alone on the state that crosses the split. A pass of its own: the
    // ladder's extra copies must not sit between the staged frames.
    let mut phase = ctx.budget.phase(spec.closed_frames / 8, 5, 0.1);
    let mut frame = 0usize;
    while phase.next() {
        let sample = &env.samples[frame % env.samples.len()];
        trace.set_op((2 << 32) | frame as u64);
        let probes = (frame == 0).then_some(&mut inputs);
        let (floats_ratio, bytes_ratio) =
            op_ladder(&mut trace, &arch, &env.plan, sample, &mut bank, probes)?;
        floats_ratios.push(floats_ratio);
        bytes_ratios.extend(bytes_ratio);
        frame += 1;
    }
    drop(peer);
    peer_thread.join().map_err(|_| "reply peer panicked".to_string())?;

    // The staged replay is the in-process replay: the pool must agree.
    let diverged = tally
        .observed
        .iter()
        .filter(|(i, p)| staged_predictions.get(i).is_some_and(|staged| staged != p))
        .count();
    report.check(
        "predictions_match_staged_replay",
        diverged == 0,
        format!("{diverged} of {} frames diverged", tally.observed.len()),
    );
    report.check(
        "bytes_sent_is_sum_of_frame_bytes",
        tally.byte_mismatches == 0,
        format!("{} runs disagreed", tally.byte_mismatches),
    );

    let per_frame = |trace: &Trace, name: &str| Summary::of_samples(&trace.totals_per_op(name));
    for (metric, span) in [
        ("nn.op.knn_s", "nn.op.knn"),
        ("nn.op.edge_combine_s", "nn.op.edge_combine"),
        ("nn.op.aggregate_s", "nn.op.aggregate"),
        ("nn.op.combine_s", "nn.op.combine"),
        ("nn.op.global_pool_s", "nn.op.global_pool"),
        ("nn.classify_s", "nn.classify"),
        ("nn.device_prefix_s", "nn.device_prefix"),
        ("nn.edge_suffix_s", "nn.edge_suffix"),
        ("compress.floats_s", "compress.floats"),
        ("compress.bytes_s", "compress.bytes"),
        ("compress.unpack_floats_s", "compress.unpack_floats"),
        ("compress.unpack_bytes_s", "compress.unpack_bytes"),
        ("proto.encode_frame_s", "proto.encode_frame"),
        ("proto.decode_frame_s", "proto.decode_frame"),
        ("proto.socket_rtt_s", "proto.socket_rtt"),
    ] {
        let summary = per_frame(&trace, span);
        if summary.n > 0 && summary.max > 0.0 {
            report.put(metric, summary);
        }
    }
    report.put("compress.floats_ratio", Summary::of_samples(&floats_ratios));
    if !bytes_ratios.is_empty() {
        report.put("compress.bytes_ratio", Summary::of_samples(&bytes_ratios));
    }
    if spec.uplink_mbps.is_some() {
        report.put("throttle.modeled_wait_s", Summary::of_samples(&modeled_waits));
        let overshoot: Vec<f64> = trace
            .durations("throttle.pace")
            .iter()
            .zip(&modeled_waits)
            .map(|(wall, modeled)| wall - modeled)
            .collect();
        report.put("throttle.pace_overshoot_s", Summary::of_samples(&overshoot));
    }
    // What the staged calls of one frame add up to; the rest of a
    // closed-loop frame is the runtime's own: thread spawn, queues,
    // scheduling.
    let staged_sum_s = median(&trace.child_totals("frame"));
    report.put_exact("runtime.frame_overhead_s", frame_p50_s - staged_sum_s);
    report.put_exact("runtime.pipeline_overlap", frames_per_s * staged_sum_s);

    kernel_probes(&inputs, ctx.seed, &mut report);
    deploy_probes(spec, &mut env, &mut report);
    report.timed_s = run_start.elapsed().as_secs_f64();
    report.put_exact("runtime.peak_rss_mb", peak_rss_mb());
    env.pool.shutdown().map_err(|e| format!("pool shutdown: {e}"))?;

    let shares = [
        ("nn+tensor+graph", ["nn.device_prefix_s", "nn.edge_suffix_s", "nn.classify_s"].as_slice()),
        (
            "compress+proto",
            ["proto.encode_frame_s", "proto.decode_frame_s", "proto.socket_rtt_s"].as_slice(),
        ),
        ("throttle", ["throttle.modeled_wait_s"].as_slice()),
        ("runtime", ["runtime.frame_overhead_s"].as_slice()),
    ]
    .map(|(layer, metrics)| {
        let total: f64 = metrics.iter().filter_map(|m| report.get(m)).sum();
        (layer.to_string(), total / frame_p50_s)
    });
    write_trace(ctx, spec.name, frame_p50_s, &shares, &trace)?;
    Ok(report)
}
