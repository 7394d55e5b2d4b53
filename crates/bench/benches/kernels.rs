//! Criterion micro-benchmarks of the substrate kernels and the GCoDE
//! pipeline stages: the costs that determine how fast the reproduction's
//! own machinery runs (search iterations, simulation, predictor features,
//! compression, GNN kernels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcode_baselines::models;
use gcode_core::arch::{Architecture, WorkloadProfile};
use gcode_core::estimate::estimate_latency;
use gcode_core::eval::Objective;
use gcode_core::predictor::{abstract_architecture, FeatureMode};
use gcode_core::search::{random_search, SearchConfig};
use gcode_core::space::DesignSpace;
use gcode_core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode_engine::{decode_frame, encode_frame, Frame, WireState};
use gcode_graph::datasets::PointCloudDataset;
use gcode_graph::knn::knn_graph;
use gcode_hardware::SystemConfig;
use gcode_nn::agg::{aggregate, aggregate_forward, AggMode};
use gcode_nn::linear::Linear;
use gcode_nn::pool::{global_pool, global_pool_forward, PoolMode};
use gcode_sim::{simulate, SimBackend, SimConfig};
use gcode_tensor::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// `rows × cols` activations as a `Combine` leaves them: about half the
/// entries exactly zero, the rest in `(0, 1)`.
fn relu_sparse(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0).max(0.0)).collect::<Vec<f32>>();
    Matrix::from_vec(rows, cols, data)
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_graph");
    for &n in &[128usize, 512, 1024] {
        let ds = PointCloudDataset::generate(1, n, 4, 1);
        let pts = &ds.samples()[0].features;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| knn_graph(black_box(pts), 20));
        });
    }
    // The two kNNs of a `stream_compute` frame: raw coordinates on the
    // device, 64-wide features on the edge.
    for &d in &[3usize, 64] {
        let x = relu_sparse(1024, d, 11);
        group.bench_with_input(BenchmarkId::new("1024_k20_d", d), &d, |b, _| {
            b.iter(|| knn_graph(black_box(&x), 20));
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let ds = PointCloudDataset::generate(1, 1024, 4, 2);
    let pts = &ds.samples()[0].features;
    let g = knn_graph(pts, 20);
    let x = Matrix::full(1024, 64, 0.5);
    let mut group = c.benchmark_group("aggregate_1024x64_k20");
    for mode in AggMode::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &m| {
            b.iter(|| aggregate(black_box(&g), black_box(&x), m));
        });
    }
    group.finish();
    // The frame's widest aggregate, with and without the backward cache.
    let x = relu_sparse(1024, 128, 12);
    let mut group = c.benchmark_group("aggregate_max_1024x128_k20");
    group.bench_with_input(BenchmarkId::from_parameter("train"), &(), |b, _| {
        b.iter(|| aggregate(black_box(&g), black_box(&x), AggMode::Max));
    });
    group.bench_with_input(BenchmarkId::from_parameter("forward"), &(), |b, _| {
        b.iter(|| aggregate_forward(black_box(&g), black_box(&x), AggMode::Max));
    });
    group.finish();
}

fn bench_global_pool(c: &mut Criterion) {
    let x = relu_sparse(1024, 1024, 13);
    let mut group = c.benchmark_group("global_pool_max_1024x1024");
    group.bench_with_input(BenchmarkId::from_parameter("train"), &(), |b, _| {
        b.iter(|| global_pool(black_box(&x), PoolMode::Max));
    });
    group.bench_with_input(BenchmarkId::from_parameter("forward"), &(), |b, _| {
        b.iter(|| global_pool_forward(black_box(&x), PoolMode::Max));
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::full(1024, 64, 0.25);
    let w = Matrix::full(64, 128, 0.5);
    c.bench_function("matmul_1024x64x128", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&w)));
    });
    // The frame's largest `Combine`: a ReLU-sparse left operand, so the
    // zero-skip path runs.
    let a = relu_sparse(1024, 128, 14);
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let lin = Linear::new(128, 1024, &mut rng);
    c.bench_function("matmul_1024x128x1024_relu_sparse", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&lin.w)));
    });
    c.bench_function("combine_1024x128x1024_relu_sparse", |b| {
        b.iter(|| black_box(&lin).forward_relu(black_box(&a)));
    });
}

/// The codec rung at the frame's shapes: the float blob on a ReLU-sparse
/// 1024×64 activation (what a `Combine` ships) and on a dense one (what an
/// `Aggregate` ships), then whole `State` frames with and without the
/// 1024×20 kNN graph a post-`Sample` split carries.
fn bench_compress(c: &mut Criterion) {
    let sparse = relu_sparse(1024, 64, 16);
    let dense = sparse.map(|v| v + 1.0);
    for (name, activation) in [("relu_sparse", &sparse), ("dense", &dense)] {
        c.bench_function(&format!("compress_floats_1024x64_{name}"), |b| {
            b.iter(|| gcode_compress::compress_floats(black_box(activation.as_slice())));
        });
        let packed = gcode_compress::compress_floats(activation.as_slice());
        c.bench_function(&format!("decompress_floats_1024x64_{name}"), |b| {
            b.iter(|| gcode_compress::decompress_floats(black_box(&packed)).expect("valid"));
        });
    }

    let cloud = PointCloudDataset::generate(1, 1024, 4, 1);
    let graph = knn_graph(&cloud.samples()[0].features, 20);
    for (name, graph) in [("no_graph", None), ("knn_1024x20", Some(graph))] {
        let frame =
            Frame::State(WireState { frame_id: 0, features: sparse.clone(), graph, label: 0 });
        c.bench_function(&format!("encode_frame_state_1024x64_{name}"), |b| {
            b.iter(|| encode_frame(black_box(&frame)));
        });
        let body = encode_frame(&frame);
        c.bench_function(&format!("decode_frame_state_1024x64_{name}"), |b| {
            b.iter(|| decode_frame(black_box(&body)).expect("valid"));
        });
    }
}

fn bench_cost_models(c: &mut Criterion) {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::tx2_to_i7(40.0);
    let dgcnn = models::dgcnn().arch;
    c.bench_function("estimate_latency_dgcnn", |b| {
        b.iter(|| estimate_latency(black_box(&dgcnn), &profile, &sys));
    });
    let sim = SimConfig::single_frame();
    c.bench_function("simulate_dgcnn_single_frame", |b| {
        b.iter(|| simulate(black_box(&dgcnn), &profile, &sys, &sim));
    });
    let sim64 = SimConfig { frames: 64, ..SimConfig::default() };
    c.bench_function("simulate_dgcnn_64_frames", |b| {
        b.iter(|| simulate(black_box(&dgcnn), &profile, &sys, &sim64));
    });
}

fn bench_predictor_features(c: &mut Criterion) {
    let profile = WorkloadProfile::modelnet40();
    let sys = SystemConfig::pi_to_1060(40.0);
    let space = DesignSpace::paper(profile);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (arch, _) = space.sample_valid(&mut rng, 100_000);
    c.bench_function("abstract_architecture_enhanced", |b| {
        b.iter(|| abstract_architecture(black_box(&arch), &profile, &sys, FeatureMode::Enhanced));
    });
}

fn bench_search(c: &mut Criterion) {
    let profile = WorkloadProfile::modelnet40();
    let space = DesignSpace::paper(profile);
    let surrogate = SurrogateAccuracy::new(SurrogateTask::ModelNet40);
    let objective = Objective::new(0.1, 0.15, 1.0);
    c.bench_function("random_search_100_trials", |b| {
        b.iter(|| {
            let eval = SimBackend {
                profile,
                sys: SystemConfig::tx2_to_i7(40.0),
                sim: SimConfig::single_frame(),
                accuracy_fn: |a: &Architecture| surrogate.overall_accuracy(a),
            };
            let cfg = SearchConfig { iterations: 100, seed: 5, ..SearchConfig::default() };
            random_search(black_box(&space), &cfg, &objective, &eval)
        });
    });
}

criterion_group!(
    benches,
    bench_knn,
    bench_aggregate,
    bench_global_pool,
    bench_matmul,
    bench_compress,
    bench_cost_models,
    bench_predictor_features,
    bench_search
);
criterion_main!(benches);
