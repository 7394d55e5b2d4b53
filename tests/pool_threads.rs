//! A warm pool's thread count does not grow with candidates: its device
//! keeps one uplink and one results thread for the life of its
//! connection, and shutting the pool down (or dropping it) joins them. A fleet's workers live for one batch: none is left once it
//! returns, whoever else is calling.
//!
//! Counts come from `/proc/self/task`, so this file holds a single test:
//! no other test may share the process while it counts.
#![cfg(target_os = "linux")]

use gcode::core::arch::Architecture;
use gcode::core::op::{Op, SampleFn};
use gcode::engine::{EdgeFleet, EdgePool, ExecutionPlan, FleetSpec};
use gcode::graph::datasets::PointCloudDataset;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::WeightBank;
use std::time::{Duration, Instant};

/// The names of this process's threads, sorted.
fn threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect();
    names.sort();
    names
}

/// This process's threads once `settled` holds of them. A joined thread
/// may still be listed for a moment after `join` returns, so the listing
/// is read again for up to a second before the last reading is returned.
fn threads_once(settled: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let names = threads();
        if settled(&names) || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn offloaded(dim: usize) -> ExecutionPlan {
    ExecutionPlan::from_architecture(&Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::Combine { dim },
        Op::Communicate,
        Op::GlobalPool(PoolMode::Max),
    ]))
}

fn local() -> ExecutionPlan {
    ExecutionPlan::from_architecture(&Architecture::new(vec![
        Op::Sample(SampleFn::Knn { k: 4 }),
        Op::Aggregate(AggMode::Max),
        Op::GlobalPool(PoolMode::Max),
    ]))
}

#[test]
fn a_warm_pool_spawns_no_thread_per_candidate_and_joins_all_of_them() {
    let ds = PointCloudDataset::generate(3, 16, 2, 5);
    let before = threads();

    // Pool: the edge's serve thread, then the client's two I/O threads on
    // its first offloaded run.
    let mut pool = EdgePool::spawn(WeightBank::new(2, 7), 11).expect("pool");
    pool.deploy(offloaded(8)).expect("deploy");
    pool.run(ds.samples()).expect("first offloaded run");
    let warm = threads();
    for name in ["gcode-edge", "gcode-uplink", "gcode-results"] {
        assert_eq!(warm.iter().filter(|n| *n == name).count(), 1, "one {name}: {warm:?}");
    }
    assert_eq!(warm.len(), before.len() + 3, "{before:?} → {warm:?}");

    // 200 more candidates, offloaded and local mixed: no thread comes or
    // stays.
    for i in 0..200 {
        let plan = if i % 3 == 2 { local() } else { offloaded(8 + 8 * (i % 4)) };
        let offloads = plan.offloaded;
        pool.deploy(plan).expect("deploy");
        let (_, stats) = pool.run(ds.samples()).expect("run");
        assert_eq!(stats.bytes_sent > 0, offloads);
    }
    assert_eq!(threads_once(|t| t == warm), warm, "threads after 200 candidates");

    pool.shutdown().expect("clean pool shutdown");
    assert_eq!(threads_once(|t| t == before), before, "threads after pool shutdown");

    // A pool dropped without `shutdown` joins its threads too.
    let mut pool = EdgePool::spawn(WeightBank::new(2, 7), 11).expect("pool");
    pool.deploy(offloaded(16)).expect("deploy");
    pool.run(ds.samples()).expect("offloaded run");
    assert_eq!(threads().len(), before.len() + 3, "edge plus the device's two I/O threads");
    drop(pool);
    assert_eq!(threads_once(|t| t == before), before, "threads after dropping the pool");

    // A two-pool fleet serving 50 rounds of two concurrent callers: each
    // pool keeps its edge and I/O threads, and every `gcode-fleet-N`
    // worker is joined when its batch returns.
    let fleet = EdgeFleet::new(FleetSpec::loopback(2), 2, 7, 11);
    let plans: Vec<ExecutionPlan> = (0..4).map(|i| offloaded(8 + 8 * i)).collect();
    // Which pool serves a candidate is timing-dependent: on a loaded host
    // one pool can go a whole batch without an offloaded run, and so
    // without its I/O threads. Batches run until both pools have theirs.
    for _ in 0..100 {
        if threads().iter().filter(|n| *n == "gcode-uplink").count() == 2 {
            break;
        }
        assert!(fleet.run_batch(&plans, ds.samples()).iter().all(Result::is_ok), "warm-up");
    }
    let settled = |names: &[String]| {
        names.len() == before.len() + 6
            && !names.iter().any(|n| n.starts_with("gcode-fleet"))
            && names.iter().filter(|n| *n == "gcode-edge").count() == 2
    };
    for round in 0..50 {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let outcomes = fleet.run_batch(&plans, ds.samples());
                    assert!(outcomes.iter().all(Result::is_ok), "round {round}");
                });
            }
        });
        let names = threads_once(settled);
        assert!(!names.iter().any(|n| n.starts_with("gcode-fleet")), "round {round}: {names:?}");
        let edges = names.iter().filter(|n| *n == "gcode-edge").count();
        assert_eq!(edges, 2, "round {round}: {names:?}");
        assert_eq!(names.len(), before.len() + 6, "round {round}: {names:?}");
    }
    assert_eq!(fleet.spawns(), 2, "the fleet's pools outlive every batch");
    fleet.shutdown().expect("clean fleet shutdown");
    assert_eq!(threads_once(|t| t == before), before, "threads after fleet shutdown");
}
