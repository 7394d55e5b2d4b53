//! Row bands: how a kernel whose output rows are independent uses more
//! than one core without changing one bit of its result.
//!
//! A kernel hands [`for_each_split`] its output buffer and a closure that
//! fills any contiguous run of rows. The buffer is cut into *bands* of whole
//! rows, every band is filled by that one closure — so each row is computed
//! by the code, and in the `f32` order, it would be with a single band — and
//! the bands are disjoint `&mut` slices, so which thread fills which is
//! invisible in the output.
//!
//! A kernel writes its band body once, `#[inline(always)]`, and compiles
//! it twice: as it is, for the target's baseline (SSE2 on x86_64), and
//! inside a `#[target_feature(enable = "avx2")]` wrapper. Every job on a
//! host with AVX2 takes the AVX2 build; every job elsewhere the baseline
//! one. Neither build contracts a multiply and an add into an FMA or
//! reorders a float sum, so the two differ only in how many lanes one
//! instruction covers: every bit of the output agrees, except which NaN a
//! sum returns where a NaN from the input meets another NaN. [`Job::new`]
//! decides the bands from the host's cores and the size of the job, and
//! the build from the host's ISA; nothing else does, and no caller can.

use std::io;
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Scope};

/// Scalar operations a band must hold before it is worth a thread of its
/// own. Measured on a 2-core Xeon @ 2.1 GHz (KVM) with AVX2: one
/// `Builder::spawn_scoped` + join is 14–16 µs back to back, 19–44 µs when
/// the thread allocates, ~60 µs at a noisy hour. On one core the AVX2
/// builds retire 4 M operations in 0.06–0.54 ms (`knn_graph` 1024×3:
/// 11.5 M in 1.55 ms, 1024×64: 203 M in 4.6 ms; `matmul` 1024×64·64×128:
/// 16.8 M in 0.77 ms, 1024×128·128×1024: 268 M in 3.95 ms). Only the slow
/// two sit near the floor, so a band of any of these pays at most a ninth
/// of its time for its thread (a sixth at a noisy hour), a fiftieth on the
/// large two, to save all of it. Every op of a 1024-point frame that
/// matters is above twice this and every op of a 24-point search candidate
/// is 20× below it. The floor counts operations, not time, so no shape is
/// on a different side of it in the AVX2 build than in the baseline one.
const BAND_FLOOR: usize = 4 << 20;

/// How a kernel runs a job of independent output rows: in how many row
/// bands, and which build of its band body fills them.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Row bands to cut the output into ([`for_each_split`]'s `parts`).
    pub bands: usize,
    /// `Some` fills every band with the AVX2 build, `None` with the
    /// baseline build.
    pub avx2: Option<Avx2>,
}

impl Job {
    /// The job of `rows` independent rows costing `ops_per_row` scalar
    /// operations each. Bands: one per core, never more than there are
    /// rows, never so many that a band falls under the floor — and one,
    /// which spawns nothing, for everything small. Build: AVX2 when the
    /// host has it, whatever the size.
    pub fn new(rows: usize, ops_per_row: usize) -> Self {
        let bands = cores().min(rows).min(rows.saturating_mul(ops_per_row) / BAND_FLOOR).max(1);
        Self { bands, avx2: avx2() }
    }
}

/// Proof that the host runs AVX2, which calling a band body's AVX2 build
/// needs: only [`avx2`] makes one, and only after the runtime check found
/// the feature.
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

/// The host's [`Avx2`] proof, or `None` on a CPU or target without AVX2;
/// asked once.
pub fn avx2() -> Option<Avx2> {
    static AVX2: OnceLock<bool> = OnceLock::new();
    AVX2.get_or_init(host_has_avx2).then_some(Avx2(()))
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn host_has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
fn host_has_avx2() -> bool {
    false
}

/// Cores this process may run on (affinity and cgroup quota honoured),
/// asked once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Cuts `out` — rows of `row_len > 0` elements, the last one possibly short —
/// into at most `parts` contiguous bands of equally many whole rows (the
/// last band takes what is left) and calls `fill(first_row, band)` once per
/// band. With one part, or fewer than two rows, that is a plain call on the
/// calling thread. Otherwise one thread per further band, named
/// `gcode-band`, shares the bands with the caller; a thread the OS refuses
/// is simply not there, and the caller fills what it would have.
pub fn for_each_split<T: Send>(
    parts: usize,
    out: &mut [T],
    row_len: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    split_with(parts, out, row_len, fill, |scope, worker| {
        thread::Builder::new().name("gcode-band".into()).spawn_scoped(scope, worker).map(drop)
    });
}

/// [`for_each_split`] with the thread spawner as an argument, so a test can
/// hand in one that fails.
fn split_with<T: Send>(
    parts: usize,
    out: &mut [T],
    row_len: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
    spawn: impl for<'scope> Fn(&'scope Scope<'scope, '_>, &'scope (dyn Fn() + Sync)) -> io::Result<()>,
) {
    let rows = out.len().div_ceil(row_len);
    if parts.min(rows) < 2 {
        return fill(0, out);
    }
    let band_rows = rows.div_ceil(parts);
    // The lock is held to take a band, never while one is filled.
    let bands = Mutex::new(out.chunks_mut(band_rows * row_len).enumerate());
    let worker = || loop {
        let next = bands.lock().expect("no band is filled under the lock").next();
        let Some((index, band)) = next else { break };
        fill(index * band_rows, band);
    };
    thread::scope(|scope| {
        for _ in 1..rows.div_ceil(band_rows) {
            if spawn(scope, &worker).is_err() {
                break;
            }
        }
        worker();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every element gets its row and its offset in the row, whoever fills it.
    fn stamp(first_row: usize, band: &mut [(usize, usize)], row_len: usize) {
        for (r, row) in band.chunks_mut(row_len).enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = (first_row + r, c);
            }
        }
    }

    fn stamped(len: usize, row_len: usize) -> Vec<(usize, usize)> {
        (0..len).map(|i| (i / row_len, i % row_len)).collect()
    }

    #[test]
    fn every_row_is_filled_once_whatever_the_split() {
        for (len, row_len) in [(0usize, 3usize), (1, 3), (3, 3), (12, 3), (13, 3), (35, 7), (64, 1)]
        {
            let rows = len.div_ceil(row_len);
            for parts in [0, 1, 2, 3, 5, rows, rows + 1] {
                let mut out = vec![(usize::MAX, usize::MAX); len];
                let calls = AtomicUsize::new(0);
                for_each_split(parts, &mut out, row_len, |first_row, band| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert!(len == 0 || !band.is_empty(), "no empty band");
                    stamp(first_row, band, row_len);
                });
                assert_eq!(out, stamped(len, row_len), "len {len} row {row_len} parts {parts}");
                let calls = calls.into_inner();
                assert!((1..=parts.max(1)).contains(&calls), "len {len} parts {parts}: {calls}");
            }
        }
    }

    #[test]
    fn bands_are_equal_runs_of_whole_rows_and_the_last_takes_the_rest() {
        let mut out = vec![0u8; 10 * 4 + 1]; // ten whole rows and a short one
        let sizes = Mutex::new(Vec::new());
        for_each_split(3, &mut out, 4, |first_row, band| {
            sizes.lock().unwrap().push((first_row, band.len()));
        });
        let mut sizes = sizes.into_inner().unwrap();
        sizes.sort_unstable();
        assert_eq!(sizes, [(0, 16), (4, 16), (8, 9)]);
    }

    #[test]
    fn a_refused_thread_leaves_its_band_to_the_caller() {
        let caller = thread::current().id();
        // The OS refuses every thread, or every thread after the first.
        for granted in [0usize, 1] {
            let asked = AtomicUsize::new(0);
            let on_caller = AtomicUsize::new(0);
            let mut out = vec![(usize::MAX, usize::MAX); 35];
            split_with(
                5,
                &mut out,
                7,
                |first_row, band| {
                    if thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                    stamp(first_row, band, 7);
                },
                |scope, worker| {
                    if asked.fetch_add(1, Ordering::Relaxed) < granted {
                        thread::Builder::new().spawn_scoped(scope, worker).map(drop)
                    } else {
                        Err(io::Error::from(io::ErrorKind::WouldBlock))
                    }
                },
            );
            assert_eq!(out, stamped(35, 7), "granted {granted}");
            // It stops asking at the first refusal.
            assert_eq!(asked.load(Ordering::Relaxed), granted + 1);
            if granted == 0 {
                assert_eq!(on_caller.load(Ordering::Relaxed), 5, "the caller filled all five");
            }
        }
    }

    #[test]
    fn band_threads_are_named() {
        let caller = thread::current().id();
        let mut out = vec![0u8; 64];
        for_each_split(4, &mut out, 1, |_, _| {
            let me = thread::current();
            assert!(me.id() == caller || me.name() == Some("gcode-band"), "{:?}", me.name());
        });
    }

    fn split_count(rows: usize, ops_per_row: usize) -> usize {
        Job::new(rows, ops_per_row).bands
    }

    #[test]
    fn count_is_one_under_the_floor_and_bounded_by_rows_and_cores() {
        let cores = cores();
        assert_eq!(split_count(0, 1_000_000), 1);
        assert_eq!(split_count(1024, 0), 1);
        assert_eq!(split_count(1024, 2 * BAND_FLOOR / 1024 - 1), 1, "under two floors: one band");
        assert_eq!(split_count(1024, 2 * BAND_FLOOR / 1024), cores.min(2));
        assert_eq!(split_count(1, usize::MAX), 1, "one row cannot be split");
        assert_eq!(split_count(1 << 20, 1 << 20), cores);
        assert_eq!(split_count(usize::MAX, usize::MAX), cores, "the product saturates");
    }

    #[test]
    fn every_job_takes_the_avx2_build_exactly_on_an_avx2_host() {
        let host = avx2().is_some();
        assert_eq!(host_has_avx2(), host, "the cached answer is the host's");
        for (rows, ops_per_row) in [(0, 0), (24, 24 * 11), (1024, BAND_FLOOR), (usize::MAX, 1)] {
            assert_eq!(Job::new(rows, ops_per_row).avx2.is_some(), host, "{rows} x {ops_per_row}");
        }
    }
}
