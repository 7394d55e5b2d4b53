//! Row bands: how a kernel whose output rows are independent uses more
//! than one core without changing one bit of its result.
//!
//! A kernel hands [`for_each_split`] its output buffer and a closure that
//! fills any contiguous run of rows. The buffer is cut into *bands* of whole
//! rows, every band is filled by that one closure — so each row is computed
//! by the code, and in the `f32` order, it would be with a single band — and
//! the bands are disjoint `&mut` slices, so which thread fills which is
//! invisible in the output. [`split_count`] picks the number of bands from
//! the host's cores and the size of the job; nothing else does, and no
//! caller can.

use std::io;
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Scope};

/// Scalar operations a band must hold before it is worth a thread of its
/// own. Measured on the build host (2-core Xeon @ 2.1 GHz, KVM): one
/// `Builder::spawn_scoped` + join is 16 µs back to back, 19–44 µs when the
/// thread allocates, ~60 µs at a noisy hour, and the kernels below retire
/// 4 M operations in 0.3–0.7 ms (`knn_graph` 1024×3: 11.5 M in 1.9 ms;
/// `matmul` 1024×64·64×128: 16.8 M in 0.6 ms), so a band at the floor pays
/// a twentieth of its time for its thread, a fifth at worst, to save all
/// of it. Every op of a 1024-point frame that matters is above twice
/// this; every op of a 24-point search candidate is 20× below it.
const BAND_FLOOR: usize = 4 << 20;

/// Number of bands for a job of `rows` independent rows costing
/// `ops_per_row` scalar operations each: one per core, never more than
/// there are rows, never so many that a band falls under the floor — and
/// one, which spawns nothing, for everything small.
pub fn split_count(rows: usize, ops_per_row: usize) -> usize {
    cores().min(rows).min(rows.saturating_mul(ops_per_row) / BAND_FLOOR).max(1)
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
}
