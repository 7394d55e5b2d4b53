//! Append-only persistent memo cache: `candidate × fidelity tag ×
//! objective → Metrics` records that survive the process.
//!
//! The in-memory memo cache ([`crate::eval::SearchSession`]) dies with the
//! search, so a server workload re-measures identical candidates across
//! sessions and a re-run CLI search starts cold. The `CacheLog` is the
//! durable twin: every fresh evaluation appends one binary record, and
//! opening the log replays all of them into a hash map (last-write-wins)
//! so repeated searches start warm.
//!
//! # File format
//!
//! ```text
//! [b"GCLG"][u8 format version]
//! record*:  [u8 type][u32 body len][body…][u32 FNV-1a checksum]
//! ```
//!
//! The checksum covers the type byte, the length field and the body, so a
//! bit flip anywhere in a record is detected. Replay stops at the first
//! record that fails its checksum, declares an impossible length, or runs
//! past the end of the file — a truncated or corrupted tail (a crash
//! mid-append, a flipped bit) silently costs the damaged suffix, never
//! the valid prefix, and the file is clipped back to that prefix so new
//! appends stay readable.
//!
//! Record type 0 carries a [`Metrics`] entry keyed by three stable 64-bit
//! FNV-1a hashes: the architecture ([`arch_key`] over its signature
//! string), the backend fidelity tag ([`tag_key`] — everything that
//! affects the numbers: backend kind, seeds, frame counts, uplink), and
//! the objective ([`objective_key`] over the exact f64 bits). Record
//! type 1 carries an opaque blob under a caller-defined `(u64, u64)` key —
//! the engine's Measured tier uses it to persist each deployed plan's raw
//! run without this crate knowing the engine's types.
//!
//! # Example
//!
//! ```
//! use gcode_core::cachelog::{arch_key, objective_key, tag_key, CacheLog};
//! use gcode_core::eval::{Metrics, Objective};
//!
//! let dir = std::env::temp_dir().join("gcode-cachelog-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.gclg");
//! # let _ = std::fs::remove_file(&path);
//! let m = Metrics { accuracy: 0.9, latency_s: 0.01, energy_j: 0.2 };
//! let key = (7, tag_key("sim|seed4"), objective_key(&Objective::default()));
//!
//! let mut log = CacheLog::open(&path).unwrap();
//! log.put(key.0, key.1, key.2, m);
//! drop(log);
//!
//! // A fresh process sees the record.
//! let warm = CacheLog::open(&path).unwrap();
//! assert_eq!(warm.get(key.0, key.1, key.2), Some(m));
//! # std::fs::remove_file(&path).unwrap();
//! ```

use crate::arch::Architecture;
use crate::eval::{Metrics, Objective};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Magic bytes leading every cache-log file.
const MAGIC: &[u8; 4] = b"GCLG";

/// Format version byte after the magic. Bump on any layout change; an
/// unknown version is treated as an unreadable log (fresh cache), never
/// misparsed.
const FORMAT_VERSION: u8 = 1;

/// Record type for a keyed [`Metrics`] entry.
const RECORD_METRICS: u8 = 0;

/// Record type for an opaque keyed blob.
const RECORD_BLOB: u8 = 1;

/// Fixed body size of a metrics record: three u64 keys + three f64 fields.
const METRICS_BODY_LEN: usize = 48;

/// Largest record body accepted at replay — a corrupted length field must
/// not drive a multi-GiB allocation.
const MAX_RECORD_LEN: usize = 16 << 20;

/// FNV-1a over `bytes`: the stable, dependency-free hash behind every
/// cache key and record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Stable cache key of an architecture: FNV-1a over its
/// [`signature`](Architecture::signature) string, which names every op
/// and parameter in order.
pub fn arch_key(arch: &Architecture) -> u64 {
    fnv1a(arch.signature().as_bytes())
}

/// Stable cache key of a backend fidelity tag. The tag string must encode
/// everything that affects the metrics (backend kind, seeds, frame and
/// warmup counts, uplink caps, workload) — two configurations that would
/// measure differently must never share a tag.
pub fn tag_key(tag: &str) -> u64 {
    fnv1a(tag.as_bytes())
}

/// Stable cache key of an objective: FNV-1a over the exact bit patterns
/// of its three f64 fields, so any change to `λ` or a constraint starts a
/// fresh namespace.
pub fn objective_key(objective: &Objective) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&objective.lambda.to_bits().to_le_bytes());
    buf[8..16].copy_from_slice(&objective.latency_constraint_s.to_bits().to_le_bytes());
    buf[16..].copy_from_slice(&objective.energy_constraint_j.to_bits().to_le_bytes());
    fnv1a(&buf)
}

/// A cache log shared across search workers / server sessions.
pub type SharedCacheLog = Arc<Mutex<CacheLog>>;

/// Opens `path` as a [`SharedCacheLog`] ready to hand to concurrent users.
///
/// # Errors
///
/// Propagates I/O errors from [`CacheLog::open`].
pub fn open_shared(path: impl AsRef<Path>) -> std::io::Result<SharedCacheLog> {
    Ok(Arc::new(Mutex::new(CacheLog::open(path)?)))
}

/// The persistent memo cache: an append-only record log replayed into
/// hash maps on open. See the module docs for the format and the
/// corruption-containment contract.
pub struct CacheLog {
    file: std::fs::File,
    metrics: HashMap<(u64, u64, u64), Metrics>,
    blobs: HashMap<(u64, u64), Vec<u8>>,
    append_errors: u64,
    recovered_bytes: u64,
}

impl CacheLog {
    /// Opens (creating if absent) the log at `path`, replaying every valid
    /// record. A corrupt or truncated tail is clipped off — its byte count
    /// is reported by [`recovered_bytes`](Self::recovered_bytes) — so the
    /// valid prefix stays usable and future appends stay readable. A file
    /// whose header is unreadable (wrong magic or a future format version)
    /// is left untouched and treated as an empty cache in memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (not corruption, which is contained).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut log = Self {
            file,
            metrics: HashMap::new(),
            blobs: HashMap::new(),
            append_errors: 0,
            recovered_bytes: 0,
        };
        if raw.is_empty() {
            log.file.write_all(MAGIC)?;
            log.file.write_all(&[FORMAT_VERSION])?;
            log.file.flush()?;
            return Ok(log);
        }
        if raw.len() < MAGIC.len() + 1 || &raw[..4] != MAGIC || raw[4] != FORMAT_VERSION {
            // Not ours (or from a future format): serve an empty cache and
            // never append into a file we cannot parse.
            log.append_errors = u64::MAX;
            return Ok(log);
        }
        let valid_end = log.replay(&raw[5..]) + 5;
        if valid_end < raw.len() {
            // Clip the damaged tail so the next append lands at a record
            // boundary instead of extending garbage.
            log.recovered_bytes = (raw.len() - valid_end) as u64;
            log.file.set_len(valid_end as u64)?;
        }
        log.file.seek(SeekFrom::End(0))?;
        Ok(log)
    }

    /// Replays records from `buf`, returning how many bytes formed valid
    /// records (the offset of the first damaged byte, if any).
    fn replay(&mut self, buf: &[u8]) -> usize {
        let mut pos = 0usize;
        while buf.len() - pos >= 9 {
            let record_type = buf[pos];
            let body_len =
                u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
            if body_len > MAX_RECORD_LEN || buf.len() - pos < 9 + body_len {
                break;
            }
            let body = &buf[pos + 5..pos + 5 + body_len];
            let stored = u32::from_le_bytes(
                buf[pos + 5 + body_len..pos + 9 + body_len].try_into().expect("4 bytes"),
            );
            if record_checksum(record_type, body) != stored {
                break;
            }
            match record_type {
                RECORD_METRICS if body_len == METRICS_BODY_LEN => {
                    let k = |i: usize| {
                        u64::from_le_bytes(body[8 * i..8 * i + 8].try_into().expect("8 bytes"))
                    };
                    let m = Metrics {
                        accuracy: f64::from_bits(k(3)),
                        latency_s: f64::from_bits(k(4)),
                        energy_j: f64::from_bits(k(5)),
                    };
                    self.metrics.insert((k(0), k(1), k(2)), m);
                }
                RECORD_BLOB if body_len >= 16 => {
                    let k1 = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                    let k2 = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                    self.blobs.insert((k1, k2), body[16..].to_vec());
                }
                _ => break, // unknown type or malformed body: damaged tail
            }
            pos += 9 + body_len;
        }
        pos
    }

    /// Number of distinct metrics entries replayed or written.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the log holds no metrics entries.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Appends that failed (I/O errors are swallowed so a full disk can
    /// never kill a search — the cache just stops growing).
    pub fn append_errors(&self) -> u64 {
        self.append_errors
    }

    /// Bytes of damaged tail discarded when the log was opened.
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Looks up the metrics stored for `(arch, tag, objective)`.
    pub fn get(&self, arch: u64, tag: u64, objective: u64) -> Option<Metrics> {
        self.metrics.get(&(arch, tag, objective)).copied()
    }

    /// Stores metrics for `(arch, tag, objective)`, writing through to the
    /// file. Re-putting an identical value is a no-op (no file growth on
    /// warm runs); a changed value appends a superseding record
    /// (last-write-wins on replay).
    pub fn put(&mut self, arch: u64, tag: u64, objective: u64, m: Metrics) {
        if self.metrics.get(&(arch, tag, objective)) == Some(&m) {
            return;
        }
        self.metrics.insert((arch, tag, objective), m);
        let mut body = Vec::with_capacity(METRICS_BODY_LEN);
        for v in [
            arch,
            tag,
            objective,
            m.accuracy.to_bits(),
            m.latency_s.to_bits(),
            m.energy_j.to_bits(),
        ] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        self.append(RECORD_METRICS, &body);
    }

    /// Looks up the blob stored under `key`.
    pub fn get_blob(&self, key: (u64, u64)) -> Option<&[u8]> {
        self.blobs.get(&key).map(Vec::as_slice)
    }

    /// Stores an opaque blob under `key`, writing through to the file.
    /// Identical re-puts are no-ops, like [`put`](Self::put).
    pub fn put_blob(&mut self, key: (u64, u64), blob: &[u8]) {
        if self.blobs.get(&key).is_some_and(|b| b == blob) {
            return;
        }
        self.blobs.insert(key, blob.to_vec());
        let mut body = Vec::with_capacity(16 + blob.len());
        body.extend_from_slice(&key.0.to_le_bytes());
        body.extend_from_slice(&key.1.to_le_bytes());
        body.extend_from_slice(blob);
        self.append(RECORD_BLOB, &body);
    }

    /// Appends one framed record; I/O failures are counted, never raised —
    /// losing cache durability must not kill the search writing through.
    fn append(&mut self, record_type: u8, body: &[u8]) {
        if self.append_errors == u64::MAX {
            return; // unreadable header: never append into a foreign file
        }
        if body.len() > MAX_RECORD_LEN {
            self.append_errors += 1;
            return;
        }
        let mut framed = Vec::with_capacity(9 + body.len());
        framed.push(record_type);
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(body);
        framed.extend_from_slice(&record_checksum(record_type, body).to_le_bytes());
        if self.file.write_all(&framed).and_then(|()| self.file.flush()).is_err() {
            self.append_errors += 1;
        }
    }
}

/// Checksum of one record: FNV-1a over the type byte, the little-endian
/// length field and the body, truncated to 32 bits.
fn record_checksum(record_type: u8, body: &[u8]) -> u32 {
    let mut framed = Vec::with_capacity(5 + body.len());
    framed.push(record_type);
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(body);
    fnv1a(&framed) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, SampleFn};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gcode-cachelog-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn metrics(seed: f64) -> Metrics {
        Metrics { accuracy: 0.5 + seed, latency_s: 0.01 * seed, energy_j: 0.2 * seed }
    }

    #[test]
    fn round_trips_across_processes() {
        let path = tmp("roundtrip.gclg");
        let mut log = CacheLog::open(&path).expect("open");
        assert!(log.is_empty());
        log.put(1, 2, 3, metrics(0.1));
        log.put(4, 5, 6, metrics(0.2));
        log.put_blob((9, 9), b"plan measurements");
        drop(log);

        let warm = CacheLog::open(&path).expect("reopen");
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.get(1, 2, 3), Some(metrics(0.1)));
        assert_eq!(warm.get(4, 5, 6), Some(metrics(0.2)));
        assert_eq!(warm.get_blob((9, 9)), Some(&b"plan measurements"[..]));
        assert_eq!(warm.get(1, 2, 999), None, "objective is part of the key");
        assert_eq!(warm.recovered_bytes(), 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn last_write_wins_on_replay() {
        let path = tmp("lww.gclg");
        let mut log = CacheLog::open(&path).expect("open");
        log.put(1, 2, 3, metrics(0.1));
        log.put(1, 2, 3, metrics(0.9)); // supersedes
        log.put(1, 2, 3, metrics(0.9)); // identical: no file growth
        drop(log);
        let warm = CacheLog::open(&path).expect("reopen");
        assert_eq!(warm.get(1, 2, 3), Some(metrics(0.9)));
        assert_eq!(warm.len(), 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn truncated_tail_loads_valid_prefix() {
        let path = tmp("truncated.gclg");
        let mut log = CacheLog::open(&path).expect("open");
        log.put(1, 2, 3, metrics(0.1));
        log.put(4, 5, 6, metrics(0.2));
        drop(log);
        // Crash mid-append: chop bytes off the last record.
        let raw = std::fs::read(&path).expect("read");
        std::fs::write(&path, &raw[..raw.len() - 7]).expect("truncate");

        let warm = CacheLog::open(&path).expect("reopen");
        assert_eq!(warm.get(1, 2, 3), Some(metrics(0.1)), "valid prefix survives");
        assert_eq!(warm.get(4, 5, 6), None, "damaged record is dropped");
        assert!(warm.recovered_bytes() > 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn bit_flipped_tail_is_contained_and_appends_continue() {
        let path = tmp("bitflip.gclg");
        let mut log = CacheLog::open(&path).expect("open");
        log.put(1, 2, 3, metrics(0.1));
        log.put(4, 5, 6, metrics(0.2));
        drop(log);
        // Flip a bit inside the second record's body.
        let mut raw = std::fs::read(&path).expect("read");
        let n = raw.len();
        raw[n - 20] ^= 0x40;
        std::fs::write(&path, &raw).expect("corrupt");

        let mut warm = CacheLog::open(&path).expect("reopen");
        assert_eq!(warm.get(1, 2, 3), Some(metrics(0.1)));
        assert_eq!(warm.get(4, 5, 6), None, "checksum catches the flip");
        assert!(warm.recovered_bytes() > 0);
        // The clipped log accepts and persists fresh appends.
        warm.put(7, 8, 9, metrics(0.3));
        drop(warm);
        let again = CacheLog::open(&path).expect("reopen again");
        assert_eq!(again.get(7, 8, 9), Some(metrics(0.3)));
        assert_eq!(again.recovered_bytes(), 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn foreign_file_is_never_appended_into() {
        let path = tmp("foreign.gclg");
        std::fs::write(&path, b"definitely not a cache log").expect("write");
        let mut log = CacheLog::open(&path).expect("open");
        assert!(log.is_empty());
        log.put(1, 2, 3, metrics(0.1));
        assert_eq!(log.get(1, 2, 3), Some(metrics(0.1)), "in-memory cache still works");
        drop(log);
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"definitely not a cache log",
            "the foreign file is untouched"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn keys_are_stable_and_discriminating() {
        let a = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 20 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        let b = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 10 }),
            Op::Aggregate(AggMode::Max),
            Op::GlobalPool(PoolMode::Max),
        ]);
        assert_eq!(arch_key(&a), arch_key(&a), "same architecture, same key");
        assert_ne!(arch_key(&a), arch_key(&b));
        assert_ne!(tag_key("sim|seed4"), tag_key("sim|seed5"));
        let o1 = Objective::new(0.1, 0.5, 3.0);
        let o2 = Objective::new(0.2, 0.5, 3.0);
        assert_eq!(objective_key(&o1), objective_key(&o1));
        assert_ne!(objective_key(&o1), objective_key(&o2));
    }
}
