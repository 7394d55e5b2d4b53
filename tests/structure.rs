//! Structural checks over the source tree, read as text with `std::fs`:
//! retired paths stay retired, every `pub` item is named outside its file
//! or kept for a stated reason, `unsafe` stays where the inventory says,
//! and every library root denies unsafe code.
//!
//! The tables below are the lists: retiring a path adds a row to
//! [`RETIRED`], and a new `unsafe` block or kept `pub` item adds a row to
//! [`UNSAFE`] or [`KEEP`].

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// This file spells out every needle, name and kept item below, so every
/// walk skips it — and nothing else.
const THIS_FILE: &str = "tests/structure.rs";

/// The directories the checks read, relative to the repository root.
const TREE: &[&str] = &["crates", "src", "tests", "examples", "shims", "perf/src"];

/// One file of the tree: its path from the root (`/`-separated) and text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// Whether this file lies under one of `dirs` (a directory or a file).
    fn under(&self, dirs: &[&str]) -> bool {
        dirs.iter().any(|d| {
            self.path == *d || self.path.strip_prefix(d).is_some_and(|rest| rest.starts_with('/'))
        })
    }

    fn is_rs(&self) -> bool {
        self.path.ends_with(".rs")
    }

    /// `(1-based line number, line)` pairs.
    fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text.lines().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// Every file under [`TREE`] except [`THIS_FILE`], sorted by path.
/// Symlinks are not followed, as with `grep -r`.
fn tree() -> Vec<Source> {
    fn visit(root: &Path, rel: &str, out: &mut Vec<Source>) {
        let full = root.join(rel);
        let meta = fs::symlink_metadata(&full).unwrap_or_else(|e| panic!("{rel}: {e}"));
        if meta.is_dir() {
            for entry in fs::read_dir(&full).unwrap_or_else(|e| panic!("{rel}: {e}")) {
                let name = entry.expect("directory entry").file_name();
                visit(root, &format!("{rel}/{}", name.to_string_lossy()), out);
            }
        } else if meta.is_file() && rel != THIS_FILE {
            let bytes = fs::read(&full).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push(Source {
                path: rel.to_string(),
                text: String::from_utf8_lossy(&bytes).into(),
            });
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in TREE {
        visit(root, dir, &mut out);
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// A word character, as `grep -w` and `\b` count them.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The maximal runs of word characters in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_word(c)).filter(|w| !w.is_empty())
}

/// Whether `word` occurs in `line` with no word character on either side.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].chars().next_back().is_some_and(is_word)
            && !line[at + word.len()..].chars().next().is_some_and(is_word)
    })
}

/// One retired path: the names that must not come back, where they are
/// looked for, and what the check says when one does.
struct Retired {
    /// Substrings, any of which marks a line.
    needles: &'static [&'static str],
    /// Names that mark a line as a whole word (`\b…\b`).
    words: &'static [&'static str],
    /// Match in any letter case (`grep -i`).
    any_case: bool,
    /// Directories, or one file, to read.
    dirs: &'static [&'static str],
    /// Read `.rs` files only; otherwise every file, so manifests and
    /// `examples/scenario_trace.json` too.
    rs_only: bool,
    /// Path prefixes where the names may stay.
    allowed: &'static [&'static str],
    /// The failure message.
    message: &'static str,
}

impl Retired {
    fn marks(&self, line: &str) -> bool {
        let folded;
        let line = if self.any_case {
            folded = line.to_ascii_lowercase();
            &folded
        } else {
            line
        };
        let fold = |n: &str| if self.any_case { n.to_ascii_lowercase() } else { n.to_string() };
        self.needles.iter().any(|n| line.contains(&fold(n)))
            || self.words.iter().any(|w| has_word(line, &fold(w)))
    }
}

const CODE: &[&str] = &["crates", "src", "tests", "examples"];

/// `ExecutionPlan::from_architecture` is the only lowering; the retired
/// optimizer's entry point survives as a shim in plan.rs (re-exported
/// from lib.rs) for the frozen perf/ package alone. One `SwapPlan` per
/// deploy is the only way a plan reaches an edge; the batched deploy's
/// names are gone, and `EdgePool::deploy_batch` survives in pool.rs as a
/// local queue for perf/ alone. `EdgeFleet` is the one scheduler of
/// measurement work: the server's executor thread and its chunk scheduler
/// are gone, and so is the `EngineDispatcher` wrapper. `EdgePool` is the
/// one public device/edge pair: the one-shot edge, the client's session
/// flag, the backend's stream-accuracy telemetry and
/// `ExecutionPlan::device_only` are gone, and `EdgeServer`/`DeviceClient`
/// are private to crates/engine/src. The Measured tier keeps one cache
/// record, a plan's raw run written by `measure_cached`: the backend's
/// priced-metrics tag and the daemon's own context and codec are gone.
/// What one frame does lives in crates/engine/src/frame.rs, which imports
/// no socket or thread: the two RNG stream salts are named there alone,
/// and the hand-written in-process copy of the pipeline is gone
/// (`ExecutionPlan::run_in_process` is the one oracle). A search is one
/// `SearchSpec` run by `run_search`: the daemon's hand-kept task fixtures
/// and the CLI's hand-written cache tag are gone outside tests/, and so
/// are the bench harness's own search runners (the tables build a spec
/// with `table_spec`).
const RETIRED: &[Retired] = &[
    Retired {
        needles: &["lower_and_optimize", "OptimizeOptions"],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: true,
        allowed: &["crates/engine/src/plan.rs", "crates/engine/src/lib.rs"],
        message: "the retired lowering is named outside plan.rs/lib.rs",
    },
    Retired {
        needles: &["SwapPlanBatch", "AckBatch", "PlanBatch", "MAX_BATCH_PLANS", "DEPLOY_CHUNK"],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: true,
        allowed: &[],
        message: "the retired batched deploy is named",
    },
    Retired {
        needles: &["deploy_batch"],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: true,
        allowed: &["crates/engine/src/pool.rs"],
        message: "deploy_batch is called outside pool.rs",
    },
    Retired {
        needles: &[
            "FleetExecutor",
            "FleetCommand",
            "MeasureJob",
            "PendingJob",
            "CHUNK_PLANS",
            "gcode-serve-fleet",
            "EngineDispatcher",
        ],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: false,
        allowed: &[],
        message: "a retired scheduler or dispatcher is named: EdgeFleet is the one scheduler",
    },
    Retired {
        needles: &["stream_accuracy", "ExecutionPlan::device_only"],
        words: &["spawn_persistent", "with_session"],
        any_case: false,
        dirs: CODE,
        rs_only: false,
        allowed: &[],
        message: "a retired pair constructor, session flag, test-only telemetry or second \
                  lowering is named",
    },
    Retired {
        needles: &[],
        words: &["DeviceClient", "EdgeServer"],
        any_case: false,
        dirs: CODE,
        rs_only: true,
        allowed: &["crates/engine/src/"],
        message: "the pair's halves are named outside gcode-engine: EdgePool is the one public \
                  pair",
    },
    Retired {
        needles: &[
            "fidelity_tag",
            "measurement_context_under",
            "encode_measurement",
            "decode_measurement",
        ],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: false,
        allowed: &[],
        message: "a second Measured-tier cache record is named: measure_cached keeps the one \
                  raw-run record",
    },
    Retired {
        needles: &["std::net", "std::thread", "TcpStream"],
        words: &[],
        any_case: false,
        dirs: &["crates/engine/src/frame.rs"],
        rs_only: false,
        allowed: &[],
        message: "the frame core names a socket or a thread: drivers move bytes, the core \
                  decides frames",
    },
    Retired {
        needles: &["0xDE71CE", "0xED6E"],
        words: &[],
        any_case: true,
        dirs: CODE,
        rs_only: false,
        allowed: &["crates/engine/src/frame.rs"],
        message: "an RNG stream salt is named outside the frame core",
    },
    Retired {
        needles: &["logits_in_process"],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: false,
        allowed: &[],
        message: "a hand-written in-process pipeline is named: ExecutionPlan::run_in_process is \
                  the one oracle",
    },
    Retired {
        needles: &["\"cli|"],
        words: &["profile_of", "stream_of", "surrogate_of"],
        any_case: false,
        dirs: &["crates", "src", "examples"],
        rs_only: true,
        allowed: &[],
        message: "a hand-kept search fixture or CLI cache tag is named: a SearchSpec is the one \
                  description of a search",
    },
    Retired {
        needles: &["run_gcode_search", "table_search_config"],
        words: &[],
        any_case: false,
        dirs: CODE,
        rs_only: false,
        allowed: &[],
        message: "a retired bench search runner is named: the tables run a SearchSpec through \
                  run_search",
    },
];

#[test]
fn retired_paths_stay_retired() {
    let tree = tree();
    let mut failures = Vec::new();
    for check in RETIRED {
        let hits: Vec<String> = tree
            .iter()
            .filter(|f| f.under(check.dirs) && (f.is_rs() || !check.rs_only))
            .filter(|f| !check.allowed.iter().any(|a| f.path.starts_with(a)))
            .flat_map(|f| {
                f.lines()
                    .filter(|(_, l)| check.marks(l))
                    .map(|(n, l)| format!("{}:{n}:{l}", f.path))
            })
            .collect();
        if !hits.is_empty() {
            failures.push(format!("{}\n{}", hits.join("\n"), check.message));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// A `pub` item nothing outside its own file names, kept on purpose.
struct Kept {
    file: &'static str,
    name: &'static str,
    reason: &'static str,
}

const IN_SIGNATURE: &str = "a type in another pub item's signature";
const LUT: &str = "gcode_core::lut waits on ROADMAP item 4, which gives it a caller or deletes it";
const TRAINER: &str =
    "gcode_nn::trainer waits on ROADMAP item 6, which gives it a caller or deletes it";

/// Every `pub` item that no file but its own names. An item loses `pub`
/// when nothing outside its file calls it (kept private if its own file
/// does, deleted otherwise); these stay public for their reason, and an
/// entry whose item is gone or is named elsewhere fails too.
const KEEP: &[Kept] = &[
    Kept { file: "crates/bench/src/lib.rs", name: "BaselineRows", reason: IN_SIGNATURE },
    Kept { file: "crates/core/src/arch.rs", name: "ValidityError", reason: IN_SIGNATURE },
    Kept {
        file: "crates/core/src/cachelog.rs",
        name: "append_errors",
        reason: "the log's durability-loss counter",
    },
    Kept { file: "crates/core/src/estimate.rs", name: "LatencyBreakdown", reason: IN_SIGNATURE },
    Kept { file: "crates/core/src/eval.rs", name: "CacheStats", reason: IN_SIGNATURE },
    Kept { file: "crates/core/src/lut.rs", name: "LutKey", reason: LUT },
    Kept { file: "crates/core/src/lut.rs", name: "OperationLut", reason: LUT },
    Kept { file: "crates/core/src/lut.rs", name: "latencies_ms", reason: LUT },
    Kept { file: "crates/core/src/pareto.rs", name: "ParetoPoint", reason: IN_SIGNATURE },
    Kept { file: "crates/core/src/space.rs", name: "ValidSampler", reason: IN_SIGNATURE },
    Kept {
        file: "crates/engine/src/fleet.rs",
        name: "with_connect_timeout",
        reason: "ROADMAP item 10",
    },
    Kept { file: "crates/engine/src/plan.rs", name: "NoRewrites", reason: IN_SIGNATURE },
    Kept {
        file: "crates/engine/src/proto.rs",
        name: "MAX_MESSAGE_LEN",
        reason: "a wire contract constant",
    },
    Kept { file: "crates/graph/src/datasets.rs", name: "DatasetStats", reason: IN_SIGNATURE },
    Kept { file: "crates/nn/src/linear.rs", name: "LinearGrads", reason: IN_SIGNATURE },
    Kept { file: "crates/nn/src/trainer.rs", name: "TrainConfig", reason: TRAINER },
    Kept { file: "crates/nn/src/trainer.rs", name: "TrainReport", reason: TRAINER },
    Kept {
        file: "crates/server/src/session.rs",
        name: "SERVE_NUM_CLASSES",
        reason: "a serve contract constant",
    },
];

/// The `NAME` of each `pub (fn|struct|enum|const|type|trait) NAME` in
/// `line`, wherever it stands on the line.
fn pub_items(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.match_indices("pub ").filter_map(move |(at, _)| {
        let rest = &line[at + 4..];
        let (kind, rest) = rest.split_once(' ')?;
        if !["fn", "struct", "enum", "const", "type", "trait"].contains(&kind) {
            return None;
        }
        let end =
            rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
        (end > 0).then(|| (kind, &rest[..end]))
    })
}

#[test]
fn every_pub_item_is_named_outside_its_file_or_kept() {
    let tree = tree();
    let mut named_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in tree
        .iter()
        .filter(|f| f.is_rs() && f.under(&["crates", "src", "tests", "examples", "perf/src"]))
    {
        for w in words(&f.text) {
            named_in.entry(w).or_default().insert(&f.path);
        }
    }
    let named_elsewhere = |file: &str, name: &str| {
        named_in.get(name).into_iter().flatten().find(|&&other| other != file).copied()
    };
    let mut failures = Vec::new();
    let mut declared = BTreeSet::new();
    for f in tree.iter().filter(|f| f.is_rs() && f.under(&["crates", "src"])) {
        for (n, line) in f.lines() {
            for (kind, name) in pub_items(line) {
                declared.insert((f.path.as_str(), name));
                let kept = KEEP.iter().any(|k| k.file == f.path && k.name == name);
                if !kept && named_elsewhere(&f.path, name).is_none() {
                    failures.push(format!(
                        "{}:{n} pub {kind} {name}: no other file names it (make it private, \
                         delete it, or keep it in KEEP with a reason)",
                        f.path
                    ));
                }
            }
        }
    }
    for k in KEEP {
        if !declared.contains(&(k.file, k.name)) {
            failures.push(format!(
                "KEEP: {} no longer declares pub {}; drop the entry",
                k.file, k.name
            ));
        } else if let Some(other) = named_elsewhere(k.file, k.name) {
            failures.push(format!(
                "KEEP: {} ({}) is now named in {other}; drop the entry ({})",
                k.name, k.file, k.reason
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Every line under `crates src shims` that holds the word `unsafe`, as
/// (file, enclosing `fn`), in path and line order. Each block sits under
/// a `// SAFETY:` comment.
const UNSAFE: &[(&str, &str)] = &[
    // The float codec: the AVX2 and AVX-512 arms of each build dispatch,
    // and the AVX-512 bodies' loads and stores, the only pointer-level
    // `unsafe`.
    ("crates/compress/src/lib.rs", "pack_as"),
    ("crates/compress/src/lib.rs", "pack_as"),
    ("crates/compress/src/lib.rs", "pack_avx512"),
    ("crates/compress/src/lib.rs", "pack_avx512"),
    ("crates/compress/src/lib.rs", "unpack_as"),
    ("crates/compress/src/lib.rs", "unpack_as"),
    ("crates/compress/src/lib.rs", "unpack_avx512"),
    ("crates/compress/src/lib.rs", "unpack_avx512"),
    // The kernels' AVX2 dispatch sites.
    ("crates/graph/src/knn.rs", "knn_graph_as"),
    ("crates/tensor/src/matrix.rs", "matmul_as"),
    // The AVX2 keystream's `__m256i`-to-`[u32; 8]` transmute and its dispatch.
    ("shims/rand_chacha/src/lib.rs", "blocks_avx2"),
    ("shims/rand_chacha/src/lib.rs", "blocks_as"),
];

/// The function a line named `fn NAME` declares, unless it is a comment.
fn declared_fn(line: &str) -> Option<&str> {
    if line.trim_start().starts_with("//") {
        return None;
    }
    let mut tokens = words(line);
    tokens.by_ref().find(|&w| w == "fn")?;
    tokens.next()
}

#[test]
fn unsafe_code_is_the_inventory() {
    let tree = tree();
    let mut found = Vec::new();
    let mut shown = Vec::new();
    for f in tree.iter().filter(|f| f.is_rs() && f.under(&["crates", "src", "shims"])) {
        let mut current = "(no fn)";
        for (n, line) in f.lines() {
            current = declared_fn(line).unwrap_or(current);
            if has_word(line, "unsafe") && !line.contains("unsafe_code") {
                found.push((f.path.as_str(), current));
                shown.push(format!("{}:{n} (fn {current}):{line}", f.path));
            }
        }
    }
    assert!(
        found == UNSAFE,
        "\n{}\nthe `unsafe` lines under crates src shims must be exactly the {} of UNSAFE \
         (file, enclosing fn); found {}",
        shown.join("\n"),
        UNSAFE.len(),
        found.len()
    );
}

#[test]
fn every_library_root_denies_unsafe_code() {
    let tree = tree();
    let roots: Vec<&Source> = tree
        .iter()
        .filter(|f| {
            let parts: Vec<&str> = f.path.split('/').collect();
            matches!(parts[..], ["crates" | "shims", _, "src", "lib.rs"])
        })
        .collect();
    let carries = |f: &Source, attr: &str| f.text.lines().any(|l| l.trim() == attr);
    let mut failures = Vec::new();
    for f in &roots {
        if !carries(f, "#![deny(unsafe_code)]") {
            failures.push(format!(
                "{} lacks #![deny(unsafe_code)]: every library crate root carries it",
                f.path
            ));
        }
    }
    for path in ["crates/compress/src/lib.rs", "shims/rand_chacha/src/lib.rs"] {
        let root = roots
            .iter()
            .find(|f| f.path == path)
            .unwrap_or_else(|| panic!("{path} is not a library root"));
        if !carries(root, "#![deny(clippy::undocumented_unsafe_blocks)]") {
            failures.push(format!(
                "{path} lacks #![deny(clippy::undocumented_unsafe_blocks)]: it holds `unsafe` \
                 blocks, each under a `// SAFETY:` comment"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
