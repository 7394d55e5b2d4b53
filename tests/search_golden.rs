//! Bit-identity guard for the search-side hot path (sampler, memo cache,
//! analytic and sim tiers): the served session's search stage, run
//! standalone for four seeds of both tasks at the paper's T = 2 000,
//! digested over the exact bit patterns of everything it returns.
//!
//! A change to how candidates are drawn, looked up or priced that moves one
//! bit of one metric, one history entry or one counter changes the digest.
//! The constant below is only ever updated by a change that means to move
//! search results, and says so.

use gcode::core::cachelog::tag_key;
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{SessionSpec, SessionTask};
use gcode::server::run_standalone;
use std::fmt::Write;

/// FNV-1a of [`search_digest_text`] for seeds 1..=4 × {ModelNet40, Mr}.
const SEARCH_DIGEST: u64 = 0xc5f8_f7de_4541_2ea0;

fn spec(seed: u64, task: SessionTask) -> SessionSpec {
    SessionSpec {
        config: SearchConfig { iterations: 2000, zoo_size: 8, seed, ..SearchConfig::default() },
        objective: Objective::new(0.25, 1.0, 5.0),
        task,
        measure_zoo: false,
        scenario: None,
    }
}

/// One line per session: history, zoo (signature and metric bits) and the
/// report's counters, every float as its `{:016x}` bit pattern.
fn search_digest_text() -> String {
    let mut text = String::new();
    for seed in 1..=4 {
        for task in [SessionTask::ModelNet40, SessionTask::Mr] {
            let outcome = run_standalone(&spec(seed, task));
            let (result, report) = (&outcome.result, &outcome.report);
            write!(text, "{seed} {task:?} history").unwrap();
            for h in &result.history {
                write!(text, " {:016x}", h.to_bits()).unwrap();
            }
            for z in &result.zoo {
                write!(
                    text,
                    " | {} {:016x} {:016x} {:016x} {:016x}",
                    z.arch.signature(),
                    z.score.to_bits(),
                    z.accuracy.to_bits(),
                    z.latency_s.to_bits(),
                    z.energy_j.to_bits()
                )
                .unwrap();
            }
            writeln!(
                text,
                " | hits {} misses {} log_hits {} unique {} zoo {} best {:016x} misses {} trials {} draws {}",
                report.cache.hits,
                report.cache.misses,
                report.cache.log_hits,
                report.unique_architectures,
                report.zoo_len,
                report.best_score.map_or(0, f64::to_bits),
                report.constraint_misses,
                report.trials,
                result.validity_draws
            )
            .unwrap();
        }
    }
    text
}

#[test]
fn served_search_stage_is_bit_identical_to_the_recorded_digest() {
    let text = search_digest_text();
    assert_eq!(text.lines().count(), 8);
    let digest = tag_key(&text);
    assert_eq!(digest, SEARCH_DIGEST, "search results moved: digest {digest:#018x}");
}
