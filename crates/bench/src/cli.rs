//! Shared CLI contracts and report plumbing for the experiment binaries.
//!
//! Every fig/table binary includes `src/util.rs` as its own module for
//! argument parsing; the pieces that must be *identical across binaries*
//! (the `LEVIOSO_SCALE` parser, the results-directory anchor and the
//! run-summary renderer) live here in the library so there is exactly one
//! definition.

use crate::Tier;
use std::path::{Path, PathBuf};

/// Parses a `LEVIOSO_SCALE` value: unset or empty means paper, and
/// `smoke`/`paper` are accepted in any ASCII case. Anything else panics —
/// a typo that silently ran the paper grid would change what a check
/// measures (same contract as `LEVIOSO_SWEEP_CACHE` and `LEVIOSO_THREADS`).
fn parse_scale(value: Option<&str>) -> Tier {
    match value {
        None | Some("") => Tier::Paper,
        Some(v) if v.eq_ignore_ascii_case("smoke") => Tier::Smoke,
        Some(v) if v.eq_ignore_ascii_case("paper") => Tier::Paper,
        Some(other) => panic!(
            "unknown LEVIOSO_SCALE value {other:?}: expected unset, empty, \"smoke\" or \"paper\""
        ),
    }
}

/// Tier selected by the `LEVIOSO_SCALE` environment variable (default
/// `paper`), overridable by `--smoke`/`--paper`.
///
/// # Panics
///
/// Panics on any value but unset, empty, `smoke` or `paper` (any case).
pub fn tier_from_env() -> Tier {
    parse_scale(std::env::var("LEVIOSO_SCALE").ok().as_deref())
}

/// The `results/` directory every binary writes into: the repo root's by
/// default (anchored at the crate manifest, so output lands in the repo
/// regardless of working directory), relocatable via `LEVIOSO_RESULTS_DIR`
/// (integration tests point it at a temp dir so spawned binaries never
/// touch the committed snapshots).
pub fn results_dir() -> PathBuf {
    parse_results_dir(std::env::var("LEVIOSO_RESULTS_DIR").ok().as_deref())
}

/// Parses a `LEVIOSO_RESULTS_DIR` value: unset or empty means the repo
/// root's `results/`, like every other `LEVIOSO_*` variable (an empty
/// path would write the reports into the working directory); anything
/// else is the directory.
fn parse_results_dir(value: Option<&str>) -> PathBuf {
    match value {
        None | Some("") => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
        Some(dir) => PathBuf::from(dir),
    }
}

/// Renders the one end-of-run summary line every fig/table binary prints
/// to stderr (asserted verbatim by `tests/cli.rs`): `cells` is the
/// [`crate::throughput`] meter's count of freshly simulated cells, the
/// cache split combines the bench and nisec cell caches, and only
/// `wall_seconds` comes from the caller.
pub fn run_summary(wall_seconds: f64) -> String {
    let cells = crate::throughput::snapshot().cells;
    let bench = crate::cellcache::report();
    let nisec = levioso_nisec::cellcache::report();
    format!(
        "run-summary: cells={cells} hits={} misses={} poisoned={} wall_seconds={wall_seconds:.3}",
        bench.hits + nisec.hits,
        bench.misses + nisec.misses,
        bench.poisoned + nisec.poisoned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_is_strict() {
        assert_eq!(parse_scale(None), Tier::Paper);
        assert_eq!(parse_scale(Some("")), Tier::Paper);
        for smoke in ["smoke", "SMOKE", "Smoke", Tier::Smoke.name()] {
            assert_eq!(parse_scale(Some(smoke)), Tier::Smoke, "{smoke:?}");
        }
        for paper in ["paper", "PAPER", "Paper", Tier::Paper.name()] {
            assert_eq!(parse_scale(Some(paper)), Tier::Paper, "{paper:?}");
        }
        for bad in ["smok", "smoke ", "1", "full"] {
            assert!(std::panic::catch_unwind(|| parse_scale(Some(bad))).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn results_dir_env_parsing_treats_empty_as_unset() {
        let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert_eq!(parse_results_dir(None), repo_results);
        assert_eq!(parse_results_dir(Some("")), repo_results);
        assert_eq!(parse_results_dir(Some("reports")), PathBuf::from("reports"));
    }
}
