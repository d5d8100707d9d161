//! Shared CLI contracts and report plumbing for the experiment binaries.
//!
//! Every fig/table binary includes `src/util.rs` as its own module for
//! argument parsing; the pieces that must be *identical across binaries*
//! (the results-directory anchor and the run-summary renderer) live here
//! in the library so there is exactly one definition.

use std::path::{Path, PathBuf};

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
    fn results_dir_env_parsing_treats_empty_as_unset() {
        let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert_eq!(parse_results_dir(None), repo_results);
        assert_eq!(parse_results_dir(Some("")), repo_results);
        assert_eq!(parse_results_dir(Some("reports")), PathBuf::from("reports"));
    }
}
