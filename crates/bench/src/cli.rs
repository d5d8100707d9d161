//! Shared CLI contracts and report plumbing for the experiment binaries.
//!
//! Every fig/table binary includes `src/util.rs` as its own module for
//! argument parsing; the pieces that must be *identical across binaries*
//! (error messages asserted by tests, the `LEVIOSO_SCALE` parser, the
//! results-directory anchor, the throughput-snapshot and run-summary
//! renderers) live here in the library so there is exactly one
//! definition.

use crate::{Throughput, Tier};
use std::path::{Path, PathBuf};

/// The one mutual-exclusion message every binary prints for
/// `--no-cache --resume` (asserted verbatim by `tests/cli.rs`).
pub const RESUME_NO_CACHE_CONFLICT: &str =
    "--resume needs the cell cache; it cannot be combined with --no-cache";

/// The message every binary prints when `--resume` is given but the
/// environment disabled the cache.
pub const RESUME_CACHE_DISABLED: &str =
    "--resume needs the cell cache, but LEVIOSO_SWEEP_CACHE=off disabled it";

/// Parses a `LEVIOSO_SCALE` value: unset or empty means paper, and
/// `smoke`/`paper` are accepted in any ASCII case. Anything else panics —
/// a typo that silently ran the paper grid would change what a check
/// measures (same contract as `LEVIOSO_SWEEP_CACHE` and `LEVIOSO_METRICS`).
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
    std::env::var("LEVIOSO_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Extracts the raw text of a `"key": { ... }` object field from a JSON
/// document by balanced-brace scan. Sufficient for the flat numeric
/// objects `BENCH_sim_throughput.json` stores (no `{`/`}` inside strings).
pub fn json_object_field(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start().strip_prefix(':')?.trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a `"key": "value"` string field (no escape handling — the
/// throughput snapshot only stores identifier-like strings).
pub fn json_str_field(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a `"key": true|false` field.
pub fn json_bool_field(doc: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts a `"key": <number>` field.
pub fn json_num_field(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].parse().ok()
}

/// Renders `results/BENCH_sim_throughput.json`: the current run's
/// simulator-throughput snapshot (including the sweep-cache split — the
/// meter only samples freshly computed cells, so `perfcheck` needs the
/// hit/miss counts to judge the sample) plus the preserved `baseline`
/// object (the pre-change reference recorded by `scripts/perf.sh`; `null`
/// until one is recorded).
pub fn throughput_json(
    t: &Throughput,
    tier: Tier,
    threads: usize,
    wall_seconds: f64,
    cache: &levioso_support::CacheReport,
    cache_enabled: bool,
    baseline: Option<&str>,
) -> String {
    let current = format!(
        "{{\n    \"tier\": \"{}\",\n    \"threads\": {},\n    \"cells\": {},\n    \
         \"sim_cycles\": {},\n    \"retired_instrs\": {},\n    \"busy_seconds\": {:.3},\n    \
         \"wall_seconds\": {:.3},\n    \"cells_per_busy_sec\": {:.3},\n    \
         \"kilocycles_per_busy_sec\": {:.3},\n    \"retired_per_busy_sec\": {:.3},\n    \
         \"cache\": {{ \"enabled\": {}, \"hits\": {}, \"misses\": {}, \"poisoned\": {} }}\n  }}",
        tier.name(),
        threads,
        t.cells,
        t.sim_cycles,
        t.retired,
        t.busy_seconds(),
        wall_seconds,
        t.cells_per_busy_sec(),
        t.kilocycles_per_busy_sec(),
        t.retired_per_busy_sec(),
        cache_enabled,
        cache.hits,
        cache.misses,
        cache.poisoned,
    );
    format!(
        "{{\n  \"schema\": \"levioso-sim-throughput/2\",\n  \"current\": {},\n  \"baseline\": {}\n}}\n",
        current,
        baseline.unwrap_or("null"),
    )
}

/// Renders the one end-of-run summary line every fig/table binary prints
/// to stderr (asserted verbatim by `tests/cli.rs`). Fed from the
/// telemetry registry: `cells` is the `sweep_cells_total` counter, the
/// cache split combines the bench and nisec cell caches (whose reports
/// read the registered `sweep_cache_*` counters), and only `wall_seconds`
/// comes from the caller.
pub fn run_summary(wall_seconds: f64) -> String {
    let cells = levioso_support::metrics::counter_value("sweep_cells_total", &[]);
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
    fn throughput_json_carries_the_cache_split() {
        let t = Throughput { cells: 3, sim_cycles: 9_000, retired: 4_500, busy_nanos: 1_000_000 };
        let cache = levioso_support::CacheReport {
            hits: 10,
            misses: 3,
            poisoned: 0,
            stores: 3,
            miss_labels: vec![],
        };
        let doc = throughput_json(&t, Tier::Smoke, 8, 1.5, &cache, true, None);
        assert_eq!(json_str_field(&doc, "schema").as_deref(), Some("levioso-sim-throughput/2"));
        let current = json_object_field(&doc, "current").unwrap();
        let inner = json_object_field(&current, "cache").unwrap();
        assert_eq!(json_num_field(&inner, "hits"), Some(10.0));
        assert_eq!(json_num_field(&inner, "l1_hits"), None);
        assert_eq!(json_num_field(&inner, "misses"), Some(3.0));
        assert_eq!(json_bool_field(&inner, "enabled"), Some(true));
        // The document must stay real JSON, not just grep-compatible.
        levioso_support::Json::parse(&doc).expect("throughput snapshot parses");
    }
}
