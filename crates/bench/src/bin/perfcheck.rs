//! CI validator for the simulator-throughput snapshot.
//!
//! Reads `results/BENCH_sim_throughput.json` (written by every `all` run),
//! validates it, and prints a human summary plus one machine-readable
//! `PERF ...` line. Exits 1 if the file is missing or malformed — the CI
//! pipeline runs this right after the smoke golden gate, so a change that
//! silently stops producing throughput numbers fails the build.
//!
//! Also validates `results/METRICS_run.json` when present (the
//! `levioso-metrics/2` registry snapshot every `all` run mirrors): it
//! must be schema-tagged and every counter and gauge well-formed. And
//! `results/ledger.jsonl`, whose every record must load.
//!
//! ```text
//! perfcheck            # validate + summarize results/BENCH_*.json
//! ```
#[path = "../util.rs"]
mod util;

use levioso_support::Json;
use std::process::exit;

fn main() {
    let path = util::results_dir().join("BENCH_sim_throughput.json");
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfcheck: cannot read {}: {e}", path.display());
            eprintln!(
                "perfcheck: run the `all` driver first (it writes the snapshot in every mode)"
            );
            exit(1);
        }
    };
    if util::json_str_field(&doc, "schema").as_deref() != Some("levioso-sim-throughput/2") {
        eprintln!("perfcheck: {}: missing or unknown schema field", path.display());
        exit(1);
    }
    let Some(current) = util::json_object_field(&doc, "current") else {
        eprintln!("perfcheck: {}: no `current` object", path.display());
        exit(1);
    };
    let field = |key: &str| -> f64 {
        match util::json_num_field(&current, key) {
            Some(v) if v.is_finite() => v,
            _ => {
                eprintln!(
                    "perfcheck: {}: `current.{key}` missing or not a finite number",
                    path.display()
                );
                exit(1);
            }
        }
    };
    let tier = util::json_str_field(&current, "tier").unwrap_or_else(|| {
        eprintln!("perfcheck: {}: `current.tier` missing", path.display());
        exit(1);
    });
    let threads = field("threads");
    let cells = field("cells");
    let busy = field("busy_seconds");
    let wall = field("wall_seconds");
    let kc = field("kilocycles_per_busy_sec");
    let cps = field("cells_per_busy_sec");
    let Some(cache) = util::json_object_field(&current, "cache") else {
        eprintln!("perfcheck: {}: `current.cache` object missing", path.display());
        exit(1);
    };
    let cache_field = |key: &str| -> f64 {
        match util::json_num_field(&cache, key) {
            Some(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                eprintln!(
                    "perfcheck: {}: `current.cache.{key}` missing or invalid",
                    path.display()
                );
                exit(1);
            }
        }
    };
    let cache_enabled = util::json_bool_field(&cache, "enabled").unwrap_or_else(|| {
        eprintln!("perfcheck: {}: `current.cache.enabled` missing", path.display());
        exit(1);
    });
    let hits = cache_field("hits");
    let misses = cache_field("misses");
    // The throughput meter must only sample freshly computed cells: every
    // recorded cell corresponds to exactly one cache miss (hits return
    // stored stats and skip the meter). A snapshot where cells != misses
    // means cached results polluted the busy-time samples — fail loudly.
    if cache_enabled && cells != misses {
        eprintln!(
            "perfcheck: {}: {cells:.0} throughput cells but {misses:.0} cache misses — \
             busy-time samples must come only from freshly computed cells",
            path.display()
        );
        exit(1);
    }
    // A fully warm cache legitimately records zero fresh cells; no work at
    // all (no cells AND no hits) still fails.
    if cells < 1.0 && hits < 1.0 {
        eprintln!("perfcheck: {}: snapshot records no simulation work", path.display());
        exit(1);
    }
    if cells >= 1.0 && busy <= 0.0 {
        eprintln!("perfcheck: {}: cells recorded but zero busy time", path.display());
        exit(1);
    }

    println!(
        "sim throughput ({tier} tier, {threads:.0} thread(s)): {cells:.0} cells in {busy:.1}s busy / {wall:.1}s wall"
    );
    println!(
        "  sweep-cache: enabled={cache_enabled} hits={hits:.0} misses={misses:.0} \
         (all throughput samples from fresh cells)"
    );
    println!("  {kc:.0} simulated kilocycles per busy-second, {cps:.2} cells per busy-second");
    if let Some(baseline) = util::json_object_field(&doc, "baseline") {
        if let (Some(bkc), Some(bcps)) = (
            util::json_num_field(&baseline, "kilocycles_per_busy_sec"),
            util::json_num_field(&baseline, "cells_per_busy_sec"),
        ) {
            if bkc > 0.0 && bcps > 0.0 {
                println!(
                    "  vs recorded baseline: {:.2}x kilocycles/busy-sec, {:.2}x cells/busy-sec",
                    kc / bkc,
                    cps / bcps
                );
            }
        }
    }
    println!(
        "PERF tier={tier} threads={threads:.0} cells={cells:.0} busy_seconds={busy:.3} \
         wall_seconds={wall:.3} kilocycles_per_busy_sec={kc:.3} cells_per_busy_sec={cps:.3}"
    );
    check_metrics_run();
    check_ledger();
}

/// Validates `results/ledger.jsonl` if runs have appended to it. Absence
/// is fine (fresh clone); a present file must parse record-for-record —
/// the loader is strict and names the corrupt line. Judging the trends
/// is delegated to `levhist --check`; perfcheck only guarantees the
/// sentinel's input is well-formed.
fn check_ledger() {
    let path = levioso_bench::ledger::ledger_path();
    if !path.exists() {
        return;
    }
    let records = match levioso_support::ledger::load(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("perfcheck: {e}");
            exit(1);
        }
    };
    let series = levioso_support::ledger::series_of(&records);
    let checkable =
        series.iter().filter(|s| s.points.len() >= levioso_support::ledger::MIN_SAMPLES).count();
    println!("LEDGER records={} series={} checkable={checkable}", records.len(), series.len());
}

/// Validates `results/METRICS_run.json` if a run mirrored one. Absence is
/// fine (pre-telemetry snapshots); a present file must carry the schema
/// tag, u64-parsable counters, and integer gauges.
fn check_metrics_run() {
    let path = util::results_dir().join("METRICS_run.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let fail = |reason: &str| -> ! {
        eprintln!("perfcheck: {}: {reason}", path.display());
        exit(1);
    };
    let Ok(doc) = Json::parse(&text) else { fail("not valid JSON") };
    if doc.get("schema").and_then(Json::as_str) != Some(levioso_support::metrics::SCHEMA) {
        fail(&format!(
            "missing or unknown schema field (expected {})",
            levioso_support::metrics::SCHEMA
        ));
    }
    let obj = |key: &str| -> &Vec<(String, Json)> {
        match doc.get(key) {
            Some(Json::Obj(entries)) => entries,
            _ => fail(&format!("missing or non-object field `{key}`")),
        }
    };
    let counters = obj("counters");
    for (name, value) in counters {
        if value.as_str().is_none_or(|s| s.parse::<u64>().is_err()) {
            fail(&format!("counter `{name}` is not a u64-in-string"));
        }
    }
    let gauges = obj("gauges");
    for (name, value) in gauges {
        if value.as_i64().is_none() {
            fail(&format!("gauge `{name}` is not an integer"));
        }
    }
    println!(
        "METRICS counters={} gauges={} enabled={}",
        counters.len(),
        gauges.len(),
        doc.get("enabled").and_then(Json::as_bool).map_or("null".to_string(), |b| b.to_string()),
    );
}
