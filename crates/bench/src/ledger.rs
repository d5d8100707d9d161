//! Bench-side glue for the run ledger (`results/ledger.jsonl`).
//!
//! [`levioso_support::ledger`] owns the record schema, the atomic
//! append, and the regression-sentinel math; this module knows where
//! the numbers live in *this* process — the throughput meter, the two
//! cell caches, the metrics registry, the attribution counters — and
//! assembles one [`Record`] from them at end of run. Appenders:
//!
//! * every fig/table binary, via `util::finish`;
//! * the `all` driver (regen, `--check`, and `--bless` modes);
//! * `scripts/perf.sh`, transitively (its measured runs are `all
//!   --check --no-cache` invocations).
//!
//! `levhist` renders and gates on the accumulated file.

use crate::{cellcache, cli, throughput, Tier};
use levioso_support::cache::stable_hash_hex;
use levioso_support::ledger::{self, AttribTotal, CacheTotals, Record};
use levioso_support::{metrics, Json};
use std::path::PathBuf;

/// Where the ledger lives: next to the other results artifacts (so
/// `LEVIOSO_RESULTS_DIR` relocates it for tests too).
pub fn ledger_path() -> PathBuf {
    cli::results_dir().join("ledger.jsonl")
}

/// Assembles this process's end-of-run ledger record. The cache split
/// combines both cell caches, exactly like the `run-summary:` stderr
/// line; every hit is a disk hit, so `l1_hits` is 0 and `latency` empty
/// (both fields stay in the format for records the removed warm server
/// wrote). Throughput comes from the global meter, which only ever saw
/// freshly simulated cells, so a cache-warm run yields `cells == 0` and
/// contributes no throughput sample downstream.
pub fn record_now(source: &str, tier: Tier, threads: usize, wall_seconds: f64) -> Record {
    let t = throughput::snapshot();
    let bench = cellcache::report();
    let nisec = levioso_nisec::cellcache::report();
    let snapshot = metrics::snapshot();
    // Digest the exact bytes of `METRICS_run.json` (pretty + trailing
    // newline), so the record is verifiably tied to the snapshot the
    // run left behind.
    let mut snapshot_text = snapshot.emit_pretty();
    snapshot_text.push('\n');
    Record {
        source: source.to_string(),
        fingerprint: levioso_uarch::core_fingerprint(),
        tier: tier.name().to_string(),
        threads: threads as u64,
        wall_seconds,
        cells: t.cells,
        sim_cycles: t.sim_cycles,
        retired_instrs: t.retired,
        busy_seconds: t.busy_seconds(),
        kilocycles_per_busy_sec: t.kilocycles_per_busy_sec(),
        cells_per_busy_sec: t.cells_per_busy_sec(),
        cache: CacheTotals {
            l1_hits: 0,
            l2_hits: bench.hits + nisec.hits,
            misses: bench.misses + nisec.misses,
            poisoned: bench.poisoned + nisec.poisoned,
        },
        latency: Vec::new(),
        attrib: attrib_totals(&snapshot),
        metrics_digest: stable_hash_hex(snapshot_text.as_bytes()),
    }
}

/// Builds and appends this run's record; a failed append warns and
/// moves on (the ledger is telemetry — it must never fail a run that
/// otherwise succeeded).
pub fn append_run(source: &str, tier: Tier, threads: usize, wall_seconds: f64) {
    let record = record_now(source, tier, threads, wall_seconds);
    let path = ledger_path();
    if let Err(e) = ledger::append(&path, &record) {
        eprintln!("warning: could not append run record to {}: {e}", path.display());
    }
}

/// Harvests per-rule blamed-cycle totals from the metrics snapshot's
/// `attrib_blamed_cycles_total{rule=...,scheme=...}` counters (bumped by
/// `attribution_report`; absent when the run did no attribution or
/// metrics are off). Sorted by (scheme, rule).
fn attrib_totals(snapshot: &Json) -> Vec<AttribTotal> {
    let mut out = Vec::new();
    if let Some(Json::Obj(counters)) = snapshot.get("counters") {
        for (id, value) in counters {
            let Some(labels) = id
                .strip_prefix("attrib_blamed_cycles_total{")
                .and_then(|rest| rest.strip_suffix('}'))
            else {
                continue;
            };
            let mut scheme = None;
            let mut rule = None;
            for pair in labels.split(',') {
                match pair.split_once('=') {
                    Some(("scheme", v)) => scheme = Some(v),
                    Some(("rule", v)) => rule = Some(v),
                    _ => {}
                }
            }
            let cycles = value.as_str().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            if let (Some(scheme), Some(rule)) = (scheme, rule) {
                out.push(AttribTotal {
                    scheme: scheme.to_string(),
                    rule: rule.to_string(),
                    cycles,
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.scheme, &a.rule).cmp(&(&b.scheme, &b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_now_reads_the_meters_and_digests_the_snapshot() {
        let rec = record_now("test", Tier::Smoke, 3, 1.5);
        assert_eq!(rec.source, "test");
        assert_eq!(rec.tier, "smoke");
        assert_eq!(rec.threads, 3);
        assert_eq!(rec.fingerprint, levioso_uarch::core_fingerprint());
        assert_eq!(rec.metrics_digest.len(), 32, "stable_hash_hex is 32 hex chars");
        assert_eq!(rec.cache.l1_hits, 0, "every hit is a disk hit");
        assert!(rec.latency.is_empty(), "only the removed warm server wrote latencies");
        // The record round-trips through its ledger line.
        let line = rec.to_json().emit();
        let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn attrib_totals_parse_the_counter_identities() {
        let snapshot = Json::obj([(
            "counters",
            Json::obj([
                (
                    "attrib_blamed_cycles_total{rule=levioso:true-dep,scheme=levioso}",
                    Json::str("42"),
                ),
                ("attrib_blamed_cycles_total{rule=fence:unresolved,scheme=fence}", Json::str("7")),
                ("sweep_cells_total", Json::str("99")),
            ]),
        )]);
        let totals = attrib_totals(&snapshot);
        assert_eq!(totals.len(), 2);
        assert_eq!(
            totals[0],
            AttribTotal { scheme: "fence".into(), rule: "fence:unresolved".into(), cycles: 7 }
        );
        assert_eq!(totals[1].scheme, "levioso");
        assert_eq!(totals[1].cycles, 42);
    }
}
