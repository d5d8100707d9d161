//! One perf sweep cell, whole: its key, its body and its stored format.
//!
//! `levioso_support::cache::Cache` is a plain content-addressed store; this
//! module binds it to the bench domain:
//!
//! * one **process-global handle**, namespaced under
//!   [`levioso_uarch::core_fingerprint`] and rooted by the environment
//!   by default (`LEVIOSO_SWEEP_CACHE_DIR` relocates it; default
//!   `target/sweep-cache/<fingerprint>/`; an emptied directory makes a
//!   cold run that still simulates each distinct cell once). The
//!   fingerprint digests this file along with the simulator and the
//!   workloads, so an edit to what a cell stores names a new namespace
//!   by itself;
//! * the **cell key**: a serialized description of everything a
//!   `(workload, scheme, config)` simulation's result depends on — the
//!   program *text* (not the name: a regenerated workload with different
//!   code is a different cell), the initial memory image, the checksum
//!   address, the scheme, the full `CoreConfig`, and an extra tag for
//!   variant cells (F7's annotation caps). The workload scale/tier folds
//!   in through the program and memory content. The sweep's master seed is
//!   deliberately **not** part of the key: perf cells consume no
//!   randomness (nisec cells, which do, embed their generated inputs —
//!   see `levioso_nisec::harness`);
//! * the cell body, `run_cell`: a lookup, or a simulation checked
//!   against the reference interpreter and stored;
//! * an exact [`SimStats`] ↔ JSON round-trip.
//!
//! A cache hit returns bit-identical stats to a fresh simulation (the
//! simulator is deterministic and the envelope is integrity-checked), so
//! cold, warm, and mixed cache runs produce byte-identical reports —
//! pinned by `tests/cache.rs`. Hits skip `throughput::record`, keeping the
//! perf meter's busy-time samples exclusively from freshly computed cells
//! (so on a cold run `all`'s throughput line reports `cells` equal to the
//! perf `sweep-cache:` line's misses, asserted by `tests/cli.rs`).

use crate::throughput;
use levioso_core::Scheme;
use levioso_support::cache::{Cache, CacheReport};
use levioso_support::Json;
use levioso_uarch::{core_fingerprint, CacheStats, CoreConfig, SimStats};
use levioso_workloads::Workload;
use std::sync::{OnceLock, RwLock};

fn handle() -> &'static RwLock<Cache> {
    static CACHE: OnceLock<RwLock<Cache>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(Cache::from_env(core_fingerprint())))
}

/// Replaces the process-global cache (tests point it at a temp dir or
/// install [`Cache::disabled`], as the benchmark's `nisec-fuzz` does).
pub fn configure(cache: Cache) {
    *handle().write().expect("cell cache lock") = cache;
}

/// Runs `f` against the process-global cache.
pub fn with<R>(f: impl FnOnce(&Cache) -> R) -> R {
    f(&handle().read().expect("cell cache lock"))
}

/// Counter snapshot of the global cache.
pub fn report() -> CacheReport {
    with(|c| c.report())
}

/// Zeroes the global cache's counters.
pub fn reset_counters() {
    with(|c| c.reset_counters());
}

/// The one body behind [`crate::run_workload`] and
/// [`crate::run_workload_capped`]: look the cell up, or simulate, check,
/// record and store it. `cap` collapses every Levioso dependency set
/// larger than it (F7's cells, cached under the `cap=` tag). The busy time
/// is measured here, inside the worker, so busy-time rates are comparable
/// across thread counts. With the cache off the cell is neither keyed nor
/// labelled; the lookup is still made, so the cache report counts the miss.
pub(crate) fn run_cell(
    w: &Workload,
    scheme: Scheme,
    cap: Option<usize>,
    config: &CoreConfig,
) -> SimStats {
    // One handle for the whole cell; clones share the counters.
    let cache = with(Cache::clone);
    let (key, label) = if cache.enabled() {
        let tag = cap.map(cap_tag).unwrap_or_default();
        (workload_key(w, scheme.name(), config, &tag), workload_label(w, scheme.name(), &tag))
    } else {
        (String::new(), String::new())
    };
    if let Some(stats) = cache.lookup(&label, &key).and_then(|doc| stats_from_json(&doc)) {
        return stats;
    }
    let what = || match cap {
        None => format!("{} under {scheme}", w.name),
        Some(cap) => format!("{} cap {cap}", w.name),
    };
    let cell_start = std::time::Instant::now();
    let mut program = w.program.clone();
    scheme.prepare(&mut program);
    if let Some(cap) = cap {
        let full = program.annotations.take().expect("annotated");
        program.annotations = Some(full.capped(cap));
    }
    let mut sim = levioso_uarch::Simulator::new(&program, config.clone());
    w.apply_memory(&mut sim);
    let stats = sim.run(scheme.policy().as_ref()).unwrap_or_else(|e| panic!("{}: {e}", what()));
    assert_eq!(
        sim.mem.read_i64(w.checksum_addr),
        w.expected_checksum(),
        "{}: checksum mismatch",
        what()
    );
    let busy = cell_start.elapsed();
    throughput::record(stats.cycles, stats.committed, busy);
    if cache.enabled() {
        cache.store(&label, &key, &stats_to_json(&stats), busy.as_nanos() as u64);
    }
    stats
}

/// The `extra` cache-key tag of an F7 capped cell.
fn cap_tag(cap: usize) -> String {
    if cap == usize::MAX {
        "cap=uncapped".to_string()
    } else {
        format!("cap={cap}")
    }
}

/// The cache key of one perf sweep cell. `extra` tags variant cells that
/// share workload/scheme/config but differ in preparation (e.g. `cap=2`
/// for F7's annotation-budget cells); empty for plain cells. The program
/// and memory digests are memoized on `w`, so keying is cheap after a
/// workload's first cell.
pub fn workload_key(w: &Workload, scheme_name: &str, config: &CoreConfig, extra: &str) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(256);
    let _ = writeln!(key, "levioso-sweep-cell-key");
    let _ = writeln!(key, "kind: perf");
    let _ = writeln!(key, "workload: {}", w.name);
    let _ = writeln!(key, "program: {}", w.program_digest());
    let _ = writeln!(key, "memory: {}", w.memory_digest());
    let _ = writeln!(key, "checksum_addr: {:#x}", w.checksum_addr);
    let _ = writeln!(key, "scheme: {scheme_name}");
    let _ = writeln!(key, "config: {config:?}");
    let _ = writeln!(key, "extra: {extra}");
    key
}

/// The human label recorded for a cell on a miss (the "which cells did
/// this change invalidate" report).
pub fn workload_label(w: &Workload, scheme_name: &str, extra: &str) -> String {
    if extra.is_empty() {
        format!("{}/{}", w.name, scheme_name)
    } else {
        format!("{}/{}[{}]", w.name, scheme_name, extra)
    }
}

/// Serializes stats exactly (all fields are `u64`, which [`Json::I64`]
/// round-trips bit-for-bit; no simulated counter can realistically exceed
/// `i64::MAX`).
pub fn stats_to_json(s: &SimStats) -> Json {
    fn n(v: u64) -> Json {
        Json::I64(i64::try_from(v).expect("counter fits i64"))
    }
    Json::obj([
        ("cycles", n(s.cycles)),
        ("committed", n(s.committed)),
        ("fetched", n(s.fetched)),
        ("dispatched", n(s.dispatched)),
        ("squashed", n(s.squashed)),
        ("mispredicts", n(s.mispredicts)),
        ("l1d_hits", n(s.l1d.hits)),
        ("l1d_misses", n(s.l1d.misses)),
        ("l2_hits", n(s.l2.hits)),
        ("l2_misses", n(s.l2.misses)),
        ("policy_delay_cycles", n(s.policy_delay_cycles)),
        ("policy_delayed_instrs", n(s.policy_delayed_instrs)),
        ("ready_while_shadowed", n(s.ready_while_shadowed)),
        ("ready_while_true_dep", n(s.ready_while_true_dep)),
        ("shadow_wait_cycles", n(s.shadow_wait_cycles)),
        ("true_wait_cycles", n(s.true_wait_cycles)),
        ("transient_fills", n(s.transient_fills)),
    ])
}

/// Exact inverse of [`stats_to_json`]; `None` on any missing field.
pub fn stats_from_json(doc: &Json) -> Option<SimStats> {
    let n =
        |key: &str| -> Option<u64> { doc.get(key)?.as_i64().and_then(|v| u64::try_from(v).ok()) };
    Some(SimStats {
        cycles: n("cycles")?,
        committed: n("committed")?,
        fetched: n("fetched")?,
        dispatched: n("dispatched")?,
        squashed: n("squashed")?,
        mispredicts: n("mispredicts")?,
        l1d: CacheStats { hits: n("l1d_hits")?, misses: n("l1d_misses")? },
        l2: CacheStats { hits: n("l2_hits")?, misses: n("l2_misses")? },
        policy_delay_cycles: n("policy_delay_cycles")?,
        policy_delayed_instrs: n("policy_delayed_instrs")?,
        ready_while_shadowed: n("ready_while_shadowed")?,
        ready_while_true_dep: n("ready_while_true_dep")?,
        shadow_wait_cycles: n("shadow_wait_cycles")?,
        true_wait_cycles: n("true_wait_cycles")?,
        transient_fills: n("transient_fills")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_workloads::{suite, Scale};

    #[test]
    fn stats_round_trip_exactly() {
        let s = SimStats {
            cycles: u64::from(u32::MAX) + 17,
            committed: 3,
            l1d: CacheStats { hits: 1, misses: 2 },
            l2: CacheStats { hits: 0, misses: 9 },
            transient_fills: 7,
            ..Default::default()
        };
        assert_eq!(stats_from_json(&stats_to_json(&s)), Some(s));
        assert_eq!(
            stats_from_json(&stats_to_json(&SimStats::default())),
            Some(SimStats::default())
        );
    }

    #[test]
    fn missing_field_fails_deserialization() {
        let Json::Obj(mut pairs) = stats_to_json(&SimStats::default()) else { unreachable!() };
        pairs.retain(|(k, _)| k != "transient_fills");
        assert_eq!(stats_from_json(&Json::Obj(pairs)), None);
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let workloads = suite(Scale::Smoke);
        let (a, b) = (&workloads[0], &workloads[1]);
        let base = CoreConfig::default();
        let key = workload_key(a, "levioso", &base, "");
        assert_eq!(key, workload_key(a, "levioso", &base, ""), "deterministic");
        assert_ne!(key, workload_key(b, "levioso", &base, ""), "workload");
        assert_ne!(key, workload_key(a, "fence", &base, ""), "scheme");
        assert_ne!(key, workload_key(a, "levioso", &base.clone().with_rob_size(64), ""), "config");
        assert_ne!(key, workload_key(a, "levioso", &base, "cap=2"), "extra tag");
    }

    /// The key of smoke `filter_scan` × `levioso` × the default core, as
    /// rendered before the workload digests were memoized (less the
    /// header's old `/1` version). Changing a byte of it turns every cached
    /// cell into a miss.
    const FILTER_SCAN_LEVIOSO_KEY: &str = concat!(
        "levioso-sweep-cell-key\n",
        "kind: perf\n",
        "workload: filter_scan\n",
        "program: d535d9a94625949485e454028cff3cbd\n",
        "memory: 02f745a66670bd0bfcb261911beec6b4\n",
        "checksum_addr: 0x500000\n",
        "scheme: levioso\n",
        "config: CoreConfig { fetch_width: 8, dispatch_width: 8, issue_width: 8, ",
        "commit_width: 8, rob_size: 224, iq_size: 96, lq_size: 72, sq_size: 56, ",
        "alu_count: 6, mul_count: 2, div_count: 1, mshr_count: 16, load_ports: 2, ",
        "store_ports: 1, mul_latency: 3, div_latency: 20, redirect_penalty: 15, ",
        "predictor: PredictorConfig { gshare_history_bits: 14, btb_entries: 4096, ",
        "ras_entries: 32 }, hierarchy: HierarchyConfig { l1d: CacheConfig { ",
        "size_bytes: 32768, assoc: 8, line_bytes: 64, hit_latency: 4 }, l2: ",
        "CacheConfig { size_bytes: 1048576, assoc: 16, line_bytes: 64, hit_latency: 14 }, ",
        "dram_latency: 120 }, max_cycles: 500000000 }\n",
        "extra: \n",
    );

    #[test]
    fn key_text_is_pinned() {
        let w = suite(Scale::Smoke).into_iter().find(|w| w.name == "filter_scan").unwrap();
        let config = CoreConfig::default();
        assert_eq!(workload_key(&w, "levioso", &config, ""), FILTER_SCAN_LEVIOSO_KEY, "cold");
        assert_eq!(workload_key(&w, "levioso", &config, ""), FILTER_SCAN_LEVIOSO_KEY, "memoized");
        let clone = w.clone();
        assert_eq!(workload_key(&clone, "levioso", &config, ""), FILTER_SCAN_LEVIOSO_KEY, "clone");
    }

    #[test]
    fn scale_changes_the_key_through_program_content() {
        let smoke = &suite(Scale::Smoke)[0];
        let paper = suite(Scale::Paper).remove(0);
        assert_eq!(smoke.name, paper.name);
        let config = CoreConfig::default();
        assert_ne!(
            workload_key(smoke, "levioso", &config, ""),
            workload_key(&paper, "levioso", &config, ""),
            "tier folds in via program/memory content, not an explicit field"
        );
    }

    #[test]
    fn labels_are_human_readable() {
        let w = &suite(Scale::Smoke)[0];
        assert_eq!(workload_label(w, "levioso", ""), format!("{}/levioso", w.name));
        assert_eq!(workload_label(w, "levioso", "cap=2"), format!("{}/levioso[cap=2]", w.name));
    }
}
