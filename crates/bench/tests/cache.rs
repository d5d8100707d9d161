//! The sweep-cell cache's correctness contracts, end to end:
//!
//! * **determinism** — cold, warm, and mixed caches, at any thread count,
//!   render byte-identical figures (a cache hit returns exactly what the
//!   simulation would have computed);
//! * **poison detection** — a tampered persisted cell fails its integrity
//!   hash, is reported as poisoned, and is recomputed (never trusted);
//! * **invalidation** — a changed sim-core fingerprint (what any edit to
//!   the simulator's source produces, see
//!   `levioso_uarch::core_fingerprint`) marks every cell dirty: the next
//!   run recomputes all of them and reports which.
//!
//! The cache handle is process-global, so the tests serialize on one
//! mutex.

use levioso_bench::{cellcache, motivation_figure, run_workload, Sweep, Tier};
use levioso_core::Scheme;
use levioso_support::{Cache, CacheReport, TempDir};
use levioso_uarch::CoreConfig;
use levioso_workloads::suite;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that reconfigure the process-global cache handle.
static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fresh, empty cache root under cargo's temp dir for integration tests.
fn tmp_root(tag: &str) -> TempDir {
    TempDir::new(env!("CARGO_TARGET_TMPDIR"), &format!("bench-cache-{tag}"))
}

/// Renders F1 at smoke scale with `threads` workers and snapshots the
/// cache counters the run produced.
fn figure_bytes(threads: usize) -> (String, CacheReport) {
    cellcache::reset_counters();
    let sweep = Sweep::new(threads);
    let f = motivation_figure(&sweep, Tier::Smoke.scale());
    (format!("{}\n{}", f.render(), f.to_json()), cellcache::report())
}

/// Every persisted cell file in the configured cache's directory, sorted.
fn cell_files() -> Vec<PathBuf> {
    let dir = cellcache::with(|c| c.dir());
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists after a cold run")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn cold_warm_and_mixed_caches_are_byte_identical_at_any_thread_count() {
    let _serial = lock();
    let root = tmp_root("coldwarm");
    cellcache::configure(Cache::new(root.path(), "test-v1"));

    let (cold, cold_report) = figure_bytes(1);
    assert!(cold_report.misses > 0, "cold run must compute cells");
    assert_eq!(cold_report.hits, 0, "cold run cannot hit an empty cache");

    let (warm, warm_report) = figure_bytes(4);
    assert_eq!(cold, warm, "warm replay must be byte-identical to the cold run");
    assert_eq!(warm_report.misses, 0, "fully warm run must not recompute");
    assert_eq!(warm_report.hits, cold_report.misses, "every cold cell replays");

    // Mixed: evict every other cell, forcing a hit/miss interleave.
    let files = cell_files();
    assert!(files.len() > 1, "expected multiple persisted cells");
    for f in files.iter().step_by(2) {
        std::fs::remove_file(f).expect("evict cell");
    }
    let (mixed, mixed_report) = figure_bytes(2);
    assert_eq!(cold, mixed, "mixed cache must also be byte-identical");
    assert!(mixed_report.hits > 0 && mixed_report.misses > 0, "run was genuinely mixed");

    cellcache::configure(Cache::disabled());
}

#[test]
fn tampered_cell_is_detected_as_poisoned_and_recomputed() {
    let _serial = lock();
    let root = tmp_root("poison");
    cellcache::configure(Cache::new(root.path(), "test-v1"));

    let workloads = suite(Tier::Smoke.scale());
    let w = &workloads[0];
    let config = CoreConfig::default();
    let fresh = run_workload(w, Scheme::Levioso, &config);

    // Tamper with the persisted result: bump a digit of the stored cycle
    // count. The envelope still parses and still claims this input, so
    // only the integrity hash can catch it.
    let files = cell_files();
    assert_eq!(files.len(), 1, "one cell persisted");
    let text = std::fs::read_to_string(&files[0]).expect("read cell");
    let at = text.find("\"cycles\"").expect("result stores cycles") + "\"cycles\"".len();
    let digit = at + text[at..].find(|c: char| c.is_ascii_digit()).expect("cycle digits");
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'1' { b'2' } else { b'1' };
    std::fs::write(&files[0], bytes).expect("write tampered cell");

    cellcache::reset_counters();
    let recomputed = run_workload(w, Scheme::Levioso, &config);
    let report = cellcache::report();
    assert_eq!(report.poisoned, 1, "tamper must be flagged as poisoning, not a plain miss");
    assert_eq!(report.misses, 1, "poisoned cell recomputes");
    assert_eq!(recomputed, fresh, "recomputed stats match the original simulation");

    // The recompute healed the store: next lookup hits again.
    cellcache::reset_counters();
    assert_eq!(run_workload(w, Scheme::Levioso, &config), fresh);
    let healed = cellcache::report();
    assert_eq!((healed.hits, healed.misses, healed.poisoned), (1, 0, 0));

    cellcache::configure(Cache::disabled());
}

#[test]
fn fingerprint_bump_marks_every_cell_dirty() {
    let _serial = lock();
    let root = tmp_root("bump");
    cellcache::configure(Cache::new(root.path(), "core-v1"));
    let (before, cold_report) = figure_bytes(2);
    assert!(cold_report.misses > 0);

    // The same store under a changed fingerprint: nothing may be reused.
    cellcache::configure(Cache::new(root.path(), "core-v2"));
    let (after, bumped_report) = figure_bytes(2);
    assert_eq!(before, after, "results are identical either way — only the work moved");
    assert_eq!(bumped_report.hits, 0, "a changed fingerprint invalidates every cell");
    assert_eq!(bumped_report.misses, cold_report.misses, "all cells recompute");
    assert_eq!(
        bumped_report.miss_labels.len() as u64,
        bumped_report.misses,
        "each dirty cell is reported by label"
    );

    cellcache::configure(Cache::disabled());
}
