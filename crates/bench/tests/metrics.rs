//! Observer-effect neutrality: telemetry must be strictly observational.
//!
//! The registry's gate (`LEVIOSO_METRICS` / `metrics::set_enabled`) turns
//! pure-telemetry call sites on and off; nothing it gates may influence a
//! result. This test flips the gate in-process and pins that figure
//! renders and their JSON are byte-identical with metrics on and off, at
//! one and at four worker threads — plus that two snapshots of an
//! untouched registry are byte-identical (no timestamps, no iteration-
//! order dependence), which is what makes the `METRICS_run.json` mirror
//! diffable.
//!
//! One test function on purpose: `set_enabled` mutates process-global
//! state, and the default harness runs a file's tests concurrently.

use levioso_bench::{cellcache, Sweep, Tier};
use levioso_support::{metrics, Cache};

#[test]
fn telemetry_gate_never_perturbs_results_and_snapshots_are_stable() {
    // Private temp cache so this test neither reads nor warms the repo's
    // shared sweep-cache (results must be identical either way, but the
    // cache split in play should be this test's own).
    let root =
        std::env::temp_dir().join(format!("levioso-metrics-neutrality-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    cellcache::configure(Cache::new(&root, "metrics-neutrality-v1"));

    let scale = Tier::Smoke.scale();
    let mut runs: Vec<(bool, usize, String, String)> = Vec::new();
    for enabled in [true, false] {
        metrics::set_enabled(enabled);
        for threads in [1usize, 4] {
            let sweep = Sweep::new(threads);
            let f = levioso_bench::motivation_figure(&sweep, scale);
            runs.push((enabled, threads, f.render(), f.to_json()));
        }
    }
    metrics::set_enabled(true);
    let (_, _, render0, json0) = &runs[0];
    for (enabled, threads, render, json) in &runs[1..] {
        assert_eq!(render, render0, "figure render drifted at metrics={enabled} threads={threads}");
        assert_eq!(json, json0, "figure JSON drifted at metrics={enabled} threads={threads}");
    }

    // The core identity the goldens are keyed by must not depend on the
    // telemetry gate either.
    metrics::set_enabled(false);
    let fp_off = levioso_uarch::core_fingerprint();
    metrics::set_enabled(true);
    assert_eq!(levioso_uarch::core_fingerprint(), fp_off);

    // Snapshot determinism: two back-to-back snapshots of an untouched
    // registry are byte-identical, and emitting is order-stable.
    let a = metrics::snapshot_text();
    let b = metrics::snapshot_text();
    assert_eq!(a, b, "idle registry snapshots must be byte-identical");
    assert!(a.contains("\"schema\": \"levioso-metrics/2\""), "{a}");
    assert!(!a.contains("\"timers\""), "{a}");

    cellcache::configure(Cache::disabled());
    let _ = std::fs::remove_dir_all(&root);
}
