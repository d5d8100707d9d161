//! Warm-cache replay of the noninterference campaign: a persisted cell's
//! verdict must round-trip exactly, so a fully warm campaign renders a
//! byte-identical report without running a single simulation, and a
//! tampered one is counted poisoned and recomputed.
//!
//! This file is its own test binary (one process), so reconfiguring the
//! process-global cache handle cannot race the campaign tests in
//! `noninterference.rs`.

use levioso_core::Scheme;
use levioso_nisec::{cellcache, fuzz, FuzzConfig, DEFAULT_SEED};
use levioso_support::Cache;

#[test]
fn warm_campaign_replays_byte_identical_reports() {
    let root = std::env::temp_dir().join(format!("levioso-nisec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create temp cache root");
    cellcache::configure(Cache::new(root, "test-v1"));

    let config = FuzzConfig { programs: 4, pairs_per_program: 2, seed: DEFAULT_SEED, threads: 2 };
    let schemes = [Scheme::Unsafe, Scheme::Levioso];

    let cold = fuzz(&config, &schemes);
    let cold_report = cellcache::report();
    assert!(cold_report.misses > 0, "cold campaign must compute cells");
    assert_eq!(cold_report.hits, 0, "cold campaign cannot hit an empty cache");

    cellcache::reset_counters();
    let warm = fuzz(&config, &schemes);
    let warm_report = cellcache::report();
    assert_eq!(cold, warm, "replayed verdicts must equal computed ones, divergences included");
    assert_eq!(cold.render(), warm.render(), "rendered reports are byte-identical");
    assert_eq!(cold.to_json(), warm.to_json());
    assert_eq!(warm_report.misses, 0, "fully warm campaign must not re-simulate");
    assert_eq!(warm_report.hits, cold_report.misses, "every cold cell replays");

    // Warm replay is also thread-count independent (the cold campaign
    // already is — pinned by `noninterference.rs`).
    cellcache::reset_counters();
    let warm_serial = fuzz(&FuzzConfig { threads: 1, ..config.clone() }, &schemes);
    assert_eq!(cold, warm_serial);

    // A stored verdict edited to claim a leak fails its integrity hash:
    // the warm campaign counts it as poisoned, recomputes that one cell,
    // and renders the cold report byte for byte. Levioso is clean on every
    // cell, so its verdicts are all `null`; turn the first into a
    // divergence.
    let mut files: Vec<_> = std::fs::read_dir(cellcache::with(|c| c.dir()))
        .expect("cache dir exists after a cold campaign")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    let (path, text) = files
        .iter()
        .map(|p| (p, std::fs::read_to_string(p).expect("read cell")))
        .find(|(_, text)| text.contains("\"t4/levioso/"))
        .expect("a stored levioso cell");
    let at = text.find("\"diverged\"").expect("a stored verdict");
    let null = at + text[at..].find("null").expect("a clean observer");
    let leak = r#"{"index": 0, "a": "x", "b": "y", "rule_context": null}"#;
    let tampered = format!("{}{leak}{}", &text[..null], &text[null + "null".len()..]);
    std::fs::write(path, tampered).expect("write tampered cell");
    cellcache::reset_counters();
    let healed = fuzz(&config, &schemes);
    let report = cellcache::report();
    assert_eq!(report.poisoned, 1, "the tamper must be flagged as poisoning");
    assert_eq!((report.hits, report.misses), (cold_report.misses - 1, 1), "one cell recomputes");
    assert_eq!(cold.render(), healed.render(), "rendered reports are byte-identical");
    assert_eq!(cold.to_json(), healed.to_json());

    cellcache::configure(Cache::disabled());
}
