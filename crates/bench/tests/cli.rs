//! Pins the CLI contracts of `all`: honest throughput and
//! cache-split lines, loud save failures, rejected flags and bad
//! environment values.

use std::process::Command;

/// The one line of `text` that starts with `prefix` and ends with
/// `suffix`.
fn line<'a>(text: &'a str, prefix: &str, suffix: &str) -> &'a str {
    let lines: Vec<&str> =
        text.lines().filter(|l| l.starts_with(prefix) && l.ends_with(suffix)).collect();
    assert_eq!(lines.len(), 1, "expected one `{prefix}…{suffix}` line in: {text}");
    lines[0]
}

/// The number in front of `word` in `line` (`"3 hits, …"` → 3 for `hits`).
fn count(line: &str, word: &str) -> u64 {
    let tokens: Vec<&str> = line.split([' ', ',']).filter(|t| !t.is_empty()).collect();
    let at = tokens.iter().position(|t| *t == word).unwrap_or_else(|| panic!("no {word}: {line}"));
    tokens[at - 1].parse().unwrap_or_else(|e| panic!("bad {word} count in {line}: {e}"))
}

/// `[throughput cells, perf hits, perf misses, nisec hits, nisec misses]`
/// of one smoke-tier run of `all` on the cache under `base`.
fn smoke_run(base: &std::path::Path) -> [u64; 5] {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--smoke", "--quiet", "--threads", "1"])
        .env("LEVIOSO_SWEEP_CACHE_DIR", base.join("cache"))
        .env("LEVIOSO_RESULTS_DIR", base.join("results"))
        .output()
        .expect("spawn all");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    let cells = count(line(&stderr, "==> sim throughput: ", ")"), "cells");
    let perf = line(&stdout, "sweep-cache: ", " [perf]");
    let nisec = line(&stdout, "sweep-cache: ", " [noninterference]");
    assert_eq!(count(perf, "poisoned"), 0, "{perf}");
    assert_eq!(count(nisec, "poisoned"), 0, "{nisec}");
    [
        cells,
        count(perf, "hits"),
        count(perf, "misses"),
        count(nisec, "hits"),
        count(nisec, "misses"),
    ]
}

#[test]
fn throughput_counts_only_fresh_cells_and_the_cache_splits_are_separate() {
    let base = std::env::temp_dir().join(format!("levioso-cli-summary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp dir");

    // A cold run computes fresh cells: the throughput meter's cell count
    // and the perf cache's miss count agree (throughput honesty); its hits
    // are cells several figures share, simulated earlier in the same run.
    // Noninterference cells are split out, so they cannot inflate either.
    let [cells, hits, misses, nisec_hits, nisec_misses] = smoke_run(&base);
    assert!(cells > 0 && nisec_misses > 0, "cold run simulated nothing");
    assert_eq!((cells, nisec_hits), (misses, 0));

    // The same run against the now-warm disk cache: every lookup is a
    // hit, nothing recomputes, so the meter records no cell.
    assert_eq!(smoke_run(&base), [0, hits + misses, 0, nisec_misses, 0]);

    // Smoke runs never write under results/.
    assert!(!base.join("results").exists(), "a smoke run wrote under LEVIOSO_RESULTS_DIR");

    let _ = std::fs::remove_dir_all(&base);
}

/// A paper-tier report that cannot be saved fails the run and names the
/// path it could not write, instead of exiting 0 with nothing saved. T1
/// is written before any sweep, so this fails at once on a cold cache.
#[test]
fn unwritable_results_dir_fails_loudly() {
    let blocker =
        std::env::temp_dir().join(format!("levioso-cli-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&blocker);
    let _ = std::fs::remove_dir_all(blocker.with_extension("cache"));
    std::fs::write(&blocker, "a regular file where results/ should be").expect("create file");
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--paper", "--quiet"])
        .env("LEVIOSO_RESULTS_DIR", &blocker)
        .env("LEVIOSO_SWEEP_CACHE_DIR", blocker.with_extension("cache"))
        .output()
        .expect("spawn all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&blocker.display().to_string()), "path not named: {stderr}");
    assert!(!blocker.with_extension("cache").exists(), "no cell may be simulated: {stderr}");
    let _ = std::fs::remove_file(&blocker);
}

/// Unknown flags (the warm server's `--serve`; the old `--resume`, since
/// each cell is stored as soon as it is computed) and flag combinations
/// that would silently do less than asked are usage errors, with the
/// cache on or off: `--check` with `--bless`, and `--attrib` with either,
/// since no golden holds the attribution report.
#[test]
fn rejected_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 7] = [
        (&["--serve", "x"], "unknown argument `--serve`"),
        (&["--no-cache", "--serve"], "unknown argument `--serve`"),
        (&["--resume", "x"], "unknown argument `--resume`"),
        (&["--no-cache", "--resume"], "unknown argument `--resume`"),
        (&["--check", "--bless"], "mutually exclusive"),
        (&["--smoke", "--check", "--attrib"], "--attrib cannot be combined"),
        (&["--smoke", "--bless", "--attrib"], "--attrib cannot be combined"),
    ];
    for (args, says) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_all")).args(args).output().expect("spawn all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(!stderr.contains("==>"), "{args:?} started a run: {stderr}");
    }
}

/// A bad `LEVIOSO_THREADS` stops the run before any sweep and names the
/// variable: a typo must not silently pick another worker count.
#[test]
fn bad_env_values_fail_before_any_sweep() {
    let base = std::env::temp_dir().join(format!("levioso-cli-bad-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--check", "--quiet"])
        .env("LEVIOSO_THREADS", "0")
        .env("LEVIOSO_SWEEP_CACHE_DIR", base.join("cache"))
        .env("LEVIOSO_RESULTS_DIR", base.join("results"))
        .output()
        .expect("spawn all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "LEVIOSO_THREADS=0 must fail: {stderr}");
    assert!(stderr.contains("unknown LEVIOSO_THREADS value \"0\""), "{stderr}");
    assert!(!stderr.contains("==>"), "no sweep may start: {stderr}");
    assert!(!base.exists(), "nothing may be cached or written");
}
