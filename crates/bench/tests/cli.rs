//! Pins the CLI contracts every experiment binary shares — most
//! importantly that the `--no-cache`/`--resume` mutual exclusion prints
//! the *one* message defined in `levioso_bench::cli`, from every binary
//! (they all parse through the shared `util.rs`, so a drifted copy would
//! mean someone forked the parser).

use levioso_bench::cli::{RESUME_CACHE_DISABLED, RESUME_NO_CACHE_CONFLICT};
use std::process::Command;

/// Every binary that takes the shared sweep flags, including the nisec
/// gate (`table4_noninterference`) and the driver (`all`).
const BINARIES: &[&str] = &[
    env!("CARGO_BIN_EXE_all"),
    env!("CARGO_BIN_EXE_fig1_motivation"),
    env!("CARGO_BIN_EXE_fig2_overhead"),
    env!("CARGO_BIN_EXE_fig3_ablation"),
    env!("CARGO_BIN_EXE_fig4_rob_sweep"),
    env!("CARGO_BIN_EXE_fig5_mem_sweep"),
    env!("CARGO_BIN_EXE_fig6_transient_fills"),
    env!("CARGO_BIN_EXE_fig7_hint_budget"),
    env!("CARGO_BIN_EXE_table1_config"),
    env!("CARGO_BIN_EXE_table2_security"),
    env!("CARGO_BIN_EXE_table3_annotation"),
    env!("CARGO_BIN_EXE_table4_noninterference"),
];

fn short_name(bin: &str) -> &str {
    std::path::Path::new(bin).file_name().and_then(|n| n.to_str()).unwrap_or(bin)
}

#[test]
fn no_cache_resume_conflict_message_is_shared_verbatim() {
    for bin in BINARIES {
        let out = Command::new(bin)
            .args(["--no-cache", "--resume"])
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{}: conflicting flags must exit 2 (stderr: {stderr})",
            short_name(bin)
        );
        assert!(
            stderr.contains(RESUME_NO_CACHE_CONFLICT),
            "{}: stderr does not carry the shared message {RESUME_NO_CACHE_CONFLICT:?}: {stderr}",
            short_name(bin)
        );
    }
}

#[test]
fn resume_with_env_disabled_cache_message_is_shared_verbatim() {
    for bin in BINARIES {
        let out = Command::new(bin)
            .args(["--resume"])
            .env("LEVIOSO_SWEEP_CACHE", "off")
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: must exit 2", short_name(bin));
        assert!(
            stderr.contains(RESUME_CACHE_DISABLED),
            "{}: stderr does not carry the shared message {RESUME_CACHE_DISABLED:?}: {stderr}",
            short_name(bin)
        );
    }
}

/// Spawns `bin` at smoke tier against the given cache/results dirs and
/// returns its one `run-summary:` stderr line.
fn summary_line(bin: &str, base: &std::path::Path) -> String {
    let out = Command::new(bin)
        .args(["--smoke", "--quiet", "--threads", "1"])
        .env("LEVIOSO_SWEEP_CACHE_DIR", base.join("cache"))
        .env("LEVIOSO_RESULTS_DIR", base.join("results"))
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", short_name(bin));
    let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("run-summary: ")).collect();
    assert_eq!(
        lines.len(),
        1,
        "{}: expected exactly one run-summary line, stderr: {stderr}",
        short_name(bin)
    );
    lines[0].to_string()
}

/// Parses `key=<u64>` out of a run-summary line.
fn summary_field(line: &str, key: &str) -> u64 {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in {line}: {e}"))
}

#[test]
fn run_summary_line_is_shared_and_counts_only_fresh_cells() {
    let base = std::env::temp_dir().join(format!("levioso-cli-summary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp dir");

    // A table binary runs no sweep: every counter is zero, and the line's
    // shape is the one `levioso_bench::cli::run_summary` renders, verbatim.
    let line = summary_line(env!("CARGO_BIN_EXE_table1_config"), &base);
    assert!(
        line.starts_with("run-summary: cells=0 hits=0 misses=0 poisoned=0 wall_seconds="),
        "{line}"
    );
    let wall: f64 = line.rsplit_once("wall_seconds=").expect("wall field").1.parse().expect("f64");
    assert!(wall.is_finite() && wall >= 0.0);

    // A cold figure run computes fresh cells: the throughput meter's cell
    // count and the cache's miss count agree (throughput honesty), no hits.
    let cold = summary_line(env!("CARGO_BIN_EXE_fig1_motivation"), &base);
    let cells = summary_field(&cold, "cells");
    assert!(cells > 0, "{cold}");
    assert_eq!(cells, summary_field(&cold, "misses"), "{cold}");
    assert_eq!(summary_field(&cold, "hits"), 0, "{cold}");

    // The same run against the now-warm disk cache: every cell is a hit,
    // nothing recomputes, so the meter records no cell.
    let warm = summary_line(env!("CARGO_BIN_EXE_fig1_motivation"), &base);
    assert_eq!(summary_field(&warm, "cells"), 0, "{warm}");
    assert_eq!(summary_field(&warm, "misses"), 0, "{warm}");
    assert_eq!(summary_field(&warm, "hits"), cells, "{warm}");

    // Smoke runs never write under results/.
    assert!(!base.join("results").exists(), "a smoke run wrote under LEVIOSO_RESULTS_DIR");

    let _ = std::fs::remove_dir_all(&base);
}

/// A paper-tier report that cannot be saved fails the run and names the
/// path it could not write, instead of exiting 0 with nothing saved.
#[test]
fn unwritable_results_dir_fails_loudly() {
    let blocker =
        std::env::temp_dir().join(format!("levioso-cli-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&blocker);
    std::fs::write(&blocker, "a regular file where results/ should be").expect("create file");
    let out = Command::new(env!("CARGO_BIN_EXE_table1_config"))
        .args(["--paper", "--quiet"])
        .env("LEVIOSO_RESULTS_DIR", &blocker)
        .output()
        .expect("spawn table1_config");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&blocker.display().to_string()), "path not named: {stderr}");
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn serve_flag_is_unknown_everywhere() {
    for bin in BINARIES {
        let out = Command::new(bin)
            .args(["--serve", "x"])
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{}", short_name(bin));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument `--serve`"), "{}: {stderr}", short_name(bin));
    }
}

/// A bad `LEVIOSO_SCALE` or `LEVIOSO_THREADS` stops the run before any
/// sweep and names the variable: a typo must not silently pick another
/// tier or worker count.
#[test]
fn bad_env_values_fail_before_any_sweep() {
    for (var, value) in [("LEVIOSO_SCALE", "smok"), ("LEVIOSO_THREADS", "0")] {
        let base =
            std::env::temp_dir().join(format!("levioso-cli-bad-env-{var}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let out = Command::new(env!("CARGO_BIN_EXE_all"))
            .args(["--check", "--quiet"])
            .env(var, value)
            .env("LEVIOSO_SWEEP_CACHE_DIR", base.join("cache"))
            .env("LEVIOSO_RESULTS_DIR", base.join("results"))
            .output()
            .expect("spawn all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value} must fail: {stderr}");
        assert!(stderr.contains(&format!("unknown {var} value \"{value}\"")), "{stderr}");
        assert!(!stderr.contains("==>"), "{var}={value}: no sweep may start: {stderr}");
        assert!(!base.exists(), "{var}={value}: nothing may be cached or written");
    }
}
