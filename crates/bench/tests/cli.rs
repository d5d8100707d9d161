//! Pins the CLI contracts every experiment binary shares: the one
//! `run-summary:` line, loud save failures, rejected flags and bad
//! environment values (they all parse through the shared `util.rs`, so a
//! binary that behaved differently would mean someone forked the parser).

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

/// The warm server's `--serve` and the old `--resume` (every run resumes:
/// each cell is stored as soon as it is computed) are usage errors
/// everywhere, with the cache on or off.
#[test]
fn serve_flag_is_unknown_everywhere() {
    for bin in BINARIES {
        for name in ["serve", "resume"] {
            let flag = format!("--{name}");
            for args in [[flag.as_str(), "x"], ["--no-cache", flag.as_str()]] {
                let out = Command::new(bin)
                    .args(args)
                    .output()
                    .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{} {args:?}: {stderr}", short_name(bin));
                assert!(
                    stderr.contains(&format!("unknown argument `{flag}`")),
                    "{} {args:?}: {stderr}",
                    short_name(bin)
                );
            }
        }
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
