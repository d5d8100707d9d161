//! End-to-end contracts for the run ledger and the `levhist` sentinel —
//! the three behaviors the acceptance criteria name, exercised through
//! real spawned binaries rather than library calls:
//!
//! 1. a ledger of 3+ real appended runs passes `levhist --check`;
//! 2. an injected synthetic throughput regression fails it (nonzero
//!    exit, offending series named);
//! 3. a ledger with fewer than the minimum comparable samples refuses
//!    to pass vacuously (exit 4, not 0).
//!
//! Plus the corrupt-ledger discipline: a garbage line is a hard error
//! (exit 2) that names the ledger line, never a silent skip.

use levioso_support::ledger;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("levioso-ledger-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One real measured run: `fig1_motivation --smoke --no-cache --quiet`
/// with results (and therefore the ledger) redirected into `results`.
/// `--no-cache` keeps every cell a genuine recompute, so the appended
/// record carries a real throughput sample.
fn measured_run(results: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_motivation"))
        .args(["--smoke", "--no-cache", "--quiet", "--threads", "2"])
        .env("LEVIOSO_RESULTS_DIR", results)
        .output()
        .expect("spawn fig1_motivation");
    assert!(out.status.success(), "measured run failed: {}", String::from_utf8_lossy(&out.stderr));
}

fn levhist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_levhist")).args(args).output().expect("spawn levhist")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn real_runs_pass_injection_fails_and_thin_history_is_vacuous() {
    let base = tmpdir("e2e");
    let results = base.join("results");
    // Four identical measured runs: the fourth is judged against a
    // 3-point window, which keeps the MAD meaningful under timing noise.
    for _ in 0..4 {
        measured_run(&results);
    }
    let path = results.join("ledger.jsonl");
    let records = ledger::load(&path).expect("ledger parses");
    assert_eq!(records.len(), 4, "each run appends exactly one record");
    for r in &records {
        assert_eq!(r.source, "fig1_motivation");
        assert_eq!(r.tier, "smoke");
        assert_eq!(r.threads, 2);
        assert!(r.cells > 0 && r.busy_seconds > 0.0, "--no-cache runs must measure throughput");
    }
    let ledger_arg = path.to_str().unwrap();

    // 1. Real history passes, and says what it judged.
    let pass = levhist(&["--ledger", ledger_arg, "--check"]);
    let pass_out = stdout_of(&pass);
    assert!(
        pass.status.code() == Some(0),
        "healthy ledger must pass: exit={:?}\n{pass_out}{}",
        pass.status.code(),
        stderr_of(&pass)
    );
    assert!(pass_out.contains("LEDGER PASS"), "{pass_out}");
    assert!(pass_out.contains("kilocycles_per_busy_sec[fig1_motivation smoke t2]"), "{pass_out}");

    // 2. Inject a synthetic regression into a scratch copy; the sentinel
    //    must go red and name the degraded series and its ledger line.
    let degraded = base.join("ledger-regressed.jsonl");
    std::fs::copy(&path, &degraded).unwrap();
    let degraded_arg = degraded.to_str().unwrap();
    let inject = levhist(&["--ledger", degraded_arg, "--inject-regression"]);
    assert!(inject.status.success(), "inject failed: {}", stderr_of(&inject));
    let red = levhist(&["--ledger", degraded_arg, "--check"]);
    let red_out = stdout_of(&red);
    assert_eq!(
        red.status.code(),
        Some(1),
        "injected regression must fail the check\n{red_out}{}",
        stderr_of(&red)
    );
    assert!(red_out.contains("LEDGER REGRESSION"), "{red_out}");
    assert!(red_out.contains("kilocycles_per_busy_sec[fig1_motivation smoke t2]"), "{red_out}");
    assert!(red_out.contains("ledger line 5"), "the offending record is named: {red_out}");

    // 3. Thin history refuses to report a pass: two records are below
    //    MIN_SAMPLES for every series, so the check is vacuous (exit 4).
    let thin = base.join("ledger-thin.jsonl");
    let two_lines: String =
        std::fs::read_to_string(&path).unwrap().lines().take(2).map(|l| format!("{l}\n")).collect();
    std::fs::write(&thin, two_lines).unwrap();
    let vacuous = levhist(&["--ledger", thin.to_str().unwrap(), "--check"]);
    assert_eq!(vacuous.status.code(), Some(4), "thin history must not read as green");
    assert!(stderr_of(&vacuous).contains("vacuous"), "{}", stderr_of(&vacuous));

    // Corrupt ledgers are a hard error that names the line, not a skip.
    let corrupt = base.join("ledger-corrupt.jsonl");
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("{ not a record\n");
    std::fs::write(&corrupt, &text).unwrap();
    let bad = levhist(&["--ledger", corrupt.to_str().unwrap(), "--check"]);
    assert_eq!(bad.status.code(), Some(2), "corrupt ledger is an IO-class failure");
    assert!(stderr_of(&bad).contains(":5:"), "error names the corrupt line: {}", stderr_of(&bad));

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn trends_render_and_json_modes_cover_the_same_series() {
    let base = tmpdir("trends");
    let results = base.join("results");
    measured_run(&results);
    let path = results.join("ledger.jsonl");
    let ledger_arg = path.to_str().unwrap();

    let table = levhist(&["--ledger", ledger_arg]);
    assert!(table.status.success());
    let table_out = stdout_of(&table);
    assert!(table_out.contains("perf trajectory"), "{table_out}");
    assert!(table_out.contains("kilocycles_per_busy_sec[fig1_motivation smoke t2]"), "{table_out}");

    let json = levhist(&["--ledger", ledger_arg, "--json"]);
    assert!(json.status.success());
    let doc = levioso_support::Json::parse(&stdout_of(&json)).expect("trends JSON parses");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("levioso-ledger-trends/1"));
    let series = doc.get("series").and_then(|s| s.as_arr()).expect("series array");
    assert!(!series.is_empty());
    for s in series {
        // One record per series: present but below the check threshold.
        assert_eq!(s.get("checkable").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(s.get("source").and_then(|v| v.as_str()), Some("fig1_motivation"));
    }

    // An empty ledger renders the hint instead of an empty table.
    let empty = base.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let hint = levhist(&["--ledger", empty.to_str().unwrap()]);
    assert!(hint.status.success());
    assert!(stdout_of(&hint).contains("no measurable series yet"), "{}", stdout_of(&hint));

    let _ = std::fs::remove_dir_all(&base);
}
