//! The `levrun` command line checks `--rob` and `--dump` where they enter:
//! sizes outside `1..=MAX_ROB_SIZE`, dump ranges past the end of the
//! address space and dumps of more than 2^20 words are usage errors, not a
//! panic inside the simulator, a run into the cycle limit, a dump that
//! wraps around to address 0 or an allocation of up to exabytes.

use levioso_support::TempDir;
use levioso_uarch::MAX_ROB_SIZE;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn levrun(program: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_levrun"))
        .arg(program)
        .args(args)
        .output()
        .expect("spawn levrun")
}

/// Writes a small program into a fresh directory.
fn write_program(name: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(env!("CARGO_TARGET_TMPDIR"), name);
    let program = dir.path().join(format!("{name}.s"));
    std::fs::write(&program, "li a0, 41\naddi a0, a0, 1\nhalt\n").expect("write program");
    (dir, program)
}

#[test]
fn rob_size_is_checked_where_it_enters() {
    let (_dir, program) = write_program("levrun-rob");

    let ok = levrun(&program, &["--rob", &MAX_ROB_SIZE.to_string()]);
    assert!(ok.status.success(), "--rob {MAX_ROB_SIZE} must run: {ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("levioso"), "{ok:?}");

    for rob in [MAX_ROB_SIZE + 1, 0] {
        let out = levrun(&program, &["--rob", &rob.to_string()]);
        assert_eq!(out.status.code(), Some(2), "--rob {rob} must be a usage error: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("1..={MAX_ROB_SIZE}")), "--rob {rob}: {stderr}");
        assert!(out.stdout.is_empty(), "--rob {rob} must not simulate: {out:?}");
    }
}

#[test]
fn dump_range_is_checked_where_it_enters() {
    let (_dir, program) = write_program("levrun-dump");

    let ok = levrun(&program, &["--dump", "0xfffffffffffffff8:1"]);
    assert!(ok.status.success(), "the last word must dump: {ok:?}");
    assert!(
        String::from_utf8_lossy(&ok.stdout).contains("mem[0xfffffffffffffff8..]: [0]"),
        "{ok:?}"
    );

    // Two words from the last one, a word straddling the end, a count
    // whose byte length overflows, and one word more than the limit.
    let past_the_end = "runs past the end of the address space";
    for (spec, why) in [
        ("0xfffffffffffffff8:2", past_the_end),
        ("0xfffffffffffffffc:1", past_the_end),
        ("8:2305843009213693952", past_the_end),
        ("0:1048577", "exceeds the limit of 1048576 words"),
    ] {
        let out = levrun(&program, &["--dump", spec]);
        assert_eq!(out.status.code(), Some(2), "--dump {spec} must be a usage error: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("--dump {spec} {why}")), "{stderr}");
        assert!(out.stdout.is_empty(), "--dump {spec} must not simulate: {out:?}");
    }
}
