//! The `levrun` command line checks `--rob` where it enters: sizes outside
//! `1..=MAX_ROB_SIZE` are a usage error, not a panic inside the simulator
//! or a run into the cycle limit.

use levioso_support::TempDir;
use levioso_uarch::MAX_ROB_SIZE;
use std::path::Path;
use std::process::{Command, Output};

fn levrun(program: &Path, rob: usize) -> Output {
    Command::new(env!("CARGO_BIN_EXE_levrun"))
        .arg(program)
        .args(["--rob", &rob.to_string()])
        .output()
        .expect("spawn levrun")
}

#[test]
fn rob_size_is_checked_where_it_enters() {
    let dir = TempDir::new(env!("CARGO_TARGET_TMPDIR"), "levrun-rob");
    let program = dir.path().join("levrun_rob.s");
    std::fs::write(&program, "li a0, 41\naddi a0, a0, 1\nhalt\n").expect("write program");

    let ok = levrun(&program, MAX_ROB_SIZE);
    assert!(ok.status.success(), "--rob {MAX_ROB_SIZE} must run: {ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("levioso"), "{ok:?}");

    for rob in [MAX_ROB_SIZE + 1, 0] {
        let out = levrun(&program, rob);
        assert_eq!(out.status.code(), Some(2), "--rob {rob} must be a usage error: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("1..={MAX_ROB_SIZE}")), "--rob {rob}: {stderr}");
        assert!(out.stdout.is_empty(), "--rob {rob} must not simulate: {out:?}");
    }
}
