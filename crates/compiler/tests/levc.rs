//! Pins `levc`'s one program format: the assembly text `--emit asm` prints
//! loads back into `levc` and prints itself again.

use levioso_support::TempDir;
use std::path::Path;
use std::process::Command;

/// Runs `levc` with `args` and returns its stdout, failing on a non-zero
/// exit.
fn levc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_levc"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn levc: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "levc {args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 listing")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn emitted_asm_loads_back_into_levc() {
    let dir = TempDir::new(env!("CARGO_TARGET_TMPDIR"), "levc-asm");
    let dir = dir.path();

    // `==` compiles to `seqz`, an `sltu`-with-immediate instruction.
    let levi = dir.join("count.levi");
    std::fs::write(
        &levi,
        "arr a @ 0x10000;
         fn main() {
             let i = 0;
             let n = 0;
             while (i < 8) {
                 if (a[i] == 3) { n = n + 1; }
                 i = i + 1;
             }
             a[8] = n;
         }",
    )
    .expect("write Levi source");
    let asm = levc(&[path_str(&levi), "--emit", "asm"]);

    let s = dir.join("count.s");
    std::fs::write(&s, &asm).expect("write listing");
    assert_eq!(levc(&[path_str(&s), "--emit", "asm"]), asm);
    assert!(levc(&[path_str(&s)]).contains("deps:"));
    assert!(asm.contains("sltiu"), "the program should exercise `sltiu`:\n{asm}");
}
