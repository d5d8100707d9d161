//! `levc` — the Levioso compiler driver.
//!
//! Compiles Levi source (`.levi`) or lev64 assembly (anything else) and
//! shows the annotated result:
//!
//! ```sh
//! levc program.levi                  # annotated listing (default)
//! levc program.levi --static         # static-dataflow annotation flavour
//! levc program.s --emit cost         # annotation cost summary only
//! levc program.levi --emit asm       # assembly text `levc` and `levrun` read back
//! ```

use levioso_compiler::{annotate_with, Analysis, AnnotateConfig};
use levioso_isa::DepSet;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: levc <file.levi|file.s> [--static] [--emit listing|cost|asm]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut static_dataflow = false;
    let mut emit = "listing".to_string();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--static" => static_dataflow = true,
            "--emit" => match it.next() {
                Some(e) => emit = e,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if path.is_none() => path = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };

    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("levc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = path.rsplit('/').next().unwrap_or(&path).to_string();
    let mut program = if path.ends_with(".levi") {
        match levioso_compiler::levi::compile_unannotated(&name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("levc: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match levioso_isa::assemble(&name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("levc: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    annotate_with(&mut program, &AnnotateConfig { static_dataflow });
    let annotations = program.annotations.as_ref().expect("just annotated");

    match emit.as_str() {
        "asm" => print!("{}", program.to_asm_string()),
        "cost" => {
            let c = annotations.cost();
            println!("instructions:           {}", c.instructions);
            println!("exact deps:             {}", c.exact_deps);
            println!("deps/instruction:       {:.3}", c.deps_per_instr());
            println!("hint bits/instruction:  {:.3}", c.bits_per_instr());
            println!("largest set:            {}", c.max_deps);
            println!("conservative fallbacks: {}", c.all_older);
        }
        "listing" => {
            let analysis = Analysis::of(&program);
            for (i, instr) in program.instrs.iter().enumerate() {
                let deps = match annotations.deps_of(i) {
                    DepSet::Exact(v) if v.is_empty() => "-".to_string(),
                    DepSet::Exact(v) => {
                        v.iter().map(|d| format!("@{d}")).collect::<Vec<_>>().join(",")
                    }
                    DepSet::AllOlder => "ALL-OLDER".to_string(),
                };
                let reconv = if instr.is_branch() {
                    match analysis.reconvergence_point(&program, i as u32) {
                        Some(r) => format!("   ; reconverges @{r}"),
                        None => "   ; no reconvergence".to_string(),
                    }
                } else {
                    String::new()
                };
                println!("@{i:<4} {instr:<30} deps: {deps}{reconv}");
            }
        }
        other => {
            eprintln!("levc: unknown --emit mode `{other}`");
            return usage();
        }
    }
    ExitCode::SUCCESS
}
