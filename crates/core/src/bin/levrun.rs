//! `levrun` — run a program on the out-of-order core under any scheme.
//!
//! ```sh
//! levrun program.levi --scheme levioso
//! levrun gadget.s --scheme unsafe --mem 0x200000=1 --mem 0x100000=7 --dump 0x500000:4
//! levrun kernel.levi --compare       # run under every scheme, print a table
//! ```

use levioso_core::Scheme;
use levioso_uarch::{CoreConfig, Simulator, MAX_ROB_SIZE};
use std::process::ExitCode;

/// The most words one `--dump` prints: the dump reads them all into memory
/// first, 8 bytes a word.
const MAX_DUMP_WORDS: usize = 1 << 20;

fn usage() -> ExitCode {
    eprintln!(
        "usage: levrun <file.levi|file.s> [--scheme NAME] [--compare] \
         [--mem ADDR=VALUE]... [--dump ADDR:COUNT] [--rob N (1..={MAX_ROB_SIZE})]"
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_i64(s: &str) -> Option<i64> {
    if let Some(rest) = s.strip_prefix('-') {
        parse_u64(rest).map(|v| (v as i64).wrapping_neg())
    } else {
        parse_u64(s).map(|v| v as i64)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut scheme = Scheme::Levioso;
    let mut compare = false;
    let mut mem: Vec<(u64, i64)> = Vec::new();
    let mut dump: Option<(u64, usize)> = None;
    let mut config = CoreConfig::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => match it.next().as_deref().map(str::parse) {
                Some(Ok(s)) => scheme = s,
                Some(Err(e)) => {
                    eprintln!("levrun: {e}");
                    return ExitCode::FAILURE;
                }
                None => return usage(),
            },
            "--compare" => compare = true,
            "--mem" => {
                let Some(spec) = it.next() else { return usage() };
                let Some((a, v)) = spec.split_once('=') else { return usage() };
                match (parse_u64(a), parse_i64(v)) {
                    (Some(a), Some(v)) => mem.push((a, v)),
                    _ => return usage(),
                }
            }
            "--dump" => {
                let Some(spec) = it.next() else { return usage() };
                let Some((a, n)) = spec.split_once(':') else { return usage() };
                let (Some(a), Ok(n)) = (parse_u64(a), n.parse::<usize>()) else { return usage() };
                // The last byte of the `n` words from `a` must be an address.
                let last =
                    (n as u64).checked_mul(8).and_then(|len| a.checked_add(len.saturating_sub(1)));
                if last.is_none() {
                    eprintln!("levrun: --dump {spec} runs past the end of the address space");
                    return usage();
                }
                if n > MAX_DUMP_WORDS {
                    eprintln!("levrun: --dump {spec} exceeds the limit of {MAX_DUMP_WORDS} words");
                    return usage();
                }
                dump = Some((a, n));
            }
            "--rob" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n @ 1..=MAX_ROB_SIZE) => config = config.with_rob_size(n),
                Some(n) => {
                    eprintln!("levrun: --rob {n} is out of range 1..={MAX_ROB_SIZE}");
                    return usage();
                }
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
            eprintln!("levrun: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = path.rsplit('/').next().unwrap_or(&path).to_string();
    let program = if path.ends_with(".levi") {
        match levioso_compiler::levi::compile_unannotated(&name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("levrun: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match levioso_isa::assemble(&name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("levrun: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let schemes: Vec<Scheme> = if compare { Scheme::ALL.to_vec() } else { vec![scheme] };
    println!(
        "{:<18} {:>10} {:>7} {:>6} {:>8} {:>9} {:>9}",
        "scheme", "cycles", "IPC", "MPKI", "L1 miss%", "delayed", "transient"
    );
    for s in schemes {
        let mut prepared = program.clone();
        s.prepare(&mut prepared);
        let mut sim = Simulator::new(&prepared, config.clone());
        for &(a, v) in &mem {
            sim.mem.write_i64(a, v);
        }
        match sim.run(s.policy().as_ref()) {
            Ok(stats) => {
                println!(
                    "{:<18} {:>10} {:>7.2} {:>6.1} {:>7.1}% {:>9} {:>9}",
                    s.name(),
                    stats.cycles,
                    stats.ipc(),
                    stats.mpki(),
                    stats.l1d.miss_ratio() * 100.0,
                    stats.policy_delay_cycles,
                    stats.transient_fills,
                );
                if let Some((addr, count)) = dump {
                    let values = sim.mem.read_i64_vec(addr, count);
                    println!("  mem[{addr:#x}..]: {values:?}");
                }
            }
            Err(e) => {
                eprintln!("levrun: {} failed: {e}", s.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
