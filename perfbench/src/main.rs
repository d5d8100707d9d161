//! `perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--reduced]`
//!
//! Runs one workload in this process and prints its metrics, one per
//! line with its unit, then the result as one JSON line. Exits 2 on a
//! usage error and 1 if the run cannot start.

use perfbench::{Opts, DEFAULT_SEED, WORKLOADS};
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--reduced]",
        WORKLOADS.join("|")
    )
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        reduced: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--reduced" => opts.reduced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() {
    let started = Instant::now();
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{}", usage());
        std::process::exit(2);
    });
    match perfbench::run(&opts, started) {
        Ok(outcome) => print!("{}", outcome.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
