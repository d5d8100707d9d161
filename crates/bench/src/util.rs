//! Shared CLI parsing and output plumbing for the experiment binaries.

// Each binary includes this file as its own module; not every binary uses
// every helper.
#![allow(dead_code)]

use levioso_bench::cli::results_dir;
use levioso_bench::{Sweep, Tier};
use levioso_core::Scheme;
use std::path::Path;
use std::process::exit;

/// Options every experiment binary understands. The `all` driver
/// additionally accepts the golden-gate flags (`--check`/`--bless`);
/// simulating binaries additionally accept `--attrib`.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Sweep tier (problem scale + sweep grids).
    pub tier: Tier,
    /// Worker threads; `None` defers to `LEVIOSO_THREADS`/available
    /// parallelism via [`Sweep::from_env`].
    pub threads: Option<usize>,
    /// Compare against golden snapshots instead of mirroring results.
    pub check: bool,
    /// Regenerate the tier's golden snapshots.
    pub bless: bool,
    /// Suppress the rendered reports on stdout (results/ mirroring and
    /// exit codes are unaffected).
    pub quiet: bool,
    /// Additionally emit the delay-attribution report (`ATTRIB_*`).
    pub attrib: bool,
    /// Disable the sweep-cell cache for this run (every cell recomputes;
    /// what `scripts/perf.sh` forces so throughput samples are never
    /// polluted by cached cells).
    pub no_cache: bool,
}

impl Opts {
    /// Parses process arguments. `gate_flags` enables `--check`/`--bless`
    /// (the `all` driver) and `attrib_flag` enables `--attrib`
    /// (binaries that simulate); others reject them. Prints usage and
    /// exits 2 on unknown or malformed arguments.
    pub fn parse(gate_flags: bool, attrib_flag: bool) -> Opts {
        let mut opts = Opts {
            tier: Tier::Paper,
            threads: None,
            check: false,
            bless: false,
            quiet: false,
            attrib: false,
            no_cache: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.tier = Tier::Smoke,
                "--paper" => opts.tier = Tier::Paper,
                "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.threads = Some(n),
                    _ => usage_error(gate_flags, attrib_flag, "--threads needs a positive integer"),
                },
                "--check" if gate_flags => opts.check = true,
                "--bless" if gate_flags => opts.bless = true,
                "--quiet" | "-q" => opts.quiet = true,
                "--attrib" if attrib_flag => opts.attrib = true,
                "--no-cache" => opts.no_cache = true,
                "--help" | "-h" => {
                    eprintln!("{}", usage(gate_flags, attrib_flag));
                    exit(0);
                }
                other => {
                    usage_error(gate_flags, attrib_flag, &format!("unknown argument `{other}`"))
                }
            }
        }
        if opts.check && opts.bless {
            usage_error(gate_flags, attrib_flag, "--check and --bless are mutually exclusive");
        }
        if opts.no_cache {
            levioso_bench::cellcache::configure(levioso_support::Cache::disabled());
            levioso_nisec::cellcache::configure(levioso_support::Cache::disabled());
        }
        opts
    }

    /// Builds the sweep executor these options describe.
    pub fn sweep(&self) -> Sweep {
        match self.threads {
            Some(n) => Sweep::new(n),
            None => Sweep::from_env(),
        }
    }
}

fn usage(gate_flags: bool, attrib_flag: bool) -> String {
    let gate = if gate_flags {
        "\n  --check        compare against results/golden/<tier>/ and exit nonzero on drift\
         \n  --bless        regenerate the tier's golden snapshots"
    } else {
        ""
    };
    let attrib = if attrib_flag {
        "\n  --attrib       also emit the delay-attribution report (ATTRIB_*)"
    } else {
        ""
    };
    format!(
        "usage: [--smoke|--paper] [--threads N] [--quiet] [--no-cache]{gate}{attrib}\n\
         \n  --smoke        reduced problem sizes and sweep grids (the CI tier)\
         \n  --paper        full evaluation settings (default)\
         \n  --threads N    worker threads (default: LEVIOSO_THREADS or all cores)\
         \n  --quiet, -q    suppress rendered reports on stdout\
         \n  --no-cache     recompute every sweep cell (results are identical either way)"
    )
}

fn usage_error(gate_flags: bool, attrib_flag: bool, message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage(gate_flags, attrib_flag));
    exit(2)
}

/// Prints a rendered report (unless `--quiet`) and, at paper tier,
/// mirrors it (plus optional JSON) into `results/`. Smoke-tier runs
/// never overwrite the recorded paper-scale snapshots. A report that
/// cannot be saved ends the run: the error names the path, exit code 1.
pub fn emit(opts: &Opts, id: &str, rendered: &str, json: Option<String>) {
    if !opts.quiet {
        println!("{rendered}");
    }
    if opts.tier != Tier::Paper {
        return;
    }
    let dir = results_dir();
    write_or_exit(&dir.join(format!("{id}.txt")), rendered);
    if let Some(j) = json {
        write_or_exit(&dir.join(format!("{id}.json")), &j);
    }
}

fn write_or_exit(path: &Path, contents: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("error: could not write {}: {e}", path.display());
        exit(1);
    }
}

/// Prints the unified end-of-run summary line (cells, cache split,
/// wall-clock — see [`levioso_bench::cli::run_summary`]) to stderr, so
/// stdout report bytes stay identical with or without it. Every fig/table
/// binary calls this last, passing the `Instant` it captured at entry.
pub fn finish(start: std::time::Instant) {
    eprintln!("{}", levioso_bench::cli::run_summary(start.elapsed().as_secs_f64()));
}

/// When `--attrib` was given: runs the delay-attribution report for
/// `schemes` over the tier's workload suite (default core config) and
/// emits it as `ATTRIB_<id>` next to the binary's main report.
pub fn emit_attrib(opts: &Opts, sweep: &Sweep, id: &str, schemes: &[Scheme]) {
    if !opts.attrib {
        return;
    }
    let report = levioso_bench::attribution_report(sweep, opts.tier.scale(), schemes);
    let (text, json) = levioso_bench::render_attribution(&report);
    emit(opts, &format!("ATTRIB_{id}"), &text, Some(json));
}
