//! `all`: regenerates every figure and table of the evaluation into the
//! tier's golden directory, or gates the current tree against it.
//!
//! ```text
//! all --paper               # rewrite every report in results/, the paper tier's golden
//! all --smoke               # rewrite every report in results/golden/smoke/, the CI tier's
//! all --paper --check       # recompute every report, compare it with results/, exit 1 on drift
//! all --smoke --check       # CI: the same against results/golden/smoke/
//! all --attrib              # also the delay-attribution report, ATTRIB_overhead
//! all --threads 8           # size the sweep pool explicitly
//! ```
//!
//! The reports go into `LEVIOSO_RESULTS_DIR`, or else the tier's golden
//! directory (`Tier::results_dir`); a `--check` run writes nothing and
//! compares every report with that directory instead. Reports are built
//! in report order (T1, F1–F7, T2, T3, T4, ATTRIB) and each is written as
//! soon as it is built, T1 first, so an unwritable results directory
//! fails the run before any sweep. A run that writes refuses figures that
//! break a shape invariant: it writes none and exits 1. Every mode fails
//! the run on T4's two-sided noninterference gate.
//!
//! All simulation cells fan out across the sweep pool; results are
//! bit-identical at any thread count. Every mode ends by printing the
//! perf and noninterference cell-cache splits on stdout and the
//! simulator throughput of the cells it computed on stderr (see
//! `levioso_bench::throughput`).

use levioso_bench::{cellcache, gate, throughput, Sweep, Tier};
use levioso_core::Scheme;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "usage: all [--smoke|--paper] [--check] [--attrib] [--threads N]\n\
     \n  --smoke        reduced problem sizes and sweep grids (the CI tier)\
     \n  --paper        full evaluation settings (default)\
     \n  --check        compare every report with the results directory instead of\
     \n                 writing it, and exit nonzero on drift\
     \n  --attrib       also the delay-attribution report (ATTRIB_overhead)\
     \n  --threads N    worker threads (default: LEVIOSO_THREADS or all cores)\
     \n\
     \nThe results directory is LEVIOSO_RESULTS_DIR, or else the tier's golden\
     \ndirectory (paper: results/, smoke: results/golden/smoke/).";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2)
}

/// The options of `all`, one field per flag of [`USAGE`].
#[derive(Debug)]
struct Opts {
    tier: Tier,
    /// `None` defers to `LEVIOSO_THREADS`/available parallelism via
    /// [`Sweep::from_env`].
    threads: Option<usize>,
    check: bool,
    attrib: bool,
}

impl Opts {
    /// Parses process arguments; prints usage and exits 2 on unknown or
    /// malformed ones.
    fn parse() -> Opts {
        let mut opts = Opts { tier: Tier::Paper, threads: None, check: false, attrib: false };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.tier = Tier::Smoke,
                "--paper" => opts.tier = Tier::Paper,
                "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.threads = Some(n),
                    _ => usage_error("--threads needs a positive integer"),
                },
                "--check" => opts.check = true,
                "--attrib" => opts.attrib = true,
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    exit(0);
                }
                other => usage_error(&format!("unknown argument `{other}`")),
            }
        }
        opts
    }
}

/// Writes one report file; a file that cannot be saved ends the run, with
/// an error naming the path and exit code 1.
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

fn main() {
    let opts = Opts::parse();
    let sweep = match opts.threads {
        Some(n) => Sweep::new(n),
        None => Sweep::from_env(),
    };
    let tier = opts.tier;
    let dir = tier.results_dir();
    let start = Instant::now();
    eprintln!(
        "==> {} tier, {} worker thread(s), {} {}",
        tier.name(),
        sweep.threads(),
        if opts.check { "checking the reports in" } else { "writing the reports into" },
        dir.display()
    );

    // Each report goes out as soon as it is built, as `<id>.txt` plus
    // `<id>.json` when it has one: into the results directory, or under
    // --check into the list compared with it.
    let mut kept = Vec::new();
    let mut emit = |id: &str, text: String, json: Option<String>| {
        for (ext, contents) in [("txt", Some(text)), ("json", json)] {
            let Some(contents) = contents else { continue };
            let name = format!("{id}.{ext}");
            if opts.check {
                kept.push((name, contents));
            } else {
                write_or_exit(&dir.join(&name), &contents);
            }
        }
    };
    emit("table1_config", levioso_bench::config_table().render(), None);
    let figures = gate::shape_figures(&sweep, tier);
    let violations = gate::shape_violations(&figures);
    for v in &violations {
        eprintln!("SHAPE {v}");
    }
    if !opts.check && !violations.is_empty() {
        eprintln!("refusing to write figures that violate shape invariants");
        print_throughput();
        exit(1);
    }
    for (id, f) in &figures {
        // Under --check the figure's JSON is compared cell by cell, within
        // tolerance, instead of byte for byte.
        emit(id, f.render(), (!opts.check).then(|| f.to_json()));
    }
    emit("table2_security", levioso_bench::security_table().render(), None);
    emit("table3_annotation", levioso_bench::annotation_table(&sweep, tier.scale()).render(), None);
    let t4 = levioso_bench::noninterference_report(tier, opts.threads.unwrap_or(0));
    emit("table4_noninterference", t4.render(), Some(t4.to_json()));
    if opts.attrib {
        let report = levioso_bench::attribution_report(&sweep, tier.scale(), &Scheme::HEADLINE);
        let (text, json) = levioso_bench::render_attribution(&report);
        emit("ATTRIB_overhead", text, Some(json));
    }

    let mut failed = false;
    if opts.check {
        let report = gate::check_reports(&figures, &kept, &dir);
        print!("{}", report.render());
        print_cache_summary(true);
        eprintln!(
            "==> checked {} cells and {} files in {:.1}s",
            report.cells_checked,
            report.files_checked,
            start.elapsed().as_secs_f64()
        );
        failed = !report.is_clean() || !violations.is_empty();
    } else {
        print_cache_summary(false);
        eprintln!("==> wrote every report in {:.1}s", start.elapsed().as_secs_f64());
    }
    print_throughput();
    for f in t4.gate_failures() {
        eprintln!("table4_noninterference: {f}");
        failed = true;
    }
    exit(i32::from(failed));
}

/// Prints the perf and the noninterference cell-cache splits, one
/// `sweep-cache:` line each (`scripts/ci.sh` asserts on both), and, when
/// `list_dirty`, exactly which perf cells this run had to recompute: the
/// "what did my core change invalidate" report.
fn print_cache_summary(list_dirty: bool) {
    let perf = cellcache::report();
    println!("{} [perf]", perf.summary(&cellcache::with(|c| c.fingerprint().to_string())));
    let nisec = levioso_nisec::cellcache::report();
    let fingerprint = levioso_nisec::cellcache::with(|c| c.fingerprint().to_string());
    println!("{} [noninterference]", nisec.summary(&fingerprint));
    if !list_dirty || perf.miss_labels.is_empty() {
        return;
    }
    const SHOWN: usize = 24;
    println!("dirty cells recomputed ({}):", perf.miss_labels.len());
    for label in perf.miss_labels.iter().take(SHOWN) {
        println!("  {label}");
    }
    if perf.miss_labels.len() > SHOWN {
        println!("  ... and {} more", perf.miss_labels.len() - SHOWN);
    }
}

/// Prints the `==> sim throughput:` line from the global meter. Its
/// `cells` counts only freshly simulated perf cells, so on a cold run it
/// equals the `[perf]` line's misses.
fn print_throughput() {
    let t = throughput::snapshot();
    eprintln!(
        "==> sim throughput: {} cells, {:.1} simulated Mcycles in {:.1}s busy \
         ({:.0} kilocycles/busy-sec)",
        t.cells,
        t.sim_cycles as f64 / 1e6,
        t.busy_seconds(),
        t.kilocycles_per_busy_sec(),
    );
}
