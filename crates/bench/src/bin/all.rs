//! The bench driver: regenerates every figure and table of the evaluation,
//! or gates the current tree against the golden snapshots.
//!
//! ```text
//! all                       # regenerate everything, mirror into results/
//! all --smoke --check       # CI: recompute shape figures, diff vs golden, exit 1 on drift
//! all --paper --bless       # regenerate + record new paper-tier goldens
//! all --threads 8           # size the sweep pool explicitly
//! ```
//!
//! All simulation cells fan out across the sweep pool; results are
//! bit-identical at any thread count. Every mode ends by printing the
//! simulator throughput of the cells it computed to stderr (see
//! `levioso_bench::throughput`).
#[path = "../util.rs"]
mod util;

use levioso_bench::{cellcache, gate, throughput, Sweep, Tier};
use std::time::Instant;

fn main() {
    let opts = util::Opts::parse(true, true);
    let sweep = opts.sweep();
    let tier = opts.tier;
    let start = Instant::now();
    eprintln!(
        "==> {} tier, {} worker thread(s){}",
        tier.name(),
        sweep.threads(),
        if opts.check {
            " — golden regression check"
        } else if opts.bless {
            " — regenerating golden snapshots"
        } else {
            ""
        }
    );

    if opts.check || opts.bless {
        let code = gate_mode(&sweep, tier, opts.check, start);
        print_throughput();
        std::process::exit(code);
    }

    // Full regeneration, report order. Tables first (cheap), then the
    // shape figures (the parallel sweeps).
    let t = levioso_bench::config_table();
    util::emit(&opts, "table1_config", &t.render(), None);
    for (id, f) in gate::shape_figures(&sweep, tier) {
        util::emit(&opts, id, &f.render(), Some(f.to_json()));
    }
    let t = levioso_bench::security_table();
    util::emit(&opts, "table2_security", &t.render(), None);
    let t = levioso_bench::annotation_table(&sweep, tier.scale());
    util::emit(&opts, "table3_annotation", &t.render(), None);
    util::emit_attrib(&opts, &sweep, "overhead", &levioso_core::Scheme::HEADLINE);
    print_cache_summary(false);
    print_throughput();
    eprintln!("==> regenerated everything in {:.1}s", start.elapsed().as_secs_f64());
}

/// Prints the sweep-cache hit/miss split (the line `scripts/ci.sh` asserts
/// on) and, when `list_dirty`, exactly which cells this run had to
/// recompute — the "what did my core change invalidate" report.
fn print_cache_summary(list_dirty: bool) {
    let report = cellcache::report();
    let fingerprint = cellcache::with(|c| c.fingerprint().to_string());
    println!("{}", report.summary(&fingerprint));
    if !list_dirty || report.miss_labels.is_empty() {
        return;
    }
    const SHOWN: usize = 24;
    println!("dirty cells recomputed ({}):", report.miss_labels.len());
    for label in report.miss_labels.iter().take(SHOWN) {
        println!("  {label}");
    }
    if report.miss_labels.len() > SHOWN {
        println!("  ... and {} more", report.miss_labels.len() - SHOWN);
    }
}

/// `--check` / `--bless`: compute the shape figures, then gate or record.
/// Returns the process exit code (the caller still has bookkeeping to do).
fn gate_mode(sweep: &Sweep, tier: Tier, check: bool, start: Instant) -> i32 {
    let figures = gate::shape_figures(sweep, tier);
    let violations = gate::shape_violations(&figures);
    for v in &violations {
        eprintln!("SHAPE {v}");
    }
    if check {
        let report = gate::check_figures(&figures, tier);
        print!("{}", report.render());
        print_cache_summary(true);
        eprintln!(
            "==> checked {} cells in {:.1}s",
            report.cells_checked,
            start.elapsed().as_secs_f64()
        );
        return if report.is_clean() && violations.is_empty() { 0 } else { 1 };
    }
    if !violations.is_empty() {
        eprintln!("refusing to bless snapshots that violate shape invariants");
        return 1;
    }
    match gate::bless_figures(&figures, tier) {
        Ok(paths) => {
            for p in &paths {
                println!("blessed {}", p.display());
            }
            print_cache_summary(false);
            eprintln!(
                "==> recorded {} snapshots in {:.1}s",
                paths.len(),
                start.elapsed().as_secs_f64()
            );
            0
        }
        Err(e) => {
            eprintln!("bless failed: {e}");
            1
        }
    }
}

/// Prints the `==> sim throughput:` line from the global meter
/// (`scripts/perf.sh --ab-trace` reads its cells/busy-sec figure).
fn print_throughput() {
    let t = throughput::snapshot();
    eprintln!(
        "==> sim throughput: {} cells, {:.1} simulated Mcycles in {:.1}s busy \
         ({:.0} kilocycles/busy-sec, {:.2} cells/busy-sec)",
        t.cells,
        t.sim_cycles as f64 / 1e6,
        t.busy_seconds(),
        t.kilocycles_per_busy_sec(),
        t.cells_per_busy_sec(),
    );
}
