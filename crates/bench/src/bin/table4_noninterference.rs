//! T4: the two-run noninterference fuzzing matrix and its leak gate.
//!
//! Runs every scheme on seeded program × secret-pair cells, diffs the
//! observation streams under every contract observer, and exits nonzero if
//! the gate fails — either a delaying scheme leaked, or the unsafe baseline
//! came back clean (vacuity: the campaign could not have caught a leak).
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let report = levioso_bench::noninterference_report(opts.tier, opts.threads.unwrap_or(0));
    util::emit(&opts, "table4_noninterference", &report.render(), Some(report.to_json()));
    let fingerprint = levioso_nisec::cellcache::with(|c| c.fingerprint().to_string());
    println!("{}", levioso_nisec::cellcache::report().summary(&fingerprint));
    util::finish(start);
    let failures = report.gate_failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("table4_noninterference: {f}");
        }
        std::process::exit(1);
    }
}
