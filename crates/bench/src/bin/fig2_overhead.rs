//! F2: the headline overhead comparison (the paper's 51 % / 43 % -> 23 % claim).
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, true);
    let sweep = opts.sweep();
    let f = levioso_bench::overhead_figure(&sweep, opts.tier.scale());
    util::emit(&opts, "fig2_overhead", &f.render(), Some(f.to_json()));
    if !opts.quiet {
        for scheme in [
            levioso_core::Scheme::CommitDelay,
            levioso_core::Scheme::ExecuteDelay,
            levioso_core::Scheme::Levioso,
        ] {
            if let Some(g) = levioso_bench::geomean_of(&f, scheme) {
                println!("geomean overhead {scheme}: {:.1}%", (g - 1.0) * 100.0);
            }
        }
    }
    util::emit_attrib(&opts, &sweep, "fig2_overhead", &levioso_core::Scheme::HEADLINE);
    util::finish(start);
}
