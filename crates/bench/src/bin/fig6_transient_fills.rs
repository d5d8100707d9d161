//! F6 (extension): residual transient cache activity per scheme.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, true);
    let sweep = opts.sweep();
    let f = levioso_bench::transient_fill_figure(&sweep, opts.tier.scale());
    util::emit(&opts, "fig6_transient_fills", &f.render(), Some(f.to_json()));
    util::emit_attrib(&opts, &sweep, "fig6_transient_fills", &levioso_core::Scheme::HEADLINE);
    util::finish(start);
}
