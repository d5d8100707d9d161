//! F1: conservative speculation shadow vs. true dependencies.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, true);
    let sweep = opts.sweep();
    let f = levioso_bench::motivation_figure(&sweep, opts.tier.scale());
    util::emit(&opts, "fig1_motivation", &f.render(), Some(f.to_json()));
    util::emit_attrib(&opts, &sweep, "fig1_motivation", &[levioso_core::Scheme::Levioso]);
    util::finish(start);
}
