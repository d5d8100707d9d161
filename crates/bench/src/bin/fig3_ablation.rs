//! F3: Levioso variant ablation.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, true);
    let sweep = opts.sweep();
    let f = levioso_bench::ablation_figure(&sweep, opts.tier.scale());
    util::emit(&opts, "fig3_ablation", &f.render(), Some(f.to_json()));
    util::emit_attrib(
        &opts,
        &sweep,
        "fig3_ablation",
        &[levioso_core::Scheme::Levioso, levioso_core::Scheme::LeviosoStatic],
    );
    util::finish(start);
}
