//! F7 (extension): Levioso overhead vs annotation hint budget.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let f =
        levioso_bench::annotation_cap_figure(&opts.sweep(), opts.tier.scale(), opts.tier.caps());
    util::emit(&opts, "fig7_hint_budget", &f.render(), Some(f.to_json()));
    util::finish(start);
}
