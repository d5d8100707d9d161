//! F4: sensitivity to reorder-buffer size.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let f =
        levioso_bench::rob_sweep_figure(&opts.sweep(), opts.tier.scale(), opts.tier.rob_sizes());
    util::emit(&opts, "fig4_rob_sweep", &f.render(), Some(f.to_json()));
    util::finish(start);
}
