//! T3: annotation cost.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let t = levioso_bench::annotation_table(&opts.sweep(), opts.tier.scale());
    util::emit(&opts, "table3_annotation", &t.render(), None);
    util::finish(start);
}
