//! F5: sensitivity to DRAM latency.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let f = levioso_bench::mem_sweep_figure(
        &opts.sweep(),
        opts.tier.scale(),
        opts.tier.dram_latencies(),
    );
    util::emit(&opts, "fig5_mem_sweep", &f.render(), Some(f.to_json()));
    util::finish(start);
}
