//! T1: print the simulated core configuration.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let t = levioso_bench::config_table();
    util::emit(&opts, "table1_config", &t.render(), None);
    util::finish(start);
}
