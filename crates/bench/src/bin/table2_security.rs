//! T2: the measured security matrix.
#[path = "../util.rs"]
mod util;

fn main() {
    let start = std::time::Instant::now();
    let opts = util::Opts::parse(false, false);
    let t = levioso_bench::security_table();
    util::emit(&opts, "table2_security", &t.render(), None);
    util::finish(start);
}
