//! Microbenchmarks on the in-tree `levioso-support` wall-clock runner:
//! simulator throughput per scheme (the F2 kernel), the annotation pass,
//! and the hot substrate components.
//!
//! These measure *host* wall-time of the tools themselves; the paper's
//! figures (simulated cycles) come from the `fig*` binaries. Under
//! `cargo bench` each benchmark is sampled with warmup; under `cargo test`
//! every body runs once as a smoke test.

use levioso_core::Scheme;
use levioso_support::bench::{BatchSize, Bench};
use levioso_uarch::{CoreConfig, Simulator};
use levioso_workloads::{suite, Scale};
use std::hint::black_box;

fn scheme_throughput(c: &mut Bench) {
    let workload =
        suite(Scale::Smoke).into_iter().find(|w| w.name == "filter_scan").expect("kernel exists");
    let mut group = c.group("simulate_filter_scan");
    group.sample_size(10);
    for scheme in Scheme::HEADLINE {
        let mut program = workload.program.clone();
        scheme.prepare(&mut program);
        group.bench_function(scheme.name(), |b| {
            b.iter_batched(
                || {
                    let mut sim = Simulator::new(&program, CoreConfig::default());
                    workload.apply_memory(&mut sim);
                    sim
                },
                |mut sim| {
                    black_box(sim.run(scheme.policy().as_ref()).expect("runs"));
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The scheduler core loop in isolation: fixed kernels under one fixed
/// scheme, reported as host wall-clock per simulated megacycle (the number
/// perfbench's `uarch.ns_per_cycle` tracks at sweep granularity; see
/// `perfbench/README.md`). Each kernel leans on one mechanism:
/// `filter_scan` is branch- and load-heavy; `histogram` keeps the store
/// queue full of read-modify-write stores whose addresses wait on loads,
/// so its loads wait parked on an older store instead of being re-decided
/// every cycle; `pointer_chase` waits on one dependent miss at a time, so
/// most of its cycles (78 %) are quiet and jumped over.
fn sim_core_loop(c: &mut Bench) {
    let scheme = Scheme::Levioso;
    let mut group = c.group("sim_core_loop");
    group.sample_size(10);
    for workload in suite(Scale::Smoke)
        .into_iter()
        .filter(|w| matches!(w.name, "filter_scan" | "histogram" | "pointer_chase"))
    {
        let mut program = workload.program.clone();
        scheme.prepare(&mut program);
        // Calibrate: simulated cycles for one run of this fixed cell.
        let sim_cycles = {
            let mut sim = Simulator::new(&program, CoreConfig::default());
            workload.apply_memory(&mut sim);
            sim.run(scheme.policy().as_ref()).expect("runs").cycles
        };
        group.bench_function(workload.name, |b| {
            b.iter_batched(
                || {
                    let mut sim = Simulator::new(&program, CoreConfig::default());
                    workload.apply_memory(&mut sim);
                    sim
                },
                |mut sim| {
                    black_box(sim.run(scheme.policy().as_ref()).expect("runs"));
                },
                BatchSize::LargeInput,
            );
        });
        eprintln!("sim_core_loop/{}: {sim_cycles} simulated cycles per iteration (divide the per-iteration wall time by {:.6} to get wall-clock per simulated megacycle)", workload.name, sim_cycles as f64 / 1.0e6);
    }
    group.finish();
}

fn annotation_pass(c: &mut Bench) {
    let workloads = suite(Scale::Smoke);
    let mut group = c.group("annotate");
    group.sample_size(20);
    for w in workloads.into_iter().take(3) {
        group.bench_function(w.name, |b| {
            b.iter_batched(
                || w.program.clone(),
                |mut p| {
                    levioso_compiler::annotate(&mut p);
                    black_box(p);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn cache_hierarchy(c: &mut Bench) {
    use levioso_uarch::{Hierarchy, HierarchyConfig};
    c.bench_function("hierarchy_access_stream", |b| {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let mut now = 0u64;
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..1024u64 {
                now += 1;
                total += h.access(black_box(i * 64 % (1 << 20)), now);
            }
            black_box(total)
        });
    });
}

fn interpreter_throughput(c: &mut Bench) {
    let workload =
        suite(Scale::Smoke).into_iter().find(|w| w.name == "crc32").expect("kernel exists");
    c.bench_function("interpreter_crc32", |b| {
        b.iter_batched(
            || {
                let mut m = levioso_isa::Machine::new();
                for &(a, v) in &workload.memory {
                    m.mem.write_i64(a, v);
                }
                m
            },
            |mut m| {
                m.run(&workload.program, 100_000_000).expect("halts");
                black_box(m.retired())
            },
            BatchSize::SmallInput,
        );
    });
}

fn dominator_analysis(c: &mut Bench) {
    // A branchy program with many blocks exercises the CFG + postdominator
    // + control-dependence pipeline.
    let source: String = {
        let mut s = String::from("arr a @ 0x100000;\nfn main() {\n let i = 0;\n let x = 0;\n");
        s.push_str(" while (i < 100) {\n");
        for k in 0..40 {
            s.push_str(&format!("  if (a[i] > {k}) {{ x = x + {k}; }}\n"));
        }
        s.push_str("  i = i + 1;\n }\n a[200] = x;\n}\n");
        s
    };
    let program =
        levioso_compiler::levi::compile_unannotated("branchy", &source).expect("compiles");
    c.bench_function("analyze_branchy_cfg", |b| {
        b.iter(|| black_box(levioso_compiler::Analysis::of(black_box(&program))));
    });
}

fn main() {
    let mut bench = Bench::from_args();
    scheme_throughput(&mut bench);
    sim_core_loop(&mut bench);
    annotation_pass(&mut bench);
    cache_hierarchy(&mut bench);
    interpreter_throughput(&mut bench);
    dominator_analysis(&mut bench);
    bench.finish();
}
