//! # levioso-bench — experiment harnesses for every figure and table
//!
//! One function per experiment of the evaluation (see DESIGN.md §4 for the
//! reconstructed index), called by the `all` binary, which writes each
//! report into `results/`:
//!
//! | id | function | results file |
//! |----|----------|--------------|
//! | T1 | [`config_table`] | `table1_config.txt` |
//! | F1 | [`motivation_figure`] | `fig1_motivation.{txt,json}` |
//! | F2 | [`overhead_figure`] | `fig2_overhead.{txt,json}` |
//! | F3 | [`ablation_figure`] | `fig3_ablation.{txt,json}` |
//! | F4 | [`rob_sweep_figure`] | `fig4_rob_sweep.{txt,json}` |
//! | F5 | [`mem_sweep_figure`] | `fig5_mem_sweep.{txt,json}` |
//! | F6 | [`transient_fill_figure`] | `fig6_transient_fills.{txt,json}` |
//! | F7 | [`annotation_cap_figure`] | `fig7_hint_budget.{txt,json}` |
//! | T2 | [`security_table`] | `table2_security.txt` |
//! | T3 | [`annotation_table`] | `table3_annotation.txt` |
//! | T4 | [`noninterference_report`] | `table4_noninterference.{txt,json}` |
//!
//! Every figure decomposes into independent `(workload, scheme, config)`
//! simulation cells that a [`Sweep`] pool fans out across threads. The
//! simulator is deterministic and the pool returns results in cell order,
//! where aggregation walks them, so the emitted numbers are bit-identical
//! at any thread count.
//!
//! Run everything with `cargo run -p levioso-bench --release --bin all`
//! (`--threads N` to size the pool, `--smoke` for the CI tier, `--check`
//! to gate against the golden results — `results/` itself at the paper
//! tier, `results/golden/smoke/` at smoke; see [`gate`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use levioso_core::Scheme;
use levioso_stats::{geomean, Figure, Table};
use levioso_uarch::{CoreConfig, SimStats, TraceSink};
use levioso_workloads::{suite, Scale, Workload};
use std::collections::HashMap;

pub mod attrib;
pub mod cellcache;
pub mod cli;
pub mod gate;
pub mod throughput;
pub mod trace_export;

pub use attrib::{attribution_report, render_attribution, AttribSink, AttribStats};
pub use gate::Tier;
/// The worker pool every figure builder fans its cells across.
pub use levioso_support::Pool as Sweep;
pub use throughput::Throughput;
pub use trace_export::{validate_chrome_trace, ChromeTraceSink, TraceSummary};

/// Runs one workload under one scheme/config and returns its statistics:
/// one perf cell, replayed bit-identical from the sweep-cell cache or
/// simulated, checked, fed to the [`throughput`] meter and stored (see
/// [`cellcache`]).
///
/// # Panics
///
/// Panics if the simulation fails or the checksum diverges from the
/// reference interpreter — an experiment on wrong results is meaningless.
pub fn run_workload(w: &Workload, scheme: Scheme, config: &CoreConfig) -> SimStats {
    cellcache::run_cell(w, scheme, None, config)
}

/// Runs one workload with `sink` attached and returns the statistics
/// plus the sink (recover a concrete sink via
/// [`TraceSink::into_any`]). Unlike [`run_workload`] this does **not**
/// feed the global throughput meter: traced cells pay for their
/// observers and would skew the perf baseline.
///
/// # Panics
///
/// Panics if the simulation fails or the checksum diverges.
pub fn run_workload_traced(
    w: &Workload,
    scheme: Scheme,
    config: &CoreConfig,
    sink: Box<dyn TraceSink>,
) -> (SimStats, Box<dyn TraceSink>) {
    let mut program = w.program.clone();
    scheme.prepare(&mut program);
    let mut sim = levioso_uarch::Simulator::new(&program, config.clone());
    w.apply_memory(&mut sim);
    sim.attach_tracer(sink);
    let stats = sim
        .run(scheme.policy().as_ref())
        .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", w.name));
    assert_eq!(
        sim.mem.read_i64(w.checksum_addr),
        w.expected_checksum(),
        "{} under {scheme}: checksum mismatch",
        w.name
    );
    let sink = sim.take_tracer().expect("attached above");
    (stats, sink)
}

/// Per-scheme normalized runtime series — the building block of every
/// slowdown figure.
type SchemeSeries = Vec<(Scheme, Vec<(String, f64)>)>;

/// Runs the full `(config × workload × scheme)` grid in parallel and
/// returns, per config, the per-workload execution time normalized to the
/// unsafe baseline with a trailing geomean row — the aggregation every
/// slowdown figure uses.
///
/// Cells are enumerated in a fixed order (configs outermost, then
/// workloads, then the unsafe baseline followed by each non-unsafe
/// scheme), and aggregation walks that same order, so the output is
/// independent of thread count and completion order.
fn grid_runtimes(
    sweep: &Sweep,
    workloads: &[Workload],
    schemes: &[Scheme],
    configs: &[CoreConfig],
) -> Vec<SchemeSeries> {
    let mut cells: Vec<(&Workload, Scheme, &CoreConfig)> = Vec::new();
    let mut index: HashMap<(usize, usize, Scheme), usize> = HashMap::new();
    for (ci, config) in configs.iter().enumerate() {
        for (wi, workload) in workloads.iter().enumerate() {
            for scheme in std::iter::once(Scheme::Unsafe)
                .chain(schemes.iter().copied().filter(|&s| s != Scheme::Unsafe))
            {
                index.insert((ci, wi, scheme), cells.len());
                cells.push((workload, scheme, config));
            }
        }
    }
    let stats = sweep.run(&cells, |_, &(w, scheme, config)| run_workload(w, scheme, config));
    let cycles = |ci: usize, wi: usize, scheme: Scheme| -> f64 {
        stats[index[&(ci, wi, scheme)]].cycles as f64
    };
    configs
        .iter()
        .enumerate()
        .map(|(ci, _)| {
            schemes
                .iter()
                .map(|&scheme| {
                    let mut points: Vec<(String, f64)> = workloads
                        .iter()
                        .enumerate()
                        .map(|(wi, w)| {
                            let b = cycles(ci, wi, Scheme::Unsafe);
                            (w.name.to_string(), cycles(ci, wi, scheme) / b)
                        })
                        .collect();
                    let g = geomean(&points.iter().map(|(_, v)| *v).collect::<Vec<_>>());
                    points.push(("geomean".to_string(), g));
                    (scheme, points)
                })
                .collect()
        })
        .collect()
}

/// Per-workload execution-time normalized to the unsafe baseline for a set
/// of schemes, with a trailing geomean row. Cells run in parallel on
/// `sweep`; the result is identical at any thread count.
pub fn normalized_runtimes(
    sweep: &Sweep,
    workloads: &[Workload],
    schemes: &[Scheme],
    config: &CoreConfig,
) -> SchemeSeries {
    grid_runtimes(sweep, workloads, schemes, std::slice::from_ref(config))
        .pop()
        .expect("one config in, one result out")
}

/// **T1** — the simulated core configuration.
pub fn config_table() -> Table {
    let mut t = Table::new("T1: simulated core configuration", &["parameter", "value"]);
    for (k, v) in CoreConfig::default().table_rows() {
        t.push_row(vec![k, v]);
    }
    t
}

/// **F1** — motivation: conservative speculation shadow vs. true
/// dependencies, per workload (snapshot fractions and mean wait cycles).
pub fn motivation_figure(sweep: &Sweep, scale: Scale) -> Figure {
    let config = CoreConfig::default();
    let workloads = suite(scale);
    let stats = sweep.run(&workloads, |_, w| run_workload(w, Scheme::Levioso, &config));
    let mut shadow_frac = Vec::new();
    let mut true_frac = Vec::new();
    let mut shadow_wait = Vec::new();
    let mut true_wait = Vec::new();
    for (w, s) in workloads.iter().zip(&stats) {
        shadow_frac.push((w.name.to_string(), s.shadowed_fraction()));
        true_frac.push((w.name.to_string(), s.true_dep_fraction()));
        shadow_wait.push((w.name.to_string(), s.shadow_wait_per_instr()));
        true_wait.push((w.name.to_string(), s.true_wait_per_instr()));
    }
    let mut f = Figure::new(
        "F1: how much of the conservative speculation shadow is real?",
        "fraction / cycles per committed instruction",
    );
    f.push_series("shadowed-at-ready (conservative)", shadow_frac);
    f.push_series("true-dep-at-ready (levioso)", true_frac);
    f.push_series("wait-cycles (conservative)", shadow_wait);
    f.push_series("wait-cycles (levioso)", true_wait);
    f
}

/// **F2** — the headline overhead comparison: normalized execution time per
/// workload + geomean for the headline schemes.
pub fn overhead_figure(sweep: &Sweep, scale: Scale) -> Figure {
    let config = CoreConfig::default();
    let workloads = suite(scale);
    let mut f = Figure::new(
        "F2: execution time normalized to the unsafe out-of-order baseline",
        "slowdown (x)",
    );
    for (scheme, points) in normalized_runtimes(sweep, &workloads, &Scheme::HEADLINE, &config) {
        f.push_series(scheme.name(), points);
    }
    f
}

/// **F3** — Levioso ablation: full (hardware dataflow propagation) vs.
/// static (compile-time dataflow closure) vs. control-only (unsound; shown
/// as the precision upper bound).
pub fn ablation_figure(sweep: &Sweep, scale: Scale) -> Figure {
    let config = CoreConfig::default();
    let workloads = suite(scale);
    let schemes = [Scheme::Unsafe, Scheme::Levioso, Scheme::LeviosoStatic, Scheme::LeviosoCtrlOnly];
    let mut f = Figure::new(
        "F3: Levioso variants (levioso-ctrl-only is UNSOUND; precision bound only)",
        "slowdown (x)",
    );
    for (scheme, points) in normalized_runtimes(sweep, &workloads, &schemes, &config) {
        f.push_series(scheme.name(), points);
    }
    f
}

/// The kernels used by the sensitivity sweeps (a representative subset so
/// sweeps stay tractable).
pub fn sweep_kernels(scale: Scale) -> Vec<Workload> {
    suite(scale)
        .into_iter()
        .filter(|w| matches!(w.name, "filter_scan" | "hash_join" | "partition" | "binary_search"))
        .collect()
}

/// Shared shape of the two sensitivity sweeps (F4/F5): geomean slowdown of
/// the comprehensive schemes at each swept configuration. The whole
/// `(config × workload × scheme)` grid runs as one parallel wave.
fn sensitivity_figure(
    sweep: &Sweep,
    scale: Scale,
    title: &str,
    labeled_configs: &[(String, CoreConfig)],
) -> Figure {
    let workloads = sweep_kernels(scale);
    let schemes = [Scheme::CommitDelay, Scheme::ExecuteDelay, Scheme::Levioso];
    let configs: Vec<CoreConfig> = labeled_configs.iter().map(|(_, c)| c.clone()).collect();
    let per_config = grid_runtimes(sweep, &workloads, &schemes, &configs);
    let mut f = Figure::new(title, "slowdown (x)");
    let mut per_scheme: Vec<(Scheme, Vec<(String, f64)>)> =
        schemes.iter().map(|&s| (s, Vec::new())).collect();
    for ((label, _), runtimes) in labeled_configs.iter().zip(&per_config) {
        for (scheme, points) in runtimes {
            let g = points.last().expect("geomean row").1;
            per_scheme
                .iter_mut()
                .find(|(s, _)| s == scheme)
                .expect("scheme present")
                .1
                .push((label.clone(), g));
        }
    }
    for (scheme, points) in per_scheme {
        f.push_series(scheme.name(), points);
    }
    f
}

/// **F4** — sensitivity to reorder-buffer size: geomean slowdown of the
/// comprehensive schemes at each ROB size.
pub fn rob_sweep_figure(sweep: &Sweep, scale: Scale, rob_sizes: &[usize]) -> Figure {
    let configs: Vec<(String, CoreConfig)> = rob_sizes
        .iter()
        .map(|&rob| (rob.to_string(), CoreConfig::default().with_rob_size(rob)))
        .collect();
    sensitivity_figure(sweep, scale, "F4: geomean slowdown vs ROB size", &configs)
}

/// **F5** — sensitivity to memory latency: geomean slowdown of the
/// comprehensive schemes at each DRAM latency.
pub fn mem_sweep_figure(sweep: &Sweep, scale: Scale, dram_latencies: &[u64]) -> Figure {
    let configs: Vec<(String, CoreConfig)> = dram_latencies
        .iter()
        .map(|&lat| (lat.to_string(), CoreConfig::default().with_dram_latency(lat)))
        .collect();
    sensitivity_figure(sweep, scale, "F5: geomean slowdown vs DRAM latency", &configs)
}

/// **T2** — the security matrix: every scheme × every attack, measured by
/// actually running the receiver. (Serial: the matrix lives in
/// `levioso-attacks` and is cheap next to the performance sweeps.)
pub fn security_table() -> Table {
    let mut headers = vec!["scheme", "comprehensive?"];
    headers.extend(levioso_attacks::AttackKind::ALL.iter().map(|k| k.name()));
    let mut t =
        Table::new("T2: security evaluation (LEAK = receiver recovered the secret)", &headers);
    for row in levioso_attacks::security_matrix() {
        let mut cells = vec![
            row.scheme.name().to_string(),
            if row.scheme.comprehensive() { "yes" } else { "no" }.to_string(),
        ];
        cells.extend(row.leaks.iter().map(|&l| if l { "LEAK" } else { "blocked" }.to_string()));
        t.push_row(cells);
    }
    t
}

/// **T3** — annotation cost: static dependency-set sizes and hint bits per
/// workload, for both annotation flavours.
pub fn annotation_table(sweep: &Sweep, scale: Scale) -> Table {
    let mut t = Table::new(
        "T3: annotation cost (control-only / static-dataflow flavours)",
        &[
            "workload",
            "instrs",
            "deps/instr (ctrl)",
            "bits/instr (ctrl)",
            "deps/instr (static)",
            "bits/instr (static)",
            "max deps",
        ],
    );
    let workloads = suite(scale);
    let rows = sweep.run(&workloads, |_, w| {
        let mut ctrl = w.program.clone();
        levioso_compiler::annotate_with(
            &mut ctrl,
            &levioso_compiler::AnnotateConfig { static_dataflow: false },
        );
        let c = ctrl.annotations.as_ref().expect("annotated").cost();
        let mut full = w.program.clone();
        levioso_compiler::annotate_with(
            &mut full,
            &levioso_compiler::AnnotateConfig { static_dataflow: true },
        );
        let s = full.annotations.as_ref().expect("annotated").cost();
        vec![
            w.name.to_string(),
            c.instructions.to_string(),
            format!("{:.2}", c.deps_per_instr()),
            format!("{:.2}", c.bits_per_instr()),
            format!("{:.2}", s.deps_per_instr()),
            format!("{:.2}", s.bits_per_instr()),
            s.max_deps.max(c.max_deps).to_string(),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

/// **F6** (extension) — residual transient cache activity: squashed-
/// instruction fills per kilo-instruction under each headline scheme.
/// Zero for the delay-everything baselines; nonzero-but-benign for Levioso
/// (its performance edge); large for the unprotected core.
pub fn transient_fill_figure(sweep: &Sweep, scale: Scale) -> Figure {
    let config = CoreConfig::default();
    let workloads = suite(scale);
    let cells: Vec<(Scheme, &Workload)> = Scheme::HEADLINE
        .iter()
        .flat_map(|&scheme| workloads.iter().map(move |w| (scheme, w)))
        .collect();
    let stats = sweep.run(&cells, |_, &(scheme, w)| run_workload(w, scheme, &config));
    let mut f = Figure::new(
        "F6: transient cache fills per kilo-instruction (residual speculative visibility)",
        "fills / kilo-instruction",
    );
    let mut cursor = cells.iter().zip(&stats);
    for scheme in Scheme::HEADLINE {
        let mut points: Vec<(String, f64)> = Vec::new();
        let mut total_fills = 0u64;
        let mut total_commits = 0u64;
        for _ in &workloads {
            let (&(cell_scheme, w), s) = cursor.next().expect("cell per (scheme, workload)");
            debug_assert_eq!(cell_scheme, scheme);
            total_fills += s.transient_fills;
            total_commits += s.committed;
            points.push((w.name.to_string(), s.transient_fills_pki()));
        }
        points.push((
            "overall".to_string(),
            if total_commits == 0 {
                0.0
            } else {
                total_fills as f64 * 1000.0 / total_commits as f64
            },
        ));
        f.push_series(scheme.name(), points);
    }
    f
}

/// One F7 cell: Levioso with every dependency set larger than `cap`
/// collapsed to the conservative fallback. Cached under the `cap=` extra
/// tag; same hit/miss/throughput semantics as [`run_workload`].
///
/// # Panics
///
/// Panics if the simulation fails or the checksum diverges.
pub fn run_workload_capped(w: &Workload, cap: usize, config: &CoreConfig) -> SimStats {
    cellcache::run_cell(w, Scheme::Levioso, Some(cap), config)
}

/// **F7** (extension) — annotation hint-budget sweep: geomean slowdown of
/// Levioso when every dependency set larger than the cap collapses to the
/// conservative fallback. Caps model finite ISA hint encodings; `usize::MAX`
/// is the uncapped reference.
pub fn annotation_cap_figure(sweep: &Sweep, scale: Scale, caps: &[usize]) -> Figure {
    let config = CoreConfig::default();
    let workloads = suite(scale);
    // Cell order: all baselines first, then caps × workloads.
    let cells: Vec<(Option<usize>, &Workload)> = workloads
        .iter()
        .map(|w| (None, w))
        .chain(caps.iter().flat_map(|&cap| workloads.iter().map(move |w| (Some(cap), w))))
        .collect();
    let cycles = sweep.run(&cells, |_, &(cap, w)| match cap {
        None => run_workload(w, Scheme::Unsafe, &config).cycles as f64,
        Some(cap) => run_workload_capped(w, cap, &config).cycles as f64,
    });
    let baselines = &cycles[..workloads.len()];
    let mut f = Figure::new(
        "F7: levioso geomean slowdown vs annotation budget (max deps encodable per instruction)",
        "slowdown (x)",
    );
    let mut points = Vec::new();
    for (ci, &cap) in caps.iter().enumerate() {
        let capped = &cycles[workloads.len() * (ci + 1)..workloads.len() * (ci + 2)];
        let ratios: Vec<f64> = capped.iter().zip(baselines).map(|(c, b)| c / b).collect();
        let label = if cap == usize::MAX { "uncapped".to_string() } else { cap.to_string() };
        points.push((label, geomean(&ratios)));
    }
    f.push_series("levioso (capped)", points);
    f
}

/// **T4** — the two-run noninterference fuzzing matrix: every scheme ×
/// every observer contract over seeded program/secret-pair cells (see
/// `levioso-nisec`). `threads = 0` honors `LEVIOSO_THREADS`.
pub fn noninterference_report(tier: Tier, threads: usize) -> levioso_nisec::FuzzReport {
    let config = match tier {
        Tier::Smoke => levioso_nisec::FuzzConfig::smoke(threads),
        Tier::Paper => levioso_nisec::FuzzConfig::paper(threads),
    };
    levioso_nisec::fuzz(&config, &Scheme::ALL)
}

/// Extracts the geomean slowdown of `scheme` from an overhead-style figure.
pub fn geomean_of(figure: &Figure, scheme: Scheme) -> Option<f64> {
    figure
        .series
        .iter()
        .find(|s| s.name == scheme.name())?
        .points
        .iter()
        .find(|(x, _)| x == "geomean")
        .map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_has_all_rows() {
        let t = config_table();
        assert_eq!(t.rows.len(), 7);
        assert!(t.render().contains("ROB"));
    }

    #[test]
    fn t3_reports_all_workloads() {
        let t = annotation_table(&Sweep::new(2), Scale::Smoke);
        assert_eq!(t.rows.len(), 12);
    }

    #[test]
    fn f2_smoke_has_expected_shape() {
        let f = overhead_figure(&Sweep::from_env(), Scale::Smoke);
        assert_eq!(f.series.len(), Scheme::HEADLINE.len());
        let lev = geomean_of(&f, Scheme::Levioso).unwrap();
        let exe = geomean_of(&f, Scheme::ExecuteDelay).unwrap();
        let com = geomean_of(&f, Scheme::CommitDelay).unwrap();
        let fen = geomean_of(&f, Scheme::Fence).unwrap();
        assert!(lev < exe, "levioso {lev:.3} < execute-delay {exe:.3}");
        assert!(exe < com, "execute-delay {exe:.3} < commit-delay {com:.3}");
        // Fence gates *everything* at the same release point execute-delay
        // gates only transmits, so it must cost at least as much. (Its
        // ordering vs commit-delay is workload-dependent.)
        assert!(exe < fen, "execute-delay {exe:.3} < fence {fen:.3}");
        assert!(lev >= 0.99, "slowdowns are >= 1");
    }

    #[test]
    fn run_workload_validates_checksums() {
        let w = suite(Scale::Smoke).remove(0);
        let s = run_workload(&w, Scheme::Levioso, &CoreConfig::default());
        assert!(s.committed > 0);
    }

    #[test]
    fn normalized_runtimes_identical_across_thread_counts() {
        // A deliberately small grid (2 workloads × 2 schemes + baselines)
        // so this stays a unit test; the full-sweep equivalent is the
        // golden regression suite in tests/golden.rs.
        let workloads: Vec<Workload> = suite(Scale::Smoke).into_iter().take(2).collect();
        let schemes = [Scheme::Unsafe, Scheme::DelayOnMiss];
        let config = CoreConfig::default();
        let one = normalized_runtimes(&Sweep::new(1), &workloads, &schemes, &config);
        let four = normalized_runtimes(&Sweep::new(4), &workloads, &schemes, &config);
        let eight = normalized_runtimes(&Sweep::new(8), &workloads, &schemes, &config);
        assert_eq!(one, four, "1-thread vs 4-thread sweep must be bit-identical");
        assert_eq!(one, eight, "1-thread vs 8-thread sweep must be bit-identical");
        // The unsafe series normalizes to exactly 1.0 everywhere.
        assert!(one[0].1.iter().all(|(_, v)| *v == 1.0));
    }
}
