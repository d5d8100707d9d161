//! The golden-snapshot perf-regression gate.
//!
//! The value of this reproduction is its measured *shape* claims
//! (EXPERIMENTS.md): normalized overheads, wait-cycle headroom, crossover
//! orderings. The sweeps are bit-deterministic, so those numbers should
//! never move unless a change means them to. This module pins them:
//!
//! * each tier's golden directory ([`Tier::golden_dir`]) holds one golden
//!   [`Figure`] snapshot per shape figure, regenerated with `all --bless`.
//!   The paper tier's is the committed `results/` itself, so it also
//!   holds every other report `all --paper` writes;
//! * [`check_figures`] compares freshly computed figures against the
//!   snapshots within per-figure declared tolerances and reports every
//!   drifted cell; [`check_reports`] adds the other report files, byte
//!   for byte;
//! * [`shape_violations`] checks the orderings the paper's story rests on
//!   (levioso < execute-delay < commit-delay, zero transient fills for
//!   delaying schemes, monotone hint-budget recovery) directly on the
//!   fresh figures, so even a blessed-but-broken snapshot cannot hide a
//!   shape inversion.
//!
//! Two tiers exist: [`Tier::Paper`] (full problem sizes and sweep grids —
//! the numbers EXPERIMENTS.md quotes) and [`Tier::Smoke`] (reduced
//! cycles and grids, fast enough for every CI run).

use crate::{geomean_of, Sweep};
use levioso_core::Scheme;
use levioso_stats::Figure;
use levioso_workloads::Scale;
use std::fmt;
use std::path::{Path, PathBuf};

/// Sweep tier: problem scale plus the sensitivity-sweep grids, and which
/// golden directory the results are pinned under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reduced cycles and grids; the CI gate. Seconds, not minutes.
    Smoke,
    /// Full problem sizes and grids; the numbers EXPERIMENTS.md quotes.
    Paper,
}

impl Tier {
    /// The workload problem scale this tier simulates.
    pub fn scale(self) -> Scale {
        match self {
            Tier::Smoke => Scale::Smoke,
            Tier::Paper => Scale::Paper,
        }
    }

    /// CLI name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Paper => "paper",
        }
    }

    /// ROB sizes swept by F4 at this tier.
    pub fn rob_sizes(self) -> &'static [usize] {
        match self {
            Tier::Smoke => &[64, 224],
            Tier::Paper => &[64, 128, 224, 352],
        }
    }

    /// DRAM latencies swept by F5 at this tier.
    pub fn dram_latencies(self) -> &'static [u64] {
        match self {
            Tier::Smoke => &[60, 240],
            Tier::Paper => &[60, 120, 240, 480],
        }
    }

    /// Annotation-budget caps swept by F7 at this tier.
    pub fn caps(self) -> &'static [usize] {
        match self {
            Tier::Smoke => &[0, 2, usize::MAX],
            Tier::Paper => &[0, 1, 2, 3, 4, usize::MAX],
        }
    }

    /// Where this tier's golden results live (anchored at the repo root,
    /// so binaries and `cargo test` agree regardless of working
    /// directory): for the paper tier the committed `results/` itself,
    /// every report `all --paper` writes; for the smoke tier
    /// `results/golden/smoke/`, its shape figures.
    pub fn golden_dir(self) -> PathBuf {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        match self {
            Tier::Smoke => results.join("golden/smoke"),
            Tier::Paper => results,
        }
    }
}

/// The stable snapshot ids of every shape figure, in report order: each
/// names its golden file, `<id>.json` in [`Tier::golden_dir`].
pub const SHAPE_IDS: [&str; 7] = [
    "fig1_motivation",
    "fig2_overhead",
    "fig3_ablation",
    "fig4_rob_sweep",
    "fig5_mem_sweep",
    "fig6_transient_fills",
    "fig7_hint_budget",
];

/// Computes every shape figure of the evaluation at `tier`, in report
/// order, labeled with its stable snapshot id (exactly [`SHAPE_IDS`]).
pub fn shape_figures(sweep: &Sweep, tier: Tier) -> Vec<(&'static str, Figure)> {
    let scale = tier.scale();
    let figures = vec![
        ("fig1_motivation", crate::motivation_figure(sweep, scale)),
        ("fig2_overhead", crate::overhead_figure(sweep, scale)),
        ("fig3_ablation", crate::ablation_figure(sweep, scale)),
        ("fig4_rob_sweep", crate::rob_sweep_figure(sweep, scale, tier.rob_sizes())),
        ("fig5_mem_sweep", crate::mem_sweep_figure(sweep, scale, tier.dram_latencies())),
        ("fig6_transient_fills", crate::transient_fill_figure(sweep, scale)),
        ("fig7_hint_budget", crate::annotation_cap_figure(sweep, scale, tier.caps())),
    ];
    debug_assert!(
        figures.iter().map(|(id, _)| *id).eq(SHAPE_IDS),
        "SHAPE_IDS out of sync with shape_figures"
    );
    figures
}

/// Declared relative tolerance for a snapshot id.
///
/// The sweeps are bit-deterministic, so these absorb only float-formatting
/// round-trips (which are exact) plus a safety margin; any genuine change
/// to simulated cycle counts lands orders of magnitude above them.
/// Figures quoted as ratios get the tight default; F1's raw per-instruction
/// means get a slightly looser one because their magnitudes vary more.
pub fn tolerance(id: &str) -> f64 {
    match id {
        "fig1_motivation" => 1e-6,
        _ => 1e-9,
    }
}

/// One reportable difference between fresh results and a golden snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// The documents disagree structurally (missing file/series/point, or
    /// a report file that is not byte-identical) — always fatal,
    /// tolerances don't apply.
    Structure {
        /// Snapshot id (e.g. `fig2_overhead`) or report file name (e.g.
        /// `table3_annotation.txt`).
        figure: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A cell's value moved beyond the declared tolerance.
    Value {
        /// Snapshot id.
        figure: String,
        /// Series name (scheme / metric).
        series: String,
        /// X label (workload / sweep point).
        x: String,
        /// The pinned value.
        golden: f64,
        /// The freshly computed value.
        fresh: f64,
        /// Relative tolerance that was exceeded.
        tol: f64,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Structure { figure, detail } => {
                write!(f, "DRIFT {figure}: {detail}")
            }
            Drift::Value { figure, series, x, golden, fresh, tol } => {
                let denom = golden.abs().max(1.0);
                write!(
                    f,
                    "DRIFT {figure} / {series} @ {x}: golden {golden:.6}, fresh {fresh:.6} \
                     (rel Δ {:+.4}%, tol {:.0e})",
                    (fresh - golden) / denom * 100.0,
                    tol,
                )
            }
        }
    }
}

/// Whether `fresh` matches `golden` within relative tolerance `tol`
/// (relative to `max(1, |golden|)`, so near-zero cells compare absolutely).
fn within(golden: f64, fresh: f64, tol: f64) -> bool {
    (fresh - golden).abs() <= tol * golden.abs().max(1.0)
}

/// Compares a fresh figure against its golden snapshot cell by cell.
pub fn compare_figure(id: &str, fresh: &Figure, golden: &Figure) -> Vec<Drift> {
    let tol = tolerance(id);
    let mut drifts = Vec::new();
    let structure = |detail: String| Drift::Structure { figure: id.to_string(), detail };
    if fresh.title != golden.title {
        drifts.push(structure(format!(
            "title changed: golden `{}`, fresh `{}`",
            golden.title, fresh.title
        )));
    }
    let fresh_names: Vec<&str> = fresh.series.iter().map(|s| s.name.as_str()).collect();
    let golden_names: Vec<&str> = golden.series.iter().map(|s| s.name.as_str()).collect();
    if fresh_names != golden_names {
        drifts.push(structure(format!(
            "series changed: golden {golden_names:?}, fresh {fresh_names:?}"
        )));
        return drifts;
    }
    for (fs, gs) in fresh.series.iter().zip(&golden.series) {
        let fresh_xs: Vec<&str> = fs.points.iter().map(|(x, _)| x.as_str()).collect();
        let golden_xs: Vec<&str> = gs.points.iter().map(|(x, _)| x.as_str()).collect();
        if fresh_xs != golden_xs {
            drifts.push(structure(format!(
                "series `{}` x-labels changed: golden {golden_xs:?}, fresh {fresh_xs:?}",
                fs.name
            )));
            continue;
        }
        for ((x, fv), (_, gv)) in fs.points.iter().zip(&gs.points) {
            if !within(*gv, *fv, tol) {
                drifts.push(Drift::Value {
                    figure: id.to_string(),
                    series: fs.name.clone(),
                    x: x.clone(),
                    golden: *gv,
                    fresh: *fv,
                    tol,
                });
            }
        }
    }
    drifts
}

/// Outcome of a full golden comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Total `(figure, series, x)` cells compared.
    pub cells_checked: usize,
    /// Report files compared byte for byte ([`check_reports`]).
    pub files_checked: usize,
    /// Every difference found, in report order.
    pub drifts: Vec<Drift>,
}

impl CheckReport {
    /// True when nothing drifted.
    pub fn is_clean(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Renders the verdict plus one line per drifted cell.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "golden check OK: {} cells within tolerance, {} files identical\n",
                self.cells_checked, self.files_checked
            ));
        } else {
            out.push_str(&format!(
                "golden check FAILED: {} drift(s) in {} cells and {} files\n",
                self.drifts.len(),
                self.cells_checked,
                self.files_checked
            ));
            for d in &self.drifts {
                out.push_str(&format!("  {d}\n"));
            }
            out.push_str(
                "if the new numbers are intended (documented perf change), regenerate with \
                 `--bless` and commit the tier's golden directory\n",
            );
        }
        out
    }
}

/// Checks freshly computed figures against the tier's golden snapshots.
///
/// A missing or unparsable snapshot file is reported as structural drift,
/// not an error: the gate must fail loudly, never skip silently.
pub fn check_figures(figures: &[(&'static str, Figure)], tier: Tier) -> CheckReport {
    let dir = tier.golden_dir();
    let mut cells_checked = 0;
    let mut drifts = Vec::new();
    for (id, fresh) in figures {
        cells_checked += fresh.series.iter().map(|s| s.points.len()).sum::<usize>();
        let path = dir.join(format!("{id}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                drifts.push(Drift::Structure {
                    figure: id.to_string(),
                    detail: format!(
                        "golden snapshot {} unreadable ({e}); run `--bless` to create it",
                        path.display()
                    ),
                });
                continue;
            }
        };
        let golden = match Figure::from_json(&text) {
            Ok(g) => g,
            Err(e) => {
                drifts.push(Drift::Structure {
                    figure: id.to_string(),
                    detail: format!("golden snapshot {} is not a figure: {e}", path.display()),
                });
                continue;
            }
        };
        drifts.extend(compare_figure(id, fresh, &golden));
    }
    CheckReport { cells_checked, files_checked: 0, drifts }
}

/// Checks a tier's full report set against its golden directory: the
/// figures cell by cell, as [`check_figures`] does, and each of `files`
/// (`(file name, contents)`, the other files `all` writes) byte for byte.
/// A file that differs from its golden copy, or has none, is one
/// [`Drift::Structure`] naming the golden path.
pub fn check_reports(
    figures: &[(&'static str, Figure)],
    files: &[(String, String)],
    tier: Tier,
) -> CheckReport {
    let mut report = check_figures(figures, tier);
    let dir = tier.golden_dir();
    report.files_checked = files.len();
    report.drifts.extend(files.iter().filter_map(|(name, fresh)| file_drift(&dir, name, fresh)));
    report
}

/// The drift of one report file against its golden copy `dir/name`, if any.
fn file_drift(dir: &Path, name: &str, fresh: &str) -> Option<Drift> {
    let path = dir.join(name);
    let detail = match std::fs::read_to_string(&path) {
        Ok(golden) if golden == fresh => return None,
        Ok(golden) => {
            let line = 1 + golden.lines().zip(fresh.lines()).take_while(|(g, f)| g == f).count();
            format!("differs from golden {} at line {line}", path.display())
        }
        Err(e) => format!("golden {} unreadable ({e}); run `--bless` to create it", path.display()),
    };
    Some(Drift::Structure { figure: name.to_string(), detail })
}

/// Writes the figures as the tier's new golden snapshots; returns the
/// paths written. `all --smoke --bless` calls this after refusing figures
/// with a [`shape_violations`] entry; at the paper tier, whose golden is
/// `results/`, `all --bless` writes through its regeneration writer.
pub fn bless_figures(
    figures: &[(&'static str, Figure)],
    tier: Tier,
) -> std::io::Result<Vec<PathBuf>> {
    let dir = tier.golden_dir();
    std::fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    for (id, figure) in figures {
        let path = dir.join(format!("{id}.json"));
        std::fs::write(&path, figure.to_json())?;
        written.push(path);
    }
    Ok(written)
}

fn figure_by_id<'a>(figures: &'a [(&'static str, Figure)], id: &str) -> Option<&'a Figure> {
    figures.iter().find(|(i, _)| *i == id).map(|(_, f)| f)
}

/// Checks the crossover/ordering invariants the paper's story rests on,
/// directly on fresh figures (independent of any snapshot). Returns one
/// human-readable violation per broken invariant; empty means the shape
/// holds.
pub fn shape_violations(figures: &[(&'static str, Figure)]) -> Vec<String> {
    let mut violations = Vec::new();
    fn violated(violations: &mut Vec<String>, cond: bool, msg: String) {
        if !cond {
            violations.push(msg);
        }
    }

    // F2 — the headline ordering: levioso < execute-delay < commit-delay,
    // execute-delay < fence, and nothing beats the unsafe baseline.
    if let Some(f2) = figure_by_id(figures, "fig2_overhead") {
        let g = |scheme| geomean_of(f2, scheme);
        if let (Some(lev), Some(exe), Some(com), Some(fen)) =
            (g(Scheme::Levioso), g(Scheme::ExecuteDelay), g(Scheme::CommitDelay), g(Scheme::Fence))
        {
            violated(
                &mut violations,
                lev < exe,
                format!("F2: levioso {lev:.3} !< execute-delay {exe:.3}"),
            );
            violated(
                &mut violations,
                exe < com,
                format!("F2: execute-delay {exe:.3} !< commit-delay {com:.3}"),
            );
            violated(
                &mut violations,
                exe < fen,
                format!("F2: execute-delay {exe:.3} !< fence {fen:.3}"),
            );
            for s in &f2.series {
                for (x, v) in &s.points {
                    violated(
                        &mut violations,
                        *v >= 0.99,
                        format!("F2: {} @ {x} = {v:.3} beats unsafe", s.name),
                    );
                }
            }
        } else {
            violations.push("F2: headline series missing".to_string());
        }
    } else {
        violations.push("F2: figure missing".to_string());
    }

    // F3 — hardware dataflow propagation is at least as precise as the
    // static closure.
    if let Some(f3) = figure_by_id(figures, "fig3_ablation") {
        match (geomean_of(f3, Scheme::Levioso), geomean_of(f3, Scheme::LeviosoStatic)) {
            (Some(lev), Some(stat)) => violated(
                &mut violations,
                lev <= stat * (1.0 + 1e-9),
                format!("F3: levioso {lev:.3} !<= levioso-static {stat:.3}"),
            ),
            _ => violations.push("F3: ablation series missing".to_string()),
        }
    }

    // F4/F5 — the ordering holds at every swept point (no crossover
    // anywhere in the sensitivity range).
    for id in ["fig4_rob_sweep", "fig5_mem_sweep"] {
        let Some(fig) = figure_by_id(figures, id) else {
            violations.push(format!("{id}: figure missing"));
            continue;
        };
        let series = |name: &str| fig.series.iter().find(|s| s.name == name);
        match (series("levioso"), series("execute-delay"), series("commit-delay")) {
            (Some(lev), Some(exe), Some(com)) => {
                for (((x, l), (_, e)), (_, c)) in
                    lev.points.iter().zip(&exe.points).zip(&com.points)
                {
                    violated(
                        &mut violations,
                        l < e,
                        format!("{id} @ {x}: levioso {l:.3} !< execute-delay {e:.3}"),
                    );
                    violated(
                        &mut violations,
                        e < c,
                        format!("{id} @ {x}: execute-delay {e:.3} !< commit-delay {c:.3}"),
                    );
                }
            }
            _ => violations.push(format!("{id}: sweep series missing")),
        }
    }

    // F6 — delaying schemes leave *zero* residual transient fills; the
    // unprotected core leaves plenty.
    if let Some(f6) = figure_by_id(figures, "fig6_transient_fills") {
        for name in ["fence", "delay-on-miss", "commit-delay", "execute-delay"] {
            if let Some(s) = f6.series.iter().find(|s| s.name == name) {
                for (x, v) in &s.points {
                    violated(
                        &mut violations,
                        *v == 0.0,
                        format!("F6: {name} @ {x} = {v:.3} fills (expected 0)"),
                    );
                }
            } else {
                violations.push(format!("F6: series `{name}` missing"));
            }
        }
        match f6
            .series
            .iter()
            .find(|s| s.name == "unsafe")
            .and_then(|s| s.points.iter().find(|(x, _)| x == "overall"))
        {
            Some((_, v)) => {
                violated(
                    &mut violations,
                    *v > 0.0,
                    format!("F6: unsafe overall = {v:.3} (expected > 0)"),
                );
            }
            None => violations.push("F6: unsafe overall cell missing".to_string()),
        }
    }

    // F7 — more hint budget never hurts: slowdown is non-increasing in the
    // cap, so the uncapped point is the floor and cap 0 the ceiling.
    if let Some(f7) = figure_by_id(figures, "fig7_hint_budget") {
        if let Some(s) = f7.series.first() {
            for pair in s.points.windows(2) {
                let (ref xa, a) = pair[0];
                let (ref xb, b) = pair[1];
                violated(
                    &mut violations,
                    b <= a * (1.0 + 1e-9),
                    format!("F7: slowdown rises from {a:.3} @ {xa} to {b:.3} @ {xb}"),
                );
            }
        } else {
            violations.push("F7: series missing".to_string());
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig(points: &[(&str, f64)]) -> Figure {
        let mut f = Figure::new("t", "y");
        f.push_series("s", points.iter().map(|(x, v)| (x.to_string(), *v)).collect::<Vec<_>>());
        f
    }

    #[test]
    fn identical_figures_do_not_drift() {
        let f = fig(&[("a", 1.0), ("b", 2.5)]);
        assert!(compare_figure("fig2_overhead", &f, &f.clone()).is_empty());
    }

    #[test]
    fn value_drift_is_reported_per_cell() {
        let golden = fig(&[("a", 1.0), ("b", 2.5)]);
        let fresh = fig(&[("a", 1.0), ("b", 2.6)]);
        let drifts = compare_figure("fig2_overhead", &fresh, &golden);
        assert_eq!(drifts.len(), 1);
        match &drifts[0] {
            Drift::Value { series, x, golden, fresh, .. } => {
                assert_eq!((series.as_str(), x.as_str()), ("s", "b"));
                assert_eq!((*golden, *fresh), (2.5, 2.6));
            }
            other => panic!("expected value drift, got {other:?}"),
        }
        let line = drifts[0].to_string();
        assert!(line.contains("fig2_overhead") && line.contains("@ b"), "{line}");
    }

    #[test]
    fn tolerance_absorbs_tiny_noise_only() {
        let golden = fig(&[("a", 1.0)]);
        let within = fig(&[("a", 1.0 + 1e-12)]);
        let beyond = fig(&[("a", 1.0 + 1e-6)]);
        assert!(compare_figure("fig2_overhead", &within, &golden).is_empty());
        assert_eq!(compare_figure("fig2_overhead", &beyond, &golden).len(), 1);
    }

    #[test]
    fn structural_changes_are_fatal() {
        let golden = fig(&[("a", 1.0)]);
        let mut renamed = fig(&[("a", 1.0)]);
        renamed.series[0].name = "other".into();
        let drifts = compare_figure("fig1_motivation", &renamed, &golden);
        assert!(matches!(drifts[0], Drift::Structure { .. }));
        let relabeled = fig(&[("z", 1.0)]);
        let drifts = compare_figure("fig1_motivation", &relabeled, &golden);
        assert!(matches!(drifts[0], Drift::Structure { .. }));
    }

    #[test]
    fn missing_snapshot_reports_drift_not_silence() {
        let figures = vec![("no_such_figure", fig(&[("a", 1.0)]))];
        let report = check_figures(&figures, Tier::Smoke);
        assert_eq!(report.cells_checked, 1);
        let missing = Tier::Smoke.golden_dir().join("no_such_figure.json");
        assert!(!missing.exists());
        match report.drifts.as_slice() {
            [Drift::Structure { figure, detail }] => {
                assert_eq!(figure, "no_such_figure");
                assert!(detail.contains(&missing.display().to_string()), "{detail}");
            }
            other => {
                panic!("expected one structural drift naming {}, got {other:?}", missing.display())
            }
        }
    }

    #[test]
    fn a_differing_or_missing_report_file_is_one_drift_naming_its_path() {
        let dir = levioso_support::TempDir::new(std::env::temp_dir(), "levioso-gate-files");
        let dir = dir.path();
        std::fs::write(dir.join("t3.txt"), "a\nb\nc\n").expect("write golden");
        assert_eq!(file_drift(dir, "t3.txt", "a\nb\nc\n"), None);
        for (name, fresh, says) in
            [("t3.txt", "a\nB\nc\n", "at line 2"), ("t4.json", "{}", "unreadable")]
        {
            let path = dir.join(name).display().to_string();
            match file_drift(dir, name, fresh) {
                Some(Drift::Structure { figure, detail }) => {
                    assert_eq!(figure, name);
                    assert!(detail.contains(&path) && detail.contains(says), "{detail}");
                }
                other => panic!("expected one structural drift naming {path}, got {other:?}"),
            }
        }
    }

    #[test]
    fn tier_grids_are_reduced_for_smoke() {
        assert!(Tier::Smoke.rob_sizes().len() < Tier::Paper.rob_sizes().len());
        assert!(Tier::Smoke.dram_latencies().len() < Tier::Paper.dram_latencies().len());
        assert!(Tier::Smoke.caps().len() < Tier::Paper.caps().len());
        assert_eq!(Tier::Smoke.golden_dir().file_name().unwrap(), "smoke");
    }

    #[test]
    fn every_swept_rob_fits_the_simulator() {
        for tier in [Tier::Smoke, Tier::Paper] {
            for &rob in tier.rob_sizes() {
                assert!(
                    rob <= levioso_uarch::MAX_ROB_SIZE,
                    "{tier:?} sweeps ROB {rob}, above MAX_ROB_SIZE {}",
                    levioso_uarch::MAX_ROB_SIZE
                );
            }
        }
    }

    #[test]
    fn shape_violations_flag_inverted_ordering() {
        // Minimal fig2 with levioso *slower* than commit-delay.
        let mut f2 = Figure::new("F2", "x");
        for (name, g) in [
            ("unsafe", 1.0),
            ("fence", 1.5),
            ("commit-delay", 1.2),
            ("execute-delay", 1.3),
            ("levioso", 1.4),
            ("delay-on-miss", 1.1),
        ] {
            f2.push_series(name, vec![("geomean".to_string(), g)]);
        }
        let violations = shape_violations(&[("fig2_overhead", f2)]);
        assert!(violations.iter().any(|v| v.contains("levioso")), "{violations:?}");
    }
}
