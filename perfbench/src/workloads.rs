//! The three workloads: what each builds in set-up, what one measured
//! pass calls, how it checks the outputs, and the traced replay of the
//! same pass.

use crate::replay::Replay;
use crate::trace::Call;
use levioso_bench::gate::{self, SHAPE_IDS};
use levioso_bench::{
    ablation_figure, annotation_cap_figure, mem_sweep_figure, motivation_figure,
    normalized_runtimes, overhead_figure, rob_sweep_figure, throughput, transient_fill_figure,
    Sweep, Tier,
};
use levioso_core::Scheme;
use levioso_nisec::{
    assert_pair_low_equivalent, fuzz, gen_program, gen_secret_pair, CellResult, FuzzConfig,
    FuzzReport, Observer, ENFORCED_CLEAN,
};
use levioso_stats::Figure;
use levioso_support::{Rng, Xoshiro256pp};
use levioso_uarch::CoreConfig;
use levioso_workloads::{suite, Scale, Workload as Kernel};
use std::path::PathBuf;

/// The outputs a pass produced, compared between the program and its
/// replay.
#[derive(Debug, PartialEq)]
pub enum Output {
    Series(Vec<(Scheme, Vec<(String, f64)>)>),
    Figures(Vec<(&'static str, Figure)>),
    Campaign(Vec<CellResult>),
}

/// What one pass did.
#[derive(Debug)]
pub struct PassOut {
    /// Cells whose output the pass checked.
    pub attempted: u64,
    /// Cells that failed their check.
    pub failed: u64,
    /// Simulated cycles, when the program reports them.
    pub sim_cycles: Option<u64>,
    pub output: Output,
}

/// What one set-up step did. Only the warm re-check simulates in set-up.
#[derive(Debug, Default)]
pub struct SetupOut {
    pub attempted: u64,
    pub failed: u64,
    pub sim_cycles: u64,
}

/// How a workload's passes use the two cell caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Caching {
    /// Every pass starts from an empty cache.
    Cold,
    /// Passes reuse the cache the last set-up filled.
    Warm,
    /// Both caches disabled, as `--no-cache` runs them.
    Off,
}

/// One benchmark workload. A pass is made of independent parts, each a
/// call of the program's public entry point, which the harness times one
/// by one (README.md, "Steadiness").
pub trait Workload {
    fn caching(&self) -> Caching;
    /// Parts in a pass.
    fn parts(&self) -> usize {
        1
    }
    /// Steps in a set-up, which the harness times one by one.
    fn setup_steps(&self) -> usize {
        1
    }
    /// Runs one step of the set-up, which builds everything up to the
    /// first measured call of a pass.
    fn setup(&mut self, step: usize) -> Result<SetupOut, String>;
    /// Runs one part of a pass and checks its outputs.
    fn pass(&mut self, part: usize) -> PassOut;
    /// The same part, replayed public call by public call.
    fn replay(&mut self, part: usize, r: &mut Replay) -> PassOut;
    /// Cells one part checks (all counted as failed if the part panics).
    fn cells_per_part(&self) -> u64;
    /// Lines of model context printed with the result, from the last
    /// output of every part.
    fn context(&self, _last: &[Output]) -> Vec<String> {
        Vec::new()
    }
}

fn sim_cycles() -> u64 {
    throughput::snapshot().sim_cycles
}

/// The F2 kernels a full-size pass sweeps. The whole suite takes ~30 s
/// per cold grid on a 2-vCPU host; these two keep a pass near 1 s, so a
/// run holds enough passes for a steady estimate. Both inputs overflow
/// the modelled 32 KiB L1. The latency-bound pointer chase costs ~0.2 µs
/// of host time per simulated cycle, the suite's low end; histogram
/// costs ~0.9 µs, the middle of its ~0.2–2.4 µs range.
pub const F2_KERNELS: [&str; 2] = ["pointer_chase", "histogram"];

/// `f2-paper-cold`: the F2 headline grid over paper-scale kernels, cold,
/// one kernel per part.
#[derive(Debug)]
pub struct F2PaperCold {
    scale: Scale,
    kernel_names: Vec<&'static str>,
    golden_path: PathBuf,
    kernels: Vec<Kernel>,
    /// The golden F2 rows of each kernel, geomean row dropped.
    golden: Vec<Figure>,
}

impl F2PaperCold {
    /// Paper scale over [`F2_KERNELS`], or one smoke-scale kernel when
    /// `reduced` (the self-tests).
    pub fn new(reduced: bool) -> Self {
        let (tier, names) = if reduced {
            (Tier::Smoke, vec!["filter_scan"])
        } else {
            (Tier::Paper, F2_KERNELS.to_vec())
        };
        F2PaperCold {
            scale: tier.scale(),
            kernel_names: names,
            golden_path: tier.golden_dir().join("fig2_overhead.json"),
            kernels: Vec::new(),
            golden: Vec::new(),
        }
    }

    /// Checks against another copy of the golden F2 snapshot.
    pub fn with_golden(mut self, path: PathBuf) -> Self {
        self.golden_path = path;
        self
    }

    /// Compares every (scheme, kernel) point of a part with the golden
    /// snapshot within `gate::tolerance("fig2_overhead")`; returns the
    /// failures.
    fn check(&self, part: usize, series: &[(Scheme, Vec<(String, f64)>)]) -> u64 {
        let golden = &self.golden[part];
        let mut fresh = Figure::new(golden.title.clone(), golden.y_label.clone());
        for (scheme, points) in series {
            let rows = points.iter().filter(|(x, _)| x != "geomean").cloned().collect();
            fresh.push_series(scheme.name(), rows);
        }
        let drifts = gate::compare_figure("fig2_overhead", &fresh, golden);
        (drifts.len() as u64).min(self.cells_per_part())
    }
}

impl Workload for F2PaperCold {
    fn caching(&self) -> Caching {
        Caching::Cold
    }

    fn parts(&self) -> usize {
        self.kernel_names.len()
    }

    fn setup(&mut self, _step: usize) -> Result<SetupOut, String> {
        let suite = suite(self.scale);
        self.kernels = self
            .kernel_names
            .iter()
            .map(|name| suite.iter().find(|k| k.name == *name).expect("kernel in suite").clone())
            .collect();
        let text = std::fs::read_to_string(&self.golden_path)
            .map_err(|e| format!("golden {}: {e}", self.golden_path.display()))?;
        let golden = Figure::from_json(&text)
            .map_err(|e| format!("golden {}: {e}", self.golden_path.display()))?;
        self.golden = self
            .kernel_names
            .iter()
            .map(|name| {
                let mut rows = golden.clone();
                for s in &mut rows.series {
                    s.points.retain(|(x, _)| x == name);
                }
                rows
            })
            .collect();
        Ok(SetupOut::default())
    }

    fn pass(&mut self, part: usize) -> PassOut {
        let before = sim_cycles();
        let series = normalized_runtimes(
            &Sweep::new(1),
            &self.kernels[part..=part],
            &Scheme::HEADLINE,
            &CoreConfig::default(),
        );
        let sim = sim_cycles() - before;
        PassOut {
            attempted: self.cells_per_part(),
            failed: self.check(part, &series),
            sim_cycles: Some(sim),
            output: Output::Series(series),
        }
    }

    fn replay(&mut self, part: usize, r: &mut Replay) -> PassOut {
        let series = r.normalized_runtimes(
            &self.kernels[part..=part],
            &Scheme::HEADLINE,
            &CoreConfig::default(),
        );
        let failed = r.tracer.span(Call::Gate, None, || self.check(part, &series));
        r.counts.cells_checked += self.cells_per_part();
        PassOut {
            attempted: self.cells_per_part(),
            failed,
            sim_cycles: None,
            output: Output::Series(series),
        }
    }

    fn cells_per_part(&self) -> u64 {
        Scheme::HEADLINE.len() as u64
    }

    /// The geomean over kernels of each scheme's slowdown.
    fn context(&self, last: &[Output]) -> Vec<String> {
        let overhead = |scheme: Scheme| {
            let slowdowns: Vec<f64> = last
                .iter()
                .filter_map(|out| match out {
                    Output::Series(series) => series.iter().find(|(s, _)| *s == scheme),
                    _ => None,
                })
                .filter_map(|(_, points)| points.first().map(|(_, v)| *v))
                .collect();
            (levioso_stats::geomean(&slowdowns) - 1.0) * 100.0
        };
        let kernels = self.kernel_names.join(", ");
        vec![format!(
            "model context (geomean over {kernels}, not gated): levioso {:+.1}% (paper 23%), \
             execute-delay {:+.1}% (paper 43%), commit-delay {:+.1}% (paper 51%)",
            overhead(Scheme::Levioso),
            overhead(Scheme::ExecuteDelay),
            overhead(Scheme::CommitDelay),
        )]
    }
}

/// `check-smoke-warm`: the smoke-tier golden check, cold in set-up and
/// warm in every measured pass.
#[derive(Debug, Default)]
pub struct CheckSmokeWarm {
    cells_checked: u64,
    /// The cold set-up's figures, one per step so far.
    cold: Vec<(&'static str, Figure)>,
}

/// Set-up steps of `check-smoke-warm`: the seven figures of
/// `gate::shape_figures`, then the check.
const WARM_SETUP_STEPS: usize = SHAPE_IDS.len() + 1;

/// Figure `step` of `gate::shape_figures` at `tier`, built by the same
/// call that function makes, so a set-up can time the figures one by one.
fn shape_figure(step: usize, sweep: &Sweep, tier: Tier) -> (&'static str, Figure) {
    let scale = tier.scale();
    let figure = match step {
        0 => motivation_figure(sweep, scale),
        1 => overhead_figure(sweep, scale),
        2 => ablation_figure(sweep, scale),
        3 => rob_sweep_figure(sweep, scale, tier.rob_sizes()),
        4 => mem_sweep_figure(sweep, scale, tier.dram_latencies()),
        5 => transient_fill_figure(sweep, scale),
        _ => annotation_cap_figure(sweep, scale, tier.caps()),
    };
    (SHAPE_IDS[step], figure)
}

impl CheckSmokeWarm {
    /// `gate::check_figures` plus `gate::shape_violations`.
    fn check(&mut self, figures: &[(&'static str, Figure)]) -> (u64, u64) {
        let report = gate::check_figures(figures, Tier::Smoke);
        let violations = gate::shape_violations(figures);
        self.cells_checked = report.cells_checked as u64;
        (report.cells_checked as u64, (report.drifts.len() + violations.len()) as u64)
    }
}

impl Workload for CheckSmokeWarm {
    fn caching(&self) -> Caching {
        Caching::Warm
    }

    fn setup_steps(&self) -> usize {
        WARM_SETUP_STEPS
    }

    /// One figure of the cold `shape_figures` per step, then the check.
    fn setup(&mut self, step: usize) -> Result<SetupOut, String> {
        if step == 0 {
            self.cold.clear();
        }
        if step < SHAPE_IDS.len() {
            let before = sim_cycles();
            self.cold.push(shape_figure(step, &Sweep::new(1), Tier::Smoke));
            return Ok(SetupOut { sim_cycles: sim_cycles() - before, ..SetupOut::default() });
        }
        let figures = std::mem::take(&mut self.cold);
        let (attempted, failed) = self.check(&figures);
        Ok(SetupOut { attempted, failed: failed.min(attempted), sim_cycles: 0 })
    }

    fn pass(&mut self, _part: usize) -> PassOut {
        let before = sim_cycles();
        let figures = gate::shape_figures(&Sweep::new(1), Tier::Smoke);
        let (attempted, failed) = self.check(&figures);
        PassOut {
            attempted,
            failed: failed.min(attempted),
            sim_cycles: Some(sim_cycles() - before),
            output: Output::Figures(figures),
        }
    }

    fn replay(&mut self, _part: usize, r: &mut Replay) -> PassOut {
        let figures = r.shape_figures(Tier::Smoke);
        let (attempted, failed) = r.check_figures(&figures, Tier::Smoke);
        PassOut {
            attempted,
            failed: failed.min(attempted),
            sim_cycles: None,
            output: Output::Figures(figures),
        }
    }

    fn cells_per_part(&self) -> u64 {
        self.cells_checked.max(1)
    }
}

/// Campaigns in a full-size pass, each of [`NISEC_PROGRAMS`] programs:
/// 288 programs in all, six times the paper tier of
/// `table4_noninterference`. Generated programs differ in cost by 3x, so
/// a pass needs this many for its cost to vary little from seed to seed
/// (README.md, "Steadiness").
/// One program per campaign keeps each timed part near 25 ms, so the
/// calibration unit that follows it sees the same host conditions.
pub const NISEC_PARTS: usize = 288;
/// Programs in one campaign.
pub const NISEC_PROGRAMS: usize = 1;
/// Secret pairs drawn per program, as the smoke and paper tiers draw.
const NISEC_PAIRS: usize = 4;

/// `nisec-fuzz`: noninterference campaigns over every scheme, one per
/// part, each with its own seed drawn from the run's. The gate applies to
/// the whole pass: enforced schemes must stay clean in every part, and
/// unsafe must leak under every observer somewhere in the pass.
#[derive(Debug)]
pub struct NisecFuzz {
    configs: Vec<FuzzConfig>,
    /// The latest results of each part, from the program and from the
    /// replay, for the pass-wide vacuity check.
    results: [Vec<Vec<CellResult>>; 2],
}

impl NisecFuzz {
    /// [`NISEC_PARTS`] campaigns drawn from `seed`, or one of four
    /// programs when `reduced` (the self-tests).
    pub fn new(seed: u64, reduced: bool) -> Self {
        let (parts, programs) = if reduced { (1, 4) } else { (NISEC_PARTS, NISEC_PROGRAMS) };
        let mut seeds = Xoshiro256pp::seed_from_u64(seed);
        let configs = (0..parts)
            .map(|_| FuzzConfig {
                programs,
                pairs_per_program: NISEC_PAIRS,
                seed: seeds.next_u64(),
                threads: 1,
            })
            .collect();
        NisecFuzz { configs, results: [vec![Vec::new(); parts], vec![Vec::new(); parts]] }
    }

    /// Failed cells of one part: every enforced-clean cell that diverged,
    /// and, on the last part, all its cells if unsafe came back clean
    /// under some observer across the whole pass (the gate would be
    /// vacuous there).
    fn check(&mut self, part: usize, report: FuzzReport, replayed: bool) -> (u64, Output) {
        let cells = self.cells_per_part();
        let mut failed = report
            .results
            .iter()
            .filter(|c| {
                ENFORCED_CLEAN.contains(&c.scheme) && c.diverged.iter().any(Option::is_some)
            })
            .count() as u64;
        let output = Output::Campaign(report.results.clone());
        let results = &mut self.results[replayed as usize];
        results[part] = report.results;
        if part + 1 == results.len() {
            let whole = FuzzReport {
                schemes: report.schemes,
                cells: self.configs.iter().map(FuzzConfig::cells).sum(),
                seed: report.seed,
                results: results.concat(),
            };
            // Leaks are counted cell by cell above; any other gate failure
            // is vacuity, which no single cell owns.
            let vacuous = Observer::ALL.iter().any(|&o| whole.leaks(Scheme::Unsafe, o) == 0);
            if vacuous && !whole.gate_failures().is_empty() {
                failed = cells;
            }
        }
        (failed.min(cells), output)
    }
}

impl Workload for NisecFuzz {
    /// Each cold campaign would write one cache file per cell, and deleting
    /// tens of thousands of them per run slows every later file operation
    /// on the host for tens of seconds (README.md, "Steadiness").
    fn caching(&self) -> Caching {
        Caching::Off
    }

    fn parts(&self) -> usize {
        self.configs.len()
    }

    /// Generates the campaigns' corpora the way `fuzz` does and checks
    /// that every secret pair is low-equivalent, so a measured campaign
    /// never runs on an invalid corpus.
    fn setup(&mut self, _step: usize) -> Result<SetupOut, String> {
        for config in &self.configs {
            let mut master = Xoshiro256pp::seed_from_u64(config.seed);
            for _ in 0..config.programs {
                let mut rng = master.split();
                let sp = gen_program(&mut rng);
                for _ in 0..config.pairs_per_program {
                    let pair = gen_secret_pair(&mut rng, sp.secret_addrs.len());
                    assert_pair_low_equivalent(&sp, &pair);
                }
            }
        }
        Ok(SetupOut::default())
    }

    fn pass(&mut self, part: usize) -> PassOut {
        let report = fuzz(&self.configs[part], &Scheme::ALL);
        let (failed, output) = self.check(part, report, false);
        PassOut { attempted: self.cells_per_part(), failed, sim_cycles: None, output }
    }

    fn replay(&mut self, part: usize, r: &mut Replay) -> PassOut {
        let report = r.fuzz(&self.configs[part], &Scheme::ALL);
        let (failed, output) = self.check(part, report, true);
        PassOut { attempted: self.cells_per_part(), failed, sim_cycles: None, output }
    }

    fn cells_per_part(&self) -> u64 {
        (self.configs[0].cells() * Scheme::ALL.len()) as u64
    }
}
