//! Traced replays: the program's flows re-driven public call by public
//! call, each call inside a span.
//!
//! Every function here mirrors one program function step for step —
//! [`Replay::run_cell`] is `levioso_bench::run_workload` (and
//! `run_workload_capped`), [`Replay::shape_figures`] is
//! `levioso_bench::gate::shape_figures`, [`Replay::fuzz`] is
//! `levioso_nisec::fuzz` at one thread — so the replay does the same work
//! in the same order and its outputs must equal the program's. The
//! benchmark checks that equality on every traced pass, and
//! `trace.overhead_frac` shows any drift in cost.

use crate::trace::{Call, Tracer};
use levioso_bench::{cellcache, gate, sweep_kernels, throughput, Tier};
use levioso_core::Scheme;
use levioso_nisec::{
    cellcache as nisec_cache, diff, gen_program, gen_secret_pair, CellResult, Divergence, Ev,
    FuzzConfig, FuzzReport, Observer, Recorder, SecretProgram,
};
use levioso_stats::{geomean, Figure};
use levioso_support::pool::UNKNOWN_COST;
use levioso_support::Xoshiro256pp;
use levioso_uarch::{CoreConfig, SimStats, Simulator, SpeculationPolicy};
use levioso_workloads::{suite, Scale, Workload};
use std::collections::HashMap;
use std::time::Instant;

/// What a replay counted besides time.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Sweep or campaign cells the pass ran.
    pub cells: u64,
    /// Distinct programs those cells ran.
    pub programs: u64,
    pub hits: u64,
    pub sim_cycles: u64,
    pub dispatched: u64,
    pub squashed: u64,
    pub policy_delay_cycles: u64,
    /// Simulated cycles per scheme, in `Scheme::ALL` order.
    pub scheme_cycles: [u64; 9],
    pub cells_checked: u64,
    /// Trace events recorded by the nisec observers.
    pub events: u64,
    /// Campaign cells with a divergence under any observer.
    pub leaky_cells: u64,
}

/// A tracer plus the counts and per-scheme run time of the passes it saw.
#[derive(Debug, Default)]
pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    /// `Simulator::run` nanoseconds per scheme, in `Scheme::ALL` order.
    pub scheme_run_ns: [u64; 9],
    next_cell: u32,
}

fn scheme_index(scheme: Scheme) -> usize {
    Scheme::ALL.iter().position(|&s| s == scheme).expect("scheme in Scheme::ALL")
}

/// The cache-key tag of an F7 capped cell (as `levioso_bench` builds it).
fn cap_tag(cap: usize) -> String {
    if cap == usize::MAX {
        "cap=uncapped".to_string()
    } else {
        format!("cap={cap}")
    }
}

type SchemeSeries = Vec<(Scheme, Vec<(String, f64)>)>;

impl Replay {
    /// Reserves `n` consecutive cell ids.
    fn cells(&mut self, n: usize) -> u32 {
        let base = self.next_cell;
        self.next_cell += u32::try_from(n).expect("cell count fits u32");
        base
    }

    fn simulate(
        &mut self,
        cell: u32,
        scheme: Scheme,
        sim: &mut Simulator<'_>,
        policy: &dyn SpeculationPolicy,
    ) -> Result<SimStats, levioso_uarch::SimError> {
        let out = self.tracer.span(Call::SimRun, Some(cell), || sim.run(policy));
        self.scheme_run_ns[scheme_index(scheme)] += self.tracer.last_ns();
        if let Ok(s) = &out {
            let c = &mut self.counts;
            c.sim_cycles += s.cycles;
            c.dispatched += s.dispatched;
            c.squashed += s.squashed;
            c.policy_delay_cycles += s.policy_delay_cycles;
            c.scheme_cycles[scheme_index(scheme)] += s.cycles;
        }
        out
    }

    /// `cellcache::estimate_workload_cost`.
    fn estimate(
        &mut self,
        cell: u32,
        w: &Workload,
        scheme: Scheme,
        config: &CoreConfig,
        tag: &str,
    ) {
        let key = self.tracer.span(Call::WorkloadKey, Some(cell), || {
            cellcache::workload_key(w, scheme.name(), config, tag)
        });
        let cost = self.tracer.span(Call::EstimateCost, Some(cell), || {
            cellcache::with(|c| c.estimate_cost(&key)).unwrap_or(UNKNOWN_COST)
        });
        std::hint::black_box(cost);
    }

    /// `levioso_bench::run_workload`, or `run_workload_capped` when `cap`
    /// is set (Levioso with every dependency set capped).
    ///
    /// # Panics
    ///
    /// Panics like the program does: on a simulation error or a checksum
    /// that differs from the reference interpreter's.
    pub fn run_cell(
        &mut self,
        cell: u32,
        w: &Workload,
        scheme: Scheme,
        config: &CoreConfig,
        cap: Option<usize>,
    ) -> SimStats {
        self.counts.cells += 1;
        let tag = cap.map(cap_tag).unwrap_or_default();
        let key = self.tracer.span(Call::WorkloadKey, Some(cell), || {
            cellcache::workload_key(w, scheme.name(), config, &tag)
        });
        let label = cellcache::workload_label(w, scheme.name(), &tag);
        let doc = self
            .tracer
            .span(Call::Lookup, Some(cell), || cellcache::with(|c| c.lookup(&label, &key)));
        if let Some(stats) = doc.and_then(|doc| cellcache::stats_from_json(&doc)) {
            self.counts.hits += 1;
            return stats;
        }
        let cell_start = Instant::now();
        let mut program = w.program.clone();
        self.tracer.span(Call::Prepare, Some(cell), || scheme.prepare(&mut program));
        if let Some(cap) = cap {
            let full = program.annotations.clone().expect("annotated");
            program.annotations = Some(full.capped(cap));
        }
        let mut sim =
            self.tracer.span(Call::SimNew, Some(cell), || Simulator::new(&program, config.clone()));
        w.apply_memory(&mut sim);
        let stats = self
            .simulate(cell, scheme, &mut sim, scheme.policy().as_ref())
            .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", w.name));
        let got = sim.mem.read_i64(w.checksum_addr);
        let expected =
            self.tracer.span(Call::ExpectedChecksum, Some(cell), || w.expected_checksum());
        assert_eq!(got, expected, "{} under {scheme}: checksum mismatch", w.name);
        let busy = cell_start.elapsed();
        throughput::record(stats.cycles, stats.committed, busy);
        let doc = cellcache::stats_to_json(&stats);
        self.tracer.span(Call::Store, Some(cell), || {
            cellcache::with(|c| c.store(&label, &key, &doc, busy.as_nanos() as u64))
        });
        stats
    }

    fn suite(&mut self, scale: Scale) -> Vec<Workload> {
        self.tracer.span(Call::Suite, None, || suite(scale))
    }

    /// `levioso_bench`'s `grid_runtimes`: every (config, workload, scheme)
    /// cell, costs first, then the cells in order (one thread).
    fn grid_runtimes(
        &mut self,
        workloads: &[Workload],
        schemes: &[Scheme],
        configs: &[CoreConfig],
    ) -> Vec<SchemeSeries> {
        let mut cells: Vec<(usize, usize, Scheme)> = Vec::new();
        for ci in 0..configs.len() {
            for wi in 0..workloads.len() {
                for scheme in std::iter::once(Scheme::Unsafe)
                    .chain(schemes.iter().copied().filter(|&s| s != Scheme::Unsafe))
                {
                    cells.push((ci, wi, scheme));
                }
            }
        }
        let base = self.cells(cells.len());
        for (i, &(ci, wi, scheme)) in (base..).zip(&cells) {
            self.estimate(i, &workloads[wi], scheme, &configs[ci], "");
        }
        let mut index: HashMap<(usize, usize, Scheme), u64> = HashMap::new();
        for (i, &(ci, wi, scheme)) in (base..).zip(&cells) {
            let stats = self.run_cell(i, &workloads[wi], scheme, &configs[ci], None);
            index.insert((ci, wi, scheme), stats.cycles);
        }
        let cycles = |ci: usize, wi: usize, scheme: Scheme| index[&(ci, wi, scheme)] as f64;
        (0..configs.len())
            .map(|ci| {
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

    /// `levioso_bench::normalized_runtimes` on a one-thread sweep.
    pub fn normalized_runtimes(
        &mut self,
        workloads: &[Workload],
        schemes: &[Scheme],
        config: &CoreConfig,
    ) -> SchemeSeries {
        self.counts.programs += workloads.len() as u64;
        self.grid_runtimes(workloads, schemes, std::slice::from_ref(config))
            .pop()
            .expect("one config in, one result out")
    }

    fn overhead_style(&mut self, title: &str, scale: Scale, schemes: &[Scheme]) -> Figure {
        let workloads = self.suite(scale);
        let mut f = Figure::new(title, "slowdown (x)");
        let config = CoreConfig::default();
        for (scheme, points) in self.grid_runtimes(&workloads, schemes, &[config]).remove(0) {
            f.push_series(scheme.name(), points);
        }
        f
    }

    fn motivation_figure(&mut self, scale: Scale) -> Figure {
        let config = CoreConfig::default();
        let workloads = self.suite(scale);
        self.counts.programs += workloads.len() as u64;
        let base = self.cells(workloads.len());
        for (i, w) in (base..).zip(&workloads) {
            self.estimate(i, w, Scheme::Levioso, &config, "");
        }
        let stats: Vec<SimStats> = (base..)
            .zip(&workloads)
            .map(|(i, w)| self.run_cell(i, w, Scheme::Levioso, &config, None))
            .collect();
        let series = |f: fn(&SimStats) -> f64| -> Vec<(String, f64)> {
            workloads.iter().zip(&stats).map(|(w, s)| (w.name.to_string(), f(s))).collect()
        };
        let mut f = Figure::new(
            "F1: how much of the conservative speculation shadow is real?",
            "fraction / cycles per committed instruction",
        );
        f.push_series("shadowed-at-ready (conservative)", series(SimStats::shadowed_fraction));
        f.push_series("true-dep-at-ready (levioso)", series(SimStats::true_dep_fraction));
        f.push_series("wait-cycles (conservative)", series(SimStats::shadow_wait_per_instr));
        f.push_series("wait-cycles (levioso)", series(SimStats::true_wait_per_instr));
        f
    }

    fn sensitivity_figure(
        &mut self,
        scale: Scale,
        title: &str,
        labeled_configs: &[(String, CoreConfig)],
    ) -> Figure {
        let workloads = self.tracer.span(Call::Suite, None, || sweep_kernels(scale));
        let schemes = [Scheme::CommitDelay, Scheme::ExecuteDelay, Scheme::Levioso];
        let configs: Vec<CoreConfig> = labeled_configs.iter().map(|(_, c)| c.clone()).collect();
        let per_config = self.grid_runtimes(&workloads, &schemes, &configs);
        let mut f = Figure::new(title, "slowdown (x)");
        for (si, scheme) in schemes.iter().enumerate() {
            let points = labeled_configs
                .iter()
                .zip(&per_config)
                .map(|((label, _), runtimes)| {
                    (label.clone(), runtimes[si].1.last().expect("geomean row").1)
                })
                .collect();
            f.push_series(scheme.name(), points);
        }
        f
    }

    fn transient_fill_figure(&mut self, scale: Scale) -> Figure {
        let config = CoreConfig::default();
        let workloads = self.suite(scale);
        let cells: Vec<(Scheme, &Workload)> = Scheme::HEADLINE
            .iter()
            .flat_map(|&scheme| workloads.iter().map(move |w| (scheme, w)))
            .collect();
        let base = self.cells(cells.len());
        for (i, &(scheme, w)) in (base..).zip(&cells) {
            self.estimate(i, w, scheme, &config, "");
        }
        let stats: Vec<SimStats> = (base..)
            .zip(&cells)
            .map(|(i, &(s, w))| self.run_cell(i, w, s, &config, None))
            .collect();
        let mut f = Figure::new(
            "F6: transient cache fills per kilo-instruction (residual speculative visibility)",
            "fills / kilo-instruction",
        );
        for (si, scheme) in Scheme::HEADLINE.iter().enumerate() {
            let row = &stats[si * workloads.len()..(si + 1) * workloads.len()];
            let mut points: Vec<(String, f64)> = workloads
                .iter()
                .zip(row)
                .map(|(w, s)| (w.name.to_string(), s.transient_fills_pki()))
                .collect();
            let fills: u64 = row.iter().map(|s| s.transient_fills).sum();
            let commits: u64 = row.iter().map(|s| s.committed).sum();
            let overall = if commits == 0 { 0.0 } else { fills as f64 * 1000.0 / commits as f64 };
            points.push(("overall".to_string(), overall));
            f.push_series(scheme.name(), points);
        }
        f
    }

    fn annotation_cap_figure(&mut self, scale: Scale, caps: &[usize]) -> Figure {
        let config = CoreConfig::default();
        let workloads = self.suite(scale);
        let cells: Vec<(Option<usize>, &Workload)> = workloads
            .iter()
            .map(|w| (None, w))
            .chain(caps.iter().flat_map(|&cap| workloads.iter().map(move |w| (Some(cap), w))))
            .collect();
        let base = self.cells(cells.len());
        for (i, &(cap, w)) in (base..).zip(&cells) {
            match cap {
                None => self.estimate(i, w, Scheme::Unsafe, &config, ""),
                Some(cap) => self.estimate(i, w, Scheme::Levioso, &config, &cap_tag(cap)),
            }
        }
        let cycles: Vec<f64> = (base..)
            .zip(&cells)
            .map(|(i, &(cap, w))| match cap {
                None => self.run_cell(i, w, Scheme::Unsafe, &config, None).cycles as f64,
                Some(_) => self.run_cell(i, w, Scheme::Levioso, &config, cap).cycles as f64,
            })
            .collect();
        let n = workloads.len();
        let mut f = Figure::new(
            "F7: levioso geomean slowdown vs annotation budget (max deps encodable per instruction)",
            "slowdown (x)",
        );
        let points = caps
            .iter()
            .enumerate()
            .map(|(ci, &cap)| {
                let capped = &cycles[n * (ci + 1)..n * (ci + 2)];
                let ratios: Vec<f64> =
                    capped.iter().zip(&cycles[..n]).map(|(c, b)| c / b).collect();
                let label =
                    if cap == usize::MAX { "uncapped".to_string() } else { cap.to_string() };
                (label, geomean(&ratios))
            })
            .collect();
        f.push_series("levioso (capped)", points);
        f
    }

    /// `levioso_bench::gate::shape_figures` on a one-thread sweep.
    pub fn shape_figures(&mut self, tier: Tier) -> Vec<(&'static str, Figure)> {
        let scale = tier.scale();
        let rob: Vec<(String, CoreConfig)> = tier
            .rob_sizes()
            .iter()
            .map(|&rob| (rob.to_string(), CoreConfig::default().with_rob_size(rob)))
            .collect();
        let dram: Vec<(String, CoreConfig)> = tier
            .dram_latencies()
            .iter()
            .map(|&lat| (lat.to_string(), CoreConfig::default().with_dram_latency(lat)))
            .collect();
        vec![
            ("fig1_motivation", self.motivation_figure(scale)),
            (
                "fig2_overhead",
                self.overhead_style(
                    "F2: execution time normalized to the unsafe out-of-order baseline",
                    scale,
                    &Scheme::HEADLINE,
                ),
            ),
            (
                "fig3_ablation",
                self.overhead_style(
                    "F3: Levioso variants (levioso-ctrl-only is UNSOUND; precision bound only)",
                    scale,
                    &[
                        Scheme::Unsafe,
                        Scheme::Levioso,
                        Scheme::LeviosoStatic,
                        Scheme::LeviosoCtrlOnly,
                    ],
                ),
            ),
            (
                "fig4_rob_sweep",
                self.sensitivity_figure(scale, "F4: geomean slowdown vs ROB size", &rob),
            ),
            (
                "fig5_mem_sweep",
                self.sensitivity_figure(scale, "F5: geomean slowdown vs DRAM latency", &dram),
            ),
            ("fig6_transient_fills", self.transient_fill_figure(scale)),
            ("fig7_hint_budget", self.annotation_cap_figure(scale, tier.caps())),
        ]
    }

    /// `gate::check_figures` plus `gate::shape_violations`: the number of
    /// cells checked and the number of failures (drifts plus violations).
    pub fn check_figures(&mut self, figures: &[(&'static str, Figure)], tier: Tier) -> (u64, u64) {
        let report = self.tracer.span(Call::Gate, None, || gate::check_figures(figures, tier));
        let violations = self.tracer.span(Call::Gate, None, || gate::shape_violations(figures));
        self.counts.cells_checked += report.cells_checked as u64;
        (report.cells_checked as u64, (report.drifts.len() + violations.len()) as u64)
    }

    /// `levioso_nisec::cellcache`-backed `fuzz` at one thread.
    ///
    /// # Panics
    ///
    /// Panics like the program does when a scheme fails on a generated
    /// program.
    pub fn fuzz(&mut self, config: &FuzzConfig, schemes: &[Scheme]) -> FuzzReport {
        type CorpusEntry = (SecretProgram, Vec<Vec<(i64, i64)>>);
        let mut master = Xoshiro256pp::seed_from_u64(config.seed);
        let corpus: Vec<CorpusEntry> = (0..config.programs)
            .map(|_| {
                let mut rng = master.split();
                self.tracer.span(Call::GenProgram, None, || {
                    let sp = gen_program(&mut rng);
                    let pairs = (0..config.pairs_per_program)
                        .map(|_| gen_secret_pair(&mut rng, sp.secret_addrs.len()))
                        .collect();
                    (sp, pairs)
                })
            })
            .collect();
        self.counts.programs += config.programs as u64;

        let mut jobs: Vec<(usize, usize, Scheme)> = Vec::new();
        for p in 0..config.programs {
            for pair in 0..config.pairs_per_program {
                for &scheme in schemes {
                    jobs.push((p, pair, scheme));
                }
            }
        }
        let core = CoreConfig::default();
        let base = self.cells(jobs.len());
        let keys: Vec<String> = (base..)
            .zip(&jobs)
            .map(|(i, &(p, pair, scheme))| {
                let (sp, pairs) = &corpus[p];
                self.tracer.span(Call::CellKey, Some(i), || {
                    nisec_cache::cell_key(sp, &pairs[pair], scheme.name(), &core)
                })
            })
            .collect();
        for (i, key) in (base..).zip(&keys) {
            let cost = self.tracer.span(Call::EstimateCost, Some(i), || {
                nisec_cache::with(|c| c.estimate_cost(key)).unwrap_or(UNKNOWN_COST)
            });
            std::hint::black_box(cost);
        }

        let mut results = Vec::with_capacity(jobs.len());
        for ((i, &(p, pair, scheme)), key) in (base..).zip(&jobs).zip(&keys) {
            self.counts.cells += 1;
            let label = nisec_cache::cell_label(scheme.name(), p, pair);
            let doc = self
                .tracer
                .span(Call::Lookup, Some(i), || nisec_cache::with(|c| c.lookup(&label, key)));
            let diverged = match doc.and_then(|doc| nisec_cache::diverged_from_json(&doc)) {
                Some(diverged) => {
                    self.counts.hits += 1;
                    diverged
                }
                None => {
                    let started = Instant::now();
                    let (sp, pairs) = &corpus[p];
                    let [a, b] = self.record_pair(i, sp, &pairs[pair], scheme);
                    self.counts.events += (a.len() + b.len()) as u64;
                    let diverged: Vec<Option<Divergence>> = Observer::ALL
                        .iter()
                        .map(|&o| self.tracer.span(Call::Diff, Some(i), || diff(o, &a, &b)))
                        .collect();
                    let doc = nisec_cache::diverged_to_json(&diverged);
                    let busy = started.elapsed().as_nanos() as u64;
                    self.tracer.span(Call::Store, Some(i), || {
                        nisec_cache::with(|c| c.store(&label, key, &doc, busy))
                    });
                    diverged
                }
            };
            if diverged.iter().any(Option::is_some) {
                self.counts.leaky_cells += 1;
            }
            results.push(CellResult { scheme, program: p, pair, diverged });
        }
        FuzzReport { schemes: schemes.to_vec(), cells: config.cells(), seed: config.seed, results }
    }

    /// The nisec harness's `record_pair`: both runs of one secret pair,
    /// each with a [`Recorder`] attached.
    fn record_pair(
        &mut self,
        cell: u32,
        sp: &SecretProgram,
        secrets: &[(i64, i64)],
        scheme: Scheme,
    ) -> [Vec<Ev>; 2] {
        [0usize, 1].map(|side| {
            let mut program = sp.program.clone();
            self.tracer.span(Call::Prepare, Some(cell), || scheme.prepare(&mut program));
            let mut sim = self
                .tracer
                .span(Call::SimNew, Some(cell), || Simulator::new(&program, CoreConfig::default()));
            for &(addr, v) in &sp.public_mem {
                sim.mem.write_i64(addr, v);
            }
            for (&addr, &(a, b)) in sp.secret_addrs.iter().zip(secrets) {
                sim.mem.write_i64(addr, if side == 0 { a } else { b });
            }
            for &(r, v) in &sp.reg_init {
                sim.set_reg(r, v);
            }
            sim.attach_tracer(Box::new(Recorder::default()));
            self.simulate(cell, scheme, &mut sim, scheme.policy().as_ref()).unwrap_or_else(|e| {
                panic!(
                    "{} diverged on fuzzed program: {e}\n{}",
                    scheme.name(),
                    program.to_asm_string()
                )
            });
            sim.take_tracer()
                .expect("tracer attached above")
                .into_any()
                .downcast::<Recorder>()
                .expect("recorder downcast")
                .events
        })
    }
}
