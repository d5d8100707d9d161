//! The two-run noninterference fuzzing driver and its leak gate.
//!
//! For every (program, secret-pair, scheme) cell the driver runs the
//! simulator twice — identical public state, differing secrets — records the
//! full pipeline event stream with a [`Recorder`], projects it through every
//! [`Observer`], and diffs the projections. A divergence is a leak for that
//! observer's contract.
//!
//! The gate enforces two properties at once:
//!
//! * **non-vacuity** — the unsafe baseline must be flagged leaky on at least
//!   one cell for *every* observer; a gate that cannot catch the known-leaky
//!   scheme proves nothing when the secure schemes come back green.
//! * **cleanliness** — every delaying scheme in [`ENFORCED_CLEAN`] must show
//!   zero divergences on every cell and every observer.

use crate::cellcache;
use crate::generator::{gen_program, gen_secret_pair, SecretProgram};
use crate::observer::{diff, Divergence, Observer, Recorder};
use levioso_core::Scheme;
use levioso_isa::Program;
use levioso_stats::{leak_matrix_table, Table};
use levioso_support::pool::UNKNOWN_COST;
use levioso_support::{Cache, Json, Pool, Xoshiro256pp};
use levioso_uarch::{CoreConfig, Simulator};
use std::sync::OnceLock;
use std::time::Instant;

/// Default master seed for the fuzzing campaign (distinct from the bench
/// sweep seed so the two corpora are uncorrelated).
pub const DEFAULT_SEED: u64 = 0x1e71_0600_5eed_2024;

/// Schemes the gate requires to be observation-clean on every cell. The two
/// remaining members of `Scheme::ALL` are informational: `delay-on-miss`
/// (expected clean here — the secret line is never architecturally warm, so
/// its hit-only transient load never returns data) and `levioso-ctrl-only`
/// (the known-unsound ablation).
pub const ENFORCED_CLEAN: [Scheme; 6] = [
    Scheme::Fence,
    Scheme::Stt,
    Scheme::CommitDelay,
    Scheme::ExecuteDelay,
    Scheme::Levioso,
    Scheme::LeviosoStatic,
];

/// Fuzzing campaign shape.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated programs.
    pub programs: usize,
    /// Secret pairs drawn per program (cells = `programs × pairs_per_program`).
    pub pairs_per_program: usize,
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Worker threads (`0` = honor `LEVIOSO_THREADS`, default all cores).
    pub threads: usize,
}

impl FuzzConfig {
    /// Smoke tier: 16 programs × 4 pairs = 64 cells per scheme.
    pub fn smoke(threads: usize) -> Self {
        FuzzConfig { programs: 16, pairs_per_program: 4, seed: DEFAULT_SEED, threads }
    }

    /// Paper tier: 48 programs × 4 pairs = 192 cells per scheme.
    pub fn paper(threads: usize) -> Self {
        FuzzConfig { programs: 48, pairs_per_program: 4, seed: DEFAULT_SEED, threads }
    }

    /// Total cells per scheme.
    pub fn cells(&self) -> usize {
        self.programs * self.pairs_per_program
    }
}

/// Verdicts for one (program, pair, scheme) cell: one optional divergence
/// per observer, in `Observer::ALL` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Scheme run in this cell.
    pub scheme: Scheme,
    /// Program index within the campaign.
    pub program: usize,
    /// Pair index within the program.
    pub pair: usize,
    /// First divergence per observer (`Observer::ALL` order), `None` = clean.
    pub diverged: Vec<Option<Divergence>>,
}

/// The full campaign result: every cell verdict plus the gate logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Schemes fuzzed, in run order.
    pub schemes: Vec<Scheme>,
    /// Cells per scheme.
    pub cells: usize,
    /// Master seed the campaign derived from.
    pub seed: u64,
    /// Per-cell verdicts (cell-major, scheme-minor — deterministic order).
    pub results: Vec<CellResult>,
}

/// Runs both members of one pair under one scheme on `program` (the
/// generated program, prepared for `scheme`) and returns the two recorded
/// event streams.
fn record_pair(
    sp: &SecretProgram,
    program: &Program,
    secrets: &[(i64, i64)],
    scheme: Scheme,
) -> [Vec<crate::observer::Ev>; 2] {
    [0usize, 1].map(|side| {
        let mut sim = Simulator::new(program, CoreConfig::default());
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
        sim.run(scheme.policy().as_ref()).unwrap_or_else(|e| {
            panic!("{} diverged on fuzzed program: {e}\n{}", scheme.name(), program.to_asm_string())
        });
        sim.take_tracer()
            .expect("tracer attached above")
            .into_any()
            .downcast::<Recorder>()
            .expect("recorder downcast")
            .events
    })
}

/// Runs the fuzzing campaign: `config.cells()` cells × `schemes`, two
/// simulations per cell, diffed under every observer.
///
/// Determinism: program and secret-pair generation consume per-program RNG
/// streams split from the master seed *in order, before any worker runs*,
/// and the job list has a fixed order that [`Pool::run_with_costs`]
/// preserves in its results — so the report is identical at any thread
/// count. Cell verdicts are replayed from the [`cellcache`] when a
/// persisted cell matches the generated inputs; divergences round-trip
/// exactly, so warm, cold, and mixed cache campaigns are byte-identical.
///
/// Work done once: each program is annotated once per distinct
/// [`Scheme::flavour`] among `schemes`, by the first cell of that flavour
/// that misses (so a warm campaign annotates nothing), and both runs of
/// every cell of the flavour borrow it. With the cache off, no cell is
/// keyed, labelled or costed: a disabled lookup misses whatever it is
/// asked, and is still made, so the cache report counts every miss.
pub fn fuzz(config: &FuzzConfig, schemes: &[Scheme]) -> FuzzReport {
    /// A generated program plus its secret pairs (one `Vec<(a, b)>` per pair
    /// index, one `(a, b)` per gadget).
    type CorpusEntry = (SecretProgram, Vec<Vec<(i64, i64)>>);
    let mut master = Xoshiro256pp::seed_from_u64(config.seed);
    let corpus: Vec<CorpusEntry> = (0..config.programs)
        .map(|_| {
            let mut rng = master.split();
            let sp = gen_program(&mut rng);
            let pairs = (0..config.pairs_per_program)
                .map(|_| gen_secret_pair(&mut rng, sp.secret_addrs.len()))
                .collect();
            (sp, pairs)
        })
        .collect();

    let mut jobs: Vec<(usize, usize, Scheme)> = Vec::new();
    for p in 0..config.programs {
        for pair in 0..config.pairs_per_program {
            for &scheme in schemes {
                jobs.push((p, pair, scheme));
            }
        }
    }

    // One handle for the whole campaign; clones share the counters.
    let cache = cellcache::with(Cache::clone);
    let core = CoreConfig::default();
    let keys: Vec<String> = if cache.enabled() {
        jobs.iter()
            .map(|&(p, pair, scheme)| {
                let (sp, pairs) = &corpus[p];
                cellcache::cell_key(sp, &pairs[pair], scheme.name(), &core)
            })
            .collect()
    } else {
        Vec::new()
    };
    // Empty with the cache off: every job then costs `UNKNOWN_COST`, which
    // is what a disabled cache estimates.
    let costs: Vec<u64> =
        keys.iter().map(|key| cache.estimate_cost(key).unwrap_or(UNKNOWN_COST)).collect();

    let mut flavours = Vec::new();
    for scheme in schemes {
        if !flavours.contains(&scheme.flavour()) {
            flavours.push(scheme.flavour());
        }
    }
    let prepared: Vec<Vec<OnceLock<Program>>> =
        (0..config.programs).map(|_| flavours.iter().map(|_| OnceLock::new()).collect()).collect();

    let pool = if config.threads == 0 { Pool::from_env() } else { Pool::new(config.threads) };
    let results = pool.run_with_costs(&jobs, &costs, |i, &(p, pair, scheme)| {
        let (key, label) = match keys.get(i) {
            Some(key) => (key.as_str(), cellcache::cell_label(scheme.name(), p, pair)),
            // Cache off: the lookup below only counts the miss.
            None => ("", String::new()),
        };
        if let Some(diverged) =
            cache.lookup(&label, key).and_then(|doc| cellcache::diverged_from_json(&doc))
        {
            return CellResult { scheme, program: p, pair, diverged };
        }
        let started = Instant::now();
        let (sp, pairs) = &corpus[p];
        let flavour = flavours.iter().position(|&f| f == scheme.flavour()).expect("listed above");
        // `sp.program` is un-annotated, so whichever scheme of the flavour
        // gets here first prepares it exactly as the others would.
        let program = prepared[p][flavour].get_or_init(|| {
            let mut program = sp.program.clone();
            scheme.prepare(&mut program);
            program
        });
        // Verdicts are blind to a wrong flavour on the generated programs
        // (every delaying scheme stays clean), so debug builds check it.
        debug_assert!(
            {
                let mut own = sp.program.clone();
                scheme.prepare(&mut own);
                own == *program
            },
            "{} was given a program prepared for another flavour",
            scheme.name()
        );
        let [a, b] = record_pair(sp, program, &pairs[pair], scheme);
        let diverged: Vec<Option<Divergence>> =
            Observer::ALL.iter().map(|&o| diff(o, &a, &b)).collect();
        if cache.enabled() {
            let busy = started.elapsed().as_nanos() as u64;
            cache.store(&label, key, &cellcache::diverged_to_json(&diverged), busy);
        }
        CellResult { scheme, program: p, pair, diverged }
    });

    FuzzReport { schemes: schemes.to_vec(), cells: config.cells(), seed: config.seed, results }
}

impl FuzzReport {
    /// Number of leaky cells for a scheme under one observer.
    pub fn leaks(&self, scheme: Scheme, observer: Observer) -> usize {
        let oi = Observer::ALL.iter().position(|&o| o == observer).expect("known observer");
        self.results.iter().filter(|c| c.scheme == scheme && c.diverged[oi].is_some()).count()
    }

    /// The first leaky cell for a scheme under one observer, if any.
    pub fn first_leak(&self, scheme: Scheme, observer: Observer) -> Option<&CellResult> {
        let oi = Observer::ALL.iter().position(|&o| o == observer).expect("known observer");
        self.results.iter().find(|c| c.scheme == scheme && c.diverged[oi].is_some())
    }

    /// Gate role of a scheme in this report (rendered in the table).
    fn role(scheme: Scheme) -> &'static str {
        if scheme == Scheme::Unsafe {
            "must leak (vacuity check)"
        } else if ENFORCED_CLEAN.contains(&scheme) {
            "must be clean"
        } else {
            "informational"
        }
    }

    /// Every gate violation, rendered as one line each. Empty = gate green.
    ///
    /// Violations are (a) *vacuity*: the unsafe baseline came back clean
    /// under some observer, i.e. the campaign could not have caught a leak
    /// there; (b) *leak*: an [`ENFORCED_CLEAN`] scheme diverged anywhere.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for &observer in &Observer::ALL {
            if self.schemes.contains(&Scheme::Unsafe) && self.leaks(Scheme::Unsafe, observer) == 0 {
                fails.push(format!(
                    "vacuity: unsafe baseline clean under the {observer} observer across all {} \
                     cells — this gate could not catch a real leak",
                    self.cells
                ));
            }
            for &scheme in &ENFORCED_CLEAN {
                if !self.schemes.contains(&scheme) {
                    continue;
                }
                let n = self.leaks(scheme, observer);
                if n > 0 {
                    let cell = self.first_leak(scheme, observer).expect("n > 0");
                    let oi = Observer::ALL.iter().position(|&o| o == observer).expect("known");
                    fails.push(format!(
                        "leak: {} diverged on {n}/{} cells under the {observer} observer; first \
                         at program {} pair {}: {}",
                        scheme.name(),
                        self.cells,
                        cell.program,
                        cell.pair,
                        cell.diverged[oi].as_ref().expect("leaky cell")
                    ));
                }
            }
        }
        fails
    }

    /// The leak matrix as a [`Table`] (one row per scheme, one column per
    /// observer).
    pub fn table(&self) -> Table {
        let observers: Vec<&str> = Observer::ALL.iter().map(|o| o.name()).collect();
        let rows: Vec<levioso_stats::LeakMatrixRow> = self
            .schemes
            .iter()
            .map(|&s| {
                (
                    s.name().to_string(),
                    Self::role(s).to_string(),
                    Observer::ALL.iter().map(|&o| (self.leaks(s, o), self.cells)).collect(),
                )
            })
            .collect();
        leak_matrix_table(
            format!("Table 4: two-run noninterference fuzz, {} cells/scheme", self.cells),
            &observers,
            &rows,
        )
    }

    /// Renders the report: the leak matrix, the unsafe baseline's first
    /// divergence per observer (proof the reporting pipeline works), and the
    /// gate verdict.
    pub fn render(&self) -> String {
        let mut out = self.table().render();
        if self.schemes.contains(&Scheme::Unsafe) {
            for &observer in &Observer::ALL {
                if let Some(cell) = self.first_leak(Scheme::Unsafe, observer) {
                    let oi = Observer::ALL.iter().position(|&o| o == observer).expect("known");
                    out.push_str(&format!(
                        "\nunsafe / {observer}: first divergence at program {} pair {}: {}\n",
                        cell.program,
                        cell.pair,
                        cell.diverged[oi].as_ref().expect("leaky cell")
                    ));
                }
            }
        }
        let fails = self.gate_failures();
        if fails.is_empty() {
            out.push_str("\ngate: PASS (unsafe non-vacuous, all delaying schemes clean)\n");
        } else {
            out.push_str("\ngate: FAIL\n");
            for f in &fails {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out
    }

    /// JSON summary (leak counts per scheme × observer, plus the seed).
    pub fn to_json(&self) -> String {
        let schemes = self
            .schemes
            .iter()
            .map(|&s| {
                Json::obj([
                    ("scheme", Json::str(s.name())),
                    ("role", Json::str(Self::role(s))),
                    (
                        "leaks",
                        Json::obj(
                            Observer::ALL
                                .iter()
                                .map(|&o| (o.name(), Json::I64(self.leaks(s, o) as i64))),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("experiment", Json::str("table4_noninterference")),
            ("seed", Json::str(format!("{:#x}", self.seed))),
            ("cells_per_scheme", Json::I64(self.cells as i64)),
            ("gate_failures", Json::Arr(self.gate_failures().into_iter().map(Json::Str).collect())),
            ("schemes", Json::Arr(schemes)),
        ])
        .emit_pretty()
    }
}
