//! The repository's benchmark: one workload per process, measured with
//! tracing off, or replayed with a span around every public call.
//!
//! A run repeats measured passes — one caller, one worker thread, a
//! closed loop — until `--seconds` have passed. It times each part of a
//! pass, and each step of a set-up, on its own and follows it with a
//! fixed calibration unit ([`calib`]); `wall_s` sums each part's median
//! time in units and `setup_s` is the median set-up in units, both quoted
//! in seconds at the unit's reference speed. Every part checks its
//! outputs; a part that panics counts all its cells as failed. See
//! README.md for the workloads, the metrics and the layer table.

pub mod calib;
pub mod replay;
pub mod trace;
pub mod workloads;

use calib::Calibration;
use levioso_support::cache::Cache;
use levioso_support::Json;
use replay::Replay;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Call, Layer};
use workloads::{Caching, CheckSmokeWarm, F2PaperCold, NisecFuzz, Output, PassOut, Workload};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The seed later claims are re-checked on; never used while tuning.
pub const HELD_OUT_SEED: u64 = 2024;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["f2-paper-cold", "check-smoke-warm", "nisec-fuzz"];

/// Variables that change the program being measured.
const REFUSED_ENV: [&str; 4] =
    ["LEVIOSO_TRACE", "LEVIOSO_METRICS", "LEVIOSO_THREADS", "LEVIOSO_SCALE"];

/// Passes a full-size run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Set-ups a full-size run of a warm workload makes; each is a cold fill
/// of several seconds. Their median is `setup_s`, which spread twice as
/// much over three fills as over five (README.md, "Steadiness").
const WARM_SETUPS: usize = 5;

/// Set-ups the other workloads make before every pass; each takes a few
/// milliseconds, and a run of long passes would otherwise hold too few.
const SETUPS_PER_PASS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Replay with spans and print the per-layer metrics.
    pub trace: bool,
    /// Small sizes and a single set-up, for the self-tests.
    pub reduced: bool,
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: the cell tally, the metrics, and human-readable lines.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    /// Failed cells over attempted cells.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The value of a metric, if printed.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: one JSON object, printed last.
    pub fn result_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::I64(self.attempted as i64)),
            ("failed", Json::I64(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .emit()
    }

    /// Everything a run prints to standard output, result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "error_rate {} ratio ({} of {} cells failed)\n",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Fails if a variable that changes the measured program is set.
fn check_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let Some(key) = key.to_str() else { continue };
        if REFUSED_ENV.contains(&key) || key.starts_with("LEVIOSO_SWEEP_CACHE") {
            return Err(format!("{key} is set; it changes the program being measured — unset it"));
        }
    }
    Ok(())
}

/// Builds the named workload.
fn workload(opts: &Opts) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload.as_str() {
        "f2-paper-cold" => Box::new(F2PaperCold::new(opts.reduced)),
        "check-smoke-warm" => Box::new(CheckSmokeWarm::default()),
        "nisec-fuzz" => Box::new(NisecFuzz::new(opts.seed, opts.reduced)),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    })
}

/// Points both cell caches at an empty store under `dir`.
pub fn configure_caches(dir: &Path) {
    let fingerprint = levioso_uarch::core_fingerprint();
    levioso_bench::cellcache::configure(Cache::new(dir, fingerprint.clone()));
    levioso_nisec::cellcache::configure(Cache::new(dir, fingerprint));
}

/// Disables both cell caches, as `--no-cache` does.
fn disable_caches() {
    levioso_bench::cellcache::configure(Cache::disabled());
    levioso_nisec::cellcache::configure(Cache::disabled());
}

/// Poisoned lookups both cell caches have counted since configured.
fn poisoned() -> u64 {
    levioso_bench::cellcache::report().poisoned + levioso_nisec::cellcache::report().poisoned
}

/// The run's private cache directories, under `.perfbench-tmp/` in the
/// working directory; removed when the run ends.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let root = Path::new(".perfbench-tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A new empty directory, with both cell caches pointed at it.
    fn fresh(&mut self) -> Result<PathBuf, String> {
        let dir = self.root.join(format!("cache-{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        configure_caches(&dir);
        Ok(dir)
    }

    /// The empty cache a cold pass needs; the other passes keep the caches
    /// as they are.
    fn for_pass(&mut self, caching: Caching) -> Result<Option<PathBuf>, String> {
        match caching {
            Caching::Cold => self.fresh().map(Some),
            Caching::Warm | Caching::Off => Ok(None),
        }
    }

    fn remove(&self, dir: Option<PathBuf>) {
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, turning a panic into `None` (the panic message still goes to
/// standard error).
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs one workload as `opts` asks. `started` is the process start, from
/// which the first set-up is timed.
pub fn run(opts: &Opts, started: Instant) -> Result<Outcome, String> {
    check_env()?;
    let mut w = workload(opts)?;
    run_workload(w.as_mut(), opts, started)
}

/// Runs an already-built workload (the self-tests pass modified ones).
pub fn run_workload(
    w: &mut dyn Workload,
    opts: &Opts,
    started: Instant,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.lines.push(format!(
        "perfbench {} seed={} seconds={} trace={} reduced={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.reduced
    ));
    if opts.workload != "nisec-fuzz" {
        out.lines.push(
            "seed unused: suite kernels are seeded by name and perf cells ignore the sweep seed"
                .to_string(),
        );
    }
    let mut scratch = Scratch::new()?;
    let mut cal = Calibration::default();
    // Every timed call is followed by one calibration unit; the call's time
    // over the unit's is its time in units (README.md, "Steadiness").
    let mut setup_s = Vec::new();
    let mut setup_units = Vec::new();
    let mut setup_rates = Vec::new();
    let mut set_up = |w: &mut dyn Workload, out: &mut Outcome, cal: &mut Calibration| {
        let (mut secs, mut units, mut cycles) = (0.0, 0.0, 0);
        for step in 0..w.setup_steps() {
            let t = if setup_s.is_empty() && step == 0 { started } else { Instant::now() };
            let done = guarded(|| w.setup(step));
            let step_s = t.elapsed().as_secs_f64();
            secs += step_s;
            units += step_s / cal.unit();
            match done {
                Some(Ok(s)) => {
                    out.tally(s.attempted, s.failed);
                    cycles += s.sim_cycles;
                }
                Some(Err(e)) => return Err(e),
                None => out.tally(w.cells_per_part(), w.cells_per_part()),
            }
        }
        if cycles > 0 {
            setup_rates.push(cycles as f64 / 1e3 / (units * calib::REFERENCE_S));
        }
        setup_s.push(secs);
        setup_units.push(units);
        Ok(())
    };

    // A warm workload sets up a few times first and keeps the last cache;
    // the others set up again before every pass, so their set-up samples
    // spread over the whole run like their passes do.
    let caching = w.caching();
    let mut warm_dir = None;
    match caching {
        Caching::Warm => {
            for _ in 0..if opts.reduced || opts.trace { 1 } else { WARM_SETUPS } {
                let dir = scratch.fresh()?;
                set_up(w, &mut out, &mut cal)?;
                if let Some(old) = warm_dir.replace(dir) {
                    let _ = std::fs::remove_dir_all(old);
                }
            }
        }
        Caching::Off => disable_caches(),
        Caching::Cold => {}
    }

    let min_passes = if opts.reduced { 1 } else { MIN_PASSES };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    let parts = w.parts();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); parts];
    let mut units: Vec<Vec<f64>> = vec![Vec::new(); parts];
    let mut traced_units: Vec<Vec<f64>> = vec![Vec::new(); parts];
    let mut part_cycles: Vec<Option<u64>> = vec![None; parts];
    let mut last: Vec<Option<Output>> = (0..parts).map(|_| None).collect();
    let mut replay = Replay::default();
    let mut traced_poisoned = 0;
    let mut passes = 0;
    loop {
        if caching != Caching::Warm {
            for _ in 0..SETUPS_PER_PASS {
                set_up(w, &mut out, &mut cal)?;
            }
        }
        for part in 0..parts {
            let dir = scratch.for_pass(caching)?;
            let t = Instant::now();
            let done = guarded(|| w.pass(part));
            let secs = t.elapsed().as_secs_f64();
            walls[part].push(secs);
            units[part].push(secs / cal.unit());
            match done {
                Some(p) => {
                    out.tally(p.attempted, p.failed);
                    part_cycles[part] = part_cycles[part].or(p.sim_cycles);
                    last[part] = Some(p.output);
                }
                None => out.tally(w.cells_per_part(), w.cells_per_part()),
            }
            scratch.remove(dir);

            if opts.trace {
                let dir = scratch.for_pass(caching)?;
                let poisoned_before = poisoned();
                let root = replay.tracer.begin(Call::Pass, None);
                let done = guarded(|| w.replay(part, &mut replay));
                replay.tracer.unwind_to(root);
                let secs = replay.tracer.spans()[root].duration_ns() as f64 * 1e-9;
                traced_units[part].push(secs / cal.unit());
                traced_poisoned += poisoned() - poisoned_before;
                out.tally_replay(done, last[part].as_ref(), w);
                scratch.remove(dir);
            }
        }
        passes += 1;
        if passes >= min_passes && Instant::now() >= deadline {
            break;
        }
    }

    // A pass in seconds of the reference host: each part's median time in
    // calibration units, summed.
    let calibrated =
        |u: &[Vec<f64>]| -> f64 { u.iter().map(|u| median(u)).sum::<f64>() * calib::REFERENCE_S };
    if opts.trace {
        let overhead = calibrated(&traced_units) / calibrated(&units) - 1.0;
        per_layer(&mut out, &replay, passes, overhead, traced_poisoned);
        return Ok(out);
    }

    // Simulated cycles per pass: from the program's meter, or else from an
    // untimed replay, whose outputs must match the program's.
    let mut cycles = 0;
    for (part, known) in part_cycles.iter().enumerate() {
        cycles += match known {
            Some(c) => *c,
            None => {
                let dir = scratch.for_pass(caching)?;
                let mut check = Replay::default();
                let done = guarded(|| w.replay(part, &mut check));
                out.tally_replay(done, last[part].as_ref(), w);
                scratch.remove(dir);
                check.counts.sim_cycles
            }
        };
    }
    let wall_s = calibrated(&units);
    let sim_kcycles_per_s =
        if cycles > 0 { cycles as f64 / 1e3 / wall_s } else { median_or_zero(&setup_rates) };
    let whole: Vec<f64> = (0..passes).map(|i| walls.iter().map(|t| t[i]).sum()).collect();
    let slowdown: Vec<f64> = cal.samples.iter().map(|s| s / calib::REFERENCE_S).collect();
    out.lines.push(format!(
        "passes {passes} of {parts} part(s); uncalibrated whole passes, s: min {:.4} p25 {:.4} \
         median {:.4} p75 {:.4}; uncalibrated set-ups {} (median {:.6} s)",
        quantile(&whole, 0.0),
        quantile(&whole, 0.25),
        median(&whole),
        quantile(&whole, 0.75),
        setup_s.len(),
        median(&setup_s),
    ));
    out.lines.push(format!(
        "calibration: {} units, host speed vs reference: min {:.3}x median {:.3}x p75 {:.3}x slower",
        slowdown.len(),
        quantile(&slowdown, 0.0),
        median(&slowdown),
        quantile(&slowdown, 0.75),
    ));
    let last: Vec<Output> = last.into_iter().flatten().collect();
    out.lines.extend(w.context(&last));
    out.push("wall_s", wall_s, "s");
    out.push("setup_s", median(&setup_units) * calib::REFERENCE_S, "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("sim_kcycles_per_s", sim_kcycles_per_s, "kcycles/s");
    Ok(out)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

impl Outcome {
    /// Tallies a replayed pass. A replay whose outputs differ from the
    /// program's has drifted from it, and fails every cell it ran.
    fn tally_replay(&mut self, done: Option<PassOut>, program: Option<&Output>, w: &dyn Workload) {
        match done {
            Some(p) if program.is_some_and(|o| *o == p.output) => self.tally(p.attempted, p.failed),
            Some(p) => {
                self.lines.push("replay DRIFT: its outputs differ from the program's".to_string());
                self.tally(p.attempted, p.attempted);
            }
            None => self.tally(w.cells_per_part(), w.cells_per_part()),
        }
    }
}

/// Prints the per-layer metrics of the traced passes (per-pass means) and
/// the conservation check.
fn per_layer(out: &mut Outcome, r: &Replay, passes: usize, overhead: f64, poisoned: u64) {
    let acc = match trace::account(r.tracer.spans()) {
        Ok(acc) => acc,
        Err(e) => {
            out.lines.push(format!("conservation FAILED: {e}"));
            out.tally(1, 1);
            trace::Accounting::default()
        }
    };
    let n = passes as f64;
    let c = &r.counts;
    let per = |x: f64| x / n;
    let s = |call: Call| acc.call_s(call) / n;
    let calls = |call: Call| acc.calls(call) as f64;

    let unattributed = acc.layer_s(Layer::Harness);
    let layers: f64 = Layer::ALL[1..].iter().map(|&l| acc.layer_s(l)).sum();
    let wall = acc.wall_ns as f64 * 1e-9;
    let conserved = acc.conserved();
    out.lines.push(format!(
        "conservation {}: layer self-times {layers:.6} s + unattributed {unattributed:.6} s = \
         traced wall {wall:.6} s over {passes} traced passes",
        if conserved { "ok" } else { "FAILED" },
    ));
    if !conserved {
        out.tally(1, 1);
    }
    for layer in &Layer::ALL[1..] {
        out.lines.push(format!(
            "  {:<16} {:.6} s self per pass",
            layer.name(),
            acc.layer_s(*layer) / n
        ));
    }
    let mut lookups: Vec<f64> = r
        .tracer
        .spans()
        .iter()
        .filter(|sp| sp.call == Call::Lookup)
        .map(|sp| sp.duration_ns() as f64 * 1e-3)
        .collect();
    if lookups.is_empty() {
        lookups.push(0.0);
    }
    out.lines.push(format!(
        "support.cache lookup latency: p50 {:.3} us, p99 {:.3} us over {} samples",
        quantile(&lookups, 0.5),
        quantile(&lookups, 0.99),
        acc.calls(Call::Lookup)
    ));
    out.lines.push("dropped per-layer metrics: none".to_string());

    let run_ns = acc.call_s(Call::SimRun) * 1e9;
    out.push("uarch.run_s", s(Call::SimRun), "s");
    out.push("uarch.new_s", s(Call::SimNew), "s");
    out.push("uarch.ns_per_cycle", ratio(run_ns, c.sim_cycles as f64), "ns");
    out.push("uarch.sim_kcycles", per(c.sim_cycles as f64 / 1e3), "kcycles");
    out.push("uarch.policy_delay_cycles", per(c.policy_delay_cycles as f64), "cycles");
    out.push("uarch.squash_ratio", ratio(c.squashed as f64, c.dispatched as f64), "ratio");
    for (i, scheme) in levioso_core::Scheme::ALL.iter().enumerate() {
        out.push(
            format!("core.{}.ns_per_cycle", scheme.name()),
            ratio(r.scheme_run_ns[i] as f64, c.scheme_cycles[i] as f64),
            "ns",
        );
    }
    out.push("compiler.prepare_s", s(Call::Prepare), "s");
    out.push(
        "compiler.prepares_per_program",
        ratio(calls(Call::Prepare), c.programs as f64),
        "ratio",
    );
    out.push("isa.interp_s", s(Call::ExpectedChecksum), "s");
    out.push(
        "isa.interp_calls_per_kernel",
        ratio(calls(Call::ExpectedChecksum), c.programs as f64),
        "ratio",
    );
    out.push("workloads.suite_s", s(Call::Suite), "s");
    out.push("workloads.suite_calls", per(calls(Call::Suite)), "count");
    out.push("bench.cellcache.key_s", s(Call::WorkloadKey), "s");
    out.push(
        "bench.cellcache.keys_per_cell",
        ratio(calls(Call::WorkloadKey), c.cells as f64),
        "ratio",
    );
    out.push("support.cache.lookup_s", s(Call::Lookup), "s");
    out.push("support.cache.estimate_s", s(Call::EstimateCost), "s");
    out.push("support.cache.store_s", s(Call::Store), "s");
    out.push("support.cache.lookups", per(calls(Call::Lookup)), "count");
    out.push("support.cache.stores", per(calls(Call::Store)), "count");
    out.push("support.cache.poisoned", per(poisoned as f64), "count");
    out.push("support.cache.hit_ratio", ratio(c.hits as f64, calls(Call::Lookup)), "ratio");
    out.push("support.cache.lookup_p50_us", quantile(&lookups, 0.5), "us");
    out.push("support.cache.lookup_p99_us", quantile(&lookups, 0.99), "us");
    out.push("bench.gate.check_s", s(Call::Gate), "s");
    out.push("bench.gate.cells_checked", per(c.cells_checked as f64), "count");
    out.push("nisec.gen_s", s(Call::GenProgram), "s");
    out.push("nisec.cell_key_s", s(Call::CellKey), "s");
    out.push("nisec.diff_s", s(Call::Diff), "s");
    out.push("nisec.events", per(c.events as f64), "count");
    out.push("nisec.events_per_kcycle", ratio(c.events as f64, c.sim_cycles as f64 / 1e3), "ratio");
    out.push("nisec.leaky_cells", per(c.leaky_cells as f64), "count");
    out.push("trace.unattributed_s", unattributed / n, "s");
    out.push("trace.overhead_frac", overhead, "ratio");
    out.push("trace.wall_s", wall / n, "s");
}
