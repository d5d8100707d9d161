//! `levhist`: trend dashboard and perf-regression sentinel over the run
//! ledger (`results/ledger.jsonl`, `levioso-ledger/1` — see
//! `levioso_support::ledger`).
//!
//! ```text
//! levhist                        # trend table + sparklines per series
//! levhist --json                 # machine-readable trends (scripting)
//! levhist --check                # regression sentinel: robust baseline gate
//! levhist --ledger PATH ...      # read a specific ledger file
//! levhist --inject-regression    # append a synthetically degraded record
//! ```
//!
//! A *series* is one metric restricted to records with the same source,
//! tier, and thread count — only like runs are compared. `--check`
//! judges each series' newest point against the median of the up-to-8
//! points before it with a MAD-scaled tolerance, fails on throughput
//! drops and latency inflations, and names the offending series and
//! ledger lines. Exit codes:
//!
//! * `0` — every judged series is within tolerance;
//! * `1` — at least one series regressed;
//! * `2` — usage error, or the ledger is unreadable/corrupt;
//! * `4` — vacuous: no series had the minimum comparable history, so
//!   the sentinel refuses to claim a pass (a fresh clone must not go
//!   green by having nothing to check).
//!
//! `--inject-regression` exists for CI's negative test: it appends a
//! copy of the newest measurable record with throughput quartered and
//! latencies inflated 8x, so the pipeline can prove the gate actually
//! fires before trusting its green.

use levioso_support::ledger::{
    self, check_series, Direction, Record, Series, SeriesCheck, MIN_SAMPLES,
};
use levioso_support::Json;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

struct Args {
    ledger: PathBuf,
    check: bool,
    json: bool,
    inject: bool,
}

fn usage() -> String {
    "usage: levhist [--ledger PATH] [--json] [--check] [--inject-regression]\n\
     \n  --ledger PATH        ledger file (default: results/ledger.jsonl)\
     \n  --json               print trends as levioso-ledger-trends/1 JSON\
     \n  --check              regression sentinel: exit 1 on a regression, 4 if vacuous\
     \n  --inject-regression  append a degraded copy of the newest measurable record\
     \n                       (CI's negative test; use on a scratch copy of the ledger)"
        .to_string()
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage());
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        ledger: levioso_bench::ledger::ledger_path(),
        check: false,
        json: false,
        inject: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--ledger" => match argv.next() {
                Some(p) if !p.starts_with('-') => args.ledger = PathBuf::from(p),
                _ => usage_error("--ledger needs a path"),
            },
            "--check" => args.check = true,
            "--json" => args.json = true,
            "--inject-regression" => args.inject = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                exit(0);
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if args.check && args.json {
        usage_error("--check and --json are mutually exclusive");
    }
    if args.inject && (args.check || args.json) {
        usage_error("--inject-regression is a write mode; run the check separately");
    }
    args
}

fn main() {
    let args = parse_args();
    if args.inject {
        exit(inject_regression(&args.ledger));
    }
    let records = match ledger::load(&args.ledger) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("levhist: {e}");
            exit(2);
        }
    };
    let series = ledger::series_of(&records);
    if args.check {
        exit(run_check(&args.ledger, records.len(), &series));
    }
    if args.json {
        println!("{}", trends_json(&args.ledger, records.len(), &series).emit_pretty());
        exit(0);
    }
    print!("{}", render_trends(&args.ledger, records.len(), &series));
    exit(0);
}

// ---------------------------------------------------------------------------
// The sentinel
// ---------------------------------------------------------------------------

fn run_check(path: &std::path::Path, records: usize, series: &[Series]) -> i32 {
    println!(
        "LEDGER check {} — {records} record(s), {} series, window median ± \
         clamp({}·MAD, floor..ceiling)",
        path.display(),
        series.len(),
        ledger::MAD_SCALE,
    );
    let mut regressions = 0usize;
    let mut judged = 0usize;
    for s in series {
        match check_series(s) {
            SeriesCheck::Insufficient { have } => {
                println!("LEDGER SKIP {} samples={have} (need {MIN_SAMPLES})", s.key());
            }
            SeriesCheck::Ok { candidate, median, tolerance } => {
                judged += 1;
                println!(
                    "LEDGER OK {} candidate={} median={} tolerance={}",
                    s.key(),
                    fmt(candidate),
                    fmt(median),
                    fmt(tolerance),
                );
            }
            SeriesCheck::Regressed { candidate, median, tolerance, window_lines } => {
                judged += 1;
                regressions += 1;
                let side = match s.direction {
                    Direction::HigherIsBetter => "below",
                    Direction::LowerIsBetter => "above",
                };
                println!(
                    "LEDGER REGRESSION {} candidate={} (ledger line {}) is {side} the \
                     baseline band: median={} tolerance={} from ledger lines {}",
                    s.key(),
                    fmt(candidate.value),
                    candidate.line,
                    fmt(median),
                    fmt(tolerance),
                    window_lines.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
                );
            }
        }
    }
    if regressions > 0 {
        eprintln!("levhist: {regressions} regressed series — see LEDGER REGRESSION lines above");
        return 1;
    }
    if judged == 0 {
        eprintln!(
            "levhist: vacuous check — no series has {MIN_SAMPLES}+ comparable records yet; \
             refusing to report a pass (append more measured runs first)"
        );
        return 4;
    }
    println!("LEDGER PASS {judged} series within tolerance");
    0
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Value formatting: enough precision to read, stable widths to scan.
fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Last-`n` points of a series as a terminal sparkline.
fn sparkline(series: &Series, n: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let points = &series.points[series.points.len().saturating_sub(n)..];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        lo = lo.min(p.value);
        hi = hi.max(p.value);
    }
    points
        .iter()
        .map(|p| {
            if hi <= lo {
                LEVELS[3]
            } else {
                let t = (p.value - lo) / (hi - lo);
                LEVELS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn render_trends(path: &std::path::Path, records: usize, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf trajectory — {} ({records} record(s), {} series)",
        path.display(),
        series.len()
    );
    if series.is_empty() {
        let _ = writeln!(
            out,
            "  (no measurable series yet — run a sweep, e.g. `all --smoke --check --no-cache`)"
        );
        return out;
    }
    let key_width = series.iter().map(|s| s.key().chars().count()).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "  {:key_width$}  {:>4}  {:>10}  {:>10}  trend (last 32)",
        "series", "n", "last", "median"
    );
    for s in series {
        let values: Vec<f64> = s.points.iter().map(|p| p.value).collect();
        let last = *values.last().expect("series_of never emits empty series");
        let _ = writeln!(
            out,
            "  {:key_width$}  {:>4}  {:>10}  {:>10}  {}",
            s.key(),
            s.points.len(),
            fmt(last),
            fmt(ledger::median(&values)),
            sparkline(s, 32),
        );
    }
    out
}

fn trends_json(path: &std::path::Path, records: usize, series: &[Series]) -> Json {
    let series_docs: Vec<Json> = series
        .iter()
        .map(|s| {
            let values: Vec<f64> = s.points.iter().map(|p| p.value).collect();
            let points: Vec<Json> = s
                .points
                .iter()
                .map(|p| {
                    Json::obj([("line", Json::I64(p.line as i64)), ("value", Json::F64(p.value))])
                })
                .collect();
            Json::obj([
                ("metric", Json::str(&s.metric)),
                ("source", Json::str(&s.source)),
                ("tier", Json::str(&s.tier)),
                ("threads", Json::I64(s.threads.min(i64::MAX as u64) as i64)),
                (
                    "direction",
                    Json::str(match s.direction {
                        Direction::HigherIsBetter => "higher_is_better",
                        Direction::LowerIsBetter => "lower_is_better",
                    }),
                ),
                ("checkable", Json::Bool(s.points.len() >= MIN_SAMPLES)),
                ("last", Json::F64(*values.last().expect("non-empty series"))),
                ("median", Json::F64(ledger::median(&values))),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str("levioso-ledger-trends/1")),
        ("ledger", Json::str(path.display().to_string())),
        ("records", Json::I64(records as i64)),
        ("series", Json::Arr(series_docs)),
    ])
}

// ---------------------------------------------------------------------------
// The negative-test injector
// ---------------------------------------------------------------------------

/// Appends a degraded copy of the newest measurable record: throughput
/// quartered, latencies inflated 8x — past the sentinel's tolerance
/// *ceiling* (see `ledger::THROUGHPUT_REL_CEIL`), so however noisy the
/// real history, a healthy sentinel MUST flag it. CI runs this on a
/// scratch copy of the ledger and asserts `--check` goes red.
fn inject_regression(path: &std::path::Path) -> i32 {
    let records = match ledger::load(path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("levhist: {e}");
            return 2;
        }
    };
    let Some(template) = records
        .iter()
        .rev()
        .find(|r| (r.cells > 0 && r.busy_seconds > 0.0) || !r.latency.is_empty())
    else {
        eprintln!("levhist: no measurable record to degrade (every record is cache-warm)");
        return 2;
    };
    let mut degraded: Record = template.clone();
    degraded.kilocycles_per_busy_sec /= 4.0;
    degraded.cells_per_busy_sec /= 4.0;
    // Keep the rates' inputs consistent with the rates themselves.
    degraded.busy_seconds *= 4.0;
    degraded.wall_seconds *= 4.0;
    for (_, summary) in &mut degraded.latency {
        summary.p50_micros = summary.p50_micros.saturating_mul(8);
        summary.p95_micros = summary.p95_micros.saturating_mul(8);
        summary.p99_micros = summary.p99_micros.saturating_mul(8);
    }
    if let Err(e) = ledger::append(path, &degraded) {
        eprintln!("levhist: could not append to {}: {e}", path.display());
        return 2;
    }
    println!(
        "injected a synthetic regression into {} (source={}, tier={}, t{}): \
         throughput quartered, latencies inflated 8x",
        path.display(),
        degraded.source,
        degraded.tier,
        degraded.threads,
    );
    0
}
