//! The append-only run ledger behind `results/ledger.jsonl`.
//!
//! Every other results artifact in this repo is *overwritten* on each
//! run: `BENCH_sim_throughput.json` keeps one frozen `baseline`,
//! `METRICS_run.json` keeps only the last snapshot. The ledger is the
//! longitudinal complement — one `levioso-ledger/1` JSON line per run,
//! appended and never rewritten, so the perf trajectory (throughput,
//! cache splits, per-rule attribution) is a machine-readable series
//! rather than a point-in-time snapshot. The `levhist` binary renders it
//! and gates on it (see [`check_series`]).
//!
//! ## Records written by the removed warm server
//!
//! Older ledgers also hold `source: serve` records, appended by a warm
//! sweep server this repository no longer has. They carry per-selector
//! request-latency digests ([`LatencySummary`]) and a nonzero in-memory
//! hit count ([`CacheTotals::l1_hits`]). The format keeps both fields so
//! that history still loads and its latency series still render and
//! gate; new records write `latency` as `{}` and `l1_hits` as 0.
//!
//! ## Append atomicity
//!
//! JSONL has no in-place atomic append on POSIX short of `O_APPEND`
//! bookkeeping; instead [`append`] uses tmp+rename: read the existing
//! file, add one line, write the whole thing to a unique
//! `.tmp-<pid>-<seq>` sibling, `rename` over the original. A reader
//! therefore always sees a complete file — either without or with the
//! new record, never a torn line. The ledger assumes a single writer at
//! a time (runs are sequential); concurrent writers would lose one
//! record, not corrupt the file.
//!
//! ## The regression sentinel's robust baseline
//!
//! A fixed "golden number" baseline rots (hosts differ) and a
//! latest-vs-previous diff is noise-bound. [`check_series`] instead
//! compares the newest point of each series against the **median** of
//! the up-to-[`BASELINE_WINDOW`] points before it, with a tolerance of
//! `clamp(MAD_SCALE * MAD, rel_floor * median, rel_ceil * median)` —
//! the median absolute deviation scales the tolerance to the series'
//! own observed host noise, the relative floor keeps a perfectly quiet
//! history from flagging sub-percent wobble, and the relative ceiling
//! keeps a very noisy history from excusing arbitrarily large losses
//! (observed noise never justifies waving through a halving). A series
//! with fewer than
//! [`MIN_SAMPLES`] points is *skipped*, and a check in which every
//! series was skipped must be reported as vacuous by the caller
//! (`levhist --check` exits nonzero) so a fresh clone cannot pass by
//! having no history.

use crate::json::Json;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema tag every ledger record carries.
pub const SCHEMA: &str = "levioso-ledger/1";

/// Minimum points a series needs (newest included) before the sentinel
/// will judge it; below this it is skipped, and a check where *every*
/// series is skipped is vacuous.
pub const MIN_SAMPLES: usize = 3;

/// Baseline window: the newest point is compared against the median of
/// at most this many points before it.
pub const BASELINE_WINDOW: usize = 8;

/// Tolerance multiplier on the window's median absolute deviation.
pub const MAD_SCALE: f64 = 5.0;

/// Relative tolerance floor for higher-is-better (throughput) series.
/// Back-to-back smoke-tier runs on the same machine show ~20% swings
/// (frequency scaling, co-scheduled load), so the floor sits well above
/// that while still catching the halvings real algorithmic regressions
/// produce; long quiet histories tighten the band via the MAD term.
pub const THROUGHPUT_REL_FLOOR: f64 = 0.35;

/// Relative tolerance ceiling for throughput series: however noisy the
/// window, losing half the throughput always trips the sentinel. This
/// is what makes the injected negative test (`levhist
/// --inject-regression`, which quarters throughput) deterministic.
pub const THROUGHPUT_REL_CEIL: f64 = 0.5;

/// Relative tolerance floor for lower-is-better (latency) series, which
/// only records from the removed warm server carry. Wider than the
/// throughput floor: their latencies are log2 histogram upper bounds,
/// whose quantization alone is a 2x step.
pub const LATENCY_REL_FLOOR: f64 = 1.0;

/// Relative tolerance ceiling for latency series: a 3x inflation of the
/// baseline median always trips, whatever the observed noise.
pub const LATENCY_REL_CEIL: f64 = 2.0;

/// Per-selector request-latency digest carried by the `source: serve`
/// records of the removed warm server. Still parsed, re-emitted and
/// turned into series so that older ledgers load and gate unchanged; no
/// current writer produces one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Requests recorded for this selector.
    pub count: u64,
    /// Median request wall-clock, in microseconds (histogram upper bound).
    pub p50_micros: u64,
    /// 95th-percentile request wall-clock, in microseconds.
    pub p95_micros: u64,
    /// 99th-percentile request wall-clock, in microseconds.
    pub p99_micros: u64,
}

impl LatencySummary {
    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::Str(self.count.to_string())),
            ("p50_micros", Json::Str(self.p50_micros.to_string())),
            ("p95_micros", Json::Str(self.p95_micros.to_string())),
            ("p99_micros", Json::Str(self.p99_micros.to_string())),
        ])
    }

    fn from_json(v: &Json) -> Option<LatencySummary> {
        let f = |k: &str| v.get(k)?.as_str()?.parse::<u64>().ok();
        Some(LatencySummary {
            count: f("count")?,
            p50_micros: f("p50_micros")?,
            p95_micros: f("p95_micros")?,
            p99_micros: f("p99_micros")?,
        })
    }
}

/// Cumulative cache-tier totals at the end of the run (both cell caches
/// combined, the same split the `run-summary:` line prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTotals {
    /// Hits from the removed warm server's in-memory tier: nonzero only
    /// in its `source: serve` records, written as 0 by current runs.
    pub l1_hits: u64,
    /// On-disk cell-cache hits.
    pub l2_hits: u64,
    /// Cells that had to be computed.
    pub misses: u64,
    /// Poisoned (integrity-failed, healed) cache entries.
    pub poisoned: u64,
}

/// One blamed-cycle total from the delay-attribution report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttribTotal {
    /// Scheme the cycles were attributed under.
    pub scheme: String,
    /// Attribution rule name (e.g. `levioso:true-dep`).
    pub rule: String,
    /// Blamed cycles.
    pub cycles: u64,
}

/// One run, as one ledger line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    /// What appended this record: a binary name (`fig2_overhead`, `all`),
    /// or `serve` in records the removed warm server wrote at shutdown.
    pub source: String,
    /// The `CORE_REV` fingerprint of the simulator that ran.
    pub fingerprint: String,
    /// Sweep tier (`smoke`/`paper`).
    pub tier: String,
    /// Worker threads the sweep pool ran with.
    pub threads: u64,
    /// End-to-end wall clock of the run, seconds.
    pub wall_seconds: f64,
    /// Freshly simulated cells (cache hits excluded by construction).
    pub cells: u64,
    /// Total simulated cycles across those cells.
    pub sim_cycles: u64,
    /// Total retired instructions across those cells.
    pub retired_instrs: u64,
    /// Host busy seconds spent inside cell simulations.
    pub busy_seconds: f64,
    /// Headline simulator throughput (zero when `cells == 0`).
    pub kilocycles_per_busy_sec: f64,
    /// Cells completed per busy second (zero when `cells == 0`).
    pub cells_per_busy_sec: f64,
    /// Cumulative cache split (both cell caches).
    pub cache: CacheTotals,
    /// Per-selector serve latency digests, sorted by selector; empty in
    /// every record but the removed warm server's.
    pub latency: Vec<(String, LatencySummary)>,
    /// Per-rule blamed-cycle totals, sorted by (scheme, rule); empty
    /// when the run did no attribution.
    pub attrib: Vec<AttribTotal>,
    /// Content hash of the run's final metrics snapshot text (the bytes
    /// of `METRICS_run.json`), tying the summary numbers above to the
    /// full snapshot that produced them.
    pub metrics_digest: String,
}

impl Record {
    /// Serializes to the one-line JSON form stored in the ledger.
    /// `u64` quantities are decimal strings (this crate's JSON numbers
    /// are `i64`/`f64`); floats round-trip exactly through
    /// [`Json::parse`] (shortest-repr emission).
    pub fn to_json(&self) -> Json {
        let latency = self
            .latency
            .iter()
            .map(|(selector, s)| (selector.clone(), s.to_json()))
            .collect::<Vec<_>>();
        let attrib = self
            .attrib
            .iter()
            .map(|a| {
                Json::obj([
                    ("scheme", Json::str(&a.scheme)),
                    ("rule", Json::str(&a.rule)),
                    ("cycles", Json::Str(a.cycles.to_string())),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("source", Json::str(&self.source)),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("tier", Json::str(&self.tier)),
            ("threads", Json::Str(self.threads.to_string())),
            ("wall_seconds", Json::F64(self.wall_seconds)),
            ("cells", Json::Str(self.cells.to_string())),
            ("sim_cycles", Json::Str(self.sim_cycles.to_string())),
            ("retired_instrs", Json::Str(self.retired_instrs.to_string())),
            ("busy_seconds", Json::F64(self.busy_seconds)),
            ("kilocycles_per_busy_sec", Json::F64(self.kilocycles_per_busy_sec)),
            ("cells_per_busy_sec", Json::F64(self.cells_per_busy_sec)),
            (
                "cache",
                Json::obj([
                    ("l1_hits", Json::Str(self.cache.l1_hits.to_string())),
                    ("l2_hits", Json::Str(self.cache.l2_hits.to_string())),
                    ("misses", Json::Str(self.cache.misses.to_string())),
                    ("poisoned", Json::Str(self.cache.poisoned.to_string())),
                ]),
            ),
            ("latency", Json::Obj(latency)),
            ("attrib", Json::Arr(attrib)),
            ("metrics_digest", Json::str(&self.metrics_digest)),
        ])
    }

    /// Reconstructs a record from [`Record::to_json`] output. The error
    /// names the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let strf = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {k:?}"))
        };
        let u64f = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("missing or non-u64-string field {k:?}"))
        };
        let f64f = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("missing or non-finite field {k:?}"))
        };
        let schema = strf("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
        }
        let cache = v.get("cache").ok_or("missing field \"cache\"")?;
        let cacheu = |k: &str| {
            cache
                .get(k)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("missing or non-u64-string cache field {k:?}"))
        };
        let mut latency = Vec::new();
        match v.get("latency") {
            Some(Json::Obj(pairs)) => {
                for (selector, doc) in pairs {
                    let s = LatencySummary::from_json(doc)
                        .ok_or_else(|| format!("malformed latency summary for {selector:?}"))?;
                    latency.push((selector.clone(), s));
                }
            }
            _ => return Err("missing or non-object field \"latency\"".to_string()),
        }
        let mut attrib = Vec::new();
        for a in v.get("attrib").and_then(Json::as_arr).ok_or("missing field \"attrib\"")? {
            let field = |k: &str| {
                a.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("malformed attrib entry: missing {k:?}"))
            };
            attrib.push(AttribTotal {
                scheme: field("scheme")?,
                rule: field("rule")?,
                cycles: field("cycles")?
                    .parse::<u64>()
                    .map_err(|_| "malformed attrib entry: non-u64 cycles".to_string())?,
            });
        }
        Ok(Record {
            source: strf("source")?,
            fingerprint: strf("fingerprint")?,
            tier: strf("tier")?,
            threads: u64f("threads")?,
            wall_seconds: f64f("wall_seconds")?,
            cells: u64f("cells")?,
            sim_cycles: u64f("sim_cycles")?,
            retired_instrs: u64f("retired_instrs")?,
            busy_seconds: f64f("busy_seconds")?,
            kilocycles_per_busy_sec: f64f("kilocycles_per_busy_sec")?,
            cells_per_busy_sec: f64f("cells_per_busy_sec")?,
            cache: CacheTotals {
                l1_hits: cacheu("l1_hits")?,
                l2_hits: cacheu("l2_hits")?,
                misses: cacheu("misses")?,
                poisoned: cacheu("poisoned")?,
            },
            latency,
            attrib,
            metrics_digest: strf("metrics_digest")?,
        })
    }
}

/// Appends one record to the ledger at `path` (creating parent
/// directories and the file as needed) via the tmp+rename idiom — see
/// the module docs for the atomicity argument. A final line missing its
/// newline (a pre-rename crash can't cause this, but a hand-edit can)
/// is healed before appending.
pub fn append(path: &Path, record: &Record) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&record.to_json().emit());
    text.push('\n');
    let tmp =
        dir.join(format!(".tmp-{}-{:x}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Loads every record in the ledger at `path`. A missing file is an
/// empty ledger; a malformed line is an error naming its 1-based line
/// number (the ledger is a gate input — silently skipping corruption
/// would let the sentinel go vacuous).
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line)
            .map_err(|e| format!("{}:{}: not JSON: {e}", path.display(), i + 1))?;
        let rec =
            Record::from_json(&doc).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Which way a series is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-style: the sentinel fails on drops below baseline.
    HigherIsBetter,
    /// Latency-style: the sentinel fails on inflation above baseline.
    LowerIsBetter,
}

/// One observation in a series: the value plus the 1-based ledger line
/// of the record it came from (so a violation can name its evidence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// 1-based line number in the ledger file.
    pub line: usize,
    /// Observed value.
    pub value: f64,
}

/// One comparable trend series: a metric restricted to records with the
/// same source, tier, and thread count (rates from different binaries or
/// pool sizes are not comparable, so mixing them would manufacture
/// noise and regressions out of workload-mix changes).
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name (`kilocycles_per_busy_sec`, `serve_p95_micros/check`, ...).
    pub metric: String,
    /// Record source the series is restricted to.
    pub source: String,
    /// Tier the series is restricted to.
    pub tier: String,
    /// Thread count the series is restricted to.
    pub threads: u64,
    /// Which way regressions point.
    pub direction: Direction,
    /// Relative tolerance floor (fraction of the baseline median).
    pub rel_floor: f64,
    /// Relative tolerance ceiling (fraction of the baseline median).
    pub rel_ceil: f64,
    /// Observations in ledger (append) order.
    pub points: Vec<Point>,
}

impl Series {
    /// Display/diagnostic key: `metric[source tier tN]`.
    pub fn key(&self) -> String {
        format!("{}[{} {} t{}]", self.metric, self.source, self.tier, self.threads)
    }
}

/// Extracts every trend series from a loaded ledger:
///
/// * `kilocycles_per_busy_sec` and `cells_per_busy_sec` (higher is
///   better) from records that actually simulated (`cells > 0` — a
///   cache-warm run contributes no throughput sample, the same honesty
///   rule `perfcheck` enforces on the snapshot);
/// * `serve_p50_micros/<selector>` and `serve_p95_micros/<selector>`
///   (lower is better) from each record's latency digests (present only
///   in records the removed warm server wrote).
///
/// Series order is deterministic (sorted by key); point order is ledger
/// order.
pub fn series_of(records: &[Record]) -> Vec<Series> {
    use std::collections::BTreeMap;
    /// `(metric, source, tier, threads)` — the comparability key.
    type SeriesKey = (String, String, String, u64);
    /// `(direction, (rel_floor, rel_ceil), points)` — everything else.
    type SeriesBody = (Direction, (f64, f64), Vec<Point>);
    let mut map: BTreeMap<SeriesKey, SeriesBody> = BTreeMap::new();
    let mut push =
        |metric: String, rec: &Record, line: usize, dir, bounds: (f64, f64), value: f64| {
            map.entry((metric, rec.source.clone(), rec.tier.clone(), rec.threads))
                .or_insert_with(|| (dir, bounds, Vec::new()))
                .2
                .push(Point { line, value });
        };
    for (i, rec) in records.iter().enumerate() {
        let line = i + 1;
        if rec.cells > 0 && rec.busy_seconds > 0.0 {
            push(
                "kilocycles_per_busy_sec".to_string(),
                rec,
                line,
                Direction::HigherIsBetter,
                (THROUGHPUT_REL_FLOOR, THROUGHPUT_REL_CEIL),
                rec.kilocycles_per_busy_sec,
            );
            push(
                "cells_per_busy_sec".to_string(),
                rec,
                line,
                Direction::HigherIsBetter,
                (THROUGHPUT_REL_FLOOR, THROUGHPUT_REL_CEIL),
                rec.cells_per_busy_sec,
            );
        }
        for (selector, s) in &rec.latency {
            if s.count == 0 {
                continue;
            }
            push(
                format!("serve_p50_micros/{selector}"),
                rec,
                line,
                Direction::LowerIsBetter,
                (LATENCY_REL_FLOOR, LATENCY_REL_CEIL),
                s.p50_micros as f64,
            );
            push(
                format!("serve_p95_micros/{selector}"),
                rec,
                line,
                Direction::LowerIsBetter,
                (LATENCY_REL_FLOOR, LATENCY_REL_CEIL),
                s.p95_micros as f64,
            );
        }
    }
    map.into_iter()
        .map(|((metric, source, tier, threads), (direction, (rel_floor, rel_ceil), points))| {
            Series { metric, source, tier, threads, direction, rel_floor, rel_ceil, points }
        })
        .collect()
}

/// The sentinel's verdict on one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesCheck {
    /// Too little history to judge (`have < `[`MIN_SAMPLES`]).
    Insufficient {
        /// Points available (newest included).
        have: usize,
    },
    /// The newest point sits inside the tolerance band.
    Ok {
        /// Newest point's value.
        candidate: f64,
        /// Baseline-window median.
        median: f64,
        /// Allowed deviation from the median.
        tolerance: f64,
    },
    /// The newest point regressed past the tolerance band.
    Regressed {
        /// Newest point (the offender).
        candidate: Point,
        /// Baseline-window median.
        median: f64,
        /// Allowed deviation from the median.
        tolerance: f64,
        /// Ledger lines of the baseline-window records.
        window_lines: Vec<usize>,
    },
}

/// Median of `values` (not required sorted; empty -> 0.0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ledger values are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation of `values` around their median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Judges one series: the newest point against the robust baseline of
/// the up-to-[`BASELINE_WINDOW`] points before it (see module docs).
pub fn check_series(series: &Series) -> SeriesCheck {
    let n = series.points.len();
    if n < MIN_SAMPLES {
        return SeriesCheck::Insufficient { have: n };
    }
    let candidate = series.points[n - 1];
    let window = &series.points[n.saturating_sub(1 + BASELINE_WINDOW)..n - 1];
    let values: Vec<f64> = window.iter().map(|p| p.value).collect();
    let m = median(&values);
    let tolerance =
        (MAD_SCALE * mad(&values)).max(series.rel_floor * m.abs()).min(series.rel_ceil * m.abs());
    let regressed = match series.direction {
        Direction::HigherIsBetter => candidate.value < m - tolerance,
        Direction::LowerIsBetter => candidate.value > m + tolerance,
    };
    if regressed {
        SeriesCheck::Regressed {
            candidate,
            median: m,
            tolerance,
            window_lines: window.iter().map(|p| p.line).collect(),
        }
    } else {
        SeriesCheck::Ok { candidate: candidate.value, median: m, tolerance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            source: "all".to_string(),
            fingerprint: "deadbeef".to_string(),
            tier: "smoke".to_string(),
            threads: 2,
            wall_seconds: 1.25,
            cells: 271,
            sim_cycles: 123_456_789_012,
            retired_instrs: 98_765,
            busy_seconds: 0.75,
            kilocycles_per_busy_sec: 764.3,
            cells_per_busy_sec: 361.33,
            cache: CacheTotals { l1_hits: 1, l2_hits: 2, misses: 271, poisoned: 0 },
            latency: vec![(
                "check".to_string(),
                LatencySummary { count: 3, p50_micros: 1024, p95_micros: 4096, p99_micros: 4096 },
            )],
            attrib: vec![AttribTotal {
                scheme: "levioso".to_string(),
                rule: "levioso:true-dep".to_string(),
                cycles: 42,
            }],
            metrics_digest: "0123456789abcdef".to_string(),
        }
    }

    #[test]
    fn record_round_trips_through_one_line_json() {
        let rec = sample_record();
        let line = rec.to_json().emit();
        assert!(!line.contains('\n'), "ledger records must be single lines");
        let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn from_json_names_the_broken_field() {
        let mut doc = sample_record().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "cells");
        }
        let err = Record::from_json(&doc).unwrap_err();
        assert!(err.contains("cells"), "error {err:?} should name the field");
        let wrong = Json::obj([("schema", Json::str("levioso-ledger/999"))]);
        assert!(Record::from_json(&wrong).unwrap_err().contains("unsupported schema"));
    }

    #[test]
    fn append_accumulates_lines_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("levioso-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        let rec = sample_record();
        for _ in 0..3 {
            append(&path, &rec).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2], rec);
        let temps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(temps.is_empty(), "append must clean up its temp files");
        // A hand-truncated trailing newline is healed, not corrupted into
        // a doubled line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        append(&path, &rec).unwrap();
        assert_eq!(load(&path).unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_is_strict_and_names_the_line() {
        let dir = std::env::temp_dir().join(format!("levioso-ledger-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        assert_eq!(load(&path).unwrap(), Vec::new(), "missing file is an empty ledger");
        let good = sample_record().to_json().emit();
        std::fs::write(&path, format!("{good}\nnot json\n")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains(":2:"), "error {err:?} should carry the line number");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn throughput_series(values: &[f64]) -> Series {
        Series {
            metric: "kilocycles_per_busy_sec".to_string(),
            source: "all".to_string(),
            tier: "smoke".to_string(),
            threads: 2,
            direction: Direction::HigherIsBetter,
            rel_floor: THROUGHPUT_REL_FLOOR,
            rel_ceil: THROUGHPUT_REL_CEIL,
            points: values
                .iter()
                .enumerate()
                .map(|(i, &value)| Point { line: i + 1, value })
                .collect(),
        }
    }

    #[test]
    fn robust_baseline_math() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 5.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 4.0, 9.0]), 1.5);
    }

    #[test]
    fn sentinel_passes_stable_history_and_catches_a_drop() {
        let ok = throughput_series(&[760.0, 770.0, 765.0, 768.0]);
        assert!(matches!(check_series(&ok), SeriesCheck::Ok { .. }));
        let dropped = throughput_series(&[760.0, 770.0, 765.0, 380.0]);
        match check_series(&dropped) {
            SeriesCheck::Regressed { candidate, window_lines, .. } => {
                assert_eq!(candidate.line, 4);
                assert_eq!(window_lines, vec![1, 2, 3]);
            }
            other => panic!("expected a regression, got {other:?}"),
        }
        // Lower-is-better flips the failing side: a latency drop is fine,
        // an inflation is not.
        let mut lat = throughput_series(&[1000.0, 1000.0, 1000.0, 4100.0]);
        lat.direction = Direction::LowerIsBetter;
        lat.rel_floor = LATENCY_REL_FLOOR;
        lat.rel_ceil = LATENCY_REL_CEIL;
        assert!(matches!(check_series(&lat), SeriesCheck::Regressed { .. }));
        lat.points[3].value = 500.0;
        assert!(matches!(check_series(&lat), SeriesCheck::Ok { .. }));
    }

    #[test]
    fn sentinel_refuses_to_judge_thin_history() {
        let thin = throughput_series(&[760.0, 380.0]);
        assert_eq!(check_series(&thin), SeriesCheck::Insufficient { have: 2 });
    }

    #[test]
    fn mad_scales_the_tolerance_to_observed_noise() {
        // Noisy history: a swing that would fail the quiet series passes.
        let noisy = throughput_series(&[700.0, 900.0, 600.0, 1000.0, 650.0]);
        assert!(matches!(check_series(&noisy), SeriesCheck::Ok { .. }));
        // Quiet history: the floor still tolerates machine-noise wobble
        // (sub-35% — short runs really do swing ~20% back to back).
        let quiet = throughput_series(&[800.0, 800.0, 800.0, 600.0]);
        assert!(matches!(check_series(&quiet), SeriesCheck::Ok { .. }));
        let beyond = throughput_series(&[800.0, 800.0, 800.0, 500.0]);
        assert!(matches!(check_series(&beyond), SeriesCheck::Regressed { .. }));
    }

    #[test]
    fn tolerance_ceiling_keeps_noise_from_excusing_a_halving() {
        // Window [400, 1200, 300, 1300]: median 800, MAD 450 — so the
        // 5*MAD term alone (2250) would swallow any drop whatsoever.
        // The ceiling caps the band at rel_ceil * median = 400, so
        // losing more than half the median throughput still trips.
        let wild = throughput_series(&[400.0, 1200.0, 300.0, 1300.0, 200.0]);
        let window = [400.0, 1200.0, 300.0, 1300.0];
        let m = median(&window);
        assert!(MAD_SCALE * mad(&window) > THROUGHPUT_REL_CEIL * m, "precondition: MAD dominates");
        match check_series(&wild) {
            SeriesCheck::Regressed { candidate, tolerance, .. } => {
                assert_eq!(candidate.value, 200.0);
                assert_eq!(tolerance, THROUGHPUT_REL_CEIL * m);
            }
            other => panic!("expected the capped band to catch the halving, got {other:?}"),
        }
        // Just inside the capped band passes.
        let inside = throughput_series(&[400.0, 1200.0, 300.0, 1300.0, m * 0.51]);
        assert!(matches!(check_series(&inside), SeriesCheck::Ok { .. }));
    }

    #[test]
    fn baseline_window_slides_past_ancient_history() {
        // 4 old slow points, then 8 fast ones, then a candidate at the
        // fast level: the window only sees the fast era, so it passes ...
        let mut values = vec![100.0; 4];
        values.extend([800.0; 8]);
        values.push(810.0);
        assert!(matches!(check_series(&throughput_series(&values)), SeriesCheck::Ok { .. }));
        // ... and a candidate back at the slow level fails even though
        // all-time history would have normalized it.
        *values.last_mut().unwrap() = 100.0;
        assert!(matches!(check_series(&throughput_series(&values)), SeriesCheck::Regressed { .. }));
    }
}
