//! Process-global, lock-free metrics registry for run telemetry.
//!
//! The sweep layer (work-stealing pool, sweep-cell caches, throughput
//! meter) makes claims — how many cells a run computed, how many it
//! read from the cache, that every throughput sample comes from a fresh
//! cell. Each claim should be backed by an inspectable, schema-versioned
//! telemetry stream rather than ad-hoc log lines. This module is that
//! stream's source of truth:
//!
//! * **Instruments** — [`Counter`] (monotonic `u64`) and [`Gauge`]
//!   (signed level with a `set_max` high-water mode). Both are cheap
//!   `Arc`-backed handles over atomics: registration takes the registry
//!   lock once, after which every `inc`/`add`/`set` is a relaxed atomic
//!   op — no locks on the hot path.
//! * **Identity** — an instrument is named by `name{key=value,...}` with
//!   labels sorted by key, so the same (name, labels) pair always
//!   resolves to the same underlying atomic no matter where or in what
//!   order it is requested.
//! * **Snapshot** — [`snapshot`] renders the whole registry as a
//!   `levioso-metrics/2` JSON document with every map sorted by key.
//!   Two snapshots of an idle registry are byte-identical, so the
//!   document can be diffed, pinned, and parsed by shell scripts.
//! * **Switch** — `LEVIOSO_METRICS=off` (or `0`) disables the *optional*
//!   instrumentation: call sites that exist purely for telemetry (pool
//!   timing) consult [`enabled`] and skip their clock reads and atomic
//!   bumps. Load-bearing counters — the
//!   sweep-cache counters behind [`crate::cache::CacheReport`] and the
//!   throughput meter — always count, because correctness reports are
//!   derived from them; the switch only sheds the pure-overhead hooks
//!   that `scripts/perf.sh --ab` bounds.
//!
//! Instruments can also live *detached* ([`Counter::detached`] and
//! friends): the same atomic handle type, but private to its owner and
//! absent from the global snapshot. `support::cache` uses detached
//! counters for ad-hoc instances (tests, `--no-cache`) and registered
//! ones for the process-wide caches, so per-instance reports and run
//! telemetry share one implementation.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema identifier of the snapshot document.
pub const SCHEMA: &str = "levioso-metrics/2";

// ---------------------------------------------------------------------------
// Enabled switch
// ---------------------------------------------------------------------------

/// 0 = uninitialised (read `LEVIOSO_METRICS` on first use), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether optional (pure-telemetry) instrumentation should record.
///
/// Initialised lazily from `LEVIOSO_METRICS`: unset, empty, `on`, or `1`
/// enable (the default); `off` or `0` disable. Any other value panics —
/// a typo must not silently flip telemetry semantics (same contract as
/// `LEVIOSO_SWEEP_CACHE` and `LEVIOSO_TRACE`).
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = parse_enabled(std::env::var("LEVIOSO_METRICS").ok().as_deref());
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `LEVIOSO_METRICS` switch for the rest of the process.
/// Test and tooling hook: the observer-effect tests flip this to prove
/// results are identical either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Parses a `LEVIOSO_METRICS` value. Panics on anything unrecognised.
fn parse_enabled(value: Option<&str>) -> bool {
    match value {
        None | Some("") | Some("on") | Some("1") => true,
        Some("off") | Some("0") => false,
        Some(other) => panic!(
            "unknown LEVIOSO_METRICS value {other:?}: expected unset, \"on\"/\"1\", or \"off\"/\"0\""
        ),
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
///
/// Cloning shares the underlying atomic; a registered counter obtained
/// twice under the same identity is the same counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Default for Counter {
    fn default() -> Self {
        Counter::detached()
    }
}

impl Counter {
    /// Creates a counter that is not listed in any registry (and never
    /// appears in snapshots). Used for per-instance bookkeeping that
    /// wants the same handle type as registered telemetry.
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 and returns the *previous* value (a cheap process-unique
    /// sequence number for callers that need one).
    pub fn fetch_inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero. Counters are monotonic from the snapshot
    /// consumer's point of view; reset exists for per-instance owners
    /// (e.g. `Cache::reset_counters`) and tests.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous level (in-flight requests, queue depth).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::detached()
    }
}

impl Gauge {
    /// Creates a gauge outside any registry (see [`Counter::detached`]).
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
        }
    }
}

/// A named collection of instruments.
///
/// Most code uses the process-global registry through the module-level
/// functions ([`counter`], [`gauge`], [`snapshot`]);
/// `Registry` is also constructible standalone so tests can exercise
/// snapshot determinism without cross-test interference.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Renders and validates the canonical identity `name{k=v,...}` (labels
/// sorted by key; bare `name` when there are none).
///
/// Names and label keys are `snake_case` identifiers; label values may
/// be any printable ASCII except the four characters that would break
/// the rendered identity or its JSON/grep consumers (`{`, `}`, `,`,
/// `"`). Violations panic: identities are static, so a bad one is a
/// programming error, not input.
fn identity(name: &str, labels: &[(&str, &str)]) -> String {
    let ident_ok = |s: &str| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    assert!(ident_ok(name), "invalid metric name {name:?}");
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = format!("{name}{{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        assert!(ident_ok(k), "invalid label key {k:?} on metric {name:?}");
        assert!(
            !v.is_empty()
                && v.chars().all(|c| c.is_ascii_graphic() && !matches!(c, '{' | '}' | ',' | '"')),
            "invalid label value {v:?} on metric {name:?}"
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        let id = identity(name, labels);
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        let metric = map.entry(id.clone()).or_insert_with(make).clone();
        drop(map);
        metric
    }

    /// Returns the counter registered under `(name, labels)`, creating
    /// it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if the identity is malformed or already registered as a
    /// different instrument kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            other => {
                panic!("metric {} is a {}, not a counter", identity(name, labels), other.kind())
            }
        }
    }

    /// Returns the gauge registered under `(name, labels)` (see
    /// [`Registry::counter`] for identity and panic rules).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {} is a {}, not a gauge", identity(name, labels), other.kind()),
        }
    }

    /// Current value of a registered counter; 0 if never registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = identity(name, labels);
        match self.metrics.lock().expect("metrics registry poisoned").get(&id) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Renders the registry as a `levioso-metrics/2` JSON document.
    ///
    /// Deterministic by construction: identities are iterated in
    /// `BTreeMap` (byte-sorted) order, `u64` quantities are decimal
    /// strings (exact, greppable), and the document carries no
    /// timestamps — two snapshots of an idle registry are
    /// byte-identical regardless of registration order.
    pub fn snapshot(&self) -> Json {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for (id, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => counters.push((id.clone(), Json::Str(c.get().to_string()))),
                Metric::Gauge(g) => gauges.push((id.clone(), Json::I64(g.get()))),
            }
        }
        Json::Obj(vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("enabled".to_string(), Json::Bool(enabled())),
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
        ])
    }

    /// Zeroes every registered instrument (identities stay registered).
    /// Test hook; production code never resets fleet telemetry.
    pub fn reset(&self) {
        for metric in self.metrics.lock().expect("metrics registry poisoned").values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
            }
        }
    }
}

/// The process-global registry behind the module-level functions.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter(name, labels)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge(name, labels)
}

/// [`Registry::counter_value`] on the global registry.
pub fn counter_value(name: &str, labels: &[(&str, &str)]) -> u64 {
    global().counter_value(name, labels)
}

/// [`Registry::snapshot`] on the global registry.
pub fn snapshot() -> Json {
    global().snapshot()
}

/// The global snapshot pretty-printed with a trailing newline — the
/// exact bytes of `results/METRICS_run.json`.
pub fn snapshot_text() -> String {
    let mut text = snapshot().emit_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_sorts_labels_and_rejects_garbage() {
        assert_eq!(identity("x_total", &[]), "x_total");
        assert_eq!(identity("x_total", &[("b", "2"), ("a", "1")]), "x_total{a=1,b=2}");
        for bad in ["", "Caps", "has space", "brace{"] {
            assert!(std::panic::catch_unwind(|| identity(bad, &[])).is_err(), "{bad:?}");
        }
        assert!(std::panic::catch_unwind(|| identity("ok", &[("k", "a,b")])).is_err());
        assert!(std::panic::catch_unwind(|| identity("ok", &[("k", "")])).is_err());
        // Parenthesised sentinel values are fine.
        assert_eq!(identity("ok", &[("k", "(unknown)")]), "ok{k=(unknown)}");
    }

    #[test]
    fn same_identity_resolves_to_same_instrument() {
        let r = Registry::new();
        r.counter("hits_total", &[("cache", "bench")]).add(3);
        // Label order must not matter, and a second lookup sees the count.
        let again = r.counter("hits_total", &[("cache", "bench")]);
        again.inc();
        assert_eq!(r.counter_value("hits_total", &[("cache", "bench")]), 4);
        assert_eq!(r.counter_value("hits_total", &[("cache", "nisec")]), 0);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("depth", &[]);
        r.gauge("depth", &[]);
    }

    #[test]
    fn gauge_levels_and_high_water() {
        let g = Gauge::detached();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn counter_fetch_inc_sequences() {
        let c = Counter::detached();
        assert_eq!(c.fetch_inc(), 0);
        assert_eq!(c.fetch_inc(), 1);
        assert_eq!(c.get(), 2);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_registration_order_independent() {
        let make = |flip: bool| {
            let r = Registry::new();
            let names: [(&str, &[(&str, &str)]); 3] =
                [("b_total", &[]), ("a_total", &[("k", "v")]), ("a_total", &[("k", "u")])];
            let order: Vec<usize> = if flip { vec![2, 0, 1] } else { vec![0, 1, 2] };
            for i in order {
                let (name, labels) = names[i];
                r.counter(name, labels).add((i + 1) as u64);
            }
            r.gauge("depth", &[]).set(-2);
            r.snapshot().emit_pretty()
        };
        let a = make(false);
        let b = make(true);
        assert_eq!(a, b, "snapshot must not depend on registration order");
        // Idle registry: two consecutive snapshots are byte-identical.
        let r = Registry::new();
        r.counter("x_total", &[]).add(9);
        assert_eq!(r.snapshot().emit_pretty(), r.snapshot().emit_pretty());
        // Sorted sections appear in schema order with sorted keys inside.
        let text = make(false);
        let ca = text.find("a_total{k=u}").unwrap();
        let cb = text.find("a_total{k=v}").unwrap();
        let cc = text.find("b_total").unwrap();
        assert!(ca < cb && cb < cc);
    }

    #[test]
    fn enabled_parsing_is_strict() {
        assert!(parse_enabled(None));
        assert!(parse_enabled(Some("")));
        assert!(parse_enabled(Some("on")));
        assert!(parse_enabled(Some("1")));
        assert!(!parse_enabled(Some("off")));
        assert!(!parse_enabled(Some("0")));
        assert!(std::panic::catch_unwind(|| parse_enabled(Some("yes"))).is_err());
    }
}
