//! A content-addressed on-disk cache for sweep cells.
//!
//! Every bench/nisec sweep decomposes into independent cells — one
//! simulation (or simulation pair) each — whose outputs are pure functions
//! of their serialized inputs *plus the simulator's semantics*. This module
//! gives those cells a persistent identity:
//!
//! * the **key** is a stable 128-bit content hash of the cell's full input
//!   description (workload program text, memory image, scheme, config,
//!   seeds — whatever the caller serializes);
//! * the **namespace** is a sim-core *fingerprint* directory
//!   (`levioso_uarch::core_fingerprint`, a digest of the simulator's
//!   source), so any edit to the simulator invalidates every cell at once
//!   without deleting anything, and reverting it finds the old cells;
//! * the **value** is a [`Json`] result document wrapped in an envelope
//!   that stores the full input text, an integrity hash over
//!   `input + result`, and the cell's measured compute time
//!   (`busy_nanos`).
//!
//! Correctness properties (pinned by tests here and in `levioso-bench`):
//!
//! * a lookup whose stored input text differs from the requested input
//!   (hash collision, hand-edited file) is a **miss**, never a wrong hit;
//! * a lookup whose integrity hash does not match the stored
//!   `input + result` bytes (tampering, torn write, bit rot) is counted as
//!   **poisoned** and recomputed;
//! * stores write to a unique temp file and `rename` into place, so
//!   concurrent writers of the same key (two sweeps racing on a shared
//!   cell) leave one complete envelope, never a torn one;
//! * a disabled cache ([`Cache::disabled`], which tests and the
//!   benchmark's `nisec-fuzz` workload install to compute every cell)
//!   never touches the filesystem — every lookup is a miss and every store
//!   a no-op — so cached and uncached runs of a deterministic sweep are
//!   byte-identical by construction. It counts its misses but keeps no
//!   miss labels: every lookup would add one, for the life of the process.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Envelope schema tag; bump if the on-disk layout changes.
const SCHEMA: &str = "levioso-sweep-cell/1";

/// 64-bit FNV-1a over a byte stream, from `seed` (pass [`FNV_OFFSET`] for
/// the standard offset basis). Stable across platforms and releases — the
/// on-disk cache key depends on it.
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Second seed for the independent hash lane (the offset basis of the
/// FNV-0 variant of "chongo <Landon Curt Noll>"; any fixed odd constant
/// works — it only needs to differ from [`FNV_OFFSET`]).
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// 128 bits of content hash as 32 lowercase hex characters: two
/// independently seeded FNV-1a lanes. Collisions are additionally guarded
/// by the stored-input comparison in [`Cache::lookup`], so this only needs
/// to make accidental filename collisions vanishingly rare.
pub fn stable_hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}{:016x}", fnv1a64(FNV_OFFSET, bytes), fnv1a64(FNV_OFFSET_B, bytes))
}

/// Point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheReport {
    /// Lookups served from a valid stored envelope.
    pub hits: u64,
    /// Lookups that found nothing valid (cold, invalidated, collided).
    pub misses: u64,
    /// Subset of misses where an envelope existed but failed its
    /// integrity hash — tampering or torn data, recomputed from scratch.
    pub poisoned: u64,
    /// Envelopes written.
    pub stores: u64,
    /// Human labels of every missed cell, sorted (the "which cells did
    /// this change invalidate" report). Always empty for a disabled cache,
    /// where every cell misses.
    pub miss_labels: Vec<String>,
}

impl CacheReport {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// One-line human summary: the hit/miss split CI logs and asserts on.
    pub fn summary(&self, fingerprint: &str) -> String {
        format!(
            "sweep-cache: {} hits, {} misses, {} poisoned ({} lookups, fingerprint {})",
            self.hits,
            self.misses,
            self.poisoned,
            self.lookups(),
            fingerprint
        )
    }
}

/// The counters behind [`CacheReport`], shared by every clone of one
/// cache.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    poisoned: AtomicU64,
    stores: AtomicU64,
    miss_labels: Mutex<Vec<String>>,
}

/// A content-addressed cell cache rooted at `root/<fingerprint>/`.
///
/// Cloning is cheap and shares the counters, so one logical cache can be
/// consulted from many sweep workers.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
    fingerprint: String,
    enabled: bool,
    counters: Arc<Counters>,
}

impl Cache {
    /// An enabled cache at `root/<fingerprint>/`.
    pub fn new(root: impl Into<PathBuf>, fingerprint: impl Into<String>) -> Cache {
        Cache {
            root: root.into(),
            fingerprint: fingerprint.into(),
            enabled: true,
            counters: Arc::default(),
        }
    }

    /// A cache that never hits and never writes. Lookups still count as
    /// misses so reports stay meaningful, but record no labels, so a
    /// disabled lookup ignores both its arguments.
    pub fn disabled() -> Cache {
        Cache {
            root: PathBuf::new(),
            fingerprint: String::from("disabled"),
            enabled: false,
            counters: Arc::default(),
        }
    }

    /// Cache rooted at `LEVIOSO_SWEEP_CACHE_DIR` (default [`default_root`]
    /// when unset or empty).
    pub fn from_env(fingerprint: impl Into<String>) -> Cache {
        let root = parse_root(std::env::var("LEVIOSO_SWEEP_CACHE_DIR").ok().as_deref());
        Cache::new(root, fingerprint)
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The sim-core fingerprint this cache is namespaced under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The directory this cache's cells live in.
    pub fn dir(&self) -> PathBuf {
        self.root.join(&self.fingerprint)
    }

    fn cell_path(&self, input: &str) -> PathBuf {
        self.dir().join(format!("{}.json", stable_hash_hex(input.as_bytes())))
    }

    /// Integrity hash stored in (and checked against) an envelope: the
    /// input text plus the canonical emission of the result document.
    fn integrity_hash(input: &str, result: &Json) -> String {
        let mut bytes = input.as_bytes().to_vec();
        bytes.extend_from_slice(result.emit().as_bytes());
        stable_hash_hex(&bytes)
    }

    fn count_miss(&self, label: &str) {
        self.counters.misses.fetch_add(1, Relaxed);
        self.counters.miss_labels.lock().expect("miss label lock").push(label.to_string());
    }

    /// Looks up the result for `input`. `label` is the human cell name an
    /// enabled cache records on a miss (e.g. `fig2:hash_join/levioso`).
    ///
    /// Returns the cached result document only when the stored envelope is
    /// (a) parseable, (b) for this exact input text, and (c) intact under
    /// the integrity hash. Anything else is a miss (and, for case (c), a
    /// poisoning) — the caller recomputes and re-stores.
    pub fn lookup(&self, label: &str, input: &str) -> Option<Json> {
        if !self.enabled {
            self.counters.misses.fetch_add(1, Relaxed);
            return None;
        }
        let path = self.cell_path(input);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.count_miss(label);
            return None;
        };
        match Self::validate_envelope(&text, input) {
            Ok(result) => {
                self.counters.hits.fetch_add(1, Relaxed);
                Some(result)
            }
            Err(poisoned) => {
                if poisoned {
                    self.counters.poisoned.fetch_add(1, Relaxed);
                }
                self.count_miss(label);
                None
            }
        }
    }

    /// Validates one envelope against the requested input. `Ok(result)` on
    /// a clean hit; `Err(true)` when the envelope exists for this input but
    /// fails its integrity hash (poisoned); `Err(false)` for structural
    /// mismatches (unparseable, different input → treat as plain miss).
    fn validate_envelope(text: &str, input: &str) -> Result<Json, bool> {
        let doc = Json::parse(text).map_err(|_| true)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(true);
        }
        match doc.get("input").and_then(Json::as_str) {
            // A different input under the same filename is a hash
            // collision, not corruption: miss, don't alarm.
            Some(stored) if stored != input => return Err(false),
            Some(_) => {}
            None => return Err(true),
        }
        let result = doc.get("result").ok_or(true)?;
        let stored_hash = doc.get("input_hash").and_then(Json::as_str).ok_or(true)?;
        if stored_hash != Self::integrity_hash(input, result) {
            return Err(true);
        }
        Ok(result.clone())
    }

    /// Persists `result` for `input`, recording the cell's measured
    /// compute time as `busy_nanos`, which only [`Cache::estimate_cost`]
    /// reads back. No-op when disabled; I/O errors are swallowed (a
    /// cache that cannot write degrades to recomputation, it never fails
    /// the sweep).
    pub fn store(&self, label: &str, input: &str, result: &Json, busy_nanos: u64) {
        if !self.enabled {
            return;
        }
        let envelope = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("label", Json::str(label)),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("input_hash", Json::str(Self::integrity_hash(input, result))),
            ("busy_nanos", Json::I64(busy_nanos.min(i64::MAX as u64) as i64)),
            ("input", Json::str(input)),
            ("result", result.clone()),
        ]);
        let dir = self.dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = self.cell_path(input);
        let tmp = dir.join(format!(
            ".tmp-{}-{:x}",
            std::process::id(),
            self.counters.stores.fetch_add(1, Relaxed)
        ));
        if std::fs::write(&tmp, envelope.emit_pretty()).is_ok()
            && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// The busy nanoseconds stored with `input`'s cell under this
    /// fingerprint, if any; the envelope is not validated. Nothing in the
    /// workspace calls this; it stays only because the benchmark's traced
    /// replay (`perfbench/src/replay.rs`) still does, and can go once that
    /// replay stops.
    pub fn estimate_cost(&self, input: &str) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let text = std::fs::read_to_string(self.cell_path(input)).ok()?;
        let nanos = Json::parse(&text).ok()?.get("busy_nanos")?.as_i64()?;
        u64::try_from(nanos).ok()
    }

    /// Snapshot of the counters, miss labels sorted for deterministic
    /// reporting.
    pub fn report(&self) -> CacheReport {
        let mut miss_labels = self.counters.miss_labels.lock().expect("miss label lock").clone();
        miss_labels.sort();
        CacheReport {
            hits: self.counters.hits.load(Relaxed),
            misses: self.counters.misses.load(Relaxed),
            poisoned: self.counters.poisoned.load(Relaxed),
            stores: self.counters.stores.load(Relaxed),
            miss_labels,
        }
    }

    /// Zeroes the counters (between phases of a multi-sweep process).
    pub fn reset_counters(&self) {
        let c = &self.counters;
        for counter in [&c.hits, &c.misses, &c.poisoned, &c.stores] {
            counter.store(0, Relaxed);
        }
        c.miss_labels.lock().expect("miss label lock").clear();
    }
}

/// The workspace's shared cache root: `target/sweep-cache/` at the repo
/// root, regardless of working directory.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/sweep-cache")
}

/// Parses a `LEVIOSO_SWEEP_CACHE_DIR` value: unset or empty means
/// [`default_root`], like every other `LEVIOSO_*` variable (an empty path
/// would put the cells in the working directory); anything else is the
/// root.
fn parse_root(value: Option<&str>) -> PathBuf {
    match value {
        None | Some("") => default_root(),
        Some(dir) => PathBuf::from(dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn tmpdir(tag: &str) -> TempDir {
        TempDir::new(std::env::temp_dir(), &format!("levioso-cache-test-{tag}"))
    }

    /// A `v1` cache in a fresh temp dir, which goes with the `TempDir`.
    fn cache_in(tag: &str) -> (TempDir, Cache) {
        let dir = tmpdir(tag);
        let cache = Cache::new(dir.path(), "v1");
        (dir, cache)
    }

    fn result_doc(v: i64) -> Json {
        Json::obj([("cycles", Json::I64(v))])
    }

    #[test]
    fn hash_is_pinned() {
        // The on-disk key format must never drift silently.
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            stable_hash_hex(b"levioso"),
            format!(
                "{:016x}{:016x}",
                fnv1a64(FNV_OFFSET, b"levioso"),
                fnv1a64(FNV_OFFSET_B, b"levioso")
            )
        );
        assert_eq!(stable_hash_hex(b"x").len(), 32);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let (_dir, cache) = cache_in("roundtrip");
        assert_eq!(cache.lookup("cell", "input-a"), None);
        cache.store("cell", "input-a", &result_doc(42), 1_000);
        assert_eq!(cache.lookup("cell", "input-a"), Some(result_doc(42)));
        let r = cache.report();
        assert_eq!((r.hits, r.misses, r.poisoned, r.stores), (1, 1, 0, 1));
        assert_eq!(r.miss_labels, vec!["cell".to_string()]);
    }

    #[test]
    fn different_input_same_key_never_hits() {
        let (_dir, cache) = cache_in("inputs");
        cache.store("a", "input-a", &result_doc(1), 0);
        assert_eq!(cache.lookup("b", "input-b"), None, "distinct input is a miss");
        assert_eq!(cache.lookup("a", "input-a"), Some(result_doc(1)));
    }

    #[test]
    fn tampered_result_is_poisoned_and_missed() {
        let (_dir, cache) = cache_in("poison");
        cache.store("cell", "input-a", &result_doc(42), 0);
        let path = cache.dir().join(format!("{}.json", stable_hash_hex(b"input-a")));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("42", "43");
        assert_ne!(tampered, std::fs::read_to_string(&path).unwrap());
        std::fs::write(&path, tampered).unwrap();
        assert_eq!(cache.lookup("cell", "input-a"), None, "tampered cell must not hit");
        assert_eq!(cache.report().poisoned, 1);
        // Recompute + re-store heals it.
        cache.store("cell", "input-a", &result_doc(42), 0);
        assert_eq!(cache.lookup("cell", "input-a"), Some(result_doc(42)));
    }

    #[test]
    fn unparseable_envelope_is_poisoned() {
        let (_dir, cache) = cache_in("garbage");
        cache.store("cell", "input-a", &result_doc(7), 0);
        let path = cache.dir().join(format!("{}.json", stable_hash_hex(b"input-a")));
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(cache.lookup("cell", "input-a"), None);
        assert_eq!(cache.report().poisoned, 1);
    }

    #[test]
    fn fingerprint_bump_invalidates_everything() {
        let root = tmpdir("bump");
        let v1 = Cache::new(root.path(), "v1");
        for i in 0..4 {
            v1.store(&format!("cell{i}"), &format!("input-{i}"), &result_doc(i), 500 + i as u64);
        }
        let v2 = Cache::new(root.path(), "v2");
        for i in 0..4i64 {
            assert_eq!(v2.lookup(&format!("cell{i}"), &format!("input-{i}")), None);
        }
        let r = v2.report();
        assert_eq!(r.misses, 4, "every cell dirty after a fingerprint bump");
        assert_eq!(r.hits, 0);
        assert_eq!(
            r.miss_labels,
            vec!["cell0".to_string(), "cell1".into(), "cell2".into(), "cell3".into()]
        );
    }

    #[test]
    fn disabled_cache_touches_nothing() {
        let cache = Cache::disabled();
        cache.store("cell", "input", &result_doc(1), 0);
        assert_eq!(cache.lookup("cell", "input"), None);
        assert_eq!(cache.estimate_cost("input"), None);
        let r = cache.report();
        assert_eq!((r.hits, r.misses, r.stores), (0, 1, 0));
        assert!(r.miss_labels.is_empty());
    }

    #[test]
    fn disabled_cache_counts_misses_without_labels() {
        let cache = Cache::disabled();
        for i in 0..10_000 {
            assert_eq!(cache.lookup(&format!("cell{i}"), "input"), None);
        }
        let r = cache.report();
        assert_eq!(r.misses, 10_000);
        assert!(r.miss_labels.is_empty(), "{} labels kept", r.miss_labels.len());
    }

    #[test]
    fn an_overwrite_counts_as_a_store() {
        let (_dir, cache) = cache_in("count");
        cache.store("a", "input-a", &result_doc(1), 0);
        cache.store("b", "input-b", &result_doc(2), 0);
        cache.store("a", "input-a", &result_doc(1), 0); // overwrite, not a new cell
        assert_eq!(cache.report().stores, 3, "an overwrite still counts as a store");
    }

    #[test]
    fn reset_counters_clears_the_report() {
        let (_dir, cache) = cache_in("reset");
        cache.lookup("cell", "input");
        cache.reset_counters();
        let r = cache.report();
        assert_eq!((r.hits, r.misses, r.poisoned, r.stores), (0, 0, 0, 0));
        assert!(r.miss_labels.is_empty());
    }

    #[test]
    fn summary_line_has_the_split() {
        let report =
            CacheReport { hits: 300, misses: 16, poisoned: 1, stores: 16, miss_labels: vec![] };
        assert_eq!(
            report.summary("core-v1"),
            "sweep-cache: 300 hits, 16 misses, 1 poisoned (316 lookups, fingerprint core-v1)"
        );
    }

    #[test]
    fn cost_comes_from_the_cells_own_envelope_only() {
        let root = tmpdir("own-cost");
        Cache::new(root.path(), "v1").store("a", "input-a", &result_doc(1), 100);
        let v2 = Cache::new(root.path(), "v2");
        assert_eq!(v2.estimate_cost("input-a"), None, "another fingerprint's cell is not read");
        v2.store("a", "input-a", &result_doc(1), 900);
        assert_eq!(v2.estimate_cost("input-a"), Some(900));
    }

    #[test]
    fn cache_dir_env_parsing_treats_empty_as_unset() {
        assert_eq!(parse_root(None), default_root());
        assert_eq!(parse_root(Some("")), default_root());
        assert_eq!(parse_root(Some("cells")), PathBuf::from("cells"));
    }
}
