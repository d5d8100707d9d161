//! The nisec-side binding of the sweep-cell cache.
//!
//! `levioso_bench` keys its perf cells in `levioso_bench::cellcache`; this
//! module does the same for the noninterference fuzz cells so T4
//! reuses the one persisted store under `target/sweep-cache/<fingerprint>/`
//! (bench depends on this crate, so the binding must live here — the two
//! modules share the store through `levioso_support::cache`, not through
//! each other). Key namespaces cannot collide: every key's first line names
//! its kind.
//!
//! A nisec cell is `(generated program, secret pair, scheme)` — and unlike
//! perf cells the generated inputs *are* derived from the campaign RNG, so
//! the key embeds the concrete generated artifacts (program text, memory
//! images, register init, secret values), never the seed. Two campaigns
//! that generate the same cell share it; a seed change that changes the
//! inputs misses naturally.
//!
//! The cached payload is the cell's verdict: one optional [`Divergence`]
//! per observer, in `Observer::ALL` order. Divergences round-trip exactly
//! (owned strings), so warm and cold campaigns render byte-identical
//! reports — the same determinism contract the perf sweeps pin.

use crate::generator::SecretProgram;
use crate::observer::{Divergence, Observer};
use levioso_support::cache::{Cache, CacheReport};
use levioso_support::Json;
use levioso_uarch::{core_fingerprint, CoreConfig};
use std::sync::{OnceLock, RwLock};

fn handle() -> &'static RwLock<Cache> {
    static CACHE: OnceLock<RwLock<Cache>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(Cache::from_env(core_fingerprint())))
}

/// Replaces the process-global cache (tests point it at a temp dir or
/// install [`Cache::disabled`], as the benchmark's `nisec-fuzz` does).
pub fn configure(cache: Cache) {
    *handle().write().expect("nisec cell cache lock") = cache;
}

/// Runs `f` against the process-global cache.
pub fn with<R>(f: impl FnOnce(&Cache) -> R) -> R {
    f(&handle().read().expect("nisec cell cache lock"))
}

/// Counter snapshot of the global cache.
pub fn report() -> CacheReport {
    with(|c| c.report())
}

/// Zeroes the global cache's counters.
pub fn reset_counters() {
    with(|c| c.reset_counters());
}

/// The cache key of one noninterference cell: everything the two recorded
/// runs depend on — the generated program and initial state, the concrete
/// secret pair, the scheme, the core config, and the observer list the
/// verdict vector is ordered by. The program and public-state digests are
/// memoized on `sp`, so its 36 cells per campaign render and hash it once.
pub fn cell_key(
    sp: &SecretProgram,
    secrets: &[(i64, i64)],
    scheme_name: &str,
    config: &CoreConfig,
) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(256);
    let _ = writeln!(key, "levioso-nisec-cell-key");
    let _ = writeln!(key, "kind: noninterference");
    let _ = writeln!(key, "program: {}", sp.program_digest());
    let _ = writeln!(key, "public_state: {}", sp.public_state_digest());
    let _ = writeln!(key, "secret_addrs: {:?}", sp.secret_addrs);
    let _ = writeln!(key, "secrets: {secrets:?}");
    let _ = writeln!(key, "scheme: {scheme_name}");
    let _ = writeln!(key, "config: {config:?}");
    let names: Vec<&str> = Observer::ALL.iter().map(|o| o.name()).collect();
    let _ = writeln!(key, "observers: {}", names.join(","));
    key
}

/// The human label recorded for a cell on a miss.
pub fn cell_label(scheme_name: &str, program: usize, pair: usize) -> String {
    format!("t4/{scheme_name}/p{program}.{pair}")
}

/// Serializes one cell verdict — `None` per clean observer, the divergence
/// otherwise, in `Observer::ALL` order.
pub fn diverged_to_json(diverged: &[Option<Divergence>]) -> Json {
    let per_observer = diverged
        .iter()
        .map(|d| match d {
            None => Json::Null,
            Some(d) => Json::obj([
                ("index", Json::I64(i64::try_from(d.index).expect("obs index fits i64"))),
                ("a", Json::str(&d.a)),
                ("b", Json::str(&d.b)),
                ("rule_context", d.rule_context.as_deref().map_or(Json::Null, Json::str)),
            ]),
        })
        .collect();
    Json::obj([("diverged", Json::Arr(per_observer))])
}

/// Exact inverse of [`diverged_to_json`]; `None` on any shape mismatch
/// (wrong observer count included — a stale vector must never be trusted).
pub fn diverged_from_json(doc: &Json) -> Option<Vec<Option<Divergence>>> {
    let arr = doc.get("diverged")?.as_arr()?;
    if arr.len() != Observer::ALL.len() {
        return None;
    }
    arr.iter()
        .map(|entry| match entry {
            Json::Null => Some(None),
            other => {
                let rule_context = match other.get("rule_context")? {
                    Json::Null => None,
                    rule => Some(rule.as_str()?.to_string()),
                };
                Some(Some(Divergence {
                    index: usize::try_from(other.get("index")?.as_i64()?).ok()?,
                    a: other.get("a")?.as_str()?.to_string(),
                    b: other.get("b")?.as_str()?.to_string(),
                    rule_context,
                }))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{gen_program, gen_secret_pair};
    use levioso_support::Xoshiro256pp;

    fn sample_diverged() -> Vec<Option<Divergence>> {
        vec![
            None,
            Some(Divergence {
                index: 4,
                a: "line 0x1c0".to_string(),
                b: "<end of trace>".to_string(),
                rule_context: Some("shadow-load".to_string()),
            }),
            Some(Divergence {
                index: 0,
                a: "@3 fetch pc=0".to_string(),
                b: "@4 fetch pc=0".to_string(),
                rule_context: None,
            }),
        ]
    }

    #[test]
    fn diverged_round_trips_exactly() {
        let d = sample_diverged();
        assert_eq!(diverged_from_json(&diverged_to_json(&d)), Some(d));
        let clean = vec![None, None, None];
        assert_eq!(diverged_from_json(&diverged_to_json(&clean)), Some(clean));
    }

    #[test]
    fn diverged_round_trips_through_emitted_text() {
        let d = sample_diverged();
        let text = diverged_to_json(&d).emit();
        let parsed = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(diverged_from_json(&parsed), Some(d));
    }

    #[test]
    fn wrong_observer_count_is_rejected() {
        let doc = diverged_to_json(&[None, None]);
        assert_eq!(diverged_from_json(&doc), None);
    }

    /// The key of the first program and pair seed 7 draws, under
    /// `levioso` on the default core, as rendered before the program
    /// digests were memoized (less the header's old `/1` version). Changing
    /// a byte of it turns every cached cell into a miss.
    const SEED7_LEVIOSO_KEY: &str = concat!(
        "levioso-nisec-cell-key\n",
        "kind: noninterference\n",
        "program: dc18f90b2541aa13dead8c9d139d1e06\n",
        "public_state: 011515507a0702f05ea1dbc2911e5a31\n",
        "secret_addrs: [32768, 32832]\n",
        "secrets: [(64, 134), (200, 46)]\n",
        "scheme: levioso\n",
        "config: CoreConfig { fetch_width: 8, dispatch_width: 8, issue_width: 8, ",
        "commit_width: 8, rob_size: 224, iq_size: 96, lq_size: 72, sq_size: 56, ",
        "alu_count: 6, mul_count: 2, div_count: 1, mshr_count: 16, load_ports: 2, ",
        "store_ports: 1, mul_latency: 3, div_latency: 20, redirect_penalty: 15, ",
        "predictor: PredictorConfig { gshare_history_bits: 14, btb_entries: 4096, ",
        "ras_entries: 32 }, hierarchy: HierarchyConfig { l1d: CacheConfig { ",
        "size_bytes: 32768, assoc: 8, line_bytes: 64, hit_latency: 4 }, l2: ",
        "CacheConfig { size_bytes: 1048576, assoc: 16, line_bytes: 64, hit_latency: 14 }, ",
        "dram_latency: 120 }, max_cycles: 500000000 }\n",
        "observers: commit-timing,cache-line,full-trace\n",
    );

    #[test]
    fn key_text_is_pinned() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let sp = gen_program(&mut rng);
        let pair = gen_secret_pair(&mut rng, sp.secret_addrs.len());
        let config = CoreConfig::default();
        assert_eq!(cell_key(&sp, &pair, "levioso", &config), SEED7_LEVIOSO_KEY, "cold");
        assert_eq!(cell_key(&sp, &pair, "levioso", &config), SEED7_LEVIOSO_KEY, "memoized");
        assert_eq!(cell_key(&sp.clone(), &pair, "levioso", &config), SEED7_LEVIOSO_KEY, "clone");
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let sp_a = gen_program(&mut rng);
        let sp_b = gen_program(&mut rng);
        let secrets: Vec<(i64, i64)> = sp_a.secret_addrs.iter().map(|_| (1, 2)).collect();
        let other: Vec<(i64, i64)> = sp_a.secret_addrs.iter().map(|_| (1, 3)).collect();
        let config = CoreConfig::default();
        let key = cell_key(&sp_a, &secrets, "levioso", &config);
        assert_eq!(key, cell_key(&sp_a, &secrets, "levioso", &config), "deterministic");
        assert_ne!(key, cell_key(&sp_b, &secrets, "levioso", &config), "program");
        assert_ne!(key, cell_key(&sp_a, &other, "levioso", &config), "secret pair");
        assert_ne!(key, cell_key(&sp_a, &secrets, "fence", &config), "scheme");
    }
}
