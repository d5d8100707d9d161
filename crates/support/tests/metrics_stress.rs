//! Snapshot determinism under concurrent registration.
//!
//! The ledger digests a run's final metrics snapshot
//! (`ledger::Record::metrics_digest`), so two snapshots of the same
//! quiesced registry must be byte-identical no matter how many threads
//! raced to register and increment instruments, and identities must
//! come out sorted regardless of registration order. These tests hammer
//! a standalone `Registry` (not the process-global one, to avoid
//! cross-test interference) from N threads and then check both.

use levioso_support::metrics::Registry;
use levioso_support::Json;

const THREADS: usize = 8;
const ROUNDS: usize = 200;

/// Every thread registers the same identities in a different order and
/// increments them; afterwards two snapshots must be byte-identical and
/// every counter must have seen every increment (a registration race
/// that cloned a fresh instrument would drop counts).
#[test]
fn quiesced_snapshots_are_byte_identical_after_concurrent_hammering() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    // Rotate the registration order per thread so no two
                    // threads touch the identities in the same sequence.
                    let k = (t + i) % 4;
                    let shard = ["a", "b", "c", "d"][k];
                    registry.counter("stress_events_total", &[("shard", shard)]).inc();
                    registry.gauge("stress_depth", &[("shard", shard)]).add(1);
                    registry.counter("stress_events_total", &[]).inc();
                }
            });
        }
    });
    let first = registry.snapshot().emit_pretty();
    let second = registry.snapshot().emit_pretty();
    assert_eq!(first, second, "quiesced snapshots must be byte-identical");
    // No increment was lost to a registration race.
    assert_eq!(registry.counter_value("stress_events_total", &[]), (THREADS * ROUNDS) as u64);
    let per_shard: u64 = ["a", "b", "c", "d"]
        .iter()
        .map(|s| registry.counter_value("stress_events_total", &[("shard", s)]))
        .sum();
    assert_eq!(per_shard, (THREADS * ROUNDS) as u64);
}

/// Label sets (identities) in each snapshot section come out sorted,
/// whatever order the racing threads registered them in.
#[test]
fn snapshot_identities_stay_sorted_under_racing_registration() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    // Thread-dependent orderings over a shared identity set.
                    let n = ((t * 31 + i * 7) % 16).to_string();
                    registry.counter("race_total", &[("bucket", &n)]).inc();
                    registry.gauge("race_gauge", &[("bucket", &n)]).set(i as i64);
                }
            });
        }
    });
    let snapshot = registry.snapshot();
    for section in ["counters", "gauges"] {
        let Some(Json::Obj(pairs)) = snapshot.get(section) else {
            panic!("snapshot is missing the {section} object");
        };
        assert_eq!(pairs.len(), 16, "all 16 identities registered in {section}");
        let keys: Vec<&String> = pairs.iter().map(|(k, _)| k).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "{section} identities must be strictly sorted, got {keys:?}"
        );
    }
}
