//! Pins the concurrent-store discipline the cache header promises:
//! stores go through a unique temp file + `rename`, so two writers
//! racing on the same key always leave one *complete* envelope — a
//! reader may observe either writer's result, but never a torn or
//! integrity-broken one.

use levioso_support::cache::{stable_hash_hex, Cache};
use levioso_support::{Json, TempDir};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn tmpdir(tag: &str) -> TempDir {
    TempDir::new(env!("CARGO_TARGET_TMPDIR"), &format!("cache-race-{tag}"))
}

/// A result document big enough that a torn write would be observable
/// (several kilobytes of array payload, not a one-line object).
fn result_doc(writer: i64) -> Json {
    let cells: Vec<Json> = (0..512)
        .map(|i| Json::obj([("cell", Json::I64(i)), ("writer", Json::I64(writer))]))
        .collect();
    Json::obj([("writer", Json::I64(writer)), ("cells", Json::Arr(cells))])
}

#[test]
fn racing_stores_always_leave_a_complete_envelope() {
    const ROUNDS: usize = 32;
    let dir = tmpdir("store");
    let cache = Cache::new(dir.path(), "v1");
    let input = "shared-cell-input";
    let key_file = format!("{}.json", stable_hash_hex(input.as_bytes()));
    let docs = [result_doc(1), result_doc(2)];

    for round in 0..ROUNDS {
        // Each round: two threads store different payloads for the same
        // key at the same moment, while a third hammers lookups.
        let barrier = Arc::new(Barrier::new(3));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for doc in &docs {
                let cache = cache.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    cache.store("cell", input, doc, 100);
                });
            }
            let reader = cache.clone();
            let stop_reading = Arc::clone(&stop);
            let barrier_r = Arc::clone(&barrier);
            let observed = scope.spawn(move || {
                barrier_r.wait();
                let mut hits = Vec::new();
                while !stop_reading.load(Ordering::Relaxed) {
                    if let Some(doc) = reader.lookup("cell", input) {
                        hits.push(doc);
                    }
                }
                hits
            });
            // Scope joins the two writers when this closure returns; tell
            // the reader to wind down first so the join terminates.
            std::thread::sleep(std::time::Duration::from_millis(1));
            stop.store(true, Ordering::Relaxed);
            for doc in observed.join().expect("reader thread") {
                assert!(
                    docs.contains(&doc),
                    "round {round}: lookup returned a document neither writer stored"
                );
            }
        });

        // Post-race: exactly one complete, integrity-clean envelope.
        let survivor = cache.lookup("cell", input);
        assert!(
            docs.iter().any(|d| survivor.as_ref() == Some(d)),
            "round {round}: surviving envelope is not a complete write (got {survivor:?})"
        );
        assert_eq!(cache.report().poisoned, 0, "round {round}: a racing store tore an envelope");
        let on_disk: Vec<String> = std::fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(on_disk, vec![key_file.clone()], "round {round}: stray temp files left behind");
    }
}

#[test]
fn racing_distinct_keys_never_interfere() {
    let dir = tmpdir("distinct");
    let cache = Cache::new(dir.path(), "v1");
    let barrier = Arc::new(Barrier::new(8));
    std::thread::scope(|scope| {
        for t in 0..8i64 {
            let cache = cache.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let input = format!("cell-input-{t}");
                barrier.wait();
                for _ in 0..16 {
                    cache.store("cell", &input, &result_doc(t), 10);
                    assert_eq!(cache.lookup("cell", &input), Some(result_doc(t)));
                }
            });
        }
    });
    assert_eq!(cache.report().poisoned, 0);
    let cells = std::fs::read_dir(cache.dir())
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(cells, 8);
}
