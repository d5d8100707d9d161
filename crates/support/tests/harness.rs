//! Integration tests for `levioso-support` from an external crate's point
//! of view: the `props!` macro surface, PRNG determinism and stream
//! splitting, the JSON round trip on edge values, the promised
//! failing-input report from the property harness, and the worker pool's
//! ordering/panic contract.

use levioso_support::check::{try_run, Config};
use levioso_support::{Gen, Json, Pool, Rng, SplitMix64, Xoshiro256pp};

levioso_support::props! {
    cases = 64;

    /// The macro surface compiles outside the crate and draws are in range.
    fn macro_surface_draws_are_in_range(g) {
        let v = g.i64_in(-7..7);
        g.note("v", &v);
        assert!((-7..7).contains(&v));
        let w = *g.pick(&[1u8, 2, 3]);
        assert!((1..=3).contains(&w));
    }

    /// JSON survives emit→parse for randomized nested documents.
    fn json_random_round_trip(g) {
        fn arb_json(g: &mut Gen, depth: u32) -> Json {
            let max = if depth == 0 { 5 } else { 7 };
            match g.usize_in(0..max) {
                0 => Json::Null,
                1 => Json::Bool(g.bool_any()),
                2 => Json::I64(g.i64_any()),
                3 => Json::F64((g.i64_in(-1_000_000..1_000_000) as f64) / 128.0),
                4 => {
                    let len = g.usize_in(0..8);
                    Json::Str((0..len).map(|_| *g.pick(&['a', '"', '\\', '\n', '🦀', '\u{1}'])).collect())
                }
                5 => {
                    let len = g.usize_in(0..4);
                    Json::Arr((0..len).map(|_| arb_json(g, depth - 1)).collect())
                }
                _ => {
                    let len = g.usize_in(0..4);
                    Json::Obj(
                        (0..len).map(|i| (format!("k{i}"), arb_json(g, depth - 1))).collect(),
                    )
                }
            }
        }
        let v = arb_json(g, 3);
        g.note("json", &v);
        assert_eq!(Json::parse(&v.emit()).unwrap(), v);
        assert_eq!(Json::parse(&v.emit_pretty()).unwrap(), v);
    }
}

#[test]
fn prng_streams_are_deterministic_across_construction() {
    let mut a = Xoshiro256pp::seed_from_u64(0xfeed);
    let first: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
    let mut b = Xoshiro256pp::seed_from_u64(0xfeed);
    assert_eq!(first, (0..32).map(|_| b.next_u64()).collect::<Vec<_>>());
}

#[test]
fn split_streams_are_independent_and_reproducible() {
    let mut parent1 = Xoshiro256pp::seed_from_u64(1);
    let mut parent2 = Xoshiro256pp::seed_from_u64(1);
    let mut child1 = parent1.split();
    let mut child2 = parent2.split();
    // Same split point → same child stream.
    let c1: Vec<u64> = (0..16).map(|_| child1.next_u64()).collect();
    let c2: Vec<u64> = (0..16).map(|_| child2.next_u64()).collect();
    assert_eq!(c1, c2);
    // Child and post-split parent streams do not collide.
    let p1: Vec<u64> = (0..16).map(|_| parent1.next_u64()).collect();
    assert!(c1.iter().zip(&p1).all(|(a, b)| a != b));
    // A split at a later stream position yields a different child.
    let mut later_child = parent2.split();
    assert_ne!(c1[0], later_child.next_u64());
}

#[test]
fn splitmix_mix_is_a_pure_function() {
    assert_eq!(SplitMix64::mix(123), SplitMix64::mix(123));
    assert_ne!(SplitMix64::mix(123), SplitMix64::mix(124));
}

#[test]
fn json_edge_values_round_trip() {
    for v in [
        Json::I64(i64::MIN),
        Json::I64(i64::MAX),
        Json::F64(f64::MIN_POSITIVE),
        Json::F64(f64::MAX),
        Json::F64(-0.0),
        Json::Str("\u{0}\u{1f}\"\\/\n\r\t".into()),
        Json::obj([("nested", Json::obj([("deeper", Json::Arr(vec![Json::Null]))]))]),
    ] {
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
    }
}

#[test]
fn known_false_property_reports_its_failing_input() {
    let report = try_run("sum_is_small", &Config::new(64), |g| {
        let xs: Vec<i64> = (0..4).map(|_| g.i64_in(0..100)).collect();
        g.note("xs", &xs);
        let sum: i64 = xs.iter().sum();
        assert!(sum < 100, "sum {sum} exceeds the bound");
    })
    .expect_err("four draws from 0..100 regularly sum past 100");
    // The report names the property, carries the noted input, the replay
    // seed, and the original assertion text.
    assert!(report.contains("property `sum_is_small` failed"), "{report}");
    assert!(report.contains("input `xs` = ["), "{report}");
    assert!(report.contains("replay: Config::new(1).with_seed(0x"), "{report}");
    assert!(report.contains("exceeds the bound"), "{report}");
}

#[test]
fn reported_replay_seed_reproduces_the_failure() {
    let config = Config::new(64);
    let prop = |g: &mut Gen| {
        let x = g.i64_in(0..1000);
        g.note("x", &x);
        assert!(x < 900, "x = {x}");
    };
    let report = try_run("x_below_900", &config, prop).expect_err("~10% of draws fail");
    // Parse the case seed back out of the report and replay just that case.
    let seed_hex = report
        .split("with_seed(0x")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("report contains a replay seed");
    let seed = u64::from_str_radix(seed_hex.trim_start_matches("0x"), 16).expect("hex seed");
    let replay = try_run("x_below_900_replay", &Config::new(1).with_seed(seed), prop)
        .expect_err("replaying the failing seed fails again");
    assert!(replay.contains("case 0/1"), "{replay}");
}

#[test]
fn pool_results_are_identical_at_any_width() {
    // Do enough per-job work that wide pools genuinely interleave.
    let jobs: Vec<u64> = (0..64).collect();
    let work = |i: usize, &seed: &u64| {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..1000).fold(i as u64, |acc, _| acc.wrapping_add(rng.next_u64()))
    };
    let serial = Pool::new(1).run(&jobs, work);
    for width in [2, 4, 8, 64] {
        assert_eq!(Pool::new(width).run(&jobs, work), serial, "width {width}");
    }
}

#[test]
fn pool_handles_an_empty_job_list() {
    let jobs: Vec<i32> = Vec::new();
    assert!(Pool::new(8).run(&jobs, |_, &j| j).is_empty());
}

#[test]
fn pool_propagates_a_worker_panic_with_its_payload() {
    let jobs: Vec<usize> = (0..16).collect();
    let outcome = std::panic::catch_unwind(|| {
        Pool::new(4).run(&jobs, |_, &j| {
            if j == 9 {
                panic!("job {j} failed");
            }
            j
        })
    });
    let payload = outcome.expect_err("the worker panic must reach the caller");
    let text = payload.downcast_ref::<String>().expect("string payload");
    assert_eq!(text, "job 9 failed");
}
