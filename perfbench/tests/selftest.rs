//! The benchmark's self-tests, at reduced sizes: every workload prints
//! every end-to-end metric with no failed cell; tampered inputs fail
//! cells, so the checks cannot pass vacuously; traced runs conserve time;
//! and the replay reproduces the program's results.

use levioso_bench::{cellcache, Tier};
use levioso_core::Scheme;
use levioso_nisec::FuzzConfig;
use levioso_stats::Figure;
use levioso_support::cache::stable_hash_hex;
use levioso_support::Json;
use levioso_uarch::CoreConfig;
use levioso_workloads::{suite, Scale};
use perfbench::replay::Replay;
use perfbench::workloads::{CheckSmokeWarm, F2PaperCold, Workload};
use perfbench::{configure_caches, run, run_workload, Opts, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

/// In-process runs share the program's global cell caches.
static SERIAL: Mutex<()> = Mutex::new(());

const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("sim_kcycles_per_s", "kcycles/s")];

fn opts(workload: &str, trace: bool) -> Opts {
    Opts { workload: workload.to_string(), seed: DEFAULT_SEED, seconds: 0.0, trace, reduced: true }
}

/// An empty directory of the test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_without_failures() {
    for workload in WORKLOADS {
        let out = perfbench(&["--workload", workload, "--seconds", "0", "--reduced"]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{workload}: {stdout}");
        for (name, unit) in END_TO_END {
            let line = stdout.lines().find(|l| l.starts_with(&format!("{name} "))).unwrap();
            assert!(line.ends_with(&format!(" {unit}")), "{workload}: {line}");
        }
        assert!(stdout.contains("\nerror_rate 0 ratio"), "{workload}: {stdout}");
        let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_i64).unwrap() > 0);
        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{workload}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn a_variable_that_changes_the_program_is_refused() {
    for var in ["LEVIOSO_THREADS", "LEVIOSO_SWEEP_CACHE_DIR"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "f2-paper-cold", "--seconds", "0", "--reduced"])
            .env(var, "2")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result is printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
    assert_eq!(perfbench(&["--workload", "nope"]).status.code(), Some(1));
    assert_eq!(perfbench(&["--trace", "2"]).status.code(), Some(2));
}

#[test]
fn a_tampered_golden_fails_cells() {
    let _serial = SERIAL.lock().unwrap();
    let golden = Tier::Smoke.golden_dir().join("fig2_overhead.json");
    let mut figure = Figure::from_json(&std::fs::read_to_string(golden).unwrap()).unwrap();
    let levioso = figure.series.iter_mut().find(|s| s.name == "levioso").unwrap();
    let point = levioso.points.iter_mut().find(|(x, _)| x == "filter_scan").unwrap();
    point.1 *= 1.01;
    let tampered = scratch("tampered-golden").join("fig2_overhead.json");
    std::fs::write(&tampered, figure.to_json()).unwrap();

    let mut w = F2PaperCold::new(true).with_golden(tampered);
    let out = run_workload(&mut w, &opts("f2-paper-cold", false), Instant::now()).unwrap();
    assert_eq!(out.failed, 1, "exactly the tampered cell fails");
    assert!(out.error_rate() > 0.0);
}

/// Rewrites one cached perf cell with more cycles and a matching
/// integrity hash, so the cache serves it as a clean hit.
fn resign_one_envelope(dir: &std::path::Path) {
    let cells = dir.join(levioso_uarch::core_fingerprint());
    for entry in std::fs::read_dir(cells).unwrap() {
        let path = entry.unwrap().path();
        let Json::Obj(mut pairs) = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
        else {
            continue;
        };
        let get = |pairs: &[(String, Json)], key: &str| {
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
        };
        if get(&pairs, "label").as_str() != Some("filter_scan/levioso") {
            continue;
        }
        let input = get(&pairs, "input").as_str().unwrap().to_string();
        let mut stats = cellcache::stats_from_json(&get(&pairs, "result")).unwrap();
        stats.cycles += 1000;
        let result = cellcache::stats_to_json(&stats);
        let hash = stable_hash_hex(format!("{input}{}", result.emit()).as_bytes());
        for (k, v) in &mut pairs {
            match k.as_str() {
                "result" => *v = result.clone(),
                "input_hash" => *v = Json::str(&hash),
                _ => {}
            }
        }
        std::fs::write(&path, Json::Obj(pairs).emit_pretty()).unwrap();
        return;
    }
    panic!("no filter_scan/levioso cell in the cache");
}

#[test]
fn a_corrupted_cache_cell_fails_the_warm_check() {
    let _serial = SERIAL.lock().unwrap();
    let dir = scratch("corrupted-envelope");
    configure_caches(&dir);
    let mut w = CheckSmokeWarm::default();
    let cold = (0..w.setup_steps()).map(|step| w.setup(step).unwrap()).last().unwrap();
    assert!(cold.attempted > 0 && cold.failed == 0);
    assert_eq!(w.pass(0).failed, 0, "the warm pass is clean before the tamper");

    resign_one_envelope(&dir);
    let warm = w.pass(0);
    assert!(warm.failed > 0, "served a wrong cell without a failure");
    assert_eq!(cellcache::report().poisoned, 0, "the tampered cell passed integrity");
}

#[test]
fn traced_runs_conserve_time_and_match_the_program() {
    let layer_metrics = [
        "uarch.run_s",
        "uarch.new_s",
        "compiler.prepare_s",
        "isa.interp_s",
        "workloads.suite_s",
        "bench.cellcache.key_s",
        "support.cache.lookup_s",
        "support.cache.estimate_s",
        "support.cache.store_s",
        "bench.gate.check_s",
        "nisec.gen_s",
        "nisec.cell_key_s",
        "nisec.diff_s",
        "trace.unattributed_s",
    ];
    for workload in WORKLOADS {
        let _serial = SERIAL.lock().unwrap();
        let out = run(&opts(workload, true), Instant::now()).unwrap();
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.lines);
        assert!(out.lines.iter().any(|l| l.starts_with("conservation ok")), "{workload}");
        let sum: f64 = layer_metrics.iter().map(|m| out.metric(m).unwrap()).sum();
        let wall = out.metric("trace.wall_s").unwrap();
        assert!((sum - wall).abs() <= 1e-9 * wall.max(1.0), "{workload}: {sum} != {wall}");
        assert!(out.metric("trace.overhead_frac").is_some());
        assert!(out.metric("support.cache.lookups").unwrap() > 0.0, "{workload}");
    }
}

#[test]
fn replayed_cells_reproduce_the_programs_sim_stats() {
    let _serial = SERIAL.lock().unwrap();
    let w = &suite(Scale::Smoke)[0];
    let config = CoreConfig::default();
    for (scheme, cap) in
        [(Scheme::Unsafe, None), (Scheme::Levioso, None), (Scheme::Levioso, Some(1))]
    {
        configure_caches(&scratch("replay-program"));
        let program = match cap {
            None => levioso_bench::run_workload(w, scheme, &config),
            Some(cap) => levioso_bench::run_workload_capped(w, cap, &config),
        };
        configure_caches(&scratch("replay-replay"));
        let mut r = Replay::default();
        assert_eq!(r.run_cell(0, w, scheme, &config, cap), program, "{scheme} cold");
        assert_eq!(r.run_cell(1, w, scheme, &config, cap), program, "{scheme} from the cache");
        assert_eq!(r.counts.hits, 1);
    }

    let fuzz = FuzzConfig { programs: 2, pairs_per_program: 2, seed: DEFAULT_SEED, threads: 1 };
    configure_caches(&scratch("replay-program"));
    let program = levioso_nisec::fuzz(&fuzz, &Scheme::ALL);
    configure_caches(&scratch("replay-replay"));
    assert_eq!(Replay::default().fuzz(&fuzz, &Scheme::ALL), program);
}
