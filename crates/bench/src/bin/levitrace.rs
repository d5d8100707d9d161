//! `levitrace` — trace one simulation cell and export a Perfetto-loadable
//! Chrome trace-event file plus the delay-attribution report.
//!
//! ```text
//! levitrace --smoke --workload filter_scan --scheme levioso --out trace.json
//! ```
//!
//! The cell runs twice, once with each sink: a
//! [`levioso_bench::ChromeTraceSink`] (bounded instruction-lifetime spans)
//! and a [`levioso_bench::AttribSink`] (per-rule blame). Before exiting
//! the tool proves its own output:
//!
//! 1. **One cell** — both runs return equal `SimStats`: the simulator is
//!    deterministic and a sink observes it without steering it, so the
//!    spans and the blame describe the same execution;
//! 2. **Conservation** — blamed delay cycles must equal the simulator's
//!    `policy_delay_cycles` exactly;
//! 3. **Round-trip** — the written file is re-read and re-parsed with
//!    `levioso_support::Json`, and its structural invariants checked
//!    (`validate_chrome_trace`).
//!
//! Any violation exits nonzero, which is how CI uses it (`scripts/ci.sh`).
//! Load the output at <https://ui.perfetto.dev> or `chrome://tracing`;
//! timestamps are simulator cycles shown as microseconds.

use levioso_bench::{run_workload_traced, AttribSink, ChromeTraceSink};
use levioso_core::Scheme;
use levioso_uarch::CoreConfig;
use levioso_workloads::{suite, Scale};
use std::process::exit;

struct Args {
    scale: Scale,
    workload: String,
    scheme: Scheme,
    limit: usize,
    out: std::path::PathBuf,
}

fn usage() -> String {
    "usage: levitrace [--smoke|--paper] [--workload NAME] [--scheme NAME] \
     [--limit N] [--out PATH]\n\
     \n  --smoke          smoke-tier problem size (default: paper tier)\
     \n  --workload NAME  workload to trace (default: filter_scan)\
     \n  --scheme NAME    scheme to trace under (default: levioso)\
     \n  --limit N        max spans retained in the trace ring (default: 65536)\
     \n  --out PATH       trace output path (default: levioso_trace.json)"
        .to_string()
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: Scale::Paper,
        workload: "filter_scan".to_string(),
        scheme: Scheme::Levioso,
        limit: levioso_bench::trace_export::DEFAULT_CAPACITY,
        out: "levioso_trace.json".into(),
    };
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}\n{}", usage());
        exit(2)
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => a.scale = Scale::Smoke,
            "--paper" => a.scale = Scale::Paper,
            "--workload" => match args.next() {
                Some(w) => a.workload = w,
                None => fail("--workload needs a name"),
            },
            "--scheme" => match args.next().map(|s| s.parse::<Scheme>()) {
                Some(Ok(s)) => a.scheme = s,
                Some(Err(e)) => fail(&e.to_string()),
                None => fail("--scheme needs a name"),
            },
            "--limit" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => a.limit = n,
                _ => fail("--limit needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(p) => a.out = p.into(),
                None => fail("--out needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("{}", usage());
                exit(0);
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    a
}

fn main() {
    let args = parse_args();
    let workloads = suite(args.scale);
    let Some(w) = workloads.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "error: unknown workload `{}` (expected one of: {})",
            args.workload,
            workloads.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        );
        exit(2);
    };

    let config = CoreConfig::default();
    let sink = Box::new(ChromeTraceSink::with_capacity(args.limit));
    let (stats, chrome) = run_workload_traced(w, args.scheme, &config, sink);
    let chrome = chrome.into_any().downcast::<ChromeTraceSink>().expect("the sink we attached");
    let (attrib_stats, attrib) =
        run_workload_traced(w, args.scheme, &config, Box::new(AttribSink::new()));
    let attrib = attrib.into_any().downcast::<AttribSink>().expect("the sink we attached");
    let attrib = attrib.into_stats();

    // Proof 1: the spans and the blame come from the same execution.
    if attrib_stats != stats {
        eprintln!(
            "FAIL: the two traced runs differ: {} cycles and {} committed with the trace sink, \
             {} and {} with the attribution sink",
            stats.cycles, stats.committed, attrib_stats.cycles, attrib_stats.committed
        );
        exit(1);
    }

    // Proof 2: blame conservation against the simulator's own counter.
    if attrib.blamed_cycles() != stats.policy_delay_cycles {
        eprintln!(
            "FAIL: attribution not conserved: blamed {} cycles, simulator counted {}",
            attrib.blamed_cycles(),
            stats.policy_delay_cycles
        );
        exit(1);
    }

    let dropped = chrome.dropped();
    let doc = chrome.into_chrome_json();
    if let Err(e) = std::fs::write(&args.out, &doc) {
        eprintln!("FAIL: could not write {}: {e}", args.out.display());
        exit(1);
    }

    // Proof 3: the file on disk re-parses and passes structural checks.
    let reread = match std::fs::read_to_string(&args.out) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: could not re-read {}: {e}", args.out.display());
            exit(1);
        }
    };
    let summary = match levioso_bench::validate_chrome_trace(&reread) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: emitted trace is invalid: {e}");
            exit(1);
        }
    };

    print!("{}", attrib.render(&format!("delay attribution: {} / {}", w.name, args.scheme)));
    println!();
    eprintln!(
        "==> {} under {}: {} cycles, {} committed, {} policy-delay cycles (conserved)",
        w.name, args.scheme, stats.cycles, stats.committed, stats.policy_delay_cycles
    );
    eprintln!(
        "==> {}: {} spans ({} commit / {} squash, {} dropped), horizon {} cycles — \
         load it at https://ui.perfetto.dev",
        args.out.display(),
        summary.span_events,
        summary.committed,
        summary.squashed,
        dropped,
        summary.max_end
    );
}
