//! Self-tests of the noninterference gate: non-vacuity (the canary — the
//! unsafe baseline — must be caught by every observer), cleanliness of the
//! delaying schemes, observer-coarseness relations, generator low-equivalence,
//! re-assembly of the paper campaign's listings, thread-count determinism of
//! the report, and its equality with a reference that prepares every run's
//! program separately.

use levioso_core::Scheme;
use levioso_isa::reg::{A1, A2, A3, A4, A5, ZERO};
use levioso_isa::{AluOp, BranchCond, Instr, MemWidth, Program};
use levioso_nisec::{
    assert_pair_low_equivalent, cellcache, diff, fuzz, gen_program, gen_secret_pair, CellResult,
    FuzzConfig, FuzzReport, Observer, Recorder, SecretProgram, ENFORCED_CLEAN,
};
use levioso_support::{Cache, Xoshiro256pp};
use levioso_uarch::{CoreConfig, Simulator};

/// A small deterministic campaign config shared by the self-tests.
fn tiny(threads: usize) -> FuzzConfig {
    FuzzConfig { programs: 6, pairs_per_program: 2, seed: 0x5eed, threads }
}

/// The always-run canary: the unsafe baseline must be flagged leaky on at
/// least one cell for *every* observer. If this fails, the gate's green on
/// the secure schemes is vacuous.
#[test]
fn unsafe_baseline_is_caught_by_every_observer() {
    let report = fuzz(&tiny(0), &[Scheme::Unsafe]);
    for observer in Observer::ALL {
        let n = report.leaks(Scheme::Unsafe, observer);
        assert!(
            n > 0,
            "vacuity: unsafe baseline clean under the {observer} observer on all {} cells",
            report.cells
        );
    }
    assert!(
        report.gate_failures().is_empty(),
        "unsafe-only campaign must pass the gate (vacuity satisfied, no enforced scheme ran): {:?}",
        report.gate_failures()
    );
}

/// Every delaying scheme the gate enforces must be observation-clean on
/// every cell of the same campaign that catches the unsafe baseline.
#[test]
fn enforced_delaying_schemes_are_clean() {
    let report = fuzz(&tiny(0), &ENFORCED_CLEAN);
    for &scheme in &ENFORCED_CLEAN {
        for observer in Observer::ALL {
            assert_eq!(
                report.leaks(scheme, observer),
                0,
                "{} leaked under the {observer} observer: {:?}",
                scheme.name(),
                report.first_leak(scheme, observer)
            );
        }
    }
    assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
}

/// Universal coarseness over real runs: whenever the full-trace projection
/// of a cell agrees, every coarser projection agrees too (they are all pure
/// functions of the same recorded stream).
#[test]
fn coarser_observers_agree_wherever_full_trace_agrees() {
    let report = fuzz(&tiny(0), &[Scheme::Unsafe, Scheme::Levioso]);
    let full = Observer::ALL.iter().position(|&o| o == Observer::FullTrace).unwrap();
    for cell in &report.results {
        if cell.diverged[full].is_none() {
            for (oi, d) in cell.diverged.iter().enumerate() {
                assert!(
                    d.is_none(),
                    "{} program {} pair {}: clean full trace but {} diverged: {:?}",
                    cell.scheme.name(),
                    cell.program,
                    cell.pair,
                    Observer::ALL[oi],
                    d
                );
            }
        }
    }
}

/// Records one run of `program` under `scheme` with the given secret.
fn record(
    program: &Program,
    scheme: Scheme,
    secret_addr: u64,
    secret: i64,
) -> Vec<levioso_nisec::Ev> {
    let mut p = program.clone();
    scheme.prepare(&mut p);
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.mem.write_i64(secret_addr, secret);
    sim.attach_tracer(Box::new(Recorder::default()));
    sim.run(scheme.policy().as_ref()).expect("run");
    sim.take_tracer().unwrap().into_any().downcast::<Recorder>().unwrap().events
}

/// Strict-coarseness witness: a program where the secret influences control
/// flow (and hence the full event trace and commit timing) but not the set
/// of cache lines filled. The cache-line observer must call it clean while
/// the full-trace observer flags it — so cache-line is *strictly* coarser,
/// not merely equal.
#[test]
fn cache_line_observer_is_strictly_coarser_than_full_trace() {
    const SECRET: i64 = 0x8000;
    const PROBE: i64 = 0x2000;
    let ld = |rd, base, offset| Instr::Load { width: MemWidth::D, signed: true, rd, base, offset };
    let program = Program::new(
        "witness",
        vec![
            Instr::AluImm { op: AluOp::Add, rd: A1, rs1: ZERO, imm: SECRET },
            ld(A2, A1, 0),
            Instr::AluImm { op: AluOp::And, rd: A3, rs1: A2, imm: 1 },
            // Taken iff the secret's low bit is 0: the secret decides the
            // committed path (and the misprediction), nothing else.
            Instr::Branch { cond: BranchCond::Eq, rs1: A3, rs2: ZERO, target: 5 },
            Instr::Nop,
            Instr::AluImm { op: AluOp::Add, rd: A4, rs1: ZERO, imm: PROBE },
            ld(A5, A4, 0),
            Instr::Halt,
        ],
    );
    // Low bits differ, so the two runs take different architectural paths;
    // both runs fill exactly {secret line, probe line}.
    let a = record(&program, Scheme::Unsafe, SECRET as u64, 2);
    let b = record(&program, Scheme::Unsafe, SECRET as u64, 3);
    assert!(
        diff(Observer::FullTrace, &a, &b).is_some(),
        "witness must diverge under the full-trace observer"
    );
    assert!(
        diff(Observer::CommitTiming, &a, &b).is_some(),
        "witness commits different paths, so commit-timing must diverge too"
    );
    assert_eq!(
        diff(Observer::CacheLine, &a, &b),
        None,
        "witness fills the same lines in both runs; the cache-line observer must be blind to it"
    );
}

/// The generator's low-equivalence contract, checked on the sequential
/// reference machine: secrets are architecturally dead, so final registers
/// and public memory agree across every generated pair.
#[test]
fn generated_pairs_are_low_equivalent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xd15c);
    for _ in 0..24 {
        let sp = gen_program(&mut rng);
        for _ in 0..2 {
            let pair = gen_secret_pair(&mut rng, sp.secret_addrs.len());
            assert_eq!(pair.len(), sp.secret_addrs.len());
            for &(a, b) in &pair {
                assert_ne!(a & 7, b & 7, "pair must select distinct oracle lines");
            }
            assert_pair_low_equivalent(&sp, &pair);
        }
    }
}

/// Every program of the paper-tier campaign, drawn as `fuzz` draws it,
/// assembles back from its own listing (the text a failure report prints).
#[test]
fn paper_campaign_listings_reassemble() {
    let config = FuzzConfig::paper(1);
    let mut master = Xoshiro256pp::seed_from_u64(config.seed);
    for p in 0..config.programs {
        let sp = gen_program(&mut master.split());
        let listing = sp.program.to_asm_string();
        let back = levioso_isa::assemble("t", &listing)
            .unwrap_or_else(|e| panic!("program {p}: {e}\n{listing}"));
        assert_eq!(back.instrs, sp.program.instrs, "program {p}");
    }
}

/// The report is a pure function of the seed: any thread count produces the
/// identical report, divergence strings included.
#[test]
fn report_is_deterministic_across_thread_counts() {
    let schemes = [Scheme::Unsafe, Scheme::Levioso, Scheme::Stt];
    let one = fuzz(&tiny(1), &schemes);
    let four = fuzz(&tiny(4), &schemes);
    assert_eq!(one, four);
    assert_eq!(one.render(), four.render());
    assert_eq!(one.to_json(), four.to_json());
}

/// Records both runs of one secret pair with nothing shared: each side
/// clones the generated program and prepares its own copy.
fn record_pair_per_side(
    sp: &SecretProgram,
    secrets: &[(i64, i64)],
    scheme: Scheme,
) -> [Vec<levioso_nisec::Ev>; 2] {
    [0usize, 1].map(|side| {
        let mut program = sp.program.clone();
        scheme.prepare(&mut program);
        let mut sim = Simulator::new(&program, CoreConfig::default());
        for &(addr, v) in &sp.public_mem {
            sim.mem.write_i64(addr, v);
        }
        for (&addr, &(a, b)) in sp.secret_addrs.iter().zip(secrets) {
            sim.mem.write_i64(addr, if side == 0 { a } else { b });
        }
        for &(r, v) in &sp.reg_init {
            sim.set_reg(r, v);
        }
        sim.attach_tracer(Box::new(Recorder::default()));
        sim.run(scheme.policy().as_ref()).expect("run");
        sim.take_tracer().unwrap().into_any().downcast::<Recorder>().unwrap().events
    })
}

/// The campaign, cell by cell in job order on one thread, with no cache.
fn per_side_reference(config: &FuzzConfig, schemes: &[Scheme]) -> FuzzReport {
    let mut master = Xoshiro256pp::seed_from_u64(config.seed);
    let mut results = Vec::new();
    for program in 0..config.programs {
        let mut rng = master.split();
        let sp = gen_program(&mut rng);
        let pairs: Vec<Vec<(i64, i64)>> = (0..config.pairs_per_program)
            .map(|_| gen_secret_pair(&mut rng, sp.secret_addrs.len()))
            .collect();
        for (pair, secrets) in pairs.iter().enumerate() {
            for &scheme in schemes {
                let [a, b] = record_pair_per_side(&sp, secrets, scheme);
                let diverged = Observer::ALL.iter().map(|&o| diff(o, &a, &b)).collect();
                results.push(CellResult { scheme, program, pair, diverged });
            }
        }
    }
    FuzzReport { schemes: schemes.to_vec(), cells: config.cells(), seed: config.seed, results }
}

/// Sharing one annotated program per flavour across a program's cells
/// changes no verdict. The cache is switched off first, so the campaign
/// computes every cell instead of replaying verdicts an earlier run
/// stored; the other tests here only read reports, which the cache never
/// changes.
#[test]
fn campaign_equals_a_per_side_reference() {
    cellcache::configure(Cache::disabled());
    let expected = per_side_reference(&tiny(1), &Scheme::ALL);
    assert!(expected.results.iter().any(|c| c.diverged.iter().any(Option::is_some)));
    for threads in [1, 2] {
        assert_eq!(fuzz(&tiny(threads), &Scheme::ALL), expected, "{threads} thread(s)");
    }
}
