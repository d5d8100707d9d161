//! Metamorphic oracles for the policies: relations that follow from the
//! schemes' definitions, so they check the policies without trusting any
//! figure or golden the code under test produced.
//!
//! * With every dependency set widened to `AllOlder`
//!   ([`Annotations::all_older`]), Levioso has no compiler knowledge left:
//!   each instruction must wait for every older unresolved control
//!   instruction, which is exactly what the hardware-only execute-delay
//!   baseline does. So on those annotations `levioso` and
//!   `levioso-static` must time every kernel exactly like execute-delay.
//! * A program without a branch, jump or call is never speculative, so no
//!   gate of any scheme may hold: every scheme must time it exactly like
//!   `unsafe`.

use levioso_core::Scheme;
use levioso_isa::reg::{GP, T5, ZERO};
use levioso_isa::{AluOp, Annotations, Instr, MemWidth, Program, Reg};
use levioso_support::{Rng, Xoshiro256pp};
use levioso_uarch::{CoreConfig, SimStats, Simulator};
use levioso_workloads::{suite, Scale, Workload};

/// The configurations each relation is checked on.
fn configs() -> [(&'static str, CoreConfig); 3] {
    [
        ("the default core", CoreConfig::default()),
        ("ROB 64", CoreConfig::default().with_rob_size(64)),
        ("DRAM 300", CoreConfig::default().with_dram_latency(300)),
    ]
}

fn run(w: &Workload, scheme: Scheme, config: &CoreConfig, all_older: bool) -> SimStats {
    let mut program = w.program.clone();
    scheme.prepare(&mut program);
    if all_older {
        program.annotations = Some(Annotations::all_older(program.len()));
    }
    let mut sim = Simulator::new(&program, config.clone());
    w.apply_memory(&mut sim);
    let stats = sim
        .run(scheme.policy().as_ref())
        .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", w.name));
    assert_eq!(sim.mem.read_i64(w.checksum_addr), w.expected_checksum(), "{}", w.name);
    stats
}

/// Zeroes F1's two true-dependency counters: they are derived from the
/// annotations a run carries, not from its timing.
fn timing(s: SimStats) -> SimStats {
    SimStats { ready_while_true_dep: 0, true_wait_cycles: 0, ..s }
}

#[test]
fn levioso_on_all_older_annotations_is_execute_delay() {
    let (mut cases, mut delayed) = (0, 0);
    for w in suite(Scale::Smoke) {
        for (label, config) in &configs() {
            let reference = timing(run(&w, Scheme::ExecuteDelay, config, false));
            delayed += usize::from(reference.policy_delay_cycles > 0);
            for scheme in [Scheme::Levioso, Scheme::LeviosoStatic] {
                let got = timing(run(&w, scheme, config, true));
                assert_eq!(got, reference, "{} under {scheme} on {label}", w.name);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 72);
    // Equal stats would prove nothing if execute-delay never held anything.
    assert!(delayed > 0, "execute-delay delayed nothing on any kernel");
}

/// The base of the eight doublewords straight-line programs access.
const REGION: i64 = 0x2000;

/// A seeded straight-line program over `a0`–`a7`: it stores each register
/// into the region, then runs 32 random ops — ALU ops (`mul` and `div`
/// included), loads and stores at fixed region offsets, and loads and
/// stores at an address computed from a register, often one holding a
/// loaded value — then halts. It has no branch, jump or call. Also returns
/// how many of its loads take their address from a loaded value.
fn straight_line(seed: u64) -> (Program, usize) {
    const ALU: [AluOp; 7] =
        [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Mul, AluOp::Div, AluOp::Sra];
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let reg = |rng: &mut Xoshiro256pp| Reg::new(10 + rng.below(8) as u8);
    let mut instrs = vec![Instr::AluImm { op: AluOp::Add, rd: GP, rs1: ZERO, imm: REGION }];
    for (k, r) in (10..18).map(Reg::new).enumerate() {
        let imm = rng.i64_in(-1000..1000);
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: r, rs1: ZERO, imm });
        instrs.push(Instr::Store { width: MemWidth::D, src: r, base: GP, offset: 8 * k as i64 });
    }
    // Whether each register holds a value derived from a load.
    let mut loaded = [false; 32];
    let mut dependent_loads = 0;
    for _ in 0..32 {
        let (rd, rs) = (reg(&mut rng), reg(&mut rng));
        let offset = 8 * rng.i64_in(0..8);
        match rng.below(6) {
            0 | 1 => {
                let (op, rs2) = (ALU[rng.below(ALU.len() as u64) as usize], reg(&mut rng));
                instrs.push(Instr::Alu { op, rd, rs1: rs, rs2 });
                loaded[rd.index()] = loaded[rs.index()] || loaded[rs2.index()];
            }
            2 => {
                instrs.push(Instr::Load { width: MemWidth::D, signed: true, rd, base: GP, offset });
                loaded[rd.index()] = true;
            }
            3 => instrs.push(Instr::Store { width: MemWidth::D, src: rs, base: GP, offset }),
            kind => {
                // `T5 = GP + (rs & 56)`: a doubleword of the region.
                instrs.push(Instr::AluImm { op: AluOp::And, rd: T5, rs1: rs, imm: 56 });
                instrs.push(Instr::Alu { op: AluOp::Add, rd: T5, rs1: T5, rs2: GP });
                if kind == 4 {
                    instrs.push(Instr::Load {
                        width: MemWidth::D,
                        signed: true,
                        rd,
                        base: T5,
                        offset: 0,
                    });
                    dependent_loads += usize::from(loaded[rs.index()]);
                    loaded[rd.index()] = true;
                } else {
                    let src = reg(&mut rng);
                    instrs.push(Instr::Store { width: MemWidth::D, src, base: T5, offset: 0 });
                }
            }
        }
    }
    instrs.push(Instr::Halt);
    (Program::new("straight_line", instrs), dependent_loads)
}

fn run_straight(program: &Program, scheme: Scheme, config: &CoreConfig) -> SimStats {
    let mut program = program.clone();
    scheme.prepare(&mut program);
    Simulator::new(&program, config.clone())
        .run(scheme.policy().as_ref())
        .unwrap_or_else(|e| panic!("{scheme}: {e}"))
}

#[test]
fn without_control_instructions_every_scheme_is_unsafe() {
    let (mut cases, mut loads, mut dependent_loads) = (0, 0, 0);
    for seed in 0..64 {
        let (program, dependent) = straight_line(seed);
        dependent_loads += dependent;
        // Straight-line code commits every instruction it holds.
        loads += program.instrs.iter().filter(|i| i.is_load()).count();
        for (label, config) in &configs() {
            let reference = run_straight(&program, Scheme::Unsafe, config);
            for scheme in Scheme::ALL {
                let got = run_straight(&program, scheme, config);
                assert_eq!(got, reference, "seed {seed}: {scheme} on {label}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 1728);
    // Equal stats would prove little if no load ran, or if no load had to
    // wait for another load to learn its address.
    assert!(loads > 0, "no program committed a load");
    assert!(dependent_loads > 0, "no load's address depended on an earlier load");
}
