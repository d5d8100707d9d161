//! Randomized stress tests at the raw ISA level: mixed-width loads and
//! stores over a tiny address pool (maximum forwarding/overlap pressure)
//! plus forward-only branches (guaranteed termination), checked against the
//! reference interpreter under several policies and a deliberately tiny
//! core configuration. Random cases come from the seeded
//! `levioso-support` harness.

use levioso_isa::reg::*;
use levioso_isa::{AluOp, BranchCond, Instr, Machine, MemWidth, Program, Reg};
use levioso_support::{Gen, Rng};
use levioso_uarch::{
    CoreConfig, DynInstr, Release, Simulator, SpeculationPolicy, UnsafeBaseline, Wait,
};

/// A conservative hardware-only policy implemented directly against the
/// uarch crate (equivalent to levioso-core's ExecuteDelay; defined here so
/// this crate's tests stay dependency-free).
#[derive(Debug)]
struct DelayTransmit;

impl SpeculationPolicy for DelayTransmit {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:delay-transmit", deps: &instr.shadow, release: Release::Resolve })
    }
}

/// Delay-on-miss implemented locally.
#[derive(Debug)]
struct HitOnlyWhileSpec;

impl SpeculationPolicy for HitOnlyWhileSpec {
    fn hit_only_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:hit-only", deps: &instr.shadow, release: Release::Resolve })
    }
}

const POOL_BASE: i64 = 0x1000;

fn small_reg(g: &mut Gen) -> Reg {
    // a0..a7 + t0..t2: plenty of WAW/RAW collisions.
    if g.bool_any() {
        Reg::new(g.u8_in(10..18))
    } else {
        Reg::new(g.u8_in(5..8))
    }
}

const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

#[derive(Debug, Clone)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Imm(AluOp, Reg, Reg, i64),
    Load(MemWidth, bool, Reg, i64),
    Store(MemWidth, Reg, i64),
    FwdBranch(BranchCond, Reg, Reg, u8),
}

fn arb_op(g: &mut Gen) -> Op {
    const ALU: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Mul,
        AluOp::Sltu,
        AluOp::Sra,
    ];
    const BRANCH: [BranchCond; 3] = [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt];
    match g.weighted(&[3, 2, 3, 3, 1]) {
        0 => Op::Alu(*g.pick(&ALU), small_reg(g), small_reg(g), small_reg(g)),
        1 => Op::Imm(*g.pick(&ALU), small_reg(g), small_reg(g), g.i64_in(-64..64)),
        // Loads/stores confined to a 48-byte window for maximal overlap.
        2 => Op::Load(*g.pick(&WIDTHS), g.bool_any(), small_reg(g), g.i64_in(0..40)),
        3 => Op::Store(*g.pick(&WIDTHS), small_reg(g), g.i64_in(0..40)),
        _ => Op::FwdBranch(*g.pick(&BRANCH), small_reg(g), small_reg(g), g.u8_in(1..6)),
    }
}

/// Lowers the op list into a halting program: `gp` holds the pool base,
/// branches only skip forward.
fn lower(ops: &[Op]) -> Program {
    let mut instrs: Vec<Instr> =
        vec![Instr::AluImm { op: AluOp::Add, rd: GP, rs1: ZERO, imm: POOL_BASE }];
    // Pre-lower to know each op's instruction index (1 instr per op).
    let base = instrs.len() as u32;
    let n = ops.len() as u32;
    for (k, op) in ops.iter().enumerate() {
        let at = base + k as u32;
        instrs.push(match *op {
            Op::Alu(op, rd, rs1, rs2) => Instr::Alu { op, rd, rs1, rs2 },
            Op::Imm(op, rd, rs1, imm) => Instr::AluImm { op, rd, rs1, imm },
            Op::Load(width, signed, rd, offset) => {
                Instr::Load { width, signed, rd, base: GP, offset }
            }
            Op::Store(width, src, offset) => Instr::Store { width, src, base: GP, offset },
            Op::FwdBranch(cond, rs1, rs2, skip) => Instr::Branch {
                cond,
                rs1,
                rs2,
                target: (at + 1 + skip as u32).min(base + n), // into range, ≥ at+1
            },
        });
    }
    instrs.push(Instr::Halt);
    Program::new("stress", instrs)
}

fn run_reference(p: &Program, seed: i64) -> (u64, Vec<i64>) {
    let mut m = Machine::new();
    for r in 10..18 {
        m.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
    }
    m.run(p, 1_000_000).expect("straight-line-ish programs halt");
    (m.arch_fingerprint(), m.regs().to_vec())
}

fn run_sim(p: &Program, seed: i64, policy: &dyn SpeculationPolicy, config: &CoreConfig) -> u64 {
    let mut sim = Simulator::new(p, config.clone());
    for r in 10..18 {
        sim.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
    }
    sim.run(policy).unwrap_or_else(|e| panic!("{policy:?}: {e}\n{}", p.to_asm_string()));
    sim.arch_fingerprint()
}

levioso_support::props! {
    cases = 64;

    /// Random mixed-width memory traffic + forward branches: the simulator
    /// matches the interpreter under every policy and under a starved
    /// 1-wide, 16-entry configuration.
    fn lsq_stress_equivalence(g) {
        let count = g.usize_in(1..60);
        let ops: Vec<Op> = (0..count).map(|_| arb_op(g)).collect();
        let seed = g.i64_in(-1000..1000);
        let p = lower(&ops);
        g.note("seed", &seed);
        g.note("asm", &p.to_asm_string());
        let (golden, _) = run_reference(&p, seed);

        let default = CoreConfig::default();
        let mut tiny = CoreConfig::default().with_rob_size(16);
        tiny.fetch_width = 2;
        tiny.dispatch_width = 2;
        tiny.issue_width = 2;
        tiny.commit_width = 2;
        tiny.iq_size = 8;
        tiny.alu_count = 1;
        tiny.load_ports = 1;
        tiny.store_ports = 1;

        for config in [&default, &tiny] {
            assert_eq!(run_sim(&p, seed, &UnsafeBaseline, config), golden);
            assert_eq!(run_sim(&p, seed, &DelayTransmit, config), golden);
            assert_eq!(run_sim(&p, seed, &HitOnlyWhileSpec, config), golden);
        }
    }
}

#[test]
fn deep_recursion_overflows_ras_but_stays_correct() {
    // 48 nested calls exceed the 32-entry RAS: returns mispredict, but the
    // result must still be exact.
    let mut b = levioso_isa::ProgramBuilder::new("deep");
    b.li(A0, 48);
    b.li(A1, 0);
    b.call("rec");
    b.halt();
    b.label("rec");
    b.addi(A1, A1, 1);
    b.addi(A0, A0, -1);
    b.beqz(A0, "leaf");
    // Save ra on a software stack (sp-based).
    b.addi(SP, SP, -8);
    b.sd(RA, SP, 0);
    b.call("rec");
    b.ld(RA, SP, 0);
    b.addi(SP, SP, 8);
    b.label("leaf");
    b.ret();
    let p = b.build().unwrap();

    let mut m = Machine::new();
    m.set_reg(SP, 0x9_0000);
    m.run(&p, 1_000_000).unwrap();

    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.set_reg(SP, 0x9_0000);
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.reg(A1), 48);
    assert_eq!(sim.arch_fingerprint(), m.arch_fingerprint());
}

#[test]
fn branch_to_entry_is_legal() {
    let p = levioso_isa::assemble(
        "t",
        r"
        addi a0, a0, 1
        li   t0, 3
        blt  a0, t0, @0
        halt
    ",
    )
    .unwrap();
    let mut m = Machine::new();
    m.run(&p, 1000).unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.reg(A0), m.reg(A0));
    assert_eq!(sim.reg(A0), 3);
}

#[test]
fn wild_wrong_path_jalr_is_contained() {
    // On the predicted-wrong path, jalr's base register holds garbage; the
    // front end stalls (no prediction) or follows a stale target, and the
    // squash must clean everything up.
    let p = levioso_isa::assemble(
        "t",
        r"
        li   a1, 0x200000
        ld   t0, 0(a1)       # slow condition, value 1
        bnez t0, good        # predicted NT (cold), actually taken
        li   t1, 999999      # wrong path: bogus jump target
        jr   t1
        halt                 # never reached
    good:
        li   a0, 42
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.mem.write_i64(0x20_0000, 1);
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.reg(A0), 42);
}
