//! Secret-aware random program generation.
//!
//! Extends the seeded generator shape from `crates/uarch/tests/differential.rs`
//! with *speculative-leak gadgets*: blocks whose secret load is architecturally
//! dead (guarded by a branch that always skips it) but transiently reachable
//! under misprediction. Around the gadgets sit blocks of ordinary public
//! compute, so the secret-dependent events a leaky scheme produces are buried
//! in realistic pipeline noise rather than sitting alone in a toy trace.
//!
//! # Low-equivalence discipline
//!
//! A generated [`SecretProgram`] fixes everything *public*: the instruction
//! stream, the initial values of every public memory word, and the initial
//! public registers. Only the words at [`SecretProgram::secret_addrs`] differ
//! between the two runs of a pair. Two structural invariants make the pair
//! *low-equivalent* in the Guarnieri sense (identical public projection of the
//! initial state, secrets architecturally dead):
//!
//! * **Register partition** — public ops use only `a0..a7`/`t0..t2` (plus the
//!   `gp` pool base); gadgets use only `s2..s7`. No secret value can reach a
//!   public address or branch operand, even transiently.
//! * **Architecturally dead secrets** — each gadget's guard branch compares a
//!   chased value that is always `0`, so the architectural path always skips
//!   the secret load. The secret is only ever read on a mispredicted path.
//!   [`assert_pair_low_equivalent`] checks the consequence on the sequential
//!   reference machine: final register files and public memory agree exactly
//!   across the pair.
//!
//! The second invariant is also what lets STT pass the gate: STT only blocks
//! *speculatively accessed* data, so the secrets must never be loaded
//! architecturally.

use levioso_isa::reg::{GP, ZERO};
use levioso_isa::{AluOp, BranchCond, Instr, Machine, MemWidth, Program, Reg};
use levioso_support::cache::stable_hash_hex;
use levioso_support::Rng;
use std::fmt::Write;
use std::ops::Deref;
use std::sync::OnceLock;

/// Base of the public scratch pool addressed off `gp` (same convention as the
/// differential generator).
pub const POOL_BASE: i64 = 0x1000;
/// Number of 8-byte words in the public pool.
pub const POOL_WORDS: usize = 40;
/// Base of the probe oracle: [`ORACLE_LINES`] cache lines that the transient
/// transmit indexes by secret and the architectural probes sweep afterwards.
pub const ORACLE_BASE: i64 = 0x2000;
/// Number of oracle lines (the transmit uses `secret & (ORACLE_LINES - 1)`).
pub const ORACLE_LINES: usize = 8;
/// Base of the secret region: one 8-byte cell per gadget, 64 bytes apart so
/// each secret owns a cache line.
pub const SECRET_BASE: i64 = 0x8000;
/// Base of the pointer-chase region: two cells per gadget, used to keep each
/// gadget's guard branch unresolved for two serialized DRAM misses.
pub const CHASE_BASE: i64 = 0x4_0000;

/// Cache line size assumed by the gadget shape (matches `CoreConfig`).
const LINE: i64 = 64;

/// A generated program with its public initial state and the location of its
/// architecturally-dead secrets.
///
/// The public half — `sp.program`, `sp.public_mem` and `sp.reg_init`, the
/// [`PublicInputs`] fields, reached by `Deref` — cannot be assigned,
/// swapped or mutated outside this crate, so the digests every cell key of
/// the program embeds (`crate::cellcache::cell_key`) are computed once per
/// value and can never go stale. A clone carries them over.
#[derive(Debug, Clone)]
pub struct SecretProgram {
    /// Address of each gadget's secret cell (the *only* state allowed to
    /// differ between the two runs of a pair).
    pub secret_addrs: Vec<u64>,
    public: PublicInputs,
    program_digest: OnceLock<String>,
    public_state_digest: OnceLock<String>,
}

/// The state both runs of a pair share, readable through a
/// [`SecretProgram`] and writable only inside this crate.
///
/// ```
/// let sp = levioso_nisec::gen_program(&mut levioso_support::Xoshiro256pp::seed_from_u64(1));
/// let mut program = sp.program.clone(); // a plain `Program`, free to annotate
/// program.annotations = None;
/// assert!(!sp.public_mem.is_empty() && !sp.reg_init.is_empty());
/// ```
///
/// Assigning, mutating or swapping it does not compile:
///
/// ```compile_fail,E0594
/// let mut sp = levioso_nisec::gen_program(&mut levioso_support::Xoshiro256pp::seed_from_u64(1));
/// sp.reg_init = Vec::new();
/// ```
///
/// ```compile_fail,E0596
/// let mut sp = levioso_nisec::gen_program(&mut levioso_support::Xoshiro256pp::seed_from_u64(1));
/// sp.public_mem.push((0, 1));
/// ```
///
/// ```compile_fail,E0596
/// let mut sp = levioso_nisec::gen_program(&mut levioso_support::Xoshiro256pp::seed_from_u64(1));
/// sp.program.instrs.clear();
/// ```
///
/// ```compile_fail,E0596
/// let mut rng = levioso_support::Xoshiro256pp::seed_from_u64(1);
/// let (mut a, mut b) = (levioso_nisec::gen_program(&mut rng), levioso_nisec::gen_program(&mut rng));
/// std::mem::swap(&mut a.program, &mut b.program);
/// ```
#[derive(Debug, Clone)]
pub struct PublicInputs {
    /// The instruction stream, un-annotated: callers run `Scheme::prepare`
    /// on a clone to attach real compiler annotations. It stays
    /// un-annotated (this field is read-only outside this crate), which is
    /// what lets `fuzz` prepare one clone per `Scheme::flavour` and share
    /// it across schemes.
    pub program: Program,
    /// Public memory initialization, identical across both runs of a pair.
    pub public_mem: Vec<(u64, i64)>,
    /// Public register initialization, identical across both runs of a pair.
    pub reg_init: Vec<(Reg, i64)>,
}

impl Deref for SecretProgram {
    type Target = PublicInputs;

    fn deref(&self) -> &PublicInputs {
        &self.public
    }
}

impl SecretProgram {
    /// [`stable_hash_hex`] of the program's assembly listing, computed once.
    pub(crate) fn program_digest(&self) -> &str {
        self.program_digest.get_or_init(|| stable_hash_hex(self.program.to_asm_string().as_bytes()))
    }

    /// [`stable_hash_hex`] of the public state rendered one line per
    /// memory word (`mem {addr:#x}={val}`), then one per register
    /// (`reg {reg:?}={val}`), computed once.
    pub(crate) fn public_state_digest(&self) -> &str {
        self.public_state_digest.get_or_init(|| {
            let mut state = String::new();
            for (addr, val) in &self.public_mem {
                let _ = writeln!(state, "mem {addr:#x}={val}");
            }
            for (reg, val) in &self.reg_init {
                let _ = writeln!(state, "reg {reg:?}={val}");
            }
            stable_hash_hex(state.as_bytes())
        })
    }
}

/// Public-register helper: `a0..a7` or `t0..t2`, never an `s` register.
fn public_reg<R: Rng>(rng: &mut R) -> Reg {
    if rng.bool_any() {
        Reg::new(rng.u8_in(10..18))
    } else {
        Reg::new(rng.u8_in(5..8))
    }
}

const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];
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

/// One public op (the differential-test mix, restricted to public registers
/// and the public pool).
#[derive(Debug, Clone)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Imm(AluOp, Reg, Reg, i64),
    Load(MemWidth, bool, Reg, i64),
    Store(MemWidth, Reg, i64),
    FwdBranch(BranchCond, Reg, Reg, u8),
}

fn arb_op<R: Rng>(rng: &mut R) -> Op {
    match rng.weighted(&[3, 2, 3, 3, 3]) {
        0 => Op::Alu(*rng.pick(&ALU), public_reg(rng), public_reg(rng), public_reg(rng)),
        1 => Op::Imm(*rng.pick(&ALU), public_reg(rng), public_reg(rng), rng.i64_in(-64..64)),
        2 => Op::Load(
            *rng.pick(&WIDTHS),
            rng.bool_any(),
            public_reg(rng),
            rng.i64_in(0..(POOL_WORDS as i64 * 8 - 8)),
        ),
        3 => Op::Store(
            *rng.pick(&WIDTHS),
            public_reg(rng),
            rng.i64_in(0..(POOL_WORDS as i64 * 8 - 8)),
        ),
        _ => Op::FwdBranch(*rng.pick(&BRANCH), public_reg(rng), public_reg(rng), rng.u8_in(1..6)),
    }
}

/// Emits a public block. Forward branches are clamped to the end of *this*
/// block so no architectural public branch targets a gadget interior.
fn emit_public_block(instrs: &mut Vec<Instr>, ops: &[Op]) {
    let base = instrs.len() as u32;
    let n = ops.len() as u32;
    for (k, op) in ops.iter().enumerate() {
        let at = base + k as u32;
        instrs.push(match *op {
            Op::Alu(op, rd, rs1, rs2) => Instr::Alu { op, rd, rs1, rs2 },
            Op::Imm(op, rd, rs1, imm) => Instr::AluImm { op, rd, rs1, imm },
            // `ld` is the one 64-bit load and reads back signed, so the
            // program's listing re-assembles to the same instructions.
            Op::Load(width, signed, rd, offset) => {
                Instr::Load { width, signed: signed || width == MemWidth::D, rd, base: GP, offset }
            }
            Op::Store(width, src, offset) => Instr::Store { width, src, base: GP, offset },
            Op::FwdBranch(cond, rs1, rs2, skip) => {
                Instr::Branch { cond, rs1, rs2, target: (at + 1 + skip as u32).min(base + n) }
            }
        });
    }
}

/// Emits gadget `i`: a guard branch kept unresolved by a two-deep cold
/// pointer chase (~2× DRAM latency), an architecturally-dead transient body
/// that loads the secret and transmits `secret & (ORACLE_LINES-1)` into the
/// oracle, and a serialized architectural probe sweep over the oracle lines.
///
/// The chase cells hold `mem[c] = c + 64`, `mem[c + 64] = 0`, so the guard
/// `beq s2, zero` is *always* architecturally taken (skipping the body) while
/// the cold gshare counters predict it not-taken — the body only ever
/// executes transiently. The probe sweep interleaves `rdcycle` serializers
/// between the oracle loads so a warm line at a secret-dependent position
/// shifts every later probe's commit cycle (this is what makes the unsafe
/// baseline visibly leaky even to the commit-timing observer).
fn emit_gadget(instrs: &mut Vec<Instr>, i: usize) {
    let (s2, s3, s4, s5, s6, s7) =
        (Reg::new(18), Reg::new(19), Reg::new(20), Reg::new(21), Reg::new(22), Reg::new(23));
    let chase = CHASE_BASE + i as i64 * 2 * LINE;
    let secret = SECRET_BASE + i as i64 * LINE;

    instrs.push(Instr::AluImm { op: AluOp::Add, rd: s2, rs1: ZERO, imm: chase });
    let ld = |rd: Reg, base: Reg, offset: i64| Instr::Load {
        width: MemWidth::D,
        signed: true,
        rd,
        base,
        offset,
    };
    instrs.push(ld(s2, s2, 0));
    instrs.push(ld(s2, s2, 0));
    instrs.push(Instr::AluImm { op: AluOp::Add, rd: s3, rs1: ZERO, imm: secret });
    instrs.push(Instr::AluImm { op: AluOp::Add, rd: s6, rs1: ZERO, imm: ORACLE_BASE });
    // Guard: architecturally always taken (s2 chased to 0), predicted
    // not-taken while cold. Skips the 5-instruction transient body.
    let guard_at = instrs.len() as u32;
    instrs.push(Instr::Branch { cond: BranchCond::Eq, rs1: s2, rs2: ZERO, target: guard_at + 6 });
    instrs.push(ld(s4, s3, 0));
    instrs.push(Instr::AluImm { op: AluOp::And, rd: s5, rs1: s4, imm: ORACLE_LINES as i64 - 1 });
    instrs.push(Instr::AluImm { op: AluOp::Sll, rd: s5, rs1: s5, imm: 6 });
    instrs.push(Instr::Alu { op: AluOp::Add, rd: s5, rs1: s5, rs2: s6 });
    instrs.push(ld(s7, s5, 0));
    // Architectural probe sweep, serialized with rdcycle.
    for line in 0..ORACLE_LINES as i64 {
        instrs.push(ld(s7, s6, line * LINE));
        instrs.push(Instr::RdCycle { rd: s7 });
    }
}

/// Generates one secret-aware program: alternating public blocks and 1–2
/// leak gadgets, plus the public initial state the pair shares.
pub fn gen_program<R: Rng>(rng: &mut R) -> SecretProgram {
    let n_gadgets = rng.usize_in(1..3);

    let mut instrs = vec![Instr::AluImm { op: AluOp::Add, rd: GP, rs1: ZERO, imm: POOL_BASE }];
    for i in 0..n_gadgets {
        let ops: Vec<Op> = (0..rng.usize_in(4..16)).map(|_| arb_op(rng)).collect();
        emit_public_block(&mut instrs, &ops);
        emit_gadget(&mut instrs, i);
    }
    let ops: Vec<Op> = (0..rng.usize_in(4..16)).map(|_| arb_op(rng)).collect();
    emit_public_block(&mut instrs, &ops);
    instrs.push(Instr::Halt);

    let mut public_mem = Vec::new();
    for w in 0..POOL_WORDS {
        public_mem.push(((POOL_BASE + w as i64 * 8) as u64, rng.i64_in(-1 << 20..1 << 20)));
    }
    for i in 0..n_gadgets {
        let chase = CHASE_BASE + i as i64 * 2 * LINE;
        public_mem.push((chase as u64, chase + LINE));
        public_mem.push(((chase + LINE) as u64, 0));
    }

    let reg_init: Vec<(Reg, i64)> =
        (10..18).map(|r| (Reg::new(r), rng.i64_in(-1 << 16..1 << 16))).collect();

    let secret_addrs = (0..n_gadgets).map(|i| (SECRET_BASE + i as i64 * LINE) as u64).collect();

    SecretProgram {
        secret_addrs,
        public: PublicInputs { program: Program::new("nisec", instrs), public_mem, reg_init },
        program_digest: OnceLock::new(),
        public_state_digest: OnceLock::new(),
    }
}

/// Draws one secret pair per gadget. The two values always select different
/// oracle lines (`a & 7 != b & 7`), so a scheme that lets the transient
/// transmit land is guaranteed to produce distinguishable cache states.
pub fn gen_secret_pair<R: Rng>(rng: &mut R, n_gadgets: usize) -> Vec<(i64, i64)> {
    (0..n_gadgets)
        .map(|_| {
            let a = rng.i64_in(0..256);
            let mask = ORACLE_LINES as i64 - 1;
            let b = loop {
                let b = rng.i64_in(0..256);
                if b & mask != a & mask {
                    break b;
                }
            };
            (a, b)
        })
        .collect()
}

/// Seeds a sequential reference [`Machine`] with the program's public state
/// and the given per-gadget secrets.
fn seeded_machine(sp: &SecretProgram, secrets: &[i64]) -> Machine {
    let mut m = Machine::new();
    for &(addr, v) in &sp.public_mem {
        m.mem.write_i64(addr, v);
    }
    for (&addr, &s) in sp.secret_addrs.iter().zip(secrets) {
        m.mem.write_i64(addr, s);
    }
    for &(r, v) in &sp.reg_init {
        m.set_reg(r, v);
    }
    m
}

/// Checks the low-equivalence consequence on the sequential reference
/// machine: running both members of the pair architecturally must yield
/// identical final register files and identical public memory, because the
/// secrets are architecturally dead.
///
/// # Panics
///
/// Panics (with the program listing) if either run fails or any public
/// state diverges — that would mean the generator produced a program whose
/// secret is architecturally live, which would invalidate every verdict the
/// harness reports for it.
pub fn assert_pair_low_equivalent(sp: &SecretProgram, pair: &[(i64, i64)]) {
    let a: Vec<i64> = pair.iter().map(|&(a, _)| a).collect();
    let b: Vec<i64> = pair.iter().map(|&(_, b)| b).collect();
    let mut ma = seeded_machine(sp, &a);
    let mut mb = seeded_machine(sp, &b);
    ma.run(&sp.program, 1_000_000).expect("secret run A diverged architecturally");
    mb.run(&sp.program, 1_000_000).expect("secret run B diverged architecturally");
    assert_eq!(
        ma.regs(),
        mb.regs(),
        "final register file differs across a low-equivalent pair:\n{}",
        sp.program.to_asm_string()
    );
    for &(addr, _) in &sp.public_mem {
        assert_eq!(
            ma.mem.read_i64(addr),
            mb.mem.read_i64(addr),
            "public word {addr:#x} differs across a low-equivalent pair"
        );
    }
}
