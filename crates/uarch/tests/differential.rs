//! Differential test of the core's fast paths against the implementations
//! they replaced.
//!
//! [`Simulator::enable_reference_checking`] runs the pre-optimization
//! implementations side-by-side with the production paths: per-instruction
//! sorted `Vec<Seq>` shadow / Levioso / taint sets and the `resolve_cycle`
//! map against the bitmask sets (at every dispatch, forward, resolve, and
//! commit), a binary search against every positioned ROB lookup, a
//! full-ROB scan for issue candidates against every ready-bitmap walk, the
//! older-ROB-entry walk against every store-queue verdict, and the
//! full-ROB issue scan against every issue cycle with a serializer in
//! flight; it also steps every cycle the quiet-cycle jump would skip and
//! re-decides every parked load every cycle. This file drives that oracle
//! with randomized programs — loads and stores over a tiny address pool,
//! some stores addressed by computed values, forward branches, `rdcycle`
//! and `fence` — under policies that consult *every* dependency-set
//! flavour, and additionally asserts that a checked run and an unchecked
//! run produce identical statistics and architectural state — i.e. the
//! oracle observes without perturbing, and jumping over quiet cycles
//! matches stepping through them.
//!
//! A separate test pins the slot-table state bound: speculation bookkeeping
//! is O(ROB), never O(dynamic instructions), which is the leak the old
//! `resolve_cycle: HashMap` had.

use levioso_isa::reg::*;
use levioso_isa::{AluOp, Annotations, BranchCond, DepSet, Instr, Machine, MemWidth, Program, Reg};
use levioso_support::{check, Gen, Rng};
use levioso_uarch::specmask::SPEC_MASK_BITS;
use levioso_uarch::{
    CoreConfig, DynInstr, ReferenceChecks, Release, SimStats, Simulator, SpeculationPolicy,
    UnsafeBaseline, Wait, MAX_ROB_SIZE,
};
use std::cell::Cell;

/// Delays transmits on the conservative shadow (execute-delay shape).
#[derive(Debug)]
struct ShadowDelay;

impl SpeculationPolicy for ShadowDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:shadow", deps: &instr.shadow, release: Release::Resolve })
    }
}

/// Delays transmits until every shadowing control instruction *commits*
/// (commit-delay shape; exercises `Release::Commit` and thus the live
/// control-slot mask).
#[derive(Debug)]
struct CommitShadowDelay;

impl SpeculationPolicy for CommitShadowDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:commit-shadow", deps: &instr.shadow, release: Release::Commit })
    }
}

/// Delays transmits with tainted operands (STT shape; exercises taint
/// roots, load-done tracking, and forwarding taint inheritance).
#[derive(Debug)]
struct TaintDelay;

impl SpeculationPolicy for TaintDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:taint", deps: &instr.taint_roots, release: Release::Untaint })
    }
}

/// Levioso shape: delays transmits on the true-dependency set
/// (annotation instances closed over dataflow), and serves speculative
/// loads hit-only while annotation dependencies are pending — together
/// touching `lev_deps`, `ann_deps`, and the hit-only issue path.
#[derive(Debug)]
struct LevDelay;

impl SpeculationPolicy for LevDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:lev", deps: &instr.lev_deps, release: Release::Resolve })
    }

    fn hit_only_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:lev-hit-only", deps: &instr.ann_deps, release: Release::Resolve })
    }
}

const POOL_BASE: i64 = 0x1000;

fn small_reg(g: &mut Gen) -> Reg {
    if g.bool_any() {
        Reg::new(g.u8_in(10..18))
    } else {
        Reg::new(g.u8_in(5..8))
    }
}

const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

/// The register `rdcycle` writes: outside the operand pool, read only as
/// `TIMER - TIMER`, and zeroed before `halt`. The simulator reads real
/// cycles and the interpreter retired instructions, so the value must not
/// reach architectural state.
const TIMER: Reg = T3;

#[derive(Debug, Clone)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Imm(AluOp, Reg, Reg, i64),
    Load(MemWidth, bool, Reg, i64),
    Store(MemWidth, Reg, i64),
    /// A store to `gp + (index & 24) + offset`: its address waits on
    /// `index`, often a loaded or divided value (histogram's
    /// `h[a[i] & 63]`), so younger loads park on an unknown address.
    IndexedStore(MemWidth, Reg, Reg, i64),
    FwdBranch(BranchCond, Reg, Reg, u8),
    RdCycle,
    Fence,
    /// `rd = TIMER - TIMER`: always 0, but waits for the last `rdcycle`.
    Elapsed(Reg),
}

/// A pool access `(width, offset)`: half the time one of three aligned
/// doublewords, so stores often match each other and later loads exactly
/// (several in-flight candidates for one forward), otherwise any width at
/// any byte of the pool (partial overlaps).
fn access(g: &mut Gen) -> (MemWidth, i64) {
    if g.bool_any() {
        (MemWidth::D, 8 * g.i64_in(0..3))
    } else {
        (*g.pick(&WIDTHS), g.i64_in(0..40))
    }
}

fn arb_op(g: &mut Gen) -> Op {
    // `Div` (20 cycles) is often squashed mid-flight, so its completion
    // pops after a later dispatch reused its ROB position.
    const ALU: [AluOp; 9] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Sltu,
        AluOp::Sra,
    ];
    const BRANCH: [BranchCond; 3] = [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt];
    // Branch-heavier than the LSQ stress mix: speculation sets are the
    // object under test, so keep many of them live at once. Serializers
    // are rarer: each one drains the pipeline.
    match g.weighted(&[3, 2, 3, 3, 3, 1, 1, 1, 2]) {
        0 => Op::Alu(*g.pick(&ALU), small_reg(g), small_reg(g), small_reg(g)),
        1 => Op::Imm(*g.pick(&ALU), small_reg(g), small_reg(g), g.i64_in(-64..64)),
        2 => {
            let (width, offset) = access(g);
            Op::Load(width, g.bool_any(), small_reg(g), offset)
        }
        3 => {
            let (width, offset) = access(g);
            Op::Store(width, small_reg(g), offset)
        }
        4 => Op::FwdBranch(*g.pick(&BRANCH), small_reg(g), small_reg(g), g.u8_in(1..6)),
        5 => Op::RdCycle,
        6 => Op::Fence,
        7 => Op::Elapsed(small_reg(g)),
        _ => {
            let (width, offset) = access(g);
            Op::IndexedStore(width, small_reg(g), small_reg(g), offset)
        }
    }
}

/// The register an [`Op::IndexedStore`] computes its address in (outside
/// the operand pool).
const STORE_ADDR: Reg = T5;

/// Lowers the op list into a halting program (same shape as the LSQ
/// stress generator: `gp` holds the pool base, branches only skip
/// forward over ops; [`TIMER`] is zeroed before `halt`).
fn lower(ops: &[Op]) -> Program {
    let mut instrs: Vec<Instr> =
        vec![Instr::AluImm { op: AluOp::Add, rd: GP, rs1: ZERO, imm: POOL_BASE }];
    // The instruction each op starts at, and the end: an indexed store
    // lowers to three instructions, every other op to one.
    let mut starts = Vec::with_capacity(ops.len() + 1);
    let mut at = instrs.len() as u32;
    for op in ops {
        starts.push(at);
        at += if matches!(op, Op::IndexedStore(..)) { 3 } else { 1 };
    }
    starts.push(at);
    for (k, op) in ops.iter().enumerate() {
        let instr = match *op {
            Op::Alu(op, rd, rs1, rs2) => Instr::Alu { op, rd, rs1, rs2 },
            Op::Imm(op, rd, rs1, imm) => Instr::AluImm { op, rd, rs1, imm },
            Op::Load(width, signed, rd, offset) => {
                Instr::Load { width, signed, rd, base: GP, offset }
            }
            Op::Store(width, src, offset) => Instr::Store { width, src, base: GP, offset },
            Op::IndexedStore(width, src, index, offset) => {
                instrs.push(Instr::AluImm { op: AluOp::And, rd: STORE_ADDR, rs1: index, imm: 24 });
                instrs.push(Instr::Alu {
                    op: AluOp::Add,
                    rd: STORE_ADDR,
                    rs1: STORE_ADDR,
                    rs2: GP,
                });
                Instr::Store { width, src, base: STORE_ADDR, offset }
            }
            Op::FwdBranch(cond, rs1, rs2, skip) => Instr::Branch {
                cond,
                rs1,
                rs2,
                target: starts[(k + 1 + skip as usize).min(ops.len())],
            },
            Op::RdCycle => Instr::RdCycle { rd: TIMER },
            Op::Fence => Instr::Fence,
            Op::Elapsed(rd) => Instr::Alu { op: AluOp::Sub, rd, rs1: TIMER, rs2: TIMER },
        };
        instrs.push(instr);
    }
    instrs.push(Instr::AluImm { op: AluOp::Add, rd: TIMER, rs1: ZERO, imm: 0 });
    instrs.push(Instr::Halt);
    Program::new("differential", instrs)
}

/// Random (but well-formed) annotations: exact sets drawn from the actual
/// branch indices, the conservative fallback, or empty. Soundness of the
/// annotations is irrelevant here — policies only *delay*, never change
/// dataflow — so random sets maximize coverage of the ann/lev plumbing.
fn arb_annotations(g: &mut Gen, p: &Program) -> Annotations {
    let branch_idxs: Vec<u32> = p
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::Branch { .. }))
        .map(|(k, _)| k as u32)
        .collect();
    let sets = (0..p.instrs.len())
        .map(|_| match g.weighted(&[3, 1, 2]) {
            0 if !branch_idxs.is_empty() => {
                let mut v: Vec<u32> =
                    (0..g.usize_in(1..4)).map(|_| *g.pick(&branch_idxs)).collect();
                v.sort_unstable();
                v.dedup();
                DepSet::Exact(v)
            }
            1 => DepSet::AllOlder,
            _ => DepSet::empty(),
        })
        .collect();
    Annotations::new(sets)
}

fn seed_regs(sim: &mut Simulator, seed: i64) {
    for r in 10..18 {
        sim.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
    }
}

fn run_once(
    p: &Program,
    seed: i64,
    policy: &dyn SpeculationPolicy,
    config: &CoreConfig,
    check: bool,
) -> (SimStats, u64, ReferenceChecks) {
    let mut sim = Simulator::new(p, config.clone());
    if check {
        sim.enable_reference_checking();
    }
    seed_regs(&mut sim, seed);
    let stats =
        sim.run(policy).unwrap_or_else(|e| panic!("{policy:?}: {e}\n{}", p.to_asm_string()));
    (stats, sim.arch_fingerprint(), sim.reference_checks())
}

/// The fast paths are equivalent to the implementations they replaced:
/// the in-simulator oracle asserts per-event equivalence, and the checked
/// run's observable results are bit-identical to the unchecked run's.
/// Over all cases, every kind of comparison must have been made, and the
/// 16-entry core's ROB ring and ready bitmap must have wrapped.
#[test]
fn bitmask_sets_match_vec_reference() {
    let total = Cell::new(ReferenceChecks::default());
    let most_tiny_dispatches = Cell::new(0);
    check::run("bitmask_sets_match_vec_reference", &check::Config::new(64), |g| {
        let count = g.usize_in(4..60);
        let ops: Vec<Op> = (0..count).map(|_| arb_op(g)).collect();
        let seed = g.i64_in(-1000..1000);
        let mut p = lower(&ops);
        p.annotations = Some(arb_annotations(g, &p));
        g.note("seed", &seed);
        g.note("asm", &p.to_asm_string());
        g.note("annotations", &p.annotations);

        // Architectural cross-check against the reference interpreter.
        let golden = {
            let mut m = Machine::new();
            for r in 10..18 {
                m.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
            }
            m.run(&p, 1_000_000).expect("forward-branch programs halt");
            m.arch_fingerprint()
        };

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

        let policies: [&dyn SpeculationPolicy; 5] =
            [&UnsafeBaseline, &ShadowDelay, &CommitShadowDelay, &TaintDelay, &LevDelay];
        for config in [&default, &tiny] {
            for policy in policies {
                let (plain_stats, plain_fp, _) = run_once(&p, seed, policy, config, false);
                let (ref_stats, ref_fp, checks) = run_once(&p, seed, policy, config, true);
                assert!(checks.sets > 0, "{policy:?}: oracle observed no set events");
                assert!(checks.lookups > 0, "{policy:?}: oracle checked no lookups");
                assert!(checks.ready_walks > 0, "{policy:?}: oracle checked no ready walk");
                assert_eq!(plain_fp, golden, "{policy:?}: wrong architectural state");
                assert_eq!(ref_fp, golden, "{policy:?}: oracle perturbed results");
                assert_eq!(plain_stats, ref_stats, "{policy:?}: oracle perturbed statistics");
                if std::ptr::eq(config, &tiny) {
                    most_tiny_dispatches.set(most_tiny_dispatches.get().max(ref_stats.dispatched));
                }
                let mut t = total.get();
                t += checks;
                total.set(t);
            }
        }
    });
    let t = total.get();
    let ring = 16u64.next_power_of_two();
    assert!(
        most_tiny_dispatches.get() > 2 * ring,
        "no 16-entry case dispatched more than twice its {ring}-slot ring"
    );
    assert!(t.lsq_verdicts > 0, "no store-queue verdict was checked: {t:?}");
    assert!(t.serialized_cycles > 0, "no issue cycle under a serializer was checked: {t:?}");
    assert!(t.quiet_cycles > 0, "no cycle the quiet-cycle jump skips was checked: {t:?}");
    assert!(t.parked_loads > 0, "no parked load was re-decided: {t:?}");
}

/// Speculation bookkeeping stays O(ROB): a branch-and-load-heavy loop
/// retires orders of magnitude more instructions than the ROB holds, yet
/// the slot table's high-water mark of live plus parked slots never
/// exceeds its fixed 2×ROB capacity (the old `resolve_cycle:
/// HashMap<Seq, u64>` grew with every control instruction ever
/// dispatched).
#[test]
fn speculation_state_is_bounded_by_rob_size() {
    let p = levioso_isa::assemble(
        "looped",
        r"
        li   t0, 3000
        li   a1, 0x100000
    loop:
        ld   t1, 0(a1)
        bnez t1, skip
        addi a2, a2, 1
    skip:
        ld   t2, 8(a1)
        beqz t2, over
        addi a3, a3, 1
    over:
        addi t0, t0, -1
        bnez t0, loop
        halt
    ",
    )
    .expect("assembles");
    let config = CoreConfig::default();
    let rob = config.rob_size;
    let mut sim = Simulator::new(&p, config);
    sim.mem.write_i64(0x10_0000, 1);
    let stats = sim.run(&LevDelay).expect("runs");
    assert!(
        stats.committed as usize > 20 * rob,
        "loop must retire far more than one ROB of instructions (got {})",
        stats.committed
    );
    let (watermark, capacity) = sim.spec_slot_watermark();
    assert_eq!(capacity, 2 * rob);
    assert!(watermark <= capacity, "slot watermark {watermark} exceeded capacity {capacity}");
    assert!(watermark > 0, "the loop speculates, so slots must have been used");
}

/// At the largest ROB a simulator accepts, slots really fill the
/// speculation masks: a serial pointer chase that misses to DRAM keeps the
/// ROB full of never-taken branches, and each miss's commit burst parks
/// their slots for a whole ROB's worth of commits. The high-water mark of
/// live plus parked slots reaches the masks' last word and stays within
/// the 2×ROB capacity, with the reference oracle checking every set and,
/// as the dispatches wrap the ROB ring twice, every ready-bitmap walk.
#[test]
fn speculation_slots_reach_the_last_mask_word_at_the_largest_rob() {
    let mut src = String::from("li t0, 24\nli a1, 0x100000\nloop:\nld t1, 0(a1)\n");
    // Each node's next pointer is 4 KiB on (memory reads zero), so every
    // load misses and waits for the one before it.
    src.push_str("addi a1, a1, 4096\nadd a1, a1, t1\n");
    for _ in 0..48 {
        src.push_str("bne zero, zero, loop\n");
    }
    src.push_str("addi t0, t0, -1\nbnez t0, loop\nhalt\n");
    let p = levioso_isa::assemble("chase", &src).expect("assembles");
    let config = CoreConfig::default().with_rob_size(MAX_ROB_SIZE);
    let mut sim = Simulator::new(&p, config);
    sim.enable_reference_checking();
    let stats = sim.run(&LevDelay).expect("runs");
    let ring = MAX_ROB_SIZE.next_power_of_two() as u64;
    assert!(
        stats.dispatched > 2 * ring,
        "{} dispatches did not wrap the {ring}-slot ROB ring twice",
        stats.dispatched
    );
    let (watermark, capacity) = sim.spec_slot_watermark();
    assert_eq!(capacity, 2 * MAX_ROB_SIZE);
    assert!(capacity <= SPEC_MASK_BITS, "capacity {capacity} exceeds the mask's {SPEC_MASK_BITS}");
    assert!(
        watermark > SPEC_MASK_BITS - 64,
        "slot watermark {watermark} never reached the last mask word (bits {}..{SPEC_MASK_BITS})",
        SPEC_MASK_BITS - 64
    );
    assert!(watermark <= capacity, "slot watermark {watermark} exceeded capacity {capacity}");
    let checks = sim.reference_checks();
    assert!(checks.sets > 0, "the oracle checked no speculation set");
    assert!(checks.ready_walks > 0, "the oracle checked no ready walk");
}
