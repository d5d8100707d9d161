//! Property-based tests for the lev64 ISA crate, on the in-tree
//! `levioso-support` harness (seeded, 64+ cases per property, failing
//! inputs reported via `g.note`).

use levioso_isa::{assemble, AluOp, BranchCond, Instr, Machine, MemWidth, Memory, Program, Reg};
use levioso_support::{Gen, Rng};

const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

const BRANCH_CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

fn arb_reg(g: &mut Gen) -> Reg {
    Reg::new(g.u8_in(0..32))
}

fn arb_alu_op(g: &mut Gen) -> AluOp {
    *g.pick(&AluOp::ALL)
}

/// Immediates and offsets: the full `i64` range the text form carries.
fn arb_imm(g: &mut Gen) -> i64 {
    g.i64_any()
}

/// Any instruction of a `len`-instruction program: branch and `jal`
/// targets stay inside it, and 64-bit loads are signed (`ld` is their one
/// spelling).
fn arb_instr(g: &mut Gen, len: u32) -> Instr {
    match g.usize_in(0..12) {
        0 => Instr::Alu { op: arb_alu_op(g), rd: arb_reg(g), rs1: arb_reg(g), rs2: arb_reg(g) },
        1 => Instr::AluImm { op: arb_alu_op(g), rd: arb_reg(g), rs1: arb_reg(g), imm: arb_imm(g) },
        2 => {
            let width = *g.pick(&WIDTHS);
            Instr::Load {
                width,
                signed: width == MemWidth::D || g.bool_any(),
                rd: arb_reg(g),
                base: arb_reg(g),
                offset: arb_imm(g),
            }
        }
        3 => Instr::Store {
            width: *g.pick(&WIDTHS),
            src: arb_reg(g),
            base: arb_reg(g),
            offset: arb_imm(g),
        },
        4 => Instr::Branch {
            cond: *g.pick(&BRANCH_CONDS),
            rs1: arb_reg(g),
            rs2: arb_reg(g),
            target: g.u64_in(0..u64::from(len)) as u32,
        },
        5 => Instr::Jal { rd: arb_reg(g), target: g.u64_in(0..u64::from(len)) as u32 },
        6 => Instr::Jalr { rd: arb_reg(g), base: arb_reg(g), offset: arb_imm(g) },
        7 => Instr::RdCycle { rd: arb_reg(g) },
        8 => Instr::Flush { base: arb_reg(g), offset: arb_imm(g) },
        9 => Instr::Fence,
        10 => Instr::Nop,
        _ => Instr::Halt,
    }
}

levioso_support::props! {
    cases = 256;

    /// ALU evaluation never panics and matches an independent
    /// recomputation for the easily-specified operations.
    fn alu_eval_total(g) {
        let op = arb_alu_op(g);
        let a = g.i64_any();
        let b = g.i64_any();
        g.note("op", &op);
        g.note("a", &a);
        g.note("b", &b);
        let v = op.eval(a, b);
        match op {
            AluOp::And => assert_eq!(v, a & b),
            AluOp::Or => assert_eq!(v, a | b),
            AluOp::Xor => assert_eq!(v, a ^ b),
            AluOp::Add => assert_eq!(v, a.wrapping_add(b)),
            AluOp::Sub => assert_eq!(v, a.wrapping_sub(b)),
            AluOp::Slt => assert_eq!(v, i64::from(a < b)),
            AluOp::Sltu => assert_eq!(v, i64::from((a as u64) < (b as u64))),
            _ => {}
        }
    }

    /// Branch conditions are each other's complements.
    fn branch_complements(g) {
        let a = g.i64_any();
        let b = g.i64_any();
        g.note("a", &a);
        g.note("b", &b);
        assert_ne!(BranchCond::Eq.eval(a, b), BranchCond::Ne.eval(a, b));
        assert_ne!(BranchCond::Lt.eval(a, b), BranchCond::Ge.eval(a, b));
        assert_ne!(BranchCond::Ltu.eval(a, b), BranchCond::Geu.eval(a, b));
    }

    /// Memory writes read back exactly, byte-for-byte, across page
    /// boundaries.
    fn memory_round_trip(g) {
        let addr = g.u64_any();
        let len = g.usize_in(0..64);
        let data: Vec<u8> = (0..len).map(|_| g.u8_any()).collect();
        g.note("addr", &addr);
        g.note("data", &data);
        let mut m = Memory::new();
        m.write_slice(addr, &data);
        assert_eq!(m.read_vec(addr, data.len()), data);
    }

    /// Programs of every instruction form round-trip through their own
    /// assembly listing.
    fn asm_round_trip(g) {
        let len = g.usize_in(1..32) as u32;
        let instrs: Vec<Instr> = (0..len).map(|_| arb_instr(g, len)).collect();
        let p1 = Program::new("t", instrs);
        g.note("program", &p1.instrs);
        let listing = p1.to_asm_string();
        let p2 = assemble("t", &listing).unwrap_or_else(|e| panic!("{e}\n{listing}"));
        assert_eq!(p1.instrs, p2.instrs);
    }

    /// The interpreter computes the same ALU result as direct evaluation.
    fn interp_matches_eval(g) {
        use levioso_isa::reg::{A0, A1, A2};
        let op = arb_alu_op(g);
        let a = g.i64_any();
        let b = g.i64_any();
        g.note("op", &op);
        g.note("a", &a);
        g.note("b", &b);
        let p = Program::new(
            "t",
            vec![
                Instr::Alu { op, rd: A2, rs1: A0, rs2: A1 },
                Instr::Halt,
            ],
        );
        let mut m = Machine::new();
        m.set_reg(A0, a);
        m.set_reg(A1, b);
        m.run(&p, 10).unwrap();
        assert_eq!(m.reg(A2), op.eval(a, b));
    }

    /// Loads sign/zero-extend consistently with the store that produced the
    /// bytes.
    fn load_extension_consistent(g) {
        use levioso_isa::reg::{A0, A1, T0};
        let value = g.i64_any();
        let signed = g.bool_any();
        g.note("value", &value);
        g.note("signed", &signed);
        for width in WIDTHS {
            let p = Program::new(
                "t",
                vec![
                    Instr::Store { width, src: A1, base: A0, offset: 0 },
                    Instr::Load { width, signed, rd: T0, base: A0, offset: 0 },
                    Instr::Halt,
                ],
            );
            let mut m = Machine::new();
            m.set_reg(A0, 0x8000);
            m.set_reg(A1, value);
            m.run(&p, 10).unwrap();
            let bits = width.bytes() * 8;
            let expected = if bits == 64 {
                value
            } else if signed {
                (value << (64 - bits)) >> (64 - bits)
            } else {
                value & ((1i64 << bits) - 1)
            };
            assert_eq!(m.reg(T0), expected, "width {width:?} signed {signed}");
        }
    }
}
