//! Instruction definitions of the lev64 ISA.
//!
//! lev64 is a load/store RISC ISA modelled loosely on RV64I+M, plus the
//! handful of extras a secure-speculation study needs:
//!
//! * [`Instr::RdCycle`] reads the cycle counter (used by side-channel
//!   receivers to time probe loads);
//! * [`Instr::Flush`] evicts one cache line (used to set up flush+reload);
//! * [`Instr::Halt`] terminates the program.
//!
//! The program counter is an *instruction index* into the program's
//! instruction vector; branch and jump targets are absolute instruction
//! indices. Code and data live in separate address spaces (a Harvard-style
//! split) so data addresses never alias instruction storage.

use crate::Reg;
use std::fmt;

/// ALU operation for register-register and register-immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Sll,
    /// Logical shift right (shift amount masked to 6 bits).
    Srl,
    /// Arithmetic shift right (shift amount masked to 6 bits).
    Sra,
    /// Set if less than (signed): `rd = (rs1 < rs2) as i64`.
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// High 64 bits of the signed 128-bit product.
    Mulh,
    /// Signed division (RISC-V semantics: `x / 0 == -1`, overflow wraps).
    Div,
    /// Signed remainder (RISC-V semantics: `x % 0 == x`).
    Rem,
}

impl AluOp {
    /// Every operation, in declaration order.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Div,
        AluOp::Rem,
    ];

    /// Evaluates the operation on two 64-bit values.
    ///
    /// Division follows RISC-V M semantics: division by zero yields `-1`
    /// (`Div`) or the dividend (`Rem`); `i64::MIN / -1` wraps.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Srl => ((a as u64).wrapping_shr((b & 0x3f) as u32)) as i64,
            AluOp::Sra => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Slt => i64::from(a < b),
            AluOp::Sltu => i64::from((a as u64) < (b as u64)),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i128) * (b as i128)) >> 64) as i64,
            AluOp::Div => {
                if b == 0 {
                    -1
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
        }
    }

    /// Mnemonic for the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        }
    }

    /// Mnemonic for the register-immediate form: the register-register
    /// mnemonic with an `i` appended, except RISC-V's `sltiu`.
    pub fn imm_mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "addi",
            AluOp::Sub => "subi",
            AluOp::And => "andi",
            AluOp::Or => "ori",
            AluOp::Xor => "xori",
            AluOp::Sll => "slli",
            AluOp::Srl => "srli",
            AluOp::Sra => "srai",
            AluOp::Slt => "slti",
            AluOp::Sltu => "sltiu",
            AluOp::Mul => "muli",
            AluOp::Mulh => "mulhi",
            AluOp::Div => "divi",
            AluOp::Rem => "remi",
        }
    }
}

/// Branch comparison condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater than or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater than or equal (unsigned).
    Geu,
}

impl BranchCond {
    /// Evaluates the condition.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Ltu => (a as u64) < (b as u64),
            BranchCond::Geu => (a as u64) >= (b as u64),
        }
    }

    /// Mnemonic (`beq`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
            MemWidth::D => "d",
        }
    }
}

/// A decoded lev64 instruction.
///
/// Instruction indices (`target` fields) address the program's instruction
/// vector directly; there is no byte-granular code space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field names (rd/rs1/rs2/imm/base/offset/…) follow RISC conventions
pub enum Instr {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    ///
    /// The immediate is a full `i64`; lev64 does not model immediate-width
    /// encoding limits (the assembler's `li` pseudo-instruction expands to
    /// this form).
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i64 },
    /// Load: `rd = sign_or_zero_extend(mem[rs1 + offset])`.
    Load { width: MemWidth, signed: bool, rd: Reg, base: Reg, offset: i64 },
    /// Store: `mem[rs1 + offset] = truncate(rs2)`.
    Store { width: MemWidth, src: Reg, base: Reg, offset: i64 },
    /// Conditional branch to absolute instruction index `target`.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, target: u32 },
    /// Unconditional jump-and-link to absolute instruction index `target`;
    /// `rd` receives the return instruction index (`pc + 1`).
    Jal { rd: Reg, target: u32 },
    /// Indirect jump-and-link: jumps to the instruction index in
    /// `rs1 + offset`; `rd` receives `pc + 1`.
    Jalr { rd: Reg, base: Reg, offset: i64 },
    /// Reads the cycle counter into `rd`.
    ///
    /// The functional interpreter returns the retired-instruction count; the
    /// out-of-order simulator returns the actual core cycle.
    RdCycle { rd: Reg },
    /// Evicts the cache line containing data address `rs1 + offset` from the
    /// whole hierarchy. Architecturally a no-op.
    Flush { base: Reg, offset: i64 },
    /// Full pipeline/memory fence: the out-of-order core does not issue
    /// younger instructions until the fence retires. Architecturally a no-op.
    Fence,
    /// No operation.
    Nop,
    /// Terminates the program.
    Halt,
}

impl Instr {
    /// Destination register, if the instruction writes one (writes to `x0`
    /// report `None`).
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::RdCycle { rd } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// Source registers read by the instruction (reads of `x0` included;
    /// they always yield 0).
    pub fn sources(&self) -> SourceIter {
        let (a, b) = match *self {
            Instr::Alu { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Instr::AluImm { rs1, .. } => (Some(rs1), None),
            Instr::Load { base, .. } => (Some(base), None),
            Instr::Store { src, base, .. } => (Some(base), Some(src)),
            Instr::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Instr::Jalr { base, .. } => (Some(base), None),
            Instr::Flush { base, .. } => (Some(base), None),
            _ => (None, None),
        };
        SourceIter { regs: [a, b], idx: 0 }
    }

    /// Whether the instruction is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Instr::Branch { .. })
    }

    /// Whether the instruction can redirect control flow (conditional
    /// branch, direct jump, or indirect jump).
    pub fn is_control(&self) -> bool {
        matches!(self, Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. })
    }

    /// Whether the instruction is an indirect jump (target known only at
    /// execute time).
    pub fn is_indirect(&self) -> bool {
        matches!(self, Instr::Jalr { .. })
    }

    /// Whether the instruction reads data memory.
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// Whether the instruction writes data memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }

    /// Whether the instruction is a *transmit* instruction in the cache
    /// side-channel model: its execution perturbs microarchitectural state
    /// as a function of its operands. In lev64 these are loads and flushes.
    pub fn is_transmit(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Flush { .. })
    }
}

/// Iterator over an instruction's source registers.
///
/// Returned by [`Instr::sources`].
#[derive(Debug, Clone)]
pub struct SourceIter {
    regs: [Option<Reg>; 2],
    idx: usize,
}

impl Iterator for SourceIter {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        while self.idx < 2 {
            let r = self.regs[self.idx];
            self.idx += 1;
            if r.is_some() {
                return r;
            }
        }
        None
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                if op == AluOp::Add && rs1.is_zero() {
                    write!(f, "li {rd}, {imm}")
                } else {
                    write!(f, "{} {rd}, {rs1}, {imm}", op.imm_mnemonic())
                }
            }
            Instr::Load { width, signed, rd, base, offset } => {
                let u = if signed || width == MemWidth::D { "" } else { "u" };
                write!(f, "l{}{u} {rd}, {offset}({base})", width.suffix())
            }
            Instr::Store { width, src, base, offset } => {
                write!(f, "s{} {src}, {offset}({base})", width.suffix())
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic())
            }
            Instr::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
            Instr::Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Instr::RdCycle { rd } => write!(f, "rdcycle {rd}"),
            Instr::Flush { base, offset } => write!(f, "flush {offset}({base})"),
            Instr::Fence => f.write_str("fence"),
            Instr::Nop => f.write_str("nop"),
            Instr::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Sub.eval(0, 1), -1);
        assert_eq!(AluOp::Sll.eval(1, 63), i64::MIN);
        assert_eq!(AluOp::Sll.eval(1, 64), 1, "shift amount masked to 6 bits");
        assert_eq!(AluOp::Srl.eval(-1, 63), 1);
        assert_eq!(AluOp::Sra.eval(-8, 2), -2);
        assert_eq!(AluOp::Slt.eval(-1, 0), 1);
        assert_eq!(AluOp::Sltu.eval(-1, 0), 0);
        assert_eq!(
            AluOp::Mulh.eval(i64::MAX, i64::MAX),
            (((i64::MAX as i128).pow(2)) >> 64) as i64
        );
    }

    #[test]
    fn div_by_zero_riscv_semantics() {
        assert_eq!(AluOp::Div.eval(42, 0), -1);
        assert_eq!(AluOp::Rem.eval(42, 0), 42);
        assert_eq!(AluOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(AluOp::Rem.eval(i64::MIN, -1), 0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(!BranchCond::Ltu.eval(-1, 0));
        assert!(BranchCond::Ge.eval(0, 0));
        assert!(BranchCond::Geu.eval(-1, 0));
    }

    #[test]
    fn dest_hides_x0() {
        let i = Instr::Alu { op: AluOp::Add, rd: ZERO, rs1: A0, rs2: A1 };
        assert_eq!(i.dest(), None);
        let i = Instr::Alu { op: AluOp::Add, rd: A0, rs1: A1, rs2: A2 };
        assert_eq!(i.dest(), Some(A0));
    }

    #[test]
    fn sources_enumeration() {
        let i = Instr::Store { width: MemWidth::D, src: A0, base: SP, offset: 8 };
        let srcs: Vec<Reg> = i.sources().collect();
        assert_eq!(srcs, vec![SP, A0]);
        assert_eq!(Instr::Halt.sources().count(), 0);
        assert_eq!(Instr::RdCycle { rd: A0 }.sources().count(), 0);
    }

    #[test]
    fn classification() {
        let ld = Instr::Load { width: MemWidth::D, signed: true, rd: A0, base: A1, offset: 0 };
        assert!(ld.is_load() && ld.is_transmit() && !ld.is_store() && !ld.is_control());
        let br = Instr::Branch { cond: BranchCond::Eq, rs1: A0, rs2: ZERO, target: 0 };
        assert!(br.is_branch() && br.is_control() && !br.is_indirect());
        let jr = Instr::Jalr { rd: ZERO, base: RA, offset: 0 };
        assert!(jr.is_control() && jr.is_indirect());
        let fl = Instr::Flush { base: A0, offset: 0 };
        assert!(fl.is_transmit());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instr::AluImm { op: AluOp::Add, rd: A0, rs1: ZERO, imm: 7 }.to_string(),
            "li a0, 7"
        );
        assert_eq!(
            Instr::AluImm { op: AluOp::Add, rd: A0, rs1: A0, imm: 7 }.to_string(),
            "addi a0, a0, 7"
        );
        assert_eq!(
            Instr::AluImm { op: AluOp::Sltu, rd: A0, rs1: A1, imm: 1 }.to_string(),
            "sltiu a0, a1, 1"
        );
        assert_eq!(
            Instr::Load { width: MemWidth::W, signed: false, rd: A0, base: SP, offset: -4 }
                .to_string(),
            "lwu a0, -4(sp)"
        );
    }
}
