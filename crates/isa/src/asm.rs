//! Two-pass text assembler for lev64.
//!
//! Syntax follows RISC-V conventions:
//!
//! ```text
//!     li   a1, 0x4000        # comments with '#' or '//'
//! loop:
//!     ld   t0, 0(a1)
//!     beqz t0, done
//!     addi a1, a1, 8
//!     j    loop
//! done:
//!     halt
//! ```
//!
//! Supported pseudo-instructions: `li`, `mv`, `nop`, `not`, `neg`, `seqz`,
//! `snez`, `beqz`, `bnez`, `bltz`, `bgez`, `blez`, `bgtz`, `bgt`, `ble`,
//! `bgtu`, `bleu`, `j`, `call`, `jr`, `ret`.

use crate::{AluOp, BranchCond, Instr, MemWidth, Program, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Assembles lev64 source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] with a 1-based line number on the first syntax
/// error, unknown mnemonic, malformed operand, duplicate label, or undefined
/// label reference.
///
/// ```
/// # fn main() -> Result<(), levioso_isa::AsmError> {
/// let p = levioso_isa::assemble("demo", "li a0, 42\nhalt\n")?;
/// assert_eq!(p.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn assemble(name: &str, source: &str) -> Result<Program, AsmError> {
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut pending: Vec<(usize, String, PendingInstr)> = Vec::new();

    // Pass 1: strip comments, record labels, parse instructions with
    // symbolic targets left unresolved.
    let mut index: u32 = 0;
    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let mut line = raw;
        for marker in ["#", "//", ";"] {
            if let Some(pos) = line.find(marker) {
                line = &line[..pos];
            }
        }
        let mut rest = line.trim();
        // A line may carry several `label:` prefixes.
        while let Some(colon) = rest.find(':') {
            let (lbl, after) = rest.split_at(colon);
            let lbl = lbl.trim();
            if lbl.is_empty() || !is_ident(lbl) {
                return Err(AsmError::new(lineno, AsmErrorKind::BadLabel(lbl.to_string())));
            }
            if labels.insert(lbl.to_string(), index).is_some() {
                return Err(AsmError::new(lineno, AsmErrorKind::DuplicateLabel(lbl.to_string())));
            }
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let parsed = parse_instr(lineno, rest)?;
        pending.push((lineno, rest.to_string(), parsed));
        index += 1;
    }

    // Pass 2: resolve symbolic targets.
    let mut instrs = Vec::with_capacity(pending.len());
    for (lineno, _text, p) in pending {
        let resolve = |t: &Target| -> Result<u32, AsmError> {
            match t {
                Target::Absolute(i) => Ok(*i),
                Target::Label(l) => labels
                    .get(l)
                    .copied()
                    .ok_or_else(|| AsmError::new(lineno, AsmErrorKind::UndefinedLabel(l.clone()))),
            }
        };
        let ins = match p {
            PendingInstr::Ready(i) => i,
            PendingInstr::Branch { cond, rs1, rs2, target } => {
                Instr::Branch { cond, rs1, rs2, target: resolve(&target)? }
            }
            PendingInstr::Jal { rd, target } => Instr::Jal { rd, target: resolve(&target)? },
        };
        instrs.push(ins);
    }

    let mut program = Program::new(name, instrs);
    program.labels = labels;
    program.validate().map_err(|e| AsmError::new(0, AsmErrorKind::Invalid(e.to_string())))?;
    Ok(program)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

#[derive(Debug, Clone)]
enum Target {
    Label(String),
    Absolute(u32),
}

#[derive(Debug, Clone)]
enum PendingInstr {
    Ready(Instr),
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, target: Target },
    Jal { rd: Reg, target: Target },
}

fn parse_instr(lineno: usize, text: &str) -> Result<PendingInstr, AsmError> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(pos) => (&text[..pos], text[pos..].trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let ops: Vec<&str> =
        if rest.is_empty() { Vec::new() } else { rest.split(',').map(str::trim).collect() };

    let err = |kind| Err(AsmError::new(lineno, kind));
    let arity = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(AsmError::new(
                lineno,
                AsmErrorKind::Arity { mnemonic: mnemonic.clone(), expected: n, got: ops.len() },
            ))
        }
    };
    let reg = |s: &str| -> Result<Reg, AsmError> {
        Reg::from_name(s).ok_or_else(|| AsmError::new(lineno, AsmErrorKind::BadRegister(s.into())))
    };
    let imm = |s: &str| -> Result<i64, AsmError> {
        parse_imm(s).ok_or_else(|| AsmError::new(lineno, AsmErrorKind::BadImmediate(s.into())))
    };
    // `off(base)` operand.
    let mem = |s: &str| -> Result<(i64, Reg), AsmError> {
        let open = s.find('(');
        let close = s.ends_with(')');
        match (open, close) {
            (Some(o), true) => {
                let off_str = s[..o].trim();
                let off = if off_str.is_empty() { 0 } else { imm(off_str)? };
                Ok((off, reg(s[o + 1..s.len() - 1].trim())?))
            }
            _ => Err(AsmError::new(lineno, AsmErrorKind::BadMemOperand(s.into()))),
        }
    };
    let target = |s: &str| -> Target {
        if let Some(rest) = s.strip_prefix('@') {
            if let Ok(i) = rest.parse::<u32>() {
                return Target::Absolute(i);
            }
        }
        Target::Label(s.to_string())
    };

    let load = |w: MemWidth, signed: bool, ops: &[&str]| -> Result<PendingInstr, AsmError> {
        let (offset, base) = mem(ops[1])?;
        Ok(PendingInstr::Ready(Instr::Load { width: w, signed, rd: reg(ops[0])?, base, offset }))
    };
    let store = |w: MemWidth, ops: &[&str]| -> Result<PendingInstr, AsmError> {
        let (offset, base) = mem(ops[1])?;
        Ok(PendingInstr::Ready(Instr::Store { width: w, src: reg(ops[0])?, base, offset }))
    };
    let branch = |c: BranchCond, ops: &[&str], swap: bool| -> Result<PendingInstr, AsmError> {
        let (a, b) = if swap { (ops[1], ops[0]) } else { (ops[0], ops[1]) };
        Ok(PendingInstr::Branch { cond: c, rs1: reg(a)?, rs2: reg(b)?, target: target(ops[2]) })
    };
    let branch_z =
        |c: BranchCond, ops: &[&str], zero_first: bool| -> Result<PendingInstr, AsmError> {
            let (rs1, rs2) = if zero_first {
                (crate::reg::ZERO, reg(ops[0])?)
            } else {
                (reg(ops[0])?, crate::reg::ZERO)
            };
            Ok(PendingInstr::Branch { cond: c, rs1, rs2, target: target(ops[1]) })
        };

    if let Some(op) = AluOp::ALL.into_iter().find(|op| op.mnemonic() == mnemonic) {
        arity(3)?;
        return Ok(PendingInstr::Ready(Instr::Alu {
            op,
            rd: reg(ops[0])?,
            rs1: reg(ops[1])?,
            rs2: reg(ops[2])?,
        }));
    }
    if let Some(op) = AluOp::ALL.into_iter().find(|op| op.imm_mnemonic() == mnemonic) {
        arity(3)?;
        return Ok(PendingInstr::Ready(Instr::AluImm {
            op,
            rd: reg(ops[0])?,
            rs1: reg(ops[1])?,
            imm: imm(ops[2])?,
        }));
    }

    use AluOp::*;
    use BranchCond::*;
    use MemWidth::*;
    match mnemonic.as_str() {
        "li" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::AluImm {
                op: Add,
                rd: reg(ops[0])?,
                rs1: crate::reg::ZERO,
                imm: imm(ops[1])?,
            }))
        }
        "mv" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::AluImm {
                op: Add,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: 0,
            }))
        }
        "not" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::AluImm {
                op: Xor,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: -1,
            }))
        }
        "neg" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::Alu {
                op: Sub,
                rd: reg(ops[0])?,
                rs1: crate::reg::ZERO,
                rs2: reg(ops[1])?,
            }))
        }
        "seqz" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::AluImm {
                op: Sltu,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: 1,
            }))
        }
        "snez" => {
            arity(2)?;
            Ok(PendingInstr::Ready(Instr::Alu {
                op: Sltu,
                rd: reg(ops[0])?,
                rs1: crate::reg::ZERO,
                rs2: reg(ops[1])?,
            }))
        }
        "lb" => {
            arity(2)?;
            load(B, true, &ops)
        }
        "lbu" => {
            arity(2)?;
            load(B, false, &ops)
        }
        "lh" => {
            arity(2)?;
            load(H, true, &ops)
        }
        "lhu" => {
            arity(2)?;
            load(H, false, &ops)
        }
        "lw" => {
            arity(2)?;
            load(W, true, &ops)
        }
        "lwu" => {
            arity(2)?;
            load(W, false, &ops)
        }
        "ld" => {
            arity(2)?;
            load(D, true, &ops)
        }
        "sb" => {
            arity(2)?;
            store(B, &ops)
        }
        "sh" => {
            arity(2)?;
            store(H, &ops)
        }
        "sw" => {
            arity(2)?;
            store(W, &ops)
        }
        "sd" => {
            arity(2)?;
            store(D, &ops)
        }
        "beq" => {
            arity(3)?;
            branch(Eq, &ops, false)
        }
        "bne" => {
            arity(3)?;
            branch(Ne, &ops, false)
        }
        "blt" => {
            arity(3)?;
            branch(Lt, &ops, false)
        }
        "bge" => {
            arity(3)?;
            branch(Ge, &ops, false)
        }
        "bltu" => {
            arity(3)?;
            branch(Ltu, &ops, false)
        }
        "bgeu" => {
            arity(3)?;
            branch(Geu, &ops, false)
        }
        "bgt" => {
            arity(3)?;
            branch(Lt, &ops, true)
        }
        "ble" => {
            arity(3)?;
            branch(Ge, &ops, true)
        }
        "bgtu" => {
            arity(3)?;
            branch(Ltu, &ops, true)
        }
        "bleu" => {
            arity(3)?;
            branch(Geu, &ops, true)
        }
        "beqz" => {
            arity(2)?;
            branch_z(Eq, &ops, false)
        }
        "bnez" => {
            arity(2)?;
            branch_z(Ne, &ops, false)
        }
        "bltz" => {
            arity(2)?;
            branch_z(Lt, &ops, false)
        }
        "bgez" => {
            arity(2)?;
            branch_z(Ge, &ops, false)
        }
        "bgtz" => {
            arity(2)?;
            branch_z(Lt, &ops, true)
        }
        "blez" => {
            arity(2)?;
            branch_z(Ge, &ops, true)
        }
        "j" => {
            arity(1)?;
            Ok(PendingInstr::Jal { rd: crate::reg::ZERO, target: target(ops[0]) })
        }
        "jal" => match ops.len() {
            1 => Ok(PendingInstr::Jal { rd: crate::reg::RA, target: target(ops[0]) }),
            2 => Ok(PendingInstr::Jal { rd: reg(ops[0])?, target: target(ops[1]) }),
            n => err(AsmErrorKind::Arity { mnemonic, expected: 2, got: n }),
        },
        "call" => {
            arity(1)?;
            Ok(PendingInstr::Jal { rd: crate::reg::RA, target: target(ops[0]) })
        }
        "jalr" => match ops.len() {
            1 => {
                let (offset, base) = mem(ops[0])?;
                Ok(PendingInstr::Ready(Instr::Jalr { rd: crate::reg::RA, base, offset }))
            }
            2 => {
                let (offset, base) = mem(ops[1])?;
                Ok(PendingInstr::Ready(Instr::Jalr { rd: reg(ops[0])?, base, offset }))
            }
            n => err(AsmErrorKind::Arity { mnemonic, expected: 2, got: n }),
        },
        "jr" => {
            arity(1)?;
            Ok(PendingInstr::Ready(Instr::Jalr {
                rd: crate::reg::ZERO,
                base: reg(ops[0])?,
                offset: 0,
            }))
        }
        "ret" => {
            arity(0)?;
            Ok(PendingInstr::Ready(Instr::Jalr {
                rd: crate::reg::ZERO,
                base: crate::reg::RA,
                offset: 0,
            }))
        }
        "rdcycle" => {
            arity(1)?;
            Ok(PendingInstr::Ready(Instr::RdCycle { rd: reg(ops[0])? }))
        }
        "flush" => {
            arity(1)?;
            let (offset, base) = mem(ops[0])?;
            Ok(PendingInstr::Ready(Instr::Flush { base, offset }))
        }
        "fence" => {
            arity(0)?;
            Ok(PendingInstr::Ready(Instr::Fence))
        }
        "nop" => {
            arity(0)?;
            Ok(PendingInstr::Ready(Instr::Nop))
        }
        "halt" => {
            arity(0)?;
            Ok(PendingInstr::Ready(Instr::Halt))
        }
        _ => err(AsmErrorKind::UnknownMnemonic(mnemonic)),
    }
}

fn parse_imm(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        u64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        body.replace('_', "").parse::<u64>().ok()?
    };
    if neg {
        // Allow down to i64::MIN.
        if magnitude > (i64::MAX as u64) + 1 {
            return None;
        }
        Some((magnitude as i64).wrapping_neg())
    } else {
        // Allow full u64 range to express addresses; reinterpret as i64.
        Some(magnitude as i64)
    }
}

/// Assembly failure with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    kind: AsmErrorKind,
}

impl AsmError {
    fn new(line: usize, kind: AsmErrorKind) -> Self {
        AsmError { line, kind }
    }

    /// 1-based source line of the error (0 for whole-program errors).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The failure category.
    pub fn kind(&self) -> &AsmErrorKind {
        &self.kind
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.kind)
        } else {
            write!(f, "line {}: {}", self.line, self.kind)
        }
    }
}

impl std::error::Error for AsmError {}

/// Category of an [`AsmError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// Unknown instruction mnemonic.
    UnknownMnemonic(String),
    /// Wrong operand count for a mnemonic.
    Arity {
        /// The mnemonic.
        mnemonic: String,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        got: usize,
    },
    /// Unparseable register name.
    BadRegister(String),
    /// Unparseable immediate.
    BadImmediate(String),
    /// Malformed `offset(base)` memory operand.
    BadMemOperand(String),
    /// Malformed label definition.
    BadLabel(String),
    /// Label defined twice.
    DuplicateLabel(String),
    /// Reference to an undefined label.
    UndefinedLabel(String),
    /// Program failed structural validation after assembly.
    Invalid(String),
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            AsmErrorKind::Arity { mnemonic, expected, got } => {
                write!(f, "`{mnemonic}` expects {expected} operands, got {got}")
            }
            AsmErrorKind::BadRegister(s) => write!(f, "invalid register `{s}`"),
            AsmErrorKind::BadImmediate(s) => write!(f, "invalid immediate `{s}`"),
            AsmErrorKind::BadMemOperand(s) => write!(f, "invalid memory operand `{s}`"),
            AsmErrorKind::BadLabel(s) => write!(f, "invalid label `{s}`"),
            AsmErrorKind::DuplicateLabel(s) => write!(f, "duplicate label `{s}`"),
            AsmErrorKind::UndefinedLabel(s) => write!(f, "undefined label `{s}`"),
            AsmErrorKind::Invalid(s) => write!(f, "invalid program: {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    #[test]
    fn basic_program() {
        let p = assemble(
            "t",
            r"
            li   a0, 10
            li   a1, 0
        loop:
            add  a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.label("loop"), Some(2));
        assert_eq!(
            p.instrs[4],
            Instr::Branch { cond: BranchCond::Ne, rs1: A0, rs2: ZERO, target: 2 }
        );
    }

    #[test]
    fn mem_operands() {
        let p = assemble("t", "ld t0, 16(sp)\nsd t0, -8(a0)\nlw t1, (a2)\nhalt").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Load { width: MemWidth::D, signed: true, rd: T0, base: SP, offset: 16 }
        );
        assert_eq!(p.instrs[1], Instr::Store { width: MemWidth::D, src: T0, base: A0, offset: -8 });
        assert_eq!(
            p.instrs[2],
            Instr::Load { width: MemWidth::W, signed: true, rd: T1, base: A2, offset: 0 }
        );
    }

    #[test]
    fn pseudo_expansion() {
        let p =
            assemble("t", "mv a0, a1\nnot t0, t1\nneg t2, t3\nseqz a2, a3\nsnez a4, a5\nret\nhalt")
                .unwrap();
        assert_eq!(p.instrs[0], Instr::AluImm { op: AluOp::Add, rd: A0, rs1: A1, imm: 0 });
        assert_eq!(p.instrs[1], Instr::AluImm { op: AluOp::Xor, rd: T0, rs1: T1, imm: -1 });
        assert_eq!(p.instrs[2], Instr::Alu { op: AluOp::Sub, rd: T2, rs1: ZERO, rs2: T3 });
        assert_eq!(p.instrs[5], Instr::Jalr { rd: ZERO, base: RA, offset: 0 });
    }

    #[test]
    fn swapped_branch_pseudos() {
        let p = assemble("t", "x: bgt a0, a1, x\nble a0, a1, x\nhalt").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Branch { cond: BranchCond::Lt, rs1: A1, rs2: A0, target: 0 }
        );
        assert_eq!(
            p.instrs[1],
            Instr::Branch { cond: BranchCond::Ge, rs1: A1, rs2: A0, target: 0 }
        );
    }

    #[test]
    fn immediates() {
        let p =
            assemble("t", "li a0, 0x10\nli a1, -0x10\nli a2, 0b101\nli a3, 1_000\nhalt").unwrap();
        let imm = |i: usize| match p.instrs[i] {
            Instr::AluImm { imm, .. } => imm,
            _ => unreachable!(),
        };
        assert_eq!(imm(0), 16);
        assert_eq!(imm(1), -16);
        assert_eq!(imm(2), 5);
        assert_eq!(imm(3), 1000);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("t", "nop\nfrob a0\nhalt").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(matches!(e.kind(), AsmErrorKind::UnknownMnemonic(m) if m == "frob"));

        let e = assemble("t", "beq a0, a1, nowhere\nhalt").unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::UndefinedLabel(_)));

        let e = assemble("t", "x:\nx:\nhalt").unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::DuplicateLabel(_)));

        let e = assemble("t", "add a0, a1\nhalt").unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::Arity { .. }));

        let e = assemble("t", "ld t0, 8[sp]\nhalt").unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadMemOperand(_)));
    }

    #[test]
    fn round_trip_through_to_asm_string() {
        let src = r"
            li   a0, 3
        top:
            addi a0, a0, -1
            bnez a0, top
            flush 0(a1)
            rdcycle t0
            fence
            halt
        ";
        let p1 = assemble("t", src).unwrap();
        let p2 = assemble("t", &p1.to_asm_string()).unwrap();
        assert_eq!(p1.instrs, p2.instrs);
    }

    #[test]
    fn label_on_same_line_as_instr() {
        let p = assemble("t", "start: li a0, 1\nj start\nhalt").unwrap();
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.instrs[1], Instr::Jal { rd: ZERO, target: 0 });
    }
}
