//! Functional (architectural) reference interpreter.
//!
//! [`Machine`] executes a [`Program`] one instruction at a time with no
//! timing model. It is the golden model the out-of-order simulator is
//! property-tested against: under every secure-speculation policy, the
//! simulator must commit exactly the architectural state this interpreter
//! produces.

use crate::{Instr, Memory, Program, Reg};
use std::fmt;

/// Architectural machine state plus a retired-instruction counter.
#[derive(Debug, Clone, Default)]
pub struct Machine {
    regs: [i64; Reg::COUNT],
    pc: u32,
    /// Data memory; public so harnesses can set up inputs and inspect
    /// outputs directly.
    pub mem: Memory,
    retired: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine with zeroed registers, empty memory, `pc = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register (`x0` reads as 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `x0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether a `halt` has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// All 32 register values, for architectural-state comparison.
    pub fn regs(&self) -> &[i64; Reg::COUNT] {
        &self.regs
    }

    /// A fingerprint of the full architectural state (registers + memory),
    /// for equivalence testing against the out-of-order simulator.
    pub fn arch_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &r in &self.regs {
            for b in r.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        h ^ self.mem.fingerprint().rotate_left(17)
    }

    /// Executes one instruction; a halted machine stays as it is.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the program counter does not index a
    /// valid instruction (e.g. after a wild `jalr` or falling off the end).
    pub fn step(&mut self, program: &Program) -> Result<(), ExecError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.pc;
        let ins = *program.instrs.get(pc as usize).ok_or(ExecError::PcOutOfRange { pc })?;
        let mut next_pc = pc.wrapping_add(1);
        match ins {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm);
                self.set_reg(rd, v);
            }
            Instr::Load { width, signed, rd, base, offset } => {
                let addr = (self.reg(base) as u64).wrapping_add(offset as u64);
                let v = read_memory(&self.mem, addr, width, signed);
                self.set_reg(rd, v);
            }
            Instr::Store { width, src, base, offset } => {
                let addr = (self.reg(base) as u64).wrapping_add(offset as u64);
                let value = self.reg(src);
                write_memory(&mut self.mem, addr, width, value);
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                }
            }
            Instr::Jal { rd, target } => {
                self.set_reg(rd, next_pc as i64);
                next_pc = target;
            }
            Instr::Jalr { rd, base, offset } => {
                let t = (self.reg(base).wrapping_add(offset)) as u64;
                self.set_reg(rd, next_pc as i64);
                next_pc = t as u32;
                if t > u32::MAX as u64 {
                    return Err(ExecError::PcOutOfRange { pc: u32::MAX });
                }
            }
            Instr::RdCycle { rd } => {
                // The architectural reading in the reference model is the
                // retired-instruction count; the timing simulator returns
                // real cycles. Programs that *compare* rdcycle deltas (the
                // side-channel receivers) only run on the simulator.
                self.set_reg(rd, self.retired as i64);
            }
            Instr::Flush { .. } | Instr::Fence | Instr::Nop => {}
            Instr::Halt => {
                self.retired += 1;
                self.halted = true;
                return Ok(());
            }
        }
        self.retired += 1;
        self.pc = next_pc;
        Ok(())
    }

    /// Runs until `halt` or until `max_steps` instructions have retired.
    ///
    /// # Errors
    ///
    /// [`ExecError::StepLimit`] if the program does not halt within
    /// `max_steps`; [`ExecError::PcOutOfRange`] on a wild control transfer.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> Result<(), ExecError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= max_steps {
                return Err(ExecError::StepLimit { max_steps });
            }
            self.step(program)?;
        }
        Ok(())
    }
}

/// Reads `width` bytes at `addr` with sign or zero extension.
pub fn read_memory(mem: &Memory, addr: u64, width: crate::MemWidth, signed: bool) -> i64 {
    use crate::MemWidth::*;
    match (width, signed) {
        (B, false) => mem.read_u8(addr) as i64,
        (B, true) => mem.read_u8(addr) as i8 as i64,
        (H, false) => mem.read_u16(addr) as i64,
        (H, true) => mem.read_u16(addr) as i16 as i64,
        (W, false) => mem.read_u32(addr) as i64,
        (W, true) => mem.read_u32(addr) as i32 as i64,
        (D, _) => mem.read_i64(addr),
    }
}

/// Writes the low `width` bytes of `value` at `addr`.
pub fn write_memory(mem: &mut Memory, addr: u64, width: crate::MemWidth, value: i64) {
    use crate::MemWidth::*;
    match width {
        B => mem.write_u8(addr, value as u8),
        H => mem.write_u16(addr, value as u16),
        W => mem.write_u32(addr, value as u32),
        D => mem.write_i64(addr, value),
    }
}

/// Execution failure in the reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the program.
    PcOutOfRange {
        /// The wild program counter value.
        pc: u32,
    },
    /// The program did not halt within the step budget.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            ExecError::StepLimit { max_steps } => {
                write!(f, "program did not halt within {max_steps} steps")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use crate::{assemble, MemWidth};

    fn run_asm(src: &str) -> Machine {
        let p = assemble("t", src).unwrap();
        let mut m = Machine::new();
        m.run(&p, 1_000_000).unwrap();
        m
    }

    #[test]
    fn arithmetic_loop() {
        let m = run_asm(
            r"
            li a0, 10
            li a1, 0
        loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            halt
        ",
        );
        assert_eq!(m.reg(A1), 55);
        assert!(m.is_halted());
    }

    #[test]
    fn memory_widths_and_extension() {
        let p = assemble(
            "t",
            r"
            li  t0, 0x1000
            li  t1, -1
            sb  t1, 0(t0)
            lb  t2, 0(t0)
            lbu t3, 0(t0)
            sw  t1, 8(t0)
            lw  t4, 8(t0)
            lwu t5, 8(t0)
            halt
        ",
        )
        .unwrap();
        let mut m = Machine::new();
        m.run(&p, 100).unwrap();
        assert_eq!(m.reg(T2), -1);
        assert_eq!(m.reg(T3), 0xff);
        assert_eq!(m.reg(T4), -1);
        assert_eq!(m.reg(T5), 0xffff_ffff);
    }

    #[test]
    fn call_and_return() {
        let m = run_asm(
            r"
            li   a0, 5
            call double
            call double
            halt
        double:
            add  a0, a0, a0
            ret
        ",
        );
        assert_eq!(m.reg(A0), 20);
    }

    #[test]
    fn x0_is_immutable() {
        let m = run_asm("li zero, 42\nadd zero, a0, a1\nhalt");
        assert_eq!(m.reg(ZERO), 0);
    }

    #[test]
    fn step_limit_reported() {
        let p = assemble("t", "x: j x\nhalt").unwrap();
        let mut m = Machine::new();
        assert_eq!(m.run(&p, 10), Err(ExecError::StepLimit { max_steps: 10 }));
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let p = assemble("t", "nop").unwrap();
        let mut m = Machine::new();
        assert_eq!(m.run(&p, 10), Err(ExecError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn rdcycle_counts_retired_in_reference_model() {
        let m = run_asm("nop\nnop\nrdcycle t0\nhalt");
        assert_eq!(m.reg(T0), 2);
    }

    #[test]
    fn memory_helpers_match_loads() {
        let mut mem = Memory::new();
        write_memory(&mut mem, 0x10, MemWidth::H, -2);
        assert_eq!(read_memory(&mem, 0x10, MemWidth::H, true), -2);
        assert_eq!(read_memory(&mem, 0x10, MemWidth::H, false), 0xfffe);
    }

    #[test]
    fn arch_fingerprint_differs_on_state_change() {
        let a = run_asm("li a0, 1\nhalt");
        let b = run_asm("li a0, 2\nhalt");
        assert_ne!(a.arch_fingerprint(), b.arch_fingerprint());
    }
}
