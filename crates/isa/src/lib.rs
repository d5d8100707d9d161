//! # levioso-isa — the lev64 instruction set
//!
//! The instruction-set substrate of the [Levioso (DAC '24)] reproduction:
//! a 64-bit load/store RISC ISA with an assembler, a programmatic builder,
//! sparse paged memory, a functional reference interpreter, and the
//! branch-dependency [`Annotations`] format that carries the Levioso
//! compiler's analysis results to the simulated hardware.
//!
//! lev64 deliberately mirrors RV64IM so listings read familiarly, plus
//! three study-specific instructions: `rdcycle` (timing reads for
//! side-channel receivers), `flush` (cache-line eviction for flush+reload
//! setup), and `halt`.
//!
//! ## Quick example
//!
//! ```
//! use levioso_isa::{assemble, Machine};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "sum",
//!     r"
//!         li   a0, 100
//!         li   a1, 0
//!     loop:
//!         add  a1, a1, a0
//!         addi a0, a0, -1
//!         bnez a0, loop
//!         halt
//!     ",
//! )?;
//! let mut machine = Machine::new();
//! machine.run(&program, 10_000)?;
//! assert_eq!(machine.reg(levioso_isa::reg::A1), 5050);
//! # Ok(())
//! # }
//! ```
//!
//! [Levioso (DAC '24)]: https://doi.org/10.1145/3649329.3655632

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annot;
mod asm;
mod builder;
mod instr;
mod interp;
mod mem;
mod program;
pub mod reg;

pub use annot::{AnnotationCost, Annotations, DepSet};
pub use asm::{assemble, AsmError, AsmErrorKind};
pub use builder::{BuildError, ProgramBuilder};
pub use instr::{AluOp, BranchCond, Instr, MemWidth, SourceIter};
pub use interp::{read_memory, write_memory, BranchEvent, ExecError, Machine, RunSummary, Step};
pub use mem::Memory;
pub use program::{Program, ValidateError};
pub use reg::Reg;
