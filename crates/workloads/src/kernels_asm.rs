//! Hand-written assembly kernels exercising features the Levi language
//! deliberately omits (calls and indirect jumps) — the behaviours that make
//! SPEC-class codes expensive for *every* secure-speculation scheme,
//! Levioso included:
//!
//! * `guarded_call`: a function call under an unpredictable data-dependent
//!   branch. The interprocedural annotation closure makes the whole callee
//!   inherit the filter branch, so Levioso pays real delay here (as the
//!   paper's call-heavy SPEC codes do).
//! * `bytecode_interp`: a jump-table bytecode interpreter. Indirect-jump
//!   targets are hardware barriers under Levioso, and the handlers are
//!   statically unreachable from the entry (only the `jalr` reaches them),
//!   so they carry conservative `AllOlder` annotations — a sound
//!   under-approximation of what an LLVM pass with `indirectbr` successor
//!   lists could prove (see DESIGN.md).

use crate::{rng_for, Scale, Workload, AUX1, IN1, IN2, OUT};
use levioso_isa::reg::*;
use levioso_isa::{AluOp, ProgramBuilder};
use levioso_support::Rng;

/// Filtered per-element processing through a real call/ret.
pub fn guarded_call(scale: Scale) -> Workload {
    let n = scale.n() as i64;
    let mut b = ProgramBuilder::new("guarded_call");
    b.li(S0, 0); // i
    b.li(S1, n);
    b.li(S2, IN1 as i64); // a
    b.li(S3, AUX1 as i64); // lookup table used by the callee
    b.li(S4, 0); // acc
    b.label("loop");
    b.slli(T3, S0, 3);
    b.add(T3, T3, S2);
    b.ld(T4, T3, 0); // a[i]
    b.branch(levioso_isa::BranchCond::Ge, ZERO, T4, "skip"); // if a[i] > 0
    b.call("process");
    b.label("skip");
    b.addi(S0, S0, 1);
    b.blt(S0, S1, "loop");
    b.li(T5, OUT as i64);
    b.sd(S4, T5, 0);
    b.halt();
    b.label("process");
    // The callee's loads are indexed by `i`, NOT by the filtered value — an
    // unprotected core issues them speculatively long before the slow
    // filter branch resolves, while the interprocedural annotation closure
    // makes the whole callee inherit that branch under Levioso. This is
    // exactly where call-heavy codes pay.
    b.andi(T5, S0, 1023);
    b.slli(T5, T5, 3);
    b.add(T5, T5, S3);
    b.ld(T6, T5, 0); // table[i & 1023]
    b.andi(T6, T6, 1023);
    b.slli(T6, T6, 3);
    b.add(T6, T6, S3);
    b.ld(T6, T6, 0); // table[table[i & 1023] & 1023] (dependent chain)
    b.add(S4, S4, T6);
    b.ret();
    let program = b.build().expect("guarded_call builds");

    let mut rng = rng_for("guarded_call");
    let mut memory: Vec<(u64, i64)> =
        (0..n as u64).map(|i| (IN1 + 8 * i, rng.i64_in(-100i64..101))).collect();
    memory.extend((0..1024u64).map(|i| (AUX1 + 8 * i, rng.i64_in(0i64..4096))));
    Workload::new("guarded_call", program, memory, OUT)
}

/// A five-op bytecode interpreter dispatching through a loaded jump table.
pub fn bytecode_interp(scale: Scale) -> Workload {
    let n = scale.n() as i64;
    let mut b = ProgramBuilder::new("bytecode_interp");
    b.li(S0, 0); // bytecode pc
    b.li(S1, n);
    b.li(S2, IN1 as i64); // bytecode array
    b.li(S3, IN2 as i64); // handler table (instruction indices)
    b.li(S4, 1); // accumulator
    b.li(S5, AUX1 as i64); // interpreter data memory
    b.label("loop");
    b.bge(S0, S1, "done");
    b.slli(T3, S0, 3);
    b.add(T3, T3, S2);
    b.ld(T4, T3, 0); // opcode
    b.slli(T4, T4, 3);
    b.add(T4, T4, S3);
    b.ld(T5, T4, 0); // handler address
    b.jr(T5); // dispatch
    b.label("h_add");
    b.addi(S4, S4, 7);
    b.j("next");
    b.label("h_xor");
    b.xori(S4, S4, 0x5a5a);
    b.j("next");
    b.label("h_load");
    b.andi(T6, S4, 1023);
    b.slli(T6, T6, 3);
    b.add(T6, T6, S5);
    b.ld(T6, T6, 0);
    b.add(S4, S4, T6);
    b.j("next");
    b.label("h_store");
    b.andi(T6, S4, 1023);
    b.slli(T6, T6, 3);
    b.add(T6, T6, S5);
    b.sd(S4, T6, 0);
    b.j("next");
    b.label("h_mix");
    b.alu(AluOp::Mul, S4, S4, S4);
    b.srli(T6, S4, 11);
    b.alu(AluOp::Xor, S4, S4, T6);
    b.alu_imm(AluOp::And, S4, S4, 0x7fff_ffff);
    b.j("next");
    b.label("next");
    b.addi(S0, S0, 1);
    b.j("loop");
    b.label("done");
    b.li(T5, OUT as i64);
    b.addi(S4, S4, 1); // keep the checksum non-zero even if acc wraps to 0
    b.sd(S4, T5, 0);
    b.halt();
    let program = b.build().expect("bytecode_interp builds");

    let handlers =
        ["h_add", "h_xor", "h_load", "h_store", "h_mix"].map(|l| program.label(l).expect("label"));
    let mut rng = rng_for("bytecode_interp");
    let mut memory: Vec<(u64, i64)> =
        (0..n as u64).map(|i| (IN1 + 8 * i, rng.i64_in(0i64..5))).collect();
    memory.extend(handlers.iter().enumerate().map(|(i, &h)| (IN2 + 8 * i as u64, h as i64)));
    memory.extend((0..1024u64).map(|i| (AUX1 + 8 * i, rng.i64_in(0i64..1 << 20))));
    Workload::new("bytecode_interp", program, memory, OUT)
}
