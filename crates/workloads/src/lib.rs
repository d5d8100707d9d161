//! # levioso-workloads — the SPEC-stand-in evaluation suite
//!
//! Twelve seeded kernels — ten written in the Levi source language (so
//! they flow through the annotating compiler exactly like the paper's SPEC
//! CPU2017 workloads flow through its LLVM pass) plus two hand-written
//! assembly kernels covering calls and indirect jumps. The kernels span
//! the behaviours that differentiate secure-speculation schemes:
//!
//! | kernel | behaviour stressed |
//! |---|---|
//! | `filter_scan` | slow data-dependent branch + independent load stream (the Levioso win) |
//! | `histogram` | indirect addressing, no data-dependent branches |
//! | `pointer_chase` | serial dependent misses; loop branch data-dependent (hard for everyone) |
//! | `binary_search` | branch outcomes feed the next address (control ≈ data critical path) |
//! | `hash_join` | probe loop with key-compare branches, independent probes |
//! | `partition` | branchy data movement with branch-dependent store indices |
//! | `stencil` | predictable branches, streaming loads |
//! | `string_search` | early-exit inner loops on loaded data |
//! | `crc32` | branches resolved by fast register compares |
//! | `ct_mix` | branchless constant-time arithmetic (the CT-programs use case) |
//! | `guarded_call` | call under an unpredictable branch (interprocedural deps) |
//! | `bytecode_interp` | jump-table dispatch (indirect-jump barriers) |
//!
//! Every workload carries a seeded input image and a checksum location the
//! kernel writes, so any scheme/configuration run can be validated against
//! the reference interpreter.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use levioso_compiler::levi;
use levioso_isa::{Machine, Program};
use levioso_support::cache::stable_hash_hex;
use levioso_support::Xoshiro256pp;
use std::fmt::Write;
use std::ops::Deref;
use std::sync::OnceLock;

/// Input array base address.
pub const IN1: u64 = 0x10_0000;
/// Second input array base address.
pub const IN2: u64 = 0x20_0000;
/// First auxiliary array base address.
pub const AUX1: u64 = 0x30_0000;
/// Second auxiliary array base address.
pub const AUX2: u64 = 0x40_0000;
/// Output/checksum array base address.
pub const OUT: u64 = 0x50_0000;

/// Problem-size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instances for unit/integration tests.
    Smoke,
    /// The sizes used to regenerate the paper's figures.
    Paper,
}

impl Scale {
    /// Primary element count at this scale.
    pub fn n(self) -> usize {
        match self {
            Scale::Smoke => 256,
            Scale::Paper => 6144,
        }
    }
}

/// One evaluation workload: an (unannotated) program plus its seeded input
/// image and checksum contract.
///
/// The program and the input image are read through the workload —
/// `w.program` and `w.memory` are the [`Inputs`] fields, reached by
/// `Deref` — but code outside this crate can neither assign, swap nor
/// mutate them. The digests and the reference checksum memoized beside
/// them therefore always describe the workload they belong to: each is
/// computed on first use, at most once per workload value, and carried
/// over to clones. `w.program.clone()` is an ordinary, mutable
/// [`Program`] to annotate.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel name (stable; used in figures).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
    /// Address the kernel writes its result checksum to.
    pub checksum_addr: u64,
    inputs: Inputs,
    memos: Memos,
}

/// A [`Workload`]'s program and initial memory image, readable as
/// `w.program` and `w.memory` and writable only inside this crate: its
/// memos are computed from them.
///
/// ```
/// use levioso_workloads::{suite, Scale};
/// let w = &suite(Scale::Smoke)[0];
/// let mut program = w.program.clone(); // a plain `Program`, free to annotate
/// program.annotations = None;
/// assert!(w.memory.iter().any(|&(_, v)| v != 0));
/// ```
///
/// Assigning, mutating or swapping them does not compile:
///
/// ```compile_fail,E0594
/// let mut w = levioso_workloads::suite(levioso_workloads::Scale::Smoke).remove(0);
/// w.memory = Vec::new();
/// ```
///
/// ```compile_fail,E0596
/// let mut w = levioso_workloads::suite(levioso_workloads::Scale::Smoke).remove(0);
/// w.memory.push((0, 1));
/// ```
///
/// ```compile_fail,E0596
/// let mut w = levioso_workloads::suite(levioso_workloads::Scale::Smoke).remove(0);
/// w.program.instrs.clear();
/// ```
///
/// ```compile_fail,E0596
/// let mut s = levioso_workloads::suite(levioso_workloads::Scale::Smoke);
/// let (a, b) = s.split_at_mut(1);
/// std::mem::swap(&mut a[0].program, &mut b[0].program);
/// ```
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The compiled program (annotate a clone via `Scheme::prepare`).
    pub program: Program,
    /// Initial memory image.
    pub memory: Vec<(u64, i64)>,
}

/// A workload's derived values, each filled on first use.
#[derive(Debug, Clone, Default)]
struct Memos {
    program_digest: OnceLock<String>,
    memory_digest: OnceLock<String>,
    /// The reference checksum and the `checksum_addr` it was read at.
    checksum: OnceLock<(u64, i64)>,
}

impl Deref for Workload {
    type Target = Inputs;

    fn deref(&self) -> &Inputs {
        &self.inputs
    }
}

impl Workload {
    fn new(
        name: &'static str,
        description: &'static str,
        program: Program,
        memory: Vec<(u64, i64)>,
        checksum_addr: u64,
    ) -> Self {
        Workload {
            name,
            description,
            checksum_addr,
            inputs: Inputs { program, memory },
            memos: Memos::default(),
        }
    }

    /// [`stable_hash_hex`] of the program's assembly listing, computed
    /// once. Perf cell keys (`levioso_bench::cellcache`) embed it, so a
    /// change to what it hashes re-keys every cached cell.
    pub fn program_digest(&self) -> &str {
        self.memos
            .program_digest
            .get_or_init(|| stable_hash_hex(self.program.to_asm_string().as_bytes()))
    }

    /// [`stable_hash_hex`] of the input image rendered one `{addr:#x}={val}`
    /// line per word, computed once; keyed like
    /// [`Workload::program_digest`].
    pub fn memory_digest(&self) -> &str {
        self.memos.memory_digest.get_or_init(|| {
            let mut text = String::new();
            for (addr, val) in &self.memory {
                let _ = writeln!(text, "{addr:#x}={val}");
            }
            stable_hash_hex(text.as_bytes())
        })
    }

    /// Runs the workload on the reference interpreter and returns the
    /// checksum it writes — the golden value any simulator run must match.
    /// The first call's result is memoized with the `checksum_addr` it was
    /// read at; a call after `checksum_addr` changed runs the interpreter
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to halt within a generous step budget
    /// (workloads are fixed programs; this indicates a bug).
    pub fn expected_checksum(&self) -> i64 {
        let (addr, checksum) =
            *self.memos.checksum.get_or_init(|| (self.checksum_addr, self.reference_checksum()));
        if addr == self.checksum_addr {
            checksum
        } else {
            self.reference_checksum()
        }
    }

    fn reference_checksum(&self) -> i64 {
        let mut m = Machine::new();
        for &(a, v) in &self.memory {
            m.mem.write_i64(a, v);
        }
        m.run(&self.program, 500_000_000).expect("workload halts on the interpreter");
        m.mem.read_i64(self.checksum_addr)
    }

    /// Applies the input image to a simulator's memory.
    pub fn apply_memory(&self, sim: &mut levioso_uarch::Simulator<'_>) {
        for &(a, v) in &self.memory {
            sim.mem.write_i64(a, v);
        }
    }
}

fn compile(name: &'static str, source: &str) -> Program {
    levi::compile_unannotated(name, source)
        .unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"))
}

fn rng_for(name: &str) -> Xoshiro256pp {
    // Stable per-kernel seed derived from the name.
    let mut seed: u64 = 0x5eed_1e55_0badu64;
    for b in name.bytes() {
        seed = seed.wrapping_mul(0x1000_0000_01b3).wrapping_add(b as u64);
    }
    Xoshiro256pp::seed_from_u64(seed)
}

mod kernels;
mod kernels_asm;
pub use kernels::suite;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_distinct_kernels() {
        let s = suite(Scale::Smoke);
        assert_eq!(s.len(), 12);
        let mut names: Vec<&str> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_kernel_halts_and_produces_a_checksum() {
        for w in suite(Scale::Smoke) {
            let c = w.expected_checksum();
            assert_ne!(c, 0, "{}: checksum should be non-trivial", w.name);
        }
    }

    #[test]
    fn checksums_are_deterministic() {
        let a = suite(Scale::Smoke);
        let b = suite(Scale::Smoke);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.expected_checksum(), y.expected_checksum(), "{}", x.name);
        }
    }

    #[test]
    fn memoized_checksum_matches_a_fresh_interpreter_run() {
        for scale in [Scale::Smoke, Scale::Paper] {
            for w in suite(scale) {
                let mut m = Machine::new();
                for &(a, v) in &w.memory {
                    m.mem.write_i64(a, v);
                }
                m.run(&w.program, 500_000_000).expect("halts");
                let fresh = m.mem.read_i64(w.checksum_addr);
                let memos = &w.memos;
                assert!(memos.checksum.get().is_none(), "{}: filled at construction", w.name);
                assert!(memos.program_digest.get().is_none(), "{}", w.name);
                assert!(memos.memory_digest.get().is_none(), "{}", w.name);
                assert_eq!(w.expected_checksum(), fresh, "{}: first call", w.name);
                assert_eq!(memos.checksum.get(), Some(&(w.checksum_addr, fresh)), "{}", w.name);
                assert_eq!(w.expected_checksum(), fresh, "{}: memoized", w.name);
                assert_eq!(w.clone().expected_checksum(), fresh, "{}: clone", w.name);
            }
        }
    }

    #[test]
    fn a_moved_checksum_address_is_read_afresh() {
        let mut w = suite(Scale::Smoke).remove(0);
        let at_out = w.expected_checksum();
        // filter_scan only reads its input array, so its first word ends
        // the run unchanged.
        w.checksum_addr = IN1;
        assert_eq!(w.memory[0].0, IN1);
        assert_eq!(w.expected_checksum(), w.memory[0].1);
        w.checksum_addr = OUT;
        assert_eq!(w.expected_checksum(), at_out);
    }

    #[test]
    fn scales_differ() {
        let smoke = suite(Scale::Smoke);
        let paper = suite(Scale::Paper);
        for (s, p) in smoke.iter().zip(&paper) {
            assert_eq!(s.name, p.name);
            assert!(p.memory.len() >= s.memory.len(), "{}", s.name);
        }
    }

    #[test]
    fn analyzability_is_as_documented() {
        for w in suite(Scale::Smoke) {
            let mut p = w.program.clone();
            levioso_compiler::annotate(&mut p);
            let cost = p.annotations.as_ref().unwrap().cost();
            if w.name == "bytecode_interp" {
                // Handlers are reachable only through the indirect jump, so
                // they carry the conservative fallback (see kernels_asm).
                assert!(cost.all_older > 0, "{}: handlers should be conservative", w.name);
            } else {
                assert_eq!(cost.all_older, 0, "{}: no conservative fallbacks expected", w.name);
            }
        }
    }
}
