//! Dynamic (in-flight) instruction state.

use crate::specmask::SpecMask;
use levioso_isa::{Instr, Reg};
use std::ops::{Index, IndexMut};

/// Monotonic dynamic instruction sequence number (never reused within a
/// simulation; orders age).
pub type Seq = u64;

/// A reference to an in-flight instruction: its sequence number plus the
/// ROB *position* it was dispatched at.
///
/// Positions count ROB entries ever allocated past the committed ones: an
/// instruction dispatched while `c` instructions have committed and `n`
/// are in flight gets position `c + n`, and keeps it while it stays in
/// the ROB (commits advance the head, squashes lower the tail). The ROB
/// ring holds it in slot `pos & mask`. A squash lets a later dispatch
/// reuse a position, so a reference resolves only if the position is in
/// flight and its entry still carries `seq`; otherwise the instruction
/// has left the ROB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RobRef {
    /// The instruction's sequence number (orders references by age).
    pub seq: Seq,
    /// The ROB position it was dispatched at.
    pub pos: u64,
}

/// Pipeline stage of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Renamed into the ROB, waiting to issue.
    Dispatched,
    /// Issued; completes at `done_cycle`.
    Executing,
    /// Executed; result available, waiting to commit.
    Done,
}

/// One renamed source operand.
#[derive(Debug, Clone, Copy)]
pub struct Operand {
    /// Architectural register read.
    pub reg: Reg,
    /// Readiness.
    pub state: OpState,
}

/// Operand readiness.
#[derive(Debug, Clone, Copy)]
pub enum OpState {
    /// Value known.
    Ready(i64),
    /// Waiting for this in-flight producer.
    Waiting(RobRef),
}

impl OpState {
    /// The value, if ready.
    pub fn value(&self) -> Option<i64> {
        match *self {
            OpState::Ready(v) => Some(v),
            OpState::Waiting(_) => None,
        }
    }
}

/// Inline storage for an instruction's 0–2 renamed source operands
/// (replaces a per-instruction `Vec<Operand>` heap allocation on the
/// hottest dispatch path).
#[derive(Clone, Copy)]
pub struct Operands {
    buf: [Operand; 2],
    len: u8,
}

impl Operands {
    const EMPTY_SLOT: Operand = Operand { reg: levioso_isa::reg::ZERO, state: OpState::Ready(0) };

    /// No operands.
    pub const fn new() -> Self {
        Operands { buf: [Self::EMPTY_SLOT; 2], len: 0 }
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// Panics beyond two operands (no lev64 instruction reads more).
    pub fn push(&mut self, op: Operand) {
        self.buf[self.len as usize] = op;
        self.len += 1;
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no operands.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The operands as a slice.
    pub fn as_slice(&self) -> &[Operand] {
        &self.buf[..self.len as usize]
    }

    /// Iterates the operands.
    pub fn iter(&self) -> std::slice::Iter<'_, Operand> {
        self.as_slice().iter()
    }

    /// Iterates the operands mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Operand> {
        self.buf[..self.len as usize].iter_mut()
    }
}

impl Default for Operands {
    fn default() -> Self {
        Operands::new()
    }
}

impl Index<usize> for Operands {
    type Output = Operand;

    fn index(&self, idx: usize) -> &Operand {
        &self.as_slice()[idx]
    }
}

impl IndexMut<usize> for Operands {
    fn index_mut(&mut self, idx: usize) -> &mut Operand {
        &mut self.buf[..self.len as usize][idx]
    }
}

impl std::fmt::Debug for Operands {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A dynamic instruction in the reorder buffer.
///
/// Alongside ordinary out-of-order bookkeeping it carries the three
/// speculation-tracking sets every policy is judged on, each a
/// [`SpecMask`] over the in-flight slots of [`crate::specmask`]:
///
/// * [`shadow`](Self::shadow) — all older control instructions unresolved
///   at rename (what a hardware-only scheme must assume);
/// * [`ann_deps`](Self::ann_deps) — older unresolved instances of the
///   *statically annotated* branches (plus unresolved indirect jumps, which
///   are always barriers);
/// * [`lev_deps`](Self::lev_deps) — `ann_deps` closed over dynamic register
///   dataflow at rename and store-to-load forwarding: the full Levioso
///   dependency set;
/// * [`taint_roots`](Self::taint_roots) — in-flight loads whose values flow
///   into this instruction's operands (STT's taint).
#[derive(Debug, Clone)]
pub struct DynInstr {
    /// Age-ordering sequence number.
    pub seq: Seq,
    /// Instruction index in the program.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Current stage.
    pub stage: Stage,
    /// Cycle at which execution completes (valid while `Executing`).
    pub done_cycle: u64,
    /// Renamed source operands (0–2).
    pub srcs: Operands,
    /// Result value (valid once `Done`, for instructions with a dest).
    pub result: Option<i64>,

    /// Next PC predicted at fetch.
    pub predicted_next: u32,
    /// Whether the front end stalled for this control instruction (no
    /// target prediction was available).
    pub fetch_stalled: bool,
    /// Global history at prediction time (for trainer).
    pub history_at_predict: u64,
    /// Predictor snapshot for squash repair (control instructions only).
    pub checkpoint: Option<crate::predictor::Checkpoint>,
    /// Actual next PC (valid once a control instruction executes).
    pub actual_next: Option<u32>,

    /// Effective address (valid once a load/store/flush computes it).
    pub mem_addr: Option<u64>,

    /// This instruction's own speculation slot (control instructions and
    /// loads only).
    pub slot: Option<u16>,
    /// All older control instructions unresolved at rename.
    pub shadow: SpecMask,
    /// Unresolved instances of statically annotated branch dependencies
    /// (plus unresolved indirect jumps).
    pub ann_deps: SpecMask,
    /// Full Levioso dependency set (annotation instances ∪ deps inherited
    /// through register dataflow and store forwarding).
    pub lev_deps: SpecMask,
    /// STT taint roots: in-flight loads whose values reach this
    /// instruction's operands.
    pub taint_roots: SpecMask,
    /// Wait-accounting carry for dependencies inherited at store-to-load
    /// forwarding that had already resolved by the merge (their slots may
    /// recycle before this instruction commits, so the contribution —
    /// `max(resolve_cycle − first_ready)` over the dropped deps — is folded
    /// into this scalar at merge time instead).
    pub fwd_true_wait: u64,

    /// Head of this producer's wakeup chain: the youngest-registered
    /// consumer waiting on this instruction's result, as
    /// `(consumer, operand index)`.
    pub wake_head: Option<(RobRef, u8)>,
    /// Per-operand next link in the producer's wakeup chain.
    pub wake_next: [Option<(RobRef, u8)>; 2],

    /// Measured at first operand-readiness: was any `shadow` branch still
    /// unresolved? (F1 motivation counter, conservative view.)
    pub ready_while_shadowed: Option<bool>,
    /// Measured at first operand-readiness: was any `lev_deps` branch still
    /// unresolved? (F1 motivation counter, true-dependency view.)
    pub ready_while_true_dep: Option<bool>,
    /// Cycles this instruction spent blocked *only* by the policy.
    pub policy_delay_cycles: u64,
    /// Cycle at which all operands first became ready.
    pub first_ready_cycle: Option<u64>,
    /// Whether this instruction performed a state-changing cache access
    /// (demand load access or flush) during execution.
    pub touched_cache: bool,
    /// Whether this in-flight load occupies a miss-status-holding register.
    pub holds_mshr: bool,
}

impl DynInstr {
    /// Creates a dispatched instruction with empty tracking sets.
    pub fn new(seq: Seq, pc: u32, instr: Instr) -> Self {
        DynInstr {
            seq,
            pc,
            instr,
            stage: Stage::Dispatched,
            done_cycle: 0,
            srcs: Operands::new(),
            result: None,
            predicted_next: pc + 1,
            fetch_stalled: false,
            history_at_predict: 0,
            checkpoint: None,
            actual_next: None,
            mem_addr: None,
            slot: None,
            shadow: SpecMask::EMPTY,
            ann_deps: SpecMask::EMPTY,
            lev_deps: SpecMask::EMPTY,
            taint_roots: SpecMask::EMPTY,
            fwd_true_wait: 0,
            wake_head: None,
            wake_next: [None, None],
            ready_while_shadowed: None,
            ready_while_true_dep: None,
            policy_delay_cycles: 0,
            first_ready_cycle: None,
            touched_cache: false,
            holds_mshr: false,
        }
    }

    /// Whether every source operand is ready.
    pub fn operands_ready(&self) -> bool {
        self.srcs.iter().all(|o| matches!(o.state, OpState::Ready(_)))
    }

    /// Value of source operand `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the operand is not ready.
    pub fn src_value(&self, idx: usize) -> i64 {
        self.srcs[idx].state.value().expect("operand not ready")
    }

    /// Whether this is a control instruction that resolves at execute
    /// (conditional branch or indirect jump; direct jumps never
    /// mispredict in this front end).
    pub fn is_spec_source(&self) -> bool {
        matches!(self.instr, Instr::Branch { .. } | Instr::Jalr { .. })
    }

    /// Whether this instruction serializes the pipeline (`fence`,
    /// `rdcycle`): it issues only when all older instructions are done, and
    /// younger instructions wait for it.
    pub fn is_serializer(&self) -> bool {
        matches!(self.instr, Instr::Fence | Instr::RdCycle { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_isa::reg::*;
    use levioso_isa::{AluOp, BranchCond};

    #[test]
    fn operand_readiness() {
        let mut d = DynInstr::new(1, 0, Instr::Alu { op: AluOp::Add, rd: A0, rs1: A1, rs2: A2 });
        d.srcs.push(Operand { reg: A1, state: OpState::Ready(5) });
        d.srcs.push(Operand { reg: A2, state: OpState::Waiting(RobRef { seq: 0, pos: 0 }) });
        assert!(!d.operands_ready());
        d.srcs[1].state = OpState::Ready(7);
        assert!(d.operands_ready());
        assert_eq!(d.src_value(0), 5);
        assert_eq!(d.src_value(1), 7);
    }

    #[test]
    fn classification() {
        let b = DynInstr::new(
            1,
            0,
            Instr::Branch { cond: BranchCond::Eq, rs1: A0, rs2: ZERO, target: 0 },
        );
        assert!(b.is_spec_source());
        let j = DynInstr::new(2, 0, Instr::Jal { rd: RA, target: 5 });
        assert!(!j.is_spec_source(), "direct jumps never mispredict");
        let f = DynInstr::new(3, 0, Instr::Fence);
        assert!(f.is_serializer());
        let r = DynInstr::new(4, 0, Instr::RdCycle { rd: A0 });
        assert!(r.is_serializer());
    }

    #[test]
    fn operands_inline_storage() {
        let mut ops = Operands::new();
        assert!(ops.is_empty());
        ops.push(Operand { reg: A1, state: OpState::Ready(1) });
        let producer = RobRef { seq: 9, pos: 4 };
        ops.push(Operand { reg: A2, state: OpState::Waiting(producer) });
        assert_eq!(ops.len(), 2);
        assert_eq!(ops.as_slice().len(), 2);
        assert!(ops.iter().any(|o| matches!(o.state, OpState::Waiting(p) if p == producer)));
        ops[1].state = OpState::Ready(3);
        assert_eq!(ops[1].state.value(), Some(3));
    }
}
