//! Pipeline observability: trace hooks and delay blame.
//!
//! A [`TraceSink`] receives one callback per pipeline event — fetch,
//! dispatch, issue, policy block, store-to-load forward, control resolve,
//! squash, writeback, commit — from the hook points threaded through the
//! simulator core (see DESIGN.md §9 for the hook-point table). The core
//! stores the sink as `Option<Box<dyn TraceSink>>` and every hook is
//! behind a branch on `None`, so the disabled path does no work beyond
//! that test: golden results are bit-identical with and without the field
//! (verified by the golden gate). An attached sink is not yet free when
//! idle: with a [`NullSink`] on every cell, `scripts/perf.sh --ab-trace`
//! read the paper sweep 132–145 ‰ slower and a smoke A/B read +239 ‰,
//! against a 10 ‰ budget (DESIGN.md §9; ROADMAP.md item 5 is the fix).
//!
//! The one event that is *not* free to reconstruct after the fact is the
//! policy block: when the active [`crate::SpeculationPolicy`] delays an
//! instruction, the sink is told **why** via a [`Blame`] — which rule
//! fired and which slot (branch / indirect / load) is the oldest blocker.
//! The core builds it from the same [`crate::Wait`] the gate was decided
//! on: the wait's rule, and the oldest member of its set that still holds
//! the instruction. Consumers (the attribution sink in `levioso-bench`)
//! aggregate blames into per-rule counters and histograms whose total
//! provably equals `SimStats::policy_delay_cycles`.

use crate::dyninstr::{DynInstr, Seq};
use levioso_isa::Instr;
use std::any::Any;

/// What kind of in-flight instruction owns the blamed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlamedKind {
    /// A conditional branch.
    Branch,
    /// An indirect jump (`jalr`).
    Indirect,
    /// A speculative load (STT taint roots, Levioso load dependencies).
    Load,
}

impl BlamedKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BlamedKind::Branch => "branch",
            BlamedKind::Indirect => "indirect",
            BlamedKind::Load => "load",
        }
    }
}

/// The specific in-flight instruction a blocked cycle is blamed on: the
/// *oldest* slot in the policy's blocking set, i.e. the one that must
/// resolve first before the block can lift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlamedSlot {
    /// What kind of instruction holds the slot.
    pub kind: BlamedKind,
    /// Its dynamic sequence number.
    pub seq: Seq,
    /// Its program counter.
    pub pc: u32,
}

/// One blocked cycle, attributed: the rule that fired plus the oldest
/// blocking slot. A policy block always names one; only the core's
/// hit-only cache race retry (`core:l1-race-retry`) has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blame {
    /// Stable rule identifier, e.g. `"levioso:true-dep-unresolved"`.
    /// Always of the form `scheme:condition`.
    pub rule: &'static str,
    /// The oldest slot in the blocking set, if any.
    pub blamed: Option<BlamedSlot>,
}

/// Receiver for pipeline events. Every hook has an empty default body, so
/// a sink implements only what it needs; `cycle` is the simulator cycle
/// the event happened in.
///
/// Hooks fire in pipeline order within a cycle (commit → writeback /
/// resolve / squash → policy-block → issue → dispatch → fetch) and in
/// program order within a stage, so sinks can rebuild per-instruction
/// lifetimes without sorting.
pub trait TraceSink: std::fmt::Debug {
    /// An instruction (possibly wrong-path) entered the fetch queue.
    fn on_fetch(&mut self, _cycle: u64, _pc: u32, _instr: &Instr) {}

    /// `instr` was renamed and appended to the ROB.
    fn on_dispatch(&mut self, _cycle: u64, _instr: &DynInstr) {}

    /// `instr` began execution this cycle (its stage just left
    /// `Dispatched`).
    fn on_issue(&mut self, _cycle: u64, _instr: &DynInstr) {}

    /// `instr` was ready but the active policy (or a hit-only cache race)
    /// blocked it for this cycle. Fires exactly once per
    /// `policy_delay_cycles` increment, so summing blamed cycles over
    /// committed instructions reproduces `SimStats::policy_delay_cycles`.
    fn on_policy_block(&mut self, _cycle: u64, _instr: &DynInstr, _blame: &Blame) {}

    /// The load `instr` received its value from the in-flight store
    /// `store_seq` instead of the cache.
    fn on_forward(&mut self, _cycle: u64, _instr: &DynInstr, _store_seq: Seq) {}

    /// The control instruction `instr` resolved its direction/target.
    fn on_resolve(&mut self, _cycle: u64, _instr: &DynInstr, _mispredicted: bool) {}

    /// The in-flight instruction `seq` was squashed by an older
    /// misprediction. Its pending delay cycles never reach `SimStats`.
    /// Fires only for ROB entries: wrong-path instructions still in the
    /// fetch queue are dropped without an event (they have no sequence
    /// number yet), so `SimStats::squashed` can exceed the event count.
    fn on_squash(&mut self, _cycle: u64, _seq: Seq, _pc: u32) {}

    /// `instr` finished execution (its stage just became `Done`).
    fn on_writeback(&mut self, _cycle: u64, _instr: &DynInstr) {}

    /// `instr` retired from the head of the ROB; its per-instruction
    /// counters were just folded into `SimStats`.
    fn on_commit(&mut self, _cycle: u64, _instr: &DynInstr) {}

    /// Recovers the concrete sink type after
    /// [`crate::Simulator::take_tracer`]:
    /// `sink.into_any().downcast::<MySink>()`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The do-nothing sink: every hook is the empty default. Attaching it is
/// how `scripts/perf.sh --ab-trace` measures the enabled-path overhead ceiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans every event out to two sinks in order (`levitrace` uses this to
/// build the Chrome trace and the attribution report in one simulation).
#[derive(Debug)]
pub struct Tee {
    /// First receiver.
    pub a: Box<dyn TraceSink>,
    /// Second receiver.
    pub b: Box<dyn TraceSink>,
}

impl Tee {
    /// Combines two sinks.
    pub fn new(a: Box<dyn TraceSink>, b: Box<dyn TraceSink>) -> Self {
        Tee { a, b }
    }
}

impl TraceSink for Tee {
    fn on_fetch(&mut self, cycle: u64, pc: u32, instr: &Instr) {
        self.a.on_fetch(cycle, pc, instr);
        self.b.on_fetch(cycle, pc, instr);
    }

    fn on_dispatch(&mut self, cycle: u64, instr: &DynInstr) {
        self.a.on_dispatch(cycle, instr);
        self.b.on_dispatch(cycle, instr);
    }

    fn on_issue(&mut self, cycle: u64, instr: &DynInstr) {
        self.a.on_issue(cycle, instr);
        self.b.on_issue(cycle, instr);
    }

    fn on_policy_block(&mut self, cycle: u64, instr: &DynInstr, blame: &Blame) {
        self.a.on_policy_block(cycle, instr, blame);
        self.b.on_policy_block(cycle, instr, blame);
    }

    fn on_forward(&mut self, cycle: u64, instr: &DynInstr, store_seq: Seq) {
        self.a.on_forward(cycle, instr, store_seq);
        self.b.on_forward(cycle, instr, store_seq);
    }

    fn on_resolve(&mut self, cycle: u64, instr: &DynInstr, mispredicted: bool) {
        self.a.on_resolve(cycle, instr, mispredicted);
        self.b.on_resolve(cycle, instr, mispredicted);
    }

    fn on_squash(&mut self, cycle: u64, seq: Seq, pc: u32) {
        self.a.on_squash(cycle, seq, pc);
        self.b.on_squash(cycle, seq, pc);
    }

    fn on_writeback(&mut self, cycle: u64, instr: &DynInstr) {
        self.a.on_writeback(cycle, instr);
        self.b.on_writeback(cycle, instr);
    }

    fn on_commit(&mut self, cycle: u64, instr: &DynInstr) {
        self.a.on_commit(cycle, instr);
        self.b.on_commit(cycle, instr);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
