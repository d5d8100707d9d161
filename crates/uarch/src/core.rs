//! The cycle-level out-of-order core.
//!
//! A deliberately explicit model of the pipeline the secure-speculation
//! literature evaluates on: per cycle the core commits, writes back (and
//! resolves/squashes control), issues, renames/dispatches, and fetches.
//! Wrong-path instructions are fully executed — including their cache side
//! effects, which persist across squash: that persistence *is* the Spectre
//! channel the defenses must close.
//!
//! Memory-ordering choices (documented in DESIGN.md): loads wait until all
//! older store addresses are known, forward on an exact address/width
//! match, and stall on partial overlap — i.e. no memory-dependence
//! speculation, so Spectre-v4 is out of scope by construction. Stores
//! write memory and fill the cache at commit only.
//!
//! # Hot-path structure
//!
//! The scheduling loop is event-driven (see DESIGN.md "Hot path &
//! performance model") with results bit-identical to the original
//! full-scan implementation:
//!
//! * speculation sets are [`SpecMask`] bitmasks over in-flight slots
//!   ([`crate::specmask`]) instead of sorted `Vec<Seq>` merges;
//! * every stored reference to an in-flight instruction is a [`RobRef`]
//!   (sequence number plus ROB position), which resolves with one index
//!   and one sequence-number compare;
//! * writeback pops a completion min-heap keyed by `(done_cycle, seq)`
//!   instead of scanning the ROB (eligible completions always carry the
//!   current cycle, so heap order equals the old seq-order scan);
//! * completions wake their consumers through intrusive per-producer
//!   chains built at rename, and issue walks a sorted ready-set of
//!   operand-ready instructions in seq order (equal to the old ROB-order
//!   scan priority), stopping at the oldest incomplete serializer
//!   (`fence`/`rdcycle`), which issues once every older instruction is
//!   done;
//! * loads check memory ordering against a store queue of the in-flight
//!   stores' addresses and widths instead of walking older ROB entries;
//! * a load the store queue blocks leaves the ready set and is parked on
//!   the store it waits for until that store's address, data, or commit
//!   arrives, instead of being re-decided every cycle;
//! * after a quiet cycle — nothing committed, completed, issued, first
//!   ready, dispatched, fetched, or redirected — time jumps to the next
//!   completion, redirect, or the cycle limit: every cycle in between
//!   would repeat the quiet one, whose only effect is one more policy
//!   delay cycle on each instruction it delayed.
//!
//! Both rest on the [`SpeculationPolicy`] contract: a policy only declares
//! what each gate waits on, so verdicts are pure and a gate that opened
//! never closes for an in-flight instruction.

use crate::cache::Hierarchy;
use crate::config::CoreConfig;
use crate::dyninstr::{DynInstr, OpState, Operand, RobRef, Seq, Stage};
use crate::policy::{SpecView, SpeculationPolicy, Wait};
use crate::predictor::Predictor;
use crate::refsets::{self, RefSets, ReferenceChecks};
use crate::specmask::{SlotTable, SpecMask};
use crate::stats::SimStats;
use crate::trace::{Blame, BlamedKind, BlamedSlot, TraceSink};
use levioso_isa::{read_memory, write_memory, DepSet, Instr, MemWidth, Memory, Program, Reg};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;

/// Register alias table entry.
#[derive(Debug, Clone, Copy)]
enum RatEntry {
    /// Architectural (or already-committed) value.
    Value(i64),
    /// Produced by this in-flight instruction.
    Producer(RobRef),
}

/// An instruction fetched but not yet renamed.
#[derive(Debug, Clone)]
struct Fetched {
    pc: u32,
    instr: Instr,
    predicted_next: u32,
    history: u64,
    checkpoint: Option<crate::predictor::Checkpoint>,
    stalls_fetch: bool,
}

/// What an issuing instruction will do (decided in a read-only pass,
/// applied in a mutating pass).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum IssueAction {
    /// ALU/branch/jump/serializer/nop/halt: result and (for control) the
    /// actual next PC were computed from ready operands.
    Simple { idx: usize, latency: u64, result: Option<i64>, actual_next: Option<u32> },
    /// Load served by store-to-load forwarding.
    Forward { idx: usize, store_idx: usize, addr: u64 },
    /// Load performing a cache access.
    Access { idx: usize, addr: u64, value: i64, hit_only: bool },
    /// Flush instruction evicting a line.
    Flush { idx: usize, addr: u64 },
    /// Store address generation.
    StoreAddr { idx: usize, addr: u64 },
}

/// Which gate held an instruction in phase A, so the blame pass can ask
/// the policy for the same [`Wait`] again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DelayCause {
    /// [`SpeculationPolicy::execute_wait`] held.
    Execute,
    /// [`SpeculationPolicy::transmit_wait`] held.
    Transmit,
    /// [`SpeculationPolicy::hit_only_wait`] held and the load missed in
    /// the L1.
    LoadMiss,
}

/// One cycle's issue decisions: made by the read-only phase A, applied by
/// phase B (the buffers are reused across cycles).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct IssueDecisions {
    /// What issues, in issue order.
    pub(crate) actions: Vec<IssueAction>,
    /// Instructions whose operands are ready for the first time, with
    /// their F1 flags `(idx, shadowed, true-dep pending)`.
    pub(crate) first_ready: Vec<(usize, bool, bool)>,
    /// Instructions a policy gate held back this cycle (kept until the
    /// next cycle's issue, for the quiet-cycle jump).
    pub(crate) delayed: Vec<(usize, DelayCause)>,
    /// Loads the store queue blocked, with the store they wait for and
    /// the event that wakes them.
    pub(crate) parked: Vec<(usize, Seq, WakeOn)>,
}

/// The store event a blocked load waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeOn {
    /// The store's address is generated.
    Addr,
    /// The store's data operand is written back.
    Data,
    /// The store commits.
    Commit,
}

/// A load out of the ready set until `store` reaches `wake`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parked {
    pub(crate) load: RobRef,
    pub(crate) store: Seq,
    pub(crate) wake: WakeOn,
}

/// Per-cycle execution-unit budget consumed during the issue scan.
pub(crate) struct IssueUnits {
    alu: usize,
    mul: usize,
    div: usize,
    ld_ports: usize,
    st_ports: usize,
    mshrs_free: usize,
    pub(crate) issued: usize,
}

/// One in-flight store in the store queue.
#[derive(Debug, Clone, Copy)]
struct SqEntry {
    /// The store.
    at: RobRef,
    /// Access width in bytes.
    bytes: u64,
    /// Effective address, once generated.
    addr: Option<u64>,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The policy requires compiler annotations but the program has none.
    MissingAnnotations,
    /// The program failed structural validation.
    Invalid(String),
    /// The committed path ran off the end of the program (no `halt`).
    PcOutOfRange {
        /// The runaway program counter.
        pc: u32,
    },
    /// The cycle safety limit was exceeded.
    CycleLimit {
        /// The exhausted limit.
        max_cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingAnnotations => {
                f.write_str("policy requires compiler annotations but the program has none")
            }
            SimError::Invalid(e) => write!(f, "invalid program: {e}"),
            SimError::PcOutOfRange { pc } => {
                write!(f, "committed path left the program at pc {pc}")
            }
            SimError::CycleLimit { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The out-of-order core simulator.
///
/// One `Simulator` owns the machine state (memory, caches, predictor) for
/// one program run under one policy:
///
/// ```
/// use levioso_uarch::{CoreConfig, Simulator, UnsafeBaseline};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = levioso_isa::assemble("t", "li a0, 41\naddi a0, a0, 1\nhalt")?;
/// let mut sim = Simulator::new(&program, CoreConfig::default());
/// let stats = sim.run(&UnsafeBaseline)?;
/// assert_eq!(sim.reg(levioso_isa::reg::A0), 42);
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    config: CoreConfig,
    /// Functional data memory (set up inputs before `run`, inspect outputs
    /// after).
    pub mem: Memory,
    hierarchy: Hierarchy,
    predictor: Predictor,

    rob: VecDeque<DynInstr>,
    /// ROB position of the head entry: the number of instructions
    /// committed so far (see [`RobRef`]).
    head_pos: u64,
    fetch_queue: VecDeque<Fetched>,
    fetch_pc: u32,
    fetch_stalled: bool,
    redirect: Option<(u64, u32)>,

    rat: [RatEntry; Reg::COUNT],
    arch_regs: [i64; Reg::COUNT],
    /// Speculation slots: per-control/per-load state masks (replaces the
    /// old `unresolved` map and unbounded `resolve_cycle` map).
    slots: SlotTable,

    /// Dispatched instructions whose operands are ready (stores: base
    /// ready), in seq order — the issue scan's candidate set.
    ready: BTreeSet<RobRef>,
    /// Min-heap of pending completions `(done_cycle, instruction)`;
    /// entries for squashed instructions are skipped at pop.
    completions: BinaryHeap<Reverse<(u64, RobRef)>>,
    /// In-flight stores, oldest first.
    store_queue: VecDeque<SqEntry>,
    /// In-flight serializers (`fence`, `rdcycle`), oldest first.
    serializers: VecDeque<RobRef>,
    /// Loads the store queue blocked, out of the ready set until their
    /// store's event.
    parked: Vec<Parked>,

    next_seq: Seq,
    cycle: u64,
    /// Demand misses currently in flight (MSHR occupancy).
    outstanding_misses: usize,
    iq_count: usize,
    lq_count: usize,
    stats: SimStats,
    halted: bool,

    /// Reused per-cycle issue buffers (no steady-state allocation).
    scratch: IssueDecisions,

    /// Differential-checking oracle (the implementations the fast paths
    /// replaced), enabled by tests via
    /// [`Simulator::enable_reference_checking`].
    refsets: Option<Box<RefSets>>,

    /// Observability sink (see [`crate::trace`]); `None` in production
    /// runs, where every hook reduces to one branch.
    tracer: Option<Box<dyn TraceSink>>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.rob_size` exceeds [`crate::MAX_ROB_SIZE`].
    pub fn new(program: &'p Program, config: CoreConfig) -> Self {
        let hierarchy = Hierarchy::new(&config.hierarchy);
        let predictor = Predictor::new(&config.predictor);
        let slots = SlotTable::new(config.rob_size);
        Simulator {
            program,
            config,
            mem: Memory::new(),
            hierarchy,
            predictor,
            rob: VecDeque::new(),
            head_pos: 0,
            fetch_queue: VecDeque::new(),
            fetch_pc: 0,
            fetch_stalled: false,
            redirect: None,
            rat: [RatEntry::Value(0); Reg::COUNT],
            arch_regs: [0; Reg::COUNT],
            slots,
            ready: BTreeSet::new(),
            completions: BinaryHeap::new(),
            store_queue: VecDeque::new(),
            serializers: VecDeque::new(),
            parked: Vec::new(),
            next_seq: 0,
            cycle: 0,
            outstanding_misses: 0,
            iq_count: 0,
            lq_count: 0,
            stats: SimStats::default(),
            halted: false,
            scratch: IssueDecisions::default(),
            refsets: None,
            tracer: None,
        }
    }

    /// Attaches a trace sink; subsequent pipeline events are reported to
    /// it (call before [`Simulator::run`] to observe the whole run).
    pub fn attach_tracer(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Some(sink);
    }

    /// Detaches and returns the trace sink, if one is attached. Recover
    /// the concrete type with [`TraceSink::into_any`].
    pub fn take_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take()
    }

    /// Committed architectural value of register `r`.
    pub fn reg(&self, r: Reg) -> i64 {
        self.arch_regs[r.index()]
    }

    /// Sets the *initial* architectural value of `r` (before `run`).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.arch_regs[r.index()] = value;
            self.rat[r.index()] = RatEntry::Value(value);
        }
    }

    /// The cache hierarchy (side-channel receivers probe it after a run).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs the implementations the fast paths replaced side-by-side with
    /// them, asserting equivalence: the old Vec-based speculation sets at
    /// every dispatch, forward, and commit; a binary search behind every
    /// positioned ROB lookup; the full-ROB scan behind every store-queue
    /// verdict and every issue cycle under a serializer. It also steps
    /// every cycle the quiet-cycle jump would skip, asserting each is
    /// quiet and delays what the quiet cycle before it delayed, and
    /// re-decides every parked load every cycle, asserting it stays
    /// blocked on the same store (differential-testing hook; call before
    /// `run`).
    #[doc(hidden)]
    pub fn enable_reference_checking(&mut self) {
        self.refsets = Some(Box::new(RefSets::new()));
    }

    /// How many comparisons the reference oracle made (all zero when
    /// checking is disabled).
    #[doc(hidden)]
    pub fn reference_checks(&self) -> ReferenceChecks {
        self.refsets.as_ref().map_or_else(ReferenceChecks::default, |r| r.checks())
    }

    /// `(high-water mark, capacity)` of the speculation slot table
    /// (bounded-state test hook; capacity is 2 × ROB size).
    #[doc(hidden)]
    pub fn spec_slot_watermark(&self) -> (usize, usize) {
        (self.slots.max_in_use(), self.slots.capacity())
    }

    /// Fingerprint of committed architectural state (registers + memory);
    /// directly comparable with
    /// [`levioso_isa::Machine::arch_fingerprint`].
    pub fn arch_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &r in &self.arch_regs {
            for b in r.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        h ^ self.mem.fingerprint().rotate_left(17)
    }

    /// Runs the program to completion under `policy`.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingAnnotations`] if the policy needs annotations the
    /// program lacks; [`SimError::Invalid`] for malformed programs;
    /// [`SimError::PcOutOfRange`] if the committed path leaves the program;
    /// [`SimError::CycleLimit`] on runaway simulations.
    pub fn run(&mut self, policy: &dyn SpeculationPolicy) -> Result<SimStats, SimError> {
        if policy.needs_annotations() && self.program.annotations.is_none() {
            return Err(SimError::MissingAnnotations);
        }
        self.program.validate().map_err(|e| SimError::Invalid(e.to_string()))?;
        if self.program.is_empty() {
            return Err(SimError::PcOutOfRange { pc: 0 });
        }
        while !self.halted {
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::CycleLimit { max_cycles: self.config.max_cycles });
            }
            let mut active = self.commit();
            if self.halted {
                break;
            }
            active |= self.writeback();
            active |= self.issue(policy);
            active |= self.dispatch();
            active |= self.fetch();
            // Starvation: nothing in flight and the front end can never
            // make progress again.
            if self.rob.is_empty()
                && self.fetch_queue.is_empty()
                && self.redirect.is_none()
                && !self.fetch_stalled
                && self.fetch_pc as usize >= self.program.len()
            {
                return Err(SimError::PcOutOfRange { pc: self.fetch_pc });
            }
            if let Some(refs) = self.refsets.as_deref_mut() {
                refs.check_skippable_cycle(self.cycle, active, &self.scratch.delayed);
            }
            self.cycle += 1;
            if !active {
                self.skip_quiet_cycles(policy);
            }
        }
        self.stats.cycles = self.cycle;
        self.stats.l1d = self.hierarchy.l1d.stats();
        self.stats.l2 = self.hierarchy.l2.stats();
        Ok(self.stats)
    }

    /// Called after a quiet cycle: nothing committed, completed, issued,
    /// became ready for the first time, dispatched, fetched, or
    /// redirected. Every later cycle repeats it until the next timed event
    /// — the next completion, the pending redirect, or the cycle limit —
    /// because policies are pure, cache state changes only on accesses,
    /// and MSHRs free only at completion. A quiet cycle's only effect is
    /// one more policy delay cycle (and, with a sink, one block event) on
    /// each instruction it delayed, so jump there and apply those effects
    /// for every skipped cycle. With the reference oracle on, step instead
    /// and let it check each skipped cycle.
    fn skip_quiet_cycles(&mut self, policy: &dyn SpeculationPolicy) {
        let mut next = self.config.max_cycles;
        if let Some(&Reverse((done_cycle, _))) = self.completions.peek() {
            next = next.min(done_cycle);
        }
        if let Some((ready_at, _)) = self.redirect {
            next = next.min(ready_at);
        }
        if let Some(refs) = self.refsets.as_deref_mut() {
            refs.expect_quiet_until(next, &self.scratch.delayed);
            return;
        }
        if next <= self.cycle {
            return;
        }
        let delayed = std::mem::take(&mut self.scratch.delayed);
        if let Some(mut t) = self.tracer.take() {
            // Nothing a blame reads changes while the cycles repeat.
            let blames: Vec<Blame> =
                delayed.iter().map(|&(idx, cause)| self.blame_for(policy, idx, cause)).collect();
            for cycle in self.cycle..next {
                for (&(idx, _), blame) in delayed.iter().zip(&blames) {
                    t.on_policy_block(cycle, &self.rob[idx], blame);
                }
                for &(idx, _) in &delayed {
                    self.rob[idx].policy_delay_cycles += 1;
                }
            }
            self.tracer = Some(t);
        } else {
            for &(idx, _) in &delayed {
                self.rob[idx].policy_delay_cycles += next - self.cycle;
            }
        }
        self.scratch.delayed = delayed;
        self.cycle = next;
    }

    /// ROB index of the in-flight instruction `r`, or `None` once it has
    /// left the ROB (a later dispatch may have reused its position).
    fn live(&self, r: RobRef) -> Option<usize> {
        let idx = usize::try_from(r.pos.checked_sub(self.head_pos)?).ok()?;
        let found = self.rob.get(idx).filter(|e| e.seq == r.seq).map(|_| idx);
        if let Some(refs) = &self.refsets {
            refs.check_lookup(&self.rob, r.seq, found);
        }
        found
    }

    /// The reference to the instruction at ROB index `idx`.
    fn rob_ref(&self, idx: usize) -> RobRef {
        RobRef { seq: self.rob[idx].seq, pos: self.head_pos + idx as u64 }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Retires up to `commit_width` done instructions from the ROB head;
    /// returns whether any retired. Each is read where it sits and dropped
    /// as it leaves, which is when `head_pos` advances.
    fn commit(&mut self) -> bool {
        let mut committed = false;
        for _ in 0..self.config.commit_width {
            let Some(e) = self.rob.front() else { break };
            if e.stage != Stage::Done {
                break;
            }
            // Stores also need their data before retiring.
            if e.instr.is_store() && e.srcs[1].state.value().is_none() {
                break;
            }
            committed = true;
            let (seq, instr, slot, serializer) = (e.seq, e.instr, e.slot, e.is_serializer());
            if instr.is_load() {
                self.lq_count -= 1;
            }
            if instr.is_store() {
                let s = self.store_queue.pop_front();
                debug_assert_eq!(s.map(|s| s.at.seq), Some(seq), "the oldest store commits");
                self.wake_parked(seq, WakeOn::Commit);
            }
            if serializer {
                let s = self.serializers.pop_front();
                debug_assert_eq!(s.map(|s| s.seq), Some(seq), "the oldest serializer commits");
            }
            self.account_commit();
            // The slot outlives the owner until the ROB drains past
            // `next_seq`, so younger in-flight masks never alias it.
            if let Some(slot) = slot {
                self.slots.free_commit(slot, self.next_seq);
            }
            let e = &self.rob[0];
            match instr {
                Instr::Store { width, .. } => {
                    let addr = e.mem_addr.expect("committed store has an address");
                    let data = e.srcs[1].state.value().expect("checked data ready");
                    write_memory(&mut self.mem, addr, width, data);
                    // The store's fill becomes architectural at commit.
                    self.hierarchy.access(addr, self.cycle);
                }
                Instr::Halt => {
                    self.retire_head();
                    self.halted = true;
                    return true;
                }
                _ => {}
            }
            if let Some(rd) = instr.dest() {
                let v = e.result.expect("done instruction with dest has result");
                self.arch_regs[rd.index()] = v;
                if let RatEntry::Producer(p) = self.rat[rd.index()] {
                    if p.seq == seq {
                        self.rat[rd.index()] = RatEntry::Value(v);
                    }
                }
            }
            self.retire_head();
        }
        committed
    }

    /// Drops the committed ROB head in place (`pop_front` would move the
    /// whole entry out only to drop it).
    fn retire_head(&mut self) {
        self.rob.drain(..1);
        self.head_pos += 1;
    }

    /// Returns the loads parked on `store` for `wake` to the ready set,
    /// to be decided afresh.
    fn wake_parked(&mut self, store: Seq, wake: WakeOn) {
        let ready = &mut self.ready;
        self.parked.retain(|p| {
            let woken = p.store == store && p.wake == wake;
            if woken {
                ready.insert(p.load);
            }
            !woken
        });
    }

    /// Counts the committing ROB head into the statistics.
    fn account_commit(&mut self) {
        let e = self.rob.front().expect("a committing instruction heads the ROB");
        self.stats.committed += 1;
        if e.ready_while_shadowed == Some(true) {
            self.stats.ready_while_shadowed += 1;
        }
        if e.ready_while_true_dep == Some(true) {
            self.stats.ready_while_true_dep += 1;
        }
        self.stats.policy_delay_cycles += e.policy_delay_cycles;
        if e.policy_delay_cycles > 0 {
            self.stats.policy_delayed_instrs += 1;
        }
        // F1 headroom: how long past readiness the conservative shadow vs
        // the true dependencies stayed unresolved. (Every control
        // instruction older than a committed one has resolved, and its
        // slot is unreused while this instruction is in flight, so the
        // per-slot resolve cycles are valid. Dependencies whose slots were
        // dropped at store-forwarding carry their contribution in
        // `fwd_true_wait`.)
        let mut waits = None;
        if let Some(ready) = e.first_ready_cycle {
            let sw = self.slots.wait_cycles(&e.shadow, ready);
            let tw = self.slots.wait_cycles(&e.lev_deps, ready).max(e.fwd_true_wait);
            self.stats.shadow_wait_cycles += sw;
            self.stats.true_wait_cycles += tw;
            waits = Some((sw, tw));
        }
        if let Some(refs) = self.refsets.as_deref_mut() {
            refs.on_commit(e, waits);
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_commit(self.cycle, e);
        }
    }

    // ------------------------------------------------------------------
    // Writeback & control resolution
    // ------------------------------------------------------------------

    /// Completes every instruction due this cycle; returns whether any
    /// completion (live or squashed) was popped.
    fn writeback(&mut self) -> bool {
        // Pop due completions in (cycle, seq) order. Issue always schedules
        // completion strictly in the future and writeback runs every cycle
        // it can pop (quiet cycles are skipped only up to the next
        // completion), so every due entry carries the current cycle —
        // making heap order identical to the old seq-order ROB scan.
        // Entries whose owner was squashed (including by a resolution
        // earlier this same cycle) no longer resolve and are skipped.
        let mut popped = false;
        while let Some(&Reverse((done_cycle, r))) = self.completions.peek() {
            if done_cycle > self.cycle {
                break;
            }
            self.completions.pop();
            popped = true;
            let Some(idx) = self.live(r) else { continue }; // squashed meanwhile
            debug_assert_eq!(self.rob[idx].stage, Stage::Executing);
            self.rob[idx].stage = Stage::Done;
            if self.rob[idx].holds_mshr {
                self.rob[idx].holds_mshr = false;
                self.outstanding_misses -= 1;
            }
            if self.rob[idx].instr.is_load() {
                let slot = self.rob[idx].slot.expect("loads own a slot");
                self.slots.mark_load_done(slot);
                if let Some(refs) = self.refsets.as_deref_mut() {
                    refs.on_load_done(r.seq);
                }
            }
            if let Some(t) = self.tracer.as_deref_mut() {
                t.on_writeback(self.cycle, &self.rob[idx]);
            }
            // Wake consumers along this producer's chain.
            if self.rob[idx].instr.dest().is_some() {
                let v = self.rob[idx].result.expect("dest implies result");
                let mut cur = self.rob[idx].wake_head;
                while let Some((consumer, oi)) = cur {
                    let cidx = self
                        .live(consumer)
                        .expect("squash rebuilds wake chains, so links are live");
                    let c = &mut self.rob[cidx];
                    c.srcs[oi as usize].state = OpState::Ready(v);
                    cur = c.wake_next[oi as usize];
                    let store_data = c.instr.is_store() && oi == 1;
                    if c.stage == Stage::Dispatched {
                        let eligible = c.operands_ready()
                            || (c.instr.is_store()
                                && c.srcs[0].state.value().is_some()
                                && c.mem_addr.is_none());
                        if eligible {
                            self.ready.insert(consumer);
                        }
                    }
                    if store_data {
                        self.wake_parked(consumer.seq, WakeOn::Data);
                    }
                }
            }
            if self.rob[idx].is_spec_source() {
                self.resolve_control(idx);
            }
        }
        popped
    }

    /// Resolves the control instruction at ROB index `idx`.
    fn resolve_control(&mut self, idx: usize) {
        let seq = self.rob[idx].seq;
        let (pc, actual, predicted, was_stalling, history, checkpoint, instr, slot, taken) = {
            let e = &mut self.rob[idx];
            (
                e.pc,
                e.actual_next.expect("executed control has actual target"),
                e.predicted_next,
                e.fetch_stalled,
                e.history_at_predict,
                e.checkpoint.take(),
                e.instr,
                e.slot.expect("control instructions own a slot"),
                e.result == Some(1),
            )
        };

        self.slots.resolve(slot, self.cycle);
        if let Some(refs) = self.refsets.as_deref_mut() {
            refs.on_resolve(seq, self.cycle);
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            // A stalling indirect never predicted, so it cannot mispredict.
            t.on_resolve(self.cycle, &self.rob[idx], !was_stalling && actual != predicted);
        }

        // Train.
        match instr {
            Instr::Branch { .. } => {
                self.predictor.train_branch(pc, history, taken);
            }
            Instr::Jalr { rd, base, offset } => {
                let is_ret = rd.is_zero() && base == levioso_isa::reg::RA && offset == 0;
                if !is_ret {
                    self.predictor.train_indirect(pc, actual);
                }
            }
            _ => unreachable!("only branches and indirect jumps resolve"),
        }

        if was_stalling {
            // The front end was waiting for this target.
            self.redirect = Some((self.cycle + 1, actual));
            self.fetch_stalled = false;
            return;
        }

        if actual != predicted {
            self.stats.mispredicts += 1;
            self.squash_younger_than(seq);
            if let Some(cp) = checkpoint {
                self.predictor.restore(&cp);
                match instr {
                    Instr::Branch { .. } => {
                        self.predictor.update_history(taken);
                    }
                    // A mispredicted return still consumed its RAS entry.
                    Instr::Jalr { rd, base, offset }
                        if rd.is_zero() && base == levioso_isa::reg::RA && offset == 0 =>
                    {
                        let _ = self.predictor.pop_return();
                    }
                    _ => {}
                }
            }
            self.redirect = Some((self.cycle + self.config.redirect_penalty, actual));
            self.fetch_stalled = false;
        }
    }

    fn squash_younger_than(&mut self, seq: Seq) {
        while let Some(back) = self.rob.back() {
            if back.seq <= seq {
                break;
            }
            let e = self.rob.pop_back().expect("checked non-empty");
            self.stats.squashed += 1;
            if e.holds_mshr {
                self.outstanding_misses -= 1;
            }
            if e.touched_cache {
                self.stats.transient_fills += 1;
            }
            if let Some(slot) = e.slot {
                // Immediately reusable: every instruction that could hold
                // this slot's bit is younger and squashed in this event.
                self.slots.free_squash(slot);
            }
            if e.stage == Stage::Dispatched {
                self.iq_count -= 1;
            }
            if e.instr.is_load() {
                self.lq_count -= 1;
            }
            if let Some(t) = self.tracer.as_deref_mut() {
                t.on_squash(self.cycle, e.seq, e.pc);
            }
        }
        // Drop squashed entries from the age-ordered queues, the ready set
        // and the parked loads (stale completion-heap entries are skipped
        // at pop instead).
        while self.store_queue.back().is_some_and(|s| s.at.seq > seq) {
            self.store_queue.pop_back();
        }
        while self.serializers.back().is_some_and(|s| s.seq > seq) {
            self.serializers.pop_back();
        }
        let _ = self.ready.split_off(&RobRef { seq: seq + 1, pos: 0 });
        self.parked.retain(|p| p.load.seq <= seq);
        if let Some(refs) = self.refsets.as_deref_mut() {
            refs.on_squash_younger(seq);
        }
        self.stats.squashed += self.fetch_queue.len() as u64;
        self.fetch_queue.clear();
        // Rebuild the register alias table from surviving producers, and
        // the wakeup chains from surviving waiters (chains may pass
        // through squashed consumers).
        for r in 1..Reg::COUNT {
            self.rat[r] = RatEntry::Value(self.arch_regs[r]);
        }
        for i in 0..self.rob.len() {
            self.rob[i].wake_head = None;
        }
        for i in 0..self.rob.len() {
            let consumer = self.rob_ref(i);
            if let Some(rd) = self.rob[i].instr.dest() {
                self.rat[rd.index()] = match (self.rob[i].stage, self.rob[i].result) {
                    (Stage::Done, Some(v)) => RatEntry::Value(v),
                    _ => RatEntry::Producer(consumer),
                };
            }
            for oi in 0..self.rob[i].srcs.len() {
                if let OpState::Waiting(p) = self.rob[i].srcs[oi].state {
                    let pidx = self
                        .live(p)
                        .expect("a surviving consumer's producer is older and survives");
                    let head = self.rob[pidx].wake_head;
                    self.rob[i].wake_next[oi] = head;
                    self.rob[pidx].wake_head = Some((consumer, oi as u8));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Decides and applies this cycle's issue; returns whether anything
    /// issued or became operand-ready for the first time.
    fn issue(&mut self, policy: &dyn SpeculationPolicy) -> bool {
        // Phase A: read-only pass deciding what issues this cycle, into
        // scratch buffers reused across cycles.
        let mut decided = std::mem::take(&mut self.scratch);
        debug_assert!(decided.actions.is_empty());
        decided.first_ready.clear();
        decided.delayed.clear();
        decided.parked.clear();

        {
            self.issue_scan(policy, &mut decided);
            if let Some(refs) = &self.refsets {
                if !self.serializers.is_empty() {
                    // Under a serializer, the full-ROB scan the barrier
                    // replaced must make the same decisions (parked loads
                    // are checked below instead).
                    let mut scanned = IssueDecisions::default();
                    refsets::serialized_scan(
                        &self.rob,
                        self.cycle,
                        self.config.issue_width,
                        &mut self.issue_units(),
                        &mut scanned,
                        &mut |idx, units, out| {
                            if !self.parked.iter().any(|p| p.load.seq == self.rob[idx].seq) {
                                self.consider_issue(policy, idx, units, out);
                            }
                        },
                    );
                    refs.check_serialized_issue(self.cycle, &decided, &scanned);
                }
                // Every parked load, re-decided now, is still blocked on
                // the same store: nothing it reads changed before the
                // event it waits for.
                for p in &self.parked {
                    let idx = self.live(p.load).expect("parked loads are in flight");
                    let mut redecided = IssueDecisions::default();
                    self.consider_issue(policy, idx, &mut self.issue_units(), &mut redecided);
                    refs.check_parked(self.cycle, idx, p, &redecided);
                }
            }
        }
        let active = !decided.actions.is_empty() || !decided.first_ready.is_empty();

        // Blame pass: with a sink attached, blame this cycle's policy
        // blocks *before* phase B mutates the state the verdicts were
        // computed from (so each blame reads the state its gate read).
        if let Some(mut t) = self.tracer.take() {
            for &(idx, cause) in &decided.delayed {
                t.on_policy_block(self.cycle, &self.rob[idx], &self.blame_for(policy, idx, cause));
            }
            self.tracer = Some(t);
        }

        // Phase B: apply. Blocked loads park first, so a store address
        // generated below finds its waiters parked.
        for &(idx, store, wake) in &decided.parked {
            let load = self.rob_ref(idx);
            self.ready.remove(&load);
            self.parked.push(Parked { load, store, wake });
        }
        for &(idx, sh, td) in &decided.first_ready {
            self.rob[idx].ready_while_shadowed = Some(sh);
            self.rob[idx].ready_while_true_dep = Some(td);
            self.rob[idx].first_ready_cycle = Some(self.cycle);
        }
        for &(idx, _) in &decided.delayed {
            self.rob[idx].policy_delay_cycles += 1;
        }
        for action in decided.actions.drain(..) {
            let idx = match action {
                IssueAction::Simple { idx, latency, result, actual_next } => {
                    let e = &mut self.rob[idx];
                    e.result = result;
                    e.actual_next = actual_next;
                    self.begin_execution(idx, latency);
                    idx
                }
                IssueAction::Forward { idx, store_idx, addr } => {
                    let store_seq = self.rob[store_idx].seq;
                    let value = self.rob[store_idx].srcs[1]
                        .state
                        .value()
                        .expect("forwarding store has data");
                    let (extra_lev, extra_taint) = {
                        let s = &self.rob[store_idx];
                        (s.lev_deps, s.taint_roots)
                    };
                    let width_signed = match self.rob[idx].instr {
                        Instr::Load { width, signed, .. } => (width, signed),
                        _ => unreachable!(),
                    };
                    // Inherit the store's sets. Still-unresolved deps merge
                    // as mask bits; deps that already resolved may see
                    // their slot recycle before this load commits, so
                    // their wait-accounting contribution is folded into a
                    // scalar now (the store is still in flight, so every
                    // bit currently maps to its original owner).
                    let kept_lev = extra_lev.and(&self.slots.unresolved);
                    let stale_lev = extra_lev.and_not(&self.slots.unresolved);
                    let kept_taint = extra_taint.and(&self.slots.live_load);
                    let ready = self.rob[idx]
                        .first_ready_cycle
                        .expect("forwarding requires ready operands");
                    let mut stale_wait = 0u64;
                    for slot in stale_lev.iter() {
                        stale_wait =
                            stale_wait.max(self.slots.resolve_cycle_of(slot).saturating_sub(ready));
                    }
                    let e = &mut self.rob[idx];
                    // Narrowing semantics of an exact-width match: identical
                    // width, so the raw store value re-extends the same way
                    // a memory round-trip would.
                    let v = extend_like_load(value, width_signed.0, width_signed.1);
                    e.result = Some(v);
                    e.lev_deps.union_with(&kept_lev);
                    e.taint_roots.union_with(&kept_taint);
                    e.fwd_true_wait = e.fwd_true_wait.max(stale_wait);
                    e.mem_addr = Some(addr);
                    self.begin_execution(idx, 2);
                    if let Some(refs) = self.refsets.as_deref_mut() {
                        let e = &self.rob[idx];
                        refs.on_forward(e.seq, store_seq, e, &self.slots);
                    }
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.on_forward(self.cycle, &self.rob[idx], store_seq);
                    }
                    idx
                }
                IssueAction::Access { idx, addr, value, hit_only } => {
                    let latency = if hit_only {
                        match self.hierarchy.access_if_l1_hit(addr) {
                            Some(l) => l,
                            None => {
                                // The line phase A saw was evicted by an
                                // earlier fill applied this same cycle:
                                // behave as a policy delay and retry (the
                                // instruction stays dispatched and in the
                                // ready set).
                                self.rob[idx].policy_delay_cycles += 1;
                                if let Some(t) = self.tracer.as_deref_mut() {
                                    t.on_policy_block(
                                        self.cycle,
                                        &self.rob[idx],
                                        &Blame { rule: "core:l1-race-retry", blamed: None },
                                    );
                                }
                                continue;
                            }
                        }
                    } else {
                        self.hierarchy.access(addr, self.cycle)
                    };
                    let is_miss = latency > self.config.hierarchy.l1d.hit_latency;
                    if is_miss {
                        self.outstanding_misses += 1;
                    }
                    let e = &mut self.rob[idx];
                    e.result = Some(value);
                    e.mem_addr = Some(addr);
                    e.holds_mshr = is_miss;
                    // Invisible (hit-only) accesses change no cache state.
                    e.touched_cache = !hit_only;
                    self.begin_execution(idx, latency);
                    idx
                }
                IssueAction::Flush { idx, addr } => {
                    self.hierarchy.flush_line(addr);
                    let e = &mut self.rob[idx];
                    e.mem_addr = Some(addr);
                    e.touched_cache = true;
                    self.begin_execution(idx, 1);
                    idx
                }
                IssueAction::StoreAddr { idx, addr } => {
                    self.rob[idx].mem_addr = Some(addr);
                    let seq = self.rob[idx].seq;
                    let k = self
                        .store_queue
                        .binary_search_by_key(&seq, |s| s.at.seq)
                        .expect("in-flight stores are queued");
                    self.store_queue[k].addr = Some(addr);
                    self.begin_execution(idx, 1);
                    self.wake_parked(seq, WakeOn::Addr);
                    idx
                }
            };
            if let Some(t) = self.tracer.as_deref_mut() {
                t.on_issue(self.cycle, &self.rob[idx]);
            }
        }

        self.scratch = decided;
        active
    }

    /// The blame for the instruction at `idx`, which the policy gate
    /// `cause` held in the current state: the gate's rule, and the *oldest*
    /// member of its wait still holding it (the one that must see its
    /// release event first before the block can lift).
    fn blame_for(&self, policy: &dyn SpeculationPolicy, idx: usize, cause: DelayCause) -> Blame {
        let e = &self.rob[idx];
        let wait = match cause {
            DelayCause::Execute => policy.execute_wait(e),
            DelayCause::Transmit => policy.transmit_wait(e),
            DelayCause::LoadMiss => policy.hit_only_wait(e),
        }
        .expect("a gate that held declared a wait");
        let blocking = SpecView { slots: &self.slots }.blocking(&wait);
        let oldest = blocking.iter().min_by_key(|&slot| self.slots.seq_of(slot));
        let blamed = oldest.map(|slot| {
            let kind = if self.slots.live_load.contains(slot) {
                BlamedKind::Load
            } else if self.slots.indirect.contains(slot) {
                BlamedKind::Indirect
            } else {
                BlamedKind::Branch
            };
            BlamedSlot { kind, seq: self.slots.seq_of(slot), pc: self.slots.pc_of(slot) }
        });
        Blame { rule: wait.rule, blamed }
    }

    /// A full execution-unit budget for one cycle.
    fn issue_units(&self) -> IssueUnits {
        IssueUnits {
            alu: self.config.alu_count,
            mul: self.config.mul_count,
            div: self.config.div_count,
            ld_ports: self.config.load_ports,
            st_ports: self.config.store_ports,
            mshrs_free: self.config.mshr_count.saturating_sub(self.outstanding_misses),
            issued: 0,
        }
    }

    /// Phase A of issue: walks the ready set in age order up to the
    /// serializer barrier — the oldest in-flight serializer that has not
    /// completed — and then considers the barrier itself. A serializer
    /// issues only once every older instruction is done, and blocks every
    /// younger one until it completes.
    fn issue_scan(&self, policy: &dyn SpeculationPolicy, out: &mut IssueDecisions) {
        let mut units = self.issue_units();
        // Serializers issue in age order (each waits for every older
        // instruction), so the completed ones form a prefix of the queue.
        let barrier = self.serializers.iter().find_map(|&s| {
            let idx = self.live(s).expect("queued serializers are in flight");
            (self.rob[idx].stage != Stage::Done).then_some((s.seq, idx))
        });
        let limit = barrier.map_or(Seq::MAX, |(seq, _)| seq);
        for &r in &self.ready {
            if r.seq >= limit || units.issued >= self.config.issue_width {
                break;
            }
            let idx = self.live(r).expect("ready entries are live");
            debug_assert_eq!(self.rob[idx].stage, Stage::Dispatched);
            self.consider_issue(policy, idx, &mut units, out);
        }
        let Some((_, idx)) = barrier else { return };
        let e = &self.rob[idx];
        if e.stage == Stage::Dispatched
            && units.issued < self.config.issue_width
            && self.rob.iter().take(idx).all(|older| older.stage == Stage::Done)
        {
            let result = match e.instr {
                Instr::RdCycle { .. } => Some(self.cycle as i64),
                _ => None,
            };
            out.actions.push(IssueAction::Simple { idx, latency: 1, result, actual_next: None });
        }
    }

    /// Issue decision for the dispatched non-serializer instruction at
    /// `idx` (also driven by the reference oracle's full-ROB scan, so the
    /// two cannot diverge).
    fn consider_issue(
        &self,
        policy: &dyn SpeculationPolicy,
        idx: usize,
        units: &mut IssueUnits,
        out: &mut IssueDecisions,
    ) {
        let e = &self.rob[idx];
        let view = SpecView { slots: &self.slots };
        let holds = |wait: Option<Wait<'_>>| wait.is_some_and(|w| view.holds(&w));
        // Store address generation needs only the base operand.
        let is_store = e.instr.is_store();
        let base_ready = !is_store || e.srcs[0].state.value().is_some();
        if !(e.operands_ready() || (is_store && base_ready)) {
            return;
        }

        // Record first-readiness speculation flags (F1) once.
        if e.operands_ready() && e.ready_while_shadowed.is_none() {
            out.first_ready.push((
                idx,
                e.shadow.intersects(&self.slots.unresolved),
                e.lev_deps.intersects(&self.slots.unresolved),
            ));
        }

        // Universal execute gate.
        if holds(policy.execute_wait(e)) {
            out.delayed.push((idx, DelayCause::Execute));
            return;
        }

        match e.instr {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => {
                let (unit, latency) = match op {
                    levioso_isa::AluOp::Mul | levioso_isa::AluOp::Mulh => {
                        (&mut units.mul, self.config.mul_latency)
                    }
                    levioso_isa::AluOp::Div | levioso_isa::AluOp::Rem => {
                        (&mut units.div, self.config.div_latency)
                    }
                    _ => (&mut units.alu, 1),
                };
                if *unit == 0 {
                    return;
                }
                *unit -= 1;
                let a = e.src_value(0);
                let b = match e.instr {
                    Instr::Alu { .. } => e.src_value(1),
                    Instr::AluImm { imm, .. } => imm,
                    _ => unreachable!(),
                };
                out.actions.push(IssueAction::Simple {
                    idx,
                    latency,
                    result: Some(op.eval(a, b)),
                    actual_next: None,
                });
                units.issued += 1;
            }
            Instr::Branch { cond, target, .. } => {
                if units.alu == 0 {
                    return;
                }
                units.alu -= 1;
                let taken = cond.eval(e.src_value(0), e.src_value(1));
                let actual = if taken { target } else { e.pc + 1 };
                out.actions.push(IssueAction::Simple {
                    idx,
                    latency: 1,
                    result: Some(i64::from(taken)),
                    actual_next: Some(actual),
                });
                units.issued += 1;
            }
            Instr::Jal { .. } => {
                if units.alu == 0 {
                    return;
                }
                units.alu -= 1;
                out.actions.push(IssueAction::Simple {
                    idx,
                    latency: 1,
                    result: Some((e.pc + 1) as i64),
                    actual_next: None, // direct: never mispredicts
                });
                units.issued += 1;
            }
            Instr::Jalr { offset, .. } => {
                if units.alu == 0 {
                    return;
                }
                units.alu -= 1;
                let target = (e.src_value(0).wrapping_add(offset)) as u64 as u32;
                out.actions.push(IssueAction::Simple {
                    idx,
                    latency: 1,
                    result: Some((e.pc + 1) as i64),
                    actual_next: Some(target),
                });
                units.issued += 1;
            }
            Instr::Nop | Instr::Halt => {
                out.actions.push(IssueAction::Simple {
                    idx,
                    latency: 1,
                    result: None,
                    actual_next: None,
                });
                units.issued += 1;
            }
            Instr::Fence | Instr::RdCycle { .. } => unreachable!("serializers handled by caller"),
            Instr::Flush { offset, .. } => {
                if units.ld_ports == 0 {
                    return;
                }
                if holds(policy.transmit_wait(e)) {
                    out.delayed.push((idx, DelayCause::Transmit));
                    return;
                }
                units.ld_ports -= 1;
                let addr = (e.src_value(0) as u64).wrapping_add(offset as u64);
                out.actions.push(IssueAction::Flush { idx, addr });
                units.issued += 1;
            }
            Instr::Load { width, signed, offset, .. } => {
                if units.ld_ports == 0 {
                    return;
                }
                let addr = (e.src_value(0) as u64).wrapping_add(offset as u64);
                // Memory ordering against older stores.
                match self.lsq_check(idx, addr, width) {
                    LsqVerdict::Blocked { store, wake } => out.parked.push((idx, store, wake)),
                    LsqVerdict::Forward(store_idx) => {
                        if holds(policy.transmit_wait(e)) {
                            out.delayed.push((idx, DelayCause::Transmit));
                            return;
                        }
                        units.ld_ports -= 1;
                        out.actions.push(IssueAction::Forward { idx, store_idx, addr });
                        units.issued += 1;
                    }
                    LsqVerdict::Memory => {
                        if holds(policy.transmit_wait(e)) {
                            out.delayed.push((idx, DelayCause::Transmit));
                            return;
                        }
                        let hit_only = holds(policy.hit_only_wait(e));
                        let is_l1_hit = self.hierarchy.l1d.contains(addr);
                        if hit_only && !is_l1_hit {
                            // Delay-on-Miss: must wait instead of filling
                            // speculatively.
                            out.delayed.push((idx, DelayCause::LoadMiss));
                            return;
                        }
                        if !is_l1_hit {
                            // A demand miss needs an MSHR.
                            if units.mshrs_free == 0 {
                                return; // structural stall
                            }
                            units.mshrs_free -= 1;
                        }
                        units.ld_ports -= 1;
                        let value = read_memory(&self.mem, addr, width, signed);
                        out.actions.push(IssueAction::Access { idx, addr, value, hit_only });
                        units.issued += 1;
                    }
                }
            }
            Instr::Store { .. } => {
                if e.mem_addr.is_some() {
                    return; // address already generated
                }
                if units.st_ports == 0 {
                    return;
                }
                units.st_ports -= 1;
                let offset = match e.instr {
                    Instr::Store { offset, .. } => offset,
                    _ => unreachable!(),
                };
                let base = e.srcs[0].state.value().expect("base checked ready");
                let addr = (base as u64).wrapping_add(offset as u64);
                out.actions.push(IssueAction::StoreAddr { idx, addr });
                units.issued += 1;
            }
        }
    }

    /// Memory-ordering verdict for a load at ROB index `idx`.
    fn lsq_check(&self, idx: usize, addr: u64, width: MemWidth) -> LsqVerdict {
        let verdict = self.store_queue_verdict(self.rob[idx].seq, addr, width);
        if let Some(refs) = &self.refsets {
            refs.check_lsq(&self.rob, idx, addr, width, verdict);
        }
        verdict
    }

    /// Memory-ordering verdict for the load `seq` from the stores older
    /// than it, oldest first.
    fn store_queue_verdict(&self, seq: Seq, addr: u64, width: MemWidth) -> LsqVerdict {
        let bytes = width.bytes();
        let hi = addr.wrapping_add(bytes);
        let mut forward: Option<RobRef> = None;
        for s in self.store_queue.iter().take_while(|s| s.at.seq < seq) {
            let Some(sa) = s.addr else {
                // Unknown older store address.
                return LsqVerdict::Blocked { store: s.at.seq, wake: WakeOn::Addr };
            };
            let overlap = sa < hi && addr < sa.wrapping_add(s.bytes);
            if !overlap {
                continue;
            }
            if sa == addr && s.bytes == bytes {
                forward = Some(s.at); // youngest exact match wins
            } else {
                // Partial overlap: wait for the store to drain at commit.
                return LsqVerdict::Blocked { store: s.at.seq, wake: WakeOn::Commit };
            }
        }
        match forward {
            Some(at) => {
                let j = self.live(at).expect("queued stores are in flight");
                if self.rob[j].srcs[1].state.value().is_some() {
                    LsqVerdict::Forward(j)
                } else {
                    // Data not yet available.
                    LsqVerdict::Blocked { store: at.seq, wake: WakeOn::Data }
                }
            }
            None => LsqVerdict::Memory,
        }
    }

    /// Moves the dispatched instruction at `idx` into execution, to
    /// complete `latency` cycles from now.
    fn begin_execution(&mut self, idx: usize, latency: u64) {
        let r = self.rob_ref(idx);
        let e = &mut self.rob[idx];
        e.stage = Stage::Executing;
        e.done_cycle = self.cycle + latency;
        self.iq_count -= 1;
        self.ready.remove(&r);
        self.completions.push(Reverse((e.done_cycle, r)));
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------

    /// Renames up to `dispatch_width` fetched instructions into the ROB;
    /// returns whether any was dispatched.
    fn dispatch(&mut self) -> bool {
        let before = self.stats.dispatched;
        for _ in 0..self.config.dispatch_width {
            let Some(f) = self.fetch_queue.front() else { break };
            if self.rob.len() >= self.config.rob_size || self.iq_count >= self.config.iq_size {
                break;
            }
            if f.instr.is_load() && self.lq_count >= self.config.lq_size {
                break;
            }
            if f.instr.is_store() && self.store_queue.len() >= self.config.sq_size {
                break;
            }
            let f = self.fetch_queue.pop_front().expect("checked non-empty");
            let seq = self.next_seq;
            self.next_seq += 1;
            let idx = self.rob.len();
            let me = RobRef { seq, pos: self.head_pos + idx as u64 };
            self.stats.dispatched += 1;
            let rob_front_seq = self.rob.front().map(|e| e.seq);

            // The entry is renamed where it lives: producers are older, so
            // they stay readable at their own indices.
            let e = self.rob.push_back_mut(DynInstr::new(seq, f.pc, f.instr));
            e.predicted_next = f.predicted_next;
            e.history_at_predict = f.history;
            e.checkpoint = f.checkpoint;
            e.fetch_stalled = f.stalls_fetch;

            // Conservative shadow: every unresolved older control instr.
            e.shadow = self.slots.unresolved;
            let unresolved = &self.slots.unresolved;
            let any_unresolved = !unresolved.is_empty();

            // Annotation instances: unresolved dynamic instances of the
            // statically annotated branches, plus every unresolved indirect
            // jump (hardware barrier rule).
            let ann = self.program.annotations.as_ref().map(|a| a.deps_of(f.pc as usize));
            let ann_deps = match ann {
                Some(DepSet::Exact(_)) if !any_unresolved => SpecMask::EMPTY,
                Some(DepSet::Exact(static_deps)) => {
                    let mut m = unresolved.and(&self.slots.indirect);
                    for b in unresolved.and_not(&self.slots.indirect).iter() {
                        if static_deps.binary_search(&self.slots.pc_of(b)).is_ok() {
                            m.set(b);
                        }
                    }
                    m
                }
                Some(DepSet::AllOlder) | None => *unresolved,
            };

            // Rename sources; inherit Levioso deps + STT taint through the
            // register dataflow. (Taint inheritance keeps only live-load
            // roots: a dead root can never become active again, so the
            // policy verdicts are unchanged and slot bits never outlive
            // their reclamation barrier.)
            let mut lev_deps = ann_deps;
            let mut taint_roots = SpecMask::EMPTY;
            let mut inherit: [Option<Seq>; 2] = [None, None];
            for (oi, reg) in f.instr.sources().enumerate() {
                let state = if reg.is_zero() {
                    OpState::Ready(0)
                } else {
                    match self.rat[reg.index()] {
                        RatEntry::Value(v) => OpState::Ready(v),
                        RatEntry::Producer(p) => {
                            if let Some(pidx) = self.live(p) {
                                let prod = &self.rob[pidx];
                                inherit[oi] = Some(p.seq);
                                if any_unresolved {
                                    lev_deps.union_masked(&prod.lev_deps, &self.slots.unresolved);
                                }
                                taint_roots.union_masked(&prod.taint_roots, &self.slots.live_load);
                                if prod.instr.is_load() {
                                    taint_roots.set(prod.slot.expect("loads own a slot"));
                                }
                                match (prod.stage, prod.result) {
                                    (Stage::Done, Some(v)) => OpState::Ready(v),
                                    _ => {
                                        // Link into the producer's wakeup chain.
                                        self.rob[idx].wake_next[oi] = prod.wake_head;
                                        self.rob[pidx].wake_head = Some((me, oi as u8));
                                        OpState::Waiting(p)
                                    }
                                }
                            } else {
                                // Producer left the ROB: its value is
                                // architectural.
                                OpState::Ready(self.arch_regs[reg.index()])
                            }
                        }
                    }
                };
                self.rob[idx].srcs.push(Operand { reg, state });
            }

            if let Some(rd) = f.instr.dest() {
                self.rat[rd.index()] = RatEntry::Producer(me);
            }
            let e = &mut self.rob[idx];
            e.ann_deps = ann_deps;
            e.lev_deps = lev_deps;
            e.taint_roots = taint_roots;
            if e.is_spec_source() {
                e.slot =
                    Some(self.slots.alloc_ctrl(seq, f.pc, f.instr.is_indirect(), rob_front_seq));
            } else if f.instr.is_load() {
                e.slot = Some(self.slots.alloc_load(seq, f.pc, e.shadow, rob_front_seq));
            }
            if e.is_serializer() {
                self.serializers.push_back(me);
            }
            if f.instr.is_load() {
                self.lq_count += 1;
            }
            if let Instr::Store { width, .. } = f.instr {
                self.store_queue.push_back(SqEntry { at: me, bytes: width.bytes(), addr: None });
            }
            self.iq_count += 1;

            // Initial issue eligibility.
            let eligible =
                e.operands_ready() || (e.instr.is_store() && e.srcs[0].state.value().is_some());
            if eligible {
                self.ready.insert(me);
            }

            let e = &self.rob[idx];
            if let Some(refs) = self.refsets.as_deref_mut() {
                refs.on_dispatch(e, ann, &inherit, &self.slots);
            }
            if let Some(t) = self.tracer.as_deref_mut() {
                t.on_dispatch(self.cycle, e);
            }
        }
        self.stats.dispatched != before
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Applies a due redirect and fetches up to `fetch_width`
    /// instructions; returns whether either happened.
    fn fetch(&mut self) -> bool {
        let mut redirected = false;
        if let Some((ready_at, pc)) = self.redirect {
            if self.cycle >= ready_at {
                self.fetch_pc = pc;
                self.redirect = None;
                redirected = true;
            } else {
                return false;
            }
        }
        if self.fetch_stalled {
            return redirected;
        }
        let before = self.stats.fetched;
        let cap = self.config.fetch_width * 2;
        for _ in 0..self.config.fetch_width {
            if self.fetch_queue.len() >= cap {
                break;
            }
            let pc = self.fetch_pc;
            let Some(&instr) = self.program.instrs.get(pc as usize) else { break };
            let mut fetched = Fetched {
                pc,
                instr,
                predicted_next: pc + 1,
                history: 0,
                checkpoint: None,
                stalls_fetch: false,
            };
            match instr {
                Instr::Branch { target, .. } => {
                    fetched.history = self.predictor.history();
                    fetched.checkpoint = Some(self.predictor.checkpoint());
                    let taken = self.predictor.predict_branch(pc);
                    fetched.predicted_next = if taken { target } else { pc + 1 };
                }
                Instr::Jal { rd, target } => {
                    if !rd.is_zero() {
                        self.predictor.push_return(pc + 1);
                    }
                    fetched.predicted_next = target;
                }
                Instr::Jalr { rd, base, offset } => {
                    fetched.history = self.predictor.history();
                    fetched.checkpoint = Some(self.predictor.checkpoint());
                    let is_ret = rd.is_zero() && base == levioso_isa::reg::RA && offset == 0;
                    let prediction = if is_ret {
                        self.predictor.pop_return()
                    } else {
                        self.predictor.predict_indirect(pc)
                    };
                    match prediction {
                        Some(t) => fetched.predicted_next = t,
                        None => {
                            fetched.predicted_next = u32::MAX;
                            fetched.stalls_fetch = true;
                        }
                    }
                }
                _ => {}
            }
            self.stats.fetched += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.on_fetch(self.cycle, pc, &instr);
            }
            let next = fetched.predicted_next;
            let stall = fetched.stalls_fetch;
            self.fetch_queue.push_back(fetched);
            if stall {
                self.fetch_stalled = true;
                break;
            }
            self.fetch_pc = next;
        }
        redirected || self.stats.fetched != before
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LsqVerdict {
    /// Must wait for `store` to reach `wake`: the first older store with
    /// an unknown address (until it is generated), the first older store
    /// that partially overlaps (until it commits), or the youngest exact
    /// match whose data is pending (until its data is written back).
    Blocked { store: Seq, wake: WakeOn },
    /// Forward from the store at this ROB index.
    Forward(usize),
    /// Safe to read from the memory system.
    Memory,
}

/// Re-extends a raw store value the way a load of the same width would.
fn extend_like_load(value: i64, width: levioso_isa::MemWidth, signed: bool) -> i64 {
    use levioso_isa::MemWidth::*;
    let bits = match width {
        B => 8,
        H => 16,
        W => 32,
        D => 64,
    };
    if bits == 64 {
        value
    } else if signed {
        (value << (64 - bits)) >> (64 - bits)
    } else {
        value & ((1i64 << bits) - 1)
    }
}
