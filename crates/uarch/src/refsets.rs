//! Differential-checking oracle: the implementations the core's fast
//! paths replaced, run side-by-side with them.
//!
//! Enabled by [`crate::Simulator::enable_reference_checking`] (tests only;
//! the hooks are no-ops when disabled). Seven comparisons:
//!
//! * every positioned ROB lookup ([`crate::RobRef`]) against a binary
//!   search of the ROB by sequence number;
//! * every issue cycle's ready-bitmap walk against a full-ROB scan for the
//!   issue candidates: the same positions in the same order;
//! * every store-queue memory-ordering verdict against the full walk of
//!   the older ROB entries;
//! * every issue cycle with a serializer in flight against the full-ROB
//!   scan the serializer barrier replaced;
//! * every cycle the quiet-cycle jump would skip, stepped instead: it must
//!   be quiet and delay the instructions the quiet cycle before it did;
//! * every parked load, re-decided every cycle as the per-cycle scan did:
//!   it must stay blocked on the same store, with no policy delay;
//! * the speculation-tracking sets against the original
//!   `Vec<Seq>`/`BTreeMap` implementation, below.
//!
//! At every dispatch, store-to-load forward, and commit the oracle
//! recomputes what the scan-based set implementation would have produced
//! and asserts the [`crate::specmask`] bitmask path agrees:
//!
//! * `shadow` and `ann_deps` must match the reference **exactly**;
//! * `lev_deps` may drop dependencies that had already *resolved* at a
//!   store-forwarding merge (their wait contribution moves to the
//!   `fwd_true_wait` scalar), so the mask set must be a subset of the
//!   reference with every dropped element resolved, and must agree exactly
//!   on the still-unresolved part — the part every wait on it reads;
//! * `taint_roots` may drop roots that are no longer live loads (a dead
//!   root is permanently inactive), so the mask set must be a subset with
//!   every dropped element dead, and the STT activity *verdict* must agree;
//! * at commit, the F1 wait statistics (`shadow`/`true` wait cycles)
//!   computed from per-slot resolve cycles must equal the reference values
//!   computed from the unbounded seq-keyed map.

use crate::core::{
    DelayCause, IssueAction, IssueDecisions, IssueUnits, LsqVerdict, Parked, WakeOn,
};
use crate::dyninstr::{DynInstr, Seq, Stage};
use crate::policy::SpecView;
use crate::rob::Rob;
use crate::specmask::SlotTable;
use levioso_isa::{DepSet, Instr, MemWidth};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

/// How many comparisons the reference oracle made, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferenceChecks {
    /// Speculation-set equivalence events (dispatch, forward, commit).
    pub sets: u64,
    /// Positioned ROB lookups checked against a binary search.
    pub lookups: u64,
    /// Issue cycles whose ready-bitmap walk was checked against a
    /// full-ROB scan.
    pub ready_walks: u64,
    /// Store-queue verdicts checked against the full walk of older ROB
    /// entries.
    pub lsq_verdicts: u64,
    /// Issue cycles with a serializer in flight checked against the
    /// full-ROB scan.
    pub serialized_cycles: u64,
    /// Cycles the quiet-cycle jump would have skipped, stepped and
    /// checked quiet.
    pub quiet_cycles: u64,
    /// Per-cycle re-decisions of parked loads checked still blocked.
    pub parked_loads: u64,
}

impl std::ops::AddAssign for ReferenceChecks {
    fn add_assign(&mut self, o: ReferenceChecks) {
        self.sets += o.sets;
        self.lookups += o.lookups;
        self.ready_walks += o.ready_walks;
        self.lsq_verdicts += o.lsq_verdicts;
        self.serialized_cycles += o.serialized_cycles;
        self.quiet_cycles += o.quiet_cycles;
        self.parked_loads += o.parked_loads;
    }
}

/// Reference (old-implementation) per-instruction sets.
#[derive(Debug, Clone)]
struct RefInstr {
    shadow: Vec<Seq>,
    lev_deps: Vec<Seq>,
    taint_roots: Vec<Seq>,
    is_load: bool,
    done: bool,
}

/// The oracle state: exactly the maps the scan-based simulator kept.
#[derive(Debug, Default)]
pub(crate) struct RefSets {
    /// Unresolved control instructions: seq → (pc, is_indirect).
    unresolved: BTreeMap<Seq, (u32, bool)>,
    /// Resolution cycles, never pruned (the unbounded map the slot table
    /// replaces — fine for an oracle that only lives in tests).
    resolve_cycle: HashMap<Seq, u64>,
    /// Reference sets for every in-flight instruction.
    instrs: BTreeMap<Seq, RefInstr>,
    /// Number of set-equivalence assertions evaluated.
    events_checked: u64,
    /// Comparisons made from the core's read-only paths, hence `Cell`s.
    lookups: Cell<u64>,
    ready_walks: Cell<u64>,
    lsq_verdicts: Cell<u64>,
    serialized_cycles: Cell<u64>,
    parked_loads: Cell<u64>,
    /// The cycles the jump would skip next, `[.., until)`, and the delays
    /// the quiet cycle before them made.
    quiet_until: u64,
    quiet_delayed: Vec<(u64, DelayCause)>,
    quiet_cycles: u64,
}

/// Merges sorted `extra` into sorted `dst`, deduplicating (the old
/// implementation's set-union primitive).
fn merge_sorted(dst: &mut Vec<Seq>, extra: &[Seq]) {
    if extra.is_empty() {
        return;
    }
    dst.extend_from_slice(extra);
    dst.sort_unstable();
    dst.dedup();
}

impl RefSets {
    pub(crate) fn new() -> Self {
        RefSets::default()
    }

    /// The comparison counts so far.
    pub(crate) fn checks(&self) -> ReferenceChecks {
        ReferenceChecks {
            sets: self.events_checked,
            lookups: self.lookups.get(),
            ready_walks: self.ready_walks.get(),
            lsq_verdicts: self.lsq_verdicts.get(),
            serialized_cycles: self.serialized_cycles.get(),
            quiet_cycles: self.quiet_cycles,
            parked_loads: self.parked_loads.get(),
        }
    }

    /// Checks a positioned lookup of `seq`, which found ROB position
    /// `found`, against a binary search (sequence numbers ascend in the
    /// ROB).
    pub(crate) fn check_lookup(&self, rob: &Rob, seq: Seq, found: Option<u64>) {
        let (older, younger) = rob.as_slices();
        let search = |entries: &[DynInstr]| entries.binary_search_by(|e| e.seq.cmp(&seq)).ok();
        let searched = search(older)
            .or_else(|| search(younger).map(|k| older.len() + k))
            .map(|k| rob.head() + k as u64);
        assert_eq!(
            found, searched,
            "positioned lookup of seq={seq} diverged from the binary search"
        );
        self.lookups.set(self.lookups.get() + 1);
    }

    /// Checks the store queue's verdict for the load at position `pos`
    /// against the walk of every older ROB entry.
    pub(crate) fn check_lsq(
        &self,
        rob: &Rob,
        pos: u64,
        addr: u64,
        width: MemWidth,
        verdict: LsqVerdict,
    ) {
        let scanned = lsq_scan(rob, pos, addr, width);
        assert_eq!(
            verdict, scanned,
            "store-queue verdict for load seq={} at {addr:#x} diverged from the ROB scan",
            rob[pos].seq
        );
        self.lsq_verdicts.set(self.lsq_verdicts.get() + 1);
    }

    /// Checks the ready-bitmap walk against a scan of every ROB entry for
    /// the issue candidates: dispatched, operand-ready (stores: base ready
    /// and no address yet) and not parked. Both must give the same
    /// positions in the same order.
    pub(crate) fn check_ready_walk(&self, cycle: u64, rob: &Rob, parked: &[Parked]) {
        let walked: Vec<u64> = rob.ready().collect();
        let scanned: Vec<u64> = rob
            .iter()
            .filter(|(_, e)| {
                e.stage == Stage::Dispatched
                    && (e.operands_ready()
                        || (e.instr.is_store()
                            && e.srcs[0].state.value().is_some()
                            && e.mem_addr.is_none()))
                    && !parked.iter().any(|p| p.load.seq == e.seq)
            })
            .map(|(pos, _)| pos)
            .collect();
        assert_eq!(
            walked, scanned,
            "cycle {cycle}: the ready-bitmap walk diverged from the ROB scan"
        );
        self.ready_walks.set(self.ready_walks.get() + 1);
    }

    /// Checks one cycle's issue decisions — actions, first-readiness
    /// records and policy delays, in order — against the full-ROB scan's.
    pub(crate) fn check_serialized_issue(
        &self,
        cycle: u64,
        barrier: &IssueDecisions,
        scan: &IssueDecisions,
    ) {
        assert_eq!(barrier, scan, "cycle {cycle}: serializer-barrier issue diverged from the scan");
        self.serialized_cycles.set(self.serialized_cycles.get() + 1);
    }

    /// Checks a parked load's re-decision, made with a full issue budget:
    /// still blocked on the same store for the same event, with no action,
    /// first-readiness record or policy delay.
    pub(crate) fn check_parked(
        &self,
        cycle: u64,
        pos: u64,
        parked: &Parked,
        redecided: &IssueDecisions,
    ) {
        let expected = IssueDecisions {
            parked: vec![(pos, parked.store, parked.wake)],
            ..IssueDecisions::default()
        };
        assert_eq!(
            redecided, &expected,
            "cycle {cycle}: load seq={} parked on store seq={} ({:?}) is no longer blocked on it",
            parked.load.seq, parked.store, parked.wake
        );
        self.parked_loads.set(self.parked_loads.get() + 1);
    }

    /// Called at the end of every cycle with whether anything happened in
    /// it and the delays it made: a cycle the jump would have skipped must
    /// repeat the quiet cycle before it.
    pub(crate) fn check_skippable_cycle(
        &mut self,
        cycle: u64,
        active: bool,
        delayed: &[(u64, DelayCause)],
    ) {
        if cycle >= self.quiet_until {
            return;
        }
        assert!(
            !active,
            "cycle {cycle}: the quiet-cycle jump would skip a cycle in which something happens"
        );
        assert_eq!(
            delayed, self.quiet_delayed,
            "cycle {cycle}: a skipped cycle would delay other instructions than the quiet one"
        );
        self.quiet_cycles += 1;
    }

    /// Called after a quiet cycle instead of the jump to `until`, with the
    /// delays the quiet cycle made.
    pub(crate) fn expect_quiet_until(&mut self, until: u64, delayed: &[(u64, DelayCause)]) {
        self.quiet_until = until;
        self.quiet_delayed.clear();
        self.quiet_delayed.extend_from_slice(delayed);
    }

    /// Old STT root-activity predicate: a root is active while it is still
    /// in flight and either has not executed or is itself shadowed by an
    /// unresolved control instruction.
    fn taint_active(&self, root: Seq) -> bool {
        match self.instrs.get(&root) {
            Some(i) => !i.done || i.shadow.iter().any(|s| self.unresolved.contains_key(s)),
            None => false,
        }
    }

    fn assert_taint_equivalent(
        &self,
        what: &str,
        e: &DynInstr,
        ref_taint: &[Seq],
        slots: &SlotTable,
    ) {
        let mask_taint = slots.mask_seqs(&e.taint_roots);
        for s in &mask_taint {
            assert!(
                ref_taint.contains(s),
                "{what} seq={}: mask taint root {s} missing from reference {ref_taint:?}",
                e.seq
            );
        }
        for s in ref_taint {
            if !mask_taint.contains(s) {
                let live_load = self.instrs.get(s).is_some_and(|i| i.is_load);
                assert!(
                    !live_load,
                    "{what} seq={}: mask dropped taint root {s} which is still a live load",
                    e.seq
                );
            }
        }
        let ref_active = ref_taint.iter().any(|&r| self.taint_active(r));
        let mask_active = SpecView { slots }.taint_active(&e.taint_roots);
        assert_eq!(
            ref_active, mask_active,
            "{what} seq={}: STT activity verdict diverged (ref {ref_taint:?}, mask {mask_taint:?})",
            e.seq
        );
    }

    fn assert_lev_equivalent(&self, what: &str, e: &DynInstr, ref_lev: &[Seq], slots: &SlotTable) {
        let mask_lev = slots.mask_seqs(&e.lev_deps);
        for s in &mask_lev {
            assert!(
                ref_lev.contains(s),
                "{what} seq={}: mask lev dep {s} missing from reference {ref_lev:?}",
                e.seq
            );
        }
        for s in ref_lev {
            let unresolved = self.unresolved.contains_key(s);
            if mask_lev.contains(s) {
                continue;
            }
            assert!(
                !unresolved,
                "{what} seq={}: mask dropped lev dep {s} which is still unresolved",
                e.seq
            );
            assert!(
                self.resolve_cycle.contains_key(s) || !self.instrs.contains_key(s),
                "{what} seq={}: dropped lev dep {s} neither resolved nor retired",
                e.seq
            );
        }
        // The policy-visible (unresolved) part must match exactly.
        let ref_hot: Vec<Seq> =
            ref_lev.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
        let mask_hot: Vec<Seq> =
            mask_lev.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
        assert_eq!(ref_hot, mask_hot, "{what} seq={}: unresolved lev deps diverged", e.seq);
    }

    /// Called after an instruction is renamed (its sets are final for
    /// dispatch). `ann` is the program's static annotation for this pc and
    /// `inherit` the producers each operand renamed through.
    pub(crate) fn on_dispatch(
        &mut self,
        e: &DynInstr,
        ann: Option<&DepSet>,
        inherit: &[Option<Seq>; 2],
        slots: &SlotTable,
    ) {
        // Recompute the sets the way the old implementation did.
        let shadow: Vec<Seq> = self.unresolved.keys().copied().collect();
        let ann_deps: Vec<Seq> = match ann {
            Some(DepSet::Exact(static_deps)) => self
                .unresolved
                .iter()
                .filter(|(_, &(pc, indirect))| indirect || static_deps.binary_search(&pc).is_ok())
                .map(|(&s, _)| s)
                .collect(),
            Some(DepSet::AllOlder) | None => shadow.clone(),
        };
        let mut lev_deps = ann_deps.clone();
        let mut taint_roots: Vec<Seq> = Vec::new();
        for p in inherit.iter().flatten() {
            let prod = self.instrs.get(p).expect("renamed producer is in flight");
            let lev: Vec<Seq> =
                prod.lev_deps.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
            let prod_taint = prod.taint_roots.clone();
            let prod_is_load = prod.is_load;
            merge_sorted(&mut lev_deps, &lev);
            merge_sorted(&mut taint_roots, &prod_taint);
            if prod_is_load {
                merge_sorted(&mut taint_roots, &[*p]);
            }
        }

        assert_eq!(shadow, slots.mask_seqs(&e.shadow), "dispatch seq={}: shadow diverged", e.seq);
        assert_eq!(
            ann_deps,
            slots.mask_seqs(&e.ann_deps),
            "dispatch seq={}: ann_deps diverged",
            e.seq
        );
        // At rename both paths filter inherited deps by unresolved-ness, so
        // the full sets still agree exactly (divergence only begins at
        // store-forwarding merges).
        self.assert_lev_equivalent("dispatch", e, &lev_deps, slots);
        assert_eq!(
            lev_deps,
            slots.mask_seqs(&e.lev_deps),
            "dispatch seq={}: lev_deps diverged",
            e.seq
        );
        self.assert_taint_equivalent("dispatch", e, &taint_roots, slots);
        self.events_checked += 1;

        self.instrs.insert(
            e.seq,
            RefInstr { shadow, lev_deps, taint_roots, is_load: e.instr.is_load(), done: false },
        );
        if e.is_spec_source() {
            self.unresolved.insert(e.seq, (e.pc, e.instr.is_indirect()));
        }
    }

    /// Called after a store-to-load forward merged the store's sets into
    /// the load's.
    pub(crate) fn on_forward(
        &mut self,
        load_seq: Seq,
        store_seq: Seq,
        e: &DynInstr,
        slots: &SlotTable,
    ) {
        let (s_lev, s_taint) = {
            let s = self.instrs.get(&store_seq).expect("forwarding store is in flight");
            (s.lev_deps.clone(), s.taint_roots.clone())
        };
        let (ref_lev, ref_taint) = {
            let l = self.instrs.get_mut(&load_seq).expect("forwarded load is in flight");
            merge_sorted(&mut l.lev_deps, &s_lev);
            merge_sorted(&mut l.taint_roots, &s_taint);
            (l.lev_deps.clone(), l.taint_roots.clone())
        };
        self.assert_lev_equivalent("forward", e, &ref_lev, slots);
        self.assert_taint_equivalent("forward", e, &ref_taint, slots);
        self.events_checked += 1;
    }

    /// Called when a control instruction resolves.
    pub(crate) fn on_resolve(&mut self, seq: Seq, cycle: u64) {
        self.unresolved.remove(&seq);
        self.resolve_cycle.insert(seq, cycle);
    }

    /// Called when a load finishes executing.
    pub(crate) fn on_load_done(&mut self, seq: Seq) {
        if let Some(i) = self.instrs.get_mut(&seq) {
            i.done = true;
        }
    }

    /// Called after the core squashed everything younger than `seq`.
    pub(crate) fn on_squash_younger(&mut self, seq: Seq) {
        let _ = self.instrs.split_off(&(seq + 1));
        let _ = self.unresolved.split_off(&(seq + 1));
    }

    /// Called at commit, with the slot-table F1 wait statistics the core
    /// computed (`None` when the instruction never became operand-ready).
    pub(crate) fn on_commit(&mut self, e: &DynInstr, waits: Option<(u64, u64)>) {
        if let Some((sw, tw)) = waits {
            let ready = e.first_ready_cycle.expect("waits imply readiness");
            let i = self.instrs.get(&e.seq).expect("committing instruction is tracked");
            let wait = |deps: &[Seq]| {
                deps.iter()
                    .filter_map(|s| self.resolve_cycle.get(s))
                    .map(|&r| r.saturating_sub(ready))
                    .max()
                    .unwrap_or(0)
            };
            let ref_sw = wait(&i.shadow);
            let ref_tw = wait(&i.lev_deps);
            assert_eq!(ref_sw, sw, "commit seq={}: shadow wait cycles diverged", e.seq);
            assert_eq!(
                ref_tw, tw,
                "commit seq={}: true wait cycles diverged (fwd_true_wait={})",
                e.seq, e.fwd_true_wait
            );
            self.events_checked += 1;
        }
        self.instrs.remove(&e.seq);
    }
}

/// The memory-ordering check the store queue replaced: walks every ROB
/// entry older than the load at position `pos`, oldest first. The first
/// older store with an unknown address blocks the load until its address
/// is generated, the first partial overlap until it commits; the youngest
/// exact match forwards once its data is ready.
fn lsq_scan(rob: &Rob, pos: u64, addr: u64, width: MemWidth) -> LsqVerdict {
    let lo = addr;
    let hi = addr.wrapping_add(width.bytes());
    let mut forward: Option<u64> = None;
    for (j, s) in rob.iter().take_while(|&(j, _)| j < pos) {
        let Instr::Store { width: sw, .. } = s.instr else { continue };
        let Some(sa) = s.mem_addr else {
            return LsqVerdict::Blocked { store: s.seq, wake: WakeOn::Addr };
        };
        let s_hi = sa.wrapping_add(sw.bytes());
        let overlap = sa < hi && lo < s_hi;
        if !overlap {
            continue;
        }
        if sa == addr && sw.bytes() == width.bytes() {
            forward = Some(j);
        } else {
            return LsqVerdict::Blocked { store: s.seq, wake: WakeOn::Commit };
        }
    }
    match forward {
        Some(j) if rob[j].srcs[1].state.value().is_some() => LsqVerdict::Forward(j),
        Some(j) => LsqVerdict::Blocked { store: rob[j].seq, wake: WakeOn::Data },
        None => LsqVerdict::Memory,
    }
}

/// The issue scan the serializer barrier replaced: walks every ROB entry
/// in age order. A serializer issues only once all older instructions are
/// done, and blocks all younger ones until it completes; every other
/// dispatched instruction goes to `consider` (the core's issue decision)
/// while issue width remains.
pub(crate) fn serialized_scan(
    rob: &Rob,
    cycle: u64,
    issue_width: usize,
    units: &mut IssueUnits,
    out: &mut IssueDecisions,
    consider: &mut dyn FnMut(u64, &mut IssueUnits, &mut IssueDecisions),
) {
    let mut all_older_done = true;
    let mut serializer_block = false;
    for (pos, e) in rob.iter() {
        if e.stage != Stage::Dispatched {
            if e.stage != Stage::Done {
                all_older_done = false;
                if e.is_serializer() {
                    serializer_block = true;
                }
            }
            continue;
        }
        let older_done = all_older_done;
        all_older_done = false;
        if e.is_serializer() {
            if older_done && !serializer_block && units.issued < issue_width {
                let result = match e.instr {
                    Instr::RdCycle { .. } => Some(cycle as i64),
                    _ => None,
                };
                out.actions.push(IssueAction::Simple {
                    pos,
                    latency: 1,
                    result,
                    actual_next: None,
                });
                units.issued += 1;
            }
            serializer_block = true;
            continue;
        }
        if serializer_block || units.issued >= issue_width {
            continue;
        }
        consider(pos, units, out);
    }
}
