//! Compact bitmask speculation sets over in-flight instruction *slots*.
//!
//! The three per-instruction dependency sets every policy consults
//! (`shadow`, `lev_deps`, `taint_roots` — see [`crate::dyninstr::DynInstr`])
//! are sets *over the in-flight control instructions and loads*, never over
//! arbitrary sequence numbers. [`SpecMask`] represents such a set as a
//! fixed-width bitmask over **slots** handed out by [`SlotTable`]: every
//! control instruction (branch / indirect jump) and every load receives a
//! slot at dispatch and releases it when it leaves the ROB. Set union is a
//! word-wise OR, and the policy predicates (`any_unresolved`,
//! `any_uncommitted`, `any_taint_active`) become an AND against a global
//! state mask — replacing the sorted-`Vec<Seq>` merges and per-element map
//! probes of the scan-based implementation, with bit-identical semantics
//! (enforced by `results/golden/` and the differential test in
//! `tests/differential.rs`).
//!
//! # Slot reclamation and the aliasing hazard
//!
//! A slot bit stored inside a younger instruction's mask must keep meaning
//! *the same* control instruction or load until that younger instruction
//! leaves the ROB — otherwise a recycled slot would alias a new owner and
//! conjure spurious dependencies. Freeing therefore distinguishes:
//!
//! * **squash** — every instruction that can reference the slot is younger
//!   than the squashed owner and is squashed in the same event, so the slot
//!   is immediately reusable;
//! * **commit** — younger in-flight instructions may still hold the bit, so
//!   the slot is parked with a *barrier* (the `next_seq` at free time) and
//!   becomes reusable only once the ROB head's sequence number reaches the
//!   barrier, i.e. every instruction dispatched before the free has left
//!   the ROB.
//!
//! Capacity 2 × ROB size always suffices: live slots are bounded by the ROB
//! occupancy (each instruction owns at most one slot), and every
//! barrier-parked slot was freed at the commit of an instruction older than
//! the current ROB head — all such owners were in flight together with the
//! head at its dispatch, so there are at most ROB-size − 1 of them. Masks
//! are therefore exactly as wide as 2 × [`MAX_ROB_SIZE`] slots need.

use crate::config::MAX_ROB_SIZE;
use crate::dyninstr::Seq;
use std::collections::VecDeque;
use std::fmt;

/// Number of `u64` words in a [`SpecMask`]: enough for the 2 ×
/// [`MAX_ROB_SIZE`] slots of the largest ROB a simulator accepts.
pub const SPEC_MASK_WORDS: usize = (2 * MAX_ROB_SIZE).div_ceil(64);
/// Number of slot bits a [`SpecMask`] can represent (704).
pub const SPEC_MASK_BITS: usize = SPEC_MASK_WORDS * 64;

/// A fixed-width set of in-flight instruction slots.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecMask {
    words: [u64; SPEC_MASK_WORDS],
}

impl SpecMask {
    /// The empty set.
    pub const EMPTY: SpecMask = SpecMask { words: [0; SPEC_MASK_WORDS] };

    /// Inserts `bit`.
    #[inline]
    pub fn set(&mut self, bit: u16) {
        self.words[(bit >> 6) as usize] |= 1u64 << (bit & 63);
    }

    /// Removes `bit`.
    #[inline]
    pub fn clear(&mut self, bit: u16) {
        self.words[(bit >> 6) as usize] &= !(1u64 << (bit & 63));
    }

    /// Whether `bit` is present.
    #[inline]
    pub fn contains(&self, bit: u16) -> bool {
        self.words[(bit >> 6) as usize] & (1u64 << (bit & 63)) != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the intersection with `other` is non-empty.
    #[inline]
    pub fn intersects(&self, other: &SpecMask) -> bool {
        self.words.iter().zip(&other.words).any(|(&a, &b)| a & b != 0)
    }

    /// `self |= other`.
    #[inline]
    pub fn union_with(&mut self, other: &SpecMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self |= other & filter` — the filtered-inheritance primitive used
    /// at rename.
    #[inline]
    pub fn union_masked(&mut self, other: &SpecMask, filter: &SpecMask) {
        for ((a, b), f) in self.words.iter_mut().zip(&other.words).zip(&filter.words) {
            *a |= b & f;
        }
    }

    /// `self & other`.
    #[inline]
    pub fn and(&self, other: &SpecMask) -> SpecMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        out
    }

    /// `self & !other`.
    #[inline]
    pub fn and_not(&self, other: &SpecMask) -> SpecMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        out
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates the set bits in ascending order.
    pub fn iter(&self) -> SpecMaskIter<'_> {
        SpecMaskIter { words: &self.words, word_idx: 0, current: self.words[0] }
    }
}

/// Iterator over the set bits of a [`SpecMask`], ascending.
#[derive(Debug, Clone)]
pub struct SpecMaskIter<'a> {
    words: &'a [u64; SPEC_MASK_WORDS],
    word_idx: usize,
    current: u64,
}

impl Iterator for SpecMaskIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u16;
                self.current &= self.current - 1;
                return Some((self.word_idx as u16) * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= SPEC_MASK_WORDS {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl fmt::Debug for SpecMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Per-slot bookkeeping for every in-flight control instruction and load,
/// plus the global state masks the policy predicates AND against.
///
/// Owned by the simulator; see the module docs for the reclamation rules.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable {
    /// Free slots, available immediately.
    free: Vec<u16>,
    /// Slots freed at commit, reusable once the ROB head passes the
    /// barrier sequence number (monotone, so a `VecDeque` pops in order).
    pending: VecDeque<(u16, Seq)>,
    /// Sequence number of each slot's owner.
    seq: Vec<Seq>,
    /// Program counter of each slot's owner.
    pc: Vec<u32>,
    /// Cycle each control slot's owner resolved at (valid once resolved,
    /// until the slot is reused) — replaces the old unbounded
    /// `resolve_cycle: HashMap<Seq, u64>`.
    resolve_cycle: Vec<u64>,
    /// For load slots: the owner's speculation shadow at dispatch (drives
    /// the STT taint-liveness predicate).
    shadow: Vec<SpecMask>,

    /// Control slots whose owner has not yet resolved.
    pub(crate) unresolved: SpecMask,
    /// Control slots whose owner is an indirect jump.
    pub(crate) indirect: SpecMask,
    /// Control slots whose owner is still in the ROB (not committed or
    /// squashed).
    pub(crate) live_ctrl: SpecMask,
    /// Load slots whose owner is still in the ROB.
    pub(crate) live_load: SpecMask,
    /// Load slots whose owner has finished executing (stage `Done`).
    pub(crate) load_done: SpecMask,

    /// High-water mark of slots not free to reuse — live ones plus those
    /// parked behind a barrier (bounded-state test hook).
    max_in_use: usize,
}

impl SlotTable {
    /// A table sized for `rob_size` in-flight instructions.
    ///
    /// # Panics
    ///
    /// Panics if `rob_size` exceeds [`MAX_ROB_SIZE`].
    pub(crate) fn new(rob_size: usize) -> Self {
        let capacity = 2 * rob_size;
        assert!(
            rob_size <= MAX_ROB_SIZE,
            "ROB size {rob_size} needs {capacity} speculation slots; SpecMask holds \
             {SPEC_MASK_BITS} (MAX_ROB_SIZE = {MAX_ROB_SIZE})"
        );
        SlotTable {
            free: (0..capacity as u16).rev().collect(),
            pending: VecDeque::new(),
            seq: vec![0; capacity],
            pc: vec![0; capacity],
            resolve_cycle: vec![0; capacity],
            shadow: vec![SpecMask::EMPTY; capacity],
            unresolved: SpecMask::EMPTY,
            indirect: SpecMask::EMPTY,
            live_ctrl: SpecMask::EMPTY,
            live_load: SpecMask::EMPTY,
            load_done: SpecMask::EMPTY,
            max_in_use: 0,
        }
    }

    /// Total slot capacity (2 × ROB size).
    pub(crate) fn capacity(&self) -> usize {
        self.seq.len()
    }

    /// High-water mark of slots live or parked at once (the quantity the
    /// module docs bound by 2 × ROB size).
    pub(crate) fn max_in_use(&self) -> usize {
        self.max_in_use
    }

    /// Moves barrier-cleared pending slots to the free list, then pops one.
    /// `rob_front_seq` is the current ROB head (`None` when empty; with an
    /// empty ROB nothing can reference a parked slot, so all are reusable).
    fn take_slot(&mut self, rob_front_seq: Option<Seq>) -> u16 {
        while let Some(&(slot, barrier)) = self.pending.front() {
            let reusable = match rob_front_seq {
                None => true,
                Some(front) => front >= barrier,
            };
            if !reusable {
                break;
            }
            self.pending.pop_front();
            self.free.push(slot);
        }
        let slot =
            self.free.pop().expect("slot table overflow: capacity 2x ROB size is a proven bound");
        // Every slot still parked here is unreusable, so it counts.
        self.max_in_use = self.max_in_use.max(self.capacity() - self.free.len());
        slot
    }

    /// Allocates a slot for a control instruction dispatched at `seq`/`pc`.
    pub(crate) fn alloc_ctrl(
        &mut self,
        seq: Seq,
        pc: u32,
        is_indirect: bool,
        rob_front_seq: Option<Seq>,
    ) -> u16 {
        let slot = self.take_slot(rob_front_seq);
        self.seq[slot as usize] = seq;
        self.pc[slot as usize] = pc;
        self.unresolved.set(slot);
        self.live_ctrl.set(slot);
        if is_indirect {
            self.indirect.set(slot);
        }
        slot
    }

    /// Allocates a slot for a load dispatched at `seq`/`pc` whose
    /// speculation shadow at rename is `shadow`.
    pub(crate) fn alloc_load(
        &mut self,
        seq: Seq,
        pc: u32,
        shadow: SpecMask,
        rob_front_seq: Option<Seq>,
    ) -> u16 {
        let slot = self.take_slot(rob_front_seq);
        self.seq[slot as usize] = seq;
        self.pc[slot as usize] = pc;
        self.shadow[slot as usize] = shadow;
        self.live_load.set(slot);
        slot
    }

    /// Marks a control slot resolved at `cycle`.
    pub(crate) fn resolve(&mut self, slot: u16, cycle: u64) {
        self.unresolved.clear(slot);
        self.resolve_cycle[slot as usize] = cycle;
    }

    /// Marks a load slot's owner as done executing.
    pub(crate) fn mark_load_done(&mut self, slot: u16) {
        self.load_done.set(slot);
    }

    /// Clears a slot from every state mask.
    fn clear_state(&mut self, slot: u16) {
        self.unresolved.clear(slot);
        self.indirect.clear(slot);
        self.live_ctrl.clear(slot);
        self.live_load.clear(slot);
        self.load_done.clear(slot);
    }

    /// Frees a slot whose owner commits. `barrier` is the simulator's
    /// `next_seq`: the slot is parked until every instruction dispatched
    /// before this free has left the ROB.
    pub(crate) fn free_commit(&mut self, slot: u16, barrier: Seq) {
        self.clear_state(slot);
        debug_assert!(self.pending.back().is_none_or(|&(_, b)| b <= barrier));
        self.pending.push_back((slot, barrier));
    }

    /// Frees a slot whose owner is squashed: immediately reusable (every
    /// possible referencer is younger and squashed in the same event).
    pub(crate) fn free_squash(&mut self, slot: u16) {
        self.clear_state(slot);
        self.free.push(slot);
    }

    /// Sequence number of the slot's owner.
    pub(crate) fn seq_of(&self, slot: u16) -> Seq {
        self.seq[slot as usize]
    }

    /// Program counter of a slot's owner.
    pub(crate) fn pc_of(&self, slot: u16) -> u32 {
        self.pc[slot as usize]
    }

    /// Dispatch-time shadow of a load slot's owner.
    pub(crate) fn shadow_of(&self, slot: u16) -> &SpecMask {
        &self.shadow[slot as usize]
    }

    /// Resolution cycle of a resolved control slot (valid until reuse).
    pub(crate) fn resolve_cycle_of(&self, slot: u16) -> u64 {
        debug_assert!(
            !self.unresolved.contains(slot),
            "reading the resolve cycle of an unresolved slot"
        );
        self.resolve_cycle[slot as usize]
    }

    /// Max `resolve_cycle − ready` over the control slots in `deps`
    /// (saturating per slot) — the F1 wait accounting. Every dep of a
    /// committing instruction has resolved and its slot is unreused while
    /// the instruction is in flight, so the per-slot cycles are valid.
    pub(crate) fn wait_cycles(&self, deps: &SpecMask, ready: u64) -> u64 {
        let mut max = 0;
        for (w, &word) in deps.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                debug_assert!(
                    !self.unresolved.contains(slot as u16),
                    "dep of a committing instr resolved"
                );
                max = max.max(self.resolve_cycle[slot].saturating_sub(ready));
            }
        }
        max
    }

    /// The owner sequence numbers of `mask`, ascending (differential-test
    /// hook; masks of live instructions never contain reused slots).
    pub(crate) fn mask_seqs(&self, mask: &SpecMask) -> Vec<Seq> {
        let mut seqs: Vec<Seq> = mask.iter().map(|b| self.seq_of(b)).collect();
        seqs.sort_unstable();
        seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains_iter() {
        let mut m = SpecMask::EMPTY;
        assert!(m.is_empty());
        let last = (SPEC_MASK_BITS - 1) as u16;
        for b in [0u16, 1, 63, 64, 65, 511, last] {
            m.set(b);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 63, 64, 65, 511, last]);
        assert_eq!(m.count(), 7);
        assert!(m.contains(63) && m.contains(64));
        m.clear(63);
        assert!(!m.contains(63));
        assert_eq!(m.count(), 6);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = SpecMask::EMPTY;
        a.set(3);
        a.set(100);
        let mut b = SpecMask::EMPTY;
        b.set(100);
        b.set(700);
        assert!(a.intersects(&b));
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![3, 100, 700]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![100]);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![3]);
        let mut filtered = SpecMask::EMPTY;
        filtered.union_masked(&u, &b);
        assert_eq!(filtered.iter().collect::<Vec<_>>(), vec![100, 700]);
    }

    #[test]
    fn slot_lifecycle_and_barriers() {
        let mut t = SlotTable::new(4); // capacity 8
        let c0 = t.alloc_ctrl(10, 5, false, None);
        let l0 = t.alloc_load(11, 6, SpecMask::EMPTY, Some(10));
        assert!(t.unresolved.contains(c0) && t.live_ctrl.contains(c0));
        assert!(t.live_load.contains(l0) && !t.live_ctrl.contains(l0));
        assert_eq!((t.pc_of(c0), t.pc_of(l0)), (5, 6));
        t.resolve(c0, 42);
        assert!(!t.unresolved.contains(c0) && t.live_ctrl.contains(c0));
        let mut deps = SpecMask::EMPTY;
        deps.set(c0);
        assert_eq!(t.wait_cycles(&deps, 40), 2);
        assert_eq!(t.wait_cycles(&deps, 50), 0);

        // Commit-free parks behind the barrier; the slot is not reused
        // while the ROB head predates the barrier.
        t.free_commit(c0, 12);
        let mut seen = vec![l0];
        for s in 0..6 {
            seen.push(t.alloc_ctrl(20 + s, 0, false, Some(11)));
        }
        assert!(!seen.contains(&c0), "parked slot must not be reused before its barrier");
        // Once the head passes the barrier the slot recycles.
        let recycled = t.alloc_ctrl(40, 0, false, Some(12));
        assert_eq!(recycled, c0);
        assert!(t.max_in_use() <= t.capacity());
    }

    #[test]
    fn squash_free_is_immediate() {
        let mut t = SlotTable::new(4);
        let c = t.alloc_ctrl(1, 0, true, None);
        assert!(t.indirect.contains(c));
        t.free_squash(c);
        assert!(!t.indirect.contains(c) && !t.unresolved.contains(c));
        assert_eq!(t.alloc_ctrl(2, 0, false, Some(1)), c, "squash-freed slots recycle immediately");
    }

    #[test]
    #[should_panic(expected = "speculation slots")]
    fn oversized_rob_is_rejected() {
        let _ = SlotTable::new(MAX_ROB_SIZE + 1);
    }
}
