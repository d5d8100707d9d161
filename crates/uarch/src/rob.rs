//! The reorder buffer, addressed by ROB position (see [`RobRef`]).
//!
//! The in-flight window is the positions `head..tail`. Position `pos`
//! lives in slot `pos & mask` of a ring of `rob_size.next_power_of_two()`
//! slots, so resolving a reference is a range check, one masked index and
//! a sequence-number compare. Commit advances `head` and a squash lowers
//! `tail`; neither moves an entry, and a slot outside the window keeps its
//! old entry until a dispatch to it overwrites it. The ring fills lazily,
//! so a new ROB allocates no entries.
//!
//! The issue stage's ready set is one bit per slot. Live positions are in
//! age order, so walking the bits round the ring from the head's slot
//! visits the ready entries oldest first.

use crate::dyninstr::{DynInstr, RobRef};
use std::ops::{Index, IndexMut};

/// The ROB ring and its ready bits.
#[derive(Debug)]
pub(crate) struct Rob {
    /// Ring slots, pushed as positions first reach them.
    slots: Vec<DynInstr>,
    /// Ring size − 1.
    mask: u64,
    /// Position of the oldest in-flight entry: the number of instructions
    /// committed so far.
    head: u64,
    /// One past the youngest in-flight entry's position.
    tail: u64,
    /// One bit per slot: the dispatched entries whose operands are ready
    /// (stores: whose base is ready) and that no store blocks.
    ready: Vec<u64>,
}

impl Rob {
    /// An empty ROB for `rob_size` in-flight instructions.
    pub(crate) fn new(rob_size: usize) -> Self {
        let size = rob_size.next_power_of_two();
        Rob {
            slots: Vec::new(),
            mask: size as u64 - 1,
            head: 0,
            tail: 0,
            ready: vec![0; size.div_ceil(64)],
        }
    }

    /// The oldest in-flight position.
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// One past the youngest in-flight position.
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    /// Number of in-flight entries.
    pub(crate) fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether `r` is in flight: its position is in the window and the
    /// entry there carries its sequence number (a squashed position may
    /// hold a younger instruction).
    pub(crate) fn holds(&self, r: RobRef) -> bool {
        (self.head..self.tail).contains(&r.pos) && self[r.pos].seq == r.seq
    }

    /// The oldest in-flight entry.
    pub(crate) fn front(&self) -> Option<&DynInstr> {
        (!self.is_empty()).then(|| &self[self.head])
    }

    /// The youngest in-flight entry.
    pub(crate) fn back(&self) -> Option<&DynInstr> {
        (!self.is_empty()).then(|| &self[self.tail - 1])
    }

    /// Appends `e` at the tail and returns its position. The caller keeps
    /// the window within the ROB size.
    pub(crate) fn push(&mut self, e: DynInstr) -> u64 {
        debug_assert!(self.tail - self.head <= self.mask, "the ring is full");
        let pos = self.tail;
        let slot = (pos & self.mask) as usize;
        if slot < self.slots.len() {
            self.slots[slot] = e;
        } else {
            debug_assert_eq!(slot, self.slots.len(), "positions fill the ring in order");
            self.slots.push(e);
        }
        self.tail += 1;
        pos
    }

    /// Retires the oldest entry, which is not in the ready set.
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(!self.is_empty());
        debug_assert!(!self.is_ready(self.head), "a ready entry cannot commit");
        self.head += 1;
    }

    /// Squashes the youngest entry, clearing its ready bit.
    pub(crate) fn pop_back(&mut self) {
        debug_assert!(!self.is_empty());
        self.tail -= 1;
        self.clear_ready(self.tail);
    }

    /// The in-flight entries, oldest first, with their positions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &DynInstr)> {
        let (older, younger) = self.as_slices();
        (self.head..).zip(older.iter().chain(younger))
    }

    /// The in-flight entries as two slices, oldest first: from the head's
    /// slot to the ring's end, then from the ring's start.
    pub(crate) fn as_slices(&self) -> (&[DynInstr], &[DynInstr]) {
        let start = (self.head & self.mask) as usize;
        let end = start + self.len();
        let size = self.mask as usize + 1;
        if end <= size {
            (&self.slots[start..end], &[])
        } else {
            (&self.slots[start..], &self.slots[..end - size])
        }
    }

    /// The ready-set word and bit of `pos`'s slot.
    fn ready_bit(&self, pos: u64) -> (usize, u64) {
        let slot = pos & self.mask;
        ((slot >> 6) as usize, 1 << (slot & 63))
    }

    fn is_ready(&self, pos: u64) -> bool {
        let (word, bit) = self.ready_bit(pos);
        self.ready[word] & bit != 0
    }

    /// Adds the in-flight position `pos` to the ready set.
    pub(crate) fn set_ready(&mut self, pos: u64) {
        let (word, bit) = self.ready_bit(pos);
        self.ready[word] |= bit;
    }

    /// Removes `pos` from the ready set.
    pub(crate) fn clear_ready(&mut self, pos: u64) {
        let (word, bit) = self.ready_bit(pos);
        self.ready[word] &= !bit;
    }

    /// The ready positions, oldest first: the ready bits walked round the
    /// ring from the head's slot.
    pub(crate) fn ready(&self) -> impl Iterator<Item = u64> + '_ {
        let start = self.head & self.mask;
        let words = self.ready.len();
        let first = (start >> 6) as usize;
        let split = start & 63;
        // The head's word is visited twice: from the head's bit first, and
        // below it last, after every other word.
        let mut k = 0;
        let mut bits = self.ready[first] & (!0 << split);
        std::iter::from_fn(move || loop {
            if bits != 0 {
                let word = (first + k) & (words - 1);
                let slot = (word as u64) << 6 | u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                return Some(self.head + (slot.wrapping_sub(start) & self.mask));
            }
            k += 1;
            if k > words {
                return None;
            }
            bits = self.ready[(first + k) & (words - 1)];
            if k == words {
                bits &= !(!0 << split);
            }
        })
    }
}

impl Index<u64> for Rob {
    type Output = DynInstr;

    fn index(&self, pos: u64) -> &DynInstr {
        &self.slots[(pos & self.mask) as usize]
    }
}

impl IndexMut<u64> for Rob {
    fn index_mut(&mut self, pos: u64) -> &mut DynInstr {
        &mut self.slots[(pos & self.mask) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_isa::Instr;

    fn entry(seq: u64) -> DynInstr {
        DynInstr::new(seq, 0, Instr::Nop)
    }

    #[test]
    fn positions_wrap_the_ring_and_the_ready_walk_stays_in_age_order() {
        // A 16-entry ROB over 80 dispatches: the window wraps five times.
        let mut rob = Rob::new(16);
        let mut seq = 0;
        for round in 0..5 {
            while rob.len() < 16 {
                let pos = rob.push(entry(seq));
                assert_eq!(pos, seq);
                if !pos.is_multiple_of(3) {
                    rob.set_ready(pos);
                }
                seq += 1;
            }
            let walked: Vec<u64> = rob.ready().collect();
            let expected: Vec<u64> =
                (rob.head()..rob.tail()).filter(|p| !p.is_multiple_of(3)).collect();
            assert_eq!(walked, expected, "round {round}");
            assert!(rob.iter().all(|(pos, e)| e.seq == pos));
            for _ in 0..13 {
                rob.clear_ready(rob.head());
                rob.pop_front();
            }
        }
        assert!(rob.holds(RobRef { seq: seq - 1, pos: seq - 1 }));
        assert!(!rob.holds(RobRef { seq: seq - 4, pos: seq - 4 }), "committed");
    }

    #[test]
    fn a_squash_clears_its_ready_bits_and_frees_its_positions() {
        // A 128-slot ring (two bitmap words) whose window wraps.
        let mut rob = Rob::new(100);
        let mut seq = 0;
        let mut dispatch = |rob: &mut Rob, n: usize| {
            for _ in 0..n {
                let pos = rob.push(entry(seq));
                rob.set_ready(pos);
                seq += 1;
            }
        };
        dispatch(&mut rob, 100);
        for _ in 0..60 {
            rob.clear_ready(rob.head());
            rob.pop_front();
        }
        dispatch(&mut rob, 60);
        while rob.back().is_some_and(|e| e.seq >= 130) {
            rob.pop_back();
        }
        assert_eq!(rob.ready().collect::<Vec<_>>(), (60..130).collect::<Vec<_>>());
        // Dispatch reuses a squashed position under a new sequence number.
        assert_eq!(rob.push(entry(500)), 130);
        assert!(!rob.holds(RobRef { seq: 130, pos: 130 }), "squashed");
        assert!(rob.holds(RobRef { seq: 500, pos: 130 }));
    }
}
