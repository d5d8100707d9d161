//! The secure-speculation policy interface.
//!
//! The simulator computes identical speculation-tracking state for every
//! scheme (see [`DynInstr`]); a policy only *declares*, for each of its
//! gates, which of an instruction's speculation sets it waits on and which
//! event releases each member: a [`Wait`]. The core decides every gate
//! from that declaration against its own slot state, and blames every
//! delayed cycle on the same declaration (see the contract on
//! [`SpeculationPolicy`]). Policies therefore differ *only* in what they
//! wait on and until when — exactly the comparison the paper makes.
//!
//! Dependency sets are [`SpecMask`] bitmasks over in-flight slots (see
//! [`crate::specmask`]), so deciding a [`Release::Resolve`] or
//! [`Release::Commit`] wait is a handful of word-wise ANDs rather than a
//! per-element map probe.
//!
//! Concrete policies (the Levioso scheme and all baselines) live in
//! `levioso-core`; this crate only defines the contract plus the trivial
//! [`UnsafeBaseline`].

use crate::dyninstr::DynInstr;
use crate::specmask::{SlotTable, SpecMask};

/// The event that releases one member of a [`Wait`]'s dependency set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// A control instruction stops holding the wait when it resolves
    /// (executes) or is squashed.
    Resolve,
    /// A control instruction stops holding the wait when it commits or is
    /// squashed.
    Commit,
    /// A taint root (a load) stops holding the wait once it has executed
    /// and every control instruction in its own shadow has resolved, or
    /// when it commits or is squashed (STT's "no longer speculative").
    Untaint,
}

/// What one gate waits on: the instruction is held at the gate while any
/// member of `deps` has not yet seen its `release` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wait<'a> {
    /// Stable rule identifier reported for every cycle the wait holds the
    /// instruction (see [`crate::Blame::rule`]).
    pub rule: &'static str,
    /// One of the instruction's speculation sets ([`DynInstr::shadow`],
    /// [`DynInstr::ann_deps`], [`DynInstr::lev_deps`] or
    /// [`DynInstr::taint_roots`]).
    pub deps: &'a SpecMask,
    /// The event that frees each member of `deps`.
    pub release: Release,
}

/// The core's speculation state as the gates read it.
#[derive(Debug)]
pub(crate) struct SpecView<'a> {
    pub(crate) slots: &'a SlotTable,
}

impl SpecView<'_> {
    /// Whether `wait` holds its instruction now: some member of its set
    /// has not yet seen its release event.
    pub(crate) fn holds(&self, wait: &Wait<'_>) -> bool {
        match wait.release {
            Release::Resolve => wait.deps.intersects(&self.slots.unresolved),
            Release::Commit => wait.deps.intersects(&self.slots.live_ctrl),
            Release::Untaint => self.taint_active(wait.deps),
        }
    }

    /// The members of `wait`'s set still holding it: empty exactly when
    /// [`SpecView::holds`] is false.
    pub(crate) fn blocking(&self, wait: &Wait<'_>) -> SpecMask {
        match wait.release {
            Release::Resolve => wait.deps.and(&self.slots.unresolved),
            Release::Commit => wait.deps.and(&self.slots.live_ctrl),
            Release::Untaint => {
                let live = wait.deps.and(&self.slots.live_load);
                let mut out = live.and_not(&self.slots.load_done);
                for slot in live.and(&self.slots.load_done).iter() {
                    if self.slots.shadow_of(slot).intersects(&self.slots.unresolved) {
                        out.set(slot);
                    }
                }
                out
            }
        }
    }

    /// STT taint liveness: a root is *active* while it is in flight and
    /// has not finished executing, or has finished but is itself still
    /// speculative (some control instruction in its shadow is unresolved).
    pub(crate) fn taint_active(&self, roots: &SpecMask) -> bool {
        let live = roots.and(&self.slots.live_load);
        if live.is_empty() {
            return false;
        }
        if !live.and_not(&self.slots.load_done).is_empty() {
            return true;
        }
        live.iter().any(|slot| self.slots.shadow_of(slot).intersects(&self.slots.unresolved))
    }
}

/// A secure-speculation scheme: what each gate waits on, per instruction.
///
/// A gate that declares `None` never holds; a gate that declares a
/// [`Wait`] holds while the wait does. The gates, in the order the core
/// asks them:
///
/// 1. [`SpeculationPolicy::execute_wait`], before **every** instruction
///    may begin execution;
/// 2. [`SpeculationPolicy::transmit_wait`], additionally before a
///    *transmit* (a load or flush: an instruction whose execution
///    perturbs microarchitectural state as a function of its operands);
/// 3. [`SpeculationPolicy::hit_only_wait`], for a load both gates let
///    through: while it holds, the load is served only from an L1 hit,
///    without updating replacement state, and a miss waits instead of
///    filling.
///
/// Every cycle a gate holds an instruction is one policy delay cycle,
/// blamed on the gate's rule and on the oldest member of its set that
/// still holds it.
///
/// # Contract
///
/// A policy cannot read the speculation state; the core decides each wait
/// against it. The core skips work on the strength of two properties that
/// follow, provided each declaration is a function of the instruction's
/// speculation sets and opcode only (never of the cycle, of per-cycle
/// counters such as [`DynInstr::policy_delay_cycles`], or of state the
/// policy keeps itself):
///
/// * **Verdicts are pure.** A gate's verdict changes only when a release
///   event happens, so a cycle in which nothing happens repeats until
///   something does, and the core jumps over the repeats.
/// * **A gate that opened never closes** for an in-flight instruction.
///   Every release event happens once per slot, and none of the
///   instruction's slots is reused while it is in flight. So a load the
///   memory-ordering check blocks after its execute gate opened can wait,
///   undecided, for the store it is blocked on.
///
/// The core asks a gate again, unchanged, to blame each cycle it held, so
/// no blame can name another rule or set than its verdict read.
pub trait SpeculationPolicy: std::fmt::Debug {
    /// Whether the scheme requires compiler annotations on the program.
    fn needs_annotations(&self) -> bool {
        false
    }

    /// What every instruction waits on before it may begin execution.
    fn execute_wait<'a>(&self, _instr: &'a DynInstr) -> Option<Wait<'a>> {
        None
    }

    /// What a transmit instruction (load or flush) additionally waits on.
    fn transmit_wait<'a>(&self, _instr: &'a DynInstr) -> Option<Wait<'a>> {
        None
    }

    /// While this holds, a load the other gates let through is served
    /// hit-only (Delay-on-Miss style), and an L1 miss is a delay.
    fn hit_only_wait<'a>(&self, _instr: &'a DynInstr) -> Option<Wait<'a>> {
        None
    }
}

/// The unprotected out-of-order baseline: no gate ever holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnsafeBaseline;

impl UnsafeBaseline {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        UnsafeBaseline
    }
}

impl SpeculationPolicy for UnsafeBaseline {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(slots: &[u16]) -> SpecMask {
        let mut m = SpecMask::EMPTY;
        for &s in slots {
            m.set(s);
        }
        m
    }

    /// A wait holds exactly when it names a blocker, for every release
    /// and at every step of its members' lives.
    #[test]
    fn a_wait_holds_exactly_when_it_has_a_blocker() {
        let mut t = SlotTable::new(8);
        let branch = t.alloc_ctrl(1, 10, false, None);
        let load = t.alloc_load(2, 11, mask(&[branch]), Some(1));
        let deps = mask(&[branch, load]);
        let check = |t: &SlotTable, expect: [bool; 3]| {
            let view = SpecView { slots: t };
            for (release, held) in
                [Release::Resolve, Release::Commit, Release::Untaint].into_iter().zip(expect)
            {
                let wait = Wait { rule: "test:wait", deps: &deps, release };
                assert_eq!(view.holds(&wait), held, "{release:?}");
                assert_eq!(!view.blocking(&wait).is_empty(), held, "{release:?}");
            }
        };
        check(&t, [true, true, true]);
        t.mark_load_done(load);
        check(&t, [true, true, true]);
        t.resolve(branch, 5);
        check(&t, [false, true, false]);
        t.free_commit(branch, 3);
        check(&t, [false, false, false]);
    }
}
