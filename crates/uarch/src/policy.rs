//! The secure-speculation policy interface.
//!
//! The simulator computes identical speculation-tracking state for every
//! scheme (see [`DynInstr`]); a policy is a set of pure predicates over
//! that state deciding, each cycle, whether an instruction may begin
//! execution and how a load may touch the cache (see the contract on
//! [`SpeculationPolicy`]). Policies therefore differ
//! *only* in what they restrict — exactly the comparison the paper makes.
//!
//! Dependency sets are [`SpecMask`] bitmasks over in-flight slots (see
//! [`crate::specmask`]), so every predicate here is a handful of word-wise
//! ANDs rather than a per-element map probe.
//!
//! Concrete policies (the Levioso scheme and all baselines) live in
//! `levioso-core`; this crate only defines the contract plus the trivial
//! [`UnsafeBaseline`].

use crate::dyninstr::DynInstr;
use crate::specmask::{SlotTable, SpecMask};
use crate::trace::DelayExplanation;

/// Verdict for an execution attempt this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// May proceed.
    Allow,
    /// Must wait; the core retries next cycle.
    Delay,
}

/// How a permitted load may access the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Normal demand access: fills and updates replacement state.
    Normal,
    /// Delay-on-Miss style: serve L1 hits without updating replacement
    /// state; on a miss the load waits instead of filling.
    HitOnly,
}

/// Read-only view of the core's speculation state, passed to policies.
#[derive(Debug)]
pub struct SpecView<'a> {
    pub(crate) slots: &'a SlotTable,
}

impl<'a> SpecView<'a> {
    /// Whether any control instruction in `deps` is still unresolved (it
    /// has not yet executed). Resolved or squashed dependencies drop out.
    pub fn any_unresolved(&self, deps: &SpecMask) -> bool {
        deps.intersects(&self.slots.unresolved)
    }

    /// Whether any control instruction in `deps` has not yet *committed*
    /// (commit-release schemes). True while the dependency is still in the
    /// ROB.
    pub fn any_uncommitted(&self, deps: &SpecMask) -> bool {
        deps.intersects(&self.slots.live_ctrl)
    }

    /// STT taint liveness: a taint root (a load) is *active* while it is
    /// still in flight and itself speculative (some older control
    /// instruction in its shadow is unresolved) — or while it has not even
    /// executed yet (its value, once produced, will be speculative).
    /// Committed or squashed roots are inactive.
    pub fn any_taint_active(&self, roots: &SpecMask) -> bool {
        let live = roots.and(&self.slots.live_load);
        if live.is_empty() {
            return false;
        }
        // A live root that has not finished executing is active.
        if !live.and_not(&self.slots.load_done).is_empty() {
            return true;
        }
        // A done root stays active while its own shadow is unresolved.
        live.iter().any(|slot| self.slots.shadow_of(slot).intersects(&self.slots.unresolved))
    }

    /// The subset of `deps` that is still unresolved — the mask behind
    /// [`SpecView::any_unresolved`], for blame reporting.
    pub fn unresolved_of(&self, deps: &SpecMask) -> SpecMask {
        deps.and(&self.slots.unresolved)
    }

    /// The subset of `deps` that has not yet committed — the mask behind
    /// [`SpecView::any_uncommitted`], for blame reporting.
    pub fn uncommitted_of(&self, deps: &SpecMask) -> SpecMask {
        deps.and(&self.slots.live_ctrl)
    }

    /// The subset of `roots` that is currently taint-active — the mask
    /// behind [`SpecView::any_taint_active`], for blame reporting.
    pub fn active_taints_of(&self, roots: &SpecMask) -> SpecMask {
        let live = roots.and(&self.slots.live_load);
        let mut out = SpecMask::EMPTY;
        for slot in live.iter() {
            if !self.slots.load_done.contains(slot)
                || self.slots.shadow_of(slot).intersects(&self.slots.unresolved)
            {
                out.set(slot);
            }
        }
        out
    }
}

/// A secure-speculation scheme: pure gating predicates over per-instruction
/// speculation state.
///
/// # Contract
///
/// The core skips work on the strength of two promises, and every policy
/// must keep them:
///
/// * **Policies are pure.** Every verdict is a function of the
///   instruction's speculation sets ([`DynInstr::shadow`],
///   [`DynInstr::ann_deps`], [`DynInstr::lev_deps`],
///   [`DynInstr::taint_roots`], its opcode) and the [`SpecView`] — never
///   of the cycle, of per-cycle counters such as
///   [`DynInstr::policy_delay_cycles`], or of state the policy keeps
///   itself. So a cycle in which nothing happens repeats until something
///   does, and the core jumps over the repeats.
/// * **`may_execute` never turns from `Allow` back to `Delay`** for an
///   in-flight instruction. What a [`SpecView`] reports about an in-flight
///   instruction's dependencies only moves one way (branches resolve and
///   commit, loads complete and commit; none of its slots is reused while
///   it is in flight), so a predicate that delays while some dependency is
///   still pending keeps this for free. So a load the memory-ordering
///   check blocks after `may_execute` allowed it can wait, undecided, for
///   the store it is blocked on.
pub trait SpeculationPolicy: std::fmt::Debug {
    /// Short scheme name used in reports (e.g. `"levioso"`).
    fn name(&self) -> &'static str;

    /// Whether the scheme requires compiler annotations on the program.
    fn needs_annotations(&self) -> bool {
        false
    }

    /// Gate applied to **every** instruction before it may begin execution.
    fn may_execute(&self, _instr: &DynInstr, _view: &SpecView<'_>) -> Gate {
        Gate::Allow
    }

    /// Additional gate applied to *transmit* instructions (loads and
    /// flushes) — the instructions whose execution perturbs
    /// microarchitectural state as a function of their operands.
    fn may_transmit(&self, _instr: &DynInstr, _view: &SpecView<'_>) -> Gate {
        Gate::Allow
    }

    /// How a transmit-permitted load may access the cache.
    fn load_mode(&self, _instr: &DynInstr, _view: &SpecView<'_>) -> LoadMode {
        LoadMode::Normal
    }

    /// Explains a `Delay` verdict [`SpeculationPolicy::may_execute`] just
    /// issued for `instr` (see [`crate::trace`]). Only called by the core
    /// when a trace sink is attached, in the same cycle as the verdict and
    /// before any state changes, so the returned mask reflects exactly
    /// the state the verdict was computed from. Policies overriding
    /// `may_execute` with a `Delay` path should override this to name
    /// their rule; the default reports the conservative shadow.
    fn explain_execute_delay(&self, instr: &DynInstr, view: &SpecView<'_>) -> DelayExplanation {
        DelayExplanation {
            rule: "policy:execute-gate",
            blocking: view.unresolved_of(&instr.shadow),
        }
    }

    /// Explains a `Delay` verdict from [`SpeculationPolicy::may_transmit`]
    /// (same contract as [`SpeculationPolicy::explain_execute_delay`]).
    fn explain_transmit_delay(&self, instr: &DynInstr, view: &SpecView<'_>) -> DelayExplanation {
        DelayExplanation {
            rule: "policy:transmit-gate",
            blocking: view.unresolved_of(&instr.shadow),
        }
    }

    /// Explains a blocked cycle caused by a `LoadMode::HitOnly` load
    /// missing in the L1 (same contract as
    /// [`SpeculationPolicy::explain_execute_delay`]). The default rule
    /// fits any hit-only scheme; the blocking set is the unresolved
    /// shadow that put the load under speculation.
    fn explain_load_mode_delay(&self, instr: &DynInstr, view: &SpecView<'_>) -> DelayExplanation {
        DelayExplanation {
            rule: "policy:miss-under-speculation",
            blocking: view.unresolved_of(&instr.shadow),
        }
    }
}

/// The unprotected out-of-order baseline: everything allowed.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnsafeBaseline;

impl UnsafeBaseline {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        UnsafeBaseline
    }
}

impl SpeculationPolicy for UnsafeBaseline {
    fn name(&self) -> &'static str {
        "unsafe"
    }
}
