//! Baseline secure-speculation schemes the paper compares against.
//!
//! All baselines are *hardware-only*: they wait on the conservative
//! speculation shadow (`DynInstr::shadow` — every older unresolved control
//! instruction) or dynamic taint (`DynInstr::taint_roots`), never the
//! compiler annotations. They differ in **what** they gate and **when**
//! they release, which is all each one declares (a [`Wait`] per gate):
//!
//! | scheme | gates | release | coverage |
//! |---|---|---|---|
//! | [`Fence`] | every instruction | branch execute | comprehensive (≈ LFENCE after every branch) |
//! | [`DelayOnMiss`] | loads that miss L1 (hits served invisibly) | branch execute | cache channel |
//! | [`Stt`] | transmits with tainted operands | source load non-speculative | speculatively-loaded secrets only |
//! | [`CommitDelay`] | transmits | branch **commit** | comprehensive (the paper's ≈51 % class) |
//! | [`ExecuteDelay`] | transmits | branch **execute** | comprehensive (the paper's ≈43 % class) |

use levioso_uarch::{DynInstr, Release, SpeculationPolicy, Wait};

/// Fence-after-every-branch: no instruction executes under an unresolved
/// older control instruction. The classic software mitigation's cost
/// ceiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fence;

impl SpeculationPolicy for Fence {
    fn execute_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let rule = "fence:unresolved-shadow";
        Some(Wait { rule, deps: &instr.shadow, release: Release::Resolve })
    }
}

/// Delay-on-Miss: speculative loads may be served from L1 without updating
/// replacement state; speculative misses (and speculative flushes) wait
/// until the load is no longer speculative. Closes the cache channel
/// comprehensively; other channels (not modelled here) remain open, which
/// is why the paper's comprehensive baselines gate *all* transmits.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayOnMiss;

impl SpeculationPolicy for DelayOnMiss {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        // Flushes perturb cache state unconditionally: they wait while
        // speculative. Loads wait only on a miss (`hit_only_wait`).
        if instr.instr.is_load() {
            return None;
        }
        let rule = "delay-on-miss:speculative-flush";
        Some(Wait { rule, deps: &instr.shadow, release: Release::Resolve })
    }

    fn hit_only_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let rule = "delay-on-miss:l1-miss-under-shadow";
        Some(Wait { rule, deps: &instr.shadow, release: Release::Resolve })
    }
}

/// STT-style speculative taint tracking (sandbox threat model): a transmit
/// is delayed while any of its operands' values derive from an in-flight
/// *speculative* load. Non-speculatively loaded (architectural) secrets are
/// **not** protected — the constant-time gadget in `levioso-attacks` leaks
/// under this scheme by design.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stt;

impl SpeculationPolicy for Stt {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let rule = "stt:tainted-operand";
        Some(Wait { rule, deps: &instr.taint_roots, release: Release::Untaint })
    }
}

/// Comprehensive delay-until-commit (the stricter prior defense, the
/// paper's ≈51 % class): a transmit executes only once every older control
/// instruction has *committed*.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitDelay;

impl SpeculationPolicy for CommitDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let rule = "commit-delay:uncommitted-shadow";
        Some(Wait { rule, deps: &instr.shadow, release: Release::Commit })
    }
}

/// Comprehensive delay-until-execute (the cheaper prior defense, the
/// paper's ≈43 % class): a transmit executes only once every older control
/// instruction has *resolved* (executed).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecuteDelay;

impl SpeculationPolicy for ExecuteDelay {
    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let rule = "execute-delay:unresolved-shadow";
        Some(Wait { rule, deps: &instr.shadow, release: Release::Resolve })
    }
}
