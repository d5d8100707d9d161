//! # levioso-uarch — cycle-level out-of-order core simulator
//!
//! The hardware substrate of the [Levioso (DAC '24)] reproduction: an
//! explicit out-of-order pipeline (fetch → rename → issue → execute →
//! commit) with gshare + RAS + indirect-target branch prediction, a
//! two-level cache hierarchy whose state persists across squashes (the
//! Spectre side channel), store-to-load forwarding, and full wrong-path
//! execution.
//!
//! Secure-speculation schemes plug in through [`SpeculationPolicy`]: the
//! core computes, for every in-flight instruction, the conservative
//! speculation shadow, the Levioso true-dependency set (static annotation
//! instances closed over dynamic dataflow), and STT-style taint roots; a
//! policy is a set of pure predicates over that state. All schemes in
//! `levioso-core` are compared on this identical dynamic state.
//!
//! [Levioso (DAC '24)]: https://doi.org/10.1145/3649329.3655632

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
mod core;
pub mod dyninstr;
pub mod policy;
pub mod predictor;
mod refsets;
pub mod specmask;
pub mod stats;
pub mod trace;

pub use crate::core::{SimError, Simulator};
#[doc(hidden)]
pub use crate::refsets::ReferenceChecks;

/// Semantic revision of the simulator core and its policy surface.
///
/// **Bump this whenever a change can alter simulated results** — pipeline
/// timing, cache/predictor behavior, policy predicates, stats accounting,
/// workload generation feeding the sweeps. The constant namespaces the
/// on-disk sweep cache (`target/sweep-cache/<fingerprint>/`) and is
/// recorded in `results/golden/core_rev.json` at bless time: re-blessing
/// changed golden content without bumping this is refused by the bless
/// guard and caught by the manifest consistency test, so a stale cached
/// cell can never masquerade as a current result.
///
/// Pure refactors and bench/CI plumbing do **not** need a bump — if the
/// golden content doesn't move, the old cells are still valid. Anything
/// that moves the blessed golden bytes (changed numbers, or a changed
/// figure definition) does.
pub const CORE_REV: u32 = 1;

/// The sim-core fingerprint derived from [`CORE_REV`]: the namespace
/// directory for cached sweep cells and the revision string recorded in
/// the golden manifest.
pub fn core_fingerprint() -> String {
    format!("core-v{CORE_REV}")
}
pub use cache::{CacheStats, Hierarchy, SetAssocCache};
pub use config::{CacheConfig, CoreConfig, HierarchyConfig, PredictorConfig, MAX_ROB_SIZE};
pub use dyninstr::{DynInstr, OpState, Operand, Operands, RobRef, Seq, Stage};
pub use policy::{Gate, LoadMode, SpecView, SpeculationPolicy, UnsafeBaseline};
pub use predictor::Predictor;
pub use specmask::SpecMask;
pub use stats::SimStats;
pub use trace::{Blame, BlamedKind, BlamedSlot, DelayExplanation, NullSink, Tee, TraceSink};
