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
//! policy declares, per gate, which of those sets it waits on and until
//! which event (a [`Wait`]), and the core decides and blames every gate
//! from that declaration. All schemes in `levioso-core` are compared on
//! this identical dynamic state.
//!
//! [Levioso (DAC '24)]: https://doi.org/10.1145/3649329.3655632

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
mod core;
pub mod dyninstr;
#[cfg(test)]
mod fingerprint;
pub mod policy;
pub mod predictor;
mod refsets;
mod rob;
pub mod specmask;
pub mod stats;
pub mod trace;

pub use crate::core::{SimError, Simulator};
#[doc(hidden)]
pub use crate::refsets::ReferenceChecks;

/// The namespace every cached sweep cell is stored under
/// (`target/sweep-cache/<fingerprint>/`): `core-` and a 32-hex digest of
/// every line that decides what a perf or noninterference cell stores,
/// which `build.rs` computes from every `.rs` file under
/// `crates/{isa,compiler,uarch,core,nisec,workloads}/src` and from
/// `crates/bench/src/cellcache.rs`, where a perf cell is simulated, checked
/// and serialized. An edit to any of them names a new namespace, so no
/// cell that other code computed is read, and reverting it finds the old
/// cells again. No version is kept by hand.
pub fn core_fingerprint() -> String {
    concat!("core-", env!("LEVIOSO_CORE_DIGEST")).to_string()
}

pub use cache::{CacheStats, Hierarchy, SetAssocCache};
pub use config::{CacheConfig, CoreConfig, HierarchyConfig, PredictorConfig, MAX_ROB_SIZE};
pub use dyninstr::{DynInstr, OpState, Operand, Operands, RobRef, Seq, Stage};
pub use policy::{Release, SpeculationPolicy, UnsafeBaseline, Wait};
pub use predictor::Predictor;
pub use specmask::SpecMask;
pub use stats::SimStats;
pub use trace::{Blame, BlamedKind, BlamedSlot, TraceSink};
