//! Two-run noninterference fuzzing for speculation policies.
//!
//! The security tables in `levioso-attacks` check five hand-built gadgets —
//! valuable as known-answer tests, but a scheme could pass them for the
//! wrong reason. This crate provides the principled complement from the
//! hardware-software-contracts line of work (Guarnieri et al.; ProSpeCT):
//! for a chosen *observer* (contract), run every scheme on randomly
//! generated programs twice — two initial states that agree on everything
//! public and differ only in designated secret memory — and require the two
//! observation streams to be identical. Any divergence is a leak under that
//! contract, reported with the first divergent event and its
//! delay-attribution rule context.
//!
//! The three modules mirror the three moving parts:
//!
//! * [`generator`] — secret-aware random programs with paired low-equivalent
//!   initial states (the differential-test generator extended with
//!   speculative-leak gadgets whose secrets are architecturally dead);
//! * [`observer`] — the contract observers as projections of one recorded
//!   `TraceSink` event stream (commit-timing, cache-line, full-trace);
//! * [`harness`] — the driver, report, and the CI gate's two-sided check:
//!   delaying schemes must be clean *and* the unsafe baseline must be caught
//!   (non-vacuity), so a green gate is evidence rather than absence of
//!   signal.
//!
//! [`cellcache`] binds the campaign to the repo-wide sweep-cell cache
//! (`levioso_support::cache`): each `(program, pair, scheme)` verdict is
//! keyed by its concrete generated inputs and persisted, so a re-run under
//! an unchanged core fingerprint replays verdicts instead of simulating.

#![warn(missing_docs)]

pub mod cellcache;
pub mod generator;
pub mod harness;
pub mod observer;

pub use generator::{
    assert_pair_low_equivalent, gen_program, gen_secret_pair, PublicInputs, SecretProgram,
};
pub use harness::{fuzz, CellResult, FuzzConfig, FuzzReport, DEFAULT_SEED, ENFORCED_CLEAN};
pub use observer::{diff, project, Divergence, Ev, Obs, ObsKey, Observer, Recorder};
