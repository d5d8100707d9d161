//! # levioso-support — the hermetic-build substrate
//!
//! This workspace builds with **zero external crates** (the build
//! environment has no registry access; see DESIGN.md, "Hermetic build
//! policy"). Everything the repo previously pulled from crates.io lives
//! here instead, implemented from scratch and sized to exactly what the
//! workspace needs:
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand` | SplitMix64 + xoshiro256++, seedable, stream-splittable |
//! | [`json`] | `serde`/`serde_json` | a small JSON value type with emit + parse |
//! | [`check`] | `proptest` | seeded generators, an iteration budget, failing-input reports |
//! | [`pool`] | `rayon` | a scoped worker pool on one shared job cursor, with order-stable, panic-transparent fan-out |
//! | [`cache`] | — | a content-addressed on-disk cell cache for incremental sweeps |
//! | [`histogram`] | `hdrhistogram` | fixed-footprint log2-bucketed latency histograms |
//!
//! All randomness is deterministic: the same seed always reproduces the
//! same stream, on every platform, so property tests and workload inputs
//! are bit-stable across runs and machines.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod check;
pub mod histogram;
pub mod json;
pub mod pool;
pub mod rng;

pub use cache::{Cache, CacheReport};
pub use check::{Config, Gen};
pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use pool::Pool;
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
