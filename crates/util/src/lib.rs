//! Shared substrates for the `privmdr` workspace.
//!
//! This crate holds the small, dependency-free building blocks every other
//! crate relies on:
//!
//! * [`hash`] — a seeded 64-bit mixing hash used as the universal hash family
//!   of the OLH frequency oracle.
//! * [`sampling`] — binomial/multinomial samplers and normal/exponential
//!   variates (the `rand` crate deliberately ships no distributions).
//! * [`stats`] — mean/std/percentile helpers used by the benchmark harness.
//! * [`linalg`] — a tiny dense Cholesky factorization for generating
//!   correlated multivariate samples.
//! * [`pow2`] — power-of-two rounding used by the granularity guideline.
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   reproducible from a single master seed.
//! * [`par`] — work distribution over one lazily started, process-wide
//!   worker pool (`par_map`, `par_for_each_mut`) and contiguous slice
//!   sharding (`split_chunks`), shared by the bench harness, HDG's
//!   response-matrix build and the protocol's ingestion and serving
//!   engines.
//! * [`sync`] — poison-tolerant locking for deterministic caches, shared
//!   by the HDG response-matrix cache and the serving tier's answer cache.

pub mod hash;
pub mod linalg;
pub mod par;
pub mod pow2;
pub mod rng;
pub mod sampling;
pub mod stats;
pub mod sync;

pub use hash::mix64;
pub use pow2::{closest_pow2, is_pow2};
pub use rng::derive_seed;
pub use sync::lock_unpoisoned;
