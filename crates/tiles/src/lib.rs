#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fair-tiles` — a zero-dependency content-addressed tile store.
//!
//! The deterministic scheduler (`fair-simlab`) partitions every estimation
//! into fixed 64-trial tiles whose integer event tallies are pure functions
//! of `(scenario, stream seed, tile index)` — independent of the worker
//! count and of the total trial budget. That purity makes a *full* tile's
//! tally a cacheable artifact: re-serving the same `(exp, seed)` with a
//! bigger `trials` only has to compute the missing tail tiles, and merging
//! cached tallies through the same integer-merge path yields results
//! **byte-identical** to a fresh run for every prefix.
//!
//! This crate owns that cache:
//!
//! - [`store::Store`] — an in-memory sharded map from
//!   `(exp, base seed) × (stream, stream seed, tile index)` to a
//!   [`store::TileTally`], optionally backed by a compact on-disk format
//!   under `target/simlab/tiles/` (one file per `(exp, seed)` group,
//!   versioned header, per-record checksums, corruption-tolerant load that
//!   skips bad records, atomic temp+rename writes);
//! - [`cache`] — the process-global installation point plus the
//!   per-run [`Scope`] (store handle and `(exp, base seed)` group) the
//!   estimator keys lookups under;
//! - [`fsio::atomic_write`] — the temp+rename write primitive, shared with
//!   simlab's JSON writers so a killed run never leaves a truncated file.
//!
//! The crate sits below everything (zero dependencies, inside the fairlint
//! determinism boundary): simlab, core, and serve all link it without
//! cycles. Nothing here knows the tile *size* — callers record the trial
//! count per tile and must validate it on lookup.

pub mod cache;
pub mod fsio;
pub mod store;

pub use cache::Scope;
pub use fsio::atomic_write;
pub use store::{Counts, GroupKey, LoadSummary, StatsSnapshot, Store, TileKey, TileTally};

/// Default on-disk location for the persistent store, relative to the
/// workspace root (next to simlab's `target/simlab/<exp>.json` records).
pub const DEFAULT_DIR: &str = "target/simlab/tiles";
