#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fair-simlab` — the deterministic parallel experiment-execution
//! subsystem behind the E1–E17 reproduction suite.
//!
//! Every quantitative claim in the paper is checked by Monte-Carlo
//! estimation; this crate makes those estimations (1) fast — trials are
//! sharded across `std::thread::scope` workers — (2) *bit-identical for
//! any worker count* — each trial's seed is derived independently of the
//! schedule via [`seed::trial_seed`] (splitmix64) and per-worker partial
//! tallies are merged in a schedule-independent order — and (3) observable
//! — live trials/sec progress, per-trial latency summaries, and a
//! hand-rolled JSON results store persisting every run
//! (`target/simlab/<exp>.json` plus the aggregate `BENCH_reproduce.json`).
//!
//! The protocol engine itself stays single-threaded *per execution*
//! (DESIGN.md's reproducible-adversary-scheduling requirement); simlab
//! parallelizes *across* independent trials only.
//!
//! The only dependency is the workspace's own zero-dependency `fair-trace`
//! (shared integer quantile code and the per-protocol metric types embedded
//! in records), so every layer of the workspace — including `fair-core`'s
//! estimator — can use the scheduler.

pub mod config;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod record;
pub mod scheduler;
pub mod seed;
pub mod tomlish;

pub use metrics::{BatchTimer, LatencySummary, Observer};
pub use pool::{SubmitError, WorkerPool};
pub use record::{
    proto_json, result_json, AdaptiveSummary, ExpRecord, ReportRecord, RowRecord, SuiteRecord,
};
pub use scheduler::{effective_jobs, run_indexed, run_tiled, set_jobs, with_jobs, TILE};
pub use seed::trial_seed;
