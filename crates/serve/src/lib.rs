#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fair-serve` — a zero-dependency HTTP/1.1 estimation service over the
//! experiment registry.
//!
//! The batch entry point (`reproduce`) answers "run everything, write
//! records"; this crate answers *queries*: `GET
//! /estimate?exp=e5&trials=1000&seed=7` runs that one Monte-Carlo
//! estimation through the same deterministic machinery and returns the
//! canonical result document — **byte-identical** to what a batch run
//! records for the same point, whether the response was computed cold or
//! served from the cache.
//!
//! Layers (bottom-up):
//! - [`http`]: a defensive request parser / response serializer over
//!   `std` only; total on arbitrary bytes (fairlint S2 scope). Supplies
//!   the pipelining primitive ([`http::split_head`]) and copy-free
//!   shared response bodies ([`http::Body`]).
//! - [`cache`]: a sharded LRU of rendered bodies with single-flight
//!   deduplication — a thundering herd on one point computes once. The
//!   nonblocking [`cache::ShardedCache::get_if_ready`] peek serves the
//!   event loop's warm path.
//! - [`service`]: routing, parameter validation, the [`service::Backend`]
//!   trait the bench crate implements, and the `/metrics` document. The
//!   [`service::Verdict`] split (`Reply` inline vs `Offload` ticket)
//!   decides what runs on the loop and what goes to a worker.
//! - `event_loop` (internal): one shard of the serving core on
//!   [`fair_aio`] — readiness polling, HTTP/1.1 keep-alive and
//!   pipelining, vectored writes — with cold work on a bounded
//!   [`fair_simlab::WorkerPool`] (429 when the queue is full),
//!   per-request deadlines (503), and a coordinated drain-then-flush
//!   shutdown.
//! - [`server`]: the coordinator — binds one listener per event loop
//!   ([`ServerConfig::loops`], `SO_REUSEPORT` accept sharding with a
//!   dup-listener fallback), owns the shared worker pool, shutdown
//!   latch, and drain barrier, and aggregates per-loop `/metrics`
//!   counters.
//! - [`streaming`]: the chunked `GET /stream` endpoint — progressive
//!   estimation frames with CI-bounded early stop (`epsilon=`).
//! - [`client`]: a minimal blocking client for `fair-load` and tests.
//!
//! Estimation work is additionally keyed through the `fair-tiles` store
//! when one is configured ([`ServerConfig::tiles_dir`]): full 64-trial
//! tiles persist across requests *and* restarts, so growing `trials` for
//! a known `(exp, seed)` only computes the missing tail tiles.
//!
//! The crate depends only on `fair-simlab` (pool, JSON) and `fair-trace`
//! (metrics export); the experiment registry arrives through the
//! [`service::Backend`] trait, keeping `fair-serve` below `fair-bench` in
//! the dependency order.

pub mod cache;
pub mod client;
mod event_loop;
pub mod http;
pub mod server;
pub mod service;
pub mod stats;
pub mod streaming;

pub use cache::{Lookup, ShardedCache};
pub use client::{Conn, HttpReply};
pub use http::{Body, Request, Response};
pub use server::{AcceptSharding, Server, ServerConfig};
pub use service::{Backend, ProgressUpdate, Service, ServiceConfig, PROTOCOLS};
pub use stats::ServerStats;
