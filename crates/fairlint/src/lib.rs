#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fairlint` — the project's own static-analysis pass.
//!
//! The reproduction suite's claims rest on three properties no generic
//! linter checks: **determinism** (bit-identical estimates for any
//! worker count require no wall-clock, ambient entropy, or
//! iteration-order dependence inside the protocol/estimator layers),
//! **secret hygiene** (shares, MAC keys/tags, commitment openings and
//! signing keys must not leak through derived `Debug` or short-circuit
//! `==`), and **experiment-registry conformance** (the shared runner's
//! `ALL_EXPERIMENTS` registry, the scenario files, and the EXPERIMENTS.md
//! summary tables stay in lockstep).
//!
//! fairlint enforces those as rules `D1`–`D2`, `S1`–`S2`, `R1`, `R2`,
//! `R5`, plus `L1` policing its own suppression comments. What rustc
//! and clippy can check (`todo!`, stray prints, environment reads) is
//! left to the workspace lints in the root `Cargo.toml` and
//! `clippy.toml`. fairlint is a token-level analysis over a scrubbing
//! lexer ([`lexer`]) — comments and string literals are blanked before
//! matching, so prose never trips a rule — with path-scoped
//! configuration from `fairlint.toml` ([`config`]) and inline escape
//! hatches:
//!
//! ```text
//! // fairlint::allow(D1, reason = "bench-only timing, outside the boundary")
//! ```
//!
//! The reason is mandatory; a reasonless suppression is inert and
//! itself a violation.
//!
//! On top of the token pass, fairlint builds a workspace **symbol
//! index and call graph** ([`items`], [`graph`]): a scope-aware item
//! parser assigns every `fn` a qualified name
//! (`crate::module::Type::method`), and a call-edge extractor links
//! call sites to candidate definitions, marking an edge *certain* when
//! it resolves to exactly one. Three concurrency-discipline rules
//! ([`concurrency`]) traverse that graph: `C1` (no blocking operation
//! while a `Mutex`/`RwLock` guard is live, directly or one certain
//! call deep), `C2` (lock sites must be acquired in one consistent
//! order workspace-wide), and `C3` (panic-free `S2` paths must not
//! call workspace functions that can panic, transitively two calls
//! deep, modulo a proven-total allowlist). The graph itself exports via
//! `--graph json|dot` with deterministic ordering.
//!
//! Run `cargo run -p fairlint -- --list-rules` for the rule table and
//! `--explain <RULE>` for any rule's rationale and suggested fix;
//! `ci.sh` runs `--strict` plus a graph-determinism gate on every push.

pub mod concurrency;
pub mod config;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use config::Config;
pub use diag::{render_json_report, Diagnostic, Severity};
pub use graph::Graph;
pub use rules::{known_rule, RULES};
pub use source::SourceFile;
pub use workspace::Workspace;
