//! Regression gate: fairlint on the real workspace reports zero
//! violations. Any future wall-clock read, derived Debug on key
//! material, unregistered experiment, or reasonless suppression breaks
//! this test (and `ci.sh`, which runs the binary in `--strict` mode).
//! The invariants fairlint leaves to rustc and clippy are pinned here
//! too: the lint levels, the `clippy.toml` list, and every member's
//! opt-in to the workspace lints.

use std::path::{Path, PathBuf};

use fair_simlab::tomlish::{self, Value};
use fairlint::Workspace;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    // Sanity: this really is the repo (the walker saw the whole tree).
    assert!(ws.files.len() > 100, "only {} files found", ws.files.len());
    assert!(ws.experiments_md.is_some(), "EXPERIMENTS.md missing");
    let diags = ws.analyze();
    assert!(
        diags.is_empty(),
        "fairlint found {} violation(s) in the workspace:\n{}",
        diags.len(),
        diags
            .iter()
            .map(fairlint::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_workspace_config_scopes_the_boundary() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    // fairlint.toml is checked in and actually loaded: the boundary
    // covers the protocol stack.
    for krate in [
        "core",
        "protocols",
        "runtime",
        "crypto",
        "field",
        "circuits",
    ] {
        assert!(ws.config.boundary_crates.iter().any(|c| c == krate));
    }
    assert!(ws.config.extra_secret_types.iter().any(|t| t == "Prg"));
    // The serving layer is supervised: its request parser and handler
    // are S2 (panic-free) paths, and every workspace member is either
    // scoped or deliberately allowlisted for R5.
    for path in [
        "crates/serve/src/http.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/service.rs",
    ] {
        assert!(
            ws.config.engine_paths.iter().any(|p| p == path),
            "{path} missing from rules.S2.paths"
        );
    }
    assert!(ws.config.boundary_crates.iter().any(|c| c == "sfe"));
    assert!(ws.members.iter().any(|m| m == "serve"));
    assert!(ws.config.r5_allow_crates.iter().any(|c| c == "rand"));
    // Each proven-total C3 allowlist entry names a real qualified
    // function.
    assert!(ws
        .config
        .c3_allow_fns
        .iter()
        .any(|f| f == "serve::cache::ShardedCache::shard_for"));
    let g = fairlint::graph::build(&ws);
    for allowed in &ws.config.c3_allow_fns {
        assert!(
            g.by_qname(allowed).is_some(),
            "[rules.C3] allow_fns entry `{allowed}` matches no workspace function"
        );
    }
}

#[test]
fn the_workspace_graph_covers_every_member_crate() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    let g = fairlint::graph::build(&ws);
    for member in &ws.members {
        assert!(
            g.symbols
                .iter()
                .any(|s| s.item.krate.as_deref() == Some(member)),
            "crate `{member}` contributes no symbols to the call graph"
        );
    }
    assert!(
        !g.edges.is_empty(),
        "the workspace graph resolved no call edges at all"
    );
}

#[test]
fn the_workspace_lints_cover_what_fairlint_leaves_to_clippy() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    // Root manifest: placeholders and debug macros are errors, stray
    // prints are warnings (which `-D warnings` turns into errors).
    let manifest = tomlish::parse_lenient(&read("Cargo.toml"));
    let level = |lint: &str| {
        let key = format!("workspace.lints.clippy.{lint}");
        manifest
            .iter()
            .find(|item| item.key == key)
            .and_then(|item| item.value.as_str().map(String::from))
    };
    for (lint, want) in [
        ("todo", "deny"),
        ("unimplemented", "deny"),
        ("dbg_macro", "deny"),
        ("print_stdout", "warn"),
        ("print_stderr", "warn"),
    ] {
        assert_eq!(level(lint).as_deref(), Some(want), "clippy::{lint}");
    }
    // clippy.toml: the four std::env readers are disallowed methods.
    let clippy = read("clippy.toml");
    assert!(clippy.contains("disallowed-methods = ["), "{clippy}");
    for reader in ["var", "var_os", "vars", "vars_os"] {
        let entry = format!("path = \"std::env::{reader}\"");
        assert!(clippy.contains(&entry), "clippy.toml lacks {entry}");
    }
    // The lints bind only crates that opt in: the root package and every
    // member must carry `[lints] workspace = true`.
    let ws = Workspace::load(&root).expect("workspace loads");
    let manifests = std::iter::once("Cargo.toml".to_string())
        .chain(ws.members.iter().map(|m| format!("crates/{m}/Cargo.toml")));
    for rel in manifests {
        let opted_in = tomlish::parse_lenient(&read(&rel))
            .iter()
            .any(|item| item.key == "lints.workspace" && item.value == Value::Bool(true));
        assert!(opted_in, "{rel} lacks `[lints] workspace = true`");
    }
}
