//! Fixture-driven end-to-end tests: every rule fires on the offending
//! mini-workspace (`ws_bad`), every suppression/allowlist mechanism
//! silences the mirrored one (`ws_ok`), and the binary's exit codes and
//! JSON output hold their contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use fairlint::{render_json_report, Diagnostic, Workspace, RULES};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(name: &str) -> Vec<Diagnostic> {
    Workspace::load(&fixture(name))
        .expect("fixture loads")
        .analyze()
}

#[test]
fn every_rule_fires_on_ws_bad() {
    let diags = analyze("ws_bad");
    for rule in RULES {
        assert!(
            diags.iter().any(|d| d.rule == rule.id),
            "rule {} produced no diagnostic on ws_bad; got: {:#?}",
            rule.id,
            diags
        );
    }
}

#[test]
fn ws_bad_diagnostics_land_on_the_right_lines() {
    let diags = analyze("ws_bad");
    let has = |rule: &str, rel: &str, line: usize| {
        diags
            .iter()
            .any(|d| d.rule == rule && d.rel == rel && d.line == line)
    };
    assert!(has("D1", "crates/core/src/lib.rs", 8), "{diags:#?}");
    assert!(has("D2", "crates/core/src/lib.rs", 12));
    assert!(has("S1", "crates/crypto/src/lib.rs", 3));
    assert!(has("S2", "crates/runtime/src/engine.rs", 2)); // assert!
    assert!(has("S2", "crates/runtime/src/engine.rs", 3)); // .unwrap(
    assert!(has("R2", "crates/norust/src/lib.rs", 1));
    // R5 anchors on the root manifest's `members = [...]` line.
    assert!(has("R5", "Cargo.toml", 5));
    // L1: the reasonless allow and the unknown-rule allow.
    assert!(has("L1", "crates/core/src/lib.rs", 6));
    assert!(has("L1", "crates/core/src/lib.rs", 15));
    // C1: a direct blocking write under the `jobs` guard, and a call
    // one hop into a helper that does file IO.
    assert!(has("C1", "crates/runtime/src/pool.rs", 13));
    assert!(has("C1", "crates/runtime/src/pool.rs", 18));
    // C2: both directions of the jobs/done conflict, each at its
    // nested-acquisition line.
    assert!(has("C2", "crates/runtime/src/pool.rs", 23));
    assert!(has("C2", "crates/runtime/src/pool.rs", 28));
    // C3: the engine's panic-free file reaches `helpers::pick` (depth
    // 1) and `helpers::inner` via `deep` (depth 2), both flagged at
    // the root call line.
    assert!(has("C3", "crates/runtime/src/engine.rs", 9));
}

#[test]
fn ws_bad_c_rules_report_both_reach_depths() {
    let diags = analyze("ws_bad");
    let c3: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "C3")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        c3.iter().any(|m| m.contains("`runtime::helpers::pick`")),
        "{c3:?}"
    );
    assert!(
        c3.iter().any(|m| m.contains("`runtime::helpers::inner`")
            && m.contains("via `runtime::helpers::deep`")),
        "depth-2 finding should cite its call chain: {c3:?}"
    );
    let c1: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "C1")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        c1.iter()
            .any(|m| m.contains("`runtime::pool::persist`") && m.contains("file write")),
        "one-call-deep C1 should name the blocking callee: {c1:?}"
    );
}

#[test]
fn ws_bad_unscoped_member_names_the_crate() {
    let diags = analyze("ws_bad");
    let r5: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "R5")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        r5.iter().any(|m| m.contains("`norust`")),
        "R5 should flag the unscoped member: {r5:?}"
    );
    // The scoped members (bench/core/crypto/runtime under the default
    // config) are covered and stay quiet.
    assert!(!r5.iter().any(|m| m.contains("`core`")), "{r5:?}");
}

#[test]
fn ws_bad_registry_violations_cover_both_directions() {
    let diags = analyze("ws_bad");
    let r1: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "R1")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        r1.iter()
            .any(|m| m.contains("`e2`") && m.contains("EXPERIMENTS.md")),
        "{r1:?}"
    );
    assert!(r1
        .iter()
        .any(|m| m.contains("`e9`") && m.contains("not registered")));
}

#[test]
fn ws_bad_scenario_lockstep_violations_fire() {
    let diags = analyze("ws_bad");
    let has = |rel: &str, line: usize, needle: &str| {
        diags
            .iter()
            .any(|d| d.rule == "R1" && d.rel == rel && d.line == line && d.message.contains(needle))
    };
    // A valid id with no EXPERIMENTS.md row, anchored on the id line.
    assert!(
        has(
            "scenarios/orphan.toml",
            3,
            "missing from the EXPERIMENTS.md"
        ),
        "{diags:#?}"
    );
    // A file with no parseable id.
    assert!(
        has("scenarios/noid.toml", 1, "no parseable `scenario.id`"),
        "{diags:#?}"
    );
    // An id colliding with the static registry.
    assert!(
        has("scenarios/collide.toml", 3, "collides with a static"),
        "{diags:#?}"
    );
    // An md row no file declares, anchored on the row.
    assert!(
        has("EXPERIMENTS.md", 7, "no scenarios/*.toml declares it"),
        "{diags:#?}"
    );
}

#[test]
fn ws_bad_does_not_flag_test_code_or_debug_assert() {
    let diags = analyze("ws_bad");
    // The #[cfg(test)] mod in core/src/lib.rs repeats every sin.
    assert!(diags
        .iter()
        .all(|d| d.line < 18 || d.rel != "crates/core/src/lib.rs"));
    // debug_assert! in engine.rs line 4 is fine.
    assert!(!diags
        .iter()
        .any(|d| d.rel == "crates/runtime/src/engine.rs" && d.line == 4));
}

#[test]
fn ws_ok_is_fully_suppressed() {
    let diags = analyze("ws_ok");
    assert!(diags.is_empty(), "expected clean, got: {diags:#?}");
}

#[test]
fn json_report_shape() {
    let diags = analyze("ws_bad");
    let json = render_json_report(&diags);
    assert!(json.starts_with("{\"version\":1,\"count\":"));
    for key in [
        "\"rule\":",
        "\"severity\":",
        "\"path\":",
        "\"line\":",
        "\"message\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Every diagnostic appears exactly once.
    assert_eq!(json.matches("\"rule\":").count(), diags.len());
}

fn run_bin(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fairlint"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exit_codes() {
    let bad = fixture("ws_bad");
    let ok = fixture("ws_ok");
    // Report-only run: exit 0 even with violations.
    assert_eq!(run_bin(&["--root", bad.to_str().unwrap()]).0, Some(0));
    // Strict: violations are fatal...
    assert_eq!(
        run_bin(&["--root", bad.to_str().unwrap(), "--strict"]).0,
        Some(1)
    );
    // ...clean trees are not.
    assert_eq!(
        run_bin(&["--root", ok.to_str().unwrap(), "--strict"]).0,
        Some(0)
    );
    // Usage errors are 2.
    assert_eq!(run_bin(&["--no-such-flag"]).0, Some(2));
    assert_eq!(run_bin(&["--baseline", "check"]).0, Some(2));
    assert_eq!(run_bin(&["--root", "/no/such/dir"]).0, Some(2));
}

#[test]
fn binary_list_rules_names_every_rule() {
    let (code, stdout) = run_bin(&["--list-rules"]);
    assert_eq!(code, Some(0));
    for rule in RULES {
        assert!(
            stdout.contains(rule.id),
            "missing {} in:\n{stdout}",
            rule.id
        );
    }
}

#[test]
fn binary_json_flag_emits_the_report() {
    let bad = fixture("ws_bad");
    let (code, stdout) = run_bin(&["--root", bad.to_str().unwrap(), "--json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.trim_start().starts_with("{\"version\":1,"));
    assert!(stdout.contains("\"rule\":\"D1\""));
}

#[test]
fn binary_explain_covers_every_rule_and_rejects_unknown() {
    for rule in RULES {
        let (code, stdout) = run_bin(&["--explain", rule.id]);
        assert_eq!(code, Some(0), "--explain {} failed", rule.id);
        assert!(stdout.contains(rule.summary), "{stdout}");
        assert!(stdout.contains("why:"), "{stdout}");
        assert!(stdout.contains("fix:"), "{stdout}");
    }
    // Case-insensitive lookup, unknown rules are usage errors.
    assert_eq!(run_bin(&["--explain", "c1"]).0, Some(0));
    assert_eq!(run_bin(&["--explain", "Z9"]).0, Some(2));
}

#[test]
fn binary_graph_is_deterministic_and_covers_the_fixture() {
    let bad = fixture("ws_bad");
    let root = bad.to_str().unwrap();
    let (code, first) = run_bin(&["--root", root, "--graph", "json"]);
    assert_eq!(code, Some(0));
    let (_, second) = run_bin(&["--root", root, "--graph", "json"]);
    assert_eq!(first, second, "graph JSON must be byte-identical");
    assert!(first.starts_with("{\"version\":1,"));
    for needle in [
        "\"runtime::helpers::pick\"",
        "\"runtime::pool::Pool::drain\"",
        "\"what\":\"indexing\"",
        "\"what\":\"socket/file write\"",
        "\"certain\":true",
    ] {
        assert!(first.contains(needle), "missing {needle} in graph JSON");
    }
    let (code, dot) = run_bin(&["--root", root, "--graph", "dot"]);
    assert_eq!(code, Some(0));
    assert!(dot.starts_with("digraph fairlint {"));
    assert!(dot.contains("\"runtime::engine::settle\" -> \"runtime::helpers::pick\""));
    // Bad format is a usage error.
    assert_eq!(run_bin(&["--graph", "svg"]).0, Some(2));
}

#[test]
fn binary_rejects_unknown_config_keys() {
    // A stale table of a retired rule, and a misspelled `paths` that
    // would otherwise leave S2 on its default scope.
    let dir = std::env::temp_dir().join(format!("fairlint_config_keys_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let root = dir.to_str().unwrap();
    for (toml, needle) in [
        (
            "[rules.T1]\ncrates = [\"runtime\"]\n",
            "fairlint.toml:2: unknown key `rules.T1.crates`",
        ),
        (
            "[rules.S2]\n# the panic-free files\npath = [\"crates/serve/src/http.rs\"]\n",
            "fairlint.toml:3: unknown key `rules.S2.path`",
        ),
    ] {
        std::fs::write(dir.join("fairlint.toml"), toml).expect("write config");
        let out = Command::new(env!("CARGO_BIN_EXE_fairlint"))
            .args(["--root", root, "--strict"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(needle), "expected `{needle}` in: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
