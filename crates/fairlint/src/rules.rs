//! The rule set. Each rule is a pure function from the loaded
//! [`Workspace`](crate::workspace::Workspace) to diagnostics; the
//! registry below is the single source of truth for ids shown by
//! `--list-rules` and accepted by `fairlint::allow(...)`.

use crate::diag::{Diagnostic, Severity};
use crate::source::{crate_of, SourceFile};
use crate::workspace::Workspace;

/// Static description of one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable id (`D1`, `S2`, …).
    pub id: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists — shown by `--explain`.
    pub rationale: &'static str,
    /// How to fix (or legitimately silence) a finding — shown by
    /// `--explain`.
    pub fix: &'static str,
}

/// Every rule fairlint knows about.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no wall-clock, ambient entropy, or iteration-order hazards inside the determinism boundary",
        rationale: "Served and batch estimates must be bit-identical for any worker count; a single Instant::now, thread_rng, or HashMap iteration inside the protocol/estimator layers silently breaks that.",
        fix: "Route timing through fair-simlab (BatchTimer), randomness through seeded rngs, and use BTreeMap/BTreeSet. Scope the boundary in fairlint.toml [boundary] crates.",
    },
    RuleInfo {
        id: "D2",
        summary: "no direct ==/!= against float literals in estimator/statistics code (use stats::approx_eq)",
        rationale: "Exact float equality flips verdicts on rounding differences between otherwise-identical runs.",
        fix: "Compare through fair_core::stats::approx_eq / approx_zero with an explicit tolerance.",
    },
    RuleInfo {
        id: "S1",
        summary: "no derived Debug/PartialEq on secret-bearing crypto types (redact + constant-time eq)",
        rationale: "Derived Debug prints key/share material into logs and panics; derived PartialEq short-circuits, leaking positions through timing.",
        fix: "Implement a redacted Debug and constant-time equality via crypto::ct. Name secret types by suffix or exact name in fairlint.toml [rules.S1].",
    },
    RuleInfo {
        id: "S2",
        summary: "no unwrap/expect/panic in engine message-handling paths (adversarial input => typed errors)",
        rationale: "Files listed in [rules.S2] paths process adversary-controlled bytes; a panic there is a denial of service an attacker can trigger at will.",
        fix: "Return a typed error (EngineError, ParseError) instead. Add newly exposed files to [rules.S2] paths so they inherit the contract.",
    },
    RuleInfo {
        id: "R1",
        summary: "the shared-runner registry, scenario files, and EXPERIMENTS.md must agree",
        rationale: "An experiment that is registered but undocumented, or documented but unrunnable, breaks the claim-to-command mapping.",
        fix: "Add/remove the ALL_EXPERIMENTS entry (or scenarios/*.toml file) and the EXPERIMENTS.md row together.",
    },
    RuleInfo {
        id: "R2",
        summary: "every crate root carries #![forbid(unsafe_code)] (or an explicit allowlist entry)",
        rationale: "The whole workspace builds without unsafe; keeping the forbid in every crate root makes that a checked invariant instead of a habit.",
        fix: "Add #![forbid(unsafe_code)] to the crate root, or list the crate in fairlint.toml [rules.R2] allow_crates with a comment saying why.",
    },
    RuleInfo {
        id: "R5",
        summary: "every workspace member is covered by a fairlint.toml crate scope or allowlisted",
        rationale: "A crate outside every rule scope is invisible to the linter — new code would join the tree unsupervised.",
        fix: "Place the crate under a rule's scope (boundary, D2, S1, or an S2 path) or list it in [rules.R5] allow_crates with a justification comment.",
    },
    RuleInfo {
        id: "L1",
        summary: "fairlint::allow suppressions must name a known rule and carry a reason",
        rationale: "A suppression without a reason is unreviewable; one naming an unknown rule silences nothing and rots.",
        fix: "Write // fairlint::allow(RULE, reason = \"why this occurrence is sound\"). L1 itself cannot be suppressed.",
    },
    RuleInfo {
        id: "C1",
        summary: "no blocking operation (socket/file IO, recv, join, sleep) while a Mutex/RwLock guard is live",
        rationale: "A lock held across a blocking call serializes every other thread behind one slow socket or disk — the single-flight cache, worker pool, and tile store all depend on guards dying before IO starts.",
        fix: "drop(guard) before the blocking call (encode under the lock, write outside it), or move the IO out of the critical section. Checked directly and one call deep through the workspace call graph; condvar waits are exempt (they release the guard).",
    },
    RuleInfo {
        id: "C2",
        summary: "lock sites must be acquired in one consistent order workspace-wide",
        rationale: "Two threads taking the same pair of locks in opposite orders can deadlock; the conflict is invisible per-function and only appears across the workspace.",
        fix: "Pick one global acquisition order for the named sites (document it where the locks are declared) and reorder the offending function; both conflicting sites are flagged.",
    },
    RuleInfo {
        id: "C3",
        summary: "panic-free (S2) paths must not call workspace functions that can panic, transitively",
        rationale: "S2 keeps panics out of message-handling files token-by-token, but a call into a helper that unwraps or indexes re-introduces the same denial of service one hop away.",
        fix: "Return a typed error from the callee, or — for helpers that are total by construction (bounds checked, non-empty by invariant) — allowlist the qualified name in fairlint.toml [rules.C3] allow_fns. The walk follows two call hops.",
    },
];

/// Whether `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Runs every rule over the workspace, applies suppressions, and
/// returns diagnostics sorted by `(path, line, rule, message)`.
pub fn check_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &ws.files {
        check_d1(ws, f, &mut diags);
        check_d2(ws, f, &mut diags);
        check_s1(ws, f, &mut diags);
        check_s2(ws, f, &mut diags);
        check_l1(f, &mut diags);
    }
    check_r1(ws, &mut diags);
    check_r2(ws, &mut diags);
    check_r5(ws, &mut diags);

    // Concurrency discipline (C1–C3) runs over the workspace call graph
    // rather than per-file tokens.
    let graph = crate::graph::build(ws);
    crate::concurrency::check(ws, &graph, &mut diags);

    // Apply suppressions (L1 polices the suppressions themselves and is
    // not itself suppressible).
    diags.retain(|d| {
        d.rule == "L1"
            || !ws
                .file_by_rel(&d.rel)
                .is_some_and(|f| f.suppressed(d.rule, d.line))
    });
    diags.sort_by(|a, b| {
        (&a.rel, a.line, a.rule, &a.message).cmp(&(&b.rel, b.line, b.rule, &b.message))
    });
    diags
}

fn err(rule: &'static str, f: &SourceFile, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        rel: f.rel.clone(),
        line,
        message,
    }
}

/// Finds `token` in `line` at an identifier boundary. Tokens ending in
/// `(` or `!` carry their own right delimiter; otherwise the following
/// character must not continue an identifier.
fn token_hit(line: &str, token: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0usize;
    while let Some(at) = line[from..].find(token) {
        let start = from + at;
        let end = start + token.len();
        // A token beginning with `.` supplies its own left delimiter.
        let self_prefixed = !is_ident(token.as_bytes()[0]);
        let left_ok = self_prefixed || start == 0 || !is_ident(b[start - 1]);
        let self_delimited = token.ends_with('(') || token.ends_with('!');
        let right_ok = self_delimited || end >= b.len() || !is_ident(b[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// D1 — determinism boundary: no wall clock, ambient entropy, or
/// iteration-order-unstable containers in the listed crates' non-test
/// code. Timing belongs in simlab/bench/criterion.
fn check_d1(ws: &Workspace, f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const TOKENS: &[(&str, &str)] = &[
        ("Instant::now", "wall-clock read"),
        ("SystemTime", "wall-clock type"),
        ("thread_rng", "ambient entropy source"),
        ("from_entropy", "ambient entropy source"),
        ("HashMap", "iteration-order-unstable container"),
        ("HashSet", "iteration-order-unstable container"),
    ];
    let Some(krate) = &f.krate else { return };
    if !ws.config.boundary_crates.contains(krate) || f.is_test_path {
        return;
    }
    for (line_no, line) in f.lines() {
        if f.is_test_line(line_no) {
            continue;
        }
        for (token, what) in TOKENS {
            if token_hit(line, token) {
                out.push(err(
                    "D1",
                    f,
                    line_no,
                    format!(
                        "{what} `{token}` inside the determinism boundary (crate `{krate}`); \
                         route timing through fair-simlab and randomness through seeded rngs"
                    ),
                ));
            }
        }
    }
}

/// D2 — float comparisons: `==`/`!=` with a float-literal operand in
/// estimator/statistics crates. Tolerance helpers exist for a reason.
fn check_d2(ws: &Workspace, f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let Some(krate) = &f.krate else { return };
    if !ws.config.float_crates.contains(krate) || f.is_test_path {
        return;
    }
    for (line_no, line) in f.lines() {
        if f.is_test_line(line_no) {
            continue;
        }
        if line_has_float_cmp(line) {
            out.push(err(
                "D2",
                f,
                line_no,
                "direct ==/!= against a float literal; use stats::approx_eq / approx_zero \
                 so rounding cannot flip a verdict"
                    .to_string(),
            ));
        }
    }
}

/// Whether the line compares something to a float literal with ==/!=.
fn line_has_float_cmp(line: &str) -> bool {
    let b = line.as_bytes();
    for i in 0..b.len().saturating_sub(1) {
        let op = &b[i..i + 2];
        if op != b"==" && op != b"!=" {
            continue;
        }
        // Reject `<=`, `>=`, `===`-style neighbors defensively.
        if i > 0 && matches!(b[i - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if b.get(i + 2) == Some(&b'=') {
            continue;
        }
        if is_float_literal(&read_token_back(line, i))
            || is_float_literal(&read_token_fwd(line, i + 2))
        {
            return true;
        }
    }
    false
}

fn read_token_back(line: &str, end: usize) -> String {
    let b = line.as_bytes();
    let mut j = end;
    while j > 0 && b[j - 1] == b' ' {
        j -= 1;
    }
    let stop = j;
    while j > 0 && (is_ident(b[j - 1]) || b[j - 1] == b'.') {
        j -= 1;
    }
    line[j..stop].to_string()
}

fn read_token_fwd(line: &str, start: usize) -> String {
    let b = line.as_bytes();
    let mut j = start;
    while j < b.len() && b[j] == b' ' {
        j += 1;
    }
    let begin = j;
    while j < b.len() && (is_ident(b[j]) || b[j] == b'.') {
        j += 1;
    }
    line[begin..j].to_string()
}

/// `1.0`, `0.5f64`, `2.`, `3f32` — starts with a digit and has a dot or
/// float suffix.
fn is_float_literal(tok: &str) -> bool {
    let Some(first) = tok.bytes().next() else {
        return false;
    };
    first.is_ascii_digit() && (tok.contains('.') || tok.ends_with("f64") || tok.ends_with("f32"))
}

/// S1 — secret hygiene: no derived `Debug`/`PartialEq` on types whose
/// names mark them as key/share/opening material.
fn check_s1(ws: &Workspace, f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let Some(krate) = &f.krate else { return };
    if !ws.config.secret_crates.contains(krate) || f.is_test_path {
        return;
    }
    let text = &f.text;
    let mut from = 0usize;
    while let Some(at) = text[from..].find("#[derive(") {
        let start = from + at;
        from = start + 1;
        let list_start = start + "#[derive(".len();
        let Some(close) = text[list_start..].find(")]") else {
            continue;
        };
        let list = &text[list_start..list_start + close];
        let after = list_start + close;
        let Some(name) = next_type_name(&text[after..]) else {
            continue;
        };
        let line = 1 + text[..start].matches('\n').count();
        if f.is_test_line(line) || !is_secret_name(ws, &name) {
            continue;
        }
        for bad in ["Debug", "PartialEq"] {
            if list.split(',').any(|d| d.trim() == bad) {
                out.push(err(
                    "S1",
                    f,
                    line,
                    format!(
                        "derived `{bad}` on secret-bearing type `{name}`; implement a redacted \
                         Debug and constant-time equality (crypto::ct) instead"
                    ),
                ));
            }
        }
    }
}

/// The first `struct`/`enum` name after a derive attribute (skipping
/// other attributes and visibility).
fn next_type_name(text: &str) -> Option<String> {
    let window = &text[..text.len().min(400)];
    for kw in ["struct ", "enum "] {
        if let Some(at) = window.find(kw) {
            let rest = &window[at + kw.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

fn is_secret_name(ws: &Workspace, name: &str) -> bool {
    ws.config
        .secret_suffixes
        .iter()
        .any(|s| name.ends_with(s.as_str()))
        || ws.config.extra_secret_types.iter().any(|t| t == name)
}

/// S2 — panic-free message handling: the engine files process
/// adversary-controlled input and must return typed errors.
fn check_s2(ws: &Workspace, f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const TOKENS: &[&str] = &[
        ".unwrap(",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    if !ws.config.engine_paths.iter().any(|p| p == &f.rel) {
        return;
    }
    for (line_no, line) in f.lines() {
        if f.is_test_line(line_no) {
            continue;
        }
        for token in TOKENS {
            if token_hit(line, token) {
                out.push(err(
                    "S2",
                    f,
                    line_no,
                    format!(
                        "`{}` in an engine message-handling path; adversarial input must \
                         surface as a typed EngineError, not a panic",
                        token.trim_matches(|c| c == '.' || c == '(')
                    ),
                ));
            }
        }
    }
}

/// R1 — experiment-registry conformance: the `ALL_EXPERIMENTS` registry,
/// the scenario files, and EXPERIMENTS.md rows agree.
fn check_r1(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(lib) = ws.file_by_rel("crates/bench/src/lib.rs") else {
        return;
    };
    let Some((registered, reg_line)) = parse_registry(&lib.raw) else {
        out.push(err(
            "R1",
            lib,
            1,
            "crates/bench/src/lib.rs has no parseable ALL_EXPERIMENTS registry".to_string(),
        ));
        return;
    };
    let md_ids: Vec<String> = ws
        .experiments_md
        .as_deref()
        .map(experiments_md_ids)
        .unwrap_or_default();

    for id in &registered {
        if ws.experiments_md.is_some() && !md_ids.contains(id) {
            out.push(err(
                "R1",
                lib,
                reg_line,
                format!(
                    "experiment `{id}` is registered but missing from the EXPERIMENTS.md summary table"
                ),
            ));
        }
    }
    for id in &md_ids {
        if !registered.contains(id) {
            out.push(err(
                "R1",
                lib,
                reg_line,
                format!("EXPERIMENTS.md lists `{id}` but it is not registered in ALL_EXPERIMENTS"),
            ));
        }
    }

    // Scenario-dir leg: every scenarios/*.toml id must appear in the
    // EXPERIMENTS.md scenario table (and vice versa), stay inside the
    // `s_` namespace, and never collide with a static registry id.
    let raw_diag = |rel: &str, line: usize, message: String| Diagnostic {
        rule: "R1",
        severity: Severity::Error,
        rel: rel.to_string(),
        line,
        message,
    };
    let md_scenario_ids = ws
        .experiments_md
        .as_deref()
        .map(experiments_md_scenario_ids)
        .unwrap_or_default();
    let mut scenario_ids: Vec<String> = Vec::new();
    for (rel, raw) in &ws.scenario_files {
        let Some((id, line)) = scenario_file_id(raw) else {
            out.push(raw_diag(
                rel,
                1,
                "scenario file has no parseable `scenario.id` (string under [scenario])"
                    .to_string(),
            ));
            continue;
        };
        if registered.contains(&id) {
            out.push(raw_diag(
                rel,
                line,
                format!("scenario id `{id}` collides with a static ALL_EXPERIMENTS entry"),
            ));
        }
        if ws.experiments_md.is_some() && !md_scenario_ids.iter().any(|(m, _)| *m == id) {
            out.push(raw_diag(
                rel,
                line,
                format!(
                    "scenario `{id}` is missing from the EXPERIMENTS.md scenario table \
                     (`| {id} | … |` row)"
                ),
            ));
        }
        scenario_ids.push(id);
    }
    for (id, line) in &md_scenario_ids {
        if !scenario_ids.contains(id) {
            out.push(raw_diag(
                "EXPERIMENTS.md",
                *line,
                format!("EXPERIMENTS.md lists scenario `{id}` but no scenarios/*.toml declares it"),
            ));
        }
    }
}

/// Extracts `scenario.id` (and its line) from a scenario file, using the
/// same lenient TOML-subset reader the config loader uses — R1 anchors
/// lockstep diagnostics on the declaration even when the rest of the
/// file would not compile.
fn scenario_file_id(raw: &str) -> Option<(String, usize)> {
    fair_simlab::tomlish::parse_lenient(raw)
        .into_iter()
        .find_map(|item| match (item.key.as_str(), item.value) {
            ("scenario.id", fair_simlab::tomlish::Value::Str(s)) => Some((s, item.line)),
            _ => None,
        })
}

/// Scenario ids (and their 1-based lines) from `| s_… |` summary-table
/// rows in EXPERIMENTS.md. The `s_` prefix keeps these rows disjoint
/// from the `| E<k> |` rows [`experiments_md_ids`] reads.
fn experiments_md_scenario_ids(md: &str) -> Vec<(String, usize)> {
    let mut ids = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let Some(rest) = line.strip_prefix("| s_") else {
            continue;
        };
        let tail: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if tail.is_empty() {
            continue;
        }
        let id = format!("s_{tail}");
        if !ids.iter().any(|(m, _)| *m == id) {
            ids.push((id, i + 1));
        }
    }
    ids
}

/// Extracts `ALL_EXPERIMENTS` entries (and the declaration line) from
/// raw bench-lib source.
fn parse_registry(raw: &str) -> Option<(Vec<String>, usize)> {
    let at = raw.find("ALL_EXPERIMENTS")?;
    let line = 1 + raw[..at].matches('\n').count();
    // Skip the type annotation's `[&str; N]` — the id list is the
    // bracket after `=`.
    let eq = at + raw[at..].find('=')?;
    let open = eq + raw[eq..].find('[')?;
    let close = open + raw[open..].find(']')?;
    let mut ids = Vec::new();
    let body = &raw[open + 1..close];
    let mut rest = body;
    while let Some(q1) = rest.find('"') {
        let Some(q2) = rest[q1 + 1..].find('"') else {
            break;
        };
        ids.push(rest[q1 + 1..q1 + 1 + q2].to_string());
        rest = &rest[q1 + 2 + q2..];
    }
    if ids.is_empty() {
        None
    } else {
        Some((ids, line))
    }
}

/// Experiment ids (`e1`, `e2`, …) from `| E<k> |` summary-table rows.
fn experiments_md_ids(md: &str) -> Vec<String> {
    let mut ids = Vec::new();
    for line in md.lines() {
        let Some(rest) = line.strip_prefix("| E") else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() {
            let id = format!("e{digits}");
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// R2 — every crate root (and the workspace root lib) forbids unsafe.
fn check_r2(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        let is_crate_root = f.rel == "src/lib.rs"
            || (f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs"));
        if !is_crate_root {
            continue;
        }
        if let Some(k) = &f.krate {
            if ws.config.unsafe_allow_crates.contains(k) {
                continue;
            }
        }
        if !f.text.contains("#![forbid(unsafe_code)]") {
            out.push(err(
                "R2",
                f,
                1,
                "crate root lacks #![forbid(unsafe_code)] (add it or list the crate in \
                 fairlint.toml [rules.R2] allow_crates)"
                    .to_string(),
            ));
        }
    }
}

/// R5 — scope coverage: every workspace member declared in the root
/// `Cargo.toml` is named by at least one `fairlint.toml` crate scope
/// (the D1 boundary, D2 float crates, S1 secret crates, the crates of
/// S2 paths) or by the explicit `[rules.R5] allow_crates` list. New
/// crates cannot slip into the workspace unsupervised.
fn check_r5(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let cfg = &ws.config;
    let scoped = |m: &String| {
        cfg.boundary_crates.contains(m)
            || cfg.float_crates.contains(m)
            || cfg.secret_crates.contains(m)
            || cfg.engine_paths.iter().any(|p| crate_of(p) == Some(m))
            || cfg.r5_allow_crates.contains(m)
    };
    for member in &ws.members {
        if !scoped(member) {
            out.push(Diagnostic {
                rule: "R5",
                severity: Severity::Error,
                rel: "Cargo.toml".to_string(),
                line: ws.members_line,
                message: format!(
                    "workspace member `{member}` (crates/{member}) appears in no fairlint.toml \
                     crate scope; place it under a rule's scope or list it in [rules.R5] \
                     allow_crates"
                ),
            });
        }
    }
}

/// L1 — suppression hygiene: every `fairlint::allow` names known rules
/// and carries a non-empty reason.
fn check_l1(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &f.suppressions {
        if s.reason.is_none() {
            out.push(err(
                "L1",
                f,
                s.line,
                format!(
                    "suppression `fairlint::allow({})` is missing the mandatory reason = \"...\"",
                    s.raw
                ),
            ));
        }
        if s.rules.is_empty() {
            out.push(err(
                "L1",
                f,
                s.line,
                "suppression names no rule id".to_string(),
            ));
        }
        for id in &s.rules {
            if !known_rule(id) {
                out.push(err(
                    "L1",
                    f,
                    s.line,
                    format!("suppression names unknown rule `{id}`"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(token_hit("let t = Instant::now();", "Instant::now"));
        assert!(!token_hit("let t = MyInstant::nowish();", "Instant::now"));
        assert!(token_hit("x.unwrap()", ".unwrap("));
        assert!(!token_hit("x.unwrap_or(y)", ".unwrap("));
        assert!(token_hit("assert!(x)", "assert!"));
        assert!(!token_hit("debug_assert!(x)", "assert!"));
        assert!(token_hit("std::env::var(\"X\")", "env::var("));
        assert!(!token_hit("env::var_os(\"X\")", "env::var("));
    }

    #[test]
    fn float_cmp_detection() {
        assert!(line_has_float_cmp("if x == 0.0 {"));
        assert!(line_has_float_cmp("if 1.5f64 != y {"));
        assert!(line_has_float_cmp("assert(a.rate() == 0.25);"));
        assert!(!line_has_float_cmp("if n == 0 {"));
        assert!(!line_has_float_cmp("if a <= 0.5 {"));
        assert!(!line_has_float_cmp("if tuple.0 == other.0 {"));
        assert!(!line_has_float_cmp("let eq = a == b;"));
    }

    #[test]
    fn registry_parsing() {
        let (ids, line) = parse_registry(
            "//! docs\npub const ALL_EXPERIMENTS: [&str; 3] = [\n    \"e1\", \"e2\",\n    \"e10\",\n];\n",
        )
        .expect("parses");
        assert_eq!(ids, vec!["e1", "e2", "e10"]);
        assert_eq!(line, 2);
    }

    #[test]
    fn experiments_md_rows() {
        let ids = experiments_md_ids("| Exp | x |\n| E1 | a |\n| E13 | b |\n| Emp | c |\n");
        assert_eq!(ids, vec!["e1", "e13"]);
    }

    #[test]
    fn rule_ids_are_unique_and_known() {
        for r in RULES {
            assert!(known_rule(r.id));
        }
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }

    #[test]
    fn every_rule_documents_rationale_and_fix() {
        for r in RULES {
            assert!(!r.rationale.is_empty(), "{} lacks a rationale", r.id);
            assert!(!r.fix.is_empty(), "{} lacks a fix", r.id);
        }
    }

    #[test]
    fn diagnostic_order_is_total() {
        // Same (path, line, rule) still orders deterministically via the
        // message tiebreak, so shuffled inputs sort identically.
        use crate::diag::Severity;
        let mk = |line: usize, rule: &'static str, msg: &str| Diagnostic {
            rule,
            severity: Severity::Error,
            rel: "a.rs".to_string(),
            line,
            message: msg.to_string(),
        };
        let mut a = vec![
            mk(3, "C2", "site `b` then `a`"),
            mk(3, "C2", "site `a` then `b`"),
            mk(1, "D1", "x"),
        ];
        let mut b: Vec<_> = a.iter().cloned().rev().collect();
        for v in [&mut a, &mut b] {
            v.sort_by(|x, y| {
                (&x.rel, x.line, x.rule, &x.message).cmp(&(&y.rel, y.line, y.rule, &y.message))
            });
        }
        let render = |v: &[Diagnostic]| v.iter().map(|d| d.message.clone()).collect::<Vec<_>>();
        assert_eq!(render(&a), render(&b));
        assert_eq!(a[0].rule, "D1");
        assert_eq!(a[1].message, "site `a` then `b`");
    }
}
