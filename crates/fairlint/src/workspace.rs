//! Workspace loading: walk the tree, build [`SourceFile`] models, load
//! configuration and the experiment registry's markdown side.

use std::io;
use std::path::{Path, PathBuf};

use fair_simlab::tomlish;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::rules;
use crate::source::SourceFile;

/// Directory names the walker never descends into. `fixtures` keeps
/// fairlint's own offending test inputs out of real runs.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "node_modules"];

/// A loaded workspace, ready to analyze.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Every `.rs` file found, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Effective configuration (defaults merged with `fairlint.toml`).
    pub config: Config,
    /// Raw `EXPERIMENTS.md`, when present (rule R1's third leg).
    pub experiments_md: Option<String>,
    /// Workspace member crate names (directory basenames), expanded from
    /// the root `Cargo.toml` `members` globs. Empty when the root has no
    /// workspace manifest. Rule R5's subject.
    pub members: Vec<String>,
    /// 1-based line of the `members = [...]` declaration in the root
    /// `Cargo.toml` (1 when absent) — where R5 diagnostics anchor.
    pub members_line: usize,
    /// Scenario files under `scenarios/` as `(workspace-relative path,
    /// raw contents)`, sorted by path — rule R1's scenario-dir leg.
    pub scenario_files: Vec<(String, String)>,
}

impl Workspace {
    /// Walks `root` and loads every Rust source file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking or reading files, and any
    /// `fairlint.toml` error ([`Config::load`]).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let root = root.canonicalize()?;
        let mut paths = Vec::new();
        walk(&root, &mut paths)?;
        paths.sort();
        let files = paths
            .into_iter()
            .map(|p| {
                let raw = std::fs::read_to_string(&p)?;
                Ok(SourceFile::from_contents(&root, &p, raw))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let config = Config::load(&root)?;
        let experiments_md = std::fs::read_to_string(root.join("EXPERIMENTS.md")).ok();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
        let (members, members_line) = expand_members(&root, &manifest);
        let scenario_files = load_scenarios(&root);
        Ok(Workspace {
            root,
            files,
            config,
            experiments_md,
            members,
            members_line,
            scenario_files,
        })
    }

    /// Looks a file up by workspace-relative path.
    pub fn file_by_rel(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Runs every rule; see [`rules::check_all`].
    pub fn analyze(&self) -> Vec<Diagnostic> {
        rules::check_all(self)
    }
}

/// Expands the root manifest's `[workspace] members` patterns into crate
/// names. A trailing `/*` globs over subdirectories; a directory counts
/// as a member only when it actually contains a `Cargo.toml`. The crate
/// name is the directory basename — the same attribution
/// [`SourceFile::krate`] uses, so R5 and the path-scoped rules agree.
fn expand_members(root: &Path, manifest: &str) -> (Vec<String>, usize) {
    let line = 1 + manifest
        .lines()
        .position(|l| l.trim_start().starts_with("members"))
        .unwrap_or(0);
    let patterns: Vec<String> = tomlish::parse_lenient(manifest)
        .into_iter()
        .find(|item| item.key == "workspace.members")
        .and_then(|item| {
            let items = item.value.as_list()?;
            Some(
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect(),
            )
        })
        .unwrap_or_default();
    let mut members = Vec::new();
    for pattern in &patterns {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let Ok(entries) = std::fs::read_dir(root.join(prefix)) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.path().join("Cargo.toml").is_file() {
                    members.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        } else if root.join(pattern).join("Cargo.toml").is_file() {
            if let Some(name) = Path::new(pattern).file_name() {
                members.push(name.to_string_lossy().into_owned());
            }
        }
    }
    members.sort();
    members.dedup();
    (members, line)
}

/// Reads every `scenarios/*.toml` (sorted). A missing directory is just
/// an empty set; an unreadable file is skipped — R1 checks lockstep with
/// EXPERIMENTS.md, it does not replace `fair-scenario check`.
fn load_scenarios(root: &Path) -> Vec<(String, String)> {
    let Ok(entries) = std::fs::read_dir(root.join("scenarios")) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| {
            let raw = std::fs::read_to_string(&p).ok()?;
            let name = p.file_name()?.to_string_lossy().into_owned();
            Some((format!("scenarios/{name}"), raw))
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_this_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ws = Workspace::load(root).expect("load");
        assert!(ws.files.iter().any(|f| f.rel == "src/workspace.rs"));
        // The walker never picks up fixture inputs.
        assert!(ws.files.iter().all(|f| !f.rel.contains("fixtures/")));
        // This crate's own manifest declares no workspace.
        assert!(ws.members.is_empty());
    }

    #[test]
    fn member_globs_expand_against_the_real_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let (members, line) = expand_members(&root, "[workspace]\nmembers = [\"crates/*\"]\n");
        assert_eq!(line, 2);
        for expected in ["core", "serve", "fairlint", "rand"] {
            assert!(
                members.iter().any(|m| m == expected),
                "missing {expected} in {members:?}"
            );
        }
        // Only directories holding a Cargo.toml count.
        let (none, _) = expand_members(&root, "[workspace]\nmembers = [\"docs/*\"]\n");
        assert!(none.is_empty());
        // Literal (non-glob) member paths resolve too.
        let (one, _) = expand_members(&root, "[workspace]\nmembers = [\"crates/core\"]\n");
        assert_eq!(one, vec!["core".to_string()]);
    }
}
