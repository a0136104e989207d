//! The file model: one analyzed Rust source file with its scrubbed text,
//! crate attribution, test-code spans, and suppression comments.

use std::path::{Path, PathBuf};

use crate::lexer::{scrub, Suppression};

/// A loaded, pre-analyzed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes (diagnostic key).
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Scrubbed contents (comments/strings blanked; offsets preserved).
    pub text: String,
    /// Suppression comments found in the file.
    pub suppressions: Vec<Suppression>,
    /// `Some("core")` for `crates/core/src/...`; `None` for root files.
    pub krate: Option<String>,
    /// Whether the whole file is test/bench/example code by location.
    pub is_test_path: bool,
    /// Per line (0-indexed), whether the line is inside a
    /// `#[cfg(test)]` item's brace span.
    test_lines: Vec<bool>,
}

/// The crate a workspace-relative path belongs to: `Some("core")` for
/// `crates/core/...`, `None` for files outside `crates/`.
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

impl SourceFile {
    /// Builds the model from raw contents (no I/O — callers read the
    /// file; fixtures can feed strings directly).
    pub fn from_contents(root: &Path, path: &Path, raw: String) -> SourceFile {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let scrubbed = scrub(&raw);
        let krate = crate_of(&rel).map(str::to_string);
        let is_test_path = rel.split('/').any(|seg| {
            seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures"
        });
        let test_lines = cfg_test_lines(&scrubbed.text);
        SourceFile {
            path: path.to_path_buf(),
            rel,
            raw,
            text: scrubbed.text,
            suppressions: scrubbed.suppressions,
            krate,
            is_test_path,
            test_lines,
        }
    }

    /// Whether 1-based `line` is test code (file location or
    /// `#[cfg(test)]` span).
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_path
            || self
                .test_lines
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }

    /// Whether a diagnostic for `rule` on 1-based `line` is suppressed
    /// by a valid `fairlint::allow` comment (one with a reason).
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.reason.is_some() && s.covers(line) && s.rules.iter().any(|r| r == rule))
    }

    /// Iterates scrubbed lines as `(1-based line number, text)`.
    pub fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text.lines().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// Marks lines covered by `#[cfg(test)]`-attributed items by brace
/// matching on scrubbed text (strings can't confuse the depth count).
fn cfg_test_lines(text: &str) -> Vec<bool> {
    let total = text.lines().count();
    let mut marks = vec![false; total];
    let b = text.as_bytes();
    let mut search = 0usize;
    while let Some(at) = text[search..].find("#[cfg(test)]") {
        let attr = search + at;
        search = attr + 1;
        // Find the first `{` after the attribute and match braces.
        let Some(open_rel) = text[attr..].find('{') else {
            continue;
        };
        let open = attr + open_rel;
        let mut depth = 0usize;
        let mut end = b.len();
        for (j, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let first = line_of(b, attr);
        let last = line_of(b, end);
        for l in marks.iter_mut().take(last.min(total)).skip(first - 1) {
            *l = true;
        }
        search = end.max(search);
    }
    marks
}

/// 1-based line of a byte offset.
fn line_of(b: &[u8], offset: usize) -> usize {
    1 + b[..offset.min(b.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_contents(
            Path::new("/ws"),
            Path::new(&format!("/ws/{rel}")),
            src.into(),
        )
    }

    #[test]
    fn crate_attribution_from_path() {
        assert_eq!(
            file("crates/core/src/lib.rs", "").krate.as_deref(),
            Some("core")
        );
        assert_eq!(file("src/lib.rs", "").krate, None);
        assert!(file("crates/core/tests/t.rs", "").is_test_path);
        assert!(file("examples/e.rs", "").is_test_path);
        assert!(!file("crates/core/src/lib.rs", "").is_test_path);
    }

    #[test]
    fn cfg_test_mod_lines_are_marked() {
        let f = file(
            "crates/core/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn suppression_requires_reason_to_apply() {
        let f = file(
            "crates/core/src/x.rs",
            "// fairlint::allow(D1, reason = \"ok\")\nbad();\n// fairlint::allow(D2)\nbad2();\n",
        );
        assert!(f.suppressed("D1", 2));
        assert!(!f.suppressed("D2", 4), "reasonless suppression is inert");
        assert!(!f.suppressed("D1", 4));
    }
}
