//! `fairlint.toml` — checked-in, path-scoped configuration.
//!
//! Parsing rides the workspace's shared TOML-subset parser
//! ([`fair_simlab::tomlish`]) in strict mode, and every key must be one
//! the schema below knows: a misspelled or retired key would otherwise
//! silently leave a rule on its default scope.

use std::io;
use std::path::Path;

use fair_simlab::tomlish::{self, ParseError};

/// Effective rule configuration: built-in defaults overridden by any
/// `fairlint.toml` at the workspace root.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates inside the determinism boundary (rule D1).
    pub boundary_crates: Vec<String>,
    /// Crates whose non-test code rule D2 (float `==`) covers.
    pub float_crates: Vec<String>,
    /// Crates holding secret-bearing types (rule S1).
    pub secret_crates: Vec<String>,
    /// Type-name suffixes that mark a type secret-bearing.
    pub secret_suffixes: Vec<String>,
    /// Extra exact type names treated as secret-bearing.
    pub extra_secret_types: Vec<String>,
    /// Workspace-relative files whose message paths rule S2 hardens.
    pub engine_paths: Vec<String>,
    /// Crates exempt from rule R2's `#![forbid(unsafe_code)]`.
    pub unsafe_allow_crates: Vec<String>,
    /// Workspace members exempt from rule R5's coverage requirement
    /// (vendored stand-ins, the linter itself, harness-side crates).
    pub r5_allow_crates: Vec<String>,
    /// Fully qualified names of proven-total functions C3 may not
    /// flag or traverse into.
    pub c3_allow_fns: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        Config {
            boundary_crates: v(&[
                "core",
                "protocols",
                "runtime",
                "crypto",
                "field",
                "circuits",
            ]),
            float_crates: v(&["core", "bench"]),
            secret_crates: v(&["crypto"]),
            secret_suffixes: v(&["Key", "Tag", "Opening", "Share", "Holding", "Secret"]),
            extra_secret_types: vec![],
            engine_paths: v(&["crates/runtime/src/engine.rs"]),
            unsafe_allow_crates: vec![],
            r5_allow_crates: vec![],
            c3_allow_fns: vec![],
        }
    }
}

impl Config {
    /// Loads `fairlint.toml` from `root`, merging over the defaults.
    /// A missing file yields the defaults; present keys replace them.
    ///
    /// # Errors
    ///
    /// An unreadable file, a malformed line, an unknown key, or a value
    /// that is not an array of strings, as `fairlint.toml:<line>: …`.
    pub fn load(root: &Path) -> io::Result<Config> {
        let src = match std::fs::read_to_string(root.join("fairlint.toml")) {
            Ok(src) => src,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Config::default()),
            Err(e) => return Err(e),
        };
        Config::parse(&src).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fairlint.toml:{}: {}", e.line, e.msg),
            )
        })
    }

    /// Parses `fairlint.toml` contents over the defaults.
    ///
    /// # Errors
    ///
    /// The first malformed line, unknown key, or non-string-array value.
    pub fn parse(src: &str) -> Result<Config, ParseError> {
        let mut cfg = Config::default();
        for item in tomlish::parse(src)? {
            let slot = match item.key.as_str() {
                "boundary.crates" => &mut cfg.boundary_crates,
                "rules.D2.crates" => &mut cfg.float_crates,
                "rules.S1.crates" => &mut cfg.secret_crates,
                "rules.S1.suffixes" => &mut cfg.secret_suffixes,
                "rules.S1.extra_types" => &mut cfg.extra_secret_types,
                "rules.S2.paths" => &mut cfg.engine_paths,
                "rules.R2.allow_crates" => &mut cfg.unsafe_allow_crates,
                "rules.R5.allow_crates" => &mut cfg.r5_allow_crates,
                "rules.C3.allow_fns" => &mut cfg.c3_allow_fns,
                key => {
                    return Err(ParseError {
                        line: item.line,
                        msg: format!("unknown key `{key}`"),
                    })
                }
            };
            let strings: Option<Vec<String>> = item
                .value
                .as_list()
                .and_then(|xs| xs.iter().map(|x| x.as_str().map(String::from)).collect());
            *slot = strings.ok_or_else(|| ParseError {
                line: item.line,
                msg: format!(
                    "`{}` must be an array of strings, not {}",
                    item.key,
                    item.value.type_name()
                ),
            })?;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_lists_bools() {
        let cfg = Config::parse(
            "# header\n[boundary]\ncrates = [\"core\", \"field\"]\n\n[rules.S1]\nsuffixes = [\"Key\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.boundary_crates, vec!["core", "field"]);
        assert_eq!(cfg.secret_suffixes, vec!["Key"]);
        // A known key holding a string or a bool is a typed error.
        for bad in ["\"core\"", "true"] {
            let err = Config::parse(&format!("[boundary]\ncrates = {bad}\n")).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.msg.contains("array of strings"), "{}", err.msg);
        }
    }

    #[test]
    fn parses_multi_line_arrays() {
        let cfg = Config::parse(
            "[rules.S2]\npaths = [\n    \"a/b.rs\",  # why a/b is in scope\n    \"c/d.rs\",\n]\n[rules.R2]\nallow_crates = [\"aio\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.engine_paths, vec!["a/b.rs", "c/d.rs"]);
        // Parsing resumes cleanly after the closing bracket.
        assert_eq!(cfg.unsafe_allow_crates, vec!["aio"]);
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let cfg = Config::parse("[rules.C3]\nallow_fns = [\"a#b\"]\n").expect("parses");
        assert_eq!(cfg.c3_allow_fns, vec!["a#b"]);
    }

    #[test]
    fn parses_integers() {
        // The integer parses, but C3's traversal depth is a constant, not
        // a key, so `depth` is rejected on its line.
        let err = Config::parse("[rules.C3]\ndepth = 3\nallow_fns = [\"a::b\"]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.msg, "unknown key `rules.C3.depth`");
    }

    #[test]
    fn apply_overrides_defaults() {
        let cfg = Config::parse("[rules.S1]\nextra_types = [\"Prg\"]\n").expect("parses");
        assert_eq!(cfg.extra_secret_types, vec!["Prg".to_string()]);
        // Untouched keys keep defaults.
        assert!(cfg.boundary_crates.contains(&"core".to_string()));
    }
}
