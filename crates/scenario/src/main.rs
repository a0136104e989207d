#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)] // a CLI prints its results
//! `fair-scenario` — check, list, and expand scenario files.
//!
//! ```text
//! fair-scenario check  [DIR]   validate every *.toml; nonzero exit on errors
//! fair-scenario list   [DIR]   one line per valid scenario (id, family, title)
//! fair-scenario expand [DIR]   every scenario's sweep grid, point by point
//! ```
//!
//! `DIR` defaults to `scenarios` (relative to the working directory — run
//! from the repo root). Errors always go to stderr as `file:line: error:
//! message`, one per line, so editors can jump to the offending span.

use std::path::Path;
use std::process::ExitCode;

use fair_scenario::{load_dir, DirLoad};

fn usage() -> ExitCode {
    eprintln!("usage: fair-scenario <check|list|expand> [DIR]");
    eprintln!("  DIR defaults to `scenarios`");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, dir) = match args.as_slice() {
        [cmd] => (cmd.as_str(), "scenarios"),
        [cmd, dir] => (cmd.as_str(), dir.as_str()),
        _ => return usage(),
    };
    if !matches!(cmd, "check" | "list" | "expand") {
        return usage();
    }

    let path = Path::new(dir);
    if !path.is_dir() {
        eprintln!("fair-scenario: `{dir}` is not a directory");
        return ExitCode::FAILURE;
    }
    let DirLoad { specs, errors } = load_dir(path);
    for e in &errors {
        eprintln!("{e}");
    }

    match cmd {
        "check" => {
            if errors.is_empty() {
                println!(
                    "{dir}: {} scenario{} ok",
                    specs.len(),
                    if specs.len() == 1 { "" } else { "s" }
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{dir}: {} error{}",
                    errors.len(),
                    if errors.len() == 1 { "" } else { "s" }
                );
                ExitCode::FAILURE
            }
        }
        "list" => {
            for s in &specs {
                println!("{:<20} {:<18} {}", s.id, s.family.name(), s.title);
            }
            exit_by_errors(&errors)
        }
        "expand" => {
            for s in &specs {
                let points = s.family.points();
                println!("{} ({}): {} points", s.id, s.family.name(), points.len());
                for p in points {
                    println!("  {}", p.label());
                }
            }
            exit_by_errors(&errors)
        }
        _ => usage(),
    }
}

fn exit_by_errors(errors: &[fair_scenario::ScenarioError]) -> ExitCode {
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
