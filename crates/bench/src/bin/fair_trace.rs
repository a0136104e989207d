#![allow(clippy::print_stdout, clippy::print_stderr)]
//! `fair-trace` — record, replay, inspect, and rank per-trial engine
//! transcripts for the experiment suite.
//!
//! Usage:
//!   `fair-trace <COMMAND> [ARGS] [FLAGS]`
//!
//! Commands:
//!   `list`                     runnable targets (registry experiments +
//!                              protocol sweeps), named exactly as in
//!                              `reproduce --list`
//!   `record <TARGET>`          run TARGET (single job) and persist sample
//!                              transcripts under `--dir/<TARGET>/`
//!   `replay [TARGET]`          re-execute every recorded `(target, seed)`
//!                              pair and byte-diff against the recording;
//!                              nonzero exit on any divergence
//!   `show <FILE>`              print a recorded trace file (`--json` for
//!                              a structured rendering)
//!   `diff <FILE> <FILE>`       first-divergence diff of two trace files;
//!                              exit 1 if they differ
//!   `top <TARGET>`             run TARGET with stats-only tracing on
//!                              every trial and print the heaviest trials
//!
//! Flags:
//!   `--trials N`   trials per estimate (default `FAIR_TRIALS` or 1000)
//!   `--sample K`   transcripts to record / rows to print (default 4)
//!   `--dir PATH`   trace directory (default `target/simlab/trace`)
//!   `--by DIM`     `top` ranking dimension: rounds | msgs | bytes
//!   `--jobs N`     worker threads for replay/top re-execution
//!   `--json`       structured output for show/top
//!
//! Replay is jobs-independent: trial seeds are pure functions of the trial
//! index, so the recorded trial is re-selected bit-identically under any
//! `--jobs` value.

use std::path::PathBuf;

use fair_bench::runner::BASE_SEED;
use fair_bench::tracecli::{self, record, replay_file, top, trace_files, TopBy, TRACE_DIR};

fn usage() -> ! {
    eprintln!(
        "usage: fair-trace <command> [args] [flags]\n\
         commands:\n\
         \x20 list                 runnable targets\n\
         \x20 record <target>      record sample transcripts (single job)\n\
         \x20 replay [target]      re-execute and diff all recordings\n\
         \x20 show <file>          print a trace file (--json available)\n\
         \x20 diff <a> <b>         first-divergence diff of two trace files\n\
         \x20 top <target>         heaviest trials by --by rounds|msgs|bytes\n\
         flags: --trials N  --sample K  --dir PATH  --by DIM  --jobs N  --json"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct Opts {
    positional: Vec<String>,
    trials: usize,
    sample: usize,
    dir: PathBuf,
    by: TopBy,
    json: bool,
}

fn parse_opts(args: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts {
        positional: Vec::new(),
        trials: fair_bench::default_trials(),
        sample: 4,
        dir: PathBuf::from(TRACE_DIR),
        by: TopBy::Rounds,
        json: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--trials" => {
                opts.trials = match value("--trials").parse() {
                    Ok(n) if n > 0 => n,
                    _ => fail("--trials wants a positive integer"),
                }
            }
            "--sample" => {
                opts.sample = match value("--sample").parse() {
                    Ok(n) if n > 0 => n,
                    _ => fail("--sample wants a positive integer"),
                }
            }
            "--dir" => opts.dir = PathBuf::from(value("--dir")),
            "--by" => {
                let v = value("--by");
                opts.by = TopBy::parse(&v)
                    .unwrap_or_else(|| fail(&format!("--by wants rounds|msgs|bytes, got {v:?}")))
            }
            "--jobs" => match value("--jobs").parse::<usize>() {
                Ok(n) if n > 0 => fair_simlab::set_jobs(n),
                _ => fail("--jobs wants a positive integer"),
            },
            "--json" => opts.json = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
            p => opts.positional.push(p.to_string()),
        }
    }
    opts
}

fn cmd_list() {
    for (id, title) in fair_bench::experiment_listing() {
        println!("{id:<16} {title}");
    }
    for (id, title) in tracecli::PROTOCOL_TARGETS {
        println!("{id:<16} {title}");
    }
}

fn cmd_record(opts: &Opts) {
    let [target] = opts.positional.as_slice() else {
        fail("record wants exactly one target (see `fair-trace list`)");
    };
    match record(target, opts.trials, opts.sample, BASE_SEED, &opts.dir) {
        Ok(paths) => {
            for p in &paths {
                println!("{}", p.display());
            }
            eprintln!(
                "[trace] recorded {} transcript(s) of {target} ({} trials)",
                paths.len(),
                opts.trials
            );
        }
        Err(e) => fail(&e),
    }
}

fn cmd_replay(opts: &Opts) {
    let target = match opts.positional.as_slice() {
        [] => None,
        [t] => Some(t.as_str()),
        _ => fail("replay wants at most one target"),
    };
    let files = trace_files(&opts.dir, target).unwrap_or_else(|e| {
        fail(&format!(
            "cannot list {} ({e}); run `fair-trace record` first",
            opts.dir.display()
        ))
    });
    if files.is_empty() {
        fail(&format!("no .trace files under {}", opts.dir.display()));
    }
    let mut divergent = 0usize;
    for path in &files {
        match replay_file(path) {
            Ok(None) => println!("ok       {}", path.display()),
            Ok(Some(diff)) => {
                divergent += 1;
                println!("DIVERGED {}", path.display());
                println!("{diff}");
            }
            Err(e) => fail(&e),
        }
    }
    eprintln!(
        "[trace] replayed {} transcript(s), {divergent} divergent",
        files.len()
    );
    if divergent > 0 {
        std::process::exit(1);
    }
}

fn cmd_show(opts: &Opts) {
    let [path] = opts.positional.as_slice() else {
        fail("show wants exactly one trace file");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    if opts.json {
        let tf =
            tracecli::parse_trace_file(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        println!("{}", tracecli::trace_file_json(&tf).render_pretty());
    } else {
        print!("{text}");
    }
}

fn cmd_diff(opts: &Opts) {
    let [a, b] = opts.positional.as_slice() else {
        fail("diff wants exactly two trace files");
    };
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("{p}: {e}")));
    match fair_trace::diff_text(&read(a), &read(b)) {
        None => println!("identical"),
        Some(diff) => {
            println!("{diff}");
            std::process::exit(1);
        }
    }
}

fn cmd_top(opts: &Opts) {
    let [target] = opts.positional.as_slice() else {
        fail("top wants exactly one target (see `fair-trace list`)");
    };
    let entries =
        top(target, opts.trials, opts.sample, opts.by, BASE_SEED).unwrap_or_else(|e| fail(&e));
    if opts.json {
        println!(
            "{}",
            tracecli::top_json(target, opts.by, &entries).render_pretty()
        );
        return;
    }
    println!(
        "{:<18} {:>6} {:>6} {:>8} {:>11} {:>4}",
        "seed", "rounds", "msgs", "bytes", "corruptions", "bots"
    );
    for e in &entries {
        println!(
            "0x{:016x} {:>6} {:>6} {:>8} {:>11} {:>4}",
            e.seed, e.stats.rounds, e.stats.msgs, e.stats.bytes, e.stats.corruptions, e.stats.bots
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let opts = parse_opts(args);
    match cmd.as_str() {
        "list" => cmd_list(),
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "show" => cmd_show(&opts),
        "diff" => cmd_diff(&opts),
        "top" => cmd_top(&opts),
        "--help" | "-h" => usage(),
        other => fail(&format!("unknown command {other:?}")),
    }
}
