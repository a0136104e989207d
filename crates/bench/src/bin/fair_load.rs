#![allow(clippy::print_stdout, clippy::print_stderr)]
//! `fair-load` — closed-loop load generator for a `fair-serve` instance.
//!
//! Usage:
//!   `fair-load --addr 127.0.0.1:<port> [FLAGS]`
//!   `fair-load get --addr 127.0.0.1:<port> --target /estimate?exp=e1 [--out PATH]`
//!   `fair-load shutdown --addr 127.0.0.1:<port>`
//!
//! The `get` subcommand issues one request and prints `STATUS=<code>` plus
//! `X-CACHE=<flavor>` (when the header is present) on stdout; the body
//! goes to `--out` when given (atomically), to stdout otherwise. Scripts
//! use it to probe cache warmth and compare bodies byte-for-byte across
//! server restarts.
//!
//! Flags:
//!   `--clients N`   concurrent closed-loop clients (default 4)
//!   `--connections N`  persistent keep-alive connections for the warm
//!                   phase (default 0 = fresh connection per request)
//!   `--pipeline N`  requests pipelined per batch on each persistent
//!                   connection (default 1 = strict request/reply)
//!   `--rate R`      open-loop offered rate, requests/second across all
//!                   connections (default 0 = closed loop); latency is
//!                   measured from the scheduled send instant
//!   `--server-loops N`  event loops the server under test runs (default
//!                   0 = unrecorded); with `--rate`, the benchmark
//!                   record's per-loop-count `scaling` curve gains this
//!                   run's offered-vs-achieved entry
//!   `--points N`    distinct parameter points, seeds `0..N` (default 6)
//!   `--repeat N`    warm sweeps over the point set per client (default 8)
//!   `--exp ID`      experiment to query (default `e1`)
//!   `--trials N`    trials per estimate (default 50)
//!   `--out PATH`    load record path (default `target/simlab/serve_load.json`)
//!   `--bench-out PATH`  benchmark record path (default `BENCH_serve.json`)
//!   `--check`       exit nonzero unless the run had 0 errors and a
//!                   nonzero warm cache hit rate (the CI smoke gate)
//!
//! The run is two-phase: a sequential cold sweep (each point computed
//! once), then `threads × repeat × points` warm requests that must be
//! served from the cache (threads = `--clients` in one-shot mode,
//! `--connections` otherwise). Both records carry offered/achieved rps
//! and cold/warm latency quantiles; `p50_speedup` is the cold-vs-warm
//! median ratio.

use std::net::SocketAddr;
use std::path::PathBuf;

use fair_bench::servecli::{
    bench_serve_json, load_json, run_load, LoadOptions, BENCH_SERVE_PATH, LOAD_RECORD_PATH,
};
use fair_serve::client;
use fair_simlab::json;

fn usage() -> ! {
    eprintln!(
        "usage: fair-load --addr A [--clients N] [--connections N] [--pipeline N]\n\
         \x20                [--rate R] [--server-loops N] [--points N] [--repeat N]\n\
         \x20                [--exp ID] [--trials N] [--out PATH] [--bench-out PATH]\n\
         \x20                [--check]\n\
         \x20      fair-load get --addr A --target T [--out PATH]\n\
         \x20      fair-load shutdown --addr A"
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        usage()
    });
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {flag} value {raw:?}");
        usage()
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match args.first().map(String::as_str) {
        Some(sub @ ("shutdown" | "get")) => {
            let sub = sub.to_string();
            args.remove(0);
            Some(sub)
        }
        _ => None,
    };
    let shutdown = subcommand.as_deref() == Some("shutdown");
    let single_get = subcommand.as_deref() == Some("get");

    let mut opts = LoadOptions::default();
    let mut addr: Option<SocketAddr> = None;
    let mut out = PathBuf::from(LOAD_RECORD_PATH);
    let mut out_given = false;
    let mut bench_out = PathBuf::from(BENCH_SERVE_PATH);
    let mut target: Option<String> = None;
    let mut check = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parsed("--addr", it.next())),
            "--clients" => opts.clients = parsed("--clients", it.next()),
            "--connections" => opts.connections = parsed("--connections", it.next()),
            "--pipeline" => opts.pipeline = parsed("--pipeline", it.next()),
            "--rate" => opts.rate = parsed("--rate", it.next()),
            "--server-loops" => opts.server_loops = parsed("--server-loops", it.next()),
            "--points" => opts.points = parsed("--points", it.next()),
            "--repeat" => opts.repeat = parsed("--repeat", it.next()),
            "--exp" => opts.exp = parsed("--exp", it.next()),
            "--trials" => opts.trials = parsed("--trials", it.next()),
            "--out" => {
                out = parsed("--out", it.next());
                out_given = true;
            }
            "--bench-out" => bench_out = parsed("--bench-out", it.next()),
            "--target" => target = Some(parsed("--target", it.next())),
            "--check" => check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: --addr is required");
        usage()
    };
    opts.addr = addr;

    if single_get {
        let Some(target) = target else {
            eprintln!("error: get needs --target");
            usage()
        };
        let reply = match client::get(addr, &target) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("error: {addr}{target} unreachable: {e}");
                std::process::exit(1);
            }
        };
        println!("STATUS={}", reply.status);
        if let Some(flavor) = reply.header("x-cache") {
            println!("X-CACHE={flavor}");
        }
        if out_given {
            match fair_tiles::atomic_write(&out, &reply.body) {
                Ok(()) => eprintln!("[load] wrote {}", out.display()),
                Err(e) => {
                    eprintln!("error: could not write {}: {e}", out.display());
                    std::process::exit(1);
                }
            }
        } else {
            print!("{}", String::from_utf8_lossy(&reply.body));
        }
        if reply.status != 200 {
            std::process::exit(1);
        }
        return;
    }

    if shutdown {
        match client::post(addr, "/shutdown") {
            Ok(reply) if reply.status == 200 => {
                eprintln!("[load] {addr} acknowledged shutdown");
            }
            Ok(reply) => {
                eprintln!("error: shutdown got HTTP {}", reply.status);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: shutdown unreachable: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = run_load(&opts);
    let doc = load_json(&opts, &report).render_pretty() + "\n";
    // The benchmark record accumulates the per-loop-count scaling curve
    // across runs; parse the previous record (if any) so this write
    // carries it forward.
    let previous = std::fs::read_to_string(&bench_out)
        .ok()
        .and_then(|raw| json::parse(&raw).ok());
    let bench_doc = bench_serve_json(&opts, &report, previous.as_ref()).render_pretty() + "\n";
    for (path, body) in [(&out, &doc), (&bench_out, &bench_doc)] {
        match fair_tiles::atomic_write(path, body.as_bytes()) {
            Ok(()) => eprintln!("[load] wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let offered = if report.offered_rps > 0.0 {
        format!(" (offered {:.0})", report.offered_rps)
    } else {
        String::new()
    };
    println!(
        "load[{}]: {} requests, {} errors, warm hit rate {:.0}%, {:.0} rps warm{}, \
         cold p50 {:.2}ms vs warm p50 {:.3}ms ({:.0}x)",
        report.mode,
        report.total_requests,
        report.errors,
        report.warm_hit_rate() * 100.0,
        report.warm_rps,
        offered,
        report.cold_ns.p50 as f64 / 1e6,
        report.warm_ns.p50 as f64 / 1e6,
        report.p50_speedup(),
    );
    if check && (report.errors > 0 || report.warm_hits == 0) {
        eprintln!(
            "error: --check failed ({} errors, {} warm hits)",
            report.errors, report.warm_hits
        );
        std::process::exit(1);
    }
}
