#![forbid(unsafe_code)]
//! `fair-perfbench` — one benchmark for the batch and served estimation
//! paths (see `README.md` next to this crate).
//!
//! Usage (from the root of a checkout, after `cargo build --release`):
//!   `fair-perfbench run --workload W --seed N --seconds S --trace 0|1
//!    --root DIR --bin-dir DIR`
//!   `fair-perfbench pin --workload batch_protocols|batch_analytic`
//!
//! `run` prints the result as the last line of stdout: one JSON object
//! with `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json`
//! lists for the mode (`end_to_end` untraced, `per_layer` traced). `pin`
//! prints the result-digest lines of `digests.txt`.

mod batch;
mod layers;
mod load;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{Catalogue, Metrics};

/// Everything a workload run needs to know.
pub struct RunContext {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Root of the checkout (holds `BENCHMARK.json` and `scenarios/`).
    pub root: PathBuf,
    /// Where the repository's release binaries were built.
    pub bin_dir: PathBuf,
    /// This run's private scratch directory (records, tiles, spans).
    pub run_dir: PathBuf,
}

/// Operations a run checked.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// Measured metrics by name.
    pub metrics: Metrics,
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// CPU time `/proc/<pid>` has used so far, user plus system, in seconds
/// (threads that have ended included). The kernel leaves out time the
/// host took the CPU away, so on a shared host this follows the work
/// done, not the other tenants' load.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks of 1/100 s.
    let ticks = stat
        .rsplit_once(") ")
        .map(|(_, rest)| rest.split(' ').skip(11).take(2).map(str::parse::<f64>))
        .and_then(|mut f| Some(f.next()?.ok()? + f.next()?.ok()?))
        .ok_or_else(|| format!("{path}: no utime/stime"))?;
    Ok(ticks / 100.0)
}

/// Closes a traced run: per-layer self times from the spans, and the
/// spans themselves written under the checkout's `.bench_run/spans/`.
pub fn finish_trace(
    ctx: &RunContext,
    tracer: &trace::Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    for (layer, ns) in trace::self_time_by_layer(&tracer.spans()) {
        metrics.insert(format!("self_ms.{layer}"), ns as f64 / 1e6);
    }
    let path = ctx
        .root
        .join(".bench_run/spans")
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());
    Ok(())
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: PathBuf,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (run | pin)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        root: PathBuf::from("."),
        bin_dir: PathBuf::from(".bench_build/release"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--root" => args.root = PathBuf::from(value),
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<String, String> {
    let catalogue = Catalogue::load(&args.root)?;
    if !catalogue.workloads.contains(&args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    let root = std::fs::canonicalize(&args.root).map_err(|e| format!("--root: {e}"))?;
    let run_dir = root.join(".bench_run").join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // Everything the layers write relative to the working directory
    // (per-experiment records under target/simlab) lands in the run's
    // own directory, never in the checkout's.
    std::env::set_current_dir(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let ctx = RunContext {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        trace: args.trace,
        bin_dir: root.join(&args.bin_dir),
        root,
        run_dir: run_dir.clone(),
    };
    let outcome = match args.workload.as_str() {
        "batch_protocols" => batch::run(&batch::PROTOCOLS, &ctx),
        "batch_analytic" => batch::run(&batch::ANALYTIC, &ctx),
        "serve" => serve::run(&ctx),
        other => Err(format!("workload {other:?} has no runner")),
    };
    let cleanup = std::fs::remove_dir_all(&run_dir);
    let mut outcome = outcome?;
    cleanup.map_err(|e| format!("cannot remove {}: {e}", run_dir.display()))?;
    let Tally { attempted, failed } = outcome.tally;
    let rate = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    outcome.metrics.insert("error_rate".into(), rate);
    let specs = if ctx.trace {
        // A layer a workload never calls did no work on it: zero, named.
        let idle: Vec<&str> = catalogue
            .per_layer
            .iter()
            .filter(|m| !outcome.metrics.contains_key(&m.name))
            .map(|m| m.name.as_str())
            .collect();
        eprintln!(
            "[perfbench] not exercised by this workload (0): {}",
            idle.join(" ")
        );
        for name in idle {
            outcome.metrics.insert(name.to_string(), 0.0);
        }
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    report::result_line(specs, &outcome.metrics, attempted, failed)
}

fn main() {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "run" => run(args),
        "pin" => match args.workload.as_str() {
            "batch_protocols" => batch::pin(&batch::PROTOCOLS).map(|()| String::new()),
            "batch_analytic" => batch::pin(&batch::ANALYTIC).map(|()| String::new()),
            other => Err(format!("nothing to pin for {other:?}")),
        },
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(line) if line.is_empty() => {}
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("fair-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_seconds_count_this_process_working() {
        let before = super::cpu_seconds("self").unwrap();
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed() < std::time::Duration::from_millis(300) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = super::cpu_seconds("self").unwrap() - before;
        // Clock ticks of 10 ms, and the host may take some of the time.
        assert!(used > 0.1 && used < 0.5, "{used}");
    }
}

/// The checkout root seen from this crate's sources (for tests).
#[cfg(test)]
pub fn repo_root() -> &'static std::path::Path {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}
