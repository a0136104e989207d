//! The two batch workloads: `fair_bench::runner::run_suite` over a fixed
//! experiment list at `--jobs 2`, called in-process.
//!
//! Untraced, a run measures whole `run_suite` passes (as many as fit in
//! its time budget, at least one). Traced, it calls `run_suite` once per
//! experiment, each call inside a `bench.run_suite` span, so the runner's
//! own cost (everything in that span that is not the record's `wall_ms`)
//! shows per experiment while every call takes the suite's own path.
//!
//! Correctness: every claim row of every record passes, and each record's
//! canonical result document hashes to the digest pinned for its
//! `(workload, seed, experiment)` in `digests.txt`.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fair_bench::runner::{run_recorded_with, run_suite, SuiteOptions, BASE_SEED};
use fair_simlab::ExpRecord;

use crate::report::Metrics;
use crate::trace::{Span, Tracer};
use crate::{stats, Outcome, RunContext, Tally};

/// Worker count of every batch run (`reproduce --jobs 2`).
pub const JOBS: usize = 2;

/// Set-up probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 21;

/// The suite seeds a run can be given. `--seed n` selects
/// `PINNED_SEEDS[n % 8]`; the first is the repository's default seed.
/// Each has pinned result digests, so every run checks its output bytes.
pub const PINNED_SEEDS: [u64; 8] = [
    BASE_SEED,
    BASE_SEED + 1,
    BASE_SEED + 2,
    BASE_SEED + 3,
    BASE_SEED + 4,
    BASE_SEED + 5,
    BASE_SEED + 6,
    BASE_SEED + 7,
];

/// `workload seed experiment fnv1a64-of-result-document`, one per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// What a batch workload's `throughput_per_s` divides its trials by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Clock {
    /// The `run_suite` wall clock, as a user waits for it.
    Wall,
    /// This process's CPU time over `run_suite`: for a suite that keeps
    /// both workers busy, the trials' cost without the share of the
    /// cores the host's other tenants take.
    Cpu,
}

/// A batch workload: which experiments, at how many trials per estimate.
#[derive(Clone, Copy, Debug)]
pub struct BatchWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Experiment ids in suite order.
    pub ids: &'static [&'static str],
    /// Trials per estimate.
    pub trials: usize,
    /// The clock of `throughput_per_s`.
    pub clock: Clock,
}

/// Real-crypto GMW-½ and Π^Opt_nSFE estimates.
pub const PROTOCOLS: BatchWorkload = BatchWorkload {
    name: "batch_protocols",
    ids: &["e5", "e16"],
    trials: 128,
    clock: Clock::Cpu,
};

/// Cheap analytic-family estimates plus the scenario families.
pub const ANALYTIC: BatchWorkload = BatchWorkload {
    name: "batch_analytic",
    ids: &[
        "e2",
        "e3",
        "e4",
        "e12",
        "e13",
        "e15",
        "e17",
        "s_abort_heatmap",
        "s_deposit_coin",
        "s_gk_curve",
    ],
    trials: 256,
    // The suite is mostly the `Progress` join's sleeps, which cost no
    // CPU; its wall clock shows them, in steady 2 s steps.
    clock: Clock::Wall,
};

/// The experiment ids whose `bench.run_recorded_s.<id>` metrics exist.
#[cfg(test)]
pub fn all_ids() -> impl Iterator<Item = &'static str> {
    PROTOCOLS.ids.iter().chain(ANALYTIC.ids).copied()
}

/// The suite seed `--seed n` selects.
pub fn suite_seed(seed: u64) -> u64 {
    PINNED_SEEDS[(seed % PINNED_SEEDS.len() as u64) as usize]
}

/// Hex FNV-1a digest of a record's canonical result document — the same
/// bytes `fair-serve` would answer for the point.
pub fn result_digest(record: &ExpRecord) -> String {
    let doc = record.result_json().render_pretty() + "\n";
    format!("{:016x}", fair_tiles::store::fnv1a64(doc.as_bytes()))
}

fn pinned_digest(workload: &str, seed: u64, id: &str) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let hit = f.next() == Some(workload)
            && f.next().and_then(|s| s.parse::<u64>().ok()) == Some(seed)
            && f.next() == Some(id);
        hit.then(|| f.next()).flatten()
    })
}

/// Checks one record; returns a reason when it is wrong.
fn check(workload: &BatchWorkload, record: &ExpRecord) -> Option<String> {
    if !record.pass
        || record
            .reports
            .iter()
            .any(|r| r.rows.iter().any(|row| !row.pass))
    {
        return Some(format!("{}: a claim row failed", record.id));
    }
    let got = result_digest(record);
    match pinned_digest(workload.name, record.seed, &record.id) {
        Some(want) if want == got => None,
        Some(want) => Some(format!(
            "{}: result digest {got} differs from the pinned {want}",
            record.id
        )),
        None => Some(format!(
            "{}: no pinned digest for seed {}",
            record.id, record.seed
        )),
    }
}

/// Counts one checked record.
fn absorb(tally: &mut Tally, workload: &BatchWorkload, record: &ExpRecord) {
    tally.attempted += 1;
    if let Some(why) = check(workload, record) {
        eprintln!("[perfbench] incorrect: {why}");
        tally.failed += 1;
    }
}

/// `setup_s`: median over probes of spawning `reproduce --list` (process
/// start, registry build, scenario compile) until it exits.
fn setup_seconds(ctx: &RunContext) -> Result<f64, String> {
    let exe = ctx.bin_dir.join("reproduce");
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .arg("--list")
            .current_dir(&ctx.run_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let secs = t0.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("reproduce --list exited with {status}"));
        }
        samples.push(secs);
    }
    stats::median(&samples).ok_or_else(|| "no setup samples".to_string())
}

/// Estimator trials a record accounts for (the latency pipeline's count).
fn trials_of(record: &ExpRecord) -> u64 {
    record.latency.map_or(0, |l| l.count as u64)
}

/// What one pass mode measured.
struct PassTotals {
    trials: u64,
    walls_s: Vec<f64>,
    /// This process's CPU time over the passes, seconds.
    cpu_s: f64,
}

impl PassTotals {
    fn trials_per_s(&self, clock: Clock) -> f64 {
        let secs = match clock {
            Clock::Wall => self.walls_s.iter().sum::<f64>(),
            Clock::Cpu => self.cpu_s,
        };
        self.trials as f64 / secs
    }

    fn time_to_result_ms(&self) -> f64 {
        stats::median(&self.walls_s).unwrap_or(f64::NAN) * 1e3
    }
}

fn suite_options(workload: &BatchWorkload, seed: u64) -> SuiteOptions {
    SuiteOptions {
        ids: workload.ids.iter().map(|s| s.to_string()).collect(),
        trials: workload.trials,
        seed,
        markdown: false,
        json: None,
        trace: false,
        epsilon: None,
    }
}

/// Untraced passes of `run_suite` until `budget` is spent (at least one).
fn untraced_passes(
    workload: &BatchWorkload,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<PassTotals, String> {
    let opts = suite_options(workload, seed);
    let mut totals = PassTotals {
        trials: 0,
        walls_s: Vec::new(),
        cpu_s: 0.0,
    };
    let started = Instant::now();
    loop {
        let cpu0 = crate::cpu_seconds("self")?;
        let t0 = Instant::now();
        let suite = run_suite(&opts)?;
        totals.walls_s.push(t0.elapsed().as_secs_f64());
        totals.cpu_s += crate::cpu_seconds("self")? - cpu0;
        for record in &suite.experiments {
            absorb(tally, workload, record);
            totals.trials += trials_of(record);
        }
        eprintln!(
            "[perfbench] pass {}: {} trials, {:.3} s wall, {:.2} s CPU",
            totals.walls_s.len(),
            totals.trials,
            totals.walls_s.last().copied().unwrap_or(0.0),
            totals.cpu_s
        );
        let per_pass = started.elapsed() / totals.walls_s.len() as u32;
        if started.elapsed() + per_pass > budget {
            return Ok(totals);
        }
    }
}

/// One traced pass: `run_suite` once per experiment, each call in a
/// `bench.run_suite` span (the experiment's run plus the table print and
/// record write the suite does for it), all under one `bench.suite` span.
fn traced_pass(
    workload: &BatchWorkload,
    seed: u64,
    tracer: &Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<PassTotals, String> {
    let mut opts = suite_options(workload, seed);
    let cpu0 = crate::cpu_seconds("self")?;
    let suite_start = Instant::now();
    let mut children = Vec::new();
    let mut records = Vec::new();
    for id in workload.ids {
        opts.ids = vec![id.to_string()];
        let start = Instant::now();
        let suite = run_suite(&opts)?;
        let end = Instant::now();
        let span = tracer.record("bench.run_suite", start, end, None, None);
        children.push(span);
        let span_s = (end - start).as_secs_f64();
        metrics.insert(format!("bench.run_recorded_s.{id}"), span_s);
        for record in suite.experiments {
            // The record's own wall clock, placed at the span's start: the
            // estimator's share of the span (the benchmark cannot see where
            // inside the span it began, only how long it took).
            let start_ns = tracer.ns(start);
            tracer.push(Span {
                name: "core.experiment".to_string(),
                start_ns,
                end_ns: start_ns + (record.wall_ms * 1e6) as u64,
                parent: Some(span),
                request: None,
            });
            *metrics.entry("bench.runner_overhead_s".into()).or_default() +=
                span_s - record.wall_ms / 1e3;
            absorb(tally, workload, &record);
            records.push(record);
        }
    }
    let wall = suite_start.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_seconds("self")? - cpu0;
    let root = tracer.record("bench.suite", suite_start, Instant::now(), None, None);
    for child in children {
        tracer.set_parent(child, root);
    }
    record_layer_counts(&records, metrics);
    Ok(PassTotals {
        trials: records.iter().map(trials_of).sum(),
        walls_s: vec![wall],
        cpu_s,
    })
}

/// Per-layer counts read off the records: estimator trials and their
/// latency, and the engine's per-trial message, byte and round totals.
fn record_layer_counts(records: &[ExpRecord], metrics: &mut Metrics) {
    let trials: u64 = records.iter().map(trials_of).sum();
    metrics.insert("simlab.trials".into(), trials as f64);
    // Trials-weighted means of the per-record latency order statistics.
    let weighted = |pick: fn(&fair_simlab::LatencySummary) -> u64| {
        let sum: f64 = records
            .iter()
            .filter_map(|r| r.latency.as_ref())
            .map(|l| pick(l) as f64 * l.count as f64)
            .sum();
        if trials == 0 {
            0.0
        } else {
            sum / trials as f64 / 1e3
        }
    };
    metrics.insert("core.trial_p50_us".into(), weighted(|l| l.p50_ns));
    metrics.insert("core.trial_p99_us".into(), weighted(|l| l.p99_ns));
    let protos = records.iter().flat_map(|r| &r.protocols);
    let (mut n, mut msgs, mut bytes, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    for p in protos {
        n += p.trials;
        msgs += p.msgs.total;
        bytes += p.bytes.total;
        rounds += p.rounds.total;
    }
    let per = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    metrics.insert("runtime.msgs_per_trial".into(), per(msgs));
    metrics.insert("runtime.bytes_per_trial".into(), per(bytes));
    metrics.insert("runtime.rounds_per_trial".into(), per(rounds));
}

/// Runs a batch workload.
pub fn run(workload: &BatchWorkload, ctx: &RunContext) -> Result<Outcome, String> {
    fair_simlab::set_jobs(JOBS);
    let seed = suite_seed(ctx.seed);
    eprintln!(
        "[perfbench] {}: {} at {} trials, suite seed {seed}, jobs {JOBS}",
        workload.name,
        workload.ids.join(" "),
        workload.trials
    );
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let setup_s = setup_seconds(ctx)?;
    let budget = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let plain = untraced_passes(workload, seed, budget, &mut tally)?;
    metrics.insert("setup_s".into(), setup_s);
    metrics.insert("peak_rss_mb".into(), crate::peak_rss_mb("self")?);
    metrics.insert(
        "throughput_per_s".into(),
        plain.trials_per_s(workload.clock),
    );
    if ctx.trace {
        let tracer = Tracer::new();
        let traced = traced_pass(workload, seed, &tracer, &mut tally, &mut metrics)?;
        crate::layers::measure_all(ctx, &mut metrics)?;
        metrics.insert(
            "trace.delta.throughput_per_s".into(),
            traced.trials_per_s(workload.clock) - plain.trials_per_s(workload.clock),
        );
        metrics.insert(
            "trace.delta.time_to_result_ms".into(),
            traced.time_to_result_ms() - plain.time_to_result_ms(),
        );
        crate::finish_trace(ctx, &tracer, &mut metrics)?;
    }
    Ok(Outcome { tally, metrics })
}

/// Prints the digest lines of `workload` for every pinned seed (the
/// content of `digests.txt`), running each suite once.
pub fn pin(workload: &BatchWorkload) -> Result<(), String> {
    fair_simlab::set_jobs(JOBS);
    for seed in PINNED_SEEDS {
        for id in workload.ids {
            let (_, record) = run_recorded_with(id, workload.trials, seed, None)
                .ok_or_else(|| format!("unknown experiment {id}"))?;
            if !record.pass {
                eprintln!("[perfbench] {id} seed {seed}: a claim failed");
            }
            println!("{} {seed} {id} {}", workload.name, result_digest(&record));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_cycle_through_the_pinned_set() {
        assert_eq!(suite_seed(0), BASE_SEED);
        assert_eq!(suite_seed(9), BASE_SEED + 1);
        assert_eq!(suite_seed(u64::MAX), PINNED_SEEDS[7]);
    }

    #[test]
    fn the_catalogue_times_every_experiment_of_both_suites() {
        let cat = crate::report::Catalogue::load(crate::repo_root()).unwrap();
        for id in all_ids() {
            let name = format!("bench.run_recorded_s.{id}");
            assert!(cat.per_layer.iter().any(|m| m.name == name), "{name}");
        }
        // The scenario leg of the registry is exactly the analytic suite's
        // three s_* families.
        let scenarios: Vec<String> = fair_bench::scenario_exp::listing()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let ours: Vec<&str> = ANALYTIC
            .ids
            .iter()
            .copied()
            .filter(|id| id.starts_with("s_"))
            .collect();
        assert_eq!(scenarios, ours);
    }

    #[test]
    fn every_workload_point_has_a_pinned_digest() {
        for workload in [PROTOCOLS, ANALYTIC] {
            for seed in PINNED_SEEDS {
                for id in workload.ids {
                    let digest = pinned_digest(workload.name, seed, id)
                        .unwrap_or_else(|| panic!("{} {seed} {id}", workload.name));
                    assert_eq!(digest.len(), 16);
                }
            }
        }
    }
}
