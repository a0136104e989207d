//! The experiment runner: executes experiments through the `fair-simlab`
//! scheduler with observability (progress lines, wall-clock, per-trial
//! latency) and persists structured records — `target/simlab/<exp>.json`
//! per experiment plus an aggregate suite record (`BENCH_reproduce.json`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use fair_core::progressive::Progressive;
use fair_core::RunCtx;
use fair_simlab::{ExpRecord, Observer, ReportRecord, RowRecord, SuiteRecord};
use fair_trace::capture::DEFAULT_RING;
use fair_trace::{Capture, CaptureFilter, Transcript};

use crate::table::Report;

/// Where per-experiment records are persisted, relative to the working
/// directory.
pub const RECORD_DIR: &str = "target/simlab";

/// The base seed `reproduce` runs every experiment with.
pub const BASE_SEED: u64 = 0xfa1e;

/// Transcripts sampled per experiment by `reproduce --trace`.
pub const SUITE_TRACE_SAMPLE: usize = 2;

/// Converts rendered reports into simlab's storage form.
pub fn to_report_records(reports: &[Report]) -> Vec<ReportRecord> {
    reports
        .iter()
        .map(|rep| ReportRecord {
            id: rep.id.clone(),
            title: rep.title.clone(),
            rows: rep
                .rows
                .iter()
                .map(|row| RowRecord {
                    label: row.label.clone(),
                    paper: row.paper,
                    measured: row.measured,
                    ci: row.ci,
                    pass: row.pass,
                })
                .collect(),
        })
        .collect()
}

/// Runs one experiment with metrics collection — both simlab's
/// wall-clock latency pipeline and `fair-trace`'s deterministic
/// per-protocol counters — returning the rendered reports and the
/// structured execution record. `None` for an unknown id.
pub fn run_recorded(id: &str, trials: usize, seed: u64) -> Option<(Vec<Report>, ExpRecord)> {
    run_recorded_with(id, trials, seed, None)
}

/// [`run_recorded`] with an optional adaptive precision target. When
/// `epsilon` is set, every `estimate()` call inside the experiment stops
/// once its 95% half-width reaches it, and the record carries the
/// trials-used vs trials-requested accounting in its `adaptive` block.
/// Either way the run is scoped to the `(id, seed)` tile-cache group, so a
/// process with an installed tile store reuses every full tile it has
/// already computed.
pub fn run_recorded_with(
    id: &str,
    trials: usize,
    seed: u64,
    epsilon: Option<f64>,
) -> Option<(Vec<Report>, ExpRecord)> {
    recorded(id, trials, seed, epsilon, None).map(|(reports, record, _)| (reports, record))
}

/// One recorded experiment in a fresh [`RunCtx`]: an observer printing
/// the progress line, the installed tile store scoped to `(id, seed)`,
/// progressive settings when `epsilon` is set, and `capture` if given.
/// Also returns the captured transcripts (empty without a capture).
fn recorded(
    id: &str,
    trials: usize,
    seed: u64,
    epsilon: Option<f64>,
    capture: Option<Capture>,
) -> Option<(Vec<Report>, ExpRecord, Vec<Transcript>)> {
    let ctx = RunCtx {
        observer: Some(Observer::new(Some(id))),
        capture,
        tiles: fair_tiles::Scope::installed(id, seed),
        progressive: epsilon.map(|eps| Progressive::new(eps, None)),
    };
    let observer = ctx.observer.as_ref().expect("the runner always observes");
    let (reports, wall_ms) = observer.reporting(|| {
        let t0 = Instant::now();
        let reports = crate::run_experiment(&ctx, id, trials, seed);
        (reports, t0.elapsed().as_secs_f64() * 1000.0)
    });
    let RunCtx {
        observer,
        capture,
        progressive,
        ..
    } = ctx;
    let (latency, protocols) = observer.map(Observer::finish).unwrap_or_default();
    let reports = reports?;
    let record = ExpRecord {
        id: id.to_string(),
        trials,
        seed,
        jobs: fair_simlab::effective_jobs(),
        wall_ms,
        latency,
        protocols: protocols.drain(),
        pass: reports.iter().all(Report::pass),
        adaptive: progressive.as_ref().map(Progressive::summary),
        reports: to_report_records(&reports),
    };
    let transcripts = capture.map(Capture::finish).unwrap_or_default();
    Some((reports, record, transcripts))
}

/// Options for a `reproduce` suite run, parsed from the CLI.
pub struct SuiteOptions {
    /// Experiment ids to run (in order).
    pub ids: Vec<String>,
    /// Trials per estimate.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Render tables as GitHub markdown instead of aligned text.
    pub markdown: bool,
    /// Where to write the aggregate record (`None` = don't).
    pub json: Option<PathBuf>,
    /// Capture per-experiment sample transcripts under
    /// `target/simlab/trace/<exp>/` (see `fair-trace replay`). Which
    /// trials are sampled depends on completion order, so with `--jobs`
    /// above 1 the sampled set may vary between runs; every captured
    /// transcript replays deterministically regardless.
    pub trace: bool,
    /// Adaptive precision target (`--epsilon`): when set, each estimate
    /// stops once its 95% half-width reaches it, and every record carries
    /// the trials-used vs trials-requested accounting.
    pub epsilon: Option<f64>,
}

/// Runs a suite of experiments, printing tables and progress, persisting
/// per-experiment records under [`RECORD_DIR`] and (optionally) the
/// aggregate record. Returns the suite record; `Err` carries an unknown
/// experiment id.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteRecord, String> {
    let t0 = Instant::now();
    let total = opts.ids.len();
    let mut experiments = Vec::with_capacity(total);
    for (k, id) in opts.ids.iter().enumerate() {
        let capture = opts
            .trace
            .then(|| Capture::new(CaptureFilter::FirstN(SUITE_TRACE_SAMPLE), DEFAULT_RING));
        let (reports, record, transcripts) =
            recorded(id, opts.trials, opts.seed, opts.epsilon, capture)
                .ok_or_else(|| format!("unknown experiment id: {id}"))?;
        if opts.trace {
            let dir = Path::new(crate::tracecli::TRACE_DIR);
            match crate::tracecli::write_transcripts(dir, id, opts.trials, opts.seed, &transcripts)
            {
                Ok(paths) => eprintln!(
                    "[trace] {id}: {} transcript(s) under {}/{id}/",
                    paths.len(),
                    crate::tracecli::TRACE_DIR
                ),
                Err(e) => eprintln!("warning: could not persist {id} transcripts: {e}"),
            }
        }
        for r in &reports {
            if opts.markdown {
                println!("{}", r.render_markdown());
            } else {
                println!("{}", r.render());
            }
        }
        let lat = record
            .latency
            .map(|l| format!(", per-trial latency {l}"))
            .unwrap_or_default();
        if let Some(a) = record.adaptive {
            eprintln!(
                "[simlab] {id}: adaptive ε={} spent {} of {} trials ({} of {} estimates stopped early)",
                a.epsilon, a.trials_used, a.trials_requested, a.early_stops, a.estimates,
            );
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let done = k + 1;
        let eta = if done < total {
            format!(
                ", suite ETA {:.1}s",
                elapsed / done as f64 * (total - done) as f64
            )
        } else {
            String::new()
        };
        eprintln!(
            "[simlab] {id}: {:.1}ms wall clock ({}/{total} experiments, {elapsed:.1}s elapsed{eta}){lat}",
            record.wall_ms, done,
        );
        if let Err(e) = record.write(Path::new(RECORD_DIR)) {
            eprintln!("warning: could not persist {RECORD_DIR}/{id}.json: {e}");
        }
        experiments.push(record);
    }
    let suite = SuiteRecord {
        trials: opts.trials,
        jobs: fair_simlab::effective_jobs(),
        seed: opts.seed,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        pass: experiments.iter().all(|e| e.pass),
        experiments,
    };
    if let Some(path) = &opts.json {
        match suite.write(path) {
            Ok(()) => eprintln!("[simlab] wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    // Persist whatever tiles the suite minted (no-op without a persistent
    // store installed), so the next run — or a serve instance sharing the
    // directory — starts warm.
    fair_tiles::cache::flush();
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_recorded("e99", 10, 1).is_none());
    }

    #[test]
    fn recorded_run_captures_reports_and_latency() {
        let (reports, record) = run_recorded("e1", 20, 7).expect("e1 exists");
        assert_eq!(record.id, "e1");
        assert_eq!(record.trials, 20);
        assert_eq!(reports.len(), record.reports.len());
        assert_eq!(record.pass, reports.iter().all(Report::pass));
        // estimate() fed the metrics pipeline, so latency must be present.
        let lat = record.latency.expect("latency collected");
        assert!(lat.count > 0);
        assert!(record.wall_ms > 0.0);
        // The estimator also fed the trace-metrics pipeline: one summary
        // per scenario, each accounting for every trial.
        assert!(!record.protocols.is_empty());
        for p in &record.protocols {
            assert_eq!(p.trials, 20, "{}", p.name);
            assert_eq!(p.rounds.count, 20, "{}", p.name);
            assert!(p.msgs.total > 0, "{}", p.name);
        }
    }
}
