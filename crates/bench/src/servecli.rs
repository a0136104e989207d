//! Glue between the experiment registry and `fair-serve`: the
//! [`ExperimentBackend`] the `fair-serve` binary hosts, and the
//! closed-loop load generator behind `fair-load`.
//!
//! The backend renders the **deterministic result document**
//! ([`fair_simlab::result_json`]) — the same canonical subset the batch
//! runner persists — so a served body for `(exp, trials, seed)` is
//! byte-identical to the corresponding batch record, cold or cached.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fair_core::progressive::Progressive;
use fair_core::RunCtx;
use fair_serve::service::Backend;
use fair_serve::{client, Conn, HttpReply, ProgressUpdate};
use fair_simlab::json::{self, Json};
use fair_simlab::Observer;
use fair_trace::QuantileSummary;

/// Where `fair-load` persists its full run record.
pub const LOAD_RECORD_PATH: &str = "target/simlab/serve_load.json";

/// The repo-root serving benchmark record (rps + latency quantiles,
/// cold vs warm), tracked across commits like `BENCH_reproduce.json`.
pub const BENCH_SERVE_PATH: &str = "BENCH_serve.json";

/// The real registry as a serve backend. Every estimation it runs records
/// its per-protocol metrics into [`fair_serve::PROTOCOLS`], the store
/// behind `/metrics`.
pub struct ExperimentBackend;

impl Backend for ExperimentBackend {
    fn experiments(&self) -> Vec<(String, String)> {
        crate::experiment_listing()
    }

    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
        observed(exp, seed, None, |ctx| render(ctx, exp, trials, seed))
    }

    fn estimate_progressive(
        &self,
        exp: &str,
        trials: usize,
        seed: u64,
        epsilon: f64,
        emit: &mut dyn FnMut(ProgressUpdate),
    ) -> Option<String> {
        progressive_result(exp, trials, seed, epsilon, emit)
    }
}

/// Runs `f` in a backend run's context — the installed tile store scoped
/// to `(exp, seed)`, `progressive`, and an observer whose per-protocol
/// metrics move into `/metrics` afterwards — and returns its value.
fn observed<T>(
    exp: &str,
    seed: u64,
    progressive: Option<Progressive>,
    f: impl FnOnce(&RunCtx) -> T,
) -> T {
    let ctx = RunCtx {
        observer: Some(Observer::new(None)),
        tiles: fair_tiles::Scope::installed(exp, seed),
        progressive,
        ..RunCtx::default()
    };
    let out = f(&ctx);
    if let Some(observer) = ctx.observer {
        fair_serve::PROTOCOLS.absorb(observer.finish().1);
    }
    out
}

fn render(ctx: &RunCtx, exp: &str, trials: usize, seed: u64) -> Option<String> {
    let reports = crate::run_experiment(ctx, exp, trials, seed)?;
    let records = crate::runner::to_report_records(&reports);
    Some(fair_simlab::result_json(exp, trials, seed, &records).render_pretty() + "\n")
}

/// Runs `(exp, trials, seed)` and renders its canonical result document —
/// the exact bytes both the serve path and the byte-identity tests use.
/// The run is scoped to the `(exp, seed)` tile-cache group, so when a tile
/// store is installed, previously computed 64-trial tiles are reused and
/// newly computed ones are recorded.
pub fn rendered_result(exp: &str, trials: usize, seed: u64) -> Option<String> {
    let ctx = RunCtx {
        tiles: fair_tiles::Scope::installed(exp, seed),
        ..RunCtx::default()
    };
    render(&ctx, exp, trials, seed)
}

/// Runs `(exp, trials, seed)` adaptively — each `estimate()` inside the
/// experiment stops once its 95% half-width reaches `epsilon` — invoking
/// `emit` with a progress frame per tile batch. Returns the wrapper
/// document: the adaptive accounting plus the canonical result for the
/// trials actually spent. The computation runs on a worker thread so the
/// caller's `emit` (which may be writing to a live socket) observes frames
/// as they happen.
pub fn progressive_result(
    exp: &str,
    trials: usize,
    seed: u64,
    epsilon: f64,
    emit: &mut dyn FnMut(ProgressUpdate),
) -> Option<String> {
    if !crate::experiment_listing().iter().any(|(id, _)| id == exp) {
        return None;
    }
    let (tx, rx) = mpsc::channel();
    let (reports, adaptive) = std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let progressive = Progressive::new(epsilon, Some(tx));
            observed(exp, seed, Some(progressive), |ctx| {
                let reports = crate::run_experiment(ctx, exp, trials, seed);
                (reports, ctx.progressive.as_ref().map(Progressive::summary))
            })
        });
        // Relay frames while the worker runs; the channel closes when the
        // run's context (and its Sender) drops.
        for update in rx {
            emit(ProgressUpdate {
                scenario: update.scenario,
                requested: update.requested,
                trials: update.trials,
                mean: update.mean,
                ci: update.ci,
                done: update.done,
            });
        }
        worker.join().unwrap_or((None, None))
    });
    let (reports, adaptive) = (reports?, adaptive?);
    let records = crate::runner::to_report_records(&reports);
    let doc = Json::obj()
        .field("adaptive", adaptive.to_json())
        .field(
            "result",
            fair_simlab::result_json(exp, trials, seed, &records),
        )
        .canonical();
    Some(doc.render_pretty() + "\n")
}

/// Parameters of one `fair-load` run.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent closed-loop clients in the warm phase.
    pub clients: usize,
    /// Distinct parameter points (seeds `0..points`).
    pub points: usize,
    /// Warm passes over the whole point set per client.
    pub repeat: usize,
    /// Experiment id to query.
    pub exp: String,
    /// Trials per estimate.
    pub trials: usize,
    /// Persistent keep-alive connections for the warm phase. `0` keeps
    /// the legacy mode: a fresh connection per request, `clients`
    /// threads. Nonzero switches the warm phase onto `connections`
    /// long-lived sockets.
    pub connections: usize,
    /// Requests pipelined per batch on each persistent connection
    /// (ignored in the legacy mode; `1` = strict request/reply).
    pub pipeline: usize,
    /// Open-loop offered rate in requests/second across all connections.
    /// `0.0` = closed loop (each client waits for its reply). Nonzero
    /// sends on a fixed schedule regardless of reply latency, and
    /// latency is measured from the *scheduled* send time, so queueing
    /// delay under overload is not hidden (no coordinated omission).
    pub rate: f64,
    /// Event loops the *server* under test was started with (`--server-loops`).
    /// `0` = unknown/not recorded. When set on an open-loop run, the
    /// benchmark record's per-loop-count `scaling` curve gains this run's
    /// offered-vs-achieved entry (see [`bench_serve_json`]).
    pub server_loops: usize,
}

impl LoadOptions {
    /// The warm-phase mode this option set selects.
    pub fn mode(&self) -> &'static str {
        if self.rate > 0.0 {
            "openloop"
        } else if self.connections > 0 {
            "persistent"
        } else {
            "oneshot"
        }
    }
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            clients: 4,
            points: 6,
            repeat: 8,
            exp: "e1".to_string(),
            trials: 50,
            connections: 0,
            pipeline: 1,
            rate: 0.0,
            server_loops: 0,
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Which warm-phase mode ran (`oneshot`, `persistent`, `openloop`).
    pub mode: String,
    /// Latency quantiles of the cold phase (nanoseconds per request).
    pub cold_ns: QuantileSummary,
    /// Latency quantiles of the warm phase (nanoseconds per request).
    /// In open-loop mode these are measured from each request's
    /// *scheduled* send time.
    pub warm_ns: QuantileSummary,
    /// Requests that failed (transport error or non-200).
    pub errors: u64,
    /// Warm responses served from the cache (`X-Cache: hit`/`wait`).
    pub warm_hits: u64,
    /// Warm requests issued.
    pub warm_requests: u64,
    /// Warm-phase achieved throughput, requests per second.
    pub warm_rps: f64,
    /// Open-loop offered rate (`0.0` in closed-loop modes).
    pub offered_rps: f64,
    /// Total requests issued across both phases.
    pub total_requests: u64,
}

impl LoadReport {
    /// Warm cache hit rate in `[0, 1]`.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_requests == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_requests as f64
        }
    }

    /// How many times faster the warm median is than the cold median.
    pub fn p50_speedup(&self) -> f64 {
        if self.warm_ns.p50 == 0 {
            f64::INFINITY
        } else {
            self.cold_ns.p50 as f64 / self.warm_ns.p50 as f64
        }
    }
}

fn timed_get(addr: SocketAddr, target: &str) -> (u64, Option<HttpReply>) {
    let t0 = Instant::now();
    let reply = client::get(addr, target);
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, reply.ok())
}

/// Socket timeout for the warm-phase persistent connections.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// One warm worker's tally: latency samples, cache hits, errors.
type WorkerTally = (Vec<u64>, u64, u64);

fn tally_reply(
    reply: Option<&HttpReply>,
    ns: u64,
    samples: &mut Vec<u64>,
    hits: &mut u64,
    errors: &mut u64,
) {
    match reply {
        Some(r) if r.status == 200 => {
            samples.push(ns);
            if matches!(r.header("x-cache"), Some("hit") | Some("wait")) {
                *hits += 1;
            }
        }
        _ => *errors += 1,
    }
}

/// One-shot warm worker: a fresh connection per request (the legacy
/// closed-loop mode).
fn oneshot_sweep(opts: &LoadOptions, target_for: &dyn Fn(usize) -> String) -> WorkerTally {
    let mut samples = Vec::with_capacity(opts.repeat * opts.points);
    let mut hits = 0u64;
    let mut errors = 0u64;
    for _ in 0..opts.repeat {
        for seed in 0..opts.points {
            let (ns, reply) = timed_get(opts.addr, &target_for(seed));
            tally_reply(reply.as_ref(), ns, &mut samples, &mut hits, &mut errors);
        }
    }
    (samples, hits, errors)
}

/// Persistent closed-loop worker: one keep-alive connection sweeping the
/// point set `repeat` times, `pipeline` requests per batch. Per-request
/// latency is measured from the batch send, so deeper pipelines trade
/// individual latency for throughput — exactly what the mode measures.
fn persistent_sweep(opts: &LoadOptions, target_for: &dyn Fn(usize) -> String) -> WorkerTally {
    let total = opts.repeat * opts.points;
    let mut samples = Vec::with_capacity(total);
    let mut hits = 0u64;
    let mut errors = 0u64;
    let Ok(mut conn) = Conn::connect(opts.addr, CONN_TIMEOUT) else {
        return (samples, hits, total as u64);
    };
    let targets: Vec<String> = (0..total).map(|i| target_for(i % opts.points)).collect();
    let mut sent = 0usize;
    for batch in targets.chunks(opts.pipeline.max(1)) {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        if conn.send_many(&refs).is_err() {
            errors += (total - sent) as u64;
            return (samples, hits, errors);
        }
        for _ in batch {
            sent += 1;
            match conn.recv() {
                Ok(reply) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    tally_reply(Some(&reply), ns, &mut samples, &mut hits, &mut errors);
                }
                Err(_) => {
                    errors += (total - sent + 1) as u64;
                    return (samples, hits, errors);
                }
            }
        }
    }
    (samples, hits, errors)
}

/// Open-loop worker: sends on a fixed schedule over one persistent
/// connection. When the server falls behind, sends are issued as soon as
/// the connection frees up but latency still counts from the *scheduled*
/// instant — the classic coordinated-omission correction, so the report
/// shows the queueing delay an arrival-rate-faithful client would see.
fn open_loop_sweep(
    opts: &LoadOptions,
    target_for: &dyn Fn(usize) -> String,
    start: Instant,
    interval: Duration,
    phase: Duration,
) -> WorkerTally {
    let total = opts.repeat * opts.points;
    let mut samples = Vec::with_capacity(total);
    let mut hits = 0u64;
    let mut errors = 0u64;
    let Ok(mut conn) = Conn::connect(opts.addr, CONN_TIMEOUT) else {
        return (samples, hits, total as u64);
    };
    for i in 0..total {
        let scheduled = start + phase + interval.mul_f64(i as f64);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let target = target_for(i % opts.points);
        if conn.send(&target).is_err() {
            errors += (total - i) as u64;
            return (samples, hits, errors);
        }
        match conn.recv() {
            Ok(reply) => {
                let ns = scheduled.elapsed().as_nanos() as u64;
                tally_reply(Some(&reply), ns, &mut samples, &mut hits, &mut errors);
            }
            Err(_) => {
                errors += (total - i) as u64;
                return (samples, hits, errors);
            }
        }
    }
    (samples, hits, errors)
}

/// Drives the load: a sequential **cold phase** touching each point once
/// (every request a miss on a fresh server), then a concurrent **warm
/// phase** in the mode [`LoadOptions::mode`] selects:
///
/// - `oneshot` — `clients` threads, fresh connection per request,
///   closed loop (the next request waits for the previous reply).
/// - `persistent` — `connections` keep-alive sockets, optionally
///   pipelined `pipeline`-deep, closed loop per batch.
/// - `openloop` — `connections` keep-alive sockets offered a fixed
///   aggregate `rate`; achieved vs offered rate is reported.
pub fn run_load(opts: &LoadOptions) -> LoadReport {
    let target_for = |seed: usize| {
        format!(
            "/estimate?exp={}&trials={}&seed={seed}",
            opts.exp, opts.trials
        )
    };

    let mut errors = 0u64;
    let mut cold_samples = Vec::with_capacity(opts.points);
    for seed in 0..opts.points {
        let (ns, reply) = timed_get(opts.addr, &target_for(seed));
        match reply {
            Some(r) if r.status == 200 => cold_samples.push(ns),
            _ => errors += 1,
        }
    }

    let mode = opts.mode();
    let threads = match mode {
        "oneshot" => opts.clients.max(1),
        _ => opts.connections.max(1),
    };
    let interval = if opts.rate > 0.0 {
        Duration::from_secs_f64(threads as f64 / opts.rate)
    } else {
        Duration::ZERO
    };

    let warm_t0 = Instant::now();
    let per_client: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let target_for = &target_for;
                scope.spawn(move || {
                    let target_for = |seed: usize| target_for(seed);
                    match mode {
                        "persistent" => persistent_sweep(opts, &target_for),
                        "openloop" => {
                            // Stagger thread schedules so aggregate sends
                            // spread evenly instead of arriving in bursts.
                            let phase = interval.mul_f64(thread as f64 / threads as f64);
                            open_loop_sweep(opts, &target_for, warm_t0, interval, phase)
                        }
                        _ => oneshot_sweep(opts, &target_for),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((Vec::new(), 0, 1)))
            .collect()
    });
    let warm_wall_s = warm_t0.elapsed().as_secs_f64().max(1e-9);

    let mut warm_samples = Vec::new();
    let mut warm_hits = 0u64;
    let mut warm_ok = 0u64;
    for (samples, hits, errs) in per_client {
        warm_ok += samples.len() as u64;
        warm_samples.extend(samples);
        warm_hits += hits;
        errors += errs;
    }
    let warm_requests = (threads * opts.repeat * opts.points) as u64;
    LoadReport {
        mode: mode.to_string(),
        cold_ns: QuantileSummary::from_samples(cold_samples),
        warm_ns: QuantileSummary::from_samples(warm_samples),
        errors,
        warm_hits,
        warm_requests,
        warm_rps: warm_ok as f64 / warm_wall_s,
        offered_rps: opts.rate,
        total_requests: opts.points as u64 + warm_requests,
    }
}

fn quantile_fields(q: &QuantileSummary) -> Json {
    Json::obj()
        .field("count", Json::num(q.count as f64))
        .field("min_ns", Json::num(q.min as f64))
        .field("p50_ns", Json::num(q.p50 as f64))
        .field("p99_ns", Json::num(q.p99 as f64))
        .field("max_ns", Json::num(q.max as f64))
}

/// The persisted load-run document (canonical keys).
pub fn load_json(opts: &LoadOptions, report: &LoadReport) -> Json {
    Json::obj()
        .field("suite", Json::str("serve_load"))
        .field("mode", Json::str(&report.mode))
        .field("exp", Json::str(&opts.exp))
        .field("trials", Json::num(opts.trials as f64))
        .field("clients", Json::num(opts.clients as f64))
        .field("connections", Json::num(opts.connections as f64))
        .field("pipeline", Json::num(opts.pipeline as f64))
        .field("points", Json::num(opts.points as f64))
        .field("repeat", Json::num(opts.repeat as f64))
        .field("errors", Json::num(report.errors as f64))
        .field("total_requests", Json::num(report.total_requests as f64))
        .field("warm_requests", Json::num(report.warm_requests as f64))
        .field("warm_hits", Json::num(report.warm_hits as f64))
        .field("warm_hit_rate", Json::Num(report.warm_hit_rate()))
        .field("offered_rps", Json::Num(round1(report.offered_rps)))
        .field("achieved_rps", Json::Num(round1(report.warm_rps)))
        .field("warm_rps", Json::Num(round1(report.warm_rps)))
        .field("p50_speedup", Json::Num(round1(report.p50_speedup())))
        .field("server_loops", Json::num(opts.server_loops as f64))
        .field("cold", quantile_fields(&report.cold_ns))
        .field("warm", quantile_fields(&report.warm_ns))
        .canonical()
}

/// One point of the per-loop-count scaling curve: how the achieved rate
/// tracked the offered rate when the server ran `loops` event loops.
fn scaling_entry(opts: &LoadOptions, report: &LoadReport) -> Json {
    Json::obj()
        .field("loops", Json::num(opts.server_loops as f64))
        .field("offered_rps", Json::Num(round1(report.offered_rps)))
        .field("achieved_rps", Json::Num(round1(report.warm_rps)))
        .field("errors", Json::num(report.errors as f64))
        .field("warm_p50_ns", Json::num(report.warm_ns.p50 as f64))
        .field("warm_p99_ns", Json::num(report.warm_ns.p99 as f64))
}

/// The benchmark record (`BENCH_serve.json`): this run's load document,
/// plus a `scaling` array accumulated *across* runs — one entry per
/// server loop count, recording the open-loop offered-vs-achieved curve.
///
/// `previous` is the parsed prior record (if any): its `scaling` entries
/// are always carried forward, so the headline run re-written last does
/// not erase the curve. When this run was open-loop against a server with
/// a known loop count (`--server-loops`), its entry replaces the one with
/// the same `loops` value; entries stay sorted by `loops`.
pub fn bench_serve_json(opts: &LoadOptions, report: &LoadReport, previous: Option<&Json>) -> Json {
    let entry_loops = |entry: &Json| match json::get(entry, "loops") {
        Some(Json::Num(n)) => *n,
        _ => -1.0,
    };
    let mut scaling: Vec<Json> = match previous.and_then(|doc| json::get(doc, "scaling")) {
        Some(Json::Arr(entries)) => entries.clone(),
        _ => Vec::new(),
    };
    if opts.mode() == "openloop" && opts.server_loops > 0 {
        let fresh = scaling_entry(opts, report);
        scaling.retain(|entry| entry_loops(entry) != opts.server_loops as f64);
        scaling.push(fresh);
    }
    scaling.sort_by(|a, b| entry_loops(a).total_cmp(&entry_loops(b)));
    let doc = load_json(opts, report);
    if scaling.is_empty() {
        doc
    } else {
        doc.field("scaling", Json::Arr(scaling)).canonical()
    }
}

fn round1(x: f64) -> f64 {
    if x.is_finite() {
        (x * 10.0).round() / 10.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_serves_the_registry_listing() {
        let listing = ExperimentBackend.experiments();
        assert_eq!(
            listing.len(),
            crate::ALL_EXPERIMENTS.len() + crate::scenario_exp::specs().len()
        );
        assert_eq!(listing[0].0, "e1");
        assert!(ExperimentBackend.estimate("e99", 10, 1).is_none());
    }

    #[test]
    fn rendered_result_matches_the_batch_record_document() {
        let body = rendered_result("e1", 15, 7).expect("e1 exists");
        let (_, record) = crate::runner::run_recorded("e1", 15, 7).expect("e1 exists");
        assert_eq!(body, record.result_json().render_pretty() + "\n");
    }

    #[test]
    fn load_report_derives_rates_safely() {
        let report = LoadReport {
            mode: "persistent".to_string(),
            cold_ns: QuantileSummary::from_samples(vec![1000, 2000]),
            warm_ns: QuantileSummary::from_samples(vec![100]),
            errors: 0,
            warm_hits: 9,
            warm_requests: 10,
            warm_rps: 123.4,
            offered_rps: 0.0,
            total_requests: 12,
        };
        assert!((report.warm_hit_rate() - 0.9).abs() < 1e-12);
        assert!((report.p50_speedup() - 20.0).abs() < 1e-12);
        let doc = load_json(&LoadOptions::default(), &report).render();
        assert!(doc.contains("\"warm_hit_rate\":0.9"));
        assert!(doc.contains("\"mode\":\"persistent\""));
        assert!(doc.contains("\"achieved_rps\":123.4"));
    }

    #[test]
    fn bench_record_accumulates_a_scaling_curve_across_runs() {
        let report = |offered: f64, achieved: f64| LoadReport {
            mode: "openloop".to_string(),
            cold_ns: QuantileSummary::from_samples(vec![1000]),
            warm_ns: QuantileSummary::from_samples(vec![100, 200]),
            errors: 0,
            warm_hits: 10,
            warm_requests: 10,
            warm_rps: achieved,
            offered_rps: offered,
            total_requests: 12,
        };
        let opts = |loops: usize| LoadOptions {
            rate: 5000.0,
            connections: 2,
            server_loops: loops,
            ..LoadOptions::default()
        };

        // Three open-loop runs at different loop counts, out of order:
        // each upserts its own entry and carries the others forward.
        let one = bench_serve_json(&opts(1), &report(5000.0, 4800.0), None);
        let four = bench_serve_json(&opts(4), &report(5000.0, 4990.0), Some(&one));
        let two = bench_serve_json(&opts(2), &report(5000.0, 4900.0), Some(&four));
        let Some(Json::Arr(curve)) = json::get(&two, "scaling") else {
            panic!("scaling array present");
        };
        let loops: Vec<f64> = curve
            .iter()
            .map(|e| match json::get(e, "loops") {
                Some(Json::Num(n)) => *n,
                _ => panic!("entry has loops"),
            })
            .collect();
        assert_eq!(loops, vec![1.0, 2.0, 4.0], "entries sorted by loop count");

        // Re-running a loop count replaces its entry instead of duplicating.
        let again = bench_serve_json(&opts(2), &report(6000.0, 5500.0), Some(&two));
        let Some(Json::Arr(curve)) = json::get(&again, "scaling") else {
            panic!("scaling array present");
        };
        assert_eq!(curve.len(), 3);
        let entry = curve
            .iter()
            .find(|e| json::get(e, "loops") == Some(&Json::Num(2.0)))
            .expect("loops=2 entry");
        assert_eq!(json::get(entry, "offered_rps"), Some(&Json::Num(6000.0)));

        // A closed-loop headline run (no --server-loops) still carries the
        // whole curve forward, adding nothing.
        let headline = LoadOptions {
            connections: 2,
            ..LoadOptions::default()
        };
        let final_doc = bench_serve_json(&headline, &report(0.0, 7000.0), Some(&again));
        let Some(Json::Arr(carried)) = json::get(&final_doc, "scaling") else {
            panic!("scaling carried forward");
        };
        assert_eq!(carried.len(), 3);

        // And with no history and no loop count, there is no scaling key.
        let bare = bench_serve_json(&headline, &report(0.0, 7000.0), None);
        assert!(json::get(&bare, "scaling").is_none());
    }

    #[test]
    fn mode_selection_follows_rate_then_connections() {
        let mut opts = LoadOptions::default();
        assert_eq!(opts.mode(), "oneshot");
        opts.connections = 4;
        assert_eq!(opts.mode(), "persistent");
        opts.rate = 1000.0;
        assert_eq!(opts.mode(), "openloop");
    }
}
