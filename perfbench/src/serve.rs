//! The `serve` workload: `fair-serve --loops 1 --workers 1` processes,
//! each with a fresh tile directory.
//!
//! - **Hot phase**: requests cycle over a pre-warmed set of points from
//!   several experiments; the serving core does all the work. A
//!   closed-loop capacity run of fixed pipelined bursts on several fresh
//!   servers gives requests served per second of server CPU time; in
//!   traced runs, a fixed rate ladder driven open loop by [`crate::load`]
//!   and climbed past saturation gives the latencies and the highest
//!   sustained rung.
//! - **Cold phase**: a fixed low rate of misses on cheap experiments,
//!   mixing new seeds (tile writes), grown `trials` for earlier points
//!   (tile reads plus tail compute), duplicates sent together with their
//!   original (single-flight), and more distinct keys than the 128-entry
//!   result cache, so revisited early points come back from the tiles.
//!
//! Every `200` body must equal `servecli::rendered_result` for the same
//! point, computed in this process before the server starts. Wrong bytes,
//! non-200s (429/503 included) and transport errors all count as failed.
//!
//! A traced run measures the untraced servers first, then repeats the
//! ladder, the cold phase and the capacity run against fresh spawned
//! servers with the generator recording spans live (so traced minus
//! untraced is the cost of tracing on the same path), and last hosts the
//! server in-process behind a timing wrapper around the experiment
//! backend for the cold phase alone, to split cold latency into compute
//! and the rest.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fair_bench::servecli::{rendered_result, ExperimentBackend};
use fair_serve::service::Backend;
use fair_serve::{client, ProgressUpdate, Server, ServerConfig};
use fair_simlab::json::{self, Json};

use crate::load::{self, Planned, Sample};
use crate::report::Metrics;
use crate::stats::{self, P90};
use crate::trace::Tracer;
use crate::{Outcome, RunContext, Tally};

/// The rate ladder of the hot phase, requests per second: coarse up to
/// 80k/s, then steps of about 12% to past what one event loop and the
/// generator serve together on a 2-core host (120k–280k/s, with the
/// host's other load), so the highest sustained rung is set by the server.
pub const LADDER: [f64; 19] = [
    2_000.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0, 90_000.0, 100_000.0,
    112_000.0, 125_000.0, 140_000.0, 157_000.0, 176_000.0, 197_000.0, 220_000.0, 247_000.0,
    276_000.0, 310_000.0,
];
/// The rung whose latencies are reported as the warm figures.
pub const NOMINAL_RPS: f64 = 5_000.0;
/// A rung is sustained when its warm p99 is at most this, and its last
/// reply came at most this long after its last scheduled send.
pub const P99_LIMIT_MS: f64 = 25.0;

/// Pre-warmed hot points: `(experiment, trials)`, two seeds each.
const HOT: [(&str, usize); 6] = [
    ("e2", 128),
    ("e3", 128),
    ("e4", 128),
    ("e13", 128),
    ("e15", 128),
    ("s_deposit_coin", 128),
];
/// Cheap experiments the cold phase misses on: a static and a
/// scenario-derived one of similar cost (about 10 ms per 64-trial tile on
/// one worker), so cold latency has one compute mode, not several.
const COLD_EXPS: [&str; 2] = ["e15", "s_deposit_coin"];
/// Trials of a new cold point (one full tile); grown points double it.
const COLD_TRIALS: usize = 64;
/// Cold requests: enough for ten samples beyond p90, and — at three new
/// keys per five requests — well over the result cache's 128 entries.
const COLD_REQUESTS: usize = 300;
/// Cold-phase offered rate, requests per second.
const COLD_RPS: f64 = 40.0;
/// Slot groups between a point's creation and its evicted revisit.
const REVISIT_LAG: usize = 50;
/// Server set-up probes per run (the run's own server is one more).
const SETUP_PROBES: usize = 40;
/// Climbs of the ladder per pass; `sustained_rps` is the median of their
/// results. The first starts at the bottom, the others at [`RECLIMB_FROM`].
const CLIMBS: usize = 3;
/// Where the second and later climbs start, requests per second.
const RECLIMB_FROM: f64 = 40_000.0;
/// Consecutive unsustained rungs, from the nominal one on, that end a
/// climb: one alone may be a host hiccup.
const CLIMB_MISSES: usize = 2;
/// About how many rungs a pass runs on a 2-core host (a whole climb and
/// two from [`RECLIMB_FROM`]); the ladder gets what `--seconds` leaves
/// after the fixed-length cold phase, split over these.
const RUNGS_PER_PASS: u32 = 36;
/// Shortest hot rung.
const MIN_RUNG: Duration = Duration::from_millis(250);
/// Requests per burst of the capacity phase: sent in one write, and under
/// the server's 64-request pipeline cap, so the server parses a whole
/// burst on one readiness event.
const BURST: usize = 32;
/// Fresh servers the capacity phase measures, one after another. The
/// rate one server process serves per CPU second settles at a level that
/// differs from process to process (170k to 260k/s within one minute on
/// a 2-vCPU host, with address-space randomisation off too), so the
/// figure pools several processes, half of them on each of two CPUs.
const CAPACITY_SERVERS: usize = 12;
/// Unmeasured rounds of bursts before a capacity server's first window.
const CAPACITY_WARMUP: usize = 100;
/// Windows measured on each capacity server; `throughput_per_s` is the
/// median of all of them, so a host hiccup spoils a window, not the
/// figure.
const CAPACITY_WINDOWS: usize = 4;
/// Wall-clock length of one capacity window.
const CAPACITY_WINDOW: Duration = Duration::from_millis(200);

/// An `(experiment, trials, seed)` point.
type Key = (&'static str, usize, u64);

/// One point with its reference body.
#[derive(Clone)]
struct Point {
    key: Key,
    body: Arc<Vec<u8>>,
}

impl Point {
    fn target(&self) -> String {
        let (exp, trials, seed) = self.key;
        format!("/estimate?exp={exp}&trials={trials}&seed={seed}")
    }
}

fn derive_seed(seed: u64, index: u64) -> u64 {
    fair_simlab::trial_seed(seed, index) & 0xffff_ffff
}

/// The hot points for `seed`: two seeds per hot experiment.
fn hot_keys(seed: u64) -> Vec<Key> {
    (0..HOT.len() * 2)
        .map(|k| {
            let (exp, trials) = HOT[k / 2];
            (exp, trials, derive_seed(seed, k as u64))
        })
        .collect()
}

/// The cold schedule for `seed`: per five slots, two new points, one
/// earlier point grown to twice the trials, the previous request again at
/// the same instant, and a revisit. A revisit before slot group
/// [`REVISIT_LAG`] repeats the latest new point (a result-cache hit);
/// from then on it repeats the point created `REVISIT_LAG` groups
/// earlier, which more distinct keys than the cache holds have passed.
fn cold_keys(seed: u64) -> Vec<(Key, Duration)> {
    let interval = Duration::from_secs_f64(1.0 / COLD_RPS);
    let mut created: Vec<(&'static str, u64)> = Vec::new();
    let mut out: Vec<(Key, Duration)> = Vec::with_capacity(COLD_REQUESTS);
    for i in 0..COLD_REQUESTS {
        let at = interval * i as u32;
        let group = i / 5;
        let key = match i % 5 {
            0 | 1 => {
                let exp = COLD_EXPS[created.len() % COLD_EXPS.len()];
                let s = derive_seed(seed ^ 0xc01d, i as u64);
                created.push((exp, s));
                (exp, COLD_TRIALS, s)
            }
            2 => {
                let (exp, s) = created[created.len().saturating_sub(4)];
                (exp, 2 * COLD_TRIALS, s)
            }
            3 => {
                let &(prev, prev_at) = out.last().expect("a previous request");
                out.push((prev, prev_at));
                continue;
            }
            _ => {
                let (exp, s) = match group.checked_sub(REVISIT_LAG) {
                    Some(old) => created[old],
                    None => created[created.len() - 1],
                };
                (exp, COLD_TRIALS, s)
            }
        };
        out.push((key, at));
    }
    out
}

/// The run's inputs, all derived from `--seed`, with reference bodies.
struct Plan {
    hot: Vec<Point>,
    /// Cold requests in order with their send offsets.
    cold: Vec<(Point, Duration)>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let hot = hot_keys(seed);
        let cold = cold_keys(seed);
        let bodies = reference_bodies(hot.iter().chain(cold.iter().map(|(k, _)| k)));
        let point = |key: &Key| Point {
            key: *key,
            body: Arc::clone(&bodies[key]),
        };
        Plan {
            hot: hot.iter().map(point).collect(),
            cold: cold.iter().map(|(k, at)| (point(k), *at)).collect(),
        }
    }

    fn distinct_cold(&self) -> usize {
        let mut keys: Vec<Key> = self.cold.iter().map(|(p, _)| p.key).collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

/// `servecli::rendered_result` for every distinct key, on two threads,
/// before any tile store is installed in this process.
fn reference_bodies<'a>(keys: impl Iterator<Item = &'a Key>) -> HashMap<Key, Arc<Vec<u8>>> {
    let mut distinct: Vec<Key> = keys.copied().collect();
    distinct.sort();
    distinct.dedup();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(exp, trials, seed)) = distinct.get(i) else {
                    break;
                };
                let body = rendered_result(exp, trials, seed).unwrap_or_default();
                done.lock()
                    .expect("reference store")
                    .insert((exp, trials, seed), Arc::new(body.into_bytes()));
            });
        }
    });
    done.into_inner().expect("reference store")
}

/// A spawned `fair-serve`, shut down (or killed) and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns the server and waits for its first `/healthz` 200; returns
    /// it with the seconds that took.
    fn start(bin_dir: &Path, tiles: &Path, cwd: &Path) -> Result<(ServerProc, f64), String> {
        let exe = bin_dir.join("fair-serve");
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--addr", "127.0.0.1:0", "--loops", "1", "--workers", "1"])
            .arg("--tiles-dir")
            .arg(tiles)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let port = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("fair-serve exited before printing its port".into());
            }
            if let Some(p) = line.trim().strip_prefix("PORT=") {
                break p
                    .parse::<u16>()
                    .map_err(|e| format!("bad port {p:?}: {e}"))?;
            }
        };
        let server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            _stdout: stdout,
        };
        wait_healthy(server.addr)?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Run time of the process's live threads so far, ns, with the
    /// thread ids it sums: each thread's scheduler clock (its
    /// `schedstat`), which leaves out time the host took the CPU away.
    /// Two reads are comparable only when they cover the same threads.
    fn thread_cpu_ns(&self) -> Result<(u64, Vec<String>), String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut tids: Vec<String> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|e| Some(e.ok()?.file_name().to_str()?.to_string()))
            .collect();
        tids.sort();
        let mut ns = 0;
        for tid in &tids {
            let path = format!("{dir}/{tid}/schedstat");
            let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("{path}: no run time"))?;
        }
        Ok((ns, tids))
    }

    /// Graceful shutdown; returns the process's peak RSS in MiB.
    fn stop(mut self) -> Result<f64, String> {
        let rss = crate::peak_rss_mb(&self.child.id().to_string());
        let _ = client::post(self.addr, "/shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return rss;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("fair-serve did not stop within 10 s of /shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if client::get(addr, "/healthz").is_ok_and(|r| r.status == 200) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Err(format!("no /healthz 200 from {addr} within 30 s"))
}

/// Counts one phase's requests, each failed unless it got a `200` with
/// the right bytes.
fn absorb(tally: &mut Tally, phase: &str, samples: &[Sample]) {
    let bad: Vec<&Sample> = samples.iter().filter(|s| !s.ok()).collect();
    tally.attempted += samples.len() as u64;
    tally.failed += bad.len() as u64;
    if let Some(first) = bad.first() {
        eprintln!(
            "[perfbench] {phase}: {} of {} requests failed (first: status {}, body ok {})",
            bad.len(),
            samples.len(),
            first.status,
            first.body_ok
        );
    }
}

/// Windows a rung is split into; its p99 is the median of theirs.
const RUNG_WINDOWS: usize = 5;

/// One rung of the hot ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate.
    pub offered: f64,
    /// Completed replies per second over the rung.
    pub achieved: f64,
    /// Median latency, ms from scheduled send.
    pub p50_ms: f64,
    /// Median over [`RUNG_WINDOWS`] consecutive windows of each window's
    /// p99, ms: one host hiccup spoils one window, not the rung.
    pub p99_ms: f64,
    /// From the last scheduled send to the last reply, ms: the backlog
    /// left when the schedule ended.
    pub tail_ms: f64,
    /// Failed requests.
    pub failures: u64,
}

impl Rung {
    fn measure(offered: f64, samples: &[Sample]) -> Rung {
        let lat: Vec<f64> = samples.iter().filter_map(Sample::latency_ms).collect();
        let first = samples.first().map(|s| s.scheduled);
        let last_due = samples.last().map(|s| s.scheduled);
        let last = samples.iter().filter_map(|s| s.received).max();
        let since = |from: Option<Instant>| match (from, last) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => f64::INFINITY,
        };
        let span = since(first);
        let ok = samples.iter().filter(|s| s.ok()).count();
        let window = samples.len().div_ceil(RUNG_WINDOWS).max(1);
        let window_p99: Vec<f64> = samples
            .chunks(window)
            .map(|w| {
                let lat: Vec<f64> = w.iter().filter_map(Sample::latency_ms).collect();
                stats::p99(&lat).unwrap_or(f64::INFINITY)
            })
            .collect();
        Rung {
            offered,
            achieved: if span > 0.0 { ok as f64 / span } else { 0.0 },
            p50_ms: stats::median(&lat).unwrap_or(f64::INFINITY),
            p99_ms: stats::median(&window_p99).unwrap_or(f64::INFINITY),
            tail_ms: since(last_due) * 1e3,
            failures: (samples.len() - ok) as u64,
        }
    }

    /// Whether the rung meets the latency limit with no failures and no
    /// growing backlog (what was queued when the schedule ended drained
    /// within the limit too).
    pub fn sustained(&self) -> bool {
        self.failures == 0 && self.p99_ms <= P99_LIMIT_MS && self.tail_ms <= P99_LIMIT_MS
    }
}

/// `sustained_rps`: the achieved rate of the highest rung that was
/// sustained, 0 if none was.
pub fn sustained_rps(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.sustained())
        .max_by(|a, b| a.offered.total_cmp(&b.offered))
        .map_or(0.0, |r| r.achieved)
}

/// The median over climbs of each climb's [`sustained_rps`].
pub fn median_sustained_rps(climbs: &[Vec<Rung>]) -> f64 {
    let each: Vec<f64> = climbs.iter().map(|c| sustained_rps(c)).collect();
    stats::median(&each).unwrap_or(0.0)
}

/// Climbs `ladder`: `run_rung(rate)` drives one rung and returns its
/// figures and samples. Every rung up to and including the nominal one
/// runs; from it on, the climb ends after [`CLIMB_MISSES`] unsustained
/// rungs in a row (the server is saturated, higher rungs would only
/// queue behind it). Returns the rungs and the nominal rung's samples
/// (empty if `ladder` does not hold it).
fn climb(
    ladder: &[f64],
    mut run_rung: impl FnMut(f64) -> (Rung, Vec<Sample>),
) -> (Vec<Rung>, Vec<Sample>) {
    let mut rungs = Vec::new();
    let mut nominal = Vec::new();
    let mut misses = 0;
    for &rate in ladder {
        let (rung, samples) = run_rung(rate);
        if rate >= NOMINAL_RPS {
            misses = if rung.sustained() { 0 } else { misses + 1 };
        }
        if rate == NOMINAL_RPS {
            nominal = samples;
        }
        rungs.push(rung);
        if misses == CLIMB_MISSES {
            break;
        }
    }
    (rungs, nominal)
}

/// What one pass over both phases measured.
struct Pass {
    climbs: Vec<Vec<Rung>>,
    nominal: Vec<Sample>,
    cold: Vec<Sample>,
    sent: u64,
}

impl Pass {

    /// How late the generator sent, ms, where nothing held it back: the
    /// nominal rung and the cold phase. (On a saturated rung a request
    /// also waits for room in its connection's pipeline.)
    fn late_ms(&self) -> Vec<f64> {
        self.nominal
            .iter()
            .chain(&self.cold)
            .map(Sample::late_ms)
            .collect()
    }

    fn cold_latencies(&self) -> Vec<f64> {
        self.cold.iter().filter_map(Sample::latency_ms).collect()
    }

    fn warm_latencies(&self) -> Vec<f64> {
        self.nominal.iter().filter_map(Sample::latency_ms).collect()
    }
}

/// Live request spans for the phases of one pass, with request ids that
/// run on across phases.
struct PassSpans<'a> {
    tracer: Option<&'a Tracer>,
    next_id: u64,
}

impl PassSpans<'_> {
    fn drive(&mut self, addr: SocketAddr, schedule: &[Planned]) -> Vec<Sample> {
        let spans = self.tracer.map(|tracer| load::Spans {
            tracer,
            first_id: self.next_id,
        });
        self.next_id += schedule.len() as u64;
        load::drive(addr, schedule, spans)
    }
}

/// Primes the hot points (one cold compute each) and checks their bytes.
fn prewarm(addr: SocketAddr, plan: &Plan, spans: &mut PassSpans, tally: &mut Tally) {
    let schedule: Vec<Planned> = plan
        .hot
        .iter()
        .map(|p| Planned {
            target: p.target(),
            due: Duration::ZERO,
            expect: Arc::clone(&p.body),
        })
        .collect();
    absorb(tally, "prewarm", &spans.drive(addr, &schedule));
}

/// Connections of the capacity phase: while the server answers one
/// connection's burst, the other's is already waiting, so the server
/// never idles between bursts.
const CAPACITY_CONNECTIONS: usize = 2;

/// One capacity connection and the points of its burst in flight.
struct Lane {
    conn: Option<client::Conn>,
    in_flight: Vec<usize>,
}

/// Closed-loop pipelined bursts over the hot points on
/// [`CAPACITY_CONNECTIONS`] keep-alive connections.
struct Bursts<'a> {
    addr: SocketAddr,
    lanes: Vec<Lane>,
    points: &'a [Point],
    targets: Vec<String>,
    next: usize,
    tracer: Option<&'a Tracer>,
    sent: u64,
}

impl<'a> Bursts<'a> {
    fn new(addr: SocketAddr, points: &'a [Point], tracer: Option<&'a Tracer>) -> Bursts<'a> {
        Bursts {
            addr,
            lanes: (0..CAPACITY_CONNECTIONS)
                .map(|_| Lane {
                    conn: None,
                    in_flight: Vec::new(),
                })
                .collect(),
            points,
            targets: points.iter().map(Point::target).collect(),
            next: 0,
            tracer,
            sent: 0,
        }
    }

    /// Sends the next [`BURST`] points on `lane` in one write.
    fn send(&mut self, lane: usize) -> Result<(), String> {
        let picks: Vec<usize> = (0..BURST)
            .map(|k| (self.next + k) % self.points.len())
            .collect();
        self.next += BURST;
        self.sent += BURST as u64;
        let lane = &mut self.lanes[lane];
        if lane.conn.is_none() {
            let conn = client::Conn::connect(self.addr, Duration::from_secs(20))
                .map_err(|e| format!("capacity phase: cannot connect: {e}"))?;
            lane.conn = Some(conn);
        }
        let heads: Vec<&str> = picks.iter().map(|&i| self.targets[i].as_str()).collect();
        if let Some(conn) = lane.conn.as_mut() {
            if conn.send_many(&heads).is_err() {
                lane.conn = None;
            }
        }
        lane.in_flight = picks;
        Ok(())
    }

    /// Reads every reply to `lane`'s burst in flight; returns how many
    /// came back `200` with the right bytes. The rest count as failed; a
    /// transport error drops the connection (the next send opens a new
    /// one).
    fn collect(&mut self, lane: usize, tally: &mut Tally) -> u64 {
        let start = Instant::now();
        let lane = &mut self.lanes[lane];
        let picks = std::mem::take(&mut lane.in_flight);
        let mut ok = 0;
        if let Some(conn) = lane.conn.as_mut() {
            for &i in &picks {
                match conn.recv() {
                    Ok(r) => ok += u64::from(r.status == 200 && r.body == *self.points[i].body),
                    Err(_) => {
                        lane.conn = None;
                        break;
                    }
                }
            }
        }
        if let Some(tracer) = self.tracer {
            tracer.record("serve.burst", start, Instant::now(), None, None);
        }
        tally.attempted += picks.len() as u64;
        tally.failed += picks.len() as u64 - ok;
        ok
    }

    /// Answers every lane's burst and sends the next on it; returns the
    /// requests answered correctly.
    fn round(&mut self, tally: &mut Tally) -> Result<u64, String> {
        let mut ok = 0;
        for lane in 0..self.lanes.len() {
            ok += self.collect(lane, tally);
            self.send(lane)?;
        }
        Ok(ok)
    }
}

/// One server's capacity windows: closed-loop bursts of [`BURST`]
/// pipelined requests over the hot points, each connection's next burst
/// sent once its last one is answered. The server handles whole bursts
/// and always has one waiting, so it never idles and its CPU time per
/// request is the serving core's own cost, batched the same way whatever
/// the host's load; CPU time also leaves out what the host's other
/// tenants take. Returns each window's requests answered correctly per
/// second of server CPU time.
fn capacity_windows(
    server: &ServerProc,
    bursts: &mut Bursts,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    for lane in 0..CAPACITY_CONNECTIONS {
        bursts.send(lane)?;
    }
    for _ in 0..CAPACITY_WARMUP {
        bursts.round(tally)?;
    }
    let mut rates = Vec::with_capacity(CAPACITY_WINDOWS);
    for _ in 0..CAPACITY_WINDOWS {
        let (cpu0, threads0) = server.thread_cpu_ns()?;
        let t0 = Instant::now();
        let mut ok = 0;
        while t0.elapsed() < CAPACITY_WINDOW {
            ok += bursts.round(tally)?;
        }
        let (cpu1, threads1) = server.thread_cpu_ns()?;
        // A thread that started or ended in the window makes the sums
        // incomparable; the window is dropped.
        if threads0 == threads1 && cpu1 > cpu0 {
            rates.push(ok as f64 / ((cpu1 - cpu0) as f64 / 1e9));
        }
    }
    for lane in 0..CAPACITY_CONNECTIONS {
        bursts.collect(lane, tally);
    }
    Ok(rates)
}

/// The CPUs of a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?);
    }
    Some(cpus)
}

/// The CPUs the calling thread may run on, with their list as the kernel
/// writes it (`Cpus_allowed_list`).
fn allowed_cpus() -> Option<(Vec<usize>, String)> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .to_string();
    Some((parse_cpu_list(&list)?, list))
}

/// Sets the CPU affinity of task `id` (with `all`, of every thread of
/// process `id`) to `cpus` with `taskset`; false if that failed.
fn set_affinity(id: &str, cpus: &str, all: bool) -> bool {
    Command::new("taskset")
        .args([if all { "-apc" } else { "-pc" }, cpus, id])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The calling thread's id.
fn thread_id() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

/// What the capacity phase measured.
struct Capacity {
    /// Requests answered correctly per second of server CPU time: the
    /// median over every window of every capacity server.
    per_cpu_s: f64,
    /// Requests sent.
    sent: u64,
    /// Each capacity server's time from spawn to its first `/healthz` 200.
    setup_s: Vec<f64>,
}

/// The capacity phase: [`CAPACITY_SERVERS`] fresh servers in turn, each
/// pre-warmed and measured by [`capacity_windows`]; `tracer` records a
/// span per burst. While measured, a server is pinned to one CPU and the
/// generator's thread to another, so the two never share a CPU or trade
/// places mid-window; the servers alternate between the two CPUs. (With
/// fewer than two CPUs, or no `taskset`, nothing is pinned.)
fn capacity_phase(
    ctx: &RunContext,
    plan: &Plan,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<Capacity, String> {
    let failed_before = tally.failed;
    let mut rates = Vec::new();
    let mut levels = Vec::new();
    let mut setup_s = Vec::new();
    let mut sent = 0;
    let name = if tracer.is_some() { "traced-capacity" } else { "capacity" };
    let me = thread_id();
    let allowed = allowed_cpus();
    let pair = match &allowed {
        Some((cpus, _)) if cpus.len() >= 2 && me.is_some() => Some((cpus[0], cpus[1])),
        _ => None,
    };
    let mut pinned = pair.is_some();
    for k in 0..CAPACITY_SERVERS {
        let tiles = fresh_dir(ctx, &format!("{name}-{k}"))?;
        let (server, secs) = ServerProc::start(&ctx.bin_dir, &tiles, &ctx.run_dir)?;
        setup_s.push(secs);
        prewarm(server.addr, plan, &mut PassSpans { tracer: None, next_id: 0 }, tally);
        if let (Some((a, b)), Some(me), true) = (pair, &me, pinned) {
            let (server_cpu, own_cpu) = if k % 2 == 0 { (a, b) } else { (b, a) };
            pinned = set_affinity(&server.child.id().to_string(), &server_cpu.to_string(), true)
                && set_affinity(me, &own_cpu.to_string(), false);
        }
        let mut bursts = Bursts::new(server.addr, &plan.hot, tracer);
        let own = capacity_windows(&server, &mut bursts, tally)?;
        server.stop()?;
        sent += bursts.sent;
        levels.push(stats::median(&own).unwrap_or(f64::NAN));
        rates.extend(own);
    }
    if let (Some(me), Some((_, list))) = (&me, &allowed) {
        set_affinity(me, list, false);
    }
    if !pinned {
        eprintln!("[perfbench] capacity: servers and generator not pinned to CPUs");
    }
    if tally.failed > failed_before {
        eprintln!(
            "[perfbench] capacity: {} of {sent} requests failed",
            tally.failed - failed_before
        );
    }
    let windows = CAPACITY_SERVERS * CAPACITY_WINDOWS;
    if rates.len() * 2 < windows {
        return Err(format!(
            "capacity phase: only {} of {windows} windows kept the same server threads",
            rates.len()
        ));
    }
    let per_cpu_s = stats::median(&rates).unwrap_or(f64::NAN);
    let levels: Vec<String> = levels.iter().map(|l| format!("{:.0}k", l / 1e3)).collect();
    eprintln!(
        "[perfbench] capacity: {per_cpu_s:.0} requests per server CPU second (median of {} windows; per server {})",
        rates.len(),
        levels.join(" ")
    );
    Ok(Capacity {
        per_cpu_s,
        sent,
        setup_s,
    })
}

/// The cold phase against `addr`.
fn cold_phase(
    addr: SocketAddr,
    plan: &Plan,
    spans: &mut PassSpans,
    tally: &mut Tally,
) -> Vec<Sample> {
    let cold: Vec<Planned> = plan
        .cold
        .iter()
        .map(|(p, at)| Planned {
            target: p.target(),
            due: *at,
            expect: Arc::clone(&p.body),
        })
        .collect();
    let samples = spans.drive(addr, &cold);
    absorb(tally, "cold", &samples);
    samples
}

/// The hot ladder (with `rung_len`, its rung length) and the cold phase
/// against a spawned server, after pre-warming it; `tracer` records
/// requests live.
fn drive_phases(
    server: &ServerProc,
    plan: &Plan,
    rung_len: Option<Duration>,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let addr = server.addr;
    let mut spans = PassSpans { tracer, next_id: 0 };
    prewarm(addr, plan, &mut spans, tally);
    let points: Vec<(String, Arc<Vec<u8>>)> = plan
        .hot
        .iter()
        .map(|p| (p.target(), Arc::clone(&p.body)))
        .collect();
    let mut sent = 0;
    let mut hot_rung = |rate: f64, rung_len: Duration| {
        let count = (rate * rung_len.as_secs_f64()) as usize;
        let samples = spans.drive(addr, &load::constant_rate(&points, rate, count));
        absorb(tally, &format!("hot {rate} rps"), &samples);
        sent += samples.len() as u64;
        let rung = Rung::measure(rate, &samples);
        eprintln!(
            "[perfbench] hot {rate} rps: achieved {:.0}, p50 {:.3} ms, window p99 {:.3} ms, {} failed",
            rung.achieved, rung.p50_ms, rung.p99_ms, rung.failures
        );
        (rung, samples)
    };
    let mut climbs = Vec::new();
    let mut nominal = Vec::new();
    if let Some(len) = rung_len {
        let (first, samples) = climb(&LADDER, |rate| hot_rung(rate, len));
        climbs.push(first);
        nominal = samples;
        let reclimb = LADDER.partition_point(|&r| r < RECLIMB_FROM);
        for _ in 1..CLIMBS {
            climbs.push(climb(&LADDER[reclimb..], |rate| hot_rung(rate, len)).0);
        }
    }
    let cold = cold_phase(addr, plan, &mut spans, tally);
    sent += cold.len() as u64;
    Ok(Pass {
        climbs,
        nominal,
        cold,
        sent,
    })
}

/// A [`Key`] as the backend sees it.
type OwnedKey = (String, usize, u64);

/// The key and span index of every backend compute.
type ComputeLog = Mutex<Vec<(OwnedKey, usize)>>;

/// The experiment backend behind a timing wrapper: one span per estimate.
struct TimedBackend {
    tracer: Arc<Tracer>,
    computes: Arc<ComputeLog>,
}

impl Backend for TimedBackend {
    fn experiments(&self) -> Vec<(String, String)> {
        ExperimentBackend.experiments()
    }

    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
        let start = Instant::now();
        let out = ExperimentBackend.estimate(exp, trials, seed);
        let span = self
            .tracer
            .record("bench.estimate", start, Instant::now(), None, None);
        self.computes
            .lock()
            .expect("compute log")
            .push(((exp.to_string(), trials, seed), span));
        out
    }

    fn estimate_progressive(
        &self,
        exp: &str,
        trials: usize,
        seed: u64,
        epsilon: f64,
        emit: &mut dyn FnMut(ProgressUpdate),
    ) -> Option<String> {
        ExperimentBackend.estimate_progressive(exp, trials, seed, epsilon, emit)
    }
}

fn rung_length(ctx: &RunContext) -> Duration {
    let cold = Duration::from_secs_f64(COLD_REQUESTS as f64 / COLD_RPS);
    let hot = ctx.seconds.saturating_sub(cold);
    (hot / RUNGS_PER_PASS).max(MIN_RUNG)
}

fn fresh_dir(ctx: &RunContext, name: &str) -> Result<PathBuf, String> {
    let dir = ctx.run_dir.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The server's own counters, from its `/metrics`: result-cache and
/// status counts, and the tile store's lookups and inserts.
fn server_counters(addr: SocketAddr, metrics: &mut Metrics) -> Result<(), String> {
    let reply = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    let text = String::from_utf8(reply.body).map_err(|_| "/metrics: not UTF-8")?;
    let doc = json::parse(&text).map_err(|e| format!("/metrics: {e}"))?;
    let num = |block: &str, key: &str| match json::get(&doc, block).and_then(|b| json::get(b, key))
    {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("/metrics: no {block}.{key}")),
    };
    for key in [
        "cache_hits",
        "cache_misses",
        "cache_waits",
        "status_429",
        "status_503",
    ] {
        metrics.insert(format!("serve.{key}"), num("server", key)?);
    }
    let (hits, misses) = (num("tiles", "hits")?, num("tiles", "misses")?);
    metrics.insert("tiles.hits".into(), hits);
    metrics.insert("tiles.misses".into(), misses);
    metrics.insert("tiles.inserts".into(), num("tiles", "inserts")?);
    let lookups = hits + misses;
    metrics.insert(
        "tiles.hit_ratio".into(),
        if lookups == 0.0 { 0.0 } else { hits / lookups },
    );
    Ok(())
}

/// The traced pass: both phases against a second spawned server with
/// every request recorded live, then the server's counters and a reload
/// of the tiles it persisted.
fn traced_pass(
    ctx: &RunContext,
    plan: &Plan,
    tracer: &Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<Pass, String> {
    let tiles = fresh_dir(ctx, "traced-tiles")?;
    let (server, _) = ServerProc::start(&ctx.bin_dir, &tiles, &ctx.run_dir)?;
    let pass = drive_phases(&server, plan, Some(rung_length(ctx)), Some(tracer), tally)?;
    server_counters(server.addr, metrics)?;
    server.stop()?;
    // Each request's generator wait is part of its request span.
    let spans = tracer.spans();
    let requests: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.request")
        .filter_map(|(i, s)| Some((s.request?, i)))
        .collect();
    for (i, s) in spans.iter().enumerate() {
        if let (true, Some(&parent)) = (
            s.name == "load.wait",
            s.request.and_then(|r| requests.get(&r)),
        ) {
            tracer.set_parent(i, parent);
        }
    }
    // Reload what the run persisted, as the next boot would.
    let start = Instant::now();
    let loaded = fair_tiles::Store::persistent(&tiles).load();
    let end = Instant::now();
    tracer.record("tiles.load", start, end, None, None);
    metrics.insert("tiles.load_ms".into(), (end - start).as_secs_f64() * 1e3);
    eprintln!(
        "[perfbench] tile store reload: {} records",
        loaded.loaded_records
    );
    Ok(pass)
}

/// The compute split of the cold phase: the server hosted in-process
/// behind [`TimedBackend`], pre-warmed and driven through the cold phase
/// alone. Each compute is matched to the cold request for its key that
/// was in flight when it started; `serve.compute_ms` is the median
/// compute and `serve.cold_queue_ms` the median of those requests'
/// latency minus their compute.
fn compute_pass(
    ctx: &RunContext,
    plan: &Plan,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let computes = Arc::new(Mutex::new(Vec::new()));
    let config = ServerConfig {
        loops: 1,
        workers: 1,
        tiles_dir: Some(fresh_dir(ctx, "compute-tiles")?),
        ..ServerConfig::default()
    };
    let backend = TimedBackend {
        tracer: Arc::clone(tracer),
        computes: Arc::clone(&computes),
    };
    let server = Server::bind(config, Arc::new(backend)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let (cold, served) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());
        let cold = wait_healthy(addr).map(|()| {
            let mut spans = PassSpans {
                tracer: None,
                next_id: 0,
            };
            prewarm(addr, plan, &mut spans, tally);
            cold_phase(addr, plan, &mut spans, tally)
        });
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        // Wake the loop so it notices the latch.
        let _ = client::get(addr, "/healthz");
        (cold, handle.join())
    });
    let cold = cold?;
    match served {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("in-process server failed: {e}")),
        Err(_) => return Err("in-process server panicked".into()),
    }
    let spans = tracer.spans();
    let mut compute_ms = Vec::new();
    let mut queue_ms = Vec::new();
    for (key, span) in computes.lock().expect("compute log").iter() {
        let c = &spans[*span];
        // The pre-warm computes have no cold request.
        let in_flight = plan.cold.iter().zip(&cold).find(|((point, _), s)| {
            let (exp, trials, seed) = point.key;
            (exp, trials, seed) == (key.0.as_str(), key.1, key.2)
                && s.received
                    .is_some_and(|r| tracer.ns(s.sent) <= c.start_ns && c.start_ns <= tracer.ns(r))
        });
        let Some((_, sample)) = in_flight else {
            continue;
        };
        let dur = (c.end_ns - c.start_ns) as f64 / 1e6;
        compute_ms.push(dur);
        if let Some(lat) = sample.latency_ms() {
            queue_ms.push(lat - dur);
        }
    }
    // No attributed compute leaves the figures undefined, and the run
    // fails rather than report 0.
    metrics.insert(
        "serve.compute_ms".into(),
        stats::median(&compute_ms).unwrap_or(f64::NAN),
    );
    metrics.insert(
        "serve.cold_queue_ms".into(),
        stats::median(&queue_ms).unwrap_or(f64::NAN),
    );
    Ok(())
}

/// Runs the serve workload.
pub fn run(ctx: &RunContext) -> Result<Outcome, String> {
    let plan = Plan::new(ctx.seed);
    eprintln!(
        "[perfbench] serve: {} hot points, {} cold requests over {} distinct keys",
        plan.hot.len(),
        plan.cold.len(),
        plan.distinct_cold()
    );
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();

    let mut setup = Vec::new();
    for k in 0..SETUP_PROBES {
        let tiles = fresh_dir(ctx, &format!("setup-{k}"))?;
        let (server, secs) = ServerProc::start(&ctx.bin_dir, &tiles, &ctx.run_dir)?;
        setup.push(secs);
        server.stop()?;
    }
    let capacity = capacity_phase(ctx, &plan, None, &mut tally)?;
    setup.extend(&capacity.setup_s);
    let tiles = fresh_dir(ctx, "tiles")?;
    let (server, secs) = ServerProc::start(&ctx.bin_dir, &tiles, &ctx.run_dir)?;
    setup.push(secs);
    // The ladder's figures are per-layer metrics: it runs in traced runs.
    let rung_len = ctx.trace.then(|| rung_length(ctx));
    let plain = drive_phases(&server, &plan, rung_len, None, &mut tally)?;
    let rss = server.stop()?;

    let throughput = capacity.per_cpu_s;
    let cold = plain.cold_latencies();
    if stats::samples_beyond(cold.len(), P90) < 10 {
        return Err(format!(
            "only {} cold replies: too few for a p90",
            cold.len()
        ));
    }
    let cold_p50 = stats::median(&cold).unwrap_or(f64::NAN);
    metrics.insert("setup_s".into(), stats::median(&setup).unwrap_or(f64::NAN));
    metrics.insert("peak_rss_mb".into(), rss);
    metrics.insert("throughput_per_s".into(), throughput);

    if ctx.trace {
        // The user-visible latencies come from the untraced server. A
        // figure with no sample behind it is NaN, which fails the run.
        metrics.insert(
            "serve.sustained_rps".into(),
            median_sustained_rps(&plain.climbs),
        );
        let warm = plain.warm_latencies();
        let warm_p50 = stats::median(&warm).unwrap_or(f64::NAN);
        metrics.insert("serve.warm_p50_ms".into(), warm_p50);
        metrics.insert(
            "serve.warm_p99_ms".into(),
            stats::p99(&warm).unwrap_or(f64::NAN),
        );
        metrics.insert("serve.cold_p50_ms".into(), cold_p50);
        metrics.insert(
            "serve.cold_p90_ms".into(),
            stats::percentile(&cold, P90).unwrap_or(f64::NAN),
        );
        let tracer = Arc::new(Tracer::new());
        let traced = traced_pass(ctx, &plan, &tracer, &mut tally, &mut metrics)?;
        let traced_capacity = capacity_phase(ctx, &plan, Some(&*tracer), &mut tally)?;
        metrics.insert(
            "load.sent".into(),
            (traced.sent + traced_capacity.sent) as f64,
        );
        metrics.insert(
            "load.late_ms_p99".into(),
            stats::p99(&traced.late_ms()).unwrap_or(f64::NAN),
        );
        metrics.insert(
            "trace.delta.throughput_per_s".into(),
            traced_capacity.per_cpu_s - throughput,
        );
        metrics.insert(
            "trace.delta.time_to_result_ms".into(),
            stats::median(&traced.cold_latencies()).unwrap_or(f64::NAN) - cold_p50,
        );
        compute_pass(ctx, &plan, &tracer, &mut tally, &mut metrics)?;
        crate::layers::measure_all(ctx, &mut metrics)?;
        let inline_ms = (metrics["serve.parse_ns"] + metrics["serve.begin_hit_ns"]) / 1e6;
        metrics.insert("serve.io_ms".into(), warm_p50 - inline_ms);
        crate::finish_trace(ctx, &tracer, &mut metrics)?;
    }
    Ok(Outcome { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(offered: f64, achieved: f64, p99_ms: f64, failures: u64) -> Rung {
        Rung {
            offered,
            achieved,
            p50_ms: 0.1,
            p99_ms,
            tail_ms: 1.0,
            failures,
        }
    }

    #[test]
    fn sustained_rps_is_the_achieved_rate_of_the_highest_passing_rung() {
        let rungs = [
            rung(2_000.0, 1_999.0, 3.0, 0),
            rung(5_000.0, 4_990.0, 9.0, 0),
            rung(10_000.0, 9_980.0, 12.0, 0),
            // Over the latency limit.
            rung(20_000.0, 19_900.0, P99_LIMIT_MS + 0.1, 0),
        ];
        assert_eq!(sustained_rps(&rungs), 9_980.0);
        // A failure disqualifies a rung however fast it was.
        let failing = [
            rung(2_000.0, 1_999.0, 3.0, 0),
            rung(5_000.0, 4_990.0, 2.0, 1),
        ];
        assert_eq!(sustained_rps(&failing), 1_999.0);
        // A growing backlog (still draining past the limit after the
        // schedule ended) disqualifies too.
        let behind = [
            rung(2_000.0, 1_999.0, 3.0, 0),
            Rung {
                tail_ms: P99_LIMIT_MS + 0.1,
                ..rung(5_000.0, 4_800.0, 2.0, 0)
            },
        ];
        assert_eq!(sustained_rps(&behind), 1_999.0);
        // The limits themselves are met.
        let edge = Rung {
            tail_ms: P99_LIMIT_MS,
            ..rung(5_000.0, 5_000.0, P99_LIMIT_MS, 0)
        };
        assert!(edge.sustained());
        assert_eq!(sustained_rps(&[rung(2_000.0, 10.0, 99.0, 0)]), 0.0);
        // A pass reports the median of its climbs.
        let climbs = [
            vec![rung(40_000.0, 40_000.0, 1.0, 0)],
            vec![rung(60_000.0, 60_000.0, 1.0, 0)],
            vec![rung(40_000.0, 40_000.0, 99.0, 0)],
        ];
        assert_eq!(median_sustained_rps(&climbs), 40_000.0);
    }

    fn one_sample() -> Vec<Sample> {
        let t = Instant::now();
        vec![Sample {
            scheduled: t,
            sent: t,
            received: Some(t),
            status: 200,
            body_ok: true,
        }]
    }

    #[test]
    fn the_climb_reaches_the_nominal_rung_and_ends_after_two_misses() {
        // The first rung fails, yet the nominal rung still runs and its
        // samples are the warm figures. One miss past it (a hiccup at 40k)
        // does not end the climb; two in a row (from 80k) do.
        let mut ran = Vec::new();
        let (rungs, nominal) = climb(&LADDER, |rate| {
            ran.push(rate);
            let r = if rate == LADDER[0] || rate == 40_000.0 || rate >= 80_000.0 {
                rung(rate, rate / 2.0, 99.0, 3)
            } else {
                rung(rate, rate, 1.0, 0)
            };
            (r, one_sample())
        });
        assert_eq!(ran, LADDER[..8]);
        assert_eq!(rungs.len(), ran.len());
        assert_eq!(nominal.len(), 1);
        assert_eq!(sustained_rps(&rungs), 60_000.0);
        // Two misses from the nominal rung on end the climb at once.
        let (rungs, nominal) = climb(&LADDER, |rate| (rung(rate, 0.0, 99.0, 1), one_sample()));
        assert_eq!(rungs.len(), 3);
        assert_eq!(rungs[1].offered, NOMINAL_RPS);
        assert_eq!(nominal.len(), 1);
        assert_eq!(sustained_rps(&rungs), 0.0);
        // A climb without the nominal rung has no warm samples.
        let (rungs, nominal) = climb(&LADDER[4..], |rate| {
            (rung(rate, rate, 1.0, 0), one_sample())
        });
        assert_eq!(rungs.len(), LADDER.len() - 4);
        assert!(nominal.is_empty());
    }

    #[test]
    fn cpu_lists_parse_as_the_kernel_writes_them() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3"), Some(vec![0, 2, 3]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list("x"), None);
        let (cpus, list) = allowed_cpus().expect("this thread's CPU list");
        assert!(!cpus.is_empty(), "{list}");
    }

    #[test]
    fn capacity_bursts_count_every_reply_and_fail_wrong_bytes() {
        let keys: [Key; 3] = [("e2", 16, 1), ("e4", 16, 2), ("e13", 16, 3)];
        let mut points: Vec<Point> = keys
            .iter()
            .map(|&(exp, trials, seed)| Point {
                key: (exp, trials, seed),
                body: Arc::new(rendered_result(exp, trials, seed).unwrap().into_bytes()),
            })
            .collect();
        let config = ServerConfig {
            loops: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, Arc::new(ExperimentBackend)).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || server.run());
            wait_healthy(addr).unwrap();
            let mut tally = Tally::default();
            let mut bursts = Bursts::new(addr, &points, None);
            for lane in 0..CAPACITY_CONNECTIONS {
                bursts.send(lane).unwrap();
            }
            let ok: u64 = (0..3).map(|_| bursts.round(&mut tally).unwrap()).sum();
            for lane in 0..CAPACITY_CONNECTIONS {
                bursts.collect(lane, &mut tally);
            }
            // Three rounds answer six bursts; the last two were drained.
            assert_eq!(ok, 6 * BURST as u64);
            assert_eq!(bursts.sent, 8 * BURST as u64);
            assert_eq!((tally.attempted, tally.failed), (8 * BURST as u64, 0));

            // A point whose expected bytes are wrong fails every time it
            // is asked for, and nothing else does.
            points[1].body = Arc::new(b"not the result".to_vec());
            let mut tally = Tally::default();
            let mut bursts = Bursts::new(addr, &points, None);
            bursts.send(0).unwrap();
            let ok = bursts.collect(0, &mut tally);
            let asked_for_1 = (0..BURST).filter(|k| k % points.len() == 1).count() as u64;
            assert_eq!(tally.failed, asked_for_1);
            assert_eq!(ok, BURST as u64 - asked_for_1);
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
            let _ = client::get(addr, "/healthz");
        });
    }

    #[test]
    fn the_ladder_is_rising_and_holds_the_nominal_rung() {
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
        assert!(LADDER.contains(&NOMINAL_RPS));
    }

    #[test]
    fn the_cold_plan_overflows_the_result_cache_and_is_seed_determined() {
        let cache = fair_serve::ServiceConfig::default().cache_entries;
        let plan = cold_keys(7);
        assert_eq!(plan.len(), COLD_REQUESTS);
        assert_eq!(plan, cold_keys(7));
        assert_ne!(plan, cold_keys(8));
        // Ten samples beyond the cold p90.
        assert!(stats::samples_beyond(plan.len(), P90) >= 10);
        // Every fifth request repeats its predecessor at the same instant.
        for i in (3..plan.len()).step_by(5) {
            assert_eq!(plan[i], plan[i - 1]);
        }
        // Grown points double the trials of a point already requested.
        for i in (2..plan.len()).step_by(5) {
            let ((exp, trials, seed), _) = plan[i];
            assert_eq!(trials, 2 * COLD_TRIALS);
            assert!(plan[..i]
                .iter()
                .any(|((e, t, s), _)| (*e, *t, *s) == (exp, COLD_TRIALS, seed)));
        }
        // Late revisits come after more distinct keys than the cache
        // holds have been requested since the point was created.
        let mut evicted = 0;
        for i in (4..plan.len()).step_by(5) {
            let key = plan[i].0;
            let first = plan.iter().position(|(k, _)| *k == key).unwrap();
            let mut since: Vec<Key> = plan[first + 1..i].iter().map(|(k, _)| *k).collect();
            since.sort();
            since.dedup();
            if since.len() > cache {
                evicted += 1;
            }
        }
        assert!(evicted >= 10, "{evicted}");
        let mut distinct: Vec<Key> = plan.iter().map(|(k, _)| *k).collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() > cache);
    }
}
