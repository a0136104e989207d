//! Route handling: the estimation service behind the HTTP layer.
//!
//! This file is inside fairlint's S2 scope (it handles untrusted request
//! parameters), so every path is total — no `unwrap`/`expect`/`panic!`.
//!
//! The contract that matters here is **byte identity**: `/estimate`
//! responses are produced by the [`Backend`] (which renders the same
//! canonical result document batch runs persist), cached as immutable
//! `Arc<Vec<u8>>` bodies, and served pointer-for-pointer on hits — so the
//! cold path, the warm path, and the batch record agree byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use fair_simlab::json::Json;
use fair_simlab::proto_json;
use fair_trace::ProtoStore;

use crate::cache::{Lookup, ShardedCache};
use crate::http::{Request, Response};
use crate::stats::ServerStats;

/// The per-protocol metrics behind `/metrics`: one store for the life of
/// the process, never cleared. Backends record every estimation they run
/// into it. Process-wide because the servers of one process report one
/// `/metrics` document, and a backend is a shared value with no
/// per-request state to carry a store in.
pub static PROTOCOLS: ProtoStore = ProtoStore::new();

/// What the service needs from the experiment registry. Implemented by
/// `fair-bench` (which owns the static E1–E17 registry plus the
/// scenario-derived `s_*` entries compiled from `scenarios/*.toml`);
/// kept as a trait so this crate stays below the bench crate in the
/// dependency order and tests can substitute deterministic mock backends.
pub trait Backend: Send + Sync + 'static {
    /// The runnable experiments as `(id, title)` pairs.
    fn experiments(&self) -> Vec<(String, String)>;

    /// Runs the estimation at `(exp, trials, seed)` and returns the
    /// rendered canonical result document (the exact bytes to serve),
    /// or `None` if the experiment is unknown or the run failed.
    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String>;

    /// Runs the estimation adaptively: every `estimate()` call inside the
    /// experiment stops once its 95% half-width reaches `epsilon` (or its
    /// budget runs out), invoking `emit` with a progress frame per tile
    /// batch. Returns the final wrapper document (adaptive accounting plus
    /// the result for the trials actually spent), or `None` on failure.
    /// The default implementation reports "unsupported" by returning
    /// `None` without emitting.
    fn estimate_progressive(
        &self,
        _exp: &str,
        _trials: usize,
        _seed: u64,
        _epsilon: f64,
        _emit: &mut dyn FnMut(ProgressUpdate),
    ) -> Option<String> {
        None
    }
}

/// One progress frame of an adaptive estimation, as surfaced to HTTP
/// streaming consumers (mirrors `fair_core::progressive::Update` without
/// depending on `fair-core` — serve stays below it in the crate order).
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressUpdate {
    /// Scenario name of the reporting `estimate()` call.
    pub scenario: String,
    /// Trials that call was asked for.
    pub requested: usize,
    /// Trials tallied so far.
    pub trials: usize,
    /// Running mean payoff.
    pub mean: f64,
    /// Running 95% confidence half-width.
    pub ci: f64,
    /// Whether this is the call's final frame.
    pub done: bool,
}

/// Tunables for the service layer.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Trials when the request omits `trials`.
    pub default_trials: usize,
    /// Largest accepted `trials` value (admission control: one request
    /// cannot monopolize the worker pool with an unbounded run).
    pub max_trials: usize,
    /// Seed when the request omits `seed`.
    pub default_seed: u64,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            default_trials: 200,
            max_trials: 100_000,
            default_seed: 0xfa1e,
            cache_entries: 128,
            cache_shards: 8,
        }
    }
}

/// The service's verdict on one parsed request, split for the event loop:
/// cheap routes, errors, and warm cache hits produce a [`Response`] right
/// away (served inline on the loop); a cold `/estimate` yields a
/// [`ComputeTicket`] to run on a worker via
/// [`Service::estimate_finish`].
pub enum Verdict {
    /// Answer immediately; the status is already tallied.
    Reply(Response),
    /// Run the estimation off-loop, then finish the ticket.
    Offload(ComputeTicket),
}

/// A validated cold `/estimate` awaiting worker-side computation.
pub struct ComputeTicket {
    key: String,
    exp: String,
    trials: usize,
    seed: u64,
}

/// The routing core: owns the backend, the result cache, the tallies, and
/// the shutdown latch. Shared across worker threads behind an `Arc`.
pub struct Service {
    backend: Arc<dyn Backend>,
    config: ServiceConfig,
    cache: ShardedCache,
    /// Registered experiment ids, snapshotted at construction — the
    /// registry (static core plus the scenario-derived entries, both
    /// fixed for the process lifetime) never changes after startup, and
    /// the warm path must not rebuild the full `(id, title)` listing per
    /// request just to validate `exp`.
    known: Vec<String>,
    /// Shared server tallies: everything counted on this service's own
    /// paths (requests, statuses, cache flavors) plus worker-side bumps.
    /// Event loops keep their loop-local counters in separate blocks (see
    /// [`register_loop_stats`](Service::register_loop_stats)); `/metrics`
    /// folds all blocks together.
    pub stats: Arc<ServerStats>,
    /// Per-event-loop counter blocks, registered once per loop at startup.
    loop_stats: Mutex<Vec<Arc<ServerStats>>>,
    shutdown: Arc<AtomicBool>,
}

impl Service {
    /// Builds a service over `backend`. `shutdown` is the latch the accept
    /// loop polls; `POST /shutdown` sets it.
    pub fn new(
        backend: Arc<dyn Backend>,
        config: ServiceConfig,
        shutdown: Arc<AtomicBool>,
    ) -> Service {
        let known = backend
            .experiments()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        Service {
            backend,
            cache: ShardedCache::new(config.cache_entries, config.cache_shards),
            config,
            known,
            stats: Arc::new(ServerStats::default()),
            loop_stats: Mutex::new(Vec::new()),
            shutdown,
        }
    }

    /// Registers and returns a fresh per-loop counter block. Each event
    /// loop bumps its own block on the hot path — no cache line ping-pong
    /// between cores — and [`stats_snapshot`](Service::stats_snapshot)
    /// folds every block into one tally surface on demand.
    pub fn register_loop_stats(&self) -> Arc<ServerStats> {
        let stats = Arc::new(ServerStats::default());
        self.loop_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&stats));
        stats
    }

    /// Number of per-loop counter blocks registered (the live loop count).
    pub fn registered_loops(&self) -> usize {
        self.loop_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// One aggregated tally snapshot: the shared block plus every
    /// registered per-loop block, counter-for-counter summed.
    pub fn stats_snapshot(&self) -> ServerStats {
        let loops = self.loop_stats.lock().unwrap_or_else(|e| e.into_inner());
        ServerStats::merged(std::iter::once(&*self.stats).chain(loops.iter().map(Arc::as_ref)))
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The experiment backend (the streaming endpoint drives it directly —
    /// progressive responses are not cacheable bodies).
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The service tunables (streaming shares the parameter envelope).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Whether `exp` is a registered experiment id.
    pub fn knows_experiment(&self, exp: &str) -> bool {
        self.known.iter().any(|id| id == exp)
    }

    /// Handles one parsed request, counting it and its response status.
    /// Blocking entry point: a cold `/estimate` computes right here (and
    /// may wait on another caller's single-flight).
    pub fn handle(&self, req: &Request) -> Response {
        match self.begin(req) {
            Verdict::Reply(resp) => resp,
            Verdict::Offload(ticket) => self.estimate_finish(ticket),
        }
    }

    /// First half of request handling, cheap enough for the event loop:
    /// counts the request, routes everything except a cold `/estimate` to
    /// a finished (status-tallied) response, and returns a ticket for the
    /// cold path. The warm probe is [`ShardedCache::get_if_ready`] — a
    /// pending single-flight is treated as cold so the loop never blocks.
    pub fn begin(&self, req: &Request) -> Verdict {
        ServerStats::bump(&self.stats.requests);
        if req.path == "/estimate" && req.method == "GET" {
            self.estimate_begin(req)
        } else {
            let resp = self.route(req);
            self.stats.count_status(resp.status);
            Verdict::Reply(resp)
        }
    }

    fn route(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/healthz" => get_only(req, |_| Response::json(200, "{\"status\":\"ok\"}\n")),
            "/experiments" => get_only(req, |_| self.experiments()),
            // GET /estimate is intercepted by `begin`; only other methods
            // fall through to here.
            "/estimate" => Response::error(405, "use GET /estimate"),
            "/metrics" => get_only(req, |_| self.metrics()),
            "/shutdown" => {
                if req.method == "POST" {
                    self.request_shutdown()
                } else {
                    Response::error(405, "use POST /shutdown")
                }
            }
            other => Response::error(404, &format!("no route {other}")),
        }
    }

    fn experiments(&self) -> Response {
        let items = self
            .backend
            .experiments()
            .into_iter()
            .map(|(id, title)| {
                Json::obj()
                    .field("id", Json::str(id))
                    .field("title", Json::str(title))
            })
            .collect();
        let doc = Json::obj()
            .field("default_seed", Json::num(self.config.default_seed as f64))
            .field(
                "default_trials",
                Json::num(self.config.default_trials as f64),
            )
            .field("max_trials", Json::num(self.config.max_trials as f64))
            .field("experiments", Json::Arr(items));
        Response::json(200, doc.canonical().render_pretty() + "\n")
    }

    /// Tallies and returns a response (the `Reply` finisher).
    fn counted(&self, resp: Response) -> Response {
        self.stats.count_status(resp.status);
        resp
    }

    fn estimate_begin(&self, req: &Request) -> Verdict {
        let exp = match req.query_param("exp") {
            Some(e) if !e.is_empty() => e.to_string(),
            _ => {
                return Verdict::Reply(self.counted(Response::error(
                    400,
                    "missing required query parameter `exp`",
                )))
            }
        };
        let trials = match parse_trials(req, self.config.default_trials, self.config.max_trials) {
            Ok(t) => t,
            Err(resp) => return Verdict::Reply(self.counted(resp)),
        };
        let seed = match parse_seed(req, self.config.default_seed) {
            Ok(s) => s,
            Err(resp) => return Verdict::Reply(self.counted(resp)),
        };
        if !self.knows_experiment(&exp) {
            return Verdict::Reply(
                self.counted(Response::error(404, &format!("unknown experiment `{exp}`"))),
            );
        }
        // The canonical point key: defaults applied, fixed field order —
        // `?trials=100&exp=e1` and `?exp=e1&trials=100&seed=<default>`
        // coalesce to one cache entry and one computation.
        let key = format!("exp={exp}&seed={seed}&trials={trials}");
        if let Some(bytes) = self.cache.get_if_ready(&key) {
            ServerStats::bump(&self.stats.cache_hits);
            return Verdict::Reply(
                self.counted(Response::json(200, bytes).with_header("X-Cache", "hit")),
            );
        }
        Verdict::Offload(ComputeTicket {
            key,
            exp,
            trials,
            seed,
        })
    }

    /// Second half of a cold `/estimate`: computes (or joins a
    /// single-flight, or finds the value another caller just cached) and
    /// builds the tallied response. Blocking — run on a worker, never on
    /// the event loop.
    pub fn estimate_finish(&self, ticket: ComputeTicket) -> Response {
        let ComputeTicket {
            key,
            exp,
            trials,
            seed,
        } = ticket;
        let backend = Arc::clone(&self.backend);
        let lookup = self.cache.get_or_compute(&key, move || {
            backend
                .estimate(&exp, trials, seed)
                .map(String::into_bytes)
                .ok_or_else(|| "estimation failed".to_string())
        });
        let (bytes, flavor, counter) = match &lookup {
            Lookup::Hit(b) => (b, "hit", &self.stats.cache_hits),
            Lookup::Computed(b) => (b, "miss", &self.stats.cache_misses),
            Lookup::Waited(b) => (b, "wait", &self.stats.cache_waits),
            Lookup::Failed(e) => return self.counted(Response::error(500, e)),
        };
        if matches!(lookup, Lookup::Computed(_)) {
            // A cold compute may have minted new tiles; persist them now
            // so a later restart serves this point warm from disk.
            fair_tiles::cache::flush();
        }
        ServerStats::bump(counter);
        self.counted(Response::json(200, Arc::clone(bytes)).with_header("X-Cache", flavor))
    }

    /// The `/metrics` document: server tallies, cache occupancy, and the
    /// live per-protocol trace counters. Also what the server flushes to
    /// disk as its final snapshot on graceful shutdown.
    pub fn metrics_document(&self) -> Json {
        let protocols = PROTOCOLS.snapshot();
        Json::obj()
            .field("cache_entries", Json::num(self.cache.len() as f64))
            .field("loops", Json::num(self.registered_loops().max(1) as f64))
            .field(
                "protocols",
                Json::Arr(protocols.iter().map(proto_json).collect()),
            )
            .field("server", self.stats_snapshot().to_json())
            .field("tiles", tiles_json())
            .canonical()
    }

    fn metrics(&self) -> Response {
        Response::json(200, self.metrics_document().render_pretty() + "\n")
    }

    fn request_shutdown(&self) -> Response {
        ServerStats::bump(&self.stats.shutdown_requests);
        self.shutdown.store(true, Ordering::SeqCst);
        Response::json(200, "{\"status\":\"shutting down\"}\n")
    }
}

/// The tile-store block of `/metrics`: hit/miss/insert counters plus
/// occupancy, or `null` when no store is installed.
fn tiles_json() -> Json {
    let Some(stats) = fair_tiles::cache::snapshot() else {
        return Json::Null;
    };
    Json::obj()
        .field("hits", Json::num(stats.hits as f64))
        .field("misses", Json::num(stats.misses as f64))
        .field("inserts", Json::num(stats.inserts as f64))
        .field("loaded_records", Json::num(stats.loaded_records as f64))
        .field("skipped_records", Json::num(stats.skipped_records as f64))
        .field("flushed_files", Json::num(stats.flushed_files as f64))
        .field("groups", Json::num(stats.groups as f64))
        .field("entries", Json::num(stats.entries as f64))
}

fn get_only(req: &Request, f: impl FnOnce(&Request) -> Response) -> Response {
    if req.method == "GET" {
        f(req)
    } else {
        Response::error(405, &format!("use GET {}", req.path))
    }
}

pub(crate) fn parse_trials(req: &Request, default: usize, max: usize) -> Result<usize, Response> {
    let raw = match req.query_param("trials") {
        None => return Ok(default),
        Some(raw) => raw,
    };
    match raw.parse::<usize>() {
        Ok(v) if (1..=max).contains(&v) => Ok(v),
        Ok(v) => Err(Response::error(
            400,
            &format!("trials={v} out of range [1, {max}]"),
        )),
        Err(e) => Err(Response::error(400, &format!("bad trials={raw:?}: {e}"))),
    }
}

pub(crate) fn parse_seed(req: &Request, default: u64) -> Result<u64, Response> {
    let raw = match req.query_param("seed") {
        None => return Ok(default),
        Some(raw) => raw,
    };
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    parsed.map_err(|e| Response::error(400, &format!("bad seed={raw:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use std::sync::atomic::AtomicUsize;

    struct MockBackend {
        calls: AtomicUsize,
    }

    impl Backend for MockBackend {
        fn experiments(&self) -> Vec<(String, String)> {
            vec![("e1".to_string(), "mock experiment".to_string())]
        }

        fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if exp != "e1" {
                return None;
            }
            Some(format!(
                "{{\"exp\":\"{exp}\",\"seed\":{seed},\"trials\":{trials}}}\n"
            ))
        }
    }

    fn service() -> Service {
        Service::new(
            Arc::new(MockBackend {
                calls: AtomicUsize::new(0),
            }),
            ServiceConfig::default(),
            Arc::new(AtomicBool::new(false)),
        )
    }

    fn get(svc: &Service, target: &str) -> Response {
        let head = format!("GET {target} HTTP/1.1\r\n");
        svc.handle(&parse_request(head.as_bytes()).expect("test request parses"))
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = service();
        assert_eq!(get(&svc, "/healthz").status, 200);
        assert_eq!(get(&svc, "/nope").status, 404);
        let post = parse_request(b"POST /healthz HTTP/1.1\r\n").expect("parses");
        assert_eq!(svc.handle(&post).status, 405);
    }

    #[test]
    fn experiments_lists_the_registry() {
        let svc = service();
        let resp = get(&svc, "/experiments");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.into_vec()).expect("utf8 body");
        assert!(body.contains("\"e1\""));
        assert!(body.contains("mock experiment"));
    }

    #[test]
    fn estimate_defaults_cache_and_normalize_keys() {
        let svc = service();
        let cold = get(&svc, "/estimate?exp=e1&trials=100&seed=7");
        assert_eq!(cold.status, 200);
        assert_eq!(
            cold.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.as_str()),
            Some("miss")
        );
        // Same point, different parameter order and hex seed: a hit, byte-identical.
        let warm = get(&svc, "/estimate?seed=0x7&exp=e1&trials=100");
        assert_eq!(warm.status, 200);
        assert_eq!(
            warm.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.as_str()),
            Some("hit")
        );
        assert_eq!(cold.body, warm.body);
        assert_eq!(svc.stats.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.stats.cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn estimate_rejects_bad_parameters() {
        let svc = service();
        assert_eq!(get(&svc, "/estimate").status, 400);
        assert_eq!(get(&svc, "/estimate?exp=e1&trials=zero").status, 400);
        assert_eq!(get(&svc, "/estimate?exp=e1&trials=0").status, 400);
        assert_eq!(get(&svc, "/estimate?exp=e1&trials=999999999").status, 400);
        assert_eq!(get(&svc, "/estimate?exp=e1&seed=-3").status, 400);
        assert_eq!(get(&svc, "/estimate?exp=unknown").status, 404);
    }

    #[test]
    fn metrics_exposes_tallies_and_shutdown_sets_the_latch() {
        let latch = Arc::new(AtomicBool::new(false));
        let svc = Service::new(
            Arc::new(MockBackend {
                calls: AtomicUsize::new(0),
            }),
            ServiceConfig::default(),
            Arc::clone(&latch),
        );
        get(&svc, "/estimate?exp=e1");
        let resp = get(&svc, "/metrics");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.into_vec()).expect("utf8 body");
        assert!(body.contains("\"cache_misses\": 1"));
        assert!(body.contains("\"cache_entries\": 1"));
        assert!(!svc.shutting_down());
        let post = parse_request(b"POST /shutdown HTTP/1.1\r\n").expect("parses");
        assert_eq!(svc.handle(&post).status, 200);
        assert!(svc.shutting_down());
        assert!(latch.load(Ordering::SeqCst));
    }
}
