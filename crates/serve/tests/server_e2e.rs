//! End-to-end tests over a real TCP socket: a live server with a mock
//! backend, exercising cold/warm byte identity, admission control under
//! overload, per-request deadlines, and graceful shutdown.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fair_serve::service::Backend;
use fair_serve::{client, Conn, Server, ServerConfig};

/// A deterministic backend: renders a canonical-looking document and
/// counts invocations; optionally sleeps to simulate slow estimations,
/// or pads the document to a given size.
struct MockBackend {
    calls: AtomicUsize,
    delay: Duration,
    pad: usize,
}

impl MockBackend {
    fn instant() -> MockBackend {
        MockBackend::slow(Duration::ZERO)
    }

    fn slow(delay: Duration) -> MockBackend {
        MockBackend {
            calls: AtomicUsize::new(0),
            delay,
            pad: 0,
        }
    }

    fn bulky(pad: usize) -> MockBackend {
        MockBackend {
            pad,
            ..MockBackend::instant()
        }
    }
}

impl Backend for MockBackend {
    fn experiments(&self) -> Vec<(String, String)> {
        vec![("e1".to_string(), "mock".to_string())]
    }

    fn estimate(&self, exp: &str, trials: usize, seed: u64) -> Option<String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        (exp == "e1").then(|| {
            let pad = " ".repeat(self.pad);
            format!("{{\"experiment\":\"{exp}\",\"seed\":{seed},\"trials\":{trials}}}{pad}\n")
        })
    }
}

/// Boots a server on an ephemeral port; returns its address, the serving
/// thread's join handle, and the programmatic shutdown latch.
fn boot(
    backend: Arc<MockBackend>,
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
    Arc<std::sync::atomic::AtomicBool>,
) {
    let server = Server::bind(config, backend).expect("bind ephemeral port");
    let addr = server.local_addr();
    let latch = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, latch)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = client::post(addr, "/shutdown").expect("shutdown reachable");
    assert_eq!(reply.status, 200);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn serves_health_experiments_and_rejections() {
    let (addr, handle, _latch) = boot(Arc::new(MockBackend::instant()), ServerConfig::default());
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"status\":\"ok\"}\n");

    let listing = client::get(addr, "/experiments").expect("experiments");
    assert_eq!(listing.status, 200);
    assert!(listing.text().contains("\"e1\""));

    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(
        client::get(addr, "/estimate?exp=e1&trials=bogus")
            .expect("400")
            .status,
        400
    );
    assert_eq!(
        client::get(addr, "/estimate?exp=missing")
            .expect("404")
            .status,
        404
    );
    shutdown(addr, handle);
}

#[test]
fn cold_and_warm_responses_are_byte_identical() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let target = "/estimate?exp=e1&trials=100&seed=7";

    let cold = client::get(addr, target).expect("cold");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let warm = client::get(addr, target).expect("warm");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "hit path bytes == cold path bytes");

    // Parameter order and seed spelling don't fork the cache.
    let reordered = client::get(addr, "/estimate?seed=0x7&trials=100&exp=e1").expect("reordered");
    assert_eq!(reordered.header("x-cache"), Some("hit"));
    assert_eq!(reordered.body, cold.body);
    assert_eq!(backend.calls.load(Ordering::SeqCst), 1, "one computation");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("\"cache_hits\": 2"));
    shutdown(addr, handle);
}

#[test]
fn keep_alive_connections_reuse_parser_state_across_requests() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let target = "/estimate?exp=e1&trials=100&seed=3";

    // Several sequential requests on ONE socket: the first computes, the
    // rest are cache hits served by the same connection's parser state.
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut bodies = Vec::new();
    for i in 0..4 {
        conn.send(target).expect("send");
        let reply = conn.recv().expect("reply on reused connection");
        assert_eq!(reply.status, 200);
        let expected = if i == 0 { "miss" } else { "hit" };
        assert_eq!(reply.header("x-cache"), Some(expected), "request {i}");
        bodies.push(reply.body);
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "stable bytes");
    assert_eq!(backend.calls.load(Ordering::SeqCst), 1, "one computation");

    // A different route on the same still-open connection parses fine —
    // per-request state fully resets between requests.
    conn.send("/healthz").expect("send healthz");
    let health = conn.recv().expect("healthz on reused connection");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\"}\n");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    assert!(
        text.contains("\"keepalive_reuses\": 4"),
        "4 reused requests counted, got: {text}"
    );
    shutdown(addr, handle);
}

#[test]
fn pipelined_requests_answer_in_order_with_identical_bytes() {
    let backend = Arc::new(MockBackend::instant());
    let (addr, handle, _latch) = boot(Arc::clone(&backend), ServerConfig::default());
    let targets: Vec<String> = (0..5)
        .map(|seed| format!("/estimate?exp=e1&trials=50&seed={seed}"))
        .collect();

    // Warm every point with fresh one-shot connections first.
    let fresh: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            let reply = client::get(addr, t).expect("warmup");
            assert_eq!(reply.status, 200);
            reply.body
        })
        .collect();

    // Now pipeline the whole batch down one connection in a single write;
    // replies must come back in request order, each byte-identical to its
    // fresh-connection counterpart. A cold point in the middle of the
    // batch (handed to the worker pool) must not reorder anything.
    let mut conn = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut batch: Vec<&str> = targets.iter().map(String::as_str).collect();
    let cold = "/estimate?exp=e1&trials=50&seed=99";
    batch.insert(2, cold);
    conn.send_many(&batch).expect("pipelined send");
    for (i, target) in batch.iter().enumerate() {
        let reply = conn.recv().expect("pipelined reply");
        assert_eq!(reply.status, 200, "reply {i}");
        if *target == cold {
            assert_eq!(reply.header("x-cache"), Some("miss"), "cold mid-batch");
        } else {
            assert_eq!(reply.header("x-cache"), Some("hit"), "warm reply {i}");
            let fresh_body = &fresh[targets.iter().position(|t| t == target).expect("known")];
            assert_eq!(&reply.body, fresh_body, "bytes for {target}");
        }
    }

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    let doc = fair_simlab::json::parse(text.trim_end()).expect("metrics parse");
    let server = fair_simlab::json::get(&doc, "server").expect("server block");
    let pipelined = match fair_simlab::json::get(server, "pipelined_requests") {
        Some(fair_simlab::json::Json::Num(n)) => *n,
        other => panic!("pipelined_requests missing: {other:?}"),
    };
    assert!(pipelined >= 1.0, "pipelining was observed, got {pipelined}");
    shutdown(addr, handle);
}

#[test]
fn pipelined_burst_past_the_pipeline_cap_is_answered_in_full() {
    let (addr, handle, _latch) = boot(Arc::new(MockBackend::instant()), ServerConfig::default());
    // One write of more requests than `max_pipeline` (64): the surplus is
    // already in the server's parse buffer when the first 64 replies flush,
    // so no further read event will announce it. Every reply must still
    // arrive, none more than 1 s after the previous one.
    let burst = vec!["/healthz"; 200];
    let mut conn = Conn::connect(addr, Duration::from_secs(1)).expect("connect");
    conn.send_many(&burst).expect("pipelined send");
    for i in 0..burst.len() {
        let reply = conn
            .recv()
            .unwrap_or_else(|e| panic!("reply {i} of {} never came: {e}", burst.len()));
        assert_eq!(reply.status, 200, "reply {i}");
    }
    shutdown(addr, handle);
}

#[test]
fn a_peer_that_never_reads_is_stalled_not_buffered() {
    let (addr, handle, _latch) = boot(
        Arc::new(MockBackend::bulky(64 << 10)),
        ServerConfig::default(),
    );
    let target = "/estimate?exp=e1&trials=50&seed=1";
    assert_eq!(client::get(addr, target).expect("warmup").status, 200);
    // Pipeline 2000 warm requests for 64 KiB bodies and never read a
    // reply. The socket buffers absorb a few MiB of replies; past that,
    // `max_pipeline` unsent replies must stop the server parsing, not
    // pile up in its write queue.
    let mut stalled = Conn::connect(addr, Duration::from_secs(10)).expect("connect");
    stalled.send_many(&[target; 2000]).expect("pipelined send");
    let reuses = || {
        let text = client::get(addr, "/metrics").expect("metrics").text();
        let doc = fair_simlab::json::parse(text.trim_end()).expect("metrics parse");
        let server = fair_simlab::json::get(&doc, "server").expect("server block");
        match fair_simlab::json::get(server, "keepalive_reuses") {
            Some(fair_simlab::json::Json::Num(n)) => *n,
            other => panic!("keepalive_reuses missing: {other:?}"),
        }
    };
    // Requests parsed on the stalled connection (all but its first),
    // once the count stops moving.
    let mut parsed = reuses();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(200));
        let now = reuses();
        if now == parsed {
            break;
        }
        parsed = now;
    }
    assert!(
        parsed < 1000.0,
        "parsed {parsed} of 2000 never-read requests"
    );
    drop(stalled);
    shutdown(addr, handle);
}

#[test]
fn overload_is_answered_with_bounded_429s() {
    // One worker, one queue slot, slow estimations: blasting N distinct
    // points must produce some 429s, and every connection gets answered.
    let backend = Arc::new(MockBackend::slow(Duration::from_millis(150)));
    let config = ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(backend, config);

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let target = format!("/estimate?exp=e1&trials=10&seed={i}");
                    client::get(addr, &target).expect("every connection is answered")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let ok = replies.iter().filter(|r| r.status == 200).count();
    let rejected = replies.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + rejected, 8, "only 200s and 429s under pure overload");
    assert!(ok >= 1, "some requests are served");
    assert!(rejected >= 1, "overload sheds load with 429");
    for r in replies.iter().filter(|r| r.status == 429) {
        assert_eq!(r.header("retry-after"), Some("1"));
    }
    shutdown(addr, handle);
}

#[test]
fn expired_deadlines_get_503_instead_of_late_service() {
    // Zero deadline: by the time a worker picks the job up the deadline
    // has always passed, so every request is answered 503 immediately.
    let config = ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (addr, handle, latch) = boot(Arc::new(MockBackend::instant()), config);
    let reply = client::get(addr, "/estimate?exp=e1").expect("answered");
    assert_eq!(reply.status, 503);
    assert!(reply.text().contains("deadline"));

    // With a zero deadline even POST /shutdown is 503'd before the route
    // runs, so stop the server through the programmatic latch instead.
    let shutdown_reply = client::post(addr, "/shutdown").expect("reachable");
    assert_eq!(shutdown_reply.status, 503);
    latch.store(true, Ordering::SeqCst);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn graceful_shutdown_drains_and_flushes_metrics() {
    let dir = std::env::temp_dir().join(format!("fair_serve_e2e_{}", std::process::id()));
    let metrics_path = dir.join("final_metrics.json");
    let backend = Arc::new(MockBackend::slow(Duration::from_millis(50)));
    let config = ServerConfig {
        metrics_path: Some(metrics_path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, _latch) = boot(Arc::clone(&backend), config);

    // Put one slow request in flight, then request shutdown while the
    // worker is still estimating.
    let in_flight = std::thread::spawn(move || {
        client::get(addr, "/estimate?exp=e1&trials=10&seed=1").expect("answered")
    });
    std::thread::sleep(Duration::from_millis(10));
    shutdown(addr, handle);

    // Drain guarantee: the in-flight request completed with a real answer.
    let reply = in_flight.join().expect("no panic");
    assert_eq!(reply.status, 200);

    // The final snapshot was flushed and is valid JSON.
    let snapshot = std::fs::read_to_string(&metrics_path).expect("metrics flushed");
    let doc = fair_simlab::json::parse(snapshot.trim_end()).expect("valid json");
    assert!(fair_simlab::json::get(&doc, "server").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
