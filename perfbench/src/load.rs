//! The open-loop load generator: [`CONNECTIONS`] keep-alive connections
//! (request `i` goes to connection `i % CONNECTIONS`), one thread that
//! sends on a fixed schedule and one that polls the connections for their
//! in-order (HTTP/1.1 pipelined) replies.
//!
//! Sends follow the schedule, not the replies, up to one bound: a
//! connection never carries more than [`PIPELINE_DEPTH`] unanswered
//! requests. A request due while its connection is full is sent as soon
//! as a reply frees a slot. Every latency runs from the request's
//! *scheduled* send time, so a stall — or a wait for a free slot — is
//! charged to each request queued behind it, and a server that falls
//! behind shows it in latency, never by the generator quietly offering
//! less. The generator's own lateness (actual minus scheduled send) is
//! reported separately so it is never read as server cost.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fair_aio::{Interest, Poller, Token};

use crate::trace::Tracer;

/// Connections a schedule is spread over.
pub const CONNECTIONS: usize = 2;

/// Unanswered requests one connection may carry: `fair-serve`'s own
/// per-connection pipeline cap (`ServerConfig::max_pipeline`). The server
/// parses at most that many requests per readiness event, so a client
/// pipelining deeper and then pausing can leave requests unparsed in its
/// buffer with no event to wake it (see `README.md`); the generator does
/// not go past the depth the server admits.
pub const PIPELINE_DEPTH: usize = 64;

/// How long the sender sleeps while every due request waits for room.
const ROOM_POLL: Duration = Duration::from_micros(20);

/// Live spans for one phase: per traced request, `load.wait` (scheduled
/// to actual send, recorded by the sender) and `serve.request` (scheduled
/// send to reply, recorded by the receiver), with request ids counted
/// from `first_id`. One request in [`TRACE_EVERY`] is traced (by id), so
/// a pass of a million requests keeps its spans in a few megabytes.
#[derive(Clone, Copy)]
pub struct Spans<'a> {
    /// Where the spans go.
    pub tracer: &'a Tracer,
    /// Request id of the phase's first request.
    pub first_id: u64,
}

/// One request in this many is traced.
pub const TRACE_EVERY: u64 = 64;

impl Spans<'_> {
    /// The request id of plan entry `i`, if that request is traced.
    fn traced(&self, i: usize) -> Option<u64> {
        let id = self.first_id + i as u64;
        id.is_multiple_of(TRACE_EVERY).then_some(id)
    }
}

/// One request of a schedule.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Request target (`/estimate?...`).
    pub target: String,
    /// Send time, as an offset from the start of the phase.
    pub due: Duration,
    /// The exact body a correct `200` reply carries.
    pub expect: Arc<Vec<u8>>,
}

/// What happened to one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Scheduled send instant.
    pub scheduled: Instant,
    /// Actual send instant.
    pub sent: Instant,
    /// Reply fully received (`None`: transport failure).
    pub received: Option<Instant>,
    /// Reply status (0 when none arrived).
    pub status: u16,
    /// Whether the body matched the expected bytes.
    pub body_ok: bool,
}

impl Sample {
    /// Whether the request succeeded with the right bytes.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.body_ok && self.received.is_some()
    }

    /// Latency from the scheduled send, in milliseconds (`None` if no
    /// reply arrived).
    pub fn latency_ms(&self) -> Option<f64> {
        self.received
            .map(|r| r.saturating_duration_since(self.scheduled).as_secs_f64() * 1e3)
    }

    /// How late the generator sent this request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.scheduled)
            .as_secs_f64()
            * 1e3
    }
}

/// How long every connection may stay silent while replies are owed
/// before the rest are declared lost.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Sleeps until `at` (no-op if it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Sends every planned request, in order, at its scheduled time or — if
/// its connection already carries [`PIPELINE_DEPTH`] unanswered requests
/// (`answered` counts each connection's replies) — as soon as a reply
/// frees a slot. Requests due together on a connection go in one write.
/// Returns the actual send instants. A connection whose write fails gets
/// nothing more; the receiver reports its unanswered requests as failed.
fn send_all(
    mut conns: Vec<TcpStream>,
    start: Instant,
    plan: &[Planned],
    host: &str,
    answered: &[AtomicUsize],
    spans: Option<Spans>,
) -> Vec<Instant> {
    let n = conns.len();
    let mut sent = Vec::with_capacity(plan.len());
    let mut sent_on = vec![0usize; n];
    let mut batches = vec![Vec::new(); n];
    let mut broken = vec![false; n];
    while sent.len() < plan.len() {
        let first = sent.len();
        sleep_until(start + plan[first].due);
        let now = Instant::now();
        // The due requests, in order, while their connection has room.
        let mut in_flight: Vec<usize> = (0..n)
            .map(|c| sent_on[c] - answered[c].load(Ordering::Acquire).min(sent_on[c]))
            .collect();
        let mut due = 0;
        for (i, p) in plan.iter().enumerate().skip(first) {
            if start + p.due > now || in_flight[i % n] >= PIPELINE_DEPTH {
                break;
            }
            in_flight[i % n] += 1;
            due += 1;
        }
        if due == 0 {
            std::thread::sleep(ROOM_POLL);
            continue;
        }
        batches.iter_mut().for_each(Vec::clear);
        for (i, p) in plan.iter().enumerate().skip(first).take(due) {
            batches[i % n].extend_from_slice(
                format!("GET {} HTTP/1.1\r\nHost: {host}\r\n\r\n", p.target).as_bytes(),
            );
            sent_on[i % n] += 1;
            sent.push(now);
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if !broken[c] && !batches[c].is_empty() && conn.write_all(&batches[c]).is_err() {
                broken[c] = true;
            }
        }
        if let Some(s) = spans {
            for (i, p) in plan.iter().enumerate().skip(first).take(due) {
                if let Some(id) = s.traced(i) {
                    s.tracer
                        .record("load.wait", start + p.due, now, None, Some(id));
                }
            }
        }
    }
    sent
}

/// A parsed reply head.
struct Head {
    status: u16,
    content_length: usize,
}

fn parse_head(head: &[u8]) -> Option<Head> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    Some(Head {
        status,
        content_length,
    })
}

/// The bytes one connection has received and not yet consumed.
#[derive(Default)]
struct ReplyBuf {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// Where the head-terminator search resumes.
    scan: usize,
}

impl ReplyBuf {
    /// Consumes the next reply if it has fully arrived: its status and
    /// whether its body equals `expect`. `Err` on a malformed head.
    fn next_reply(&mut self, expect: &[u8]) -> Result<Option<(u16, bool)>, ()> {
        let Some(p) = self.buf[self.scan..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
        else {
            self.scan = self.buf.len().saturating_sub(3).max(self.start);
            return Ok(None);
        };
        let head_end = self.scan + p;
        let head = parse_head(&self.buf[self.start..head_end]).ok_or(())?;
        let body_start = head_end + 4;
        let end = body_start + head.content_length;
        if self.buf.len() < end {
            self.scan = head_end;
            return Ok(None);
        }
        let body_ok = &self.buf[body_start..end] == expect;
        self.start = end;
        self.scan = end;
        if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
            self.scan = 0;
        }
        Ok(Some((head.status, body_ok)))
    }
}

/// One reply: when it fully arrived, its status, whether its body matched.
type Reply = (Instant, u16, bool);

/// Reads the in-order replies of every connection (connection `c` owes
/// the replies to requests `c, c + n, …`), counting them in `answered`.
/// A connection that closes, fails or sends a malformed reply owes
/// nothing more; so do all of them once none has sent a byte for
/// [`READ_TIMEOUT`]. A connection that owes nothing more never blocks
/// the sender again.
fn receive_all(
    conns: Vec<TcpStream>,
    start: Instant,
    plan: &[Planned],
    answered: &[AtomicUsize],
    spans: Option<Spans>,
) -> Vec<Option<Reply>> {
    let out = receive_replies(conns, start, plan, answered, spans);
    for a in answered {
        a.store(usize::MAX, Ordering::Release);
    }
    out
}

fn receive_replies(
    conns: Vec<TcpStream>,
    start: Instant,
    plan: &[Planned],
    answered: &[AtomicUsize],
    spans: Option<Spans>,
) -> Vec<Option<Reply>> {
    let n = conns.len();
    let mut out = vec![None; plan.len()];
    let Ok(mut poller) = Poller::new() else {
        return out;
    };
    // Connection `c` is open while it still owes replies.
    let mut next: Vec<usize> = (0..n).collect();
    let mut open: Vec<bool> = next.iter().map(|&i| i < plan.len()).collect();
    for (c, conn) in conns.iter().enumerate() {
        if open[c]
            && poller
                .register(conn.as_fd(), Token(c as u64), Interest::READ)
                .is_err()
        {
            open[c] = false;
        }
    }
    let mut bufs: Vec<ReplyBuf> = (0..n).map(|_| ReplyBuf::default()).collect();
    let mut chunk = vec![0u8; 1 << 16];
    let mut events = Vec::new();
    while open.contains(&true) {
        if poller.wait(Some(READ_TIMEOUT), &mut events).is_err() || events.is_empty() {
            break;
        }
        for ev in &events {
            let c = ev.token.0 as usize;
            if !open[c] {
                continue;
            }
            // Level-triggered readiness: this read does not block.
            let read = match (&conns[c]).read(&mut chunk) {
                Ok(0) => None,
                Ok(k) => Some(k),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => None,
            };
            let dead = read.is_none();
            let received = Instant::now();
            if let Some(k) = read {
                bufs[c].buf.extend_from_slice(&chunk[..k]);
                while next[c] < plan.len() {
                    match bufs[c].next_reply(&plan[next[c]].expect) {
                        Ok(Some((status, body_ok))) => {
                            let i = next[c];
                            out[i] = Some((received, status, body_ok));
                            answered[c].fetch_add(1, Ordering::Release);
                            if let Some((s, id)) = spans.and_then(|s| Some((s, s.traced(i)?))) {
                                let due = start + plan[i].due;
                                s.tracer
                                    .record("serve.request", due, received, None, Some(id));
                            }
                            next[c] += n;
                        }
                        Ok(None) => break,
                        Err(()) => {
                            next[c] = plan.len();
                        }
                    }
                }
            }
            if dead || next[c] >= plan.len() {
                open[c] = false;
                let _ = poller.deregister(conns[c].as_fd());
                if dead {
                    answered[c].store(usize::MAX, Ordering::Release);
                }
            }
        }
    }
    out
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, TcpStream)> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let reader = s.try_clone()?;
    Ok((s, reader))
}

/// Runs `plan` against `addr` over [`CONNECTIONS`] connections and
/// returns one sample per planned request (unanswered ones with
/// `received: None`). The phase starts now; `spans` records it live.
pub fn drive(addr: SocketAddr, plan: &[Planned], spans: Option<Spans>) -> Vec<Sample> {
    let start = Instant::now();
    let connected: std::io::Result<Vec<_>> = (0..CONNECTIONS).map(|_| connect(addr)).collect();
    let Ok(pairs) = connected else {
        return plan
            .iter()
            .map(|p| Sample {
                scheduled: start + p.due,
                sent: start + p.due,
                received: None,
                status: 0,
                body_ok: false,
            })
            .collect();
    };
    let (writers, readers): (Vec<TcpStream>, Vec<TcpStream>) = pairs.into_iter().unzip();
    let host = addr.to_string();
    let answered: Vec<AtomicUsize> = (0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect();
    let (sent, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive_all(readers, start, plan, &answered, spans));
        let sent = send_all(writers, start, plan, &host, &answered, spans);
        let replies = receiver.join().unwrap_or_default();
        (sent, replies)
    });
    plan.iter()
        .enumerate()
        .map(|(i, p)| {
            let scheduled = start + p.due;
            let reply = replies.get(i).copied().flatten();
            Sample {
                scheduled,
                sent: sent.get(i).copied().unwrap_or(scheduled),
                received: reply.map(|r| r.0),
                status: reply.map_or(0, |r| r.1),
                body_ok: reply.is_some_and(|r| r.2),
            }
        })
        .collect()
}

/// A schedule of `count` requests at `rate` per second, cycling over
/// `points` (`(target, expected body)`).
pub fn constant_rate(points: &[(String, Arc<Vec<u8>>)], rate: f64, count: usize) -> Vec<Planned> {
    (0..count)
        .map(|i| {
            let (target, expect) = &points[i % points.len()];
            Planned {
                target: target.clone(),
                due: Duration::from_secs_f64(i as f64 / rate),
                expect: Arc::clone(expect),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A pipelining server answering `ok` to every request on each of
    /// [`CONNECTIONS`] connections, except that on the first connection it
    /// stalls `stall` before answering that connection's request number
    /// `stall_at`. `total` is the schedule's length.
    fn stalling_server(stall_at: usize, stall: Duration, total: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for c in 0..CONNECTIONS {
                let (mut conn, _) = listener.accept().unwrap();
                let owed = (total + CONNECTIONS - 1 - c) / CONNECTIONS;
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    let mut answered = 0;
                    while answered < owed {
                        while let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..p + 4);
                            if c == 0 && answered == stall_at {
                                std::thread::sleep(stall);
                            }
                            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                                .unwrap();
                            answered += 1;
                        }
                        let n = conn.read(&mut chunk).unwrap();
                        if n == 0 {
                            return;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let ok = Arc::new(b"ok".to_vec());
        let plan = constant_rate(&[("/x".to_string(), ok)], 100.0, 20);
        // The first connection carries the even requests; it stalls on
        // its third (request 4).
        let addr = stalling_server(2, Duration::from_millis(300), plan.len());
        let samples = drive(addr, &plan, None);
        assert!(samples.iter().all(Sample::ok));
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms().unwrap()).collect();
        // Request 4 waited out the stall; requests 6 and 8 were due 20 and
        // 40 ms later but their replies queued behind it, so measured from
        // their scheduled sends they still carry the rest of the stall.
        assert!(lat[4] >= 300.0, "{lat:?}");
        assert!(lat[6] >= 275.0, "{lat:?}");
        assert!(lat[8] >= 255.0, "{lat:?}");
        // The other connection's replies did not wait for it.
        assert!(lat.iter().skip(1).step_by(2).all(|&l| l < 100.0), "{lat:?}");
        // The sender kept its schedule: the stall was not its lateness.
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        assert!(late.iter().all(|&l| l < 100.0), "{late:?}");
        // Before the stall, replies were prompt.
        assert!(lat[..4].iter().all(|&l| l < 100.0), "{lat:?}");
    }

    #[test]
    fn the_pipeline_never_goes_past_the_depth_the_server_admits() {
        // A server that answers nothing until a connection holds
        // PIPELINE_DEPTH unanswered requests, then answers them all 5 ms
        // later; the last few it answers once the connection has gone
        // quiet. It reports the most it ever saw unanswered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..CONNECTIONS {
                let (mut conn, _) = listener.accept().unwrap();
                conn.set_read_timeout(Some(Duration::from_millis(100)))
                    .unwrap();
                let seen_tx = seen_tx.clone();
                std::thread::spawn(move || {
                    let (mut buf, mut chunk) = (Vec::new(), [0u8; 4096]);
                    let (mut held, mut most) = (0, 0);
                    loop {
                        let quiet = match conn.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(k) => {
                                buf.extend_from_slice(&chunk[..k]);
                                false
                            }
                            Err(_) => true,
                        };
                        while let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..p + 4);
                            held += 1;
                        }
                        most = most.max(held);
                        if held >= PIPELINE_DEPTH || (quiet && held > 0) {
                            std::thread::sleep(Duration::from_millis(5));
                            let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                            conn.write_all(&reply.repeat(held)).unwrap();
                            held = 0;
                        }
                        if quiet && most > 0 {
                            seen_tx.send(most).unwrap();
                            most = 0;
                        }
                    }
                });
            }
        });
        let ok = Arc::new(b"ok".to_vec());
        let plan = constant_rate(&[("/x".to_string(), ok)], 20_000.0, 1_000);
        let samples = drive(addr, &plan, None);
        assert!(samples.iter().all(Sample::ok));
        let most: Vec<usize> = seen.try_iter().collect();
        assert!(!most.is_empty());
        assert!(most.iter().all(|&m| m == PIPELINE_DEPTH), "{most:?}");
        // Requests that waited for room went out late, and that wait is in
        // their latency, which runs from the schedule.
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        assert!(late.iter().any(|&l| l > 1.0), "{late:?}");
        assert!(samples
            .iter()
            .all(|s| s.latency_ms().unwrap() >= s.late_ms()));
    }

    #[test]
    fn wrong_bytes_and_a_vanished_server_are_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers on the first connection only, then hangs up; the other
        // is never accepted and is reset when the listener closes.
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 4096];
            let _ = conn.read(&mut chunk).unwrap();
            // One wrong body, then hang up.
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nno")
                .unwrap();
            // Let the reply land before the close resets the connection.
            std::thread::sleep(Duration::from_millis(200));
        });
        let ok = Arc::new(b"ok".to_vec());
        let plan = constant_rate(&[("/x".to_string(), ok)], 1000.0, 3);
        let samples = drive(addr, &plan, None);
        server.join().unwrap();
        assert_eq!(samples.len(), 3);
        assert!(!samples[0].ok() && samples[0].status == 200 && !samples[0].body_ok);
        assert!(samples[1..].iter().all(|s| s.received.is_none() && !s.ok()));
    }
}
