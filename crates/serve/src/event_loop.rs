//! One event loop of the sharded serving core.
//!
//! Each [`EventLoop`] owns a full single-threaded serving stack: its own
//! `fair_aio::Poller`, listener (a `SO_REUSEPORT` group member or a dup of
//! one shared listener), connection slab, [`TimerWheel`], wake eventfd, and
//! completion queue. Nothing here is locked on the hot path — the only
//! state shared *between* loops is the result cache (sharded, single-flight
//! deduped), the tile store, the bounded [`WorkerPool`], and the shutdown
//! latch, all reached through [`Service`]. Even the `/metrics` counters are
//! loop-local blocks ([`Service::register_loop_stats`]) folded together at
//! snapshot time.
//!
//! The warm path never leaves the loop: parse a buffered head, probe the
//! result cache, serialize the response head, and gather head + shared
//! `Arc` body into one vectored write. Cold `/estimate`s and `/stream`
//! responses run on the shared pool (429 when the queue refuses,
//! per-request deadline 503s); a finished cold job pushes its response onto
//! *its* loop's completion queue and rings *that* loop's waker, so replies
//! always splice back into the connection's pipeline slot on the thread
//! that owns it — pipelined responses never reorder, sharded or not.
//!
//! Shutdown is a coordinated drain: every loop stops polling at the latch,
//! meets at the [`DrainBarrier`], one loop drains the shared pool, and then
//! each loop splices its own completions and flushes its connections with
//! bounded blocking writes.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fair_aio::{Event, Interest, Poller, TimerWheel, Token, Waker};
use fair_simlab::{SubmitError, WorkerPool};

use crate::http::{self, Body, ParseError, Request, Response};
use crate::server::ServerConfig;
use crate::service::{Service, Verdict};
use crate::stats::ServerStats;

/// How often the loop wakes to poll the shutdown latch and the wheel.
const LOOP_TICK: Duration = Duration::from_millis(10);
/// Timer wheel resolution — coarse on purpose; timeouts are seconds.
const WHEEL_TICK: Duration = Duration::from_millis(100);
const WHEEL_SLOTS: usize = 128;
/// Listener and waker get the two reserved tokens below this base.
const CONN_BASE: u64 = 2;
const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Per-call read chunk; also bounds one event's read before yielding.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per readiness event before yielding to other connections.
const READ_BURSTS: usize = 4;
/// Response buffers gathered into one vectored write.
const WRITEV_BATCH: usize = 32;
/// How long the drain phase will block flushing one connection's tail.
const DRAIN_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Slot generations travel in a token's high 32 bits, so only their low 32
/// bits survive the trip through the poller and the timer wheel. Every pack
/// and compare site goes through [`gen_tag`]: without the mask, a slab
/// generation ≥ 2^32 would alias an earlier token at pack time while
/// comparing unequal at check time — a stale timer could then kill a live
/// connection, and live events would be dropped as stale.
const GEN_MASK: u64 = 0xffff_ffff;

/// The 32-bit tag of a (monotonically growing, unbounded) slot generation.
fn gen_tag(gen: u64) -> u64 {
    gen & GEN_MASK
}

fn token_for(idx: usize, gen: u64) -> Token {
    Token((gen_tag(gen) << 32) | (idx as u64 + CONN_BASE))
}

fn split_token(token: Token) -> Option<(usize, u64)> {
    let low = token.0 & 0xffff_ffff;
    if low < CONN_BASE {
        return None;
    }
    Some(((low - CONN_BASE) as usize, token.0 >> 32))
}

/// A reusable rendezvous for the coordinated shutdown drain. Like
/// `std::sync::Barrier`, [`wait`](DrainBarrier::wait) blocks until every
/// party arrives and returns `true` for exactly one of them (the leader,
/// who drains the shared pool). Unlike std's, a party that never started —
/// a failed loop-thread spawn — can be withdrawn with
/// [`leave`](DrainBarrier::leave), so the surviving loops still drain
/// instead of deadlocking on an arrival that will never come.
pub(crate) struct DrainBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
    /// A `leave` completed the generation, so no waiter returned leader
    /// from the fast path; the first released waiter claims leadership.
    leader_pending: bool,
}

impl DrainBarrier {
    pub(crate) fn new(parties: usize) -> DrainBarrier {
        DrainBarrier {
            state: Mutex::new(BarrierState {
                parties: parties.max(1),
                arrived: 0,
                generation: 0,
                leader_pending: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every party has arrived; `true` for exactly one caller.
    pub(crate) fn wait(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.arrived += 1;
        if st.arrived >= st.parties {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            drop(st);
            self.cv.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.leader_pending {
            st.leader_pending = false;
            return true;
        }
        false
    }

    /// Withdraws one party that will never arrive. If the remaining
    /// arrivals already cover the shrunken count, the generation completes
    /// and one released waiter becomes the leader.
    pub(crate) fn leave(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.parties = st.parties.saturating_sub(1).max(1);
        if st.arrived >= st.parties && st.arrived > 0 {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            st.leader_pending = true;
            drop(st);
            self.cv.notify_all();
        }
    }
}

/// One response in flight on the wire: serialized head plus the body
/// (owned or cache-shared), each with a write cursor.
struct OutBuf {
    head: Vec<u8>,
    head_pos: usize,
    body: Body,
    body_pos: usize,
}

impl OutBuf {
    fn done(&self) -> bool {
        self.head_pos >= self.head.len() && self.body_pos >= self.body.len()
    }
}

/// One request's slot in a connection's response pipeline. Slots serialize
/// in FIFO order; a `Busy` slot (cold job on the pool) blocks later ready
/// responses from flushing, which is exactly HTTP pipelining's ordering
/// contract.
enum Pending {
    Ready(Response, bool),
    Busy { job: u64, keep_alive: bool },
}

/// What routing decided for one parsed request.
enum Routed {
    Reply(Response),
    Offloaded { job: u64 },
    Stream(Box<Request>),
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (bounded: heads are capped and parsing
    /// drains every complete head the pipeline cap admits).
    buf: Vec<u8>,
    pending: VecDeque<Pending>,
    out: VecDeque<OutBuf>,
    /// Requests successfully parsed on this connection.
    parsed: u64,
    /// Peer sent FIN, a close-disposition request, or a parse error:
    /// stop reading and parsing; flush what is queued, then close.
    no_more_reads: bool,
    close_after_drain: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
    last_activity: Instant,
    /// A `/stream` request parked until earlier pipelined responses
    /// drain, at which point the connection detaches to a worker.
    deferred_stream: Option<Box<Request>>,
}

impl Conn {
    /// Responses owed but not yet on the wire: pipeline slots plus
    /// serialized responses the socket has not taken. `max_pipeline`
    /// caps this, so a peer that sends without reading stalls its own
    /// connection instead of growing the write queue.
    fn queued(&self) -> usize {
        self.pending.len() + self.out.len()
    }

    /// Serializes the contiguous ready prefix of the pipeline into the
    /// write queue (head bytes built here; bodies ride as-is, shared
    /// cache bodies without a copy).
    fn flush_ready(&mut self) {
        while matches!(self.pending.front(), Some(Pending::Ready(..))) {
            let Some(Pending::Ready(resp, keep_alive)) = self.pending.pop_front() else {
                break;
            };
            let head = resp.head_bytes(keep_alive);
            self.out.push_back(OutBuf {
                head,
                head_pos: 0,
                body: resp.body,
                body_pos: 0,
            });
        }
    }
}

struct Completion {
    token: Token,
    job: u64,
    resp: Response,
}

/// Everything a loop shares with (or receives from) the coordinator.
pub(crate) struct LoopSpec {
    /// This loop's listener: a reuseport group member, a dup of one shared
    /// listener, or (single-loop) the only listener.
    pub listener: TcpListener,
    pub service: Arc<Service>,
    pub config: ServerConfig,
    pub shutdown: Arc<AtomicBool>,
    /// The worker pool, shared across loops; drained once at shutdown by
    /// the barrier leader.
    pub pool: Arc<WorkerPool>,
    pub barrier: Arc<DrainBarrier>,
}

pub(crate) struct EventLoop {
    poller: Poller,
    waker: Waker,
    wheel: TimerWheel,
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    service: Arc<Service>,
    /// This loop's own counter block — hot-path bumps never touch a cache
    /// line another loop writes. `/metrics` folds the blocks together.
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    barrier: Arc<DrainBarrier>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    completions: Arc<Mutex<Vec<Completion>>>,
    events: Vec<Event>,
    next_job: u64,
}

impl EventLoop {
    pub(crate) fn new(spec: LoopSpec) -> std::io::Result<EventLoop> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(spec.listener.as_fd(), LISTENER, Interest::READ)?;
        poller.register(waker.as_fd(), WAKER, Interest::READ.edge_triggered())?;
        let now = Instant::now();
        let stats = spec.service.register_loop_stats();
        Ok(EventLoop {
            poller,
            waker,
            wheel: TimerWheel::new(now, WHEEL_TICK, WHEEL_SLOTS),
            listener: spec.listener,
            pool: spec.pool,
            service: spec.service,
            stats,
            config: spec.config,
            shutdown: spec.shutdown,
            barrier: spec.barrier,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            completions: Arc::new(Mutex::new(Vec::new())),
            events: Vec::new(),
            next_job: 0,
        })
    }

    pub(crate) fn run(&mut self) -> std::io::Result<()> {
        let mut result = Ok(());
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(Some(LOOP_TICK), &mut events) {
                self.events = events;
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                // A dead poller is fatal for the whole group: latch
                // shutdown so peer loops drain instead of leaving the
                // server half up.
                self.shutdown.store(true, Ordering::SeqCst);
                result = Err(e);
                break;
            }
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                match ev.token {
                    LISTENER => self.accept_burst(),
                    WAKER => {
                        self.waker.drain();
                        self.apply_completions();
                    }
                    token => {
                        if let Some((idx, gen)) = split_token(token) {
                            self.conn_event(idx, gen, ev);
                        }
                    }
                }
            }
            self.events = events;
            // Completions can also land while the loop is mid-iteration;
            // a cheap lock probe per tick keeps cold latency at one tick
            // even if a wake edge coalesced into an already-drained batch.
            self.apply_completions();
            self.fire_timers();
        }
        self.drain();
        result
    }

    fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.pool.try_submit(job)
    }

    // ---- accept -------------------------------------------------------

    fn accept_burst(&mut self) {
        // Bounded burst so one accept storm cannot starve live conns.
        for _ in 0..256 {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.install_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream) {
        ServerStats::bump(&self.stats.accepted);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens.get(idx).copied().unwrap_or(0);
        let token = token_for(idx, gen);
        if self
            .poller
            .register(stream.as_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        let conn = Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            out: VecDeque::new(),
            parsed: 0,
            no_more_reads: false,
            close_after_drain: false,
            registered: Interest::READ,
            last_activity: now,
            deferred_stream: None,
        };
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = Some(conn);
        }
        self.wheel
            .arm(now, self.config.read_timeout, token, gen_tag(gen));
    }

    // ---- per-connection event handling --------------------------------

    fn conn_event(&mut self, idx: usize, gen: u64, ev: Event) {
        if self.gens.get(idx).copied().map(gen_tag) != Some(gen) {
            return; // stale event for a recycled slot
        }
        if ev.writable {
            self.conn_write(idx);
        }
        if ev.readable || ev.closed {
            self.conn_read(idx);
        }
        self.conn_pump(idx);
    }

    /// Reads whatever the socket has (bounded per event), appending to the
    /// connection's parse buffer.
    fn conn_read(&mut self, idx: usize) {
        let max_buffered = http::MAX_HEAD_BYTES.saturating_mul(2);
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if conn.no_more_reads {
                return;
            }
            let mut chunk = [0u8; READ_CHUNK];
            for _ in 0..READ_BURSTS {
                if conn.queued() >= self.config.max_pipeline || conn.buf.len() >= max_buffered {
                    break; // backpressure: stop pulling bytes
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.no_more_reads = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf
                            .extend_from_slice(chunk.get(..n).unwrap_or_default());
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(idx);
        }
    }

    /// Parses every complete buffered head the pipeline cap admits, routes
    /// each, flushes ready responses to the write queue, writes, and
    /// re-syncs poller interest. The workhorse — called after reads, after
    /// completions, and after anything else that changes conn state.
    fn conn_pump(&mut self, idx: usize) {
        let arrival = Instant::now();
        let mut capped;
        loop {
            // Stage 1: pull one parsed request (or a parse failure) out of
            // the buffer under a short borrow.
            let parsed = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                capped = conn.queued() >= self.config.max_pipeline;
                if conn.close_after_drain || conn.deferred_stream.is_some() || capped {
                    None
                } else {
                    match http::split_head(&conn.buf) {
                        Some((head_len, consumed)) => {
                            let head: Vec<u8> =
                                conn.buf.get(..head_len).unwrap_or_default().to_vec();
                            conn.buf.drain(..consumed.min(conn.buf.len()));
                            conn.last_activity = arrival;
                            let result = http::parse_request(&head);
                            if result.is_ok() {
                                if conn.parsed >= 1 {
                                    ServerStats::bump(&self.stats.keepalive_reuses);
                                }
                                if !conn.pending.is_empty() || !conn.out.is_empty() {
                                    ServerStats::bump(&self.stats.pipelined_requests);
                                }
                                conn.parsed += 1;
                            }
                            Some(result)
                        }
                        None if conn.buf.len() >= http::MAX_HEAD_BYTES => {
                            conn.buf.clear();
                            Some(Err(ParseError::HeadTooLarge))
                        }
                        None => None,
                    }
                }
            };
            let Some(parsed) = parsed else {
                if !capped {
                    break;
                }
                // The cap stopped parsing, and heads still in `buf` get no
                // read event of their own: go on if writing frees slots.
                if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                    conn.flush_ready();
                }
                self.conn_write(idx);
                let freed = self
                    .conns
                    .get(idx)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| conn.queued() < self.config.max_pipeline);
                if freed {
                    continue;
                }
                break;
            };
            // Stage 2: route without holding the connection borrow.
            match parsed {
                Ok(req) => {
                    let keep_alive = req.wants_keep_alive() && !req.has_body();
                    let gen = self.gens.get(idx).copied().unwrap_or(0);
                    let routed = self.route(idx, gen, req, arrival);
                    let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    match routed {
                        Routed::Reply(resp) => {
                            conn.pending.push_back(Pending::Ready(resp, keep_alive));
                        }
                        Routed::Offloaded { job } => {
                            conn.pending.push_back(Pending::Busy { job, keep_alive });
                        }
                        Routed::Stream(req) => {
                            // Park until earlier pipelined output drains,
                            // then the connection detaches to a worker.
                            conn.deferred_stream = Some(req);
                            conn.no_more_reads = true;
                        }
                    }
                    if !keep_alive {
                        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                            return;
                        };
                        conn.close_after_drain = true;
                        conn.no_more_reads = true;
                    }
                }
                Err(err) => {
                    let status = match err {
                        ParseError::HeadTooLarge => 431,
                        _ => 400,
                    };
                    self.stats.count_status(status);
                    let resp = Response::error(status, &err.to_string());
                    let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    conn.pending.push_back(Pending::Ready(resp, false));
                    conn.close_after_drain = true;
                    conn.no_more_reads = true;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.flush_ready();
        }
        self.conn_write(idx);
        self.conn_maintain(idx);
    }

    /// Routes one request: deadline guard, `/stream` detach, warm-or-cold
    /// service verdict, pool submission with inline 429/503 on refusal.
    fn route(&mut self, idx: usize, gen: u64, req: Request, arrival: Instant) -> Routed {
        let deadline = self.config.deadline;
        if arrival.elapsed() > deadline {
            ServerStats::bump(&self.stats.deadline_expired);
            let resp = Response::error(503, "deadline expired before service")
                .with_header("Retry-After", "1");
            self.stats.count_status(resp.status);
            return Routed::Reply(resp);
        }
        if req.path == "/stream" {
            return Routed::Stream(Box::new(req));
        }
        match self.service.begin(&req) {
            Verdict::Reply(resp) => Routed::Reply(resp),
            Verdict::Offload(ticket) => {
                let job = self.next_job;
                self.next_job += 1;
                let token = token_for(idx, gen);
                let service = Arc::clone(&self.service);
                let completions = Arc::clone(&self.completions);
                let waker = self.waker.clone();
                let submitted = self.try_submit(move || {
                    let resp = if arrival.elapsed() > deadline {
                        // The job sat in the queue past its deadline:
                        // answer a bounded 503 instead of serving late.
                        ServerStats::bump(&service.stats.deadline_expired);
                        let resp = Response::error(503, "deadline expired before service")
                            .with_header("Retry-After", "1");
                        service.stats.count_status(resp.status);
                        resp
                    } else {
                        service.estimate_finish(ticket)
                    };
                    {
                        let mut queue = completions.lock().unwrap_or_else(|e| e.into_inner());
                        queue.push(Completion { token, job, resp });
                    }
                    // Guard dropped before ringing the loop.
                    waker.wake();
                });
                match submitted {
                    Ok(()) => Routed::Offloaded { job },
                    Err(SubmitError::QueueFull) => {
                        ServerStats::bump(&self.stats.rejected_queue_full);
                        let resp = Response::error(429, "server overloaded, retry later")
                            .with_header("Retry-After", "1");
                        self.stats.count_status(resp.status);
                        Routed::Reply(resp)
                    }
                    Err(SubmitError::ShuttingDown) => {
                        ServerStats::bump(&self.stats.rejected_shutdown);
                        let resp = Response::error(503, "server is shutting down");
                        self.stats.count_status(resp.status);
                        Routed::Reply(resp)
                    }
                }
            }
        }
    }

    /// Writes as much queued output as the socket accepts, gathering up to
    /// [`WRITEV_BATCH`] responses per vectored write.
    fn conn_write(&mut self, idx: usize) {
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            while !conn.out.is_empty() {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * WRITEV_BATCH);
                for ob in conn.out.iter().take(WRITEV_BATCH) {
                    let head_rest = ob.head.get(ob.head_pos..).unwrap_or_default();
                    if !head_rest.is_empty() {
                        slices.push(IoSlice::new(head_rest));
                    }
                    let body_rest = ob.body.as_slice().get(ob.body_pos..).unwrap_or_default();
                    if !body_rest.is_empty() {
                        slices.push(IoSlice::new(body_rest));
                    }
                }
                if slices.is_empty() {
                    conn.out.clear();
                    break;
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => break,
                    Ok(n) => {
                        advance_out(&mut conn.out, n);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(idx);
        }
    }

    /// Post-pump maintenance: detach a parked `/stream` once its turn
    /// comes, close fully-drained connections, and re-sync poller
    /// interest (read backpressure, write interest only while output is
    /// queued).
    fn conn_maintain(&mut self, idx: usize) {
        let (detach, close, desired) = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            let drained = conn.pending.is_empty() && conn.out.is_empty();
            let detach = drained && conn.deferred_stream.is_some();
            let close = drained
                && !detach
                && (conn.close_after_drain || (conn.no_more_reads && conn.buf.is_empty()));
            let desired = Interest {
                readable: !conn.no_more_reads
                    && conn.queued() < self.config.max_pipeline
                    && conn.buf.len() < http::MAX_HEAD_BYTES.saturating_mul(2),
                writable: !conn.out.is_empty(),
                edge: false,
            };
            (detach, close, desired)
        };
        if detach {
            self.detach_stream(idx);
            return;
        }
        if close {
            self.close_conn(idx);
            return;
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if desired != conn.registered {
                let token = token_for(idx, self.gens.get(idx).copied().unwrap_or(0));
                if self
                    .poller
                    .reregister(conn.stream.as_fd(), token, desired)
                    .is_ok()
                {
                    conn.registered = desired;
                }
            }
        }
    }

    /// Hands a `/stream` connection to the worker pool: the streaming
    /// handler writes chunked frames live while the estimation runs, which
    /// must not happen on the loop. The socket reverts to blocking mode
    /// and leaves the poller entirely; the worker closes it when done.
    fn detach_stream(&mut self, idx: usize) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if let Some(g) = self.gens.get_mut(idx) {
            *g += 1;
        }
        self.free.push(idx);
        let _ = self.poller.deregister(conn.stream.as_fd());
        let Some(req) = conn.deferred_stream.take() else {
            return;
        };
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.set_read_timeout(Some(self.config.read_timeout));
        let service = Arc::clone(&self.service);
        // `try_submit` consumes its closure even on failure, so the stream
        // rides in a shared slot the loop can take back to answer the
        // rejection itself.
        let slot = Arc::new(Mutex::new(Some(conn.stream)));
        let job_slot = Arc::clone(&slot);
        let submitted = self.try_submit(move || {
            let taken = job_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(mut stream) = taken {
                crate::streaming::handle(&service, &mut stream, &req);
            }
        });
        if let Err(err) = submitted {
            let taken = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            let Some(mut stream) = taken else { return };
            let resp = match err {
                SubmitError::QueueFull => {
                    ServerStats::bump(&self.stats.rejected_queue_full);
                    Response::error(429, "server overloaded, retry later")
                        .with_header("Retry-After", "1")
                }
                SubmitError::ShuttingDown => {
                    ServerStats::bump(&self.stats.rejected_shutdown);
                    Response::error(503, "server is shutting down")
                }
            };
            self.stats.count_status(resp.status);
            // Head already parsed (no unread bytes to RST the reply away);
            // the socket is blocking again, so a plain write suffices.
            let _ = stream.write_all(&resp.to_bytes());
        }
    }

    // ---- completions and timers ---------------------------------------

    /// Splices finished cold responses back into their connections'
    /// pipeline slots and pumps those connections.
    fn apply_completions(&mut self) {
        let done = {
            let mut queue = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *queue)
        };
        if done.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(done.len());
        for completion in done {
            let Some((idx, gen)) = split_token(completion.token) else {
                continue;
            };
            if self.gens.get(idx).copied().map(gen_tag) != Some(gen) {
                continue; // connection died while the job ran
            }
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            for slot in conn.pending.iter_mut() {
                if let Pending::Busy { job, keep_alive } = slot {
                    if *job == completion.job {
                        *slot = Pending::Ready(completion.resp, *keep_alive);
                        conn.last_activity = Instant::now();
                        break;
                    }
                }
            }
            if !touched.contains(&idx) {
                touched.push(idx);
            }
        }
        for idx in touched {
            self.conn_pump(idx);
        }
    }

    /// Advances the wheel; fires close idle/stalled connections and
    /// re-arm live ones.
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut fired: Vec<(Token, u64)> = Vec::new();
        self.wheel
            .advance(now, |token, gen| fired.push((token, gen)));
        for (token, gen) in fired {
            let Some((idx, token_gen)) = split_token(token) else {
                continue;
            };
            if self.gens.get(idx).copied().map(gen_tag) != Some(gen) || token_gen != gen {
                continue; // stale entry for a recycled slot
            }
            let (close, rearm) = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if !conn.pending.is_empty() {
                    // A cold job is in flight; its deadline bounds it.
                    // Stay patient and check again next period.
                    (false, self.config.keepalive_timeout)
                } else {
                    let idle = now.saturating_duration_since(conn.last_activity);
                    let limit = if !conn.out.is_empty() {
                        // Unread output: the client stopped draining.
                        self.config.keepalive_timeout
                    } else if conn.parsed == 0 || !conn.buf.is_empty() {
                        self.config.read_timeout
                    } else {
                        self.config.keepalive_timeout
                    };
                    if idle >= limit {
                        (true, limit)
                    } else {
                        (false, limit.saturating_sub(idle))
                    }
                }
            };
            if close {
                ServerStats::bump(&self.stats.conn_timeouts);
                self.close_conn(idx);
            } else {
                self.wheel.arm(now, rearm, token, gen);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_fd());
        if let Some(g) = self.gens.get_mut(idx) {
            *g += 1;
        }
        self.free.push(idx);
        // `conn.stream` drops here, closing the socket.
    }

    // ---- shutdown -----------------------------------------------------

    /// Coordinated graceful drain. Every loop has stopped polling (the
    /// latch is set); they rendezvous so that *one* loop drains the shared
    /// pool — running every admitted job to completion — then each loop
    /// splices its own completions and flushes its connections' queued
    /// output with bounded blocking writes.
    fn drain(&mut self) {
        if self.barrier.wait() {
            self.pool.drain();
        }
        // Second rendezvous: no loop touches its completion queue until
        // every in-flight job has finished pushing into it.
        self.barrier.wait();
        self.apply_completions();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            conn.flush_ready();
            if !conn.out.is_empty() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(DRAIN_WRITE_TIMEOUT));
                for ob in conn.out.iter() {
                    let head_rest = ob.head.get(ob.head_pos..).unwrap_or_default();
                    if conn.stream.write_all(head_rest).is_err() {
                        break;
                    }
                    let body_rest = ob.body.as_slice().get(ob.body_pos..).unwrap_or_default();
                    if conn.stream.write_all(body_rest).is_err() {
                        break;
                    }
                }
                let _ = conn.stream.flush();
            }
            self.close_conn(idx);
        }
    }
}

/// Consumes `n` written bytes from the front of the write queue.
fn advance_out(out: &mut VecDeque<OutBuf>, mut n: usize) {
    while n > 0 {
        let Some(front) = out.front_mut() else {
            return;
        };
        let head_rest = front.head.len().saturating_sub(front.head_pos);
        let take = head_rest.min(n);
        front.head_pos += take;
        n -= take;
        if n > 0 {
            let body_rest = front.body.len().saturating_sub(front.body_pos);
            let take = body_rest.min(n);
            front.body_pos += take;
            n -= take;
        }
        if front.done() {
            out.pop_front();
        } else {
            return;
        }
    }
    while matches!(out.front(), Some(front) if front.done()) {
        out.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_index_and_generation() {
        for (idx, gen) in [(0usize, 0u64), (1, 1), (4096, 77), (0xfffffff, 0xffff_ffff)] {
            let token = token_for(idx, gen);
            assert_eq!(split_token(token), Some((idx, gen)));
        }
        assert_eq!(split_token(LISTENER), None);
        assert_eq!(split_token(WAKER), None);
    }

    #[test]
    fn token_generation_wraparound_stays_masked_and_consistent() {
        let wrap = 1u64 << 32;
        // Past 2^32 the packed generation is the 32-bit tag — round trips
        // must agree with `gen_tag`, not silently alias the slot index.
        for (idx, gen) in [(3usize, wrap), (3, wrap + 7), (0, u64::MAX)] {
            let token = token_for(idx, gen);
            assert_eq!(split_token(token), Some((idx, gen_tag(gen))));
            let (_, unpacked) = split_token(token).expect("conn token");
            assert!(unpacked <= GEN_MASK, "unpacked gen fits 32 bits");
        }
        // A slab generation past 2^32 still matches its own token…
        let slab_gen = wrap + 1;
        let live = token_for(5, slab_gen);
        assert_eq!(
            split_token(live).map(|(_, g)| g),
            Some(gen_tag(slab_gen)),
            "live token matches the masked slab generation"
        );
        // …and still rejects its predecessor's (the stale-timer case).
        let stale = token_for(5, slab_gen - 1);
        assert_ne!(
            split_token(stale).map(|(_, g)| g),
            Some(gen_tag(slab_gen)),
            "stale token from the previous generation must not match"
        );
    }

    #[test]
    fn drain_barrier_elects_one_leader_per_generation() {
        let barrier = Arc::new(DrainBarrier::new(4));
        for _ in 0..3 {
            let leaders: Vec<std::thread::JoinHandle<bool>> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&barrier);
                    std::thread::spawn(move || b.wait())
                })
                .collect();
            let elected: usize = leaders
                .into_iter()
                .map(|h| usize::from(h.join().expect("barrier thread")))
                .sum();
            assert_eq!(elected, 1, "exactly one leader per generation");
        }
    }

    #[test]
    fn drain_barrier_releases_waiters_when_a_party_leaves() {
        let barrier = Arc::new(DrainBarrier::new(3));
        let waiters: Vec<std::thread::JoinHandle<bool>> = (0..2)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || b.wait())
            })
            .collect();
        // Give both waiters time to arrive, then withdraw the third party
        // (e.g. its thread failed to spawn): the generation must complete
        // and elect exactly one of the released waiters leader.
        std::thread::sleep(Duration::from_millis(50));
        barrier.leave();
        let elected: usize = waiters
            .into_iter()
            .map(|h| usize::from(h.join().expect("barrier thread")))
            .sum();
        assert_eq!(
            elected, 1,
            "a leave-completed generation still has one leader"
        );
    }

    #[test]
    fn advance_out_walks_heads_bodies_and_buffer_boundaries() {
        let buf = |head: &[u8], body: &[u8]| OutBuf {
            head: head.to_vec(),
            head_pos: 0,
            body: Body::Bytes(body.to_vec()),
            body_pos: 0,
        };
        let mut out: VecDeque<OutBuf> = [buf(b"HEAD1", b"body1"), buf(b"HEAD2", b"b2")]
            .into_iter()
            .collect();
        advance_out(&mut out, 3); // part of head 1
        assert_eq!(out.front().map(|f| f.head_pos), Some(3));
        advance_out(&mut out, 4); // rest of head 1 + 2 body bytes
        assert_eq!(out.front().map(|f| f.body_pos), Some(2));
        advance_out(&mut out, 3 + 5); // finish 1, head 2 spill
        assert_eq!(out.len(), 1);
        assert_eq!(out.front().map(|f| f.head_pos), Some(5));
        advance_out(&mut out, 2); // finish everything
        assert!(out.is_empty());
        advance_out(&mut out, 10); // over-advance on empty: no panic
    }
}
