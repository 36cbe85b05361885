//! The event-driven RPC server: thousands of connections, a handful of
//! threads.
//!
//! [`crate::server::RpcServer`] spends two threads per connection, which
//! caps a node at hundreds of clients and — because each connection's
//! worker blocks in `read` between requests — serialises every client on
//! its own round-trip latency. This module keeps that server compiled in
//! as the semantic oracle and adds a second transport with the same wire
//! format and the same request semantics (both call `crate::exec`'s
//! `handle_request`) but an inverted thread model:
//!
//! * one **reactor thread** owns every socket. It blocks in
//!   [`crate::poll::wait`] over the listener, a [`Waker`] doorbell, and
//!   all nonblocking connection sockets; it reads bytes, reassembles
//!   fragments, decodes [`ClientMessage`]s into per-connection inboxes,
//!   and flushes per-connection outboxes;
//! * a small **worker pool** executes decoded requests. At most one
//!   worker drains a given connection at a time (the `executing` flag),
//!   which preserves the blocking server's contract: requests on one
//!   connection are executed and answered in receive order. Workers for
//!   *different* connections run in parallel, exactly as the blocking
//!   server's per-connection threads did;
//! * **backpressure** is per connection: when a client pipelines more
//!   than [`ReactorConfig::max_pipeline_depth`] undecided requests, the
//!   reactor parks that connection's read interest (counted in
//!   `rpc_queue_stalls`) and lets TCP flow control push back, resuming
//!   as workers drain the inbox.
//!
//! Shutdown preserves [`crate::server::RpcServer::shutdown`]'s drain
//! contract: stop accepting, stop reading, execute every request already
//! received, flush every reply, then tear down — force-closing only what
//! outlives the grace period — and finally flush the write-ahead log so
//! an acknowledged insert can never be lost to a server exit.

use std::collections::{HashSet, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use pscache::{AutomatonId, Cache, ClientPolicy, IdemToken, NotificationSink, WriteRun};

use crate::error::{Error, Result};
use crate::exec::{
    commit_run, health_report, notification_message, req_kind, stage_request, teardown_registered,
    RequestCtx, StatsInner,
};
use crate::framing::{fragment, FRAGMENT_HEADER, FRAGMENT_PAYLOAD};
use crate::message::{CacheReply, ClientMessage, Request, ServerMessage, ServerStats};
use crate::poll::{self, PollFd, Waker, POLL_IN, POLL_OUT};

/// Requests one worker executes for a connection before re-queuing it,
/// so one deeply pipelined client cannot starve the others.
const WORKER_BUDGET: usize = 32;

/// Replies one commit run holds before it settles: the most records a
/// single connection puts behind one durability wait, and the bound on
/// how many later requests an insert's reply can sit behind. Sixteen
/// already turns a pipelined writer's cost from one `fsync` per record
/// into one per sixteen; it is not `WORKER_BUDGET` because psbench's
/// closed loop cannot yet measure past ≈ 46k ticks/s (ROADMAP item
/// 1(a)) and runs of 32 go faster than that on a fast day.
const RUN_LIMIT: usize = 16;

/// How long [`ReactorServer::shutdown`] lets connections drain before
/// force-closing the stragglers (mirrors the blocking server's grace).
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Tuning knobs for a [`ReactorServer`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads executing decoded requests. The reactor thread
    /// itself never executes a request, so this is the server's whole
    /// execution parallelism.
    pub workers: usize,
    /// Decoded-but-unanswered requests one connection may queue before
    /// its read interest is parked (counted in
    /// [`ServerStats::rpc_queue_stalls`]).
    pub max_pipeline_depth: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: pscache::config::DEFAULT_RPC_WORKERS,
            max_pipeline_depth: pscache::config::DEFAULT_RPC_MAX_PIPELINE,
        }
    }
}

/// What a worker pulls off the shared job queue.
enum Job {
    /// Drain this connection's inbox (its `executing` flag is set).
    Conn(Arc<ConnShared>),
    /// Exit; one per worker at shutdown.
    Stop,
}

/// Per-connection execution state, behind one mutex. The invariant the
/// whole design rests on: `executing` is true exactly while one worker
/// owns this connection, so requests execute strictly in inbox order.
#[derive(Default)]
struct ExecState {
    /// Decoded requests awaiting execution, in receive order, each with
    /// its decode-time timestamp (`None` when metrics are disabled) so
    /// the worker that claims it can charge the inbox wait to the
    /// `queue` stage of the request's latency breakdown.
    inbox: VecDeque<(ClientMessage, Option<Instant>)>,
    /// A worker currently owns this connection's inbox.
    executing: bool,
    /// No more bytes will be read (EOF, parse error, or drain).
    read_closed: bool,
    /// The connection is dead: discard the inbox, tear down, free.
    defunct: bool,
    /// Teardown (automaton unregistration) has run; the reactor may
    /// drop the socket.
    torn_down: bool,
    /// Read interest is currently parked for backpressure (tracked so a
    /// stall is counted once per episode, not once per poll iteration).
    paused: bool,
}

/// The parts of a connection shared between the reactor thread, the
/// worker pool, and the sinks of the automata it registered.
struct ConnShared {
    exec: Mutex<ExecState>,
    /// Outbound wire bytes (already fragmented); only the reactor
    /// thread drains it into the socket.
    out: Mutex<Vec<u8>>,
    /// Automata this connection registered; touched only by the single
    /// active worker, including at teardown.
    registered: Mutex<HashSet<AutomatonId>>,
    /// The reactor's doorbell, rung whenever `out` gains bytes.
    waker: Arc<Waker>,
    /// Server counters, reachable from the notification delivery path
    /// (which holds only this struct) so it can account.
    stats: Arc<StatsInner>,
    /// Outbox bytes beyond which a delivery evicts this connection as a
    /// slow consumer ([`pscache::ClientPolicy::max_outbox_bytes`]; 0
    /// disables eviction).
    max_outbox_bytes: usize,
    /// The served cache's observability registry, reachable from the
    /// flush path (which holds only this struct) so a drained outbox
    /// can complete the flush stage of its pending operations.
    obs: Arc<pscache::Obs>,
    /// Replies appended to `out` whose flush has not yet happened: the
    /// reactor completes (and records) each one when the outbox next
    /// drains to empty. Empty whenever metrics are disabled.
    pending_ops: Mutex<VecDeque<PendingOp>>,
}

/// Cap on outstanding [`PendingOp`]s per connection: a subscriber whose
/// outbox never fully drains (a notification firehose) must not pin
/// unbounded trace state; past the cap the oldest span is dropped
/// unrecorded.
const PENDING_OPS_CAP: usize = 1024;

/// A measured request whose reply sits in the outbox awaiting flush —
/// the first two stages of its latency breakdown, waiting for the third.
struct PendingOp {
    /// Client-stamped wire trace id (0 when unstamped).
    trace_id: u64,
    kind: pscache::ReqKind,
    /// Table the request addressed, for the slow-op log.
    table: Option<String>,
    queue_ns: u64,
    exec_ns: u64,
    /// When the reply landed in the outbox.
    appended: Instant,
}

/// Append one logical message to an outbox under one lock acquisition —
/// workers, the reactor thread and automaton-pool workers all append
/// concurrently, and fragments of two messages must never interleave —
/// and return the outbox length that acquisition observed.
fn append_message(out: &Mutex<Vec<u8>>, message: &[u8]) -> usize {
    let mut out = out.lock();
    for frag in fragment(message) {
        out.extend_from_slice(&frag);
    }
    out.len()
}

/// A reactor connection's [`NotificationSink`], built before the
/// automaton is registered and owned by it until the unregistration
/// drain: the automaton-pool worker that ran `send()` encodes the
/// notification, appends it to the outbox and rings the doorbell. It
/// never touches the socket, so it never blocks on the client.
struct ReactorRoute {
    shared: Arc<ConnShared>,
}

impl NotificationSink for ReactorRoute {
    fn deliver(&self, note: pscache::Notification) -> bool {
        let shared = &*self.shared;
        if shared.exec.lock().defunct {
            return false;
        }
        let outbox_len = append_message(&shared.out, &notification_message(note).encode());
        // Slow-consumer eviction: a client that subscribes to a firehose
        // and stops draining its socket would otherwise buffer unbounded
        // notification bytes server-side. Past the policy cap the
        // connection is defunct — its automata are unregistered by the
        // teardown worker, exactly as if it had disconnected. Sinks of
        // one connection run concurrently on different pool workers, so
        // the cap is judged on the length the append itself observed and
        // the eviction belongs to whichever delivery flips `defunct`.
        let accepted = shared.max_outbox_bytes == 0 || outbox_len <= shared.max_outbox_bytes;
        if accepted {
            shared.stats.notifications.fetch_add(1, Ordering::Release);
        } else if mark_defunct(shared, &shared.stats) && shared.obs.enabled() {
            shared
                .obs
                .slow_consumer_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        shared.waker.wake();
        accepted
    }
}

/// Incremental fragment reassembly over a nonblocking byte stream — the
/// streaming counterpart of [`crate::framing::read_message`], fed bytes
/// as the socket produces them.
#[derive(Default)]
struct FrameParser {
    buf: Vec<u8>,
    pos: usize,
    msg: Vec<u8>,
}

impl FrameParser {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete logical message, if the buffer holds one.
    fn next_message(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            let avail = self.buf.len() - self.pos;
            if avail < FRAGMENT_HEADER {
                break;
            }
            let h = &self.buf[self.pos..];
            let len = u16::from_le_bytes([h[0], h[1]]) as usize;
            let last = h[2] != 0;
            if len > FRAGMENT_PAYLOAD {
                return Err(Error::protocol(format!(
                    "fragment length {len} exceeds the {FRAGMENT_PAYLOAD}-byte payload limit"
                )));
            }
            if avail < FRAGMENT_HEADER + len {
                break;
            }
            let start = self.pos + FRAGMENT_HEADER;
            self.msg.extend_from_slice(&self.buf[start..start + len]);
            self.pos += FRAGMENT_HEADER + len;
            if last {
                self.compact();
                return Ok(Some(std::mem::take(&mut self.msg)));
            }
        }
        self.compact();
        Ok(None)
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Continuously-refilled token buckets backing the per-connection
/// request-rate and byte quotas. Touched only by the reactor thread, so
/// no lock; floats so sub-1/sec refill accumulates across polls.
struct Throttle {
    req_tokens: f64,
    byte_tokens: f64,
    last_refill: Instant,
}

impl Throttle {
    /// A fresh connection starts with full buckets: an idle client may
    /// spend its whole burst allowance immediately.
    fn full(policy: &ClientPolicy) -> Throttle {
        Throttle {
            req_tokens: request_bucket_cap(policy),
            byte_tokens: policy.max_bytes_per_sec as f64,
            last_refill: Instant::now(),
        }
    }
}

fn request_bucket_cap(policy: &ClientPolicy) -> f64 {
    if policy.burst > 0 {
        policy.burst as f64
    } else {
        policy.max_requests_per_sec as f64
    }
}

/// Admission decision for one decoded request of `nbytes` wire bytes
/// with `inbox_len` requests already decoded-but-unanswered on the same
/// connection. Refills the buckets by wall-clock time, then either
/// admits (consuming tokens) or rejects (consuming nothing — a rejected
/// request must not push the client further into debt).
fn admit(policy: &ClientPolicy, t: &mut Throttle, nbytes: usize, inbox_len: usize) -> bool {
    if policy.max_in_flight > 0 && inbox_len >= policy.max_in_flight {
        return false;
    }
    let now = Instant::now();
    let dt = now.duration_since(t.last_refill).as_secs_f64();
    t.last_refill = now;
    if policy.max_requests_per_sec > 0 {
        t.req_tokens = (t.req_tokens + dt * policy.max_requests_per_sec as f64)
            .min(request_bucket_cap(policy));
        if t.req_tokens < 1.0 {
            return false;
        }
    }
    if policy.max_bytes_per_sec > 0 {
        t.byte_tokens = (t.byte_tokens + dt * policy.max_bytes_per_sec as f64)
            .min(policy.max_bytes_per_sec as f64);
        if t.byte_tokens < nbytes as f64 {
            return false;
        }
    }
    if policy.max_requests_per_sec > 0 {
        t.req_tokens -= 1.0;
    }
    if policy.max_bytes_per_sec > 0 {
        t.byte_tokens -= nbytes as f64;
    }
    true
}

/// The reactor thread's view of one connection: the socket plus the
/// shared queues.
struct Conn {
    shared: Arc<ConnShared>,
    stream: TcpStream,
    parser: FrameParser,
    throttle: Throttle,
}

/// A running event-driven RPC server bound to a TCP address.
///
/// Wire-compatible with [`crate::server::RpcServer`] — any
/// [`crate::client::CacheClient`] works against either — but built to
/// hold thousands of concurrent connections and to let a pipelining
/// client keep many requests in flight on one socket.
pub struct ReactorServer {
    local_addr: SocketAddr,
    cache: Cache,
    stats: Arc<StatsInner>,
    shutting_down: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Sender<Job>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ReactorServer {
    /// Bind with the cache's configured worker count (see
    /// `pscache::CacheBuilder::rpc_workers`) and the default pipeline
    /// depth.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener or the reactor's doorbell
    /// cannot be created.
    ///
    /// # Example
    ///
    /// ```
    /// use pscache::CacheBuilder;
    /// use psrpc::{client::CacheClient, reactor::ReactorServer};
    ///
    /// let server = ReactorServer::bind(CacheBuilder::new().build(), "127.0.0.1:0")?;
    /// let client = CacheClient::connect(server.local_addr())?;
    /// client.execute("create table T (v integer)")?;
    /// client.insert("T", vec![7i64.into()])?;
    /// assert_eq!(client.select("select * from T")?.len(), 1);
    /// drop(client);
    /// server.shutdown();
    /// # Ok::<(), psrpc::Error>(())
    /// ```
    pub fn bind(cache: Cache, addr: impl ToSocketAddrs) -> Result<ReactorServer> {
        let config = ReactorConfig {
            workers: cache.rpc_workers(),
            ..ReactorConfig::default()
        };
        Self::bind_with(cache, addr, config)
    }

    /// Bind with explicit tuning.
    ///
    /// # Errors
    ///
    /// See [`ReactorServer::bind`].
    pub fn bind_with(
        cache: Cache,
        addr: impl ToSocketAddrs,
        config: ReactorConfig,
    ) -> Result<ReactorServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(StatsInner::default());
        let waker = Arc::new(Waker::new()?);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = unbounded::<Job>();

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let cache = cache.clone();
                let stats = Arc::clone(&stats);
                let job_rx = job_rx.clone();
                let job_tx = job_tx.clone();
                std::thread::Builder::new()
                    .name(format!("psrpc-reactor-worker-{i}"))
                    .spawn(move || worker_loop(&cache, &stats, &job_rx, &job_tx))
                    .expect("spawning a reactor worker never fails")
            })
            .collect();

        let reactor = {
            let reactor_cache = cache.clone();
            let policy = cache.client_policy();
            let stats = Arc::clone(&stats);
            let waker = Arc::clone(&waker);
            let shutting_down = Arc::clone(&shutting_down);
            let job_tx = job_tx.clone();
            let max_pipeline = config.max_pipeline_depth.max(1);
            std::thread::Builder::new()
                .name("psrpc-reactor".into())
                .spawn(move || {
                    reactor_loop(
                        &listener,
                        &reactor_cache,
                        &policy,
                        &stats,
                        &shutting_down,
                        &waker,
                        &job_tx,
                        max_pipeline,
                    );
                })
                .expect("spawning the reactor thread never fails")
        };

        Ok(ReactorServer {
            local_addr,
            cache,
            stats,
            shutting_down,
            waker,
            reactor: Some(reactor),
            workers,
            job_tx,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters, including the reactor's
    /// in-flight depth and backpressure stalls.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot(&self.cache)
    }

    /// Graceful shutdown with the same contract as
    /// [`crate::server::RpcServer::shutdown`]: stop accepting, stop
    /// reading, execute every request already received and flush its
    /// reply, force-close what outlives the grace period, join every
    /// thread, and flush the write-ahead log.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // Teardown jobs the reactor queued on its way out run before
        // these sentinels, so every automaton is unregistered by the
        // time the workers exit.
        for _ in 0..self.workers.len() {
            let _ = self.job_tx.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let _ = self.cache.flush_wal();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop();
        }
    }
}

fn worker_loop(cache: &Cache, stats: &StatsInner, job_rx: &Receiver<Job>, job_tx: &Sender<Job>) {
    let ctx = RequestCtx { cache, stats };
    while let Ok(job) = job_rx.recv() {
        match job {
            Job::Stop => break,
            Job::Conn(conn) => {
                // Busy for the whole claim, commit waits included: a
                // worker blocked on the log serves nobody else.
                stats.worker_busy.fetch_add(1, Ordering::Release);
                run_conn(&ctx, job_tx, &conn);
                stats.worker_busy.fetch_sub(1, Ordering::Release);
            }
        }
    }
}

/// A request the worker has executed whose reply waits, in inbox order,
/// for the settle point that releases it.
struct Held {
    seq: u64,
    reply: CacheReply,
    /// The request's outcome waits on the run's commit: its reply
    /// stands only if the commit succeeds.
    awaits_commit: bool,
    /// Client-stamped wire trace id (0 when unstamped).
    trace_id: u64,
    /// Queue time, kind, table and claim instant — the open execute
    /// stage of the request's latency breakdown (`None` when metrics
    /// are disabled).
    span: Option<(u64, pscache::ReqKind, Option<String>, Instant)>,
}

/// A settle point: commit `run` — one durability wait for everything it
/// staged — then hand `held` to the client in inbox order under one
/// outbox lock acquisition and one doorbell ring, closing each
/// request's execute stage (claim to reply appended, commit wait
/// included) and returning its `in_flight` slot. No held reply reaches
/// the outbox before its record is durable; if the commit fails, the
/// replies that were waiting on it become the log's error and the rest
/// keep their own. With `deliver` false (the connection is defunct) the
/// run still commits, so its staged rows become visible, and the
/// replies are discarded.
fn settle(
    ctx: &RequestCtx<'_>,
    conn: &ConnShared,
    run: &mut WriteRun<'_>,
    held: &mut Vec<Held>,
    deliver: bool,
) {
    let failure = commit_run(ctx.cache, run);
    if held.is_empty() {
        return;
    }
    let settled = held.len() as u64;
    if deliver {
        // Framed outside the lock; the whole run lands in the outbox
        // as one contiguous append.
        let mut wire = Vec::new();
        let mut spans = Vec::new();
        for h in held.drain(..) {
            if let Some(span) = h.span {
                spans.push((h.trace_id, span));
            }
            let reply = match &failure {
                Some(failure) if h.awaits_commit => failure.clone(),
                _ => h.reply,
            };
            for frag in fragment(&ServerMessage::Reply { seq: h.seq, reply }.encode()) {
                wire.extend_from_slice(&frag);
            }
        }
        conn.out.lock().extend_from_slice(&wire);
        if !spans.is_empty() {
            let appended = Instant::now();
            let mut pending = conn.pending_ops.lock();
            for (trace_id, (queue_ns, kind, table, claimed)) in spans {
                if pending.len() >= PENDING_OPS_CAP {
                    pending.pop_front();
                }
                pending.push_back(PendingOp {
                    trace_id,
                    kind,
                    table,
                    queue_ns,
                    exec_ns: appended.saturating_duration_since(claimed).as_nanos() as u64,
                    appended,
                });
            }
        }
    }
    held.clear();
    ctx.stats.in_flight.fetch_sub(settled, Ordering::Release);
    conn.waker.wake();
}

/// The defunct half of [`run_conn`]: discard the inbox and, once per
/// connection, unregister its automata and let the reactor drop the
/// socket. Clears the `executing` flag.
fn tear_down(ctx: &RequestCtx<'_>, conn: &ConnShared) {
    let mut exec = conn.exec.lock();
    let dropped = exec.inbox.len() as u64;
    exec.inbox.clear();
    if dropped > 0 {
        ctx.stats.in_flight.fetch_sub(dropped, Ordering::Release);
    }
    if exec.torn_down {
        exec.executing = false;
        return;
    }
    exec.torn_down = true;
    drop(exec);
    {
        let mut registered = conn.registered.lock();
        teardown_registered(ctx, &mut registered);
    }
    ctx.stats.active.fetch_sub(1, Ordering::Release);
    conn.exec.lock().executing = false;
    conn.waker.wake();
}

/// Drain one connection's inbox (up to [`WORKER_BUDGET`] requests) and
/// ring the reactor. Runs with the connection's `executing` flag held;
/// clears it on every return path except the fairness re-queue.
///
/// The worker executes into one [`WriteRun`]: consecutive typed inserts
/// are *staged* and their replies held, and the run is committed — one
/// durability wait — at the next settle point: (a) the inbox is empty,
/// (b) the next request is anything but a typed insert (a barrier:
/// it must observe, and be ordered after, everything before it), or
/// (c) the run holds [`RUN_LIMIT`] replies or the budget is spent. A
/// reply that waits on nothing (in-memory
/// table, refused row) is released at once when nothing is held and
/// otherwise queues behind what is, so replies leave in inbox order. A
/// client with one request in flight always meets (a) after that
/// request: stage, wait, reply — a run of one; a pipelining writer gets
/// up to `RUN_LIMIT` records per flush.
fn run_conn(ctx: &RequestCtx<'_>, job_tx: &Sender<Job>, conn: &Arc<ConnShared>) {
    let mut run = ctx.cache.write_run();
    let mut held: Vec<Held> = Vec::new();
    let mut budget = WORKER_BUDGET;
    loop {
        let (msg, received) = {
            let mut exec = conn.exec.lock();
            if exec.defunct {
                drop(exec);
                settle(ctx, conn, &mut run, &mut held, false);
                tear_down(ctx, conn);
                return;
            }
            let joins_run = budget > 0
                && held.len() < RUN_LIMIT
                && exec.inbox.front().is_some_and(|(m, _)| {
                    matches!(
                        m.request,
                        Request::Insert { .. } | Request::InsertBatch { .. }
                    )
                });
            if !held.is_empty() && !joins_run {
                drop(exec);
                settle(ctx, conn, &mut run, &mut held, true);
                continue;
            }
            if budget == 0 {
                // Budget spent with work possibly left: go to the back
                // of the queue (keeping `executing` set, so the reactor
                // won't double-enqueue).
                drop(exec);
                let _ = job_tx.send(Job::Conn(Arc::clone(conn)));
                return;
            }
            match exec.inbox.pop_front() {
                Some(entry) => entry,
                None => {
                    exec.executing = false;
                    drop(exec);
                    // The finalisation sweep skips connections while
                    // `executing` is set; if an EOF (or drain) arrived
                    // during this run, nothing else will wake the
                    // reactor to notice the flag cleared. Ring it.
                    conn.waker.wake();
                    return;
                }
            }
        };
        budget -= 1;
        let sink = || ReactorRoute {
            shared: Arc::clone(conn),
        };
        let token = msg
            .token
            .map(|(client_id, seq)| IdemToken { client_id, seq });
        // The first stage of the latency breakdown closes at pickup:
        // queue time is decode-to-claim. Everything trace-related keys
        // off `received` being stamped, so a metrics-off cache pays no
        // clock reads here.
        let span = received.map(|at| {
            let table = match &msg.request {
                Request::Insert { table, .. } | Request::InsertBatch { table, .. } => {
                    Some(table.clone())
                }
                _ => None,
            };
            (
                at.elapsed().as_nanos() as u64,
                req_kind(&msg.request),
                table,
                Instant::now(),
            )
        });
        let awaiting = run.awaiting();
        let reply = {
            let mut registered = conn.registered.lock();
            stage_request(ctx, &mut run, &mut registered, sink, msg.request, token)
        };
        held.push(Held {
            seq: msg.seq,
            reply,
            awaits_commit: run.awaiting() != awaiting,
            trace_id: msg.trace.unwrap_or(0),
            span,
        });
        if run.awaiting() == 0 {
            settle(ctx, conn, &mut run, &mut held, true);
        }
    }
}

/// The connection is unusable (write failure, slow-consumer eviction):
/// discard undecided work and flag it for teardown. Idempotent; returns
/// whether this call made the transition, so a cause is counted once
/// however many threads report it.
fn mark_defunct(shared: &ConnShared, stats: &StatsInner) -> bool {
    let mut exec = shared.exec.lock();
    if exec.defunct {
        return false;
    }
    exec.defunct = true;
    let dropped = exec.inbox.len() as u64;
    exec.inbox.clear();
    if dropped > 0 {
        stats.in_flight.fetch_sub(dropped, Ordering::Release);
    }
    drop(exec);
    // Spans whose flush will never happen are dropped, not recorded
    // with a fabricated flush time.
    shared.pending_ops.lock().clear();
    true
}

fn accept_all(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    stats: &Arc<StatsInner>,
    waker: &Arc<Waker>,
    policy: &ClientPolicy,
    obs: &Arc<pscache::Obs>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                stats.accepted.fetch_add(1, Ordering::Release);
                stats.active.fetch_add(1, Ordering::Release);
                conns.push(Conn {
                    shared: Arc::new(ConnShared {
                        exec: Mutex::new(ExecState::default()),
                        out: Mutex::new(Vec::new()),
                        registered: Mutex::new(HashSet::new()),
                        waker: Arc::clone(waker),
                        stats: Arc::clone(stats),
                        max_outbox_bytes: policy.max_outbox_bytes,
                        obs: Arc::clone(obs),
                        pending_ops: Mutex::new(VecDeque::new()),
                    }),
                    stream,
                    parser: FrameParser::default(),
                    throttle: Throttle::full(policy),
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Drain readable bytes into the parser and decoded requests into the
/// inbox, handing the connection to a worker when it goes busy.
///
/// This is also where admission control lives: health probes are
/// answered inline (never queued, so a probe gets its reply even with
/// every worker wedged), and requests over the connection's rate, byte
/// or in-flight budget are answered with a typed `Throttled` rejection
/// without ever reaching the worker pool.
fn reactor_read(
    conn: &mut Conn,
    buf: &mut [u8],
    cache: &Cache,
    policy: &ClientPolicy,
    stats: &StatsInner,
    job_tx: &Sender<Job>,
    max_pipeline: usize,
) {
    loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                conn.shared.exec.lock().read_closed = true;
                return;
            }
            Ok(n) => {
                conn.parser.push(&buf[..n]);
                loop {
                    match conn.parser.next_message() {
                        Ok(Some(bytes)) => match ClientMessage::decode(&bytes) {
                            Ok(msg) => {
                                stats.requests.fetch_add(1, Ordering::Release);
                                if matches!(msg.request, Request::Health) {
                                    // Readiness must not depend on worker
                                    // availability: answer from atomics on
                                    // the reactor thread. The outbox is
                                    // flushed later this same poll
                                    // iteration.
                                    cache.obs().count_request(pscache::ReqKind::Control);
                                    append_message(
                                        &conn.shared.out,
                                        &ServerMessage::Reply {
                                            seq: msg.seq,
                                            reply: CacheReply::Health {
                                                report: health_report(cache, stats),
                                            },
                                        }
                                        .encode(),
                                    );
                                    continue;
                                }
                                if matches!(msg.request, Request::Metrics) {
                                    // Same contract as Health: a scraper
                                    // must get its numbers from a node
                                    // whose worker pool is saturated —
                                    // which is exactly when the numbers
                                    // matter. Snapshotting is lock-free
                                    // reads of atomics, cheap enough for
                                    // the poll thread.
                                    cache.obs().count_request(pscache::ReqKind::Control);
                                    append_message(
                                        &conn.shared.out,
                                        &ServerMessage::Reply {
                                            seq: msg.seq,
                                            reply: CacheReply::Metrics {
                                                snapshot: cache.obs().snapshot(),
                                            },
                                        }
                                        .encode(),
                                    );
                                    continue;
                                }
                                let inbox_len = conn.shared.exec.lock().inbox.len();
                                if !admit(policy, &mut conn.throttle, bytes.len(), inbox_len) {
                                    stats.requests_throttled.fetch_add(1, Ordering::Release);
                                    append_message(
                                        &conn.shared.out,
                                        &ServerMessage::Reply {
                                            seq: msg.seq,
                                            reply: CacheReply::Throttled {
                                                retry_after_ms: policy.retry_after().as_millis()
                                                    as u64,
                                            },
                                        }
                                        .encode(),
                                    );
                                    continue;
                                }
                                stats.in_flight.fetch_add(1, Ordering::Release);
                                let received = cache.obs().enabled().then(Instant::now);
                                let mut exec = conn.shared.exec.lock();
                                exec.inbox.push_back((msg, received));
                                if !exec.executing {
                                    exec.executing = true;
                                    drop(exec);
                                    let _ = job_tx.send(Job::Conn(Arc::clone(&conn.shared)));
                                }
                            }
                            // Undecodable message: stop reading; queued
                            // requests still get their replies.
                            Err(_) => {
                                conn.shared.exec.lock().read_closed = true;
                                return;
                            }
                        },
                        Ok(None) => break,
                        Err(_) => {
                            conn.shared.exec.lock().read_closed = true;
                            return;
                        }
                    }
                }
                // At the pipeline cap: leave the rest in the kernel
                // buffer and let TCP flow control push back.
                if conn.shared.exec.lock().inbox.len() >= max_pipeline {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                mark_defunct(&conn.shared, stats);
                return;
            }
        }
    }
}

/// Write as much buffered output as the socket accepts right now.
fn flush_out(conn: &Conn, stats: &StatsInner) {
    let mut failed = false;
    let drained;
    {
        let mut out = conn.shared.out.lock();
        let mut written = 0;
        while written < out.len() {
            match (&conn.stream).write(&out[written..]) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        out.drain(..written);
        drained = !failed && out.is_empty();
        if failed {
            out.clear();
        }
    }
    if failed {
        mark_defunct(&conn.shared, stats);
        return;
    }
    // A fully drained outbox completes the flush stage of every reply
    // it carried: their bytes are in the kernel's send buffer, the last
    // moment the server can observe. A partial flush leaves the spans
    // pending — honest, since some of those bytes are still ours.
    if drained {
        let mut pending = conn.shared.pending_ops.lock();
        if !pending.is_empty() {
            let now = Instant::now();
            for op in pending.drain(..) {
                conn.shared.obs.record_rpc(pscache::OpTrace {
                    trace_id: op.trace_id,
                    kind: op.kind,
                    table: op.table,
                    queue_ns: op.queue_ns,
                    exec_ns: op.exec_ns,
                    flush_ns: now.saturating_duration_since(op.appended).as_nanos() as u64,
                });
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reactor_loop(
    listener: &TcpListener,
    cache: &Cache,
    policy: &ClientPolicy,
    stats: &Arc<StatsInner>,
    shutting_down: &AtomicBool,
    waker: &Arc<Waker>,
    job_tx: &Sender<Job>,
    max_pipeline: usize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let draining = shutting_down.load(Ordering::Acquire);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        }
        let force = drain_deadline.is_some_and(|d| Instant::now() >= d);

        // Finalisation sweep: flag finished (or force-expired)
        // connections defunct and queue their teardown on a worker.
        for conn in &conns {
            let mut exec = conn.shared.exec.lock();
            if force && !exec.defunct {
                exec.defunct = true;
            }
            if exec.torn_down || exec.executing {
                continue;
            }
            if exec.defunct {
                exec.executing = true;
                drop(exec);
                let _ = job_tx.send(Job::Conn(Arc::clone(&conn.shared)));
                continue;
            }
            let quiesced = exec.inbox.is_empty() && (exec.read_closed || draining);
            drop(exec);
            if quiesced && conn.shared.out.lock().is_empty() {
                let mut exec = conn.shared.exec.lock();
                // Re-check under the lock: a worker or a notification
                // delivery may have raced new state in.
                if !exec.executing && !exec.defunct && exec.inbox.is_empty() {
                    exec.defunct = true;
                    exec.executing = true;
                    drop(exec);
                    let _ = job_tx.send(Job::Conn(Arc::clone(&conn.shared)));
                }
            }
        }
        // Dropping a torn-down Conn closes its socket.
        conns.retain(|c| !c.shared.exec.lock().torn_down);

        if draining && conns.is_empty() {
            return;
        }

        // Interest list, rebuilt every iteration (interest flips with
        // backpressure and outbox occupancy).
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(waker.poll_fd(), POLL_IN));
        let listener_slot = if draining {
            None
        } else {
            fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
            Some(fds.len() - 1)
        };
        let base = fds.len();
        let mut slots: Vec<usize> = Vec::with_capacity(conns.len());
        for (i, conn) in conns.iter().enumerate() {
            let mut events = 0i16;
            {
                let mut exec = conn.shared.exec.lock();
                if !exec.read_closed && !exec.defunct && !draining {
                    if exec.inbox.len() < max_pipeline {
                        events |= POLL_IN;
                        exec.paused = false;
                    } else if !exec.paused {
                        exec.paused = true;
                        stats.queue_stalls.fetch_add(1, Ordering::Release);
                    }
                }
            }
            if !conn.shared.out.lock().is_empty() {
                events |= POLL_OUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                slots.push(i);
            }
        }

        let timeout = draining.then(|| Duration::from_millis(25));
        if poll::wait(&mut fds, timeout).is_err() {
            // A transient poll failure: back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        if fds[0].readable() {
            waker.drain();
        }
        if let Some(slot) = listener_slot {
            if fds[slot].readable() {
                accept_all(listener, &mut conns, stats, waker, policy, cache.obs());
            }
        }
        for (k, &i) in slots.iter().enumerate() {
            if fds[base + k].readable() {
                reactor_read(
                    &mut conns[i],
                    &mut read_buf,
                    cache,
                    policy,
                    stats,
                    job_tx,
                    max_pipeline,
                );
            }
        }
        // Flush every non-empty outbox — including connections that
        // gained bytes while we were blocked (their wake got us here)
        // and were not registered for POLLOUT this round.
        for conn in &conns {
            if !conn.shared.out.lock().is_empty() {
                flush_out(conn, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CacheClient;
    use gapl::event::Scalar;
    use pscache::CacheBuilder;

    #[test]
    fn bind_and_shutdown_do_not_hang() {
        let server = ReactorServer::bind(CacheBuilder::new().build(), "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
    }

    #[test]
    fn serves_the_same_wire_protocol_as_the_blocking_server() {
        let server = ReactorServer::bind(CacheBuilder::new().build(), "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        client.execute("create table T (v integer)").unwrap();
        let tstamps = client
            .insert_batch("T", (0..20).map(|i| vec![Scalar::Int(i)]).collect())
            .unwrap();
        assert_eq!(tstamps.len(), 20);
        let rows = client.select("select * from T where v >= 10").unwrap();
        assert_eq!(rows.len(), 10);
        let stats = client.server_stats().unwrap();
        assert!(stats.requests_served >= 4);
        assert_eq!(stats.connections_active, 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn notifications_route_back_over_the_registering_connection() {
        let server = ReactorServer::bind(CacheBuilder::new().build(), "127.0.0.1:0").unwrap();
        let listener = CacheClient::connect(server.local_addr()).unwrap();
        let inserter = CacheClient::connect(server.local_addr()).unwrap();
        listener.execute("create table T (v integer)").unwrap();
        let id = listener
            .register_automaton("subscribe t to T; behavior { if (t.v > 5) send(t.v); }")
            .unwrap();
        for i in 0..10 {
            inserter.insert("T", vec![Scalar::Int(i)]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut notes = Vec::new();
        while notes.len() < 4 && Instant::now() < deadline {
            if let Ok(n) = listener
                .notifications()
                .recv_timeout(Duration::from_millis(50))
            {
                notes.push(n);
            }
        }
        assert_eq!(notes.len(), 4);
        assert!(notes.iter().all(|n| n.automaton == id));
        assert!(inserter.drain_notifications().is_empty());
        drop(listener);
        drop(inserter);
        server.shutdown();
    }

    #[test]
    fn disconnect_unregisters_the_connections_automata() {
        let cache = CacheBuilder::new().build();
        let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        client.execute("create table T (v integer)").unwrap();
        client
            .register_automaton("subscribe t to T; behavior { }")
            .unwrap();
        assert_eq!(cache.automata().len(), 1);
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cache.automata().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(cache.automata().is_empty());
        server.shutdown();
    }

    #[test]
    fn many_concurrent_connections_are_served() {
        let server = ReactorServer::bind(CacheBuilder::new().build(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let clients: Vec<CacheClient> = (0..64)
            .map(|_| CacheClient::connect(addr).unwrap())
            .collect();
        for client in &clients {
            client.ping().unwrap();
        }
        assert_eq!(server.stats().connections_active, 64);
        assert_eq!(server.stats().rpc_in_flight, 0);
        drop(clients);
        server.shutdown();
    }

    #[test]
    fn frame_parser_reassembles_across_arbitrary_chunking() {
        let msg_small = b"hello".to_vec();
        let msg_big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        for m in [&msg_small, &msg_big] {
            for frag in fragment(m) {
                wire.extend_from_slice(&frag);
            }
        }
        // Feed one byte at a time: worst-case chunking.
        let mut parser = FrameParser::default();
        let mut out = Vec::new();
        for b in wire {
            parser.push(&[b]);
            while let Some(m) = parser.next_message().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, vec![msg_small, msg_big]);
    }

    #[test]
    fn frame_parser_rejects_oversized_fragments() {
        let mut parser = FrameParser::default();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(2000u16).to_le_bytes());
        bytes.push(1);
        bytes.push(0);
        parser.push(&bytes);
        assert!(parser.next_message().is_err());
    }
}
