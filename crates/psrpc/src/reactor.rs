//! The RPC server: thousands of connections, a handful of threads.
//!
//! A server that spends a blocked thread per connection caps a node at
//! hundreds of clients and — because each connection's thread blocks in
//! `read` between requests — serialises every client on its own
//! round-trip latency. This server keeps the request semantics of the
//! blocking request loop in [`crate::server`] (both call `crate::exec`'s
//! request core), which the differential suites hold it to, but inverts
//! the thread model:
//!
//! * one **reactor thread** owns every socket. It blocks in
//!   [`crate::poll::wait`] over the listener, a [`Waker`] doorbell, and
//!   all nonblocking connection sockets; it reads bytes, reassembles
//!   fragments, decodes [`ClientMessage`]s into per-connection inboxes,
//!   and flushes per-connection outboxes;
//! * a small **worker pool** executes decoded requests. At most one
//!   worker drains a given connection at a time (the `executing` flag),
//!   which preserves the blocking loop's contract: requests on one
//!   connection are executed and answered in receive order. Workers for
//!   *different* connections run in parallel;
//! * **no worker waits on an automaton**: an unregistration *parks* its
//!   connection on the automaton's drain, which hands it back;
//! * **backpressure** is per connection: when a client pipelines more
//!   than [`pscache::config::DEFAULT_RPC_MAX_PIPELINE`] undecided
//!   requests, the reactor parks that connection's read interest
//!   (counted in `rpc_queue_stalls`) and lets TCP flow control push
//!   back, resuming as workers drain the inbox.
//!
//! Shutdown drains: stop accepting, stop reading, execute every request
//! already received, flush every reply, then tear down — force-closing
//! only what outlives the grace period — and finally flush the
//! write-ahead log so an acknowledged insert can never be lost to a
//! server exit.

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

use pscache::config::DEFAULT_RPC_MAX_PIPELINE;
use pscache::{AutomatonId, Cache, ClientPolicy, IdemToken, NotificationSink, WriteRun};

use crate::error::{Error, Result};
use crate::exec::{
    commit_run, error_to_reply, notification_message, req_kind, stage_request, RequestCtx,
    StatsInner,
};
use crate::framing::{fragment_into, FRAGMENT_HEADER, FRAGMENT_PAYLOAD};
use crate::message::{CacheReply, ClientMessage, Request, ServerMessage, ServerStats};
use crate::poll::{self, PollFd, Waker, POLL_IN, POLL_OUT};

/// Requests one worker executes for a connection before re-queuing it,
/// so one deeply pipelined client cannot starve the others.
const WORKER_BUDGET: usize = 32;

/// Replies one commit run holds before it settles: the most records a
/// single connection puts behind one durability wait, and the bound on
/// how many later requests an insert's reply can sit behind. Sixteen
/// already turns a pipelined writer's cost from one `fsync` per record
/// into one per sixteen. It was set below `WORKER_BUDGET` to keep
/// psbench's `mixed_cep` closed loop under the ≈ 46k ticks/s its sample
/// buffer can measure (ROADMAP item 1(a)). That no longer holds: at 16
/// the loop already runs past ≈ 60k upserts/s, and `ops_per_s` then
/// reads 0. The value stays until the instrument can measure a choice.
const RUN_LIMIT: usize = 16;

/// How long [`ReactorServer::shutdown`] lets connections drain before
/// force-closing the stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

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
    /// its decode-time timestamp so the worker that claims it can charge
    /// the inbox wait to the `queue` stage of the request's latency
    /// breakdown.
    inbox: VecDeque<(ClientMessage, Instant)>,
    /// A worker currently owns this connection's inbox.
    executing: bool,
    /// No more bytes will be read (EOF, parse error, or drain).
    read_closed: bool,
    /// The connection is dead: discard the inbox, tear down, free.
    defunct: bool,
    /// An unregistration's drain, not a worker, holds the claim.
    parked: bool,
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
    /// active worker, or at teardown.
    registered: Mutex<HashSet<AutomatonId>>,
    /// The reactor's doorbell. A worker that appends to `out` rings it
    /// (through [`ConnShared::ring`]) before it next blocks or moves on:
    /// at once for a reply after a commit wait, at a claim's next
    /// barrier or exit for the rest of its replies, once per drained
    /// automaton-pool run for notifications (`ring_owed`). The reactor
    /// thread's own appends need none: it flushes before it polls.
    waker: Arc<Waker>,
    /// A notification was appended to `out` without ringing; the next
    /// [`ReactorRoute::flush`] that clears it rings, and every
    /// delivering pool worker flushes before it blocks, so the ring is
    /// never lost — only shared. Set with `Release` after the append and
    /// cleared with an `AcqRel` swap, so the flush that rings has seen
    /// every append whose flag it cleared.
    ring_owed: AtomicBool,
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
    /// drains to empty.
    pending_ops: Mutex<VecDeque<PendingOp>>,
}

impl ConnShared {
    /// Ring the reactor's doorbell for this connection.
    fn ring(&self) {
        ring(&self.waker, &self.stats);
    }

    /// Ring if `owed`, clearing it: the reply-side debt a worker carries
    /// while its claim appends replies it has not rung for.
    fn pay(&self, owed: &mut bool) {
        if std::mem::take(owed) {
            self.ring();
        }
    }
}

/// Every doorbell ring goes through here, so `rpc_doorbell_rings` counts
/// each pipe byte the server writes.
fn ring(waker: &Waker, stats: &StatsInner) {
    stats.doorbell_rings.fetch_add(1, Ordering::Relaxed);
    waker.wake();
}

/// Cap on outstanding [`PendingOp`]s per connection: a subscriber whose
/// outbox never fully drains (a notification firehose) must not pin
/// unbounded trace state; past the cap the oldest span is dropped
/// unrecorded.
const PENDING_OPS_CAP: usize = 1024;

/// A measured request, from its claim until its reply is flushed: the
/// three stages of its latency breakdown, closed one by one.
#[derive(Clone)]
struct PendingOp {
    /// Client-stamped wire trace id (0 when unstamped).
    trace_id: u64,
    kind: pscache::ReqKind,
    /// Table the request addressed, for the slow-op log.
    table: Option<String>,
    queue_ns: u64,
    claimed: Instant,
    /// When the reply landed in the outbox (the claim, until it does).
    appended: Instant,
}

/// Append one logical message to an outbox under one lock acquisition —
/// workers, the reactor thread and automaton-pool workers all append
/// concurrently, and fragments of two messages must never interleave —
/// and return the outbox length that acquisition observed.
fn append_message(out: &Mutex<Vec<u8>>, message: &[u8]) -> usize {
    let mut out = out.lock();
    fragment_into(&mut out, message);
    out.len()
}

/// A reactor connection's [`NotificationSink`], built before the
/// automaton is registered and owned by it until the unregistration
/// drain: the automaton-pool worker that ran `send()` encodes the
/// notification and appends it to the outbox, and rings the doorbell
/// once per drained run of its mailbox, in `flush` — a burst of
/// notifications for one connection, from however many automata on one
/// pool worker, costs one ring. It never touches the socket, so it
/// never blocks on the client.
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
        // connection is defunct — the reactor tears it down and detaches
        // its automata, exactly as if it had disconnected. Sinks of
        // one connection run concurrently on different pool workers, so
        // the cap is judged on the length the append itself observed and
        // the eviction belongs to whichever delivery flips `defunct`.
        let accepted = shared.max_outbox_bytes == 0 || outbox_len <= shared.max_outbox_bytes;
        if accepted {
            shared.stats.notifications.fetch_add(1, Ordering::Release);
            shared.ring_owed.store(true, Ordering::Release);
        } else {
            if mark_defunct(shared, &shared.stats) {
                shared
                    .obs
                    .slow_consumer_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            shared.ring();
        }
        accepted
    }

    fn flush(&self) {
        // Whichever flush clears the flag rings after every append that
        // set it.
        if self.shared.ring_owed.swap(false, Ordering::AcqRel) {
            self.shared.ring();
        }
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
/// Any [`crate::client::CacheClient`] talks to it over TCP. It is built
/// to hold thousands of concurrent connections and to let a pipelining
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
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// serving: [`pscache::CacheBuilder::rpc_workers`] worker threads
    /// execute requests, and a connection may queue up to
    /// [`pscache::config::DEFAULT_RPC_MAX_PIPELINE`] decoded-but-unanswered
    /// requests before its read interest is parked (counted in
    /// [`ServerStats::rpc_queue_stalls`]).
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
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(StatsInner::default());
        let waker = Arc::new(Waker::new()?);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = unbounded::<Job>();

        let workers = (0..cache.rpc_workers().max(1))
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
    /// in-flight depth and backpressure stalls: the
    /// [`ServerStats`] view of what [`Request::Metrics`] answers.
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_snapshot(&self.stats.metrics(&self.cache))
    }

    /// Graceful shutdown: stop accepting, stop reading, execute every
    /// request already received and flush its reply, force-close what
    /// outlives the grace period, join every thread, and flush the
    /// write-ahead log — an acknowledged insert can never be lost to a
    /// server exit, regardless of sync policy.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        ring(&self.waker, &self.stats);
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for _ in 0..self.workers.len() {
            let _ = self.job_tx.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
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
    op: PendingOp,
}

/// A settle point: commit `run` — one durability wait for everything it
/// staged — then hand `held` to the client in inbox order under one
/// outbox lock acquisition, closing each request's execute stage (claim
/// to reply appended, commit wait included) and returning its
/// `in_flight` slot. No held reply reaches the outbox before its record
/// is durable; if the commit fails, the replies that were waiting on it
/// become the log's error and the rest keep their own. With `deliver`
/// false (the connection is defunct) the run still commits, so its
/// staged rows become visible, and the replies are discarded.
///
/// A run that waits on the log pays the `owed` ring before the wait and
/// rings once after its append. A run that waited on nothing appends
/// without ringing and leaves the ring `owed`, for [`run_conn`] to pay
/// at its next barrier or exit.
fn settle(
    ctx: &RequestCtx<'_>,
    conn: &ConnShared,
    run: &mut WriteRun<'_>,
    held: &mut Vec<Held>,
    deliver: bool,
    owed: &mut bool,
) {
    let waits = run.awaiting() > 0;
    if waits {
        // No reply already in the outbox waits out this commit.
        conn.pay(owed);
    }
    let failure = commit_run(run);
    if held.is_empty() {
        return;
    }
    let settled = held.len() as u64;
    if deliver {
        // Framed outside the lock; the whole run lands in the outbox
        // as one contiguous append.
        let mut wire = Vec::new();
        let mut ops = Vec::new();
        for h in held.drain(..) {
            ops.push(h.op);
            let reply = match &failure {
                Some(failure) if h.awaits_commit => failure.clone(),
                _ => h.reply,
            };
            fragment_into(
                &mut wire,
                &ServerMessage::Reply { seq: h.seq, reply }.encode(),
            );
        }
        conn.out.lock().extend_from_slice(&wire);
        let appended = Instant::now();
        let mut pending = conn.pending_ops.lock();
        for op in ops {
            pend(&mut pending, op, appended);
        }
    }
    held.clear();
    ctx.stats.in_flight.fetch_sub(settled, Ordering::Release);
    if waits {
        conn.ring();
    } else {
        *owed = true;
    }
}

/// Close a reply's execute stage at `appended`, opening its flush stage.
fn pend(pending: &mut VecDeque<PendingOp>, op: PendingOp, appended: Instant) {
    if pending.len() >= PENDING_OPS_CAP {
        pending.pop_front();
    }
    pending.push_back(PendingOp { appended, ..op });
}

/// Detach the automaton and hand the connection's claim to its drain
/// (`None`): nothing behind the request runs, and no worker waits. The
/// completion appends `Unregistered` to this connection's outbox and
/// hands the connection back to a worker, which releases it if it went
/// defunct meanwhile. A failed detach parks nothing and answers at once.
fn park_on_drain(
    ctx: &RequestCtx<'_>,
    job_tx: &Sender<Job>,
    conn: &Arc<ConnShared>,
    id: AutomatonId,
    (seq, op): (u64, PendingOp),
) -> Option<CacheReply> {
    ctx.cache.obs().count_request(pscache::ReqKind::Unregister);
    conn.registered.lock().remove(&id);
    // Before the detach: the completion may run before it returns.
    conn.exec.lock().parked = true;
    let resume = {
        let conn = Arc::clone(conn);
        let job_tx = job_tx.clone();
        move || {
            conn.exec.lock().parked = false;
            let reply = ServerMessage::Reply {
                seq,
                reply: CacheReply::Unregistered,
            };
            append_message(&conn.out, &reply.encode());
            pend(&mut conn.pending_ops.lock(), op, Instant::now());
            conn.stats.in_flight.fetch_sub(1, Ordering::Release);
            conn.ring();
            let _ = job_tx.send(Job::Conn(conn));
        }
    };
    let e = ctx.cache.detach_automaton(id, resume).err()?;
    conn.exec.lock().parked = false;
    Some(error_to_reply(e))
}

/// Drain one connection's inbox (up to [`WORKER_BUDGET`] requests) and
/// ring the reactor. Runs with the connection's `executing` flag held;
/// clears it on every return path except the fairness re-queue and
/// [`park_on_drain`].
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
///
/// Replies that waited on nothing share one doorbell ring (see
/// [`settle`]): the worker owes it from the first such append and pays
/// it before executing anything but a typed insert, before a commit
/// wait, and before it leaves the connection — so such a reply waits at
/// most for the typed inserts after it in the same claim.
fn run_conn(ctx: &RequestCtx<'_>, job_tx: &Sender<Job>, conn: &Arc<ConnShared>) {
    let mut run = ctx.cache.write_run();
    let mut held: Vec<Held> = Vec::new();
    let mut budget = WORKER_BUDGET;
    let mut owed = false;
    loop {
        let (msg, received) = {
            let mut exec = conn.exec.lock();
            if exec.defunct {
                drop(exec);
                settle(ctx, conn, &mut run, &mut held, false, &mut owed);
                conn.exec.lock().executing = false;
                conn.ring();
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
                settle(ctx, conn, &mut run, &mut held, true, &mut owed);
                continue;
            }
            if budget == 0 {
                // Budget spent with work possibly left: go to the back
                // of the queue (keeping `executing` set, so the reactor
                // won't double-enqueue).
                drop(exec);
                conn.pay(&mut owed);
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
                    // reactor to notice the flag cleared. Ring it —
                    // which also pays any `owed` ring.
                    conn.ring();
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
        // queue time is decode-to-claim.
        let table = match &msg.request {
            Request::Insert { table, .. } | Request::InsertBatch { table, .. } => {
                Some(table.clone())
            }
            _ => None,
        };
        if table.is_none() {
            // Not a typed insert: it may take long (a select) or park
            // the connection, so nothing waits behind it.
            conn.pay(&mut owed);
        }
        let claimed = Instant::now();
        let op = PendingOp {
            trace_id: msg.trace.unwrap_or(0),
            kind: req_kind(&msg.request),
            table,
            queue_ns: received.elapsed().as_nanos() as u64,
            claimed,
            appended: claimed,
        };
        let awaiting = run.awaiting();
        let reply = match msg.request {
            Request::UnregisterAutomaton { id } => {
                let parked = (msg.seq, op.clone());
                match park_on_drain(ctx, job_tx, conn, AutomatonId(id), parked) {
                    Some(reply) => reply,
                    None => return,
                }
            }
            request => {
                let mut registered = conn.registered.lock();
                stage_request(ctx, &mut run, &mut registered, sink, request, token)
            }
        };
        held.push(Held {
            seq: msg.seq,
            reply,
            awaits_commit: run.awaiting() != awaiting,
            op,
        });
        if run.awaiting() == 0 {
            settle(ctx, conn, &mut run, &mut held, true, &mut owed);
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
                        ring_owed: AtomicBool::new(false),
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
/// This is also where admission control lives: `Metrics` requests —
/// which answer health probes and stats reads too — are answered inline
/// (never queued, so a probe gets its reply even with every worker
/// wedged), and requests over the connection's rate, byte
/// or in-flight budget are answered with a typed `Throttled` rejection
/// without ever reaching the worker pool.
fn reactor_read(
    conn: &mut Conn,
    buf: &mut [u8],
    cache: &Cache,
    policy: &ClientPolicy,
    stats: &StatsInner,
    job_tx: &Sender<Job>,
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
                                if matches!(msg.request, Request::Metrics) {
                                    // Readiness and telemetry must not
                                    // depend on worker availability: a
                                    // probe or scraper gets its numbers
                                    // from a node whose worker pool is
                                    // saturated — which is exactly when
                                    // they matter. The snapshot reads
                                    // atomics and takes only short
                                    // registry locks, never one a worker
                                    // holds across a wait, so it is cheap
                                    // enough for the poll thread. The
                                    // outbox is flushed later this same
                                    // poll iteration.
                                    cache.obs().count_request(pscache::ReqKind::Control);
                                    append_message(
                                        &conn.shared.out,
                                        &ServerMessage::Reply {
                                            seq: msg.seq,
                                            reply: CacheReply::Metrics {
                                                snapshot: stats.metrics(cache),
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
                                let received = Instant::now();
                                let mut exec = conn.shared.exec.lock();
                                if exec.defunct {
                                    // Evicted by a worker while this loop
                                    // was reading: its teardown discards
                                    // the inbox, so a request queued now
                                    // would never be answered nor leave
                                    // `in_flight`.
                                    return;
                                }
                                stats.in_flight.fetch_add(1, Ordering::Release);
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
                if conn.shared.exec.lock().inbox.len() >= DEFAULT_RPC_MAX_PIPELINE {
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
                    exec_ns: op.appended.saturating_duration_since(op.claimed).as_nanos() as u64,
                    flush_ns: now.saturating_duration_since(op.appended).as_nanos() as u64,
                });
            }
        }
    }
}

fn reactor_loop(
    listener: &TcpListener,
    cache: &Cache,
    policy: &ClientPolicy,
    stats: &Arc<StatsInner>,
    shutting_down: &AtomicBool,
    waker: &Arc<Waker>,
    job_tx: &Sender<Job>,
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
        // connections defunct and tear down each one no worker owns —
        // past the grace period, a parked one too.
        conns.retain(|conn| {
            if force {
                mark_defunct(&conn.shared, stats);
            }
            let mut exec = conn.shared.exec.lock();
            if exec.executing && !(force && exec.parked) {
                return true;
            }
            if !exec.defunct {
                let quiesced = exec.inbox.is_empty() && (exec.read_closed || draining);
                if !quiesced || !conn.shared.out.lock().is_empty() {
                    return true;
                }
                exec.defunct = true;
            }
            drop(exec);
            for id in conn.shared.registered.lock().drain() {
                let _ = cache.detach_automaton(id, || {});
            }
            stats.active.fetch_sub(1, Ordering::Release);
            // Dropping the Conn closes its socket.
            false
        });

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
                    if exec.inbox.len() < DEFAULT_RPC_MAX_PIPELINE {
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
                reactor_read(&mut conns[i], &mut read_buf, cache, policy, stats, job_tx);
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
    use std::sync::atomic::AtomicU64;

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

    /// Per-field differential: every field of the `server_stats()` and
    /// `health()` views equals the cache-side accessor or the server
    /// counter it came from, on a durable, recovered primary with a
    /// follower, registered automata and pipelined writes — and every
    /// name the views read is present in the snapshot, so a dropped
    /// name is caught even where its value is 0.
    #[test]
    fn every_view_field_equals_its_source() {
        let dir = std::env::temp_dir().join(format!("psrpc-views-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // A first life, so the reopened primary replays records.
            let first = CacheBuilder::new().durability(&dir).open().unwrap();
            first
                .execute("create table T (k varchar(8), v integer)")
                .unwrap();
            first
                .insert("T", vec![Scalar::Str("a".into()), Scalar::Int(-1)])
                .unwrap();
            first.shutdown();
        }
        let primary = CacheBuilder::new()
            .durability(&dir)
            .replicate_to("127.0.0.1:0")
            .rpc_workers(2)
            .open()
            .unwrap();
        let follower = pscache::Cache::follow(primary.repl_addr().unwrap().to_string()).unwrap();
        let server = ReactorServer::bind(primary.clone(), "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        for source in [
            "subscribe t to T; behavior { send(t.v); }",
            "subscribe t to T; behavior { if (t.k == 'a') send(t.v); }",
        ] {
            client.register_automaton(source).unwrap();
        }
        let gone = client
            .register_automaton("subscribe t to T; behavior { }")
            .unwrap();
        client.unregister_automaton(gone).unwrap();
        let pendings: Vec<_> = (0..64)
            .map(|v| {
                let k = if v % 4 == 0 { "a" } else { "b" };
                client
                    .begin_request(Request::Insert {
                        table: "T".into(),
                        values: vec![Scalar::Str(k.into()), Scalar::Int(v)],
                        upsert: false,
                    })
                    .unwrap()
            })
            .collect();
        for pending in pendings {
            assert!(matches!(
                pending.wait().unwrap(),
                CacheReply::Inserted { .. }
            ));
        }
        primary.checkpoint().unwrap();
        assert!(primary.quiesce(Duration::from_secs(10)));
        // Quiescent: every record acknowledged by the follower.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let repl = primary.repl_stats();
            if repl.followers == 1
                && repl.min_follower_acked_lsn >= repl.commit_lsn
                && follower.replica_lsn() >= repl.commit_lsn
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "follower never caught up: {repl:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let counters = &server.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Acquire);
        let stats = client.server_stats().unwrap();
        let served_at_stats = load(&counters.requests);
        let health = client.health().unwrap();
        let served_at_health = load(&counters.requests);
        let snapshot = client.metrics().unwrap();

        let wal = primary.wal_stats().unwrap();
        let repl = primary.repl_stats();
        let telemetry: Vec<_> = primary
            .automata()
            .into_iter()
            .map(|id| primary.automaton_telemetry(id).unwrap())
            .collect();
        let sum = |f: fn(&pscache::AutomatonTelemetry) -> u64| telemetry.iter().map(f).sum();
        let obs = primary.obs();
        let stats_view: [(&str, u64, u64); 23] = [
            (
                "connections_accepted",
                stats.connections_accepted,
                load(&counters.accepted),
            ),
            (
                "connections_active",
                stats.connections_active,
                load(&counters.active),
            ),
            ("requests_served", stats.requests_served, served_at_stats),
            (
                "notifications_routed",
                stats.notifications_routed,
                load(&counters.notifications),
            ),
            (
                "automata_active",
                stats.automata_active,
                telemetry.len() as u64,
            ),
            (
                "events_delivered",
                stats.events_delivered,
                sum(|t| t.delivered),
            ),
            (
                "events_processed",
                stats.events_processed,
                sum(|t| t.processed),
            ),
            (
                "events_skipped_by_prefilter",
                stats.events_skipped_by_prefilter,
                sum(|t| t.skipped_by_prefilter),
            ),
            (
                "automaton_queue_depth",
                stats.automaton_queue_depth,
                sum(|t| t.queue_depth),
            ),
            (
                "automaton_max_queue_depth",
                stats.automaton_max_queue_depth,
                telemetry.iter().map(|t| t.max_queue_depth).max().unwrap(),
            ),
            ("wal_records", stats.wal_records, wal.records),
            ("wal_syncs", stats.wal_syncs, wal.syncs),
            ("wal_checkpoints", stats.wal_checkpoints, wal.checkpoints),
            ("wal_replayed", stats.wal_replayed, wal.replayed),
            ("repl_is_follower", stats.repl_is_follower, 0),
            ("repl_commit_lsn", stats.repl_commit_lsn, repl.commit_lsn),
            ("repl_replica_lsn", stats.repl_replica_lsn, repl.replica_lsn),
            (
                "repl_followers",
                stats.repl_followers,
                repl.followers as u64,
            ),
            (
                "repl_min_follower_acked_lsn",
                stats.repl_min_follower_acked_lsn,
                repl.min_follower_acked_lsn,
            ),
            (
                "rpc_in_flight",
                stats.rpc_in_flight,
                load(&counters.in_flight),
            ),
            (
                "rpc_queue_stalls",
                stats.rpc_queue_stalls,
                load(&counters.queue_stalls),
            ),
            (
                "rpc_worker_busy",
                stats.rpc_worker_busy,
                load(&counters.worker_busy),
            ),
            (
                "rpc_requests_throttled",
                stats.rpc_requests_throttled,
                load(&counters.requests_throttled),
            ),
        ];
        let health_view: [(&str, u64, u64); 11] = [
            ("repl_is_follower", health.role_follower, 0),
            ("repl_commit_lsn", health.commit_lsn, primary.commit_lsn()),
            (
                "repl_replica_lsn",
                health.replica_lsn,
                primary.replica_lsn(),
            ),
            (
                "connections_active",
                health.connections_active,
                load(&counters.active),
            ),
            (
                "rpc_in_flight",
                health.rpc_in_flight,
                load(&counters.in_flight),
            ),
            (
                "rpc_queue_stalls",
                health.rpc_queue_stalls,
                load(&counters.queue_stalls),
            ),
            (
                "rpc_worker_busy",
                health.rpc_worker_busy,
                load(&counters.worker_busy),
            ),
            (
                "rpc_workers",
                health.rpc_workers,
                primary.rpc_workers() as u64,
            ),
            (
                "rpc_requests_throttled",
                health.rpc_requests_throttled,
                load(&counters.requests_throttled),
            ),
            (
                "slow_consumer_evictions",
                health.slow_consumer_evictions,
                load(&obs.slow_consumer_evictions),
            ),
            (
                "automaton_unregistrations",
                health.automaton_unregistrations,
                load(&obs.automaton_unregistrations),
            ),
        ];
        for (name, view, source) in stats_view.iter().chain(&health_view) {
            assert_eq!(view, source, "`{name}` differs from its source");
            assert!(
                snapshot.counter(name).is_some(),
                "`{name}` missing from the snapshot"
            );
        }
        assert_eq!(
            health.repl_lag,
            Some(repl.commit_lsn - repl.min_follower_acked_lsn)
        );
        assert_eq!(served_at_health, served_at_stats + 1);
        // The workload reached every source the mutation check needs:
        // nothing above passed by comparing zero with zero by accident.
        for (name, value) in [
            ("wal_replayed", stats.wal_replayed),
            ("wal_checkpoints", stats.wal_checkpoints),
            (
                "events_skipped_by_prefilter",
                stats.events_skipped_by_prefilter,
            ),
            ("notifications_routed", stats.notifications_routed),
            (
                "repl_min_follower_acked_lsn",
                stats.repl_min_follower_acked_lsn,
            ),
            (
                "automaton_unregistrations",
                health.automaton_unregistrations,
            ),
        ] {
            assert!(value > 0, "`{name}` is 0");
        }

        // The follower node's own view reports its role and watermark.
        let follower_server = ReactorServer::bind(follower.clone(), "127.0.0.1:0").unwrap();
        let probe = CacheClient::connect(follower_server.local_addr()).unwrap();
        let report = probe.health().unwrap();
        assert_eq!(report.role_follower, 1);
        assert_eq!(report.replica_lsn, follower.replica_lsn());
        assert_eq!(report.repl_lag, None);

        drop(probe);
        follower_server.shutdown();
        drop(client);
        server.shutdown();
        follower.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_parser_reassembles_across_arbitrary_chunking() {
        let msg_small = b"hello".to_vec();
        let msg_big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        for m in [&msg_small, &msg_big] {
            fragment_into(&mut wire, m);
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

    /// `fragment_into` writes exactly the hand-built fragments, and its
    /// output reassembles through both readers: the blocking
    /// `read_message` and the reactor's `FrameParser`.
    #[test]
    fn fragment_into_writes_hand_built_fragments_that_round_trip() {
        use crate::framing::read_message;
        for len in [
            0,
            1,
            FRAGMENT_PAYLOAD,
            FRAGMENT_PAYLOAD + 1,
            3 * FRAGMENT_PAYLOAD,
        ] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut expected = Vec::new();
            let chunks: Vec<&[u8]> = if len == 0 {
                vec![&[]]
            } else {
                msg.chunks(FRAGMENT_PAYLOAD).collect()
            };
            for (i, chunk) in chunks.iter().enumerate() {
                expected.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
                expected.push(u8::from(i + 1 == chunks.len()));
                expected.push(0);
                expected.extend_from_slice(chunk);
            }
            // Appends: bytes already in the buffer stay in front.
            let mut wire = vec![0xEE];
            fragment_into(&mut wire, &msg);
            assert_eq!(wire[0], 0xEE, "length {len}");
            assert_eq!(wire[1..], expected[..], "length {len}");

            let mut cursor = std::io::Cursor::new(&wire[1..]);
            assert_eq!(read_message(&mut cursor).unwrap(), Some(msg.clone()));
            assert_eq!(read_message(&mut cursor).unwrap(), None, "length {len}");
            let mut parser = FrameParser::default();
            parser.push(&wire[1..]);
            assert_eq!(parser.next_message().unwrap(), Some(msg), "length {len}");
            assert_eq!(parser.next_message().unwrap(), None, "length {len}");
        }
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
