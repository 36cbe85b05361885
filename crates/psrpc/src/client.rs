//! The application-side RPC client, with pipelining and multiplexing.
//!
//! Every request carries a correlation id (the wire `seq`); the client
//! keeps a map of in-flight ids to waiting callers, so **many requests
//! can be on the wire at once** — from many threads sharing one
//! [`CacheClient`], or from one thread using the
//! [`CacheClient::begin_request`] / [`PendingReply::wait`] split — and
//! replies complete in whatever order the server answers. A bounded
//! in-flight window (default
//! [`pscache::config::DEFAULT_RPC_MAX_PIPELINE`]) keeps a runaway
//! pipeliner from queuing unbounded memory on both ends. Asynchronous
//! automaton notifications interleave on the same stream, tagged by
//! automaton id, and surface on [`CacheClient::notifications`].

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use gapl::event::Scalar;

use crate::error::{Error, Result};
use crate::message::{
    CacheReply, ClientMessage, HealthReport, Request, ServerMessage, ServerStats, WireRow,
};
use crate::transport::{inproc_pair, tcp_split, RecvHalf, SendHalf};

/// How a [`CacheClient`] built with
/// [`CacheClient::connect_reconnecting`] survives a server restart:
/// when a request fails on a dead transport, the client redials with
/// **capped exponential backoff plus jitter** and — when it is safe —
/// retries the request on the fresh connection.
///
/// What "safe" means, per failure mode:
///
/// * the request could not be (fully) **sent**: the server never saw a
///   complete message, so any request is retried;
/// * the request was sent but the connection died before its **reply**
///   arrived: *idempotent* requests (reads, pings, stats, and
///   upsert-mode inserts) are retried, and so is any mutation stamped
///   with an idempotency token (the default — see
///   [`CacheClient::set_idempotency_tokens`]): the server deduplicates
///   the retry by token and returns the original outcome, so the
///   mutation applies exactly once. Only unstamped non-idempotent
///   mutations surface [`Error::MaybeApplied`];
/// * server-side per-connection state (registered automata and their
///   notification routes) does not survive the server that held it —
///   re-register automata after a reconnect.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Dial attempts per failed request before giving up (each request
    /// failure starts a fresh budget).
    pub max_attempts: u32,
    /// Delay before the first redial; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
    /// Total wall-clock budget for one logical request across all its
    /// retries — redials, throttle waits, *and* the wait for each reply
    /// on a live connection. `None` (the default) bounds redials only
    /// by `max_attempts` and everything else not at all; a probe or
    /// latency-sensitive caller sets a deadline and gets a typed error
    /// back when it expires ([`crate::Error::Disconnected`] for
    /// idempotent requests, [`crate::Error::MaybeApplied`] for
    /// mutations whose fate is unknown).
    pub deadline: Option<Duration>,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            deadline: None,
        }
    }
}

/// The retry curve is the system-wide one — `pscache::repl`'s capped,
/// jittered exponential backoff — so RPC clients and replication
/// followers stampede-protect a restarted server identically.
fn backoff_delay(attempt: u32, policy: &ReconnectPolicy) -> Duration {
    pscache::repl::backoff_delay(attempt, policy.base_delay, policy.max_delay)
}

/// An asynchronous complex-event notification received from the cache, the
/// client-side image of an automaton's `send()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientNotification {
    /// Id of the automaton (as returned by [`CacheClient::register_automaton`]).
    pub automaton: u64,
    /// The values passed to `send()`.
    pub values: Vec<Scalar>,
    /// Cache time of the notification.
    pub at: u64,
}

/// A result set as seen by a remote application.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClientResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<WireRow>,
}

impl ClientResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Largest tuple timestamp in the result, for driving `since τ` loops.
    pub fn max_tstamp(&self) -> Option<u64> {
        self.rows.iter().map(|r| r.tstamp).max()
    }
}

/// How one in-flight request resolved at the transport layer.
enum Outcome {
    /// The server answered.
    Reply(CacheReply),
    /// The connection died before the reply arrived.
    Dropped,
}

/// One live transport generation: its writer, the in-flight correlation
/// map, and the reader thread decoding replies into it.
struct Inner {
    writer: Box<dyn SendHalf>,
    /// False once the transport is known dead; flipped back by a
    /// successful redial.
    open: bool,
    /// Bumped on every reconnect, so a late-exiting old reader cannot
    /// fail requests issued on the connection that replaced it.
    generation: u64,
    /// seq -> the waiting caller's completion channel.
    pending: HashMap<u64, Sender<Outcome>>,
    reader: Option<JoinHandle<()>>,
}

/// State shared between callers, the reader thread, and pending-reply
/// handles.
struct ClientState {
    inner: StdMutex<Inner>,
    /// Requests currently in flight (window accounting).
    in_flight: StdMutex<usize>,
    window_cv: Condvar,
    max_window: AtomicUsize,
    /// Cloned into every reader generation, so notifications survive a
    /// reconnect on the same receiver.
    note_tx: Sender<ClientNotification>,
}

/// Lock a std mutex, shrugging off poisoning: the protected state is
/// queue bookkeeping that stays consistent even if a panicking thread
/// held the guard.
fn lock<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A connection to the cache, usable from multiple threads.
///
/// The one-call-per-method API ([`CacheClient::execute`],
/// [`CacheClient::insert`], ...) blocks per request but pipelines across
/// threads; [`CacheClient::begin_request`] pipelines from a single
/// thread. Notifications from automata registered over this connection
/// arrive asynchronously on [`CacheClient::notifications`].
pub struct CacheClient {
    state: std::sync::Arc<ClientState>,
    notifications: Receiver<ClientNotification>,
    seq: AtomicU64,
    /// `(address, policy)` when this client redials a dead server.
    reconnect: Option<(String, ReconnectPolicy)>,
    /// Serialises redial attempts across threads.
    redial: StdMutex<()>,
    /// Streams re-established so far.
    reconnects: AtomicU64,
    /// This client's idempotency-token identity, minted once per client.
    client_id: u64,
    /// Next token sequence number.
    token_seq: AtomicU64,
    /// Whether blocking mutations are stamped with idempotency tokens
    /// (default true; see [`CacheClient::set_idempotency_tokens`]).
    tokens_enabled: AtomicBool,
    /// Whether outgoing requests carry wire trace ids (default false;
    /// see [`CacheClient::set_trace_base`]).
    trace_enabled: AtomicBool,
    /// The base trace id when tracing is on; request `seq` is stamped
    /// `base.wrapping_add(seq)`.
    trace_base: AtomicU64,
}

/// Mint a client identity for idempotency tokens: unique enough across
/// processes and within one (time XOR pid XOR a process-local counter)
/// that two clients colliding is as likely as a random 64-bit collision.
fn mint_client_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let salt = COUNTER
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    nanos ^ (u64::from(std::process::id()) << 32) ^ salt
}

impl std::fmt::Debug for CacheClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheClient")
            .field("next_seq", &self.seq.load(Ordering::Relaxed))
            .field("in_flight", &*lock(&self.state.in_flight))
            .field("pending_notifications", &self.notifications.len())
            .field("reconnects", &self.reconnects.load(Ordering::Relaxed))
            .finish()
    }
}

/// A request that has been sent but not yet answered. Obtain from
/// [`CacheClient::begin_request`]; resolve with [`PendingReply::wait`].
///
/// Dropping the handle without waiting abandons the reply (it is
/// discarded on arrival) and releases its window slot.
pub struct PendingReply {
    rx: Receiver<Outcome>,
    state: std::sync::Arc<ClientState>,
    idempotent: bool,
    done: bool,
}

impl std::fmt::Debug for PendingReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingReply")
            .field("idempotent", &self.idempotent)
            .field("resolved", &self.done)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Reply(_) => f.write_str("Reply(..)"),
            Outcome::Dropped => f.write_str("Dropped"),
        }
    }
}

impl PendingReply {
    /// Block until the reply arrives and return it.
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] when the cache rejected the request. If the
    /// connection died first: [`Error::Disconnected`] for idempotent
    /// requests, [`Error::MaybeApplied`] for mutations that may already
    /// have been applied. Pipelined handles are **not** retried
    /// automatically, even on a reconnecting client — the caller owns
    /// the in-flight set and decides what is safe to re-issue.
    pub fn wait(mut self) -> Result<CacheReply> {
        match self.take_outcome() {
            Outcome::Reply(CacheReply::Error { message }) => Err(Error::Remote { message }),
            Outcome::Reply(CacheReply::NotMine { partition }) => Err(Error::NotMine { partition }),
            Outcome::Reply(reply) => Ok(reply),
            Outcome::Dropped if self.idempotent => Err(Error::Disconnected),
            Outcome::Dropped => Err(Error::MaybeApplied),
        }
    }

    /// Resolve to the raw transport outcome, releasing the window slot.
    fn take_outcome(&mut self) -> Outcome {
        let outcome = self.rx.recv().unwrap_or(Outcome::Dropped);
        self.release();
        outcome
    }

    /// Like [`PendingReply::take_outcome`], but give up at `deadline`:
    /// `None` means the reply had not arrived in time. The slot is
    /// released either way; a reply that arrives after the timeout is
    /// discarded like any abandoned handle's.
    fn take_outcome_by(&mut self, deadline: Option<Instant>) -> Option<Outcome> {
        let Some(d) = deadline else {
            return Some(self.take_outcome());
        };
        let outcome = match self
            .rx
            .recv_timeout(d.saturating_duration_since(Instant::now()))
        {
            Ok(outcome) => outcome,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Outcome::Dropped,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                self.release();
                return None;
            }
        };
        self.release();
        Some(outcome)
    }

    fn release(&mut self) {
        if !self.done {
            self.done = true;
            *lock(&self.state.in_flight) -= 1;
            self.state.window_cv.notify_one();
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        self.release();
    }
}

/// Whether re-sending `request` after a lost reply cannot change state
/// beyond what a single application would have: reads and pings
/// trivially, upserts because replaying one overwrites the same key
/// with the same values.
fn is_idempotent(request: &Request) -> bool {
    match request {
        Request::Ping | Request::Metrics => true,
        Request::Execute { command } => is_select(command),
        Request::Insert { upsert, .. } | Request::InsertBatch { upsert, .. } => *upsert,
        Request::RegisterAutomaton { .. } | Request::UnregisterAutomaton { .. } => false,
    }
}

fn is_select(command: &str) -> bool {
    let trimmed = command.trim_start();
    trimmed.len() >= 6 && trimmed.as_bytes()[..6].eq_ignore_ascii_case(b"select")
}

/// Whether a request gets an idempotency token: exactly the mutations
/// whose blind retry would double-apply. Registration is excluded — a
/// registered automaton is per-connection state that dies with its
/// connection, so "retry re-registers" is the correct semantic, not a
/// duplicate.
fn wants_token(request: &Request) -> bool {
    match request {
        Request::Insert { upsert, .. } | Request::InsertBatch { upsert, .. } => !*upsert,
        Request::Execute { command } => !is_select(command),
        _ => false,
    }
}

impl CacheClient {
    /// Connect to a [`crate::reactor::ReactorServer`] over TCP.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<CacheClient> {
        let stream = TcpStream::connect(addr)?;
        let (send, recv) = tcp_split(stream)?;
        Ok(Self::from_halves(Box::new(send), Box::new(recv)))
    }

    /// Connect over TCP with automatic reconnection: when a request
    /// fails because the transport died, the client redials `addr`
    /// (capped exponential backoff plus jitter, per `policy`) and — when
    /// safe — retries the request on the fresh connection. See
    /// [`ReconnectPolicy`] for exactly which failures are retried and
    /// which surface [`Error::MaybeApplied`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the *initial* connection cannot be
    /// established — later failures are what the policy absorbs.
    pub fn connect_reconnecting(
        addr: impl Into<String>,
        policy: ReconnectPolicy,
    ) -> Result<CacheClient> {
        let addr = addr.into();
        let stream = TcpStream::connect(addr.as_str())?;
        let (send, recv) = tcp_split(stream)?;
        let mut client = Self::from_halves(Box::new(send), Box::new(recv));
        client.reconnect = Some((addr, policy));
        Ok(client)
    }

    /// Streams this client has re-established after transport failures.
    pub fn reconnect_count(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Create a client talking to an in-process cache: spawns a server
    /// thread for the loopback connection and returns the connected client.
    /// This preserves the full RPC path — encoding, fragmentation,
    /// reassembly — without a network stack.
    pub fn connect_inproc(cache: pscache::Cache) -> CacheClient {
        let (client_end, server_end) = inproc_pair();
        let (server_send, server_recv) = server_end;
        std::thread::Builder::new()
            .name("psrpc-inproc-server".into())
            .spawn(move || {
                let _ = crate::server::serve_connection(cache, server_send, server_recv);
            })
            .expect("spawning the in-process server thread never fails");
        let (client_send, client_recv) = client_end;
        Self::from_halves(Box::new(client_send), Box::new(client_recv))
    }

    /// Build a client from pre-connected transport halves.
    pub fn from_halves(send: Box<dyn SendHalf>, recv: Box<dyn RecvHalf>) -> CacheClient {
        let (note_tx, note_rx) = unbounded();
        let state = std::sync::Arc::new(ClientState {
            inner: StdMutex::new(Inner {
                writer: send,
                open: true,
                generation: 0,
                pending: HashMap::new(),
                reader: None,
            }),
            in_flight: StdMutex::new(0),
            window_cv: Condvar::new(),
            max_window: AtomicUsize::new(pscache::config::DEFAULT_RPC_MAX_PIPELINE),
            note_tx,
        });
        let reader = spawn_reader(recv, 0, std::sync::Arc::clone(&state));
        lock(&state.inner).reader = Some(reader);
        CacheClient {
            state,
            notifications: note_rx,
            seq: AtomicU64::new(1),
            reconnect: None,
            redial: StdMutex::new(()),
            reconnects: AtomicU64::new(0),
            client_id: mint_client_id(),
            token_seq: AtomicU64::new(1),
            tokens_enabled: AtomicBool::new(true),
            trace_enabled: AtomicBool::new(false),
            trace_base: AtomicU64::new(0),
        }
    }

    /// Stamp (or stop stamping) every outgoing request with an 8-byte
    /// wire trace id. `Some(base)` stamps the request with sequence
    /// number `seq` as `base.wrapping_add(seq)` — unique per request,
    /// yet predictable enough to correlate a client-side latency spike
    /// with the matching entry in the server's slow-op log
    /// (`pscache::SlowOpLog`). `None` — the default — omits the wire
    /// flag entirely, so untraced requests pay one byte, not nine.
    pub fn set_trace_base(&self, base: Option<u64>) {
        match base {
            Some(b) => {
                self.trace_base.store(b, Ordering::Release);
                self.trace_enabled.store(true, Ordering::Release);
            }
            None => self.trace_enabled.store(false, Ordering::Release),
        }
    }

    /// Enable or disable idempotency tokens on blocking mutations
    /// (enabled by default). With tokens on, the server remembers each
    /// stamped mutation's outcome and a reconnecting client retries
    /// *every* request safely — a retry of an applied mutation returns
    /// the original outcome instead of applying twice. Disabling
    /// restores the bare at-least-once transport (and its
    /// [`Error::MaybeApplied`] ambiguity); the benchmark suite uses this
    /// to price the dedup path.
    pub fn set_idempotency_tokens(&self, enabled: bool) {
        self.tokens_enabled.store(enabled, Ordering::Release);
    }

    /// The identity this client stamps idempotency tokens with.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Cap on requests this client keeps in flight at once (default
    /// [`pscache::config::DEFAULT_RPC_MAX_PIPELINE`]). Callers over the
    /// cap block in [`CacheClient::begin_request`] until a reply frees a
    /// slot.
    pub fn set_pipeline_window(&self, window: usize) {
        self.state
            .max_window
            .store(window.max(1), Ordering::Release);
        self.state.window_cv.notify_all();
    }

    /// Send `request` without waiting for its reply: the pipelining
    /// primitive. Issue many, then [`PendingReply::wait`] in any order —
    /// replies are matched by correlation id, so a slow query does not
    /// stall the replies queued behind it on the server.
    ///
    /// Blocks while the in-flight window
    /// ([`CacheClient::set_pipeline_window`]) is full.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] (or the underlying I/O error)
    /// when the request cannot be sent; nothing was delivered, so
    /// re-issuing is always safe. Unlike the blocking methods, this
    /// does **not** redial a reconnecting client.
    pub fn begin_request(&self, request: Request) -> Result<PendingReply> {
        self.begin(&request, None)
    }

    /// [`CacheClient::begin_request`] with an explicit idempotency token
    /// `(client id, token seq)`. Re-issuing the same token after a lost
    /// reply returns the original outcome instead of re-applying — the
    /// building block for callers that manage their own retry loop over
    /// pipelined requests (and for the differential protocol suite).
    ///
    /// # Errors
    ///
    /// See [`CacheClient::begin_request`].
    pub fn begin_request_with_token(
        &self,
        request: Request,
        token: Option<(u64, u64)>,
    ) -> Result<PendingReply> {
        self.begin(&request, token)
    }

    /// Mint a fresh idempotency token for use with
    /// [`CacheClient::begin_request_with_token`].
    pub fn next_token(&self) -> (u64, u64) {
        (
            self.client_id,
            self.token_seq.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// [`CacheClient::begin_request`] for a SQL-ish command.
    ///
    /// # Errors
    ///
    /// See [`CacheClient::begin_request`].
    pub fn begin_execute(&self, command: &str) -> Result<PendingReply> {
        self.begin_request(Request::Execute {
            command: command.to_owned(),
        })
    }

    fn begin(&self, request: &Request, token: Option<(u64, u64)>) -> Result<PendingReply> {
        // Window first: a full pipeline must block *before* touching the
        // connection, so waiters never hold the connection lock.
        {
            let max = self.state.max_window.load(Ordering::Acquire);
            let mut in_flight = lock(&self.state.in_flight);
            while *in_flight >= max {
                in_flight = self
                    .state
                    .window_cv
                    .wait(in_flight)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            *in_flight += 1;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trace = self
            .trace_enabled
            .load(Ordering::Acquire)
            .then(|| self.trace_base.load(Ordering::Acquire).wrapping_add(seq));
        let bytes = ClientMessage {
            seq,
            token,
            trace,
            request: request.clone(),
        }
        .encode();
        let (tx, rx) = unbounded();
        let pending = PendingReply {
            rx,
            state: std::sync::Arc::clone(&self.state),
            idempotent: is_idempotent(request),
            done: false,
        };
        let mut inner = lock(&self.state.inner);
        if !inner.open {
            return Err(Error::Disconnected);
        }
        // Register before sending: a reply cannot race its own entry
        // because the reader needs this lock to resolve it.
        inner.pending.insert(seq, tx);
        if let Err(e) = inner.writer.send(&bytes) {
            inner.pending.remove(&seq);
            inner.open = false;
            return Err(e);
        }
        Ok(pending)
    }

    fn request(&self, request: Request) -> Result<CacheReply> {
        let idempotent = is_idempotent(&request);
        // The token is minted once per *logical* request and reused on
        // every retry — that identity stability is the whole mechanism:
        // the server recognises the re-send and answers with the
        // remembered outcome.
        let token = (self.tokens_enabled.load(Ordering::Acquire) && wants_token(&request))
            .then(|| self.next_token());
        let deadline = self
            .reconnect
            .as_ref()
            .and_then(|(_, p)| p.deadline)
            .map(|d| Instant::now() + d);
        loop {
            let mut pending = match self.begin(&request, token) {
                Ok(p) => p,
                // Send failure: the server never saw a complete message,
                // so redial-and-retry is safe for any request.
                Err(e) if transport_failed(&e) && self.reconnect.is_some() => {
                    self.reestablish(deadline)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match pending.take_outcome_by(deadline) {
                // The reply outwaited the policy deadline on a live
                // connection: surface the same contract as a dropped
                // transport instead of waiting forever. The request may
                // still be applied, so mutations report `MaybeApplied`
                // (the minted token is abandoned with the handle).
                None if idempotent => return Err(Error::Disconnected),
                None => return Err(Error::MaybeApplied),
                Some(Outcome::Reply(CacheReply::Error { message })) => {
                    return Err(Error::Remote { message })
                }
                Some(Outcome::Reply(CacheReply::NotMine { partition })) => {
                    // A cluster redirect, not a failure: nothing was
                    // applied and the request belongs on another
                    // partition's primary. Surfaced typed (never
                    // retried here) so the cluster client can re-route.
                    return Err(Error::NotMine { partition });
                }
                Some(Outcome::Reply(CacheReply::Throttled { retry_after_ms })) => {
                    // Admission control said no. Honour the server's
                    // pacing hint, bounded by the policy deadline — a
                    // caller that set one gets the typed error instead
                    // of an open-ended wait.
                    let retry_after = Duration::from_millis(retry_after_ms.max(1));
                    if deadline.is_some_and(|d| Instant::now() + retry_after >= d) {
                        return Err(Error::Throttled { retry_after });
                    }
                    std::thread::sleep(retry_after);
                }
                Some(Outcome::Reply(reply)) => return Ok(reply),
                Some(Outcome::Dropped) => {
                    // Fully sent, reply lost. Retrying is safe when a
                    // second application changes nothing — or when the
                    // request carries a token the server will dedup.
                    if self.reconnect.is_none() {
                        return Err(Error::Disconnected);
                    }
                    if !idempotent && token.is_none() {
                        return Err(Error::MaybeApplied);
                    }
                    self.reestablish(deadline)?;
                }
            }
        }
    }

    /// Redial the server and swap the transport generation, with capped
    /// exponential backoff and jitter between attempts. Concurrent
    /// callers coalesce onto one redial.
    fn reestablish(&self, deadline: Option<Instant>) -> Result<()> {
        let (addr, policy) = self
            .reconnect
            .as_ref()
            .expect("reestablish is only called with a policy");
        let _serialised = lock(&self.redial);
        if lock(&self.state.inner).open {
            return Ok(()); // another caller already reconnected
        }
        for attempt in 0..policy.max_attempts {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::Disconnected);
            }
            std::thread::sleep(backoff_delay(attempt, policy));
            let Ok(stream) = TcpStream::connect(addr.as_str()) else {
                continue;
            };
            let (send, recv) = tcp_split(stream)?;
            let old_reader;
            {
                let mut inner = lock(&self.state.inner);
                inner.generation += 1;
                let generation = inner.generation;
                // Replacing the writer drops the old one, shutting the
                // dead socket's write side and unblocking its reader.
                inner.writer = Box::new(send);
                inner.open = true;
                for (_, tx) in inner.pending.drain() {
                    let _ = tx.send(Outcome::Dropped);
                }
                old_reader = inner.reader.take();
                inner.reader = Some(spawn_reader(
                    Box::new(recv),
                    generation,
                    std::sync::Arc::clone(&self.state),
                ));
            }
            if let Some(handle) = old_reader {
                let _ = handle.join();
            }
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        Err(Error::Disconnected)
    }

    /// Execute any SQL-ish command and discard the detail of the reply.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] when the cache rejects the command.
    pub fn execute(&self, command: &str) -> Result<CacheReply> {
        self.request(Request::Execute {
            command: command.to_owned(),
        })
    }

    /// Run a `select` and return its rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] for unknown tables or malformed queries,
    /// and a protocol error if the cache answers with something other than
    /// rows.
    pub fn select(&self, command: &str) -> Result<ClientResultSet> {
        match self.execute(command)? {
            CacheReply::Rows { columns, rows } => Ok(ClientResultSet { columns, rows }),
            other => Err(Error::protocol(format!(
                "expected rows in reply to a select, got {other:?}"
            ))),
        }
    }

    /// Insert a tuple using the fast path (no SQL formatting/parsing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] when the cache rejects the tuple.
    pub fn insert(&self, table: &str, values: Vec<Scalar>) -> Result<u64> {
        match self.request(Request::Insert {
            table: table.to_owned(),
            values,
            upsert: false,
        })? {
            CacheReply::Inserted { tstamp, .. } => Ok(tstamp),
            other => Err(Error::protocol(format!(
                "unexpected reply to insert: {other:?}"
            ))),
        }
    }

    /// Insert with `on duplicate key update` semantics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] when the cache rejects the tuple.
    pub fn upsert(&self, table: &str, values: Vec<Scalar>) -> Result<u64> {
        match self.request(Request::Insert {
            table: table.to_owned(),
            values,
            upsert: true,
        })? {
            CacheReply::Inserted { tstamp, .. } => Ok(tstamp),
            other => Err(Error::protocol(format!(
                "unexpected reply to upsert: {other:?}"
            ))),
        }
    }

    /// Insert many tuples into one table in a single round trip — the
    /// batched fast path. The cache applies the whole batch under one
    /// table-lock acquisition and subscribed automata observe it as a
    /// contiguous, ordered run, so a 1000-row batch costs one RPC and a
    /// fraction of the cache work of 1000 single inserts.
    ///
    /// Returns one insertion timestamp per row, in row order. Batches are
    /// capped at [`crate::message::MAX_BATCH_ROWS`] rows; split larger
    /// loads into several batches.
    ///
    /// # Errors
    ///
    /// Returns a protocol error for over-large batches (checked locally,
    /// before anything is sent), and [`Error::Remote`] when the cache
    /// rejects the batch (the rows before the first bad row stay
    /// inserted — see `pscache::Cache::insert_batch`).
    pub fn insert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<u64>> {
        self.batch_request(table, rows, false)
    }

    /// Batched [`CacheClient::upsert`]: every row is applied with
    /// `on duplicate key update` semantics.
    ///
    /// # Errors
    ///
    /// See [`CacheClient::insert_batch`].
    pub fn upsert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<u64>> {
        self.batch_request(table, rows, true)
    }

    fn batch_request(&self, table: &str, rows: Vec<Vec<Scalar>>, upsert: bool) -> Result<Vec<u64>> {
        if rows.len() > crate::message::MAX_BATCH_ROWS {
            return Err(Error::protocol(format!(
                "batch of {} rows exceeds MAX_BATCH_ROWS ({}); split it",
                rows.len(),
                crate::message::MAX_BATCH_ROWS
            )));
        }
        match self.request(Request::InsertBatch {
            table: table.to_owned(),
            rows,
            upsert,
        })? {
            CacheReply::InsertedBatch { tstamps } => Ok(tstamps),
            other => Err(Error::protocol(format!(
                "unexpected reply to insert_batch: {other:?}"
            ))),
        }
    }

    /// Register an automaton; returns its id. Compilation errors are
    /// reported back as [`Error::Remote`], exactly as in the paper.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn register_automaton(&self, source: &str) -> Result<u64> {
        match self.request(Request::RegisterAutomaton {
            source: source.to_owned(),
        })? {
            CacheReply::Registered { id } => Ok(id),
            other => Err(Error::protocol(format!(
                "unexpected reply to register: {other:?}"
            ))),
        }
    }

    /// Unregister a previously registered automaton.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] for unknown ids.
    pub fn unregister_automaton(&self, id: u64) -> Result<()> {
        match self.request(Request::UnregisterAutomaton { id })? {
            CacheReply::Unregistered => Ok(()),
            other => Err(Error::protocol(format!(
                "unexpected reply to unregister: {other:?}"
            ))),
        }
    }

    /// Fetch the server's counters: connections, requests, in-flight
    /// pipeline depth, notification routing, and the cache's
    /// automaton-dispatch, durability and replication statistics — the
    /// [`ServerStats`] view of one [`CacheClient::metrics`] round trip.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when the server is gone.
    pub fn server_stats(&self) -> Result<ServerStats> {
        self.metrics().map(|s| ServerStats::from_snapshot(&s))
    }

    /// Fetch the server's health/readiness snapshot: role, durability
    /// and replication watermarks, queue depths, and throttle counters —
    /// the [`HealthReport`] view of one [`CacheClient::metrics`] round
    /// trip, so a probe gets its answer even when every worker is
    /// saturated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when the server is gone.
    pub fn health(&self) -> Result<HealthReport> {
        self.metrics().map(|s| HealthReport::from_snapshot(&s))
    }

    /// Fetch the node's whole telemetry: latency histograms, the
    /// registry's counters (see `pscache::obs`), and the cache's and
    /// server's point-in-time counters that [`CacheClient::server_stats`]
    /// and [`CacheClient::health`] are views of. A `ReactorServer`
    /// answers it inline on the reactor thread, so a scraper gets numbers
    /// even from a node whose worker pool is saturated — exactly the
    /// node whose numbers matter most.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when the server is gone.
    pub fn metrics(&self) -> Result<pscache::MetricsSnapshot> {
        match self.request(Request::Metrics)? {
            CacheReply::Metrics { snapshot } => Ok(snapshot),
            other => Err(Error::protocol(format!(
                "unexpected reply to a metrics request: {other:?}"
            ))),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when the server is gone.
    pub fn ping(&self) -> Result<()> {
        match self.request(Request::Ping)? {
            CacheReply::Pong => Ok(()),
            other => Err(Error::protocol(format!(
                "unexpected reply to ping: {other:?}"
            ))),
        }
    }

    /// The channel on which asynchronous automaton notifications arrive.
    pub fn notifications(&self) -> &Receiver<ClientNotification> {
        &self.notifications
    }

    /// Drain any notifications that have already arrived.
    pub fn drain_notifications(&self) -> Vec<ClientNotification> {
        self.notifications.try_iter().collect()
    }
}

/// The reader side of one connection generation: resolves replies
/// through the correlation map and forwards notifications. On exit it
/// fails whatever is still pending — unless a newer generation has
/// already taken over.
fn spawn_reader(
    mut recv: Box<dyn RecvHalf>,
    generation: u64,
    state: std::sync::Arc<ClientState>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("psrpc-client-reader".into())
        .spawn(move || {
            while let Ok(Some(bytes)) = recv.recv() {
                match ServerMessage::decode(&bytes) {
                    Ok(ServerMessage::Reply { seq, reply }) => {
                        let waiter = lock(&state.inner).pending.remove(&seq);
                        if let Some(tx) = waiter {
                            let _ = tx.send(Outcome::Reply(reply));
                        }
                    }
                    Ok(ServerMessage::Notification {
                        automaton,
                        values,
                        at,
                    }) => {
                        let _ = state.note_tx.send(ClientNotification {
                            automaton,
                            values,
                            at,
                        });
                    }
                    Err(_) => break,
                }
            }
            let mut inner = lock(&state.inner);
            if inner.generation == generation {
                inner.open = false;
                for (_, tx) in inner.pending.drain() {
                    let _ = tx.send(Outcome::Dropped);
                }
            }
        })
        .expect("spawning the client reader thread never fails")
}

/// Whether an error means the transport is dead (worth redialling), as
/// opposed to the server rejecting a well-delivered request.
fn transport_failed(e: &Error) -> bool {
    matches!(e, Error::Disconnected | Error::Io(_))
}

impl Drop for CacheClient {
    fn drop(&mut self) {
        let reader = {
            let mut inner = lock(&self.state.inner);
            // Dropping the writer closes the connection, which unblocks
            // and terminates the reader thread.
            inner.writer = Box::new(ClosedSend);
            inner.open = false;
            inner.reader.take()
        };
        if let Some(handle) = reader {
            let _ = handle.join();
        }
    }
}

/// A sender that always fails; installed while dropping the client.
#[derive(Debug)]
struct ClosedSend;

impl SendHalf for ClosedSend {
    fn send(&mut self, _message: &[u8]) -> Result<()> {
        Err(Error::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscache::CacheBuilder;
    use std::time::Duration;

    fn wait_for_notifications(client: &CacheClient, n: usize) -> Vec<ClientNotification> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut notes = Vec::new();
        while notes.len() < n && std::time::Instant::now() < deadline {
            if let Ok(note) = client
                .notifications()
                .recv_timeout(Duration::from_millis(50))
            {
                notes.push(note);
            }
        }
        notes
    }

    #[test]
    fn inproc_end_to_end_execute_insert_select_and_notifications() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client.ping().unwrap();
        client
            .execute("create table Flows (srcip varchar(16), nbytes integer)")
            .unwrap();
        let id = client
            .register_automaton(
                "subscribe f to Flows; behavior { if (f.nbytes > 100) send(f.srcip); }",
            )
            .unwrap();
        client
            .insert("Flows", vec![Scalar::Str("a".into()), Scalar::Int(10)])
            .unwrap();
        client
            .insert("Flows", vec![Scalar::Str("b".into()), Scalar::Int(500)])
            .unwrap();
        let rows = client.select("select * from Flows").unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.max_tstamp().is_some());

        let notes = wait_for_notifications(&client, 1);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].automaton, id);
        assert_eq!(notes[0].values[0], Scalar::Str("b".into()));

        client.unregister_automaton(id).unwrap();
        assert!(client.unregister_automaton(id).is_err());
    }

    #[test]
    fn inproc_connection_counts_itself_while_connected() {
        let client = CacheClient::connect_inproc(CacheBuilder::new().build());
        let stats = client.server_stats().unwrap();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_active, 1);
    }

    #[test]
    fn tcp_end_to_end_round_trip() {
        let cache = CacheBuilder::new().build();
        let server = crate::reactor::ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        client.execute("create table T (v integer)").unwrap();
        for i in 0..10 {
            client.insert("T", vec![Scalar::Int(i)]).unwrap();
        }
        let rows = client.select("select * from T where v >= 5").unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.columns, vec!["v"]);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_complete_out_of_issue_order() {
        let cache = CacheBuilder::new().build();
        let server = crate::reactor::ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        client.execute("create table T (v integer)").unwrap();
        // Issue a burst without waiting, then resolve newest-first.
        let pendings: Vec<PendingReply> = (0..32)
            .map(|i| {
                client
                    .begin_request(Request::Insert {
                        table: "T".into(),
                        values: vec![Scalar::Int(i)],
                        upsert: false,
                    })
                    .unwrap()
            })
            .collect();
        let mut tstamps: Vec<u64> = pendings
            .into_iter()
            .rev()
            .map(|p| match p.wait().unwrap() {
                CacheReply::Inserted { tstamp, .. } => tstamp,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        tstamps.sort_unstable();
        tstamps.dedup();
        assert_eq!(tstamps.len(), 32);
        assert_eq!(client.select("select * from T").unwrap().len(), 32);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn the_pipeline_window_bounds_in_flight_requests() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client.set_pipeline_window(2);
        client.execute("create table T (v integer)").unwrap();
        let a = client.begin_execute("select * from T").unwrap();
        let b = client.begin_execute("select * from T").unwrap();
        // The window is full: a third begin must block until a slot
        // frees. Prove it from another thread.
        let (probe_tx, probe_rx) = unbounded();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let c = client.begin_execute("select * from T").unwrap();
                probe_tx.send(()).unwrap();
                c.wait().unwrap();
            });
            assert!(probe_rx.recv_timeout(Duration::from_millis(200)).is_err());
            a.wait().unwrap();
            assert!(probe_rx.recv_timeout(Duration::from_secs(5)).is_ok());
            b.wait().unwrap();
        });
    }

    #[test]
    fn an_abandoned_pending_reply_releases_its_window_slot() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client.set_pipeline_window(1);
        drop(client.begin_request(Request::Ping).unwrap());
        // If the slot leaked, this second begin would deadlock.
        client.begin_request(Request::Ping).unwrap().wait().unwrap();
    }

    #[test]
    fn remote_errors_are_surfaced() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        assert!(matches!(
            client.execute("select * from Missing"),
            Err(Error::Remote { .. })
        ));
        assert!(matches!(
            client.register_automaton("subscribe f to Missing; behavior { }"),
            Err(Error::Remote { .. })
        ));
        assert!(matches!(
            client.register_automaton("this is not gapl"),
            Err(Error::Remote { .. })
        ));
    }

    #[test]
    fn insert_batch_round_trips_and_notifies_in_order() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client.execute("create table T (v integer)").unwrap();
        let id = client
            .register_automaton("subscribe t to T; behavior { send(t.v); }")
            .unwrap();
        let tstamps = client
            .insert_batch("T", (0..50).map(|i| vec![Scalar::Int(i)]).collect())
            .unwrap();
        assert_eq!(tstamps.len(), 50);
        let notes = wait_for_notifications(&client, 50);
        let got: Vec<i64> = notes
            .iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert!(notes.iter().all(|n| n.automaton == id));
        // Batch errors surface as remote errors.
        assert!(matches!(
            client.insert_batch("Missing", vec![vec![Scalar::Int(1)]]),
            Err(Error::Remote { .. })
        ));
    }

    #[test]
    fn upsert_batch_applies_every_row_with_update_semantics() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client
            .execute("create persistenttable U (k varchar(8) primary key, v integer)")
            .unwrap();
        client
            .upsert_batch(
                "U",
                vec![
                    vec![Scalar::Str("a".into()), Scalar::Int(1)],
                    vec![Scalar::Str("a".into()), Scalar::Int(2)],
                    vec![Scalar::Str("b".into()), Scalar::Int(3)],
                ],
            )
            .unwrap();
        let rows = client.select("select * from U").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn upsert_over_rpc_updates_rows_in_place() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache);
        client
            .execute("create persistenttable U (k varchar(8) primary key, v integer)")
            .unwrap();
        client
            .upsert("U", vec![Scalar::Str("a".into()), Scalar::Int(1)])
            .unwrap();
        client
            .upsert("U", vec![Scalar::Str("a".into()), Scalar::Int(2)])
            .unwrap();
        let rows = client.select("select * from U").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0].values[1], Scalar::Int(2));
    }

    #[test]
    fn client_disconnect_unregisters_its_automata() {
        let cache = CacheBuilder::new().build();
        let client = CacheClient::connect_inproc(cache.clone());
        client.execute("create table T (v integer)").unwrap();
        client
            .register_automaton("subscribe t to T; behavior { }")
            .unwrap();
        assert_eq!(cache.automata().len(), 1);
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cache.automata().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(cache.automata().is_empty());
    }

    #[test]
    fn idempotency_classification_matches_the_retry_contract() {
        assert!(is_idempotent(&Request::Ping));
        assert!(is_idempotent(&Request::Metrics));
        assert!(!wants_token(&Request::Ping));
        assert!(!wants_token(&Request::Metrics));
        assert!(wants_token(&Request::Execute {
            command: "insert into T values (1)".into()
        }));
        assert!(!wants_token(&Request::Execute {
            command: "select * from T".into()
        }));
        assert!(wants_token(&Request::Insert {
            table: "T".into(),
            values: vec![],
            upsert: false
        }));
        assert!(!wants_token(&Request::Insert {
            table: "T".into(),
            values: vec![],
            upsert: true
        }));
        assert!(!wants_token(&Request::RegisterAutomaton {
            source: String::new()
        }));
        assert!(is_idempotent(&Request::Execute {
            command: "  SELECT * from T".into()
        }));
        assert!(!is_idempotent(&Request::Execute {
            command: "insert into T values (1)".into()
        }));
        assert!(is_idempotent(&Request::Insert {
            table: "T".into(),
            values: vec![],
            upsert: true
        }));
        assert!(!is_idempotent(&Request::Insert {
            table: "T".into(),
            values: vec![],
            upsert: false
        }));
        assert!(!is_idempotent(&Request::RegisterAutomaton {
            source: String::new()
        }));
        assert!(!is_idempotent(&Request::UnregisterAutomaton { id: 1 }));
    }
}
