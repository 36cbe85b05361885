//! The multi-client RPC server: exposes a [`pscache::Cache`] to remote
//! applications.
//!
//! The paper's prototype serves applications from a single accept loop
//! and funnels every request through the cache's main thread (§6). This
//! server keeps the paper's *semantics* — requests on one connection are
//! answered in order, and an automaton's notifications flow back over the
//! connection that registered it — but scales the mechanism out:
//!
//! * the accept loop only accepts; every connection gets a dedicated
//!   **worker thread** that decodes and executes its requests against the
//!   cache (one lock per table), so clients inserting into different
//!   tables run truly in parallel;
//! * each connection also owns a **writer thread**, the single point that
//!   serialises replies and asynchronous notifications onto the socket —
//!   two threads per connection and none shared between connections;
//! * an automaton registered over a connection is handed that
//!   connection's [`pscache::NotificationSink`] *at registration*: the
//!   automaton-pool worker that runs `send()` puts the notification on
//!   the writer's queue itself — one hop, no router thread and no route
//!   table in between;
//! * when a client disconnects, its automata are unregistered (and their
//!   sinks dropped with them), exactly as the paper's cache reclaims
//!   state for vanished applications. Unregistration is the cache's
//!   acknowledged drain, so every notification an automaton produced is
//!   on the writer's queue before its `Unregistered` reply and none can
//!   follow it.
//!
//! [`serve_connection`] exposes the same machinery for a single duplex
//! transport (TCP or in-process), which is how the stress benchmarks and
//! [`crate::client::CacheClient::connect_inproc`] embed a server without
//! a network stack.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use pscache::{AutomatonId, Cache, IdemToken, NotificationSink};

use crate::error::Result;
use crate::exec::{
    handle_request, notification_message, teardown_registered, RequestCtx, StatsInner,
};
use crate::message::{ClientMessage, ServerMessage};
use crate::transport::{tcp_split, RecvEvent, RecvHalf, SendHalf};

pub use crate::message::ServerStats;

/// A running multi-client RPC server bound to a TCP address.
pub struct RpcServer {
    local_addr: SocketAddr,
    /// The served cache; kept for stats snapshots (cloning a cache is a
    /// refcount bump — state is shared with the connection workers).
    cache: Cache,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain signal: workers finish the request in flight,
    /// then exit at the next idle gap instead of waiting for more.
    draining: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    stats: Arc<StatsInner>,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// How long between idle checks of the drain flag on a server-side
/// connection (its socket read timeout).
const DRAIN_POLL: std::time::Duration = std::time::Duration::from_millis(100);

/// How long [`RpcServer::shutdown`] waits for workers to drain before
/// force-closing the remaining sockets.
const DRAIN_GRACE: std::time::Duration = std::time::Duration::from_secs(5);

impl RpcServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// accepting connections. Every accepted connection is served by its
    /// own worker thread against the shared cache; an automaton's
    /// notifications go straight to the writer of the connection that
    /// registered it.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot be bound.
    ///
    /// # Example
    ///
    /// ```
    /// use pscache::CacheBuilder;
    /// use psrpc::{client::CacheClient, server::RpcServer};
    ///
    /// let server = RpcServer::bind(CacheBuilder::new().build(), "127.0.0.1:0")?;
    ///
    /// // Any number of clients may connect concurrently.
    /// let a = CacheClient::connect(server.local_addr())?;
    /// let b = CacheClient::connect(server.local_addr())?;
    /// a.execute("create table T (v integer)")?;
    /// b.insert_batch("T", (0..4).map(|i| vec![i.into()]).collect())?;
    ///
    /// assert_eq!(a.select("select * from T")?.len(), 4);
    /// assert!(server.stats().connections_accepted >= 2);
    /// server.shutdown();
    /// # Ok::<(), psrpc::Error>(())
    /// ```
    pub fn bind(cache: Cache, addr: impl ToSocketAddrs) -> Result<RpcServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_draining = Arc::clone(&draining);
        let accept_stats = Arc::clone(&stats);
        let accept_workers = Arc::clone(&workers);
        let accept_conns = Arc::clone(&conns);
        let served_cache = cache.clone();
        let accept_thread = std::thread::Builder::new()
            .name("psrpc-accept".into())
            .spawn(move || {
                for (conn_id, stream) in (0_u64..).zip(listener.incoming()) {
                    if accept_shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    // The read timeout is what lets a worker notice the
                    // drain flag between requests without tearing the
                    // one in flight.
                    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
                    accept_stats.accepted.fetch_add(1, Ordering::Release);
                    accept_stats.active.fetch_add(1, Ordering::Release);
                    if let Ok(clone) = stream.try_clone() {
                        accept_conns.lock().insert(conn_id, clone);
                    }
                    let cache = cache.clone();
                    let stats = Arc::clone(&accept_stats);
                    let conns = Arc::clone(&accept_conns);
                    let draining = Arc::clone(&accept_draining);
                    let worker = std::thread::Builder::new()
                        .name(format!("psrpc-conn-{conn_id}"))
                        .spawn(move || {
                            let _ = tcp_split(stream).and_then(|(send, recv)| {
                                serve(cache, send, recv, &stats, &draining)
                            });
                            stats.active.fetch_sub(1, Ordering::Release);
                            conns.lock().remove(&conn_id);
                        })
                        .expect("spawning a connection worker never fails");
                    // Reap workers whose connection already ended, so
                    // short-lived clients cannot grow this vector for
                    // the server's whole lifetime.
                    let mut workers = accept_workers.lock();
                    workers.retain(|w| !w.is_finished());
                    workers.push(worker);
                }
            })
            .expect("spawning the accept thread never fails");

        Ok(RpcServer {
            local_addr,
            cache: served_cache,
            shutdown,
            draining,
            accept_thread: Some(accept_thread),
            workers,
            conns,
            stats,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters, including the cache's
    /// automaton-dispatch statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot(&self.cache)
    }

    /// Graceful shutdown: stop accepting, let every connection worker
    /// finish its request in flight and drain out at its next idle gap,
    /// force-close whatever is still connected after a grace period,
    /// join all threads, and **flush the cache's write-ahead log** —
    /// an acknowledged insert can never be lost to a server exit,
    /// regardless of sync policy.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Phase 1 — drain: workers exit on their own once their current
        // request is answered and their socket goes idle.
        self.draining.store(true, Ordering::Release);
        let deadline = std::time::Instant::now() + DRAIN_GRACE;
        while self.stats.active.load(Ordering::Acquire) > 0 && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Phase 2 — force: close whatever outlived the grace period
        // (e.g. a peer mid-send that never completes its message).
        for (_, stream) in self.conns.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        // Every request is answered and no new one can arrive: force any
        // buffered log records to disk before the server is gone.
        let _ = self.cache.flush_wal();
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Serve one duplex connection until the peer disconnects. Usable with
/// any transport (TCP or in-process), which is how the stress benchmarks
/// and the in-process client embed a server without a network stack.
pub fn serve_connection(
    cache: Cache,
    send: impl SendHalf + 'static,
    recv: impl RecvHalf,
) -> Result<()> {
    let stats = Arc::new(StatsInner::default());
    let never_draining = AtomicBool::new(false);
    serve(cache, send, recv, &stats, &never_draining)
}

/// The blocking transport's [`NotificationSink`]: the notification joins
/// the replies on the connection's writer queue. An unbounded channel
/// send, so the pool worker delivering it never waits on the socket.
#[derive(Clone)]
struct WriterSink {
    out_tx: Sender<ServerMessage>,
    stats: Arc<StatsInner>,
}

impl NotificationSink for WriterSink {
    fn deliver(&self, note: pscache::Notification) -> bool {
        let accepted = self.out_tx.send(notification_message(note)).is_ok();
        if accepted {
            self.stats.notifications.fetch_add(1, Ordering::Release);
        }
        accepted
    }
}

/// The per-connection worker body: spawns the connection's writer thread,
/// decodes and executes requests in order, and tears down the
/// connection's automata when the peer goes away.
fn serve(
    cache: Cache,
    mut send: impl SendHalf + 'static,
    mut recv: impl RecvHalf,
    stats: &Arc<StatsInner>,
    draining: &AtomicBool,
) -> Result<()> {
    // All messages to the client are funnelled through one writer thread
    // so that replies and asynchronous notifications interleave safely.
    let (out_tx, out_rx) = unbounded::<ServerMessage>();
    let writer = std::thread::Builder::new()
        .name("psrpc-writer".into())
        .spawn(move || {
            while let Ok(msg) = out_rx.recv() {
                if send.send(&msg.encode()).is_err() {
                    break;
                }
            }
        })
        .expect("spawning the writer thread never fails");

    let ctx = RequestCtx {
        cache: &cache,
        stats,
    };
    let sink = WriterSink {
        out_tx,
        stats: Arc::clone(stats),
    };
    let mut registered = HashSet::new();
    let result = serve_requests(&ctx, &mut registered, &sink, &mut recv, draining);

    // The client is gone: its automata go with it, and with them every
    // clone of the sink — which is what lets the writer below see the
    // channel close.
    teardown_registered(&ctx, &mut registered);
    drop(sink);
    let _ = writer.join();
    result
}

fn serve_requests(
    ctx: &RequestCtx<'_>,
    registered: &mut HashSet<AutomatonId>,
    sink: &WriterSink,
    recv: &mut impl RecvHalf,
    draining: &AtomicBool,
) -> Result<()> {
    loop {
        let bytes = match recv.recv_idle()? {
            RecvEvent::Message(bytes) => bytes,
            // Idle gap between requests: the one place a draining
            // worker may exit — never mid-request, never mid-message.
            RecvEvent::Idle => {
                if draining.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            RecvEvent::Closed => return Ok(()),
        };
        let msg = ClientMessage::decode(&bytes)?;
        ctx.stats.requests.fetch_add(1, Ordering::Release);
        let token = msg
            .token
            .map(|(client_id, seq)| IdemToken { client_id, seq });
        ctx.stats.worker_busy.fetch_add(1, Ordering::Release);
        let reply = handle_request(ctx, registered, || sink.clone(), msg.request, token);
        ctx.stats.worker_busy.fetch_sub(1, Ordering::Release);
        if sink
            .out_tx
            .send(ServerMessage::Reply {
                seq: msg.seq,
                reply,
            })
            .is_err()
        {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscache::CacheBuilder;

    #[test]
    fn bind_and_shutdown_do_not_hang() {
        let cache = CacheBuilder::new().build();
        let server = RpcServer::bind(cache, "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.stats(), ServerStats::default());
        server.shutdown();
    }
}
