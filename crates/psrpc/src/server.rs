//! The blocking request loop: one connection, served in order, by one
//! thread.
//!
//! The paper's prototype serves applications from a single accept loop
//! and funnels every request through the cache's main thread (§6). The
//! production server is [`crate::reactor::ReactorServer`]; this module
//! keeps the plainest loop with the same semantics — requests on one
//! connection are answered in order, and an automaton's notifications
//! flow back over the connection that registered it:
//!
//! * the calling thread decodes and executes the connection's requests
//!   against the cache, one at a time, in receive order;
//! * a **writer thread** is the single point that serialises replies and
//!   asynchronous notifications onto the transport;
//! * an automaton registered over the connection is handed the
//!   connection's [`pscache::NotificationSink`] *at registration*: the
//!   automaton-pool worker that runs `send()` puts the notification on
//!   the writer's queue itself — one hop, no router thread and no route
//!   table in between;
//! * an unregistration waits, on this connection's thread only, for the
//!   automaton's drain, so every notification it produced is on the
//!   writer's queue before the `Unregistered` reply and none can follow;
//! * when the peer disconnects, its automata are detached without a
//!   wait, exactly as the paper's cache reclaims state for vanished
//!   applications.
//!
//! [`serve_connection`] runs this loop over any duplex transport. It is
//! the server behind [`crate::client::CacheClient::connect_inproc`], and
//! the differential suites put it behind a test-only accept loop as the
//! oracle the reactor is held to.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};

use pscache::{AutomatonId, Cache, IdemToken, NotificationSink};

use crate::error::Result;
use crate::exec::{handle_request, notification_message, RequestCtx, StatsInner};
use crate::message::{ClientMessage, ServerMessage};
use crate::transport::{RecvHalf, SendHalf};

/// Serve one duplex connection until the peer disconnects. Usable with
/// any transport (TCP or in-process): the in-process client embeds a
/// server with it, and the differential suites serve TCP connections
/// with it as the reactor's oracle.
pub fn serve_connection(
    cache: Cache,
    mut send: impl SendHalf + 'static,
    mut recv: impl RecvHalf,
) -> Result<()> {
    let stats = Arc::new(StatsInner::default());
    stats.accepted.fetch_add(1, Ordering::Release);
    stats.active.fetch_add(1, Ordering::Release);
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
        stats: &stats,
    };
    let sink = WriterSink {
        out_tx,
        stats: Arc::clone(&stats),
    };
    let mut registered = HashSet::new();
    let result = serve_requests(&ctx, &mut registered, &sink, &mut recv);

    // The client is gone: its automata go with it, and their drains drop
    // every clone of the sink — which is what lets the writer below see
    // the channel close.
    for id in registered {
        let _ = cache.detach_automaton(id, || {});
    }
    drop(sink);
    let _ = writer.join();
    stats.active.fetch_sub(1, Ordering::Release);
    result
}

/// The blocking loop's [`NotificationSink`]: the notification joins the
/// replies on the connection's writer queue. An unbounded channel send,
/// so the pool worker delivering it never waits on the transport.
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

fn serve_requests(
    ctx: &RequestCtx<'_>,
    registered: &mut HashSet<AutomatonId>,
    sink: &WriterSink,
    recv: &mut impl RecvHalf,
) -> Result<()> {
    while let Some(bytes) = recv.recv()? {
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
    Ok(())
}
