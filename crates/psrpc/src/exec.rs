//! Request execution shared by both request loops: the blocking
//! [`crate::server::serve_connection`] and the event-driven
//! [`crate::reactor::ReactorServer`] decode a request their own way and
//! then run it here, so the two serve one set of request semantics
//! (flush-before-ack durability, idempotency-token dedup, typed
//! redirects) and report into one set of counters.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use pscache::{
    AutomatonId, Cache, IdemToken, MetricsSnapshot, NotificationSink, Response, TokenOutcome,
    WriteRun,
};

use crate::message::{CacheReply, Request, ServerMessage, WireRow};

#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) accepted: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) notifications: AtomicU64,
    /// Requests decoded but not yet answered (the reactor counts them;
    /// the blocking loop executes each request as it decodes it, so it
    /// never has one waiting).
    pub(crate) in_flight: AtomicU64,
    /// Times a connection's read interest was parked because its
    /// decoded-request queue hit the pipeline cap.
    pub(crate) queue_stalls: AtomicU64,
    /// Workers currently occupied by a connection: the blocking loop
    /// counts around [`handle_request`], the reactor around a worker's
    /// whole claim on a connection — commit wait included.
    pub(crate) worker_busy: AtomicU64,
    /// Requests rejected by admission control (the reactor enforces the
    /// client policy; the blocking loop, the differential oracle,
    /// enforces none).
    pub(crate) requests_throttled: AtomicU64,
    /// Reactor doorbell rings (`Waker` pipe writes); the blocking loop
    /// has no doorbell and counts none.
    pub(crate) doorbell_rings: AtomicU64,
}

impl StatsInner {
    /// The node's one control-plane answer: the cache's
    /// [`Cache::metrics`] snapshot plus this server's counters, each
    /// named after the [`ServerStats`](crate::message::ServerStats)
    /// field it fills (`rpc_doorbell_rings` fills none; it is read by
    /// name). A remote client reads group-commit behaviour,
    /// replication lag and worker saturation from it without shell
    /// access to the cache host; both transports answer
    /// [`Request::Metrics`] with it.
    pub(crate) fn metrics(&self, cache: &Cache) -> MetricsSnapshot {
        let mut snapshot = cache.metrics();
        snapshot.counters.extend(
            [
                ("connections_accepted", &self.accepted),
                ("connections_active", &self.active),
                ("requests_served", &self.requests),
                ("notifications_routed", &self.notifications),
                ("rpc_in_flight", &self.in_flight),
                ("rpc_queue_stalls", &self.queue_stalls),
                ("rpc_worker_busy", &self.worker_busy),
                ("rpc_requests_throttled", &self.requests_throttled),
                ("rpc_doorbell_rings", &self.doorbell_rings),
            ]
            .map(|(name, v)| (name.to_owned(), v.load(Ordering::Acquire))),
        );
        snapshot
    }
}

/// The wire form of one automaton notification; both transports' sinks
/// build it on the pool worker that ran `send()`.
pub(crate) fn notification_message(note: pscache::Notification) -> ServerMessage {
    ServerMessage::Notification {
        automaton: note.automaton.0,
        values: note.values,
        at: note.at,
    }
}

/// The transport-independent surroundings of one request: the cache it
/// executes against and the counters it reports into. The blocking
/// loop builds one per connection; the reactor builds one per
/// worker thread and shares it across the connections that worker drains.
pub(crate) struct RequestCtx<'a> {
    pub(crate) cache: &'a Cache,
    pub(crate) stats: &'a StatsInner,
}

/// Convert a cache rejection into its wire reply. One error is typed
/// rather than textual: a cluster ownership miss becomes the
/// [`CacheReply::NotMine`] redirect (carrying the owning partition's
/// index), so a misrouted client can re-send instead of parsing error
/// prose. Everything else is the cache's error text.
pub(crate) fn error_to_reply(e: pscache::Error) -> CacheReply {
    match e {
        pscache::Error::WrongPartition { partition } => CacheReply::NotMine { partition },
        other => CacheReply::Error {
            message: other.to_string(),
        },
    }
}

/// Re-materialise the wire reply a token's original execution produced.
/// Byte-for-byte what the lost first reply carried (same variant, same
/// payload), which is what the differential proptest pins down.
fn outcome_to_reply(outcome: TokenOutcome) -> CacheReply {
    match outcome {
        TokenOutcome::Created => CacheReply::Created,
        TokenOutcome::Inserted { replaced, tstamp } => CacheReply::Inserted { replaced, tstamp },
        TokenOutcome::InsertedBatch { tstamps } => CacheReply::InsertedBatch { tstamps },
    }
}

/// The observability bucket a request's service time lands in (see
/// `pscache::obs::ReqKind`): one per mutation shape, with the cheap
/// control requests (ping, metrics) sharing a bucket.
pub(crate) fn req_kind(request: &Request) -> pscache::ReqKind {
    match request {
        Request::Execute { .. } => pscache::ReqKind::Execute,
        Request::Insert { .. } => pscache::ReqKind::Insert,
        Request::InsertBatch { .. } => pscache::ReqKind::InsertBatch,
        Request::RegisterAutomaton { .. } => pscache::ReqKind::Register,
        Request::UnregisterAutomaton { .. } => pscache::ReqKind::Unregister,
        Request::Ping | Request::Metrics => pscache::ReqKind::Control,
    }
}

/// Execute one decoded request against the cache on behalf of one
/// connection: [`stage_request`] then [`commit_run`], a write run of
/// one. The blocking loop answers every request this way; the reactor
/// calls the two halves itself so consecutive inserts share one commit.
pub(crate) fn handle_request<S: NotificationSink + Send + 'static>(
    ctx: &RequestCtx<'_>,
    registered: &mut HashSet<AutomatonId>,
    make_sink: impl FnOnce() -> S,
    request: Request,
    token: Option<IdemToken>,
) -> CacheReply {
    let mut run = ctx.cache.write_run();
    let reply = stage_request(ctx, &mut run, registered, make_sink, request, token);
    commit_run(&mut run).unwrap_or(reply)
}

/// Flush-before-ack, once per run: wait for everything `run` staged to
/// be durable before any reply that moved its `awaiting` count reaches
/// the client. `None` when they may; on failure, the reply that
/// replaces each of them. A run that awaits nothing costs nothing.
pub(crate) fn commit_run(run: &mut WriteRun<'_>) -> Option<CacheReply> {
    if run.awaiting() == 0 {
        return None;
    }
    run.commit().err().map(error_to_reply)
}

/// Execute one decoded request up to, but not including, its durability
/// wait. `registered` is the connection's automaton ownership set and
/// `make_sink` builds the sink a newly registered automaton delivers
/// its notifications into — the only two transport-specific inputs,
/// which is what lets the blocking loop and the reactor share every
/// request semantic (including flush-before-ack durability and
/// idempotency-token dedup). `token` is the client's exactly-once stamp
/// on mutating requests: a token whose outcome the cache already
/// remembers short-circuits to that outcome instead of re-executing.
///
/// Typed inserts are staged into `run`; the reply is final but, if the
/// call raised `run.awaiting()`, must not be sent before
/// [`commit_run`] succeeds. Every other request completes here.
pub(crate) fn stage_request<S: NotificationSink + Send + 'static>(
    ctx: &RequestCtx<'_>,
    run: &mut WriteRun<'_>,
    registered: &mut HashSet<AutomatonId>,
    make_sink: impl FnOnce() -> S,
    request: Request,
    token: Option<IdemToken>,
) -> CacheReply {
    // Dedup before execution: a retry of an already-applied mutation
    // must return the original outcome, not apply again (and not fail
    // with DuplicateKey). The lookup-then-execute window is safe because
    // a client never has two in-flight requests with the same token.
    // The original may still be waiting for its own flush, so a hit
    // makes the run await it: a retry is never acknowledged before the
    // record it vouches for is durable.
    ctx.cache.obs().count_request(req_kind(&request));
    if let Some(t) = token {
        if let Some(outcome) = run.token_lookup(t) {
            return outcome_to_reply(outcome);
        }
    }
    match request {
        Request::Ping => CacheReply::Pong,
        Request::Metrics => CacheReply::Metrics {
            snapshot: ctx.stats.metrics(ctx.cache),
        },
        // An insert arriving as text is a write run of one inside the
        // cache, durable before `execute_with_token` returns.
        Request::Execute { command } => match ctx.cache.execute_with_token(&command, token) {
            Ok(response) => response_to_reply(response),
            Err(e) => error_to_reply(e),
        },
        Request::Insert {
            table,
            values,
            upsert,
        } => match run.insert(&table, values, upsert, token) {
            Ok((replaced, tstamp)) => CacheReply::Inserted { replaced, tstamp },
            Err(e) => error_to_reply(e),
        },
        Request::InsertBatch {
            table,
            rows,
            upsert,
        } => match run.insert_batch(&table, rows, upsert, token) {
            Ok(tstamps) => CacheReply::InsertedBatch { tstamps },
            Err(e) => error_to_reply(e),
        },
        Request::RegisterAutomaton { source } => {
            match ctx
                .cache
                .register_automaton_with_notifier(&source, make_sink())
            {
                Ok(id) => {
                    registered.insert(id);
                    CacheReply::Registered { id: id.0 }
                }
                Err(e) => CacheReply::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::UnregisterAutomaton { id } => {
            let id = AutomatonId(id);
            // Only the blocking loop waits here (the reactor parks): every
            // notification is on the writer queue, ahead of this reply.
            match ctx.cache.unregister_automaton(id) {
                Ok(()) => {
                    registered.remove(&id);
                    CacheReply::Unregistered
                }
                Err(e) => error_to_reply(e),
            }
        }
    }
}

/// Convert a cache response into its wire reply by moving the payload —
/// result rows are never cloned, and their string scalars still share
/// storage with the table they were selected from (see
/// [`crate::message`] for the marshalling contract).
fn response_to_reply(response: Response) -> CacheReply {
    match response {
        Response::Created => CacheReply::Created,
        Response::Inserted { replaced, tstamp } => CacheReply::Inserted { replaced, tstamp },
        Response::InsertedBatch { tstamps } => CacheReply::InsertedBatch { tstamps },
        Response::Rows(rs) => CacheReply::Rows {
            columns: rs.columns,
            rows: rs
                .rows
                .into_iter()
                .map(|r| WireRow {
                    values: r.values,
                    tstamp: r.tstamp,
                })
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Sender};
    use gapl::event::Scalar;
    use pscache::CacheBuilder;

    /// A per-test connection: the counters and ownership set a transport
    /// would hold around [`handle_request`], with a plain channel sender
    /// standing in for the transport's notification sink.
    struct TestConn {
        note_tx: Sender<pscache::Notification>,
        stats: StatsInner,
        registered: HashSet<AutomatonId>,
    }

    impl TestConn {
        fn handle(&mut self, cache: &Cache, request: Request) -> CacheReply {
            let ctx = RequestCtx {
                cache,
                stats: &self.stats,
            };
            let sink = || self.note_tx.clone();
            handle_request(&ctx, &mut self.registered, sink, request, None)
        }
    }

    fn test_conn() -> TestConn {
        TestConn {
            note_tx: unbounded().0,
            stats: StatsInner::default(),
            registered: HashSet::new(),
        }
    }

    #[test]
    fn response_conversion_covers_all_variants() {
        assert_eq!(response_to_reply(Response::Created), CacheReply::Created);
        assert_eq!(
            response_to_reply(Response::Inserted {
                replaced: false,
                tstamp: 3
            }),
            CacheReply::Inserted {
                replaced: false,
                tstamp: 3
            }
        );
        assert_eq!(
            response_to_reply(Response::InsertedBatch {
                tstamps: vec![1, 2]
            }),
            CacheReply::InsertedBatch {
                tstamps: vec![1, 2]
            }
        );
        let rs = pscache::ResultSet {
            columns: vec!["a".into()],
            rows: vec![pscache::Row {
                values: vec![Scalar::Int(1)],
                tstamp: 9,
            }],
        };
        match response_to_reply(Response::Rows(rs)) {
            CacheReply::Rows { columns, rows } => {
                assert_eq!(columns, vec!["a"]);
                assert_eq!(rows[0].tstamp, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn handle_request_reports_cache_errors() {
        let cache = CacheBuilder::new().build();
        let mut conn = test_conn();
        let reply = conn.handle(
            &cache,
            Request::Execute {
                command: "select * from Missing".into(),
            },
        );
        assert!(matches!(reply, CacheReply::Error { .. }));
        let reply = conn.handle(&cache, Request::UnregisterAutomaton { id: 999 });
        assert!(matches!(reply, CacheReply::Error { .. }));
        let reply = conn.handle(&cache, Request::Ping);
        assert_eq!(reply, CacheReply::Pong);
        let reply = conn.handle(
            &cache,
            Request::InsertBatch {
                table: "Missing".into(),
                rows: vec![vec![Scalar::Int(1)]],
                upsert: false,
            },
        );
        assert!(matches!(reply, CacheReply::Error { .. }));
    }

    #[test]
    fn batched_inserts_execute_against_the_cache() {
        let cache = CacheBuilder::new().build();
        cache.execute("create table T (v integer)").unwrap();
        let mut conn = test_conn();
        let reply = conn.handle(
            &cache,
            Request::InsertBatch {
                table: "T".into(),
                rows: (0..10).map(|i| vec![Scalar::Int(i)]).collect(),
                upsert: false,
            },
        );
        match reply {
            CacheReply::InsertedBatch { tstamps } => assert_eq!(tstamps.len(), 10),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.table_len("T").unwrap(), 10);
    }

    #[test]
    fn stats_requests_surface_dispatch_counters() {
        let cache = CacheBuilder::new().build();
        cache
            .execute("create table Ticks (sym varchar(8), price integer)")
            .unwrap();
        let (_id, _rx) = cache
            .register_automaton(
                "subscribe t to Ticks; behavior { if (t.sym == 'IBM') send(t.price); }",
            )
            .unwrap();
        for sym in ["IBM", "A", "B", "C"] {
            cache
                .insert("Ticks", vec![Scalar::Str(sym.into()), Scalar::Int(1)])
                .unwrap();
        }
        assert!(cache.quiesce(std::time::Duration::from_secs(5)));
        let mut conn = test_conn();
        match conn.handle(&cache, Request::Metrics) {
            CacheReply::Metrics { snapshot } => {
                let stats = crate::message::ServerStats::from_snapshot(&snapshot);
                assert_eq!(stats.automata_active, 1);
                assert_eq!(stats.events_delivered, 1);
                assert_eq!(stats.events_processed, 1);
                assert_eq!(stats.events_skipped_by_prefilter, 3);
                assert_eq!(stats.automaton_queue_depth, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
