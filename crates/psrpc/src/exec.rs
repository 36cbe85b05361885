//! Request execution shared by both transports: the blocking
//! [`crate::server::RpcServer`] and the event-driven
//! [`crate::reactor::ReactorServer`] decode a request their own way and
//! then run it here, so the two serve one set of request semantics
//! (flush-before-ack durability, idempotency-token dedup, typed
//! redirects) and report into one set of counters.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use pscache::{AutomatonId, Cache, IdemToken, NotificationSink, Response, TokenOutcome, WriteRun};

use crate::message::{CacheReply, HealthReport, Request, ServerMessage, ServerStats, WireRow};

#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) accepted: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) notifications: AtomicU64,
    /// Requests decoded but not yet answered (reactor transport only;
    /// the blocking transport executes synchronously so its depth is
    /// bounded by its thread count).
    pub(crate) in_flight: AtomicU64,
    /// Times a connection's read interest was parked because its
    /// decoded-request queue hit the pipeline cap.
    pub(crate) queue_stalls: AtomicU64,
    /// Workers currently occupied by a connection: the blocking server
    /// counts around [`handle_request`], the reactor around a worker's
    /// whole claim on a connection — commit wait included.
    pub(crate) worker_busy: AtomicU64,
    /// Requests rejected by admission control (reactor transport only;
    /// the blocking transport enforces no client policy and serves as
    /// the differential oracle).
    pub(crate) requests_throttled: AtomicU64,
}

impl StatsInner {
    /// The server-side counters plus the cache's automaton-dispatch,
    /// durability and replication statistics, as one snapshot — the
    /// end-to-end observability surface: a remote client can read
    /// group-commit behaviour and replication lag without shell access
    /// to the cache host.
    pub(crate) fn snapshot(&self, cache: &Cache) -> ServerStats {
        let dispatch = cache.dispatch_stats();
        let wal = cache.wal_stats().unwrap_or_default();
        let repl = cache.repl_stats();
        ServerStats {
            connections_accepted: self.accepted.load(Ordering::Acquire),
            connections_active: self.active.load(Ordering::Acquire),
            rpc_in_flight: self.in_flight.load(Ordering::Acquire),
            rpc_queue_stalls: self.queue_stalls.load(Ordering::Acquire),
            requests_served: self.requests.load(Ordering::Acquire),
            notifications_routed: self.notifications.load(Ordering::Acquire),
            automata_active: dispatch.automata as u64,
            events_delivered: dispatch.delivered,
            events_processed: dispatch.processed,
            events_skipped_by_prefilter: dispatch.skipped_by_prefilter,
            automaton_queue_depth: dispatch.queue_depth,
            automaton_max_queue_depth: dispatch.max_queue_depth,
            wal_records: wal.records,
            wal_syncs: wal.syncs,
            wal_checkpoints: wal.checkpoints,
            wal_replayed: wal.replayed,
            repl_is_follower: u64::from(repl.role == pscache::ReplRole::Follower),
            repl_commit_lsn: repl.commit_lsn,
            repl_replica_lsn: repl.replica_lsn,
            repl_followers: repl.followers as u64,
            repl_min_follower_acked_lsn: repl.min_follower_acked_lsn,
            rpc_worker_busy: self.worker_busy.load(Ordering::Acquire),
            rpc_requests_throttled: self.requests_throttled.load(Ordering::Acquire),
        }
    }
}

/// Build the health/readiness snapshot for [`Request::Health`] from
/// nothing but atomics and lock-free cache accessors — both transports
/// share it, and the reactor answers it inline on the poll thread so a
/// probe gets a reply even when every worker is wedged on a slow
/// request.
pub(crate) fn health_report(cache: &Cache, stats: &StatsInner) -> HealthReport {
    let repl = cache.repl_stats();
    // Lag is only meaningful with a follower attached: None (not 0)
    // otherwise, so probes can tell "caught up" from "unreplicated".
    let lag = if repl.followers > 0 {
        Some(repl.commit_lsn.saturating_sub(repl.min_follower_acked_lsn))
    } else {
        None
    };
    HealthReport {
        role_follower: u64::from(repl.role == pscache::ReplRole::Follower),
        commit_lsn: repl.commit_lsn,
        replica_lsn: repl.replica_lsn,
        repl_lag: lag,
        connections_active: stats.active.load(Ordering::Acquire),
        rpc_in_flight: stats.in_flight.load(Ordering::Acquire),
        rpc_queue_stalls: stats.queue_stalls.load(Ordering::Acquire),
        rpc_worker_busy: stats.worker_busy.load(Ordering::Acquire),
        rpc_workers: cache.rpc_workers() as u64,
        rpc_requests_throttled: stats.requests_throttled.load(Ordering::Acquire),
        slow_consumer_evictions: cache.obs().slow_consumer_evictions.load(Ordering::Relaxed),
        automaton_unregistrations: cache
            .obs()
            .automaton_unregistrations
            .load(Ordering::Relaxed),
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
/// server builds one per connection worker; the reactor builds one per
/// worker thread and shares it across the connections that worker drains.
pub(crate) struct RequestCtx<'a> {
    pub(crate) cache: &'a Cache,
    pub(crate) stats: &'a StatsInner,
}

/// Unregister everything a departed connection had registered (each
/// automaton's sink is dropped by the drain); shared by both transports'
/// teardown paths.
pub(crate) fn teardown_registered(ctx: &RequestCtx<'_>, registered: &mut HashSet<AutomatonId>) {
    for id in registered.drain() {
        let _ = ctx.cache.unregister_automaton(id);
    }
}

/// Convert a cache rejection into its wire reply. One error is typed
/// rather than textual: a cluster ownership miss becomes the
/// [`CacheReply::NotMine`] redirect (carrying the owning partition's
/// index), so a misrouted client can re-send instead of parsing error
/// prose. Everything else is the cache's error text.
fn error_to_reply(e: pscache::Error) -> CacheReply {
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
/// `pscache::obs::ReqKind`): one per mutation shape, with every cheap
/// control request (ping, stats, health, metrics) sharing a bucket.
pub(crate) fn req_kind(request: &Request) -> pscache::ReqKind {
    match request {
        Request::Execute { .. } => pscache::ReqKind::Execute,
        Request::Insert { .. } => pscache::ReqKind::Insert,
        Request::InsertBatch { .. } => pscache::ReqKind::InsertBatch,
        Request::RegisterAutomaton { .. } => pscache::ReqKind::Register,
        Request::UnregisterAutomaton { .. } => pscache::ReqKind::Unregister,
        Request::Ping | Request::ServerStats | Request::Health | Request::Metrics => {
            pscache::ReqKind::Control
        }
    }
}

/// Execute one decoded request against the cache on behalf of one
/// connection: [`stage_request`] then [`commit_run`], a write run of
/// one. The blocking server answers every request this way; the reactor
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
    commit_run(ctx.cache, &mut run).unwrap_or(reply)
}

/// Flush-before-ack, once per run: wait for everything `run` staged to
/// be durable (under `SyncPolicy::OsOnly` the explicit flush is what
/// upgrades the writes to durable) before any reply that moved its
/// `awaiting` count reaches the client. `None` when they may; on failure,
/// the reply that replaces each of them. A run that awaits nothing
/// costs nothing.
pub(crate) fn commit_run(cache: &Cache, run: &mut WriteRun<'_>) -> Option<CacheReply> {
    if run.awaiting() == 0 {
        return None;
    }
    run.commit()
        .and_then(|()| cache.flush_wal())
        .err()
        .map(error_to_reply)
}

/// Execute one decoded request up to, but not including, its durability
/// wait. `registered` is the connection's automaton ownership set and
/// `make_sink` builds the sink a newly registered automaton delivers
/// its notifications into — the only two transport-specific inputs,
/// which is what lets the blocking server and the reactor share every
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
        Request::ServerStats => CacheReply::Stats {
            stats: ctx.stats.snapshot(ctx.cache),
        },
        Request::Health => CacheReply::Health {
            report: health_report(ctx.cache, ctx.stats),
        },
        Request::Metrics => CacheReply::Metrics {
            snapshot: ctx.cache.obs().snapshot(),
        },
        Request::Execute { command } => match ctx
            .cache
            .execute_with_token(&command, token)
            .and_then(|response| {
                // Flush-before-ack for the SQL surface too: an insert or
                // create arriving as text (a write run of one inside the
                // cache) must be as durable at ack time as one arriving
                // through the typed fast path below. Selects skip the
                // flush — they wrote nothing.
                if !matches!(response, Response::Rows(_)) {
                    ctx.cache.flush_wal()?;
                }
                Ok(response)
            }) {
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
            match ctx.cache.unregister_automaton(id) {
                // The drain is acknowledged: every notification the
                // automaton produced is already in this connection's
                // outbound queue, ahead of the reply built here.
                Ok(()) => {
                    registered.remove(&id);
                    CacheReply::Unregistered
                }
                Err(e) => CacheReply::Error {
                    message: e.to_string(),
                },
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
        match conn.handle(&cache, Request::ServerStats) {
            CacheReply::Stats { stats } => {
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
