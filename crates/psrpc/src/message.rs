//! RPC message types and their wire encoding.
//!
//! Marshalling is zero-copy up to the final byte buffer: a
//! [`CacheReply::Rows`] is built by *moving* each result row's scalars
//! out of the cache's `ResultSet` — and since string scalars are
//! `Arc<str>`, those moves shuffle pointers that still share storage
//! with the table itself. String bytes are copied exactly once, from
//! the shared row into the outgoing frame. Decoding is symmetric: string
//! payloads are UTF-8-validated in place on the receive buffer and
//! materialised with a single allocation each.

use gapl::event::Scalar;

use crate::error::{Error, Result};
use crate::wire::{WireReader, WireWriter};

/// The most rows a single [`Request::InsertBatch`] may carry — the same
/// bound the decoder enforces, so a well-behaved client can check before
/// encoding instead of having the server drop the connection on an
/// oversized (or length-truncated) batch.
pub const MAX_BATCH_ROWS: usize = 1_000_000;

/// A request sent from an application to the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a SQL-ish command (`create table`, `insert`, `select`).
    Execute {
        /// The command text.
        command: String,
    },
    /// Insert a pre-parsed tuple — the fast path used by event sources that
    /// insert at high rate (the stress tests of §6.3).
    Insert {
        /// Target table.
        table: String,
        /// Values in schema order.
        values: Vec<Scalar>,
        /// Whether to apply `on duplicate key update` semantics.
        upsert: bool,
    },
    /// Insert many pre-parsed tuples into one table in a single round
    /// trip; the cache applies the whole batch under one table-lock
    /// acquisition, preserving row order.
    InsertBatch {
        /// Target table.
        table: String,
        /// Rows, each with values in schema order.
        rows: Vec<Vec<Scalar>>,
        /// Whether to apply `on duplicate key update` semantics to every
        /// row.
        upsert: bool,
    },
    /// Register an automaton from GAPL source.
    RegisterAutomaton {
        /// The automaton source code.
        source: String,
    },
    /// Unregister a previously registered automaton.
    UnregisterAutomaton {
        /// The id returned at registration time.
        id: u64,
    },
    /// Liveness check.
    Ping,
    /// Ask for the server's counters (connections, requests, and the
    /// cache's automaton-dispatch statistics).
    ServerStats,
    /// Ask for the cheap health/readiness snapshot. Unlike
    /// [`Request::ServerStats`] this is answered from atomic counters
    /// only — the reactor answers it inline on the event thread, so a
    /// load-balancer probe gets a reply even when every worker is busy.
    Health,
    /// Ask for the observability snapshot (latency histograms, counters
    /// — see `pscache::obs`). Answered like [`Request::Health`]: inline
    /// on the reactor's event thread, never queued behind workers, so a
    /// scraper still gets its numbers from a node whose worker pool is
    /// the very thing that is saturated.
    Metrics,
}

/// The health/readiness snapshot returned by [`Request::Health`]:
/// everything a load balancer needs to keep or drop a backend, cheap
/// enough to be answered without touching a lock or a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// 1 when the served cache is a read-only follower replica, else 0.
    pub role_follower: u64,
    /// Durable commit watermark (`pscache::Cache::commit_lsn`).
    pub commit_lsn: u64,
    /// Applied/visible watermark (`pscache::Cache::replica_lsn`).
    pub replica_lsn: u64,
    /// `commit_lsn - min(follower acked)` on a primary with followers —
    /// the end-to-end replication lag in records. `None` when no
    /// follower is attached: "nobody is replicating" must not be
    /// conflated with "fully caught up", or a `--max-lag` probe passes
    /// vacuously on an unreplicated primary. On the wire `None` is
    /// `u64::MAX` (an impossible lag: it exceeds every reachable LSN).
    pub repl_lag: Option<u64>,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Requests decoded but not yet answered (queue depth).
    pub rpc_in_flight: u64,
    /// Read-interest parkings due to the pipeline cap.
    pub rpc_queue_stalls: u64,
    /// Workers currently occupied by a request or a run's commit wait.
    pub rpc_worker_busy: u64,
    /// Size of the request-execution worker pool.
    pub rpc_workers: u64,
    /// Requests rejected by admission control since the server started.
    pub rpc_requests_throttled: u64,
    /// Slow consumers torn down because their outbox exceeded the
    /// configured limit. A stalled subscriber used to disappear
    /// silently; now the teardown is countable.
    pub slow_consumer_evictions: u64,
    /// Automata unregistered — explicitly or by connection teardown.
    pub automaton_unregistrations: u64,
}

impl HealthReport {
    /// Worker-pool saturation: `rpc_worker_busy / rpc_workers`, in
    /// `[0.0, 1.0]`. `0.0` when the report carries no pool size (a
    /// blocking-transport server, whose per-connection threads cannot
    /// saturate a shared pool).
    ///
    /// A reactor worker counts as busy for as long as it holds a
    /// connection — executing, and also blocked in the durability wait
    /// that commits a run of pipelined inserts: it is off-CPU then, but
    /// it can serve nobody else. The number to alert and size on:
    /// sustained values near `1.0` mean every worker is occupied and
    /// newly decoded requests are queueing (`rpc_in_flight` grows) —
    /// add workers
    /// (`CacheBuilder::rpc_workers`) or partitions. Sustained values
    /// near `0.0` with high throughput mean the pool is oversized for
    /// the load. See `docs/architecture.md` ("Sizing the worker pool")
    /// for guidance.
    #[must_use]
    pub fn worker_saturation(&self) -> f64 {
        if self.rpc_workers == 0 {
            0.0
        } else {
            self.rpc_worker_busy as f64 / self.rpc_workers as f64
        }
    }
}

/// Counters describing a running server; a snapshot is returned by
/// [`crate::server::RpcServer::stats`] and over the wire by
/// [`Request::ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Requests decoded and executed, across all connections.
    pub requests_served: u64,
    /// Automaton notifications accepted into the outbound queue of the
    /// connection that registered the automaton.
    pub notifications_routed: u64,
    /// Automata currently registered in the cache.
    pub automata_active: u64,
    /// Events enqueued to automaton mailboxes, across all automata.
    pub events_delivered: u64,
    /// Events fully processed by automaton behavior clauses.
    pub events_processed: u64,
    /// Events the predicate index proved irrelevant and never delivered.
    pub events_skipped_by_prefilter: u64,
    /// Events currently waiting in automaton mailboxes.
    pub automaton_queue_depth: u64,
    /// Largest per-automaton mailbox backlog ever observed.
    pub automaton_max_queue_depth: u64,
    /// Write-ahead-log records appended since the cache opened (0 when
    /// durability is off).
    pub wal_records: u64,
    /// Disk flushes issued by the commit path; `wal_records / wal_syncs`
    /// is the achieved group-commit size.
    pub wal_syncs: u64,
    /// Checkpoints completed (snapshot written, logs truncated).
    pub wal_checkpoints: u64,
    /// Records replayed from the log when the cache opened.
    pub wal_replayed: u64,
    /// 1 when the served cache is a read-only follower replica, else 0.
    pub repl_is_follower: u64,
    /// The cache's durable commit watermark (see
    /// `pscache::Cache::commit_lsn`).
    pub repl_commit_lsn: u64,
    /// The cache's applied/visible watermark (see
    /// `pscache::Cache::replica_lsn`).
    pub repl_replica_lsn: u64,
    /// Follower replicas currently subscribed to this cache's stream.
    pub repl_followers: u64,
    /// Lowest LSN acknowledged across subscribed followers;
    /// `repl_commit_lsn - repl_min_follower_acked_lsn` is the
    /// end-to-end replication lag in records.
    pub repl_min_follower_acked_lsn: u64,
    /// Requests decoded but not yet answered across all connections
    /// (reactor transport only; always 0 on the blocking transport,
    /// whose workers execute synchronously).
    pub rpc_in_flight: u64,
    /// Times the reactor parked a connection's read interest because
    /// its decoded-request queue hit the pipeline cap — persistent
    /// growth means clients pipeline deeper than the server's
    /// configured window.
    pub rpc_queue_stalls: u64,
    /// Workers currently occupied by a request or a run's commit wait
    /// (see [`HealthReport::worker_saturation`]). Pinned at the pool size
    /// while every worker is busy — the observable signature of the
    /// fixed-size `rpc_workers` pool saturating.
    pub rpc_worker_busy: u64,
    /// Requests rejected by per-client admission control (rate, byte or
    /// in-flight quota) since the server started.
    pub rpc_requests_throttled: u64,
}

/// A row of a result set on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// Projected values.
    pub values: Vec<Scalar>,
    /// Insertion timestamp of the underlying tuple.
    pub tstamp: u64,
}

/// The cache's reply to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheReply {
    /// A table was created.
    Created,
    /// A tuple was inserted.
    Inserted {
        /// Whether an existing keyed row was replaced.
        replaced: bool,
        /// The insertion timestamp assigned by the cache.
        tstamp: u64,
    },
    /// A batch of tuples was inserted.
    InsertedBatch {
        /// One insertion timestamp per row, in row order.
        tstamps: Vec<u64>,
    },
    /// Rows returned by a `select`.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<WireRow>,
    },
    /// An automaton was registered.
    Registered {
        /// Its id, used for later management.
        id: u64,
    },
    /// An automaton was unregistered.
    Unregistered,
    /// Reply to [`Request::Ping`].
    Pong,
    /// The request failed; the cache's error text.
    Error {
        /// Error message.
        message: String,
    },
    /// Reply to [`Request::ServerStats`].
    Stats {
        /// The server's counters at the time of the request.
        stats: ServerStats,
    },
    /// Reply to [`Request::Health`].
    Health {
        /// The health snapshot at the time of the request.
        report: HealthReport,
    },
    /// The request was rejected by per-client admission control before
    /// it reached a worker. The request was **not** applied; retrying
    /// after `retry_after_ms` is always safe.
    Throttled {
        /// Suggested client-side delay before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A cluster redirect: this server does not own the written key's
    /// partition. Nothing was applied; re-sending the identical request
    /// to the named partition's primary is always safe (and is what
    /// the cluster client does automatically).
    NotMine {
        /// The partition that owns the rejected key.
        partition: u64,
    },
    /// Reply to [`Request::Metrics`].
    Metrics {
        /// The observability snapshot at the time of the request.
        snapshot: pscache::MetricsSnapshot,
    },
}

/// A message sent from the client to the server: a sequenced request,
/// optionally stamped with an idempotency token.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientMessage {
    /// Client-assigned sequence number echoed in the reply.
    pub seq: u64,
    /// Idempotency token `(client id, token seq)` on mutating requests:
    /// the server remembers the outcome keyed by this pair (durably, on
    /// a durable cache), so re-sending the same token after a lost reply
    /// returns the original outcome instead of applying the mutation
    /// twice. `None` on reads and on clients that opted out.
    pub token: Option<(u64, u64)>,
    /// Client-stamped 8-byte trace id, propagated with the request
    /// through the server's queue → worker → outbox stages; operations
    /// that cross the slow-op threshold surface it in the slow-op log,
    /// tying a server-side stall back to the client call that suffered
    /// it. `None` on clients that do not trace (the default).
    pub trace: Option<u64>,
    /// The request.
    pub request: Request,
}

/// A message sent from the server to the client: either the reply to a
/// sequenced request, or an asynchronous automaton notification (the result
/// of `send()` in a behavior clause).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// The reply to the request with the same `seq`.
    Reply {
        /// Sequence number of the request being answered.
        seq: u64,
        /// The reply payload.
        reply: CacheReply,
    },
    /// An asynchronous complex-event notification.
    Notification {
        /// The automaton that produced it.
        automaton: u64,
        /// The values passed to `send()`.
        values: Vec<Scalar>,
        /// Cache time of the notification.
        at: u64,
    },
}

impl ClientMessage {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.seq);
        match self.token {
            None => w.put_u8(0),
            Some((client_id, token_seq)) => {
                w.put_u8(1);
                w.put_u64(client_id);
                w.put_u64(token_seq);
            }
        }
        // The trace id mirrors the token flag: one presence byte, then
        // the 8-byte id — absent costs one byte on every request.
        match self.trace {
            None => w.put_u8(0),
            Some(id) => {
                w.put_u8(1);
                w.put_u64(id);
            }
        }
        match &self.request {
            Request::Execute { command } => {
                w.put_u8(0);
                w.put_str(command);
            }
            Request::Insert {
                table,
                values,
                upsert,
            } => {
                w.put_u8(1);
                w.put_str(table);
                w.put_scalars(values);
                w.put_bool(*upsert);
            }
            Request::RegisterAutomaton { source } => {
                w.put_u8(2);
                w.put_str(source);
            }
            Request::UnregisterAutomaton { id } => {
                w.put_u8(3);
                w.put_u64(*id);
            }
            Request::Ping => {
                w.put_u8(4);
            }
            Request::InsertBatch {
                table,
                rows,
                upsert,
            } => {
                w.put_u8(5);
                w.put_str(table);
                w.put_rows(rows);
                w.put_bool(*upsert);
            }
            Request::ServerStats => {
                w.put_u8(6);
            }
            Request::Health => {
                w.put_u8(7);
            }
            Request::Metrics => {
                w.put_u8(8);
            }
        }
        w.finish().to_vec()
    }

    /// Decode from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let seq = r.get_u64()?;
        let token = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_u64()?, r.get_u64()?)),
            other => {
                return Err(Error::protocol(format!(
                    "unknown idempotency-token flag {other}"
                )))
            }
        };
        let trace = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            other => return Err(Error::protocol(format!("unknown trace-id flag {other}"))),
        };
        let request = match r.get_u8()? {
            0 => Request::Execute {
                command: r.get_str()?,
            },
            1 => Request::Insert {
                table: r.get_str()?,
                values: r.get_scalars()?,
                upsert: r.get_bool()?,
            },
            2 => Request::RegisterAutomaton {
                source: r.get_str()?,
            },
            3 => Request::UnregisterAutomaton { id: r.get_u64()? },
            4 => Request::Ping,
            5 => Request::InsertBatch {
                table: r.get_str()?,
                rows: r.get_rows()?,
                upsert: r.get_bool()?,
            },
            6 => Request::ServerStats,
            7 => Request::Health,
            8 => Request::Metrics,
            other => return Err(Error::protocol(format!("unknown request tag {other}"))),
        };
        Ok(ClientMessage {
            seq,
            token,
            trace,
            request,
        })
    }
}

impl ServerMessage {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            ServerMessage::Reply { seq, reply } => {
                w.put_u8(0);
                w.put_u64(*seq);
                encode_reply(&mut w, reply);
            }
            ServerMessage::Notification {
                automaton,
                values,
                at,
            } => {
                w.put_u8(1);
                w.put_u64(*automaton);
                w.put_scalars(values);
                w.put_u64(*at);
            }
        }
        w.finish().to_vec()
    }

    /// Decode from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        match r.get_u8()? {
            0 => {
                let seq = r.get_u64()?;
                let reply = decode_reply(&mut r)?;
                Ok(ServerMessage::Reply { seq, reply })
            }
            1 => Ok(ServerMessage::Notification {
                automaton: r.get_u64()?,
                values: r.get_scalars()?,
                at: r.get_u64()?,
            }),
            other => Err(Error::protocol(format!(
                "unknown server message tag {other}"
            ))),
        }
    }
}

fn encode_reply(w: &mut WireWriter, reply: &CacheReply) {
    match reply {
        CacheReply::Created => w.put_u8(0),
        CacheReply::Inserted { replaced, tstamp } => {
            w.put_u8(1);
            w.put_bool(*replaced);
            w.put_u64(*tstamp);
        }
        CacheReply::Rows { columns, rows } => {
            w.put_u8(2);
            w.put_strs(columns);
            w.put_u32(rows.len() as u32);
            for row in rows {
                w.put_scalars(&row.values);
                w.put_u64(row.tstamp);
            }
        }
        CacheReply::Registered { id } => {
            w.put_u8(3);
            w.put_u64(*id);
        }
        CacheReply::Unregistered => w.put_u8(4),
        CacheReply::Pong => w.put_u8(5),
        CacheReply::Error { message } => {
            w.put_u8(6);
            w.put_str(message);
        }
        CacheReply::InsertedBatch { tstamps } => {
            w.put_u8(7);
            w.put_u64s(tstamps);
        }
        CacheReply::Stats { stats } => {
            w.put_u8(8);
            for field in stats_fields(stats) {
                w.put_u64(field);
            }
        }
        CacheReply::Health { report } => {
            w.put_u8(9);
            for field in health_fields(report) {
                w.put_u64(field);
            }
        }
        CacheReply::Throttled { retry_after_ms } => {
            w.put_u8(10);
            w.put_u64(*retry_after_ms);
        }
        CacheReply::NotMine { partition } => {
            w.put_u8(11);
            w.put_u64(*partition);
        }
        CacheReply::Metrics { snapshot } => {
            w.put_u8(12);
            let mut blob = Vec::new();
            snapshot.encode_into(&mut blob);
            w.put_blob(&blob);
        }
    }
}

/// The wire order of [`HealthReport`] fields (shared by encode/decode).
fn health_fields(h: &HealthReport) -> [u64; 12] {
    [
        h.role_follower,
        h.commit_lsn,
        h.replica_lsn,
        h.repl_lag.unwrap_or(u64::MAX),
        h.connections_active,
        h.rpc_in_flight,
        h.rpc_queue_stalls,
        h.rpc_worker_busy,
        h.rpc_workers,
        h.rpc_requests_throttled,
        h.slow_consumer_evictions,
        h.automaton_unregistrations,
    ]
}

/// The wire order of [`ServerStats`] fields (shared by encode/decode).
fn stats_fields(s: &ServerStats) -> [u64; 23] {
    [
        s.connections_accepted,
        s.connections_active,
        s.requests_served,
        s.notifications_routed,
        s.automata_active,
        s.events_delivered,
        s.events_processed,
        s.events_skipped_by_prefilter,
        s.automaton_queue_depth,
        s.automaton_max_queue_depth,
        s.wal_records,
        s.wal_syncs,
        s.wal_checkpoints,
        s.wal_replayed,
        s.repl_is_follower,
        s.repl_commit_lsn,
        s.repl_replica_lsn,
        s.repl_followers,
        s.repl_min_follower_acked_lsn,
        s.rpc_in_flight,
        s.rpc_queue_stalls,
        s.rpc_worker_busy,
        s.rpc_requests_throttled,
    ]
}

fn decode_reply(r: &mut WireReader<'_>) -> Result<CacheReply> {
    Ok(match r.get_u8()? {
        0 => CacheReply::Created,
        1 => CacheReply::Inserted {
            replaced: r.get_bool()?,
            tstamp: r.get_u64()?,
        },
        2 => {
            let columns = r.get_strs()?;
            let n = r.get_u32()? as usize;
            if n > 10_000_000 {
                return Err(Error::protocol("unreasonably large result set"));
            }
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                rows.push(WireRow {
                    values: r.get_scalars()?,
                    tstamp: r.get_u64()?,
                });
            }
            CacheReply::Rows { columns, rows }
        }
        3 => CacheReply::Registered { id: r.get_u64()? },
        4 => CacheReply::Unregistered,
        5 => CacheReply::Pong,
        6 => CacheReply::Error {
            message: r.get_str()?,
        },
        7 => CacheReply::InsertedBatch {
            tstamps: r.get_u64s()?,
        },
        8 => CacheReply::Stats {
            stats: ServerStats {
                connections_accepted: r.get_u64()?,
                connections_active: r.get_u64()?,
                requests_served: r.get_u64()?,
                notifications_routed: r.get_u64()?,
                automata_active: r.get_u64()?,
                events_delivered: r.get_u64()?,
                events_processed: r.get_u64()?,
                events_skipped_by_prefilter: r.get_u64()?,
                automaton_queue_depth: r.get_u64()?,
                automaton_max_queue_depth: r.get_u64()?,
                wal_records: r.get_u64()?,
                wal_syncs: r.get_u64()?,
                wal_checkpoints: r.get_u64()?,
                wal_replayed: r.get_u64()?,
                repl_is_follower: r.get_u64()?,
                repl_commit_lsn: r.get_u64()?,
                repl_replica_lsn: r.get_u64()?,
                repl_followers: r.get_u64()?,
                repl_min_follower_acked_lsn: r.get_u64()?,
                rpc_in_flight: r.get_u64()?,
                rpc_queue_stalls: r.get_u64()?,
                rpc_worker_busy: r.get_u64()?,
                rpc_requests_throttled: r.get_u64()?,
            },
        },
        9 => CacheReply::Health {
            report: HealthReport {
                role_follower: r.get_u64()?,
                commit_lsn: r.get_u64()?,
                replica_lsn: r.get_u64()?,
                repl_lag: match r.get_u64()? {
                    u64::MAX => None,
                    lag => Some(lag),
                },
                connections_active: r.get_u64()?,
                rpc_in_flight: r.get_u64()?,
                rpc_queue_stalls: r.get_u64()?,
                rpc_worker_busy: r.get_u64()?,
                rpc_workers: r.get_u64()?,
                rpc_requests_throttled: r.get_u64()?,
                slow_consumer_evictions: r.get_u64()?,
                automaton_unregistrations: r.get_u64()?,
            },
        },
        10 => CacheReply::Throttled {
            retry_after_ms: r.get_u64()?,
        },
        11 => CacheReply::NotMine {
            partition: r.get_u64()?,
        },
        12 => {
            let blob = r.get_blob()?;
            let mut pos = 0;
            let snapshot = pscache::MetricsSnapshot::decode_from(blob, &mut pos)
                .filter(|_| pos == blob.len())
                .ok_or_else(|| Error::protocol("malformed metrics snapshot"))?;
            CacheReply::Metrics { snapshot }
        }
        other => return Err(Error::protocol(format!("unknown reply tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_client(msg: ClientMessage) {
        let bytes = msg.encode();
        assert_eq!(ClientMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn worker_saturation_is_busy_over_pool() {
        let report = HealthReport {
            rpc_worker_busy: 3,
            rpc_workers: 4,
            ..HealthReport::default()
        };
        assert!((report.worker_saturation() - 0.75).abs() < f64::EPSILON);
        // A blocking-transport server reports no pool; that is "not
        // saturated", not a division by zero.
        assert_eq!(HealthReport::default().worker_saturation(), 0.0);
    }

    fn round_trip_server(msg: ServerMessage) {
        let bytes = msg.encode();
        assert_eq!(ServerMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip_client(ClientMessage {
            seq: 1,
            token: None,
            trace: None,
            request: Request::Execute {
                command: "select * from Flows".into(),
            },
        });
        round_trip_client(ClientMessage {
            seq: 2,
            token: None,
            trace: None,
            request: Request::Insert {
                table: "Flows".into(),
                values: vec![Scalar::Str("a".into()), Scalar::Int(5)],
                upsert: true,
            },
        });
        round_trip_client(ClientMessage {
            seq: 3,
            token: None,
            trace: None,
            request: Request::RegisterAutomaton {
                source: "subscribe t to Timer; behavior { }".into(),
            },
        });
        round_trip_client(ClientMessage {
            seq: 4,
            token: None,
            trace: None,
            request: Request::UnregisterAutomaton { id: 9 },
        });
        round_trip_client(ClientMessage {
            seq: 5,
            token: None,
            trace: None,
            request: Request::Ping,
        });
        round_trip_client(ClientMessage {
            seq: 7,
            token: None,
            trace: None,
            request: Request::ServerStats,
        });
        round_trip_client(ClientMessage {
            seq: 6,
            token: None,
            trace: None,
            request: Request::InsertBatch {
                table: "Flows".into(),
                rows: vec![
                    vec![Scalar::Str("a".into()), Scalar::Int(1)],
                    vec![Scalar::Str("b".into()), Scalar::Int(2)],
                    vec![],
                ],
                upsert: false,
            },
        });
    }

    #[test]
    fn server_messages_round_trip() {
        round_trip_server(ServerMessage::Reply {
            seq: 1,
            reply: CacheReply::Created,
        });
        round_trip_server(ServerMessage::Reply {
            seq: 2,
            reply: CacheReply::Inserted {
                replaced: true,
                tstamp: 77,
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 3,
            reply: CacheReply::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    WireRow {
                        values: vec![Scalar::Int(1), Scalar::Real(2.0)],
                        tstamp: 10,
                    },
                    WireRow {
                        values: vec![Scalar::Int(3), Scalar::Real(4.0)],
                        tstamp: 11,
                    },
                ],
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 4,
            reply: CacheReply::Registered { id: 12 },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 5,
            reply: CacheReply::Error {
                message: "no such table `X`".into(),
            },
        });
        round_trip_server(ServerMessage::Notification {
            automaton: 3,
            values: vec![Scalar::Str("limit exceeded".into())],
            at: 123,
        });
        round_trip_server(ServerMessage::Reply {
            seq: 6,
            reply: CacheReply::Unregistered,
        });
        round_trip_server(ServerMessage::Reply {
            seq: 7,
            reply: CacheReply::Pong,
        });
        round_trip_server(ServerMessage::Reply {
            seq: 8,
            reply: CacheReply::InsertedBatch {
                tstamps: vec![3, 4, 5],
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 9,
            reply: CacheReply::Stats {
                stats: ServerStats {
                    connections_accepted: 1,
                    connections_active: 2,
                    requests_served: 3,
                    notifications_routed: 4,
                    automata_active: 5,
                    events_delivered: 6,
                    events_processed: 7,
                    events_skipped_by_prefilter: 8,
                    automaton_queue_depth: 9,
                    automaton_max_queue_depth: 10,
                    wal_records: 11,
                    wal_syncs: 12,
                    wal_checkpoints: 13,
                    wal_replayed: 14,
                    repl_is_follower: 1,
                    repl_commit_lsn: 15,
                    repl_replica_lsn: 16,
                    repl_followers: 17,
                    repl_min_follower_acked_lsn: 18,
                    rpc_in_flight: 19,
                    rpc_queue_stalls: 20,
                    rpc_worker_busy: 21,
                    rpc_requests_throttled: 22,
                },
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 10,
            reply: CacheReply::Health {
                report: HealthReport {
                    role_follower: 1,
                    commit_lsn: 2,
                    replica_lsn: 3,
                    repl_lag: Some(4),
                    connections_active: 5,
                    rpc_in_flight: 6,
                    rpc_queue_stalls: 7,
                    rpc_worker_busy: 8,
                    rpc_workers: 9,
                    rpc_requests_throttled: 10,
                    slow_consumer_evictions: 11,
                    automaton_unregistrations: 12,
                },
            },
        });
        // No follower attached: the lag is absent, not zero, and must
        // survive the wire as such.
        round_trip_server(ServerMessage::Reply {
            seq: 12,
            reply: CacheReply::Health {
                report: HealthReport {
                    repl_lag: None,
                    ..HealthReport::default()
                },
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 11,
            reply: CacheReply::Throttled {
                retry_after_ms: 250,
            },
        });
        round_trip_server(ServerMessage::Reply {
            seq: 13,
            reply: CacheReply::NotMine { partition: 3 },
        });
    }

    #[test]
    fn tokened_and_health_client_messages_round_trip() {
        round_trip_client(ClientMessage {
            seq: 8,
            token: Some((0xDEAD_BEEF, 42)),
            trace: None,
            request: Request::Insert {
                table: "Flows".into(),
                values: vec![Scalar::Int(1)],
                upsert: false,
            },
        });
        round_trip_client(ClientMessage {
            seq: 9,
            token: None,
            trace: None,
            request: Request::Health,
        });
        // The token flag byte only admits 0 and 1.
        let mut bytes = ClientMessage {
            seq: 1,
            token: None,
            trace: None,
            request: Request::Ping,
        }
        .encode();
        bytes[8] = 2;
        assert!(ClientMessage::decode(&bytes).is_err());
    }

    #[test]
    fn traced_and_metrics_messages_round_trip() {
        round_trip_client(ClientMessage {
            seq: 14,
            token: None,
            trace: Some(0xFEED_F00D),
            request: Request::Ping,
        });
        // Trace ids compose with idempotency tokens: both flags on the
        // same message.
        round_trip_client(ClientMessage {
            seq: 15,
            token: Some((7, 8)),
            trace: Some(u64::MAX),
            request: Request::Insert {
                table: "Flows".into(),
                values: vec![Scalar::Int(1)],
                upsert: true,
            },
        });
        round_trip_client(ClientMessage {
            seq: 16,
            token: None,
            trace: None,
            request: Request::Metrics,
        });
        // The trace flag byte (after seq and an absent token flag) only
        // admits 0 and 1.
        let mut bytes = ClientMessage {
            seq: 1,
            token: None,
            trace: None,
            request: Request::Ping,
        }
        .encode();
        bytes[9] = 2;
        assert!(ClientMessage::decode(&bytes).is_err());

        // A metrics reply carries a busy snapshot losslessly.
        let obs = pscache::Obs::new(true, std::time::Duration::from_secs(1));
        obs.count_request(pscache::ReqKind::Insert);
        obs.count_request(pscache::ReqKind::Control);
        for i in 0..100 {
            obs.record_rpc(pscache::OpTrace {
                trace_id: i,
                kind: pscache::ReqKind::Insert,
                table: Some("Flows".into()),
                queue_ns: 50 * i,
                exec_ns: 1000 + i,
                flush_ns: 10,
            });
        }
        obs.wal_fsync_ns.record(123_456);
        round_trip_server(ServerMessage::Reply {
            seq: 17,
            reply: CacheReply::Metrics {
                snapshot: obs.snapshot(),
            },
        });
        // An empty snapshot (idle node) round-trips too.
        let idle = pscache::Obs::new(true, std::time::Duration::from_secs(1));
        round_trip_server(ServerMessage::Reply {
            seq: 18,
            reply: CacheReply::Metrics {
                snapshot: idle.snapshot(),
            },
        });
    }

    #[test]
    fn malformed_bytes_are_protocol_errors() {
        assert!(ClientMessage::decode(&[]).is_err());
        assert!(ClientMessage::decode(&[0, 0, 0, 0, 0, 0, 0, 0, 99]).is_err());
        assert!(ServerMessage::decode(&[42]).is_err());
        assert!(ServerMessage::decode(&[]).is_err());
    }
}
