//! Differential protocol suite: the event-driven `ReactorServer` must be
//! observationally identical to the blocking request loop
//! (`psrpc::server::serve_connection`, behind `tests/support`'s accept
//! loop), which serves as its oracle.
//!
//! A property test drives both servers with the same randomly generated
//! script of interleaved, pipelined requests from two clients, then
//! compares (a) the **re-encoded reply bytes** of every request, in
//! issue order, and (b) the **notification streams** each client
//! received, grouped by automaton id. Any divergence — a different
//! error message, a reordered reply, a lost or duplicated notification
//! — fails the property.
//!
//! Both caches are durable (group commit), so `P` writes a log record
//! per insert and the reactor's commit runs — several pipelined inserts
//! staged, one durability wait, their replies released together — are
//! held to the oracle's one-request-at-a-time replies; `T` is an
//! in-memory stream whose replies never wait.
//!
//! Determinism notes: both caches run on a manual clock (identical
//! timestamps), pipelining is only allowed between consecutive requests
//! of the *same* client (per-connection ordering is guaranteed; cross-
//! connection ordering is not, so the driver barriers on client
//! switches). Unregistration does *not* quiesce first: it races whatever
//! events are still in the automaton's mailbox, and both servers must
//! still deliver every one of them — ahead of the `Unregistered` reply.

mod support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gapl::event::Scalar;
use psrpc::client::{CacheClient, PendingReply};
use psrpc::message::{CacheReply, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use support::OracleServer;
use unipubsub::prelude::*;

const CLIENTS: usize = 2;
/// Requests in one pipelined burst of (mostly) durable inserts.
const BURST: i64 = 10;
const AUTOMATON: &str = "subscribe t to T; behavior { send(t.v); }";

/// One server under test, behind a common interface.
enum Server {
    Blocking(OracleServer),
    Reactor(ReactorServer),
}

impl Server {
    fn start(kind: &str, cache: pscache::Cache) -> Server {
        match kind {
            "blocking" => Server::Blocking(OracleServer::bind(cache)),
            _ => Server::Reactor(ReactorServer::bind(cache, "127.0.0.1:0").unwrap()),
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Server::Blocking(s) => s.local_addr(),
            Server::Reactor(s) => s.local_addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Server::Blocking(s) => s.shutdown(),
            Server::Reactor(s) => s.shutdown(),
        }
    }
}

/// Reduce a resolved request to comparable bytes: the exact wire
/// encoding of the server's reply, with the correlation id normalised
/// to zero (ids are client-side counters, not semantics).
fn outcome_bytes(outcome: Result<CacheReply, psrpc::Error>) -> Vec<u8> {
    let reply = match outcome {
        Ok(reply) => reply,
        Err(psrpc::Error::Remote { message }) => CacheReply::Error { message },
        Err(other) => panic!("transport failure during a differential run: {other}"),
    };
    ServerMessage::Reply { seq: 0, reply }.encode()
}

/// Per-client notification history, grouped by automaton id. Within one
/// automaton the order is the insertion order (deterministic); across
/// automata the interleaving is executor scheduling, so it is not
/// compared.
type NoteMap = BTreeMap<u64, Vec<(Vec<Scalar>, u64)>>;

struct Driver {
    cache: pscache::Cache,
    clients: Vec<CacheClient>,
    pendings: Vec<PendingReply>,
    pending_client: Option<usize>,
    replies: Vec<Vec<u8>>,
    /// Automaton ids registered per client, oldest first.
    registered: Vec<Vec<u64>>,
    /// Notifications each client must eventually receive.
    expected_notes: Vec<usize>,
    /// Notifications drained so far, per client.
    drained: Vec<Vec<psrpc::client::ClientNotification>>,
}

impl Driver {
    fn new(cache: pscache::Cache, addr: std::net::SocketAddr) -> Driver {
        Driver {
            cache,
            clients: (0..CLIENTS)
                .map(|_| CacheClient::connect(addr).unwrap())
                .collect(),
            pendings: Vec::new(),
            pending_client: None,
            replies: Vec::new(),
            registered: vec![Vec::new(); CLIENTS],
            expected_notes: vec![0; CLIENTS],
            drained: vec![Vec::new(); CLIENTS],
        }
    }

    /// Resolve every outstanding pipelined request, recording replies in
    /// issue order.
    fn flush(&mut self) {
        for pending in self.pendings.drain(..) {
            self.replies.push(outcome_bytes(pending.wait()));
        }
        self.pending_client = None;
    }

    /// Issue a request pipelined; barrier when the issuing client changes.
    fn issue(&mut self, client: usize, request: Request) {
        if self.pending_client != Some(client) {
            self.flush();
        }
        self.pendings
            .push(self.clients[client].begin_request(request).unwrap());
        self.pending_client = Some(client);
    }

    /// Issue a request synchronously (flushes the pipeline first);
    /// returns the reply when the server accepted the request.
    fn sync(&mut self, client: usize, request: Request) -> Option<CacheReply> {
        self.flush();
        let outcome = self.clients[client].begin_request(request).unwrap().wait();
        let ok = outcome.as_ref().ok().cloned();
        self.replies.push(outcome_bytes(outcome));
        ok
    }

    /// Every client drains its notification backlog to the expected count.
    fn settle_notifications(&mut self) {
        self.flush();
        assert!(self.cache.quiesce(Duration::from_secs(10)));
        for c in 0..CLIENTS {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.drained[c].len() < self.expected_notes[c] && Instant::now() < deadline {
                if let Ok(note) = self.clients[c]
                    .notifications()
                    .recv_timeout(Duration::from_millis(20))
                {
                    self.drained[c].push(note);
                }
            }
            assert_eq!(
                self.drained[c].len(),
                self.expected_notes[c],
                "client {c} did not receive its expected notifications"
            );
        }
    }

    /// Account one inserted row: every automaton fires once, notifying
    /// the client that registered it.
    fn account_row(&mut self) {
        for c in 0..CLIENTS {
            self.expected_notes[c] += self.registered[c].len();
        }
    }

    fn apply(&mut self, op: &(usize, usize, i64)) {
        let (kind, client, v) = *op;
        match kind {
            0 => {
                self.issue(
                    client,
                    Request::Insert {
                        table: "T".into(),
                        values: vec![Scalar::Int(v)],
                        upsert: false,
                    },
                );
                self.account_row();
            }
            1 => self.issue(
                client,
                Request::Insert {
                    table: "P".into(),
                    values: vec![
                        Scalar::from(format!("k{}", v.rem_euclid(8))),
                        Scalar::Int(v),
                    ],
                    upsert: true,
                },
            ),
            2 => self.issue(
                client,
                Request::Execute {
                    command: "select * from T".into(),
                },
            ),
            3 => self.issue(
                client,
                Request::Execute {
                    command: format!("select * from T where v > {v}"),
                },
            ),
            4 => self.issue(client, Request::Ping),
            5 => self.issue(
                client,
                Request::Execute {
                    command: "select * from Missing".into(),
                },
            ),
            6 => {
                // Registration must be synchronous: later bookkeeping
                // needs the id, and the registration point relative to
                // pipelined inserts must be deterministic.
                if let Some(CacheReply::Registered { id }) = self.sync(
                    client,
                    Request::RegisterAutomaton {
                        source: AUTOMATON.into(),
                    },
                ) {
                    self.registered[client].push(id);
                }
            }
            7 => {
                // Unregister the client's oldest automaton, racing the
                // events of every insert acknowledged so far.
                if self.registered[client].is_empty() {
                    self.issue(client, Request::Ping);
                } else {
                    let id = self.registered[client].remove(0);
                    let _ = self.sync(client, Request::UnregisterAutomaton { id });
                }
            }
            8 => {
                self.issue(
                    client,
                    Request::InsertBatch {
                        table: "T".into(),
                        rows: (0..3).map(|i| vec![Scalar::Int(v + i)]).collect(),
                        upsert: false,
                    },
                );
                for _ in 0..3 {
                    self.account_row();
                }
            }
            _ => {
                // A pipelined burst of durable inserts, deep enough to
                // share commit runs on the reactor: plain inserts (a
                // repeated key is refused, within the burst or against
                // an earlier one), an upsert and a stream insert mixed
                // in, so held and immediate replies interleave.
                for i in 0..BURST {
                    let key = Scalar::from(format!("k{}", (v + i).rem_euclid(12)));
                    let request = match i % 5 {
                        3 => {
                            self.account_row();
                            Request::Insert {
                                table: "T".into(),
                                values: vec![Scalar::Int(v + i)],
                                upsert: false,
                            }
                        }
                        kind => Request::Insert {
                            table: "P".into(),
                            values: vec![key, Scalar::Int(v + i)],
                            upsert: kind == 4,
                        },
                    };
                    self.issue(client, request);
                }
            }
        }
    }

    fn finish(mut self) -> (Vec<Vec<u8>>, Vec<NoteMap>) {
        self.settle_notifications();
        let notes = self
            .drained
            .iter()
            .map(|stream| {
                let mut map = NoteMap::new();
                for n in stream {
                    map.entry(n.automaton)
                        .or_default()
                        .push((n.values.clone(), n.at));
                }
                map
            })
            .collect();
        (self.replies, notes)
    }
}

/// Run one script against one server flavour; returns the comparable
/// observation: replies in issue order + notification streams.
fn run_script(kind: &str, ops: &[(usize, usize, i64)]) -> (Vec<Vec<u8>>, Vec<NoteMap>) {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pscache-rpc-equivalence-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheBuilder::new()
        .manual_clock()
        .durability(&dir)
        .open()
        .unwrap();
    cache.execute("create table T (v integer)").unwrap();
    cache
        .execute("create persistenttable P (k varchar(8) primary key, v integer)")
        .unwrap();
    let server = Server::start(kind, cache.clone());
    let mut driver = Driver::new(cache, server.addr());
    for op in ops {
        driver.apply(op);
    }
    let observation = driver.finish();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    observation
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The reactor and the blocking oracle produce byte-identical reply
    /// streams and identical per-automaton notification streams for any
    /// interleaved, pipelined script.
    #[test]
    fn reactor_is_byte_equivalent_to_the_blocking_server(
        ops in proptest::collection::vec((0usize..10, 0usize..CLIENTS, -50i64..50), 1..25),
    ) {
        let (oracle_replies, oracle_notes) = run_script("blocking", &ops);
        let (reactor_replies, reactor_notes) = run_script("reactor", &ops);
        prop_assert_eq!(oracle_replies.len(), reactor_replies.len());
        for (i, (a, b)) in oracle_replies.iter().zip(&reactor_replies).enumerate() {
            prop_assert_eq!(a, b, "reply {} diverged for ops {:?}", i, &ops);
        }
        prop_assert_eq!(&oracle_notes, &reactor_notes, "notifications diverged for ops {:?}", &ops);
    }
}

/// A fixed deep-pipeline script (beyond what the generator's short
/// scripts reach): one client keeps 64 requests in flight while the
/// other interleaves registrations, errors and batches.
#[test]
fn a_deep_pipelined_script_is_equivalent_on_both_servers() {
    let mut ops: Vec<(usize, usize, i64)> = Vec::new();
    ops.push((6, 1, 0)); // client 1 registers an automaton
    for i in 0..64 {
        ops.push((0, 0, i)); // 64 pipelined inserts from client 0
    }
    ops.push((9, 0, 7)); // a burst of durable inserts behind them
    ops.push((5, 1, 0)); // an error reply
    ops.push((8, 1, 100)); // a batch
    ops.push((2, 0, 0)); // full scan
    ops.push((7, 1, 0)); // unregister
    ops.push((2, 1, 0)); // scan after teardown
    let oracle = run_script("blocking", &ops);
    let reactor = run_script("reactor", &ops);
    assert_eq!(oracle.0, reactor.0, "reply streams diverged");
    assert_eq!(oracle.1, reactor.1, "notification streams diverged");
}
