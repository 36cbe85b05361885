//! Differential and end-to-end suite for the observability layer
//! (`pscache::obs`).
//!
//! Two claims are checked. First, the **counters are exact**: for any
//! random pipelined script, the `rpc_requests_*` counters reported over
//! a [`Request::Metrics`] RPC equal a plain-Rust oracle's count of the
//! script's operations — and the event-driven reactor agrees with the
//! blocking request loop (the oracle), including the requests each
//! transport answers inline. Second, the **flood acceptance** run of
//! the issue: a durable node under pipelined traced writes yields
//! populated RPC/WAL/dispatch histograms with spread (p50 < p99), a
//! Prometheus exposition that round-trips losslessly through the typed
//! snapshot, and slow-op log entries carrying the client-stamped trace
//! id with a queue/execute/flush breakdown.

mod support;

use std::time::{Duration, Instant};

use proptest::prelude::*;

use gapl::event::Scalar;
use pscache::{MetricsSnapshot, ReqKind};
use psrpc::client::CacheClient;
use psrpc::message::Request;
use psrpc::reactor::ReactorServer;
use support::OracleServer;
use unipubsub::prelude::*;

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

/// The request an opcode issues. Opcodes cover every `ReqKind` bucket
/// except register/unregister (exercised separately below — they need
/// id bookkeeping that would obscure the counting property).
fn op_request(kind: usize, v: i64) -> Request {
    match kind {
        0 => Request::Insert {
            table: "T".into(),
            values: vec![Scalar::Int(v)],
            upsert: false,
        },
        1 => Request::Insert {
            table: "P".into(),
            values: vec![
                Scalar::from(format!("k{}", v.rem_euclid(8))),
                Scalar::Int(v),
            ],
            upsert: true,
        },
        2 => Request::Execute {
            command: "select * from T".into(),
        },
        3 => Request::Execute {
            command: format!("insert into T values ({v})"),
        },
        4 => Request::Ping,
        5 => Request::Metrics,
        _ => Request::InsertBatch {
            table: "T".into(),
            rows: (0..3).map(|i| vec![Scalar::Int(v + i)]).collect(),
            upsert: false,
        },
    }
}

/// What the oracle counts for an opcode.
fn op_kind(kind: usize) -> ReqKind {
    match kind {
        0 | 1 => ReqKind::Insert,
        2 | 3 => ReqKind::Execute,
        4 | 5 => ReqKind::Control,
        _ => ReqKind::InsertBatch,
    }
}

/// Run one script (single client, fully pipelined) against one server
/// flavour and return the final over-the-wire metrics snapshot.
fn run_counting_script(kind: &str, ops: &[(usize, i64)]) -> MetricsSnapshot {
    let cache = CacheBuilder::new().manual_clock().build();
    cache.execute("create table T (v integer)").unwrap();
    cache
        .execute("create persistenttable P (k varchar(8) primary key, v integer)")
        .unwrap();
    let server = Server::start(kind, cache.clone());
    let client = CacheClient::connect(server.addr()).unwrap();
    let pendings: Vec<_> = ops
        .iter()
        .map(|&(kind, v)| client.begin_request(op_request(kind, v)).unwrap())
        .collect();
    for pending in pendings {
        pending.wait().unwrap_or_else(|e| {
            panic!("transport failure during a counting run: {e}");
        });
    }
    // Every scripted request has been answered, so every counter bump
    // has happened; the closing Metrics request observes them all (and
    // counts itself as one more control request on both transports).
    let snapshot = client.metrics().unwrap();
    server.shutdown();
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-kind request counters over the wire equal the oracle's
    /// count of the script, on both transports — including the
    /// metrics requests the reactor answers inline on its poll
    /// thread and the blocking server answers through the shared
    /// request path.
    #[test]
    fn request_counters_match_the_script_oracle_on_both_servers(
        ops in proptest::collection::vec((0usize..7, -50i64..50), 1..40),
    ) {
        let mut expected = [0u64; 6];
        for &(kind, _) in &ops {
            expected[op_kind(kind) as usize] += 1;
        }
        // The closing snapshot request is itself counted before it is
        // answered.
        expected[ReqKind::Control as usize] += 1;

        for flavour in ["blocking", "reactor"] {
            let snapshot = run_counting_script(flavour, &ops);
            for (kind, name) in [
                (ReqKind::Execute, "rpc_requests_execute"),
                (ReqKind::Insert, "rpc_requests_insert"),
                (ReqKind::InsertBatch, "rpc_requests_insert_batch"),
                (ReqKind::Control, "rpc_requests_control"),
            ] {
                let want = expected[kind as usize];
                // Zero counters are omitted from the snapshot.
                let got = snapshot.counter(name).unwrap_or(0);
                prop_assert_eq!(
                    got, want,
                    "{} diverged on the {} server for ops {:?}",
                    name, flavour, &ops
                );
            }
        }
    }
}

/// Registration and unregistration land in their own counters, and the
/// unregistration shows up in the health report too (it counts the
/// cache-level choke point, so connection teardown is included).
#[test]
fn register_unregister_counters_and_health_fields_agree() {
    let cache = CacheBuilder::new().manual_clock().build();
    cache.execute("create table T (v integer)").unwrap();
    let server = Server::start("reactor", cache.clone());
    let client = CacheClient::connect(server.addr()).unwrap();
    let id = client
        .register_automaton("subscribe t to T; behavior { send(t.v); }")
        .unwrap();
    client.unregister_automaton(id).unwrap();
    let snapshot = client.metrics().unwrap();
    assert_eq!(snapshot.counter("rpc_requests_register"), Some(1));
    assert_eq!(snapshot.counter("rpc_requests_unregister"), Some(1));
    assert_eq!(snapshot.counter("automaton_unregistrations"), Some(1));
    let report = client.health().unwrap();
    assert_eq!(report.automaton_unregistrations, 1);
    server.shutdown();
}

/// The issue's acceptance flood: a durable reactor node under pipelined
/// traced writes.
#[test]
fn a_traced_durable_flood_populates_histograms_and_the_slow_op_log() {
    let dir = std::env::temp_dir().join(format!("pscache-obs-flood-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheBuilder::new()
        .durability(&dir)
        // A zero threshold makes every operation "slow", so the run is
        // deterministic: the ring must end up non-empty.
        .slow_op_threshold(Duration::ZERO)
        .open()
        .unwrap();
    cache.execute("create table T (v integer)").unwrap();
    // An automaton subscribed to the flood keeps the dispatch queue
    // busy, so the dispatch-latency histogram fills too. No predicate:
    // a prefilter-excludable condition would let the predicate index
    // skip delivery entirely, and nothing would ever be queued.
    let (_id, notes) = cache
        .register_automaton("subscribe t to T; behavior { send(t.v); }")
        .unwrap();
    let server = Server::start("reactor", cache.clone());
    let client = CacheClient::connect(server.addr()).unwrap();

    const TRACE_BASE: u64 = 0x00C0_FFEE_0000;
    client.set_trace_base(Some(TRACE_BASE));
    const WRITES: i64 = 256;
    // The window frees a slot when the *caller* waits, not when the
    // reply lands — so a single thread issuing the whole flood before
    // waiting needs the window at least as deep as the flood.
    client.set_pipeline_window(WRITES as usize + 8);
    let pendings: Vec<_> = (0..WRITES)
        .map(|v| {
            client
                .begin_request(Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(v)],
                    upsert: false,
                })
                .unwrap()
        })
        .collect();
    for pending in pendings {
        pending.wait().unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(10)));
    assert_eq!(notes.try_iter().count(), WRITES as usize);

    // Flush-stage spans complete on the reactor thread when the outbox
    // drains; give it a moment past the last reply.
    let deadline = Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let snapshot = client.metrics().unwrap();
        let flushed = snapshot
            .histogram("rpc_insert_flush_ns")
            .is_some_and(|h| h.count >= WRITES as u64);
        if flushed || Instant::now() >= deadline {
            break snapshot;
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    // Non-empty RPC, WAL and dispatch histograms, fetched over the
    // Metrics RPC itself.
    for name in [
        "rpc_insert_queue_ns",
        "rpc_insert_execute_ns",
        "rpc_insert_flush_ns",
        "wal_append_ns",
        "wal_commit_wait_ns",
        "dispatch_queue_ns",
    ] {
        let h = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing from the flood snapshot"));
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(
            h.quantile(0.50) <= h.quantile(0.99),
            "{name}: p50 above p99"
        );
    }
    assert!(
        snapshot.histogram("wal_fsync_ns").is_some(),
        "durable writes must have timed at least one fsync"
    );
    // 256 pipelined durable inserts necessarily spread their inbox
    // wait: the first is claimed instantly, the last waited behind
    // hundreds of group-committed writes.
    let queue = snapshot.histogram("rpc_insert_queue_ns").unwrap();
    assert!(
        queue.quantile(0.50) < queue.quantile(0.99),
        "queue-wait histogram has no spread: p50={} p99={}",
        queue.quantile(0.50),
        queue.quantile(0.99)
    );

    // The Prometheus text is a lossless projection of the typed
    // snapshot.
    let prom = snapshot.to_prometheus();
    assert_eq!(
        MetricsSnapshot::from_prometheus(&prom),
        Some(snapshot.clone())
    );

    // The slow-op ring (threshold zero: every op qualifies) holds
    // client-stamped trace ids with the full stage breakdown. The
    // client stamps `base.wrapping_add(seq)` with seq starting at 1.
    assert!(snapshot.counter("slow_ops_recorded").unwrap_or(0) > 0);
    let slow = cache.obs().slow_ops.entries();
    assert!(!slow.is_empty(), "slow-op ring is empty");
    let traced = slow
        .iter()
        .find(|op| op.trace_id > TRACE_BASE && op.trace_id <= TRACE_BASE + 2 * WRITES as u64)
        .expect("no slow op carries a client-stamped trace id");
    assert_eq!(traced.kind, ReqKind::Insert);
    assert_eq!(traced.table.as_deref(), Some("T"));
    assert!(
        traced.queue_ns > 0 || traced.exec_ns > 0 || traced.flush_ns > 0,
        "slow op has an empty stage breakdown"
    );

    server.shutdown();
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
