//! Differential suite for the protection layer: idempotency-token
//! dedup must be *invisible* to a correct client.
//!
//! The property drives a server with a random script of interleaved
//! mutations and reads. In the **retry run** every tokened mutation is
//! issued twice with the same token — simulating a client whose reply
//! was lost and who retried — and the duplicate's reply must be
//! byte-identical to the original. The whole retry run must then be
//! byte-equivalent to a **no-retry oracle run** of the same script on a
//! fresh server: same reply stream, same final table contents. Any
//! double-apply, reply-shape drift, or timestamp skew between the
//! deduped path and the plain path fails the property.
//!
//! A second group of tests pins the token table's bound: under
//! sustained load the per-client history never exceeds the configured
//! cap, old tokens are evicted FIFO, and each client gets its own
//! budget.

mod support;

use proptest::prelude::*;

use gapl::event::Scalar;
use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, Request, ServerMessage};
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

/// Reduce a reply to comparable bytes (correlation ids are client-side
/// counters, not semantics, so they are normalised to zero).
fn reply_bytes(outcome: Result<CacheReply, psrpc::Error>) -> Vec<u8> {
    let reply = match outcome {
        Ok(reply) => reply,
        Err(psrpc::Error::Remote { message }) => CacheReply::Error { message },
        Err(other) => panic!("transport failure during a differential run: {other}"),
    };
    ServerMessage::Reply { seq: 0, reply }.encode()
}

/// Translate one script op into (request, is a tokened mutation).
fn op_request(op: &(usize, i64)) -> (Request, bool) {
    let (kind, v) = *op;
    match kind {
        // Tokened mutations: the paths the dedup table protects.
        0 => (
            Request::Insert {
                table: "T".into(),
                values: vec![Scalar::Int(v)],
                upsert: false,
            },
            true,
        ),
        1 => (
            Request::InsertBatch {
                table: "T".into(),
                rows: (0..3).map(|i| vec![Scalar::Int(v + i)]).collect(),
                upsert: false,
            },
            true,
        ),
        2 => (
            Request::Execute {
                command: format!("insert into T values ({v})"),
            },
            true,
        ),
        3 => (
            Request::Insert {
                table: "P".into(),
                values: vec![
                    Scalar::from(format!("k{}", v.rem_euclid(8))),
                    Scalar::Int(v),
                ],
                upsert: true,
            },
            true,
        ),
        // Reads and errors: never tokened, issued once in both runs.
        4 => (
            Request::Execute {
                command: "select * from T".into(),
            },
            false,
        ),
        5 => (
            Request::Execute {
                command: "select * from P".into(),
            },
            false,
        ),
        _ => (
            Request::Execute {
                command: "select * from Missing".into(),
            },
            false,
        ),
    }
}

/// Run one script; with `retry` every tokened mutation is issued twice
/// with the same token and the duplicate reply must match the original
/// byte for byte. Returns the comparable observation: first-issue
/// replies in order, plus the final contents of both tables.
fn run_script(kind: &str, retry: bool, ops: &[(usize, i64)]) -> (Vec<Vec<u8>>, Vec<u8>, Vec<u8>) {
    let cache = CacheBuilder::new().manual_clock().build();
    cache.execute("create table T (v integer)").unwrap();
    cache
        .execute("create persistenttable P (k varchar(8) primary key, v integer)")
        .unwrap();
    let server = Server::start(kind, cache.clone());
    let client = CacheClient::connect(server.addr()).unwrap();

    let mut replies = Vec::new();
    for op in ops {
        cache.manual_clock().unwrap().advance(1);
        let (request, tokened) = op_request(op);
        if tokened {
            let token = Some(client.next_token());
            let first = reply_bytes(
                client
                    .begin_request_with_token(request.clone(), token)
                    .unwrap()
                    .wait(),
            );
            if retry {
                // A re-APPLY would add a second row (or flip an
                // upsert's `replaced` flag), so the byte-equal reply
                // here plus the final-state comparison against the
                // no-retry oracle together prove the outcome was
                // replayed from the token table, not re-executed.
                let dup = reply_bytes(
                    client
                        .begin_request_with_token(request, token)
                        .unwrap()
                        .wait(),
                );
                assert_eq!(first, dup, "duplicate token produced a different reply");
            }
            replies.push(first);
        } else {
            replies.push(reply_bytes(client.begin_request(request).unwrap().wait()));
        }
    }

    let final_t = reply_bytes(client.begin_execute("select * from T").unwrap().wait());
    let final_p = reply_bytes(client.begin_execute("select * from P").unwrap().wait());
    server.shutdown();
    (replies, final_t, final_p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Retrying every tokened mutation is byte-equivalent to never
    /// retrying, on both transports: same reply stream, same final
    /// state. (The reactor's retry run is additionally compared against
    /// the blocking oracle, so the dedup paths of the two transports
    /// cannot drift apart.)
    #[test]
    fn retried_tokened_scripts_match_the_no_retry_oracle(
        ops in proptest::collection::vec((0usize..7, -50i64..50), 1..30),
    ) {
        let oracle = run_script("reactor", false, &ops);
        let retried = run_script("reactor", true, &ops);
        prop_assert_eq!(&oracle, &retried, "reactor dedup diverged for ops {:?}", &ops);
        let blocking = run_script("blocking", true, &ops);
        prop_assert_eq!(&oracle, &blocking, "blocking dedup diverged for ops {:?}", &ops);
    }
}

/// The token table is FIFO-bounded per client: a client that issues far
/// more mutations than the configured history keeps only the most
/// recent `token_history` outcomes, and the bound holds *during* the
/// load, not just after it.
#[test]
fn token_table_never_exceeds_its_configured_bound() {
    let cache = CacheBuilder::new().token_history(16).build();
    cache.execute("create table T (v integer)").unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let client = CacheClient::connect(server.local_addr()).unwrap();

    for i in 0..500 {
        client.insert("T", vec![Scalar::Int(i)]).unwrap();
        assert!(
            cache.token_count() <= 16,
            "token table exceeded its bound at insert {i}: {}",
            cache.token_count()
        );
    }
    assert_eq!(cache.table_len("T").unwrap(), 500);

    // A retry of a long-evicted token no longer dedups — but with the
    // original reply long since delivered, that is only reachable by a
    // buggy client; the bound trades unbounded memory for exactly-once
    // over the *recent* window the reconnect path actually replays.
    let stale = (client.client_id(), 1);
    let outcome = client
        .begin_request_with_token(
            Request::Insert {
                table: "T".into(),
                values: vec![Scalar::Int(-1)],
                upsert: false,
            },
            Some(stale),
        )
        .unwrap()
        .wait();
    assert!(
        outcome.is_ok(),
        "evicted token should re-execute, not error"
    );
    assert_eq!(cache.table_len("T").unwrap(), 501);

    server.shutdown();
}

/// Each client gets its own history budget: one chatty client cannot
/// evict another client's recent tokens.
#[test]
fn token_budgets_are_per_client() {
    let cache = CacheBuilder::new().token_history(8).build();
    cache.execute("create table T (v integer)").unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let quiet = CacheClient::connect(server.local_addr()).unwrap();
    let chatty = CacheClient::connect(server.local_addr()).unwrap();

    // The quiet client records one tokened outcome...
    let token = quiet.next_token();
    let original = reply_bytes(
        quiet
            .begin_request_with_token(
                Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(7)],
                    upsert: false,
                },
                Some(token),
            )
            .unwrap()
            .wait(),
    );

    // ...then the chatty client floods far past the shared bound.
    for i in 0..100 {
        chatty.insert("T", vec![Scalar::Int(i)]).unwrap();
    }
    assert!(cache.token_count() <= 2 * 8, "per-client bound violated");

    // The quiet client's token must still dedup: its retry replays the
    // original outcome instead of inserting a second row.
    let replayed = reply_bytes(
        quiet
            .begin_request_with_token(
                Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(7)],
                    upsert: false,
                },
                Some(token),
            )
            .unwrap()
            .wait(),
    );
    assert_eq!(
        original, replayed,
        "flooding neighbour evicted a live token"
    );
    assert_eq!(cache.table_len("T").unwrap(), 101);

    server.shutdown();
}

/// Crash-recovery keeps the dedup table: a token recorded before an
/// unclean shutdown still replays its original outcome after the WAL is
/// replayed into a fresh cache.
#[test]
fn token_dedup_survives_crash_recovery() {
    // Note the persistent table: ephemeral stream rows are not logged
    // (the same contract crash recovery and replication already have),
    // so only durable mutations carry their token into the WAL.
    let insert = Request::Insert {
        table: "P".into(),
        values: vec![Scalar::from("a"), Scalar::Int(42)],
        upsert: false,
    };
    let dir = tempdir();
    let token;
    let original;
    {
        let cache = CacheBuilder::new().durability(&dir).build();
        cache
            .execute("create persistenttable P (k varchar(8) primary key, v integer)")
            .unwrap();
        let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        token = client.next_token();
        original = reply_bytes(
            client
                .begin_request_with_token(insert.clone(), Some(token))
                .unwrap()
                .wait(),
        );
        server.shutdown();
        // Drop without checkpoint: recovery must come from the WAL.
    }
    let cache = CacheBuilder::new().durability(&dir).build();
    assert_eq!(cache.table_len("P").unwrap(), 1);
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let client = CacheClient::connect(server.local_addr()).unwrap();
    let replayed = reply_bytes(
        client
            .begin_request_with_token(insert, Some(token))
            .unwrap()
            .wait(),
    );
    assert_eq!(original, replayed, "recovery lost the token outcome");
    assert_eq!(
        cache.table_len("P").unwrap(),
        1,
        "recovery re-applied a deduped insert"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pscache-protect-eq-{}-{:?}",
        std::process::id(),
        std::time::Instant::now()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
