//! Commit runs, read off the wire and off the log's counters.
//!
//! A reactor worker stages the typed inserts a connection has pipelined
//! into one `WriteRun`, holds their replies, and pays for durability
//! once per run. What must stay true while it does:
//!
//! * replies leave in submission order and are byte-identical to the
//!   blocking request-loop oracle's, whatever mix of durable, in-memory,
//!   refused and deduplicated requests shares a run;
//! * **flush-before-ack** — no reply is readable before its record is
//!   under the durable watermark, including the reply to a *retry* whose
//!   original is still waiting for its flush;
//! * **flush-before-visible** — no reader sees a row the watermark does
//!   not cover;
//! * anything that is not a typed insert is a barrier: it observes every
//!   request before it;
//! * a connection that dies mid-run strands nothing: its staged rows
//!   become visible and its in-flight count is returned;
//! * and the point of it all — one pipelined connection gets many
//!   records per `fsync`, checked as a count, not a timing.

mod support;

use std::fs;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder, ClientPolicy, IdemToken};
use psrpc::client::CacheClient;
use psrpc::framing;
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use support::{next_frame_bytes, OracleServer};

const KV: &str = "create persistenttable KV (k varchar(16) primary key, v integer)";
const STREAM: &str = "create table S (v integer)";

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pscache-pipelined-commit-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A durable group-commit cache on a manual clock (both servers then
/// stamp identical timestamps) holding a durable `KV` and an in-memory
/// stream `S`.
fn durable_cache(dir: &Path) -> Cache {
    let cache = CacheBuilder::new()
        .manual_clock()
        .durability(dir)
        .open()
        .unwrap();
    cache.execute(KV).unwrap();
    cache.execute(STREAM).unwrap();
    cache
}

fn upsert(key: &str, v: i64) -> Request {
    put(key, v, true)
}

fn put(key: &str, v: i64, upsert: bool) -> Request {
    Request::Insert {
        table: "KV".into(),
        values: vec![Scalar::from(key), Scalar::Int(v)],
        upsert,
    }
}

fn stream_insert(v: i64) -> Request {
    Request::Insert {
        table: "S".into(),
        values: vec![Scalar::Int(v)],
        upsert: false,
    }
}

/// The wire bytes of `script`, sequence numbers counting from
/// `first_seq`.
fn frame(first_seq: u64, script: &[(Option<(u64, u64)>, Request)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, (token, request)) in script.iter().enumerate() {
        let msg = ClientMessage {
            seq: first_seq + i as u64,
            token: *token,
            trace: None,
            request: request.clone(),
        };
        framing::fragment_into(&mut wire, &msg.encode());
    }
    wire
}

/// Put the whole script on the wire with one `write`, so the server
/// finds it pipelined; sequence numbers count from 1.
fn send_pipelined(stream: &mut TcpStream, script: &[(Option<(u64, u64)>, Request)]) {
    stream.write_all(&frame(1, script)).unwrap();
}

fn decode_reply(bytes: &[u8]) -> (u64, CacheReply) {
    match ServerMessage::decode(bytes).unwrap() {
        ServerMessage::Reply { seq, reply } => (seq, reply),
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// Run `script` pipelined against a fresh durable cache behind each
/// server flavour; `on_reply(flavour, cache, index)` runs as each reply
/// is read. Asserts the replies arrive in submission order and that the
/// reactor's bytes equal the oracle's; returns the reactor's replies,
/// its cache and its directory (still open, for the caller to inspect).
fn on_both_servers(
    name: &str,
    script: &[(Option<(u64, u64)>, Request)],
    on_reply: impl Fn(&str, &Cache, usize),
) -> (Vec<CacheReply>, Cache, ReactorServer, PathBuf) {
    let run = |flavour: &str, cache: &Cache, addr: SocketAddr| -> Vec<Vec<u8>> {
        let mut stream = support::connect(addr);
        send_pipelined(&mut stream, script);
        (0..script.len())
            .map(|i| {
                let bytes = next_frame_bytes(&mut stream);
                on_reply(flavour, cache, i);
                bytes
            })
            .collect()
    };
    let oracle_dir = scratch(&format!("{name}-oracle"));
    let oracle_cache = durable_cache(&oracle_dir);
    let oracle = OracleServer::bind(oracle_cache.clone());
    let oracle_bytes = run("blocking", &oracle_cache, oracle.local_addr());
    oracle.shutdown();
    oracle_cache.shutdown();
    let _ = fs::remove_dir_all(&oracle_dir);

    let dir = scratch(name);
    let cache = durable_cache(&dir);
    let reactor = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let reactor_bytes = run("reactor", &cache, reactor.local_addr());

    let replies: Vec<CacheReply> = reactor_bytes
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let (seq, reply) = decode_reply(bytes);
            assert_eq!(seq, i as u64 + 1, "replies left out of submission order");
            reply
        })
        .collect();
    assert_eq!(
        oracle_bytes, reactor_bytes,
        "the reactor's reply stream is not the oracle's"
    );
    (replies, cache, reactor, dir)
}

const FLOOD: u64 = 64;
const CLIENT_ID: u64 = 0xC0FFEE;

fn tokened_flood() -> Vec<(Option<(u64, u64)>, Request)> {
    (0..FLOOD)
        .map(|i| (Some((CLIENT_ID, i)), upsert(&format!("k{i}"), i as i64)))
        .collect()
}

/// (a) 64 pipelined upserts: acknowledged in order, byte-identical to
/// the oracle, each ack behind the durable watermark, and — on the
/// reactor — at least two records per fsync.
#[test]
fn a_pipelined_flood_is_acked_in_order_behind_the_watermark_in_few_flushes() {
    let script = tokened_flood();
    // A freshly set-up cache is deterministic: every setup record is
    // durable and the log is gap-free, so upsert `i` is the record at
    // `base + i + 1` on either cache. The watermark is read *after* the
    // reply was.
    let (base, setup) = {
        let dir = scratch("flood-base");
        let cache = durable_cache(&dir);
        let fresh = (cache.commit_lsn(), cache.wal_stats().unwrap());
        cache.shutdown();
        let _ = fs::remove_dir_all(&dir);
        fresh
    };
    let (replies, cache, reactor, dir) = on_both_servers("flood", &script, |flavour, cache, i| {
        let durable = cache.commit_lsn();
        assert!(
            durable > base + i as u64,
            "{flavour}: reply {i} was readable with the durable watermark at {durable} \
                 (its record is {}): acknowledged before durable",
            base + i as u64 + 1
        );
    });
    for reply in &replies {
        assert!(matches!(
            reply,
            CacheReply::Inserted {
                replaced: false,
                ..
            }
        ));
    }
    let wal = cache.wal_stats().unwrap();
    let (records, syncs) = (wal.records - setup.records, wal.syncs - setup.syncs);
    assert_eq!(records, FLOOD);
    assert!(
        syncs * 2 <= records,
        "one pipelined connection paid {syncs} fsyncs for {records} records"
    );
    reactor.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// (b) A select between pipelined inserts is a barrier: it sees both
/// earlier rows, not the later one, and the replies stay ordered.
#[test]
fn a_select_in_the_pipeline_sees_every_insert_before_it() {
    let script = vec![
        (None, upsert("a", 1)),
        (None, upsert("b", 2)),
        (
            None,
            Request::Execute {
                command: "select k from KV".into(),
            },
        ),
        (None, upsert("c", 3)),
    ];
    let (replies, cache, reactor, dir) = on_both_servers("barrier", &script, |_, _, _| {});
    match &replies[2] {
        CacheReply::Rows { rows, .. } => {
            let keys: Vec<String> = rows.iter().map(|r| r.values[0].to_string()).collect();
            assert_eq!(keys, ["a", "b"], "the select is not a barrier");
        }
        other => panic!("unexpected select reply: {other:?}"),
    }
    assert!(matches!(replies[3], CacheReply::Inserted { .. }));
    reactor.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// (c) One run mixing a durable table, an in-memory stream, a refused
/// row and a token dedup hit: each reply is its own, in order.
#[test]
fn a_mixed_run_keeps_every_reply_its_own() {
    let token = Some((CLIENT_ID, 1));
    let script = vec![
        (None, upsert("a", 1)),
        (None, stream_insert(10)),
        (None, put("a", 2, false)), // duplicate key: refused
        (token, upsert("b", 3)),
        (token, upsert("b", 4)), // same token: the first outcome again
        (None, stream_insert(11)),
        (None, upsert("c", 5)),
    ];
    let (replies, cache, reactor, dir) = on_both_servers("mixed", &script, |_, _, _| {});
    let inserted = |reply: &CacheReply| match reply {
        CacheReply::Inserted { replaced, .. } => Some(*replaced),
        _ => None,
    };
    assert_eq!(inserted(&replies[0]), Some(false));
    assert_eq!(inserted(&replies[1]), Some(false));
    match &replies[2] {
        CacheReply::Error { message } => assert!(message.contains("duplicate primary key")),
        other => panic!("the refused row was answered with {other:?}"),
    }
    assert_eq!(inserted(&replies[3]), Some(false));
    assert_eq!(replies[4], replies[3], "the retry is not the original");
    assert_eq!(inserted(&replies[5]), Some(false));
    assert_eq!(inserted(&replies[6]), Some(false));
    // The deduplicated retry applied nothing.
    let b = cache.lookup("KV", "b").unwrap().unwrap();
    assert_eq!(b.values()[1], Scalar::Int(3));
    assert_eq!(cache.table_len("S").unwrap(), 2);
    reactor.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// (d) A crash right after the 64th ack — the directory copied as it
/// stands, no shutdown, no checkpoint — recovers all 64 rows and their
/// tokens.
#[test]
fn every_acked_row_and_token_of_a_pipelined_flood_survives_a_crash() {
    let (_, cache, reactor, dir) = on_both_servers("crash", &tokened_flood(), |_, _, _| {});
    let crashed = scratch("crash-copy");
    fs::create_dir_all(&crashed).unwrap();
    for entry in fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), crashed.join(entry.file_name())).unwrap();
    }
    reactor.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);

    let recovered = CacheBuilder::new().durability(&crashed).open().unwrap();
    assert_eq!(recovered.table_len("KV").unwrap() as u64, FLOOD);
    for i in 0..FLOOD {
        assert!(recovered.lookup("KV", &format!("k{i}")).unwrap().is_some());
        let token = IdemToken {
            client_id: CLIENT_ID,
            seq: i,
        };
        assert!(
            recovered.token_lookup(token).is_some(),
            "the token of acked upsert {i} was lost"
        );
    }
    recovered.shutdown();
    let _ = fs::remove_dir_all(&crashed);
}

/// (e) While one connection floods pipelined inserts, a reader on a
/// second connection never counts more rows than the durable watermark
/// covers: row `n` is record `base + n`, and the watermark is read after
/// the select answered.
#[test]
fn a_reader_never_counts_a_row_the_durable_watermark_does_not_cover() {
    const ROWS: i64 = 3_000;
    let dir = scratch("visible");
    let cache = durable_cache(&dir);
    let (base, setup) = (cache.commit_lsn(), cache.wal_stats().unwrap());
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let client = CacheClient::connect(addr).unwrap();
            client.set_pipeline_window(64);
            let mut pending = std::collections::VecDeque::new();
            for i in 0..ROWS {
                if pending.len() == 64 {
                    let reply: psrpc::PendingReply = pending.pop_front().unwrap();
                    reply.wait().unwrap();
                }
                pending.push_back(
                    client
                        .begin_request(put(&format!("k{i}"), i, false))
                        .unwrap(),
                );
            }
            for reply in pending {
                reply.wait().unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };

    let reader = CacheClient::connect(addr).unwrap();
    let (mut polls, mut last) = (0u64, 0u64);
    while !done.load(Ordering::Acquire) {
        let rows = reader.select("select count(*) from KV").unwrap();
        let counted = rows.rows[0].values[0].as_int().unwrap() as u64;
        let durable = cache.commit_lsn();
        assert!(
            base + counted <= durable,
            "a select counted {counted} rows with the durable watermark at {durable} \
             (base {base}): visible before durable"
        );
        assert!(
            counted >= last,
            "the table shrank under an insert-only flood"
        );
        last = counted;
        polls += 1;
    }
    writer.join().unwrap();
    assert!(polls > 0);
    assert_eq!(cache.table_len("KV").unwrap() as i64, ROWS);
    let wal = cache.wal_stats().unwrap();
    let (records, syncs) = (wal.records - setup.records, wal.syncs - setup.syncs);
    assert!(
        syncs * 2 <= records,
        "the pipelined writer paid {syncs} fsyncs for {records} records"
    );
    drop(reader);
    server.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// (f) A connection evicted mid-run — it subscribes to its own flood and
/// never reads — strands nothing: every logged row is visible, the
/// in-flight count returns to zero, and the single worker still serves.
#[test]
fn an_eviction_mid_run_commits_the_run_and_returns_its_in_flight_slots() {
    let dir = scratch("evicted");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .rpc_workers(1)
        .client_policy(ClientPolicy {
            max_outbox_bytes: 4 * 1024,
            ..ClientPolicy::default()
        })
        .open()
        .unwrap();
    cache
        .execute("create persistenttable Blobs (k varchar(16) primary key, v varchar(4000))")
        .unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let logged_before = cache.wal_stats().unwrap().records;

    let mut raw = support::connect(server.local_addr());
    send_pipelined(
        &mut raw,
        &[(
            None,
            Request::RegisterAutomaton {
                source: "subscribe t to Blobs; behavior { send(t.v); }".into(),
            },
        )],
    );
    assert!(matches!(
        decode_reply(&next_frame_bytes(&mut raw)).1,
        CacheReply::Registered { .. }
    ));
    // ~12 MB of its own notifications against a 4 KB outbox bound, and
    // it never reads again: the kernel's socket buffers absorb the
    // first part, the outbox overflows on the rest, mid-flood. The
    // writes fail once the server drops the socket; that is the point.
    let flood = std::thread::spawn(move || {
        let blob = "x".repeat(2_000);
        for chunk in 0..60u64 {
            let script: Vec<_> = (chunk * 100..(chunk + 1) * 100)
                .map(|i| {
                    let request = Request::Insert {
                        table: "Blobs".into(),
                        values: vec![Scalar::from(format!("k{i}")), Scalar::from(blob.as_str())],
                        upsert: false,
                    };
                    (None, request)
                })
                .collect();
            if raw.write_all(&frame(2 + chunk * 100, &script)).is_err() {
                break;
            }
        }
        raw
    });

    assert!(
        wait_until(Duration::from_secs(30), || cache.automata().is_empty()),
        "the connection was never evicted"
    );
    let raw = flood.join().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            let stats = server.stats();
            stats.connections_active == 0 && stats.rpc_in_flight == 0
        }),
        "the evicted connection left in-flight requests behind: {:?}",
        server.stats()
    );
    // Every row that reached the log is visible: the defunct run was
    // committed, not dropped on the floor. (Keys are distinct, so one
    // record is one row.)
    let logged = cache.wal_stats().unwrap().records - logged_before;
    assert!(logged > 0);
    assert_eq!(cache.table_len("Blobs").unwrap() as u64, logged);
    // The only worker is free: a new connection is served.
    let probe = CacheClient::connect(server.local_addr()).unwrap();
    probe.ping().unwrap();
    assert_eq!(
        probe.select("select count(*) from Blobs").unwrap().rows[0].values[0]
            .as_int()
            .unwrap() as u64,
        logged
    );
    assert_eq!(probe.health().unwrap().slow_consumer_evictions, 1);
    drop(probe);
    drop(raw);
    server.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The dedup path's flush-before-ack: a tokened insert is staged in a
/// `WriteRun` that has not committed — its record is in the log's
/// buffer, not on disk — when the same token arrives on another
/// connection. The retry's reply must not exist before the original's
/// record is on disk, so by the time it has been read the log has been
/// fsynced. (The retry may lead that flush itself: group commit elects
/// whoever waits first.)
#[test]
fn a_retry_is_never_acked_before_the_original_record_is_durable() {
    let dir = scratch("dedup");
    let cache = durable_cache(&dir);
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let token = IdemToken {
        client_id: CLIENT_ID,
        seq: 7,
    };
    let values = || vec![Scalar::from("k"), Scalar::Int(1)];

    let mut run = cache.write_run();
    let (replaced, tstamp) = run.insert("KV", values(), false, Some(token)).unwrap();
    assert_eq!(run.awaiting(), 1);
    let synced = cache.wal_stats().unwrap().syncs;

    let retry = std::thread::spawn(move || {
        let client = CacheClient::connect(addr).unwrap();
        client
            .begin_request_with_token(
                Request::Insert {
                    table: "KV".into(),
                    values: values(),
                    upsert: false,
                },
                Some((token.client_id, token.seq)),
            )
            .unwrap()
            .wait()
    });
    let reply = retry.join().unwrap().unwrap();
    assert_eq!(reply, CacheReply::Inserted { replaced, tstamp });
    assert!(
        cache.wal_stats().unwrap().syncs > synced,
        "the retry was acknowledged with the original's record not on disk"
    );
    run.commit().unwrap();
    drop(run);
    assert_eq!(cache.table_len("KV").unwrap(), 1);
    server.shutdown();
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
