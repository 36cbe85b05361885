//! Chaos suite for the event-driven RPC reactor: hostile clients, torn
//! connections, thousand-connection fan-in, shutdown under load, and
//! the at-least-once retry hole.
//!
//! Every test here attacks an invariant the reactor must hold:
//!
//! * a client that reads one byte at a time cannot stall anyone else
//!   (per-connection outboxes + TCP backpressure, never a blocked
//!   reactor thread);
//! * a connection torn mid-frame is swept without leaking state and
//!   without disturbing its neighbours;
//! * a thousand idle connections cost file descriptors, not threads —
//!   sixteen hot pipelined clients are served underneath them;
//! * graceful shutdown answers or error-fails every in-flight request
//!   and leaves every *acknowledged* durable write recoverable;
//! * a reply lost after the request was applied resolves exactly-once
//!   through idempotency tokens (the default); with tokens disabled the
//!   client surfaces [`psrpc::Error::MaybeApplied`] instead of silently
//!   applying twice, while idempotent requests retry either way.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use psrpc::client::{CacheClient, ReconnectPolicy};
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use psrpc::{framing, Error};
use unipubsub::prelude::*;

/// A reader that trickles: at most one byte per `read` call, with a
/// periodic stall — the slowest client the transport can express. A
/// read timeout on the inner stream is reported as an error, which
/// `framing::read_message` does not wait through, so a lost reply
/// fails the test instead of stalling the suite.
struct OneByteReader<R> {
    inner: R,
    bytes: usize,
}

impl<R: Read> Read for OneByteReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.bytes % 512 == 511 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.bytes += 1;
        let len = 1.min(buf.len());
        self.inner
            .read(&mut buf[..len])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    std::io::Error::other("no byte within the stream's read timeout")
                }
                _ => e,
            })
    }
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn a_slow_reader_cannot_stall_other_connections() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    let setup = CacheClient::connect(server.local_addr()).unwrap();
    setup
        .execute("create table Blobs (data varchar(10000)) capacity 64")
        .unwrap();
    // 64 rows of 8 KB: a ~512 KB reply, far beyond the socket buffers,
    // so the reactor must park the outbox on POLLOUT and keep going.
    setup
        .insert_batch(
            "Blobs",
            (0..64)
                .map(|_| vec![Scalar::from("x".repeat(8_000))])
                .collect(),
        )
        .unwrap();

    // The slow reader asks for all of it, then drains the multi-
    // fragment reply one byte at a time.
    let raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let msg = ClientMessage {
        seq: 1,
        token: None,
        trace: None,
        request: Request::Execute {
            command: "select * from Blobs".into(),
        },
    }
    .encode();
    let mut writer = raw.try_clone().unwrap();
    framing::write_message(&mut writer, &msg).unwrap();

    let slow = std::thread::spawn(move || {
        let mut reader = OneByteReader {
            inner: raw,
            bytes: 0,
        };
        framing::read_message(&mut reader).unwrap().unwrap()
    });

    // While the trickle is in progress, a normal client must be served
    // promptly on the same reactor.
    let fast = CacheClient::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    for _ in 0..20 {
        assert_eq!(fast.select("select * from Blobs").unwrap().len(), 64);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "fast client starved behind a slow reader"
    );

    // The trickled reply is intact and identical to the fast client's.
    let slow_bytes = slow.join().unwrap();
    match ServerMessage::decode(&slow_bytes).unwrap() {
        ServerMessage::Reply {
            seq: 1,
            reply: CacheReply::Rows { rows, .. },
        } => {
            assert_eq!(rows.len(), 64);
            assert_eq!(rows[0].values[0], Scalar::from("x".repeat(8_000)));
        }
        other => panic!("unexpected slow-path reply: {other:?}"),
    }
    drop(setup);
    drop(fast);
    server.shutdown();
}

#[test]
fn mid_frame_disconnects_are_swept_without_collateral_damage() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    let client = CacheClient::connect(server.local_addr()).unwrap();
    client.execute("create table T (v integer)").unwrap();

    // Half a fragment header.
    let torn = TcpStream::connect(server.local_addr()).unwrap();
    (&torn).write_all(&[0x34]).unwrap();
    torn.shutdown(Shutdown::Both).unwrap();
    drop(torn);

    // A full header promising 500 payload bytes, then only 100, then gone.
    let torn = TcpStream::connect(server.local_addr()).unwrap();
    let mut partial = Vec::new();
    partial.extend_from_slice(&500u16.to_le_bytes());
    partial.push(1); // "last fragment"
    partial.push(0);
    partial.extend_from_slice(&[0xAB; 100]);
    (&torn).write_all(&partial).unwrap();
    drop(torn);

    // An oversized fragment (protocol violation, not just truncation).
    let hostile = TcpStream::connect(server.local_addr()).unwrap();
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&u16::MAX.to_le_bytes());
    oversized.push(1);
    oversized.push(0);
    oversized.extend_from_slice(&[0u8; 2048]);
    (&hostile).write_all(&oversized).unwrap();

    // All three attackers are swept; the surviving client's connection
    // is the only one left, and it still works.
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().connections_active == 1
        }),
        "torn connections were not swept: {:?}",
        server.stats()
    );
    client.insert("T", vec![Scalar::Int(1)]).unwrap();
    assert_eq!(client.select("select * from T").unwrap().len(), 1);
    drop(client);
    server.shutdown();
}

#[test]
fn a_thousand_idle_connections_do_not_crowd_out_sixteen_hot_ones() {
    const IDLE: usize = 1000;
    const HOT: usize = 16;
    const ROUNDS: usize = 4;
    const BURST: usize = 32;

    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let setup = CacheClient::connect(addr).unwrap();
    setup.execute("create table T (v integer)").unwrap();

    // A thousand connected-but-silent sockets: with one reactor thread
    // and a fixed worker pool this costs file descriptors, not threads.
    let idles: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().connections_active >= (IDLE + 1) as u64
        }),
        "the reactor never registered the idle fleet: {:?}",
        server.stats()
    );

    // Sixteen hot clients pipeline bursts of inserts underneath them.
    let inserted: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HOT)
            .map(|h| {
                scope.spawn(move || {
                    let client = CacheClient::connect(addr).unwrap();
                    let mut ok = 0u64;
                    for round in 0..ROUNDS {
                        let pendings: Vec<_> = (0..BURST)
                            .map(|i| {
                                client
                                    .begin_request(Request::Insert {
                                        table: "T".into(),
                                        values: vec![Scalar::Int(
                                            (h * 1000 + round * 100 + i) as i64,
                                        )],
                                        upsert: false,
                                    })
                                    .unwrap()
                            })
                            .collect();
                        for p in pendings {
                            p.wait().unwrap();
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(inserted, (HOT * ROUNDS * BURST) as u64);
    assert_eq!(
        setup.select("select * from T").unwrap().len(),
        HOT * ROUNDS * BURST
    );
    let stats = server.stats();
    assert!(stats.connections_accepted >= (IDLE + HOT + 1) as u64);

    drop(idles);
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().connections_active == 1
        }),
        "idle connections were not swept after close: {:?}",
        server.stats()
    );
    drop(setup);
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_or_fails_every_pipelined_request_and_keeps_acks_durable() {
    let dir = std::env::temp_dir().join(format!("rpc-chaos-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let acked = {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
            .unwrap();
        let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
        let client = CacheClient::connect(server.local_addr()).unwrap();
        client.set_pipeline_window(512);

        // Pipeline durable upserts while the server shuts down under us.
        let mut pendings = Vec::new();
        let mut sent = Vec::new();
        let mut server = Some(server);
        let mut shutdown_at = None;
        for i in 0..400u64 {
            if i == 120 {
                // Fence first: a ping runs on a worker in connection
                // order, so its reply proves the first 120 requests were
                // accepted — otherwise the shutdown could win the race
                // with the reactor's first read, and zero acks would be
                // within the drain contract. Then shut down mid-burst,
                // from another thread, while requests are in flight.
                client.ping().unwrap();
                let s = server.take().expect("the server is still running");
                shutdown_at = Some(std::thread::spawn(move || s.shutdown()));
            }
            match client.begin_request(Request::Insert {
                table: "KV".into(),
                values: vec![Scalar::from(format!("key-{i:04}")), Scalar::Int(i as i64)],
                upsert: true,
            }) {
                Ok(p) => {
                    pendings.push(p);
                    sent.push(i);
                }
                // Once the transport is gone further sends fail cleanly.
                Err(Error::Disconnected | Error::Io(_)) => break,
                Err(other) => panic!("unexpected send failure: {other}"),
            }
        }

        // Every pending resolves — a reply or an error, never a hang —
        // and the resolution order per connection is the issue order.
        let mut acked = Vec::new();
        let mut failed = 0usize;
        for (i, p) in sent.iter().zip(pendings) {
            match p.wait() {
                Ok(CacheReply::Inserted { .. }) => {
                    assert_eq!(failed, 0, "a reply arrived after a dropped request");
                    acked.push(*i);
                }
                Ok(other) => panic!("unexpected reply: {other:?}"),
                Err(Error::MaybeApplied | Error::Disconnected) => failed += 1,
                Err(other) => panic!("unexpected wait failure: {other}"),
            }
        }
        shutdown_at
            .expect("the shutdown raced the burst")
            .join()
            .unwrap();
        assert!(
            !acked.is_empty(),
            "the drain must answer requests already accepted"
        );
        acked
    };

    // Every acknowledged write survived: the drain flushed the WAL
    // before the process state was torn down.
    let reopened = CacheBuilder::new().durability(&dir).open().unwrap();
    for i in &acked {
        let row = reopened
            .lookup("KV", &format!("key-{i:04}"))
            .unwrap()
            .unwrap_or_else(|| panic!("acked key-{i:04} lost by shutdown"));
        assert_eq!(row.values()[1], Scalar::Int(*i as i64));
    }
    reopened.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A TCP proxy that forwards both directions until told to cut the
/// server->client path: the next reply is swallowed and the connection
/// killed — exactly the "applied but unacknowledged" window.
fn reply_dropping_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let drop_replies = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&drop_replies);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client_sock) = conn else { break };
            let Ok(server_sock) = TcpStream::connect(upstream) else {
                break;
            };
            let mut up_read = client_sock.try_clone().unwrap();
            let mut up_write = server_sock.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match up_read.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if up_write.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = up_write.shutdown(Shutdown::Write);
            });
            let mut down_read = server_sock;
            let mut down_write = client_sock;
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match down_read.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if flag.load(Ordering::Acquire) {
                                // Swallow the reply; tear the connection.
                                let _ = down_write.shutdown(Shutdown::Both);
                                let _ = down_read.shutdown(Shutdown::Both);
                                break;
                            }
                            if down_write.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    (addr, drop_replies)
}

#[test]
fn a_reply_lost_after_apply_resolves_exactly_once_through_tokens() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let (proxy_addr, drop_replies) = reply_dropping_proxy(server.local_addr());

    let client = CacheClient::connect_reconnecting(
        proxy_addr.to_string(),
        ReconnectPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            deadline: None,
        },
    )
    .unwrap();
    client.execute("create table T (v integer)").unwrap();

    // Kill the reply of a non-idempotent insert after the server
    // applied it. The default idempotency token lets the client retry:
    // the server recognises the token and answers with the remembered
    // outcome instead of inserting again.
    drop_replies.store(true, Ordering::Release);
    let healer = {
        let flag = Arc::clone(&drop_replies);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(false, Ordering::Release);
        })
    };
    client.insert("T", vec![Scalar::Int(7)]).unwrap();
    healer.join().unwrap();

    // Applied exactly once: no silent duplicate, no silent loss, no
    // MaybeApplied ambiguity surfaced to the caller.
    assert_eq!(cache.table_len("T").unwrap(), 1);
    assert_eq!(client.select("select * from T").unwrap().len(), 1);
    assert!(client.reconnect_count() >= 1);
    drop(client);
    server.shutdown();
}

#[test]
fn with_tokens_disabled_a_lost_reply_surfaces_maybe_applied() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let (proxy_addr, drop_replies) = reply_dropping_proxy(server.local_addr());

    let client = CacheClient::connect_reconnecting(
        proxy_addr.to_string(),
        ReconnectPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            deadline: None,
        },
    )
    .unwrap();
    client.set_idempotency_tokens(false);
    client.execute("create table T (v integer)").unwrap();

    // Without a token the client cannot tell "applied, ack lost" from
    // "never arrived", so it must NOT silently re-send.
    drop_replies.store(true, Ordering::Release);
    let err = client.insert("T", vec![Scalar::Int(7)]).unwrap_err();
    assert!(
        matches!(err, Error::MaybeApplied),
        "expected MaybeApplied, got {err}"
    );
    drop_replies.store(false, Ordering::Release);

    // The honest at-least-once contract: applied once, caller informed.
    assert!(wait_until(Duration::from_secs(5), || {
        cache.table_len("T").unwrap() == 1
    }));
    assert_eq!(client.select("select * from T").unwrap().len(), 1);
    assert!(client.reconnect_count() >= 1);
    drop(client);
    server.shutdown();
}

#[test]
fn idempotent_requests_retry_transparently_across_a_lost_reply() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let (proxy_addr, drop_replies) = reply_dropping_proxy(server.local_addr());

    let client = CacheClient::connect_reconnecting(
        proxy_addr.to_string(),
        ReconnectPolicy {
            max_attempts: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            deadline: None,
        },
    )
    .unwrap();
    client
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();

    // Cut the first reply, then heal the proxy while the client is
    // backing off: the upsert retries and succeeds — replaying an
    // upsert is safe by construction.
    drop_replies.store(true, Ordering::Release);
    let healer = {
        let flag = Arc::clone(&drop_replies);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(false, Ordering::Release);
        })
    };
    client
        .upsert("KV", vec![Scalar::from("a"), Scalar::Int(1)])
        .unwrap();
    healer.join().unwrap();

    assert_eq!(cache.table_len("KV").unwrap(), 1);
    assert!(client.reconnect_count() >= 1);
    // Reads are idempotent too: a select across a cut reply retries.
    drop_replies.store(true, Ordering::Release);
    let healer = {
        let flag = Arc::clone(&drop_replies);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(false, Ordering::Release);
        })
    };
    assert_eq!(client.select("select * from KV").unwrap().len(), 1);
    healer.join().unwrap();
    drop(client);
    server.shutdown();
}
