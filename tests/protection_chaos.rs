//! Chaos suite for the production protection layer: admission control
//! under a flooding client, slow-consumer eviction, and exactly-once
//! retries across the two hardest windows — a primary crash-recovery
//! and a failover promotion.
//!
//! Invariants under attack:
//!
//! * a client that floods far past its rate quota is answered with
//!   typed `Throttled` rejections at the reactor — it cannot starve
//!   well-behaved clients (≥ 50% of their isolated throughput) and it
//!   cannot starve the health probe (every probe answers fast, because
//!   the reactor thread answers `Metrics` inline);
//! * an automaton wedged in a long run holds up nobody but the
//!   connection that waits on its unregistration: not an RPC worker, not
//!   another connection, not a disconnect's teardown, not a shutdown;
//! * a client that registers an automaton and then stops draining its
//!   socket is evicted once its outbox passes the configured bound —
//!   bounded memory per connection, neighbours unaffected;
//! * an idempotency token survives everything the server can survive:
//!   a reply lost at the proxy resolves exactly-once even when the
//!   server crashes and recovers from its WAL in between, and even
//!   when a follower replica is promoted and the retry lands on the
//!   *new* primary. Zero `MaybeApplied`, zero duplicates.

mod support;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, ClientPolicy};
use psrpc::client::{CacheClient, ReconnectPolicy};
use psrpc::framing;
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use support::{connect, next_frame, send};
use unipubsub::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pscache-protect-chaos-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Block until `follower` has applied everything `primary` committed.
fn converge(primary: &Cache, follower: &Cache, timeout: Duration) {
    assert!(
        wait_until(timeout, || follower.replica_lsn() >= primary.commit_lsn()),
        "follower stuck at lsn {} with primary at {}",
        follower.replica_lsn(),
        primary.commit_lsn()
    );
}

// ---------------------------------------------------------------------
// Admission control: a flooding client cannot starve its neighbours.
// ---------------------------------------------------------------------

/// `count` inserts, self-paced below the per-client quota; returns the
/// elapsed wall time. Every insert must succeed — a well-behaved client
/// must never see a throttle rejection.
fn paced_inserts(client: &CacheClient, count: usize, interval: Duration) -> Duration {
    let started = Instant::now();
    for i in 0..count {
        client
            .insert("T", vec![Scalar::Int(i as i64)])
            .expect("a well-behaved client was rejected");
        std::thread::sleep(interval);
    }
    started.elapsed()
}

#[test]
fn a_flooding_client_is_throttled_while_neighbours_and_health_stay_responsive() {
    const PACED: usize = 150;
    const INTERVAL: Duration = Duration::from_millis(4); // 250 req/s, half the quota

    let cache = CacheBuilder::new()
        .client_policy(ClientPolicy {
            max_requests_per_sec: 500,
            burst: 100,
            ..ClientPolicy::default()
        })
        .build();
    cache
        .execute("create table T (v integer) capacity 256")
        .unwrap();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Baseline: one well-behaved client alone on the server.
    let isolated = paced_inserts(&CacheClient::connect(addr).unwrap(), PACED, INTERVAL);

    // Flood phase: one hostile client pipelines inserts as fast as the
    // socket accepts them (~10x the quota), bypassing the blocking
    // client's self-pacing by managing its own pipeline.
    let stop = Arc::new(AtomicBool::new(false));
    let throttled = Arc::new(AtomicU64::new(0));
    let flooder = {
        let (stop, throttled) = (Arc::clone(&stop), Arc::clone(&throttled));
        std::thread::spawn(move || {
            let client = CacheClient::connect(addr).unwrap();
            let mut pendings = std::collections::VecDeque::new();
            while !stop.load(Ordering::Acquire) {
                if let Ok(p) = client.begin_request(Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(-1)],
                    upsert: false,
                }) {
                    pendings.push_back(p);
                }
                while pendings.len() > 64 {
                    if let Ok(CacheReply::Throttled { .. }) = pendings.pop_front().unwrap().wait() {
                        throttled.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            for p in pendings {
                if let Ok(CacheReply::Throttled { .. }) = p.wait() {
                    throttled.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    // Health probe thread: every probe must answer fast *during* the
    // flood — the reactor answers Metrics inline, off the worker pool.
    let probe = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = CacheClient::connect(addr).unwrap();
            let mut worst = Duration::ZERO;
            while !stop.load(Ordering::Acquire) {
                let started = Instant::now();
                client.health().expect("health must answer during a flood");
                worst = worst.max(started.elapsed());
                std::thread::sleep(Duration::from_millis(5));
            }
            worst
        })
    };

    // Four well-behaved clients, each paced at half its own quota.
    let flooded = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    paced_inserts(&CacheClient::connect(addr).unwrap(), PACED, INTERVAL)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .max()
            .unwrap()
    });
    stop.store(true, Ordering::Release);
    flooder.join().unwrap();
    let worst_probe = probe.join().unwrap();

    // The flooder was rejected, the counters saw it, and the rejections
    // never consumed a worker.
    assert!(
        throttled.load(Ordering::Acquire) > 0,
        "the flooder was never throttled"
    );
    let stats = server.stats();
    assert!(
        stats.rpc_requests_throttled > 0,
        "throttle rejections missing from the counters: {stats:?}"
    );

    // Fairness: ≥ 50% of isolated throughput, i.e. at most 2x the wall
    // time for the same paced workload.
    assert!(
        flooded <= isolated * 2,
        "well-behaved clients starved by the flood: isolated {isolated:?}, flooded {flooded:?}"
    );
    // Readiness: the worst probe stayed under the load-balancer budget.
    assert!(
        worst_probe < Duration::from_millis(100),
        "a health probe took {worst_probe:?} during the flood"
    );
    server.shutdown();
}

/// Send `request` and return its reply, the next frame on the stream.
fn call_raw(stream: &mut TcpStream, seq: u64, request: Request) -> CacheReply {
    send(stream, seq, request);
    match next_frame(stream) {
        ServerMessage::Reply { seq: got, reply } if got == seq => reply,
        other => panic!("unexpected frame: {other:?}"),
    }
}

/// Assert that `op` answers within a second.
fn within_a_second<T>(what: &str, op: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = op();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{what} took {took:?}");
    out
}

/// Spins for `t.ms` milliseconds of wall clock, then returns: the loop
/// is bounded, so the node still shuts down cleanly.
const SPINNER: &str = "subscribe t to Spin; tstamp start; behavior { start = tstampNow(); \
     while (tstampDiff(tstampNow(), start) < t.ms * 1000000) { } }";

/// An unregistration waiting on a wedged automaton holds no RPC worker.
/// The only automaton worker is busy in a bounded GAPL loop when the only
/// RPC worker receives an unregister of that automaton: the connection
/// parks on the automaton's drain and the worker is free at once
/// (`rpc_worker_busy` reads 0). While the wedge holds, a second
/// connection's insert, select, `server_stats()` and `health()` each
/// answer within a second, and the owner hears nothing; when the loop
/// ends, the owner's `Unregistered` reply arrives first and the ping
/// pipelined behind it second.
#[test]
fn an_unregister_parked_on_a_wedged_automaton_holds_no_worker() {
    const SPIN_MS: i64 = 4_000;
    const UNREGISTER: u64 = 3;
    const PING: u64 = 4;
    let cache = CacheBuilder::new()
        .rpc_workers(1)
        .automaton_workers(1)
        .build();
    cache.execute("create table Spin (ms integer)").unwrap();
    cache.execute("create table T (v integer)").unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let mut owner = connect(server.local_addr());
    let registered = call_raw(
        &mut owner,
        1,
        Request::RegisterAutomaton {
            source: SPINNER.into(),
        },
    );
    let CacheReply::Registered { id: spinner } = registered else {
        panic!("unexpected registration reply: {registered:?}");
    };
    let spin = Request::Insert {
        table: "Spin".into(),
        values: vec![Scalar::Int(SPIN_MS)],
        upsert: false,
    };
    assert!(matches!(
        call_raw(&mut owner, 2, spin),
        CacheReply::Inserted { .. }
    ));
    send(
        &mut owner,
        UNREGISTER,
        Request::UnregisterAutomaton { id: spinner },
    );
    send(&mut owner, PING, Request::Ping);
    // Detached, and the worker that detached it is already free.
    assert!(
        wait_until(Duration::from_secs(2), || {
            cache.automata().is_empty() && server.stats().rpc_worker_busy == 0
        }),
        "the unregister still holds the worker: {:?}",
        server.stats()
    );

    let probe = CacheClient::connect(server.local_addr()).unwrap();
    within_a_second("an insert", || {
        probe.insert("T", vec![Scalar::Int(1)]).unwrap()
    });
    let rows = within_a_second("a select", || probe.select("select * from T").unwrap());
    assert_eq!(rows.len(), 1);
    let stats = within_a_second("server_stats", || probe.server_stats().unwrap());
    let health = within_a_second("health", || probe.health().unwrap());
    assert_eq!(stats.rpc_worker_busy, 0);
    assert_eq!((health.rpc_worker_busy, health.rpc_workers), (0, 1));
    // The wedge held throughout: nothing has come back to the owner.
    owner
        .set_read_timeout(Some(Duration::from_millis(1)))
        .unwrap();
    assert!(
        owner.peek(&mut [0u8; 1]).is_err(),
        "the wedge cleared before the probes were answered"
    );
    owner
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    match next_frame(&mut owner) {
        ServerMessage::Reply { seq, reply } => {
            assert_eq!((seq, reply), (UNREGISTER, CacheReply::Unregistered));
        }
        other => panic!("unexpected frame: {other:?}"),
    }
    match next_frame(&mut owner) {
        ServerMessage::Reply { seq, reply } => assert_eq!((seq, reply), (PING, CacheReply::Pong)),
        other => panic!("unexpected frame: {other:?}"),
    }
    drop(probe);
    server.shutdown();
}

/// Releases the held spinner below when dropped, so a failing test does
/// not leave a pool worker spinning out its cap.
struct Release(Cache);

impl Drop for Release {
    fn drop(&mut self) {
        let _ = self
            .0
            .upsert("Release", vec![Scalar::Str("go".into()), Scalar::Int(1)]);
    }
}

/// Neither a disconnect nor a shutdown waits on an automaton. The only
/// automaton worker spins until released; a client with three automata
/// pinned to it disconnects, and its connection is gone within a second
/// while a second connection is served. A third connection is parked on
/// the unregistration of a fourth automaton behind the spin, so the
/// shutdown's force-sweep must tear it down: `ReactorServer::shutdown`
/// returns within its five-second drain grace plus one second, with the
/// automaton still spinning.
#[test]
fn a_disconnect_and_a_shutdown_never_wait_on_a_wedged_automaton() {
    /// The held spin's own cap: far past the test's end.
    const CAP_MS: i64 = 20_000;
    /// `reactor::DRAIN_GRACE` plus one second.
    const SHUTDOWN_BOUND: Duration = Duration::from_secs(6);
    let cache = CacheBuilder::new()
        .rpc_workers(1)
        .automaton_workers(1)
        .build();
    cache.execute("create table Spin (ms integer)").unwrap();
    cache.execute("create table T (v integer)").unwrap();
    cache
        .execute("create persistenttable Release (k varchar(8) primary key, v integer)")
        .unwrap();
    let release = Release(cache.clone());
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let owner = CacheClient::connect(addr).unwrap();
    owner
        .register_automaton(
            "subscribe t to Spin; associate r with Release; tstamp start; behavior { \
             start = tstampNow(); while (!hasEntry(r, 'go') && \
             tstampDiff(tstampNow(), start) < t.ms * 1000000) { } }",
        )
        .unwrap();
    for _ in 0..2 {
        owner
            .register_automaton("subscribe t to T; behavior { send(t.v); }")
            .unwrap();
    }
    owner.insert("Spin", vec![Scalar::Int(CAP_MS)]).unwrap();
    let spin_started = Instant::now();

    let mut parked = connect(addr);
    let registered = call_raw(
        &mut parked,
        1,
        Request::RegisterAutomaton {
            source: "subscribe t to T; behavior { }".into(),
        },
    );
    let CacheReply::Registered { id: fourth } = registered else {
        panic!("unexpected registration reply: {registered:?}");
    };
    send(&mut parked, 2, Request::UnregisterAutomaton { id: fourth });
    assert!(
        wait_until(Duration::from_secs(2), || {
            !cache.automata().contains(&AutomatonId(fourth)) && server.stats().rpc_worker_busy == 0
        }),
        "the unregister still holds the worker: {:?}",
        server.stats()
    );

    let probe = CacheClient::connect(addr).unwrap();
    assert_eq!(probe.server_stats().unwrap().connections_active, 3);
    drop(owner);
    assert!(
        wait_until(Duration::from_secs(1), || {
            server.stats().connections_active == 2
        }),
        "the disconnect waited on the wedge: {:?}",
        server.stats()
    );
    assert!(cache.automata().is_empty());
    within_a_second("an insert", || {
        probe.insert("T", vec![Scalar::Int(1)]).unwrap()
    });
    within_a_second("a select", || probe.select("select * from T").unwrap());
    within_a_second("metrics", || probe.metrics().unwrap());

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < SHUTDOWN_BOUND, "shutdown took {took:?}");
    assert!(
        spin_started.elapsed() < Duration::from_millis(CAP_MS as u64),
        "the spin ended before the shutdown returned"
    );
    // Force-closed without a reply.
    assert_eq!(parked.read(&mut [0u8; 1]).unwrap(), 0);
    drop(release);
    cache.shutdown();
}

// ---------------------------------------------------------------------
// Slow-consumer eviction: bounded outbox per connection.
// ---------------------------------------------------------------------

#[test]
fn a_consumer_that_stops_draining_notifications_is_evicted() {
    const AUTOMATA: usize = 4;
    let cache = CacheBuilder::new()
        .client_policy(ClientPolicy {
            max_outbox_bytes: 64 * 1024,
            ..ClientPolicy::default()
        })
        .automaton_workers(AUTOMATA)
        .build();
    cache
        .execute("create table T (v varchar(4000)) capacity 64")
        .unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();

    // A raw client registers one automaton per pool worker (ids are
    // consecutive and pinned `id mod workers`), so every worker delivers
    // into the same outbox concurrently; it reads the registration
    // replies... and then never reads again.
    let raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = raw.try_clone().unwrap();
    let mut reader = raw.try_clone().unwrap();
    for seq in 1..=AUTOMATA as u64 {
        let msg = ClientMessage {
            seq,
            token: None,
            trace: None,
            request: Request::RegisterAutomaton {
                source: "subscribe t to T; behavior { send(t.v); }".into(),
            },
        }
        .encode();
        framing::write_message(&mut writer, &msg).unwrap();
        let reply = framing::read_message(&mut reader).unwrap().unwrap();
        match ServerMessage::decode(&reply).unwrap() {
            ServerMessage::Reply {
                reply: CacheReply::Registered { .. },
                ..
            } => {}
            other => panic!("unexpected registration reply: {other:?}"),
        }
    }
    assert_eq!(cache.automata().len(), AUTOMATA);

    // A firehose fills the dead consumer's outbox: ~4 MB of notification
    // payload against a 64 KB bound (the kernel socket buffers absorb
    // the first chunk; the outbox takes the rest).
    let firehose = CacheClient::connect(server.local_addr()).unwrap();
    let blob = "x".repeat(2_000);
    for _ in 0..20 {
        firehose
            .insert_batch(
                "T",
                (0..100)
                    .map(|_| vec![Scalar::from(blob.as_str())])
                    .collect(),
            )
            .unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    // The reactor evicts the connection and tears down its automaton;
    // the firehose client is unaffected.
    assert!(
        wait_until(Duration::from_secs(10), || cache.automata().is_empty()),
        "the slow consumer was not evicted (automata: {:?})",
        cache.automata()
    );
    assert!(wait_until(Duration::from_secs(10), || {
        server.stats().connections_active == 1
    }));
    assert_eq!(firehose.select("select * from T").unwrap().len(), 64);
    // Four workers pushed the outbox past its bound at about the same
    // moment; the connection was evicted once, and counted once.
    let health = firehose.health().unwrap();
    assert_eq!(health.slow_consumer_evictions, 1);
    assert_eq!(health.automaton_unregistrations, AUTOMATA as u64);
    drop(raw);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Exactly-once across crash recovery and failover.
// ---------------------------------------------------------------------

/// A reply-dropping TCP proxy whose upstream can be *swapped* while
/// clients are reconnecting through it — the shape of a load balancer
/// in front of a failing-over pair. While `drop_replies` is set, the
/// next server->client read is swallowed and the connection killed.
/// An unreachable upstream drops the client connection (which will
/// retry) instead of killing the proxy.
fn switchable_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<Mutex<SocketAddr>>, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let upstream = Arc::new(Mutex::new(upstream));
    let drop_replies = Arc::new(AtomicBool::new(false));
    let (target, flag) = (Arc::clone(&upstream), Arc::clone(&drop_replies));
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client_sock) = conn else { break };
            let current = *target.lock().unwrap();
            let Ok(server_sock) = TcpStream::connect(current) else {
                continue; // upstream mid-failover: drop the client, it retries
            };
            // When either direction dies, kill BOTH sockets outright.
            // try_clone'd halves keep the underlying connection open, so
            // a bare `break` would leave the client talking to a proxy
            // whose upstream is gone — a half-open connection the client
            // would wait on forever instead of redialling.
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
                let _ = up_read.shutdown(Shutdown::Both);
                let _ = up_write.shutdown(Shutdown::Both);
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
                                break;
                            }
                            if down_write.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = down_write.shutdown(Shutdown::Both);
                let _ = down_read.shutdown(Shutdown::Both);
            });
        }
    });
    (addr, upstream, drop_replies)
}

fn reconnecting(addr: SocketAddr) -> CacheClient {
    CacheClient::connect_reconnecting(
        addr.to_string(),
        ReconnectPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            // A retry that cannot resolve within 30s is a test failure;
            // the deadline turns a wedged server into a visible error
            // instead of a hung suite.
            deadline: Some(Duration::from_secs(30)),
        },
    )
    .unwrap()
}

#[test]
fn a_token_replay_resolves_exactly_once_across_crash_recovery() {
    let dir = scratch("crash");
    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let (proxy_addr, upstream, drop_replies) = switchable_proxy(server.local_addr());
    let client = reconnecting(proxy_addr);

    client
        .insert("KV", vec![Scalar::from("a"), Scalar::Int(1)])
        .unwrap();

    // Swallow the next reply; while the client is redialling, restart
    // the server from its WAL and point the proxy at the reincarnation.
    drop_replies.store(true, Ordering::Release);
    let restart = {
        let (upstream, flag) = (Arc::clone(&upstream), Arc::clone(&drop_replies));
        let dir = dir.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            server.shutdown();
            cache.shutdown();
            drop(cache);
            let cache = CacheBuilder::new().durability(&dir).open().unwrap();
            let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
            *upstream.lock().unwrap() = server.local_addr();
            flag.store(false, Ordering::Release);
            (cache, server)
        })
    };

    // The WAL carries the token alongside the insert, so the retry
    // lands on the recovered server and dedups: were the insert
    // re-executed instead, the duplicate primary key would error and
    // this unwrap would panic.
    client
        .insert("KV", vec![Scalar::from("b"), Scalar::Int(2)])
        .unwrap();
    let (cache, server) = restart.join().unwrap();

    assert_eq!(cache.table_len("KV").unwrap(), 2);
    assert_eq!(
        cache.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    assert!(client.reconnect_count() >= 1);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_token_replay_resolves_exactly_once_across_failover_promotion() {
    let dir_p = scratch("failover-primary");
    let dir_f = scratch("failover-follower");
    let primary = CacheBuilder::new()
        .durability(&dir_p)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    let follower = CacheBuilder::new()
        .durability(&dir_f)
        .follow(&repl_addr)
        .open()
        .unwrap();

    let server_p = ReactorServer::bind(primary.clone(), "127.0.0.1:0").unwrap();
    let (proxy_addr, upstream, drop_replies) = switchable_proxy(server_p.local_addr());
    let client = reconnecting(proxy_addr);

    client
        .insert("KV", vec![Scalar::from("a"), Scalar::Int(1)])
        .unwrap();
    converge(&primary, &follower, Duration::from_secs(10));

    // Swallow the next reply, then fail over: wait for the doomed
    // write's frame (token included) to reach the follower, kill the
    // primary, promote, and swap the proxy to the new primary.
    drop_replies.store(true, Ordering::Release);
    let failover = {
        let (upstream, flag) = (Arc::clone(&upstream), Arc::clone(&drop_replies));
        let (primary, follower) = (primary.clone(), follower.clone());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            converge(&primary, &follower, Duration::from_secs(10));
            server_p.shutdown();
            primary.shutdown();
            drop(primary);
            follower.promote().unwrap();
            let server = ReactorServer::bind(follower, "127.0.0.1:0").unwrap();
            *upstream.lock().unwrap() = server.local_addr();
            flag.store(false, Ordering::Release);
            server
        })
    };

    // The replication stream mirrors the token table, so the promoted
    // follower recognises the retry: applied exactly once, never
    // MaybeApplied, never a duplicate-key error.
    client
        .insert("KV", vec![Scalar::from("b"), Scalar::Int(2)])
        .unwrap();
    let server_f = failover.join().unwrap();

    assert_eq!(follower.table_len("KV").unwrap(), 2);
    assert_eq!(
        follower.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    assert!(client.reconnect_count() >= 1);

    // The new primary is writable and reports itself ready.
    client
        .insert("KV", vec![Scalar::from("c"), Scalar::Int(3)])
        .unwrap();
    let report = client.health().unwrap();
    assert_eq!(
        report.role_follower, 0,
        "promoted cache still reports follower"
    );
    assert_eq!(follower.table_len("KV").unwrap(), 3);

    drop(client);
    server_f.shutdown();
    let _ = std::fs::remove_dir_all(&dir_p);
    let _ = std::fs::remove_dir_all(&dir_f);
}
