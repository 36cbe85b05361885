//! The notification path's contract, read off the wire: an automaton's
//! `send()` goes from the pool worker that ran it straight into the
//! outbound queue of the connection that registered it, so
//!
//! * unregistration is a fence — every notification the automaton
//!   produced is on the wire before the `Unregistered` reply and none
//!   follows it, with no quiesce in between; when one connection
//!   unregisters another's automaton, the notifications stay on the
//!   registering connection and the reply goes to the one that asked;
//! * automata pinned to different pool workers deliver into one
//!   connection concurrently, and a multi-fragment notification is still
//!   one contiguous run of fragments on the wire, in per-automaton order.
//!
//! Both hold on the event-driven `ReactorServer` and on the blocking
//! request-loop oracle; every test here reads raw framed bytes so it sees
//! exactly what the socket carried, in the order it carried it. The
//! reactor alone has a doorbell, and one test counts its rings: a burst
//! of notifications costs one per drained pool-worker run, not one per
//! notification.

mod support;

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gapl::event::Scalar;
use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use support::{connect, next_frame, send, OracleServer};
use unipubsub::prelude::*;

/// Run `body` against a fresh cache served by each server flavour.
fn on_both_servers(build: impl Fn() -> pscache::Cache, body: impl Fn(&str, SocketAddr)) {
    let blocking = OracleServer::bind(build());
    body("blocking", blocking.local_addr());
    blocking.shutdown();
    let reactor = ReactorServer::bind(build(), "127.0.0.1:0").unwrap();
    body("reactor", reactor.local_addr());
    reactor.shutdown();
}

fn register(stream: &mut TcpStream, seq: u64, source: &str) -> u64 {
    send(
        stream,
        seq,
        Request::RegisterAutomaton {
            source: source.into(),
        },
    );
    match next_frame(stream) {
        ServerMessage::Reply {
            reply: CacheReply::Registered { id },
            ..
        } => id,
        other => panic!("unexpected registration reply: {other:?}"),
    }
}

#[test]
fn every_notification_precedes_the_unregistered_reply_and_none_follows() {
    const K: u64 = 300;
    const UNREGISTER: u64 = K + 2;
    const PING: u64 = K + 3;
    let build = || {
        let cache = CacheBuilder::new().build();
        cache.execute("create table T (v integer)").unwrap();
        cache
    };
    on_both_servers(build, |kind, addr| {
        let mut stream = connect(addr);
        // The first event holds the automaton for 200 ms, so the
        // mailbox is still full when the unregistration arrives.
        let id = register(
            &mut stream,
            1,
            "subscribe t to T; tstamp start; behavior { if (t.v == 0) { \
             start = tstampNow(); while (tstampDiff(tstampNow(), start) < 200000000) { } } \
             send(t.v); }",
        );

        // K inserts, the unregistration and a trailing ping, all written
        // before a single byte is read: the unregistration races events
        // still sitting in the automaton's mailbox.
        for v in 0..K {
            send(
                &mut stream,
                2 + v,
                Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(v as i64)],
                    upsert: false,
                },
            );
        }
        send(&mut stream, UNREGISTER, Request::UnregisterAutomaton { id });
        send(&mut stream, PING, Request::Ping);

        let mut before = Vec::new();
        let mut after = 0;
        let mut unregistered = false;
        loop {
            match next_frame(&mut stream) {
                ServerMessage::Notification {
                    automaton, values, ..
                } => {
                    assert_eq!(automaton, id);
                    if unregistered {
                        after += 1;
                    } else {
                        before.push(values);
                    }
                }
                ServerMessage::Reply { seq, reply } if seq == UNREGISTER => {
                    assert_eq!(reply, CacheReply::Unregistered, "{kind}");
                    unregistered = true;
                }
                ServerMessage::Reply { seq, reply } if seq == PING => {
                    assert_eq!(reply, CacheReply::Pong, "{kind}");
                    assert!(unregistered, "{kind}: the ping overtook the unregister");
                    break;
                }
                ServerMessage::Reply { reply, .. } => {
                    assert!(matches!(reply, CacheReply::Inserted { .. }), "{kind}");
                }
            }
        }
        let expected: Vec<Vec<Scalar>> = (0..K).map(|v| vec![Scalar::Int(v as i64)]).collect();
        assert_eq!(
            before.len(),
            K as usize,
            "{kind}: notifications ahead of the Unregistered reply"
        );
        assert_eq!(before, expected, "{kind}: per-automaton order");
        assert_eq!(
            after, 0,
            "{kind}: notifications after the Unregistered reply"
        );
    });
}

/// Any connection may unregister any automaton. B unregisters the one A
/// registered, behind B's own inserts into its topic: B gets every
/// `Inserted` and then `Unregistered`, and no notification; A gets every
/// notification and no stray reply — its ping, sent once B holds the
/// reply, is the next thing after the last notification. A's later
/// disconnect is clean: it detaches nothing twice, and B is still
/// served.
#[test]
fn one_connection_unregisters_another_connections_automaton() {
    const K: u64 = 100;
    const UNREGISTER: u64 = K + 1;
    const PING: u64 = K + 2;
    let build = || {
        let cache = CacheBuilder::new().build();
        cache.execute("create table T (v integer)").unwrap();
        cache
    };
    on_both_servers(build, |kind, addr| {
        let mut a = connect(addr);
        let mut b = connect(addr);
        let id = register(&mut a, 1, "subscribe t to T; behavior { send(t.v); }");
        for v in 0..K {
            send(
                &mut b,
                1 + v,
                Request::Insert {
                    table: "T".into(),
                    values: vec![Scalar::Int(v as i64)],
                    upsert: false,
                },
            );
        }
        send(&mut b, UNREGISTER, Request::UnregisterAutomaton { id });
        for seq in 1..=UNREGISTER {
            match next_frame(&mut b) {
                ServerMessage::Reply { seq: got, reply } if got == seq => {
                    if seq == UNREGISTER {
                        assert_eq!(reply, CacheReply::Unregistered, "{kind}");
                    } else {
                        assert!(matches!(reply, CacheReply::Inserted { .. }), "{kind}");
                    }
                }
                other => panic!("{kind}: unexpected frame on B: {other:?}"),
            }
        }

        send(&mut a, 2, Request::Ping);
        for v in 0..K {
            match next_frame(&mut a) {
                ServerMessage::Notification {
                    automaton, values, ..
                } => {
                    assert_eq!(automaton, id, "{kind}");
                    assert_eq!(values, vec![Scalar::Int(v as i64)], "{kind}");
                }
                other => panic!("{kind}: unexpected frame on A: {other:?}"),
            }
        }
        match next_frame(&mut a) {
            ServerMessage::Reply { seq, reply } => {
                assert_eq!((seq, reply), (2, CacheReply::Pong), "{kind}");
            }
            other => panic!("{kind}: unexpected frame on A: {other:?}"),
        }

        drop(a);
        let counters = |b: &mut TcpStream, seq: u64| {
            send(b, seq, Request::Metrics);
            match next_frame(b) {
                ServerMessage::Reply {
                    reply: CacheReply::Metrics { snapshot },
                    ..
                } => (
                    snapshot.counter("connections_active").unwrap(),
                    snapshot.counter("automaton_unregistrations").unwrap(),
                ),
                other => panic!("{kind}: unexpected frame on B: {other:?}"),
            }
        };
        let mut seq = PING;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counters(&mut b, seq).0 != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{kind}: A was never torn down"
            );
            std::thread::sleep(Duration::from_millis(5));
            seq += 1;
        }
        assert_eq!(counters(&mut b, seq + 1), (1, 1), "{kind}");
    });
}

#[test]
fn concurrent_multi_fragment_notifications_never_interleave_on_the_wire() {
    const AUTOMATA: u64 = 8;
    const TICKS: i64 = 150;
    /// Well past two 1,024-byte fragments per notification.
    fn blob(seq: i64) -> String {
        format!("{seq:08}").repeat(320)
    }
    let build = || {
        let cache = CacheBuilder::new().automaton_workers(4).build();
        cache
            .execute("create table T (seq integer, blob varchar(4000)) capacity 64")
            .unwrap();
        cache
    };
    on_both_servers(build, |kind, addr| {
        let mut stream = connect(addr);
        let ids: Vec<u64> = (0..AUTOMATA)
            .map(|i| {
                register(
                    &mut stream,
                    1 + i,
                    "subscribe t to T; behavior { send(t.seq, t.blob); }",
                )
            })
            .collect();

        // Every tick wakes all eight automata, two per pool worker, and
        // each pushes ~2.5 KB at the one subscriber connection.
        let ticker = std::thread::spawn(move || {
            let client = CacheClient::connect(addr).unwrap();
            for seq in 0..TICKS {
                client
                    .insert("T", vec![Scalar::Int(seq), Scalar::from(blob(seq))])
                    .unwrap();
            }
        });

        let mut next_seq: BTreeMap<u64, i64> = ids.iter().map(|&id| (id, 0)).collect();
        for _ in 0..AUTOMATA as i64 * TICKS {
            match next_frame(&mut stream) {
                ServerMessage::Notification {
                    automaton, values, ..
                } => {
                    let expected = next_seq
                        .get_mut(&automaton)
                        .expect("a notification from an unknown automaton");
                    assert_eq!(
                        values,
                        vec![Scalar::Int(*expected), Scalar::from(blob(*expected))],
                        "{kind}: automaton {automaton} out of order or corrupted"
                    );
                    *expected += 1;
                }
                other => panic!("{kind}: unexpected frame {other:?}"),
            }
        }
        assert!(next_seq.values().all(|&seq| seq == TICKS), "{kind}");
        ticker.join().unwrap();
    });
}

/// The doorbell rings once per drained run, not once per append. One
/// pool worker; a gate automaton holds it for ≈ 300 ms on a trigger row
/// while one 100-row batch queues 1,000 events for ten echo automata
/// behind it. The batch's reply reaches the wire while the gate still
/// runs; then all 1,000 notifications arrive in per-automaton order, and
/// the whole exchange — two replies, the gate's notification and the
/// 1,000 echoes — costs at most four rings (one per reply claim, one per
/// drained run), where ringing per append would cost over a thousand.
#[test]
fn a_drained_run_of_notifications_rings_the_doorbell_once() {
    const ECHOES: usize = 10;
    const ROWS: i64 = 100;
    let cache = CacheBuilder::new().automaton_workers(1).build();
    cache.execute("create table Gate (ms integer)").unwrap();
    cache.execute("create table T (v integer)").unwrap();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    // A lost ring strands bytes in the outbox: fail on it, never wait
    // forever for it.
    let mut stream = connect(server.local_addr());
    let gate = register(
        &mut stream,
        1,
        "subscribe g to Gate; tstamp start; behavior { start = tstampNow(); \
         while (tstampDiff(tstampNow(), start) < g.ms * 1000000) { } send(g.ms); }",
    );
    let echoes: Vec<u64> = (0..ECHOES as u64)
        .map(|i| {
            register(
                &mut stream,
                2 + i,
                "subscribe t to T; behavior { send(t.v); }",
            )
        })
        .collect();
    let rings = |stream: &mut TcpStream, seq: u64| {
        send(stream, seq, Request::Metrics);
        match next_frame(stream) {
            ServerMessage::Reply {
                reply: CacheReply::Metrics { snapshot },
                ..
            } => snapshot.counter("rpc_doorbell_rings").unwrap(),
            other => panic!("unexpected metrics reply: {other:?}"),
        }
    };
    let before = rings(&mut stream, 100);

    const TRIGGER: u64 = 101;
    const BATCH: u64 = 102;
    send(
        &mut stream,
        TRIGGER,
        Request::Insert {
            table: "Gate".into(),
            values: vec![Scalar::Int(300)],
            upsert: false,
        },
    );
    send(
        &mut stream,
        BATCH,
        Request::InsertBatch {
            table: "T".into(),
            rows: (0..ROWS).map(|v| vec![Scalar::Int(v)]).collect(),
            upsert: false,
        },
    );
    let mut next_v: BTreeMap<u64, i64> = echoes.iter().map(|&id| (id, 0)).collect();
    let (mut batch_replied, mut gate_done) = (false, false);
    let mut notes = 0;
    while notes < ECHOES * ROWS as usize || !gate_done || !batch_replied {
        match next_frame(&mut stream) {
            ServerMessage::Reply {
                seq: TRIGGER,
                reply,
            } => {
                assert!(matches!(reply, CacheReply::Inserted { .. }), "{reply:?}");
            }
            ServerMessage::Reply { seq: BATCH, reply } => {
                assert!(
                    matches!(reply, CacheReply::InsertedBatch { .. }),
                    "{reply:?}"
                );
                assert!(
                    !gate_done,
                    "the gate finished before the batch was answered"
                );
                batch_replied = true;
            }
            ServerMessage::Notification { automaton, .. } if automaton == gate => {
                gate_done = true;
            }
            ServerMessage::Notification {
                automaton, values, ..
            } => {
                let expected = next_v
                    .get_mut(&automaton)
                    .expect("a notification from an unknown automaton");
                assert_eq!(
                    values,
                    vec![Scalar::Int(*expected)],
                    "automaton {automaton}"
                );
                *expected += 1;
                notes += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(next_v.values().all(|&v| v == ROWS));
    let delta = rings(&mut stream, 103) - before;
    assert!(
        (1..=4).contains(&delta),
        "{delta} doorbell rings for two replies and 1,001 notifications"
    );
    drop(stream);
    server.shutdown();
}
