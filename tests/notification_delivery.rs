//! The notification path's contract, read off the wire: an automaton's
//! `send()` goes from the pool worker that ran it straight into the
//! outbound queue of the connection that registered it, so
//!
//! * unregistration is a fence — every notification the automaton
//!   produced is on the wire before the `Unregistered` reply and none
//!   follows it, with no quiesce in between;
//! * automata pinned to different pool workers deliver into one
//!   connection concurrently, and a multi-fragment notification is still
//!   one contiguous run of fragments on the wire, in per-automaton order.
//!
//! Both hold on the event-driven `ReactorServer` and on the blocking
//! `RpcServer` oracle; every test here reads raw framed bytes so it sees
//! exactly what the socket carried, in the order it carried it.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};

use gapl::event::Scalar;
use psrpc::client::CacheClient;
use psrpc::framing;
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage};
use psrpc::reactor::ReactorServer;
use psrpc::server::RpcServer;
use unipubsub::prelude::*;

/// Run `body` against a fresh cache served by each server flavour.
fn on_both_servers(build: impl Fn() -> pscache::Cache, body: impl Fn(&str, SocketAddr)) {
    let blocking = RpcServer::bind(build(), "127.0.0.1:0").unwrap();
    body("blocking", blocking.local_addr());
    blocking.shutdown();
    let reactor = ReactorServer::bind(build(), "127.0.0.1:0").unwrap();
    body("reactor", reactor.local_addr());
    reactor.shutdown();
}

fn send(stream: &mut TcpStream, seq: u64, request: Request) {
    let msg = ClientMessage {
        seq,
        token: None,
        trace: None,
        request,
    };
    framing::write_message(stream, &msg.encode()).unwrap();
}

/// The next logical message on the wire. A fragment of one message
/// spliced into another fails here, in reassembly or in decoding.
fn next_frame(stream: &mut TcpStream) -> ServerMessage {
    let bytes = framing::read_message(stream)
        .unwrap()
        .expect("the server closed the connection");
    ServerMessage::decode(&bytes).unwrap()
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
        let mut stream = TcpStream::connect(addr).unwrap();
        let id = register(&mut stream, 1, "subscribe t to T; behavior { send(t.v); }");

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
        let mut stream = TcpStream::connect(addr).unwrap();
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
