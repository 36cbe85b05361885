//! Property-based tests spanning the workspace: data-model invariants,
//! language/VM equivalence with a reference evaluator, wire-format round
//! trips and query-window algebra.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use gapl::event::{AttrType, Scalar, Schema, Tuple};
use gapl::vm::{RecordingHost, Vm};
use pscache::{CacheBuilder, Query};
use psrpc::framing;
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage, WireRow};

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    prop_oneof![
        any::<i64>().prop_map(Scalar::Int),
        (-1.0e12f64..1.0e12).prop_map(Scalar::Real),
        any::<u64>().prop_map(Scalar::Tstamp),
        any::<bool>().prop_map(Scalar::Bool),
        "[a-zA-Z0-9 ._:-]{0,40}".prop_map(Scalar::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Framing: any payload survives fragmentation and reassembly, and the
    /// number of fragments matches the documented 1024-byte boundary.
    #[test]
    fn framing_round_trips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let mut wire = Vec::new();
        framing::write_message(&mut wire, &payload).unwrap();
        let mut frags = 0;
        let mut rest = &wire[..];
        while !rest.is_empty() {
            let len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
            let frag = framing::FRAGMENT_HEADER + len;
            prop_assert!(frag <= framing::FRAGMENT_SIZE);
            rest = &rest[frag..];
            frags += 1;
        }
        prop_assert_eq!(frags, framing::fragments_for_len(payload.len()));
        let mut cursor = std::io::Cursor::new(wire);
        let decoded = framing::read_message(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(decoded, payload);
    }

    /// Wire encoding: client messages and server messages round trip for
    /// arbitrary scalar payloads.
    #[test]
    fn rpc_messages_round_trip(
        seq in any::<u64>(),
        table in "[A-Za-z][A-Za-z0-9_]{0,12}",
        values in proptest::collection::vec(arb_scalar(), 0..8),
        upsert in any::<bool>(),
        tokened in any::<bool>(),
        client_id in any::<u64>(),
        token_seq in any::<u64>(),
    ) {
        let msg = ClientMessage {
            seq,
            token: tokened.then_some((client_id, token_seq)),
            trace: upsert.then_some(client_id ^ token_seq),
            request: Request::Insert { table: table.clone(), values: values.clone(), upsert },
        };
        prop_assert_eq!(ClientMessage::decode(&msg.encode()).unwrap(), msg);

        let reply = ServerMessage::Reply {
            seq,
            reply: CacheReply::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![WireRow { values, tstamp: seq }],
            },
        };
        prop_assert_eq!(ServerMessage::decode(&reply.encode()).unwrap(), reply);
    }

    /// The GAPL lexer + parser + compiler + VM agree with a reference
    /// evaluator on left-folded integer arithmetic.
    #[test]
    fn vm_arithmetic_matches_reference(
        first in -1000i64..1000,
        rest in proptest::collection::vec((0usize..3, -1000i64..1000), 0..12),
    ) {
        let mut source_expr = format!("{first}");
        let mut expected = first;
        for (op, value) in &rest {
            let (symbol, result) = match op {
                0 => ("+", expected.checked_add(*value)),
                1 => ("-", expected.checked_sub(*value)),
                _ => ("*", expected.checked_mul(*value)),
            };
            // Keep the reference within range; overflow is tested separately.
            let Some(result) = result else { return Ok(()) };
            expected = result;
            source_expr = format!("({source_expr}) {symbol} ({value})");
        }
        let source = format!(
            "subscribe t to Timer; int x; behavior {{ x = {source_expr}; }}"
        );
        let program = Arc::new(gapl::compile(&source).unwrap());
        let mut vm = Vm::new(program);
        let mut host = RecordingHost::default();
        let timer_schema = Arc::new(Schema::new("Timer", vec![("tstamp", AttrType::Tstamp)]).unwrap());
        let tick = Tuple::new(timer_schema, vec![Scalar::Tstamp(0)], 0).unwrap();
        vm.run_behavior("Timer", &tick, &mut host).unwrap();
        prop_assert_eq!(vm.local("x").unwrap().as_int(), Some(expected));
    }

    /// Ephemeral tables behave like a sliding suffix: after inserting any
    /// sequence, a scan returns exactly the last `capacity` tuples, in
    /// order.
    #[test]
    fn ephemeral_tables_retain_the_suffix(
        values in proptest::collection::vec(-10_000i64..10_000, 1..120),
        capacity in 1usize..32,
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache
            .execute(&format!("create table S (v integer) capacity {capacity}"))
            .unwrap();
        for v in &values {
            cache.manual_clock().unwrap().advance(1);
            cache.insert("S", vec![Scalar::Int(*v)]).unwrap();
        }
        let rows = cache.select(&Query::new("S")).unwrap();
        let got: Vec<i64> = rows.rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        let expected: Vec<i64> = values
            .iter()
            .copied()
            .skip(values.len().saturating_sub(capacity))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// `since τ` batches partition the stream: polling after each insert
    /// returns every tuple exactly once, in order.
    #[test]
    fn since_batches_partition_the_stream(
        values in proptest::collection::vec(-100i64..100, 1..60),
        poll_every in 1usize..7,
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache.execute("create table S (v integer)").unwrap();
        let mut tau = 0u64;
        let mut collected = Vec::new();
        for (i, v) in values.iter().enumerate() {
            cache.manual_clock().unwrap().advance(3);
            cache.insert("S", vec![Scalar::Int(*v)]).unwrap();
            if i % poll_every == 0 {
                let batch = cache.select(&Query::new("S").since(tau)).unwrap();
                tau = batch.max_tstamp().unwrap_or(tau);
                collected.extend(batch.rows.iter().map(|r| r.values[0].as_int().unwrap()));
            }
        }
        let batch = cache.select(&Query::new("S").since(tau)).unwrap();
        collected.extend(batch.rows.iter().map(|r| r.values[0].as_int().unwrap()));
        prop_assert_eq!(collected, values);
    }

    /// The indexed `since τ` path (binary search over the time-ordered
    /// suffix of an ephemeral table, including buffer wrap-around and
    /// duplicate timestamps) returns byte-identical results to a naive
    /// filter of the full scan.
    #[test]
    fn indexed_since_matches_naive_filter_on_streams(
        advances in proptest::collection::vec(0u64..4, 1..120),
        capacity in 1usize..48,
        tau in 0u64..400,
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache
            .execute(&format!("create table S (v integer) capacity {capacity}"))
            .unwrap();
        for (i, adv) in advances.iter().enumerate() {
            cache.manual_clock().unwrap().advance(*adv);
            cache.insert("S", vec![Scalar::Int(i as i64)]).unwrap();
        }
        let indexed = cache.select(&Query::new("S").since(tau)).unwrap();
        let naive_rows: Vec<_> = cache
            .select(&Query::new("S"))
            .unwrap()
            .rows
            .into_iter()
            .filter(|r| r.tstamp > tau)
            .collect();
        prop_assert_eq!(indexed.rows, naive_rows);
    }

    /// Same property for persistent tables, whose insertion-order log
    /// accumulates stale entries under upserts and compacts itself.
    #[test]
    fn indexed_since_matches_naive_filter_on_relations(
        ops in proptest::collection::vec((0usize..6, 0u64..4, -100i64..100), 1..150),
        tau in 0u64..400,
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache
            .execute("create persistenttable P (k varchar(8) primary key, v integer)")
            .unwrap();
        for (key, adv, v) in &ops {
            cache.manual_clock().unwrap().advance(*adv);
            cache
                .upsert("P", vec![Scalar::from(format!("k{key}")), Scalar::Int(*v)])
                .unwrap();
        }
        let indexed = cache.select(&Query::new("P").since(tau)).unwrap();
        let naive_rows: Vec<_> = cache
            .select(&Query::new("P"))
            .unwrap()
            .rows
            .into_iter()
            .filter(|r| r.tstamp > tau)
            .collect();
        prop_assert_eq!(indexed.rows, naive_rows);
    }

    /// The SQL insert path and the programmatic insert path store identical
    /// tuples for any printable string/int pair.
    #[test]
    fn sql_and_programmatic_inserts_agree(
        text in "[a-zA-Z0-9 ._:-]{0,32}",
        number in -1_000_000i64..1_000_000,
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache.execute("create table T (s varchar(64), n integer)").unwrap();
        cache
            .execute(&format!("insert into T values ('{text}', {number})"))
            .unwrap();
        cache
            .insert("T", vec![Scalar::Str(text.as_str().into()), Scalar::Int(number)])
            .unwrap();
        let rows = cache.select(&Query::new("T")).unwrap();
        prop_assert_eq!(rows.rows.len(), 2);
        prop_assert_eq!(rows.rows[0].values.clone(), rows.rows[1].values.clone());
        prop_assert_eq!(rows.rows[0].values[0].clone(), Scalar::from(text));
    }
}

/// A non-proptest sanity check that the whole pipeline (cache + automaton +
/// windowing) stays consistent under a randomised-but-seeded workload. Kept
/// here because it complements the property tests above.
#[test]
fn randomised_counting_automaton_agrees_with_sql_aggregation() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let cache = CacheBuilder::new().build();
    cache
        .execute("create table Flows (dstip varchar(16), nbytes integer)")
        .unwrap();
    cache
        .execute("create persistenttable Totals (ipaddr varchar(16) primary key, bytes integer)")
        .unwrap();
    let (_id, _rx) = cache
        .register_automaton(
            r#"
            subscribe f to Flows;
            associate t with Totals;
            int n;
            identifier ip;
            behavior {
                ip = Identifier(f.dstip);
                if (hasEntry(t, ip))
                    n = seqElement(lookup(t, ip), 1);
                else
                    n = 0;
                n += f.nbytes;
                insert(t, ip, Sequence(f.dstip, n));
            }
            "#,
        )
        .unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..500 {
        let host = format!("10.0.0.{}", rng.gen_range(1..6));
        let bytes = rng.gen_range(1..10_000i64);
        cache
            .insert("Flows", vec![Scalar::Str(host.into()), Scalar::Int(bytes)])
            .unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    // The automaton-maintained totals equal the SQL aggregation over the
    // raw stream.
    let per_host = cache
        .execute("select dstip, sum(nbytes) from Flows group by dstip")
        .unwrap()
        .rows()
        .unwrap();
    for row in per_host.rows {
        let host = row.values[0].as_str().unwrap().to_owned();
        let expected = row.values[1].as_int().unwrap();
        let stored = cache.lookup("Totals", &host).unwrap().unwrap();
        assert_eq!(stored.values()[1], Scalar::Int(expected), "host {host}");
    }
}

/// One valid encoding of every request and reply shape, tagged with the
/// decoder it belongs to (`true` for [`ClientMessage`]) — including a
/// busy `Metrics` reply: a node's whole snapshot after real traffic.
fn wire_corpus() -> &'static [(bool, Vec<u8>)] {
    static CORPUS: std::sync::OnceLock<Vec<(bool, Vec<u8>)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let cache = CacheBuilder::new().manual_clock().build();
        cache
            .execute("create table T (k varchar(8), v integer)")
            .unwrap();
        let (_id, _notes) = cache
            .register_automaton("subscribe t to T; behavior { if (t.k == 'a') send(t.v); }")
            .unwrap();
        for v in 0..50 {
            let k = if v % 3 == 0 { "a" } else { "b" };
            cache
                .insert("T", vec![Scalar::from(k), Scalar::Int(v)])
                .unwrap();
            cache.execute("select * from T where v > 10").unwrap();
        }
        assert!(cache.quiesce(Duration::from_secs(10)));
        for i in 0..40 {
            cache.obs().record_rpc(pscache::OpTrace {
                trace_id: i,
                kind: pscache::ReqKind::Insert,
                table: Some("T".into()),
                queue_ns: 37 * i,
                exec_ns: 1_000 + 91 * i,
                flush_ns: 10 + i,
            });
        }
        let busy = cache.metrics();
        assert!(!busy.histograms.is_empty() && !busy.counters.is_empty());

        let row = vec![Scalar::from("abc"), Scalar::Int(-7), Scalar::Real(1.5)];
        let requests = [
            Request::Execute {
                command: "select * from T".into(),
            },
            Request::Insert {
                table: "T".into(),
                values: row.clone(),
                upsert: true,
            },
            Request::InsertBatch {
                table: "T".into(),
                rows: vec![row.clone(), vec![Scalar::Tstamp(9), Scalar::Bool(true)]],
                upsert: false,
            },
            Request::RegisterAutomaton {
                source: "subscribe t to T; behavior { }".into(),
            },
            Request::UnregisterAutomaton { id: 3 },
            Request::Ping,
            Request::Metrics,
        ];
        let mut corpus: Vec<(bool, Vec<u8>)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                let msg = ClientMessage {
                    seq: i as u64,
                    token: (i % 2 == 0).then_some((7, i as u64)),
                    trace: (i % 3 == 0).then_some(0xFEED),
                    request,
                };
                (true, msg.encode())
            })
            .collect();
        let replies = [
            CacheReply::Created,
            CacheReply::Inserted {
                replaced: true,
                tstamp: 4,
            },
            CacheReply::InsertedBatch {
                tstamps: vec![1, 2, 3],
            },
            CacheReply::Rows {
                columns: vec!["k".into(), "v".into(), "r".into()],
                rows: vec![WireRow {
                    values: row.clone(),
                    tstamp: 5,
                }],
            },
            CacheReply::Registered { id: 3 },
            CacheReply::Unregistered,
            CacheReply::Pong,
            CacheReply::Error {
                message: "no such table `X`".into(),
            },
            CacheReply::Throttled { retry_after_ms: 9 },
            CacheReply::NotMine { partition: 2 },
            CacheReply::Metrics { snapshot: busy },
        ];
        corpus.extend(replies.into_iter().enumerate().map(|(i, reply)| {
            (
                false,
                ServerMessage::Reply {
                    seq: i as u64,
                    reply,
                }
                .encode(),
            )
        }));
        corpus.push((
            false,
            ServerMessage::Notification {
                automaton: 3,
                values: row,
                at: 11,
            }
            .encode(),
        ));
        corpus
    })
}

/// Feed both decoders; they may accept or reject, never panic.
fn decode_both(bytes: &[u8]) -> (bool, bool) {
    (
        ClientMessage::decode(bytes).is_ok(),
        ServerMessage::decode(bytes).is_ok(),
    )
}

/// Every strict prefix of every valid encoding is rejected by its own
/// decoder — a truncated frame is an error, never a shorter message —
/// and neither decoder panics on it.
#[test]
fn every_truncation_of_a_valid_encoding_is_rejected() {
    for (client, bytes) in wire_corpus() {
        let own =
            |(client_ok, server_ok): (bool, bool)| if *client { client_ok } else { server_ok };
        assert!(own(decode_both(bytes)), "the full encoding must decode");
        for len in 0..bytes.len() {
            assert!(
                !own(decode_both(&bytes[..len])),
                "a {len}-byte prefix of a {}-byte encoding decoded",
                bytes.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoder robustness: arbitrary bytes, truncations and single-bit
    /// flips of valid encodings (a busy `Metrics` reply among them)
    /// make `ClientMessage::decode` and `ServerMessage::decode` return
    /// `Ok` or `Err` — a panic fails the property.
    #[test]
    fn decoders_never_panic_on_hostile_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        pick in 0usize..1024,
        flips in proptest::collection::vec((0usize..1 << 20, 0u32..8), 1..16),
        cut in 0usize..1 << 20,
    ) {
        decode_both(&noise);
        let corpus = wire_corpus();
        let (_, valid) = &corpus[pick % corpus.len()];
        for &(at, bit) in &flips {
            let mut flipped = valid.clone();
            flipped[at % valid.len()] ^= 1 << bit;
            decode_both(&flipped);
            decode_both(&flipped[..cut % (flipped.len() + 1)]);
        }
        // A valid message with garbage appended, and garbage with a
        // valid tag byte in front.
        let mut extended = valid.clone();
        extended.extend_from_slice(&noise);
        decode_both(&extended);
        let mut tagged = valid[..valid.len().min(17)].to_vec();
        tagged.extend_from_slice(&noise);
        decode_both(&tagged);
    }
}
