//! Stress satellites for the pooled, predicate-indexed automaton
//! runtime: a thousand automata served over RPC by concurrent batch
//! inserters, and unregistration under sustained load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use unipubsub::prelude::*;

/// 1,000 automata across 16 topics, 4 concurrent batch-inserting RPC
/// clients. Every delivery is accounted for — `(delivered, processed)`
/// equals the exact number of guard-matching tuples per automaton, so
/// nothing was lost or duplicated — and shutdown completes without a
/// hung pool worker (the test would time out otherwise).
#[test]
fn thousand_automata_sixteen_topics_four_rpc_clients() {
    const TOPICS: usize = 16;
    const AUTOMATA: usize = 1000;
    const CLIENTS: usize = 4;
    const BATCHES_PER_CLIENT: usize = 24;
    const ROWS_PER_BATCH: usize = 50;

    let cache = CacheBuilder::new().build();
    for t in 0..TOPICS {
        cache
            .execute(&format!("create table T{t} (v integer)"))
            .unwrap();
    }
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Automata spread round-robin over topics; each guards on one of
    // ten values, so exactly 1/10th of a topic's tuples match it.
    let mut automata = Vec::with_capacity(AUTOMATA);
    for a in 0..AUTOMATA {
        let (id, rx) = cache
            .register_automaton(&format!(
                "subscribe t to T{}; behavior {{ if (t.v == {}) send(t.v); }}",
                a % TOPICS,
                a % 10
            ))
            .unwrap();
        automata.push((id, rx));
    }
    for t in 0..TOPICS {
        assert!(cache.topic_subscriber_count(&format!("T{t}")) >= AUTOMATA / TOPICS);
    }

    // Four clients, each batch-inserting into its own four topics.
    let inserters: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let client = CacheClient::connect(addr).unwrap();
                for b in 0..BATCHES_PER_CLIENT {
                    let topic = c * (TOPICS / CLIENTS) + (b % (TOPICS / CLIENTS));
                    let rows: Vec<Vec<Scalar>> = (0..ROWS_PER_BATCH)
                        .map(|r| vec![Scalar::Int((r % 10) as i64)])
                        .collect();
                    client.insert_batch(&format!("T{topic}"), rows).unwrap();
                }
            })
        })
        .collect();
    for j in inserters {
        j.join().unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(60)));

    // Per topic: (24 / 4) batches × 50 rows = 300 tuples, 30 per value.
    let tuples_per_topic = (BATCHES_PER_CLIENT / (TOPICS / CLIENTS)) * ROWS_PER_BATCH;
    let per_automaton = (tuples_per_topic / 10) as u64;
    for (i, (id, rx)) in automata.iter().enumerate() {
        let t = cache.automaton_telemetry(*id).unwrap();
        assert_eq!(
            (t.delivered, t.processed),
            (per_automaton, per_automaton),
            "automaton {i} lost or duplicated deliveries"
        );
        assert_eq!(
            t.skipped_by_prefilter,
            tuples_per_topic as u64 - per_automaton
        );
        assert_eq!(t.queue_depth, 0);
        assert_eq!(rx.try_iter().count() as u64, per_automaton);
    }

    // The aggregate is visible over the wire.
    let client = CacheClient::connect(addr).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.automata_active, AUTOMATA as u64);
    assert_eq!(stats.events_delivered, AUTOMATA as u64 * per_automaton);
    assert_eq!(stats.events_processed, stats.events_delivered);
    assert_eq!(
        stats.events_skipped_by_prefilter,
        AUTOMATA as u64 * (tuples_per_topic as u64 - per_automaton)
    );
    assert_eq!(stats.automaton_queue_depth, 0);
    drop(client);

    // Clean teardown: no hung pool worker, no stuck connection.
    server.shutdown();
    cache.shutdown();
}

/// Regression for the unregister-drain fix: unregistering while batch
/// inserters hammer the topic must neither deadlock nor lose the drain
/// ack — every unregister returns promptly, and re-unregistering
/// reports the automaton as gone.
#[test]
fn unregister_under_load_never_deadlocks_or_drops_an_ack() {
    let cache = CacheBuilder::new().build();
    cache.execute("create table Load (v integer)").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let inserters: Vec<_> = (0..2)
        .map(|_| {
            let cache = cache.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let rows: Vec<Vec<Scalar>> = (0..32).map(|i| vec![Scalar::Int(i % 10)]).collect();
                while !stop.load(Ordering::Relaxed) {
                    cache.insert_batch("Load", rows.clone()).unwrap();
                }
            })
        })
        .collect();

    for round in 0..40 {
        let (id, rx) = cache
            .register_automaton("subscribe t to Load; behavior { if (t.v == 7) send(t.v); }")
            .unwrap();
        // Let load flow through the automaton's mailbox.
        std::thread::sleep(Duration::from_millis(2));
        let start = Instant::now();
        cache
            .unregister_automaton(id)
            .expect("unregister must drain the mailbox and be acked");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "round {round}: the drain ack took too long"
        );
        // Drained by processing, never by dropping: notifications from
        // already-enqueued matching events are all present.
        for note in rx.try_iter() {
            assert_eq!(note.values[0], Scalar::Int(7));
        }
        assert!(matches!(
            cache.unregister_automaton(id),
            Err(unipubsub::Error::NoSuchAutomaton { .. })
        ));
    }

    stop.store(true, Ordering::Relaxed);
    for j in inserters {
        j.join().unwrap();
    }
    cache.shutdown();
}
