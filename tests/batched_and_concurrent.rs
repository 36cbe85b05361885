//! Integration tests for the batched insert path and the multi-client
//! RPC server: ordering guarantees under batching, and four concurrent
//! clients inserting into disjoint and shared tables.

use std::time::Duration;

use gapl::event::Scalar;
use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;
use unipubsub::prelude::*;

/// A batched insert delivers exactly the same stream — same tuples, same
/// order — as the equivalent sequence of single inserts, both to ad hoc
/// queries and to a subscribed automaton.
#[test]
fn batched_inserts_preserve_sequential_order() {
    let single = CacheBuilder::new().build();
    let batched = CacheBuilder::new().build();
    for cache in [&single, &batched] {
        cache
            .execute("create table S (v integer, tag varchar(8))")
            .unwrap();
    }
    let (_id_s, rx_s) = single
        .register_automaton("subscribe s to S; behavior { send(s.v); }")
        .unwrap();
    let (_id_b, rx_b) = batched
        .register_automaton("subscribe s to S; behavior { send(s.v); }")
        .unwrap();

    let rows: Vec<Vec<Scalar>> = (0..500)
        .map(|i| vec![Scalar::Int(i), Scalar::Str(format!("r{i}").into())])
        .collect();
    for row in rows.clone() {
        single.insert("S", row).unwrap();
    }
    batched.insert_batch("S", rows).unwrap();

    assert!(single.quiesce(Duration::from_secs(10)));
    assert!(batched.quiesce(Duration::from_secs(10)));

    // The automata saw identical streams.
    let seen_single: Vec<i64> = rx_s
        .try_iter()
        .map(|n| n.values[0].as_int().unwrap())
        .collect();
    let seen_batched: Vec<i64> = rx_b
        .try_iter()
        .map(|n| n.values[0].as_int().unwrap())
        .collect();
    assert_eq!(seen_single, seen_batched);
    assert_eq!(seen_batched, (0..500).collect::<Vec<_>>());

    // Scans return identical tuples in identical order.
    let scan = |cache: &Cache| -> Vec<(i64, String)> {
        cache
            .select(&Query::new("S"))
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                (
                    r.values[0].as_int().unwrap(),
                    r.values[1].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    };
    assert_eq!(scan(&single), scan(&batched));
}

/// Batches are atomic with respect to `since τ` windows: every row of a
/// batch carries the same insertion timestamp, so windowed polling never
/// observes half a batch.
#[test]
fn since_windows_never_split_a_batch() {
    let cache = CacheBuilder::new().manual_clock().build();
    cache.execute("create table S (v integer)").unwrap();
    let mut tau = 0;
    let mut collected = Vec::new();
    for batch_no in 0..10i64 {
        cache.manual_clock().unwrap().advance(100);
        let rows: Vec<Vec<Scalar>> = (0..37)
            .map(|i| vec![Scalar::Int(batch_no * 37 + i)])
            .collect();
        let tstamps = cache.insert_batch("S", rows).unwrap();
        assert!(tstamps.windows(2).all(|w| w[0] == w[1]));
        let window = cache.select(&Query::new("S").since(tau)).unwrap();
        assert_eq!(window.len() % 37, 0, "a window split a batch");
        tau = window.max_tstamp().unwrap_or(tau);
        collected.extend(window.rows.iter().map(|r| r.values[0].as_int().unwrap()));
    }
    assert_eq!(collected, (0..370).collect::<Vec<_>>());
}

/// Four clients hammer four disjoint tables over TCP concurrently; every
/// table ends up with exactly its own client's tuples, in that client's
/// submission order.
#[test]
fn four_concurrent_clients_on_disjoint_tables() {
    let cache = CacheBuilder::new().build();
    for c in 0..4 {
        cache
            .execute(&format!("create table D{c} (v integer)"))
            .unwrap();
    }
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let per_client = 300usize;

    let handles: Vec<_> = (0..4usize)
        .map(|c| {
            std::thread::spawn(move || {
                let client = CacheClient::connect(addr).unwrap();
                for i in 0..per_client {
                    // Mix single and batched inserts to cross the paths.
                    if i % 50 == 0 {
                        client
                            .insert_batch(&format!("D{c}"), vec![vec![Scalar::Int(i as i64)]])
                            .unwrap();
                    } else {
                        client
                            .insert(&format!("D{c}"), vec![Scalar::Int(i as i64)])
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    for c in 0..4 {
        let rows = cache.select(&Query::new(format!("D{c}"))).unwrap();
        let got: Vec<i64> = rows
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, (0..per_client as i64).collect::<Vec<_>>());
    }
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(stats.requests_served, 4 * per_client as u64);
    server.shutdown();
}

/// Four clients insert into one shared table concurrently. The total is
/// exact, per-table order is a legal interleaving (each client's rows
/// appear in its own submission order), and batches never interleave
/// with other writers' tuples.
#[test]
fn four_concurrent_clients_on_a_shared_table() {
    let cache = CacheBuilder::new().build();
    cache
        .execute("create table Shared (client integer, v integer) capacity 100000")
        .unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let batches_per_client = 30usize;
    let batch_size = 20usize;

    let handles: Vec<_> = (0..4i64)
        .map(|c| {
            std::thread::spawn(move || {
                let client = CacheClient::connect(addr).unwrap();
                for b in 0..batches_per_client {
                    let rows: Vec<Vec<Scalar>> = (0..batch_size)
                        .map(|i| vec![Scalar::Int(c), Scalar::Int((b * batch_size + i) as i64)])
                        .collect();
                    client.insert_batch("Shared", rows).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();

    let rows = cache.select(&Query::new("Shared")).unwrap();
    assert_eq!(rows.len(), 4 * batches_per_client * batch_size);

    let stream: Vec<(i64, i64)> = rows
        .rows
        .iter()
        .map(|r| (r.values[0].as_int().unwrap(), r.values[1].as_int().unwrap()))
        .collect();
    // Per-client order is preserved within the interleaving...
    for c in 0..4 {
        let vals: Vec<i64> = stream
            .iter()
            .filter(|(cl, _)| *cl == c)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(
            vals,
            (0..(batches_per_client * batch_size) as i64).collect::<Vec<_>>(),
            "client {c} rows out of order"
        );
    }
    // ...and every batch is contiguous: a run of `batch_size` rows from
    // one client is never interrupted by another client's tuple.
    for chunk in stream.chunks(batch_size) {
        assert!(
            chunk.iter().all(|(c, _)| *c == chunk[0].0),
            "a batch was interleaved: {chunk:?}"
        );
    }
}

/// Notifications from automata registered by different clients are routed
/// back to the right client by the shared fan-out.
#[test]
fn notifications_route_to_the_registering_client() {
    let cache = CacheBuilder::new().build();
    cache.execute("create table N (v integer)").unwrap();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let even_watcher = CacheClient::connect(addr).unwrap();
    let odd_watcher = CacheClient::connect(addr).unwrap();
    let writer = CacheClient::connect(addr).unwrap();
    let even_id = even_watcher
        .register_automaton("subscribe n to N; behavior { if ((n.v % 2) == 0) send(n.v); }")
        .unwrap();
    let odd_id = odd_watcher
        .register_automaton("subscribe n to N; behavior { if ((n.v % 2) == 1) send(n.v); }")
        .unwrap();

    writer
        .insert_batch("N", (0..20).map(|i| vec![Scalar::Int(i)]).collect())
        .unwrap();

    let collect = |client: &CacheClient, n: usize| -> Vec<(u64, i64)> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut notes = Vec::new();
        while notes.len() < n && std::time::Instant::now() < deadline {
            if let Ok(note) = client
                .notifications()
                .recv_timeout(Duration::from_millis(50))
            {
                notes.push((note.automaton, note.values[0].as_int().unwrap()));
            }
        }
        notes
    };
    let evens = collect(&even_watcher, 10);
    let odds = collect(&odd_watcher, 10);
    assert_eq!(
        evens,
        (0..20)
            .filter(|v| v % 2 == 0)
            .map(|v| (even_id, v))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        odds,
        (0..20)
            .filter(|v| v % 2 == 1)
            .map(|v| (odd_id, v))
            .collect::<Vec<_>>()
    );
    // Nothing leaked across connections.
    assert!(writer.drain_notifications().is_empty());
    server.shutdown();
}
