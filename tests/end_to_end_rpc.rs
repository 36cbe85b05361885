//! Integration test: an application using the cache the way the paper's
//! applications do — over the RPC mechanism, assuming all three roles
//! (populate tables, retrieve data, register automata).

use std::time::Duration;

use gapl::event::Scalar;
use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;
use unipubsub::prelude::*;

fn wait_for_notifications(
    client: &CacheClient,
    n: usize,
) -> Vec<psrpc::client::ClientNotification> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut notes = Vec::new();
    while notes.len() < n && std::time::Instant::now() < deadline {
        if let Ok(note) = client
            .notifications()
            .recv_timeout(Duration::from_millis(20))
        {
            notes.push(note);
        }
    }
    notes
}

#[test]
fn a_remote_application_can_populate_query_and_react_over_tcp() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").expect("bind an ephemeral port");
    let client = CacheClient::connect(server.local_addr()).expect("connect to the server");

    // Role 1: create tables and populate them with raw events.
    client
        .execute("create table Flows (srcip varchar(16), nbytes integer)")
        .unwrap();
    // Role 3: register interest in complex events.
    let automaton = client
        .register_automaton(
            "subscribe f to Flows; behavior { if (f.nbytes >= 1000) send(f.srcip, f.nbytes); }",
        )
        .unwrap();

    for (ip, bytes) in [("10.0.0.1", 10i64), ("10.0.0.2", 5000), ("10.0.0.3", 1000)] {
        client
            .insert("Flows", vec![Scalar::Str(ip.into()), Scalar::Int(bytes)])
            .unwrap();
    }

    // Role 2: retrieve data with ad hoc queries (time windows included).
    let rows = client
        .select("select * from Flows where nbytes > 500")
        .unwrap();
    assert_eq!(rows.len(), 2);
    let all = client.select("select * from Flows").unwrap();
    assert_eq!(all.len(), 3);
    let tau = all.max_tstamp().unwrap();
    let later = client
        .select(&format!("select * from Flows since {tau}"))
        .unwrap();
    assert!(later.is_empty());

    // Complex-event notifications arrive asynchronously on the same
    // connection.
    let notes = wait_for_notifications(&client, 2);
    assert_eq!(notes.len(), 2);
    assert!(notes.iter().all(|n| n.automaton == automaton));
    assert_eq!(notes[0].values[0], Scalar::Str("10.0.0.2".into()));
    assert_eq!(notes[1].values[0], Scalar::Str("10.0.0.3".into()));

    client.unregister_automaton(automaton).unwrap();
    drop(client);
    server.shutdown();
}

#[test]
fn several_clients_share_one_cache() {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();

    let writer = CacheClient::connect(server.local_addr()).unwrap();
    let reactor = CacheClient::connect(server.local_addr()).unwrap();

    writer.execute("create table Readings (v integer)").unwrap();
    reactor
        .register_automaton("subscribe r to Readings; behavior { send(r.v * 2); }")
        .unwrap();

    for i in 0..5 {
        writer.insert("Readings", vec![Scalar::Int(i)]).unwrap();
    }

    let notes = wait_for_notifications(&reactor, 5);
    let doubled: Vec<i64> = notes
        .iter()
        .map(|n| n.values[0].as_int().unwrap())
        .collect();
    assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
    // The writer registered no automata, so it receives nothing.
    assert!(writer.drain_notifications().is_empty());

    drop(writer);
    drop(reactor);
    server.shutdown();
}

#[test]
fn compile_errors_are_reported_back_to_the_registering_application() {
    let cache = CacheBuilder::new().build();
    let client = CacheClient::connect_inproc(cache);
    client.execute("create table T (v integer)").unwrap();

    let err = client
        .register_automaton("subscribe t to T; behavior { undeclared = 1; }")
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("undeclared"),
        "the compile diagnostic should reach the application, got: {text}"
    );
}

#[test]
fn the_inproc_transport_behaves_like_tcp() {
    let cache = CacheBuilder::new().build();
    let client = CacheClient::connect_inproc(cache.clone());
    client
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    client
        .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
        .unwrap();
    client
        .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(5)])
        .unwrap();
    let rows = client.select("select * from KV").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0].values[1], Scalar::Int(5));
    // Large string payloads cross the 1024-byte fragmentation boundary.
    client
        .execute("create table Blobs (data varchar(10000))")
        .unwrap();
    let big = "x".repeat(8_000);
    client
        .insert("Blobs", vec![Scalar::Str(big.as_str().into())])
        .unwrap();
    let rows = client.select("select * from Blobs").unwrap();
    assert_eq!(rows.rows[0].values[0], Scalar::from(big));
}

/// `repl_lag` in the health report distinguishes "no follower ever
/// attached" (`None`) from "followers fully caught up" (`Some(0)`).
/// The regression: both used to encode as 0, so a `--max-lag` probe
/// against an unreplicated primary passed vacuously.
#[test]
fn health_lag_is_absent_without_a_follower_and_present_with_one() {
    let dir = std::env::temp_dir().join(format!("pscache-health-lag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let repl_addr = cache.repl_addr().unwrap().to_string();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let client = CacheClient::connect(server.local_addr()).unwrap();

    client
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    client
        .insert("KV", vec![Scalar::from("a"), Scalar::Int(1)])
        .unwrap();

    let unreplicated = client.health().unwrap();
    assert_eq!(
        unreplicated.repl_lag, None,
        "an unreplicated primary has no lag to report"
    );

    let follower = pscache::Cache::follow(&repl_addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let lag = loop {
        let report = client.health().unwrap();
        if let Some(lag) = report.repl_lag {
            break lag;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "follower never showed up in the health report"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(lag <= cache.commit_lsn(), "lag is bounded by history");

    // And once the follower has acked everything, the lag is an
    // explicit zero — present, not missing.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match client.health().unwrap().repl_lag {
            Some(0) => break,
            Some(_) => {}
            None => panic!("follower disappeared from the health report"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "follower never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    follower.shutdown();
    drop(client);
    server.shutdown();
    cache.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
