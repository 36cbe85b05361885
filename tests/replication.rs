//! Replication tests: WAL shipping from a primary to follower replicas,
//! read scaling, reconnection, and failover promotion.
//!
//! The centrepiece is a differential proptest in the style of
//! `tests/durability.rs`: random mutation histories run against a
//! replicated pair while the follower is crashed and re-attached at
//! arbitrary stream positions, and the follower must end byte-identical
//! to an op-by-op model of the primary. The satellite tests cover the
//! named scenarios: the 3-node read-scaling topology, bootstrap from a
//! checkpoint instead of log-zero, the staleness watermark, promotion
//! under load, and a follower surviving a primary restart.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gapl::event::Scalar;
use pscache::wal::{count_complete_records, log_path};
use pscache::{Cache, CacheBuilder, Error, Query, ReplRole};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pscache-replication-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `select * from {table}` as `(values, tstamp)` pairs in scan order.
fn dump(cache: &Cache, table: &str) -> Vec<(Vec<Scalar>, u64)> {
    cache
        .select(&Query::new(table))
        .expect("select * succeeds")
        .rows
        .into_iter()
        .map(|row| (row.values, row.tstamp))
        .collect()
}

/// Block until `follower` has applied everything `primary` has
/// committed (with an equal watermark), or panic after `timeout`.
fn converge(primary: &Cache, follower: &Cache, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let commit = primary.commit_lsn();
        if follower.replica_lsn() >= commit {
            return;
        }
        if Instant::now() >= deadline {
            panic!(
                "follower stuck at lsn {} with primary at {} (stats: {:?})",
                follower.replica_lsn(),
                commit,
                follower.repl_stats()
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_follower_mirrors_the_primary_and_is_read_only() {
    let dir = scratch("basic-primary");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().expect("listener is bound").to_string();

    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    for i in 0..50i64 {
        primary
            .insert(
                "KV",
                vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }

    let follower = Cache::follow(&addr).unwrap();
    assert_eq!(follower.repl_role(), ReplRole::Follower);
    assert_eq!(primary.repl_role(), ReplRole::Primary);
    converge(&primary, &follower, Duration::from_secs(10));

    // Byte-identical state: same rows, same scan order, same timestamps.
    assert_eq!(dump(&follower, "KV"), dump(&primary, "KV"));
    assert_eq!(follower.table_names(), primary.table_names());

    // Mutations are rejected on the replica, in every surface form.
    assert!(matches!(
        follower.insert("KV", vec![Scalar::Str("x".into()), Scalar::Int(1)]),
        Err(Error::ReadOnlyReplica { .. })
    ));
    assert!(matches!(
        follower.execute("insert into KV values ('x', 1)"),
        Err(Error::ReadOnlyReplica { .. })
    ));
    assert!(matches!(
        follower.execute("create table T (v integer)"),
        Err(Error::ReadOnlyReplica { .. })
    ));
    assert!(matches!(
        follower.remove("KV", "k0"),
        Err(Error::ReadOnlyReplica { .. })
    ));

    // Reads keep working, and new primary writes keep flowing.
    primary
        .upsert("KV", vec![Scalar::Str("k0".into()), Scalar::Int(999)])
        .unwrap();
    converge(&primary, &follower, Duration::from_secs(10));
    let row = follower.lookup("KV", "k0").unwrap().unwrap();
    assert_eq!(row.values()[1], Scalar::Int(999));

    let stats = primary.repl_stats();
    assert_eq!(stats.followers, 1);
    assert!(stats.frames_shipped > 0);

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn three_node_scenario_read_scaling_and_failover() {
    // Primary + 2 followers; inserts on the primary become visible to
    // follower queries in LSN order; killing the primary and promoting
    // a follower loses no acknowledged insert.
    let dir_p = scratch("three-node-primary");
    let dir_f1 = scratch("three-node-follower1");
    let primary = CacheBuilder::new()
        .durability(&dir_p)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap().to_string();

    // Follower 1 is durable (promotable without loss); follower 2 is a
    // pure in-memory read replica.
    let f1 = CacheBuilder::new()
        .durability(&dir_f1)
        .follow(&addr)
        .open()
        .unwrap();
    let f2 = Cache::follow(&addr).unwrap();

    primary
        .execute("create persistenttable Accounts (id varchar(16) primary key, balance integer)")
        .unwrap();
    primary.execute("create table Ticks (v integer)").unwrap();
    let mut acked = 0i64;
    for i in 0..200i64 {
        primary
            .insert(
                "Accounts",
                vec![Scalar::Str(format!("acct{i:04}").into()), Scalar::Int(i)],
            )
            .unwrap();
        acked += 1;
    }
    // Ephemeral stream rows are not replicated (same contract as crash
    // recovery), but the stream's DDL is.
    primary.insert("Ticks", vec![Scalar::Int(7)]).unwrap();

    converge(&primary, &f1, Duration::from_secs(10));
    converge(&primary, &f2, Duration::from_secs(10));

    // Read scaling: both followers answer the same query locally, in
    // the same (LSN/insertion) order as the primary.
    let on_primary = dump(&primary, "Accounts");
    assert_eq!(on_primary.len(), acked as usize);
    assert_eq!(dump(&f1, "Accounts"), on_primary);
    assert_eq!(dump(&f2, "Accounts"), on_primary);
    assert!(f1.table_names().contains(&"Ticks".to_string()));
    assert_eq!(f1.table_len("Ticks").unwrap(), 0);

    // Kill the primary (drop = shutdown: listener gone, sockets die).
    drop(primary);

    // Promote the durable follower: every acknowledged insert survives.
    f1.promote().unwrap();
    assert_eq!(f1.repl_role(), ReplRole::Primary);
    assert_eq!(dump(&f1, "Accounts"), on_primary);

    // The promoted primary accepts writes again.
    f1.insert(
        "Accounts",
        vec![Scalar::Str("post-failover".into()), Scalar::Int(-1)],
    )
    .unwrap();
    assert_eq!(f1.table_len("Accounts").unwrap(), acked as usize + 1);
    // Its own hub tracked the verbatim-appended stream contiguously, so
    // the promoted commit watermark covers the whole inherited history
    // plus the new write (regression: a skipped-but-unappended frame —
    // e.g. the primary's Timer create — used to wedge this at 0).
    assert!(
        f1.commit_lsn() > acked as u64,
        "promoted commit watermark {} must cover the replicated history",
        f1.commit_lsn()
    );

    // Promoting twice (or a non-follower) is an error.
    assert!(matches!(f1.promote(), Err(Error::Repl { .. })));

    f2.shutdown();
    f1.shutdown();
    let _ = fs::remove_dir_all(&dir_p);
    let _ = fs::remove_dir_all(&dir_f1);
}

#[test]
fn a_late_follower_bootstraps_from_the_checkpoint_not_log_zero() {
    let dir = scratch("bootstrap-snapshot");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    for i in 0..100i64 {
        primary
            .upsert(
                "KV",
                vec![Scalar::Str(format!("k{}", i % 25).into()), Scalar::Int(i)],
            )
            .unwrap();
    }
    // The checkpoint truncates the logs: records before it exist only
    // in the snapshot, so a fresh follower *must* bootstrap from it.
    primary.checkpoint().unwrap();
    for i in 0..20i64 {
        primary
            .upsert(
                "KV",
                vec![Scalar::Str(format!("tail{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }

    let follower = Cache::follow(&addr).unwrap();
    converge(&primary, &follower, Duration::from_secs(10));
    assert_eq!(dump(&follower, "KV"), dump(&primary, "KV"));
    let stats = follower.repl_stats();
    assert_eq!(
        stats.snapshots_loaded, 1,
        "the follower must have reset from the shipped checkpoint"
    );
    assert_eq!(primary.repl_stats().snapshots_served, 1);

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_staleness_watermark_is_monotone_and_converges_to_zero() {
    let dir = scratch("staleness");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    let follower = Cache::follow(&addr).unwrap();

    let mut last = follower.replica_lsn();
    for i in 0..200i64 {
        primary
            .insert(
                "KV",
                vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
        let now = follower.replica_lsn();
        assert!(now >= last, "replica_lsn must never move backwards");
        // The replica never claims records the primary has not
        // committed: bounded staleness, never negative.
        assert!(now <= primary.commit_lsn());
        last = now;
    }
    converge(&primary, &follower, Duration::from_secs(10));
    assert_eq!(follower.replica_lsn(), primary.commit_lsn());
    let stats = follower.repl_stats();
    assert_eq!(stats.role, ReplRole::Follower);
    assert!(stats.connected);
    assert_eq!(stats.commit_lsn - stats.replica_lsn, 0);

    // The primary's lag accounting converges too (acks are async —
    // poll briefly).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let p = primary.repl_stats();
        if p.followers == 1 && p.min_follower_acked_lsn >= p.commit_lsn {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower ack never converged: {p:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_follower_survives_a_primary_restart_and_reconverges() {
    // Satellite regression: kill and restart the server mid-stream; the
    // follower's capped-backoff redial re-subscribes from its replica
    // watermark and converges on the restarted primary's new writes.
    let dir = scratch("primary-restart");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap();
    let addr_str = addr.to_string();
    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    for i in 0..50i64 {
        primary
            .insert(
                "KV",
                vec![Scalar::Str(format!("a{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }
    let follower = Cache::follow(&addr_str).unwrap();
    converge(&primary, &follower, Duration::from_secs(10));

    // Kill the primary mid-stream…
    drop(primary);

    // …and restart it on the same port (retrying while the OS releases
    // the listener address).
    let deadline = Instant::now() + Duration::from_secs(10);
    let primary = loop {
        match CacheBuilder::new()
            .durability(&dir)
            .replicate_to(&addr_str)
            .open()
        {
            Ok(cache) => break cache,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr_str}: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    for i in 0..50i64 {
        primary
            .insert(
                "KV",
                vec![Scalar::Str(format!("b{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }
    converge(&primary, &follower, Duration::from_secs(15));
    assert_eq!(dump(&follower, "KV"), dump(&primary, "KV"));
    assert_eq!(follower.table_len("KV").unwrap(), 100);
    assert!(
        follower.repl_stats().reconnects >= 1,
        "the stream must have been re-established"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn promotion_under_concurrent_write_load_preserves_every_replicated_record() {
    let dir_p = scratch("promote-load-primary");
    let dir_f = scratch("promote-load-follower");
    let primary = CacheBuilder::new()
        .durability(&dir_p)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
        .unwrap();
    let follower = CacheBuilder::new()
        .durability(&dir_f)
        .follow(&addr)
        .open()
        .unwrap();

    // 4 writers hammer the primary while the follower streams.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let primary = primary.clone();
            scope.spawn(move || {
                for i in 0..250i64 {
                    primary
                        .insert(
                            "KV",
                            vec![Scalar::Str(format!("w{t}-{i:04}").into()), Scalar::Int(i)],
                        )
                        .unwrap();
                }
            });
        }
    });

    // Planned failover: fence writes (writers are done), drain, kill,
    // promote. Every acknowledged insert must survive on the replica.
    let final_state = dump(&primary, "KV");
    assert_eq!(final_state.len(), 1000);
    converge(&primary, &follower, Duration::from_secs(15));
    drop(primary);
    follower.promote().unwrap();
    assert_eq!(dump(&follower, "KV"), final_state);
    assert!(
        follower.commit_lsn() >= 1000,
        "the promoted hub watermark must cover all 1000 replicated inserts"
    );

    // The promoted cache is durable in its own right: restart it from
    // its directory and the data is still all there.
    follower
        .insert("KV", vec![Scalar::Str("post".into()), Scalar::Int(1)])
        .unwrap();
    follower.shutdown();
    drop(follower);
    let reopened = Cache::recover(&dir_f).unwrap();
    assert_eq!(reopened.table_len("KV").unwrap(), 1001);
    drop(reopened);
    let _ = fs::remove_dir_all(&dir_p);
    let _ = fs::remove_dir_all(&dir_f);
}

#[test]
fn a_diverged_follower_is_reset_from_the_primarys_snapshot() {
    // A follower can legitimately get *ahead* of a primary that crashed
    // and lost an unacknowledged tail. On reconnect the primary detects
    // from_lsn beyond its own history, forces a checkpoint, and resets
    // the follower from the snapshot — both ends converge on the
    // primary's authoritative state.
    let dir_p = scratch("diverge-primary");
    let dir_f = scratch("diverge-follower");
    let addr_str;
    {
        let primary = CacheBuilder::new()
            .durability(&dir_p)
            .replicate_to("127.0.0.1:0")
            .open()
            .unwrap();
        addr_str = primary.repl_addr().unwrap().to_string();
        primary
            .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
            .unwrap();
        for i in 0..20i64 {
            primary
                .insert(
                    "KV",
                    vec![Scalar::Str(format!("k{i:02}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        let follower = CacheBuilder::new()
            .durability(&dir_f)
            .follow(&addr_str)
            .open()
            .unwrap();
        converge(&primary, &follower, Duration::from_secs(10));
        follower.shutdown();
        primary.shutdown();
    }

    // Crash-simulate the primary: chop the last few records off its
    // log, so its recovered history is shorter than the follower's.
    let log = log_path(&dir_p);
    let bytes = fs::read(&log).unwrap();
    let keep = {
        // Find the byte length of the first (n-2) records.
        let total = count_complete_records(&bytes);
        assert!(total > 4, "need enough records to truncate meaningfully");
        let mut cut = bytes.len();
        while count_complete_records(&bytes[..cut - 1]) + 2 > total {
            cut -= 1;
        }
        cut - 1
    };
    fs::write(&log, &bytes[..keep]).unwrap();

    let primary = CacheBuilder::new()
        .durability(&dir_p)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let new_addr = primary.repl_addr().unwrap().to_string();
    let follower = CacheBuilder::new()
        .durability(&dir_f)
        .follow(&new_addr)
        .open()
        .unwrap();
    // Until the reset lands, the follower's watermark is a stale claim
    // from its own recovery — wait for the snapshot, then converge.
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.repl_stats().snapshots_loaded == 0 {
        assert!(
            Instant::now() < deadline,
            "divergence was never resolved by a snapshot reset"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    converge(&primary, &follower, Duration::from_secs(10));
    assert_eq!(dump(&follower, "KV"), dump(&primary, "KV"));

    // The pair still replicates normally after the reset.
    primary
        .insert("KV", vec![Scalar::Str("fresh".into()), Scalar::Int(1)])
        .unwrap();
    converge(&primary, &follower, Duration::from_secs(10));
    assert_eq!(dump(&follower, "KV"), dump(&primary, "KV"));

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir_p);
    let _ = fs::remove_dir_all(&dir_f);
}

// ---------------------------------------------------------------------------
// RPC-layer satellites: client reconnect, graceful shutdown, and
// end-to-end observability of replication lag over the ServerStats RPC.
// ---------------------------------------------------------------------------

#[test]
fn a_reconnecting_client_survives_a_server_restart() {
    use psrpc::{CacheClient, ReconnectPolicy, RpcServer};

    let dir = scratch("client-reconnect");
    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    cache
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    let server = RpcServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let client = CacheClient::connect_reconnecting(&addr, ReconnectPolicy::default()).unwrap();
    client
        .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
        .unwrap();

    // Kill the server mid-session…
    server.shutdown();
    drop(cache);

    // …and restart it on the same address (retrying while the OS
    // releases the port), serving the same durable directory.
    let cache = Cache::recover(&dir).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        match RpcServer::bind(cache.clone(), addr.as_str()) {
            Ok(server) => break server,
            Err(e) => {
                assert!(Instant::now() < deadline, "could not rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };

    // The same client object keeps working: the failed request redials
    // with capped backoff and retries. Upserts are idempotent, so the
    // documented at-least-once retry semantics are safe here.
    client
        .upsert("KV", vec![Scalar::Str("b".into()), Scalar::Int(2)])
        .unwrap();
    assert_eq!(client.select("select * from KV").unwrap().len(), 2);
    assert!(client.reconnect_count() >= 1);

    // A non-reconnecting client would have failed instead: transport
    // errors only ever surface, never silent retries.
    drop(client);
    server.shutdown();
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn graceful_server_shutdown_drains_workers_and_flushes_the_wal() {
    use psrpc::{CacheClient, RpcServer};

    let dir = scratch("graceful-shutdown");
    // OsOnly: inserts are acked after a server-side flush, and the
    // *shutdown* flush is the last line of defence for anything
    // buffered after the final ack.
    let cache = CacheBuilder::new()
        .durability(&dir)
        .sync_policy(pscache::SyncPolicy::OsOnly)
        .open()
        .unwrap();
    cache
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    let server = RpcServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Two clients: one busy, one idle with its connection held open —
    // the drain must not hang on the idle one.
    let busy = CacheClient::connect(addr).unwrap();
    let _idle = CacheClient::connect(addr).unwrap();
    for i in 0..100i64 {
        busy.insert(
            "KV",
            vec![Scalar::Str(format!("k{i:03}").into()), Scalar::Int(i)],
        )
        .unwrap();
    }

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "graceful shutdown must not hang on idle connections"
    );
    drop(cache);

    // Every acknowledged insert is on disk: recovery sees all 100.
    let recovered = Cache::recover(&dir).unwrap();
    assert_eq!(recovered.table_len("KV").unwrap(), 100);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replication_lag_is_observable_end_to_end_over_server_stats() {
    use psrpc::{CacheClient, RpcServer};

    let dir = scratch("stats-over-wire");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let server = RpcServer::bind(primary.clone(), "127.0.0.1:0").unwrap();
    let client = CacheClient::connect(server.local_addr()).unwrap();

    client
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    for i in 0..32i64 {
        client
            .insert(
                "KV",
                vec![Scalar::Str(format!("k{i:02}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }
    let follower = Cache::follow(&repl_addr).unwrap();
    converge(&primary, &follower, Duration::from_secs(10));

    // A remote operator sees the whole pipeline through one RPC: WAL
    // activity, the commit watermark, the follower count, and (once
    // acks land) zero lag.
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = client.server_stats().unwrap();
        if stats.repl_followers == 1 && stats.repl_min_follower_acked_lsn >= stats.repl_commit_lsn {
            break stats;
        }
        assert!(Instant::now() < deadline, "lag never converged: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(stats.wal_records >= 33, "DDL + 32 inserts are logged");
    assert!(stats.wal_syncs >= 1);
    assert_eq!(stats.repl_is_follower, 0);
    assert!(stats.repl_commit_lsn >= 33);
    assert_eq!(stats.repl_commit_lsn, primary.commit_lsn());

    follower.shutdown();
    drop(client);
    server.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The follower crash/reconnect differential proptest.
// ---------------------------------------------------------------------------

/// One randomly generated mutation (the `tests/durability.rs` model).
#[derive(Debug, Clone)]
enum Op {
    Insert { table: usize, key: u8, value: i64 },
    Upsert { table: usize, key: u8, value: i64 },
    Remove { table: usize, key: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..2, 0u8..6, -100i64..100, 0u8..3).prop_map(|(table, key, value, kind)| match kind {
        0 => Op::Insert { table, key, value },
        1 => Op::Upsert { table, key, value },
        _ => Op::Remove { table, key },
    })
}

/// The in-memory model of one persistent table: rows in scan order.
type ModelTable = Vec<(String, i64, u64)>;

fn model_dump(model: &[ModelTable; 2], table: usize) -> Vec<(Vec<Scalar>, u64)> {
    model[table]
        .iter()
        .map(|(k, v, ts)| (vec![Scalar::Str(k.as_str().into()), Scalar::Int(*v)], *ts))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run a random mutation history against a replicated pair while
    /// crashing the follower process (dropping it cold and re-opening
    /// from its directory) at arbitrary points — every reconnect lands
    /// at an arbitrary frame boundary of the stream — and interleaving
    /// primary checkpoints so re-subscription exercises both the log
    /// and the snapshot bootstrap. The converged follower must be
    /// byte-identical to the op-by-op model.
    #[test]
    fn follower_crash_reconnect_ends_byte_identical_to_the_model(
        ops in proptest::collection::vec(arb_op(), 1..30),
        crash_point_list in proptest::collection::vec(0usize..30, 0..3),
        checkpoint_sel in 0usize..60,
    ) {
        let crash_points: std::collections::BTreeSet<usize> =
            crash_point_list.into_iter().collect();
        // Half the cases interleave a primary checkpoint mid-history.
        let checkpoint_at = (checkpoint_sel < 30).then_some(checkpoint_sel);
        let dir_p = scratch("proptest-repl-primary");
        let dir_f = scratch("proptest-repl-follower");
        let primary = CacheBuilder::new()
            .manual_clock()
            .durability(&dir_p)
            .replicate_to("127.0.0.1:0")
            .open()
            .unwrap();
        let addr = primary.repl_addr().unwrap().to_string();
        primary.execute(
            "create persistenttable T0 (k varchar(8) primary key, v integer)").unwrap();
        primary.execute(
            "create persistenttable T1 (k varchar(8) primary key, v integer)").unwrap();

        let mut follower = Some(CacheBuilder::new()
            .durability(&dir_f)
            .follow(&addr)
            .open()
            .unwrap());
        let mut model: [ModelTable; 2] = [Vec::new(), Vec::new()];

        for (idx, op) in ops.iter().enumerate() {
            if crash_points.contains(&idx) {
                // Crash the follower cold (drop releases everything,
                // including mid-batch state) and immediately restart it
                // from its own directory.
                drop(follower.take());
                follower = Some(CacheBuilder::new()
                    .durability(&dir_f)
                    .follow(&addr)
                    .open()
                    .unwrap());
            }
            if checkpoint_at == Some(idx) {
                primary.checkpoint().unwrap();
            }
            primary.manual_clock().unwrap().advance(1);
            let now = primary.now();
            match op {
                Op::Insert { table, key, value } => {
                    let name = format!("T{table}");
                    let k = format!("k{key}");
                    let exists = model[*table].iter().any(|(mk, _, _)| *mk == k);
                    let result = primary.insert(
                        &name,
                        vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                    );
                    if exists {
                        prop_assert!(result.is_err(), "duplicate insert must fail");
                    } else {
                        prop_assert!(result.is_ok());
                        model[*table].push((k, *value, now));
                    }
                }
                Op::Upsert { table, key, value } => {
                    let name = format!("T{table}");
                    let k = format!("k{key}");
                    primary.upsert(
                        &name,
                        vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                    ).unwrap();
                    model[*table].retain(|(mk, _, _)| *mk != k);
                    model[*table].push((k, *value, now));
                }
                Op::Remove { table, key } => {
                    let name = format!("T{table}");
                    let k = format!("k{key}");
                    primary.remove(&name, &k).unwrap();
                    model[*table].retain(|(mk, _, _)| *mk != k);
                }
            }
        }

        let follower = follower.take().unwrap();
        converge(&primary, &follower, Duration::from_secs(20));
        for table in 0..2 {
            prop_assert_eq!(
                dump(&follower, &format!("T{table}")),
                model_dump(&model, table),
                "table T{} after {} ops, {} crashes", table, ops.len(), crash_points.len()
            );
        }
        // And the follower state survives one more cold restart intact
        // (its own WAL is a faithful copy).
        drop(follower);
        let reopened = CacheBuilder::new()
            .durability(&dir_f)
            .follow(&addr)
            .open()
            .unwrap();
        converge(&primary, &reopened, Duration::from_secs(20));
        for table in 0..2 {
            prop_assert_eq!(
                dump(&reopened, &format!("T{table}")),
                model_dump(&model, table)
            );
        }
        drop(reopened);
        primary.shutdown();
        let _ = fs::remove_dir_all(&dir_p);
        let _ = fs::remove_dir_all(&dir_f);
    }
}

/// A follower that cached query plans, was reset by a snapshot
/// bootstrap (which rebuilds every table — and every schema `Arc` —
/// from the wire image), and was then promoted must *recompile* each
/// cached SQL text exactly once against the rebuilt schemas, after
/// which plan-cache hits resume. The regression: plan identity was
/// checked by schema-`Arc` pointer, and a pointer miss that recompiled
/// without re-caching would miss forever.
#[test]
fn a_promoted_follower_recompiles_cached_plans_once_then_hits_resume() {
    let dir = scratch("promote-replan");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr_str = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    for i in 0..20i64 {
        primary
            .insert(
                "KV",
                vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }

    let follower = Cache::follow(&addr_str).unwrap();
    converge(&primary, &follower, Duration::from_secs(10));

    // Warm the follower's plan cache against the bootstrap-built schema.
    let sql = "select k, v from KV where v >= 10 order by v";
    let warm_rows = follower.execute(sql).unwrap().rows().unwrap();
    assert_eq!(warm_rows.rows.len(), 10);
    let _ = follower.execute(sql).unwrap();
    let warm = follower.plan_cache_stats();
    assert!(warm.hits >= 1, "repeat text must hit before the reset");
    assert_eq!(warm.recompiles, 0);
    let snapshots_before = follower.repl_stats().snapshots_loaded;

    // Kill the primary, then advance its durable history *and its
    // checkpoint* past the follower's watermark while no listener is
    // up (the follower just redials and fails). The relaunched primary
    // must then answer the redial with a snapshot bootstrap — the
    // follower's subscribe LSN is below the checkpoint's high
    // watermark — which rebuilds the follower's tables wholesale.
    drop(primary);
    {
        let offline = CacheBuilder::new().durability(&dir).open().unwrap();
        for i in 20..40i64 {
            offline
                .insert(
                    "KV",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        offline.checkpoint().unwrap();
        offline.shutdown();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let primary = loop {
        match CacheBuilder::new()
            .durability(&dir)
            .replicate_to(&addr_str)
            .open()
        {
            Ok(cache) => break cache,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr_str}: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    converge(&primary, &follower, Duration::from_secs(15));
    assert!(
        follower.repl_stats().snapshots_loaded > snapshots_before,
        "the reconnect must have re-bootstrapped from a snapshot"
    );

    // Failover: the promoted cache serves the same cached SQL text.
    drop(primary);
    follower.promote().unwrap();
    assert_eq!(follower.repl_role(), ReplRole::Primary);

    let after = follower.execute(sql).unwrap().rows().unwrap();
    assert_eq!(after.rows.len(), 30, "post-reset data answers the query");
    let first = follower.plan_cache_stats();
    assert_eq!(
        first.recompiles, 1,
        "the rebuilt schema Arc forces exactly one recompile"
    );
    let _ = follower.execute(sql).unwrap();
    let _ = follower.execute(sql).unwrap();
    let second = follower.plan_cache_stats();
    assert_eq!(
        second.recompiles, 1,
        "recompile must re-cache the plan, not recompile per query"
    );
    assert!(
        second.hits >= first.hits + 2,
        "plan-cache hits must resume after promotion ({} -> {})",
        first.hits,
        second.hits
    );

    follower.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
