//! Write-ahead-log benchmark snapshot, written as `BENCH_wal.json` for
//! the performance trajectory: durable insert throughput with 16
//! concurrent in-process clients, group commit vs one fsync per insert;
//! and one *pipelined* RPC connection, whose consecutive requests the
//! reactor commits as a run.
//!
//! The scenario is the durability hot path at its most contended: every
//! client hammers the *same* persistent table (distinct keys), so all
//! records funnel through one table lock into the log. Under [`SyncPolicy::Immediate`]
//! each insert performs its own `fsync` while holding the table lock —
//! the classic one-flush-per-commit baseline. Under the default
//! [`SyncPolicy::Group`] the insert appends while holding the lock but
//! waits for durability after releasing it, and the first waiter
//! flushes for everyone queued behind it — one `fsync` commits a whole
//! convoy, which is where the speedup comes from. The emitted JSON
//! records the achieved flush counts so the amortisation is visible,
//! not inferred.
//!
//! The second scenario is the opposite shape: one connection to a
//! `ReactorServer` keeping 64 single-row durable inserts in flight.
//! Nobody else shares its flushes, so every record beyond one per
//! `fsync` is the worker having staged several of the connection's own
//! requests before its one durability wait.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_wal` (output
//! path override: `BENCH_WAL_OUT`; per-client insert count:
//! `BENCH_WAL_INSERTS`). `scripts/ci.sh bench` holds both scenarios to
//! a floor on their *mean group size* — records ÷ fsyncs, a count the
//! machine's disk and scheduler move far less than a throughput ratio —
//! as part of the tier-1 gate.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use gapl::event::Scalar;
use pscache::{CacheBuilder, SyncPolicy};
use psrpc::client::CacheClient;
use psrpc::message::Request;
use psrpc::reactor::ReactorServer;

const CLIENTS: usize = 16;
/// Requests the pipelined connection keeps in flight, and how many it
/// sends in all.
const PIPELINE_WINDOW: usize = 64;
const PIPELINED_INSERTS: usize = 4_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scratch directory for one benchmark run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-wal-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Inserts/sec (and the flush count) for `CLIENTS` threads inserting
/// `per_client` distinct-keyed rows each into one durable table.
fn durable_insert_throughput(policy: SyncPolicy, name: &str, per_client: usize) -> (f64, u64) {
    let dir = scratch(name);
    let cache = CacheBuilder::new()
        .durability(&dir)
        .sync_policy(policy)
        .open()
        .expect("open durable cache");
    cache
        .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
        .expect("create table");

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let cache = cache.clone();
            scope.spawn(move || {
                for i in 0..per_client {
                    cache
                        .insert(
                            "KV",
                            vec![
                                Scalar::Str(format!("client{t:02}-row{i:06}").into()),
                                Scalar::Int(i as i64),
                            ],
                        )
                        .expect("durable insert");
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let stats = cache.wal_stats().expect("durability is enabled");
    assert_eq!(
        cache.table_len("KV").expect("table exists"),
        CLIENTS * per_client
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
    (
        (CLIENTS * per_client) as f64 / elapsed.as_secs_f64(),
        stats.syncs,
    )
}

/// Inserts/sec and records per fsync for one reactor connection
/// pipelining `PIPELINED_INSERTS` single-row durable inserts,
/// `PIPELINE_WINDOW` in flight.
fn pipelined_insert_throughput() -> (f64, f64) {
    let dir = scratch("pipelined");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .sync_policy(SyncPolicy::Group)
        .open()
        .expect("open durable cache");
    cache
        .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
        .expect("create table");
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").expect("bind reactor");
    let client = CacheClient::connect(server.local_addr()).expect("connect");
    client.set_pipeline_window(PIPELINE_WINDOW);
    let before = cache.wal_stats().expect("durability is enabled");

    let start = Instant::now();
    let mut in_flight = VecDeque::with_capacity(PIPELINE_WINDOW);
    for i in 0..PIPELINED_INSERTS {
        if in_flight.len() == PIPELINE_WINDOW {
            let oldest: psrpc::PendingReply = in_flight.pop_front().expect("window is full");
            oldest.wait().expect("durable insert");
        }
        let request = Request::Insert {
            table: "KV".into(),
            values: vec![
                Scalar::Str(format!("row{i:06}").into()),
                Scalar::Int(i as i64),
            ],
            upsert: false,
        };
        in_flight.push_back(client.begin_request(request).expect("send"));
    }
    for pending in in_flight {
        pending.wait().expect("durable insert");
    }
    let elapsed = start.elapsed();

    let after = cache.wal_stats().expect("durability is enabled");
    assert_eq!(
        cache.table_len("KV").expect("table exists"),
        PIPELINED_INSERTS
    );
    drop(client);
    server.shutdown();
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
    (
        PIPELINED_INSERTS as f64 / elapsed.as_secs_f64(),
        (after.records - before.records) as f64 / (after.syncs - before.syncs).max(1) as f64,
    )
}

fn main() {
    let per_client = env_usize("BENCH_WAL_INSERTS", 200);
    let out = std::env::var("BENCH_WAL_OUT").unwrap_or_else(|_| "BENCH_wal.json".into());

    // Warm-up: touch the temp filesystem and page cache once so neither
    // measured run pays first-use costs.
    durable_insert_throughput(SyncPolicy::Group, "warmup", per_client / 4 + 1);

    let (single_tps, single_syncs) =
        durable_insert_throughput(SyncPolicy::Immediate, "immediate", per_client);
    let (group_tps, group_syncs) =
        durable_insert_throughput(SyncPolicy::Group, "group", per_client);
    let speedup = group_tps / single_tps;
    let total = (CLIENTS * per_client) as f64;
    let (pipelined_tps, pipelined_group_size) = pipelined_insert_throughput();

    let json = format!(
        "{{\n  \"scenario\": \"{clients} concurrent clients, durable inserts into one persistent table\",\n  \"clients\": {clients},\n  \"inserts_per_client\": {per_client},\n  \"single_fsync_tps\": {single_tps:.1},\n  \"single_fsync_syncs\": {single_syncs},\n  \"group_commit_tps\": {group_tps:.1},\n  \"group_commit_syncs\": {group_syncs},\n  \"group_commit_mean_group_size\": {group_size:.2},\n  \"group_commit_speedup\": {speedup:.2},\n  \"pipelined_scenario\": \"1 reactor connection, {window} single-row durable inserts in flight, {pipelined} in all\",\n  \"pipelined_tps\": {pipelined_tps:.1},\n  \"pipelined_mean_group_size\": {pipelined_group_size:.2}\n}}\n",
        clients = CLIENTS,
        per_client = per_client,
        single_tps = single_tps,
        single_syncs = single_syncs,
        group_tps = group_tps,
        group_syncs = group_syncs,
        group_size = total / group_syncs.max(1) as f64,
        speedup = speedup,
        window = PIPELINE_WINDOW,
        pipelined = PIPELINED_INSERTS,
        pipelined_tps = pipelined_tps,
        pipelined_group_size = pipelined_group_size,
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "group commit: {group_tps:.0} inserts/s over {group_syncs} fsyncs; \
         single-fsync baseline: {single_tps:.0} inserts/s over {single_syncs} fsyncs; \
         speedup {speedup:.1}x; one pipelined connection: {pipelined_tps:.0} inserts/s, \
         {pipelined_group_size:.1} records per fsync -> {out}"
    );
}
