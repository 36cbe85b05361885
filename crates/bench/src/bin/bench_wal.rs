//! Write-ahead-log benchmark snapshot: durable insert throughput with 16
//! concurrent clients, group commit vs one fsync per insert, written as
//! `BENCH_wal.json` for the performance trajectory.
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
//! Run with `cargo run --release -p cep_bench --bin bench_wal` (output
//! path override: `BENCH_WAL_OUT`; per-client insert count:
//! `BENCH_WAL_INSERTS`). `scripts/ci.sh bench` runs it with the ≥5x
//! floor check as part of the tier-1 gate.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use gapl::event::Scalar;
use pscache::{CacheBuilder, SyncPolicy};

const CLIENTS: usize = 16;

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

    let json = format!(
        "{{\n  \"scenario\": \"{clients} concurrent clients, durable inserts into one persistent table\",\n  \"clients\": {clients},\n  \"inserts_per_client\": {per_client},\n  \"single_fsync_tps\": {single_tps:.1},\n  \"single_fsync_syncs\": {single_syncs},\n  \"group_commit_tps\": {group_tps:.1},\n  \"group_commit_syncs\": {group_syncs},\n  \"group_commit_mean_group_size\": {group_size:.2},\n  \"group_commit_speedup\": {speedup:.2}\n}}\n",
        clients = CLIENTS,
        per_client = per_client,
        single_tps = single_tps,
        single_syncs = single_syncs,
        group_tps = group_tps,
        group_syncs = group_syncs,
        group_size = total / group_syncs.max(1) as f64,
        speedup = speedup,
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "group commit: {group_tps:.0} inserts/s over {group_syncs} fsyncs; \
         single-fsync baseline: {single_tps:.0} inserts/s over {single_syncs} fsyncs; \
         speedup {speedup:.1}x -> {out}"
    );
}
