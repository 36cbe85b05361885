//! Replication benchmark snapshot: shipping lag under sustained write
//! load, catch-up time, and follower read throughput vs the primary,
//! written as `BENCH_repl.json` for the performance trajectory.
//!
//! The scenario is the read-scaling deployment: a durable primary
//! serving its WAL stream, one follower replica applying it, and a
//! loader upserting batches as fast as the group-committed log accepts
//! them. While the load runs, the harness samples the replica's
//! staleness (`commit_lsn - replica_lsn`); afterwards it times the
//! catch-up to zero lag, then measures the same windowed `select` on
//! both nodes. The follower answers from its own table store — reads
//! scale out — so its throughput must stay within 2x of the primary's
//! (`follower_read_ratio >= 0.5`), and the stream must fully drain
//! (`converged == 1`): those are the floors `scripts/ci.sh bench`
//! enforces.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_repl`
//! (output path override: `BENCH_REPL_OUT`; row count:
//! `BENCH_REPL_ROWS`).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder};

const BATCH: usize = 200;
const READ_QUERIES: usize = 300;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-repl-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Queries/second for `queries` runs of `sql` against `cache`
/// (plan-cached after the first run, like the paper's periodic pollers).
fn read_throughput(cache: &Cache, sql: &str, queries: usize) -> f64 {
    // Warm the plan cache and the page the rows live on.
    for _ in 0..queries / 10 + 1 {
        cache.execute(sql).expect("warmup select");
    }
    let start = Instant::now();
    for _ in 0..queries {
        let rows = cache
            .execute(sql)
            .expect("measured select")
            .rows()
            .expect("select returns rows");
        assert!(!rows.is_empty(), "the measured query must do real work");
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let rows = env_usize("BENCH_REPL_ROWS", 20_000);
    let out = std::env::var("BENCH_REPL_OUT").unwrap_or_else(|_| "BENCH_repl.json".into());

    let dir = scratch("primary");
    let primary = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .expect("open primary");
    let addr = primary.repl_addr().expect("listener bound").to_string();
    primary
        .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
        .expect("create table");
    let follower = Cache::follow(&addr).expect("open follower");

    // Sustained load: upsert batches as fast as the log accepts them,
    // sampling the replica's staleness after every batch.
    let mut max_lag_records = 0u64;
    let load_start = Instant::now();
    for base in (0..rows).step_by(BATCH) {
        let batch: Vec<Vec<Scalar>> = (base..(base + BATCH).min(rows))
            .map(|i| {
                vec![
                    Scalar::Str(format!("key-{i:08}").into()),
                    Scalar::Int(i as i64),
                ]
            })
            .collect();
        primary.insert_batch("KV", batch).expect("loaded batch");
        let lag = primary.commit_lsn().saturating_sub(follower.replica_lsn());
        max_lag_records = max_lag_records.max(lag);
    }
    let load_secs = load_start.elapsed().as_secs_f64();

    // Catch-up: the stream must drain to zero staleness.
    let catchup_start = Instant::now();
    let deadline = catchup_start + Duration::from_secs(30);
    let mut converged = 0u32;
    while Instant::now() < deadline {
        if follower.replica_lsn() >= primary.commit_lsn() {
            converged = 1;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let catchup_ms = catchup_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        follower.table_len("KV").expect("follower has the table"),
        rows,
        "the follower must hold every replicated row"
    );

    // Read scaling: the same windowed select on both nodes.
    let sql = format!("select * from KV where v >= {}", rows.saturating_sub(100));
    let primary_qps = read_throughput(&primary, &sql, READ_QUERIES);
    let follower_qps = read_throughput(&follower, &sql, READ_QUERIES);
    let ratio = follower_qps / primary_qps;

    let json = format!(
        "{{\n  \"scenario\": \"durable primary + 1 follower, {rows} upserted rows, shared windowed select\",\n  \"rows\": {rows},\n  \"batch\": {batch},\n  \"load_tps\": {load_tps:.1},\n  \"max_lag_records_during_load\": {max_lag},\n  \"catchup_ms\": {catchup_ms:.1},\n  \"converged\": {converged},\n  \"primary_reads_per_sec\": {p:.1},\n  \"follower_reads_per_sec\": {f:.1},\n  \"follower_read_ratio\": {ratio:.3}\n}}\n",
        rows = rows,
        batch = BATCH,
        load_tps = rows as f64 / load_secs,
        max_lag = max_lag_records,
        catchup_ms = catchup_ms,
        converged = converged,
        p = primary_qps,
        f = follower_qps,
        ratio = ratio,
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "replication: {rows} rows shipped, max lag {max_lag_records} records, \
         caught up in {catchup_ms:.0} ms; reads {follower_qps:.0}/s on the follower vs \
         {primary_qps:.0}/s on the primary (ratio {ratio:.2}) -> {out}"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
