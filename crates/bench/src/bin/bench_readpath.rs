//! Read-path benchmark snapshot: selective `select` throughput with 8
//! reader threads against one durable persistent table while 2 writers
//! upsert continuously, lock-free epoch snapshots vs the legacy
//! under-mutex path, written as `BENCH_readpath.json` for the
//! performance trajectory.
//!
//! The legacy path clones an `Arc` per window row *while holding the
//! table mutex* — every query pays O(window) refcount traffic inside
//! the critical section, and every reader convoys with the writers.
//! The snapshot path loads the published `TableSnapshot` with one
//! atomic and evaluates borrowed rows outside any lock: only matching
//! rows are cloned at projection time, so a 1%-selective query touches
//! 1% of the refcounts and zero locks. Both effects are measured here:
//! `read_speedup_8r` (aggregate queries/sec across 8 readers) and
//! `writer_ratio` (upsert throughput with the readers hammering —
//! lock-free reads must never slow writers down).
//!
//! Run with `cargo run --release -p cep_bench --bin bench_readpath`
//! (output override: `BENCH_READPATH_OUT`; table size:
//! `BENCH_READPATH_ROWS`; measured seconds per mode:
//! `BENCH_READPATH_SECS`). `scripts/ci.sh bench` runs it with the ≥4x
//! read floor and ≥0.8x writer floor as part of the tier-1 gate.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{CacheBuilder, SyncPolicy};

const READERS: usize = 8;
const WRITERS: usize = 2;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scratch directory for one benchmark run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-readpath-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One mode under full contention: `READERS` threads running a
/// 1%-selective cached `select` and `WRITERS` threads upserting
/// existing keys (stable table size, continuous row replacement — the
/// compaction path runs during the measurement). Returns aggregate
/// (queries/sec, upserts/sec).
fn contended_throughput(mutex_read_path: bool, name: &str, rows: usize, secs: f64) -> (f64, f64) {
    let dir = scratch(name);
    let cache = CacheBuilder::new()
        .durability(&dir)
        .sync_policy(SyncPolicy::Group)
        .mutex_read_path(mutex_read_path)
        .open()
        .expect("open durable cache");
    cache
        .execute("create persistenttable KV (k varchar(24) primary key, v integer)")
        .expect("create table");
    let mut batch = Vec::with_capacity(1000);
    for i in 0..rows {
        batch.push(vec![
            Scalar::Str(format!("row{i:08}").into()),
            Scalar::Int(i as i64),
        ]);
        if batch.len() == 1000 {
            cache
                .insert_batch("KV", std::mem::take(&mut batch))
                .expect("seed batch");
        }
    }
    if !batch.is_empty() {
        cache.insert_batch("KV", batch).expect("seed batch");
    }

    // Matches the top ~1% of values; upserts rewrite rows without
    // moving them across the predicate boundary.
    let sql = format!("select k, v from KV where v >= {}", rows - rows / 100);
    let expected = rows / 100;

    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let cache = cache.clone();
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let sql = sql.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let got = cache
                        .execute(&sql)
                        .expect("select")
                        .rows()
                        .expect("row response")
                        .rows
                        .len();
                    assert_eq!(got, expected, "selective query returned a wrong count");
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for w in 0..WRITERS {
            let cache = cache.clone();
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Acquire) {
                    cache
                        .upsert(
                            "KV",
                            vec![
                                Scalar::Str(format!("row{i:08}").into()),
                                Scalar::Int(i as i64),
                            ],
                        )
                        .expect("upsert");
                    i = (i + WRITERS) % rows;
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Release);
        start
    });
    let q = queries.load(Ordering::Acquire) as f64 / secs;
    let w = writes.load(Ordering::Acquire) as f64 / secs;
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
    (q, w)
}

fn main() {
    let rows = env_usize("BENCH_READPATH_ROWS", 8_000);
    let secs = env_f64("BENCH_READPATH_SECS", 2.0);
    let out = std::env::var("BENCH_READPATH_OUT").unwrap_or_else(|_| "BENCH_readpath.json".into());

    // Warm-up: touch the temp filesystem, page cache, and code paths
    // once so neither measured mode pays first-use costs.
    contended_throughput(false, "warmup", rows / 10 + 100, 0.2);

    let (mutex_qps, mutex_wps) = contended_throughput(true, "mutex", rows, secs);
    let (snap_qps, snap_wps) = contended_throughput(false, "snapshot", rows, secs);
    let read_speedup = snap_qps / mutex_qps.max(f64::MIN_POSITIVE);
    let writer_ratio = snap_wps / mutex_wps.max(f64::MIN_POSITIVE);

    let json = format!(
        "{{\n  \"scenario\": \"{READERS} readers (1%-selective cached select) + {WRITERS} upserting writers, one durable persistent table\",\n  \"rows\": {rows},\n  \"readers\": {READERS},\n  \"writers\": {WRITERS},\n  \"measured_secs_per_mode\": {secs},\n  \"mutex_reads_per_sec\": {mutex_qps:.1},\n  \"mutex_writes_per_sec\": {mutex_wps:.1},\n  \"snapshot_reads_per_sec\": {snap_qps:.1},\n  \"snapshot_writes_per_sec\": {snap_wps:.1},\n  \"read_speedup_8r\": {read_speedup:.2},\n  \"writer_ratio\": {writer_ratio:.2}\n}}\n",
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "snapshot reads: {snap_qps:.0} q/s vs mutex {mutex_qps:.0} q/s -> {read_speedup:.1}x; \
         writers {snap_wps:.0}/s vs {mutex_wps:.0}/s -> {writer_ratio:.2}x -> {out}"
    );
}
