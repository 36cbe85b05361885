//! Cluster write-throughput snapshot: a fixed firehose of durable
//! batched inserts absorbed by 1, 2 and 4 partitions, written as
//! `BENCH_cluster.json` for the performance trajectory.
//!
//! The scenario is the cluster layer's reason to exist: replication
//! (BENCH_repl) scales reads, but a single primary pays for every
//! acked durable write twice over — the WAL commit (append, fsync,
//! reply, strictly in sequence) and the periodic checkpoint, which
//! rewrites the *whole* table it carries to bound recovery time.
//! Partitioning splits both: each primary commits to its own WAL, and
//! each checkpoint rewrites only that node's share of the rows.
//!
//! The harness boots P durable partition primaries (each an ordinary
//! cache with its own log directory and a `ClusterSpec`) behind P
//! `ReactorServer`s over TCP, preloads the table with historical rows
//! through the routed cluster path (untimed), then drives one writer
//! per partition over a fixed cluster-wide batch budget — strong
//! scaling: the same rows are ingested at every partition count. Keys
//! are pre-partitioned per writer with the same `HashRing` the servers
//! enforce (a misrouted key would come back as a `NotMine` redirect),
//! and every batch is acked only after the owning partition's WAL
//! flush. A lone primary serializes client CPU, fsync waits and
//! checkpoint stalls into one sequence; P primaries overlap one
//! stream's fsync with another's CPU and, above all, shrink each
//! checkpoint to 1/P of the table — which is why the aggregate scales
//! even where cores don't.
//!
//! Speedups are computed per 1/2/4 sweep and the median of N sweeps
//! is reported (a ratio of independently-lucky runs is biased; a
//! median of paired ratios is not). The headline metric is
//! `cluster_speedup_2`: aggregate acked rows/second at 2 partitions
//! over 1. `scripts/ci.sh bench` enforces
//! `cluster_speedup_2 >= 1.6`; `cluster_speedup_4` is recorded for
//! the trajectory.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_cluster`.
//! Knobs: `BENCH_CLUSTER_OUT` (output path), `BENCH_CLUSTER_BATCHES`
//! (cluster-wide batch budget), `BENCH_CLUSTER_ROWS` (rows per batch),
//! `BENCH_CLUSTER_PRELOAD` (historical rows), `BENCH_CLUSTER_CKPT`
//! (checkpoint cadence in WAL records), `BENCH_CLUSTER_DEPTH`
//! (batches in flight per writer; 1 = strictly blocking), and
//! `BENCH_CLUSTER_REPEATS` (sweeps in the median).

use std::collections::VecDeque;
use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use gapl::event::Scalar;
use pscache::{CacheBuilder, ClusterSpec, HashRing, SyncPolicy};
use psrpc::client::PendingReply;
use psrpc::cluster::ClusterClient;
use psrpc::message::{CacheReply, Request};
use psrpc::reactor::ReactorServer;
use psrpc::CacheClient;

const DDL: &str = "create persistenttable KV (k varchar(24) primary key, v integer)";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scratch directory for one partition of one configuration.
fn scratch(partitions: usize, partition: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bench-cluster-p{partitions}-{partition}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Partition `p`'s share of the fixed cluster-wide key sequence: the
/// same `total` keys are ingested at every partition count (strong
/// scaling — one firehose, more hardware), and each writer takes
/// exactly the keys its partition owns so every batch routes to one
/// primary (a misrouted key would come back as a `NotMine` redirect).
fn owned_keys(ring: &HashRing, partition: usize, total: usize) -> Vec<String> {
    (0..total)
        .map(|i| format!("key-{i:08}"))
        .filter(|k| ring.partition_of(k) == partition)
        .collect()
}

/// Aggregate acked rows/second for `partitions` primaries ingesting a
/// fixed cluster-wide budget of `batches` batches of `batch_rows`
/// durable inserts, one writer per partition keeping `depth` batches
/// in flight, checkpointing every `checkpoint_every` WAL records.
fn measure(
    partitions: usize,
    depth: usize,
    batches: usize,
    batch_rows: usize,
    preload: usize,
    checkpoint_every: u64,
) -> f64 {
    let caches: Vec<pscache::Cache> = (0..partitions)
        .map(|p| {
            let cache = CacheBuilder::new()
                .durability(scratch(partitions, p))
                // One fsync per acked batch, inside the append: the
                // strict commit-before-reply discipline. Group commit
                // has nothing to amortise here anyway — each partition
                // serves one serial writer — and the explicit policy
                // keeps the measured bottleneck the per-partition WAL
                // commit, on every machine.
                .sync_policy(SyncPolicy::Immediate)
                // Tight snapshot cadence bounds recovery time the same
                // way the failover CI scenario expects; the cadence is
                // identical at every partition count, and sharding is
                // what shrinks each node's snapshot volume.
                .checkpoint_every(checkpoint_every)
                .open()
                .expect("open durable partition");
            cache.set_cluster_spec(ClusterSpec::new(partitions, p));
            cache
        })
        .collect();
    let servers: Vec<ReactorServer> = caches
        .iter()
        .map(|c| ReactorServer::bind(c.clone(), "127.0.0.1:0").expect("bind partition server"))
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(ReactorServer::local_addr).collect();

    let setup = ClusterClient::connect(&addrs).expect("cluster client connects");
    setup.execute(DDL).expect("broadcast ddl");
    let ring = setup.ring().clone();

    // Preload the table before the clock starts: the cache arrives at
    // the measured window already holding `preload` historical rows,
    // so every checkpoint during the firehose rewrites a node's full
    // share of the table — the state a partition carries, not just
    // the rows this run added. Untimed, loaded through the routed
    // cluster path in wide batches.
    let seed: Vec<Vec<Scalar>> = (0..preload)
        .map(|i| vec![Scalar::Str(format!("seed-{i:08}").into()), Scalar::Int(0)])
        .collect();
    for chunk in seed.chunks(1000) {
        setup
            .insert_batch("KV", chunk.to_vec())
            .expect("preload batch acked");
    }
    drop(seed);

    let total_rows = batches * batch_rows;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (p, &addr) in addrs.iter().enumerate() {
            let keys = owned_keys(&ring, p, total_rows);
            scope.spawn(move || {
                let client = CacheClient::connect(addr).expect("writer connects");
                // The writer keeps a sliding window of `depth` batches
                // in flight on its pipelined connection: its
                // partition's WAL never idles between commits waiting
                // for the client to encode the next batch, so each
                // partition is a back-to-back stream of commits and
                // the partition count sets how many such streams the
                // storage layer sees at once. Every batch is still
                // acked individually, after its own WAL flush.
                let mut window: VecDeque<PendingReply> = VecDeque::new();
                let ack = |h: PendingReply| match h.wait().expect("durable batch acked") {
                    CacheReply::InsertedBatch { .. } => {}
                    other => panic!("unexpected reply to insert_batch: {other:?}"),
                };
                for chunk in keys.chunks(batch_rows) {
                    let rows: Vec<Vec<Scalar>> = chunk
                        .iter()
                        .map(|k| vec![Scalar::Str(k.as_str().into()), Scalar::Int(1)])
                        .collect();
                    let handle = client
                        .begin_request(Request::InsertBatch {
                            table: "KV".to_owned(),
                            rows,
                            upsert: false,
                        })
                        .expect("pipeline batch");
                    window.push_back(handle);
                    if window.len() >= depth {
                        ack(window.pop_front().expect("window is non-empty"));
                    }
                }
                for handle in window {
                    ack(handle);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Every acked row is on exactly its owner's disk.
    let held: usize = caches
        .iter()
        .map(|c| {
            c.execute("select * from KV")
                .expect("count partition rows")
                .rows()
                .expect("rows reply")
                .len()
        })
        .sum();
    assert_eq!(held, preload + total_rows, "acked rows must all be held");

    for server in servers {
        server.shutdown();
    }
    for (p, cache) in caches.into_iter().enumerate() {
        cache.shutdown();
        let _ = fs::remove_dir_all(scratch(partitions, p));
    }
    total_rows as f64 / elapsed
}

fn main() {
    let batches = env_usize("BENCH_CLUSTER_BATCHES", 2000);
    let batch_rows = env_usize("BENCH_CLUSTER_ROWS", 4);
    let depth = env_usize("BENCH_CLUSTER_DEPTH", 1).max(1);
    let preload = env_usize("BENCH_CLUSTER_PRELOAD", 150_000);
    let checkpoint_every = env_usize("BENCH_CLUSTER_CKPT", 100) as u64;
    let repeats = env_usize("BENCH_CLUSTER_REPEATS", 3).max(1);
    let out = std::env::var("BENCH_CLUSTER_OUT").unwrap_or_else(|_| "BENCH_cluster.json".into());

    // Warm-up pass at a fraction of the budget settles the page cache
    // and the allocator, then N full 1/2/4-partition sweeps. The
    // speedups are computed per sweep and the median sweep is
    // reported: a ratio of independently-lucky runs is biased, a
    // median of paired ratios is not, and it absorbs scheduler and
    // journal-placement noise in either direction.
    for &partitions in &[1usize, 2, 4] {
        let _ = measure(
            partitions,
            depth,
            (batches / 8).max(2),
            batch_rows,
            preload / 8,
            checkpoint_every,
        );
    }
    let mut sweeps: Vec<[f64; 3]> = (0..repeats)
        .map(|_| {
            [1usize, 2, 4].map(|partitions| {
                measure(
                    partitions,
                    depth,
                    batches,
                    batch_rows,
                    preload,
                    checkpoint_every,
                )
            })
        })
        .collect();
    sweeps.sort_by(|a, b| {
        let (ra, rb) = (a[1] / a[0], b[1] / b[0]);
        ra.partial_cmp(&rb).expect("speedups are comparable")
    });
    let median = sweeps[sweeps.len() / 2];

    let rates: Vec<(usize, f64)> = [1usize, 2, 4].iter().copied().zip(median).collect();
    for (partitions, rate) in &rates {
        println!(
            "{partitions} partition(s): {rate:>9.0} acked rows/s \
             ({batches} batches x {batch_rows} rows cluster-wide over \
             {preload} preloaded, pipeline depth {depth}, checkpoint \
             every {checkpoint_every} records, median of {repeats} sweeps)"
        );
    }
    let base = rates[0].1;
    let speedup_2 = rates[1].1 / base;
    let speedup_4 = rates[2].1 / base;

    let lines: Vec<String> = rates
        .iter()
        .map(|(p, r)| format!("  \"rows_per_sec_{p}p\": {r:.1}"))
        .collect();
    let json = format!(
        "{{\n  \"scenario\": \"fixed firehose of durable batched inserts, flush-before-ack, \
         checkpoint every {checkpoint_every} records, median of {repeats} sweeps\",\n  \
         \"batches_total\": {batches},\n  \"batch_rows\": {batch_rows},\n  \
         \"preload_rows\": {preload},\n  \"pipeline_depth\": {depth},\n{},\n  \
         \"cluster_speedup_2\": {speedup_2:.2},\n  \
         \"cluster_speedup_4\": {speedup_4:.2}\n}}\n",
        lines.join(",\n"),
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "cluster: 2 partitions carry {speedup_2:.2}x the single-primary durable write rate, \
         4 partitions {speedup_4:.2}x -> {out}"
    );
}
