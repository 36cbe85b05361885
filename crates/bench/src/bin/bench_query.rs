//! Query-engine benchmark snapshot: ops/sec for the full-scan vs
//! windowed (`since τ`, 1% window) select paths at 1k/10k/100k rows,
//! written as `BENCH_query.json` for the performance trajectory.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_query`
//! (the output path can be overridden with `BENCH_QUERY_OUT`).
//! `scripts/ci.sh bench` runs it with the ≥10x window floor; the
//! criterion benches `query_engine` and `cache_paths` time the same
//! read path per iteration.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder, Query};

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

fn populated_cache(rows: usize) -> Cache {
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute(&format!(
            "create table Flows (srcip varchar(16), nbytes integer) capacity {rows}"
        ))
        .expect("create table");
    let clock = cache.manual_clock().expect("manual clock").clone();
    // Chunk so timestamps resolve to 0.1% of the table: batches share one
    // insertion timestamp by design, and the windowed queries below need
    // the 1% boundary to fall *inside* the data at every size.
    let chunk_rows = (rows / 1000).max(1);
    for chunk in (0..rows).collect::<Vec<_>>().chunks(chunk_rows) {
        clock.advance(chunk.len() as u64);
        cache
            .insert_batch(
                "Flows",
                chunk
                    .iter()
                    .map(|i| {
                        vec![
                            Scalar::from(format!("10.0.{}.{}", (i / 250) % 250, i % 250)),
                            Scalar::Int(*i as i64),
                        ]
                    })
                    .collect(),
            )
            .expect("insert batch");
    }
    cache
}

/// Run `op` repeatedly for at least `budget`, returning ops/sec.
fn ops_per_sec(budget: Duration, mut op: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..3 {
        op();
    }
    let start = Instant::now();
    let mut iterations = 0u64;
    while start.elapsed() < budget {
        op();
        iterations += 1;
    }
    iterations as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::var("BENCH_QUERY_OUT").unwrap_or_else(|_| "BENCH_query.json".into());
    let budget = Duration::from_millis(
        std::env::var("BENCH_QUERY_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(500),
    );

    let mut entries = String::new();
    println!("query engine snapshot (budget {budget:?} per measurement)");
    println!(
        "{:>8} {:>16} {:>16} {:>9}",
        "rows", "full_scan/s", "window_1pct/s", "speedup"
    );
    for (i, rows) in SIZES.into_iter().enumerate() {
        let cache = populated_cache(rows);
        let full = Query::new("Flows");
        let full_ops = ops_per_sec(budget, || {
            cache.select(&full).expect("select");
        });
        let tau = cache
            .select(&Query::new("Flows"))
            .expect("select")
            .max_tstamp()
            .expect("non-empty")
            - (rows as u64) / 100;
        let windowed = Query::new("Flows").since(tau);
        let window_ops = ops_per_sec(budget, || {
            cache.select(&windowed).expect("select");
        });
        let speedup = window_ops / full_ops;
        println!("{rows:>8} {full_ops:>16.0} {window_ops:>16.0} {speedup:>8.1}x");
        if i > 0 {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"rows\": {rows}, \"full_scan_ops_per_sec\": {full_ops:.1}, \
             \"window_1pct_ops_per_sec\": {window_ops:.1}, \"window_speedup\": {speedup:.2}}}"
        )
        .expect("write to string");
    }

    let json = format!(
        "{{\n  \"bench\": \"query_engine\",\n  \"workload\": \"select * from Flows [since tau] \
         over a hot stream table; tau = 1% tail window\",\n  \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_query.json");
    println!("\nwrote {out_path}");
}
