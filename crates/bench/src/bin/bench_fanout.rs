//! Fan-out benchmark snapshot: insert throughput with 1,000 registered
//! automata at 1% guard selectivity, predicate-indexed dispatch vs the
//! naive all-subscribers fan-out, written as `BENCH_fanout.json` for
//! the performance trajectory.
//!
//! The scenario is the paper's stock-watcher at scale: every automaton
//! guards on one of 100 symbols (`if (t.sym == 'SYMnnn') …`), ten
//! automata per symbol, so a published tick concerns exactly 1% of the
//! population. Naive fan-out wakes all 1,000 VMs per tuple; the
//! predicate index hashes the tuple's symbol to its equality bucket and
//! wakes ten.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_fanout`
//! (output path override: `BENCH_FANOUT_OUT`; tuple count:
//! `BENCH_FANOUT_TUPLES`). `scripts/ci.sh bench` runs it with the ≥10x
//! floor check as part of the tier-1 gate.

use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder};

const AUTOMATA: usize = 1000;
/// 100 distinct symbols over 1000 automata = 10 automata (1%) per tick.
const SYMBOLS: usize = 100;
const BATCH_ROWS: usize = 100;

fn populated_cache(naive: bool) -> Cache {
    let cache = CacheBuilder::new().naive_fanout(naive).build();
    cache
        .execute("create table Ticks (sym varchar(12), price integer)")
        .expect("create table");
    for a in 0..AUTOMATA {
        cache
            .register_automaton(&format!(
                "subscribe t to Ticks; behavior {{ if (t.sym == 'SYM{:03}') send(t.price); }}",
                a % SYMBOLS
            ))
            .expect("register automaton");
    }
    assert_eq!(cache.topic_subscriber_count("Ticks"), AUTOMATA);
    cache
}

/// Batch-insert `tuples` ticks (symbols round-robin) and wait until
/// every automaton has drained its mailbox; returns end-to-end
/// tuples/sec.
fn insert_throughput(cache: &Cache, tuples: usize) -> f64 {
    let start = Instant::now();
    let mut sent = 0usize;
    let mut seq = 0usize;
    while sent < tuples {
        let rows: Vec<Vec<Scalar>> = (0..BATCH_ROWS.min(tuples - sent))
            .map(|_| {
                let row = vec![
                    Scalar::from(format!("SYM{:03}", seq % SYMBOLS)),
                    Scalar::Int(seq as i64),
                ];
                seq += 1;
                row
            })
            .collect();
        sent += rows.len();
        cache.insert_batch("Ticks", rows).expect("insert batch");
    }
    assert!(
        cache.quiesce(Duration::from_secs(600)),
        "automata failed to drain"
    );
    sent as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::var("BENCH_FANOUT_OUT").unwrap_or_else(|_| "BENCH_fanout.json".into());
    let tuples: usize = std::env::var("BENCH_FANOUT_TUPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);

    println!(
        "fan-out snapshot: {AUTOMATA} automata, {SYMBOLS} symbols (1% selectivity), {tuples} tuples"
    );

    // Naive mode first: every tuple wakes every automaton.
    let naive_cache = populated_cache(true);
    insert_throughput(&naive_cache, BATCH_ROWS); // warm-up
    let naive_ops = insert_throughput(&naive_cache, tuples);
    drop(naive_cache);

    // Indexed mode: the equality buckets wake 1% of the population.
    let indexed_cache = populated_cache(false);
    insert_throughput(&indexed_cache, BATCH_ROWS); // warm-up
    let indexed_ops = insert_throughput(&indexed_cache, tuples);
    let dispatch = indexed_cache.dispatch_stats();
    assert_eq!(dispatch.queue_depth, 0);
    drop(indexed_cache);

    let speedup = indexed_ops / naive_ops;
    println!(
        "{:>22} {:>16} {:>9}",
        "naive tuples/s", "indexed tuples/s", "speedup"
    );
    println!("{naive_ops:>22.0} {indexed_ops:>16.0} {speedup:>8.1}x");
    println!(
        "indexed dispatch: {} delivered, {} skipped by prefilter",
        dispatch.delivered, dispatch.skipped_by_prefilter
    );

    let json = format!(
        "{{\n  \"bench\": \"automaton_fanout\",\n  \"workload\": \"insert_batch into a topic \
         watched by {AUTOMATA} automata with equality guards over {SYMBOLS} symbols (1% \
         selectivity per tuple)\",\n  \"tuples\": {tuples},\n  \"automata\": {AUTOMATA},\n  \
         \"naive_tuples_per_sec\": {naive_ops:.1},\n  \"indexed_tuples_per_sec\": \
         {indexed_ops:.1},\n  \"indexed_delivered\": {},\n  \"indexed_skipped_by_prefilter\": \
         {},\n  \"speedup\": {speedup:.2}\n}}\n",
        dispatch.delivered, dispatch.skipped_by_prefilter
    );
    std::fs::write(&out_path, &json).expect("write BENCH_fanout.json");
    println!("\nwrote {out_path}");
}
