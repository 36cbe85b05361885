//! Staging a keyed batch takes linear time.
//!
//! A persistent table stages a whole upsert batch before it commits
//! any of it, and every staged row must see the rows staged before it
//! (a key repeated inside one batch updates its own earlier row). The
//! lookup that finds them is what this suite prices: per row, a
//! 32,768-row batch may cost at most [`MAX_RATIO`] times what a
//! 2,048-row batch costs. A lookup that walks the staged rows makes the
//! ratio about the batch-size ratio, 16.

use std::time::Instant;

use gapl::event::Scalar;
use pscache::{CacheBuilder, Query};

const SMALL: usize = 2_048;
const LARGE: usize = 32_768;
/// Largest allowed ratio of the large batch's per-row time to the
/// small one's.
const MAX_RATIO: f64 = 4.0;

/// Seconds per row of one upsert batch of `rows` rows into a fresh
/// in-memory persistent table, the fewest of `rounds` rounds. One row
/// in eight repeats a key staged seven rows earlier in the same batch.
fn per_row(rows: usize, rounds: usize) -> f64 {
    (0..rounds)
        .map(|_| {
            let cache = CacheBuilder::new().manual_clock().build();
            cache
                .execute("create persistenttable Hosts (host varchar(32) primary key, n integer)")
                .unwrap();
            let batch: Vec<Vec<Scalar>> = (0..rows)
                .map(|i| {
                    let key = if i % 8 == 7 { i - 7 } else { i };
                    vec![
                        Scalar::Str(format!("host-{key}").into()),
                        Scalar::Int(i as i64),
                    ]
                })
                .collect();
            let t = Instant::now();
            cache.upsert_batch("Hosts", batch).unwrap();
            let per_row = t.elapsed().as_secs_f64() / rows as f64;
            let stored = cache.select(&Query::new("Hosts")).unwrap().rows.len();
            assert_eq!(stored, rows - rows / 8);
            per_row
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn a_large_upsert_batch_stages_in_linear_time() {
    let small = per_row(SMALL, 9);
    let large = per_row(LARGE, 3);
    let ratio = large / small;
    println!(
        "per row: {:.0} ns at {SMALL} rows, {:.0} ns at {LARGE} rows, ratio {ratio:.2}",
        small * 1e9,
        large * 1e9
    );
    assert!(
        ratio <= MAX_RATIO,
        "a {LARGE}-row batch costs {ratio:.2} times as much per row as a {SMALL}-row batch \
         (at most {MAX_RATIO})"
    );
}
