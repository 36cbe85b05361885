//! Chaos tests for the lock-free read path's durability contract:
//! **flush-before-visible**. A reader evaluating against a published
//! table snapshot must never observe a row whose WAL record is not yet
//! in the log file — group commit buffers record bytes in user space,
//! so the write path has to drain them to the OS *before* advancing
//! the snapshot's visible watermark. The tests interleave hot reader
//! loops with writers, explicit checkpoints, simulated crashes
//! (copying the durability directory mid-flight and recovering from
//! the copy), and failover promotion.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder, Query, SyncPolicy};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pscache-readpath-chaos-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy a durability directory "as a crash would leave it". The only
/// file mutated concurrently is the live append-only log (the test
/// never copies while a checkpoint is rotating), so copying the
/// static files first and the logs last yields a state some real
/// crash could have produced: a prefix of the log as of the moment
/// the copy read it, possibly with a torn tail.
fn crash_copy(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    let mut names: Vec<_> = fs::read_dir(src)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    // Logs ("wal-*.log") last, static files (snapshot) first.
    names.sort_by_key(|n| n.to_string_lossy().starts_with("wal-"));
    for name in names {
        fs::copy(src.join(&name), dst.join(&name)).unwrap();
    }
}

/// The largest contiguous key index visible through a full select —
/// the reader's notion of "how far the table has progressed".
fn observed_prefix(cache: &Cache, table: &str) -> u64 {
    let rows = match cache.select(&Query::new(table)) {
        Ok(rows) => rows,
        Err(_) => return 0,
    };
    let mut present = vec![false; rows.rows.len() + 1];
    for row in &rows.rows {
        if let Some(Scalar::Str(k)) = row.values.first() {
            if let Ok(i) = k.trim_start_matches('k').parse::<usize>() {
                if i < present.len() {
                    present[i] = true;
                }
            }
        }
    }
    let mut n = 0u64;
    while (n as usize) < present.len() && present[n as usize] {
        n += 1;
    }
    n
}

/// Writers race ahead under group commit while hot readers watch the
/// snapshot; the durability directory is "crashed" (copied) at random
/// moments between explicit checkpoints. Recovery from each copy must
/// contain every row any reader had observed before that copy began —
/// a reader-visible row with an unflushed WAL record would vanish.
#[test]
fn no_reader_observes_a_row_that_recovery_loses() {
    let dir = scratch("flush-before-visible");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .sync_policy(SyncPolicy::Group)
        .checkpoint_every(1_000_000) // only the chaos loop checkpoints
        .open()
        .unwrap();
    cache
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();
    cache.checkpoint().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicU64::new(0));

    let writer = {
        let cache = cache.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Acquire) {
                cache
                    .upsert(
                        "KV",
                        vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                    )
                    .unwrap();
                i += 1;
            }
            i
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cache = cache.clone();
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let n = observed_prefix(&cache, "KV");
                    observed.fetch_max(n, Ordering::AcqRel);
                }
            })
        })
        .collect();

    // Interleave crash copies and checkpoints while the table grows.
    let mut crashes: Vec<(u64, PathBuf)> = Vec::new();
    for round in 0..6 {
        std::thread::sleep(Duration::from_millis(30));
        // Sample what readers had provably seen *before* the copy
        // starts: flush-before-visible promises those records were in
        // the file before they became visible.
        let seen = observed.load(Ordering::Acquire);
        let crash_dir = scratch(&format!("crash-{round}"));
        crash_copy(&dir, &crash_dir);
        crashes.push((seen, crash_dir));
        if round % 2 == 1 {
            cache.checkpoint().unwrap();
        }
    }

    stop.store(true, Ordering::Release);
    let written = writer.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }
    assert!(written > 0, "the writer made progress");
    assert!(
        crashes.iter().any(|(seen, _)| *seen > 0),
        "readers observed progress before at least one crash"
    );
    cache.shutdown();

    for (seen, crash_dir) in crashes {
        let recovered = CacheBuilder::new().durability(&crash_dir).open().unwrap();
        let len = recovered.table_len("KV").unwrap() as u64;
        assert!(
            len >= seen,
            "readers observed {seen} rows before the crash but recovery \
             found only {len} — a visible row's WAL record was not durable"
        );
        for i in 0..seen {
            assert!(
                recovered.lookup("KV", &format!("k{i}")).unwrap().is_some(),
                "observed row k{i} vanished across crash recovery"
            );
        }
        recovered.shutdown();
        let _ = fs::remove_dir_all(&crash_dir);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A hot reader on a follower never travels backwards in time across
/// stream application, failover, and promotion: the observed
/// contiguous prefix is monotone, and after promotion the once-follower
/// serves reads and writes that extend — never rewind — what its
/// readers saw.
#[test]
fn follower_reads_stay_monotone_across_promotion() {
    let dir_p = scratch("promote-primary");
    let primary = CacheBuilder::new()
        .durability(&dir_p)
        .sync_policy(SyncPolicy::Group)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();
    let addr = primary.repl_addr().unwrap().to_string();
    primary
        .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
        .unwrap();

    let follower = Cache::follow(&addr).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let high_water = Arc::new(AtomicU64::new(0));
    let reader = {
        let follower = follower.clone();
        let stop = Arc::clone(&stop);
        let high_water = Arc::clone(&high_water);
        std::thread::spawn(move || {
            let mut max_seen = 0u64;
            while !stop.load(Ordering::Acquire) {
                let n = observed_prefix(&follower, "KV");
                assert!(
                    n >= max_seen,
                    "follower read went backwards: {n} after {max_seen}"
                );
                max_seen = n;
                high_water.store(max_seen, Ordering::Release);
            }
            max_seen
        })
    };

    for i in 0..300i64 {
        primary
            .upsert(
                "KV",
                vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
        if i == 150 {
            // A mid-stream checkpoint on the primary must be invisible
            // to follower reads.
            primary.checkpoint().unwrap();
        }
    }

    // Let the follower converge, then fail over under the hot reader.
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.replica_lsn() < primary.commit_lsn() {
        assert!(Instant::now() < deadline, "follower never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(primary);
    follower.promote().unwrap();

    // The promoted cache extends history; the reader keeps asserting
    // monotonicity while new writes land.
    for i in 300..400i64 {
        follower
            .upsert(
                "KV",
                vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
            )
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while high_water.load(Ordering::Acquire) < 400 {
        assert!(
            Instant::now() < deadline,
            "reader never saw the post-promotion writes (stuck at {})",
            high_water.load(Ordering::Acquire)
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    stop.store(true, Ordering::Release);
    let max_seen = reader.join().unwrap();
    assert_eq!(max_seen, 400, "every write became visible in order");

    follower.shutdown();
    let _ = fs::remove_dir_all(&dir_p);
}
