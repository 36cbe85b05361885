//! Durability and crash-recovery tests for the write-ahead log.
//!
//! The centrepiece is a differential proptest: random mutation
//! histories are applied to a durable cache *and* to an in-memory
//! model, the log is then "crashed" — truncated or corrupted at an
//! arbitrary byte offset — and recovery must reproduce exactly the
//! model state after the records that survived the crash, byte for
//! byte (rows, scan order, timestamps). The satellite tests cover the
//! named edge cases: empty log, snapshot-only recovery, torn tail
//! records, double-recovery idempotence, and recovery with registered
//! automata (replay never re-fires a behavior).

use std::fs;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use gapl::event::Scalar;
use pscache::repl::proto::{self, FollowerMsg, PrimaryMsg};
use pscache::wal::{count_complete_records, log_path, split_frames};
use pscache::{Cache, CacheBuilder, IdemToken, Query};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pscache-durability-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The file names inside `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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

#[test]
fn recovering_an_empty_directory_yields_a_working_fresh_cache() {
    let dir = scratch("empty-dir");
    let cache = Cache::recover(&dir).expect("recover from nothing");
    assert!(cache.table_names().contains(&"Timer".to_string()));
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    cache
        .insert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
        .unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 0);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_log_recovers_ddl_but_no_rows() {
    let dir = scratch("empty-log");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache.execute("create table S (v integer)").unwrap();
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 0);
    assert_eq!(cache.table_len("S").unwrap(), 0);
    assert!(cache.table_names().contains(&"KV".to_string()));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_only_recovery_replays_zero_records() {
    let dir = scratch("snapshot-only");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        cache.checkpoint().unwrap();
        // One snapshot, one (now empty) log: the whole on-disk layout.
        assert_eq!(files_in(&dir), ["snapshot.snap", "wal-000.log"]);
    }
    let cache = Cache::recover(&dir).unwrap();
    // Everything came from the snapshot; the log was truncated.
    assert_eq!(cache.wal_stats().unwrap().replayed, 0);
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    assert_eq!(
        cache.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn log_tail_after_a_checkpoint_is_replayed_on_top_of_the_snapshot() {
    let dir = scratch("snapshot-plus-tail");
    let pre;
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache
            .insert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
            .unwrap();
        cache.checkpoint().unwrap();
        cache
            .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(10)])
            .unwrap();
        cache
            .insert("KV", vec![Scalar::Str("b".into()), Scalar::Int(2)])
            .unwrap();
        cache.remove("KV", "missing").unwrap();
        pre = dump(&cache, "KV");
    }
    let cache = Cache::recover(&dir).unwrap();
    let stats = cache.wal_stats().unwrap();
    assert_eq!(
        stats.replayed, 3,
        "upsert + insert + remove live in the tail"
    );
    assert_eq!(dump(&cache, "KV"), pre);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_record_is_detected_and_dropped() {
    let dir = scratch("torn-tail");
    let pre;
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache.checkpoint().unwrap();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        pre = dump(&cache, "KV");
    }
    // Tear the final record: chop a few bytes off the log.
    let log = log_path(&dir);
    let bytes = fs::read(&log).unwrap();
    assert_eq!(count_complete_records(&bytes), 3);
    fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 2);
    assert_eq!(dump(&cache, "KV"), pre[..2].to_vec());
    // The recovered log accepts new appends after the torn tail.
    cache
        .insert("KV", vec![Scalar::Str("d".into()), Scalar::Int(4)])
        .unwrap();
    drop(cache);

    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn double_recovery_is_idempotent() {
    let dir = scratch("double-recovery");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for i in 0..10i64 {
            cache
                .upsert(
                    "KV",
                    vec![Scalar::Str(format!("k{}", i % 4).into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        cache.remove("KV", "k1").unwrap();
    }
    let first = {
        let cache = Cache::recover(&dir).unwrap();
        dump(&cache, "KV")
    };
    let second = {
        let cache = Cache::recover(&dir).unwrap();
        dump(&cache, "KV")
    };
    assert_eq!(first, second);
    assert_eq!(first.len(), 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_never_refires_automata() {
    let dir = scratch("no-refire");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 100), ("b", 200)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    // Register *after* recovery — exactly what an application restarting
    // alongside the cache would do. Replayed rows must not reach it.
    let (id, rx) = cache
        .register_automaton("subscribe k to KV; behavior { send(k.v); }")
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    assert_eq!(rx.try_iter().count(), 0, "replay must not be published");
    let (delivered, _) = cache.automaton_progress(id).unwrap();
    assert_eq!(delivered, 0);
    // Live traffic still flows.
    cache
        .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(300)])
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    let notes: Vec<_> = rx.try_iter().collect();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].values[0], Scalar::Int(300));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ephemeral_streams_are_empty_after_recovery() {
    let dir = scratch("ephemeral-empty");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create table S (v integer) capacity 128")
            .unwrap();
        for i in 0..50i64 {
            cache.insert("S", vec![Scalar::Int(i)]).unwrap();
        }
        assert_eq!(cache.table_len("S").unwrap(), 50);
    }
    let cache = Cache::recover(&dir).unwrap();
    // The stream exists (its DDL is durable) but holds no rows: streams
    // are in-memory by design and are documented to come back empty.
    assert_eq!(cache.table_len("S").unwrap(), 0);
    cache.insert("S", vec![Scalar::Int(99)]).unwrap();
    assert_eq!(cache.table_len("S").unwrap(), 1);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_recovers_acknowledged_writes() {
    let dir = scratch("acked-writes");
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_inserters_group_commit_and_recover_exactly() {
    let dir = scratch("group-commit");
    let threads = 8;
    let per_thread = 25i64;
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        cache
                            .insert(
                                "KV",
                                vec![Scalar::Str(format!("t{t}-{i}").into()), Scalar::Int(i)],
                            )
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.wal_stats().unwrap();
        // + 2: the Timer topic's DDL and the KV table's DDL are logged too.
        assert_eq!(stats.records, (threads as u64) * (per_thread as u64) + 2);
        assert!(
            stats.syncs <= stats.records,
            "group commit never syncs more than once per record"
        );
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(
        cache.table_len("KV").unwrap(),
        (threads * per_thread as usize),
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_truncate_the_log() {
    let dir = scratch("auto-checkpoint");
    {
        let cache = CacheBuilder::new()
            .durability(&dir)
            .checkpoint_every(10)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for i in 0..25i64 {
            cache
                .upsert(
                    "KV",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        let stats = cache.wal_stats().unwrap();
        assert!(stats.checkpoints >= 2, "26 records / threshold 10");
    }
    let cache = Cache::recover(&dir).unwrap();
    let stats = cache.wal_stats().unwrap();
    assert!(
        stats.replayed <= 10,
        "checkpoints bound the replayable tail, got {}",
        stats.replayed
    );
    assert_eq!(cache.table_len("KV").unwrap(), 25);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint that comes due while a cache opens runs over the
/// replayed state. With `checkpoint_every(1)` the open's own Timer
/// record trips it, and the snapshot it writes retires the log the rows
/// were just replayed from — so it must already hold them.
#[test]
fn a_checkpoint_due_at_open_snapshots_the_recovered_rows() {
    let dir = scratch("due-at-open");
    let crashed = scratch("due-at-open-crashed");
    {
        let cache = CacheBuilder::new()
            .durability(&dir)
            .checkpoint_every(0)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(1)
        .open()
        .unwrap();
    assert_eq!(cache.wal_stats().unwrap().checkpoints, 1);
    let before = dump(&cache, "KV");
    assert_eq!(before.len(), 2);
    // Crash right here: recover a copy of the directory as it stands.
    fs::create_dir_all(&crashed).unwrap();
    for name in files_in(&dir) {
        fs::copy(dir.join(&name), crashed.join(&name)).unwrap();
    }
    drop(cache);
    let recovered = Cache::recover(&crashed).unwrap();
    assert_eq!(dump(&recovered, "KV"), before);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn a_zero_filled_tail_is_treated_as_torn_not_as_a_record() {
    // Filesystems can extend a file with zeroes on power failure; a
    // zero-filled frame header reads as len=0/crc=0 and crc32("") == 0,
    // so only an explicit empty-payload rejection keeps recovery from
    // choking on it.
    let dir = scratch("zero-tail");
    let pre;
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        pre = dump(&cache, "KV");
    }
    let log = log_path(&dir);
    let mut bytes = fs::read(&log).unwrap();
    bytes.extend_from_slice(&[0u8; 512]);
    fs::write(&log, &bytes).unwrap();

    let cache = CacheBuilder::new()
        .durability(&dir)
        .open()
        .expect("a zero-filled tail must not make the log unrecoverable");
    assert_eq!(dump(&cache, "KV"), pre);
    // The truncated-on-open log accepts and persists new writes.
    cache
        .insert("KV", vec![Scalar::Str("c".into()), Scalar::Int(3)])
        .unwrap();
    drop(cache);
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_interrupted_checkpoint_is_completed_without_losing_the_rotated_log() {
    // Simulate a crash after checkpoint phase 1 (rotate) but before the
    // snapshot landed: the rotated file holds acknowledged records that
    // no snapshot covers. Recovery must replay them, and the completing
    // checkpoint must never clobber them.
    let dir = scratch("interrupted-checkpoint");
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let live = log_path(&dir);
    let rotated = dir.join("wal-000.log.1");
    fs::rename(&live, &rotated).unwrap();

    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    drop(cache);
    // The completing checkpoint moved everything into the snapshot and
    // retired the rotated file; the state must survive another recovery.
    assert!(!rotated.exists());
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    assert_eq!(
        cache.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn records_duplicated_across_rotated_and_live_logs_replay_once() {
    // Simulate a crash between "append live log onto a surviving rotated
    // file" and "truncate live log" (rotate_begin's no-clobber path):
    // the same records exist in both files. LSN dedup must apply each
    // exactly once — a double-applied plain insert would be a
    // duplicate-key error and an unrecoverable log.
    let dir = scratch("dup-records");
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let live = log_path(&dir);
    fs::copy(&live, dir.join("wal-000.log.1")).unwrap();

    let cache = CacheBuilder::new()
        .durability(&dir)
        .open()
        .expect("duplicated records must not fail replay");
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    assert_eq!(
        cache.wal_stats().unwrap().replayed,
        4,
        "Timer create + KV create + 2 inserts, each exactly once despite two copies on disk"
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

/// Rewrite `dir`'s log the way an older build, which striped the log
/// over many files, could have left it: the complete frames of the real
/// log dealt round-robin over a live `wal-000.log`, a second stripe
/// `wal-007.log` and a rotated leftover `wal-011.log.1`. The frame with
/// LSN `lose`, if any, is dropped — the hole a crash between two
/// stripes' fsyncs leaves below records that did reach the disk.
fn scatter_over_legacy_stripes(dir: &Path, lose: Option<u64>) {
    let bytes = fs::read(log_path(dir)).unwrap();
    let mut stripes: [Vec<u8>; 3] = Default::default();
    for (i, (lsn, frame)) in split_frames(&bytes).into_iter().enumerate() {
        if Some(lsn) != lose {
            stripes[i % 3].extend_from_slice(frame);
        }
    }
    fs::write(log_path(dir), &stripes[0]).unwrap();
    fs::write(dir.join("wal-007.log"), &stripes[1]).unwrap();
    fs::write(dir.join("wal-011.log.1"), &stripes[2]).unwrap();
}

/// A durable history over two tables whose LSNs are known: 1 = Timer
/// create, 2 = KV create, 3 = B create, 4..=6 = KV rows, 7..=9 = B rows.
fn write_two_table_history(dir: &Path) {
    let cache = Cache::recover(dir).unwrap();
    for table in ["KV", "B"] {
        cache
            .execute(&format!(
                "create persistenttable {table} (k varchar(8) primary key, v integer)"
            ))
            .unwrap();
    }
    for table in ["KV", "B"] {
        for i in 0..3i64 {
            cache
                .insert(
                    table,
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
    }
    assert_eq!(count_complete_records(&fs::read(log_path(dir)).unwrap()), 9);
}

#[test]
fn a_multi_file_directory_from_an_older_build_recovers_and_collapses_to_one_log() {
    let dir = scratch("legacy-stripes");
    write_two_table_history(&dir);
    scatter_over_legacy_stripes(&dir, None);

    // Every acknowledged row comes back, merged across the files by LSN.
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 9);
    let (kv, b) = (dump(&cache, "KV"), dump(&cache, "B"));
    assert_eq!((kv.len(), b.len()), (3, 3));
    // Opening checkpointed promptly: the records now live in the
    // snapshot and the extra files are gone for good.
    assert_eq!(files_in(&dir), ["snapshot.snap", "wal-000.log"]);
    cache
        .insert("KV", vec![Scalar::Str("post".into()), Scalar::Int(9)])
        .unwrap();
    drop(cache);

    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 1);
    assert_eq!(dump(&cache, "KV")[..3], kv[..]);
    assert_eq!(cache.table_len("KV").unwrap(), 4);
    assert_eq!(dump(&cache, "B"), b);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_follower_resumes_a_holed_legacy_directory_from_the_contiguous_point() {
    let dir = scratch("legacy-hole");
    write_two_table_history(&dir);
    // KV's last row (LSN 6) never reached its stripe's file, while B's
    // rows (LSNs 7..=9) reached theirs.
    scatter_over_legacy_stripes(&dir, Some(6));

    // Stand in for the primary: accept the subscription and read the
    // LSN the follower claims to be complete up to.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let follower = CacheBuilder::new()
        .durability(&dir)
        .follow(listener.local_addr().unwrap().to_string())
        .open()
        .unwrap();
    let (stream, _) = listener.accept().unwrap();
    let mut reader = BufReader::new(stream);
    proto::read_magic(&mut reader).unwrap();
    let subscribe = FollowerMsg::read(&mut reader).unwrap();
    // Everything that survived is served, but the stream resumes below
    // the hole, so the primary re-ships it (and what follows).
    assert_eq!(subscribe, Some(FollowerMsg::Subscribe { from_lsn: 5 }));
    assert_eq!(follower.replica_lsn(), 5);
    assert_eq!(follower.table_len("KV").unwrap(), 2);
    assert_eq!(follower.table_len("B").unwrap(), 3);
    assert_eq!(files_in(&dir), ["snapshot.snap", "wal-000.log"]);
    follower.shutdown();
    drop(follower);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_a_clean_log_issues_no_fsync() {
    let dir = scratch("idle-checkpoint");
    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    let syncs = || cache.wal_stats().unwrap().syncs;

    // Clean: the insert's own group commit already fsynced its record.
    cache
        .insert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
        .unwrap();
    let before = syncs();
    cache.checkpoint().unwrap();
    assert_eq!(syncs() - before, 0, "clean log, first checkpoint");
    cache.checkpoint().unwrap();
    assert_eq!(syncs() - before, 0, "clean log, idle checkpoint");

    // Dirty: a record staged by an uncommitted run is buffered but not
    // fsynced, so the first checkpoint must sync it — once — and the
    // run's commit then finds it durable already.
    let mut run = cache.write_run();
    run.insert(
        "KV",
        vec![Scalar::Str("b".into()), Scalar::Int(2)],
        false,
        None,
    )
    .unwrap();
    let before = syncs();
    cache.checkpoint().unwrap();
    assert_eq!(syncs() - before, 1, "dirty log, first checkpoint");
    cache.checkpoint().unwrap();
    assert_eq!(syncs() - before, 1, "dirty log, idle checkpoint");
    run.commit().unwrap();
    assert_eq!(syncs() - before, 1, "the run's commit after the checkpoint");
    drop(run);

    assert_eq!(cache.wal_stats().unwrap().checkpoints, 4);
    drop(cache);
    assert_eq!(Cache::recover(&dir).unwrap().table_len("KV").unwrap(), 2);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Incremental checkpoints: a base image plus the deltas written over it.
// ---------------------------------------------------------------------------

/// The `delta-<n>.snap` files in `dir`, by name.
fn deltas_in(dir: &Path) -> Vec<String> {
    files_in(dir)
        .into_iter()
        .filter(|n| n.starts_with("delta-") && n.ends_with(".snap"))
        .collect()
}

/// Copy `dir` as it stands into a fresh scratch directory: the disk a
/// crash at this instant leaves behind.
fn crash_copy(dir: &Path, name: &str) -> PathBuf {
    let copy = scratch(name);
    fs::create_dir_all(&copy).unwrap();
    for name in files_in(dir) {
        fs::copy(dir.join(&name), copy.join(&name)).unwrap();
    }
    copy
}

fn kv(k: &str, v: i64) -> Vec<Scalar> {
    vec![Scalar::Str(k.into()), Scalar::Int(v)]
}

/// A durable `KV` table of rows `a..e`, checkpointed into a base.
fn kv_with_a_base(dir: &Path) -> Cache {
    let cache = CacheBuilder::new()
        .durability(dir)
        .checkpoint_every(0)
        .open()
        .unwrap();
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    for (i, k) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
        cache.insert("KV", kv(k, i as i64)).unwrap();
    }
    cache.checkpoint().unwrap();
    assert!(deltas_in(dir).is_empty(), "the first checkpoint is a base");
    cache
}

/// Keys changed by *replay* — not by a live write — must reach the
/// next delta, since that delta's checkpoint retires the log they were
/// replayed from. The pattern of
/// `a_checkpoint_due_at_open_snapshots_the_recovered_rows`, one
/// checkpoint later in the chain.
#[test]
fn a_delta_after_recovery_covers_the_keys_replay_changed() {
    let dir = scratch("delta-after-replay");
    drop(kv_with_a_base(&dir));
    {
        let cache = CacheBuilder::new()
            .durability(&dir)
            .checkpoint_every(0)
            .open()
            .unwrap();
        cache.upsert("KV", kv("b", 20)).unwrap();
        cache.insert("KV", kv("f", 5)).unwrap();
        cache.remove("KV", "c").unwrap();
    }
    // These three changes live only in the log. Replay applies them.
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(0)
        .open()
        .unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 3);
    let before = dump(&cache, "KV");
    cache.checkpoint().unwrap();
    assert_eq!(deltas_in(&dir), ["delta-1.snap"]);
    // Crash right here: the rotated log is gone, so only the delta can
    // carry the replayed changes.
    let crashed = crash_copy(&dir, "delta-after-replay-crashed");
    drop(cache);
    let recovered = Cache::recover(&crashed).unwrap();
    assert_eq!(recovered.wal_stats().unwrap().replayed, 0);
    assert_eq!(dump(&recovered, "KV"), before);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crashed);
}

/// A checkpoint that crashed before its rename leaves its image in
/// `snapshot.tmp`; recovery never reads that file.
#[test]
fn a_leftover_temp_image_is_ignored() {
    let dir = scratch("leftover-tmp");
    let cache = kv_with_a_base(&dir);
    cache.upsert("KV", kv("a", 10)).unwrap();
    cache.checkpoint().unwrap();
    cache.remove("KV", "b").unwrap();
    let before = dump(&cache, "KV");
    drop(cache);
    fs::write(dir.join("snapshot.tmp"), b"half an image").unwrap();
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(dump(&cache, "KV"), before);
    // The next checkpoint writes over the leftover.
    cache.upsert("KV", kv("c", 30)).unwrap();
    cache.checkpoint().unwrap();
    let after = dump(&cache, "KV");
    drop(cache);
    assert!(!dir.join("snapshot.tmp").exists());
    assert_eq!(dump(&Cache::recover(&dir).unwrap(), "KV"), after);
    let _ = fs::remove_dir_all(&dir);
}

/// A base removes the deltas before it only after its own rename, so a
/// crash between the two leaves deltas older than the base. Folding one
/// in would bring back what the base already superseded.
#[test]
fn a_delta_older_than_the_base_is_ignored() {
    let dir = scratch("stale-delta");
    let cache = kv_with_a_base(&dir);
    cache.upsert("KV", kv("a", 10)).unwrap();
    cache.checkpoint().unwrap();
    assert_eq!(deltas_in(&dir), ["delta-1.snap"]);
    let stale = fs::read(dir.join("delta-1.snap")).unwrap();
    // `a` goes away, and a new table makes the next checkpoint a base.
    cache.remove("KV", "a").unwrap();
    cache.upsert("KV", kv("b", 20)).unwrap();
    cache
        .execute("create persistenttable T (k varchar(8) primary key, v integer)")
        .unwrap();
    cache.checkpoint().unwrap();
    assert!(
        deltas_in(&dir).is_empty(),
        "a base removes the deltas before it"
    );
    let before = dump(&cache, "KV");
    drop(cache);
    fs::write(dir.join("delta-1.snap"), &stale).unwrap();

    let cache = Cache::recover(&dir).unwrap();
    assert!(cache.lookup("KV", "a").unwrap().is_none());
    assert_eq!(dump(&cache, "KV"), before);
    // The chain goes on over the new base without reusing the stale
    // delta's number.
    cache.upsert("KV", kv("c", 30)).unwrap();
    cache.checkpoint().unwrap();
    assert_eq!(deltas_in(&dir), ["delta-1.snap", "delta-2.snap"]);
    let after = dump(&cache, "KV");
    drop(cache);
    assert_eq!(dump(&Cache::recover(&dir).unwrap(), "KV"), after);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash after a delta's rename but before the rotated log it covers
/// is removed: the log's records replay against the folded watermarks,
/// which skip every one the delta holds. The history uses plain inserts,
/// so applying one twice would fail recovery outright.
#[test]
fn a_crash_between_a_delta_and_the_log_removal_recovers_exactly() {
    let dir = scratch("delta-then-crash");
    let cache = kv_with_a_base(&dir);
    for k in ["f", "g", "h"] {
        cache.insert("KV", kv(k, 7)).unwrap();
    }
    cache.remove("KV", "a").unwrap();
    let covered = fs::read(log_path(&dir)).unwrap();
    assert_eq!(count_complete_records(&covered), 4);
    cache.checkpoint().unwrap();
    assert_eq!(deltas_in(&dir), ["delta-1.snap"]);
    cache.insert("KV", kv("i", 8)).unwrap();
    let before = dump(&cache, "KV");
    drop(cache);
    // Put the rotated log back, as if the checkpoint died before
    // removing it.
    fs::write(dir.join("wal-000.log.1"), &covered).unwrap();

    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(dump(&cache, "KV"), before);
    assert!(
        !dir.join("wal-000.log.1").exists(),
        "opening completes the checkpoint"
    );
    drop(cache);
    assert_eq!(dump(&Cache::recover(&dir).unwrap(), "KV"), before);
    let _ = fs::remove_dir_all(&dir);
}

/// A delta holds what changed, not the table: 1,000 upserts over 100
/// keys of a 50,000-row table write 100 rows.
#[test]
fn a_delta_is_sized_by_the_keys_that_changed() {
    let dir = scratch("delta-size");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(0)
        .open()
        .unwrap();
    cache
        .execute("create persistenttable Hosts (k varchar(16) primary key, v integer)")
        .unwrap();
    for chunk in 0..50 {
        let rows = (0..1000)
            .map(|i| kv(&format!("host{}", chunk * 1000 + i), i))
            .collect();
        cache.upsert_batch("Hosts", rows).unwrap();
    }
    cache.checkpoint().unwrap();
    let base = fs::metadata(dir.join("snapshot.snap")).unwrap().len();
    for batch in 0..100i64 {
        let rows = (0..10)
            .map(|i| kv(&format!("host{}", (batch * 10 + i) % 100 * 500), i))
            .collect();
        cache.upsert_batch("Hosts", rows).unwrap();
    }
    cache.checkpoint().unwrap();
    assert_eq!(deltas_in(&dir), ["delta-1.snap"]);
    let delta = fs::metadata(dir.join("delta-1.snap")).unwrap().len();
    assert!(
        delta * 100 < base,
        "delta {delta} bytes is not under 1% of the {base}-byte base"
    );
    let before = dump(&cache, "Hosts");
    drop(cache);
    assert_eq!(dump(&Cache::recover(&dir).unwrap(), "Hosts"), before);
    let _ = fs::remove_dir_all(&dir);
}

/// An automatic checkpoint that fails is counted, and is retried only
/// after another `checkpoint_every` records, not on every commit. A
/// directory squatting on the image's temp-file name makes the write
/// fail.
#[test]
fn a_failed_checkpoint_is_counted_once_and_retried_after_the_next_threshold() {
    let dir = scratch("failed-checkpoint");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(20)
        .open()
        .unwrap();
    // Records so far: the Timer's create and this one.
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    let obstacle = dir.join("snapshot.tmp");
    fs::create_dir(&obstacle).unwrap();
    let failures = |cache: &Cache| {
        let stats = cache.wal_stats().unwrap();
        assert_eq!(
            cache.metrics().counter("wal_checkpoint_failures"),
            Some(stats.checkpoint_failures)
        );
        stats.checkpoint_failures
    };
    // The 20th record trips the threshold; the checkpoint fails, and the
    // write that tripped it still succeeds.
    for i in 0..18i64 {
        cache.upsert("KV", kv(&format!("k{i}"), i)).unwrap();
    }
    assert_eq!(failures(&cache), 1);
    // 19 more commits do not retry it.
    for i in 0..19i64 {
        cache
            .upsert("KV", kv(&format!("k{}", i % 5), 100 + i))
            .unwrap();
    }
    assert_eq!(failures(&cache), 1);
    assert_eq!(cache.wal_stats().unwrap().checkpoints, 0);
    // With the obstacle gone, the next threshold checkpoints.
    fs::remove_dir(&obstacle).unwrap();
    cache.upsert("KV", kv("last", 1)).unwrap();
    assert_eq!(cache.wal_stats().unwrap().checkpoints, 1);
    assert_eq!(failures(&cache), 1);
    assert_eq!(files_in(&dir), ["snapshot.snap", "wal-000.log"]);
    let before = dump(&cache, "KV");
    drop(cache);
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(
        cache.wal_stats().unwrap().replayed,
        0,
        "the checkpoint retired every record"
    );
    assert_eq!(dump(&cache, "KV"), before);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One log, one sequence: file order = LSN order, under concurrency.
// ---------------------------------------------------------------------------

const WRITERS: usize = 4;
const SHARED_TABLES: usize = 4;
const ROWS_PER_WRITER: i64 = 40;

/// Drive `cache` with [`WRITERS`] threads that spread inserts over
/// [`SHARED_TABLES`] persistent tables and each create one more table
/// under an idempotency token (a create + token record pair) mid-run.
fn run_concurrent_writers(cache: &Cache) {
    for t in 0..SHARED_TABLES {
        cache
            .execute(&format!(
                "create persistenttable T{t} (k varchar(16) primary key, v integer)"
            ))
            .unwrap();
    }
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..ROWS_PER_WRITER {
                    if i == ROWS_PER_WRITER / 2 {
                        let token = IdemToken {
                            client_id: w as u64 + 1,
                            seq: 0,
                        };
                        cache
                            .execute_with_token(
                                &format!(
                                    "create persistenttable Own{w} (k varchar(8) primary key, v integer)"
                                ),
                                Some(token),
                            )
                            .unwrap();
                    }
                    cache
                        .insert(
                            &format!("T{}", (w + i as usize) % SHARED_TABLES),
                            vec![Scalar::Str(format!("w{w}-{i}").into()), Scalar::Int(i)],
                        )
                        .unwrap();
                }
            });
        }
    });
}

/// Records [`run_concurrent_writers`] logs: the Timer and shared-table
/// creates, every insert, and a create + token pair per writer.
const CONCURRENT_RECORDS: u64 =
    1 + SHARED_TABLES as u64 + WRITERS as u64 * (ROWS_PER_WRITER as u64 + 2);

#[test]
fn concurrent_writers_yield_one_lsn_ordered_log_and_contiguous_follower_batches() {
    let dir = scratch("one-sequence");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .replicate_to("127.0.0.1:0")
        .open()
        .unwrap();

    // A raw subscriber from LSN 0, attached before the writers start so
    // it sees both bootstrap backlog and live group-commit batches.
    let stream = TcpStream::connect(cache.repl_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    proto::write_magic(&mut &stream).unwrap();
    FollowerMsg::Subscribe { from_lsn: 0 }
        .write(&mut &stream)
        .unwrap();
    let subscriber = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut applied = 0u64;
        while applied < CONCURRENT_RECORDS {
            match PrimaryMsg::read(&mut reader).unwrap().unwrap() {
                PrimaryMsg::Frames(bytes) => {
                    let frames = split_frames(&bytes);
                    assert_eq!(frames.len(), count_complete_records(&bytes));
                    for (lsn, _) in frames {
                        assert_eq!(lsn, applied + 1, "batches tile the sequence");
                        applied = lsn;
                    }
                }
                PrimaryMsg::Heartbeat { commit_lsn } => assert!(commit_lsn <= CONCURRENT_RECORDS),
                PrimaryMsg::Snapshot(_) => panic!("no checkpoint ran, so no snapshot exists"),
            }
        }
    });

    run_concurrent_writers(&cache);
    assert_eq!(cache.commit_lsn(), CONCURRENT_RECORDS);
    subscriber.join().unwrap();
    cache.shutdown();
    drop(cache);

    // One file, and its frames carry 1, 2, 3, … in file order.
    assert_eq!(files_in(&dir), ["wal-000.log"]);
    let bytes = fs::read(log_path(&dir)).unwrap();
    let lsns: Vec<u64> = split_frames(&bytes).iter().map(|(lsn, _)| *lsn).collect();
    assert_eq!(lsns, (1..=CONCURRENT_RECORDS).collect::<Vec<_>>());
    let _ = fs::remove_dir_all(&dir);
}

/// The log [`run_concurrent_writers`] leaves behind, produced once.
fn concurrent_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = scratch("one-sequence-source");
        let cache = Cache::recover(&dir).unwrap();
        run_concurrent_writers(&cache);
        drop(cache);
        let bytes = fs::read(log_path(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

// ---------------------------------------------------------------------------
// The crash-recovery differential proptest.
// ---------------------------------------------------------------------------

/// One randomly generated mutation.
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

/// Model state of both tables, in the same shape as [`dump`].
fn model_dump(model: &[ModelTable; 2], table: usize) -> Vec<(Vec<Scalar>, u64)> {
    model[table]
        .iter()
        .map(|(k, v, ts)| (vec![Scalar::Str(k.as_str().into()), Scalar::Int(*v)], *ts))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash the log at an arbitrary byte offset (truncation — the torn
    /// final record of a real crash) and require recovery to equal the
    /// model state after exactly the records that survived.
    #[test]
    fn crash_at_any_byte_offset_recovers_the_exact_durable_prefix(
        ops in proptest::collection::vec(arb_op(), 0..40),
        cut_permille in 0u32..=1000,
    ) {
        let dir = scratch("proptest-crash");
        // states[r] = the model after the first r *logged* records.
        let mut states: Vec<[ModelTable; 2]> = Vec::new();
        let mut model: [ModelTable; 2] = [Vec::new(), Vec::new()];
        {
            let cache = CacheBuilder::new()
                .manual_clock()
                .durability(&dir)
                .open()
                .unwrap();
            cache.execute(
                "create persistenttable T0 (k varchar(8) primary key, v integer)").unwrap();
            cache.execute(
                "create persistenttable T1 (k varchar(8) primary key, v integer)").unwrap();
            // Move the DDL into the snapshot so the log contains exactly
            // one record per logged op below.
            cache.checkpoint().unwrap();
            states.push(model.clone());

            for op in &ops {
                cache.manual_clock().unwrap().advance(1);
                let now = cache.now();
                let logged = match op {
                    Op::Insert { table, key, value } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        let exists = model[*table].iter().any(|(mk, _, _)| *mk == k);
                        let result = cache.insert(
                            &name,
                            vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                        );
                        if exists {
                            prop_assert!(result.is_err(), "duplicate insert must fail");
                            false
                        } else {
                            prop_assert!(result.is_ok());
                            model[*table].push((k, *value, now));
                            true
                        }
                    }
                    Op::Upsert { table, key, value } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        cache.upsert(
                            &name,
                            vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                        ).unwrap();
                        model[*table].retain(|(mk, _, _)| *mk != k);
                        model[*table].push((k, *value, now));
                        true
                    }
                    Op::Remove { table, key } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        cache.remove(&name, &k).unwrap();
                        model[*table].retain(|(mk, _, _)| *mk != k);
                        true
                    }
                };
                if logged {
                    states.push(model.clone());
                }
            }
        }

        // Crash: truncate the log at an arbitrary offset.
        let log = log_path(&dir);
        let bytes = fs::read(&log).unwrap();
        prop_assert_eq!(count_complete_records(&bytes), states.len() - 1);
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        let survivors = count_complete_records(&bytes[..cut]);
        fs::write(&log, &bytes[..cut]).unwrap();

        let cache = CacheBuilder::new()
            .durability(&dir)
            .open()
            .unwrap();
        prop_assert_eq!(cache.wal_stats().unwrap().replayed as usize, survivors);
        let expected = &states[survivors];
        for table in 0..2 {
            prop_assert_eq!(
                dump(&cache, &format!("T{table}")),
                model_dump(expected, table),
                "table T{} after {} surviving records", table, survivors
            );
        }
        // The recovered cache still accepts durable writes.
        cache.upsert("T0", vec![Scalar::Str("post".into()), Scalar::Int(1)]).unwrap();
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one byte anywhere in the log: the checksum must stop replay
    /// at the corrupted record, recovering the records before it.
    #[test]
    fn corrupting_any_byte_recovers_the_prefix_before_it(
        ops in proptest::collection::vec(arb_op(), 1..25),
        flip_permille in 0u32..1000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch("proptest-corrupt");
        let mut states: Vec<[ModelTable; 2]> = Vec::new();
        let mut model: [ModelTable; 2] = [Vec::new(), Vec::new()];
        {
            let cache = CacheBuilder::new()
                .manual_clock()
                .durability(&dir)
                .open()
                .unwrap();
            cache.execute(
                "create persistenttable T0 (k varchar(8) primary key, v integer)").unwrap();
            cache.execute(
                "create persistenttable T1 (k varchar(8) primary key, v integer)").unwrap();
            cache.checkpoint().unwrap();
            states.push(model.clone());
            for op in &ops {
                cache.manual_clock().unwrap().advance(1);
                let now = cache.now();
                let logged = match op {
                    Op::Insert { table, key, value } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        let exists = model[*table].iter().any(|(mk, _, _)| *mk == k);
                        if cache.insert(
                            &name,
                            vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                        ).is_ok() {
                            prop_assert!(!exists);
                            model[*table].push((k, *value, now));
                            true
                        } else {
                            prop_assert!(exists);
                            false
                        }
                    }
                    Op::Upsert { table, key, value } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        cache.upsert(
                            &name,
                            vec![Scalar::Str(k.as_str().into()), Scalar::Int(*value)],
                        ).unwrap();
                        model[*table].retain(|(mk, _, _)| *mk != k);
                        model[*table].push((k, *value, now));
                        true
                    }
                    Op::Remove { table, key } => {
                        let name = format!("T{table}");
                        let k = format!("k{key}");
                        cache.remove(&name, &k).unwrap();
                        model[*table].retain(|(mk, _, _)| *mk != k);
                        true
                    }
                };
                if logged {
                    states.push(model.clone());
                }
            }
        }

        let log = log_path(&dir);
        let mut bytes = fs::read(&log).unwrap();
        // At least one op ran against an empty model, and every first op
        // logs (inserts cannot collide with nothing), so the log has at
        // least one record.
        prop_assert!(!bytes.is_empty());
        let flip_at = ((bytes.len() - 1) * flip_permille as usize) / 1000;
        // Records fully contained before the flipped byte survive; the
        // record the byte lands in fails its checksum and stops replay.
        let survivors = count_complete_records(&bytes[..flip_at]);
        bytes[flip_at] ^= 1 << flip_bit;
        fs::write(&log, &bytes).unwrap();

        let cache = CacheBuilder::new()
            .durability(&dir)
            .open()
            .unwrap();
        prop_assert_eq!(cache.wal_stats().unwrap().replayed as usize, survivors);
        let expected = &states[survivors];
        for table in 0..2 {
            prop_assert_eq!(
                dump(&cache, &format!("T{table}")),
                model_dump(expected, table),
                "table T{} after corruption at byte {}", table, flip_at
            );
        }
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Kill the process at an arbitrary byte of a log written by
    /// concurrent writers over many tables: what recovers is a prefix
    /// of the sequence with no hole in it — the contiguous point a
    /// replica would resume from *is* the recovered tail.
    #[test]
    fn a_crash_at_any_byte_of_a_concurrent_log_leaves_no_hole(cut_permille in 0u32..=1000) {
        let bytes = concurrent_log();
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        let survivors = split_frames(&bytes[..cut]).len() as u64;
        let dir = scratch("proptest-no-hole");
        fs::create_dir_all(&dir).unwrap();
        fs::write(log_path(&dir), &bytes[..cut]).unwrap();

        // A replica resumes from the contiguous recovered LSN (its
        // primary is down; the watermark is what it would subscribe
        // from) …
        let replica = CacheBuilder::new()
            .durability(&dir)
            .follow("127.0.0.1:1")
            .open()
            .unwrap();
        prop_assert_eq!(replica.replica_lsn(), survivors);
        replica.shutdown();
        drop(replica);
        // … and a primary mints right above the highest one: its first
        // record is the Timer create every primary logs at open.
        let primary = Cache::recover(&dir).unwrap();
        prop_assert_eq!(primary.wal_stats().unwrap().replayed, survivors);
        prop_assert_eq!(primary.commit_lsn(), survivors + 1);
        drop(primary);
        let _ = fs::remove_dir_all(&dir);
    }
}
