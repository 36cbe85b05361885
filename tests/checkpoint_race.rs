//! Checkpoints racing writers: delta and base captures run while
//! writers keep staging upserts and removals on two persistent tables,
//! and a copy of the directory taken after every checkpoint — the disk
//! a crash at that instant leaves — must recover to a state every
//! writer could have produced by then.
//!
//! Each writer owns its keys and numbers its operations; operation `n`
//! touches key `n % KEYS` (in table `n % 2`, a fixed table per key) and
//! either upserts the value `n` or, every third time it comes round to
//! the key, removes it. A key's recovered state must be its state after
//! some operation between the last one the writer had acknowledged when
//! the checkpoint started and the first one it had not yet
//! acknowledged when the copy was done.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder};

const WRITERS: u64 = 3;
/// Keys per writer; even, so each key stays in one table.
const KEYS: u64 = 20;
/// Untouched rows per table, so that deltas stay smaller than the
/// tables for a while and bases still come round.
const FILLER: u64 = 300;
const ROUNDS: usize = 30;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pscache-race-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn table(n: u64) -> &'static str {
    ["P0", "P1"][(n % 2) as usize]
}

fn key(writer: u64, j: u64) -> String {
    format!("w{writer}-{j}")
}

/// Whether operation `n` removes its key rather than upserting it.
fn removes(n: u64) -> bool {
    (n / KEYS) % 3 == 2
}

/// A key's value after every operation up to `m` (`-1` is its preload,
/// `None` a removal).
fn state_after(j: u64, m: u64) -> Option<i64> {
    let mut state = Some(-1);
    let mut n = j;
    while n <= m {
        if n > 0 {
            state = (!removes(n)).then_some(n as i64);
        }
        n += KEYS;
    }
    state
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        // No checkpoint runs during the copy, so every listed file is
        // still there; the live log may grow while it is read.
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn deltas_in(dir: &Path) -> usize {
    fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("delta-") && name.ends_with(".snap")
        })
        .count()
}

#[test]
fn copies_taken_after_racing_checkpoints_recover_a_state_the_writers_produced() {
    let dir = scratch("live");
    let copy = scratch("copy");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(0)
        .open()
        .unwrap();
    for t in ["P0", "P1"] {
        cache
            .execute(&format!(
                "create persistenttable {t} (k varchar(16) primary key, v integer)"
            ))
            .unwrap();
        let mut rows: Vec<Vec<Scalar>> = (0..FILLER)
            .map(|i| vec![Scalar::Str(format!("filler{i}").into()), Scalar::Int(-1)])
            .collect();
        for w in 0..WRITERS {
            for j in (0..KEYS).filter(|j| table(*j) == t) {
                rows.push(vec![Scalar::Str(key(w, j).into()), Scalar::Int(-1)]);
            }
        }
        cache.upsert_batch(t, rows).unwrap();
    }
    cache.checkpoint().unwrap();

    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (cache, acked, stop) = (cache.clone(), Arc::clone(&acked), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    n += 1;
                    let (t, j) = (table(n), n % KEYS);
                    if removes(n) {
                        cache.remove(t, &key(w, j)).unwrap();
                    } else {
                        let row = vec![Scalar::Str(key(w, j).into()), Scalar::Int(n as i64)];
                        cache.upsert(t, row).unwrap();
                    }
                    acked[w as usize].store(n, Ordering::Release);
                }
            })
        })
        .collect();
    let snapshot = |acked: &[AtomicU64]| -> Vec<u64> {
        acked.iter().map(|a| a.load(Ordering::Acquire)).collect()
    };

    let (mut deltas, mut bases, mut previous) = (0, 0, 0);
    for round in 0..ROUNDS {
        let low = snapshot(&acked);
        cache.checkpoint().unwrap();
        copy_dir(&dir, &copy);
        let high = snapshot(&acked);
        let now = deltas_in(&copy);
        if now > previous {
            deltas += 1;
        } else {
            bases += 1;
        }
        previous = now;

        let recovered = Cache::recover(&copy).unwrap();
        for w in 0..WRITERS {
            let (lo, hi) = (low[w as usize], high[w as usize] + 1);
            for j in 0..KEYS {
                let got = recovered.lookup(table(j), &key(w, j)).unwrap().map(|row| {
                    match row.values()[1] {
                        Scalar::Int(v) => v,
                        ref other => panic!("unexpected value {other:?}"),
                    }
                });
                assert!(
                    (lo..=hi).any(|m| state_after(j, m) == got),
                    "round {round}: {} = {got:?} is no state between operations {lo} and {hi}",
                    key(w, j)
                );
            }
        }
        for t in ["P0", "P1"] {
            for i in (0..FILLER).step_by(37) {
                let row = recovered.lookup(t, &format!("filler{i}")).unwrap();
                assert_eq!(row.map(|r| r.values()[1].clone()), Some(Scalar::Int(-1)));
            }
        }
        drop(recovered);
    }
    stop.store(true, Ordering::Release);
    for writer in writers {
        writer.join().unwrap();
    }
    // Every writer came round to each of its keys with a removal.
    let ops = snapshot(&acked);
    assert!(
        ops.iter().all(|&n| n >= 3 * KEYS),
        "operations per writer: {ops:?}"
    );
    assert!(
        deltas > 0 && bases > 0,
        "both kinds of checkpoint raced the writers: {deltas} deltas, {bases} bases"
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
}
