//! Differential tests of incremental checkpoints: after every
//! checkpoint of a random history, the base and deltas on disk, folded
//! into one image, must be byte-equal to a full capture of the live
//! tables taken at the same instant, and recovering a copy of the
//! directory must reproduce an independent model of the history.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use super::*;
use crate::table::key_text;

/// Persistent tables the history writes: two that always exist, and a
/// third the history creates and drops.
const TABLES: [&str; 3] = ["A", "B", "C"];
const KEYS: u32 = 32;

#[derive(Debug, Clone)]
enum Op {
    Upsert {
        table: usize,
        key: u32,
        v: i64,
    },
    /// A plain insert: refused when the key exists.
    Insert {
        table: usize,
        key: u32,
        v: i64,
    },
    Remove {
        table: usize,
        key: u32,
    },
    Batch {
        table: usize,
        rows: Vec<(u32, i64)>,
    },
    Tokened {
        table: usize,
        key: u32,
        v: i64,
    },
    /// Stage an upsert in a write run, checkpoint while it is staged,
    /// then commit the run.
    Staged {
        table: usize,
        key: u32,
        v: i64,
    },
    /// Create `C` when it is absent, drop it when present.
    ToggleC,
    Tick {
        ns: u64,
    },
    Checkpoint,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let table = 0usize..3;
    prop_oneof![
        (table.clone(), 0..KEYS, -50i64..50).prop_map(|(table, key, v)| Op::Upsert {
            table,
            key,
            v
        }),
        (table.clone(), 0..KEYS, -50i64..50).prop_map(|(table, key, v)| Op::Upsert {
            table,
            key,
            v
        }),
        (table.clone(), 0..KEYS, -50i64..50).prop_map(|(table, key, v)| Op::Insert {
            table,
            key,
            v
        }),
        (table.clone(), 0..KEYS).prop_map(|(table, key)| Op::Remove { table, key }),
        (
            table.clone(),
            proptest::collection::vec((0..KEYS, -50i64..50), 1..6)
        )
            .prop_map(|(table, rows)| Op::Batch { table, rows }),
        (table.clone(), 0..KEYS, -50i64..50).prop_map(|(table, key, v)| Op::Tokened {
            table,
            key,
            v
        }),
        (table, 0..KEYS, -50i64..50).prop_map(|(table, key, v)| Op::Staged { table, key, v }),
        (0u32..8).prop_map(|n| if n == 0 {
            Op::ToggleC
        } else {
            Op::Tick { ns: 1 }
        }),
        (1u64..4).prop_map(|ns| Op::Tick { ns }),
        (0u32..1).prop_map(|_| Op::Checkpoint),
    ]
}

fn row(key: u32, v: i64) -> Vec<Scalar> {
    vec![Scalar::Str(format!("k{key}").into()), Scalar::Int(v)]
}

/// The history's expected tables: rows in scan order with their
/// timestamps, as `select *` returns them.
#[derive(Debug, Default)]
struct Model {
    tables: BTreeMap<String, Vec<(Vec<Scalar>, u64)>>,
}

impl Model {
    fn rows(&mut self, table: &str) -> &mut Vec<(Vec<Scalar>, u64)> {
        self.tables.get_mut(table).expect("the model has the table")
    }

    fn upsert(&mut self, table: &str, values: Vec<Scalar>, tstamp: u64) {
        let rows = self.rows(table);
        rows.retain(|(v, _)| key_text(v) != key_text(&values));
        rows.push((values, tstamp));
    }

    fn remove(&mut self, table: &str, key: &str) {
        self.rows(table).retain(|(v, _)| key_text(v) != key);
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pscache-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn delta_count(dir: &Path) -> usize {
    fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("delta-") && name.ends_with(".snap")
        })
        .count()
}

/// A full image of the live tables as a base encodes it, taken without
/// touching any change set: the reference every folded chain is held
/// to.
fn full_image(cache: &Cache) -> Vec<u8> {
    let inner = &cache.inner;
    let mut tables = Vec::new();
    for (name, table) in inner.tables.tables() {
        let guard = table.lock();
        tables.push(SnapshotTable {
            name,
            kind: guard.kind(),
            capacity: guard.stream_capacity(),
            columns: guard
                .schema()
                .attributes()
                .iter()
                .map(|a| (a.name.clone(), a.ty))
                .collect(),
            watermark: guard.wal_watermark(),
            rows: match guard.kind() {
                TableKind::Persistent => guard.checkpoint_rows(),
                TableKind::Ephemeral => Vec::new(),
            },
            removed: Vec::new(),
        });
    }
    let tokens = inner.tokens.lock();
    wal::encode_snapshot(
        &wal::Snapshot {
            tables,
            tokens: tokens.entries(),
            token_watermark: tokens.high_lsn(),
        },
        0,
    )
    .unwrap()
}

/// What a checkpoint just wrote, by the files it left.
#[derive(Debug, Default)]
struct Tally {
    deltas: usize,
    bases: usize,
}

/// Hold the chain on disk against the live tables and the model, right
/// after a checkpoint; `copy` is scratch space for the crash copy.
fn verify(cache: &Cache, dir: &Path, copy: &Path, model: &Model, before: usize, tally: &mut Tally) {
    let after = delta_count(dir);
    if after > before {
        tally.deltas += 1;
    } else {
        assert_eq!(
            after, 0,
            "a checkpoint either adds a delta or writes a base"
        );
        tally.bases += 1;
    }
    let wal = cache.inner.wal.as_ref().unwrap();
    let (folded, _) = wal.read_backlog().unwrap();
    assert!(
        folded.as_deref() == Some(&full_image(cache)[..]),
        "the folded chain differs from a full capture"
    );
    copy_dir(dir, copy);
    let recovered = Cache::recover(copy).unwrap();
    for (name, rows) in &model.tables {
        let got: Vec<(Vec<Scalar>, u64)> = recovered
            .select(&Query::new(name))
            .unwrap()
            .rows
            .into_iter()
            .map(|r| (r.values, r.tstamp))
            .collect();
        assert_eq!(&got, rows, "recovered `{name}` differs from the model");
    }
    let mut names = recovered.table_names();
    names.retain(|n| n != TIMER_TOPIC);
    names.sort();
    assert_eq!(names, model.tables.keys().cloned().collect::<Vec<_>>());
    drop(recovered);
}

fn checkpoint(cache: &Cache, dir: &Path, copy: &Path, model: &Model, tally: &mut Tally) {
    let before = delta_count(dir);
    cache.checkpoint().unwrap();
    verify(cache, dir, copy, model, before, tally);
}

fn run_history(ops: &[Op], tally: &mut Tally) {
    let dir = scratch("delta-history");
    let copy = scratch("delta-history-copy");
    let cache = CacheBuilder::new()
        .durability(&dir)
        .checkpoint_every(0)
        .manual_clock()
        .open()
        .unwrap();
    let clock = cache.manual_clock().unwrap().clone();
    let mut model = Model::default();
    for name in &TABLES[..2] {
        cache
            .execute(&format!(
                "create persistenttable {name} (k varchar(8) primary key, v integer)"
            ))
            .unwrap();
        model.tables.insert((*name).to_owned(), Vec::new());
        // Enough rows that a delta is smaller than a base for a while.
        let rows: Vec<Vec<Scalar>> = (0..KEYS).map(|k| row(k, 0)).collect();
        let tstamps = cache.upsert_batch(name, rows.clone()).unwrap();
        for (values, tstamp) in rows.into_iter().zip(tstamps) {
            model.upsert(name, values, tstamp);
        }
    }
    checkpoint(&cache, &dir, &copy, &model, tally);
    let mut seq = 0;
    for op in ops {
        let table = |t: usize| {
            let name = TABLES[t];
            model.tables.contains_key(name).then_some(name)
        };
        match op.clone() {
            Op::Upsert { table: t, key, v } => {
                if let Some(name) = table(t) {
                    let tstamp = cache.upsert(name, row(key, v)).unwrap();
                    model.upsert(name, row(key, v), tstamp);
                }
            }
            Op::Insert { table: t, key, v } => {
                if let Some(name) = table(t) {
                    if let Ok(tstamp) = cache.insert(name, row(key, v)) {
                        model.upsert(name, row(key, v), tstamp);
                    }
                }
            }
            Op::Remove { table: t, key } => {
                if let Some(name) = table(t) {
                    cache.remove(name, &format!("k{key}")).unwrap();
                    model.remove(name, &format!("k{key}"));
                }
            }
            Op::Batch { table: t, rows } => {
                if let Some(name) = table(t) {
                    let rows: Vec<Vec<Scalar>> = rows.iter().map(|&(k, v)| row(k, v)).collect();
                    let tstamps = cache.upsert_batch(name, rows.clone()).unwrap();
                    for (values, tstamp) in rows.into_iter().zip(tstamps) {
                        model.upsert(name, values, tstamp);
                    }
                }
            }
            Op::Tokened { table: t, key, v } => {
                if let Some(name) = table(t) {
                    seq += 1;
                    let token = IdemToken { client_id: 7, seq };
                    let (_, tstamp) = cache
                        .insert_with_token(name, row(key, v), true, Some(token))
                        .unwrap();
                    model.upsert(name, row(key, v), tstamp);
                }
            }
            Op::Staged { table: t, key, v } => {
                if let Some(name) = table(t) {
                    let mut run = cache.write_run();
                    let (_, tstamp) = run.insert(name, row(key, v), true, None).unwrap();
                    model.upsert(name, row(key, v), tstamp);
                    checkpoint(&cache, &dir, &copy, &model, tally);
                    run.commit().unwrap();
                }
            }
            Op::ToggleC => {
                if model.tables.remove("C").is_some() {
                    // A drop checkpoints on its own.
                    let before = delta_count(&dir);
                    cache.drop_table("C").unwrap();
                    verify(&cache, &dir, &copy, &model, before, tally);
                } else {
                    cache
                        .execute("create persistenttable C (k varchar(8) primary key, v integer)")
                        .unwrap();
                    model.tables.insert("C".to_owned(), Vec::new());
                }
            }
            Op::Tick { ns } => clock.advance(ns),
            Op::Checkpoint => checkpoint(&cache, &dir, &copy, &model, tally),
        }
    }
    checkpoint(&cache, &dir, &copy, &model, tally);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
}

#[test]
fn folded_deltas_equal_a_full_capture_and_recover_the_model() {
    let mut rng = proptest::test_runner::rng_for(concat!(
        module_path!(),
        "::folded_deltas_equal_a_full_capture_and_recover_the_model"
    ));
    let histories = proptest::collection::vec(arb_op(), 1..60);
    let mut tally = Tally::default();
    for _ in 0..24 {
        run_history(&histories.generate(&mut rng), &mut tally);
    }
    // The histories reached both kinds of checkpoint, many times over:
    // nothing above passed by comparing bases with bases only.
    assert!(
        tally.deltas >= 50 && tally.bases >= 20,
        "deltas {} bases {}",
        tally.deltas,
        tally.bases
    );
}
