//! A persistent table's staging queue against a model: random
//! interleavings of staged puts and removals over a few repeated keys,
//! commits of partial prefixes, and checkpoint captures. After every
//! step the writer's effective view, the committed key map and the
//! change set must agree with the model, and the committed key map —
//! re-pointed in place by every compaction — must equal one rebuilt
//! from scratch out of the log.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use super::*;
use gapl::event::AttrType;

const KEYS: u32 = 12;

#[derive(Debug, Clone)]
enum Op {
    /// Stage a row; a plain insert (`upsert: false`) of a key the
    /// writer already sees is refused and stages nothing.
    Put { key: u32, v: i64, upsert: bool },
    /// Stage a removal; nothing is staged for an absent key.
    Remove { key: u32 },
    /// Commit the first `eighths`/8 of the staged queue.
    Commit { eighths: usize },
    /// Capture a delta, or a base when the table records no change set.
    Capture,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let put = |upsert| (0..KEYS, -50i64..50).prop_map(move |(key, v)| Op::Put { key, v, upsert });
    prop_oneof![
        put(true),
        put(true),
        put(true),
        put(false),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
        (0usize..=8).prop_map(|eighths| Op::Commit { eighths }),
        (0usize..=8).prop_map(|eighths| Op::Commit { eighths }),
        (0u32..1).prop_map(|_| Op::Capture),
    ]
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new("H", vec![("k", AttrType::Str), ("v", AttrType::Int)]).unwrap())
}

fn key(k: u32) -> String {
    format!("k{k}")
}

/// The value column of a stored row.
fn value(tuple: &Tuple) -> i64 {
    tuple.values()[1].as_int().unwrap()
}

#[derive(Debug, Default)]
struct Model {
    /// Committed rows: key → value.
    committed: BTreeMap<String, i64>,
    /// Staged operations in staging order: log index, key, and the
    /// value put (`None` for a removal).
    staged: Vec<(u64, String, Option<i64>)>,
    /// Keys staged since the last capture; `None` while the table
    /// records no change set.
    dirty: Option<BTreeSet<String>>,
}

impl Model {
    /// The newest staged operation on `key`, if any.
    fn staged_op(&self, key: &str) -> Option<(u64, Option<i64>)> {
        self.staged
            .iter()
            .rev()
            .find(|(_, k, _)| k == key)
            .map(|(idx, _, v)| (*idx, *v))
    }

    /// The value the writer sees for `key` once everything staged
    /// commits.
    fn effective(&self, key: &str) -> Option<i64> {
        match self.staged_op(key) {
            Some((_, v)) => v,
            None => self.committed.get(key).copied(),
        }
    }

    fn stage(&mut self, idx: u64, key: String, v: Option<i64>) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(key.clone());
        }
        self.staged.push((idx, key, v));
    }

    fn commit(&mut self, upto: u64) {
        let take = self
            .staged
            .iter()
            .take_while(|(idx, ..)| *idx < upto)
            .count();
        if take == 0 {
            return;
        }
        for (_, key, v) in self.staged.drain(..take) {
            match v {
                Some(v) => self.committed.insert(key, v),
                None => self.committed.remove(&key),
            };
        }
        if self
            .dirty
            .as_ref()
            .is_some_and(|d| d.len() > self.committed.len() + self.staged.len())
        {
            self.dirty = None;
        }
    }
}

/// The committed key map as re-inserting every live row of the visible
/// log from scratch builds it.
fn key_map_from_scratch(t: &PersistentTable) -> HashMap<Arc<str>, (u64, Tuple)> {
    let mut keys = HashMap::new();
    for idx in t.cur.first()..t.cur.end() {
        let row = t.cur.row(idx);
        if row.tombstone || row.replaced_by.load(Ordering::Acquire) != LIVE {
            continue;
        }
        let key = row.key.clone().expect("a live keyed row has a key");
        assert!(
            keys.insert(key, (idx, row.tuple.clone())).is_none(),
            "two live rows share a key"
        );
    }
    keys
}

/// The log index the writer's view holds `key` at.
fn effective_idx(t: &PersistentTable, model: &Model, key: &str) -> u64 {
    match model.staged_op(key) {
        Some((idx, _)) => idx,
        None => t.shared.keys.read()[key].0,
    }
}

/// Every check that holds between steps.
fn check(t: &PersistentTable, model: &Model) {
    for k in 0..KEYS {
        let key = key(k);
        let got = t.effective_get(&key);
        assert_eq!(
            got.as_ref().map(|(_, tuple)| value(tuple)),
            model.effective(&key),
            "effective value of {key}"
        );
        if let (Some((idx, _)), Some((staged_idx, _))) = (&got, model.staged_op(&key)) {
            assert_eq!(*idx, staged_idx, "effective index of staged {key}");
        }
    }
    let keys = t.shared.keys.read();
    let committed: BTreeMap<String, i64> = keys
        .iter()
        .map(|(k, (_, tuple))| (k.to_string(), value(tuple)))
        .collect();
    assert_eq!(committed, model.committed, "committed map");
    assert!(
        *keys == key_map_from_scratch(t),
        "the committed map differs from a re-insertion of the log"
    );
    assert_eq!(
        t.dirty.as_ref().map(|d| {
            let mut d: Vec<String> = d.iter().map(|k| k.to_string()).collect();
            d.sort();
            d
        }),
        model.dirty.as_ref().map(|d| d.iter().cloned().collect()),
        "change set"
    );
}

/// Hold a capture against the model, then restart the model's change
/// set as the capture restarted the table's.
fn capture(t: &mut PersistentTable, model: &mut Model) {
    // The rows a capture must hold, in log order: `of` keys' effective
    // rows, and the keys that have none.
    let expect = |t: &PersistentTable, model: &Model, of: &mut dyn Iterator<Item = String>| {
        let mut rows = Vec::new();
        let mut removed = Vec::new();
        for key in of {
            match model.effective(&key) {
                Some(v) => rows.push((effective_idx(t, model, &key), key, v)),
                None => removed.push(key),
            }
        }
        rows.sort();
        let rows: Vec<(String, i64)> = rows.into_iter().map(|(_, k, v)| (k, v)).collect();
        (rows, removed)
    };
    let as_model = |rows: &[Tuple]| -> Vec<(String, i64)> {
        rows.iter()
            .map(|r| (primary_key(r).to_string(), value(r)))
            .collect()
    };
    match model.dirty.take() {
        Some(dirty) => {
            let (rows, removed) = expect(t, model, &mut dirty.into_iter());
            let (got_rows, got_removed) = t.capture_delta().expect("the table records changes");
            assert_eq!(as_model(&got_rows), rows, "delta rows");
            let got_removed: Vec<String> = got_removed.iter().map(|k| k.to_string()).collect();
            assert_eq!(got_removed, removed, "delta removals");
        }
        None => {
            assert!(t.capture_delta().is_none(), "no change set, no delta");
            let (rows, _) = expect(t, model, &mut (0..KEYS).map(key));
            t.dirty = Some(HashSet::new());
            assert_eq!(as_model(&t.checkpoint_rows()), rows, "base rows");
        }
    }
    model.dirty = Some(BTreeSet::new());
}

/// What the histories reached, so the test can show it checked more
/// than the easy cases.
#[derive(Debug, Default)]
struct Tally {
    compactions: usize,
    /// Commits that stopped a change set that outgrew its table.
    dropped_change_sets: usize,
}

fn run(ops: &[Op], tally: &mut Tally) {
    let mut t = PersistentTable::new(schema());
    let mut model = Model::default();
    for (step, op) in ops.iter().enumerate() {
        let tstamp = step as u64;
        match *op {
            Op::Put { key: k, v, upsert } => {
                let idx = t.tail;
                let values = vec![Scalar::Str(key(k).into()), Scalar::Int(v)];
                let refused = !upsert && model.effective(&key(k)).is_some();
                let result = t.stage_insert(values, tstamp, upsert);
                assert_eq!(result.is_err(), refused, "put {k} upsert {upsert}");
                if !refused {
                    model.stage(idx, key(k), Some(v));
                }
            }
            Op::Remove { key: k } => {
                let idx = t.tail;
                let removed = t.stage_remove(&key(k)).map(|tuple| value(&tuple));
                assert_eq!(removed, model.effective(&key(k)), "remove {k}");
                if removed.is_some() {
                    model.stage(idx, key(k), None);
                }
            }
            Op::Commit { eighths } => {
                let upto = match model.staged.first() {
                    Some(&(first, ..)) => first + (model.staged.len() * eighths / 8) as u64,
                    None => t.tail,
                };
                let base = t.cur.first();
                let recording = model.dirty.is_some();
                t.commit_visible(upto);
                model.commit(upto);
                tally.compactions += usize::from(t.cur.first() != base);
                tally.dropped_change_sets += usize::from(recording && model.dirty.is_none());
            }
            Op::Capture => capture(&mut t, &mut model),
        }
        check(&t, &model);
    }
}

#[test]
fn the_staging_index_and_compaction_agree_with_a_model() {
    let mut rng = proptest::test_runner::rng_for(concat!(
        module_path!(),
        "::the_staging_index_and_compaction_agree_with_a_model"
    ));
    let histories = proptest::collection::vec(arb_op(), 1..400);
    let mut tally = Tally::default();
    for _ in 0..64 {
        run(&histories.generate(&mut rng), &mut tally);
    }
    println!("{tally:?}");
    // Compaction ran many times over, so the re-pointed key map was held
    // to a re-insertion, not only to itself; and change sets were
    // dropped, so the bound on them was exercised.
    assert!(
        tally.compactions >= 32 && tally.dropped_change_sets >= 8,
        "{tally:?}"
    );
}
