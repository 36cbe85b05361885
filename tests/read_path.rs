//! The lock-free read path and the drop-table seams around it.
//!
//! `select` evaluates against an epoch-published table snapshot
//! without holding the table mutex. These tests pin down the seams
//! around it: every read must equal the query plan run over a
//! test-side model of the mutation history (differential check), and
//! dropping a table must evict every cache keyed by its name —
//! compiled plans in the SQL-text plan cache and the per-topic
//! dispatch index — so a recreated table with a different schema can
//! never be served by a stale artifact.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gapl::event::{Scalar, Tuple};
use pscache::sql::{self, Command};
use pscache::{Cache, CacheBuilder, Error, Query};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pscache-readpath-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dump(cache: &Cache, table: &str) -> Vec<(Vec<Scalar>, u64)> {
    cache
        .select(&Query::new(table))
        .expect("select * succeeds")
        .rows
        .into_iter()
        .map(|row| (row.values, row.tstamp))
        .collect()
}

/// A test-side model of a mutation history: a stream is its rows in
/// insertion order; a relation is its live rows, with an upserted key
/// moved to the end and a removed key dropped. It shares no storage
/// code with the cache, so a storage bug cannot hide on both sides.
struct Model {
    flows: Vec<Tuple>,
    kv: Vec<Tuple>,
}

impl Model {
    fn rows(&self, table: &str) -> &[Tuple] {
        match table {
            "Flows" => &self.flows,
            "KV" => &self.kv,
            other => panic!("the model has no table {other}"),
        }
    }

    fn kv_position(&self, key: &str) -> Option<usize> {
        let key = Scalar::Str(key.into());
        self.kv.iter().position(|t| t.values()[0] == key)
    }
}

/// Every read the cache serves — plan-cached `execute`, ad hoc
/// `select`, point `lookup` and `table_len` — equals the plan
/// (`Query::evaluate`) run over the model, at several points of one
/// mutation history: plain scans, since windows, predicates,
/// aggregates and a relation whose keys are upserted and removed.
#[test]
fn every_read_matches_the_plan_over_a_model_of_the_history() {
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table Flows (srcip varchar(16), nbytes integer)")
        .unwrap();
    cache
        .execute("create persistenttable KV (k varchar(16), v integer)")
        .unwrap();
    let flows_schema = cache.schema("Flows").unwrap();
    let kv_schema = cache.schema("KV").unwrap();
    let mut model = Model {
        flows: Vec::new(),
        kv: Vec::new(),
    };

    let queries = [
        "select * from Flows",
        "select srcip, nbytes from Flows where nbytes >= 32 order by nbytes desc limit 9",
        "select srcip, sum(nbytes) from Flows group by srcip order by srcip",
        "select * from Flows since 400",
        "select * from KV",
        "select k, v from KV where v > 40 order by k",
        "select * from KV since 300",
    ];
    let check = |model: &Model| {
        for sql in queries {
            let Command::Select(query) = sql::parse(sql).unwrap() else {
                panic!("{sql:?} is not a select");
            };
            let schema = cache.schema(query.table()).unwrap();
            let expected = query.evaluate(&schema, model.rows(query.table())).unwrap();
            let cached = cache.execute(sql).unwrap().rows().unwrap();
            assert_eq!(
                cached, expected,
                "execute diverges from the model on {sql:?}"
            );
            let ad_hoc = cache.select(&query).unwrap();
            assert_eq!(
                ad_hoc, expected,
                "select diverges from the model on {sql:?}"
            );
        }
        for k in 0..16 {
            let key = format!("k{k}");
            let expected = model.kv_position(&key).map(|p| model.kv[p].clone());
            assert_eq!(
                cache.lookup("KV", &key).unwrap(),
                expected,
                "lookup diverges on {key:?}"
            );
        }
        assert_eq!(cache.lookup("KV", "missing").unwrap(), None);
        assert_eq!(cache.table_len("Flows").unwrap(), model.flows.len());
        assert_eq!(cache.table_len("KV").unwrap(), model.kv.len());
    };

    for i in 0..64i64 {
        cache.manual_clock().unwrap().advance(10);
        let row = vec![
            Scalar::Str(format!("10.0.0.{}", i % 8).into()),
            Scalar::Int(i),
        ];
        let tstamp = cache.insert("Flows", row.clone()).unwrap();
        model
            .flows
            .push(Tuple::new(Arc::clone(&flows_schema), row, tstamp).unwrap());

        let key = format!("k{}", i % 16);
        let row = vec![Scalar::Str(key.as_str().into()), Scalar::Int(i)];
        let tstamp = cache.upsert("KV", row.clone()).unwrap();
        if let Some(p) = model.kv_position(&key) {
            model.kv.remove(p);
        }
        model
            .kv
            .push(Tuple::new(Arc::clone(&kv_schema), row, tstamp).unwrap());
        if i % 7 == 0 {
            let removed = cache.remove("KV", &key).unwrap();
            let expected = model.kv_position(&key).map(|p| model.kv.remove(p));
            assert_eq!(
                removed, expected,
                "remove of {key:?} returned the wrong row"
            );
        }
        if i % 8 == 7 {
            check(&model);
        }
    }
}

/// Dropping a table evicts its compiled plans: recreating the same
/// name with the columns *swapped* and re-running the identical SQL
/// text must compile a fresh plan against the new schema, never
/// project through the stale one.
#[test]
fn drop_and_recreate_with_a_different_schema_never_serves_a_stale_plan() {
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table T (a integer, b integer)")
        .unwrap();
    cache.manual_clock().unwrap().advance(10);
    cache
        .insert("T", vec![Scalar::Int(1), Scalar::Int(10)])
        .unwrap();
    cache.manual_clock().unwrap().advance(10);
    cache
        .insert("T", vec![Scalar::Int(2), Scalar::Int(20)])
        .unwrap();

    let sql = "select a, b from T where b >= 10 order by b";
    let first = cache.execute(sql).unwrap().rows().unwrap();
    assert_eq!(first.rows.len(), 2);
    let _ = cache.execute(sql).unwrap();
    let warm = cache.plan_cache_stats();
    assert!(warm.hits >= 1, "second run must hit the plan cache");
    assert!(warm.entries >= 1);

    cache.drop_table("T").unwrap();
    let gone = cache.plan_cache_stats();
    assert_eq!(gone.entries, 0, "drop must evict the table's cached plans");
    assert!(matches!(cache.execute(sql), Err(Error::NoSuchTable { .. })));
    assert!(matches!(
        cache.drop_table("T"),
        Err(Error::NoSuchTable { .. })
    ));

    // Same name, columns swapped: a stale plan would read `a` out of
    // what is now `b`'s slot (and vice versa).
    cache
        .execute("create table T (b integer, a integer)")
        .unwrap();
    cache.manual_clock().unwrap().advance(10);
    cache
        .insert("T", vec![Scalar::Int(100), Scalar::Int(7)])
        .unwrap();

    let after = cache.execute(sql).unwrap().rows().unwrap();
    assert_eq!(after.columns, vec!["a".to_string(), "b".to_string()]);
    assert_eq!(after.rows.len(), 1);
    assert_eq!(
        after.rows[0].values,
        vec![Scalar::Int(7), Scalar::Int(100)],
        "projection must follow the recreated schema, not the dropped one"
    );
    let recompiled = cache.plan_cache_stats();
    assert!(
        recompiled.misses > warm.misses,
        "the recreated table's first run must be a plan-cache miss"
    );
}

/// Dropping a table evicts its per-topic dispatch index: an automaton
/// whose prefilter was compiled against the old schema receives
/// nothing from a recreated table of the same name.
#[test]
fn drop_and_recreate_never_routes_through_a_stale_prefilter() {
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table Flows (srcip varchar(16), nbytes integer)")
        .unwrap();
    let (id, notifications) = cache
        .register_automaton(
            "subscribe f to Flows; behavior { if (f.nbytes > 100) send(f.nbytes); }",
        )
        .unwrap();

    cache.manual_clock().unwrap().advance(10);
    cache
        .insert(
            "Flows",
            vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(500)],
        )
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    assert_eq!(notifications.try_iter().count(), 1);

    cache.drop_table("Flows").unwrap();

    // Recreate with the columns swapped. The old prefilter guarded
    // `f.nbytes > 100` against column 1; in the new schema column 1 is
    // an integer named `srcip`, so a stale bucket would happily route
    // (and the automaton would fire on the wrong attribute).
    cache
        .execute("create table Flows (nbytes varchar(16), srcip integer)")
        .unwrap();
    cache.manual_clock().unwrap().advance(10);
    cache
        .insert("Flows", vec![Scalar::Str("big".into()), Scalar::Int(500)])
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    assert_eq!(
        notifications.try_iter().count(),
        0,
        "a dropped topic's subscribers must not survive into its successor"
    );

    cache.unregister_automaton(id).unwrap();
    assert_eq!(dump(&cache, "Flows").len(), 1);
}

/// A durable drop survives restart: the immediate checkpoint
/// supersedes the table's create and row records, and replay of any
/// older log segment tolerates records for the missing name.
#[test]
fn a_durable_drop_survives_restart() {
    let dir = scratch("durable-drop");
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
            .unwrap();
        cache
            .execute("create persistenttable Keep (k varchar(16) primary key, v integer)")
            .unwrap();
        for i in 0..10i64 {
            cache
                .insert(
                    "KV",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
            cache
                .insert(
                    "Keep",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        cache.drop_table("KV").unwrap();
        cache.shutdown();
    }
    let cache = CacheBuilder::new().durability(&dir).open().unwrap();
    assert!(matches!(
        cache.table_len("KV"),
        Err(Error::NoSuchTable { .. })
    ));
    assert_eq!(cache.table_len("Keep").unwrap(), 10);
    // The name is free for a different schema after recovery.
    cache.execute("create table KV (x real, y real)").unwrap();
    cache
        .insert("KV", vec![Scalar::Real(1.5), Scalar::Real(2.5)])
        .unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 1);
    cache.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
