//! Differential property suite for the predicate-indexed dispatch layer:
//! for random automaton populations and insert streams, the indexed
//! dispatch (equality buckets, range bands, scanned guards, catch-all)
//! must produce **byte-identical per-automaton output** — notifications,
//! recorded runtime errors and printed lines, all in order — to the
//! naive all-subscribers fan-out of the paper's prototype.
//!
//! The naive side needs no mode in the cache: it is the same population
//! with ` else {}` appended to every sole `if` (the **twin**). The
//! prefilter never indexes an `if` that has an `else`, so each twin
//! automaton is delivered every tuple and runs its guard in the VM,
//! while an empty `else` leaves its behaviour unchanged. The suite
//! checks that the twin really stays unindexed (nothing skipped by a
//! prefilter); otherwise a prefilter that learned to see through
//! `else {}` would quietly turn the oracle into a second copy of the
//! index.
//!
//! The automaton templates deliberately cover every slot of the index:
//! string-equality guards (buckets), numeric range conjunctions (bands),
//! disjunctions and `!=` (scans), stateful/opaque behaviors and
//! multi-topic automata (catch-all), plus guards that wrap mutable
//! state updates so a wrongly skipped event would desynchronise a
//! counter and change every later notification.

use std::time::Duration;

use proptest::prelude::*;

use gapl::event::Scalar;
use unipubsub::prelude::*;

const SYMS: [&str; 4] = ["K0", "K1", "K2", "K3"];

/// One automaton spec: `(kind, a, b, sym)` drawn from small domains.
type AutomatonSpec = (u8, i64, i64, usize);
/// One insert op: `(topic_selector, rows, price_base, sym_base)`.
type InsertOp = (u8, u8, i64, u8);

fn automaton_source(spec: &AutomatonSpec) -> String {
    let (kind, a, b, sym) = *spec;
    let sym = SYMS[sym % SYMS.len()];
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match kind % 8 {
        // Equality bucket.
        0 => format!(
            "subscribe t to T; behavior {{ if (t.sym == '{sym}') send(t.sym, t.price); }}"
        ),
        // Range band.
        1 => format!(
            "subscribe t to T; behavior {{ if (t.price >= {lo} && t.price < {hi}) send(t.price); }}"
        ),
        // Disjunction: scanned guard.
        2 => format!(
            "subscribe t to T; behavior {{ if (t.sym == '{sym}' || t.price > {a}) send(t.price, t.sym); }}"
        ),
        // Opaque: leading statement mutates state unconditionally.
        3 => format!(
            "subscribe t to T; int n; behavior {{ n += 1; if (t.price > {a}) send(n, t.price); }}"
        ),
        // `!=`: scanned guard.
        4 => format!("subscribe t to T; behavior {{ if (t.price != {a}) send(t.price); }}"),
        // Guarded state: a wrongly skipped event would desync `n`.
        5 => format!(
            "subscribe t to T; int n; behavior {{ if (t.sym == '{sym}') {{ n += 1; send(n, t.load); }} }}"
        ),
        // Real-column band, plus a print side effect.
        6 => "subscribe t to T; behavior { if (t.load > 0.5) \
              { print(String('hot ', t.price)); send(t.load); } }"
            .to_string(),
        // Multi-topic: must stay opaque (and may raise runtime errors on
        // U events before any T event arrived — identically in both
        // modes).
        _ => format!(
            "subscribe t to T; subscribe u to U; int n; \
             behavior {{ if (t.price > {a}) n += 1; if (n > 1) send(n); }}"
        ),
    }
}

/// The unindexable twin of [`automaton_source`]: the same behaviour
/// with ` else {}` appended to a sole `if`. Templates 3 and 7 are
/// already opaque and stay as written.
fn twin_source(spec: &AutomatonSpec) -> String {
    let source = automaton_source(spec);
    if matches!(spec.0 % 8, 3 | 7) {
        return source;
    }
    let body = source
        .strip_suffix(" }")
        .expect("every template ends its behavior with ` }`");
    format!("{body} else {{}} }}")
}

/// Observable output of one automaton: notification payloads (in
/// order), recorded errors, printed lines.
type Observed = (Vec<Vec<Scalar>>, Vec<String>, Vec<String>);

/// Run `ops` against the population (its twin when `twin`) and return
/// each automaton's output plus its `skipped_by_prefilter` count.
fn run_workload(
    twin: bool,
    specs: &[AutomatonSpec],
    ops: &[InsertOp],
) -> (Vec<Observed>, Vec<u64>) {
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table T (sym varchar(4), price integer, load real)")
        .unwrap();
    cache.execute("create table U (v integer)").unwrap();

    let mut automata = Vec::new();
    for spec in specs {
        automata.push(
            cache
                .register_automaton(&if twin {
                    twin_source(spec)
                } else {
                    automaton_source(spec)
                })
                .expect("every template compiles"),
        );
    }

    for (topic_sel, rows, price_base, sym_base) in ops {
        cache.manual_clock().unwrap().advance(1000);
        if topic_sel % 4 == 0 {
            cache.insert("U", vec![Scalar::Int(*price_base)]).unwrap();
            continue;
        }
        let batch: Vec<Vec<Scalar>> = (0..*rows)
            .map(|r| {
                let price = price_base + i64::from(r);
                vec![
                    Scalar::from(SYMS[(usize::from(*sym_base) + r as usize) % SYMS.len()]),
                    Scalar::Int(price),
                    Scalar::Real((price.rem_euclid(7)) as f64 / 6.0),
                ]
            })
            .collect();
        if batch.len() == 1 {
            cache
                .insert("T", batch.into_iter().next().unwrap())
                .unwrap();
        } else {
            cache.insert_batch("T", batch).unwrap();
        }
    }
    assert!(
        cache.quiesce(Duration::from_secs(30)),
        "cache failed to quiesce"
    );

    let mut observed = Vec::new();
    let mut skipped = Vec::new();
    for (id, rx) in automata {
        let notes: Vec<Vec<Scalar>> = rx.try_iter().map(|n| n.values).collect();
        let errors = cache.automaton_errors(id).unwrap();
        let printed = cache.printed(id).unwrap();
        observed.push((notes, errors, printed));
        skipped.push(cache.automaton_telemetry(id).unwrap().skipped_by_prefilter);
    }
    (observed, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence property: indexed dispatch ≡ naive
    /// fan-out (the unindexed twin), per automaton, byte for byte.
    #[test]
    fn indexed_dispatch_is_equivalent_to_its_unindexed_twin(
        specs in proptest::collection::vec((0u8..8, -20i64..20, -20i64..20, 0usize..4), 1..7),
        ops in proptest::collection::vec((0u8..4, 1u8..6, -25i64..25, 0u8..4), 0..25),
    ) {
        let (indexed, _) = run_workload(false, &specs, &ops);
        let (naive, twin_skipped) = run_workload(true, &specs, &ops);
        prop_assert!(
            twin_skipped.iter().all(|&s| s == 0),
            "a prefilter skipped tuples for the twin population: {:?}", twin_skipped
        );
        prop_assert_eq!(indexed, naive);
    }

    /// Dispatch accounting closes: for every automaton, events published
    /// on its topics since registration are exactly `delivered +
    /// skipped_by_prefilter`, and everything delivered is processed
    /// after a quiesce.
    #[test]
    fn dispatch_accounting_is_exact(
        specs in proptest::collection::vec((0u8..8, -20i64..20, -20i64..20, 0usize..4), 1..5),
        ops in proptest::collection::vec((1u8..4, 1u8..6, -25i64..25, 0u8..4), 0..15),
    ) {
        let cache = CacheBuilder::new().manual_clock().build();
        cache.execute("create table T (sym varchar(4), price integer, load real)").unwrap();
        cache.execute("create table U (v integer)").unwrap();
        let mut published = 0u64;
        let ids: Vec<AutomatonId> = specs
            .iter()
            .map(|s| cache.register_automaton(&automaton_source(s)).unwrap().0)
            .collect();
        for (_, rows, price_base, sym_base) in &ops {
            let batch: Vec<Vec<Scalar>> = (0..*rows)
                .map(|r| {
                    let price = price_base + i64::from(r);
                    vec![
                        Scalar::from(SYMS[(usize::from(*sym_base) + r as usize) % SYMS.len()]),
                        Scalar::Int(price),
                        Scalar::Real((price.rem_euclid(7)) as f64 / 6.0),
                    ]
                })
                .collect();
            published += batch.len() as u64;
            cache.insert_batch("T", batch).unwrap();
        }
        prop_assert!(cache.quiesce(Duration::from_secs(30)));
        for (id, spec) in ids.iter().zip(&specs) {
            let t = cache.automaton_telemetry(*id).unwrap();
            // Multi-topic automata also count U publishes; none were made.
            prop_assert_eq!(
                t.delivered + t.skipped_by_prefilter,
                published,
                "automaton {:?} accounting does not close", spec
            );
            prop_assert_eq!(t.processed, t.delivered);
            prop_assert_eq!(t.queue_depth, 0);
        }
    }
}
