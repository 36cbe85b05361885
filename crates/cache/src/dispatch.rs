//! The predicate-indexed dispatch layer: decides, per published tuple,
//! which automata can possibly be affected — *before* anything is
//! enqueued or a VM is woken.
//!
//! Every topic owns a [`TopicDispatch`]: a monotone counter of tuples
//! published on the topic plus a copy-on-write [`SubscriberIndex`]. The
//! index sorts each subscriber into the cheapest structure its compiled
//! [`Prefilter`] admits:
//!
//! * **equality buckets** — guards of the exact shape
//!   `event.col == literal` hash straight to their bucket, so probing
//!   is O(1) no matter how many thousand automata watch distinct keys;
//! * **range bands** — single-column conjunctions of numeric
//!   comparisons (`lo <= event.col && event.col < hi`) become an
//!   interval test;
//! * **scanned guards** — anything else extractable (disjunctions,
//!   multi-column conjunctions, `!=`) is evaluated per tuple with
//!   [`Guard::matches`];
//! * **catch-all** — opaque automata receive everything.
//!
//! # Equivalence with the VM
//!
//! A bucket or band may only *prune*; it must never skip an automaton
//! the VM would have matched. The VM compares numerics through `f64`
//! ([`gapl::value::Value::gapl_cmp`]), so bucket keys canonicalise every
//! numeric scalar to the bit pattern of its `f64` view (with `-0.0`
//! folded into `+0.0`): two scalars hash to the same bucket **iff** the
//! VM considers them `==`. Band endpoints are compared as `f64` for the
//! same reason, and a NaN attribute (which the VM turns into a runtime
//! error) conservatively admits. String buckets use plain string
//! equality, which is the VM's string `==`.
//!
//! Registration and publication synchronise through the per-topic
//! [`RwLock`]: a publisher increments `published` and snapshots the
//! index under the read lock, a registrar swaps the index and reads its
//! `published` baseline under the write lock. An automaton's exact
//! `skipped_by_prefilter` count is therefore derivable at any time as
//! `(published − baseline) − delivered`, costing the hot path nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use gapl::event::{AttrType, Scalar, Schema, Tuple};
use gapl::prefilter::{Guard, GuardOp, Prefilter};
use gapl::program::Const;

use crate::runtime::AutomatonId;

/// `f64` bits with `-0.0` canonicalised to `+0.0`, so numerically equal
/// values always share a bucket key.
fn canonical_bits(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

/// The numeric view the VM uses for comparisons
/// (mirrors `gapl::value::Value::as_real`, including `bool` as 0/1).
fn numeric_view(s: &Scalar) -> Option<f64> {
    match s {
        Scalar::Int(i) => Some(*i as f64),
        Scalar::Real(r) => Some(*r),
        Scalar::Tstamp(t) => Some(*t as f64),
        Scalar::Bool(b) => Some(f64::from(u8::from(*b))),
        Scalar::Str(_) => None,
    }
}

/// A bucket key: canonical numeric bits or a shared string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EqKey {
    Num(u64),
    Str(Arc<str>),
}

/// The key a tuple attribute probes with.
fn probe_key(value: &Scalar) -> EqKey {
    match value {
        Scalar::Str(s) => EqKey::Str(Arc::clone(s)),
        other => EqKey::Num(canonical_bits(
            numeric_view(other).expect("non-string scalars are numeric"),
        )),
    }
}

/// The key a guard literal registers under, given the column's type —
/// `None` when the literal can never hash-match the column's values
/// (e.g. a number against a string column), in which case the guard is
/// evaluated by scan instead.
fn literal_key(col_ty: AttrType, value: &Const) -> Option<EqKey> {
    match (col_ty, value) {
        (AttrType::Str, Const::Str(s)) => Some(EqKey::Str(Arc::from(s.as_str()))),
        (AttrType::Str, _) | (_, Const::Str(_)) => None,
        (_, Const::Int(i)) => Some(EqKey::Num(canonical_bits(*i as f64))),
        (_, Const::Real(r)) if !r.is_nan() => Some(EqKey::Num(canonical_bits(*r))),
        (_, Const::Real(_)) => None,
        (_, Const::Bool(b)) => Some(EqKey::Num(canonical_bits(f64::from(u8::from(*b))))),
    }
}

fn literal_as_f64(value: &Const) -> Option<f64> {
    match value {
        Const::Int(i) => Some(*i as f64),
        Const::Real(r) => Some(*r),
        Const::Bool(b) => Some(f64::from(u8::from(*b))),
        Const::Str(_) => None,
    }
}

/// A closed/open numeric interval on one column; the `bool` is
/// "inclusive".
#[derive(Debug, Clone, PartialEq)]
struct Band {
    col: usize,
    lo: Option<(f64, bool)>,
    hi: Option<(f64, bool)>,
}

impl Band {
    fn unconstrained(col: usize) -> Band {
        Band {
            col,
            lo: None,
            hi: None,
        }
    }

    /// Tighten the band with one more conjunct. Returns false for
    /// operators a band cannot express.
    fn constrain(&mut self, op: GuardOp, v: f64) -> bool {
        let tighten_lo = |lo: &mut Option<(f64, bool)>, cand: (f64, bool)| {
            *lo = Some(match *lo {
                Some(cur) if cur.0 > cand.0 || (cur.0 == cand.0 && !cur.1) => cur,
                _ => cand,
            });
        };
        let tighten_hi = |hi: &mut Option<(f64, bool)>, cand: (f64, bool)| {
            *hi = Some(match *hi {
                Some(cur) if cur.0 < cand.0 || (cur.0 == cand.0 && !cur.1) => cur,
                _ => cand,
            });
        };
        match op {
            GuardOp::Gt => tighten_lo(&mut self.lo, (v, false)),
            GuardOp::Ge => tighten_lo(&mut self.lo, (v, true)),
            GuardOp::Lt => tighten_hi(&mut self.hi, (v, false)),
            GuardOp::Le => tighten_hi(&mut self.hi, (v, true)),
            GuardOp::Eq => {
                tighten_lo(&mut self.lo, (v, true));
                tighten_hi(&mut self.hi, (v, true));
            }
            GuardOp::Ne => return false,
        }
        true
    }

    /// Whether a value falls inside the band. NaN admits: the VM raises
    /// a runtime error on NaN comparisons, so the event must be
    /// delivered for the error to be observed.
    fn admits(&self, v: f64) -> bool {
        if v.is_nan() {
            return true;
        }
        let above = match self.lo {
            Some((lo, true)) => v >= lo,
            Some((lo, false)) => v > lo,
            None => true,
        };
        let below = match self.hi {
            Some((hi, true)) => v <= hi,
            Some((hi, false)) => v < hi,
            None => true,
        };
        above && below
    }
}

/// Where one subscriber landed in the index.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Eq(usize, EqKey),
    Band(Band),
    Scan(Guard),
    CatchAll,
}

fn classify(prefilter: &Prefilter, schema: &Schema) -> Slot {
    let Prefilter::Guard(guard) = prefilter else {
        return Slot::CatchAll;
    };
    if let Some(slot) = eq_slot(guard, schema) {
        return slot;
    }
    if let Some(band) = band_slot(guard, schema) {
        return Slot::Band(band);
    }
    Slot::Scan(guard.clone())
}

/// `event.col == literal` on a schema column becomes an equality bucket.
fn eq_slot(guard: &Guard, schema: &Schema) -> Option<Slot> {
    let Guard::Cmp {
        field,
        op: GuardOp::Eq,
        value,
    } = guard
    else {
        return None;
    };
    let col = schema.index_of(field)?;
    let key = literal_key(schema.attributes()[col].ty, value)?;
    Some(Slot::Eq(col, key))
}

/// A conjunction of numeric comparisons on one numeric column becomes a
/// range band.
fn band_slot(guard: &Guard, schema: &Schema) -> Option<Band> {
    fn conjuncts<'g>(g: &'g Guard, out: &mut Vec<&'g Guard>) {
        match g {
            Guard::All(parts) => parts.iter().for_each(|p| conjuncts(p, out)),
            other => out.push(other),
        }
    }
    let mut parts = Vec::new();
    conjuncts(guard, &mut parts);
    let mut band: Option<Band> = None;
    for part in parts {
        let Guard::Cmp { field, op, value } = part else {
            return None;
        };
        let col = schema.index_of(field)?;
        if !matches!(
            schema.attributes()[col].ty,
            AttrType::Int | AttrType::Real | AttrType::Tstamp
        ) {
            return None;
        }
        let v = literal_as_f64(value)?;
        if v.is_nan() {
            return None;
        }
        match band {
            Some(ref mut b) => {
                // Two distinct columns cannot form one band.
                if b.col != col || !b.constrain(*op, v) {
                    return None;
                }
            }
            None => {
                let mut b = Band::unconstrained(col);
                if !b.constrain(*op, v) {
                    return None;
                }
                band = Some(b);
            }
        }
    }
    band
}

/// The copy-on-write subscriber index of one topic (see the [module
/// documentation](self)).
#[derive(Debug, Default, Clone)]
pub(crate) struct SubscriberIndex {
    /// column → bucket key → subscribers whose guard is `col == key`.
    eq: HashMap<usize, HashMap<EqKey, Vec<AutomatonId>>>,
    bands: Vec<(AutomatonId, Band)>,
    scans: Vec<(AutomatonId, Guard)>,
    catch_all: Vec<AutomatonId>,
    /// Every subscriber, registration-ordered.
    all: Vec<AutomatonId>,
}

impl SubscriberIndex {
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    pub fn subscriber_count(&self) -> usize {
        self.all.len()
    }

    /// Append to `out` the ids of every subscriber whose prefilter
    /// matches (or may match) `tuple`. Each subscriber lives in exactly
    /// one structure, so the output is duplicate-free.
    pub fn select_into(&self, tuple: &Tuple, out: &mut Vec<AutomatonId>) {
        for (col, buckets) in &self.eq {
            let Some(value) = tuple.value_at(*col) else {
                continue;
            };
            if let Some(ids) = buckets.get(&probe_key(value)) {
                out.extend_from_slice(ids);
            }
        }
        for (id, band) in &self.bands {
            let admitted = match tuple.value_at(band.col).and_then(numeric_view) {
                Some(v) => band.admits(v),
                // A string where a number was expected: the VM errors,
                // so deliver. Unreachable with schema-checked tuples.
                None => true,
            };
            if admitted {
                out.push(*id);
            }
        }
        for (id, guard) in &self.scans {
            if guard.matches(tuple) {
                out.push(*id);
            }
        }
        out.extend_from_slice(&self.catch_all);
    }

    fn with(&self, id: AutomatonId, prefilter: &Prefilter, schema: &Schema) -> SubscriberIndex {
        let mut next = self.clone();
        if next.all.contains(&id) {
            return next;
        }
        next.all.push(id);
        match classify(prefilter, schema) {
            Slot::Eq(col, key) => next
                .eq
                .entry(col)
                .or_default()
                .entry(key)
                .or_default()
                .push(id),
            Slot::Band(band) => next.bands.push((id, band)),
            Slot::Scan(guard) => next.scans.push((id, guard)),
            Slot::CatchAll => next.catch_all.push(id),
        }
        next
    }

    fn without(&self, id: AutomatonId) -> SubscriberIndex {
        let mut next = self.clone();
        next.all.retain(|a| *a != id);
        next.catch_all.retain(|a| *a != id);
        next.bands.retain(|(a, _)| *a != id);
        next.scans.retain(|(a, _)| *a != id);
        for buckets in next.eq.values_mut() {
            buckets.retain(|_, ids| {
                ids.retain(|a| *a != id);
                !ids.is_empty()
            });
        }
        next.eq.retain(|_, buckets| !buckets.is_empty());
        next
    }
}

/// Per-topic dispatch state: the published-tuple counter and the
/// current subscriber index.
#[derive(Debug)]
pub(crate) struct TopicDispatch {
    published: AtomicU64,
    index: RwLock<Arc<SubscriberIndex>>,
}

impl TopicDispatch {
    fn new() -> TopicDispatch {
        TopicDispatch {
            published: AtomicU64::new(0),
            index: RwLock::new(Arc::new(SubscriberIndex::default())),
        }
    }

    /// Tuples counted as published on this topic so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// The current index, without counting a publication.
    pub fn current(&self) -> Arc<SubscriberIndex> {
        Arc::clone(&self.index.read())
    }

    /// Atomically count `n` published tuples and snapshot the index they
    /// will be dispatched against — the one index probe a batch pays.
    pub fn snapshot_and_count(&self, n: u64) -> Arc<SubscriberIndex> {
        let guard = self.index.read();
        self.published.fetch_add(n, Ordering::AcqRel);
        Arc::clone(&guard)
    }

    /// Add a subscriber; returns the `published` baseline to subtract
    /// when deriving its skip count later.
    pub fn add(&self, id: AutomatonId, prefilter: &Prefilter, schema: &Schema) -> u64 {
        let mut guard = self.index.write();
        *guard = Arc::new(guard.with(id, prefilter, schema));
        self.published.load(Ordering::Acquire)
    }

    /// Remove a subscriber; no event published after this swap will be
    /// dispatched to it (in-flight snapshots may still try, and are cut
    /// off at the route table).
    pub fn remove(&self, id: AutomatonId) {
        let mut guard = self.index.write();
        *guard = Arc::new(guard.without(id));
    }
}

/// All per-topic dispatch state, created lazily per topic.
#[derive(Debug, Default)]
pub(crate) struct DispatchIndex {
    topics: RwLock<HashMap<String, Arc<TopicDispatch>>>,
}

impl DispatchIndex {
    /// The topic's dispatch entry, if one exists (read-only: never
    /// inserts, so arbitrary lookups cannot grow the map).
    pub fn get(&self, name: &str) -> Option<Arc<TopicDispatch>> {
        self.topics.read().get(name).cloned()
    }

    /// The topic's dispatch entry, created on first use.
    pub fn topic(&self, name: &str) -> Arc<TopicDispatch> {
        if let Some(td) = self.topics.read().get(name) {
            return Arc::clone(td);
        }
        Arc::clone(
            self.topics
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(TopicDispatch::new())),
        )
    }

    /// Forget a topic entirely (table dropped). A later table of the
    /// same name starts from a fresh dispatch entry, so no stale
    /// prefilter buckets compiled against the old schema can route
    /// its tuples.
    pub fn remove_topic(&self, name: &str) {
        self.topics.write().remove(name);
    }

    /// Drop every subscriber from every topic (shutdown).
    pub fn clear_subscribers(&self) {
        for td in self.topics.read().values() {
            *td.index.write() = Arc::new(SubscriberIndex::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapl::event::AttrType;

    fn ticks_schema() -> Schema {
        Schema::new(
            "Ticks",
            vec![("sym", AttrType::Str), ("price", AttrType::Int)],
        )
        .unwrap()
    }

    fn tick(sym: &str, price: i64) -> Tuple {
        Tuple::new(
            Arc::new(ticks_schema()),
            vec![Scalar::Str(sym.into()), Scalar::Int(price)],
            1,
        )
        .unwrap()
    }

    fn prefilter_of(src: &str) -> Prefilter {
        gapl::compile(src).unwrap().prefilter().clone()
    }

    fn select(index: &SubscriberIndex, tuple: &Tuple) -> Vec<AutomatonId> {
        let mut out = Vec::new();
        index.select_into(tuple, &mut out);
        out.sort();
        out
    }

    #[test]
    fn equality_guards_land_in_buckets_and_prune() {
        let schema = ticks_schema();
        let mut index = SubscriberIndex::default();
        for (i, sym) in ["A", "B", "A"].iter().enumerate() {
            let p = prefilter_of(&format!(
                "subscribe t to Ticks; behavior {{ if (t.sym == '{sym}') send(1); }}"
            ));
            index = index.with(AutomatonId(i as u64), &p, &schema);
        }
        assert_eq!(index.subscriber_count(), 3);
        assert!(index.scans.is_empty() && index.bands.is_empty() && index.catch_all.is_empty());
        assert_eq!(
            select(&index, &tick("A", 1)),
            vec![AutomatonId(0), AutomatonId(2)]
        );
        assert_eq!(select(&index, &tick("B", 1)), vec![AutomatonId(1)]);
        assert!(select(&index, &tick("C", 1)).is_empty());
    }

    #[test]
    fn numeric_equality_buckets_match_vm_f64_semantics() {
        let schema = ticks_schema();
        let p = prefilter_of("subscribe t to Ticks; behavior { if (t.price == 10.0) send(1); }");
        let index = SubscriberIndex::default().with(AutomatonId(1), &p, &schema);
        // A Real literal matches an Int column through the f64 view,
        // exactly as the VM's `==` does.
        assert_eq!(select(&index, &tick("A", 10)), vec![AutomatonId(1)]);
        assert!(select(&index, &tick("A", 11)).is_empty());
    }

    #[test]
    fn range_conjunctions_become_bands() {
        let schema = ticks_schema();
        let p = prefilter_of(
            "subscribe t to Ticks; behavior { if (t.price >= 10 && t.price < 20) send(1); }",
        );
        let index = SubscriberIndex::default().with(AutomatonId(4), &p, &schema);
        assert_eq!(index.bands.len(), 1);
        assert_eq!(select(&index, &tick("A", 10)), vec![AutomatonId(4)]);
        assert_eq!(select(&index, &tick("A", 19)), vec![AutomatonId(4)]);
        assert!(select(&index, &tick("A", 20)).is_empty());
        assert!(select(&index, &tick("A", 9)).is_empty());
    }

    #[test]
    fn disjunctions_and_opaque_automata_still_route() {
        let schema = ticks_schema();
        let or = prefilter_of(
            "subscribe t to Ticks; behavior { if (t.sym == 'A' || t.price > 100) send(1); }",
        );
        let index = SubscriberIndex::default()
            .with(AutomatonId(1), &or, &schema)
            .with(AutomatonId(2), &Prefilter::Opaque, &schema);
        assert_eq!(index.scans.len(), 1);
        assert_eq!(index.catch_all.len(), 1);
        assert_eq!(
            select(&index, &tick("A", 1)),
            vec![AutomatonId(1), AutomatonId(2)]
        );
        assert_eq!(select(&index, &tick("B", 1)), vec![AutomatonId(2)]);
        assert_eq!(
            select(&index, &tick("B", 200)),
            vec![AutomatonId(1), AutomatonId(2)]
        );
    }

    #[test]
    fn removal_restores_the_empty_index() {
        let schema = ticks_schema();
        let p = prefilter_of("subscribe t to Ticks; behavior { if (t.sym == 'A') send(1); }");
        let index = SubscriberIndex::default().with(AutomatonId(1), &p, &schema);
        let index = index.without(AutomatonId(1));
        assert!(index.is_empty());
        assert!(index.eq.is_empty());
    }

    #[test]
    fn topic_dispatch_counts_and_baselines() {
        let td = TopicDispatch::new();
        assert_eq!(td.published(), 0);
        let idx = td.snapshot_and_count(5);
        assert!(idx.is_empty());
        assert_eq!(td.published(), 5);
        let baseline = td.add(AutomatonId(1), &Prefilter::Opaque, &ticks_schema());
        assert_eq!(baseline, 5);
        td.remove(AutomatonId(1));
        assert!(td.current().is_empty());
    }
}
