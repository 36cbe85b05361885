//! Epoch-published table snapshots: the lock-free read path.
//!
//! Every table publishes an immutable [`TableSnapshot`] that readers
//! load with a single shared-pointer clone and evaluate **entirely
//! outside the table mutex**. The snapshot is a chunked, append-only
//! row log:
//!
//! * sealed chunks are immutable and shared (`Arc`) between snapshot
//!   generations — publishing a new generation never copies rows;
//! * the open tail chunk uses write-once slots ([`OnceLock`]): the
//!   single writer (which holds the table mutex) fills the next slot
//!   and then advances the snapshot's `visible` watermark with one
//!   `Release` store. Readers load `visible` with `Acquire` and may
//!   touch only slots below it, so a half-written row is never
//!   observable and no reader ever blocks on a writer.
//!
//! **Publish protocol** (the epoch rule): rows become readable when
//! `visible` advances, *never* when their slot is written. On a durable
//! table the watermark is advanced only after the row's write-ahead-log
//! record has been appended **and** group-committed, so a reader can
//! never observe a row whose WAL record is not yet durable
//! (flush-before-visible; see `docs/architecture.md`).
//!
//! **Memory reclamation** is refcount-epoch based: a new snapshot
//! generation (chunk seal, compaction, stream eviction passing a chunk
//! boundary, replication reset) is swapped into the table's
//! `SharedTableState` slot; readers holding the previous `Arc` keep a
//! consistent frozen view, and the old generation is freed when the
//! last such reader drops it. No hazard pointers, no deferred-free
//! lists — the `Arc` *is* the epoch.
//!
//! Keyed state (persistent-table primary keys) lives beside the log in
//! a reader/writer-locked map that writers touch only for the map
//! update itself — microseconds, never across WAL I/O — so `lookup`
//! and `keys` never contend with the insert+commit critical section
//! either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use gapl::event::{Schema, Timestamp, Tuple};

use crate::table::TableKind;

/// Rows per chunk. Sealing (and therefore snapshot republication) is a
/// once-per-`CHUNK`-inserts event; everything in between is one slot
/// write plus one atomic store.
pub(crate) const CHUNK: usize = 1024;

/// Sentinel for [`RowEntry::replaced_by`]: the row is live.
pub(crate) const LIVE: u64 = u64::MAX;

/// One entry of the shared row log.
#[derive(Debug)]
pub(crate) struct RowEntry {
    /// Sort key for `since τ` binary searches; monotone over the log
    /// (insertions clamp, tombstones inherit the high-water mark).
    pub tstamp: Timestamp,
    /// The stored row (shared, never deep-copied).
    pub tuple: Tuple,
    /// Primary key for keyed (persistent) tables; `None` on streams
    /// and tombstones' removed-row echoes. Lets compaction rebuild the
    /// key map without re-deriving keys from tuples.
    pub key: Option<Arc<str>>,
    /// Absolute log index of the entry that superseded this one
    /// (an upsert's new version or a removal's tombstone); [`LIVE`]
    /// while current. A reader whose view ends at `end` treats the
    /// entry as live iff `replaced_by >= end`: the supersession
    /// happened at or after its horizon, so *its* version of history
    /// still shows this row. Stored `Release` strictly before the
    /// superseding entry becomes visible.
    pub replaced_by: AtomicU64,
    /// A removal marker: occupies a log position (so removals advance
    /// `visible` and take effect for later readers) but is never
    /// yielded to a reader.
    pub tombstone: bool,
}

impl RowEntry {
    /// Whether a reader whose visible horizon is `end` should yield
    /// this entry.
    #[inline]
    fn live_at(&self, end: u64) -> bool {
        !self.tombstone && self.replaced_by.load(Ordering::Acquire) >= end
    }
}

/// A fixed-capacity run of write-once row slots.
#[derive(Debug)]
struct Chunk {
    slots: Box<[OnceLock<RowEntry>]>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            slots: (0..CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// An immutable, atomically published view of one table's row log.
///
/// "Immutable" structurally: the chunk list and `base` never change
/// after publication. The two watermarks (`visible`, `start`) are the
/// only mutable cells, advanced monotonically by the single writer; a
/// superseded generation's watermarks simply stop advancing, freezing
/// the view for readers that still hold it.
#[derive(Debug)]
pub struct TableSnapshot {
    schema: Arc<Schema>,
    kind: TableKind,
    /// Absolute log index of `chunks[0].slots[0]`.
    base: u64,
    chunks: Vec<Arc<Chunk>>,
    /// One past the newest committed (readable) row, as an absolute
    /// index. `Release`-stored by the writer after the slots below it
    /// are filled (and, for durable tables, after their WAL records
    /// are on disk); `Acquire`-loaded by readers.
    visible: AtomicU64,
    /// Oldest retained row (stream eviction); always `>= base`.
    start: AtomicU64,
}

impl TableSnapshot {
    /// An empty snapshot for a fresh table.
    pub(crate) fn empty(schema: Arc<Schema>, kind: TableKind) -> TableSnapshot {
        TableSnapshot {
            schema,
            kind,
            base: 0,
            chunks: vec![Arc::new(Chunk::new())],
            visible: AtomicU64::new(0),
            start: AtomicU64::new(0),
        }
    }

    /// The schema the snapshot's rows conform to. Cached plans key on
    /// this `Arc`'s identity: it is stable across snapshot generations
    /// of the same table instance, so plan revalidation is a pointer
    /// compare.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The table kind.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// One past the newest readable row (absolute index).
    #[inline]
    pub(crate) fn end(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// The oldest retained row (absolute index).
    #[inline]
    pub(crate) fn first(&self) -> u64 {
        self.start.load(Ordering::Acquire)
    }

    /// Rows currently readable (streams: the retained window; keyed
    /// tables count tombstones and stale versions too — callers use
    /// the key map for a live-row count).
    pub(crate) fn window_len(&self) -> usize {
        let end = self.end();
        end.saturating_sub(self.first().min(end)) as usize
    }

    /// The committed row at absolute index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` addresses a slot the writer has not filled;
    /// callers stay below a previously loaded `end()` (readers) or
    /// below the staging tail (the writer).
    #[inline]
    pub(crate) fn row(&self, idx: u64) -> &RowEntry {
        let off = (idx - self.base) as usize;
        self.chunks[off / CHUNK].slots[off % CHUNK]
            .get()
            .expect("row index below the visible watermark is always initialised")
    }

    /// First absolute index in `[lo, hi)` whose row's timestamp is
    /// strictly after `tau` (the log is timestamp-sorted).
    fn partition_after(&self, tau: Timestamp, mut lo: u64, mut hi: u64) -> u64 {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid).tstamp <= tau {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Iterate the live rows of the `since` window, in time-of-insertion
    /// order, without cloning a single tuple. The visible horizon is
    /// loaded once, so the iteration is one consistent point-in-time
    /// view: it observes every row committed before the call and none
    /// after.
    pub(crate) fn range(&self, since: Option<Timestamp>) -> SnapRange<'_> {
        let end = self.end();
        let first = self.first().min(end);
        let idx = match since {
            None => first,
            Some(tau) => self.partition_after(tau, first, end),
        };
        SnapRange {
            snap: self,
            idx,
            end,
            cur: &[],
            cur_start: idx,
        }
    }

    /// The `since` window as cloned tuples, for callers that hold the
    /// table lock ([`Table::snapshot_since`](crate::table::Table::snapshot_since)
    /// and checkpoints).
    pub(crate) fn collect_since(&self, since: Option<Timestamp>) -> Vec<Tuple> {
        self.range(since).cloned().collect()
    }

    // ---- writer side (single writer, table mutex held) ----

    /// One past the last slot this generation can hold.
    pub(crate) fn capacity_end(&self) -> u64 {
        self.base + (self.chunks.len() * CHUNK) as u64
    }

    /// Fill the slot at absolute index `idx`. The row stays invisible
    /// until [`TableSnapshot::commit_visible`] passes it.
    pub(crate) fn stage(&self, idx: u64, row: RowEntry) {
        let off = (idx - self.base) as usize;
        let ok = self.chunks[off / CHUNK].slots[off % CHUNK].set(row).is_ok();
        debug_assert!(ok, "a log slot is staged exactly once");
    }

    /// Advance the visible watermark to at least `upto` (monotone; the
    /// single writer may commit on behalf of an earlier staged prefix,
    /// see the group-commit ordering note in `cache.rs`).
    pub(crate) fn commit_visible(&self, upto: u64) {
        // Single writer: a plain read-modify-write under the table
        // mutex; `Release` pairs with readers' `Acquire` of `end()`.
        if self.visible.load(Ordering::Relaxed) < upto {
            self.visible.store(upto, Ordering::Release);
        }
    }

    /// Advance the eviction watermark (streams dropping their oldest
    /// rows). Chunks wholly below it are unlinked at the next seal.
    pub(crate) fn evict_to(&self, idx: u64) {
        if self.start.load(Ordering::Relaxed) < idx {
            self.start.store(idx, Ordering::Release);
        }
    }

    /// A successor generation with one fresh chunk appended and every
    /// chunk wholly below the eviction watermark unlinked. Shares all
    /// surviving chunks; copies no rows.
    pub(crate) fn sealed_extend(&self) -> TableSnapshot {
        let start = self.start.load(Ordering::Relaxed);
        let mut base = self.base;
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        for chunk in &self.chunks {
            if base + (CHUNK as u64) <= start && chunks.is_empty() {
                // Every row of this chunk is evicted; readers of older
                // generations keep it alive through their own Arc.
                base += CHUNK as u64;
            } else {
                chunks.push(Arc::clone(chunk));
            }
        }
        chunks.push(Arc::new(Chunk::new()));
        TableSnapshot {
            schema: Arc::clone(&self.schema),
            kind: self.kind,
            base,
            chunks,
            visible: AtomicU64::new(self.visible.load(Ordering::Relaxed)),
            start: AtomicU64::new(start),
        }
    }

    /// A compacted generation holding exactly `rows` (already in log
    /// order, all live), rebased to start at `base`. Used when stale
    /// entries outnumber live ones.
    pub(crate) fn rebuilt(
        schema: Arc<Schema>,
        kind: TableKind,
        base: u64,
        rows: Vec<RowEntry>,
    ) -> TableSnapshot {
        let n = rows.len() as u64;
        let mut chunks = Vec::with_capacity(rows.len() / CHUNK + 1);
        let mut chunk = Chunk::new();
        for (i, row) in rows.into_iter().enumerate() {
            if i > 0 && i % CHUNK == 0 {
                chunks.push(Arc::new(std::mem::replace(&mut chunk, Chunk::new())));
            }
            let ok = chunk.slots[i % CHUNK].set(row).is_ok();
            debug_assert!(ok);
        }
        chunks.push(Arc::new(chunk));
        TableSnapshot {
            schema,
            kind,
            base,
            chunks,
            visible: AtomicU64::new(base + n),
            start: AtomicU64::new(base),
        }
    }
}

/// Borrowed iterator over the live tuples of one snapshot window.
///
/// Walks chunk slices directly (one division per chunk, not per row):
/// this iterator is the per-row inner loop of every lock-free `select`,
/// so the per-row cost is one bounds-checked slot read plus the
/// liveness load.
pub(crate) struct SnapRange<'a> {
    snap: &'a TableSnapshot,
    idx: u64,
    end: u64,
    /// Slots of the chunk containing `idx` (empty until first use and
    /// across chunk boundaries).
    cur: &'a [OnceLock<RowEntry>],
    /// Absolute log index of `cur[0]`.
    cur_start: u64,
}

impl<'a> Iterator for SnapRange<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        while self.idx < self.end {
            let off = (self.idx - self.cur_start) as usize;
            if off >= self.cur.len() {
                let chunk = ((self.idx - self.snap.base) as usize) / CHUNK;
                self.cur = &self.snap.chunks[chunk].slots;
                self.cur_start = self.snap.base + (chunk * CHUNK) as u64;
                continue;
            }
            self.idx += 1;
            let row = self.cur[off]
                .get()
                .expect("row index below the visible watermark is always initialised");
            if row.live_at(self.end) {
                return Some(&row.tuple);
            }
        }
        None
    }
}

/// The reader-reachable state of one table, shared between the store's
/// [`crate::table::TableHandle`] and the writer-owned
/// [`crate::table::Table`]: the published snapshot slot plus the keyed
/// row map.
#[derive(Debug)]
pub(crate) struct SharedTableState {
    /// The current snapshot generation. Swapped only on seal,
    /// compaction or replication reset; the write guard is held for
    /// one pointer store, so the reader's `read()+clone` is never
    /// blocked by row-level work.
    slot: RwLock<Arc<TableSnapshot>>,
    /// Primary key → (absolute log index of the live version, row).
    /// Empty and untouched for streams.
    pub(crate) keys: RwLock<HashMap<Arc<str>, (u64, Tuple)>>,
}

impl SharedTableState {
    pub(crate) fn new_published(snapshot: Arc<TableSnapshot>) -> SharedTableState {
        SharedTableState {
            slot: RwLock::new(snapshot),
            keys: RwLock::new(HashMap::new()),
        }
    }

    /// The current snapshot: the reader's one stop.
    pub(crate) fn load(&self) -> Arc<TableSnapshot> {
        Arc::clone(&self.slot.read())
    }

    /// Publish a new generation.
    pub(crate) fn store(&self, snapshot: Arc<TableSnapshot>) {
        *self.slot.write() = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapl::event::{AttrType, Scalar};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new("S", vec![("v", AttrType::Int)]).unwrap())
    }

    fn row(s: &Arc<Schema>, v: i64, ts: u64) -> RowEntry {
        RowEntry {
            tstamp: ts,
            tuple: Tuple::new(Arc::clone(s), vec![Scalar::Int(v)], ts).unwrap(),
            key: None,
            replaced_by: AtomicU64::new(LIVE),
            tombstone: false,
        }
    }

    #[test]
    fn staged_rows_are_invisible_until_committed() {
        let s = schema();
        let snap = TableSnapshot::empty(Arc::clone(&s), TableKind::Ephemeral);
        snap.stage(0, row(&s, 1, 10));
        assert_eq!(snap.range(None).count(), 0);
        snap.commit_visible(1);
        assert_eq!(snap.range(None).count(), 1);
    }

    #[test]
    fn since_window_binary_search_matches_filter() {
        let s = schema();
        let snap = TableSnapshot::empty(Arc::clone(&s), TableKind::Ephemeral);
        for i in 0..100u64 {
            snap.stage(i, row(&s, i as i64, i * 2));
        }
        snap.commit_visible(100);
        for tau in [0u64, 1, 7, 99, 197, 198, 1000] {
            let indexed: Vec<u64> = snap.range(Some(tau)).map(|t| t.tstamp()).collect();
            let naive: Vec<u64> = snap
                .range(None)
                .map(|t| t.tstamp())
                .filter(|ts| *ts > tau)
                .collect();
            assert_eq!(indexed, naive, "tau={tau}");
        }
    }

    #[test]
    fn seal_extends_past_chunk_capacity_and_shares_chunks() {
        let s = schema();
        let mut cur = Arc::new(TableSnapshot::empty(Arc::clone(&s), TableKind::Ephemeral));
        let total = (CHUNK * 2 + 5) as u64;
        for i in 0..total {
            if i == cur.capacity_end() {
                cur = Arc::new(cur.sealed_extend());
            }
            cur.stage(i, row(&s, i as i64, i));
            cur.commit_visible(i + 1);
        }
        assert_eq!(cur.range(None).count() as u64, total);
        assert_eq!(cur.row(0).tuple.tstamp(), 0);
    }

    #[test]
    fn eviction_trims_the_window_and_seal_unlinks_dead_chunks() {
        let s = schema();
        let mut cur = Arc::new(TableSnapshot::empty(Arc::clone(&s), TableKind::Ephemeral));
        let total = (CHUNK * 3) as u64;
        let capacity = 10u64;
        for i in 0..total {
            if i == cur.capacity_end() {
                cur = Arc::new(cur.sealed_extend());
            }
            cur.stage(i, row(&s, i as i64, i));
            cur.commit_visible(i + 1);
            if i + 1 > capacity {
                cur.evict_to(i + 1 - capacity);
            }
        }
        assert_eq!(cur.window_len() as u64, capacity);
        let first = cur.range(None).next().unwrap().tstamp();
        assert_eq!(first, total - capacity);
        // The final generation kept only the chunks the window needs.
        assert!(cur.chunks.len() <= 2);
    }

    #[test]
    fn replaced_rows_stay_visible_to_older_horizons() {
        let s = schema();
        let snap = TableSnapshot::empty(Arc::clone(&s), TableKind::Persistent);
        snap.stage(0, row(&s, 1, 1));
        snap.commit_visible(1);
        // Supersede row 0 with row 1 (an upsert): mark, then commit.
        snap.row(0).replaced_by.store(1, Ordering::Release);
        snap.stage(1, row(&s, 2, 2));
        snap.commit_visible(2);
        // A reader at horizon 1 (cut before the upsert) sees the old row.
        assert!(snap.row(0).live_at(1));
        // A reader at horizon 2 sees only the replacement.
        assert!(!snap.row(0).live_at(2));
        let vals: Vec<i64> = snap
            .range(None)
            .map(|t| t.values()[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![2]);
    }
}
