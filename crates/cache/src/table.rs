//! Tables: ephemeral streams and persistent relations, stored as
//! epoch-published snapshot logs.
//!
//! The cache supports two table kinds (§3):
//!
//! * **ephemeral** tables — append-only streams whose primary key is the
//!   time of insertion, bounded to a retention window;
//! * **persistent** tables — time-varying relations whose primary key is
//!   the *first* attribute of the schema; the `on duplicate key update`
//!   insert modifier replaces the existing row while the default insert
//!   appends a new one (and fails on a duplicate key).
//!
//! Both kinds store their rows in one shared, chunked
//! [`TableSnapshot`] log (see
//! `snapshot.rs` for the publish protocol). The writer half — this
//! module's [`Table`] — lives behind the per-table mutex and runs a
//! **stage / commit** protocol:
//!
//! 1. [`Table::stage_insert`] / [`Table::stage_remove`] validate the
//!    operation against *effective* state (committed rows plus earlier
//!    staged-but-uncommitted operations), write the row into the next
//!    log slot, and record a pending key-map delta. Staged rows are
//!    invisible to readers.
//! 2. [`Table::commit_visible`] applies the pending deltas (marking
//!    superseded rows, updating the key map) and then advances the
//!    snapshot's visible watermark with one `Release` store.
//!
//! The cache commits immediately for non-logged writes, and only
//! *after* the write-ahead-log record is durable for logged ones, so a
//! published row always has a durable WAL record behind it
//! (flush-before-visible). The split also means the table mutex is
//! **not** held across WAL I/O while rows are already readable — the
//! read path never waits on a disk write.
//!
//! Every table is simultaneously a publish/subscribe topic with the same
//! name; publication is handled by [`crate::cache::Cache`], not here.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use gapl::event::{Scalar, Schema, Timestamp, Tuple};

use crate::error::{Error, Result};
use crate::snapshot::{RowEntry, SharedTableState, TableSnapshot, LIVE};

/// Default number of tuples retained by an ephemeral table's window.
pub const DEFAULT_STREAM_CAPACITY: usize = 65_536;

/// Log entries a persistent table tolerates before stale-majority
/// compaction kicks in.
const COMPACT_MIN_LOG: usize = 64;

/// Staged operations a persistent table's drained staging queue (and
/// its index) may keep capacity for; a queue that held more, such as
/// one huge batch, gives its memory back when it drains.
const STAGING_RETAIN: usize = 8192;

/// Whether a table is an append-only stream or a keyed relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// Append-only stream over a bounded retention window.
    Ephemeral,
    /// Keyed, heap-resident relation.
    Persistent,
}

/// Outcome of an insert, used by the cache to decide what to publish.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertOutcome {
    /// The tuple as stored (with its insertion timestamp).
    pub stored: Tuple,
    /// Whether an existing row was replaced (`on duplicate key update`).
    pub replaced: bool,
}

/// A table plus its topic metadata (the writer half; readers go through
/// [`TableHandle`] and never touch this type).
#[derive(Debug)]
pub enum Table {
    /// Append-only stream.
    Ephemeral(EphemeralTable),
    /// Keyed relation.
    Persistent(PersistentTable),
}

impl Table {
    /// Create an ephemeral (stream) table with the given window capacity.
    pub fn ephemeral(schema: Arc<Schema>, capacity: usize) -> Table {
        Table::Ephemeral(EphemeralTable::new(schema, capacity))
    }

    /// Create a persistent (relation) table keyed by its first attribute.
    pub fn persistent(schema: Arc<Schema>) -> Table {
        Table::Persistent(PersistentTable::new(schema))
    }

    /// Create a table of `kind`; `capacity` is the stream window and is
    /// ignored for relations.
    pub(crate) fn new(kind: TableKind, schema: Arc<Schema>, capacity: usize) -> Table {
        match kind {
            TableKind::Ephemeral => Table::ephemeral(schema, capacity),
            TableKind::Persistent => Table::persistent(schema),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            Table::Ephemeral(t) => &t.schema,
            Table::Persistent(t) => &t.schema,
        }
    }

    /// The table kind.
    pub fn kind(&self) -> TableKind {
        match self {
            Table::Ephemeral(_) => TableKind::Ephemeral,
            Table::Persistent(_) => TableKind::Persistent,
        }
    }

    /// The reader-shared state this table publishes into.
    pub(crate) fn shared(&self) -> &Arc<SharedTableState> {
        match self {
            Table::Ephemeral(t) => &t.shared,
            Table::Persistent(t) => &t.shared,
        }
    }

    /// Number of committed rows currently stored.
    pub fn len(&self) -> usize {
        match self {
            Table::Ephemeral(t) => t.cur.window_len(),
            Table::Persistent(t) => t.shared.keys.read().len(),
        }
    }

    /// True when the table holds no committed rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a row and commit it immediately (non-logged writes,
    /// recovery replay, tests). `values` must conform to the schema;
    /// `tstamp` is the insertion time assigned by the cache;
    /// `on_duplicate_update` selects the keyed-update behaviour for
    /// persistent tables.
    ///
    /// # Errors
    ///
    /// Returns a schema error for malformed tuples, and a
    /// [`Error::WrongTableKind`]-style error when a duplicate key is
    /// inserted into a persistent table without `on duplicate key update`.
    pub fn insert(
        &mut self,
        values: Vec<Scalar>,
        tstamp: Timestamp,
        on_duplicate_update: bool,
    ) -> Result<InsertOutcome> {
        let outcome = self.stage_insert(values, tstamp, on_duplicate_update)?;
        self.commit_visible(self.staged_tail());
        Ok(outcome)
    }

    /// Stage a row without making it visible; see the module docs for
    /// the stage/commit protocol. Nothing is staged on error.
    pub fn stage_insert(
        &mut self,
        values: Vec<Scalar>,
        tstamp: Timestamp,
        on_duplicate_update: bool,
    ) -> Result<InsertOutcome> {
        match self {
            Table::Ephemeral(t) => t.stage_insert(values, tstamp),
            Table::Persistent(t) => t.stage_insert(values, tstamp, on_duplicate_update),
        }
    }

    /// One past the newest staged row (the commit target covering every
    /// operation staged so far).
    pub fn staged_tail(&self) -> u64 {
        match self {
            Table::Ephemeral(t) => t.tail,
            Table::Persistent(t) => t.tail,
        }
    }

    /// Make every operation staged below `upto` visible to readers.
    /// Monotone and prefix-shaped: a caller may commit on behalf of
    /// earlier writers' staged prefixes (the cache does exactly that
    /// when group-commit acknowledgements complete out of order —
    /// the log's durability is prefix-ordered, so a later writer's
    /// durable record implies every earlier one is durable too).
    pub fn commit_visible(&mut self, upto: u64) {
        match self {
            Table::Ephemeral(t) => t.commit_visible(upto),
            Table::Persistent(t) => t.commit_visible(upto),
        }
    }

    /// All committed rows in time-of-insertion order (the default
    /// retrieval order for either table kind, per §3). Equivalent to
    /// [`Table::snapshot_since`]`(None)`.
    pub fn scan(&self) -> Vec<Tuple> {
        self.snapshot_since(None)
    }

    /// Committed rows in time-of-insertion order, restricted to those
    /// inserted strictly after `since` when a timestamp is given.
    ///
    /// This is the indexed `select … since τ` path: insertion timestamps
    /// are monotone (the table clamps them on insert), so the matching
    /// rows are a *suffix* of the log and a binary search finds its
    /// start — O(log n + k) for a k-row window over an n-row table.
    /// Lock-free readers use the same index through
    /// [`TableHandle::snapshot`]; this clone-out form is for callers
    /// that already hold the table lock.
    pub fn snapshot_since(&self, since: Option<Timestamp>) -> Vec<Tuple> {
        match self {
            Table::Ephemeral(t) => t.cur.collect_since(since),
            Table::Persistent(t) => t.cur.collect_since(since),
        }
    }

    /// Committed rows *plus* staged-but-uncommitted operations applied
    /// in order. Checkpoints must use this view: a staged row's WAL
    /// record is already appended and reflected in
    /// [`Table::wal_watermark`], so a snapshot cut strictly at the
    /// visible watermark would claim WAL coverage for rows it does not
    /// contain.
    pub fn checkpoint_rows(&self) -> Vec<Tuple> {
        match self {
            Table::Ephemeral(t) => t.cur.collect_since(None),
            Table::Persistent(t) => t.checkpoint_rows(),
        }
    }

    /// Capture the table for a base checkpoint image: every row
    /// [`Table::checkpoint_rows`] returns (none for a stream, whose rows
    /// are never persisted). Change recording starts here, so the next
    /// [`Table::capture_delta`] describes exactly what changes after
    /// this capture. Call with the table lock held, like every writer.
    pub(crate) fn capture_base(&mut self) -> Vec<Tuple> {
        match self {
            Table::Ephemeral(_) => Vec::new(),
            Table::Persistent(t) => {
                t.dirty = Some(HashSet::new());
                t.checkpoint_rows()
            }
        }
    }

    /// Capture what changed since the previous capture, for a delta
    /// checkpoint image: the latest row of every key staged or applied
    /// since then, in log order (staged rows included, as in
    /// [`Table::checkpoint_rows`]), and the keys whose latest operation
    /// removed them, sorted. A stream has neither: the image's table
    /// list describes it whole. `None` when no capture or install has
    /// described a relation since it was built, so only a base can.
    /// When it returns `Some`, change recording restarts here.
    pub(crate) fn capture_delta(&mut self) -> Option<(Vec<Tuple>, Vec<Arc<str>>)> {
        match self {
            Table::Ephemeral(_) => Some((Vec::new(), Vec::new())),
            Table::Persistent(t) => t.capture_delta(),
        }
    }

    /// Declare the table equal to the checkpoint image it was just
    /// installed from: change recording starts here, with nothing
    /// changed.
    pub(crate) fn mark_checkpointed(&mut self) {
        if let Table::Persistent(t) = self {
            t.dirty = Some(HashSet::new());
        }
    }

    /// How many keys the change set holds; `None` while none is
    /// recorded (and always for a stream).
    #[cfg(test)]
    pub(crate) fn change_set_len(&self) -> Option<usize> {
        match self {
            Table::Ephemeral(_) => None,
            Table::Persistent(t) => t.dirty.as_ref().map(HashSet::len),
        }
    }

    /// Look up a committed row by primary key (persistent tables only).
    pub fn lookup(&self, key: &str) -> Option<Tuple> {
        match self {
            Table::Ephemeral(_) => None,
            Table::Persistent(t) => t
                .shared
                .keys
                .read()
                .get(key)
                .map(|(_, tuple)| tuple.clone()),
        }
    }

    /// Remove a row by primary key and commit immediately (persistent
    /// tables only).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongTableKind`] for ephemeral tables.
    pub fn remove(&mut self, key: &str) -> Result<Option<Tuple>> {
        let removed = self.stage_remove(key)?;
        self.commit_visible(self.staged_tail());
        Ok(removed)
    }

    /// Stage a removal without making it visible. Returns the row the
    /// removal will delete, or `None` (in which case nothing was
    /// staged).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongTableKind`] for ephemeral tables.
    pub fn stage_remove(&mut self, key: &str) -> Result<Option<Tuple>> {
        match self {
            Table::Ephemeral(t) => Err(Error::WrongTableKind {
                name: t.schema.name().to_owned(),
                message: "cannot remove keyed rows from an ephemeral stream".into(),
            }),
            Table::Persistent(t) => Ok(t.stage_remove(key)),
        }
    }

    /// Window capacity of an ephemeral stream; 0 for relations (used
    /// when encoding checkpoint snapshots).
    pub fn stream_capacity(&self) -> usize {
        match self {
            Table::Ephemeral(t) => t.capacity,
            Table::Persistent(_) => 0,
        }
    }

    /// LSN of the newest write-ahead-log record covering this table. A
    /// checkpoint snapshot stores this watermark so recovery (and a
    /// replication bootstrap) replays exactly the records the snapshot
    /// does not already reflect. Ephemeral streams carry only their
    /// `create` record's LSN — their rows are never logged — which
    /// keeps the snapshot's high watermark an honest statement of how
    /// much history it covers.
    pub fn wal_watermark(&self) -> u64 {
        match self {
            Table::Ephemeral(t) => t.wal_watermark,
            Table::Persistent(t) => t.wal_watermark,
        }
    }

    /// Record that the table's newest logged record has sequence number
    /// `lsn`. Called with the table lock held, in the same critical
    /// section that staged the operation, so the watermark and the log
    /// can never disagree.
    pub fn note_wal(&mut self, lsn: u64) {
        match self {
            Table::Ephemeral(t) => t.wal_watermark = t.wal_watermark.max(lsn),
            Table::Persistent(t) => t.wal_watermark = t.wal_watermark.max(lsn),
        }
    }

    /// Primary keys of a persistent table, in key order; empty for streams.
    pub fn keys(&self) -> Vec<String> {
        match self {
            Table::Ephemeral(_) => Vec::new(),
            Table::Persistent(t) => {
                let mut keys: Vec<String> =
                    t.shared.keys.read().keys().map(|k| k.to_string()).collect();
                keys.sort();
                keys
            }
        }
    }

    /// Re-point this table at another handle's reader-shared state,
    /// republishing its snapshot and key map there. Used by the
    /// replication snapshot reset, which builds a fresh table off-line
    /// and must make it visible through the handle readers already
    /// hold.
    pub(crate) fn rebind(&mut self, shared: Arc<SharedTableState>) {
        let (cur, mine) = match self {
            Table::Ephemeral(t) => (Arc::clone(&t.cur), Arc::clone(&t.shared)),
            Table::Persistent(t) => (Arc::clone(&t.cur), Arc::clone(&t.shared)),
        };
        let keys = std::mem::take(&mut *mine.keys.write());
        *shared.keys.write() = keys;
        shared.store(cur);
        match self {
            Table::Ephemeral(t) => t.shared = shared,
            Table::Persistent(t) => t.shared = shared,
        }
    }
}

/// An append-only stream over a bounded snapshot window.
#[derive(Debug)]
pub struct EphemeralTable {
    schema: Arc<Schema>,
    /// Retention window, in rows.
    capacity: usize,
    /// Reader-shared published state.
    shared: Arc<SharedTableState>,
    /// The generation the writer is appending to (always the one in
    /// `shared`'s slot; kept here to skip the slot lock on every row).
    cur: Arc<TableSnapshot>,
    /// Next absolute log index to stage.
    tail: u64,
    /// Largest insertion timestamp stored so far; inserts are clamped to
    /// it so the log stays sorted by timestamp even if the clock
    /// regresses, which is what lets `since τ` binary-search the suffix.
    last_tstamp: Timestamp,
    /// See [`Table::wal_watermark`]: the stream's `create` record LSN.
    wal_watermark: u64,
}

impl EphemeralTable {
    fn new(schema: Arc<Schema>, capacity: usize) -> Self {
        let cur = Arc::new(TableSnapshot::empty(
            Arc::clone(&schema),
            TableKind::Ephemeral,
        ));
        let shared = Arc::new(SharedTableState::new_published(Arc::clone(&cur)));
        EphemeralTable {
            schema,
            capacity: capacity.max(1),
            shared,
            cur,
            tail: 0,
            last_tstamp: 0,
            wal_watermark: 0,
        }
    }

    /// Seal the current generation and publish a successor when the
    /// staging tail has reached its slot capacity.
    fn ensure_capacity(&mut self) {
        if self.tail == self.cur.capacity_end() {
            self.cur = Arc::new(self.cur.sealed_extend());
            self.shared.store(Arc::clone(&self.cur));
        }
    }

    fn stage_insert(&mut self, values: Vec<Scalar>, tstamp: Timestamp) -> Result<InsertOutcome> {
        let tstamp = tstamp.max(self.last_tstamp);
        let tuple = Tuple::new(Arc::clone(&self.schema), values, tstamp)?;
        self.last_tstamp = tstamp;
        self.ensure_capacity();
        self.cur.stage(
            self.tail,
            RowEntry {
                tstamp,
                tuple: tuple.clone(),
                key: None,
                replaced_by: AtomicU64::new(LIVE),
                tombstone: false,
            },
        );
        self.tail += 1;
        Ok(InsertOutcome {
            stored: tuple,
            replaced: false,
        })
    }

    fn commit_visible(&mut self, upto: u64) {
        self.cur.commit_visible(upto);
        let end = self.cur.end();
        if end.saturating_sub(self.cur.first()) > self.capacity as u64 {
            self.cur.evict_to(end - self.capacity as u64);
        }
    }

    /// Total number of tuples ever committed (including evicted ones).
    pub fn total_inserted(&self) -> u64 {
        self.cur.end()
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A key-map delta staged alongside a log row, applied at commit time.
#[derive(Debug)]
enum PendingOp {
    /// An insert/upsert: bind `key` to the row at `idx`, superseding
    /// the live row at `replaces` if the key was already bound.
    Put {
        idx: u64,
        key: Arc<str>,
        tuple: Tuple,
        replaces: Option<u64>,
    },
    /// A removal: the tombstone at `idx` supersedes the live row at
    /// `replaces` and unbinds `key`.
    Del {
        idx: u64,
        key: Arc<str>,
        replaces: u64,
    },
}

impl PendingOp {
    fn idx(&self) -> u64 {
        match self {
            PendingOp::Put { idx, .. } | PendingOp::Del { idx, .. } => *idx,
        }
    }
}

/// A keyed relation held in the heap.
///
/// Alongside the key → row map (shared with readers through
/// `SharedTableState`), the table keeps the insertion-ordered
/// snapshot **log**. The log is what `scan` and the indexed `since τ`
/// path read: it is already in temporal order (no per-query sort) and
/// its timestamps are monotone, so a window query binary-searches its
/// suffix. Updated or removed rows leave *stale* entries behind
/// (their `replaced_by` marker points at the superseding entry);
/// readers skip them, and the log is compacted into a fresh generation
/// once stale entries outnumber live ones, keeping the amortized cost
/// of maintenance O(1) per write.
#[derive(Debug)]
pub struct PersistentTable {
    schema: Arc<Schema>,
    /// Reader-shared published state (snapshot slot + key map).
    shared: Arc<SharedTableState>,
    /// See [`EphemeralTable::cur`].
    cur: Arc<TableSnapshot>,
    /// Next absolute log index to stage.
    tail: u64,
    /// Staged-but-uncommitted key-map deltas, in staging (= index)
    /// order. Their indices are consecutive: every slot staged since
    /// the last commit has one.
    pending: Vec<PendingOp>,
    /// Every key with a staged operation, mapped to the log index of
    /// its newest one: a staging-time lookup is one probe here however
    /// long `pending` is.
    staged: HashMap<Arc<str>, u64>,
    /// Stale (superseded or tombstone) entries in the visible log.
    stale: usize,
    /// See [`EphemeralTable::last_tstamp`].
    last_tstamp: Timestamp,
    /// See [`Table::wal_watermark`].
    wal_watermark: u64,
    /// Keys staged or applied since the last checkpoint capture, or
    /// `None` while no checkpoint image describes the table (see
    /// [`Table::capture_delta`]). Recording costs nothing until a
    /// checkpoint first captures the table, so caches without
    /// durability never record.
    dirty: Option<HashSet<Arc<str>>>,
}

impl PersistentTable {
    fn new(schema: Arc<Schema>) -> Self {
        let cur = Arc::new(TableSnapshot::empty(
            Arc::clone(&schema),
            TableKind::Persistent,
        ));
        let shared = Arc::new(SharedTableState::new_published(Arc::clone(&cur)));
        PersistentTable {
            schema,
            shared,
            cur,
            tail: 0,
            pending: Vec::new(),
            staged: HashMap::new(),
            stale: 0,
            last_tstamp: 0,
            wal_watermark: 0,
            dirty: None,
        }
    }

    /// The newest staged operation on `key`: `Some(Some(row))` for a
    /// put, `Some(None)` for a removal, `None` when nothing is staged
    /// for the key.
    fn staged_op(&self, key: &str) -> Option<Option<(u64, &Tuple)>> {
        let &idx = self.staged.get(key)?;
        let op = &self.pending[(idx - self.pending[0].idx()) as usize];
        debug_assert_eq!(op.idx(), idx, "pending indices are consecutive");
        Some(match op {
            PendingOp::Put { tuple, .. } => Some((idx, tuple)),
            PendingOp::Del { .. } => None,
        })
    }

    /// The live row for `key` as *this writer* will observe it once
    /// everything staged so far commits: the newest staged operation
    /// for the key wins, falling back to the committed map.
    fn effective_get(&self, key: &str) -> Option<(u64, Tuple)> {
        match self.staged_op(key) {
            Some(op) => op.map(|(idx, tuple)| (idx, tuple.clone())),
            None => self.shared.keys.read().get(key).cloned(),
        }
    }

    fn ensure_capacity(&mut self) {
        if self.tail == self.cur.capacity_end() {
            self.cur = Arc::new(self.cur.sealed_extend());
            self.shared.store(Arc::clone(&self.cur));
        }
    }

    fn stage_insert(
        &mut self,
        values: Vec<Scalar>,
        tstamp: Timestamp,
        on_duplicate_update: bool,
    ) -> Result<InsertOutcome> {
        let tstamp = tstamp.max(self.last_tstamp);
        let tuple = Tuple::new(Arc::clone(&self.schema), values, tstamp)?;
        let key = primary_key(&tuple);
        let existing = self.effective_get(&key);
        let replaced = existing.is_some();
        if replaced && !on_duplicate_update {
            return Err(Error::WrongTableKind {
                name: self.schema.name().to_owned(),
                message: format!("duplicate primary key `{key}` (use `on duplicate key update`)"),
            });
        }
        self.last_tstamp = tstamp;
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(Arc::clone(&key));
        }
        self.ensure_capacity();
        self.cur.stage(
            self.tail,
            RowEntry {
                tstamp,
                tuple: tuple.clone(),
                key: Some(Arc::clone(&key)),
                replaced_by: AtomicU64::new(LIVE),
                tombstone: false,
            },
        );
        self.staged.insert(Arc::clone(&key), self.tail);
        self.pending.push(PendingOp::Put {
            idx: self.tail,
            key,
            tuple: tuple.clone(),
            replaces: existing.map(|(idx, _)| idx),
        });
        self.tail += 1;
        Ok(InsertOutcome {
            stored: tuple,
            replaced,
        })
    }

    fn stage_remove(&mut self, key: &str) -> Option<Tuple> {
        let (replaces, removed) = self.effective_get(key)?;
        let key: Arc<str> = Arc::from(key);
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(Arc::clone(&key));
        }
        self.ensure_capacity();
        // The tombstone inherits the clamp watermark, not the removed
        // row's (possibly old) timestamp, so the log stays
        // timestamp-sorted for the `since τ` binary search.
        self.cur.stage(
            self.tail,
            RowEntry {
                tstamp: self.last_tstamp,
                tuple: removed.clone(),
                key: None,
                replaced_by: AtomicU64::new(LIVE),
                tombstone: true,
            },
        );
        self.staged.insert(Arc::clone(&key), self.tail);
        self.pending.push(PendingOp::Del {
            idx: self.tail,
            key,
            replaces,
        });
        self.tail += 1;
        Some(removed)
    }

    fn commit_visible(&mut self, upto: u64) {
        // Apply the key-map deltas for the committed prefix *before*
        // the watermark store: a reader that observes the new horizon
        // must also observe the supersession markers below it (the
        // `Release`/`Acquire` pair on `visible` orders both).
        let take = self.pending.iter().take_while(|op| op.idx() < upto).count();
        if take > 0 {
            let whole = take == self.pending.len();
            let mut keys = self.shared.keys.write();
            for op in self.pending.drain(..take) {
                let (PendingOp::Put { idx, key, .. } | PendingOp::Del { idx, key, .. }) = &op;
                // A key staged again past the commit point keeps the
                // index entry of its newer operation.
                if !whole && self.staged.get(&**key) == Some(idx) {
                    self.staged.remove(&**key);
                }
                match op {
                    PendingOp::Put {
                        idx,
                        key,
                        tuple,
                        replaces,
                    } => {
                        if let Some(r) = replaces {
                            self.cur.row(r).replaced_by.store(idx, Ordering::Release);
                            self.stale += 1;
                        }
                        keys.insert(key, (idx, tuple));
                    }
                    PendingOp::Del { idx, key, replaces } => {
                        self.cur
                            .row(replaces)
                            .replaced_by
                            .store(idx, Ordering::Release);
                        keys.remove(&key);
                        // Both the superseded row and the tombstone
                        // itself are dead weight in the log now.
                        self.stale += 2;
                    }
                }
            }
            if whole {
                self.staged.clear();
                if self.pending.capacity() > STAGING_RETAIN {
                    self.pending = Vec::new();
                    self.staged = HashMap::new();
                }
            }
            // A change set holding more keys than the table can hold
            // rows (every staged operation may add one) is no cheaper
            // to write than the table itself: stop recording, and the
            // next checkpoint writes a base.
            if self
                .dirty
                .as_ref()
                .is_some_and(|dirty| dirty.len() > keys.len() + self.pending.len())
            {
                self.dirty = None;
            }
        }
        self.cur.commit_visible(upto);
        self.maybe_compact();
    }

    /// Committed rows plus pending operations applied in order; see
    /// [`Table::checkpoint_rows`].
    fn checkpoint_rows(&self) -> Vec<Tuple> {
        let superseded: std::collections::HashSet<u64> = self
            .pending
            .iter()
            .filter_map(|op| match op {
                PendingOp::Put { replaces, .. } => *replaces,
                PendingOp::Del { replaces, .. } => Some(*replaces),
            })
            .collect();
        let end = self.cur.end();
        let mut rows = Vec::new();
        for idx in self.cur.first()..end {
            let row = self.cur.row(idx);
            if row.tombstone
                || row.replaced_by.load(Ordering::Acquire) < LIVE
                || superseded.contains(&idx)
            {
                continue;
            }
            rows.push(row.tuple.clone());
        }
        for op in &self.pending {
            if let PendingOp::Put { idx, tuple, .. } = op {
                if !superseded.contains(idx) {
                    rows.push(tuple.clone());
                }
            }
        }
        rows
    }

    /// See [`Table::capture_delta`].
    fn capture_delta(&mut self) -> Option<(Vec<Tuple>, Vec<Arc<str>>)> {
        let dirty = std::mem::take(self.dirty.as_mut()?);
        let keys = self.shared.keys.read();
        let mut rows = Vec::with_capacity(dirty.len());
        let mut removed = Vec::new();
        for key in dirty {
            // The newest staged operation per key outranks the committed
            // map, exactly as in `effective_get`.
            let live = match self.staged_op(&key) {
                Some(op) => op.map(|(idx, tuple)| (idx, tuple.clone())),
                None => keys.get(&key).cloned(),
            };
            match live {
                Some(row) => rows.push(row),
                None => removed.push(key),
            }
        }
        // Every changed key's latest row was staged after the previous
        // capture, hence after every unchanged row: log order among
        // them is the order the full image holds them in.
        rows.sort_unstable_by_key(|(idx, _)| *idx);
        removed.sort_unstable();
        Some((rows.into_iter().map(|(_, tuple)| tuple).collect(), removed))
    }

    /// Rebuild the log into a fresh generation once stale entries
    /// outnumber live ones. Deferred while operations are staged:
    /// pending deltas hold absolute indices into the current
    /// generation, and readers of the superseded generation keep their
    /// frozen view alive through its `Arc` anyway.
    fn maybe_compact(&mut self) {
        let log_len = self.cur.window_len();
        if !self.pending.is_empty() || log_len <= COMPACT_MIN_LOG || self.stale * 2 <= log_len {
            return;
        }
        // Never reuse log indices: the new generation starts where
        // staging left off, so any index ever handed out stays
        // unambiguous across generations.
        let new_base = self.tail;
        // The old indices of the live rows, ascending: a row's rank
        // among them is its offset in the compacted generation, which
        // keeps them in log order.
        let mut live = Vec::with_capacity(log_len - self.stale.min(log_len));
        let cur = &self.cur;
        let rows = (cur.first()..cur.end()).filter_map(|idx| {
            let row = cur.row(idx);
            if row.tombstone || row.replaced_by.load(Ordering::Acquire) != LIVE {
                return None;
            }
            live.push(idx);
            Some(RowEntry {
                tstamp: row.tstamp,
                tuple: row.tuple.clone(),
                key: row.key.clone(),
                replaced_by: AtomicU64::new(LIVE),
                tombstone: false,
            })
        });
        let compacted = Arc::new(TableSnapshot::rebuilt(
            Arc::clone(&self.schema),
            TableKind::Persistent,
            new_base,
            rows,
        ));
        self.tail = compacted.end();
        {
            // Each committed key's row is live, so re-pointing it is a
            // search among the live old indices: no key is re-hashed.
            let mut keys = self.shared.keys.write();
            debug_assert_eq!(keys.len(), live.len(), "one key per live row");
            for (idx, _) in keys.values_mut() {
                let rank = live
                    .binary_search(idx)
                    .expect("a committed key's row is live in the log");
                *idx = new_base + rank as u64;
            }
        }
        self.cur = Arc::clone(&compacted);
        self.shared.store(compacted);
        self.stale = 0;
    }
}

/// A table's store entry: the mutex-guarded writer half plus the
/// lock-free reader surface.
///
/// Readers call [`TableHandle::snapshot`] (one shared-pointer clone)
/// and evaluate entirely outside the mutex; writers call
/// [`TableHandle::lock`] exactly as they did when the store held a bare
/// `Mutex<Table>`.
#[derive(Debug)]
pub struct TableHandle {
    table: Mutex<Table>,
    shared: Arc<SharedTableState>,
}

impl TableHandle {
    fn new(table: Table) -> TableHandle {
        let shared = Arc::clone(table.shared());
        TableHandle {
            table: Mutex::new(table),
            shared,
        }
    }

    /// Lock the writer half.
    pub fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock()
    }

    /// The current published snapshot: the read path's one stop.
    pub fn snapshot(&self) -> Arc<TableSnapshot> {
        self.shared.load()
    }

    /// The table's schema, without taking the mutex.
    pub fn schema(&self) -> Arc<Schema> {
        Arc::clone(self.shared.load().schema())
    }

    /// The table kind, without taking the mutex.
    pub fn kind(&self) -> TableKind {
        self.shared.load().kind()
    }

    /// Number of committed rows, without taking the mutex.
    pub fn len(&self) -> usize {
        let snap = self.shared.load();
        match snap.kind() {
            TableKind::Ephemeral => snap.window_len(),
            TableKind::Persistent => self.shared.keys.read().len(),
        }
    }

    /// Whether the table has no committed rows, without taking the
    /// mutex.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a committed row by primary key, without taking the
    /// mutex (persistent tables only).
    pub fn lookup(&self, key: &str) -> Option<Tuple> {
        self.shared
            .keys
            .read()
            .get(key)
            .map(|(_, tuple)| tuple.clone())
    }

    /// Primary keys in key order, without taking the mutex; empty for
    /// streams.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shared
            .keys
            .read()
            .keys()
            .map(|k| k.to_string())
            .collect();
        keys.sort();
        keys
    }

    /// Swap in a freshly built table (replication snapshot reset),
    /// republishing its state through this handle so readers holding
    /// the handle — or a pre-swap snapshot — stay consistent.
    pub(crate) fn replace(&self, mut fresh: Table) {
        let mut guard = self.table.lock();
        fresh.rebind(Arc::clone(&self.shared));
        *guard = fresh;
    }
}

/// The map from table name to table.
///
/// One [`RwLock`] guards the map itself, and it is written only by DDL
/// (create, drop, the replication snapshot reset): every other path
/// takes the read lock just long enough to clone the table's `Arc` out.
/// The per-table [`Mutex`] inside the [`TableHandle`] serialises inserts
/// to *that* table only, preserving the paper's strict
/// time-of-insertion order per topic while letting inserts into
/// different tables proceed on different cores. Selects don't appear in
/// that sentence at all: they read the handle's published snapshot and
/// never take the mutex.
///
/// Lock order: the map lock is never held while a table mutex is taken —
/// lookups clone the `Arc` out and release it first — so the store
/// cannot deadlock against the publish path.
#[derive(Debug, Default)]
pub(crate) struct TableStore {
    tables: RwLock<HashMap<String, Arc<TableHandle>>>,
}

impl TableStore {
    /// Insert a fresh table under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableExists`] when the name is taken.
    pub fn create(&self, name: &str, table: Table) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(Error::TableExists {
                name: name.to_owned(),
            });
        }
        tables.insert(name.to_owned(), Arc::new(TableHandle::new(table)));
        Ok(())
    }

    /// The table registered under `name`, detached from the map lock
    /// (callers lock the returned table themselves, or read its
    /// published snapshot without any lock).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] for unknown names.
    pub fn get(&self, name: &str) -> Result<Arc<TableHandle>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable {
                name: name.to_owned(),
            })
    }

    /// Whether a table named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Drop the table registered under `name`, if any. Used by table
    /// drops and the replication snapshot reset, which must leave
    /// *exactly* the snapshot's tables behind; queries holding an `Arc`
    /// to the handle finish against the detached instance.
    pub fn remove(&self, name: &str) -> bool {
        self.tables.write().remove(name).is_some()
    }

    /// Total number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// Every table name, in no particular order (callers sort if they
    /// need a stable one).
    pub fn names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Every `(name, table)` pair, detached from the map lock, in name
    /// order. Used by checkpoints, which then lock each table
    /// individually — never the map lock and a table lock at once.
    pub fn tables(&self) -> Vec<(String, Arc<TableHandle>)> {
        let mut all: Vec<(String, Arc<TableHandle>)> = self
            .tables
            .read()
            .iter()
            .map(|(name, table)| (name.clone(), Arc::clone(table)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

/// The primary key of a row given by its values alone — the rule
/// [`primary_key`] applies — borrowed when the first attribute is a
/// string.
pub(crate) fn key_text(values: &[Scalar]) -> std::borrow::Cow<'_, str> {
    match values.first() {
        Some(Scalar::Str(s)) => std::borrow::Cow::Borrowed(s),
        Some(other) => std::borrow::Cow::Owned(other.to_string()),
        None => std::borrow::Cow::Borrowed(""),
    }
}

/// The primary key of a persistent-table tuple: the display form of its
/// first attribute.
///
/// String-keyed tables are the common case (IP addresses, symbols,
/// hostnames); for those the scalar's shared text is `Arc`-cloned
/// instead of being re-formatted into a fresh `String` on every insert
/// and lookup. Only non-string keys pay for formatting.
pub fn primary_key(tuple: &Tuple) -> Arc<str> {
    match tuple.values().first() {
        Some(Scalar::Str(s)) => Arc::clone(s),
        _ => Arc::from(key_text(tuple.values())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapl::event::AttrType;

    fn flows_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "Flows",
                vec![("srcip", AttrType::Str), ("nbytes", AttrType::Int)],
            )
            .unwrap(),
        )
    }

    fn usage_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "BWUsage",
                vec![("ipaddr", AttrType::Str), ("bytes", AttrType::Int)],
            )
            .unwrap(),
        )
    }

    #[test]
    fn ephemeral_table_appends_in_order_and_caps_at_capacity() {
        let mut t = Table::ephemeral(flows_schema(), 3);
        for i in 0..5i64 {
            t.insert(
                vec![Scalar::Str(format!("10.0.0.{i}").into()), Scalar::Int(i)],
                i as u64,
                false,
            )
            .unwrap();
        }
        assert_eq!(t.kind(), TableKind::Ephemeral);
        assert_eq!(t.len(), 3);
        let scanned = t.scan();
        let bytes: Vec<i64> = scanned
            .iter()
            .map(|tup| tup.values()[1].as_int().unwrap())
            .collect();
        assert_eq!(bytes, vec![2, 3, 4]);
        assert!(t.lookup("10.0.0.4").is_none());
        assert!(t.remove("10.0.0.4").is_err());
        assert!(t.keys().is_empty());
    }

    #[test]
    fn persistent_table_is_keyed_by_first_attribute() {
        let mut t = Table::persistent(usage_schema());
        t.insert(
            vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(100)],
            1,
            false,
        )
        .unwrap();
        t.insert(
            vec![Scalar::Str("10.0.0.2".into()), Scalar::Int(200)],
            2,
            false,
        )
        .unwrap();
        assert_eq!(t.kind(), TableKind::Persistent);
        assert_eq!(t.len(), 2);
        let row = t.lookup("10.0.0.1").unwrap();
        assert_eq!(row.values()[1], Scalar::Int(100));
        assert_eq!(
            t.keys(),
            vec!["10.0.0.1".to_string(), "10.0.0.2".to_string()]
        );
    }

    #[test]
    fn duplicate_key_requires_on_duplicate_key_update() {
        let mut t = Table::persistent(usage_schema());
        t.insert(
            vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(100)],
            1,
            false,
        )
        .unwrap();
        let err = t
            .insert(
                vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(150)],
                2,
                false,
            )
            .unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"));

        let outcome = t
            .insert(
                vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(150)],
                3,
                true,
            )
            .unwrap();
        assert!(outcome.replaced);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("10.0.0.1").unwrap().values()[1], Scalar::Int(150));
    }

    #[test]
    fn updated_rows_move_to_the_end_of_temporal_order() {
        let mut t = Table::persistent(usage_schema());
        for (ip, bytes, ts) in [("a", 1, 1), ("b", 2, 2), ("c", 3, 3)] {
            t.insert(vec![Scalar::Str(ip.into()), Scalar::Int(bytes)], ts, false)
                .unwrap();
        }
        // Updating `a` makes it the most recently inserted.
        t.insert(vec![Scalar::Str("a".into()), Scalar::Int(9)], 4, true)
            .unwrap();
        let order: Vec<String> = t
            .scan()
            .iter()
            .map(|tup| tup.values()[0].to_string())
            .collect();
        assert_eq!(order, vec!["b", "c", "a"]);
    }

    #[test]
    fn removal_from_persistent_table() {
        let mut t = Table::persistent(usage_schema());
        t.insert(vec![Scalar::Str("a".into()), Scalar::Int(1)], 1, false)
            .unwrap();
        assert!(t.remove("a").unwrap().is_some());
        assert!(t.remove("a").unwrap().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn staged_operations_are_invisible_until_committed() {
        let mut t = Table::persistent(usage_schema());
        t.stage_insert(vec![Scalar::Str("a".into()), Scalar::Int(1)], 1, false)
            .unwrap();
        // Readers (and the committed view) see nothing yet …
        assert!(t.is_empty());
        assert!(t.lookup("a").is_none());
        assert!(t.scan().is_empty());
        // … but the writer's own effective view does: a duplicate of a
        // staged key is rejected just like a committed one.
        assert!(t
            .stage_insert(vec![Scalar::Str("a".into()), Scalar::Int(2)], 2, false)
            .is_err());
        // Checkpoints must include the staged row (its WAL record is
        // already covered by the watermark).
        assert_eq!(t.checkpoint_rows().len(), 1);
        t.commit_visible(t.staged_tail());
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("a").unwrap().values()[1], Scalar::Int(1));
    }

    #[test]
    fn staged_remove_then_commit_prefix_by_later_writer() {
        let mut t = Table::persistent(usage_schema());
        t.insert(vec![Scalar::Str("a".into()), Scalar::Int(1)], 1, false)
            .unwrap();
        // Writer A stages an upsert; writer B stages a removal of
        // another key; B's commit (covering the whole staged prefix)
        // lands first — both operations become visible together.
        t.insert(vec![Scalar::Str("b".into()), Scalar::Int(2)], 2, false)
            .unwrap();
        t.stage_insert(vec![Scalar::Str("a".into()), Scalar::Int(9)], 3, true)
            .unwrap();
        assert!(t.stage_remove("b").unwrap().is_some());
        t.commit_visible(t.staged_tail());
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("a").unwrap().values()[1], Scalar::Int(9));
        assert!(t.lookup("b").is_none());
        let order: Vec<String> = t
            .scan()
            .iter()
            .map(|tup| tup.values()[0].to_string())
            .collect();
        assert_eq!(order, vec!["a"]);
    }

    #[test]
    fn compaction_preserves_scan_order_and_since_windows() {
        let mut t = Table::persistent(usage_schema());
        for i in 0..200i64 {
            // Every key is written twice: the first version goes stale.
            let key = format!("k{:03}", i % 100);
            t.insert(
                vec![Scalar::Str(key.into()), Scalar::Int(i)],
                i as u64,
                true,
            )
            .unwrap();
        }
        assert_eq!(t.len(), 100);
        let scanned = t.scan();
        assert_eq!(scanned.len(), 100);
        // Survivors are exactly the second versions, still in order.
        let vals: Vec<i64> = scanned
            .iter()
            .map(|tup| tup.values()[1].as_int().unwrap())
            .collect();
        assert_eq!(vals, (100..200).collect::<Vec<i64>>());
        // The indexed window agrees with a filter over the full scan.
        let windowed = t.snapshot_since(Some(150));
        assert_eq!(
            windowed.len(),
            scanned.iter().filter(|tup| tup.tstamp() > 150).count()
        );
        // Lookups survive the rebuild.
        assert_eq!(t.lookup("k007").unwrap().values()[1], Scalar::Int(107));
    }

    #[test]
    fn handle_reads_bypass_the_mutex_and_see_committed_state() {
        let store = TableStore::default();
        store
            .create("U", Table::persistent(usage_schema()))
            .unwrap();
        let handle = store.get("U").unwrap();
        {
            let mut guard = handle.lock();
            guard
                .stage_insert(vec![Scalar::Str("a".into()), Scalar::Int(1)], 1, false)
                .unwrap();
            // Still invisible through every reader surface.
            assert_eq!(handle.len(), 0);
            assert!(handle.lookup("a").is_none());
            assert_eq!(handle.snapshot().range(None).count(), 0);
            let tail = guard.staged_tail();
            guard.commit_visible(tail);
        }
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.lookup("a").unwrap().values()[1], Scalar::Int(1));
        assert_eq!(handle.kind(), TableKind::Persistent);
        assert_eq!(handle.schema().name(), "BWUsage");
        // A held snapshot tracks later commits to the same generation
        // (chunks and watermark are shared); each range() call cuts
        // one consistent horizon when it starts.
        let held = handle.snapshot();
        let mut iter = held.range(None);
        assert!(iter.next().is_some());
        handle
            .lock()
            .insert(vec![Scalar::Str("b".into()), Scalar::Int(2)], 2, false)
            .unwrap();
        // The in-flight iterator keeps its pre-insert horizon …
        assert!(iter.next().is_none());
        // … while a fresh cut over either Arc sees the new row.
        assert_eq!(held.range(None).count(), 2);
        assert_eq!(handle.snapshot().range(None).count(), 2);
    }

    #[test]
    fn replace_rebinds_reader_state() {
        let store = TableStore::default();
        store
            .create("U", Table::persistent(usage_schema()))
            .unwrap();
        let handle = store.get("U").unwrap();
        handle
            .lock()
            .insert(vec![Scalar::Str("old".into()), Scalar::Int(1)], 1, false)
            .unwrap();
        let mut fresh = Table::persistent(usage_schema());
        fresh
            .insert(vec![Scalar::Str("new".into()), Scalar::Int(2)], 2, false)
            .unwrap();
        handle.replace(fresh);
        assert_eq!(handle.keys(), vec!["new".to_string()]);
        assert_eq!(handle.snapshot().range(None).count(), 1);
        // And the swapped-in writer half keeps publishing through the
        // same handle.
        handle
            .lock()
            .insert(vec![Scalar::Str("newer".into()), Scalar::Int(3)], 3, false)
            .unwrap();
        assert_eq!(handle.len(), 2);
    }

    #[test]
    fn table_store_rejects_duplicates_and_unknown_names() {
        let store = TableStore::default();
        for i in 0..32 {
            store
                .create(&format!("T{i}"), Table::ephemeral(flows_schema(), 4))
                .unwrap();
        }
        assert_eq!(store.len(), 32);
        assert!(store.contains("T7"));
        assert!(!store.contains("T99"));
        assert!(matches!(
            store.create("T0", Table::ephemeral(flows_schema(), 4)),
            Err(Error::TableExists { .. })
        ));
        assert!(matches!(store.get("nope"), Err(Error::NoSuchTable { .. })));
        let mut names = store.names();
        names.sort();
        assert_eq!(names.len(), 32);
        assert_eq!(names[0], "T0");
        assert!(store.remove("T0"));
        assert!(!store.remove("T0"));
    }

    #[test]
    fn schema_violations_are_rejected() {
        let mut t = Table::ephemeral(flows_schema(), 8);
        assert!(t.insert(vec![Scalar::Int(1)], 0, false).is_err());
        assert!(t
            .insert(vec![Scalar::Int(1), Scalar::Int(2)], 0, false)
            .is_err());
    }
}

#[cfg(test)]
#[path = "staging_tests.rs"]
mod staging_tests;
