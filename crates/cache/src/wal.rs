//! Durability: one write-ahead log, group commit, checkpoints and crash
//! recovery.
//!
//! The paper's cache keeps *persistent* tables in the heap: a restart
//! loses every allowance table, every materialised view, every
//! `associate`d relation. This module makes persistent tables actually
//! persistent while leaving the hot path almost untouched:
//!
//! * **One log, one sequence.** Every durable record of every table goes
//!   to one append-only file (`wal-000.log`) of length-prefixed,
//!   CRC-32-checksummed records whose payloads use the same wire
//!   encoding as the RPC layer ([`crate::wire`], re-exported by
//!   `psrpc`). A record's log sequence number is minted *inside*
//!   `Wal::append`, under the log mutex that also orders the buffer,
//!   so **file order = LSN order by construction** — and the LSN doubles
//!   as the record's commit ticket: a record is durable once the log's
//!   monotone durable-LSN watermark has reached it.
//!
//! * **Group commit.** An insert appends its record to the log's
//!   in-memory buffer while it still holds the table lock (so the log
//!   order of one table equals its apply order), then waits for
//!   durability *after* releasing it. The first waiter becomes the
//!   **leader**: it takes the whole buffer, writes it and issues one
//!   `fsync` for every record buffered so far while later arrivals queue
//!   behind the condvar — under 16 concurrent inserters one disk flush
//!   commits ~16 inserts, which is where the ≥5x group-commit speedup in
//!   `BENCH_wal.json` comes from.
//!
//! * **Checkpoints.** Every [`checkpoint_every`](crate::CacheBuilder::checkpoint_every)
//!   records (or on [`Cache::checkpoint`](crate::Cache::checkpoint)) the
//!   cache rotates the log (`wal-000.log` → `wal-000.log.1`), writes a
//!   snapshot of every table to `snapshot.snap` (temp file + atomic
//!   rename), and deletes the rotated log. Each table records the LSN of
//!   its last logged record in the snapshot, which is what makes replay
//!   exact under concurrency: a log record is applied at recovery only
//!   if its LSN is newer than the snapshot's watermark for its table.
//!
//! * **Recovery.** [`Cache::recover`](crate::Cache::recover) (or
//!   [`CacheBuilder::open`](crate::CacheBuilder::open)) loads the
//!   snapshot, replays every complete log record in LSN order, and
//!   stops at the first torn or corrupt frame — a crash mid-write loses
//!   at most the records that were never acknowledged. Replay rebuilds
//!   table state byte-for-byte (same rows, same order, same timestamps)
//!   and **never publishes**: automata only ever observe live traffic.
//!   Ephemeral streams are not logged at all; after recovery they exist
//!   (their DDL is durable) but are empty.
//!
//! * **Directories from older builds.** Earlier builds striped the log
//!   over up to N files (`wal-NNN.log`). Recovery still reads *every*
//!   `wal-NNN.log[.1]` it finds, merges them by LSN, and checkpoints
//!   promptly; the checkpoint folds their records into the snapshot and
//!   unlinks the extras, so such a directory opens losslessly and is a
//!   single-log directory from then on. Racing stripes could also lose a
//!   lower LSN while persisting a higher one, which is why recovery
//!   reports a *contiguous* watermark beside the maximum (see
//!   `Wal::open`); in a single-log directory the two are equal.
//!
//! * **Failure contract (fail-stop).** A write or fsync error wedges
//!   the log permanently: the failing operation and every later durable
//!   write return [`Error::Wal`]. A row whose log append failed may
//!   already be visible in memory (it was applied, and published, under
//!   the table lock before the append) — the erroring insert tells the
//!   caller that memory has diverged from the log, and the recommended
//!   response is to restart the process and recover: recovery reflects
//!   acknowledged writes only. This is the standard WAL trade:
//!   un-publishing a delivered tuple is impossible, so a wedged log
//!   stops accepting work loudly rather than silently widening the
//!   divergence.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

use gapl::event::{AttrType, Scalar};

use crate::error::{Error, Result};
use crate::protect::{decode_outcome, encode_outcome, TokenOutcome};
use crate::table::TableKind;
use crate::wire::{WireReader, WireWriter};

/// Name of the snapshot file inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.snap";

/// When the log must be flushed relative to the insert that wrote to
/// it (see [`CacheBuilder::sync_policy`](crate::CacheBuilder::sync_policy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Every record is written and fsynced individually, inside the
    /// insert that produced it. One disk flush per insert — the durable
    /// baseline that group commit is measured against, and the right
    /// choice only when inserters are rare.
    Immediate,
    /// Group commit (the default): records are buffered, and one waiter
    /// flushes on behalf of everyone queued behind it. Inserts
    /// still return only after their record is on disk; concurrent
    /// inserters amortise the fsync.
    #[default]
    Group,
    /// Records are written to the OS promptly but never fsynced by the
    /// insert path; durability is best-effort until [`Cache::flush_wal`](crate::Cache::flush_wal)
    /// (which the RPC server calls before acknowledging inserts) or a
    /// checkpoint forces a flush. Survives a process crash, not a power
    /// failure.
    OsOnly,
}

/// Counters describing a cache's durability subsystem; see
/// [`Cache::wal_stats`](crate::Cache::wal_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the log since the cache was opened.
    pub records: u64,
    /// Disk flushes (`fsync`) issued by the commit path. With group
    /// commit under concurrent load this is far smaller than `records`;
    /// `records / syncs` is the achieved group size.
    pub syncs: u64,
    /// Checkpoints completed (snapshot written, logs truncated).
    pub checkpoints: u64,
    /// Records replayed from the log when the cache was opened.
    pub replayed: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, dependency-free.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    })
}

/// CRC-32 (IEEE) of `bytes` — the per-record checksum of the log format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Record format.
// ---------------------------------------------------------------------------

const OP_CREATE: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_TOKEN: u8 = 3;
/// An insert carrying its idempotency token *inside* the record: one
/// frame, one checksum, so the mutation and its token are durable — or
/// torn away — strictly together. A separate token frame could be
/// split from its insert by a crash between two fsync waves, breaking
/// the exactly-once contract; embedding closes that window for the
/// insert hot path. (`OP_TOKEN` remains for outcomes with no row
/// record of their own, i.e. `create table`.)
const OP_INSERT_TOKENED: u8 = 4;

/// Pseudo table name token records report from [`ReplayOp::table`]. The
/// leading control byte cannot appear in a real table name, so token
/// records never collide with a table's snapshot watermark; they are
/// filtered against the snapshot's dedicated token watermark instead.
pub(crate) const TOKEN_TABLE_NAME: &str = "\u{1}tokens";

/// One decoded log record, ready to re-apply at recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReplayOp {
    /// `create table` / `create persistenttable`.
    CreateTable {
        /// Log sequence number of the record.
        lsn: u64,
        /// Table name.
        name: String,
        /// Stream or relation.
        kind: TableKind,
        /// Circular-buffer capacity (streams only; 0 for relations).
        capacity: usize,
        /// Schema columns in order.
        columns: Vec<(String, AttrType)>,
    },
    /// An applied insert/upsert batch (a single insert is a 1-row batch).
    Insert {
        /// Log sequence number of the record.
        lsn: u64,
        /// Target table.
        table: String,
        /// Whether `on duplicate key update` semantics were used.
        upsert: bool,
        /// The insertion timestamp the cache assigned (already clamped).
        tstamp: u64,
        /// Rows in application order.
        rows: Vec<Vec<Scalar>>,
        /// The idempotency token the originating request was stamped
        /// with, when there was one: `(client_id, token_seq, batch)`.
        /// `batch` records whether the outcome re-materialises as a
        /// batch reply (the two reply shapes differ on the wire even
        /// for one row). Embedded in the insert's own record so token
        /// and mutation are durable atomically ([`OP_INSERT_TOKENED`]).
        token: Option<(u64, u64, bool)>,
    },
    /// A keyed removal from a persistent table.
    Remove {
        /// Log sequence number of the record.
        lsn: u64,
        /// Target table.
        table: String,
        /// Primary key of the removed row.
        key: String,
    },
    /// An idempotency-token outcome, logged in the same critical section
    /// as the mutation it covers so the two are durable — or lost —
    /// together. Re-applying is idempotent.
    Token {
        /// Log sequence number of the record.
        lsn: u64,
        /// The issuing client's identity.
        client_id: u64,
        /// The client's token counter for the mutation.
        seq: u64,
        /// The remembered outcome, re-materialised for retries.
        outcome: TokenOutcome,
    },
}

impl ReplayOp {
    pub(crate) fn lsn(&self) -> u64 {
        match self {
            ReplayOp::CreateTable { lsn, .. }
            | ReplayOp::Insert { lsn, .. }
            | ReplayOp::Remove { lsn, .. }
            | ReplayOp::Token { lsn, .. } => *lsn,
        }
    }

    pub(crate) fn table(&self) -> &str {
        match self {
            ReplayOp::CreateTable { name, .. } => name,
            ReplayOp::Insert { table, .. } | ReplayOp::Remove { table, .. } => table,
            ReplayOp::Token { .. } => TOKEN_TABLE_NAME,
        }
    }
}

fn kind_to_byte(kind: TableKind) -> u8 {
    match kind {
        TableKind::Ephemeral => 0,
        TableKind::Persistent => 1,
    }
}

fn kind_from_byte(b: u8) -> Result<TableKind> {
    match b {
        0 => Ok(TableKind::Ephemeral),
        1 => Ok(TableKind::Persistent),
        other => Err(Error::protocol(format!("unknown table kind byte {other}"))),
    }
}

fn attr_to_byte(ty: AttrType) -> u8 {
    match ty {
        AttrType::Int => 0,
        AttrType::Real => 1,
        AttrType::Tstamp => 2,
        AttrType::Bool => 3,
        AttrType::Str => 4,
    }
}

fn attr_from_byte(b: u8) -> Result<AttrType> {
    match b {
        0 => Ok(AttrType::Int),
        1 => Ok(AttrType::Real),
        2 => Ok(AttrType::Tstamp),
        3 => Ok(AttrType::Bool),
        4 => Ok(AttrType::Str),
        other => Err(Error::protocol(format!("unknown attr type byte {other}"))),
    }
}

/// Frame `payload` as one log record: `[u32 len][u32 crc32][payload]`.
///
/// The length prefix is a `u32`, so a payload is capped at 4 GiB — far
/// beyond any record (`MAX_BATCH_ROWS` bounds batches long before
/// that); snapshots check the limit explicitly in [`encode_snapshot`]
/// and fail the checkpoint rather than write an undecodable frame.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len())
        .expect("frame payloads are bounded below the u32 length prefix");
    let mut framed = Vec::with_capacity(payload.len() + 8);
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

pub(crate) fn encode_create(
    lsn: u64,
    name: &str,
    kind: TableKind,
    capacity: usize,
    columns: &[(String, AttrType)],
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    w.put_u8(OP_CREATE);
    w.put_str(name);
    w.put_u8(kind_to_byte(kind));
    w.put_u64(capacity as u64);
    w.put_u32(columns.len() as u32);
    for (col, ty) in columns {
        w.put_str(col);
        w.put_u8(attr_to_byte(*ty));
    }
    frame(&w.finish())
}

pub(crate) fn encode_insert(
    lsn: u64,
    table: &str,
    upsert: bool,
    tstamp: u64,
    rows: &[&[Scalar]],
    token: Option<(u64, u64, bool)>,
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    match token {
        None => w.put_u8(OP_INSERT),
        Some((client_id, seq, batch)) => {
            w.put_u8(OP_INSERT_TOKENED);
            w.put_u64(client_id);
            w.put_u64(seq);
            w.put_bool(batch);
        }
    }
    w.put_str(table);
    w.put_bool(upsert);
    w.put_u64(tstamp);
    w.put_u32(rows.len() as u32);
    for row in rows {
        w.put_scalars(row);
    }
    frame(&w.finish())
}

pub(crate) fn encode_remove(lsn: u64, table: &str, key: &str) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    w.put_u8(OP_REMOVE);
    w.put_str(table);
    w.put_str(key);
    frame(&w.finish())
}

pub(crate) fn encode_token(lsn: u64, client_id: u64, seq: u64, outcome: &TokenOutcome) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    w.put_u8(OP_TOKEN);
    w.put_u64(client_id);
    w.put_u64(seq);
    encode_outcome(&mut w, outcome);
    frame(&w.finish())
}

pub(crate) fn decode_record(payload: &[u8]) -> Result<ReplayOp> {
    let mut r = WireReader::new(payload);
    let lsn = r.get_u64()?;
    let op = r.get_u8()?;
    match op {
        OP_CREATE => {
            let name = r.get_str()?;
            let kind = kind_from_byte(r.get_u8()?)?;
            let capacity = r.get_u64()? as usize;
            let ncols = r.get_u32()? as usize;
            if ncols > 1_000_000 {
                return Err(Error::protocol("unreasonably wide schema in log record"));
            }
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let col = r.get_str()?;
                let ty = attr_from_byte(r.get_u8()?)?;
                columns.push((col, ty));
            }
            Ok(ReplayOp::CreateTable {
                lsn,
                name,
                kind,
                capacity,
                columns,
            })
        }
        OP_INSERT => Ok(ReplayOp::Insert {
            lsn,
            table: r.get_str()?,
            upsert: r.get_bool()?,
            tstamp: r.get_u64()?,
            rows: r.get_rows()?,
            token: None,
        }),
        OP_INSERT_TOKENED => {
            let token = Some((r.get_u64()?, r.get_u64()?, r.get_bool()?));
            Ok(ReplayOp::Insert {
                lsn,
                table: r.get_str()?,
                upsert: r.get_bool()?,
                tstamp: r.get_u64()?,
                rows: r.get_rows()?,
                token,
            })
        }
        OP_REMOVE => Ok(ReplayOp::Remove {
            lsn,
            table: r.get_str()?,
            key: r.get_str()?,
        }),
        OP_TOKEN => Ok(ReplayOp::Token {
            lsn,
            client_id: r.get_u64()?,
            seq: r.get_u64()?,
            outcome: decode_outcome(&mut r)?,
        }),
        other => Err(Error::protocol(format!("unknown log op byte {other}"))),
    }
}

/// Scan `bytes` as a sequence of log frames and return how many
/// **complete, checksummed** records it contains before the first torn or
/// corrupt frame. This is the exact prefix [`Cache::recover`](crate::Cache::recover) will
/// replay from that file; the crash-recovery tests use it to predict
/// recovered state from a truncated log.
pub fn count_complete_records(bytes: &[u8]) -> usize {
    scan_frames(bytes).0.len()
}

/// Split a log file into decoded payload slices, stopping at the first
/// frame whose length runs past the buffer, whose checksum fails, or
/// whose payload is empty. The empty-payload check matters after a power
/// failure: filesystems can extend a file with zeroes before the data
/// reaches disk, and a zero-filled header reads as `len = 0, crc = 0` —
/// which `crc32(&[]) == 0` would otherwise accept as a valid record. No
/// real record or snapshot has an empty payload, so `len == 0` always
/// means "torn tail", never data.
pub(crate) fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4-byte slice"));
        if len == 0 {
            break;
        }
        let Some(end) = (pos + 8).checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload);
        pos = end;
    }
    (payloads, pos)
}

/// Split a buffer of concatenated log frames into `(lsn, frame)` pairs
/// — each frame slice **includes** its `[len][crc]` header and is
/// checksum-validated; scanning stops at the first torn or corrupt
/// frame, exactly like [`count_complete_records`]. This is the walk
/// behind the replication bootstrap's backlog read; the durability
/// tests use it to check a log's LSN order and to rebuild older on-disk
/// layouts.
pub fn split_frames(bytes: &[u8]) -> Vec<(u64, &[u8])> {
    let mut pos = 0usize;
    scan_frames(bytes)
        .0
        .into_iter()
        .map_while(|payload| {
            // Every record payload starts with its u64 LSN; anything
            // shorter is not a record.
            let lsn = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
            let frame = &bytes[pos..pos + 8 + payload.len()];
            pos += frame.len();
            Some((lsn, frame))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------------

/// Path of the live log inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal-000.log")
}

/// Where the live log is parked while a checkpoint's snapshot is written.
fn rotated_path(dir: &Path) -> PathBuf {
    dir.join("wal-000.log.1")
}

/// Every `wal-*.log` / `wal-*.log.1` file in `dir`, in name order — the
/// live log, its rotated predecessor, and whatever stripes an older
/// build left behind.
fn log_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && (name.ends_with(".log") || name.ends_with(".log.1")) {
            files.push(dir.join(&*name));
        }
    }
    files.sort_unstable();
    Ok(files)
}

fn fsync_dir(dir: &Path) -> Result<()> {
    // Durability of a rename requires flushing the directory itself.
    File::open(dir)?.sync_all()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One table's worth of checkpoint state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotTable {
    pub name: String,
    pub kind: TableKind,
    /// Circular-buffer capacity (streams only; 0 for relations).
    pub capacity: usize,
    pub columns: Vec<(String, AttrType)>,
    /// LSN of the table's newest logged record at snapshot time; log
    /// records at or below this are already reflected in `rows`.
    pub watermark: u64,
    /// Live rows in scan (time-of-insertion) order, with their stored
    /// timestamps. Always empty for ephemeral streams.
    pub rows: Vec<(u64, Vec<Scalar>)>,
}

/// A full checkpoint image: every table plus the idempotency-token
/// table. The token watermark is written **before** the token entries so
/// [`scan_snapshot_high_watermark`]'s header-only walk can reach it
/// without stepping over the entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Snapshot {
    /// Tables in snapshot order.
    pub tables: Vec<SnapshotTable>,
    /// Idempotency-token outcomes as `(client_id, token_seq, outcome)`,
    /// in per-client FIFO (record) order.
    pub tokens: Vec<(u64, u64, TokenOutcome)>,
    /// Highest LSN at which a token was recorded when the snapshot was
    /// taken. Participates in the snapshot's high watermark so a token
    /// frame with the globally newest LSN never loses LSN ground when a
    /// checkpoint truncates the logs.
    pub token_watermark: u64,
}

fn encode_snapshot(snapshot: &Snapshot) -> Result<Vec<u8>> {
    let mut w = WireWriter::new();
    w.put_u8(2); // version: 2 = v1 table section + trailing token section
    w.put_u32(snapshot.tables.len() as u32);
    for t in &snapshot.tables {
        w.put_str(&t.name);
        w.put_u8(kind_to_byte(t.kind));
        w.put_u64(t.capacity as u64);
        w.put_u32(t.columns.len() as u32);
        for (col, ty) in &t.columns {
            w.put_str(col);
            w.put_u8(attr_to_byte(*ty));
        }
        w.put_u64(t.watermark);
        w.put_u32(t.rows.len() as u32);
        for (tstamp, values) in &t.rows {
            w.put_u64(*tstamp);
            w.put_scalars(values);
        }
    }
    w.put_u64(snapshot.token_watermark);
    w.put_u32(snapshot.tokens.len() as u32);
    for (client_id, seq, outcome) in &snapshot.tokens {
        w.put_u64(*client_id);
        w.put_u64(*seq);
        encode_outcome(&mut w, outcome);
    }
    let payload = w.finish();
    if u32::try_from(payload.len()).is_err() {
        // Refusing the checkpoint beats writing a frame whose u32 length
        // prefix lies about the payload: the rotated logs stay on disk
        // (rotate_end never runs) and recovery remains possible.
        return Err(Error::wal(format!(
            "snapshot payload of {} bytes exceeds the 4 GiB frame limit",
            payload.len()
        )));
    }
    Ok(frame(&payload))
}

/// Highest LSN covered by a snapshot: the max of its per-table
/// watermarks and the token watermark. A replication subscriber whose
/// `from_lsn` is below this cannot be served from the logs alone (the
/// checkpoint that wrote the snapshot truncated them) and bootstraps
/// from the snapshot instead.
pub(crate) fn snapshot_high_watermark(snapshot: &Snapshot) -> u64 {
    snapshot
        .tables
        .iter()
        .map(|t| t.watermark)
        .max()
        .unwrap_or(0)
        .max(snapshot.token_watermark)
}

/// The snapshot's high watermark, read with a header-only walk: row
/// payloads are stepped over (strings validated in place, nothing
/// materialised), so probing a multi-gigabyte snapshot on every
/// follower subscription costs a scan, not an allocation storm.
pub(crate) fn scan_snapshot_high_watermark(bytes: &[u8]) -> Result<u64> {
    let (payloads, _) = scan_frames(bytes);
    let payload = payloads
        .first()
        .ok_or_else(|| Error::wal("snapshot file is torn or corrupt"))?;
    let mut r = WireReader::new(payload);
    let version = r.get_u8()?;
    if version != 1 && version != 2 {
        return Err(Error::wal(format!("unknown snapshot version {version}")));
    }
    let ntables = r.get_u32()? as usize;
    if ntables > 1_000_000 {
        return Err(Error::wal("unreasonably many tables in snapshot"));
    }
    let mut high = 0u64;
    for _ in 0..ntables {
        r.get_str_slice()?; // name
        r.get_u8()?; // kind
        r.get_u64()?; // capacity
        let ncols = r.get_u32()? as usize;
        if ncols > 1_000_000 {
            return Err(Error::wal("unreasonably wide schema in snapshot"));
        }
        for _ in 0..ncols {
            r.get_str_slice()?;
            r.get_u8()?;
        }
        high = high.max(r.get_u64()?); // watermark
        let nrows = r.get_u32()? as usize;
        if nrows > 100_000_000 {
            return Err(Error::wal("unreasonably many rows in snapshot"));
        }
        for _ in 0..nrows {
            r.get_u64()?; // tstamp
            let nvals = r.get_u32()? as usize;
            if nvals > 1_000_000 {
                return Err(Error::protocol("unreasonably large scalar sequence"));
            }
            for _ in 0..nvals {
                match r.get_u8()? {
                    0 => {
                        r.get_i64()?;
                    }
                    1 => {
                        r.get_f64()?;
                    }
                    2 => {
                        r.get_u64()?;
                    }
                    3 => {
                        r.get_bool()?;
                    }
                    4 => {
                        r.get_str_slice()?;
                    }
                    other => {
                        return Err(Error::protocol(format!("unknown scalar tag {other}")));
                    }
                }
            }
        }
    }
    if version >= 2 {
        // The token watermark sits right after the table section,
        // before the token entries — no need to walk them.
        high = high.max(r.get_u64()?);
    }
    Ok(high)
}

pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let (payloads, _) = scan_frames(bytes);
    let payload = payloads
        .first()
        .ok_or_else(|| Error::wal("snapshot file is torn or corrupt"))?;
    let mut r = WireReader::new(payload);
    let version = r.get_u8()?;
    if version != 1 && version != 2 {
        return Err(Error::wal(format!("unknown snapshot version {version}")));
    }
    let ntables = r.get_u32()? as usize;
    if ntables > 1_000_000 {
        return Err(Error::wal("unreasonably many tables in snapshot"));
    }
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.get_str()?;
        let kind = kind_from_byte(r.get_u8()?)?;
        let capacity = r.get_u64()? as usize;
        let ncols = r.get_u32()? as usize;
        if ncols > 1_000_000 {
            return Err(Error::wal("unreasonably wide schema in snapshot"));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let col = r.get_str()?;
            let ty = attr_from_byte(r.get_u8()?)?;
            columns.push((col, ty));
        }
        let watermark = r.get_u64()?;
        let nrows = r.get_u32()? as usize;
        if nrows > 100_000_000 {
            return Err(Error::wal("unreasonably many rows in snapshot"));
        }
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let tstamp = r.get_u64()?;
            rows.push((tstamp, r.get_scalars()?));
        }
        tables.push(SnapshotTable {
            name,
            kind,
            capacity,
            columns,
            watermark,
            rows,
        });
    }
    let mut tokens = Vec::new();
    let mut token_watermark = 0u64;
    if version >= 2 {
        token_watermark = r.get_u64()?;
        let ntokens = r.get_u32()? as usize;
        if ntokens > 100_000_000 {
            return Err(Error::wal("unreasonably many tokens in snapshot"));
        }
        tokens.reserve(ntokens);
        for _ in 0..ntokens {
            let client_id = r.get_u64()?;
            let seq = r.get_u64()?;
            tokens.push((client_id, seq, decode_outcome(&mut r)?));
        }
    }
    Ok(Snapshot {
        tables,
        tokens,
        token_watermark,
    })
}

// ---------------------------------------------------------------------------
// The log itself.
// ---------------------------------------------------------------------------

/// What [`Wal::open`] found on disk, ready to re-apply.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The checkpoint snapshot — tables plus token table (may be empty).
    pub snapshot: Snapshot,
    /// Log records newer than the snapshot, in global LSN order, already
    /// filtered against the per-table watermarks.
    pub ops: Vec<ReplayOp>,
    /// A previous checkpoint was interrupted (rotated logs exist on
    /// disk); the opener should checkpoint immediately after replay to
    /// re-establish the invariant that rotated logs never outlive the
    /// snapshot that covers them.
    pub needs_checkpoint: bool,
}

#[derive(Debug)]
struct LogState {
    file: File,
    /// Frames appended but not yet written to the file.
    buf: Vec<u8>,
    /// The LSN the next locally minted record receives.
    next_lsn: u64,
    /// LSN of the newest appended frame (buffered or written).
    appended_lsn: u64,
    /// The durable watermark: every appended frame at or below this LSN
    /// is on disk under the current policy. Never ahead of
    /// `appended_lsn`; the two are equal exactly when the log is clean.
    durable_lsn: u64,
    /// A group-commit leader is writing outside the lock.
    syncing: bool,
    /// A write or fsync failed; the log is wedged and every commit
    /// reports the error.
    failed: Option<String>,
}

impl LogState {
    fn check(&self) -> Result<()> {
        match &self.failed {
            Some(why) => Err(Error::wal(why.clone())),
            None => Ok(()),
        }
    }
}

/// A consumer of sealed log bytes — the replication tailer. The sink is
/// handed `(hi, chunk)`: a run of framed records in the order they
/// reached the log file, and the LSN of the last one. Chunks arrive in
/// file order, which is LSN order, so consecutive chunks tile the
/// sequence: on a primary each covers exactly `(previous hi, hi]`.
pub(crate) type ReplSink = Arc<dyn Fn(u64, &[u8]) + Send + Sync>;

/// Everything durable on disk for a replication bootstrap: the raw
/// snapshot file (if any) plus every complete framed record as
/// `(lsn, frame bytes)`, deduplicated and sorted by LSN.
pub(crate) type Backlog = (Option<Vec<u8>>, Vec<(u64, Vec<u8>)>);

/// The write-ahead log: one buffered, group-committed file. See the
/// [module documentation](self).
pub(crate) struct Wal {
    dir: PathBuf,
    policy: SyncPolicy,
    state: Mutex<LogState>,
    /// Signalled whenever `durable_lsn` advances, the leader slot frees
    /// up, or the log wedges.
    durable: Condvar,
    /// Highest LSN found on disk when the log was opened (0 for a fresh
    /// directory); the replication hub starts its commit watermark here.
    recovered_lsn: u64,
    /// Highest LSN below which recovery found **no holes** (see
    /// [`Wal::open`]); a replica resumes its subscription from here.
    recovered_contiguous_lsn: u64,
    checkpoint_every: u64,
    records_since_checkpoint: AtomicU64,
    records: AtomicU64,
    syncs: AtomicU64,
    checkpoints: AtomicU64,
    replayed: AtomicU64,
    /// Where sealed frames are shipped (the replication hub), when the
    /// cache serves a replication stream.
    sink: RwLock<Option<ReplSink>>,
    /// The cache's observability registry, installed right after open
    /// (see [`Wal::set_obs`]); append / group-commit-wait / fsync
    /// durations are recorded into it.
    obs: OnceLock<Arc<crate::obs::Obs>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the durability directory, read the snapshot and
    /// every complete log record, and return the log ready for appends
    /// plus everything the cache must replay.
    pub fn open(dir: &Path, policy: SyncPolicy, checkpoint_every: u64) -> Result<(Wal, Recovery)> {
        fs::create_dir_all(dir)?;

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let snapshot = if snapshot_path.exists() {
            decode_snapshot(&fs::read(&snapshot_path)?)?
        } else {
            Snapshot::default()
        };
        let watermarks: std::collections::HashMap<&str, u64> = snapshot
            .tables
            .iter()
            .map(|t| (t.name.as_str(), t.watermark))
            .collect();
        let mut created: std::collections::HashSet<String> =
            snapshot.tables.iter().map(|t| t.name.clone()).collect();

        // Read every log file present, not just the live one: a rotated
        // log survives an interrupted checkpoint, and a directory
        // written by an older build holds one file per stripe. Records
        // are merged and replayed in LSN order, so the file layout never
        // affects replay semantics.
        let live = log_path(dir);
        let mut ops: Vec<ReplayOp> = Vec::new();
        let mut needs_checkpoint = false;
        let mut max_lsn = snapshot_high_watermark(&snapshot);
        for path in log_files(dir)? {
            if path != live {
                // Nothing will ever append to this file again, so
                // checkpoint promptly — once the snapshot covers its
                // records, rotate_end reclaims the file instead of
                // re-scanning it forever.
                needs_checkpoint = true;
            }
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let (payloads, valid_len) = scan_frames(&bytes);
            for payload in payloads {
                let op = decode_record(payload)?;
                max_lsn = max_lsn.max(op.lsn());
                ops.push(op);
            }
            if valid_len < bytes.len() {
                // Chop the torn tail off so appended records always
                // follow the last valid frame — recovery must never
                // find garbage *between* valid records. This matters
                // for the rotated file too: an interrupted checkpoint
                // may later append the live log onto this very file
                // (rotate_begin's no-clobber path), and those records
                // must not land behind a torn frame.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_len as u64)?;
            }
        }
        ops.sort_by_key(ReplayOp::lsn);
        // A crash between "append live log onto a surviving rotated file"
        // and "truncate live log" (see rotate_begin) leaves the same
        // records in both files; an LSN names exactly one record, so
        // duplicates are exactly that and the first copy wins.
        ops.dedup_by_key(|op| op.lsn());
        // The *contiguous* recovered watermark: the highest LSN such
        // that every record above the snapshot's high watermark and at
        // or below it survived on disk. One log cannot lose a record
        // below a surviving one — its torn tail is cut at the first bad
        // frame — so here this equals `max_lsn`. The striped logs of an
        // older build could: a crash between their per-file fsyncs
        // persists a higher-LSN record while losing a lower one.
        // `max_lsn` papers over that hole (correct for a primary, whose
        // lost record was simply never acknowledged), but a *replica*
        // resuming its subscription must resume from the contiguous
        // point, or the hole would never be re-fetched from the primary
        // that still has the record.
        let mut contiguous_lsn = snapshot_high_watermark(&snapshot);
        for op in &ops {
            let lsn = op.lsn();
            if lsn <= contiguous_lsn {
                continue;
            }
            if lsn == contiguous_lsn + 1 {
                contiguous_lsn += 1;
            } else {
                break;
            }
        }
        ops.retain(|op| match op {
            ReplayOp::CreateTable { name, .. } => created.insert(name.clone()),
            // Token records are filtered against the snapshot's token
            // watermark, not a per-table one. (Replaying one the snapshot
            // already carries would be harmless — recording is an
            // idempotent overwrite — this just avoids the wasted work.)
            ReplayOp::Token { lsn, .. } => *lsn > snapshot.token_watermark,
            other => other.lsn() > watermarks.get(other.table()).copied().unwrap_or(0),
        });

        let file = OpenOptions::new().create(true).append(true).open(&live)?;
        let replayed = ops.len() as u64;
        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            state: Mutex::new(LogState {
                file,
                buf: Vec::new(),
                next_lsn: max_lsn + 1,
                // Every record at or below the contiguous point is on
                // disk, and every future append lies above it: a primary
                // mints from `max_lsn + 1`, a replica resumes its
                // stream from exactly here.
                appended_lsn: contiguous_lsn,
                durable_lsn: contiguous_lsn,
                syncing: false,
                failed: None,
            }),
            durable: Condvar::new(),
            recovered_lsn: max_lsn,
            recovered_contiguous_lsn: contiguous_lsn,
            checkpoint_every,
            records_since_checkpoint: AtomicU64::new(0),
            records: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed: AtomicU64::new(replayed),
            sink: RwLock::new(None),
            obs: OnceLock::new(),
        };
        Ok((
            wal,
            Recovery {
                snapshot,
                ops,
                needs_checkpoint,
            },
        ))
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest LSN found on disk when the log was opened.
    pub fn recovered_lsn(&self) -> u64 {
        self.recovered_lsn
    }

    /// Highest LSN with no hole below it (above the snapshot): the safe
    /// point for a replica to resume its subscription from.
    pub fn recovered_contiguous_lsn(&self) -> u64 {
        self.recovered_contiguous_lsn
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        // A panic while holding the log lock poisons it; the state
        // itself is bytes and counters, which remain internally
        // consistent, so recover the guard rather than wedging every
        // committer forever.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, state: MutexGuard<'a, LogState>) -> MutexGuard<'a, LogState> {
        self.durable.wait(state).unwrap_or_else(|p| p.into_inner())
    }

    /// Lock the log with no group-commit leader in flight, so the
    /// caller may write to (or swap) the file itself.
    fn lock_idle(&self) -> MutexGuard<'_, LogState> {
        let mut state = self.lock();
        while state.syncing {
            state = self.wait(state);
        }
        state
    }

    /// Ensure the next minted LSN is at least `to`. Used at follower
    /// promotion: the promoted cache must mint LSNs strictly above every
    /// record it replicated, or its own writes would collide with the
    /// history it inherited.
    pub fn bump_next_lsn(&self, to: u64) {
        let mut state = self.lock();
        state.next_lsn = state.next_lsn.max(to);
    }

    /// Install the replication tailer: every chunk of framed records is
    /// handed to `sink` as soon as it reaches the log file.
    pub fn set_sink(&self, sink: ReplSink) {
        *self.sink.write().unwrap_or_else(|p| p.into_inner()) = Some(sink);
    }

    /// Install the observability registry. Called once by the cache
    /// builder before the log serves any appends; a log without one
    /// (unit tests constructing a bare `Wal`) simply records nothing.
    pub fn set_obs(&self, obs: Arc<crate::obs::Obs>) {
        let _ = self.obs.set(obs);
    }

    /// Start a duration measurement iff an enabled registry is present.
    #[inline]
    fn obs_timer(&self) -> Option<std::time::Instant> {
        match self.obs.get() {
            Some(obs) if obs.enabled() => Some(std::time::Instant::now()),
            _ => None,
        }
    }

    /// Record `elapsed` into `pick(registry)` when a timer was started.
    #[inline]
    fn obs_record(
        &self,
        t: Option<std::time::Instant>,
        pick: impl Fn(&crate::obs::Obs) -> &crate::obs::LatencyHistogram,
    ) {
        if let (Some(t), Some(obs)) = (t, self.obs.get()) {
            pick(obs).record_duration(t.elapsed());
        }
    }

    /// Ship `chunk` (the framed records that just reached the file, the
    /// last of which carries LSN `hi`) to the replication tailer, if one
    /// is attached.
    fn ship(&self, hi: u64, chunk: &[u8]) {
        let sink = self.sink.read().unwrap_or_else(|p| p.into_inner());
        if let Some(sink) = sink.as_ref() {
            sink(hi, chunk);
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }

    /// Whether enough records have accumulated since the last checkpoint
    /// to warrant a new one.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_every > 0
            && self.records_since_checkpoint.load(Ordering::Relaxed) >= self.checkpoint_every
    }

    /// Mint the next LSN and append the record `encode` frames for it,
    /// both under the log mutex — which is what makes file order equal
    /// LSN order. Callers hold the affected table's lock, so a table's
    /// log order also equals its apply order. The returned LSN is the
    /// record's commit ticket: pass it to [`Wal::wait_durable`] *after*
    /// the table lock is released.
    pub fn append(&self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<u64> {
        let t = self.obs_timer();
        let mut state = self.lock();
        state.check()?;
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        self.push(&mut state, lsn, &encode(lsn))?;
        self.obs_record(t, |o| &o.wal_append_ns);
        Ok(lsn)
    }

    /// Append a frame that already carries `lsn` — the follower apply
    /// path, whose log is a verbatim copy of the primary's. The stream
    /// delivers frames in LSN order; one at or below the newest
    /// appended frame would let its durability wait return before the
    /// frame is on disk, so it is refused.
    pub fn append_frame(&self, lsn: u64, framed: &[u8]) -> Result<()> {
        let t = self.obs_timer();
        let mut state = self.lock();
        state.check()?;
        if lsn <= state.appended_lsn {
            return Err(Error::wal(format!(
                "replicated frame {lsn} is not above the log's newest frame {}",
                state.appended_lsn
            )));
        }
        self.push(&mut state, lsn, framed)?;
        self.obs_record(t, |o| &o.wal_append_ns);
        Ok(())
    }

    fn push(&self, state: &mut LogState, lsn: u64, framed: &[u8]) -> Result<()> {
        state.buf.extend_from_slice(framed);
        state.appended_lsn = lsn;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        match self.policy {
            // One write + one fsync per record, inside the append.
            SyncPolicy::Immediate => self.flush_locked(state, true),
            // Hand the bytes to the OS now (so a *process* crash loses
            // nothing) but leave the disk flush to flush()/checkpoints.
            SyncPolicy::OsOnly => self.flush_locked(state, false),
            SyncPolicy::Group => Ok(()),
        }
    }

    /// Block until the record with LSN `lsn` is durable. Under
    /// [`SyncPolicy::Group`] the first waiter flushes for everyone
    /// queued behind it (leader election via the `syncing` flag); under
    /// the other policies the append already did the work.
    pub fn wait_durable(&self, lsn: u64) -> Result<()> {
        if !matches!(self.policy, SyncPolicy::Group) {
            return Ok(());
        }
        let t = self.obs_timer();
        let result = self.wait_durable_group(lsn);
        self.obs_record(t, |o| &o.wal_commit_wait_ns);
        result
    }

    /// [`Wal::wait_durable`] under [`SyncPolicy::Group`]: wait for (or
    /// lead) the flush that moves the durable watermark to `lsn`.
    fn wait_durable_group(&self, lsn: u64) -> Result<()> {
        let mut state = self.lock();
        loop {
            state.check()?;
            // An LSN above the newest appended frame names no record
            // buffered here — it was on disk when the log was opened —
            // so no flush could ever reach it.
            if state.durable_lsn >= lsn.min(state.appended_lsn) {
                return Ok(());
            }
            if state.syncing {
                state = self.wait(state);
                continue;
            }
            // Become the leader: take every frame buffered so far and
            // flush it with a single fsync while the lock is free for
            // concurrent appenders to keep queueing.
            state.syncing = true;
            let chunk = std::mem::take(&mut state.buf);
            let target = state.appended_lsn;
            let file = state.file.try_clone();
            drop(state);
            let outcome = file.map_err(Error::from).and_then(|file| {
                (&file).write_all(&chunk)?;
                let t = self.obs_timer();
                file.sync_data()?;
                self.obs_record(t, |o| &o.wal_fsync_ns);
                Ok(())
            });
            if outcome.is_ok() {
                // Still the leader (`syncing` is ours), so chunks reach
                // the replication tailer in file order.
                self.ship(target, &chunk);
            }
            self.syncs.fetch_add(1, Ordering::Relaxed);
            state = self.lock();
            state.syncing = false;
            match outcome {
                Ok(()) => state.durable_lsn = target,
                Err(e) => state.failed = Some(e.to_string()),
            }
            self.durable.notify_all();
        }
    }

    /// Write (and, when `sync`, fsync) everything buffered. The state
    /// lock is held and no leader is in flight. A clean log — nothing
    /// buffered, nothing written since the last fsync — costs no
    /// syscall and counts no sync.
    fn flush_locked(&self, state: &mut LogState, sync: bool) -> Result<()> {
        debug_assert!(!state.syncing);
        if !state.buf.is_empty() {
            let buf = std::mem::take(&mut state.buf);
            if let Err(e) = state.file.write_all(&buf) {
                state.failed = Some(e.to_string());
                return Err(e.into());
            }
            // The bytes are in the log file: seal them for replication.
            // The log lock is held, so chunks ship in file order.
            self.ship(state.appended_lsn, &buf);
        }
        if sync && state.durable_lsn < state.appended_lsn {
            let t = self.obs_timer();
            if let Err(e) = state.file.sync_data() {
                state.failed = Some(e.to_string());
                return Err(e.into());
            }
            self.obs_record(t, |o| &o.wal_fsync_ns);
            self.syncs.fetch_add(1, Ordering::Relaxed);
            state.durable_lsn = state.appended_lsn;
            self.durable.notify_all();
        }
        Ok(())
    }

    /// Force the buffered records onto disk. This is the
    /// flush-before-ack hook: under [`SyncPolicy::OsOnly`] it upgrades
    /// best-effort writes to durable ones. Under the other policies it
    /// returns immediately: every *committed* write run already waited
    /// for its newest record ([`Wal::wait_durable`]), and sweeping the
    /// buffer here would steal records out of in-flight group-commit
    /// convoys — extra fsyncs that shrink exactly the batches group
    /// commit exists to build.
    pub fn flush(&self) -> Result<()> {
        if !matches!(self.policy, SyncPolicy::OsOnly) {
            return Ok(());
        }
        let mut state = self.lock_idle();
        state.check()?;
        self.flush_locked(&mut state, true)
    }

    /// Checkpoint phase 1: flush and rotate the log so the snapshot
    /// about to be taken is never older than any record left in the
    /// live log file. New appends go to a fresh file immediately.
    ///
    /// If a rotated file survives from a checkpoint that failed or
    /// crashed before its snapshot landed, its records are **not yet
    /// covered by any snapshot** — renaming over it would destroy
    /// acknowledged writes. The live log is appended onto the existing
    /// rotated file instead (its records are all newer, so the file
    /// stays in LSN order), and only then truncated.
    pub fn rotate_begin(&self) -> Result<()> {
        let mut state = self.lock_idle();
        self.flush_locked(&mut state, true)?;
        let live = log_path(&self.dir);
        let rotated = rotated_path(&self.dir);
        if rotated.exists() {
            let mut bytes = Vec::new();
            File::open(&live)?.read_to_end(&mut bytes)?;
            let mut dst = OpenOptions::new().append(true).open(&rotated)?;
            dst.write_all(&bytes)?;
            dst.sync_data()?;
            state.file.set_len(0)?;
        } else {
            fs::rename(&live, &rotated)?;
            state.file = OpenOptions::new().create(true).append(true).open(&live)?;
        }
        drop(state);
        fsync_dir(&self.dir)
    }

    /// Checkpoint phase 2: persist the snapshot atomically (temp file,
    /// fsync, rename, directory fsync).
    pub fn write_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let bytes = encode_snapshot(snapshot)?;
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        fsync_dir(&self.dir)?;
        Ok(())
    }

    /// Checkpoint phase 3: the snapshot is durable, so every log file
    /// but the live one can go — the rotated log, whose records the
    /// snapshot covers, and any stripe file an older build left behind
    /// (nothing appends to those, and their records were replayed into
    /// the snapshotted tables at open).
    pub fn rotate_end(&self) -> Result<()> {
        let live = log_path(&self.dir);
        for path in log_files(&self.dir)? {
            if path != live {
                fs::remove_file(path)?;
            }
        }
        fsync_dir(&self.dir)?;
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read everything durable on disk for a replication bootstrap: the
    /// raw snapshot file (if any) and every complete framed record in
    /// the log files, deduplicated and sorted by LSN.
    ///
    /// Callers hold the cache's checkpoint lock, so no rotation can
    /// delete or rename a log file mid-read. Records buffered in memory
    /// but not yet written are *not* returned — they have not been
    /// shipped to the hub either, so a subscriber attached before this
    /// read receives them on the live stream instead.
    pub fn read_backlog(&self) -> Result<Backlog> {
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        let snapshot = if snapshot_path.exists() {
            Some(fs::read(&snapshot_path)?)
        } else {
            None
        };
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        for path in log_files(&self.dir)? {
            let bytes = fs::read(&path)?;
            for (lsn, frame) in split_frames(&bytes) {
                frames.push((lsn, frame.to_vec()));
            }
        }
        frames.sort_by_key(|(lsn, _)| *lsn);
        frames.dedup_by_key(|(lsn, _)| *lsn);
        Ok((snapshot, frames))
    }

    /// Replace the entire on-disk state with `snapshot` — the follower
    /// bootstrap path: a shipped snapshot supersedes whatever the
    /// follower had, so its live log is truncated, a rotated leftover
    /// removed, and the snapshot written in their place. The watermark
    /// restarts at the snapshot's high LSN — a plain store, because a
    /// divergence reset moves it *backwards* — which every frame the
    /// stream delivers afterwards lies above. The follower's replication
    /// thread is the only writer, so no append can race the reset.
    pub fn reset_to_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let mut state = self.lock_idle();
        state.buf.clear();
        state.appended_lsn = snapshot_high_watermark(snapshot);
        state.durable_lsn = state.appended_lsn;
        state.file.set_len(0)?;
        let rotated = rotated_path(&self.dir);
        if rotated.exists() {
            fs::remove_file(rotated)?;
        }
        drop(state);
        self.write_snapshot(snapshot)?;
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replicated_frames_are_refused_unless_above_the_newest_frame() {
        let dir = std::env::temp_dir().join(format!("pscache-wal-order-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (wal, _) = Wal::open(&dir, SyncPolicy::Group, 0).unwrap();
        let frame = |lsn| encode_remove(lsn, "T", "k");
        wal.append_frame(3, &frame(3)).unwrap();
        // A repeat or a straggler could be acknowledged without ever
        // reaching the disk: the watermark already covers its LSN.
        assert!(wal.append_frame(3, &frame(3)).is_err());
        assert!(wal.append_frame(2, &frame(2)).is_err());
        wal.append_frame(7, &frame(7)).unwrap();
        wal.wait_durable(7).unwrap();
        let bytes = fs::read(log_path(&dir)).unwrap();
        let lsns: Vec<u64> = split_frames(&bytes).iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, [3, 7]);
        assert_eq!(wal.stats().syncs, 1, "one group commit covered both frames");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_round_trip_through_the_frame_format() {
        let cols = vec![
            ("ip".to_string(), AttrType::Str),
            ("bytes".to_string(), AttrType::Int),
        ];
        let create = encode_create(1, "BWUsage", TableKind::Persistent, 0, &cols);
        let row: Vec<Scalar> = vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(7)];
        let insert = encode_insert(2, "BWUsage", true, 42, &[&row], None);
        let remove = encode_remove(3, "BWUsage", "10.0.0.1");
        let token = encode_token(
            4,
            99,
            7,
            &TokenOutcome::Inserted {
                replaced: false,
                tstamp: 42,
            },
        );
        let tokened_insert = encode_insert(5, "BWUsage", false, 43, &[&row], Some((99, 8, false)));
        let mut log = Vec::new();
        log.extend_from_slice(&create);
        log.extend_from_slice(&insert);
        log.extend_from_slice(&remove);
        log.extend_from_slice(&token);
        log.extend_from_slice(&tokened_insert);

        assert_eq!(count_complete_records(&log), 5);
        let (payloads, consumed) = scan_frames(&log);
        assert_eq!(consumed, log.len());
        let ops: Vec<ReplayOp> = payloads
            .into_iter()
            .map(|p| decode_record(p).unwrap())
            .collect();
        assert!(matches!(
            &ops[0],
            ReplayOp::CreateTable { lsn: 1, name, kind: TableKind::Persistent, capacity: 0, columns }
                if name == "BWUsage" && columns.len() == 2
        ));
        assert!(matches!(
            &ops[1],
            ReplayOp::Insert { lsn: 2, table, upsert: true, tstamp: 42, rows, token: None }
                if table == "BWUsage" && rows.len() == 1
        ));
        assert!(matches!(
            &ops[2],
            ReplayOp::Remove { lsn: 3, table, key } if table == "BWUsage" && key == "10.0.0.1"
        ));
        assert!(matches!(
            &ops[3],
            ReplayOp::Token {
                lsn: 4,
                client_id: 99,
                seq: 7,
                outcome: TokenOutcome::Inserted {
                    replaced: false,
                    tstamp: 42
                }
            }
        ));
        assert_eq!(ops[3].table(), TOKEN_TABLE_NAME);
        assert!(matches!(
            &ops[4],
            ReplayOp::Insert { lsn: 5, table, upsert: false, tstamp: 43, rows,
                token: Some((99, 8, false)) }
                if table == "BWUsage" && rows.len() == 1
        ));
    }

    #[test]
    fn torn_and_corrupt_tails_stop_the_scan() {
        let rec = encode_remove(9, "T", "k");
        let mut log = Vec::new();
        log.extend_from_slice(&rec);
        log.extend_from_slice(&rec);
        // Truncate anywhere inside the second record: only the first
        // survives.
        for cut in rec.len()..(2 * rec.len()) {
            assert_eq!(count_complete_records(&log[..cut]), 1, "cut at {cut}");
        }
        // Flip any byte of the second record: the checksum rejects it.
        for flip in rec.len()..(2 * rec.len()) {
            let mut copy = log.clone();
            copy[flip] ^= 0x40;
            assert_eq!(count_complete_records(&copy), 1, "flip at {flip}");
        }
        // The full log is intact.
        assert_eq!(count_complete_records(&log), 2);
    }

    #[test]
    fn snapshots_round_trip() {
        let tables = vec![
            SnapshotTable {
                name: "Flows".into(),
                kind: TableKind::Ephemeral,
                capacity: 512,
                columns: vec![("v".into(), AttrType::Int)],
                watermark: 0,
                rows: Vec::new(),
            },
            SnapshotTable {
                name: "BWUsage".into(),
                kind: TableKind::Persistent,
                capacity: 0,
                columns: vec![("ip".into(), AttrType::Str), ("n".into(), AttrType::Int)],
                watermark: 17,
                rows: vec![
                    (5, vec![Scalar::Str("a".into()), Scalar::Int(1)]),
                    (6, vec![Scalar::Str("b".into()), Scalar::Int(2)]),
                ],
            },
        ];
        let snapshot = Snapshot {
            tables,
            tokens: vec![
                (7, 0, TokenOutcome::Created),
                (
                    7,
                    1,
                    TokenOutcome::InsertedBatch {
                        tstamps: vec![5, 6],
                    },
                ),
            ],
            token_watermark: 23,
        };
        let bytes = encode_snapshot(&snapshot).unwrap();
        assert_eq!(decode_snapshot(&bytes).unwrap(), snapshot);
        // The header-only watermark scan agrees with the full decode —
        // and includes the token watermark, which here exceeds every
        // table watermark.
        assert_eq!(scan_snapshot_high_watermark(&bytes).unwrap(), 23);
        assert_eq!(snapshot_high_watermark(&snapshot), 23);
        // A torn snapshot is rejected outright.
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        assert!(scan_snapshot_high_watermark(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn version_one_snapshots_still_decode() {
        // Hand-build a v1 snapshot (no token section) and check both
        // readers accept it: durability directories written before the
        // protection layer must keep opening.
        let mut w = WireWriter::new();
        w.put_u8(1); // version
        w.put_u32(1); // one table
        w.put_str("T");
        w.put_u8(1); // persistent
        w.put_u64(0); // capacity
        w.put_u32(1); // one column
        w.put_str("v");
        w.put_u8(0); // Int
        w.put_u64(9); // watermark
        w.put_u32(0); // no rows
        let bytes = frame(&w.finish());
        let snapshot = decode_snapshot(&bytes).unwrap();
        assert_eq!(snapshot.tables.len(), 1);
        assert!(snapshot.tokens.is_empty());
        assert_eq!(snapshot.token_watermark, 0);
        assert_eq!(scan_snapshot_high_watermark(&bytes).unwrap(), 9);
    }
}
