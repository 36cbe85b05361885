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
//!   `BENCH_wal.json` comes from. Group commit is the log's only flush
//!   discipline: no write is acknowledged before its fsync, and nothing
//!   else ever needs to flush the buffer except a checkpoint.
//!
//! * **Checkpoints.** Every [`checkpoint_every`](crate::CacheBuilder::checkpoint_every)
//!   records (or on [`Cache::checkpoint`](crate::Cache::checkpoint)) the
//!   cache rotates the log (`wal-000.log` → `wal-000.log.1`), writes an
//!   image of the tables (temp file `snapshot.tmp` + atomic rename), and
//!   deletes the rotated log. The image is usually a **delta**
//!   (`delta-<n>.snap`): each key changed since the previous checkpoint,
//!   as its latest row or its removal, over the **base**
//!   (`snapshot.snap`, every row). A base is written instead when no
//!   delta can describe the change or the deltas have grown as large as
//!   the tables (see `Wal::delta_entries`). Each table records the LSN
//!   of its last logged record in every image, which is what makes
//!   replay exact under concurrency: a log record is applied at recovery
//!   only if its LSN is newer than the image's watermark for its table.
//!
//! * **Recovery.** [`Cache::recover`](crate::Cache::recover) (or
//!   [`CacheBuilder::open`](crate::CacheBuilder::open)) folds the base
//!   and its deltas into one image, loads it, replays every complete log
//!   record in LSN order, and
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

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use gapl::event::{AttrType, Scalar, Tuple};

use crate::error::{Error, Result};
use crate::obs::Obs;
use crate::protect::{decode_outcome, encode_outcome, TokenOutcome};
use crate::table::{key_text, TableKind};
use crate::wire::{WireReader, WireWriter};

/// Name of the snapshot file inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.snap";

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
    /// Checkpoints that failed. A failed automatic checkpoint is retried
    /// only after another
    /// [`checkpoint_every`](crate::CacheBuilder::checkpoint_every)
    /// records, and the next one that succeeds writes a base.
    pub checkpoint_failures: u64,
    /// Records replayed from the log when the cache was opened.
    pub replayed: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slice-by-16, dependency-free.
// ---------------------------------------------------------------------------

/// The slice-by-16 tables of the reflected IEEE polynomial, built at
/// compile time. Row 0 is the classic byte-at-a-time table; row `k`
/// advances a byte's contribution by `k` further zero bytes, so sixteen
/// lookups fold sixteen input bytes into the register at once.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes` — the per-record checksum of the log format.
/// Every append, every frame scan and every recovery pays it, so it
/// consumes sixteen bytes per step; the output is the classic
/// byte-at-a-time CRC's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
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
/// that); checkpoint images check the limit explicitly in [`seal`]
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

/// A writer for one frame built in place: its first eight bytes are
/// reserved for the `[len][crc]` header that [`seal`] fills in once the
/// payload follows, so no frame is copied to be framed.
fn framed_writer(capacity: usize) -> WireWriter {
    let mut w = WireWriter::with_capacity(capacity.max(64));
    w.put_u64(0);
    w
}

/// Fill in the header [`framed_writer`] reserved and return the frame.
/// A payload past the `u32` length prefix is refused: the caller's
/// checkpoint fails instead of writing a frame whose prefix lies.
fn seal(mut w: WireWriter) -> Result<Vec<u8>> {
    let payload = w.len() - 8;
    let len = u32::try_from(payload).map_err(|_| {
        Error::wal(format!(
            "a payload of {payload} bytes exceeds the 4 GiB frame limit"
        ))
    })?;
    let crc = crc32(&w.as_slice()[8..]);
    w.patch_u32(0, len);
    w.patch_u32(4, crc);
    Ok(w.into_vec())
}

/// [`seal`] for a log record, which is always far below the limit.
fn seal_record(w: WireWriter) -> Vec<u8> {
    seal(w).expect("log records are bounded below the u32 length prefix")
}

pub(crate) fn encode_create(
    lsn: u64,
    name: &str,
    kind: TableKind,
    capacity: usize,
    columns: &[(String, AttrType)],
) -> Vec<u8> {
    let mut w = framed_writer(128);
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
    seal_record(w)
}

pub(crate) fn encode_insert(
    lsn: u64,
    table: &str,
    upsert: bool,
    tstamp: u64,
    rows: &[&[Scalar]],
    token: Option<(u64, u64, bool)>,
) -> Vec<u8> {
    let mut w = framed_writer(128);
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
    seal_record(w)
}

pub(crate) fn encode_remove(lsn: u64, table: &str, key: &str) -> Vec<u8> {
    let mut w = framed_writer(64);
    w.put_u64(lsn);
    w.put_u8(OP_REMOVE);
    w.put_str(table);
    w.put_str(key);
    seal_record(w)
}

pub(crate) fn encode_token(lsn: u64, client_id: u64, seq: u64, outcome: &TokenOutcome) -> Vec<u8> {
    let mut w = framed_writer(64);
    w.put_u64(lsn);
    w.put_u8(OP_TOKEN);
    w.put_u64(client_id);
    w.put_u64(seq);
    encode_outcome(&mut w, outcome);
    seal_record(w)
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

/// Where a checkpoint image is written before its atomic rename.
/// Recovery never reads it: a leftover is a checkpoint that crashed
/// before its rename.
fn temp_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.tmp")
}

/// Path of the `n`-th delta image.
fn delta_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("delta-{n}.snap"))
}

/// Every `delta-<n>.snap` in `dir` with its `n`, in ascending `n` —
/// the order they were written in.
fn delta_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        let n = name
            .strip_prefix("delta-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(n) = n {
            files.push((n, dir.join(&*name)));
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
// Snapshots: a base image plus the deltas written over it.
// ---------------------------------------------------------------------------

/// Format byte of a base image (`snapshot.snap`): 2 = the v1 table
/// section plus a trailing token section. Version 1 still decodes.
const BASE_VERSION: u8 = 2;

/// Format byte of a delta image (`delta-<n>.snap`). Above every base
/// version, so a delta can never decode as a base.
const DELTA_VERSION: u8 = 3;

/// A row as a checkpoint image holds it: its stored timestamp and its
/// values. A capture encodes straight from the table's [`Tuple`]s; a
/// decoded image owns its values.
pub(crate) trait SnapshotRow {
    fn tstamp(&self) -> u64;
    fn values(&self) -> &[Scalar];
}

impl SnapshotRow for (u64, Vec<Scalar>) {
    fn tstamp(&self) -> u64 {
        self.0
    }
    fn values(&self) -> &[Scalar] {
        &self.1
    }
}

impl SnapshotRow for Tuple {
    fn tstamp(&self) -> u64 {
        Tuple::tstamp(self)
    }
    fn values(&self) -> &[Scalar] {
        Tuple::values(self)
    }
}

/// One table's worth of checkpoint state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotTable<R = (u64, Vec<Scalar>)> {
    pub name: String,
    pub kind: TableKind,
    /// Circular-buffer capacity (streams only; 0 for relations).
    pub capacity: usize,
    pub columns: Vec<(String, AttrType)>,
    /// LSN of the table's newest logged record at snapshot time; log
    /// records at or below this are already reflected in `rows`.
    pub watermark: u64,
    /// In a base: the live rows in scan (time-of-insertion) order, with
    /// their stored timestamps. In a delta: the latest row of each key
    /// changed since the previous image, in log order. Always empty for
    /// ephemeral streams.
    pub rows: Vec<R>,
    /// Keys removed since the previous image (deltas only; a base has
    /// none).
    pub removed: Vec<Arc<str>>,
}

/// A checkpoint image: every table plus the idempotency-token table —
/// a whole base, or a delta over the image before it. The token
/// watermark is written **before** the token entries so
/// [`scan_snapshot_high_watermark`]'s header-only walk can reach it
/// without stepping over the entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Snapshot<R = (u64, Vec<Scalar>)> {
    /// Tables in snapshot order.
    pub tables: Vec<SnapshotTable<R>>,
    /// Idempotency-token outcomes as `(client_id, token_seq, outcome)`,
    /// in per-client FIFO (record) order.
    pub tokens: Vec<(u64, u64, TokenOutcome)>,
    /// Highest LSN at which a token was recorded when the snapshot was
    /// taken. Participates in the snapshot's high watermark so a token
    /// frame with the globally newest LSN never loses LSN ground when a
    /// checkpoint truncates the logs.
    pub token_watermark: u64,
}

impl<R> Snapshot<R> {
    /// Rows plus removals a delta image carries.
    pub(crate) fn entries(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| (t.rows.len() + t.removed.len()) as u64)
            .sum()
    }
}

/// The table section and the token section, shared by both image
/// kinds; only a delta carries removals.
fn put_image<R: SnapshotRow>(w: &mut WireWriter, image: &Snapshot<R>, delta: bool) {
    w.put_u32(image.tables.len() as u32);
    for t in &image.tables {
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
        for row in &t.rows {
            w.put_u64(row.tstamp());
            w.put_scalars(row.values());
        }
        if delta {
            w.put_u32(t.removed.len() as u32);
            for key in &t.removed {
                w.put_str(key);
            }
        } else {
            debug_assert!(t.removed.is_empty(), "a base carries no removals");
        }
    }
    w.put_u64(image.token_watermark);
    w.put_u32(image.tokens.len() as u32);
    for (client_id, seq, outcome) in &image.tokens {
        w.put_u64(*client_id);
        w.put_u64(*seq);
        encode_outcome(w, outcome);
    }
}

/// Encode a base image as one frame, in one buffer of `capacity` bytes
/// to start with (the previous base's size).
pub(crate) fn encode_snapshot<R: SnapshotRow>(
    snapshot: &Snapshot<R>,
    capacity: usize,
) -> Result<Vec<u8>> {
    let mut w = framed_writer(capacity);
    w.put_u8(BASE_VERSION);
    put_image(&mut w, snapshot, false);
    seal(w)
}

/// Encode a delta image over the base whose frame header is `base`.
fn encode_delta<R: SnapshotRow>(
    delta: &Snapshot<R>,
    base: BaseId,
    capacity: usize,
) -> Result<Vec<u8>> {
    let mut w = framed_writer(capacity);
    w.put_u8(DELTA_VERSION);
    w.put_u64(base.0);
    put_image(&mut w, delta, true);
    seal(w)
}

/// A base image's identity: its frame header, i.e. its payload length
/// and checksum as one number. Each delta names the base it was
/// written over, which is how recovery tells a delta older than the
/// base from one that belongs to it. Two bases of one directory share
/// an id only if they share a length and a CRC-32 — the odds of a
/// corrupt frame passing its checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaseId(u64);

impl BaseId {
    fn of(frame: &[u8]) -> Option<BaseId> {
        Some(BaseId(u64::from_le_bytes(frame.get(..8)?.try_into().ok()?)))
    }
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

/// The first frame of `bytes`, whole and checksummed, or an error
/// naming what it should have been.
fn first_payload<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8]> {
    scan_frames(bytes)
        .0
        .first()
        .copied()
        .ok_or_else(|| Error::wal(format!("{what} file is torn or corrupt")))
}

/// Decode a base image (`snapshot.snap`, or the image a replication
/// bootstrap ships).
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let mut r = WireReader::new(first_payload(bytes, "snapshot")?);
    let version = r.get_u8()?;
    if version != 1 && version != BASE_VERSION {
        return Err(Error::wal(format!("unknown snapshot version {version}")));
    }
    get_image(&mut r, version >= 2, false)
}

/// Decode a delta image and the identity of the base it was written
/// over.
fn decode_delta(bytes: &[u8]) -> Result<(BaseId, Snapshot)> {
    let mut r = WireReader::new(first_payload(bytes, "delta")?);
    let version = r.get_u8()?;
    if version != DELTA_VERSION {
        return Err(Error::wal(format!("unknown delta version {version}")));
    }
    let base = BaseId(r.get_u64()?);
    Ok((base, get_image(&mut r, true, true)?))
}

fn get_image(r: &mut WireReader<'_>, with_tokens: bool, delta: bool) -> Result<Snapshot> {
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
        let mut removed = Vec::new();
        if delta {
            let n = r.get_u32()? as usize;
            if n > 100_000_000 {
                return Err(Error::wal("unreasonably many removals in delta"));
            }
            removed.reserve(n);
            for _ in 0..n {
                removed.push(Arc::from(r.get_str_slice()?));
            }
        }
        tables.push(SnapshotTable {
            name,
            kind,
            capacity,
            columns,
            watermark,
            rows,
            removed,
        });
    }
    let mut tokens = Vec::new();
    let mut token_watermark = 0u64;
    if with_tokens {
        token_watermark = r.get_u64()?;
        let ntokens = r.get_u32()? as usize;
        if ntokens > 100_000_000 {
            return Err(Error::wal("unreasonably many tokens in snapshot"));
        }
        tokens.reserve(ntokens);
        for _ in 0..ntokens {
            let client_id = r.get_u64()?;
            let seq = r.get_u64()?;
            tokens.push((client_id, seq, decode_outcome(r)?));
        }
    }
    Ok(Snapshot {
        tables,
        tokens,
        token_watermark,
    })
}

/// Fold `delta` into `image`, the image it was written over. The
/// delta's table list is authoritative (tables, watermarks and tokens
/// all come from it); each table keeps the previous image's rows whose
/// keys the delta does not mention, in their order, followed by the
/// delta's rows. That is the full image's order, because every changed
/// key's latest row was staged after every unchanged row.
fn fold(image: &mut Snapshot, delta: Snapshot) {
    let mut previous: HashMap<String, Vec<(u64, Vec<Scalar>)>> =
        image.tables.drain(..).map(|t| (t.name, t.rows)).collect();
    for mut t in delta.tables {
        let mut rows = previous.remove(&t.name).unwrap_or_default();
        if !t.rows.is_empty() || !t.removed.is_empty() {
            let changed: HashSet<Cow<'_, str>> = t
                .removed
                .iter()
                .map(|k| Cow::Borrowed(&**k))
                .chain(t.rows.iter().map(|(_, values)| key_text(values)))
                .collect();
            rows.retain(|(_, values)| !changed.contains(&key_text(values)));
            drop(changed);
            rows.append(&mut t.rows);
        }
        t.rows = rows;
        t.removed.clear();
        image.tables.push(t);
    }
    image.tokens = delta.tokens;
    image.token_watermark = delta.token_watermark;
}

/// What the checkpoint files on disk hold. Only a checkpoint (under
/// the cache's checkpoint lock) or a follower's reset changes it.
#[derive(Debug, Default)]
struct Chain {
    /// The base on disk and its table names, while a delta may still be
    /// written over it. `None` makes the next checkpoint write a base:
    /// there is none yet, or a checkpoint failed after its capture had
    /// already taken the tables' change sets.
    base: Option<(BaseId, Vec<String>)>,
    /// Rows plus removals in the deltas written over the base.
    entries: u64,
    /// Number of the next delta file; never reused.
    next_delta: u64,
    /// Sizes of the last base and the last delta, which pre-size the
    /// next encoding of each.
    base_len: usize,
    delta_len: usize,
}

/// The checkpoint image on disk, as files: the base and the deltas
/// written over it, in order. A delta older than the base (a crash
/// between a base's rename and the removal of the deltas before it)
/// names another base and is left out; so is any `*.tmp` leftover.
struct DiskImage {
    base: Option<Vec<u8>>,
    deltas: Vec<Vec<u8>>,
    next_delta: u64,
}

impl DiskImage {
    fn read(dir: &Path) -> Result<DiskImage> {
        let path = dir.join(SNAPSHOT_FILE);
        let base = if path.exists() {
            Some(fs::read(&path)?)
        } else {
            None
        };
        let id = base.as_deref().and_then(BaseId::of);
        let files = delta_files(dir)?;
        let next_delta = files.last().map_or(1, |(n, _)| n + 1);
        let mut deltas = Vec::new();
        for (_, path) in files {
            let bytes = fs::read(&path)?;
            // The frame header, the version byte, then the base's id.
            if id.is_some() && bytes.get(9..17).and_then(BaseId::of) == id {
                deltas.push(bytes);
            }
        }
        Ok(DiskImage {
            base,
            deltas,
            next_delta,
        })
    }

    /// The base with every delta folded in, in order, as one image —
    /// what recovery installs and a replication bootstrap ships — plus
    /// the chain a later checkpoint continues.
    fn load(&self) -> Result<(Snapshot, Chain)> {
        let mut chain = Chain {
            next_delta: self.next_delta,
            ..Chain::default()
        };
        let Some(base) = &self.base else {
            return Ok((Snapshot::default(), chain));
        };
        let mut image = decode_snapshot(base)?;
        let names = image.tables.iter().map(|t| t.name.clone()).collect();
        for bytes in &self.deltas {
            let (_, delta) = decode_delta(bytes)?;
            chain.entries += delta.entries();
            fold(&mut image, delta);
        }
        chain.base = BaseId::of(base).map(|id| (id, names));
        chain.base_len = base.len();
        chain.delta_len = self.deltas.last().map_or(0, Vec::len);
        Ok((image, chain))
    }
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
    /// is written and fsynced. Never ahead of
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
    checkpoint_failures: AtomicU64,
    replayed: AtomicU64,
    /// The checkpoint files on disk.
    chain: Mutex<Chain>,
    /// Where sealed frames are shipped (the replication hub), when the
    /// cache serves a replication stream.
    sink: RwLock<Option<ReplSink>>,
    /// The cache's observability registry; append / group-commit-wait /
    /// fsync durations are recorded into it.
    obs: Arc<Obs>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).finish()
    }
}

impl Wal {
    /// Open (or create) the durability directory, read the snapshot and
    /// every complete log record, and return the log ready for appends
    /// plus everything the cache must replay. Append, group-commit-wait
    /// and fsync durations are recorded into `obs`.
    pub fn open(dir: &Path, checkpoint_every: u64, obs: Arc<Obs>) -> Result<(Wal, Recovery)> {
        fs::create_dir_all(dir)?;

        let (snapshot, chain) = DiskImage::read(dir)?.load()?;
        let watermarks: HashMap<&str, u64> = snapshot
            .tables
            .iter()
            .map(|t| (t.name.as_str(), t.watermark))
            .collect();
        let mut created: HashSet<String> = snapshot.tables.iter().map(|t| t.name.clone()).collect();

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
            checkpoint_failures: AtomicU64::new(0),
            replayed: AtomicU64::new(replayed),
            chain: Mutex::new(chain),
            sink: RwLock::new(None),
            obs,
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
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
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
        let t = Instant::now();
        let mut state = self.lock();
        state.check()?;
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        self.push(&mut state, lsn, &encode(lsn));
        self.obs.wal_append_ns.record_duration(t.elapsed());
        Ok(lsn)
    }

    /// Append a frame that already carries `lsn` — the follower apply
    /// path, whose log is a verbatim copy of the primary's. The stream
    /// delivers frames in LSN order; one at or below the newest
    /// appended frame would let its durability wait return before the
    /// frame is on disk, so it is refused.
    pub fn append_frame(&self, lsn: u64, framed: &[u8]) -> Result<()> {
        let t = Instant::now();
        let mut state = self.lock();
        state.check()?;
        if lsn <= state.appended_lsn {
            return Err(Error::wal(format!(
                "replicated frame {lsn} is not above the log's newest frame {}",
                state.appended_lsn
            )));
        }
        self.push(&mut state, lsn, framed);
        self.obs.wal_append_ns.record_duration(t.elapsed());
        Ok(())
    }

    fn push(&self, state: &mut LogState, lsn: u64, framed: &[u8]) {
        state.buf.extend_from_slice(framed);
        state.appended_lsn = lsn;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Block until the record with LSN `lsn` is durable: the first
    /// waiter flushes for everyone queued behind it (leader election via
    /// the `syncing` flag).
    pub fn wait_durable(&self, lsn: u64) -> Result<()> {
        let t = Instant::now();
        let result = self.wait_durable_group(lsn);
        self.obs.wal_commit_wait_ns.record_duration(t.elapsed());
        result
    }

    /// [`Wal::wait_durable`] without its timer: wait for (or lead) the
    /// flush that moves the durable watermark to `lsn`.
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
                let t = Instant::now();
                file.sync_data()?;
                self.obs.wal_fsync_ns.record_duration(t.elapsed());
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

    /// Write and fsync everything buffered. The state lock is held and
    /// no leader is in flight. A clean log — nothing buffered, nothing
    /// written since the last fsync — costs no syscall and counts no
    /// sync.
    fn flush_locked(&self, state: &mut LogState) -> Result<()> {
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
        if state.durable_lsn < state.appended_lsn {
            let t = Instant::now();
            if let Err(e) = state.file.sync_data() {
                state.failed = Some(e.to_string());
                return Err(e.into());
            }
            self.obs.wal_fsync_ns.record_duration(t.elapsed());
            self.syncs.fetch_add(1, Ordering::Relaxed);
            state.durable_lsn = state.appended_lsn;
            self.durable.notify_all();
        }
        Ok(())
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
        self.flush_locked(&mut state)?;
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

    fn chain(&self) -> MutexGuard<'_, Chain> {
        self.chain.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether a checkpoint about to capture `tables` (their names) may
    /// write a delta, and if so how many rows plus removals the deltas
    /// over the base already hold. `None` means it must write a base:
    /// there is no base, a failure left the chain unknown, or a table
    /// was created or dropped since the base.
    pub fn delta_entries(&self, tables: &[&str]) -> Option<u64> {
        let chain = self.chain();
        let (_, names) = chain.base.as_ref()?;
        (names.iter().map(String::as_str).eq(tables.iter().copied())).then_some(chain.entries)
    }

    /// Write `bytes` to `path` atomically: temp file, fsync, rename,
    /// directory fsync.
    fn persist(&self, bytes: &[u8], path: &Path) -> Result<()> {
        let tmp = temp_path(&self.dir);
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        fsync_dir(&self.dir)
    }

    /// Checkpoint phase 2, base: persist the whole image as
    /// `snapshot.snap`, then remove every delta, which all belong to an
    /// older base now. A crash between the two leaves deltas that name
    /// the older base, and recovery leaves them out. Until the base has
    /// landed no delta may be written: the caller has already made its
    /// tables match this image, not the chain on disk.
    pub fn write_base<R: SnapshotRow>(&self, snapshot: &Snapshot<R>) -> Result<()> {
        let capacity = {
            let mut chain = self.chain();
            chain.base = None;
            chain.base_len
        };
        let bytes = encode_snapshot(snapshot, capacity + capacity / 8)?;
        self.persist(&bytes, &self.dir.join(SNAPSHOT_FILE))?;
        for (_, path) in delta_files(&self.dir)? {
            fs::remove_file(path)?;
        }
        let mut chain = self.chain();
        chain.base = BaseId::of(&bytes)
            .map(|id| (id, snapshot.tables.iter().map(|t| t.name.clone()).collect()));
        chain.entries = 0;
        chain.base_len = bytes.len();
        Ok(())
    }

    /// Checkpoint phase 2, delta: persist `delta` as the next
    /// `delta-<n>.snap` over the current base. Callers checked
    /// [`Wal::delta_entries`] under the same checkpoint lock.
    pub fn write_delta<R: SnapshotRow>(&self, delta: &Snapshot<R>) -> Result<()> {
        let (base, n, capacity) = {
            let chain = self.chain();
            let (base, _) = chain
                .base
                .as_ref()
                .ok_or_else(|| Error::wal("no base image to write a delta over"))?;
            (*base, chain.next_delta, chain.delta_len)
        };
        let bytes = encode_delta(delta, base, capacity + capacity / 8)?;
        self.persist(&bytes, &delta_path(&self.dir, n))?;
        let mut chain = self.chain();
        chain.next_delta = n + 1;
        chain.entries += delta.entries();
        chain.delta_len = bytes.len();
        Ok(())
    }

    /// A checkpoint failed. Its capture may have taken change sets the
    /// disk never received, so the next checkpoint writes a base; and
    /// the automatic threshold restarts, so a failing disk is retried
    /// once per [`checkpoint_every`](crate::CacheBuilder::checkpoint_every)
    /// records rather than on every commit.
    pub fn checkpoint_failed(&self) {
        self.chain().base = None;
        self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
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
    /// checkpoint image (if any) and every complete framed record in
    /// the log files, deduplicated and sorted by LSN. The image is the
    /// base file as it stands when no delta was written over it, and
    /// otherwise the base and its deltas folded into one base image —
    /// the same image recovery installs.
    ///
    /// Callers hold the cache's checkpoint lock, so no rotation can
    /// delete or rename a log file mid-read. Records buffered in memory
    /// but not yet written are *not* returned — they have not been
    /// shipped to the hub either, so a subscriber attached before this
    /// read receives them on the live stream instead.
    pub fn read_backlog(&self) -> Result<Backlog> {
        let disk = DiskImage::read(&self.dir)?;
        let snapshot = if disk.deltas.is_empty() {
            disk.base
        } else {
            let (image, chain) = disk.load()?;
            Some(encode_snapshot(&image, chain.base_len)?)
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
        self.write_base(snapshot)?;
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the log format was defined with: the
    /// oracle [`crc32`] must agree with bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A multiple of the sixteen-byte step, and one past it.
        let text = b"The quick brown fox jumps over the lazy dog.....";
        assert_eq!(text.len(), 48);
        assert_eq!(crc32(text), crc32_bytewise(text));
        assert_eq!(crc32(&text[..17]), crc32_bytewise(&text[..17]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-16 equals the bytewise CRC on every length from 0 to
        /// 4096 and at every alignment of the input.
        #[test]
        fn slice_by_16_equals_the_bytewise_crc(
            bytes in proptest::collection::vec(any::<u8>(), 0..4200),
            offset in 0usize..64,
            len in 0usize..=4096,
        ) {
            let start = offset.min(bytes.len());
            let end = (start + len).min(bytes.len());
            let slice = &bytes[start..end];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {} len {}", start, end - start);
        }
    }

    #[test]
    fn replicated_frames_are_refused_unless_above_the_newest_frame() {
        let dir = std::env::temp_dir().join(format!("pscache-wal-order-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let obs = Arc::new(Obs::new(crate::config::DEFAULT_SLOW_OP_THRESHOLD));
        let (wal, _) = Wal::open(&dir, 0, obs).unwrap();
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
                removed: Vec::new(),
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
                removed: Vec::new(),
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
        let bytes = encode_snapshot(&snapshot, 0).unwrap();
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

    /// A base as the byte-at-a-time encoder with a separate framing
    /// copy wrote it, for the image below: the v2 format, pinned.
    const GOLDEN_BASE: &str = "d300000088bf21370202000000010000005300100000000000000001000000010000007402010000000000000000000000020000004b5601000000000000000004000000010000006b0401000000760001000000720101000000620309000000000000000200000005000000000000000400000004010000006100ffffffffffffffff01000000000000e03f0301070000000000000004000000040200000062620002000000000000000100000000000000c003000800000000000000010000000300000000000000040000000000000001010700000000000000";

    #[test]
    fn a_single_pass_base_is_the_v2_format_byte_for_byte() {
        let columns = vec![
            ("k".to_string(), AttrType::Str),
            ("v".to_string(), AttrType::Int),
            ("r".to_string(), AttrType::Real),
            ("b".to_string(), AttrType::Bool),
        ];
        let schema = Arc::new(gapl::event::Schema::new("KV", columns.clone()).unwrap());
        let tuple = |tstamp, values| Tuple::new(Arc::clone(&schema), values, tstamp).unwrap();
        // Shaped like a capture: the rows are the table's own tuples.
        let captured = Snapshot {
            tables: vec![
                SnapshotTable {
                    name: "S".into(),
                    kind: TableKind::Ephemeral,
                    capacity: 16,
                    columns: vec![("t".into(), AttrType::Tstamp)],
                    watermark: 1,
                    rows: Vec::new(),
                    removed: Vec::new(),
                },
                SnapshotTable {
                    name: "KV".into(),
                    kind: TableKind::Persistent,
                    capacity: 0,
                    columns,
                    watermark: 9,
                    rows: vec![
                        tuple(
                            5,
                            vec![
                                Scalar::Str("a".into()),
                                Scalar::Int(-1),
                                Scalar::Real(0.5),
                                Scalar::Bool(true),
                            ],
                        ),
                        tuple(
                            7,
                            vec![
                                Scalar::Str("bb".into()),
                                Scalar::Int(2),
                                Scalar::Real(-2.0),
                                Scalar::Bool(false),
                            ],
                        ),
                    ],
                    removed: Vec::new(),
                },
            ],
            tokens: vec![(
                3,
                4,
                TokenOutcome::Inserted {
                    replaced: true,
                    tstamp: 7,
                },
            )],
            token_watermark: 8,
        };
        // The starting capacity never changes the bytes.
        for capacity in [0, 9, 1 << 16] {
            let bytes = encode_snapshot(&captured, capacity).unwrap();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, GOLDEN_BASE, "capacity {capacity}");
            let decoded = decode_snapshot(&bytes).unwrap();
            assert_eq!(encode_snapshot(&decoded, 0).unwrap(), bytes);
        }
    }

    #[test]
    fn a_delta_folds_over_the_image_it_was_written_over() {
        let table = |rows: Vec<(u64, &str, i64)>, removed: Vec<&str>, watermark| SnapshotTable {
            name: "KV".into(),
            kind: TableKind::Persistent,
            capacity: 0,
            columns: vec![("k".into(), AttrType::Str), ("v".into(), AttrType::Int)],
            watermark,
            rows: rows
                .into_iter()
                .map(|(t, k, v)| (t, vec![Scalar::Str(k.into()), Scalar::Int(v)]))
                .collect(),
            removed: removed.into_iter().map(Arc::from).collect(),
        };
        let base = Snapshot {
            tables: vec![table(
                vec![(1, "a", 1), (2, "b", 2), (3, "c", 3)],
                vec![],
                5,
            )],
            tokens: Vec::new(),
            token_watermark: 0,
        };
        let base_bytes = encode_snapshot(&base, 0).unwrap();
        // `a` changed, `b` removed, `d` new; `c` untouched.
        let delta = Snapshot {
            tables: vec![table(vec![(4, "a", 10), (5, "d", 4)], vec!["b"], 8)],
            tokens: vec![(1, 1, TokenOutcome::Created)],
            token_watermark: 7,
        };
        let id = BaseId::of(&base_bytes).unwrap();
        let delta_bytes = encode_delta(&delta, id, 0).unwrap();
        // A delta never decodes as a base.
        assert!(decode_snapshot(&delta_bytes).is_err());
        let (of, decoded) = decode_delta(&delta_bytes).unwrap();
        assert_eq!((of, &decoded), (id, &delta));
        assert_eq!(delta.entries(), 3);
        let mut image = decode_snapshot(&base_bytes).unwrap();
        fold(&mut image, decoded);
        assert_eq!(
            image,
            Snapshot {
                tables: vec![table(
                    vec![(3, "c", 3), (4, "a", 10), (5, "d", 4)],
                    vec![],
                    8
                )],
                tokens: vec![(1, 1, TokenOutcome::Created)],
                token_watermark: 7,
            }
        );
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
