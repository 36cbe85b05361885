//! Unified observability: lock-free latency histograms, counters, a
//! slow-op ring buffer, and a Prometheus-style exposition surface.
//!
//! Every prior subsystem reported telemetry through its own counter
//! struct (`WalStats`, `ReplStats`, `DispatchStats`, `ServerStats`…) —
//! counts only, no distributions, no machine-scrapeable format. This
//! module is the common sink those paths now record into:
//!
//! * [`LatencyHistogram`] — a **log-linear** (HDR-style) histogram of
//!   fixed power-of-two bucket ranges over `AtomicU64` cells. Recording
//!   is one index computation plus three relaxed `fetch_add`s; there is
//!   no lock anywhere, so writers never wait on readers and snapshots
//!   never stop writers. Buckets below [`SUB_BUCKETS`] are exact; above
//!   that each power-of-two octave is split into [`SUB_BUCKETS`] linear
//!   sub-buckets (≤ 12.5% relative error). Values past the top bucket
//!   saturate into it rather than being dropped.
//! * [`Obs`] — the per-cache registry: a fixed, statically named set of
//!   histograms and counters (see [`Obs::snapshot`] for the catalog)
//!   plus the slow-op log. Construct via [`Obs::new`]; when built
//!   disabled every `record` degenerates to one relaxed bool load.
//! * [`SlowOpLog`] — a bounded ring of the most recent operations whose
//!   end-to-end service time exceeded
//!   [`CacheBuilder::slow_op_threshold`](crate::CacheBuilder::slow_op_threshold),
//!   each carrying the client-stamped trace id and the per-stage
//!   (queue-wait / execute / reply-flush) breakdown the reactor
//!   measured.
//! * [`MetricsSnapshot`] — a point-in-time copy, mergeable across
//!   partitions, wire-encodable (`Request::Metrics` on the RPC layer),
//!   and renderable to Prometheus text exposition format that parses
//!   back **losslessly** into the same snapshot
//!   ([`MetricsSnapshot::from_prometheus`]).
//!
//! All durations are recorded in **nanoseconds**; the exposition keeps
//! nanosecond integers (metric names end in `_ns`) so the text format
//! round-trips exactly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of linear sub-buckets per power-of-two octave (and the size
/// of the exact low range). Eight gives ≤ 12.5% relative bucket width.
pub const SUB_BUCKETS: usize = 8;
/// Total bucket count per histogram. 256 buckets at 8 sub-buckets per
/// octave cover values up to roughly 2^34 ns (~17 s); anything larger
/// saturates into the top bucket.
pub const NUM_BUCKETS: usize = 256;
/// Capacity of the slow-op ring buffer: old entries are overwritten.
pub const SLOW_OP_CAPACITY: usize = 64;

/// Map a value to its bucket index. Exact below [`SUB_BUCKETS`];
/// log-linear above; saturating at [`NUM_BUCKETS`]` - 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let exp = msb - SUB_BUCKETS.trailing_zeros();
    let sub = (v >> exp) as usize & (SUB_BUCKETS - 1);
    ((exp as usize + 1) * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` — the smallest value that lands
/// in it. The bucket's upper bound is `bucket_lower_bound(i + 1) - 1`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let exp = (i / SUB_BUCKETS - 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << exp
}

/// A lock-free log-linear latency histogram. Record with
/// [`record`](Self::record); read with [`snapshot`](Self::snapshot) —
/// neither ever blocks the other.
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one value (nanoseconds). Three relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a [`Duration`] in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy. Concurrent recorders may land between the
    /// bucket reads — the snapshot is consistent per-cell, not frozen —
    /// which is the standard trade for never pausing the hot path.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram, sparse (only non-empty
/// buckets), ordered by bucket index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name, e.g. `rpc_execute_queue_ns`.
    pub name: String,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds).
    pub sum: u64,
    /// `(bucket index, count)` pairs for non-empty buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the lower
    /// bound of the bucket holding that rank (0 when empty). Within
    /// bucket resolution, `quantile(0.5) <= quantile(0.99)` always.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(i as usize);
            }
        }
        bucket_lower_bound(NUM_BUCKETS - 1)
    }

    /// Mean recorded value, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Fold another snapshot of the *same* histogram into this one
    /// (cross-partition aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

/// The request kinds the RPC layer distinguishes when recording
/// per-request-type service time. `Control` covers ping / stats /
/// health / metrics — the cheap introspection requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ReqKind {
    /// `Request::Execute` (SQL, including selects).
    Execute = 0,
    /// `Request::Insert`.
    Insert = 1,
    /// `Request::InsertBatch`.
    InsertBatch = 2,
    /// `Request::RegisterAutomaton`.
    Register = 3,
    /// `Request::UnregisterAutomaton`.
    Unregister = 4,
    /// Ping / ServerStats / Health / Metrics.
    Control = 5,
}

/// Number of [`ReqKind`] variants.
pub const REQ_KINDS: usize = 6;

impl ReqKind {
    /// Stable lower-case name used in metric names and the slow-op log.
    pub fn name(self) -> &'static str {
        KIND_NAMES[self as usize]
    }
}

const KIND_NAMES: [&str; REQ_KINDS] = [
    "execute",
    "insert",
    "insert_batch",
    "register",
    "unregister",
    "control",
];

/// The three reactor stages of one request's life.
const STAGE_NAMES: [&str; 3] = ["queue", "execute", "flush"];

/// One completed operation's stage breakdown, as measured by the
/// reactor: decode → worker pickup (`queue_ns`), `handle_request`
/// (`exec_ns`), outbox append → socket flush (`flush_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Client-stamped trace id (0 when the client did not stamp one).
    pub trace_id: u64,
    /// Request kind.
    pub kind: ReqKind,
    /// Table the request addressed, when it addressed one.
    pub table: Option<String>,
    /// Time spent decoded-but-unclaimed in the connection inbox.
    pub queue_ns: u64,
    /// Time spent inside `handle_request` on a worker.
    pub exec_ns: u64,
    /// Time from reply append to the flush that drained it.
    pub flush_ns: u64,
}

impl OpTrace {
    /// End-to-end service time.
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.exec_ns + self.flush_ns
    }
}

/// Bounded ring of recent slow operations; old entries are evicted.
pub struct SlowOpLog {
    ring: Mutex<std::collections::VecDeque<OpTrace>>,
}

impl Default for SlowOpLog {
    fn default() -> Self {
        SlowOpLog {
            ring: Mutex::new(std::collections::VecDeque::with_capacity(SLOW_OP_CAPACITY)),
        }
    }
}

impl SlowOpLog {
    fn push(&self, op: OpTrace) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == SLOW_OP_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(op);
    }

    /// Copy of the ring, oldest first.
    pub fn entries(&self) -> Vec<OpTrace> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// The per-cache metrics registry: every instrumented path records
/// here. The metric set is fixed at compile time — no name hashing on
/// the hot path, just field access plus `fetch_add`.
pub struct Obs {
    enabled: AtomicBool,
    slow_op_threshold_ns: u64,
    /// `[kind][stage]` — RPC service time split per request type.
    rpc: [[LatencyHistogram; 3]; REQ_KINDS],
    /// Requests completed, per kind (the differential-test surface).
    rpc_requests: [AtomicU64; REQ_KINDS],
    /// WAL: LSN mint + encode + buffered append (under the log lock).
    pub wal_append_ns: LatencyHistogram,
    /// WAL: time a committer waited for its group-commit ticket.
    pub wal_commit_wait_ns: LatencyHistogram,
    /// WAL: `sync_data` (fsync) duration.
    pub wal_fsync_ns: LatencyHistogram,
    /// Plan execution time of `select` / cached selects.
    pub select_ns: LatencyHistogram,
    /// Publish-to-pickup latency of automaton event dispatch.
    pub dispatch_queue_ns: LatencyHistogram,
    /// Records a follower was behind its primary at each apply.
    pub repl_apply_lag: LatencyHistogram,
    /// Slow consumers torn down for an over-limit outbox.
    pub slow_consumer_evictions: AtomicU64,
    /// Automata unregistered (explicitly or by connection teardown).
    pub automaton_unregistrations: AtomicU64,
    /// Operations that crossed the slow-op threshold.
    pub slow_ops_recorded: AtomicU64,
    /// The slow-op ring buffer.
    pub slow_ops: SlowOpLog,
}

impl Obs {
    /// Build a registry. A disabled registry keeps every `record` call
    /// a single relaxed load.
    pub fn new(enabled: bool, slow_op_threshold: Duration) -> Obs {
        Obs {
            enabled: AtomicBool::new(enabled),
            slow_op_threshold_ns: u64::try_from(slow_op_threshold.as_nanos()).unwrap_or(u64::MAX),
            rpc: std::array::from_fn(|_| std::array::from_fn(|_| LatencyHistogram::default())),
            rpc_requests: std::array::from_fn(|_| AtomicU64::new(0)),
            wal_append_ns: LatencyHistogram::default(),
            wal_commit_wait_ns: LatencyHistogram::default(),
            wal_fsync_ns: LatencyHistogram::default(),
            select_ns: LatencyHistogram::default(),
            dispatch_queue_ns: LatencyHistogram::default(),
            repl_apply_lag: LatencyHistogram::default(),
            slow_consumer_evictions: AtomicU64::new(0),
            automaton_unregistrations: AtomicU64::new(0),
            slow_ops_recorded: AtomicU64::new(0),
            slow_ops: SlowOpLog::default(),
        }
    }

    /// Whether instrumentation is live. Callers gate `Instant::now()`
    /// pairs on this so `CacheBuilder::metrics(false)` removes even the
    /// clock reads from the hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Count one completed request of `kind`.
    #[inline]
    pub fn count_request(&self, kind: ReqKind) {
        if self.enabled() {
            self.rpc_requests[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Completed requests of `kind` so far.
    pub fn requests(&self, kind: ReqKind) -> u64 {
        self.rpc_requests[kind as usize].load(Ordering::Relaxed)
    }

    /// Record a completed RPC's stage breakdown and, when it crossed
    /// the slow-op threshold, append it to the slow-op log.
    pub fn record_rpc(&self, op: OpTrace) {
        if !self.enabled() {
            return;
        }
        let k = op.kind as usize;
        self.rpc[k][0].record(op.queue_ns);
        self.rpc[k][1].record(op.exec_ns);
        self.rpc[k][2].record(op.flush_ns);
        if op.total_ns() >= self.slow_op_threshold_ns {
            self.slow_ops_recorded.fetch_add(1, Ordering::Relaxed);
            self.slow_ops.push(op);
        }
    }

    /// Record a duration into `hist` only when instrumentation is on.
    #[inline]
    pub fn record_if_enabled(&self, hist: &LatencyHistogram, d: Duration) {
        if self.enabled() {
            hist.record_duration(d);
        }
    }

    /// The full catalog as a point-in-time snapshot. Only histograms
    /// with at least one recorded value are included, so an idle node's
    /// exposition stays small.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        for (k, name) in KIND_NAMES.iter().enumerate() {
            let n = self.rpc_requests[k].load(Ordering::Relaxed);
            if n > 0 {
                counters.push((format!("rpc_requests_{name}"), n));
            }
        }
        counters.push((
            "slow_consumer_evictions".to_owned(),
            self.slow_consumer_evictions.load(Ordering::Relaxed),
        ));
        counters.push((
            "automaton_unregistrations".to_owned(),
            self.automaton_unregistrations.load(Ordering::Relaxed),
        ));
        counters.push((
            "slow_ops_recorded".to_owned(),
            self.slow_ops_recorded.load(Ordering::Relaxed),
        ));
        let mut histograms = Vec::new();
        for (k, kind) in KIND_NAMES.iter().enumerate() {
            for (s, stage) in STAGE_NAMES.iter().enumerate() {
                let snap = self.rpc[k][s].snapshot(&format!("rpc_{kind}_{stage}_ns"));
                if snap.count > 0 {
                    histograms.push(snap);
                }
            }
        }
        for (hist, name) in [
            (&self.wal_append_ns, "wal_append_ns"),
            (&self.wal_commit_wait_ns, "wal_commit_wait_ns"),
            (&self.wal_fsync_ns, "wal_fsync_ns"),
            (&self.select_ns, "select_ns"),
            (&self.dispatch_queue_ns, "dispatch_queue_ns"),
            (&self.repl_apply_lag, "repl_apply_lag_records"),
        ] {
            let snap = hist.snapshot(name);
            if snap.count > 0 {
                histograms.push(snap);
            }
        }
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A typed, mergeable, wire-encodable snapshot of one node's registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs; names are `[a-z0-9_]`.
    pub counters: Vec<(String, u64)>,
    /// Per-histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Fold `other` into `self` by metric name — the cross-partition
    /// aggregation behind `ClusterClient::metrics_all`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(mine) => mine.merge(h),
                None => self.histograms.push(h.clone()),
            }
        }
    }

    /// Wire encoding: length-prefixed names, sparse buckets. The RPC
    /// layer frames this inside `CacheReply::Metrics`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        fn put_str(buf: &mut Vec<u8>, s: &str) {
            buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        buf.extend_from_slice(&(self.counters.len() as u32).to_be_bytes());
        for (name, v) in &self.counters {
            put_str(buf, name);
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf.extend_from_slice(&(self.histograms.len() as u32).to_be_bytes());
        for h in &self.histograms {
            put_str(buf, &h.name);
            buf.extend_from_slice(&h.count.to_be_bytes());
            buf.extend_from_slice(&h.sum.to_be_bytes());
            buf.extend_from_slice(&(h.buckets.len() as u32).to_be_bytes());
            for &(i, n) in &h.buckets {
                buf.extend_from_slice(&i.to_be_bytes());
                buf.extend_from_slice(&n.to_be_bytes());
            }
        }
    }

    /// Decode the wire form. Returns `None` on any truncation or
    /// malformed field — the RPC layer maps that to a protocol error.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<MetricsSnapshot> {
        fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
            let b = buf.get(*pos..*pos + 4)?;
            *pos += 4;
            Some(u32::from_be_bytes(b.try_into().ok()?))
        }
        fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
            let b = buf.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(u64::from_be_bytes(b.try_into().ok()?))
        }
        fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
            let len = get_u32(buf, pos)? as usize;
            let b = buf.get(*pos..*pos + len)?;
            *pos += len;
            String::from_utf8(b.to_vec()).ok()
        }
        let n_counters = get_u32(buf, pos)?;
        let mut counters = Vec::with_capacity(n_counters.min(1 << 16) as usize);
        for _ in 0..n_counters {
            let name = get_str(buf, pos)?;
            let v = get_u64(buf, pos)?;
            counters.push((name, v));
        }
        let n_hists = get_u32(buf, pos)?;
        let mut histograms = Vec::with_capacity(n_hists.min(1 << 16) as usize);
        for _ in 0..n_hists {
            let name = get_str(buf, pos)?;
            let count = get_u64(buf, pos)?;
            let sum = get_u64(buf, pos)?;
            let n_buckets = get_u32(buf, pos)?;
            let mut buckets = Vec::with_capacity(n_buckets.min(NUM_BUCKETS as u32) as usize);
            for _ in 0..n_buckets {
                let i = get_u32(buf, pos)?;
                if i as usize >= NUM_BUCKETS {
                    return None;
                }
                let n = get_u64(buf, pos)?;
                buckets.push((i, n));
            }
            histograms.push(HistogramSnapshot {
                name,
                count,
                sum,
                buckets,
            });
        }
        Some(MetricsSnapshot {
            counters,
            histograms,
        })
    }

    /// Render to Prometheus text exposition format. Counters become
    /// `pscache_<name>_total`; histograms become conventional
    /// cumulative `_bucket{le=...}` series (le in integer nanoseconds,
    /// the bucket's exclusive upper bound) plus `_sum` and `_count`.
    /// Empty buckets are skipped — the cumulative form preserves them.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE pscache_{name} counter");
            let _ = writeln!(out, "pscache_{name}_total {v}");
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE pscache_{} histogram", h.name);
            let mut cum = 0u64;
            for &(i, n) in &h.buckets {
                cum += n;
                let le = bucket_lower_bound(i as usize + 1);
                let _ = writeln!(out, "pscache_{}_bucket{{le=\"{le}\"}} {cum}", h.name);
            }
            let _ = writeln!(out, "pscache_{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "pscache_{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "pscache_{}_count {}", h.name, h.count);
        }
        out
    }

    /// Parse text produced by [`to_prometheus`](Self::to_prometheus)
    /// back into the typed form. Lossless for our own output (the
    /// round-trip is asserted in tests); returns `None` on text this
    /// renderer could not have produced.
    pub fn from_prometheus(text: &str) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ')?;
            let series = series.strip_prefix("pscache_")?;
            if let Some((name, le)) = series
                .split_once("_bucket{le=\"")
                .and_then(|(n, rest)| Some((n, rest.strip_suffix("\"}")?)))
            {
                let hist = take_hist(&mut snap, name);
                let cum: u64 = value.parse().ok()?;
                if le == "+Inf" {
                    continue; // redundant with the _count line
                }
                let le: u64 = le.parse().ok()?;
                // le is the exclusive upper bound, so le - 1 is the
                // largest value in the bucket it closes.
                let idx = bucket_index(le.checked_sub(1)?) as u32;
                let prior: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
                let n = cum.checked_sub(prior)?;
                if n > 0 {
                    hist.buckets.push((idx, n));
                }
            } else if let Some(name) = series.strip_suffix("_sum") {
                take_hist(&mut snap, name).sum = value.parse().ok()?;
            } else if let Some(name) = series.strip_suffix("_count") {
                take_hist(&mut snap, name).count = value.parse().ok()?;
            } else if let Some(name) = series.strip_suffix("_total") {
                snap.counters.push((name.to_owned(), value.parse().ok()?));
            } else {
                return None;
            }
        }
        return Some(snap);

        fn take_hist<'a>(snap: &'a mut MetricsSnapshot, name: &str) -> &'a mut HistogramSnapshot {
            if let Some(i) = snap.histograms.iter().position(|h| h.name == name) {
                return &mut snap.histograms[i];
            }
            snap.histograms.push(HistogramSnapshot {
                name: name.to_owned(),
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            });
            snap.histograms.last_mut().expect("just pushed")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_exact_low_and_log_linear_high() {
        // The low range is exact.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and
        // one-past-the-upper-bound maps to the next.
        for i in SUB_BUCKETS..NUM_BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            let hi = bucket_lower_bound(i + 1) - 1;
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        // Relative bucket width in the log-linear range is <= 1/8.
        let i = bucket_index(1_000_000);
        let width = bucket_lower_bound(i + 1) - bucket_lower_bound(i);
        assert!(width as f64 / 1_000_000.0 <= 0.125 + 1e-9);
    }

    #[test]
    fn the_top_bucket_saturates() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets, vec![((NUM_BUCKETS - 1) as u32, 2)]);
    }

    #[test]
    fn quantiles_order_and_track_the_data() {
        let h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1us..1ms
        }
        let snap = h.snapshot("t");
        let (p50, p99) = (snap.quantile(0.5), snap.quantile(0.99));
        assert!(p50 < p99, "p50={p50} p99={p99}");
        // Within one log-linear bucket (12.5%) of the true quantiles.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.13);
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.13);
        assert_eq!(
            snap.mean(),
            (1..=1000u64).map(|v| v * 1000).sum::<u64>() / 1000
        );
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        let h = Arc::new(LatencyHistogram::default());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v * 17 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 80_000);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 80_000);
    }

    #[test]
    fn merge_sums_counts_and_interleaves_buckets() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record(3);
        a.record(1 << 20);
        b.record(3);
        b.record(1 << 10);
        let mut sa = a.snapshot("t");
        let sb = b.snapshot("t");
        sa.merge(&sb);
        assert_eq!(sa.count, 4);
        assert_eq!(sa.sum, 3 + (1 << 20) + 3 + (1 << 10));
        assert_eq!(sa.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
        assert_eq!(
            sa.buckets.iter().find(|&&(i, _)| i == 3).map(|&(_, n)| n),
            Some(2)
        );
        // Still sorted by bucket index.
        assert!(sa.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = Obs::new(false, Duration::from_millis(1));
        obs.count_request(ReqKind::Insert);
        obs.record_rpc(OpTrace {
            trace_id: 9,
            kind: ReqKind::Insert,
            table: None,
            queue_ns: 1,
            exec_ns: 1,
            flush_ns: 1,
        });
        obs.record_if_enabled(&obs.select_ns, Duration::from_secs(1));
        let snap = obs.snapshot();
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.counter("slow_ops_recorded"), Some(0));
        assert_eq!(obs.requests(ReqKind::Insert), 0);
    }

    #[test]
    fn slow_ops_cross_the_threshold_into_a_bounded_ring() {
        let obs = Obs::new(true, Duration::from_micros(10));
        for i in 0..SLOW_OP_CAPACITY as u64 + 5 {
            obs.record_rpc(OpTrace {
                trace_id: i,
                kind: ReqKind::Execute,
                table: Some("T".into()),
                queue_ns: 4_000,
                exec_ns: 5_000,
                flush_ns: 2_000,
            });
        }
        // A fast op never lands in the ring.
        obs.record_rpc(OpTrace {
            trace_id: 999,
            kind: ReqKind::Execute,
            table: None,
            queue_ns: 10,
            exec_ns: 10,
            flush_ns: 10,
        });
        let entries = obs.slow_ops.entries();
        assert_eq!(entries.len(), SLOW_OP_CAPACITY);
        // Oldest evicted, newest retained, fast op absent.
        assert_eq!(entries.first().unwrap().trace_id, 5);
        assert_eq!(
            entries.last().unwrap().trace_id,
            SLOW_OP_CAPACITY as u64 + 4
        );
        assert!(entries.iter().all(|e| e.trace_id != 999));
        assert_eq!(
            obs.snapshot().counter("slow_ops_recorded"),
            Some(SLOW_OP_CAPACITY as u64 + 5)
        );
    }

    fn busy_snapshot() -> MetricsSnapshot {
        let obs = Obs::new(true, Duration::from_secs(1));
        obs.count_request(ReqKind::Execute);
        obs.count_request(ReqKind::Execute);
        obs.count_request(ReqKind::Insert);
        obs.record_rpc(OpTrace {
            trace_id: 1,
            kind: ReqKind::Execute,
            table: None,
            queue_ns: 1_500,
            exec_ns: 80_000,
            flush_ns: 900,
        });
        obs.wal_fsync_ns.record(2_000_000);
        obs.select_ns.record(0);
        obs.select_ns.record(123);
        obs.repl_apply_lag.record(1);
        obs.snapshot()
    }

    #[test]
    fn wire_encoding_round_trips() {
        let snap = busy_snapshot();
        let mut buf = Vec::new();
        snap.encode_into(&mut buf);
        let mut pos = 0;
        let back = MetricsSnapshot::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, snap);
        // Truncations never panic, they fail.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(MetricsSnapshot::decode_from(&buf[..cut], &mut pos).is_none());
        }
    }

    #[test]
    fn prometheus_text_round_trips_through_the_typed_snapshot() {
        let snap = busy_snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE pscache_rpc_requests_execute counter"));
        assert!(text.contains("pscache_rpc_requests_execute_total 2"));
        assert!(text.contains("# TYPE pscache_select_ns histogram"));
        assert!(text.contains("le=\"+Inf\""));
        let back = MetricsSnapshot::from_prometheus(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merged_snapshots_aggregate_across_partitions() {
        let mut a = busy_snapshot();
        let b = busy_snapshot();
        a.merge(&b);
        assert_eq!(a.counter("rpc_requests_execute"), Some(4));
        assert_eq!(a.histogram("select_ns").unwrap().count, 4);
        assert_eq!(
            a.histogram("wal_fsync_ns").unwrap().sum,
            2 * b.histogram("wal_fsync_ns").unwrap().sum
        );
    }
}
