//! Replication: WAL shipping from a primary to read-scaling follower
//! replicas, with failover promotion.
//!
//! PR 4 gave every persistent table a checksummed, LSN-ordered
//! write-ahead log; this module turns that log into a **replication
//! stream**. The moving parts:
//!
//! * **Tailer + hub** (`hub`). The WAL ships every sealed chunk (the
//!   bytes a group-commit leader or flush just wrote to the log file)
//!   to the cache's replication hub, tagged with the LSN of its last
//!   record. The log mints LSNs in file order, so chunks arrive **in
//!   LSN order**: the hub's *commit watermark* is the newest chunk's
//!   high LSN, and the chunk goes out to subscribers as sealed.
//!   Subscribed follower connections receive contiguous frame batches;
//!   after applying a batch with high watermark `hi`, a follower is
//!   complete up to `hi` — no gaps, ever.
//!
//! * **Listener** (`server`). A primary built with
//!   [`CacheBuilder::replicate_to`](crate::CacheBuilder::replicate_to)
//!   serves the stream over TCP. A new subscription bootstraps from the
//!   latest checkpoint: the subscriber attaches to the hub first, then
//!   the primary reads its snapshot and log backlog under the
//!   checkpoint lock — so every record is either in the backlog or on
//!   the live stream, never lost between them. Followers that were
//!   never connected (or fell behind the log-retention horizon, or
//!   diverged past the primary's history after an unclean primary
//!   restart) are **reset** from the snapshot instead of replaying from
//!   log-zero.
//!
//! * **Follower** (`follower`). [`Cache::follow`](crate::Cache::follow)
//!   (or [`CacheBuilder::follow`](crate::CacheBuilder::follow)) opens a
//!   read-only replica: a background thread subscribes from
//!   [`Cache::replica_lsn`](crate::Cache::replica_lsn), applies frames
//!   through the same never-publishing apply path as crash recovery
//!   (automata on a follower observe *no* replicated traffic, exactly
//!   like [`Cache::recover`](crate::Cache::recover)), and survives
//!   primary restarts with capped exponential backoff plus jitter. A
//!   follower built with its own
//!   [`durability`](crate::CacheBuilder::durability) directory appends
//!   the shipped frames **verbatim** to its own log — byte-identical
//!   WAL shipping — making it restartable and promotable without data
//!   loss.
//!
//! * **Promotion**. [`Cache::promote`](crate::Cache::promote) seals the
//!   stream, bumps the LSN allocator past the replicated history, and
//!   flips the replica writable; the local log needs no flush, because
//!   every applied batch was already durable. Everything the
//!   follower received is preserved; with the stream drained at
//!   promotion time (the normal planned-failover sequence) that is the
//!   primary's entire acknowledged history.
//!
//! Reads on a follower are ordinary queries with **bounded staleness**:
//! [`Cache::replica_lsn`](crate::Cache::replica_lsn) is the replica's
//! applied watermark and [`Cache::repl_stats`](crate::Cache::repl_stats)
//! carries the primary's commit watermark from its latest heartbeat;
//! their difference is the staleness in records. Ephemeral streams are
//! never logged, so — as after recovery — they exist on a follower but
//! hold only locally observed rows (none, on a pure replica).

pub(crate) mod follower;
pub(crate) mod hub;
pub mod proto;
pub(crate) mod server;

/// Jittered, capped exponential backoff: `base * 2^attempt`, clamped to
/// `cap`, then perturbed by ±25% so a fleet reconnecting to a restarted
/// peer does not arrive in lockstep. Used by the follower stream and by
/// `psrpc`'s reconnecting client — the one retry curve for the whole
/// system. The jitter source is the wall clock's sub-microsecond bits:
/// cheap, dependency-free, and plenty for de-synchronisation.
pub fn backoff_delay(
    attempt: u32,
    base: std::time::Duration,
    cap: std::time::Duration,
) -> std::time::Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap);
    let nanos = capped.as_nanos() as u64;
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0x9E37_79B9);
    // xorshift for a uniform-ish perturbation in [-25%, +25%].
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let spread = (nanos / 2).max(1); // 50% window centred on the nominal delay
    std::time::Duration::from_nanos(nanos - nanos / 4 + (x % spread))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn backoff_grows_exponentially_caps_and_jitters() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        for attempt in 0..20 {
            let d = backoff_delay(attempt, base, cap);
            let nominal = base
                .saturating_mul(1u32 << attempt.min(16))
                .min(cap)
                .as_nanos() as u64;
            let got = d.as_nanos() as u64;
            // Within the ±25% jitter window.
            assert!(
                got >= nominal - nominal / 4,
                "attempt {attempt}: {got} < {nominal}"
            );
            assert!(
                got <= nominal + nominal / 4,
                "attempt {attempt}: {got} > {nominal}"
            );
        }
        // The cap binds: attempt 30 is no longer than the cap + jitter.
        let d = backoff_delay(30, base, cap);
        assert!(d <= cap + cap / 4);
    }
}

/// Whether a cache is the writable primary or a read-only follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRole {
    /// Writable; serves the replication stream when configured.
    Primary,
    /// Read-only; applies the replication stream until promoted.
    Follower,
}

/// A snapshot of the replication subsystem's counters; see
/// [`Cache::repl_stats`](crate::Cache::repl_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplStats {
    /// This cache's current role.
    pub role: ReplRole,
    /// Highest LSN whose effects are visible to queries here. On a
    /// follower this is the applied watermark; on a durable primary it
    /// is the contiguous durable commit watermark.
    pub replica_lsn: u64,
    /// The primary's commit watermark: the hub watermark on a primary,
    /// the latest heartbeat value on a follower.
    /// `commit_lsn - replica_lsn` is the follower's staleness in
    /// records.
    pub commit_lsn: u64,
    /// Follower connections currently subscribed (primary side).
    pub followers: usize,
    /// Lowest LSN acknowledged across subscribed followers (0 without
    /// followers) — end-to-end replication lag is
    /// `commit_lsn - min_follower_acked_lsn`.
    pub min_follower_acked_lsn: u64,
    /// Frames handed to follower connections (counted per follower).
    pub frames_shipped: u64,
    /// Bytes handed to follower connections (counted per follower).
    pub bytes_shipped: u64,
    /// Bootstrap snapshots served to subscribers.
    pub snapshots_served: u64,
    /// Whether this follower's stream is currently established.
    pub connected: bool,
    /// Streams re-established after a disconnect (follower side).
    pub reconnects: u64,
    /// Bootstrap snapshots this follower has applied.
    pub snapshots_loaded: u64,
}

impl Default for ReplStats {
    fn default() -> Self {
        ReplStats {
            role: ReplRole::Primary,
            replica_lsn: 0,
            commit_lsn: 0,
            followers: 0,
            min_follower_acked_lsn: 0,
            frames_shipped: 0,
            bytes_shipped: 0,
            snapshots_served: 0,
            connected: false,
            reconnects: 0,
            snapshots_loaded: 0,
        }
    }
}
