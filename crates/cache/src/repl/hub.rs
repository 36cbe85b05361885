//! The replication hub: tracks the commit watermark and fans sealed WAL
//! chunks out to subscribed follower connections.
//!
//! The write-ahead log is one file whose LSNs are minted in file order,
//! and it hands the hub each chunk of framed records — with the LSN of
//! the chunk's last record — as soon as the chunk reaches the file.
//! Chunks therefore arrive **in LSN order**: the hub's **commit
//! watermark** is simply the high LSN of the newest chunk, and a batch
//! handed to a subscriber is always the contiguous run `(commit, hi]`,
//! which is what lets a follower treat "applied batch with high
//! watermark `hi`" as "complete up to `hi`". A chunk at or below the
//! watermark can only repeat history the watermark already covers, and
//! is ignored.
//!
//! The hub exists on every durable cache (it is how
//! [`Cache::commit_lsn`](crate::Cache::commit_lsn) is computed);
//! subscribers only appear when a replication listener is serving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// One contiguous run of sealed frames: `(high watermark, framed bytes)`.
pub(crate) type StreamBatch = (u64, Arc<[u8]>);

#[derive(Debug, Default)]
struct HubState {
    /// Highest LSN such that every record at or below it is sealed.
    commit_lsn: u64,
    /// Live subscriber channels, by subscription id.
    subs: HashMap<u64, Sender<StreamBatch>>,
    /// Last LSN each subscriber acknowledged as applied.
    acked: HashMap<u64, u64>,
    next_sub: u64,
}

/// See the [module documentation](self).
#[derive(Debug)]
pub(crate) struct ReplHub {
    state: Mutex<HubState>,
    frames_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    snapshots_served: AtomicU64,
}

/// A subscriber whose connection has stopped draining (frozen follower
/// host, black-holed link with a full TCP buffer) is evicted once this
/// many undelivered batches pile up on its channel, instead of letting
/// the primary buffer the entire ongoing write stream for it. The
/// evicted follower's connection dies; on reconnect it bootstraps from
/// disk as usual.
const MAX_QUEUED_BATCHES: usize = 4096;

impl ReplHub {
    /// A hub whose commit watermark starts at `recovered_lsn` — every
    /// record at or below it is already durable on disk from a previous
    /// incarnation of this cache.
    pub fn new(recovered_lsn: u64) -> ReplHub {
        ReplHub {
            state: Mutex::new(HubState {
                commit_lsn: recovered_lsn,
                ..HubState::default()
            }),
            frames_shipped: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            snapshots_served: AtomicU64::new(0),
        }
    }

    /// Ingest one sealed chunk (the WAL's replication sink): framed
    /// records in LSN order, the last of which carries LSN `hi`.
    /// Advances the commit watermark to `hi` and fans the chunk out;
    /// a chunk at or below the watermark is stale and ignored.
    /// Subscribers that have stopped draining are evicted rather than
    /// buffered for without bound.
    pub fn ingest(&self, hi: u64, chunk: &[u8]) {
        let mut state = self.state.lock();
        let from = state.commit_lsn;
        if hi <= from {
            return;
        }
        state.commit_lsn = hi;
        if !state.subs.is_empty() {
            let stalled: Vec<u64> = state
                .subs
                .iter()
                .filter(|(_, tx)| tx.len() >= MAX_QUEUED_BATCHES)
                .map(|(id, _)| *id)
                .collect();
            for id in stalled {
                state.subs.remove(&id);
                state.acked.remove(&id);
            }
            self.frames_shipped
                .fetch_add((hi - from) * state.subs.len() as u64, Ordering::Relaxed);
            let shared: Arc<[u8]> = Arc::from(chunk);
            self.bytes_shipped.fetch_add(
                shared.len() as u64 * state.subs.len() as u64,
                Ordering::Relaxed,
            );
            state
                .subs
                .retain(|_, tx| tx.send((hi, Arc::clone(&shared))).is_ok());
        }
    }

    /// Attach a subscriber. Returns its id, the live-stream receiver,
    /// and the commit watermark **at attach time**: every frame above
    /// the watermark will arrive on the receiver, so the bootstrap path
    /// only needs disk history up to it.
    pub fn subscribe(&self) -> (u64, Receiver<StreamBatch>, u64) {
        let (tx, rx) = unbounded();
        let mut state = self.state.lock();
        let id = state.next_sub;
        state.next_sub += 1;
        state.subs.insert(id, tx);
        state.acked.insert(id, 0);
        (id, rx, state.commit_lsn)
    }

    /// Set the commit watermark to `lsn` — the follower-side snapshot
    /// bootstrap. Forwards: a loaded snapshot covers every record at or
    /// below its high watermark. Backwards: a divergence reset
    /// discarded local records, and the watermark must shrink to what
    /// the snapshot actually covers.
    pub fn reset_commit(&self, lsn: u64) {
        self.state.lock().commit_lsn = lsn;
    }

    /// Detach a subscriber (its connection is gone).
    pub fn unsubscribe(&self, id: u64) {
        let mut state = self.state.lock();
        state.subs.remove(&id);
        state.acked.remove(&id);
    }

    /// Record a follower ack: subscriber `id` has applied up to `lsn`.
    pub fn note_ack(&self, id: u64, lsn: u64) {
        let mut state = self.state.lock();
        if let Some(slot) = state.acked.get_mut(&id) {
            *slot = (*slot).max(lsn);
        }
    }

    /// Count one served bootstrap snapshot.
    pub fn note_snapshot_served(&self) {
        self.snapshots_served.fetch_add(1, Ordering::Relaxed);
    }

    /// The contiguous durable commit watermark.
    pub fn commit_lsn(&self) -> u64 {
        self.state.lock().commit_lsn
    }

    /// `(subscriber count, lowest acknowledged LSN across subscribers)`.
    /// The second element is 0 when there are no subscribers.
    pub fn follower_lag(&self) -> (usize, u64) {
        let state = self.state.lock();
        let min = state.acked.values().copied().min().unwrap_or(0);
        (state.subs.len(), min)
    }

    /// `(frames shipped, bytes shipped, snapshots served)` counters.
    pub fn ship_stats(&self) -> (u64, u64, u64) {
        (
            self.frames_shipped.load(Ordering::Relaxed),
            self.bytes_shipped.load(Ordering::Relaxed),
            self.snapshots_served.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal;

    fn frame_with_lsn(lsn: u64) -> Vec<u8> {
        // Any payload whose first u64 is the LSN is a valid hub frame;
        // use the real encoder so CRCs check out end to end.
        wal::encode_remove(lsn, "T", "k")
    }

    #[test]
    fn in_order_chunks_advance_the_watermark_and_reach_subscribers_verbatim() {
        let hub = ReplHub::new(0);
        let (_id, rx, at) = hub.subscribe();
        assert_eq!(at, 0);

        hub.ingest(1, &frame_with_lsn(1));
        assert_eq!(hub.commit_lsn(), 1);
        let mut chunk = frame_with_lsn(2);
        chunk.extend_from_slice(&frame_with_lsn(3));
        hub.ingest(3, &chunk);
        assert_eq!(hub.commit_lsn(), 3);

        // Each batch is the chunk as sealed, tagged with its high LSN,
        // and the batches tile the sequence: (0, 1], (1, 3].
        let mut commit = at;
        for (hi, bytes) in rx.try_iter() {
            let (frames, consumed) = wal::scan_frames(&bytes);
            assert_eq!(consumed, bytes.len());
            for frame in frames {
                commit += 1;
                let op = wal::decode_record(wal::frame_payload(frame)).unwrap();
                assert_eq!(op.lsn(), commit);
            }
            assert_eq!(hi, commit);
        }
        assert_eq!(commit, 3);
        assert_eq!(hub.ship_stats().0, 3);

        // A snapshot bootstrap moves the watermark in either direction.
        hub.reset_commit(10);
        assert_eq!(hub.commit_lsn(), 10);
        hub.reset_commit(2);
        assert_eq!(hub.commit_lsn(), 2);
    }

    #[test]
    fn acks_and_unsubscribe_track_follower_lag() {
        let hub = ReplHub::new(10);
        assert_eq!(hub.follower_lag(), (0, 0));
        let (a, _rx_a, _) = hub.subscribe();
        let (b, _rx_b, _) = hub.subscribe();
        hub.note_ack(a, 12);
        hub.note_ack(b, 11);
        assert_eq!(hub.follower_lag(), (2, 11));
        hub.unsubscribe(b);
        assert_eq!(hub.follower_lag(), (1, 12));
        // Stale acks never regress the watermark.
        hub.note_ack(a, 5);
        assert_eq!(hub.follower_lag(), (1, 12));
    }

    #[test]
    fn duplicate_and_stale_frames_are_ignored() {
        let hub = ReplHub::new(3);
        let (_id, rx, _) = hub.subscribe();
        hub.ingest(2, &frame_with_lsn(2)); // below the watermark: already durable
        hub.ingest(4, &frame_with_lsn(4));
        hub.ingest(4, &frame_with_lsn(4)); // duplicate
        assert_eq!(hub.commit_lsn(), 4);
        assert_eq!(rx.try_iter().count(), 1);
    }
}
