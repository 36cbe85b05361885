//! The subscription bridge: cross-partition automaton delivery over the
//! replication stream.
//!
//! An automaton registered on one partition must see the **full
//! topic** — rows inserted on every partition, not just the local one.
//! Rather than invent a second fan-out protocol, the bridge rides the
//! transport the cluster already has: each remote partition's primary
//! serves its WAL over the replication listener
//! ([`crate::repl::proto`]), and the bridge subscribes to it exactly
//! like a follower would — except that instead of *applying* the
//! shipped records it **publishes** their insert rows to the local
//! dispatch layer, waking local automata.
//!
//! Properties inherited from the transport, for free:
//!
//! * **Per-partition delivery order.** One thread per peer consumes one
//!   TCP stream of frames in LSN order; rows from a given partition
//!   reach local automata in that partition's insertion order.
//! * **Exactly-once.** Every record carries its LSN; the bridge keeps a
//!   per-peer watermark and drops anything at or below it, so a
//!   reconnect at an arbitrary frame boundary (or a failover re-dial)
//!   can neither skip nor double-deliver a record — the same dedup rule
//!   the follower apply path uses.
//! * **Failover continuity.** A promoted follower's log is an exact
//!   byte prefix-extension of its dead primary's, with the same LSNs.
//!   [`SubBridge::rebind`] points the peer at the promoted node and the
//!   next session resumes from the watermark as if nothing happened.
//!
//! What the bridge deliberately does **not** do: it never inserts the
//! remote rows into local tables (rows live only on their owning
//! partition; queries scatter-gather instead), it skips bootstrap
//! snapshots (retained history is not live traffic — matching local
//! automata, which only see inserts after registration), and it skips
//! the built-in `Timer` topic (each node runs its own timer; bridging
//! remote ticks would deliver N ticks per interval).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cache::{Cache, CacheInner, TIMER_TOPIC};
use crate::error::{Error, Result};
use crate::repl::backoff_delay;
use crate::repl::proto::{self, FollowerMsg, PrimaryMsg};
use crate::wal;

/// First retry delay after a failed dial or torn stream.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Retry delays stop growing here.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Shared state of one bridged peer (a remote partition's repl stream).
#[derive(Debug)]
struct PeerShared {
    /// The remote partition's index, for observability and rebinds.
    partition: usize,
    /// The peer's replication endpoint; swapped by [`SubBridge::rebind`].
    addr: Mutex<String>,
    /// Bumped on every rebind; a running session notices and re-dials.
    generation: AtomicU64,
    /// Highest LSN already delivered from this peer — the exactly-once
    /// dedup line, and the `from_lsn` of every (re)subscription.
    watermark: AtomicU64,
    /// Whether a stream is currently established.
    connected: AtomicBool,
    /// Rows published to local automata from this peer.
    rows_delivered: AtomicU64,
    /// The live socket, for unblocking the reader on stop/rebind.
    stream: Mutex<Option<TcpStream>>,
}

/// A running subscription bridge; owned alongside the local [`Cache`].
/// Dropping it stops every peer thread.
#[derive(Debug)]
pub struct SubBridge {
    stop: Arc<AtomicBool>,
    peers: Vec<Arc<PeerShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl SubBridge {
    /// Bridge `cache`'s automata to the replication streams of
    /// `peers` — `(partition index, repl listener address)` pairs,
    /// normally every partition of the cluster except the local one.
    #[must_use]
    pub fn start(cache: &Cache, peers: Vec<(usize, String)>) -> SubBridge {
        let stop = Arc::new(AtomicBool::new(false));
        let inner = cache.inner_weak();
        let mut shareds = Vec::with_capacity(peers.len());
        let mut threads = Vec::with_capacity(peers.len());
        for (partition, addr) in peers {
            let shared = Arc::new(PeerShared {
                partition,
                addr: Mutex::new(addr),
                generation: AtomicU64::new(0),
                watermark: AtomicU64::new(0),
                connected: AtomicBool::new(false),
                rows_delivered: AtomicU64::new(0),
                stream: Mutex::new(None),
            });
            let run_shared = Arc::clone(&shared);
            let run_stop = Arc::clone(&stop);
            let run_inner = inner.clone();
            let thread = std::thread::Builder::new()
                .name(format!("pscache-sub-bridge-{partition}"))
                .spawn(move || run(&run_inner, &run_shared, &run_stop))
                .expect("spawning a bridge thread never fails");
            shareds.push(shared);
            threads.push(thread);
        }
        SubBridge {
            stop,
            peers: shareds,
            threads,
        }
    }

    /// Repoint `partition` at a new replication endpoint — the failover
    /// move after promoting that partition's follower. The running
    /// session is cut and the next one resumes from the delivered
    /// watermark, so no record is skipped or double-delivered across
    /// the switch.
    pub fn rebind(&self, partition: usize, addr: impl Into<String>) {
        let addr = addr.into();
        for peer in &self.peers {
            if peer.partition == partition {
                *peer.addr.lock() = addr.clone();
                peer.generation.fetch_add(1, Ordering::Release);
                if let Some(stream) = peer.stream.lock().as_ref() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
    }

    /// Total rows published to local automata across all peers.
    #[must_use]
    pub fn rows_delivered(&self) -> u64 {
        self.peers
            .iter()
            .map(|p| p.rows_delivered.load(Ordering::Acquire))
            .sum()
    }

    /// Peers with an established stream right now.
    #[must_use]
    pub fn connected_peers(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| p.connected.load(Ordering::Acquire))
            .count()
    }

    /// Per-peer `(partition, delivered watermark)` pairs.
    #[must_use]
    pub fn watermarks(&self) -> Vec<(usize, u64)> {
        self.peers
            .iter()
            .map(|p| (p.partition, p.watermark.load(Ordering::Acquire)))
            .collect()
    }
}

impl Drop for SubBridge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for peer in &self.peers {
            if let Some(stream) = peer.stream.lock().as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn run(inner: &Weak<CacheInner>, shared: &Arc<PeerShared>, stop: &Arc<AtomicBool>) {
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::Acquire) {
        let addr = shared.addr.lock().clone();
        let generation = shared.generation.load(Ordering::Acquire);
        if let Ok(stream) = TcpStream::connect(&addr) {
            if let Ok(clone) = stream.try_clone() {
                *shared.stream.lock() = Some(clone);
            }
            shared.connected.store(true, Ordering::Release);
            attempt = 0;
            let _ = session(inner, shared, stop, generation, stream);
            shared.connected.store(false, Ordering::Release);
            *shared.stream.lock() = None;
        }
        if stop.load(Ordering::Acquire) || inner.strong_count() == 0 {
            break;
        }
        // A rebind re-dials immediately; only genuine failures back off.
        if shared.generation.load(Ordering::Acquire) == generation {
            std::thread::sleep(backoff_delay(attempt, BACKOFF_BASE, BACKOFF_CAP));
            attempt = attempt.saturating_add(1);
        } else {
            attempt = 0;
        }
    }
}

/// One established stream: subscribe from the delivered watermark, then
/// publish every new insert record until the connection dies, the
/// bridge stops, or a rebind invalidates this session's generation.
fn session(
    inner: &Weak<CacheInner>,
    shared: &Arc<PeerShared>,
    stop: &Arc<AtomicBool>,
    generation: u64,
    stream: TcpStream,
) -> Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader =
        std::io::BufReader::new(stream.try_clone().map_err(|e| Error::repl(e.to_string()))?);
    let mut writer = std::io::BufWriter::new(stream);
    proto::write_magic(&mut writer)?;
    FollowerMsg::Subscribe {
        from_lsn: shared.watermark.load(Ordering::Acquire),
    }
    .write(&mut writer)?;
    loop {
        if stop.load(Ordering::Acquire) || shared.generation.load(Ordering::Acquire) != generation {
            return Ok(());
        }
        let Some(msg) = PrimaryMsg::read(&mut reader)? else {
            return Ok(());
        };
        let cache = inner.upgrade().ok_or_else(|| Error::repl("cache gone"))?;
        match msg {
            PrimaryMsg::Snapshot(bytes) => {
                // Retained history is not live traffic: skip the rows,
                // advance the watermark past everything the snapshot
                // covers so the following backlog replay deduplicates
                // correctly.
                let high = wal::scan_snapshot_high_watermark(&bytes)?;
                let watermark = shared.watermark.fetch_max(high, Ordering::AcqRel).max(high);
                FollowerMsg::Ack { lsn: watermark }.write(&mut writer)?;
            }
            PrimaryMsg::Frames(bytes) => {
                let delivered = publish_frames(&cache, shared, &bytes);
                FollowerMsg::Ack { lsn: delivered }.write(&mut writer)?;
            }
            PrimaryMsg::Heartbeat { .. } => {}
        }
    }
}

/// Publish the insert records of one shipped frame batch, deduplicating
/// by LSN against the peer watermark. Returns the new watermark.
fn publish_frames(cache: &Arc<CacheInner>, shared: &Arc<PeerShared>, bytes: &[u8]) -> u64 {
    let mut watermark = shared.watermark.load(Ordering::Acquire);
    for (lsn, frame) in wal::split_frames(bytes) {
        if lsn <= watermark {
            continue;
        }
        // A frame that fails to decode is skipped, not fatal: the CRC
        // already validated the bytes, so a decode failure means a
        // record kind this version does not know — ignoring it keeps
        // the bridge forward-compatible.
        if let Ok(wal::ReplayOp::Insert {
            table,
            tstamp,
            rows,
            ..
        }) = wal::decode_record(wal::frame_payload(frame))
        {
            if !table.starts_with('\u{1}') && table != TIMER_TOPIC {
                let published = cache.publish_remote(&table, &rows, tstamp);
                shared
                    .rows_delivered
                    .fetch_add(published as u64, Ordering::Release);
            }
        }
        watermark = lsn;
        shared.watermark.store(watermark, Ordering::Release);
    }
    watermark
}
