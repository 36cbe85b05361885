//! The follower side of replication: a background thread that dials the
//! primary, subscribes from the replica's applied watermark, and feeds
//! every shipped snapshot and frame batch through the cache's
//! recovery-style apply path.
//!
//! The thread owns the connection for the replica's whole life and
//! survives primary restarts: a failed dial or torn stream is retried
//! with **capped exponential backoff plus jitter** (the same reliable
//! re-subscription shape DDS-style middleware uses), and every
//! re-subscription resumes from `replica_lsn`, so reconnecting at an
//! arbitrary frame boundary can neither skip nor double-apply a record.
//! [`FollowerHandle::seal`] stops the stream cleanly — the promotion
//! path calls it before flipping the cache writable.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cache::CacheInner;
use crate::error::{Error, Result};
use crate::repl::proto::{self, FollowerMsg, PrimaryMsg};

use super::backoff_delay;

/// First retry delay after a failed dial or torn stream.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Retry delays stop growing here.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// State shared between the streaming thread and the owning cache.
#[derive(Debug)]
pub(crate) struct FollowerShared {
    /// The primary's replication endpoint.
    pub addr: String,
    /// Set by seal/shutdown; the thread exits at the next boundary.
    pub stop: AtomicBool,
    /// Whether a stream is currently established.
    pub connected: AtomicBool,
    /// Completed sessions that ended in a reconnect attempt (a restarted
    /// primary counts once per re-established stream).
    pub reconnects: AtomicU64,
    /// Bootstrap snapshots applied (a fresh follower loads one; a
    /// long-partitioned one may load more).
    pub snapshots_loaded: AtomicU64,
    /// The primary's commit watermark from its latest heartbeat — the
    /// other half of the bounded-staleness computation.
    pub primary_commit_lsn: AtomicU64,
    /// The live socket, for unblocking the reader on seal.
    stream: Mutex<Option<TcpStream>>,
}

/// A running follower stream; owned by the [`Cache`](crate::Cache).
#[derive(Debug)]
pub(crate) struct FollowerHandle {
    shared: Arc<FollowerShared>,
    thread: Option<JoinHandle<()>>,
}

impl FollowerHandle {
    /// Spawn the streaming thread against the primary at `addr`.
    pub fn start(inner: Weak<CacheInner>, addr: String) -> FollowerHandle {
        let shared = Arc::new(FollowerShared {
            addr: addr.clone(),
            stop: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            snapshots_loaded: AtomicU64::new(0),
            primary_commit_lsn: AtomicU64::new(0),
            stream: Mutex::new(None),
        });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("pscache-repl-follower".into())
            .spawn(move || run(inner, &run_shared))
            .expect("spawning the follower thread never fails");
        FollowerHandle {
            shared,
            thread: Some(thread),
        }
    }

    /// The shared stream state (for stats).
    pub fn shared(&self) -> &Arc<FollowerShared> {
        &self.shared
    }

    /// Seal the stream: stop the thread, close the socket, and wait for
    /// the in-flight batch to finish applying. After `seal` returns no
    /// further record will ever be applied.
    pub fn seal(self) {
        // Drop does the work; `seal` exists so call sites say what they
        // mean at promotion/shutdown time.
        drop(self);
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(stream) = self.shared.stream.lock().as_ref() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run(inner: Weak<CacheInner>, shared: &Arc<FollowerShared>) {
    let mut attempt: u32 = 0;
    let mut ever_connected = false;
    while !shared.stop.load(Ordering::Acquire) {
        if let Ok(stream) = TcpStream::connect(&shared.addr) {
            if let Ok(clone) = stream.try_clone() {
                *shared.stream.lock() = Some(clone);
            }
            shared.connected.store(true, Ordering::Release);
            if ever_connected {
                shared.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            ever_connected = true;
            attempt = 0;
            let _ = session(&inner, shared, stream);
            shared.connected.store(false, Ordering::Release);
            *shared.stream.lock() = None;
        }
        if shared.stop.load(Ordering::Acquire) || inner.strong_count() == 0 {
            break;
        }
        std::thread::sleep(backoff_delay(attempt, BACKOFF_BASE, BACKOFF_CAP));
        attempt = attempt.saturating_add(1);
    }
}

/// One established stream: subscribe from the replica watermark, then
/// apply whatever the primary sends until the connection dies or the
/// handle is sealed.
fn session(
    inner: &Weak<CacheInner>,
    shared: &Arc<FollowerShared>,
    stream: TcpStream,
) -> Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| Error::repl(e.to_string()))?);
    let mut writer = BufWriter::new(stream);
    let from_lsn = {
        let cache = inner.upgrade().ok_or_else(|| Error::repl("cache gone"))?;
        cache.repl_applied()
    };
    proto::write_magic(&mut writer)?;
    FollowerMsg::Subscribe { from_lsn }.write(&mut writer)?;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let Some(msg) = PrimaryMsg::read(&mut reader)? else {
            return Ok(());
        };
        let cache = inner.upgrade().ok_or_else(|| Error::repl("cache gone"))?;
        match msg {
            PrimaryMsg::Snapshot(bytes) => {
                cache.repl_apply_snapshot(&bytes)?;
                shared.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
                FollowerMsg::Ack {
                    lsn: cache.repl_applied(),
                }
                .write(&mut writer)?;
            }
            PrimaryMsg::Frames(bytes) => {
                let applied = cache.repl_apply_frames(&bytes)?;
                // How far behind the primary's advertised commit
                // watermark this replica still is after the apply —
                // recorded in *records*, not nanoseconds, into its own
                // histogram.
                let heard = shared.primary_commit_lsn.load(Ordering::Acquire);
                cache
                    .obs
                    .repl_apply_lag
                    .record(heard.saturating_sub(applied));
                FollowerMsg::Ack { lsn: applied }.write(&mut writer)?;
            }
            PrimaryMsg::Heartbeat { commit_lsn } => {
                shared
                    .primary_commit_lsn
                    .fetch_max(commit_lsn, Ordering::AcqRel);
            }
        }
    }
}
