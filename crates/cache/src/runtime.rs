//! The automaton execution runtime (§5 of the paper), on a pooled
//! executor.
//!
//! The paper's prototype animates every registered automaton with a
//! dedicated OS thread. That model stops scaling long before the
//! "millions of users" mark: a thousand registered automata is a
//! thousand mostly-idle threads. This runtime replaces it with a
//! **bounded worker pool** (sized by
//! [`CacheBuilder::automaton_workers`](crate::CacheBuilder::automaton_workers)):
//!
//! * every automaton is **pinned** to one worker (`id mod workers`) for
//!   its whole life; the worker owns the automaton's [`Vm`] — whose
//!   aggregate values are deliberately not `Send` — so VM state never
//!   crosses a thread boundary;
//! * a worker's FIFO channel is the fused **single-owner mailbox** of
//!   the automata pinned to it: the cache enqueues registration,
//!   events and unregistration in order, and the worker consumes them
//!   in order, which preserves the per-automaton delivery guarantee of
//!   the thread-per-automaton design (tuples of one table arrive in
//!   strict time-of-insertion order, batches arrive contiguously);
//! * unregistration is a **drain with a completion**: the `Unregister`
//!   message queues *behind* every event already mailed to the
//!   automaton, so by the time its completion runs the mailbox has been
//!   drained by processing; late events that raced past unregistration
//!   are discarded deterministically (their automaton no longer exists
//!   on the worker).
//!
//! Ordering across automata — even two automata pinned to the same
//! worker — is unspecified, exactly as it was across dedicated
//! threads. While processing an event an automaton may `send()`
//! notifications (surfaced as [`Notification`]s) and `publish()`
//! tuples into other tables, potentially cascading into other automata
//! on other workers; channels are unbounded, so cascades never
//! deadlock the pool.
//!
//! **Durability and replay.** When the cache is opened from a
//! durability directory (see [`crate::wal`]), recovered inserts are
//! applied to the tables *before* the cache is handed back to the
//! application, through a path that never touches the dispatch index —
//! so no worker mailbox ever receives a replayed tuple. An automaton
//! registered on a recovered cache starts from its `initialization`
//! clause and observes live traffic only; automaton state (VM
//! variables) is deliberately not durable, but any state an automaton
//! `insert()`s into an associated persistent table is.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use gapl::event::{Scalar, Timestamp, Tuple};
use gapl::vm::{HostInterface, Vm};
use gapl::Program;

use crate::cache::CacheInner;

/// Identifies a registered automaton; returned by registration and used to
/// manage the automaton later (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AutomatonId(pub u64);

impl std::fmt::Display for AutomatonId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "automaton#{}", self.0)
    }
}

/// A complex-event notification produced by an automaton's `send()` and
/// delivered to the application that registered it.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The automaton that sent the notification.
    pub automaton: AutomatonId,
    /// The flattened values passed to `send()`.
    pub values: Vec<Scalar>,
    /// The cache time at which the notification was produced.
    pub at: Timestamp,
}

/// Where an automaton's notifications go: handed over at registration
/// and owned by the automaton from its first instruction to the moment
/// the owning pool worker drops it in [`Cache::detach_automaton`]'s
/// drain — so every notification an automaton ever produced has been
/// delivered by the time the drain completes, and none can follow.
///
/// `deliver` runs on the pool worker that executed `send()`, which
/// fixes what an implementation may do:
///
/// * it **never blocks** — a buffer append or an unbounded channel send
///   only; a pool worker must never wait on a client socket;
/// * automata pinned to different workers may share one destination, so
///   sinks for one destination run **concurrently**: whatever a sink
///   writes for one notification must land atomically with respect to
///   its siblings (one lock acquisition), and a capacity policy decided
///   on the destination must be decided under that same acquisition and
///   take effect once;
/// * one automaton's notifications are delivered in its worker's program
///   order; order across automata is unspecified;
/// * a sink may defer the wake-up that tells its consumer new bytes are
///   there until [`flush`](NotificationSink::flush), which the owning
///   worker calls once per drained run of its mailbox on every automaton
///   that ran in it, after the `initialization` clause, before it runs
///   an unregistration's completion and before it exits — so a deferred
///   wake is always paid before the worker blocks again and before the
///   `Unregistered` reply can be sent.
///
/// [`Cache::detach_automaton`]: crate::Cache::detach_automaton
pub trait NotificationSink {
    /// Deliver one notification; `false` means the destination is gone
    /// (the automaton keeps running — see `HostInterface::send`).
    fn deliver(&self, note: Notification) -> bool;

    /// Pay any wake-up `deliver` deferred. The default does nothing:
    /// a sink that wakes its consumer on every delivery owes none.
    fn flush(&self) {}
}

impl NotificationSink for Sender<Notification> {
    fn deliver(&self, note: Notification) -> bool {
        self.send(note).is_ok()
    }
}

/// Everything a worker needs to bring an automaton to life on its own
/// thread. The [`Vm`] is constructed worker-side because its values are
/// not `Send`.
pub(crate) struct RegisterCmd {
    pub id: AutomatonId,
    pub program: Arc<Program>,
    pub cache: Weak<CacheInner>,
    pub notifier: Box<dyn NotificationSink + Send>,
    pub stats: Arc<AutomatonStats>,
}

/// A message in a worker's mailbox.
pub(crate) enum WorkerMsg {
    /// Create the automaton's VM and run its `initialization` clause.
    Register(Box<RegisterCmd>),
    /// An event published on a subscribed topic.
    Event {
        /// Target automaton.
        id: AutomatonId,
        /// The topic the tuple was inserted into.
        topic: Arc<str>,
        /// The tuple itself.
        tuple: Tuple,
        /// When the publisher enqueued the event; the worker subtracts
        /// it at pickup to record dispatch queue latency.
        enqueued: Instant,
    },
    /// Drop the automaton's VM once every earlier event in the mailbox
    /// has been processed, then complete.
    Unregister {
        /// Target automaton.
        id: AutomatonId,
        /// Runs after the drain.
        then: Completion,
    },
    /// Drain the mailbox and exit the worker thread.
    Shutdown,
}

/// An unregistration's completion. It runs when dropped, so exactly once
/// even if the pool exits with it queued; it never blocks.
pub(crate) struct Completion(pub Option<Box<dyn FnOnce() + Send>>);

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(then) = self.0.take() {
            then();
        }
    }
}

/// Counters and buffers shared between the executor and the cache.
#[derive(Debug, Default)]
pub(crate) struct AutomatonStats {
    /// Events enqueued for this automaton.
    pub delivered: AtomicU64,
    /// Events fully processed by the behavior clause.
    pub processed: AtomicU64,
    /// High-water mark of the mailbox backlog (`delivered - processed`
    /// observed at enqueue time).
    pub max_queue_depth: AtomicU64,
    /// Runtime errors raised while processing events.
    pub errors: LineRing,
    /// Lines produced by `print()`.
    pub printed: LineRing,
}

/// How many lines each automaton's `print()` log and error log keep;
/// older lines are dropped, so an automaton that prints on every event
/// holds a bounded amount of memory however long it runs.
pub const AUTOMATON_LOG_LINES: usize = 1024;

/// The newest [`AUTOMATON_LOG_LINES`] lines of one log.
#[derive(Debug, Default)]
pub(crate) struct LineRing(Mutex<VecDeque<String>>);

impl LineRing {
    /// Append a line, dropping the oldest one when full.
    pub fn push(&self, line: String) {
        let mut lines = self.0.lock();
        if lines.len() == AUTOMATON_LOG_LINES {
            lines.pop_front();
        }
        lines.push_back(line);
    }

    /// The retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.0.lock().iter().cloned().collect()
    }
}

impl AutomatonStats {
    /// Count one enqueued event and update the backlog high-water mark.
    pub fn record_enqueued(&self) {
        let delivered = self.delivered.fetch_add(1, Ordering::AcqRel) + 1;
        let processed = self.processed.load(Ordering::Acquire);
        self.max_queue_depth
            .fetch_max(delivered.saturating_sub(processed), Ordering::AcqRel);
    }

    /// Events currently waiting in the automaton's mailbox.
    pub fn queue_depth(&self) -> u64 {
        self.delivered
            .load(Ordering::Acquire)
            .saturating_sub(self.processed.load(Ordering::Acquire))
    }
}

/// The bounded worker pool animating every registered automaton.
#[derive(Debug)]
pub(crate) struct Executor {
    txs: Vec<Sender<WorkerMsg>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Start `workers` pool threads (at least one). Every worker
    /// records dispatch queue latency into `obs` at event pickup.
    pub fn start(workers: usize, obs: Arc<crate::obs::Obs>) -> Executor {
        let workers = workers.max(1);
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for n in 0..workers {
            let (tx, rx) = unbounded();
            let obs = Arc::clone(&obs);
            let join = std::thread::Builder::new()
                .name(format!("automaton-worker-{n}"))
                .spawn(move || worker_loop(rx, obs))
                .expect("spawning a pool worker never fails on supported platforms");
            txs.push(tx);
            joins.push(join);
        }
        Executor {
            txs,
            joins: Mutex::new(joins),
        }
    }

    /// Number of pool workers.
    pub fn worker_count(&self) -> usize {
        self.txs.len()
    }

    /// The mailbox of the worker that owns `id`. Pinning is static, so
    /// every message for one automaton lands in the same FIFO.
    pub fn sender_for(&self, id: AutomatonId) -> &Sender<WorkerMsg> {
        &self.txs[(id.0 as usize) % self.txs.len()]
    }

    /// Ask every worker to drain its mailbox and exit, then join them.
    /// Idempotent: later calls find nothing to join.
    pub fn shutdown(&self) {
        for tx in &self.txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        let joins = std::mem::take(&mut *self.joins.lock());
        let current = std::thread::current().id();
        for join in joins {
            // The executor can be dropped *on a pool worker*: if an
            // automaton behavior holds the last temporarily upgraded
            // Arc<CacheInner> when the final Cache clone goes away,
            // CacheInner (and this executor) drop on that worker's own
            // thread. Joining ourselves would deadlock/panic — detach
            // instead; the worker exits as soon as the behavior returns
            // and its (already sent) Shutdown message is consumed.
            if join.thread().id() == current {
                drop(join);
            } else {
                let _ = join.join();
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: owns the VMs of the automata pinned to it and consumes
/// its mailbox in FIFO order, in drained runs. A run is the message
/// `recv` returned plus those already queued behind it at that moment —
/// bounded, so a busy mailbox cannot postpone the run's end — and it
/// ends by flushing the sink of every automaton that ran in it, so a
/// burst of notifications costs its destination one wake-up, not one
/// per notification.
fn worker_loop(rx: Receiver<WorkerMsg>, obs: Arc<crate::obs::Obs>) {
    struct Runner {
        vm: Vm,
        host: CacheHost,
        /// Ran in the current run and is listed in `ran`.
        ran: bool,
    }
    let mut runners: HashMap<u64, Runner> = HashMap::new();
    let mut ran: Vec<u64> = Vec::new();
    while let Ok(first) = rx.recv() {
        let queued = rx.len();
        for msg in std::iter::once(first).chain(rx.try_iter().take(queued)) {
            match msg {
                WorkerMsg::Register(cmd) => {
                    let mut host = CacheHost {
                        cache: cmd.cache,
                        automaton: cmd.id,
                        notifier: cmd.notifier,
                        stats: cmd.stats,
                    };
                    let mut vm = Vm::new(cmd.program);
                    if let Err(e) = vm.run_initialization(&mut host) {
                        host.stats.errors.push(format!("initialization: {e}"));
                    }
                    host.notifier.flush();
                    runners.insert(
                        cmd.id.0,
                        Runner {
                            vm,
                            host,
                            ran: false,
                        },
                    );
                }
                WorkerMsg::Event {
                    id,
                    topic,
                    tuple,
                    enqueued,
                } => {
                    obs.dispatch_queue_ns.record_duration(enqueued.elapsed());
                    // An absent runner means the automaton was
                    // unregistered while this event was in flight;
                    // discarding is the deterministic choice (the drain
                    // has already completed, so nobody is waiting on
                    // this event).
                    let Some(runner) = runners.get_mut(&id.0) else {
                        continue;
                    };
                    if let Err(e) = runner.vm.run_behavior(&topic, &tuple, &mut runner.host) {
                        runner.host.stats.errors.push(format!("behavior: {e}"));
                    }
                    runner.host.stats.processed.fetch_add(1, Ordering::Release);
                    if !runner.ran {
                        runner.ran = true;
                        ran.push(id.0);
                    }
                }
                WorkerMsg::Unregister { id, then } => {
                    // Every notification is handed over before completing.
                    if let Some(runner) = runners.remove(&id.0) {
                        runner.host.notifier.flush();
                    }
                    drop(then);
                }
                WorkerMsg::Shutdown => {
                    flush_ran(&mut runners, &mut ran);
                    return;
                }
            }
        }
        flush_ran(&mut runners, &mut ran);
    }

    fn flush_ran(runners: &mut HashMap<u64, Runner>, ran: &mut Vec<u64>) {
        for id in ran.drain(..) {
            if let Some(runner) = runners.get_mut(&id) {
                runner.ran = false;
                runner.host.notifier.flush();
            }
        }
    }
}

/// The [`HostInterface`] implementation that wires an automaton into the
/// cache: `publish()` becomes an insertion (which may cascade to other
/// automata), `send()` becomes a [`Notification`], and associations resolve
/// to the cache's persistent tables.
pub(crate) struct CacheHost {
    pub cache: Weak<CacheInner>,
    pub automaton: AutomatonId,
    pub notifier: Box<dyn NotificationSink + Send>,
    pub stats: Arc<AutomatonStats>,
}

impl CacheHost {
    fn cache(&self) -> gapl::Result<Arc<CacheInner>> {
        self.cache
            .upgrade()
            .ok_or_else(|| gapl::Error::runtime("the cache has been shut down"))
    }
}

impl HostInterface for CacheHost {
    fn now(&self) -> Timestamp {
        self.cache.upgrade().map(|c| c.now()).unwrap_or(0)
    }

    fn publish(&mut self, topic: &str, values: Vec<Scalar>) -> gapl::Result<()> {
        let cache = self.cache()?;
        cache
            .insert_values(topic, values, true)
            .map(|_| ())
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }

    fn send(&mut self, values: Vec<Scalar>) -> gapl::Result<()> {
        let at = self.now();
        // A vanished application is not an automaton error: the paper's
        // cache keeps automata running even when the registering process is
        // slow or gone, so a refused delivery is silently tolerated.
        let _ = self.notifier.deliver(Notification {
            automaton: self.automaton,
            values,
            at,
        });
        Ok(())
    }

    fn print(&mut self, text: &str) {
        self.stats.printed.push(text.to_owned());
    }

    fn assoc_lookup(&mut self, table: &str, key: &str) -> gapl::Result<Option<Vec<Scalar>>> {
        let cache = self.cache()?;
        cache
            .persistent_lookup(table, key)
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }

    fn assoc_insert(&mut self, table: &str, key: &str, values: Vec<Scalar>) -> gapl::Result<()> {
        let cache = self.cache()?;
        cache
            .persistent_upsert(table, key, values)
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }

    fn assoc_has_entry(&mut self, table: &str, key: &str) -> gapl::Result<bool> {
        Ok(self.assoc_lookup(table, key)?.is_some())
    }

    fn assoc_remove(&mut self, table: &str, key: &str) -> gapl::Result<()> {
        let cache = self.cache()?;
        cache
            .persistent_remove(table, key)
            .map(|_| ())
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }

    fn assoc_size(&mut self, table: &str) -> gapl::Result<usize> {
        let cache = self.cache()?;
        cache
            .table_len(table)
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }

    fn assoc_keys(&mut self, table: &str) -> gapl::Result<Vec<String>> {
        let cache = self.cache()?;
        cache
            .persistent_keys(table)
            .map_err(|e| gapl::Error::runtime(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automaton_id_displays_compactly() {
        assert_eq!(AutomatonId(7).to_string(), "automaton#7");
    }

    #[test]
    fn notification_is_cloneable_and_comparable() {
        let n = Notification {
            automaton: AutomatonId(1),
            values: vec![Scalar::Int(3)],
            at: 12,
        };
        assert_eq!(n.clone(), n);
    }

    #[test]
    fn stats_start_at_zero_and_track_the_backlog() {
        let s = AutomatonStats::default();
        assert_eq!(s.delivered.load(Ordering::Relaxed), 0);
        assert_eq!(s.processed.load(Ordering::Relaxed), 0);
        assert_eq!(s.queue_depth(), 0);
        assert!(s.errors.lines().is_empty());
        assert!(s.printed.lines().is_empty());
        s.record_enqueued();
        s.record_enqueued();
        assert_eq!(s.queue_depth(), 2);
        assert_eq!(s.max_queue_depth.load(Ordering::Relaxed), 2);
        s.processed.fetch_add(2, Ordering::Release);
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.max_queue_depth.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn executor_pins_automata_to_workers_and_shuts_down_cleanly() {
        let obs = Arc::new(crate::obs::Obs::new(std::time::Duration::from_secs(1)));
        let pool = Executor::start(3, obs);
        assert_eq!(pool.worker_count(), 3);
        // Pinning is stable and spreads ids round-robin.
        for id in 0..9u64 {
            let a = pool.sender_for(AutomatonId(id)) as *const _;
            let b = pool.sender_for(AutomatonId(id)) as *const _;
            assert_eq!(a, b);
        }
        pool.shutdown();
        pool.shutdown(); // idempotent
    }

    /// A completion runs exactly once on each of its three paths: the
    /// worker processes the message, the exiting worker drops it still
    /// queued, or the closed mailbox refuses it.
    #[test]
    fn an_unregister_completion_runs_once_whether_or_not_a_worker_sees_it() {
        let obs = Arc::new(crate::obs::Obs::new(std::time::Duration::from_secs(1)));
        let pool = Executor::start(1, obs);
        let runs = Arc::new(AtomicU64::new(0));
        let unregister = |id| {
            let runs = Arc::clone(&runs);
            WorkerMsg::Unregister {
                id: AutomatonId(id),
                then: Completion(Some(Box::new(move || {
                    runs.fetch_add(1, Ordering::AcqRel);
                }))),
            }
        };
        let tx = pool.sender_for(AutomatonId(0)).clone();
        // Processed: the worker drains it like any other message.
        tx.send(unregister(0)).ok().unwrap();
        // Queued behind the worker's exit, then refused after it.
        tx.send(WorkerMsg::Shutdown).ok().unwrap();
        let _ = tx.send(unregister(1));
        pool.shutdown();
        assert_eq!(runs.load(Ordering::Acquire), 2);
        assert!(tx.send(unregister(2)).is_err());
        assert_eq!(runs.load(Ordering::Acquire), 3);
    }
}
