//! The cache itself: tables unified with publish/subscribe topics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use gapl::event::{AttrType, Scalar, Schema, Timestamp, Tuple};

use crate::clock::{Clock, ManualClock, SystemClock};
use crate::cluster::ClusterSpec;
use crate::config::{DEFAULT_AUTOMATON_WORKERS, DEFAULT_CHECKPOINT_EVERY, DEFAULT_TOKEN_HISTORY};
use crate::dispatch::{DispatchIndex, TopicDispatch};
use crate::error::{Error, Result};
use crate::obs::{MetricsSnapshot, Obs};
use crate::plan::QueryPlan;
use crate::protect::{ClientPolicy, IdemToken, TokenOutcome, TokenTable};
use crate::query::{Query, ResultSet};
use crate::repl::follower::FollowerHandle;
use crate::repl::hub::ReplHub;
use crate::repl::server::ReplListener;
use crate::repl::{ReplRole, ReplStats};
use crate::runtime::{
    AutomatonId, AutomatonStats, Completion, Executor, Notification, NotificationSink, RegisterCmd,
    WorkerMsg,
};
use crate::sql::{self, Command};
use crate::table::{Table, TableKind, TableStore, DEFAULT_STREAM_CAPACITY};
use crate::wal::{self, Recovery, ReplayOp, SnapshotTable, Wal, WalStats};

/// [`CacheInner::role`] encoding: writable primary.
const ROLE_PRIMARY: u8 = 0;
/// [`CacheInner::role`] encoding: read-only follower.
const ROLE_FOLLOWER: u8 = 1;

/// Name of the built-in heartbeat topic (§4.2): the cache delivers a tuple
/// on `Timer` once per second (or whenever [`Cache::tick_timer`] is called),
/// consisting simply of a timestamp.
pub const TIMER_TOPIC: &str = "Timer";

/// The response to an executed SQL-ish command.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A table (and its topic) was created.
    Created,
    /// A tuple was inserted; `replaced` is true when an existing row was
    /// updated via `on duplicate key update`.
    Inserted {
        /// Whether an existing keyed row was replaced.
        replaced: bool,
        /// The insertion timestamp assigned by the cache.
        tstamp: Timestamp,
    },
    /// A multi-row insert was applied; one timestamp per inserted tuple,
    /// in insertion order.
    InsertedBatch {
        /// Insertion timestamps assigned by the cache, in row order.
        tstamps: Vec<Timestamp>,
    },
    /// Rows returned by a `select`.
    Rows(ResultSet),
}

impl Response {
    /// The result set of a `select`, if this response carries one.
    pub fn rows(self) -> Option<ResultSet> {
        match self {
            Response::Rows(rs) => Some(rs),
            _ => None,
        }
    }
}

/// Per-automaton dispatch telemetry (see
/// [`Cache::automaton_telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutomatonTelemetry {
    /// Events enqueued into the automaton's mailbox.
    pub delivered: u64,
    /// Events fully processed by its behavior clause.
    pub processed: u64,
    /// Events published on its subscribed topics that the predicate
    /// index proved could not affect it and therefore never delivered.
    pub skipped_by_prefilter: u64,
    /// Events currently waiting in its mailbox.
    pub queue_depth: u64,
    /// The largest mailbox backlog ever observed at enqueue time.
    pub max_queue_depth: u64,
}

/// Builder for a [`Cache`].
///
/// # Example
///
/// ```
/// let cache = pscache::CacheBuilder::new().manual_clock().build();
/// assert!(cache.table_names().contains(&"Timer".to_string()));
/// ```
#[derive(Debug)]
pub struct CacheBuilder {
    clock: Arc<dyn Clock>,
    manual_clock: Option<ManualClock>,
    timer_interval: Option<Duration>,
    automaton_workers: usize,
    rpc_workers: usize,
    durability: Option<PathBuf>,
    checkpoint_every: u64,
    replicate_to: Option<String>,
    follow: Option<String>,
    client_policy: ClientPolicy,
    token_history: usize,
    slow_op_threshold: Duration,
}

impl Default for CacheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheBuilder {
    /// A builder with the wall clock, no durability and no background
    /// timer thread. Every other setting starts at its documented
    /// default; a stream created without its own `capacity` holds
    /// [`DEFAULT_STREAM_CAPACITY`] tuples.
    pub fn new() -> Self {
        CacheBuilder {
            clock: Arc::new(SystemClock),
            manual_clock: None,
            timer_interval: None,
            automaton_workers: DEFAULT_AUTOMATON_WORKERS,
            rpc_workers: crate::config::DEFAULT_RPC_WORKERS,
            durability: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            replicate_to: None,
            follow: None,
            client_policy: ClientPolicy::default(),
            token_history: DEFAULT_TOKEN_HISTORY,
            slow_op_threshold: crate::config::DEFAULT_SLOW_OP_THRESHOLD,
        }
    }

    /// Operations whose end-to-end RPC service time (queue-wait +
    /// execute + reply-flush, as measured by the reactor) meets or
    /// exceeds this threshold are captured in the bounded slow-op log
    /// with their client-stamped trace id and per-stage breakdown
    /// (default
    /// [`DEFAULT_SLOW_OP_THRESHOLD`](crate::config::DEFAULT_SLOW_OP_THRESHOLD)).
    pub fn slow_op_threshold(mut self, threshold: Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// Per-client admission policy enforced by an event-driven RPC
    /// server (`psrpc::reactor::ReactorServer`) fronting this cache:
    /// request/byte rate limits, in-flight caps and slow-consumer
    /// eviction. The default [`ClientPolicy`] disables every limit.
    /// Stored on the cache (like [`CacheBuilder::rpc_workers`]) so
    /// deployments tune one builder, not every transport call site.
    pub fn client_policy(mut self, policy: ClientPolicy) -> Self {
        self.client_policy = policy;
        self
    }

    /// Outcomes remembered per client in the idempotency-token table
    /// (default [`DEFAULT_TOKEN_HISTORY`]); the oldest entries are
    /// evicted FIFO beyond this. Clamped to at least 1.
    pub fn token_history(mut self, entries: usize) -> Self {
        self.token_history = entries.max(1);
        self
    }

    /// Serve this cache's write-ahead-log stream to follower replicas at
    /// `addr` (use port 0 for an ephemeral port; the bound address is
    /// [`Cache::repl_addr`]). Requires [`CacheBuilder::durability`] —
    /// the stream ships sealed log frames, so there must be a log.
    ///
    /// Followers connect with [`Cache::follow`] /
    /// [`CacheBuilder::follow`]; a durable follower may itself
    /// `replicate_to`, chaining the stream onward.
    pub fn replicate_to(mut self, addr: impl Into<String>) -> Self {
        self.replicate_to = Some(addr.into());
        self
    }

    /// Open this cache as a **read-only follower** of the primary
    /// serving replication at `addr`. The follower applies the
    /// primary's stream through the recovery path (never publishing to
    /// automata), answers queries with bounded staleness
    /// ([`Cache::replica_lsn`]), survives primary restarts with capped
    /// exponential backoff, and becomes writable via
    /// [`Cache::promote`]. Combine with [`CacheBuilder::durability`]
    /// for a follower that persists the shipped log and can restart or
    /// be promoted without data loss.
    pub fn follow(mut self, addr: impl Into<String>) -> Self {
        self.follow = Some(addr.into());
        self
    }

    /// Enable durability: persistent tables are write-ahead logged into
    /// `dir` and [`CacheBuilder::open`] (or [`Cache::recover`]) restores
    /// them after a crash or restart. The directory is created if
    /// missing; if it already holds a log, **building the cache replays
    /// it** — a durable cache always comes up with its recovered state.
    ///
    /// Ephemeral streams are never logged: after recovery they exist
    /// (their `create table` is durable) but hold no rows, matching
    /// their in-memory, ring-buffered semantics.
    pub fn durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }

    /// Logged records between automatic checkpoints (default
    /// [`DEFAULT_CHECKPOINT_EVERY`]; 0 disables automatic checkpoints —
    /// [`Cache::checkpoint`] still works). Each writes what changed
    /// since the previous one (see [`Cache::checkpoint`]) and truncates
    /// the log; a failed one is retried after another `records`
    /// records. Only meaningful together with
    /// [`CacheBuilder::durability`].
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Size of the executor pool animating registered automata (default
    /// [`DEFAULT_AUTOMATON_WORKERS`]). Each automaton is pinned to one
    /// worker for its whole life, so per-automaton delivery order is
    /// independent of the pool size; raise this on machines with many
    /// cores and VM-heavy automata, or set it to 1 to serialise all
    /// automaton execution.
    pub fn automaton_workers(mut self, workers: usize) -> Self {
        self.automaton_workers = workers.max(1);
        self
    }

    /// Size of the request-execution pool an event-driven RPC server
    /// (`psrpc::reactor::ReactorServer`) will use when serving this
    /// cache (default
    /// [`DEFAULT_RPC_WORKERS`](crate::config::DEFAULT_RPC_WORKERS)).
    /// Stored on the cache so deployments tune one builder, not every
    /// transport call site; the thread pool itself belongs to the RPC
    /// layer, which reads this via [`Cache::rpc_workers`].
    pub fn rpc_workers(mut self, workers: usize) -> Self {
        self.rpc_workers = workers.max(1);
        self
    }

    /// Use a deterministic, manually advanced clock (see
    /// [`Cache::manual_clock`]).
    pub fn manual_clock(mut self) -> Self {
        let clock = ManualClock::new();
        self.manual_clock = Some(clock.clone());
        self.clock = Arc::new(clock);
        self
    }

    /// Use a caller-provided clock.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self.manual_clock = None;
        self
    }

    /// Start a background thread that publishes a `Timer` tuple every
    /// `interval` (the paper's heartbeat is one second).
    pub fn timer_interval(mut self, interval: Duration) -> Self {
        self.timer_interval = Some(interval);
        self
    }

    /// Build the cache. The built-in `Timer` topic is created here.
    ///
    /// When [`CacheBuilder::durability`] is configured this delegates to
    /// [`CacheBuilder::open`] and **panics** on I/O or recovery errors;
    /// durable deployments should call `open()` and handle the error.
    pub fn build(self) -> Cache {
        self.open().expect(
            "opening the durability directory failed; use CacheBuilder::open() to handle the error",
        )
    }

    /// Build the cache, opening (and replaying) the durability directory
    /// when one is configured. Identical to [`CacheBuilder::build`] for
    /// purely in-memory caches, which cannot fail.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wal`] when the durability directory cannot be
    /// opened or its contents cannot be replayed (unreadable snapshot,
    /// undecodable record that passed its checksum).
    pub fn open(self) -> Result<Cache> {
        let obs = Arc::new(Obs::new(self.slow_op_threshold));
        let is_follower = self.follow.is_some();
        if self.replicate_to.is_some() && self.durability.is_none() {
            return Err(Error::repl(
                "replicate_to requires durability(..): the stream ships write-ahead-log frames",
            ));
        }
        let (wal, mut recovery) = match &self.durability {
            Some(dir) => {
                let (wal, recovery) = Wal::open(dir, self.checkpoint_every, Arc::clone(&obs))?;
                (Some(Arc::new(wal)), Some(recovery))
            }
            None => (None, None),
        };
        // Every durable cache runs the replication hub: it is the
        // authority on the contiguous durable commit watermark
        // (`Cache::commit_lsn`) whether or not followers ever attach.
        // A primary seeds it at the highest recovered LSN; a replica
        // seeds both the hub and its applied watermark at the
        // *contiguous* recovered LSN. The two differ only in a
        // directory written by an older, striped-log build, where a
        // crash could leave a hole: a primary's lost record was never
        // acknowledged and simply does not exist, while a replica must
        // re-fetch it from the primary instead of silently skipping it.
        let repl_hub = wal.as_ref().map(|w| {
            Arc::new(ReplHub::new(if is_follower {
                w.recovered_contiguous_lsn()
            } else {
                w.recovered_lsn()
            }))
        });
        let repl_applied = wal.as_ref().map_or(0, |w| w.recovered_contiguous_lsn());
        let inner = Arc::new(CacheInner {
            tables: TableStore::default(),
            plans: PlanCache::default(),
            dispatch: DispatchIndex::default(),
            routes: RwLock::new(HashMap::new()),
            automata: Mutex::new(HashMap::new()),
            executor: Executor::start(self.automaton_workers, Arc::clone(&obs)),
            clock: self.clock,
            next_automaton_id: AtomicU64::new(1),
            rpc_workers: self.rpc_workers,
            shutting_down: AtomicBool::new(false),
            wal,
            checkpoint_lock: Mutex::new(()),
            role: std::sync::atomic::AtomicU8::new(if is_follower {
                ROLE_FOLLOWER
            } else {
                ROLE_PRIMARY
            }),
            repl_hub,
            repl_applied_lsn: AtomicU64::new(repl_applied),
            tokens: Mutex::new(TokenTable::new(self.token_history)),
            token_history: self.token_history,
            client_policy: self.client_policy,
            cluster: RwLock::new(None),
            obs,
        });
        if let (Some(wal), Some(hub)) = (&inner.wal, &inner.repl_hub) {
            let hub = Arc::clone(hub);
            wal.set_sink(Arc::new(move |hi: u64, chunk: &[u8]| hub.ingest(hi, chunk)));
        }
        let timer_columns = vec![("tstamp".to_owned(), AttrType::Tstamp)];
        let mut timer_lsn = None;
        match (&inner.wal, recovery.as_mut()) {
            (Some(wal), Some(recovery)) if !is_follower => {
                // A durable primary logs its Timer's DDL on every open.
                // The record is the newest in the log, so replay applies
                // it last — after the checkpoint image, like any create
                // record — and the Timer's watermark covers it.
                let lsn = wal.append(|lsn| {
                    wal::encode_create(lsn, TIMER_TOPIC, TableKind::Ephemeral, 16, &timer_columns)
                })?;
                recovery.ops.push(ReplayOp::CreateTable {
                    lsn,
                    name: TIMER_TOPIC.to_owned(),
                    kind: TableKind::Ephemeral,
                    capacity: 16,
                    columns: timer_columns,
                });
                timer_lsn = Some(lsn);
            }
            _ => {
                // A follower's log must stay a verbatim copy of the
                // primary's, so its built-in Timer topic is created
                // directly (unlogged): the primary's own Timer create
                // record arrives on the stream like any create for an
                // existing table. A cache without durability logs
                // nothing anyway.
                let timer_schema = Schema::new(TIMER_TOPIC, timer_columns)
                    .expect("the Timer schema is statically valid");
                inner
                    .tables
                    .create(TIMER_TOPIC, Table::ephemeral(Arc::new(timer_schema), 16))
                    .expect("the Timer topic cannot already exist in a fresh cache");
            }
        }
        if let Some(recovery) = recovery {
            // Replay happens before the cache is returned, so no automaton
            // can be registered yet: recovered inserts are applied to the
            // tables directly and are never published (§ "Durability &
            // recovery" in docs/architecture.md).
            inner.apply_recovery(recovery)?;
        }
        // Commit the Timer record only now: a checkpoint it makes due
        // must snapshot the replayed state, not an empty store.
        inner.wal_commit(timer_lsn)?;

        let repl_listener = match &self.replicate_to {
            Some(addr) => Some(ReplListener::bind(addr.as_str(), Arc::downgrade(&inner))?),
            None => None,
        };
        let follower = self
            .follow
            .as_ref()
            .map(|addr| FollowerHandle::start(Arc::downgrade(&inner), addr.clone()));

        let timer_thread = self.timer_interval.map(|interval| {
            let weak = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("cache-timer".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    match weak.upgrade() {
                        Some(cache) => {
                            if cache.shutting_down.load(Ordering::Acquire) {
                                break;
                            }
                            let _ = cache.tick_timer();
                        }
                        None => break,
                    }
                })
                .expect("spawning the timer thread never fails on supported platforms")
        });

        Ok(Cache {
            inner,
            manual_clock: self.manual_clock,
            timer_thread: Arc::new(Mutex::new(timer_thread)),
            repl_listener: Arc::new(Mutex::new(repl_listener)),
            follower: Arc::new(Mutex::new(follower)),
        })
    }
}

/// The topic-based publish/subscribe cache. See the [crate documentation]
/// for an overview and a quick-start example.
///
/// `Cache` is cheaply cloneable; clones share the same underlying state.
///
/// [crate documentation]: crate
#[derive(Debug, Clone)]
pub struct Cache {
    inner: Arc<CacheInner>,
    manual_clock: Option<ManualClock>,
    timer_thread: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
    /// The replication listener, when this cache serves a stream.
    repl_listener: Arc<Mutex<Option<ReplListener>>>,
    /// The follower stream, while this cache is a replica.
    follower: Arc<Mutex<Option<FollowerHandle>>>,
}

/// Whether a command text starts with the `select` keyword — the cheap
/// pre-filter deciding if the plan cache is consulted at all.
fn looks_like_select(command: &str) -> bool {
    let trimmed = command.trim_start();
    trimmed.len() >= 6
        && trimmed.as_bytes()[..6].eq_ignore_ascii_case(b"select")
        && trimmed
            .as_bytes()
            .get(6)
            .is_none_or(|b| !b.is_ascii_alphanumeric())
}

/// One cached `select`: its parsed query plus the plan compiled against
/// the table's schema the first time it ran. The compiled plan is keyed
/// by schema identity (`Arc::ptr_eq`) — schemas are immutable once
/// created, so pointer equality proves the resolved indices are still
/// valid; if the identity ever changes the plan is recompiled in place.
#[derive(Debug)]
pub(crate) struct PlanEntry {
    query: Query,
    compiled: Mutex<Option<Arc<QueryPlan>>>,
    /// The owning cache's schema-change recompile counter (shared by
    /// every entry; see [`PlanCacheStats::recompiles`]).
    recompiles: Arc<AtomicU64>,
}

impl PlanEntry {
    /// The plan for `schema`, compiling (and memoising) on first use or
    /// schema change.
    ///
    /// The schema-identity check is deliberately `Arc::ptr_eq`, not
    /// structural equality: schemas are immutable once created, so
    /// pointer identity proves the plan's resolved indices are valid.
    /// When the identity *does* change — recovery and replication
    /// bootstraps rebuild schema `Arc`s, and drop+recreate mints a new
    /// schema outright — the plan is recompiled in place (and counted),
    /// so a promoted follower misses each cached text exactly once and
    /// then resumes hitting; it can never serve a plan compiled against
    /// the dead schema, and never misses forever.
    fn plan_for(&self, schema: &Arc<Schema>) -> Result<Arc<QueryPlan>> {
        let mut slot = self.compiled.lock();
        if let Some(plan) = slot.as_ref() {
            if Arc::ptr_eq(plan.schema(), schema) {
                return Ok(Arc::clone(plan));
            }
            self.recompiles.fetch_add(1, Ordering::Relaxed);
        }
        let plan = Arc::new(QueryPlan::compile(&self.query, schema)?);
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }
}

/// Counters of the SQL-text plan cache, from
/// [`Cache::plan_cache_stats`]. A healthy periodic-query workload
/// converges to a hit rate near 1; `recompiles` stays 0 until a schema
/// identity changes under a cached text (recovery, follower promotion,
/// drop+recreate), then grows by exactly one per affected entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Texts served from the cache.
    pub hits: u64,
    /// Select-shaped texts that had to be parsed.
    pub misses: u64,
    /// Cached plans recompiled because their table's schema `Arc`
    /// identity changed.
    pub recompiles: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl PlanCacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The SQL-text → [`PlanEntry`] cache behind [`Cache::execute`].
///
/// Bounded: when full, a new insertion evicts the whole map. Eviction is
/// a once-per-epoch event for workloads that cycle through more than
/// [`PlanCache::CAPACITY`] distinct query texts, and those workloads get
/// no benefit from plan caching anyway.
#[derive(Debug, Default)]
struct PlanCache {
    map: RwLock<HashMap<String, Arc<PlanEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recompiles: Arc<AtomicU64>,
}

impl PlanCache {
    const CAPACITY: usize = 1024;

    fn get(&self, sql: &str) -> Option<Arc<PlanEntry>> {
        let found = self.map.read().get(sql).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, sql: &str, query: Query) -> Arc<PlanEntry> {
        let entry = Arc::new(PlanEntry {
            query,
            compiled: Mutex::new(None),
            recompiles: Arc::clone(&self.recompiles),
        });
        let mut map = self.map.write();
        if map.len() >= Self::CAPACITY {
            map.clear();
        }
        map.insert(sql.to_owned(), Arc::clone(&entry));
        entry
    }

    /// Drop every cached text that reads `table`. Called when the table
    /// is dropped: a recreate under the same name mints a new schema,
    /// and while `plan_for` would recompile against it anyway, the
    /// evicted texts must also stop *hitting* for a table that no
    /// longer exists (a hit would otherwise answer from the entry and
    /// then fail name resolution confusingly, or — for drop without
    /// recreate — keep dead entries pinned until the epoch eviction).
    fn evict_table(&self, table: &str) {
        self.map.write().retain(|_, e| e.query.table() != table);
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recompiles: self.recompiles.load(Ordering::Relaxed),
            entries: self.map.read().len(),
        }
    }
}

/// How the cache reaches one registered automaton on the hot path: the
/// mailbox of the pool worker that owns it, plus its counters.
#[derive(Debug)]
struct Route {
    tx: Sender<WorkerMsg>,
    stats: Arc<AutomatonStats>,
}

/// Registry data for one automaton (management path, not hot path).
struct AutomatonEntry {
    program: Arc<gapl::Program>,
    stats: Arc<AutomatonStats>,
    /// Per subscribed topic: the topic's dispatch entry and its
    /// `published` counter at registration time, from which the exact
    /// `skipped_by_prefilter` count is derived on demand.
    baselines: Vec<(Arc<TopicDispatch>, u64)>,
}

impl AutomatonEntry {
    /// Derive the automaton's telemetry. `skipped_by_prefilter` is exact
    /// by construction: every tuple published on a subscribed topic
    /// since registration was either enqueued (counted in `delivered`)
    /// or pruned by the index.
    fn telemetry(&self) -> AutomatonTelemetry {
        let delivered = self.stats.delivered.load(Ordering::Acquire);
        let published: u64 = self
            .baselines
            .iter()
            .map(|(td, baseline)| td.published().saturating_sub(*baseline))
            .sum();
        AutomatonTelemetry {
            delivered,
            processed: self.stats.processed.load(Ordering::Acquire),
            skipped_by_prefilter: published.saturating_sub(delivered),
            queue_depth: self.stats.queue_depth(),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Acquire),
        }
    }
}

pub(crate) struct CacheInner {
    /// The table map; see [`TableStore`] for the locking story.
    tables: TableStore,
    /// SQL-text plan cache for `select` statements.
    plans: PlanCache,
    /// The predicate-indexed dispatch layer (per-topic subscriber
    /// indexes + publish counters).
    dispatch: DispatchIndex,
    /// automaton id -> worker mailbox + counters (hot path data)
    routes: RwLock<HashMap<AutomatonId, Route>>,
    automata: Mutex<HashMap<AutomatonId, AutomatonEntry>>,
    /// The bounded worker pool animating the automata.
    executor: Executor,
    clock: Arc<dyn Clock>,
    next_automaton_id: AtomicU64,
    /// Configured execution-pool size for an event-driven RPC server
    /// fronting this cache (see [`CacheBuilder::rpc_workers`]).
    rpc_workers: usize,
    shutting_down: AtomicBool,
    /// The write-ahead log, when durability is enabled.
    wal: Option<Arc<Wal>>,
    /// Serialises checkpoints (snapshot + log truncation).
    checkpoint_lock: Mutex<()>,
    /// [`ROLE_PRIMARY`] or [`ROLE_FOLLOWER`]; flipped by promotion.
    role: std::sync::atomic::AtomicU8,
    /// The replication hub (present on every durable cache): commit
    /// watermark tracking plus follower fan-out.
    repl_hub: Option<Arc<ReplHub>>,
    /// Highest LSN this replica has applied from its stream (followers;
    /// a durable follower starts it at its recovered watermark).
    repl_applied_lsn: AtomicU64,
    /// The bounded idempotency-token table (see [`crate::protect`]).
    tokens: Mutex<TokenTable>,
    /// Per-client capacity of `tokens` (needed to rebuild it at
    /// follower bootstrap).
    token_history: usize,
    /// Per-client admission policy an RPC reactor fronting this cache
    /// enforces (see [`CacheBuilder::client_policy`]).
    client_policy: ClientPolicy,
    /// This node's cluster membership, when it serves one partition of
    /// a sharded cluster (see [`crate::cluster`]). Installed after
    /// build by [`Cache::set_cluster_spec`]; turns key ownership into
    /// an enforced write invariant.
    cluster: RwLock<Option<Arc<ClusterSpec>>>,
    /// The observability registry every instrumented path records into
    /// (see [`crate::obs`]); shared with the RPC layer via
    /// [`Cache::obs`].
    pub(crate) obs: Arc<Obs>,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("tables", &self.tables.len())
            .field("automata", &self.routes.read().len())
            .field("workers", &self.executor.worker_count())
            .finish()
    }
}

impl Cache {
    /// Build a cache with default settings (wall clock, no background
    /// timer).
    pub fn new() -> Cache {
        CacheBuilder::new().build()
    }

    /// The manual clock handle, when the cache was built with
    /// [`CacheBuilder::manual_clock`].
    pub fn manual_clock(&self) -> Option<&ManualClock> {
        self.manual_clock.as_ref()
    }

    /// The configured RPC request-execution pool size (see
    /// [`CacheBuilder::rpc_workers`]).
    pub fn rpc_workers(&self) -> usize {
        self.inner.rpc_workers
    }

    /// The observability registry (latency histograms, counters and the
    /// slow-op log — see [`crate::obs`]). The RPC layer records request
    /// stage timings into it and serves its snapshot over
    /// `Request::Metrics`.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// The per-client admission policy an RPC reactor fronting this
    /// cache enforces (see [`CacheBuilder::client_policy`]).
    pub fn client_policy(&self) -> ClientPolicy {
        self.inner.client_policy.clone()
    }

    /// Install this node's cluster membership: from now on every write
    /// whose routing key hashes to another partition is rejected with
    /// [`Error::WrongPartition`] naming the owner, before any row is
    /// staged (see [`crate::cluster`]). The built-in `Timer` topic and
    /// internal tables are exempt — they are per-node, not partitioned.
    ///
    /// Installing a spec on a follower is the normal failover
    /// preparation: the check only runs on writable paths, so it is
    /// inert until [`Cache::promote`] flips the role.
    pub fn set_cluster_spec(&self, spec: ClusterSpec) {
        *self.inner.cluster.write() = Some(Arc::new(spec));
    }

    /// This node's cluster membership, when one was installed.
    pub fn cluster_spec(&self) -> Option<Arc<ClusterSpec>> {
        self.inner.cluster.read().clone()
    }

    /// A weak handle to the cache internals, for in-crate background
    /// machinery (the subscription bridge) that must never keep a
    /// dropped cache alive.
    pub(crate) fn inner_weak(&self) -> std::sync::Weak<CacheInner> {
        Arc::downgrade(&self.inner)
    }

    /// The remembered outcome of a token-stamped mutation, if the
    /// bounded token table still holds it. An outcome is remembered
    /// from the moment its mutation is staged, which may be before its
    /// record is durable: a caller that will *acknowledge* the outcome
    /// — the RPC server's dedup before executing a tokened request —
    /// uses [`WriteRun::token_lookup`] instead.
    pub fn token_lookup(&self, token: IdemToken) -> Option<TokenOutcome> {
        self.inner.tokens.lock().lookup(token)
    }

    /// Total outcomes currently remembered across all clients (test and
    /// observability hook for the bounded token table).
    pub fn token_count(&self) -> usize {
        self.inner.tokens.lock().len()
    }

    /// Open a durable cache from `dir` with default settings, replaying
    /// the snapshot and write-ahead log left by a previous process.
    /// Equivalent to `CacheBuilder::new().durability(dir).open()`; use
    /// the builder form to combine recovery with other settings.
    ///
    /// Recovery restores every persistent table byte-for-byte (rows,
    /// scan order, timestamps) up to the last durable record; a torn
    /// final record — the signature of a crash mid-write — is detected
    /// by its checksum and dropped. Ephemeral streams come back empty.
    /// Replayed inserts are **not** published: automata registered on
    /// the recovered cache only observe live traffic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wal`] when the directory cannot be opened or its
    /// contents cannot be replayed.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<Cache> {
        CacheBuilder::new().durability(dir).open()
    }

    /// Open a **read-only follower replica** of the primary serving
    /// replication at `addr` — equivalent to
    /// `CacheBuilder::new().follow(addr).open()`; use the builder form
    /// to combine following with durability or other settings.
    ///
    /// The replica bootstraps from the primary's latest checkpoint
    /// (never from log-zero), then applies the live stream in global
    /// LSN order through the same never-publishing path as crash
    /// recovery. Queries are served locally with bounded staleness:
    /// [`Cache::replica_lsn`] is the applied watermark. Mutations
    /// return [`Error::ReadOnlyReplica`] until [`Cache::promote`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Repl`] when the replica cannot be set up. An
    /// unreachable primary is **not** an error: the stream dials (and
    /// redials, with capped exponential backoff and jitter) in the
    /// background.
    pub fn follow(addr: impl Into<String>) -> Result<Cache> {
        CacheBuilder::new().follow(addr).open()
    }

    /// Promote this follower to a writable primary: seal the
    /// replication stream (no further record will be applied), bump the
    /// LSN allocator past the replicated history, and flip the role.
    /// Nothing needs flushing: the replica waited for every batch it
    /// applied to be durable in its own log. Every record the replica
    /// received is preserved; drain the stream first (stop writes on
    /// the old primary, wait for [`Cache::replica_lsn`] to reach its
    /// commit watermark) for a lossless planned failover.
    ///
    /// A promoted cache keeps whatever replication listener it was
    /// built with, so chained followers can re-subscribe to it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Repl`] when this cache is not a follower (never
    /// was, or was already promoted).
    pub fn promote(&self) -> Result<()> {
        let mut slot = self.follower.lock();
        let handle = slot.take().ok_or_else(|| {
            Error::repl("promote() requires a follower (Cache::follow / CacheBuilder::follow)")
        })?;
        handle.seal();
        if let Some(wal) = &self.inner.wal {
            wal.bump_next_lsn(self.inner.repl_applied_lsn.load(Ordering::Acquire) + 1);
        }
        self.inner.role.store(ROLE_PRIMARY, Ordering::Release);
        Ok(())
    }

    /// This cache's replication role.
    pub fn repl_role(&self) -> ReplRole {
        match self.inner.role.load(Ordering::Acquire) {
            ROLE_FOLLOWER => ReplRole::Follower,
            _ => ReplRole::Primary,
        }
    }

    /// The bounded-staleness watermark: the highest LSN whose effects
    /// are visible to queries on this node. On a follower this is the
    /// applied position of the replication stream; on a durable primary
    /// it is the contiguous durable commit watermark; 0 on a purely
    /// in-memory primary (nothing is LSN-stamped).
    pub fn replica_lsn(&self) -> u64 {
        match self.repl_role() {
            ReplRole::Follower => self.inner.repl_applied_lsn.load(Ordering::Acquire),
            // A promoted in-memory replica has no hub but its applied
            // history is still what queries see — the watermark must
            // not regress to 0 at promotion.
            ReplRole::Primary => self.inner.repl_hub.as_ref().map_or_else(
                || self.inner.repl_applied_lsn.load(Ordering::Acquire),
                |h| h.commit_lsn(),
            ),
        }
    }

    /// The primary's contiguous durable commit watermark as known here:
    /// the hub watermark on a primary, the latest heartbeat (or the
    /// applied position, whichever is higher) on a follower.
    /// `commit_lsn() - replica_lsn()` is a follower's staleness in
    /// records.
    pub fn commit_lsn(&self) -> u64 {
        match self.repl_role() {
            ReplRole::Primary => self.inner.repl_hub.as_ref().map_or_else(
                || self.inner.repl_applied_lsn.load(Ordering::Acquire),
                |h| h.commit_lsn(),
            ),
            ReplRole::Follower => {
                let heard = self
                    .follower
                    .lock()
                    .as_ref()
                    .map_or(0, |f| f.shared().primary_commit_lsn.load(Ordering::Acquire));
                heard.max(self.inner.repl_applied_lsn.load(Ordering::Acquire))
            }
        }
    }

    /// The address this cache serves its replication stream on, when
    /// built with [`CacheBuilder::replicate_to`]. With port 0 this is
    /// the actual bound port — hand it to [`Cache::follow`].
    pub fn repl_addr(&self) -> Option<std::net::SocketAddr> {
        self.repl_listener.lock().as_ref().map(|l| l.local_addr())
    }

    /// A snapshot of the replication subsystem's counters: role,
    /// watermarks, subscribed followers and their lag, ship volume, and
    /// the follower-side stream health. All zeros (with
    /// [`ReplRole::Primary`]) on a cache that neither serves nor
    /// follows a stream.
    pub fn repl_stats(&self) -> ReplStats {
        let role = self.repl_role();
        let mut stats = ReplStats {
            role,
            replica_lsn: self.replica_lsn(),
            commit_lsn: self.commit_lsn(),
            ..ReplStats::default()
        };
        if let Some(hub) = &self.inner.repl_hub {
            let (followers, min_acked) = hub.follower_lag();
            let (frames, bytes, snaps) = hub.ship_stats();
            stats.followers = followers;
            stats.min_follower_acked_lsn = min_acked;
            stats.frames_shipped = frames;
            stats.bytes_shipped = bytes;
            stats.snapshots_served = snaps;
        }
        if let Some(f) = self.follower.lock().as_ref() {
            let shared = f.shared();
            stats.connected = shared.connected.load(Ordering::Acquire);
            stats.reconnects = shared.reconnects.load(Ordering::Relaxed);
            stats.snapshots_loaded = shared.snapshots_loaded.load(Ordering::Relaxed);
        }
        stats
    }

    /// Force a checkpoint now: flush and rotate the log, write a
    /// consistent image of every table, and delete the rotated log.
    /// The image is a *delta* `delta-<n>.snap` — each key changed since
    /// the previous checkpoint, as its latest row or its removal, plus
    /// the table list, watermarks and token table — over the base
    /// `snapshot.snap`; or a new base holding every row, when there is
    /// no base, a table was created or dropped since it, a checkpoint
    /// failed, or the deltas would hold as many entries as the tables
    /// hold rows. Recovery folds the base and its deltas into one
    /// image. Bounds recovery time; runs automatically every
    /// [`CacheBuilder::checkpoint_every`] records.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wal`] when durability is not enabled or the
    /// image cannot be persisted; the failure counts in
    /// [`WalStats::checkpoint_failures`].
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.checkpoint()
    }

    /// Durability counters (records logged, fsyncs issued, checkpoints,
    /// records replayed at open), or `None` when durability is off.
    /// `records / syncs` is the achieved group-commit size.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.wal.as_ref().map(|w| w.stats())
    }

    /// The durability directory, when durability is enabled.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.inner.wal.as_ref().map(|w| w.dir())
    }

    /// Whether a table is an ephemeral stream or a persistent relation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] when the table does not exist.
    pub fn table_kind(&self, table: &str) -> Result<TableKind> {
        Ok(self.inner.tables.get(table)?.kind())
    }

    /// Current cache time in nanoseconds.
    pub fn now(&self) -> Timestamp {
        self.inner.now()
    }

    /// Execute a SQL-ish command (`create table`, `insert`, `select`).
    ///
    /// `select` statements are **plan-cached**: the first submission of a
    /// given SQL text parses it and compiles a [`QueryPlan`] against the
    /// table's schema; every repeat of the same text (the paper's
    /// periodic-query loop re-issues the same `select … since τ` string
    /// with a new τ only when the application rebuilds it — identical
    /// texts are the common case for dashboards and pollers) skips both
    /// the parser and name resolution entirely.
    ///
    /// # Errors
    ///
    /// Returns parse errors, schema errors, and unknown-table errors.
    pub fn execute(&self, command: &str) -> Result<Response> {
        self.execute_with_token(command, None)
    }

    /// [`Cache::execute`] for a request stamped with an idempotency
    /// token: a mutating command (create / insert) that succeeds records
    /// its outcome in the bounded token table, so a retry carrying the
    /// same token deduplicates via [`Cache::token_lookup`] instead of
    /// applying twice. `select`s ignore the token (re-running a read is
    /// harmless), and failed commands record nothing — re-executing them
    /// is safe and gives the retry a chance to succeed.
    ///
    /// The caller (the RPC server) performs the dedup lookup *before*
    /// calling this; the cache only records.
    ///
    /// # Errors
    ///
    /// See [`Cache::execute`].
    pub fn execute_with_token(&self, command: &str, token: Option<IdemToken>) -> Result<Response> {
        // Fast path: a select text seen before runs its cached plan. Only
        // select-shaped texts consult the cache — inserts and DDL on the
        // write path must not pay a guaranteed-miss lookup (or skew the
        // hit/miss counters).
        if looks_like_select(command) {
            if let Some(entry) = self.inner.plans.get(command) {
                return Ok(Response::Rows(self.inner.select_cached(&entry)?));
            }
        }
        match sql::parse(command)? {
            Command::CreateTable {
                name,
                kind,
                columns,
                capacity,
            } => {
                let schema =
                    Schema::new(name.clone(), columns.into_iter().map(|c| (c.name, c.ty)))?;
                self.inner.create_table_tokened(
                    &name,
                    kind,
                    Arc::new(schema),
                    capacity.unwrap_or(DEFAULT_STREAM_CAPACITY),
                    token,
                )?;
                Ok(Response::Created)
            }
            Command::Insert {
                table,
                values,
                on_duplicate_update,
            } => {
                let (replaced, tstamp) =
                    self.insert_with_token(&table, values, on_duplicate_update, token)?;
                Ok(Response::Inserted { replaced, tstamp })
            }
            Command::InsertBatch {
                table,
                rows,
                on_duplicate_update,
            } => {
                let tstamps =
                    self.insert_batch_with_token(&table, rows, on_duplicate_update, token)?;
                Ok(Response::InsertedBatch { tstamps })
            }
            Command::Select(query) => {
                let entry = self.inner.plans.insert(command, query);
                Ok(Response::Rows(self.inner.select_cached(&entry)?))
            }
        }
    }

    /// Counters of the SQL plan cache, for observability and
    /// benchmarks; see [`PlanCacheStats`].
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plans.stats()
    }

    /// Drop a table (and its topic): the binding is removed from the
    /// store, every cached `select` plan over the table is evicted, and
    /// the topic's dispatch entry — including any compiled prefilter
    /// index — is discarded, so a later `create table` under the same
    /// name (possibly with a different schema) starts from nothing. A
    /// `select` holding the published snapshot finishes against the
    /// detached instance; subscribed automata simply stop receiving
    /// (their next event can only come from a table that no longer
    /// publishes).
    ///
    /// On a durable cache the drop is made durable by an immediate
    /// checkpoint: the post-drop snapshot supersedes the table's
    /// `create` and row records, so recovery cannot resurrect it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] for unknown names, a follower
    /// error on replicas, and checkpoint I/O errors (the drop itself
    /// has already happened in memory).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.inner.drop_table(name)
    }

    /// Create a table (and its topic) programmatically.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableExists`] when the topic already exists.
    pub fn create_table(
        &self,
        name: &str,
        kind: TableKind,
        columns: Vec<(String, AttrType)>,
        capacity: Option<usize>,
    ) -> Result<()> {
        let schema = Schema::new(name, columns)?;
        self.inner.create_table(
            name,
            kind,
            Arc::new(schema),
            capacity.unwrap_or(DEFAULT_STREAM_CAPACITY),
        )
    }

    /// Insert a tuple programmatically; equivalent to the `insert` command.
    ///
    /// # Errors
    ///
    /// Returns unknown-table, schema and duplicate-key errors.
    pub fn insert(&self, table: &str, values: Vec<Scalar>) -> Result<Timestamp> {
        self.inner
            .insert_values(table, values, false)
            .map(|o| o.stored.tstamp())
    }

    /// Insert with `on duplicate key update` semantics (persistent tables).
    ///
    /// # Errors
    ///
    /// Returns unknown-table and schema errors.
    pub fn upsert(&self, table: &str, values: Vec<Scalar>) -> Result<Timestamp> {
        self.inner
            .insert_values(table, values, true)
            .map(|o| o.stored.tstamp())
    }

    /// Insert many tuples into one table in a single operation — the
    /// batched equivalent of calling [`Cache::insert`] once per row, but
    /// the table lock is taken once and subscribers are resolved once, so
    /// a 1000-row batch costs a fraction of 1000 single inserts.
    ///
    /// Subscribed automata receive the rows as a contiguous run, in row
    /// order; tuples from concurrent writers never interleave with a
    /// batch. Returns one insertion timestamp per row; the batch is a
    /// single atomic insertion event, so every row shares the same
    /// timestamp and a `since τ` window never splits a batch.
    ///
    /// # Errors
    ///
    /// Returns unknown-table, schema and duplicate-key errors. The batch
    /// is applied prefix-wise: rows before the first bad row stay
    /// inserted, the bad row and everything after it are discarded.
    pub fn insert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<Timestamp>> {
        self.insert_batch_with_token(table, rows, false, None)
    }

    /// Batched [`Cache::upsert`]: like [`Cache::insert_batch`] with
    /// `on duplicate key update` semantics for every row.
    ///
    /// # Errors
    ///
    /// See [`Cache::insert_batch`].
    pub fn upsert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<Timestamp>> {
        self.insert_batch_with_token(table, rows, true, None)
    }

    /// [`Cache::insert`]/[`Cache::upsert`] for a token-stamped request:
    /// on success the outcome `(replaced, tstamp)` is remembered in the
    /// bounded token table (and, for a durable table, embedded in the
    /// insert's own write-ahead-log record, making retry dedup survive
    /// crash recovery and failover). The caller deduplicates via
    /// [`Cache::token_lookup`] before calling this.
    ///
    /// # Errors
    ///
    /// See [`Cache::insert`].
    pub fn insert_with_token(
        &self,
        table: &str,
        values: Vec<Scalar>,
        upsert: bool,
        token: Option<IdemToken>,
    ) -> Result<(bool, Timestamp)> {
        self.inner
            .run_of_one(|run| run.insert(table, values, upsert, token))
    }

    /// [`Cache::insert_batch`]/[`Cache::upsert_batch`] for a
    /// token-stamped request; see [`Cache::insert_with_token`].
    ///
    /// # Errors
    ///
    /// See [`Cache::insert_batch`]. A batch that fails mid-way records
    /// no token: its applied prefix stays at-least-once — the documented
    /// limitation of prefix-wise batch semantics.
    pub fn insert_batch_with_token(
        &self,
        table: &str,
        rows: Vec<Vec<Scalar>>,
        upsert: bool,
        token: Option<IdemToken>,
    ) -> Result<Vec<Timestamp>> {
        self.inner
            .run_of_one(|run| run.insert_batch(table, rows, upsert, token))
    }

    /// Open a [`WriteRun`]: stage any number of inserts, then pay for
    /// their durability once. Every synchronous insert above is a run
    /// of one.
    pub fn write_run(&self) -> WriteRun<'_> {
        WriteRun::new(&self.inner)
    }

    /// Run an ad hoc query.
    ///
    /// # Errors
    ///
    /// Returns unknown-table and schema errors.
    pub fn select(&self, query: &Query) -> Result<ResultSet> {
        self.inner.select(query)
    }

    /// Look up a persistent-table row by primary key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] when the table does not exist.
    pub fn lookup(&self, table: &str, key: &str) -> Result<Option<Tuple>> {
        Ok(self.inner.tables.get(table)?.lookup(key))
    }

    /// Remove a persistent-table row by primary key, returning it if it
    /// existed. The same operation automata perform through
    /// `remove(assoc, key)`; on a durable cache the removal is
    /// write-ahead logged like any insert.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] for unknown tables and
    /// [`Error::WrongTableKind`] for ephemeral streams.
    pub fn remove(&self, table: &str, key: &str) -> Result<Option<Tuple>> {
        self.inner.persistent_remove(table, key)
    }

    /// The schema of a table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] when the table does not exist.
    pub fn schema(&self, table: &str) -> Result<Arc<Schema>> {
        Ok(self.inner.tables.get(table)?.schema())
    }

    /// Number of rows currently held by a table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTable`] when the table does not exist.
    pub fn table_len(&self, table: &str) -> Result<usize> {
        self.inner.table_len(table)
    }

    /// Number of automata currently subscribed to `topic` (0 for
    /// unknown topics) — useful when sizing fan-out experiments and
    /// verifying registrations took effect.
    pub fn topic_subscriber_count(&self, topic: &str) -> usize {
        self.inner
            .dispatch
            .get(topic)
            .map_or(0, |td| td.current().subscriber_count())
    }

    /// Names of all tables/topics, in lexicographic order.
    pub fn table_names(&self) -> Vec<String> {
        let mut names = self.inner.tables.names();
        names.sort();
        names
    }

    /// Register an automaton from GAPL source. On success the automaton is
    /// compiled, pinned to one worker of the automaton pool, and subscribed
    /// to its topics; the returned receiver yields the notifications
    /// produced by `send()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AutomatonCompile`] when the source does not compile
    /// (the paper's cache reports this back to the registering application
    /// over RPC), or [`Error::NoSuchTable`] when a subscribed topic does not
    /// exist.
    pub fn register_automaton(
        &self,
        source: &str,
    ) -> Result<(AutomatonId, Receiver<Notification>)> {
        let (tx, rx) = unbounded();
        let id = self.register_automaton_with_notifier(source, tx)?;
        Ok((id, rx))
    }

    /// Register an automaton, delivering its notifications to a
    /// caller-provided [`NotificationSink`] (a channel sender, or an RPC
    /// connection's outbox) from the pool worker that ran `send()`.
    ///
    /// # Errors
    ///
    /// See [`Cache::register_automaton`].
    pub fn register_automaton_with_notifier(
        &self,
        source: &str,
        notifier: impl NotificationSink + Send + 'static,
    ) -> Result<AutomatonId> {
        let program = Arc::new(gapl::compile(source).map_err(|e| Error::AutomatonCompile {
            message: e.to_string(),
        })?);
        // Every subscribed topic must exist (they are created by
        // applications or from the configuration file; `Timer` is built in).
        for sub in program.subscriptions() {
            if !self.inner.tables.contains(&sub.topic) {
                return Err(Error::NoSuchTable {
                    name: sub.topic.clone(),
                });
            }
        }
        for assoc in program.associations() {
            if !self.inner.tables.contains(&assoc.table) {
                return Err(Error::NoSuchTable {
                    name: assoc.table.clone(),
                });
            }
        }

        // Resolve every subscribed topic's schema *before* anything
        // observable happens: past this point registration is
        // infallible, so a failure can never leave a half-registered
        // automaton (VM built, routed, indexed, but absent from the
        // registry).
        let mut subscribed: Vec<(String, Arc<Schema>)> = Vec::new();
        for sub in program.subscriptions() {
            if subscribed.iter().any(|(topic, _)| *topic == sub.topic) {
                continue;
            }
            let schema = self
                .inner
                .with_table(&sub.topic, |t| Ok(Arc::clone(t.schema())))?;
            subscribed.push((sub.topic.clone(), schema));
        }

        let id = AutomatonId(self.inner.next_automaton_id.fetch_add(1, Ordering::Relaxed));
        let stats = Arc::new(AutomatonStats::default());
        let tx = self.inner.executor.sender_for(id).clone();
        // The Register message goes into the owning worker's mailbox
        // *before* the automaton becomes routable, so every event ever
        // enqueued for it is behind its VM construction in the FIFO.
        let _ = tx.send(WorkerMsg::Register(Box::new(RegisterCmd {
            id,
            program: Arc::clone(&program),
            cache: Arc::downgrade(&self.inner),
            notifier: Box::new(notifier),
            stats: Arc::clone(&stats),
        })));
        self.inner.routes.write().insert(
            id,
            Route {
                tx,
                stats: Arc::clone(&stats),
            },
        );
        // Publish the subscription in each topic's predicate index. The
        // returned baselines make the skip counters exact: skipped =
        // (published since baseline) - delivered.
        let mut baselines = Vec::new();
        for (topic, schema) in &subscribed {
            let td = self.inner.dispatch.topic(topic);
            let baseline = td.add(id, program.prefilter_for(topic), schema);
            baselines.push((td, baseline));
        }
        self.inner.automata.lock().insert(
            id,
            AutomatonEntry {
                program,
                stats,
                baselines,
            },
        );
        Ok(id)
    }

    /// Unregister an automaton ([`Cache::detach_automaton`]) and wait
    /// for its drain, with no timeout: the wait is bounded only by the
    /// automaton's current run, which nothing bounds until GAPL runs get
    /// an instruction budget (ROADMAP item 8(a)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn unregister_automaton(&self, id: AutomatonId) -> Result<()> {
        let (done, drained) = std::sync::mpsc::sync_channel(1);
        self.detach_automaton(id, move || {
            let _ = done.send(());
        })?;
        let _ = drained.recv();
        Ok(())
    }

    /// Unregister an automaton without waiting: it leaves every topic
    /// index before this returns; its pool worker then drains its mailbox
    /// (events racing past are discarded), drops it with its sink and
    /// runs `then`, which must never block — exactly once, inline if the
    /// pool has shut down.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids, without
    /// running `then`.
    pub fn detach_automaton(
        &self,
        id: AutomatonId,
        then: impl FnOnce() + Send + 'static,
    ) -> Result<()> {
        let entry = self
            .inner
            .automata
            .lock()
            .remove(&id)
            .ok_or(Error::NoSuchAutomaton { id: id.0 })?;
        // Counted here — the single choke point — so explicit
        // unregistrations and connection teardowns both land in the same
        // observable.
        self.inner
            .obs
            .automaton_unregistrations
            .fetch_add(1, Ordering::Relaxed);
        // 1. Out of the predicate indexes: publishers resolving the topic
        //    from now on will not select this automaton.
        for (td, _) in &entry.baselines {
            td.remove(id);
        }
        // 2. Out of the route table: publishers that already selected it
        //    from an in-flight index snapshot find no mailbox.
        let route = self.inner.routes.write().remove(&id);
        // 3. The drain: the Unregister message queues behind every event
        //    already mailed to the automaton, so its completion proves the
        //    mailbox was drained — by processing, never by dropping a
        //    pending event. A refused message runs it here, on drop.
        let then = Completion(Some(Box::new(then)));
        if let Some(route) = route {
            let _ = route.tx.send(WorkerMsg::Unregister { id, then });
        }
        Ok(())
    }

    /// Ids of all currently registered automata.
    pub fn automata(&self) -> Vec<AutomatonId> {
        let mut ids: Vec<AutomatonId> = self.inner.automata.lock().keys().copied().collect();
        ids.sort();
        ids
    }

    /// The compiled program of a registered automaton (its subscriptions,
    /// associations and bytecode), for inspection and management tooling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn automaton_program(&self, id: AutomatonId) -> Result<Arc<gapl::Program>> {
        self.inner
            .automata
            .lock()
            .get(&id)
            .map(|h| Arc::clone(&h.program))
            .ok_or(Error::NoSuchAutomaton { id: id.0 })
    }

    /// `(delivered, processed)` event counters for an automaton.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn automaton_progress(&self, id: AutomatonId) -> Result<(u64, u64)> {
        let routes = self.inner.routes.read();
        let route = routes.get(&id).ok_or(Error::NoSuchAutomaton { id: id.0 })?;
        Ok((
            route.stats.delivered.load(Ordering::Acquire),
            route.stats.processed.load(Ordering::Acquire),
        ))
    }

    /// Full per-automaton dispatch telemetry: delivery/processing
    /// counters, the exact number of events the predicate index skipped
    /// for it, and its mailbox backlog.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn automaton_telemetry(&self, id: AutomatonId) -> Result<AutomatonTelemetry> {
        let automata = self.inner.automata.lock();
        let entry = automata
            .get(&id)
            .ok_or(Error::NoSuchAutomaton { id: id.0 })?;
        Ok(entry.telemetry())
    }

    /// The node's whole telemetry as one snapshot: the registry's
    /// histograms and counters ([`Obs::snapshot`]) plus the cache's
    /// point-in-time values — automaton-dispatch sums, durability
    /// counters (0 when durability is off), replication watermarks and
    /// the RPC pool size — each a counter named after the
    /// `psrpc::ServerStats` / `psrpc::message::HealthReport` field it
    /// fills. The RPC layer appends its server counters and serves the
    /// result over `Request::Metrics`.
    ///
    /// Several of these are levels or watermarks, not totals:
    /// [`MetricsSnapshot::merge`] sums them like any counter, so read
    /// them from one node's snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.obs.snapshot();
        let telemetry: Vec<AutomatonTelemetry> = self
            .inner
            .automata
            .lock()
            .values()
            .map(AutomatonEntry::telemetry)
            .collect();
        let sum = |field: fn(&AutomatonTelemetry) -> u64| telemetry.iter().map(field).sum();
        let wal = self.wal_stats().unwrap_or_default();
        let repl = self.repl_stats();
        snapshot.counters.extend(
            [
                ("automata_active", telemetry.len() as u64),
                ("events_delivered", sum(|t| t.delivered)),
                ("events_processed", sum(|t| t.processed)),
                (
                    "events_skipped_by_prefilter",
                    sum(|t| t.skipped_by_prefilter),
                ),
                ("automaton_queue_depth", sum(|t| t.queue_depth)),
                (
                    "automaton_max_queue_depth",
                    telemetry
                        .iter()
                        .map(|t| t.max_queue_depth)
                        .max()
                        .unwrap_or(0),
                ),
                ("wal_records", wal.records),
                ("wal_syncs", wal.syncs),
                ("wal_checkpoints", wal.checkpoints),
                ("wal_checkpoint_failures", wal.checkpoint_failures),
                ("wal_replayed", wal.replayed),
                (
                    "repl_is_follower",
                    u64::from(repl.role == ReplRole::Follower),
                ),
                ("repl_commit_lsn", repl.commit_lsn),
                ("repl_replica_lsn", repl.replica_lsn),
                ("repl_followers", repl.followers as u64),
                ("repl_min_follower_acked_lsn", repl.min_follower_acked_lsn),
                ("rpc_workers", self.inner.rpc_workers as u64),
            ]
            .map(|(name, v)| (name.to_owned(), v)),
        );
        snapshot
    }

    /// The newest [`AUTOMATON_LOG_LINES`](crate::runtime::AUTOMATON_LOG_LINES)
    /// lines printed by the automaton's `print()` calls, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn printed(&self, id: AutomatonId) -> Result<Vec<String>> {
        let routes = self.inner.routes.read();
        let route = routes.get(&id).ok_or(Error::NoSuchAutomaton { id: id.0 })?;
        Ok(route.stats.printed.lines())
    }

    /// The newest [`AUTOMATON_LOG_LINES`](crate::runtime::AUTOMATON_LOG_LINES)
    /// runtime errors recorded for the automaton, oldest first (a
    /// healthy automaton has none).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchAutomaton`] for unknown ids.
    pub fn automaton_errors(&self, id: AutomatonId) -> Result<Vec<String>> {
        let routes = self.inner.routes.read();
        let route = routes.get(&id).ok_or(Error::NoSuchAutomaton { id: id.0 })?;
        Ok(route.stats.errors.lines())
    }

    /// Publish a `Timer` heartbeat tuple right now. Returns its timestamp.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates internal errors.
    pub fn tick_timer(&self) -> Result<Timestamp> {
        self.inner.tick_timer()
    }

    /// Block until every automaton has processed every event delivered to
    /// it, or until `timeout` elapses. Returns `true` when quiescent.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let quiescent = {
                let routes = self.inner.routes.read();
                routes.values().all(|route| {
                    route.stats.processed.load(Ordering::Acquire)
                        >= route.stats.delivered.load(Ordering::Acquire)
                })
            };
            if quiescent {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Shut down the executor pool (draining every mailbox first) and
    /// the timer thread. Called automatically when the last clone of the
    /// cache is dropped.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        // Replication first: stop serving followers and seal our own
        // stream before tearing anything else down.
        if let Some(mut listener) = self.repl_listener.lock().take() {
            listener.stop();
        }
        if let Some(follower) = self.follower.lock().take() {
            follower.seal();
        }
        self.inner.automata.lock().clear();
        self.inner.dispatch.clear_subscribers();
        self.inner.routes.write().clear();
        // The Shutdown marker queues behind all pending events in each
        // worker's mailbox, so automata finish their backlog before the
        // pool joins — no event accepted before shutdown is dropped.
        self.inner.executor.shutdown();
        if let Some(join) = self.timer_thread.lock().take() {
            // The timer thread checks the shutdown flag after its sleep; do
            // not block the caller on that sleep, just detach if needed.
            if join.is_finished() {
                let _ = join.join();
            }
        }
    }
}

impl Default for Cache {
    fn default() -> Self {
        Cache::new()
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        // Only the last clone performs the shutdown: inner strong count of 1
        // means no other Cache clone exists (automaton threads hold weak
        // references only).
        if Arc::strong_count(&self.inner) == 1 {
            self.shutdown();
        }
    }
}

/// The durable write path in two phases: **stage** any number of
/// inserts, then **commit** them with one durability wait. Opened by
/// [`Cache::write_run`].
///
/// Staging does everything a write does under its table's lock — the
/// row is staged (invisible to readers), its log record appended, its
/// idempotency token recorded, the tuple published to subscribed
/// automata — and returns the outcome the caller will acknowledge.
/// [`WriteRun::commit`] then waits *once* for the newest staged record,
/// makes every staged row visible and runs a checkpoint if one is due.
/// A run of one is the synchronous insert; a run of many is how a
/// single pipelined writer shares a group-commit wave with itself.
///
/// What a caller may rely on, and must uphold:
///
/// * **Flush-before-ack.** An outcome whose call raised
///   [`WriteRun::awaiting`] must not be acknowledged before `commit`
///   has returned; if it returns an error those outcomes are void
///   (answer them with that error). The others — a write to an
///   in-memory table, a refused row — stand on their own.
/// * **Flush-before-visible.** A staged row of a durable table is
///   invisible to every reader (this run's thread included) until the
///   wait inside `commit` has returned; writes that need no log record
///   are visible at once, as they are without a run.
/// * **A staged row is never stranded.** Dropping the run commits it,
///   whatever path abandoned it; only the error is lost.
/// * Notification, token and log order (hence replication-ship order)
///   are staging order: the tuple is published, the token recorded and
///   the LSN minted under the table lock, at stage time.
#[derive(Debug)]
pub struct WriteRun<'a> {
    cache: &'a CacheInner,
    /// Tables holding rows this run staged behind a log record, each
    /// with the staged tail `commit` makes visible.
    touched: Vec<(Arc<crate::table::TableHandle>, u64)>,
    /// The newest LSN `commit` must see durable.
    lsn: Option<u64>,
    /// Outcomes returned so far that wait on that LSN.
    awaiting: usize,
}

impl<'a> WriteRun<'a> {
    fn new(cache: &'a CacheInner) -> WriteRun<'a> {
        WriteRun {
            cache,
            touched: Vec::new(),
            lsn: None,
            awaiting: 0,
        }
    }

    /// Stage [`Cache::insert_with_token`]: same arguments, same outcome,
    /// same errors — minus the durability wait.
    ///
    /// # Errors
    ///
    /// See [`Cache::insert`]; nothing is staged on error.
    pub fn insert(
        &mut self,
        table: &str,
        values: Vec<Scalar>,
        upsert: bool,
        token: Option<IdemToken>,
    ) -> Result<(bool, Timestamp)> {
        let cache = self.cache;
        cache
            .stage_values(self, table, values, upsert, token)
            .map(|o| (o.replaced, o.stored.tstamp()))
    }

    /// Stage [`Cache::insert_batch_with_token`].
    ///
    /// # Errors
    ///
    /// See [`Cache::insert_batch`]; the rows before the first bad row
    /// stay staged and commit with the run.
    pub fn insert_batch(
        &mut self,
        table: &str,
        rows: Vec<Vec<Scalar>>,
        upsert: bool,
        token: Option<IdemToken>,
    ) -> Result<Vec<Timestamp>> {
        let cache = self.cache;
        cache.stage_batch_values(self, table, rows, upsert, token)
    }

    /// [`Cache::token_lookup`] for a caller about to *acknowledge* the
    /// remembered outcome. A token is recorded when its mutation is
    /// staged, so the original's record may still be waiting for its
    /// flush (in another run, on another thread); a hit therefore makes
    /// this run await the token table's newest LSN — at or above the
    /// original's, and free when already durable — which puts the
    /// retry's reply under the same flush-before-ack rule as the
    /// original's.
    pub fn token_lookup(&mut self, token: IdemToken) -> Option<TokenOutcome> {
        let tokens = self.cache.tokens.lock();
        let outcome = tokens.lookup(token)?;
        if self.cache.wal.is_some() && tokens.high_lsn() > 0 {
            self.await_lsn(tokens.high_lsn());
        }
        Some(outcome)
    }

    /// How many of the outcomes this run has returned are waiting for
    /// [`WriteRun::commit`]: zero while nothing it did involves the
    /// log. A call that raises the count returned such an outcome.
    pub fn awaiting(&self) -> usize {
        self.awaiting
    }

    fn await_lsn(&mut self, lsn: u64) {
        self.lsn = self.lsn.max(Some(lsn));
        self.awaiting += 1;
    }

    /// Make everything staged durable, then visible, honouring
    /// **flush-before-visible**: the newest staged record is awaited
    /// with no table lock held (group commit — the bytes reach the disk
    /// here, not at append time), and only then is each touched table
    /// re-locked to commit its staged prefix. A reader can therefore
    /// never observe a row whose log record is still sitting in the
    /// group-commit buffer. Waiting for the newest record alone is
    /// enough, and out-of-order completion between runs is safe, because
    /// the log's durability is prefix-ordered: a later record's flush
    /// covers every earlier one, so a later writer's commit covering an
    /// earlier writer's staged rows implies their records are durable
    /// too. A checkpoint, if one is due, runs once at the end. The run
    /// is empty afterwards and may be staged into again.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wal`] when the flush fails. The staged rows are
    /// committed anyway — wedging them invisible would block every
    /// later commit of their tables — and the error tells the writer
    /// its records may not have reached the disk.
    pub fn commit(&mut self) -> Result<()> {
        let (Some(wal), Some(lsn)) = (&self.cache.wal, self.lsn.take()) else {
            return Ok(());
        };
        self.awaiting = 0;
        let durable = wal.wait_durable(lsn);
        for (table, staged_end) in self.touched.drain(..) {
            table.lock().commit_visible(staged_end);
        }
        durable?;
        self.cache.maybe_checkpoint();
        Ok(())
    }

    /// The tail of every staging call: `guard` still holds the lock the
    /// rows were staged under and `ticket` is the LSN of the record
    /// that logged them. A logged write joins the run; a write to an
    /// in-memory table or stream commits here, under the lock already
    /// held. A durable table arrives without a ticket only when the call
    /// staged nothing (an empty batch, a refused first row), and must
    /// not commit on behalf of rows still waiting for their flush.
    fn staged(
        &mut self,
        table: &Arc<crate::table::TableHandle>,
        mut guard: parking_lot::MutexGuard<'_, Table>,
        ticket: Option<u64>,
    ) {
        let staged_end = guard.staged_tail();
        let Some(lsn) = ticket else {
            if self.cache.wal.is_none() || guard.kind() != TableKind::Persistent {
                guard.commit_visible(staged_end);
            }
            return;
        };
        drop(guard);
        self.await_lsn(lsn);
        match self.touched.iter_mut().find(|(t, _)| Arc::ptr_eq(t, table)) {
            Some(entry) => entry.1 = staged_end,
            None => self.touched.push((Arc::clone(table), staged_end)),
        }
    }
}

impl Drop for WriteRun<'_> {
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

impl CacheInner {
    pub(crate) fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Reject the mutation when this cache is a read-only follower. The
    /// replication apply paths never come through here — they mirror
    /// the primary's mutations and bypass the public write surface,
    /// exactly like crash-recovery replay.
    fn ensure_writable(&self, what: &str) -> Result<()> {
        if self.role.load(Ordering::Acquire) == ROLE_FOLLOWER {
            return Err(Error::read_only(format!(
                "{what} must go to the primary (or promote() this replica)"
            )));
        }
        Ok(())
    }

    pub(crate) fn create_table(
        &self,
        name: &str,
        kind: TableKind,
        schema: Arc<Schema>,
        capacity: usize,
    ) -> Result<()> {
        self.create_table_tokened(name, kind, schema, capacity, None)
    }

    pub(crate) fn create_table_tokened(
        &self,
        name: &str,
        kind: TableKind,
        schema: Arc<Schema>,
        capacity: usize,
        token: Option<IdemToken>,
    ) -> Result<()> {
        self.ensure_writable("create table")?;
        let columns: Vec<(String, AttrType)> = schema
            .attributes()
            .iter()
            .map(|a| (a.name.clone(), a.ty))
            .collect();
        let table = Table::new(kind, schema, capacity);
        // DDL is logged for *every* table kind: a recovered cache has the
        // same topics as the crashed one, even though only persistent
        // tables get their rows back. The record is appended *before* the
        // table becomes visible in the store — a concurrent inserter can
        // only reach the table after its create record is in the log, so
        // the create's LSN is always below any of the table's row LSNs
        // and replay can never see an insert into a not-yet-created
        // table. Holding the checkpoint lock across append + publish
        // keeps a concurrent rotation from sandwiching in between, which
        // would snapshot the store without the table while retiring its
        // create record. (A spurious record from a losing TableExists
        // race is harmless: replay only raises the existing table's
        // watermark to it.)
        let ticket = match &self.wal {
            Some(wal) => {
                let _ckpt = self.checkpoint_lock.lock();
                let lsn =
                    wal.append(|lsn| wal::encode_create(lsn, name, kind, capacity, &columns))?;
                // The create record is the table's first watermark entry
                // (for streams, the only one): snapshots must claim the
                // DDL's LSN so replication bootstraps know a checkpoint
                // covers it.
                let mut table = table;
                table.note_wal(lsn);
                self.tables.create(name, table)?;
                match token {
                    Some(t) => {
                        // The token record goes right behind the create,
                        // still under the checkpoint lock; waiting on
                        // the later LSN implies the create is durable
                        // too.
                        let token_lsn = wal.append(|lsn| {
                            wal::encode_token(lsn, t.client_id, t.seq, &TokenOutcome::Created)
                        })?;
                        self.tokens
                            .lock()
                            .record(t, TokenOutcome::Created, token_lsn);
                        Some(token_lsn)
                    }
                    None => Some(lsn),
                }
            }
            None => {
                self.tables.create(name, table)?;
                if let Some(t) = token {
                    self.tokens.lock().record(t, TokenOutcome::Created, 0);
                }
                None
            }
        };
        self.wal_commit(ticket)?;
        Ok(())
    }

    /// Drop a table: unregister it from the store and purge every
    /// cache keyed by its name — compiled plans (the SQL text may be
    /// re-issued against a recreated table with a different schema)
    /// and the per-topic dispatch entry (whose prefilter buckets were
    /// compiled against the old schema). There is no drop record in
    /// the WAL format; durability comes from checkpointing
    /// immediately, which snapshots the store *without* the table and
    /// retires every log record that mentioned it (replay of any
    /// older log tolerates records for missing tables).
    pub(crate) fn drop_table(&self, name: &str) -> Result<()> {
        self.ensure_writable("drop table")?;
        if !self.tables.remove(name) {
            return Err(Error::NoSuchTable {
                name: name.to_owned(),
            });
        }
        self.plans.evict_table(name);
        self.dispatch.remove_topic(name);
        if self.wal.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Append one insert/upsert record for `rows` (already applied to the
    /// locked table behind `guard`) to the log. Returns the record's LSN
    /// — the commit ticket the [`WriteRun`] awaits at its commit — or
    /// `None` when the write needs no logging (durability off, or an
    /// ephemeral stream). A token, when present, is embedded in the
    /// record itself ([`wal::ReplayOp::Insert`]'s `token` field): one
    /// frame, one checksum — the mutation and its token are durable
    /// atomically.
    fn wal_log_insert(
        &self,
        table_name: &str,
        guard: &mut Table,
        rows: &[Tuple],
        upsert: bool,
        token: Option<(u64, u64, bool)>,
    ) -> Result<Option<u64>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        if guard.kind() != TableKind::Persistent || rows.is_empty() {
            return Ok(None);
        }
        let values: Vec<&[Scalar]> = rows.iter().map(Tuple::values).collect();
        let lsn = wal.append(|lsn| {
            wal::encode_insert(lsn, table_name, upsert, rows[0].tstamp(), &values, token)
        })?;
        guard.note_wal(lsn);
        Ok(Some(lsn))
    }

    /// Wait for the record with LSN `ticket` to be durable (after the
    /// table lock has been dropped) and run a checkpoint if one is due.
    fn wal_commit(&self, ticket: Option<u64>) -> Result<()> {
        let (Some(wal), Some(ticket)) = (&self.wal, ticket) else {
            return Ok(());
        };
        wal.wait_durable(ticket)?;
        self.maybe_checkpoint();
        Ok(())
    }

    /// Run a checkpoint if the record threshold has been crossed and no
    /// other thread is already checkpointing — `try_lock`, never a
    /// blocking wait, so when many inserters cross the threshold at
    /// once exactly one runs the checkpoint (which resets the counter)
    /// and the rest carry on; re-checking the threshold under the lock
    /// keeps a raced-ahead second checkpoint from running back-to-back.
    /// Failures are not fatal to the insert that tripped the threshold
    /// (its record is already durable): they count in
    /// [`WalStats::checkpoint_failures`], and the checkpoint is retried
    /// after another `checkpoint_every` records. [`Cache::checkpoint`]
    /// surfaces the error to callers who want it.
    fn maybe_checkpoint(&self) {
        if let Some(wal) = &self.wal {
            if wal.checkpoint_due() && !self.shutting_down.load(Ordering::Acquire) {
                if let Some(_guard) = self.checkpoint_lock.try_lock() {
                    if wal.checkpoint_due() {
                        let _ = self.checkpoint_phases(wal);
                    }
                }
            }
        }
    }

    /// Checkpoint every table and truncate the logs. See
    /// [`Cache::checkpoint`] for the public contract.
    pub(crate) fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Err(Error::wal("durability is not enabled on this cache"));
        };
        let _guard = self.checkpoint_lock.lock();
        self.checkpoint_phases(wal)
    }

    /// The three checkpoint phases; callers hold [`CacheInner::checkpoint_lock`].
    fn checkpoint_phases(&self, wal: &Arc<Wal>) -> Result<()> {
        let result = self.checkpoint_files(wal);
        if result.is_err() {
            wal.checkpoint_failed();
        }
        result
    }

    fn checkpoint_files(&self, wal: &Arc<Wal>) -> Result<()> {
        // Phase 1: rotate the logs. Records appended from here on go to
        // fresh files and are *newer* than the image below; records
        // already in the rotated files are *older* and will be covered
        // by it (each table's watermark is read under the same lock that
        // appends its records, so image and log can never disagree).
        wal.rotate_begin()?;
        // Phase 2: write what changed since the last checkpoint as a
        // delta over the base, or the whole image as a new base once the
        // deltas would hold as many entries as the tables hold rows, or
        // when no delta can describe the change (see `Wal::delta_entries`
        // and `Table::capture_delta`).
        let tables = self.tables.tables();
        let names: Vec<&str> = tables.iter().map(|(name, _)| name.as_str()).collect();
        if let Some(written) = wal.delta_entries(&names) {
            if let Some((delta, live)) = self.capture(&tables, true) {
                if written + delta.entries() < live {
                    wal.write_delta(&delta)?;
                    return wal.rotate_end();
                }
            }
        }
        let (base, _) = self
            .capture(&tables, false)
            .expect("a base capture describes every table");
        wal.write_base(&base)?;
        // Phase 3: the image is durable; the rotated logs are dead.
        wal.rotate_end()
    }

    /// Capture every table for a checkpoint image — a delta when
    /// `delta`, else a base — plus the live row count of the persistent
    /// tables. Locks are taken one table at a time, so inserts into
    /// other tables proceed during the capture, and each table's rows,
    /// watermark and change set are read in one critical section. A
    /// delta capture returns `None` when some table has no image on
    /// disk to be a delta of; the caller then captures a base, which
    /// needs no change set.
    fn capture(
        &self,
        tables: &[(String, Arc<crate::table::TableHandle>)],
        delta: bool,
    ) -> Option<(wal::Snapshot<Tuple>, u64)> {
        let mut image = Vec::with_capacity(tables.len());
        let mut live = 0u64;
        for (name, table) in tables {
            let mut guard = table.lock();
            // Staged rows are captured too: their records are appended
            // and covered by the watermark read below — an image
            // claiming their LSNs must contain them.
            let (rows, removed) = if delta {
                guard.capture_delta()?
            } else {
                (guard.capture_base(), Vec::new())
            };
            if guard.kind() == TableKind::Persistent {
                live += guard.len() as u64;
            }
            let columns = guard
                .schema()
                .attributes()
                .iter()
                .map(|a| (a.name.clone(), a.ty))
                .collect();
            image.push(SnapshotTable {
                name: name.clone(),
                kind: guard.kind(),
                capacity: guard.stream_capacity(),
                columns,
                watermark: guard.wal_watermark(),
                rows,
                removed,
            });
        }
        // The token table is captured *after* every table: a token is
        // recorded under its table's lock, so any insert a table capture
        // observed has its token here too (the reverse overlap — a token
        // whose insert replays from the fresh log — is harmless, since
        // re-recording is an idempotent overwrite).
        let (tokens, token_watermark) = {
            let t = self.tokens.lock();
            (t.entries(), t.high_lsn())
        };
        Some((
            wal::Snapshot {
                tables: image,
                tokens,
                token_watermark,
            },
            live,
        ))
    }

    /// Re-apply recovered state exactly as a follower applies a shipped
    /// stream: the checkpoint image through [`Self::install_snapshot`],
    /// then the log tail, in global LSN order, through
    /// [`Self::apply_record`]. Everything here bypasses both the log
    /// (nothing is re-logged) and publication (no automaton can observe
    /// a replayed tuple — replay happens before the cache is handed to
    /// the application, and this path never touches the dispatch index).
    fn apply_recovery(&self, recovery: Recovery) -> Result<()> {
        self.install_snapshot(&recovery.snapshot)?;
        for op in &recovery.ops {
            self.apply_record(op)?;
        }
        if recovery.needs_checkpoint {
            // A previous checkpoint was interrupted mid-flight; complete
            // it now so rotated logs never survive past the snapshot
            // that makes them redundant.
            self.checkpoint()?;
        }
        Ok(())
    }

    pub(crate) fn with_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<R>,
    ) -> Result<R> {
        let table = self.tables.get(name)?;
        let mut guard = table.lock();
        f(&mut guard)
    }

    /// Enforce cluster key ownership for a write of `rows` into
    /// `table_name` (see [`Cache::set_cluster_spec`]): with a spec
    /// installed, every row's routing key must hash to this node's
    /// partition. Validated before anything is staged, so a
    /// [`Error::WrongPartition`] reply always means "nothing was
    /// applied — resend to the named owner". The built-in `Timer`
    /// topic and internal tables are per-node, not partitioned.
    fn ensure_owned(&self, table_name: &str, rows: &[Vec<Scalar>]) -> Result<()> {
        if table_name == TIMER_TOPIC || table_name.starts_with('\u{1}') {
            return Ok(());
        }
        let Some(spec) = self.cluster.read().clone() else {
            return Ok(());
        };
        for row in rows {
            spec.check_owned(row)?;
        }
        Ok(())
    }

    /// Publish rows inserted on a *remote* partition to this node's
    /// automata — the subscription bridge's delivery seam. The rows are
    /// never stored locally (they live on their owning partition;
    /// queries scatter-gather): the local table of the same name —
    /// created by the cluster client's DDL broadcast — supplies the
    /// schema and the lock [`CacheInner::publish_locked`] requires.
    /// Returns how many rows were published. An unknown table or a
    /// schema mismatch delivers nothing rather than wedging the
    /// stream — the remote partition is authoritative for its own data,
    /// and a local mismatch means this node's DDL hasn't caught up.
    pub(crate) fn publish_remote(
        &self,
        topic: &str,
        rows: &[Vec<Scalar>],
        tstamp: Timestamp,
    ) -> usize {
        let Ok(table) = self.tables.get(topic) else {
            return 0;
        };
        let guard = table.lock();
        let schema = Arc::clone(guard.schema());
        let tuples: Vec<Tuple> = rows
            .iter()
            .filter_map(|values| Tuple::new(Arc::clone(&schema), values.clone(), tstamp).ok())
            .collect();
        self.publish_locked(topic, &tuples);
        drop(guard);
        tuples.len()
    }

    /// Insert and publish: the unification step. The per-table lock is held
    /// across both the buffer append and the enqueueing onto subscriber
    /// channels so that every automaton observes tuples in strict
    /// time-of-insertion order. The table-map lock is released
    /// before the table lock is taken, so inserts into other tables are
    /// never blocked by this one.
    pub(crate) fn insert_values(
        &self,
        table_name: &str,
        values: Vec<Scalar>,
        on_duplicate_update: bool,
    ) -> Result<crate::table::InsertOutcome> {
        self.run_of_one(|run| self.stage_values(run, table_name, values, on_duplicate_update, None))
    }

    /// The synchronous write: stage into a fresh [`WriteRun`] and commit
    /// it before returning. A log failure outranks the staging call's
    /// own error, since the rows it did stage may not be on disk.
    fn run_of_one<T>(&self, stage: impl FnOnce(&mut WriteRun<'_>) -> Result<T>) -> Result<T> {
        let mut run = WriteRun::new(self);
        let staged = stage(&mut run);
        run.commit()?;
        staged
    }

    fn stage_values(
        &self,
        run: &mut WriteRun<'_>,
        table_name: &str,
        values: Vec<Scalar>,
        on_duplicate_update: bool,
        token: Option<IdemToken>,
    ) -> Result<crate::table::InsertOutcome> {
        self.ensure_writable("insert")?;
        self.ensure_owned(table_name, std::slice::from_ref(&values))?;
        let table = self.tables.get(table_name)?;
        let mut guard = table.lock();
        let outcome = guard.stage_insert(values, self.now(), on_duplicate_update)?;
        // The log record is appended in the same critical section that
        // staged the row, so the log's order for this table equals
        // its staging order; the durability *wait* happens at the run's
        // commit, after the lock drops, which is what lets concurrent
        // inserters — and one writer's consecutive requests —
        // group-commit.
        let ticket = match self.wal_log_insert(
            table_name,
            &mut guard,
            std::slice::from_ref(&outcome.stored),
            on_duplicate_update,
            token.map(|t| (t.client_id, t.seq, false)),
        ) {
            Ok(ticket) => ticket,
            Err(e) => {
                // The append failed but the row is staged; commit it
                // (matching the old apply-then-log semantics, where a
                // log error left the row in place) and surface the
                // error.
                let staged_end = guard.staged_tail();
                guard.commit_visible(staged_end);
                return Err(e);
            }
        };
        if let Some(t) = token {
            // Recorded under the table lock: once the table snapshot of a
            // checkpoint has observed this insert, the (later) token
            // snapshot is guaranteed to hold its token too. For an
            // unlogged (in-memory) table the token survives reconnects
            // but not crashes — matching the table's own semantics.
            self.tokens.lock().record(
                t,
                TokenOutcome::Inserted {
                    replaced: outcome.replaced,
                    tstamp: outcome.stored.tstamp(),
                },
                ticket.unwrap_or(0),
            );
        }
        self.publish_locked(table_name, std::slice::from_ref(&outcome.stored));
        run.staged(&table, guard, ticket);
        Ok(outcome)
    }

    /// Insert many rows into one table under a single table-lock
    /// acquisition, publishing each stored tuple in row order.
    ///
    /// The batch is applied *prefix-wise*: rows are validated and inserted
    /// one at a time, and the first bad row aborts the remainder while the
    /// rows before it stay inserted (and published). All-or-nothing
    /// batches would require either a second validation pass or undo of
    /// published deliveries, both of which the hot path cannot afford;
    /// callers that need atomicity validate before batching.
    ///
    /// Subscribed automata observe the batch as a contiguous run of
    /// deliveries in row order — the lock is held across the whole batch,
    /// so tuples from concurrent writers can never interleave with it.
    fn stage_batch_values(
        &self,
        run: &mut WriteRun<'_>,
        table_name: &str,
        rows: Vec<Vec<Scalar>>,
        on_duplicate_update: bool,
        token: Option<IdemToken>,
    ) -> Result<Vec<Timestamp>> {
        self.ensure_writable("insert")?;
        // Ownership is validated for the *whole* batch before any row
        // is staged — unlike schema errors (prefix-applied, documented
        // above), a misrouted batch applies nothing, so the redirected
        // retry against the owning partition can resend it verbatim.
        self.ensure_owned(table_name, &rows)?;
        let table = self.tables.get(table_name)?;
        // A batch is one atomic insertion event: the clock is read once
        // and every row carries the same insertion timestamp, so a batch
        // can never straddle a `since τ` window boundary. Subscribers are
        // likewise resolved once per batch; when nobody is watching the
        // topic, the stored tuples are not even collected.
        let tstamp = self.now();
        let mut tstamps = Vec::with_capacity(rows.len());
        let mut guard = table.lock();
        // Resolved under the table lock — like the single-insert path —
        // so an automaton whose registration completed before this batch
        // took the lock can never miss the batch. The stored tuples are
        // also needed when the table is durable: the applied prefix of
        // the batch becomes one log record.
        let watched = !self.dispatch.topic(table_name).current().is_empty();
        let durable = self.wal.is_some() && guard.kind() == TableKind::Persistent;
        let mut stored = Vec::new();
        if watched || durable {
            stored.reserve(rows.len());
        }
        let mut result = Ok(());
        for values in rows {
            match guard.stage_insert(values, tstamp, on_duplicate_update) {
                Ok(outcome) => {
                    tstamps.push(outcome.stored.tstamp());
                    if watched || durable {
                        stored.push(outcome.stored);
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // The staged prefix (everything before the first bad row)
        // commits together, as one visibility event.
        // A batch that failed mid-way records no token: its applied
        // prefix stays at-least-once (documented limitation), and
        // embedding a token would make a retry of the *whole* batch
        // deduplicate against a partial application.
        let record_token = if result.is_ok() { token } else { None };
        let ticket = match self.wal_log_insert(
            table_name,
            &mut guard,
            &stored,
            on_duplicate_update,
            record_token.map(|t| (t.client_id, t.seq, true)),
        ) {
            Ok(ticket) => ticket,
            Err(e) => {
                let staged_end = guard.staged_tail();
                guard.commit_visible(staged_end);
                return Err(e);
            }
        };
        if let Some(t) = record_token {
            self.tokens.lock().record(
                t,
                TokenOutcome::InsertedBatch {
                    tstamps: tstamps.clone(),
                },
                ticket.unwrap_or(0),
            );
        }
        if watched {
            self.publish_locked(table_name, &stored);
        }
        run.staged(&table, guard, ticket);
        result?;
        Ok(tstamps)
    }

    /// Dispatch `tuples` (in order) to the mailboxes of the automata
    /// whose prefilter can match them. Callers must hold the topic's
    /// table lock; the topic's predicate index is resolved **once per
    /// call** (one probe per batch), then each tuple selects its
    /// candidates from the snapshot — equality guards via bucket
    /// lookup, range guards via band test, residual guards by
    /// evaluation — so an insert wakes only the automata that can act
    /// on it.
    fn publish_locked(&self, topic: &str, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let td = self.dispatch.topic(topic);
        let index = td.snapshot_and_count(tuples.len() as u64);
        if index.is_empty() {
            return;
        }
        let routes = self.routes.read();
        let topic: Arc<str> = Arc::from(topic);
        let mut selected: Vec<AutomatonId> = Vec::new();
        // One clock read per publish batch: every event of the batch
        // carries the same enqueue instant, which the owning worker
        // subtracts at pickup to record dispatch queue latency.
        let enqueued = Instant::now();
        for tuple in tuples {
            index.select_into(tuple, &mut selected);
            for id in selected.drain(..) {
                if let Some(route) = routes.get(&id) {
                    route.stats.record_enqueued();
                    let _ = route.tx.send(WorkerMsg::Event {
                        id,
                        topic: Arc::clone(&topic),
                        tuple: tuple.clone(),
                        enqueued,
                    });
                }
            }
        }
    }

    /// The lock-free read path: load the table's published snapshot
    /// (one shared-pointer clone under a momentary slot read-guard —
    /// never the table mutex) and evaluate the plan directly over the
    /// snapshot's borrowed rows. The evaluation cuts one visible
    /// horizon when iteration starts, so it observes every write
    /// committed before the call and none after — the atomicity a
    /// table lock would buy, without taking one. Matching
    /// rows alone pay refcount clones, at projection time; with a
    /// selective predicate the win over clone-the-window is large even
    /// single-threaded, before any reader parallelism.
    pub(crate) fn select(&self, query: &Query) -> Result<ResultSet> {
        let t = Instant::now();
        let snap = self.tables.get(query.table())?.snapshot();
        let plan = QueryPlan::compile(query, snap.schema())?;
        let result = plan.evaluate_rows(snap.range(query.since_tstamp()));
        self.obs.select_ns.record_duration(t.elapsed());
        result
    }

    /// Run a plan-cached `select` (see [`Cache::execute`]). Cached
    /// plans key on schema `Arc` identity, which is stable across
    /// snapshot generations of one table instance, so the steady state
    /// is: one atomic snapshot load, one pointer compare, evaluate.
    pub(crate) fn select_cached(&self, entry: &PlanEntry) -> Result<ResultSet> {
        let t = Instant::now();
        let snap = self.tables.get(entry.query.table())?.snapshot();
        let plan = entry.plan_for(snap.schema())?;
        let result = plan.evaluate_rows(snap.range(entry.query.since_tstamp()));
        self.obs.select_ns.record_duration(t.elapsed());
        result
    }

    pub(crate) fn table_len(&self, name: &str) -> Result<usize> {
        Ok(self.tables.get(name)?.len())
    }

    pub(crate) fn persistent_lookup(&self, table: &str, key: &str) -> Result<Option<Vec<Scalar>>> {
        Ok(self
            .tables
            .get(table)?
            .lookup(key)
            .map(|r| r.values().to_vec()))
    }

    pub(crate) fn persistent_keys(&self, table: &str) -> Result<Vec<String>> {
        Ok(self.tables.get(table)?.keys())
    }

    pub(crate) fn persistent_remove(&self, table: &str, key: &str) -> Result<Option<Tuple>> {
        self.run_of_one(|run| self.stage_removal(run, table, key))
    }

    fn stage_removal(
        &self,
        run: &mut WriteRun<'_>,
        table: &str,
        key: &str,
    ) -> Result<Option<Tuple>> {
        self.ensure_writable("remove")?;
        // Removals are keyed, so ownership is checked on the key
        // directly — same rule as inserts, same redirectable error.
        if table != TIMER_TOPIC && !table.starts_with('\u{1}') {
            if let Some(spec) = self.cluster.read().clone() {
                let owner = spec.owner_of(key);
                if owner != spec.index() {
                    return Err(Error::WrongPartition {
                        partition: owner as u64,
                    });
                }
            }
        }
        let t = self.tables.get(table)?;
        let mut guard = t.lock();
        let removed = guard.stage_remove(key)?;
        // Removals are logged unconditionally (even when the key was
        // absent): a remove is idempotent to replay, and logging every
        // call keeps the log a faithful, one-record-per-operation
        // transcript of the mutation history.
        let ticket = match &self.wal {
            Some(wal) if guard.kind() == TableKind::Persistent => {
                match wal.append(|lsn| wal::encode_remove(lsn, table, key)) {
                    Ok(lsn) => {
                        guard.note_wal(lsn);
                        Some(lsn)
                    }
                    Err(e) => {
                        let staged_end = guard.staged_tail();
                        guard.commit_visible(staged_end);
                        return Err(e);
                    }
                }
            }
            _ => None,
        };
        run.staged(&t, guard, ticket);
        Ok(removed)
    }

    /// Upsert a row into a persistent table on behalf of an automaton
    /// association. The stored row is also published on the table's topic,
    /// so materialised views can drive further automata (§3).
    pub(crate) fn persistent_upsert(
        &self,
        table_name: &str,
        key: &str,
        mut values: Vec<Scalar>,
    ) -> Result<()> {
        // Accept either a full row (key included as the first attribute) or
        // the non-key attributes only, in which case the key is prepended.
        let arity = self.with_table(table_name, |t| Ok(t.schema().arity()))?;
        if values.len() + 1 == arity {
            values.insert(0, Scalar::Str(Arc::from(key)));
        }
        if let Some(first) = values.first() {
            if first.to_string() != key {
                return Err(Error::schema(format!(
                    "association insert key `{key}` does not match first attribute `{first}`"
                )));
            }
        }
        self.insert_values(table_name, values, true).map(|_| ())
    }

    pub(crate) fn tick_timer(&self) -> Result<Timestamp> {
        let now = self.now();
        if self.role.load(Ordering::Acquire) == ROLE_FOLLOWER {
            // A follower publishes nothing: its automata only ever see
            // live local traffic, of which a pure replica has none. The
            // heartbeat silently idles until promotion.
            return Ok(now);
        }
        self.insert_values(TIMER_TOPIC, vec![Scalar::Tstamp(now)], false)
            .map(|o| o.stored.tstamp())
    }

    // -----------------------------------------------------------------
    // Replication: the primary's bootstrap reads and the follower's
    // apply paths. Everything here bypasses the public write surface
    // (and publication) the same way crash-recovery replay does.
    // -----------------------------------------------------------------

    /// The replication hub, present on every durable cache.
    pub(crate) fn repl_hub(&self) -> Option<&Arc<ReplHub>> {
        self.repl_hub.as_ref()
    }

    /// Highest LSN this replica has applied.
    pub(crate) fn repl_applied(&self) -> u64 {
        self.repl_applied_lsn.load(Ordering::Acquire)
    }

    /// Read the snapshot and full on-disk frame backlog for a follower
    /// bootstrap, under the checkpoint lock so no concurrent rotation
    /// can retire a log file mid-read.
    pub(crate) fn repl_bootstrap(&self) -> Result<wal::Backlog> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| Error::repl("replication is served only by durable caches"))?;
        let _guard = self.checkpoint_lock.lock();
        wal.read_backlog()
    }

    /// Reset this replica to a shipped snapshot: every table is
    /// replaced by its snapshot image, tables the snapshot does not
    /// contain are dropped (a divergence reset must not leave orphans
    /// from the discarded history — their stale watermarks would
    /// silently suppress the new primary's records at reused LSNs), and
    /// the local log, when this follower keeps one, is truncated and
    /// re-seeded. Afterwards the replica is complete up to the
    /// snapshot's high watermark — exactly it, in both directions.
    pub(crate) fn repl_apply_snapshot(&self, bytes: &[u8]) -> Result<()> {
        let snapshot = wal::decode_snapshot(bytes)?;
        for name in self.tables.names() {
            if !snapshot.tables.iter().any(|t| t.name == name) {
                self.tables.remove(&name);
                // A divergence reset drops the table for good; its
                // cached plans and topic dispatch state go with it,
                // exactly as in a local drop.
                self.plans.evict_table(&name);
                self.dispatch.remove_topic(&name);
            }
        }
        // The image replaces the token table wholesale too: a divergence
        // reset discards local token history the same way it discards
        // rows.
        self.install_snapshot(&snapshot)?;
        let high = wal::snapshot_high_watermark(&snapshot);
        if let Some(wal) = &self.wal {
            wal.reset_to_snapshot(&snapshot)?;
        }
        if let Some(hub) = &self.repl_hub {
            hub.reset_commit(high);
        }
        // A plain store, not max: a divergence reset (this follower had
        // records the primary's authoritative history does not) moves
        // the applied watermark *backwards* to the snapshot.
        self.repl_applied_lsn.store(high, Ordering::Release);
        Ok(())
    }

    /// Apply one shipped batch of WAL frames, in order, revalidating
    /// every record checksum; a durable follower appends the identical
    /// bytes to its own log (waiting for their durability once per
    /// batch, not per record) before acknowledging. Returns the new
    /// applied watermark.
    pub(crate) fn repl_apply_frames(&self, bytes: &[u8]) -> Result<u64> {
        let (frames, consumed) = wal::scan_frames(bytes);
        if consumed < bytes.len() {
            return Err(Error::repl(
                "torn or corrupt frame in the replication stream",
            ));
        }
        let mut hi = self.repl_applied_lsn.load(Ordering::Acquire);
        let mut appended = None;
        for frame in frames {
            let op = wal::decode_record(wal::frame_payload(frame))?;
            let lsn = op.lsn();
            if lsn <= self.repl_applied_lsn.load(Ordering::Acquire) {
                // Redelivery across a reconnect boundary: already applied.
                hi = hi.max(lsn);
                continue;
            }
            self.apply_record(&op)?;
            // Every frame of new history is appended — including ones
            // whose apply changed nothing but a watermark, like the
            // primary's create record for a table this replica already
            // has (its own built-in Timer). The local log must stay a
            // verbatim, gap-free copy of the primary's: a gap would read
            // as a hole at this cache's next recovery and break the
            // contiguous batches its own hub serves to chained
            // followers. Recovery dedups replayed creates, so the
            // duplicate-looking record is harmless there.
            if let Some(wal) = &self.wal {
                wal.append_frame(lsn, frame)?;
                appended = Some(lsn);
            }
            hi = hi.max(lsn);
        }
        if let (Some(wal), Some(lsn)) = (&self.wal, appended) {
            // The log is prefix-durable: the newest frame covers them all.
            wal.wait_durable(lsn)?;
        }
        self.repl_applied_lsn.fetch_max(hi, Ordering::AcqRel);
        // A durable follower checkpoints on the same cadence as a
        // primary, bounding its own recovery (and the snapshot it can
        // serve onward when chained).
        self.maybe_checkpoint();
        Ok(self.repl_applied_lsn.load(Ordering::Acquire))
    }

    /// Install a checkpoint image — at crash recovery and at a
    /// follower's snapshot reset alike. Each table is built off-line
    /// (DDL, rows upserted in scan order, watermark) and then swapped in
    /// through its handle, or created; the token table is replaced by
    /// the image's entries. Afterwards every table holds exactly its
    /// image, watermark included.
    fn install_snapshot(&self, snapshot: &wal::Snapshot) -> Result<()> {
        for snap in &snapshot.tables {
            let schema = Arc::new(Schema::new(snap.name.clone(), snap.columns.clone())?);
            // Populate the image fully *before* it becomes visible:
            // concurrent follower reads must see the old state or the
            // snapshot state, never an empty or half-loaded table in
            // between.
            let mut fresh = Table::new(snap.kind, schema, snap.capacity);
            for (tstamp, values) in &snap.rows {
                fresh.insert(values.clone(), *tstamp, true)?;
            }
            fresh.note_wal(snap.watermark);
            fresh.mark_checkpointed();
            match self.tables.get(&snap.name) {
                // Swap through the handle, not into it: `replace`
                // rebinds the fresh table's snapshot and key map onto
                // the handle's reader-shared state, so reads holding the
                // handle flip atomically from old state to snapshot
                // state. (A plain `*lock() = fresh` would strand readers
                // on the orphaned published slot.)
                Ok(handle) => handle.replace(fresh),
                Err(_) => self.tables.create(&snap.name, fresh)?,
            }
        }
        let mut tokens = self.tokens.lock();
        *tokens = TokenTable::new(self.token_history);
        for (client_id, seq, outcome) in &snapshot.tokens {
            tokens.record(
                IdemToken {
                    client_id: *client_id,
                    seq: *seq,
                },
                outcome.clone(),
                0,
            );
        }
        tokens.set_high_lsn(snapshot.token_watermark);
        Ok(())
    }

    /// Apply one logged record — a replayed one at crash recovery or a
    /// replicated one on a follower. Records at or below a table's
    /// watermark are already reflected (a checkpoint image covered
    /// them) and a create for an existing table only raises its
    /// watermark; these filters make both replay and re-delivery exact.
    fn apply_record(&self, op: &ReplayOp) -> Result<()> {
        match op {
            ReplayOp::CreateTable {
                lsn,
                name,
                kind,
                capacity,
                columns,
            } => {
                if let Ok(t) = self.tables.get(name) {
                    // The Timer's create on every primary open, or the
                    // spare record of a lost create race: the table
                    // stands, but the record still covers it, so a
                    // checkpoint image claims its LSN. Records arrive in
                    // LSN order, so raising the watermark never hides
                    // one still to come.
                    t.lock().note_wal(*lsn);
                    return Ok(());
                }
                let schema = Arc::new(Schema::new(name.clone(), columns.clone())?);
                let mut table = Table::new(*kind, schema, *capacity);
                table.note_wal(*lsn);
                self.tables.create(name, table)?;
                Ok(())
            }
            ReplayOp::Insert {
                lsn,
                table,
                upsert,
                tstamp,
                rows,
                token,
            } => {
                // A record for a table this cache no longer has: the
                // table was dropped after the record was logged (a local
                // drop's checkpoint, or a divergence reset, superseded
                // it). Skip, like a watermark-covered record.
                let Ok(t) = self.tables.get(table) else {
                    return Ok(());
                };
                let mut guard = t.lock();
                if guard.wal_watermark() >= *lsn {
                    // Already reflected by a checkpoint image — which
                    // carried the token table too.
                    return Ok(());
                }
                let mut replaced = false;
                for values in rows {
                    replaced = guard.insert(values.clone(), *tstamp, *upsert)?.replaced;
                }
                guard.note_wal(*lsn);
                if let Some((client_id, seq, batch)) = token {
                    // Rebuild the remembered outcome exactly as the
                    // original request reported it, so a client retrying
                    // across a crash or a `promote()` failover gets the
                    // same reply.
                    let outcome = if *batch {
                        TokenOutcome::InsertedBatch {
                            tstamps: vec![*tstamp; rows.len()],
                        }
                    } else {
                        TokenOutcome::Inserted {
                            replaced,
                            tstamp: *tstamp,
                        }
                    };
                    self.tokens.lock().record(
                        IdemToken {
                            client_id: *client_id,
                            seq: *seq,
                        },
                        outcome,
                        *lsn,
                    );
                }
                Ok(())
            }
            ReplayOp::Remove { lsn, table, key } => {
                let Ok(t) = self.tables.get(table) else {
                    return Ok(());
                };
                let mut guard = t.lock();
                if guard.wal_watermark() >= *lsn {
                    return Ok(());
                }
                guard.remove(key)?;
                guard.note_wal(*lsn);
                Ok(())
            }
            ReplayOp::Token {
                lsn,
                client_id,
                seq,
                outcome,
            } => {
                // Recording is an idempotent overwrite, so re-delivery
                // needs no watermark check.
                self.tokens.lock().record(
                    IdemToken {
                        client_id: *client_id,
                        seq: *seq,
                    },
                    outcome.clone(),
                    *lsn,
                );
                Ok(())
            }
        }
    }
}

// No Drop impl is needed on CacheInner: dropping it drops the Executor,
// whose own Drop drains every worker mailbox and joins the pool threads
// (workers hold only Weak references back to the cache).

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Comparison, Predicate};

    fn cache() -> Cache {
        CacheBuilder::new().manual_clock().build()
    }

    #[test]
    fn create_insert_select_round_trip() {
        let c = cache();
        c.execute("create table Flows (srcip varchar(16), nbytes integer)")
            .unwrap();
        c.manual_clock().unwrap().advance(10);
        c.execute("insert into Flows values ('10.0.0.1', 100)")
            .unwrap();
        c.manual_clock().unwrap().advance(10);
        c.execute("insert into Flows values ('10.0.0.2', 2000)")
            .unwrap();

        let rs = c
            .execute("select * from Flows where nbytes > 500")
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].values[0], Scalar::Str("10.0.0.2".into()));
    }

    #[test]
    fn duplicate_table_creation_fails() {
        let c = cache();
        c.execute("create table T (a integer)").unwrap();
        assert!(matches!(
            c.execute("create table T (a integer)"),
            Err(Error::TableExists { .. })
        ));
    }

    #[test]
    fn insert_into_missing_table_fails() {
        let c = cache();
        assert!(matches!(
            c.execute("insert into Nope values (1)"),
            Err(Error::NoSuchTable { .. })
        ));
        assert!(matches!(
            c.execute("select * from Nope"),
            Err(Error::NoSuchTable { .. })
        ));
    }

    #[test]
    fn since_queries_drive_the_continuous_query_loop() {
        let c = cache();
        c.execute("create table Readings (v integer)").unwrap();
        for i in 0..5 {
            c.manual_clock().unwrap().advance(100);
            c.insert("Readings", vec![Scalar::Int(i)]).unwrap();
        }
        let first = c.select(&Query::new("Readings")).unwrap();
        assert_eq!(first.len(), 5);
        let tau = first.max_tstamp().unwrap();

        // No new tuples: the incremental query returns nothing.
        let incremental = c.select(&Query::new("Readings").since(tau)).unwrap();
        assert!(incremental.is_empty());

        // New tuples appear after τ.
        c.manual_clock().unwrap().advance(100);
        c.insert("Readings", vec![Scalar::Int(99)]).unwrap();
        let incremental = c.select(&Query::new("Readings").since(tau)).unwrap();
        assert_eq!(incremental.len(), 1);
    }

    #[test]
    fn persistent_tables_support_upsert_via_sql_and_api() {
        let c = cache();
        c.execute("create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)")
            .unwrap();
        c.execute("insert into BWUsage values ('10.0.0.1', 10)")
            .unwrap();
        let resp = c
            .execute("insert into BWUsage values ('10.0.0.1', 20) on duplicate key update")
            .unwrap();
        assert!(matches!(resp, Response::Inserted { replaced: true, .. }));
        assert!(c
            .execute("insert into BWUsage values ('10.0.0.1', 30)")
            .is_err());
        assert_eq!(c.table_len("BWUsage").unwrap(), 1);
        let row = c.lookup("BWUsage", "10.0.0.1").unwrap().unwrap();
        assert_eq!(row.values()[1], Scalar::Int(20));
    }

    #[test]
    fn registering_an_automaton_requires_existing_topics_and_valid_source() {
        let c = cache();
        let err = c
            .register_automaton("subscribe f to Flows; behavior { }")
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchTable { .. }));

        c.execute("create table Flows (nbytes integer)").unwrap();
        let err = c
            .register_automaton("subscribe f to Flows; behavior { x = 1; }")
            .unwrap_err();
        assert!(matches!(err, Error::AutomatonCompile { .. }));

        let (id, _rx) = c
            .register_automaton("subscribe f to Flows; behavior { }")
            .unwrap();
        assert_eq!(c.automata(), vec![id]);
        c.unregister_automaton(id).unwrap();
        assert!(c.automata().is_empty());
        assert!(matches!(
            c.unregister_automaton(id),
            Err(Error::NoSuchAutomaton { .. })
        ));
    }

    /// A detach returns before the drain; its completion runs after the
    /// automaton's last notification and after its sink is gone, and a
    /// failed detach never runs it.
    #[test]
    fn a_detach_completes_after_the_last_notification() {
        let c = cache();
        c.execute("create table T (v integer)").unwrap();
        let (id, rx) = c
            .register_automaton("subscribe t to T; behavior { send(t.v); }")
            .unwrap();
        c.insert_batch("T", (0..100).map(|v| vec![Scalar::Int(v)]).collect())
            .unwrap();
        let (done, completed) = unbounded();
        c.detach_automaton(id, move || {
            // Every notification is in, and the sink is dropped.
            let seen: Vec<Scalar> = rx.try_iter().map(|n| n.values[0].clone()).collect();
            let closed = matches!(
                rx.try_recv(),
                Err(crossbeam::channel::TryRecvError::Disconnected)
            );
            let _ = done.send((seen, closed));
        })
        .unwrap();
        assert!(c.automata().is_empty());
        let (seen, closed) = completed.recv().unwrap();
        assert_eq!(seen, (0..100).map(Scalar::Int).collect::<Vec<_>>());
        assert!(closed, "the sink outlived the drain");

        let (done, never) = unbounded::<()>();
        let err = c.detach_automaton(id, move || {
            let _ = done.send(());
        });
        assert!(matches!(err, Err(Error::NoSuchAutomaton { .. })));
        assert!(never.recv().is_err(), "a failed detach ran its completion");
    }

    #[test]
    fn automata_receive_published_events_and_send_notifications() {
        let c = cache();
        c.execute("create table Flows (srcip varchar(16), nbytes integer)")
            .unwrap();
        let (id, rx) = c
            .register_automaton(
                r#"
                subscribe f to Flows;
                int count;
                initialization { count = 0; }
                behavior {
                    count += 1;
                    if (f.nbytes > 1000)
                        send(f.srcip, f.nbytes, count);
                }
                "#,
            )
            .unwrap();

        c.insert("Flows", vec![Scalar::Str("a".into()), Scalar::Int(10)])
            .unwrap();
        c.insert("Flows", vec![Scalar::Str("b".into()), Scalar::Int(5000)])
            .unwrap();
        c.insert("Flows", vec![Scalar::Str("c".into()), Scalar::Int(2000)])
            .unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));

        let notes: Vec<Notification> = rx.try_iter().collect();
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].values[0], Scalar::Str("b".into()));
        assert_eq!(notes[0].values[2], Scalar::Int(2));
        assert_eq!(notes[1].values[0], Scalar::Str("c".into()));
        let (delivered, processed) = c.automaton_progress(id).unwrap();
        assert_eq!(delivered, 3);
        assert_eq!(processed, 3);
        assert!(c.automaton_errors(id).unwrap().is_empty());
    }

    #[test]
    fn publish_from_an_automaton_cascades_to_other_automata() {
        let c = cache();
        c.execute("create table Raw (v integer)").unwrap();
        c.execute("create table Derived (v integer)").unwrap();
        let (_a, _rx_a) = c
            .register_automaton("subscribe r to Raw; behavior { publish('Derived', r.v * 10); }")
            .unwrap();
        let (_b, rx_b) = c
            .register_automaton("subscribe d to Derived; behavior { send(d.v); }")
            .unwrap();
        for i in 1..=3 {
            c.insert("Raw", vec![Scalar::Int(i)]).unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(5)));
        let got: Vec<i64> = rx_b
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![10, 20, 30]);
        assert_eq!(c.table_len("Derived").unwrap(), 3);
    }

    #[test]
    fn hybrid_bandwidth_scenario_runs_end_to_end() {
        let c = cache();
        for stmt in [
            "create table Flows (protocol integer, srcip varchar(16), sport integer, \
             dstip varchar(16), dport integer, npkts integer, nbytes integer)",
            "create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)",
            "create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)",
        ] {
            c.execute(stmt).unwrap();
        }
        c.execute("insert into Allowances values ('192.168.1.10', 1000)")
            .unwrap();

        let (_id, rx) = c
            .register_automaton(
                r#"
                subscribe f to Flows;
                associate a with Allowances;
                associate b with BWUsage;
                int n, limit;
                identifier ip;
                sequence s;
                behavior {
                    ip = Identifier(f.dstip);
                    if (hasEntry(a, ip)) {
                        limit = seqElement(lookup(a, ip), 1);
                        if (hasEntry(b, ip))
                            n = seqElement(lookup(b, ip), 1);
                        else
                            n = 0;
                        n += f.nbytes;
                        s = Sequence(f.dstip, n);
                        if (n > limit)
                            send(s, limit, 'limit exceeded');
                        insert(b, ip, s);
                    }
                }
                "#,
            )
            .unwrap();

        let insert_flow = |dst: &str, nbytes: i64| {
            c.insert(
                "Flows",
                vec![
                    Scalar::Int(6),
                    Scalar::Str("192.168.1.2".into()),
                    Scalar::Int(55000),
                    Scalar::Str(dst.into()),
                    Scalar::Int(443),
                    Scalar::Int(10),
                    Scalar::Int(nbytes),
                ],
            )
            .unwrap();
        };
        insert_flow("8.8.8.8", 999_999); // unmonitored
        insert_flow("192.168.1.10", 600);
        insert_flow("192.168.1.10", 600); // exceeds the 1000-byte allowance
        assert!(c.quiesce(Duration::from_secs(5)));

        let notes: Vec<Notification> = rx.try_iter().collect();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].values[1], Scalar::Int(1200));
        assert_eq!(notes[0].values[2], Scalar::Int(1000));
        let usage = c.lookup("BWUsage", "192.168.1.10").unwrap().unwrap();
        assert_eq!(usage.values()[1], Scalar::Int(1200));
    }

    #[test]
    fn timer_topic_exists_and_can_be_ticked_manually() {
        let c = cache();
        assert!(c.table_names().contains(&TIMER_TOPIC.to_string()));
        let (_id, rx) = c
            .register_automaton("subscribe t to Timer; behavior { send(t.tstamp); }")
            .unwrap();
        c.manual_clock().unwrap().set(5_000_000_000);
        c.tick_timer().unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        let notes: Vec<Notification> = rx.try_iter().collect();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].values[0], Scalar::Tstamp(5_000_000_000));
    }

    #[test]
    fn background_timer_thread_publishes_heartbeats() {
        let c = CacheBuilder::new()
            .timer_interval(Duration::from_millis(5))
            .build();
        let (_id, rx) = c
            .register_automaton("subscribe t to Timer; behavior { send(t.tstamp); }")
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        while got < 3 && Instant::now() < deadline {
            got += rx.try_iter().count();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(got >= 3, "expected at least 3 heartbeats, got {got}");
        c.shutdown();
    }

    #[test]
    fn insert_batch_preserves_order_and_publishes_contiguously() {
        let c = cache();
        c.execute("create table S (v integer)").unwrap();
        let (_id, rx) = c
            .register_automaton("subscribe s to S; behavior { send(s.v); }")
            .unwrap();
        let rows: Vec<Vec<Scalar>> = (0..100).map(|i| vec![Scalar::Int(i)]).collect();
        let tstamps = c.insert_batch("S", rows).unwrap();
        assert_eq!(tstamps.len(), 100);
        assert!(tstamps.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.quiesce(Duration::from_secs(5)));
        let got: Vec<i64> = rx
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(c.table_len("S").unwrap(), 100);
    }

    #[test]
    fn multi_row_sql_insert_goes_through_the_batch_path() {
        let c = cache();
        c.execute("create table S (v integer, w varchar(8))")
            .unwrap();
        let resp = c
            .execute("insert into S values (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        match resp {
            Response::InsertedBatch { tstamps } => assert_eq!(tstamps.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.table_len("S").unwrap(), 3);
        let rs = c.select(&Query::new("S")).unwrap();
        let vals: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn batch_errors_keep_the_valid_prefix() {
        let c = cache();
        c.execute("create persistenttable P (k varchar(8) primary key, v integer)")
            .unwrap();
        let rows = vec![
            vec![Scalar::Str("a".into()), Scalar::Int(1)],
            vec![Scalar::Str("b".into()), Scalar::Int(2)],
            vec![Scalar::Str("a".into()), Scalar::Int(3)], // duplicate key
            vec![Scalar::Str("c".into()), Scalar::Int(4)], // never applied
        ];
        assert!(c.insert_batch("P", rows).is_err());
        assert_eq!(c.table_len("P").unwrap(), 2);
        assert!(c.lookup("P", "c").unwrap().is_none());

        // The upsert batch accepts the duplicate instead.
        let rows = vec![
            vec![Scalar::Str("a".into()), Scalar::Int(9)],
            vec![Scalar::Str("c".into()), Scalar::Int(4)],
        ];
        assert_eq!(c.upsert_batch("P", rows).unwrap().len(), 2);
        assert_eq!(
            c.lookup("P", "a").unwrap().unwrap().values()[1],
            Scalar::Int(9)
        );
        // Batches into unknown tables fail cleanly.
        assert!(matches!(
            c.insert_batch("Nope", vec![vec![Scalar::Int(1)]]),
            Err(Error::NoSuchTable { .. })
        ));
        // An empty batch is a no-op.
        assert!(c.insert_batch("P", Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn concurrent_inserts_across_tables_keep_per_table_order() {
        let c = CacheBuilder::new().build();
        let threads = 4;
        let per_thread = 500;
        for t in 0..threads {
            c.execute(&format!("create table W{t} (v integer)"))
                .unwrap();
        }
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        c.insert(&format!("W{t}"), vec![Scalar::Int(i)]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..threads {
            let rs = c.select(&Query::new(format!("W{t}"))).unwrap();
            let vals: Vec<i64> = rs
                .rows
                .iter()
                .map(|r| r.values[0].as_int().unwrap())
                .collect();
            assert_eq!(vals, (0..per_thread).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stream_capacity_is_honoured() {
        let c = cache();
        c.execute("create table S (v integer) capacity 4").unwrap();
        for i in 0..10 {
            c.insert("S", vec![Scalar::Int(i)]).unwrap();
        }
        assert_eq!(c.table_len("S").unwrap(), 4);
        let rs = c.select(&Query::new("S")).unwrap();
        let vals: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![6, 7, 8, 9]);
    }

    #[test]
    fn automaton_runtime_errors_are_recorded_not_fatal() {
        let c = cache();
        c.execute("create table T (v integer)").unwrap();
        let (id, _rx) = c
            .register_automaton("subscribe t to T; int x; behavior { x = 1 / (t.v - t.v); }")
            .unwrap();
        c.insert("T", vec![Scalar::Int(3)]).unwrap();
        c.insert("T", vec![Scalar::Int(4)]).unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        let errors = c.automaton_errors(id).unwrap();
        assert_eq!(errors.len(), 2);
        let (delivered, processed) = c.automaton_progress(id).unwrap();
        assert_eq!((delivered, processed), (2, 2));
    }

    #[test]
    fn query_builder_and_group_by_work_through_the_cache() {
        let c = cache();
        c.execute("create table Flows (srcip varchar(16), nbytes integer)")
            .unwrap();
        for (ip, bytes) in [("a", 10), ("b", 20), ("a", 30)] {
            c.insert("Flows", vec![Scalar::Str(ip.into()), Scalar::Int(bytes)])
                .unwrap();
        }
        let rs = c
            .select(
                &Query::new("Flows")
                    .group_by("srcip")
                    .aggregate(crate::query::Aggregate::Sum("nbytes".into()))
                    .order_by("sum(nbytes)", true),
            )
            .unwrap();
        assert_eq!(rs.rows[0].values[0], Scalar::Str("a".into()));
        assert_eq!(rs.rows[0].values[1], Scalar::Int(40));

        let rs = c
            .select(
                &Query::new("Flows")
                    .filter(Predicate::compare("srcip", Comparison::Eq, "a"))
                    .columns(["nbytes"]),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn printed_lines_are_captured_per_automaton() {
        let c = cache();
        c.execute("create table T (v integer)").unwrap();
        let (id, _rx) = c
            .register_automaton("subscribe t to T; behavior { print(String('saw ', t.v)); }")
            .unwrap();
        c.insert("T", vec![Scalar::Int(7)]).unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        assert_eq!(c.printed(id).unwrap(), vec!["saw 7".to_string()]);
    }

    #[test]
    fn the_print_log_keeps_only_the_newest_lines() {
        use crate::runtime::AUTOMATON_LOG_LINES;
        const EXTRA: usize = 5;
        let c = cache();
        c.execute("create table T (v integer)").unwrap();
        let (id, _rx) = c
            .register_automaton("subscribe t to T; behavior { print(String('saw ', t.v)); }")
            .unwrap();
        let total = (AUTOMATON_LOG_LINES + EXTRA) as i64;
        c.insert_batch("T", (0..total).map(|v| vec![Scalar::Int(v)]).collect())
            .unwrap();
        assert!(c.quiesce(Duration::from_secs(10)));
        let want: Vec<String> = (EXTRA as i64..total).map(|v| format!("saw {v}")).collect();
        assert_eq!(c.printed(id).unwrap(), want);
    }

    #[test]
    fn prefiltered_automata_only_receive_matching_events() {
        let c = cache();
        c.execute("create table Ticks (sym varchar(8), price integer)")
            .unwrap();
        let (ibm, rx_ibm) = c
            .register_automaton(
                "subscribe t to Ticks; behavior { if (t.sym == 'IBM') send(t.price); }",
            )
            .unwrap();
        let (all, rx_all) = c
            .register_automaton("subscribe t to Ticks; int n; behavior { n += 1; send(n); }")
            .unwrap();
        for (sym, price) in [("IBM", 1), ("MSFT", 2), ("IBM", 3), ("AAPL", 4)] {
            c.insert("Ticks", vec![Scalar::Str(sym.into()), Scalar::Int(price)])
                .unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(5)));

        // The guarded automaton was only ever woken for its two events…
        let t = c.automaton_telemetry(ibm).unwrap();
        assert_eq!((t.delivered, t.processed), (2, 2));
        assert_eq!(t.skipped_by_prefilter, 2);
        let got: Vec<i64> = rx_ibm
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![1, 3]);

        // …while the opaque one saw everything and skipped nothing.
        let t = c.automaton_telemetry(all).unwrap();
        assert_eq!((t.delivered, t.processed), (4, 4));
        assert_eq!(t.skipped_by_prefilter, 0);
        assert_eq!(rx_all.try_iter().count(), 4);

        assert_eq!(c.topic_subscriber_count("Ticks"), 2);
        let stats = c.metrics();
        assert_eq!(stats.counter("automata_active"), Some(2));
        assert_eq!(stats.counter("events_delivered"), Some(6));
        assert_eq!(stats.counter("events_skipped_by_prefilter"), Some(2));
        assert_eq!(stats.counter("automaton_queue_depth"), Some(0));
    }

    /// Readers never convoy with writers: with the table's writer lock
    /// held, every read entry point still answers from the published
    /// snapshot. A read that took the lock would block until the guard
    /// drops, which the `recv_timeout` turns into a failure, not a hang.
    #[test]
    fn a_select_never_waits_on_the_table_mutex() {
        let c = cache();
        c.execute("create persistenttable KV (k varchar(8), v integer)")
            .unwrap();
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(i as i64)])
                .unwrap();
        }
        let sql = "select k, v from KV where v >= 1";
        c.execute(sql).unwrap(); // compile and cache the plan
        let table = c.inner.tables.get("KV").unwrap();
        let writer = table.lock();

        let (tx, rx) = unbounded();
        let reader = c.clone();
        let handle = std::thread::spawn(move || {
            let cached = reader.execute(sql).unwrap().rows().unwrap().rows.len();
            let ad_hoc = reader.select(&Query::new("KV")).unwrap().rows.len();
            let found = reader.lookup("KV", "b").unwrap().is_some();
            let len = reader.table_len("KV").unwrap();
            let _ = tx.send((cached, ad_hoc, found, len));
        });
        let answered = rx.recv_timeout(Duration::from_secs(5));
        drop(writer);
        handle.join().expect("the reader thread panicked");
        assert_eq!(
            answered.expect("a read waited on the table mutex"),
            (2, 3, true, 3)
        );
        assert!(c.plan_cache_stats().hits >= 1);
    }

    #[test]
    fn a_guard_with_an_else_is_delivered_every_tuple() {
        let c = cache();
        c.execute("create table Ticks (sym varchar(8), price integer)")
            .unwrap();
        let (id, rx) = c
            .register_automaton(
                "subscribe t to Ticks; behavior { if (t.sym == 'IBM') send(t.price); else {} }",
            )
            .unwrap();
        for sym in ["IBM", "MSFT", "AAPL"] {
            c.insert("Ticks", vec![Scalar::Str(sym.into()), Scalar::Int(1)])
                .unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(5)));
        let t = c.automaton_telemetry(id).unwrap();
        // All three tuples were delivered; the guard ran inside the VM.
        assert_eq!((t.delivered, t.skipped_by_prefilter), (3, 0));
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn batches_route_through_the_prefilter_index() {
        let c = cache();
        c.execute("create table Ticks (sym varchar(8), price integer)")
            .unwrap();
        let (id, rx) = c
            .register_automaton(
                "subscribe t to Ticks; behavior { if (t.price >= 10 && t.price < 20) send(t.price); }",
            )
            .unwrap();
        let rows: Vec<Vec<Scalar>> = (0..100)
            .map(|i| vec![Scalar::Str("S".into()), Scalar::Int(i)])
            .collect();
        c.insert_batch("Ticks", rows).unwrap();
        assert!(c.quiesce(Duration::from_secs(5)));
        let got: Vec<i64> = rx
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        let t = c.automaton_telemetry(id).unwrap();
        assert_eq!(t.delivered, 10);
        assert_eq!(t.skipped_by_prefilter, 90);
        assert!(t.max_queue_depth >= 1);
    }

    #[test]
    fn a_single_worker_pool_preserves_order_across_automata() {
        let c = CacheBuilder::new()
            .manual_clock()
            .automaton_workers(1)
            .build();
        c.execute("create table S (v integer)").unwrap();
        let (_a, rx_a) = c
            .register_automaton("subscribe s to S; behavior { send(s.v); }")
            .unwrap();
        let (_b, rx_b) = c
            .register_automaton("subscribe s to S; behavior { send(s.v * 10); }")
            .unwrap();
        for i in 0..50 {
            c.insert("S", vec![Scalar::Int(i)]).unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(5)));
        let got_a: Vec<i64> = rx_a
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        let got_b: Vec<i64> = rx_b
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got_a, (0..50).collect::<Vec<_>>());
        assert_eq!(got_b, (0..50).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn clones_share_state_and_shutdown_is_idempotent() {
        let c = cache();
        c.execute("create table T (v integer)").unwrap();
        let c2 = c.clone();
        c2.insert("T", vec![Scalar::Int(1)]).unwrap();
        assert_eq!(c.table_len("T").unwrap(), 1);
        c.shutdown();
        c.shutdown();
    }
}

#[cfg(test)]
#[path = "checkpoint_tests.rs"]
mod checkpoint_tests;
