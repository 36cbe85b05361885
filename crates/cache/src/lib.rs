//! # pscache — the topic-based publish/subscribe cache
//!
//! This crate implements the keystone of the unified system described in
//! *Sventek & Koliousis, Middleware 2012*: a centralised, in-memory,
//! topic-based publish/subscribe cache in which every stream-database table
//! is simultaneously a pub/sub topic.
//!
//! * **Ephemeral tables** are append-only streams held in a bounded
//!   retention window; the primary key is the time of insertion.
//! * **Persistent tables** are time-varying relations held in the heap; the
//!   primary key is the first attribute of the schema and
//!   `insert ... on duplicate key update` replaces rows in place.
//! * Every insertion into a table is also **published** on the topic of the
//!   same name; automata (compiled [`gapl`] programs) that subscribe to the
//!   topic receive the tuple, in strict time-of-insertion order, on the
//!   executor-pool worker that owns them — and only when their compiled
//!   prefilter says the tuple can affect them at all.
//! * Ad hoc `select` queries — augmented with `since <timestamp>` time
//!   windows, `order by`, `group by` and aggregates — can be presented to
//!   the cache at any time.
//!
//! ## Quick start
//!
//! ```
//! use pscache::{Cache, CacheBuilder};
//!
//! let cache = CacheBuilder::new().manual_clock().build();
//! cache.execute("create table Flows (srcip varchar(16), nbytes integer)")?;
//!
//! // Register an automaton that forwards big flows to the application.
//! let (id, notifications) = cache.register_automaton(
//!     r#"
//!     subscribe f to Flows;
//!     behavior { if (f.nbytes > 1000) send(f.srcip, f.nbytes); }
//!     "#,
//! )?;
//!
//! cache.execute("insert into Flows values ('10.0.0.1', 200)")?;
//! cache.execute("insert into Flows values ('10.0.0.2', 4000)")?;
//! cache.quiesce(std::time::Duration::from_secs(1));
//!
//! let n = notifications.try_iter().count();
//! assert_eq!(n, 1);
//! cache.unregister_automaton(id)?;
//! # Ok::<(), pscache::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod clock;
pub mod cluster;
pub mod config;
pub(crate) mod dispatch;
pub mod error;
pub mod obs;
pub mod plan;
pub mod protect;
pub mod query;
pub mod repl;
pub mod runtime;
pub mod snapshot;
pub mod sql;
pub mod table;
pub mod wal;
pub mod wire;

pub use cache::{AutomatonTelemetry, Cache, CacheBuilder, PlanCacheStats, Response, WriteRun};
pub use clock::{Clock, ManualClock, SystemClock};
pub use cluster::{ClusterSpec, HashRing, SubBridge};
pub use config::{
    ConfigReport, DEFAULT_AUTOMATON_WORKERS, DEFAULT_CHECKPOINT_EVERY, DEFAULT_SLOW_OP_THRESHOLD,
    DEFAULT_TOKEN_HISTORY,
};
pub use error::{Error, Result};
pub use obs::{HistogramSnapshot, MetricsSnapshot, Obs, OpTrace, ReqKind, SlowOpLog};
pub use plan::{ColRef, QueryPlan};
pub use protect::{ClientPolicy, IdemToken, TokenOutcome};
pub use query::{Aggregate, Comparison, Predicate, Query, ResultSet, Row};
pub use repl::{ReplRole, ReplStats};
pub use runtime::{AutomatonId, Notification, NotificationSink};
pub use table::TableKind;
pub use wal::WalStats;
