//! # unipubsub — unification of publish/subscribe systems and stream databases
//!
//! This is the facade crate of the reproduction of *Sventek & Koliousis,
//! "Unification of Publish/Subscribe Systems and Stream Databases: The
//! Impact on Complex Event Processing" (Middleware 2012)*. It re-exports
//! the individual building blocks and adds a small amount of glue that
//! makes common scenarios one-liners:
//!
//! * [`pscache`] — the topic-based publish/subscribe cache (ephemeral
//!   stream tables, persistent relations, SQL-ish queries with time
//!   windows, the automaton runtime and the built-in `Timer` topic);
//! * [`gapl`] — the Glasgow Automaton Programming Language (lexer, parser,
//!   bytecode compiler, stack-machine VM and built-in library);
//! * [`psrpc`] — the RPC layer between applications and the cache
//!   (fragmentation at 1024-byte boundaries, TCP and in-process
//!   transports);
//! * [`cayuga`] — a Cayuga-style NFA engine used as the comparison baseline
//!   of the paper's evaluation;
//! * [`workloads`] — synthetic stand-ins for the paper's
//!   proprietary datasets.
//!
//! ## Quick start
//!
//! ```
//! use unipubsub::prelude::*;
//!
//! // Build a cache, create a stream table (= a pub/sub topic)...
//! let cache = CacheBuilder::new().build();
//! cache.execute("create table Flows (srcip varchar(16), nbytes integer)")?;
//!
//! // ...register a GAPL automaton that watches the topic...
//! let (id, notifications) = cache.register_automaton(
//!     "subscribe f to Flows; behavior { if (f.nbytes > 1000) send(f.srcip); }",
//! )?;
//!
//! // ...and feed events in. Each insert is also a publication.
//! cache.execute("insert into Flows values ('10.0.0.1', 40)")?;
//! cache.execute("insert into Flows values ('10.0.0.2', 4000)")?;
//! cache.quiesce(std::time::Duration::from_secs(1));
//! assert_eq!(notifications.try_iter().count(), 1);
//!
//! // Looking backwards in time still works: it is also a stream database.
//! let rows = cache.execute("select * from Flows since 0")?.rows().unwrap();
//! assert_eq!(rows.len(), 2);
//! cache.unregister_automaton(id)?;
//! # Ok::<(), unipubsub::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use cayuga;
pub use cep_workloads as workloads;
pub use gapl;
pub use pscache;
pub use psrpc;

pub use pscache::{
    Aggregate, AutomatonId, AutomatonTelemetry, Cache, CacheBuilder, Comparison, Error,
    Notification, Predicate, Query, Response, Result, ResultSet, TableKind,
    DEFAULT_AUTOMATON_WORKERS,
};
pub use psrpc::ServerStats;

pub mod prelude {
    //! Everything a typical application needs, in one import.
    pub use crate::continuous::ContinuousQuery;
    pub use gapl::event::{AttrType, Scalar, Schema, Timestamp, Tuple};
    pub use pscache::{
        Aggregate, AutomatonId, AutomatonTelemetry, Cache, CacheBuilder, Comparison, Notification,
        Predicate, Query, Response, ResultSet, TableKind,
    };
    pub use psrpc::{CacheClient, ReactorServer, ServerStats};
}

pub mod continuous;
