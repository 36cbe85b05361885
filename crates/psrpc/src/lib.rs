//! # psrpc — the RPC mechanism between applications and the cache
//!
//! A working system consists of a centralised cache and a varying number of
//! applications that use it; the applications and the cache interact
//! through an RPC mechanism (§3 of the paper). Applications assume three
//! roles: they populate tables with raw events via `insert` commands,
//! retrieve data via `select` commands, and register automata to be
//! notified when complex event patterns are detected.
//!
//! This crate provides:
//!
//! * a compact binary [`wire`] encoding for requests (including the
//!   batched insert message), responses and asynchronous notifications,
//! * [`framing`] with fragmentation/reassembly at 1024-byte boundaries —
//!   the same boundary the paper calls out when explaining the shape of
//!   the string stress test (Fig. 13),
//! * a [`transport`] abstraction with a TCP implementation (separate
//!   application processes, as in the paper) and an in-process loopback
//!   (deterministic benchmarks),
//! * a multi-client [`server::RpcServer`] that exposes a
//!   [`pscache::Cache`] — a worker and a writer thread per connection;
//!   an automaton's notifications go from the pool worker that ran
//!   `send()` straight to its connection's writer,
//! * an event-driven [`reactor::ReactorServer`] serving the same wire
//!   protocol from one [`poll`]-based reactor thread plus a small worker
//!   pool — thousands of connections, bounded threads — with the
//!   blocking server retained as its differential-testing oracle, and
//! * a [`client::CacheClient`] used by applications, with single-tuple
//!   and batched insert fast paths plus pipelining: many correlated
//!   requests in flight on one connection, completing out of order.
//!
//! # Example
//!
//! Several clients talk to one server concurrently; bulk loads use the
//! batched insert path, which costs one round trip and one table-lock
//! acquisition for the whole batch:
//!
//! ```
//! use gapl::event::Scalar;
//! use pscache::CacheBuilder;
//! use psrpc::{server::RpcServer, client::CacheClient};
//!
//! let cache = CacheBuilder::new().build();
//! let server = RpcServer::bind(cache, "127.0.0.1:0")?;
//! let addr = server.local_addr();
//!
//! let loader = CacheClient::connect(addr)?;
//! let reader = CacheClient::connect(addr)?;
//! loader.execute("create table Flows (srcip varchar(16), nbytes integer)")?;
//! loader.insert_batch(
//!     "Flows",
//!     vec![
//!         vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(1500)],
//!         vec![Scalar::Str("10.0.0.2".into()), Scalar::Int(40)],
//!     ],
//! )?;
//! let rows = reader.select("select * from Flows where nbytes > 100")?;
//! assert_eq!(rows.len(), 1);
//! assert_eq!(server.stats().connections_accepted, 2);
//! server.shutdown();
//! # Ok::<(), psrpc::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod cluster;
pub mod error;
mod exec;
pub mod framing;
pub mod message;
pub mod poll;
pub mod reactor;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{CacheClient, PendingReply, ReconnectPolicy};
pub use cluster::ClusterClient;
pub use error::{Error, Result};
pub use reactor::{ReactorConfig, ReactorServer};
pub use server::{RpcServer, ServerStats};
