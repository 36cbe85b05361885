//! The cluster-aware client: route writes by key, scatter-gather reads.
//!
//! A cluster is N ordinary primaries, each an unmodified
//! [`pscache::Cache`] behind an unmodified RPC server, that have agreed
//! on a [`pscache::HashRing`] partitioning every table's rows by
//! primary key. Nothing coordinates them at runtime — the ring is a
//! pure function of the partition count, so every server (via
//! [`pscache::ClusterSpec`]) and every [`ClusterClient`] derives the
//! same ownership map independently.
//!
//! The client is a thin layer over one pipelined
//! [`CacheClient`] per partition:
//!
//! * **DDL** (`create table`) broadcasts to all partitions, so every
//!   primary holds the same schemas and any of them can serve a
//!   scatter leg. The client remembers the schema, which is what lets
//!   it evaluate gathered rows locally.
//! * **Writes** route by the row's first value — the same display form
//!   the cache uses as the upsert key — straight to the owning
//!   partition. Misrouted writes (a stale ring) come back as the typed
//!   [`Error::NotMine`] redirect and are re-sent once to the named
//!   owner; nothing is applied on the wrong node.
//! * **Batches** split per-partition and fan out as pipelined
//!   `insert_batch` requests — all partitions load in parallel, one
//!   round trip each — then the per-row timestamps are stitched back
//!   into the caller's row order.
//! * **Reads** scatter `select * from T [since τ]` to every partition,
//!   k-way merge the replies by timestamp
//!   ([`pscache::cluster::merge_by_tstamp`]), and run the *full* query
//!   plan — predicate, projection, `order by`, `group by`, `limit` —
//!   over the merged window exactly as an unpartitioned cache would
//!   ([`pscache::cluster::evaluate_gathered`]). Only the `since`
//!   window is pushed down, so no query shape needs partial-aggregate
//!   merge logic.
//! * **Subscriptions** register on one designated partition. With the
//!   cluster's [`pscache::SubBridge`]s running, every partition
//!   observes the full topic stream, so one registration sees
//!   cluster-wide matches.
//!
//! Failover is the client's concern only insofar as re-pointing: when
//! a partition's primary dies and its follower is promoted, call
//! [`ClusterClient::rebind`] with a client for the new address; the
//! ring, and therefore every key's owner, is unchanged.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use gapl::event::{Scalar, Schema};
use parking_lot::RwLock;
use pscache::cluster::{merge_by_tstamp, routing_key, split_batch, GatheredRow};
use pscache::sql::Command;
use pscache::HashRing;

use crate::client::{CacheClient, ClientNotification, ClientResultSet, PendingReply};
use crate::error::{Error, Result};
use crate::message::{CacheReply, HealthReport, Request, WireRow};

/// A client for a cluster of N partition primaries.
///
/// Cheap to share behind an `Arc`; all methods take `&self`. Each
/// partition's underlying [`CacheClient`] is itself pipelined, so
/// concurrent callers interleave on the same connections.
pub struct ClusterClient {
    ring: HashRing,
    /// One client per partition, swappable under a lock so
    /// [`ClusterClient::rebind`] can re-point a partition at its
    /// promoted follower without interrupting other partitions.
    clients: Vec<RwLock<Arc<CacheClient>>>,
    /// Schemas of tables created *through this client*, keyed by table
    /// name — the local half of scatter-gather evaluation.
    schemas: RwLock<HashMap<String, Arc<Schema>>>,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("partitions", &self.ring.partitions())
            .finish_non_exhaustive()
    }
}

impl ClusterClient {
    /// Connect to a cluster: one address per partition, in partition
    /// order (the order is the identity — address `i` must be the
    /// primary that was configured with `ClusterSpec::new(n, i)`).
    ///
    /// # Errors
    ///
    /// Returns the first connection error; no partial cluster client
    /// is ever handed back.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> Result<ClusterClient> {
        let clients = addrs
            .iter()
            .map(CacheClient::connect)
            .collect::<Result<Vec<_>>>()?;
        Ok(ClusterClient::from_clients(clients))
    }

    /// Build a cluster client from already-connected per-partition
    /// clients (tests use the in-process transport this way). The ring
    /// is derived from the client count.
    ///
    /// # Panics
    ///
    /// Panics on an empty client list — a zero-partition cluster has
    /// no ring.
    #[must_use]
    pub fn from_clients(clients: Vec<CacheClient>) -> ClusterClient {
        assert!(
            !clients.is_empty(),
            "a cluster needs at least one partition"
        );
        let ring = HashRing::new(clients.len());
        ClusterClient {
            ring,
            clients: clients
                .into_iter()
                .map(|c| RwLock::new(Arc::new(c)))
                .collect(),
            schemas: RwLock::new(HashMap::new()),
        }
    }

    /// Number of partitions in the cluster.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.clients.len()
    }

    /// The client's ring — byte-identical to every server's.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The current client for `partition` (a cheap `Arc` clone; safe
    /// to hold across a concurrent [`ClusterClient::rebind`], which
    /// swaps the slot rather than closing the old client under you).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn client(&self, partition: usize) -> Arc<CacheClient> {
        Arc::clone(&self.clients[partition].read())
    }

    /// Re-point `partition` at a new server — the failover move, after
    /// a dead primary's follower has been promoted. The ring is
    /// untouched: ownership never moves, only the address serving it.
    /// In-flight requests on the old client finish (or fail) on the
    /// old connection; new requests use `client`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn rebind(&self, partition: usize, client: CacheClient) {
        *self.clients[partition].write() = Arc::new(client);
    }

    /// Execute any SQL-ish command with cluster semantics: `create
    /// table` broadcasts, `insert` routes, `select` scatter-gathers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] with the parser's message for text no
    /// partition would accept either, and the routed/broadcast
    /// operation's error otherwise.
    pub fn execute(&self, command: &str) -> Result<CacheReply> {
        let parsed = pscache::sql::parse(command).map_err(|e| Error::Remote {
            message: e.to_string(),
        })?;
        match parsed {
            Command::CreateTable { name, columns, .. } => {
                self.broadcast_ddl(command, &name, &columns)?;
                Ok(CacheReply::Created)
            }
            Command::Insert {
                table,
                values,
                on_duplicate_update,
            } => {
                let tstamp = self.routed_insert(&table, values, on_duplicate_update)?;
                Ok(CacheReply::Inserted {
                    // A routed plain insert never replaces (that would
                    // be a duplicate-key error); only upserts can, and
                    // the scalar `replaced` is not worth a second wire
                    // field here.
                    replaced: false,
                    tstamp,
                })
            }
            Command::InsertBatch {
                table,
                rows,
                on_duplicate_update,
            } => {
                let tstamps = self.batch_insert(&table, rows, on_duplicate_update)?;
                Ok(CacheReply::InsertedBatch { tstamps })
            }
            Command::Select(_) => {
                let rs = self.select(command)?;
                Ok(CacheReply::Rows {
                    columns: rs.columns,
                    rows: rs.rows,
                })
            }
        }
    }

    /// Broadcast a `create table` to every partition (pipelined — one
    /// round-trip wall-clock) and remember the schema for gather-side
    /// evaluation.
    ///
    /// Not atomic: if partition `k` rejects the DDL, partitions
    /// `0..k` keep the table. Re-running then fails on those with
    /// "already exists" — surface the error to the operator rather
    /// than pretending a half-created table is usable.
    fn broadcast_ddl(
        &self,
        command: &str,
        name: &str,
        columns: &[pscache::sql::ColumnDef],
    ) -> Result<()> {
        let schema =
            Schema::new(name, columns.iter().map(|c| (c.name.clone(), c.ty))).map_err(|e| {
                Error::Remote {
                    message: e.to_string(),
                }
            })?;
        let handles = self.scatter(|client| client.begin_execute(command))?;
        for handle in handles {
            match handle.wait()? {
                CacheReply::Created => {}
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected reply to broadcast ddl: {other:?}"
                    )))
                }
            }
        }
        self.schemas
            .write()
            .insert(name.to_owned(), Arc::new(schema));
        Ok(())
    }

    /// Insert one row on its owning partition (fast path, no SQL).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] when the owner rejects the row, and
    /// [`Error::NotMine`] only if the cluster's ring and this client's
    /// disagree even after following one redirect — a configuration
    /// error (mismatched partition counts), not a transient.
    pub fn insert(&self, table: &str, values: Vec<Scalar>) -> Result<u64> {
        self.routed_insert(table, values, false)
    }

    /// Upsert one row on its owning partition.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::insert`].
    pub fn upsert(&self, table: &str, values: Vec<Scalar>) -> Result<u64> {
        self.routed_insert(table, values, true)
    }

    fn routed_insert(&self, table: &str, values: Vec<Scalar>, upsert: bool) -> Result<u64> {
        let key = routing_key(&values);
        let mut target = self.ring.partition_of(&key);
        // One redirect: trust our ring first, then the server's answer.
        // If the second owner also disclaims the key, the cluster's
        // rings disagree with each other and retrying cannot converge.
        for _ in 0..2 {
            let client = self.client(target);
            let sent = if upsert {
                client.upsert(table, values.clone())
            } else {
                client.insert(table, values.clone())
            };
            match sent {
                Err(Error::NotMine { partition }) => target = partition as usize,
                other => return other,
            }
        }
        Err(Error::NotMine {
            partition: target as u64,
        })
    }

    /// Insert many rows in one logical call: split per-partition, fan
    /// out pipelined `insert_batch` requests (all partitions load in
    /// parallel), and return one timestamp per row **in the caller's
    /// row order**.
    ///
    /// Per-partition chunks keep the caller's relative row order, so
    /// subscribed automata on each partition observe the same ordered
    /// run they would have from a single-node batch of those rows.
    ///
    /// # Errors
    ///
    /// The first failing partition's error. Chunks on other partitions
    /// may have been applied — same partial-batch contract as the
    /// single-node `insert_batch`, at partition granularity.
    pub fn insert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<u64>> {
        self.batch_insert(table, rows, false)
    }

    /// Batched [`ClusterClient::upsert`].
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::insert_batch`].
    pub fn upsert_batch(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<Vec<u64>> {
        self.batch_insert(table, rows, true)
    }

    fn batch_insert(&self, table: &str, rows: Vec<Vec<Scalar>>, upsert: bool) -> Result<Vec<u64>> {
        let total = rows.len();
        let mut tstamps = vec![0u64; total];
        let mut pending: Vec<(Vec<usize>, PendingReply)> = Vec::new();
        for (partition, chunk) in split_batch(&self.ring, rows).into_iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            let (indices, part_rows): (Vec<usize>, Vec<Vec<Scalar>>) = chunk.into_iter().unzip();
            let handle = self.client(partition).begin_request(Request::InsertBatch {
                table: table.to_owned(),
                rows: part_rows,
                upsert,
            })?;
            pending.push((indices, handle));
        }
        for (indices, handle) in pending {
            match handle.wait()? {
                CacheReply::InsertedBatch { tstamps: chunk } => {
                    for (ix, t) in indices.into_iter().zip(chunk) {
                        tstamps[ix] = t;
                    }
                }
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected reply to insert_batch: {other:?}"
                    )))
                }
            }
        }
        Ok(tstamps)
    }

    /// Run a `select` across the whole cluster and return the same
    /// rows an unpartitioned cache holding every row would have
    /// returned.
    ///
    /// Only the `since τ` window is pushed down; the full plan runs
    /// here over the timestamp-merged window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] for parse errors, for tables not
    /// created through this client (the gather side needs the schema —
    /// issue the `create table` through the cluster client), and for
    /// any partition rejecting its scatter leg.
    pub fn select(&self, command: &str) -> Result<ClientResultSet> {
        let query = match pscache::sql::parse(command).map_err(|e| Error::Remote {
            message: e.to_string(),
        })? {
            Command::Select(q) => q,
            other => {
                return Err(Error::Remote {
                    message: format!("expected a select, parsed {other:?}"),
                })
            }
        };
        let schema = self
            .schemas
            .read()
            .get(query.table())
            .cloned()
            .ok_or_else(|| Error::Remote {
                message: format!(
                    "unknown table `{}`: scatter-gather needs the schema; \
                     create the table through this cluster client",
                    query.table()
                ),
            })?;
        let scatter = match query.since_tstamp() {
            Some(t) => format!("select * from {} since {t}", query.table()),
            None => format!("select * from {}", query.table()),
        };
        let handles = self.scatter(|client| client.begin_execute(&scatter))?;
        let mut parts: Vec<Vec<GatheredRow>> = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.wait()? {
                CacheReply::Rows { rows, .. } => parts.push(
                    rows.into_iter()
                        .map(|r| GatheredRow {
                            tstamp: r.tstamp,
                            values: r.values,
                        })
                        .collect(),
                ),
                other => {
                    return Err(Error::protocol(format!(
                        "expected rows in reply to a scatter leg, got {other:?}"
                    )))
                }
            }
        }
        let merged = merge_by_tstamp(parts);
        let result = pscache::cluster::evaluate_gathered(&query, &schema, merged).map_err(|e| {
            Error::Remote {
                message: e.to_string(),
            }
        })?;
        Ok(ClientResultSet {
            columns: result.columns,
            rows: result
                .rows
                .into_iter()
                .map(|r| WireRow {
                    values: r.values,
                    tstamp: r.tstamp,
                })
                .collect(),
        })
    }

    /// Register an automaton on partition 0, the cluster's designated
    /// subscription home. With the cluster's
    /// [`pscache::SubBridge`]s running, that one registration observes
    /// the **full** topic stream — every partition's inserts — in
    /// per-partition order.
    ///
    /// # Errors
    ///
    /// Compilation errors come back as [`Error::Remote`].
    pub fn register_automaton(&self, source: &str) -> Result<u64> {
        self.register_automaton_at(0, source)
    }

    /// Register an automaton on a specific partition — callers that
    /// spread subscription load pick their own home node.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::register_automaton`].
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn register_automaton_at(&self, partition: usize, source: &str) -> Result<u64> {
        self.client(partition).register_automaton(source)
    }

    /// Unregister an automaton previously registered on `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Remote`] for unknown ids.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn unregister_automaton(&self, partition: usize, id: u64) -> Result<()> {
        self.client(partition).unregister_automaton(id)
    }

    /// Drain pending notifications from `partition`'s connection (the
    /// one its automata were registered on).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn drain_notifications(&self, partition: usize) -> Vec<ClientNotification> {
        self.client(partition).drain_notifications()
    }

    /// Health of every partition, gathered in parallel: the
    /// [`HealthReport`] view of each [`ClusterClient::metrics_all`]
    /// snapshot, one per partition, in partition order.
    ///
    /// # Errors
    ///
    /// The first unreachable partition's error — a cluster with any
    /// dead partition is not healthy.
    pub fn health(&self) -> Result<Vec<HealthReport>> {
        Ok(self
            .metrics_all()?
            .iter()
            .map(HealthReport::from_snapshot)
            .collect())
    }

    /// Observability snapshots from every partition, gathered in
    /// parallel: one per partition, in partition order. Merge them with
    /// [`pscache::MetricsSnapshot::merge`] for a cluster-wide view —
    /// histograms and totals aggregate exactly, because the buckets
    /// are identical on every node. `merge` sums every counter, so
    /// watermarks and levels (`repl_commit_lsn`, `rpc_workers`, …) are
    /// only meaningful per node: build views from each snapshot, as
    /// [`ClusterClient::health`] does.
    ///
    /// # Errors
    ///
    /// The first unreachable partition's error — a fleet-wide scrape
    /// with a silent hole is worse than a loud failure.
    pub fn metrics_all(&self) -> Result<Vec<pscache::MetricsSnapshot>> {
        let handles = self.scatter(|client| client.begin_request(Request::Metrics))?;
        let mut snapshots = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.wait()? {
                CacheReply::Metrics { snapshot } => snapshots.push(snapshot),
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected reply to a metrics request: {other:?}"
                    )))
                }
            }
        }
        Ok(snapshots)
    }

    /// Ping every partition.
    ///
    /// # Errors
    ///
    /// The first unreachable partition's error.
    pub fn ping_all(&self) -> Result<()> {
        for handle in self.scatter(|client| client.begin_request(Request::Ping))? {
            match handle.wait()? {
                CacheReply::Pong => {}
                other => {
                    return Err(Error::protocol(format!(
                        "unexpected reply to ping: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Issue one pipelined request per partition and hand back the
    /// handles — wall-clock is one round trip to the slowest
    /// partition, not the sum.
    fn scatter<F>(&self, mut send: F) -> Result<Vec<PendingReply>>
    where
        F: FnMut(&CacheClient) -> Result<PendingReply>,
    {
        let mut handles = Vec::with_capacity(self.clients.len());
        for p in 0..self.clients.len() {
            handles.push(send(&self.client(p))?);
        }
        Ok(handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscache::{Cache, CacheBuilder, ClusterSpec};

    /// An in-process cluster: `n` caches, each configured with its
    /// partition's [`ClusterSpec`] and a manual clock (so timestamps
    /// are deterministic and distinct across partitions: partition `p`
    /// starts its clock at `(p + 1) * 1000`).
    fn in_proc_cluster(n: usize) -> (Vec<Cache>, ClusterClient) {
        let caches: Vec<Cache> = (0..n)
            .map(|p| {
                let cache = CacheBuilder::new().manual_clock().build();
                cache.set_cluster_spec(ClusterSpec::new(n, p));
                cache
                    .manual_clock()
                    .expect("built with a manual clock")
                    .set(((p as u64) + 1) * 1000);
                cache
            })
            .collect();
        let clients = caches
            .iter()
            .map(|c| CacheClient::connect_inproc(c.clone()))
            .collect();
        (caches, ClusterClient::from_clients(clients))
    }

    const DDL: &str = "create table Flows (srcip varchar(16), nbytes integer)";

    fn flow(ip: &str, nbytes: i64) -> Vec<Scalar> {
        vec![Scalar::Str(ip.into()), Scalar::Int(nbytes)]
    }

    #[test]
    fn ddl_broadcasts_to_every_partition() {
        let (caches, cluster) = in_proc_cluster(3);
        cluster.execute(DDL).unwrap();
        for cache in &caches {
            // Every partition can serve its scatter leg.
            assert!(cache.execute("select * from Flows").is_ok());
        }
    }

    #[test]
    fn writes_route_to_the_ring_owner_and_select_gathers_all() {
        let (caches, cluster) = in_proc_cluster(2);
        cluster.execute(DDL).unwrap();
        let total = 64;
        for i in 0..total {
            cluster
                .insert("Flows", flow(&format!("10.0.0.{i}"), i))
                .unwrap();
        }
        // Each row lives on exactly the partition the ring names, and
        // nowhere else.
        let mut per_partition = Vec::new();
        for (p, cache) in caches.iter().enumerate() {
            let rows = cache
                .execute("select * from Flows")
                .unwrap()
                .rows()
                .unwrap();
            for row in &rows.rows {
                let key = routing_key(&row.values);
                assert_eq!(cluster.ring().partition_of(&key), p, "misplaced row");
            }
            per_partition.push(rows.len());
        }
        assert_eq!(per_partition.iter().sum::<usize>(), total as usize);
        assert!(
            per_partition.iter().all(|&c| c > 0),
            "64 keys over 2 partitions left one empty: {per_partition:?}"
        );
        // The gathered view is the union, in global timestamp order.
        let rs = cluster.select("select * from Flows").unwrap();
        assert_eq!(rs.len(), total as usize);
        let tstamps: Vec<u64> = rs.rows.iter().map(|r| r.tstamp).collect();
        let mut sorted = tstamps.clone();
        sorted.sort_unstable();
        assert_eq!(tstamps, sorted, "gather is not timestamp-ordered");
    }

    #[test]
    fn batch_fans_out_and_reassembles_in_row_order() {
        let (caches, cluster) = in_proc_cluster(2);
        cluster.execute(DDL).unwrap();
        let rows: Vec<Vec<Scalar>> = (0..40).map(|i| flow(&format!("h{i}"), i)).collect();
        let tstamps = cluster.insert_batch("Flows", rows.clone()).unwrap();
        assert_eq!(tstamps.len(), rows.len());
        // Partition p's manual clock starts at (p+1)*1000, so every
        // timestamp identifies its partition — check each row's stamp
        // came from the ring owner of that row's key.
        for (row, &t) in rows.iter().zip(&tstamps) {
            let owner = cluster.ring().partition_of(&routing_key(row));
            let band = ((owner as u64) + 1) * 1000;
            assert!(
                (band..band + 1000).contains(&t),
                "row keyed {:?} stamped {t}, expected partition {owner}'s band",
                row[0]
            );
        }
        let on_disk: usize = caches
            .iter()
            .map(|c| {
                c.execute("select * from Flows")
                    .unwrap()
                    .rows()
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(on_disk, rows.len());
    }

    #[test]
    fn full_plan_runs_over_the_gathered_window() {
        let (_caches, cluster) = in_proc_cluster(2);
        cluster.execute(DDL).unwrap();
        for i in 0..20 {
            let ip = if i % 2 == 0 { "even" } else { "odd" };
            cluster.insert("Flows", flow(ip, i)).unwrap();
        }
        let rs = cluster
            .select("select sum(nbytes) from Flows group by srcip order by srcip")
            .unwrap();
        assert_eq!(
            rs.columns,
            vec!["srcip".to_owned(), "sum(nbytes)".to_owned()]
        );
        assert_eq!(rs.rows.len(), 2);
        // 0+2+...+18 = 90 (even), 1+3+...+19 = 100 (odd).
        assert_eq!(rs.rows[0].values[1], Scalar::Int(90));
        assert_eq!(rs.rows[1].values[1], Scalar::Int(100));
    }

    #[test]
    fn misrouted_write_gets_a_typed_redirect() {
        let (caches, cluster) = in_proc_cluster(2);
        cluster.execute(DDL).unwrap();
        // Find a key owned by partition 1 and send it straight to
        // partition 0's server, bypassing the routing layer.
        let key = (0..1000)
            .map(|i| format!("k{i}"))
            .find(|k| cluster.ring().partition_of(k) == 1)
            .expect("some key maps to partition 1");
        let direct = CacheClient::connect_inproc(caches[0].clone());
        match direct.insert("Flows", flow(&key, 1)) {
            Err(Error::NotMine { partition }) => assert_eq!(partition, 1),
            other => panic!("expected a NotMine redirect, got {other:?}"),
        }
        // Nothing was applied on the wrong partition.
        assert!(caches[0]
            .execute("select * from Flows")
            .unwrap()
            .rows()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stale_client_ring_converges_via_one_redirect() {
        // Servers agree on the production ring; the client is built
        // with a deliberately different (1-vnode) ring, so some keys
        // are misrouted. Every such write must still land exactly once
        // on the true owner, via the server's redirect.
        let (caches, cluster) = in_proc_cluster(2);
        cluster.execute(DDL).unwrap();
        let stale = ClusterClient {
            ring: HashRing::with_vnodes(2, 1),
            clients: (0..2)
                .map(|p| RwLock::new(Arc::new(CacheClient::connect_inproc(caches[p].clone()))))
                .collect(),
            schemas: RwLock::new(HashMap::new()),
        };
        let true_ring = cluster.ring();
        let mut misrouted = 0;
        for i in 0..200 {
            let key = format!("key-{i}");
            if stale.ring.partition_of(&key) != true_ring.partition_of(&key) {
                misrouted += 1;
            }
            stale.insert("Flows", flow(&key, i)).unwrap();
        }
        assert!(misrouted > 0, "test needs at least one disagreeing key");
        let rs = cluster.select("select * from Flows").unwrap();
        assert_eq!(rs.len(), 200, "every write landed exactly once");
    }

    #[test]
    fn select_without_the_schema_is_an_instructive_error() {
        let (caches, cluster) = in_proc_cluster(2);
        // Created behind the cluster client's back.
        for cache in &caches {
            cache.execute(DDL).unwrap();
        }
        match cluster.select("select * from Flows") {
            Err(Error::Remote { message }) => {
                assert!(message.contains("create the table through this cluster client"));
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
    }

    #[test]
    fn health_reports_one_per_partition() {
        let (_caches, cluster) = in_proc_cluster(3);
        let reports = cluster.health().unwrap();
        assert_eq!(reports.len(), 3);
        cluster.ping_all().unwrap();
    }

    #[test]
    fn metrics_scatter_to_every_partition_and_merge() {
        let (caches, cluster) = in_proc_cluster(3);
        for cache in &caches {
            cache.execute(DDL).unwrap();
        }
        for i in 0..30 {
            cluster.insert("Flows", flow(&format!("k-{i}"), i)).unwrap();
        }
        let snapshots = cluster.metrics_all().unwrap();
        assert_eq!(snapshots.len(), 3);
        // Every partition took some share of the 30 hashed writes, so
        // the merged insert counter sees all of them.
        let mut merged = snapshots[0].clone();
        for s in &snapshots[1..] {
            merged.merge(s);
        }
        assert_eq!(merged.counter("rpc_requests_insert"), Some(30));
    }
}
