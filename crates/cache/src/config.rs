//! Cache initialisation from a configuration file.
//!
//! The paper notes that topics are created by applications *or during
//! cache initialization from a configuration file* (§4.2). The
//! configuration format here is deliberately plain text:
//!
//! * blank lines and lines starting with `#` are ignored;
//! * every other line is a SQL-ish command (`create table`, `create
//!   persistenttable`, `insert ...`) executed in order;
//! * a line of the form `automaton <name> <<<` starts an inline GAPL
//!   automaton which runs until a line containing only `>>>`; the
//!   automaton is compiled and registered when the block closes.
//!
//! ```text
//! # tables
//! create table Flows (srcip varchar(16), nbytes integer)
//! create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)
//! insert into Allowances values ('192.168.1.10', 1000000)
//!
//! automaton big-flows <<<
//! subscribe f to Flows;
//! behavior { if (f.nbytes > 100000) send(f.srcip, f.nbytes); }
//! >>>
//! ```

use crossbeam::channel::Receiver;

use crate::cache::Cache;
use crate::error::{Error, Result};
use crate::runtime::{AutomatonId, Notification};

/// Default size of the automaton executor pool.
///
/// Four workers keep even a single-core container responsive (workers
/// spend most of their life parked on their mailbox) while letting
/// automaton execution overlap on multi-core machines. The old
/// one-thread-per-automaton behaviour does not exist any more — the
/// pool is the only execution model — but its concurrency can be
/// approximated by raising this via
/// [`CacheBuilder::automaton_workers`](crate::CacheBuilder::automaton_workers).
pub const DEFAULT_AUTOMATON_WORKERS: usize = 4;

/// Default size of the RPC reactor's request-execution pool
/// (`psrpc::reactor::ReactorServer`).
///
/// Like [`DEFAULT_AUTOMATON_WORKERS`], four workers cover a small
/// container while letting request execution overlap on multi-core
/// machines; the reactor thread itself never executes a request. Tune
/// via [`CacheBuilder::rpc_workers`](crate::CacheBuilder::rpc_workers).
pub const DEFAULT_RPC_WORKERS: usize = 4;

/// Default per-connection cap on decoded-but-unanswered RPC requests
/// before the reactor parks that connection's read interest.
///
/// 128 in-flight requests is deep enough to hide a LAN round-trip many
/// times over, while bounding the per-connection memory a hostile or
/// runaway pipelining client can pin.
pub const DEFAULT_RPC_MAX_PIPELINE: usize = 128;

/// Default number of logged records between automatic checkpoints when
/// durability is enabled.
///
/// A checkpoint writes the rows changed since the previous one (now and
/// then a whole base image) and truncates the log, so it trades a burst
/// of I/O for bounded recovery time. Ten thousand records keeps the log tail short (replay is tens
/// of milliseconds) without snapshotting so often that checkpoint I/O
/// competes with the insert path; tune via
/// [`CacheBuilder::checkpoint_every`](crate::CacheBuilder::checkpoint_every)
/// (0 disables automatic checkpoints entirely).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 10_000;

/// Default per-client capacity of the idempotency-token table (see
/// [`crate::protect`]).
///
/// A thousand remembered outcomes cover far more retries than any
/// reconnecting client keeps in flight (the client retries one logical
/// request at a time, and pipelines are bounded by
/// [`DEFAULT_RPC_MAX_PIPELINE`]) while costing a few tens of kilobytes
/// per client at worst; tune via
/// [`CacheBuilder::token_history`](crate::CacheBuilder::token_history).
pub const DEFAULT_TOKEN_HISTORY: usize = 1024;

/// Default RPC service-time threshold beyond which an operation is
/// captured in the slow-op log (see
/// [`CacheBuilder::slow_op_threshold`](crate::CacheBuilder::slow_op_threshold)).
///
/// A hundred milliseconds is far above any healthy in-memory operation
/// (group-committed durable inserts sit in single-digit milliseconds)
/// but well below a client-visible timeout, so the ring captures real
/// anomalies — a convoyed fsync, a starved worker pool — without
/// churning on normal traffic.
pub const DEFAULT_SLOW_OP_THRESHOLD: std::time::Duration = std::time::Duration::from_millis(100);

/// The outcome of loading a configuration.
#[derive(Debug)]
pub struct ConfigReport {
    /// Number of SQL commands executed.
    pub commands: usize,
    /// Automata registered from the configuration, by name, together with
    /// their notification channels.
    pub automata: Vec<(String, AutomatonId, Receiver<Notification>)>,
}

impl Cache {
    /// Execute a configuration (see the [module documentation](self) for
    /// the format).
    ///
    /// # Errors
    ///
    /// Returns the first error encountered: SQL errors, automaton compile
    /// errors, or a malformed automaton block. Commands executed before the
    /// error remain in effect.
    pub fn load_config(&self, config: &str) -> Result<ConfigReport> {
        let mut report = ConfigReport {
            commands: 0,
            automata: Vec::new(),
        };
        let mut lines = config.lines().enumerate().peekable();
        while let Some((line_no, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("automaton ") {
                let Some(name) = rest.strip_suffix("<<<").map(str::trim) else {
                    return Err(Error::sql(format!(
                        "line {}: automaton blocks have the form `automaton <name> <<<`",
                        line_no + 1
                    )));
                };
                if name.is_empty() {
                    return Err(Error::sql(format!(
                        "line {}: automaton blocks need a name",
                        line_no + 1
                    )));
                }
                let mut source = String::new();
                let mut closed = false;
                for (_, body_line) in lines.by_ref() {
                    if body_line.trim() == ">>>" {
                        closed = true;
                        break;
                    }
                    source.push_str(body_line);
                    source.push('\n');
                }
                if !closed {
                    return Err(Error::sql(format!(
                        "automaton `{name}` is missing its closing `>>>`"
                    )));
                }
                let (id, rx) = self.register_automaton(&source)?;
                report.automata.push((name.to_owned(), id, rx));
            } else {
                self.execute(line)?;
                report.commands += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheBuilder;
    use gapl::event::Scalar;
    use std::time::Duration;

    const CONFIG: &str = r#"
        # The home-network deployment of the paper.
        create table Flows (srcip varchar(16), nbytes integer)
        create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)
        insert into Allowances values ('192.168.1.10', 1000)

        automaton big-flows <<<
        subscribe f to Flows;
        behavior { if (f.nbytes > 500) send(f.srcip, f.nbytes); }
        >>>
    "#;

    #[test]
    fn a_full_configuration_creates_tables_rows_and_automata() {
        let cache = CacheBuilder::new().build();
        let report = cache.load_config(CONFIG).unwrap();
        assert_eq!(report.commands, 3);
        assert_eq!(report.automata.len(), 1);
        assert_eq!(report.automata[0].0, "big-flows");
        assert!(cache.table_names().contains(&"Flows".to_string()));
        assert_eq!(cache.table_len("Allowances").unwrap(), 1);

        cache
            .insert(
                "Flows",
                vec![Scalar::Str("10.0.0.1".into()), Scalar::Int(900)],
            )
            .unwrap();
        assert!(cache.quiesce(Duration::from_secs(5)));
        assert_eq!(report.automata[0].2.try_iter().count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cache = CacheBuilder::new().build();
        let report = cache
            .load_config("# nothing but comments\n\n   \n# done\n")
            .unwrap();
        assert_eq!(report.commands, 0);
        assert!(report.automata.is_empty());
    }

    #[test]
    fn malformed_configurations_are_rejected_with_context() {
        let cache = CacheBuilder::new().build();
        // Bad SQL.
        assert!(cache.load_config("drop table Flows").is_err());
        // Automaton block without the marker.
        let err = cache.load_config("automaton broken\n").unwrap_err();
        assert!(err.to_string().contains("<<<"));
        // Automaton block without a name.
        assert!(cache.load_config("automaton <<<\n>>>\n").is_err());
        // Unterminated automaton block.
        let err = cache
            .load_config("create table T (v integer)\nautomaton x <<<\nsubscribe t to T;\n")
            .unwrap_err();
        assert!(err.to_string().contains(">>>"));
        // Automaton that does not compile: the prior commands still took
        // effect.
        let err = cache
            .load_config("automaton bad <<<\nsubscribe t to T; behavior { y = 1; }\n>>>\n")
            .unwrap_err();
        assert!(matches!(
            err,
            Error::AutomatonCompile { .. } | Error::NoSuchTable { .. }
        ));
        assert!(cache.table_names().contains(&"T".to_string()));
    }

    #[test]
    fn automata_from_config_can_be_unregistered_later() {
        let cache = CacheBuilder::new().build();
        cache.execute("create table T (v integer)").unwrap();
        let report = cache
            .load_config("automaton watcher <<<\nsubscribe t to T;\nbehavior { send(t.v); }\n>>>\n")
            .unwrap();
        let (_, id, _) = &report.automata[0];
        assert!(cache.automata().contains(id));
        cache.unregister_automaton(*id).unwrap();
        assert!(cache.automata().is_empty());
    }
}
