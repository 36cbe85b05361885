//! Error types for the cache.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type returned by every fallible public function of the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A SQL-ish command could not be parsed.
    Sql {
        /// Explanation of the failure.
        message: String,
    },
    /// The named table (topic) does not exist.
    NoSuchTable {
        /// Table name.
        name: String,
    },
    /// A table (topic) with that name already exists.
    TableExists {
        /// Table name.
        name: String,
    },
    /// The operation is not valid for the table's kind (e.g. keyed update of
    /// an ephemeral stream).
    WrongTableKind {
        /// Table name.
        name: String,
        /// Explanation of the failure.
        message: String,
    },
    /// The supplied tuple or predicate does not match the table schema.
    Schema {
        /// Explanation of the failure.
        message: String,
    },
    /// Registering an automaton failed (compile error in the GAPL source).
    AutomatonCompile {
        /// The compile error reported back to the registering application.
        message: String,
    },
    /// The automaton id is unknown (already unregistered, or never existed).
    NoSuchAutomaton {
        /// The offending id.
        id: u64,
    },
    /// An automaton raised a runtime error while processing an event.
    AutomatonRuntime {
        /// Explanation of the failure.
        message: String,
    },
    /// Bytes did not decode as a valid wire value (see [`crate::wire`]);
    /// raised by the RPC layer on malformed frames and by recovery on
    /// corrupt log payloads.
    Protocol {
        /// Explanation of the failure.
        message: String,
    },
    /// The durability subsystem failed: write-ahead-log or snapshot I/O,
    /// or an unrecoverable inconsistency found during replay.
    Wal {
        /// Explanation of the failure.
        message: String,
    },
    /// The replication subsystem failed: the stream could not be
    /// established, a shipped frame did not decode, or a promotion was
    /// requested on a cache that is not a follower.
    Repl {
        /// Explanation of the failure.
        message: String,
    },
    /// A mutation was attempted on a read-only follower replica. Writes
    /// go to the primary; the follower applies its replication stream
    /// only, until [`Cache::promote`](crate::Cache::promote) flips it.
    ReadOnlyReplica {
        /// The rejected operation.
        message: String,
    },
    /// A write was routed to a cluster partition that does not own its
    /// key (see [`crate::cluster`]). Carries the owning partition's
    /// index so the RPC layer can redirect instead of failing opaquely;
    /// nothing was applied.
    WrongPartition {
        /// The partition that owns the rejected row's key.
        partition: u64,
    },
}

impl Error {
    /// Construct a [`Error::Sql`].
    pub fn sql(message: impl Into<String>) -> Self {
        Error::Sql {
            message: message.into(),
        }
    }

    /// Construct a [`Error::Schema`].
    pub fn schema(message: impl Into<String>) -> Self {
        Error::Schema {
            message: message.into(),
        }
    }

    /// Construct a [`Error::Protocol`].
    pub fn protocol(message: impl Into<String>) -> Self {
        Error::Protocol {
            message: message.into(),
        }
    }

    /// Construct a [`Error::Wal`].
    pub fn wal(message: impl Into<String>) -> Self {
        Error::Wal {
            message: message.into(),
        }
    }

    /// Construct a [`Error::Repl`].
    pub fn repl(message: impl Into<String>) -> Self {
        Error::Repl {
            message: message.into(),
        }
    }

    /// Construct a [`Error::ReadOnlyReplica`].
    pub fn read_only(message: impl Into<String>) -> Self {
        Error::ReadOnlyReplica {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sql { message } => write!(f, "sql error: {message}"),
            Error::NoSuchTable { name } => write!(f, "no such table `{name}`"),
            Error::TableExists { name } => write!(f, "table `{name}` already exists"),
            Error::WrongTableKind { name, message } => {
                write!(f, "table `{name}`: {message}")
            }
            Error::Schema { message } => write!(f, "schema error: {message}"),
            Error::AutomatonCompile { message } => {
                write!(f, "automaton failed to compile: {message}")
            }
            Error::NoSuchAutomaton { id } => write!(f, "no such automaton #{id}"),
            Error::Protocol { message } => write!(f, "protocol error: {message}"),
            Error::Wal { message } => write!(f, "durability error: {message}"),
            Error::Repl { message } => write!(f, "replication error: {message}"),
            Error::ReadOnlyReplica { message } => {
                write!(f, "read-only follower replica: {message}")
            }
            Error::WrongPartition { partition } => {
                write!(f, "key belongs to cluster partition {partition}")
            }
            Error::AutomatonRuntime { message } => {
                write!(f, "automaton runtime error: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        // The only I/O the cache performs is durability I/O, so every
        // `io::Error` reaching this crate's `?` is a WAL/snapshot failure.
        Error::wal(e.to_string())
    }
}

impl From<gapl::Error> for Error {
    fn from(e: gapl::Error) -> Self {
        match e {
            gapl::Error::Runtime { message } => Error::AutomatonRuntime { message },
            gapl::Error::Data { message } => Error::Schema { message },
            other => Error::AutomatonCompile {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Error::NoSuchTable { name: "X".into() }.to_string(),
            "no such table `X`"
        );
        assert!(Error::sql("bad token").to_string().contains("bad token"));
        assert!(Error::schema("arity").to_string().contains("arity"));
    }

    #[test]
    fn gapl_errors_map_to_cache_errors() {
        let e: Error = gapl::Error::compile("nope").into();
        assert!(matches!(e, Error::AutomatonCompile { .. }));
        let e: Error = gapl::Error::runtime("boom").into();
        assert!(matches!(e, Error::AutomatonRuntime { .. }));
        let e: Error = gapl::Error::data("bad").into();
        assert!(matches!(e, Error::Schema { .. }));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
