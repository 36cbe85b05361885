//! The production protection layer's cache-side state: idempotency
//! tokens for exactly-once retries, and the per-client admission policy
//! the RPC reactor enforces.
//!
//! `connect_reconnecting` is an at-least-once transport: a reply lost
//! after the server applied a mutation leaves the client unable to tell
//! "never arrived" from "applied, ack lost". Idempotency tokens resolve
//! the ambiguity server-side. A client stamps every non-idempotent
//! mutation with `(client id, token seq)`; the cache remembers the
//! outcome in a **bounded per-client token table**, so a retry of the
//! same token returns the original outcome instead of applying the
//! mutation twice. For durable tables the token record is appended to
//! the write-ahead log **in the same critical section as the mutation it
//! covers** (same group-commit wave), which gives the
//! exactly-once guarantee across crash recovery: either both the
//! mutation and its token survive (the retry deduplicates) or neither
//! does (the mutation was never acknowledged and the retry re-applies it
//! once). Token frames ship over the replication stream like any other
//! record, so the guarantee also survives `promote()` failover.
//!
//! The table is bounded FIFO per client
//! ([`CacheBuilder::token_history`](crate::CacheBuilder::token_history)
//! entries, default [`crate::config::DEFAULT_TOKEN_HISTORY`]): a client
//! that retries a token older than its last `cap` mutations has fallen
//! so far behind that at-least-once is the honest contract again.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use crate::error::{Error, Result};
use crate::wire::{WireReader, WireWriter};

/// An idempotency token: the identity of one logical mutation, stable
/// across retries. The client id is minted once per client process; the
/// sequence is a per-client counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdemToken {
    /// The issuing client's (random) identity.
    pub client_id: u64,
    /// The client's token counter for this mutation.
    pub seq: u64,
}

/// The remembered outcome of a token-stamped mutation — everything
/// needed to re-materialise the original reply for a retry. Failed
/// mutations are *not* recorded: re-executing them is harmless (nothing
/// was applied) and re-evaluation gives the retry a chance to succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenOutcome {
    /// A `create table` succeeded.
    Created,
    /// A single-row insert/upsert succeeded.
    Inserted {
        /// Whether an existing keyed row was replaced.
        replaced: bool,
        /// The insertion timestamp the cache assigned.
        tstamp: u64,
    },
    /// A batch insert/upsert succeeded.
    InsertedBatch {
        /// One insertion timestamp per row, in row order.
        tstamps: Vec<u64>,
    },
}

pub(crate) fn encode_outcome(w: &mut WireWriter, outcome: &TokenOutcome) {
    match outcome {
        TokenOutcome::Created => w.put_u8(0),
        TokenOutcome::Inserted { replaced, tstamp } => {
            w.put_u8(1);
            w.put_bool(*replaced);
            w.put_u64(*tstamp);
        }
        TokenOutcome::InsertedBatch { tstamps } => {
            w.put_u8(2);
            w.put_u64s(tstamps);
        }
    }
}

pub(crate) fn decode_outcome(r: &mut WireReader<'_>) -> Result<TokenOutcome> {
    Ok(match r.get_u8()? {
        0 => TokenOutcome::Created,
        1 => TokenOutcome::Inserted {
            replaced: r.get_bool()?,
            tstamp: r.get_u64()?,
        },
        2 => TokenOutcome::InsertedBatch {
            tstamps: r.get_u64s()?,
        },
        other => Err(Error::protocol(format!(
            "unknown token outcome tag {other}"
        )))?,
    })
}

/// Multiplicative hasher for the token table's `u64` keys (random
/// client ids, sequential token seqs). The table sits on the insert
/// hot path — every tokened mutation pays one lookup and one record —
/// so a multiply-and-fold beats SipHash where DoS-resistant hashing
/// buys nothing: a client can only ever collide with itself, and its
/// FIFO budget bounds the damage at `cap` entries.
#[derive(Debug, Default, Clone, Copy)]
struct TokenHash(u64);

impl std::hash::Hasher for TokenHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

type TokenMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<TokenHash>>;

/// One client's remembered outcomes, FIFO-bounded.
#[derive(Debug, Default)]
struct ClientTokens {
    map: TokenMap<TokenOutcome>,
    /// Token seqs in record order — the eviction queue.
    order: VecDeque<u64>,
}

/// The bounded per-client token → outcome table. One per cache, behind
/// a mutex on [`CacheInner`](crate::cache); every operation is O(1).
#[derive(Debug)]
pub(crate) struct TokenTable {
    per_client: TokenMap<ClientTokens>,
    /// Per-client entry cap.
    cap: usize,
    /// Highest WAL LSN at which a token was recorded — the snapshot's
    /// token watermark, so checkpoint truncation never loses LSN ground.
    high_lsn: u64,
}

impl TokenTable {
    pub(crate) fn new(cap: usize) -> TokenTable {
        TokenTable {
            per_client: TokenMap::default(),
            cap: cap.max(1),
            high_lsn: 0,
        }
    }

    /// Remember `outcome` for `token`. Re-recording an existing token
    /// (snapshot + log replay overlap, replication re-delivery)
    /// overwrites in place without consuming a new FIFO slot.
    pub(crate) fn record(&mut self, token: IdemToken, outcome: TokenOutcome, lsn: u64) {
        self.high_lsn = self.high_lsn.max(lsn);
        let client = self.per_client.entry(token.client_id).or_default();
        if client.map.insert(token.seq, outcome).is_none() {
            client.order.push_back(token.seq);
            while client.order.len() > self.cap {
                if let Some(evicted) = client.order.pop_front() {
                    client.map.remove(&evicted);
                }
            }
        }
    }

    pub(crate) fn lookup(&self, token: IdemToken) -> Option<TokenOutcome> {
        self.per_client
            .get(&token.client_id)?
            .map
            .get(&token.seq)
            .cloned()
    }

    /// Total remembered outcomes across all clients.
    pub(crate) fn len(&self) -> usize {
        self.per_client.values().map(|c| c.map.len()).sum()
    }

    pub(crate) fn high_lsn(&self) -> u64 {
        self.high_lsn
    }

    pub(crate) fn set_high_lsn(&mut self, lsn: u64) {
        self.high_lsn = self.high_lsn.max(lsn);
    }

    /// Every entry in per-client FIFO order, for checkpoint snapshots.
    pub(crate) fn entries(&self) -> Vec<(u64, u64, TokenOutcome)> {
        let mut out = Vec::with_capacity(self.len());
        for (client_id, tokens) in &self.per_client {
            for seq in &tokens.order {
                if let Some(outcome) = tokens.map.get(seq) {
                    out.push((*client_id, *seq, outcome.clone()));
                }
            }
        }
        out
    }
}

/// Per-client admission policy, enforced by the RPC reactor
/// (`psrpc::reactor::ReactorServer`) per connection. The default is
/// fully permissive — every limit disabled — so protection is opt-in
/// via [`CacheBuilder::client_policy`](crate::CacheBuilder::client_policy).
///
/// The blocking `RpcServer` deliberately does **not** enforce the
/// policy: it is the semantic oracle of the differential protocol
/// suite, and admission control is a transport concern of the reactor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientPolicy {
    /// Sustained requests per second one connection may issue; 0
    /// disables the rate limit. Enforced with a token bucket refilled
    /// continuously, so short bursts up to `burst` are absorbed.
    pub max_requests_per_sec: u64,
    /// Bucket capacity for the request rate limit: how many requests a
    /// previously idle connection may issue back-to-back before the
    /// sustained rate applies. 0 means "same as the sustained rate".
    pub burst: u64,
    /// Sustained request-payload bytes per second one connection may
    /// send; 0 disables the byte quota.
    pub max_bytes_per_sec: u64,
    /// Decoded-but-unanswered requests one connection may queue before
    /// further requests are rejected with `Throttled`. Layered *under*
    /// the reactor's `max_pipeline_depth`: the pipeline cap parks the
    /// socket (backpressure), this cap answers with a typed rejection.
    /// 0 disables the cap.
    pub max_in_flight: usize,
    /// Outbound bytes (replies + notifications) the server will buffer
    /// for a connection that is not draining its socket before evicting
    /// it as a slow consumer. 0 disables eviction.
    pub max_outbox_bytes: usize,
}

impl ClientPolicy {
    /// The delay a throttled client should wait before retrying: one
    /// refill interval of the request bucket, clamped to [1ms, 1s].
    pub fn retry_after(&self) -> Duration {
        let ms = 1000u64
            .checked_div(self.max_requests_per_sec)
            .map_or(1, |interval| interval.clamp(1, 1000));
        Duration::from_millis(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(c: u64, s: u64) -> IdemToken {
        IdemToken {
            client_id: c,
            seq: s,
        }
    }

    #[test]
    fn the_token_table_remembers_and_bounds_per_client() {
        let mut t = TokenTable::new(4);
        for s in 0..10 {
            t.record(tok(1, s), TokenOutcome::Created, s + 1);
        }
        // Only the newest 4 survive.
        assert_eq!(t.len(), 4);
        assert!(t.lookup(tok(1, 5)).is_none());
        assert_eq!(t.lookup(tok(1, 9)), Some(TokenOutcome::Created));
        assert_eq!(t.high_lsn(), 10);
        // A second client has its own budget.
        t.record(
            tok(2, 0),
            TokenOutcome::Inserted {
                replaced: false,
                tstamp: 7,
            },
            11,
        );
        assert_eq!(t.len(), 5);
        assert!(matches!(
            t.lookup(tok(2, 0)),
            Some(TokenOutcome::Inserted { tstamp: 7, .. })
        ));
        // Re-recording an existing token does not consume a slot.
        t.record(tok(1, 9), TokenOutcome::Created, 12);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn outcomes_round_trip_through_the_wire_encoding() {
        for outcome in [
            TokenOutcome::Created,
            TokenOutcome::Inserted {
                replaced: true,
                tstamp: 42,
            },
            TokenOutcome::InsertedBatch {
                tstamps: vec![1, 2, 3],
            },
        ] {
            let mut w = WireWriter::new();
            encode_outcome(&mut w, &outcome);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(decode_outcome(&mut r).unwrap(), outcome);
        }
    }

    #[test]
    fn the_default_policy_is_fully_permissive() {
        let p = ClientPolicy::default();
        assert_eq!(p.max_requests_per_sec, 0);
        assert_eq!(p.max_in_flight, 0);
        assert_eq!(p.max_outbox_bytes, 0);
        assert_eq!(p.retry_after(), Duration::from_millis(1));
        let limited = ClientPolicy {
            max_requests_per_sec: 200,
            ..ClientPolicy::default()
        };
        assert_eq!(limited.retry_after(), Duration::from_millis(5));
    }
}
