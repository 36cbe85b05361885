//! Inputs, made from the seed before anything is timed. Everything comes
//! from the `cep_workloads` generators; the server sees only these values.
//! Pools are cycled when a run needs more operations than a pool holds,
//! with a fresh `seq` on every use.

use std::sync::Arc;

use cep_workloads::{
    FlowConfig, FlowGenerator, HttpConfig, HttpGenerator, StockConfig, StockGenerator,
};
use gapl::event::Scalar;

/// `seq` of preloaded rows, far above any measured row's.
pub const PRELOAD_SEQ: u64 = 1 << 40;

/// Stock ticks over `symbols` symbols: the input of `cep_fanout` and
/// `mixed_cep`.
pub struct TickPool {
    /// Interned symbol names, so building a row clones a pointer.
    pub names: Vec<Arc<str>>,
    /// `(symbol index, price)` per tick.
    pub ticks: Vec<(u16, f64)>,
}

pub const TICKS_DDL: &str = "create table Ticks (sym varchar(8), price real, seq integer)";
pub const TICKS_DURABLE_DDL: &str =
    "create persistenttable Ticks (sym varchar(8) primary key, price real, seq integer)";

impl TickPool {
    pub fn new(seed: u64, symbols: usize, n: usize) -> TickPool {
        let names: Vec<Arc<str>> = (0..symbols)
            .map(|i| Arc::from(StockGenerator::symbol_name(i)))
            .collect();
        let ticks = StockGenerator::new(StockConfig {
            events: n,
            symbols,
            seed,
            ..StockConfig::default()
        })
        .generate()
        .into_iter()
        .map(|t| {
            let ix: u16 = t.name[3..].parse().expect("symbol names are SYMnnn");
            (ix, t.price)
        })
        .collect();
        TickPool { names, ticks }
    }

    /// The tick used for operation `seq`.
    pub fn tick(&self, seq: u64) -> (u16, f64) {
        self.ticks[(seq % self.ticks.len() as u64) as usize]
    }

    /// The row of operation `seq`: `(sym, price, seq)`.
    pub fn row(&self, seq: u64) -> Vec<Scalar> {
        let (sym, price) = self.tick(seq);
        vec![
            Scalar::Str(Arc::clone(&self.names[sym as usize])),
            Scalar::Real(price),
            Scalar::Int(seq as i64),
        ]
    }
}

/// Network flows: the input of `window_select` and the ephemeral half of
/// `durable_ingest`. The schema is the generator's plus a trailing `seq`.
pub struct FlowPool {
    rows: Vec<Vec<Scalar>>,
    /// `(dport, nbytes)` per pooled flow, for the select oracle.
    pub keys: Vec<(i64, i64)>,
}

pub const FLOWS_DDL: &str = "create table Flows (protocol integer, srcip varchar(16), \
     sport integer, dstip varchar(16), dport integer, npkts integer, nbytes integer, seq integer)";

impl FlowPool {
    pub fn new(seed: u64, n: usize) -> FlowPool {
        let flows = FlowGenerator::new(FlowConfig {
            seed,
            ..FlowConfig::default()
        })
        .take(n);
        FlowPool {
            keys: flows.iter().map(|f| (f.dport, f.nbytes)).collect(),
            rows: flows.iter().map(|f| f.to_scalars()).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `(dport, nbytes)` of the row used for operation `seq`.
    pub fn key(&self, seq: u64) -> (i64, i64) {
        self.keys[(seq % self.rows.len() as u64) as usize]
    }

    /// The row of operation `seq`, with `seq` appended.
    pub fn row(&self, seq: u64) -> Vec<Scalar> {
        let mut row = self.rows[(seq % self.rows.len() as u64) as usize].clone();
        row.push(Scalar::Int(seq as i64));
        row
    }

    /// Rows `first .. first + n` as one batch.
    pub fn batch(&self, first: u64, n: usize) -> Vec<Vec<Scalar>> {
        (first..first + n as u64).map(|s| self.row(s)).collect()
    }
}

/// Zipf-distributed host keys for the persistent `Hosts` table of
/// `durable_ingest`. The key space is split between the lanes, so every key
/// has one writer and therefore a latest version.
pub struct HostPool {
    /// Interned key names, by key index.
    pub names: Vec<Arc<str>>,
    /// Zipf rank (within a lane's share of the keys) per pooled operation.
    pub ranks: Vec<u32>,
    lanes: usize,
}

pub const HOSTS_DDL: &str = "create persistenttable Hosts (host varchar(32) primary key, \
     hits integer, mark integer, seq integer)";

impl HostPool {
    pub fn new(seed: u64, keys: usize, lanes: usize, n: usize) -> HostPool {
        let names: Vec<Arc<str>> = (0..keys)
            .map(|k| Arc::from(HttpGenerator::host_name(k)))
            .collect();
        let ranks = HttpGenerator::new(HttpConfig {
            requests: n,
            hosts: keys / lanes,
            seed,
            ..HttpConfig::default()
        })
        .generate()
        .iter()
        .map(|r| {
            let rank = r
                .host
                .strip_prefix("host-")
                .and_then(|h| h.split('.').next());
            rank.and_then(|d| d.parse().ok())
                .expect("host names are host-<rank>.example.org")
        })
        .collect();
        HostPool {
            names,
            ranks,
            lanes,
        }
    }

    /// The key index `lane` upserts with its `row_seq`-th row.
    pub fn key(&self, lane: usize, row_seq: u64) -> usize {
        let pooled = (row_seq * self.lanes as u64 + lane as u64) % self.ranks.len() as u64;
        self.ranks[pooled as usize] as usize * self.lanes + lane
    }

    /// One `Hosts` row: `(host, hits, mark, seq)`. `hits` is the version of
    /// the key: the writer's row count, so the latest upsert has the largest.
    pub fn row(&self, key: usize, hits: u64, mark: bool, seq: u64) -> Vec<Scalar> {
        vec![
            Scalar::Str(Arc::clone(&self.names[key])),
            Scalar::Int(hits as i64),
            Scalar::Int(i64::from(mark)),
            Scalar::Int(seq as i64),
        ]
    }

    /// Version written by `lane`'s `row_seq`-th row.
    pub fn version(row_seq: u64) -> u64 {
        row_seq + 1
    }

    /// The `batch`-th upsert batch of `lane`. The last row carries
    /// `mark = 1` and every row the batch's `seq` (`batch * lanes + lane`),
    /// so one guarded automaton notifies once per batch.
    pub fn batch(&self, lane: usize, batch: u64, n: usize) -> Vec<Vec<Scalar>> {
        let seq = batch * self.lanes as u64 + lane as u64;
        (0..n as u64)
            .map(|k| {
                let row_seq = batch * n as u64 + k;
                self.row(
                    self.key(lane, row_seq),
                    Self::version(row_seq),
                    k + 1 == n as u64,
                    seq,
                )
            })
            .collect()
    }
}

/// GAPL source of the `cep_fanout` automaton watching symbol `sym`.
pub fn fanout_automaton(sym: &str) -> String {
    format!(
        "subscribe t to Ticks; behavior {{ if (t.sym == '{sym}') send(t.sym, t.price, t.seq); }}"
    )
}

/// Weight of the newest price in the moving average of [`mixed_automaton`].
pub const EMA_ALPHA: f64 = 0.125;

/// GAPL source of the stateful `mixed_cep` automaton for symbol `sym`: an
/// exponential moving average of the price, and a `send(seq, direction)`
/// whenever the price crosses it.
pub fn mixed_automaton(sym: &str) -> String {
    format!(
        "subscribe t to Ticks;\n\
         real avg; int n, above;\n\
         initialization {{ avg = 0.0; n = 0; above = 0; }}\n\
         behavior {{\n\
           if (t.sym == '{sym}') {{\n\
             if (n == 0) avg = t.price; else avg = avg * {keep} + t.price * {alpha};\n\
             n += 1;\n\
             if (t.price > avg) {{ if (above == 0) {{ above = 1; send(t.seq, 1); }} }}\n\
             else {{ if (above == 1) {{ above = 0; send(t.seq, 0); }} }}\n\
           }}\n\
         }}",
        keep = 1.0 - EMA_ALPHA,
        alpha = EMA_ALPHA,
    )
}

/// The generator's own copy of one [`mixed_automaton`]'s state, used to
/// predict exactly which ticks notify.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossMirror {
    avg: f64,
    n: u64,
    above: bool,
}

impl CrossMirror {
    /// Feed one price; returns the direction sent, if the automaton sends.
    pub fn step(&mut self, price: f64) -> Option<i64> {
        if self.n == 0 {
            self.avg = price;
        } else {
            self.avg = self.avg * (1.0 - EMA_ALPHA) + price * EMA_ALPHA;
        }
        self.n += 1;
        if price > self.avg {
            (!self.above).then(|| {
                self.above = true;
                1
            })
        } else {
            self.above.then(|| {
                self.above = false;
                0
            })
        }
    }
}

/// The `durable_ingest` probe automaton: one notification per upsert batch.
pub const HOSTS_AUTOMATON: &str =
    "subscribe h to Hosts; behavior { if (h.mark == 1) send(h.seq); }";

/// The `window_select` probe automaton: one notification per trickle insert.
pub const FLOWS_AUTOMATON: &str = "subscribe f to Flows; behavior { send(f.seq); }";

#[cfg(test)]
mod tests {
    use super::*;
    use gapl::event::{AttrType, Schema, Tuple};
    use gapl::vm::{RecordingHost, Vm};

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = TickPool::new(7, 10, 500);
        let b = TickPool::new(7, 10, 500);
        assert_eq!(a.ticks, b.ticks);
        assert_ne!(a.ticks, TickPool::new(8, 10, 500).ticks);
        assert_eq!(FlowPool::new(3, 100).keys, FlowPool::new(3, 100).keys);
        assert_eq!(
            HostPool::new(3, 50, 2, 100).ranks,
            HostPool::new(3, 50, 2, 100).ranks
        );
        // Pools cycle with fresh sequence numbers.
        assert_eq!(a.tick(3), a.tick(503));
        assert_eq!(a.row(503)[2], Scalar::Int(503));
    }

    #[test]
    fn every_automaton_compiles_with_a_prefilter_where_intended() {
        let fan = gapl::compile(&fanout_automaton("SYM003")).unwrap();
        assert!(fan.prefilter().is_guard());
        let mixed = gapl::compile(&mixed_automaton("SYM003")).unwrap();
        assert!(mixed.prefilter().is_guard());
        assert!(gapl::compile(HOSTS_AUTOMATON)
            .unwrap()
            .prefilter()
            .is_guard());
        assert!(!gapl::compile(FLOWS_AUTOMATON)
            .unwrap()
            .prefilter()
            .is_guard());
    }

    #[test]
    fn the_mirror_predicts_the_stateful_automaton_exactly() {
        let pool = TickPool::new(11, 4, 20_000);
        let schema = Arc::new(
            Schema::new(
                "Ticks",
                vec![
                    ("sym", AttrType::Str),
                    ("price", AttrType::Real),
                    ("seq", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        let program = Arc::new(gapl::compile(&mixed_automaton(&pool.names[2])).unwrap());
        let mut vm = Vm::new(Arc::clone(&program));
        let mut host = RecordingHost::default();
        vm.run_initialization(&mut host).unwrap();
        let mut mirror = CrossMirror::default();
        let mut expected = Vec::new();
        for seq in 0..pool.ticks.len() as u64 {
            let tuple = Tuple::new(Arc::clone(&schema), pool.row(seq), seq).unwrap();
            if !program.prefilter().matches(&tuple) {
                continue;
            }
            vm.run_behavior("Ticks", &tuple, &mut host).unwrap();
            if let Some(direction) = mirror.step(pool.tick(seq).1) {
                expected.push(vec![Scalar::Int(seq as i64), Scalar::Int(direction)]);
            }
        }
        assert!(
            expected.len() > 100,
            "the walk must cross its average often"
        );
        assert_eq!(host.sent, expected);
    }

    #[test]
    fn host_batches_mark_only_their_last_row_and_lanes_own_their_keys() {
        let pool = HostPool::new(5, 1_000, 2, 10_000);
        let batch = pool.batch(1, 3, 100);
        assert_eq!(batch.len(), 100);
        let marks: i64 = batch.iter().map(|r| r[2].as_int().unwrap()).sum();
        assert_eq!(marks, 1);
        assert_eq!(batch[99][2], Scalar::Int(1));
        assert!(batch.iter().all(|r| r[3] == Scalar::Int(7)));
        assert_eq!(batch[5][1], Scalar::Int(306));
        for row_seq in 0..5_000 {
            assert_eq!(pool.key(0, row_seq) % 2, 0);
            assert_eq!(pool.key(1, row_seq) % 2, 1);
            assert!(pool.key(1, row_seq) < 1_000);
        }
    }
}
