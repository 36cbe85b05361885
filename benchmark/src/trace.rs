//! The traced run's bookkeeping: spans kept in memory and written out at
//! the end, the before/after scrape of the servers' own `Metrics` and
//! `server_stats` RPCs, and a low-rate sampler of the health probe.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer; spans inside the program are a later change.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use psrpc::client::CacheClient;

use crate::lane::Sample;
use crate::measure::{delta_p50, Scrape};
use crate::pacer::Clock;
use crate::procfs::Fingerprint;
use crate::report::{json_string, LayerValues, RunOutcome};

/// One timed interval. Spans of one operation share `op`; `parent` is the
/// index of the span that caused this one, or -1 for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub op: u64,
}

/// Spans of a run, in memory until [`SpanLog::write`].
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    next_op: u64,
}

impl SpanLog {
    /// A fresh operation id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: i64,
        op: u64,
    ) -> i64 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as i64 - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        clock: &Clock,
        name: &'static str,
        parent: i64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, i64) {
        let start = clock.now_ns();
        let value = f();
        let ix = self.push(name, start, clock.now_ns(), parent, op);
        (value, ix)
    }

    /// Spans of the client-observed operations in `samples`: a root from due
    /// time to reply, with the send and the wait for the reply under it, and
    /// the wait for the last notification where `notified` has one.
    pub fn client_ops(
        &mut self,
        name: &'static str,
        samples: &[Sample],
        notified: Option<&[Sample]>,
    ) {
        for (k, s) in samples.iter().enumerate().filter(|(_, s)| s.ok) {
            let op = self.new_op();
            let root = self.push(name, s.due, s.done, -1, op);
            self.push("psrpc.client.send", s.sent, s.sent_end, root, op);
            self.push("psrpc.client.await_reply", s.sent_end, s.done, root, op);
            if let Some(n) = notified.and_then(|n| n.get(k)).filter(|n| n.ok) {
                self.push(
                    "psrpc.client.await_notifications",
                    s.sent_end,
                    n.done,
                    root,
                    op,
                );
            }
        }
    }

    /// Durations of the spans called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Median duration of the spans called `name`.
    pub fn p50_ns(&self, name: &str) -> f64 {
        crate::stats::percentile_of(&mut self.durations(name), 0.5) as f64
    }

    /// Write the span file: a fingerprint and one array per span, so a large
    /// trace stays compact. At most `limit` spans are written.
    pub fn write(
        &self,
        path: &std::path::Path,
        workload: &str,
        fp: &Fingerprint,
        limit: usize,
    ) -> Result<(), String> {
        use std::io::Write;
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"fingerprint\": {}, \"total_spans\": {},\n \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n \"spans\": [",
            json_string(workload),
            fp.to_json(),
            self.spans.len()
        )
        .map_err(io)?;
        let n = self.spans.len().min(limit);
        for (i, s) in self.spans[..n].iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            writeln!(
                w,
                "  [{}, {}, {}, {}, {}]{comma}",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )
            .map_err(io)?;
        }
        writeln!(w, " ]\n}}").map_err(io)?;
        w.flush().map_err(io)
    }
}

/// Samples the health probe (answered inline on the reactor thread) a few
/// times a second during a traced run: worker-pool saturation on the
/// primary, and replication lag when a follower is attached.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(f64, u64)>,
}

impl Sampler {
    pub fn start(primary: SocketAddr, follower: Option<SocketAddr>) -> Result<Sampler, String> {
        let p = crate::run::connect(primary, false)?;
        let f = follower
            .map(|a| crate::run::connect(a, false))
            .transpose()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut busy, mut samples, mut lag_max) = (0.0, 0u64, 0u64);
            while !flag.load(Ordering::Acquire) {
                if let Ok(h) = p.health() {
                    busy += h.worker_saturation();
                    samples += 1;
                    if let Some(Ok(fh)) = f.as_ref().map(CacheClient::health) {
                        lag_max = lag_max.max(h.commit_lsn.saturating_sub(fh.replica_lsn));
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            (busy / samples.max(1) as f64, lag_max)
        });
        Ok(Sampler { stop, thread })
    }

    /// Stop and return `(mean worker saturation, max replication lag)`.
    pub fn finish(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Release);
        self.thread.join().unwrap_or((0.0, 0))
    }
}

/// What every drive does around its measured segments: scrape before,
/// sample during (traced runs only), scrape after.
pub struct Observer {
    before: Scrape,
    sampler: Option<Sampler>,
}

impl Observer {
    pub fn begin(
        ctl: &CacheClient,
        primary: SocketAddr,
        follower: Option<SocketAddr>,
        traced: bool,
    ) -> Result<Observer, String> {
        Ok(Observer {
            before: Scrape::take(ctl)?,
            sampler: traced
                .then(|| Sampler::start(primary, follower))
                .transpose()?,
        })
    }

    /// Forget what was scraped so far: the values reported at the end then
    /// cover only what follows (the tick workloads call this between their
    /// closed-loop and paced segments, so that queueing the closed loop
    /// creates by design does not pass for the paced path's).
    pub fn restart(&mut self, ctl: &CacheClient) -> Result<(), String> {
        self.before = Scrape::take(ctl)?;
        Ok(())
    }

    /// Fill in the per-layer values the servers themselves report.
    /// `durable_rows` is the number of rows written to durable tables
    /// between the scrapes.
    pub fn finish(
        self,
        ctl: &CacheClient,
        durable_rows: u64,
        out: &mut RunOutcome,
    ) -> Result<(), String> {
        let after = Scrape::take(ctl)?;
        let (b, a) = (&self.before.metrics, &after.metrics);
        let l: &mut LayerValues = &mut out.layers;
        let stage = |stage: &str| {
            let names: Vec<String> = ["execute", "insert", "insert_batch"]
                .iter()
                .map(|kind| format!("rpc_{kind}_{stage}_ns"))
                .collect();
            delta_p50(b, a, &names.iter().map(String::as_str).collect::<Vec<_>>())
        };
        l.set("pscache.obs.rpc_queue_ns_p50", stage("queue"));
        l.set("pscache.obs.rpc_exec_ns_p50", stage("execute"));
        l.set("pscache.obs.rpc_flush_ns_p50", stage("flush"));
        for (layer, hist) in [
            ("pscache.obs.wal_append_ns_p50", "wal_append_ns"),
            ("pscache.obs.wal_commit_wait_ns_p50", "wal_commit_wait_ns"),
            ("pscache.obs.wal_fsync_ns_p50", "wal_fsync_ns"),
            ("pscache.obs.select_ns_p50", "select_ns"),
            ("pscache.obs.dispatch_queue_ns_p50", "dispatch_queue_ns"),
            ("pscache.obs.repl_apply_lag_p50", "repl_apply_lag_records"),
        ] {
            l.set(layer, delta_p50(b, a, &[hist]));
        }
        let (sb, sa) = (&self.before.stats, &after.stats);
        let records = sa.wal_records.saturating_sub(sb.wal_records);
        let syncs = sa.wal_syncs.saturating_sub(sb.wal_syncs);
        l.set(
            "pscache.wal.checkpoints",
            sa.wal_checkpoints.saturating_sub(sb.wal_checkpoints) as f64,
        );
        if syncs > 0 {
            l.set("pscache.wal.mean_group_size", records as f64 / syncs as f64);
        }
        if durable_rows > 0 {
            l.set(
                "pscache.wal.fsyncs_per_krow",
                syncs as f64 * 1_000.0 / durable_rows as f64,
            );
        }
        let delivered = sa.events_delivered.saturating_sub(sb.events_delivered);
        let skipped = sa
            .events_skipped_by_prefilter
            .saturating_sub(sb.events_skipped_by_prefilter);
        if delivered + skipped > 0 {
            l.set(
                "pscache.dispatch.skipped_ratio",
                skipped as f64 / (delivered + skipped) as f64,
            );
        }
        l.set(
            "pscache.dispatch.queue_depth_max",
            sa.automaton_max_queue_depth as f64,
        );
        if let Some(sampler) = self.sampler {
            let (saturation, lag_max) = sampler.finish();
            l.set("psrpc.reactor.worker_saturation", saturation);
            l.set("pscache.repl.lag_records_max", lag_max as f64);
        }
        Ok(())
    }
}
