//! Helpers shared by the workload drivers: segments, latency extraction,
//! the server-side CPU and memory readings, and the before/after scrape of
//! the servers' own counters.

use std::sync::atomic::{AtomicU64, Ordering};

use pscache::{HistogramSnapshot, MetricsSnapshot};
use psrpc::client::CacheClient;
use psrpc::message::ServerStats;

use crate::child::ServerProc;
use crate::lane::Sample;
use crate::report::RunOutcome;
use crate::stats::{percentile, percentile_of};

/// A measured stretch of the run, `[start, end)` on the run's clock. An
/// operation belongs to the segment its *due* time falls in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub start: u64,
    pub end: u64,
}

/// Latency percentiles of the successful operations among `samples`, and
/// how many samples there were.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Operations that completed within the limit given to [`latency`].
    pub within: u64,
}

/// Summarise the latencies (from due time) of `samples`; a failed sample
/// misses any limit.
pub fn latency<'a>(samples: impl Iterator<Item = &'a Sample>, limit_us: u64) -> Latency {
    let mut ns = Vec::new();
    let mut out = Latency::default();
    for s in samples {
        out.attempted += 1;
        match s.latency_ns() {
            Some(l) => {
                if l <= limit_us * 1_000 {
                    out.within += 1;
                }
                ns.push(l);
            }
            None => out.failed += 1,
        }
    }
    ns.sort_unstable();
    out.p50_us = percentile(&ns, 0.5) as f64 / 1e3;
    out.p99_us = percentile(&ns, 0.99) as f64 / 1e3;
    out
}

/// For operations that must each cause exactly one notification: tally
/// `notes` — `(index into samples, arrival time)` — and return one notify
/// sample per operation: due when the operation was, done when its
/// notification arrived, failed unless exactly one did.
pub fn singly_notified(
    samples: &[Sample],
    notes: impl Iterator<Item = (usize, u64)>,
    what: &str,
    out: &mut RunOutcome,
) -> Vec<Sample> {
    let mut tally = vec![(0u8, 0u64); samples.len()];
    for (ix, at) in notes {
        match tally.get_mut(ix) {
            Some(slot) => *slot = (slot.0.saturating_add(1), at),
            None => out.fault(format!(
                "a notification names {what} {ix}, which was never sent"
            )),
        }
    }
    samples
        .iter()
        .zip(tally)
        .enumerate()
        .map(|(ix, (s, (count, at)))| {
            if s.ok && count != 1 {
                out.fault(format!("{what} {ix} caused {count} notifications, not 1"));
            }
            Sample {
                done: at,
                ok: s.ok && count == 1,
                ..*s
            }
        })
        .collect()
}

/// p99 of how late the generator started paced operations, microseconds.
pub fn gen_lag_p99_us<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let mut lags: Vec<u64> = samples.map(|s| s.sent.saturating_sub(s.due)).collect();
    percentile_of(&mut lags, 0.99) as f64 / 1e3
}

/// Reads CPU time and peak memory of the server children.
pub struct ServerWatch<'a> {
    servers: Vec<&'a ServerProc>,
    ticks_per_s: u64,
    /// CPU time at the mark (see [`ServerWatch::mark_once`]); 0 = not yet.
    marked_us: AtomicU64,
}

impl<'a> ServerWatch<'a> {
    pub fn new(servers: Vec<&'a ServerProc>) -> Self {
        ServerWatch {
            servers,
            ticks_per_s: crate::procfs::clock_ticks_per_s(),
            marked_us: AtomicU64::new(0),
        }
    }

    /// Remember the CPU time used so far, the first time this is called: a
    /// lane calls it on its first measured operation, so warm-up is excluded
    /// without a thread of its own to watch the clock.
    pub fn mark_once(&self) {
        if self.marked_us.load(Ordering::Relaxed) == 0 {
            self.marked_us
                .store(self.cpu_us().max(1), Ordering::Relaxed);
        }
    }

    /// CPU time used since the mark, microseconds.
    pub fn cpu_us_since_mark(&self) -> u64 {
        self.cpu_us()
            .saturating_sub(self.marked_us.load(Ordering::Relaxed))
    }

    /// utime + stime of all server children so far, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.cpu_us(self.ticks_per_s))
            .sum()
    }

    /// Sum of the children's `VmHWM`, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.servers.iter().map(|s| s.peak_rss_kib()).sum::<u64>() as f64 / 1024.0
    }
}

/// The server's own view at one instant, over the existing RPCs.
pub struct Scrape {
    pub stats: ServerStats,
    pub metrics: MetricsSnapshot,
}

impl Scrape {
    pub fn take(client: &CacheClient) -> Result<Scrape, String> {
        Ok(Scrape {
            stats: client
                .server_stats()
                .map_err(|e| format!("server_stats: {e}"))?,
            metrics: client.metrics().map_err(|e| format!("metrics: {e}"))?,
        })
    }
}

/// `after - before` of one histogram, bucket by bucket.
pub fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> Option<HistogramSnapshot> {
    let a = after.histogram(name)?;
    let Some(b) = before.histogram(name) else {
        return Some(a.clone());
    };
    let buckets = a
        .buckets
        .iter()
        .filter_map(|&(i, n)| {
            let was = b
                .buckets
                .iter()
                .find(|&&(j, _)| j == i)
                .map_or(0, |&(_, m)| m);
            (n > was).then(|| (i, n - was))
        })
        .collect();
    Some(HistogramSnapshot {
        name: a.name.clone(),
        count: a.count.saturating_sub(b.count),
        sum: a.sum.saturating_sub(b.sum),
        buckets,
    })
}

/// p50 of the scraped delta of the histograms named by `names`, merged
/// (0 when none recorded anything).
pub fn delta_p50(before: &MetricsSnapshot, after: &MetricsSnapshot, names: &[&str]) -> f64 {
    let mut merged: Option<HistogramSnapshot> = None;
    for name in names {
        if let Some(d) = histogram_delta(before, after, name) {
            match &mut merged {
                Some(m) => m.merge(&d),
                None => merged = Some(d),
            }
        }
    }
    merged.map_or(0.0, |m| m.quantile(0.5) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due: u64, done: u64, ok: bool) -> Sample {
        Sample {
            kind: 0,
            due,
            sent: due + 10,
            sent_end: due + 20,
            done,
            ok,
        }
    }

    #[test]
    fn failed_operations_miss_the_limit_and_have_no_latency() {
        let samples = [
            sample(0, 100_000, true),
            sample(0, 300_000, true),
            sample(0, 9_000_000, true),
            sample(0, 0, false),
        ];
        let l = latency(samples.iter(), 1_000);
        assert_eq!(l.attempted, 4);
        assert_eq!(l.failed, 1);
        assert_eq!(l.within, 2);
        assert_eq!(l.p50_us, 300.0);
        assert_eq!(l.p99_us, 9_000.0);
        assert_eq!(gen_lag_p99_us(samples.iter()), 0.01);
    }

    #[test]
    fn a_missing_or_doubled_notification_fails_its_operation() {
        let samples = [
            sample(0, 50, true),
            sample(10, 60, true),
            sample(20, 70, true),
        ];
        let mut out = RunOutcome::default();
        let notes = [(0, 500), (2, 700), (2, 710), (9, 900)];
        let notified = singly_notified(&samples, notes.into_iter(), "row", &mut out);
        assert_eq!(
            notified.iter().map(|s| s.ok).collect::<Vec<_>>(),
            [true, false, false]
        );
        assert_eq!(notified[0].latency_ns(), Some(500));
        // Row 1 got none, row 2 got two, and note 9 names nothing.
        assert_eq!(out.errors.len(), 3);
    }

    #[test]
    fn histogram_deltas_subtract_bucket_by_bucket() {
        let h = |count, buckets: &[(u32, u64)]| HistogramSnapshot {
            name: "select_ns".into(),
            count,
            sum: count * 10,
            buckets: buckets.to_vec(),
        };
        let before = MetricsSnapshot {
            counters: vec![],
            histograms: vec![h(3, &[(5, 3)])],
        };
        let after = MetricsSnapshot {
            counters: vec![],
            histograms: vec![h(10, &[(5, 4), (9, 6)])],
        };
        let d = histogram_delta(&before, &after, "select_ns").unwrap();
        assert_eq!(d.count, 7);
        assert_eq!(d.buckets, vec![(5, 1), (9, 6)]);
        assert_eq!(d.quantile(0.5), pscache::obs::bucket_lower_bound(9));
        assert!(histogram_delta(&before, &after, "missing").is_none());
        assert_eq!(delta_p50(&before, &after, &["missing"]), 0.0);
    }
}
