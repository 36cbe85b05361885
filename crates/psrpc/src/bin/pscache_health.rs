//! `pscache-health` — the load-balancer probe for a running cache
//! server.
//!
//! Issues one [`Request::Metrics`](psrpc::message::Request::Metrics) RPC
//! and reports its [`HealthReport`] view. The server answers it inline
//! on the reactor's event thread, so the probe stays meaningful when
//! every worker is saturated: a wedged worker pool is *visible* in the
//! report (`rpc_worker_busy == rpc_workers`, growing `rpc_in_flight`)
//! instead of timing the probe out.
//!
//! ```text
//! pscache-health <host:port> [--require-primary] [--max-lag N]
//!                [--max-worker-saturation R] [--format text|json]
//!                [--metrics] [--quiet]
//! ```
//!
//! `--format json` emits the same snapshot as one machine-readable JSON
//! object (hand-rolled — every field is an integer, a ratio, or a
//! string, so no serializer is needed). `--metrics` also prints the
//! snapshot the report was read from — the node's latency histograms
//! and counters — as Prometheus exposition text in text mode, as a
//! summarised object in JSON mode; it costs no second round trip.
//! Neither flag changes the exit semantics.
//!
//! Exit codes, shaped for probe configs (Kubernetes, HAProxy, …):
//!
//! * `0` — the server answered and passed every requested check;
//! * `1` — the server answered but failed a check (follower when
//!   `--require-primary`, replication lag above `--max-lag`, worker
//!   pool busier than `--max-worker-saturation`);
//! * `2` — unreachable, timed out, or bad usage.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use psrpc::client::CacheClient;
use psrpc::message::HealthReport;

const USAGE: &str = "usage: pscache-health <host:port> [--require-primary] [--max-lag N] \
       [--max-worker-saturation R] [--format text|json] [--metrics] [--quiet]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    addr: String,
    require_primary: bool,
    max_lag: Option<u64>,
    /// Fail (exit 1) when `HealthReport::worker_saturation()` exceeds
    /// this ratio — e.g. `0.9` drops a backend from rotation while its
    /// worker pool is pinned, before clients see queueing latency.
    max_worker_saturation: Option<f64>,
    format: Format,
    metrics: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut addr = None;
    let mut require_primary = false;
    let mut max_lag = None;
    let mut max_worker_saturation = None;
    let mut format = Format::Text;
    let mut metrics = false;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require-primary" => require_primary = true,
            "--metrics" => metrics = true,
            "--format" => {
                let value = args.next().ok_or("--format needs `text` or `json`")?;
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    _ => return Err("--format needs `text` or `json`".into()),
                };
            }
            "--quiet" => quiet = true,
            "--max-lag" => {
                let value = args.next().ok_or("--max-lag needs a value")?;
                max_lag = Some(value.parse().map_err(|_| "--max-lag needs an integer")?);
            }
            "--max-worker-saturation" => {
                let value = args.next().ok_or("--max-worker-saturation needs a value")?;
                let ratio: f64 = value
                    .parse()
                    .map_err(|_| "--max-worker-saturation needs a ratio in [0, 1]")?;
                if !(0.0..=1.0).contains(&ratio) {
                    return Err("--max-worker-saturation needs a ratio in [0, 1]".into());
                }
                max_worker_saturation = Some(ratio);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                if addr.replace(other.to_owned()).is_some() {
                    return Err("more than one address given".into());
                }
            }
        }
    }
    Ok(Options {
        addr: addr.ok_or("an address is required")?,
        require_primary,
        max_lag,
        max_worker_saturation,
        format,
        metrics,
        quiet,
    })
}

/// The health report as one JSON object. `repl_lag` is `null` when no
/// follower is attached — same distinction the wire makes.
fn health_json(addr: &str, report: &HealthReport, elapsed: Duration) -> String {
    let lag = match report.repl_lag {
        Some(lag) => lag.to_string(),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"addr\":\"{}\",\"role\":\"{}\",\"commit_lsn\":{},\"replica_lsn\":{},",
            "\"repl_lag\":{},\"connections_active\":{},\"rpc_in_flight\":{},",
            "\"rpc_queue_stalls\":{},\"rpc_worker_busy\":{},\"rpc_workers\":{},",
            "\"worker_saturation\":{:.4},\"rpc_requests_throttled\":{},",
            "\"slow_consumer_evictions\":{},\"automaton_unregistrations\":{},",
            "\"probe_ms\":{}}}"
        ),
        addr,
        if report.role_follower == 1 {
            "follower"
        } else {
            "primary"
        },
        report.commit_lsn,
        report.replica_lsn,
        lag,
        report.connections_active,
        report.rpc_in_flight,
        report.rpc_queue_stalls,
        report.rpc_worker_busy,
        report.rpc_workers,
        report.worker_saturation(),
        report.rpc_requests_throttled,
        report.slow_consumer_evictions,
        report.automaton_unregistrations,
        elapsed.as_millis(),
    )
}

/// The metrics snapshot as one JSON object: counters verbatim, each
/// histogram summarised to count/mean/p50/p99 (the full bucket vectors
/// stay behind the Prometheus exposition, which is built for them).
fn metrics_json(snapshot: &pscache::MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{}}}",
            h.name,
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99),
        ));
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("pscache-health: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let client = match CacheClient::connect(opts.addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("pscache-health: {}: {e}", opts.addr);
            return ExitCode::from(2);
        }
    };
    let snapshot = match client.metrics() {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("pscache-health: {}: metrics rpc failed: {e}", opts.addr);
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    let report = HealthReport::from_snapshot(&snapshot);

    let role = if report.role_follower == 1 {
        "follower"
    } else {
        "primary"
    };
    let lag_text = match report.repl_lag {
        Some(lag) => lag.to_string(),
        None => "-".to_string(),
    };
    if !opts.quiet {
        match opts.format {
            Format::Json => println!("{}", health_json(&opts.addr, &report, elapsed)),
            Format::Text => println!(
                "{} {role} commit_lsn={} replica_lsn={} repl_lag={} conns={} in_flight={} \
                 workers={}/{} saturation={:.2} throttled={} ({}ms)",
                opts.addr,
                report.commit_lsn,
                report.replica_lsn,
                lag_text,
                report.connections_active,
                report.rpc_in_flight,
                report.rpc_worker_busy,
                report.rpc_workers,
                report.worker_saturation(),
                report.rpc_requests_throttled,
                elapsed.as_millis(),
            ),
        }
        if opts.metrics {
            match opts.format {
                Format::Json => println!("{}", metrics_json(&snapshot)),
                Format::Text => print!("{}", snapshot.to_prometheus()),
            }
        }
    }

    if opts.require_primary && report.role_follower == 1 {
        eprintln!(
            "pscache-health: {} is a follower (--require-primary)",
            opts.addr
        );
        return ExitCode::from(1);
    }
    if let Some(max_lag) = opts.max_lag {
        // --max-lag asserts "replication is keeping up", which needs a
        // follower to be keeping up at all: an unreplicated server
        // fails the check instead of passing it vacuously with lag 0.
        match report.repl_lag {
            None => {
                eprintln!(
                    "pscache-health: {} has no follower attached (--max-lag {max_lag})",
                    opts.addr
                );
                return ExitCode::from(1);
            }
            Some(lag) if lag > max_lag => {
                eprintln!(
                    "pscache-health: {} replication lag {lag} exceeds --max-lag {max_lag}",
                    opts.addr
                );
                return ExitCode::from(1);
            }
            Some(_) => {}
        }
    }
    if let Some(max) = opts.max_worker_saturation {
        let saturation = report.worker_saturation();
        if saturation > max {
            eprintln!(
                "pscache-health: {} worker saturation {saturation:.2} ({}/{}) exceeds \
                 --max-worker-saturation {max}",
                opts.addr, report.rpc_worker_busy, report.rpc_workers
            );
            return ExitCode::from(1);
        }
    }
    // Guard against pathological probe latency even on success paths:
    // a probe that took this long is a readiness problem in itself.
    if elapsed > Duration::from_secs(5) {
        eprintln!(
            "pscache-health: {} answered but took {elapsed:?}",
            opts.addr
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
