//! Everything about the benchmark that is a committed constant: the
//! workload names, the metric tables of `BENCHMARK.json`, and the paced
//! rates and latency limits fixed when the benchmark was authored (the
//! authoring numbers behind them are in `benchmark/README.md`).

/// The four workloads, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = ["cep_fanout", "durable_ingest", "window_select", "mixed_cep"];

/// Warm-up before the first measured segment; its operations are discarded.
pub const WARMUP_S: f64 = 1.5;

/// Times a run sets the system up; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 5;

/// Throughput is the median over this many equal slices of a segment.
pub const THROUGHPUT_SLICES: usize = 5;

/// Operations of a workload replayed in-process by a traced run.
pub const REPLAY_OPS: usize = 20_000;

/// How long the generator waits for stragglers after a segment before it
/// counts what is still missing as failed.
pub const DRAIN_GRACE_S: f64 = 3.0;

// --- cep_fanout -----------------------------------------------------------
pub const FANOUT_SYMBOLS: usize = 100;
pub const FANOUT_AUTOMATA: usize = 1_000;
/// Notifications every tick causes: automata per symbol.
pub const FANOUT_NOTES_PER_TICK: usize = FANOUT_AUTOMATA / FANOUT_SYMBOLS;
/// Ticks in flight in the closed-loop segment.
pub const FANOUT_WINDOW: usize = 64;
/// Share of the measured time spent in the closed-loop `sat` segment.
pub const FANOUT_SAT_SHARE: f64 = 0.5;
/// Paced ticks per second: half the authoring-time closed-loop capacity.
pub const FANOUT_PACED_RATE: f64 = 2_000.0;
/// Paced windowed selects per second on the subscriber connection.
pub const FANOUT_SELECT_RATE: f64 = 100.0;
/// How far back a probe select's `since τ` reaches, in ticks.
pub const FANOUT_SELECT_WINDOW_TICKS: u64 = 40;
/// Latency limit on insert → last notification, microseconds.
pub const FANOUT_NOTIFY_LIMIT_US: u64 = 10_000;

// --- durable_ingest ---------------------------------------------------------
pub const INGEST_BATCH_ROWS: usize = 100;
pub const INGEST_HOST_KEYS: usize = 50_000;
pub const INGEST_LANES: usize = 2;
/// WAL records between checkpoints. A 100-row batch is *one* record, so the
/// product default (10,000 records) would checkpoint once per million rows,
/// about once per run; 100 records is a checkpoint every 10,000 rows, the
/// cadence the default gives a single-row writer.
pub const INGEST_CHECKPOINT_EVERY: u64 = 100;
/// A lane's cycle: this many (Flows batch, Hosts batch) pairs, then one
/// windowed select.
pub const INGEST_PAIRS_PER_SELECT: usize = 8;
/// Latency limit on one durable 100-row upsert batch, microseconds.
pub const INGEST_ACK_LIMIT_US: u64 = 100_000;

// --- window_select ----------------------------------------------------------
/// Rows preloaded into every ephemeral table: the default ring capacity, so
/// the table is full — neither growing nor starting to evict — from the
/// first measured operation.
pub const RING_ROWS: usize = 65_536;
pub const SELECT_LANES: usize = 1;
/// Background inserts per second, on the subscriber connection.
pub const SELECT_TRICKLE_RATE: f64 = 1_000.0;
/// Rows a windowed select's `since τ` reaches back over.
pub const SELECT_WINDOW_ROWS: u64 = 2_600;
/// Latency limits per select class, microseconds: windowed `where`,
/// windowed `group by`, full-table `order by … limit`.
pub const SELECT_LIMITS_US: [u64; 3] = [5_000, 5_000, 100_000];

// --- mixed_cep --------------------------------------------------------------
pub const MIXED_SYMBOLS: usize = 100;
pub const MIXED_WINDOW: usize = 64;
pub const MIXED_SAT_SHARE: f64 = 0.4;
/// Paced durable single-tuple upserts per second.
pub const MIXED_PACED_RATE: f64 = 1_000.0;
/// Paced windowed selects per second on the subscriber connection.
pub const MIXED_SELECT_RATE: f64 = 200.0;
pub const MIXED_SELECT_WINDOW_TICKS: u64 = 50;
/// Latency limit on upsert → notification, microseconds.
pub const MIXED_NOTIFY_LIMIT_US: u64 = 10_000;

/// One row of `BENCHMARK.json`'s `end_to_end` table.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The gated metrics; every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "ack_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "notify_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "select_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "within_limit",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One row of `BENCHMARK.json`'s `per_layer` table.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The ungated per-layer metrics of a `--trace 1` run, named after the
/// module they time. A layer a workload leaves idle reports 0.
pub const PER_LAYER: [PerLayer; 61] = [
    layer("psrpc.message.encode_request_ns", "ns", "lower"),
    layer("psrpc.message.decode_request_ns", "ns", "lower"),
    layer("psrpc.message.encode_reply_ns", "ns", "lower"),
    layer("psrpc.message.decode_reply_ns", "ns", "lower"),
    layer("psrpc.message.notification_codec_ns", "ns", "lower"),
    layer("psrpc.message.bytes_per_op", "B", "lower"),
    layer("psrpc.framing.roundtrip_ns", "ns", "lower"),
    layer("psrpc.framing.fragments_per_op", "count", "lower"),
    layer("psrpc.reactor.ping_rtt_us", "us", "lower"),
    layer("psrpc.reactor.rpc_overhead_us", "us", "lower"),
    layer("psrpc.reactor.worker_saturation", "ratio", "lower"),
    layer("psrpc.client.ack_p99_us", "us", "lower"),
    layer("psrpc.client.notify_p99_us", "us", "lower"),
    layer("psrpc.client.select_p99_us", "us", "lower"),
    layer("psrpc.client.gen_lag_p99_us", "us", "lower"),
    layer("psrpc.client.achieved_rate_ratio", "ratio", "higher"),
    layer("psrpc.client.paced_valid", "ratio", "higher"),
    layer("psrpc.client.failed_ratio", "ratio", "lower"),
    layer("pscache.sql.parse_ns", "ns", "lower"),
    layer("pscache.plan.compile_ns", "ns", "lower"),
    layer("pscache.plan.cache_hit_ratio", "ratio", "higher"),
    layer("pscache.query.select_ns", "ns", "lower"),
    layer("pscache.query.rows_returned_per_select", "count", "lower"),
    layer("pscache.table.insert_ns", "ns", "lower"),
    layer(
        "pscache.snapshot.select_under_write_ratio",
        "ratio",
        "higher",
    ),
    layer("pscache.wal.durable_delta_ns", "ns", "lower"),
    layer("pscache.wal.append_ns", "ns", "lower"),
    layer("pscache.wal.wait_durable_ns", "ns", "lower"),
    layer("pscache.wal.checkpoint_ms", "ms", "lower"),
    layer("pscache.wal.checkpoints", "count", "lower"),
    layer("pscache.wal.mean_group_size", "count", "higher"),
    layer("pscache.wal.fsyncs_per_krow", "count", "lower"),
    layer("pscache.wal.bytes_per_row", "B", "lower"),
    layer("pscache.wal.recovery_ms", "ms", "lower"),
    layer("pscache.wal.replayed_records", "count", "lower"),
    layer("pscache.dispatch.deliver_ns", "ns", "lower"),
    layer("pscache.dispatch.skipped_ratio", "ratio", "higher"),
    layer("pscache.dispatch.queue_depth_max", "count", "lower"),
    layer("gapl.compile_us", "us", "lower"),
    layer("gapl.prefilter.matches_ns", "ns", "lower"),
    layer("gapl.vm.run_behavior_ns", "ns", "lower"),
    layer("gapl.vm.instructions_per_event", "count", "lower"),
    layer("pscache.repl.lag_records_max", "count", "lower"),
    layer("pscache.repl.catchup_ms", "ms", "lower"),
    layer("pscache.obs.rpc_queue_ns_p50", "ns", "lower"),
    layer("pscache.obs.rpc_exec_ns_p50", "ns", "lower"),
    layer("pscache.obs.rpc_flush_ns_p50", "ns", "lower"),
    layer("pscache.obs.wal_append_ns_p50", "ns", "lower"),
    layer("pscache.obs.wal_commit_wait_ns_p50", "ns", "lower"),
    layer("pscache.obs.wal_fsync_ns_p50", "ns", "lower"),
    layer("pscache.obs.select_ns_p50", "ns", "lower"),
    layer("pscache.obs.dispatch_queue_ns_p50", "ns", "lower"),
    layer("pscache.obs.repl_apply_lag_p50", "count", "lower"),
    layer("workloads.generate_ns_per_op", "ns", "lower"),
    layer("budget.e2e_p50_us", "us", "lower"),
    layer("budget.attributed_us", "us", "lower"),
    layer("budget.unattributed_ratio", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.spans", "count", "lower"),
    layer("trace.traced_ops_per_s", "1/s", "higher"),
    layer("trace.untraced_ops_per_s", "1/s", "higher"),
];

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot disagree (`cargo test` compares them).
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WHYS.iter().enumerate() {
        let comma = if i + 1 < WHYS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Why each workload exists, one line each (`why` in `BENCHMARK.json`).
pub const WHYS: [(&str, &str); 4] = [
    (
        "cep_fanout",
        "In-memory stock watcher: 1000 guarded automata, 10 notifications per tick; loads reactor, codec, dispatch, prefilter and VM, bypasses WAL and repl",
    ),
    (
        "durable_ingest",
        "Write path: closed-loop 100-row durable upsert batches over 50k keys across many checkpoints; loads WAL and table, codec amortised 100:1, dispatch nearly idle",
    ),
    (
        "window_select",
        "Read path: closed-loop since-window, group-by and full-table selects over a full 64Ki-row ring under a 1k/s trickle; loads sql, plan, query, snapshot, reply encoding",
    ),
    (
        "mixed_cep",
        "Everything at once: durable single-tuple upserts with a follower attached, 100 stateful automata and paced selects on one table; only user of repl and commit-wait",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for (name, why) in WHYS {
            assert!(WORKLOADS.contains(&name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `psbench manifest`"
        );
    }
}
