//! `durable_ingest`: the write path.
//!
//! A durable primary (`SyncPolicy::Group`, a checkpoint every 100 records —
//! see `INGEST_CHECKPOINT_EVERY`) holds an ephemeral `Flows` ring at default capacity and a persistent
//! `Hosts` table of 50,000 keys, both preloaded so that ring and checkpoint
//! size have levelled off before timing. Two closed-loop lanes, one batch in
//! flight each, alternate 100-row `Flows` insert batches and 100-row `Hosts`
//! upsert batches (Zipf keys, each key owned by one lane), with a windowed
//! count over `Flows` once per cycle. At the end the server is SIGKILLed and
//! the directory recovered in-process: every acknowledged upsert must be
//! there.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, Request};

use crate::child::{fresh_dir, ServeOpts, ServerProc};
use crate::gen::{FlowPool, HostPool, FLOWS_DDL, HOSTS_AUTOMATON, HOSTS_DDL, PRELOAD_SEQ};
use crate::lane::{
    drain_subscriber, permits, run_lane, run_subscriber, Mode, Sample, SubscriberCtl,
};
use crate::layers::{Op, Path_, Replay};
use crate::measure::{latency, singly_notified, Segment, ServerWatch};
use crate::pacer::Clock;
use crate::report::{client_layers, RunOutcome};
use crate::run::{connect, preload, step, RunOpts, Workload};
use crate::spec::*;
use crate::stats::slice_median_throughput;
use crate::trace::Observer;

pub struct Ingest;

pub struct Inputs {
    flows: FlowPool,
    hosts: HostPool,
}

pub struct Env {
    primary: ServerProc,
    dir: PathBuf,
    ctl: CacheClient,
    lanes: Vec<CacheClient>,
    subscriber: CacheClient,
    /// Timestamp of the last preloaded `Flows` row.
    preload_tstamp: u64,
}

const FLOWS: u8 = 0;
const HOSTS: u8 = 1;
const SELECT: u8 = 2;
/// Operations in one lane cycle.
const CYCLE: u64 = 2 * INGEST_PAIRS_PER_SELECT as u64 + 1;
/// Batches per second per lane the sample buffers are sized for.
const CAP_PER_S: f64 = 6_000.0;
/// Flows batches back from the newest that a probe select's window starts.
const SELECT_BACK: u64 = 3;

/// What one lane logged beside its samples.
#[derive(Default)]
struct LaneLog {
    /// `(first, last)` reply timestamp of each `Flows` batch, in order.
    flows_tstamps: Vec<(u64, u64)>,
    /// `since τ` of each probe select and the `Flows` batches this lane had
    /// completed when it was sent.
    selects: Vec<(u64, u64)>,
    /// `count(*)` each probe select returned.
    counts: Vec<Option<u64>>,
}

impl Workload for Ingest {
    type Inputs = Inputs;
    type Env = Env;

    fn inputs(opts: &RunOpts) -> Inputs {
        Inputs {
            flows: FlowPool::new(opts.seed, 1 << 14),
            hosts: HostPool::new(opts.seed, INGEST_HOST_KEYS, INGEST_LANES, 1 << 18),
        }
    }

    fn input_ops(inputs: &Inputs) -> u64 {
        (inputs.flows.len() + inputs.hosts.ranks.len()) as u64
    }

    fn replay(inputs: &Inputs) -> Replay {
        // One lane's cycle: (Flows batch, Hosts batch) pairs, then a select.
        let (mut flows, mut hosts) = (0u64, 0u64);
        // A tenth of the usual operation count: each is a 100-row batch.
        let ops = (0..REPLAY_OPS as u64 / 10)
            .map(|i| match i % CYCLE {
                slot if slot == CYCLE - 1 => Op::Select {
                    table: "Flows",
                    before: "select count(*), sum(nbytes) from Flows since ".into(),
                    after: String::new(),
                    back: (SELECT_BACK as usize - 1) * INGEST_BATCH_ROWS,
                },
                slot if slot.is_multiple_of(2) => {
                    flows += 1;
                    Op::Batch {
                        table: "Flows",
                        rows: inputs
                            .flows
                            .batch((flows - 1) * INGEST_BATCH_ROWS as u64, INGEST_BATCH_ROWS),
                        upsert: false,
                    }
                }
                _ => {
                    hosts += 1;
                    Op::Batch {
                        table: "Hosts",
                        rows: inputs.hosts.batch(0, hosts - 1, INGEST_BATCH_ROWS),
                        upsert: true,
                    }
                }
            })
            .collect();
        Replay {
            ddl: vec![FLOWS_DDL, HOSTS_DDL],
            preload: vec![
                (
                    "Hosts",
                    true,
                    (0..INGEST_HOST_KEYS)
                        .map(|k| inputs.hosts.row(k, 0, false, PRELOAD_SEQ))
                        .collect(),
                ),
                (
                    "Flows",
                    false,
                    (0..RING_ROWS as u64)
                        .map(|k| inputs.flows.row(PRELOAD_SEQ + k))
                        .collect(),
                ),
            ],
            automata: vec![HOSTS_AUTOMATON.to_owned()],
            ops,
            durable: true,
            path: Path_::Ack,
        }
    }

    fn setup(inputs: &Inputs, opts: &RunOpts) -> Result<Env, String> {
        let dir = fresh_dir(&opts.data_root, "primary")?;
        let primary = ServerProc::spawn(&ServeOpts {
            durable: Some(dir.clone()),
            checkpoint_every: Some(INGEST_CHECKPOINT_EVERY),
            ..ServeOpts::default()
        })?;
        let ctl = connect(primary.rpc, false)?;
        step("creating Flows", ctl.execute(FLOWS_DDL))?;
        step("creating Hosts", ctl.execute(HOSTS_DDL))?;
        // Every key once, so the table (and with it every checkpoint) has
        // its final size before the first measured batch.
        preload(&ctl, "Hosts", true, INGEST_HOST_KEYS, |k| {
            inputs.hosts.row(k as usize, 0, false, PRELOAD_SEQ)
        })?;
        let tstamps = preload(&ctl, "Flows", false, RING_ROWS, |k| {
            inputs.flows.row(PRELOAD_SEQ + k)
        })?;
        let subscriber = connect(primary.rpc, opts.wire_trace)?;
        step(
            "registering the Hosts automaton",
            subscriber.register_automaton(HOSTS_AUTOMATON),
        )?;
        let lanes = (0..INGEST_LANES)
            .map(|_| connect(primary.rpc, opts.wire_trace))
            .collect::<Result<_, _>>()?;
        Ok(Env {
            primary,
            dir,
            ctl,
            lanes,
            subscriber,
            preload_tstamp: tstamps.last().copied().unwrap_or(0),
        })
    }

    fn drive(
        inputs: &Inputs,
        env: Env,
        opts: &RunOpts,
        out: &mut RunOutcome,
    ) -> Result<(), String> {
        let clock = Clock::start();
        let watch = ServerWatch::new(vec![&env.primary]);
        let observer = Observer::begin(&env.ctl, env.primary.rpc, None, opts.wire_trace)?;
        let cap = ((opts.warmup_s + opts.seconds) * CAP_PER_S) as usize;
        let sub_ctl = SubscriberCtl::default();
        let warm_end = clock.now_ns() + (opts.warmup_s * 1e9) as u64;
        let seg = Segment {
            start: warm_end,
            end: warm_end + (opts.seconds * 1e9) as u64,
        };

        let mut lane_out: Vec<(Vec<Sample>, LaneLog)> = Vec::new();
        let notes = std::thread::scope(|scope| {
            let subscriber = scope.spawn(|| {
                run_subscriber(
                    &env.subscriber,
                    &clock,
                    &sub_ctl,
                    cap * INGEST_LANES,
                    |n| Some((n.values.first()?.as_int()? as u64, 0)),
                    |_| {},
                )
            });
            // Lane 0's thread reads the servers' CPU time when warm-up ends.
            let handles: Vec<_> = env
                .lanes
                .iter()
                .enumerate()
                .map(|(lane, client)| {
                    let (watch, clock, env) = (&watch, &clock, &env);
                    scope.spawn(move || {
                        let mut log = LaneLog::default();
                        // Ring of this lane's recent Flows batch timestamps,
                        // written by the collector, read by the sender.
                        let recent: Vec<AtomicU64> =
                            (0..8).map(|_| AtomicU64::new(env.preload_tstamp)).collect();
                        let flows_done = AtomicU64::new(0);
                        let (mut flows_sent, mut hosts_sent) = (0u64, 0u64);
                        let (refill, permit_rx) = permits(1);
                        let (selects, counts, flows_tstamps) =
                            (&mut log.selects, &mut log.counts, &mut log.flows_tstamps);
                        let samples = run_lane(
                            client,
                            clock,
                            Mode::Closed {
                                permits: &permit_rx,
                                refill: Some(refill),
                            },
                            seg.end,
                            cap,
                            |i, due| {
                                if lane == 0 && due >= seg.start {
                                    watch.mark_once();
                                }
                                let slot = i % CYCLE;
                                if slot == CYCLE - 1 {
                                    let done = flows_done.load(Ordering::Acquire);
                                    let tau = recent
                                        [(done.saturating_sub(SELECT_BACK) % 8) as usize]
                                        .load(Ordering::Acquire);
                                    let tau = if done < SELECT_BACK {
                                        env.preload_tstamp
                                    } else {
                                        tau
                                    };
                                    selects.push((tau, done));
                                    let command = format!(
                                        "select count(*), sum(nbytes) from Flows since {tau}"
                                    );
                                    (SELECT, Request::Execute { command })
                                } else if slot.is_multiple_of(2) {
                                    let first = (flows_sent * INGEST_LANES as u64 + lane as u64)
                                        * INGEST_BATCH_ROWS as u64;
                                    flows_sent += 1;
                                    let rows = inputs.flows.batch(first, INGEST_BATCH_ROWS);
                                    (
                                        FLOWS,
                                        Request::InsertBatch {
                                            table: "Flows".into(),
                                            rows,
                                            upsert: false,
                                        },
                                    )
                                } else {
                                    let rows =
                                        inputs.hosts.batch(lane, hosts_sent, INGEST_BATCH_ROWS);
                                    hosts_sent += 1;
                                    (
                                        HOSTS,
                                        Request::InsertBatch {
                                            table: "Hosts".into(),
                                            rows,
                                            upsert: true,
                                        },
                                    )
                                }
                            },
                            |_, kind, reply, _| match (kind, reply) {
                                (FLOWS, CacheReply::InsertedBatch { tstamps })
                                    if tstamps.len() == INGEST_BATCH_ROWS =>
                                {
                                    let done = flows_done.load(Ordering::Relaxed);
                                    flows_tstamps
                                        .push((tstamps[0], tstamps[INGEST_BATCH_ROWS - 1]));
                                    recent[(done % 8) as usize]
                                        .store(tstamps[INGEST_BATCH_ROWS - 1], Ordering::Release);
                                    flows_done.store(done + 1, Ordering::Release);
                                    true
                                }
                                (HOSTS, CacheReply::InsertedBatch { tstamps }) => {
                                    tstamps.len() == INGEST_BATCH_ROWS
                                }
                                (SELECT, CacheReply::Rows { rows, .. }) => {
                                    let count = rows
                                        .first()
                                        .and_then(|r| r.values.first()?.as_int())
                                        .map(|c| c as u64);
                                    counts.push(count);
                                    count.is_some()
                                }
                                _ => {
                                    if kind == SELECT {
                                        counts.push(None);
                                    }
                                    false
                                }
                            },
                        );
                        (samples, log)
                    })
                })
                .collect();
            lane_out = handles
                .into_iter()
                .map(|h| h.join().expect("a lane does not panic"))
                .collect();
            let hosts_batches: u64 = lane_out
                .iter()
                .map(|(s, _)| s.iter().filter(|s| s.kind == HOSTS).count() as u64)
                .sum();
            drain_subscriber(&sub_ctl, Some(hosts_batches), DRAIN_GRACE_S);
            subscriber.join().expect("the subscriber does not panic")
        });
        let cpu_us = watch.cpu_us_since_mark();
        out.e2e.peak_rss_mb = watch.peak_rss_mb();
        let measured = |s: &&Sample| s.due >= seg.start;
        let hosts_rows: u64 = lane_out
            .iter()
            .flat_map(|(s, _)| s)
            .filter(|s| s.kind == HOSTS && s.ok)
            .count() as u64
            * INGEST_BATCH_ROWS as u64;
        observer.finish(&env.ctl, hosts_rows, out)?;

        // --- notifications: exactly one per Hosts batch. ---
        // A batch's seq is `index * lanes + lane`.
        let hosts_samples: Vec<Vec<Sample>> = lane_out
            .iter()
            .map(|(s, _)| s.iter().filter(|s| s.kind == HOSTS).copied().collect())
            .collect();
        let mut notify_samples = Vec::new();
        for (lane, samples) in hosts_samples.iter().enumerate() {
            let lanes = INGEST_LANES as u64;
            let mine = notes
                .iter()
                .filter(|n| (n.seq % lanes) as usize == lane)
                .map(|n| ((n.seq / lanes) as usize, n.at));
            let what = format!("Hosts batch of lane {lane}");
            let notified = singly_notified(samples, mine, &what, out);
            notify_samples.extend(notified.into_iter().filter(|s| measured(&s)));
        }

        // --- probe selects: the count covers the window's rows. ---
        let mut select_failed = 0u64;
        for (lane, (samples, log)) in lane_out.iter().enumerate() {
            let other: Vec<(&Sample, Option<&(u64, u64)>)> = lane_out
                .iter()
                .enumerate()
                .filter(|(l, _)| *l != lane)
                .flat_map(|(_, (s, log))| {
                    let mut stamps = log.flows_tstamps.iter();
                    s.iter()
                        .filter(|s| s.kind == FLOWS)
                        .map(move |s| (s, if s.ok { stamps.next() } else { None }))
                })
                .collect();
            let selects = samples.iter().filter(|s| s.kind == SELECT);
            for ((s, &(tau, done)), count) in selects.zip(&log.selects).zip(&log.counts) {
                // This lane's own batches after the window start are all
                // acknowledged: it has one operation in flight.
                let rows = INGEST_BATCH_ROWS as u64;
                let own = done.min(SELECT_BACK - 1) * rows;
                let lower = own
                    + other
                        .iter()
                        .filter(|(b, t)| b.ok && b.done < s.sent && t.is_some_and(|t| t.0 > tau))
                        .count() as u64
                        * rows;
                let upper = own
                    + other
                        .iter()
                        .filter(|(b, t)| b.sent < s.done.max(s.sent) && t.is_none_or(|t| t.1 > tau))
                        .count() as u64
                        * rows;
                let ok = s.ok && count.is_some_and(|c| c >= lower && c <= upper);
                if !ok && measured(&s) {
                    select_failed += 1;
                    out.fault(format!("lane {lane} select since {tau}: counted {count:?}, expected {lower}..={upper}"));
                }
            }
        }

        // --- kill, recover, and look for every acknowledged upsert. ---
        let mut acked = vec![0u64; INGEST_HOST_KEYS];
        let mut sent = vec![0u64; INGEST_HOST_KEYS];
        for (lane, samples) in hosts_samples.iter().enumerate() {
            for (ix, s) in samples.iter().enumerate() {
                for k in 0..INGEST_BATCH_ROWS as u64 {
                    let row_seq = ix as u64 * INGEST_BATCH_ROWS as u64 + k;
                    let key = inputs.hosts.key(lane, row_seq);
                    sent[key] = HostPool::version(row_seq);
                    if s.ok {
                        acked[key] = HostPool::version(row_seq);
                    }
                }
            }
        }
        env.primary.kill();
        drop((env.ctl, env.lanes, env.subscriber));
        let t = Instant::now();
        let recovered = step(
            "recovering the killed server's directory",
            pscache::Cache::recover(&env.dir),
        )?;
        out.layers
            .set("pscache.wal.recovery_ms", t.elapsed().as_secs_f64() * 1e3);
        out.layers.set(
            "pscache.wal.replayed_records",
            recovered.wal_stats().map_or(0, |s| s.replayed) as f64,
        );
        let mut lost = 0u64;
        if recovered.table_len("Hosts").ok() != Some(INGEST_HOST_KEYS) {
            out.fault(format!(
                "recovered Hosts has {:?} rows, not {INGEST_HOST_KEYS}",
                recovered.table_len("Hosts")
            ));
            lost += 1;
        }
        for key in 0..INGEST_HOST_KEYS {
            let name = &inputs.hosts.names[key];
            let hits = recovered
                .lookup("Hosts", name)
                .ok()
                .flatten()
                .and_then(|t| t.values().get(1)?.as_int())
                .map(|h| h as u64);
            // The recovered version is the latest acknowledged one, or one
            // sent after it whose acknowledgement the kill cut off.
            if !hits.is_some_and(|h| h >= acked[key] && h <= sent[key]) {
                lost += 1;
                out.fault(format!(
                    "key {name}: recovered version {hits:?}, acknowledged {}, sent {}",
                    acked[key], sent[key]
                ));
            }
        }
        recovered.shutdown();

        // --- metrics ---
        let all = || lane_out.iter().flat_map(|(s, _)| s).filter(measured);
        let batch_done: Vec<u64> = all()
            .filter(|s| s.kind != SELECT && s.ok)
            .map(|s| s.done)
            .collect();
        out.e2e.ops_per_s = slice_median_throughput(
            &batch_done,
            INGEST_BATCH_ROWS as f64,
            seg.start,
            seg.end,
            THROUGHPUT_SLICES,
        );
        let ack = latency(all().filter(|s| s.kind == HOSTS), INGEST_ACK_LIMIT_US);
        let notify = latency(notify_samples.iter(), INGEST_ACK_LIMIT_US);
        let select = latency(all().filter(|s| s.kind == SELECT), INGEST_ACK_LIMIT_US);
        out.e2e.ack_p50_us = ack.p50_us;
        out.e2e.notify_p50_us = notify.p50_us;
        out.e2e.select_p50_us = select.p50_us;
        out.e2e.within_limit = ack.within as f64 / ack.attempted.max(1) as f64;
        out.e2e.server_cpu_us_per_op =
            cpu_us as f64 / (batch_done.len() * INGEST_BATCH_ROWS).max(1) as f64;
        out.attempted = all().count() as u64;
        out.failed = all().filter(|s| !s.ok).count() as u64
            + notify.failed.saturating_sub(ack.failed)
            + select_failed
            + lost;
        // Fully closed loop: nothing is paced, so nothing can run late.
        client_layers(
            out,
            ack.p99_us,
            notify.p99_us,
            select.p99_us,
            0.0,
            1.0,
            true,
        );
        if opts.wire_trace {
            let hosts: Vec<Sample> = all().filter(|s| s.kind == HOSTS).copied().collect();
            out.spans
                .client_ops("durable_ingest.upsert_batch", &hosts, Some(&notify_samples));
            let rest: Vec<Sample> = all().filter(|s| s.kind == FLOWS).copied().collect();
            out.spans
                .client_ops("durable_ingest.insert_batch", &rest, None);
            let selects: Vec<Sample> = all().filter(|s| s.kind == SELECT).copied().collect();
            out.spans
                .client_ops("durable_ingest.select", &selects, None);
        }
        Ok(())
    }
}
