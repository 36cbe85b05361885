//! `window_select`: the read path.
//!
//! An in-memory `Flows` ring is preloaded to its default capacity (65,536
//! rows), so the table is full and stationary. Two connections each run a
//! closed-loop select lane (one select in flight) and, beside it, a paced
//! trickle, so snapshots keep publishing and the `since τ`
//! windows keep moving. The select mix is 70% windowed `where` (≈ 1% of the
//! table), 20% windowed `group by`, 10% full-table `order by … limit`; τ
//! comes from insert-reply timestamps. One automaton echoes every trickle
//! row to a subscriber connection.

use std::sync::atomic::{AtomicU64, Ordering};

use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::child::{ServeOpts, ServerProc};
use crate::gen::{FlowPool, FLOWS_AUTOMATON, FLOWS_DDL, PRELOAD_SEQ};
use crate::lane::{
    drain_subscriber, permits, run_lane, run_subscriber, Mode, Sample, SubscriberCtl,
};
use crate::layers::{Op, Path_, Replay};
use crate::measure::{gen_lag_p99_us, latency, singly_notified, Segment, ServerWatch};
use crate::pacer::{Clock, Schedule};
use crate::report::{client_layers, RunOutcome};
use crate::run::{connect, preload, step, RunOpts, Workload};
use crate::spec::*;
use crate::stats::slice_median_throughput;
use crate::trace::Observer;

pub struct Select;

pub struct Env {
    primary: ServerProc,
    ctl: CacheClient,
    lanes: Vec<CacheClient>,
    subscriber: CacheClient,
    /// Reply timestamp of every preloaded row, in table order.
    preload_tstamps: Vec<u64>,
}

/// Select classes (the sample `kind`).
const WINDOWED: u8 = 0;
const GROUPED: u8 = 1;
const FULL: u8 = 2;
const TRICKLE: u8 = 3;
/// The port the windowed `where` keeps: a quarter of the generated flows.
const PORT: i64 = 80;
const FULL_LIMIT: u64 = 20;
/// Selects per second per lane the sample buffers are sized for.
const CAP_PER_S: f64 = 30_000.0;

/// What a select returned, reduced on the collector thread.
#[derive(Debug, Clone, Copy)]
struct Answer {
    /// Rows (windowed, full) or the sum of `count(*)` over groups (grouped).
    count: u64,
    /// Class-specific shape check: rows match the predicate / groups are
    /// ports / rows are sorted descending.
    well_formed: bool,
}

/// The text of a select of class `kind` as `(before τ, after τ, rows back)`;
/// a full-table select has no τ.
fn select_text(kind: u8) -> (String, String, usize) {
    let window = SELECT_WINDOW_ROWS as usize;
    match kind {
        WINDOWED => (
            "select seq, nbytes, dport from Flows since ".into(),
            format!(" where dport = {PORT}"),
            window,
        ),
        GROUPED => (
            "select dport, count(*), sum(nbytes) from Flows since ".into(),
            " group by dport".into(),
            window,
        ),
        _ => (
            format!("select seq, nbytes from Flows order by nbytes desc limit {FULL_LIMIT}"),
            String::new(),
            0,
        ),
    }
}

fn reduce(kind: u8, reply: &CacheReply) -> Option<Answer> {
    let CacheReply::Rows { rows, .. } = reply else {
        return None;
    };
    let int = |r: &psrpc::message::WireRow, i: usize| r.values.get(i).and_then(|v| v.as_int());
    Some(match kind {
        WINDOWED => Answer {
            count: rows.len() as u64,
            well_formed: rows.iter().all(|r| int(r, 2) == Some(PORT)),
        },
        GROUPED => Answer {
            count: rows.iter().filter_map(|r| int(r, 1)).sum::<i64>() as u64,
            well_formed: rows.len() <= 4
                && rows
                    .iter()
                    .all(|r| matches!(int(r, 0), Some(80 | 443 | 8080 | 53))),
        },
        _ => Answer {
            count: rows.len() as u64,
            well_formed: rows.windows(2).all(|w| int(&w[0], 1) >= int(&w[1], 1)),
        },
    })
}

/// One row the table has held, for the oracle.
struct RowLog {
    tstamp: u64,
    /// When its insert was sent and acknowledged (0, 0 for preloaded rows).
    sent: u64,
    acked: u64,
    matches_port: bool,
}

impl Workload for Select {
    type Inputs = FlowPool;
    type Env = Env;

    fn inputs(opts: &RunOpts) -> FlowPool {
        FlowPool::new(opts.seed, 1 << 14)
    }

    fn input_ops(inputs: &FlowPool) -> u64 {
        inputs.len() as u64
    }

    fn replay(pool: &FlowPool) -> Replay {
        // Five trickle inserts to two selects, the classes in their 70/20/10
        // proportion.
        let mut selects = 0u64;
        let ops = (0..REPLAY_OPS as u64)
            .map(|i| match i % 7 {
                2 | 5 => {
                    selects += 1;
                    let (before, after, back) = select_text(match selects % 10 {
                        0 => FULL,
                        3 | 7 => GROUPED,
                        _ => WINDOWED,
                    });
                    Op::Select {
                        table: "Flows",
                        before,
                        after,
                        back,
                    }
                }
                _ => Op::Insert {
                    table: "Flows",
                    values: pool.row(i),
                    upsert: false,
                },
            })
            .collect();
        Replay {
            ddl: vec![FLOWS_DDL],
            preload: vec![(
                "Flows",
                false,
                (0..RING_ROWS as u64)
                    .map(|k| pool.row(PRELOAD_SEQ + k))
                    .collect(),
            )],
            automata: vec![FLOWS_AUTOMATON.to_owned()],
            ops,
            durable: false,
            path: Path_::Select,
        }
    }

    fn setup(pool: &FlowPool, opts: &RunOpts) -> Result<Env, String> {
        let primary = ServerProc::spawn(&ServeOpts::default())?;
        let ctl = connect(primary.rpc, false)?;
        step("creating Flows", ctl.execute(FLOWS_DDL))?;
        let preload_tstamps = preload(&ctl, "Flows", false, RING_ROWS, |k| {
            pool.row(PRELOAD_SEQ + k)
        })?;
        let subscriber = connect(primary.rpc, opts.wire_trace)?;
        step(
            "registering the Flows automaton",
            subscriber.register_automaton(FLOWS_AUTOMATON),
        )?;
        let lanes = (0..SELECT_LANES)
            .map(|_| connect(primary.rpc, opts.wire_trace))
            .collect::<Result<_, _>>()?;
        Ok(Env {
            primary,
            ctl,
            lanes,
            subscriber,
            preload_tstamps,
        })
    }

    fn drive(
        pool: &FlowPool,
        env: Env,
        opts: &RunOpts,
        out: &mut RunOutcome,
    ) -> Result<(), String> {
        let clock = Clock::start();
        let watch = ServerWatch::new(vec![&env.primary]);
        let observer = Observer::begin(&env.ctl, env.primary.rpc, None, opts.wire_trace)?;
        let total_s = opts.warmup_s + opts.seconds;
        let select_cap = (total_s * CAP_PER_S) as usize;
        let trickle_cap = (total_s * SELECT_TRICKLE_RATE) as usize + 16;
        let start = clock.now_ns() + 2_000_000;
        let seg = Segment {
            start: start + (opts.warmup_s * 1e9) as u64,
            end: start + (total_s * 1e9) as u64,
        };
        let sub_ctl = SubscriberCtl::default();
        // Timestamps of the rows in (roughly) table order: the preload, then
        // every acknowledged trickle row. Selects take τ from here.
        let stamps: Vec<AtomicU64> = env
            .preload_tstamps
            .iter()
            .map(|&t| AtomicU64::new(t))
            .chain((0..trickle_cap).map(|_| AtomicU64::new(0)))
            .collect();
        let stamped = AtomicU64::new(env.preload_tstamps.len() as u64);

        type SelectOut = (Vec<Sample>, Vec<u64>, Vec<Option<Answer>>);
        type TrickleOut = (Vec<Sample>, Vec<u64>);
        let mut select_out: Vec<SelectOut> = Vec::new();
        let mut trickle: TrickleOut = (Vec::new(), Vec::new());
        let notes = std::thread::scope(|scope| {
            let subscriber = scope.spawn(|| {
                run_subscriber(
                    &env.subscriber,
                    &clock,
                    &sub_ctl,
                    trickle_cap,
                    |n| Some((n.values.first()?.as_int()? as u64, 0)),
                    |_| {},
                )
            });
            let (clock, stamps, stamped, watch, env) = (&clock, &stamps, &stamped, &watch, &env);
            let trickle_lane = scope.spawn(move || {
                let mut tstamps = Vec::with_capacity(trickle_cap);
                let samples = run_lane(
                    &env.subscriber,
                    clock,
                    Mode::Paced(Schedule::new(start, SELECT_TRICKLE_RATE)),
                    seg.end,
                    trickle_cap,
                    |i, _| {
                        (
                            TRICKLE,
                            Request::Insert {
                                table: "Flows".into(),
                                values: pool.row(i),
                                upsert: false,
                            },
                        )
                    },
                    |_, _, reply, _| {
                        let CacheReply::Inserted { tstamp, .. } = reply else {
                            return false;
                        };
                        tstamps.push(*tstamp);
                        let slot = stamped.fetch_add(1, Ordering::AcqRel) as usize;
                        stamps[slot].store(*tstamp, Ordering::Release);
                        true
                    },
                );
                (samples, tstamps)
            });
            let handles: Vec<_> = env
                .lanes
                .iter()
                .enumerate()
                .map(|(lane, client)| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(opts.seed ^ (lane as u64 + 1) << 32);
                        let (mut taus, mut answers) = (
                            Vec::with_capacity(select_cap),
                            Vec::with_capacity(select_cap),
                        );
                        let (refill, permit_rx) = permits(1);
                        let samples = run_lane(
                            client,
                            clock,
                            Mode::Closed {
                                permits: &permit_rx,
                                refill: Some(refill),
                            },
                            seg.end,
                            select_cap,
                            |_, due| {
                                if lane == 0 && due >= seg.start {
                                    watch.mark_once();
                                }
                                // τ: the row a window's length back from the
                                // newest acknowledged one (skipping a slot
                                // whose timestamp is not stored yet).
                                let newest = stamped.load(Ordering::Acquire) as usize;
                                let tau = (0..8)
                                    .map(|back| {
                                        stamps[newest - SELECT_WINDOW_ROWS as usize - back]
                                            .load(Ordering::Acquire)
                                    })
                                    .find(|&t| t != 0)
                                    .unwrap_or(0);
                                let kind = match rng.gen_range(0u32..10) {
                                    0..=6 => WINDOWED,
                                    7..=8 => GROUPED,
                                    _ => FULL,
                                };
                                let (before, after, back) = select_text(kind);
                                let command = if back == 0 {
                                    before
                                } else {
                                    format!("{before}{tau}{after}")
                                };
                                taus.push(tau);
                                (kind, Request::Execute { command })
                            },
                            |_, kind, reply, _| {
                                let a = reduce(kind, reply);
                                answers.push(a);
                                a.is_some_and(|a| a.well_formed)
                            },
                        );
                        (samples, taus, answers)
                    })
                })
                .collect();
            trickle = trickle_lane
                .join()
                .expect("the trickle lane does not panic");
            for selects in handles {
                select_out.push(selects.join().expect("a select lane does not panic"));
            }
            drain_subscriber(&sub_ctl, Some(trickle.0.len() as u64), DRAIN_GRACE_S);
            subscriber.join().expect("the subscriber does not panic")
        });
        let cpu_us = watch.cpu_us_since_mark();
        out.e2e.peak_rss_mb = watch.peak_rss_mb();
        observer.finish(&env.ctl, 0, out)?;
        let measured = |s: &&Sample| s.due >= seg.start;

        // --- notifications: exactly one per trickle row. ---
        let arrivals = notes.iter().map(|n| (n.seq as usize, n.at));
        let notify_samples: Vec<Sample> = singly_notified(&trickle.0, arrivals, "trickle row", out)
            .into_iter()
            .filter(|s| measured(&s))
            .collect();

        // --- selects: counts checked against the generator's own log of
        // (tstamp, sent, acknowledged) per row. ---
        let mut rows: Vec<RowLog> = env
            .preload_tstamps
            .iter()
            .enumerate()
            .map(|(k, &tstamp)| RowLog {
                tstamp,
                sent: 0,
                acked: 0,
                matches_port: pool.key(PRELOAD_SEQ + k as u64).0 == PORT,
            })
            .collect();
        let mut acked = trickle.1.iter();
        for (seq, s) in trickle.0.iter().enumerate() {
            // An insert whose reply never came may or may not be in the
            // table: give it a timestamp after every window start.
            let tstamp = if s.ok {
                acked.next().copied().unwrap_or(u64::MAX)
            } else {
                u64::MAX
            };
            rows.push(RowLog {
                tstamp,
                sent: s.sent,
                acked: if s.ok { s.done } else { u64::MAX },
                matches_port: pool.key(seq as u64).0 == PORT,
            });
        }
        rows.sort_by_key(|r| r.tstamp);
        let mut select_failed = 0u64;
        for (lane, (samples, taus, answers)) in select_out.iter().enumerate() {
            for ((s, &tau), a) in samples
                .iter()
                .zip(taus)
                .zip(answers)
                .filter(|((s, _), _)| measured(s))
            {
                let ok = s.ok
                    && a.is_some_and(|a| match s.kind {
                        FULL => a.count == FULL_LIMIT,
                        kind => {
                            let from = rows.partition_point(|r| r.tstamp <= tau);
                            let counted = |r: &&RowLog| kind == GROUPED || r.matches_port;
                            let must = rows[from..]
                                .iter()
                                .filter(counted)
                                .filter(|r| r.acked < s.sent)
                                .count() as u64;
                            let may = rows[from..]
                                .iter()
                                .filter(counted)
                                .filter(|r| r.sent < s.done)
                                .count() as u64;
                            a.count >= must && a.count <= may
                        }
                    });
                if !ok {
                    select_failed += 1;
                    out.fault(format!(
                        "lane {lane} select class {} since {tau}: {a:?}",
                        s.kind
                    ));
                }
            }
        }

        // --- metrics ---
        let selects = || select_out.iter().flat_map(|(s, _, _)| s).filter(measured);
        let trickles = || trickle.0.iter().filter(measured);
        let done: Vec<u64> = selects().filter(|s| s.ok).map(|s| s.done).collect();
        out.e2e.ops_per_s =
            slice_median_throughput(&done, 1.0, seg.start, seg.end, THROUGHPUT_SLICES);
        let by_class: Vec<_> = (0..3u8)
            .map(|k| {
                latency(
                    selects().filter(|s| s.kind == k),
                    SELECT_LIMITS_US[k as usize],
                )
            })
            .collect();
        let select = latency(selects(), u64::MAX / 1_000);
        let ack = latency(trickles(), SELECT_LIMITS_US[0]);
        let notify = latency(notify_samples.iter(), SELECT_LIMITS_US[0]);
        out.e2e.select_p50_us = select.p50_us;
        out.e2e.ack_p50_us = ack.p50_us;
        out.e2e.notify_p50_us = notify.p50_us;
        let within: u64 = by_class.iter().map(|c| c.within).sum();
        out.e2e.within_limit = within as f64 / select.attempted.max(1) as f64;
        let completed = done.len() as u64 + ack.attempted - ack.failed;
        out.e2e.server_cpu_us_per_op = cpu_us as f64 / completed.max(1) as f64;
        out.attempted = select.attempted + ack.attempted;
        out.failed = select_failed + ack.failed + notify.failed.saturating_sub(ack.failed);

        let lag = gen_lag_p99_us(trickles());
        let offered = Schedule::new(start, SELECT_TRICKLE_RATE).ops_until(seg.end)
            - Schedule::new(start, SELECT_TRICKLE_RATE).ops_until(seg.start);
        let in_time = trickles()
            .filter(|s| s.ok && s.done <= seg.end + 20_000_000)
            .count() as f64;
        let achieved = in_time / offered.max(1) as f64;
        // The trickle is background load, not a measured paced segment: with the
        // select lane keeping a core busy its wake-ups run late, and that
        // lateness is inside its latencies (they count from the due time).
        // Only falling behind the offered rate makes the run invalid.
        client_layers(
            out,
            ack.p99_us,
            notify.p99_us,
            select.p99_us,
            lag,
            achieved,
            achieved >= 0.99,
        );
        if opts.wire_trace {
            let s: Vec<Sample> = selects().copied().collect();
            out.spans.client_ops("window_select.select", &s, None);
            let t: Vec<Sample> = trickles().copied().collect();
            out.spans
                .client_ops("window_select.insert", &t, Some(&notify_samples));
        }
        env.primary.shutdown();
        Ok(())
    }
}
