//! `mixed_cep`: everything at once.
//!
//! A durable (group-commit) primary with one follower process attached over
//! `repl`. Connection A upserts single ticks into a persistent `Ticks`
//! keyed by symbol — closed loop for `ops_per_s`, then open loop at a fixed
//! rate. Connection B holds 100 *stateful* automata (a moving average per
//! symbol, `send` when the price crosses it), receives their notifications,
//! and issues paced `select … since τ` over the same table. The generator
//! keeps its own copy of every automaton's state, so it knows exactly which
//! ticks must notify.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use psrpc::client::CacheClient;

use crate::child::{fresh_dir, ServeOpts, ServerProc};
use crate::gen::{mixed_automaton, CrossMirror, TickPool, PRELOAD_SEQ, TICKS_DURABLE_DDL};
use crate::lane::Sample;
use crate::layers::{Op, Path_, Replay};
use crate::measure::{gen_lag_p99_us, latency, ServerWatch};
use crate::pacer::{paced_segment_valid, Clock};
use crate::report::{client_layers, RunOutcome};
use crate::run::{connect, step, RunOpts, Workload};
use crate::spec::*;
use crate::stats::slice_median_throughput;
use crate::ticks::{drive_ticks, register_all, TickPlan};
use crate::trace::Observer;

pub struct Mixed;

pub struct Env {
    primary: ServerProc,
    follower: ServerProc,
    ctl: CacheClient,
    follower_ctl: CacheClient,
    publisher: CacheClient,
    subscriber: CacheClient,
    /// Symbol index watched by each registered automaton id.
    watched: HashMap<u64, u16>,
}

fn plan() -> TickPlan {
    TickPlan {
        upsert: true,
        window: MIXED_WINDOW,
        notes_complete: None,
        max_notes_per_tick: 1,
        sat_share: MIXED_SAT_SHARE,
        paced_rate: MIXED_PACED_RATE,
        select_rate: MIXED_SELECT_RATE,
        select_window: MIXED_SELECT_WINDOW_TICKS,
        closed_cap_per_s: 30_000.0,
    }
}

/// Wait until the follower has applied everything the primary committed;
/// returns how long that took, or `None` on timeout.
fn await_follower(
    primary: &CacheClient,
    follower: &CacheClient,
    timeout: Duration,
) -> Option<Duration> {
    let t = Instant::now();
    while t.elapsed() < timeout {
        if let (Ok(p), Ok(f)) = (primary.health(), follower.health()) {
            if f.replica_lsn >= p.commit_lsn {
                return Some(t.elapsed());
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// One row per symbol, so the table has its final size before timing.
fn preload_rows(pool: &TickPool) -> Vec<Vec<gapl::event::Scalar>> {
    (0..MIXED_SYMBOLS)
        .map(|s| {
            let mut row = pool.row(PRELOAD_SEQ);
            row[0] = gapl::event::Scalar::Str(pool.names[s].clone());
            row
        })
        .collect()
}

fn count_rows(client: &CacheClient) -> Option<i64> {
    client
        .select("select count(*) from Ticks")
        .ok()?
        .rows
        .first()?
        .values
        .first()?
        .as_int()
}

impl Workload for Mixed {
    type Inputs = TickPool;
    type Env = Env;

    fn inputs(opts: &RunOpts) -> TickPool {
        TickPool::new(opts.seed, MIXED_SYMBOLS, 1 << 16)
    }

    fn input_ops(inputs: &TickPool) -> u64 {
        inputs.ticks.len() as u64
    }

    fn replay(pool: &TickPool) -> Replay {
        // The paced mix: five upserts to one windowed select.
        let ops = (0..REPLAY_OPS as u64)
            .map(|i| match i % 6 {
                5 => Op::Select {
                    table: "Ticks",
                    before: "select sym, price, seq from Ticks since ".into(),
                    after: String::new(),
                    back: MIXED_SELECT_WINDOW_TICKS as usize,
                },
                _ => Op::Insert {
                    table: "Ticks",
                    values: pool.row(i),
                    upsert: true,
                },
            })
            .collect();
        Replay {
            ddl: vec![TICKS_DURABLE_DDL],
            preload: vec![("Ticks", true, preload_rows(pool))],
            automata: pool.names.iter().map(|s| mixed_automaton(s)).collect(),
            ops,
            durable: true,
            path: Path_::Notify,
        }
    }

    fn setup(pool: &TickPool, opts: &RunOpts) -> Result<Env, String> {
        let dir = fresh_dir(&opts.data_root, "primary")?;
        let primary = ServerProc::spawn(&ServeOpts {
            durable: Some(dir),
            replicate: true,
            ..ServeOpts::default()
        })?;
        let repl = primary
            .repl
            .clone()
            .ok_or("the primary serves no replication address")?;
        let follower = ServerProc::spawn(&ServeOpts {
            follow: Some(repl),
            ..ServeOpts::default()
        })?;
        let ctl = connect(primary.rpc, false)?;
        let follower_ctl = connect(follower.rpc, false)?;
        step("creating Ticks", ctl.execute(TICKS_DURABLE_DDL))?;
        step(
            "preloading Ticks",
            ctl.upsert_batch("Ticks", preload_rows(pool)),
        )?;
        await_follower(&ctl, &follower_ctl, Duration::from_secs(10))
            .ok_or("the follower did not attach")?;
        let publisher = connect(primary.rpc, opts.wire_trace)?;
        let subscriber = connect(primary.rpc, opts.wire_trace)?;
        let sources: Vec<String> = pool.names.iter().map(|s| mixed_automaton(s)).collect();
        let ids = register_all(&subscriber, &sources)?;
        let watched = ids
            .into_iter()
            .enumerate()
            .map(|(j, id)| (id, j as u16))
            .collect();
        Ok(Env {
            primary,
            follower,
            ctl,
            follower_ctl,
            publisher,
            subscriber,
            watched,
        })
    }

    fn drive(
        pool: &TickPool,
        env: Env,
        opts: &RunOpts,
        out: &mut RunOutcome,
    ) -> Result<(), String> {
        let clock = Clock::start();
        let plan = plan();
        let watch = ServerWatch::new(vec![&env.primary, &env.follower]);
        let mut observer = Observer::begin(
            &env.ctl,
            env.primary.rpc,
            Some(env.follower.rpc),
            opts.wire_trace,
        )?;
        let run = drive_ticks(
            pool,
            &env.publisher,
            &env.subscriber,
            &watch,
            &clock,
            opts,
            &plan,
            |n| {
                Some((
                    n.values.first()?.as_int()? as u64,
                    n.values.get(1)?.as_int()?,
                ))
            },
            // What the servers report about themselves covers the paced segment.
            || drop(observer.restart(&env.ctl)),
        );

        // --- oracle: the follower reaches the primary's commit LSN with the
        // same number of rows. ---
        let mut failed = 0u64;
        match await_follower(&env.ctl, &env.follower_ctl, Duration::from_secs(10)) {
            Some(d) => out
                .layers
                .set("pscache.repl.catchup_ms", d.as_secs_f64() * 1e3),
            None => {
                failed += 1;
                out.fault("the follower never reached the primary's commit LSN".into());
            }
        }
        let (p, f) = (count_rows(&env.ctl), count_rows(&env.follower_ctl));
        if p != Some(MIXED_SYMBOLS as i64) || p != f {
            failed += 1;
            out.fault(format!(
                "row counts differ: primary {p:?}, follower {f:?}, expected {MIXED_SYMBOLS}"
            ));
        }
        out.e2e.peak_rss_mb = watch.peak_rss_mb();
        let acked = run.paced_ticks().iter().filter(|s| s.ok).count() as u64;
        observer.finish(&env.ctl, acked, out)?;

        // --- oracle: notifications exactly once, exactly where the
        // generator's own copy of each automaton's state says. ---
        let n = run.ticks.len();
        let mut mirrors = vec![CrossMirror::default(); MIXED_SYMBOLS];
        let expected: Vec<Option<i64>> = (0..n as u64)
            .map(|seq| {
                let (sym, price) = pool.tick(seq);
                mirrors[sym as usize].step(price)
            })
            .collect();
        let mut count = vec![0u8; n];
        let mut note_at = vec![0u64; n];
        let mut bad = vec![false; n];
        for note in &run.notes {
            let Some(slot) = count.get_mut(note.seq as usize) else {
                out.fault(format!(
                    "a notification names tick {} which was never sent",
                    note.seq
                ));
                continue;
            };
            *slot = slot.saturating_add(1);
            note_at[note.seq as usize] = note.at;
            let right = env.watched.get(&note.automaton) == Some(&pool.tick(note.seq).0)
                && expected[note.seq as usize] == Some(note.aux);
            if !right {
                bad[note.seq as usize] = true;
            }
        }
        let notified_right =
            |seq: usize| count[seq] == u8::from(expected[seq].is_some()) && !bad[seq];
        for (seq, t) in run.ticks.iter().enumerate().skip(run.sat_from) {
            if !(t.ok && notified_right(seq)) {
                failed += 1;
                out.fault(format!(
                    "tick {seq}: upsert ok={}, {} notifications, expected {:?}, wrong automaton or direction={}",
                    t.ok, count[seq], expected[seq], bad[seq]
                ));
            }
        }

        // --- oracle: a windowed select returns the symbols updated in its
        // window (the table is keyed by symbol). ---
        let distinct = |from: u64, to: u64| {
            let mut seen = [false; MIXED_SYMBOLS];
            (from..to)
                .filter(|&q| !std::mem::replace(&mut seen[pool.tick(q).0 as usize], true))
                .count() as u64
        };
        for ((s, &tau_seq), r) in run
            .selects
            .iter()
            .zip(&run.select_taus)
            .zip(&run.select_results)
        {
            let (first, must, may) = run.window(tau_seq, s.sent, s.done);
            // Rows upserted again after `must` carry newer seqs but are the
            // same symbols, so the row count lies between the two distinct
            // counts.
            let (lower, upper) = (distinct(first, must), distinct(first, may));
            let ok = s.ok
                && r.is_some_and(|r| {
                    r.rows >= lower && r.rows <= upper && (r.rows == 0 || r.min_seq >= first as i64)
                });
            if !ok {
                failed += 1;
                out.fault(format!("select since tick {tau_seq}: {r:?}, expected {lower}..={upper} symbols from seq {first}"));
            }
        }

        // --- metrics ---
        let sat_done: Vec<u64> = run
            .sat_ticks()
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.done)
            .collect();
        out.e2e.ops_per_s = slice_median_throughput(
            &sat_done,
            1.0,
            run.sat.start,
            run.sat.end,
            THROUGHPUT_SLICES,
        );
        let notify_samples: Vec<Sample> = run
            .paced_ticks()
            .iter()
            .enumerate()
            .filter(|(k, _)| expected[run.paced_from + k].is_some())
            .map(|(k, t)| {
                let seq = run.paced_from + k;
                Sample {
                    done: note_at[seq],
                    ok: t.ok && notified_right(seq),
                    ..*t
                }
            })
            .collect();
        let ack = latency(run.paced_ticks().iter(), MIXED_NOTIFY_LIMIT_US);
        let notify = latency(notify_samples.iter(), MIXED_NOTIFY_LIMIT_US);
        let select = latency(run.selects.iter(), MIXED_NOTIFY_LIMIT_US);
        out.e2e.ack_p50_us = ack.p50_us;
        out.e2e.notify_p50_us = notify.p50_us;
        out.e2e.select_p50_us = select.p50_us;
        out.e2e.within_limit = notify.within as f64 / notify.attempted.max(1) as f64;
        let completed = sat_done.len() as u64 + ack.attempted - ack.failed;
        out.e2e.server_cpu_us_per_op = run.cpu_us as f64 / completed.max(1) as f64;
        out.attempted = (run.ticks.len() - run.sat_from + run.selects.len()) as u64;
        out.failed = failed;

        let lag = gen_lag_p99_us(run.paced_ticks().iter().chain(&run.selects));
        let achieved = run.achieved_rate_ratio(&plan);
        client_layers(
            out,
            ack.p99_us,
            notify.p99_us,
            select.p99_us,
            lag,
            achieved,
            paced_segment_valid(lag, achieved),
        );
        if opts.wire_trace {
            out.spans
                .client_ops("mixed_cep.upsert", run.paced_ticks(), None);
            out.spans.client_ops(
                "mixed_cep.notified_upsert",
                &notify_samples,
                Some(&notify_samples),
            );
            out.spans.client_ops("mixed_cep.select", &run.selects, None);
        }
        env.follower.shutdown();
        env.primary.shutdown();
        Ok(())
    }
}
