//! `cep_fanout`: the paper's stock watcher at scale, in memory.
//!
//! 1,000 automata with equality guards over 100 symbols are registered on
//! the subscriber connection, so every tick causes exactly 10
//! notifications. A closed-loop `sat` segment (64 ticks in flight, a tick
//! completes when its 10th notification arrives) gives `ops_per_s`; an
//! open-loop `paced` segment at a fixed rate gives the latencies, with
//! paced windowed selects riding on the subscriber connection.

use std::collections::HashMap;

use psrpc::client::CacheClient;

use crate::child::{ServeOpts, ServerProc};
use crate::gen::{fanout_automaton, TickPool, PRELOAD_SEQ, TICKS_DDL};
use crate::lane::Sample;
use crate::layers::{Op, Path_, Replay};
use crate::measure::{gen_lag_p99_us, latency, ServerWatch};
use crate::pacer::{paced_segment_valid, Clock};
use crate::report::{client_layers, RunOutcome};
use crate::run::{connect, preload, step, RunOpts, Workload};
use crate::spec::*;
use crate::stats::slice_median_throughput;
use crate::ticks::{drive_ticks, register_all, TickPlan, TickRun};
use crate::trace::Observer;

pub struct Fanout;

pub struct Env {
    primary: ServerProc,
    ctl: CacheClient,
    publisher: CacheClient,
    subscriber: CacheClient,
    /// Symbol index watched by each registered automaton id.
    watched: HashMap<u64, u16>,
}

fn plan() -> TickPlan {
    TickPlan {
        upsert: false,
        window: FANOUT_WINDOW,
        notes_complete: Some(FANOUT_NOTES_PER_TICK),
        max_notes_per_tick: FANOUT_NOTES_PER_TICK,
        sat_share: FANOUT_SAT_SHARE,
        paced_rate: FANOUT_PACED_RATE,
        select_rate: FANOUT_SELECT_RATE,
        select_window: FANOUT_SELECT_WINDOW_TICKS,
        closed_cap_per_s: 60_000.0,
    }
}

impl Workload for Fanout {
    type Inputs = TickPool;
    type Env = Env;

    fn inputs(opts: &RunOpts) -> TickPool {
        TickPool::new(opts.seed, FANOUT_SYMBOLS, 1 << 16)
    }

    fn input_ops(inputs: &TickPool) -> u64 {
        inputs.ticks.len() as u64
    }

    fn replay(pool: &TickPool) -> Replay {
        // The paced mix: twenty ticks to one windowed select.
        let ops = (0..REPLAY_OPS as u64)
            .map(|i| match i % 21 {
                20 => Op::Select {
                    table: "Ticks",
                    before: "select sym, price, seq from Ticks since ".into(),
                    after: String::new(),
                    back: FANOUT_SELECT_WINDOW_TICKS as usize,
                },
                _ => Op::Insert {
                    table: "Ticks",
                    values: pool.row(i),
                    upsert: false,
                },
            })
            .collect();
        Replay {
            ddl: vec![TICKS_DDL],
            preload: vec![(
                "Ticks",
                false,
                (0..RING_ROWS as u64)
                    .map(|k| pool.row(PRELOAD_SEQ + k))
                    .collect(),
            )],
            automata: (0..FANOUT_AUTOMATA)
                .map(|j| fanout_automaton(&pool.names[j % FANOUT_SYMBOLS]))
                .collect(),
            ops,
            durable: false,
            path: Path_::Notify,
        }
    }

    fn setup(pool: &TickPool, opts: &RunOpts) -> Result<Env, String> {
        let primary = ServerProc::spawn(&ServeOpts::default())?;
        let ctl = connect(primary.rpc, false)?;
        step("creating Ticks", ctl.execute(TICKS_DDL))?;
        // Fill the ring before any automaton listens, so the table neither
        // grows nor starts evicting in the middle of a measured segment.
        preload(&ctl, "Ticks", false, RING_ROWS, |k| {
            pool.row(PRELOAD_SEQ + k)
        })?;
        let publisher = connect(primary.rpc, opts.wire_trace)?;
        let subscriber = connect(primary.rpc, opts.wire_trace)?;
        let sources: Vec<String> = (0..FANOUT_AUTOMATA)
            .map(|j| fanout_automaton(&pool.names[j % FANOUT_SYMBOLS]))
            .collect();
        let ids = register_all(&subscriber, &sources)?;
        let watched = ids
            .into_iter()
            .enumerate()
            .map(|(j, id)| (id, (j % FANOUT_SYMBOLS) as u16))
            .collect();
        Ok(Env {
            primary,
            ctl,
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
        let watch = ServerWatch::new(vec![&env.primary]);
        let mut observer = Observer::begin(&env.ctl, env.primary.rpc, None, opts.wire_trace)?;
        let run: TickRun = drive_ticks(
            pool,
            &env.publisher,
            &env.subscriber,
            &watch,
            &clock,
            opts,
            &plan,
            |n| Some((n.values.get(2)?.as_int()? as u64, 0)),
            // What the server reports about itself covers the paced segment.
            || drop(observer.restart(&env.ctl)),
        );
        out.e2e.peak_rss_mb = watch.peak_rss_mb();
        observer.finish(&env.ctl, 0, out)?;

        // --- oracle: exactly 10 notifications per tick, from that symbol's
        // automata, each automaton seeing strictly increasing seq. ---
        let n = run.ticks.len();
        let mut last_note = vec![0u64; n];
        let mut count = vec![0u8; n];
        let mut bad = vec![false; n];
        let mut last_seq_of: HashMap<u64, u64> = HashMap::new();
        for note in &run.notes {
            let Some(slot) = count.get_mut(note.seq as usize) else {
                out.fault(format!(
                    "a notification names tick {} which was never sent",
                    note.seq
                ));
                continue;
            };
            *slot = slot.saturating_add(1);
            last_note[note.seq as usize] = last_note[note.seq as usize].max(note.at);
            let right_symbol = env.watched.get(&note.automaton) == Some(&pool.tick(note.seq).0);
            let in_order = last_seq_of
                .insert(note.automaton, note.seq)
                .is_none_or(|prev| prev < note.seq);
            if !(right_symbol && in_order) {
                bad[note.seq as usize] = true;
            }
        }
        let notified = |seq: usize| count[seq] as usize == FANOUT_NOTES_PER_TICK && !bad[seq];
        let mut failed = 0u64;
        for (seq, t) in run.ticks.iter().enumerate().skip(run.sat_from) {
            if !(t.ok && notified(seq)) {
                failed += 1;
                out.fault(format!(
                    "tick {seq}: insert ok={}, {} notifications (want {FANOUT_NOTES_PER_TICK}), wrong automaton or order={}",
                    t.ok, count[seq], bad[seq]
                ));
            }
        }

        // --- oracle: each windowed select returns the ticks of its window.
        for ((s, &tau_seq), r) in run
            .selects
            .iter()
            .zip(&run.select_taus)
            .zip(&run.select_results)
        {
            let (first, must, may) = run.window(tau_seq, s.sent, s.done);
            let ok = s.ok
                && r.is_some_and(|r| {
                    r.rows >= must - first
                        && r.rows <= may - first
                        && (r.rows == 0 || r.min_seq >= first as i64)
                });
            if !ok {
                failed += 1;
                out.fault(format!(
                    "select since tick {tau_seq}: {r:?}, expected {}..={} rows from seq {first}",
                    must - first,
                    may - first
                ));
            }
        }

        // --- metrics ---
        let completions: Vec<u64> = (run.sat_from..run.paced_from)
            .filter(|&s| notified(s))
            .map(|s| last_note[s])
            .collect();
        out.e2e.ops_per_s = slice_median_throughput(
            &completions,
            1.0,
            run.sat.start,
            run.sat.end,
            THROUGHPUT_SLICES,
        );
        // A tick's notify sample: due at the tick's due time, done at its
        // last notification, failed when the oracle rejected it.
        let notify_samples: Vec<Sample> = run
            .paced_ticks()
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let seq = run.paced_from + k;
                Sample {
                    done: last_note[seq],
                    ok: t.ok && notified(seq),
                    ..*t
                }
            })
            .collect();
        let ack = latency(run.paced_ticks().iter(), FANOUT_NOTIFY_LIMIT_US);
        let notify = latency(notify_samples.iter(), FANOUT_NOTIFY_LIMIT_US);
        let select = latency(run.selects.iter(), FANOUT_NOTIFY_LIMIT_US);
        out.e2e.ack_p50_us = ack.p50_us;
        out.e2e.notify_p50_us = notify.p50_us;
        out.e2e.select_p50_us = select.p50_us;
        out.e2e.within_limit = notify.within as f64 / notify.attempted.max(1) as f64;
        let completed = completions.len() as u64 + notify.attempted - notify.failed;
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
                .client_ops("cep_fanout.tick", run.paced_ticks(), Some(&notify_samples));
            out.spans
                .client_ops("cep_fanout.select", &run.selects, None);
        }
        env.primary.shutdown();
        Ok(())
    }
}
