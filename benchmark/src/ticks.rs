//! The tick stream shared by `cep_fanout` and `mixed_cep`: a publisher
//! connection inserting stock ticks — warm-up, a closed-loop `sat` segment,
//! then an open-loop `paced` segment — while a subscriber connection
//! receives the notifications the ticks cause and issues paced
//! `select … since τ` probes over the same table.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use psrpc::client::{CacheClient, ClientNotification};
use psrpc::message::{CacheReply, Request};

use crate::gen::TickPool;
use crate::lane::{
    drain_subscriber, permits, run_lane, run_subscriber, Mode, Note, Sample, SubscriberCtl,
};
use crate::measure::{Segment, ServerWatch};
use crate::pacer::{Clock, Schedule};
use crate::run::{step, RunOpts};
use crate::spec::DRAIN_GRACE_S;

/// What differs between the two tick workloads.
pub struct TickPlan {
    /// `on duplicate key update` (the durable `Ticks` is keyed by symbol).
    pub upsert: bool,
    /// Ticks in flight in the closed loop.
    pub window: usize,
    /// `Some(n)`: a closed-loop tick completes when its `n`-th notification
    /// arrives. `None`: it completes when its reply does.
    pub notes_complete: Option<usize>,
    /// Upper bound on notifications per tick, for sizing buffers.
    pub max_notes_per_tick: usize,
    /// Share of the measured time spent in the closed loop.
    pub sat_share: f64,
    pub paced_rate: f64,
    pub select_rate: f64,
    /// Ticks a probe select's `since τ` reaches back over.
    pub select_window: u64,
    /// Closed-loop ticks per second the buffers are sized for.
    pub closed_cap_per_s: f64,
}

/// Everything the generator saw.
pub struct TickRun {
    /// Samples of every tick sent, in `seq` order: warm-up, `sat`, `paced`.
    pub ticks: Vec<Sample>,
    /// Index of the first `sat` tick and of the first `paced` tick.
    pub sat_from: usize,
    pub paced_from: usize,
    pub selects: Vec<Sample>,
    /// Tick `seq` whose timestamp each select used as `τ`.
    pub select_taus: Vec<u64>,
    pub select_results: Vec<Option<SelectResult>>,
    pub notes: Vec<Note>,
    pub sat: Segment,
    pub paced: Segment,
    /// Server CPU time over the two measured segments.
    pub cpu_us: u64,
    pub stamps: TickStamps,
}

impl TickRun {
    pub fn sat_ticks(&self) -> &[Sample] {
        &self.ticks[self.sat_from..self.paced_from]
    }

    pub fn paced_ticks(&self) -> &[Sample] {
        &self.ticks[self.paced_from..]
    }

    /// Share of the paced ticks that were due in the segment and had been
    /// acknowledged by its end (allowing the last few their flight time).
    pub fn achieved_rate_ratio(&self, plan: &TickPlan) -> f64 {
        let offered = Schedule::new(self.paced.start, plan.paced_rate).ops_until(self.paced.end);
        let grace = self.paced.end + 20_000_000;
        let in_time = self
            .paced_ticks()
            .iter()
            .filter(|s| s.ok && s.done <= grace)
            .count();
        in_time as f64 / offered.max(1) as f64
    }

    /// For a select sent at `sent` and answered at `done` with `since` the
    /// timestamp of tick `tau_seq`: the first tick inside the window, the
    /// end of the ticks that *must* be visible (acknowledged before the
    /// select was sent) and of those that *may* be (sent before it was
    /// answered).
    pub fn window(&self, tau_seq: u64, sent: u64, done: u64) -> (u64, u64, u64) {
        let tau = self.stamps.tstamp(tau_seq);
        let n = self.ticks.len() as u64;
        let first = (tau_seq..n)
            .find(|&q| self.stamps.tstamp(q) > tau || self.stamps.tstamp(q) == 0)
            .unwrap_or(n);
        let must = self.ticks.partition_point(|s| s.done != 0 && s.done < sent) as u64;
        let may = self.ticks.partition_point(|s| s.sent < done.max(sent)) as u64;
        (first, must.max(first), may.max(first))
    }
}

/// Reply timestamps by tick `seq`, shared between the publisher's collector
/// (writer) and the select lane (reader) so `since τ` tracks the stream.
pub struct TickStamps {
    tstamps: Vec<AtomicU64>,
    acked: AtomicU64,
}

impl TickStamps {
    pub fn new(cap: usize) -> TickStamps {
        TickStamps {
            tstamps: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            acked: AtomicU64::new(0),
        }
    }

    /// Record the reply of tick `seq`; returns whether it was an insert ack.
    pub fn record(&self, seq: u64, reply: &CacheReply) -> bool {
        let CacheReply::Inserted { tstamp, .. } = reply else {
            return false;
        };
        if let Some(slot) = self.tstamps.get(seq as usize) {
            slot.store(*tstamp, Ordering::Relaxed);
        }
        self.acked.store(seq + 1, Ordering::Release);
        true
    }

    /// `(seq, tstamp)` of the tick `back` ticks before the newest acked one.
    pub fn window_start(&self, back: u64) -> (u64, u64) {
        let seq = self.acked.load(Ordering::Acquire).saturating_sub(back + 1);
        (seq, self.tstamp(seq))
    }

    pub fn tstamp(&self, seq: u64) -> u64 {
        self.tstamps
            .get(seq as usize)
            .map_or(0, |t| t.load(Ordering::Relaxed))
    }
}

/// What a windowed probe select returned.
#[derive(Debug, Clone, Copy)]
pub struct SelectResult {
    pub rows: u64,
    pub min_seq: i64,
}

/// Summarise a `select …, seq from Ticks` reply whose last column is `seq`.
fn summarize_rows(reply: &CacheReply) -> Option<SelectResult> {
    let CacheReply::Rows { rows, .. } = reply else {
        return None;
    };
    let seqs = rows.iter().filter_map(|r| r.values.last()?.as_int());
    Some(SelectResult {
        rows: rows.len() as u64,
        min_seq: seqs.min().unwrap_or(i64::MAX),
    })
}

/// Register `sources` on `client`, pipelined; returns the ids in order.
pub fn register_all(client: &CacheClient, sources: &[String]) -> Result<Vec<u64>, String> {
    let mut ids = Vec::with_capacity(sources.len());
    let mut pending = VecDeque::new();
    let take = |p: psrpc::PendingReply| match p.wait() {
        Ok(CacheReply::Registered { id }) => Ok(id),
        other => Err(format!("registering an automaton: {other:?}")),
    };
    for source in sources {
        if pending.len() >= 64 {
            ids.push(take(pending.pop_front().expect("non-empty"))?);
        }
        pending.push_back(step(
            "registering an automaton",
            client.begin_request(Request::RegisterAutomaton {
                source: source.clone(),
            }),
        )?);
    }
    for p in pending {
        ids.push(take(p)?);
    }
    Ok(ids)
}

const TICK: u8 = 0;
const SELECT: u8 = 1;

/// Drive the tick stream. `decode` extracts `(seq, aux)` from a
/// notification; `before_paced` runs between the two measured segments.
#[allow(clippy::too_many_arguments)]
pub fn drive_ticks(
    pool: &TickPool,
    publisher: &CacheClient,
    subscriber: &CacheClient,
    watch: &ServerWatch<'_>,
    clock: &Clock,
    opts: &RunOpts,
    plan: &TickPlan,
    decode: impl Fn(&ClientNotification) -> Option<(u64, i64)> + Sync,
    before_paced: impl FnOnce(),
) -> TickRun {
    let sat_s = opts.seconds * plan.sat_share;
    let paced_s = opts.seconds - sat_s;
    let closed_cap = ((opts.warmup_s + sat_s) * plan.closed_cap_per_s) as usize;
    let paced_cap = (paced_s * plan.paced_rate) as usize + 16;
    let tick_cap = closed_cap + paced_cap;
    let stamps = TickStamps::new(tick_cap);
    let closed_phase = AtomicBool::new(true);
    let (permit_tx, permit_rx) = permits(plan.window);
    let sub_ctl = SubscriberCtl::default();

    let insert = |base: u64| {
        move |i: u64, _due: u64| {
            let request = Request::Insert {
                table: "Ticks".to_owned(),
                values: pool.row(base + i),
                upsert: plan.upsert,
            };
            (TICK, request)
        }
    };
    let ack = |base: u64| {
        let stamps = &stamps;
        move |i: u64, _kind: u8, reply: &CacheReply, _now: u64| stamps.record(base + i, reply)
    };
    // Who hands a closed-loop permit back: the subscriber on a tick's last
    // notification, or the lane's own collector on its reply.
    let closed = || Mode::Closed {
        permits: &permit_rx,
        refill: plan.notes_complete.is_none().then(|| permit_tx.clone()),
    };

    let (mut sat, mut paced) = (Segment::default(), Segment::default());
    let mut cpu_us = 0u64;
    let mut ticks: Vec<Sample> = Vec::new();
    let (mut sat_from, mut paced_from) = (0, 0);
    let mut selects = Vec::new();
    let mut select_taus = Vec::new();
    let mut select_results = Vec::new();

    let notes = std::thread::scope(|scope| {
        let sub = scope.spawn(|| {
            let mut counts = vec![0u8; tick_cap];
            run_subscriber(
                subscriber,
                clock,
                &sub_ctl,
                tick_cap * plan.max_notes_per_tick,
                &decode,
                |note| {
                    let (Some(n), Some(c)) =
                        (plan.notes_complete, counts.get_mut(note.seq as usize))
                    else {
                        return;
                    };
                    *c = c.saturating_add(1);
                    if *c as usize == n && closed_phase.load(Ordering::Acquire) {
                        let _ = permit_tx.send(());
                    }
                },
            )
        });

        let warm_end = clock.now_ns() + (opts.warmup_s * 1e9) as u64;
        ticks = run_lane(
            publisher,
            clock,
            closed(),
            warm_end,
            closed_cap,
            insert(0),
            ack(0),
        );
        sat_from = ticks.len();
        let cpu0 = watch.cpu_us();
        sat.start = clock.now_ns();
        sat.end = sat.start + (sat_s * 1e9) as u64;
        let base = sat_from as u64;
        ticks.extend(run_lane(
            publisher,
            clock,
            closed(),
            sat.end,
            closed_cap - sat_from,
            insert(base),
            ack(base),
        ));
        cpu_us += watch.cpu_us() - cpu0;
        closed_phase.store(false, Ordering::Release);
        paced_from = ticks.len();
        // Let the closed loop's notifications land before pacing starts.
        std::thread::sleep(std::time::Duration::from_millis(100));
        before_paced();

        // The open-loop segment: paced ticks on the publisher, paced
        // windowed selects on the subscriber connection.
        let cpu0 = watch.cpu_us();
        paced.start = clock.now_ns() + 5_000_000;
        paced.end = paced.start + (paced_s * 1e9) as u64;
        let base = paced_from as u64;
        std::thread::scope(|inner| {
            let select_lane = inner.spawn(|| {
                let schedule = Schedule::new(paced.start, plan.select_rate);
                let cap = (paced_s * plan.select_rate) as usize + 16;
                let (mut taus, mut results) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
                let samples = run_lane(
                    subscriber,
                    clock,
                    Mode::Paced(schedule),
                    paced.end,
                    cap,
                    |_, _| {
                        let (seq, tau) = stamps.window_start(plan.select_window);
                        taus.push(seq);
                        let command = format!("select sym, price, seq from Ticks since {tau}");
                        (SELECT, Request::Execute { command })
                    },
                    |_, _, reply, _| {
                        let r = summarize_rows(reply);
                        results.push(r);
                        r.is_some()
                    },
                );
                (samples, taus, results)
            });
            let schedule = Schedule::new(paced.start, plan.paced_rate);
            ticks.extend(run_lane(
                publisher,
                clock,
                Mode::Paced(schedule),
                paced.end,
                paced_cap,
                insert(base),
                ack(base),
            ));
            (selects, select_taus, select_results) =
                select_lane.join().expect("the select lane does not panic");
        });
        cpu_us += watch.cpu_us() - cpu0;
        let expected = plan.notes_complete.map(|n| (ticks.len() * n) as u64);
        drain_subscriber(&sub_ctl, expected, DRAIN_GRACE_S);
        sub.join().expect("the subscriber does not panic")
    });
    TickRun {
        ticks,
        sat_from,
        paced_from,
        selects,
        select_taus,
        select_results,
        notes,
        sat,
        paced,
        cpu_us,
        stamps,
    }
}
