//! The generator's three primitives, shared by all four workloads: a
//! pipelined request lane (closed or open loop), the collector that stamps
//! its replies, and a notification subscriber.
//!
//! Buffers are allocated before a lane starts and nothing here prints, so a
//! measured segment does no I/O of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use psrpc::client::{CacheClient, ClientNotification};
use psrpc::message::{CacheReply, Request};

use crate::pacer::{wait_until, Clock, Schedule};

/// How a lane decides when to send.
pub enum Mode<'a> {
    /// Closed loop: take a permit, send, and let whoever completes the
    /// operation (this lane's collector on a reply, or a subscriber on the
    /// last notification) hand the permit back. The window is the number of
    /// permits in circulation.
    Closed {
        permits: &'a mpsc::Receiver<()>,
        /// Where the lane's own collector returns permits; `None` when a
        /// subscriber returns them instead.
        refill: Option<mpsc::Sender<()>>,
    },
    /// Open loop at a fixed rate; operations are timed from their due time.
    Paced(Schedule),
}

/// A channel preloaded with `window` permits.
pub fn permits(window: usize) -> (mpsc::Sender<()>, mpsc::Receiver<()>) {
    let (tx, rx) = mpsc::channel();
    for _ in 0..window {
        tx.send(()).expect("the receiver is alive");
    }
    (tx, rx)
}

/// One operation as the generator saw it. Times are nanoseconds on the
/// run's [`Clock`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Workload-defined operation class.
    pub kind: u8,
    /// When the operation was due: the schedule's time in an open loop, the
    /// moment its permit was granted in a closed loop.
    pub due: u64,
    /// When the generator actually began sending it.
    pub sent: u64,
    /// When the request had been encoded and written to the socket.
    pub sent_end: u64,
    /// When its reply was decoded; 0 when it never completed.
    pub done: u64,
    /// Whether the reply was the expected one.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, or `None` for a failed operation.
    pub fn latency_ns(&self) -> Option<u64> {
        (self.ok && self.done >= self.due).then(|| self.done - self.due)
    }
}

/// Drive one connection until `end_ns`: `next(i, due)` builds operation
/// `i`, `on_reply(i, kind, reply, now)` judges its reply on the collector
/// thread. At most `cap` operations are sent. Returns one [`Sample`] per
/// operation sent, in send order.
pub fn run_lane<N, R>(
    client: &CacheClient,
    clock: &Clock,
    mut mode: Mode<'_>,
    end_ns: u64,
    cap: usize,
    mut next: N,
    mut on_reply: R,
) -> Vec<Sample>
where
    N: FnMut(u64, u64) -> (u8, Request),
    R: FnMut(u64, u8, &CacheReply, u64) -> bool + Send,
{
    let mut sent: Vec<Sample> = Vec::with_capacity(cap);
    let mut outcomes: Vec<(u64, bool)> = Vec::with_capacity(cap);
    let refill = match &mut mode {
        Mode::Closed { refill, .. } => refill.take(),
        Mode::Paced(_) => None,
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(u64, u8, psrpc::PendingReply)>();
        let outcomes = &mut outcomes;
        let collector = scope.spawn(move || {
            for (i, kind, pending) in rx {
                let result = pending.wait();
                let now = clock.now_ns();
                let ok = match &result {
                    Ok(reply) => on_reply(i, kind, reply, now),
                    Err(_) => false,
                };
                outcomes.push((if result.is_ok() { now } else { 0 }, ok));
                if let Some(refill) = &refill {
                    let _ = refill.send(());
                }
            }
        });
        let mut i = 0u64;
        while sent.len() < cap {
            let (due, now) = match &mode {
                Mode::Closed { permits, .. } => {
                    // A permit that does not come back within the grace
                    // period is a lost operation; the drain accounts for it.
                    let left = end_ns.saturating_sub(clock.now_ns());
                    if left == 0 || permits.recv_timeout(Duration::from_nanos(left)).is_err() {
                        break;
                    }
                    let now = clock.now_ns();
                    if now >= end_ns {
                        break;
                    }
                    (now, now)
                }
                Mode::Paced(schedule) => {
                    let due = schedule.due_ns(i);
                    if due >= end_ns {
                        break;
                    }
                    (due, wait_until(clock, due))
                }
            };
            let (kind, request) = next(i, due);
            let pending = client.begin_request(request);
            let sample = Sample {
                kind,
                due,
                sent: now,
                sent_end: clock.now_ns(),
                done: 0,
                ok: false,
            };
            sent.push(sample);
            // A send that fails leaves a failed sample and ends the lane:
            // the connection is gone.
            let Ok(pending) = pending else { break };
            if tx.send((i, kind, pending)).is_err() {
                break;
            }
            i += 1;
        }
        drop(tx);
        collector.join().expect("the collector does not panic");
    });
    for (sample, (done, ok)) in sent.iter_mut().zip(outcomes) {
        sample.done = done;
        sample.ok = ok;
    }
    sent
}

/// One notification as received on the subscriber connection.
#[derive(Debug, Clone, Copy)]
pub struct Note {
    /// The `seq` the automaton echoed through `send()`.
    pub seq: u64,
    /// The automaton that sent it.
    pub automaton: u64,
    /// When the generator received it.
    pub at: u64,
    /// Workload-defined payload (for example the direction of a cross).
    pub aux: i64,
}

/// Shared between a subscriber and the orchestrator that stops it.
#[derive(Default)]
pub struct SubscriberCtl {
    pub stop: AtomicBool,
    pub received: AtomicU64,
}

/// Receive notifications until told to stop. `decode` extracts
/// `(seq, aux)` from a notification; `on_note` runs after each one is
/// logged (the closed-loop fan-out segment hands permits back from it).
pub fn run_subscriber<D, F>(
    client: &CacheClient,
    clock: &Clock,
    ctl: &SubscriberCtl,
    cap: usize,
    decode: D,
    mut on_note: F,
) -> Vec<Note>
where
    D: Fn(&ClientNotification) -> Option<(u64, i64)>,
    F: FnMut(&Note),
{
    let mut notes = Vec::with_capacity(cap);
    let rx = client.notifications();
    while !ctl.stop.load(Ordering::Acquire) {
        let Ok(n) = rx.recv_timeout(Duration::from_millis(5)) else {
            continue;
        };
        let at = clock.now_ns();
        // An undecodable notification is logged with an impossible seq so
        // the oracle reports it instead of the subscriber hiding it.
        let (seq, aux) = decode(&n).unwrap_or((u64::MAX, 0));
        let note = Note {
            seq,
            automaton: n.automaton,
            at,
            aux,
        };
        if notes.len() < cap {
            notes.push(note);
        }
        ctl.received.fetch_add(1, Ordering::Release);
        on_note(&note);
    }
    notes
}

/// Wait until the subscriber has seen `expected` notifications, or until
/// none has arrived for a while, or until `grace_s` has passed; then stop it.
pub fn drain_subscriber(ctl: &SubscriberCtl, expected: Option<u64>, grace_s: f64) {
    let deadline = std::time::Instant::now() + Duration::from_secs_f64(grace_s);
    let mut last = ctl.received.load(Ordering::Acquire);
    let mut quiet_since = std::time::Instant::now();
    while std::time::Instant::now() < deadline {
        let seen = ctl.received.load(Ordering::Acquire);
        if expected.is_some_and(|e| seen >= e) {
            break;
        }
        if seen != last {
            last = seen;
            quiet_since = std::time::Instant::now();
        } else if expected.is_none() && quiet_since.elapsed() > Duration::from_millis(300) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ctl.stop.store(true, Ordering::Release);
}
