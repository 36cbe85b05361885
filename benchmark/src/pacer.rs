//! The generator's clock and its open-loop schedule.
//!
//! An open-loop lane sends operation `i` at `start + i / rate` whatever the
//! server does, and every latency is measured from that *intended* time, so
//! a stall is charged to each operation it delays (no coordinated
//! omission). How late the generator itself ran is reported as
//! `psrpc.client.gen_lag_p99_us`.

use std::time::{Duration, Instant};

/// Nanoseconds since the run's origin; every stamp of a run comes from one
/// of these, on the generator's side only.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A fixed-rate schedule: the due time of operation `i` is computed from
/// the origin, never from the previous send, so lateness cannot accumulate
/// into the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    period_ns: f64,
}

impl Schedule {
    /// A schedule of `rate` operations per second starting at `start_ns`.
    pub fn new(start_ns: u64, rate: f64) -> Schedule {
        assert!(rate > 0.0, "a paced lane needs a positive rate");
        Schedule {
            start_ns,
            period_ns: 1e9 / rate,
        }
    }

    /// Intended send time of operation `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * self.period_ns).round() as u64
    }

    /// Operations due in `[start, end_ns)`.
    pub fn ops_until(&self, end_ns: u64) -> u64 {
        if end_ns <= self.start_ns {
            return 0;
        }
        ((end_ns - self.start_ns) as f64 / self.period_ns).ceil() as u64
    }
}

/// How close to the due time the sleep ends; the rest is spent yielding,
/// which gives the core to any runnable server thread instead of burning it.
const SPIN_NS: u64 = 150_000;

/// Block until `due_ns` and return the time it actually is. Returns at once
/// when the due time has already passed — the caller is behind schedule and
/// must catch up, not skip.
pub fn wait_until(clock: &Clock, due_ns: u64) -> u64 {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return now;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Whether a paced segment measured what it claims to: the generator kept
/// its schedule (p99 lag at most 1 ms) and achieved the offered rate
/// (at least 0.99 of it). An invalid segment is reported, not failed: on a
/// shared machine it is the neighbours' doing, not the program's.
pub fn paced_segment_valid(gen_lag_p99_us: f64, achieved_rate_ratio: f64) -> bool {
    gen_lag_p99_us <= 1_000.0 && achieved_rate_ratio >= 0.99
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_origin_without_drift() {
        let s = Schedule::new(1_000, 2_000.0);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 501_000);
        assert_eq!(s.due_ns(2_000), 1_000_001_000);
        // A rate that does not divide a second still lands exactly on the
        // whole second: the schedule is not a running sum of rounded periods.
        let odd = Schedule::new(0, 3_000.0);
        assert_eq!(odd.due_ns(3_000), 1_000_000_000);
        assert_eq!(odd.due_ns(300_000), 100_000_000_000);
    }

    #[test]
    fn ops_until_counts_the_offered_operations() {
        let s = Schedule::new(1_000_000_000, 500.0);
        assert_eq!(s.ops_until(1_000_000_000), 0);
        assert_eq!(s.ops_until(500), 0);
        assert_eq!(s.ops_until(2_000_000_000), 500);
        assert_eq!(s.ops_until(2_000_000_001), 501);
    }

    #[test]
    fn wait_until_never_returns_early_and_never_waits_for_the_past() {
        let clock = Clock::start();
        let due = clock.now_ns() + 2_000_000;
        let woke = wait_until(&clock, due);
        assert!(woke >= due);
        // An overdue operation is released immediately.
        let before = clock.now_ns();
        let woke = wait_until(&clock, 0);
        assert!(woke - before < 1_000_000);
    }

    #[test]
    fn a_late_generator_or_a_short_rate_invalidates_the_segment() {
        assert!(paced_segment_valid(400.0, 0.999));
        assert!(!paced_segment_valid(1_000.1, 1.0));
        assert!(!paced_segment_valid(10.0, 0.98));
    }
}
