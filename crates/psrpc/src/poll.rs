//! A minimal readiness-poll wrapper over `poll(2)`.
//!
//! The reactor needs exactly one operating-system primitive: "block
//! until one of these sockets is readable/writable". The vendored
//! dependency set is offline stubs only, so instead of pulling in `mio`
//! or `libc` this module declares the single foreign function the
//! kernel interface requires — `poll(2)`, which the C runtime that the
//! Rust standard library already links always provides on unix — and
//! wraps it in a safe slice-based API. `poll(2)` is O(n) in registered
//! descriptors per wait, which is the right trade-off here: the server
//! rebuilds its interest list each iteration anyway (interest flips
//! with backpressure), and n in the low thousands costs microseconds.
//!
//! [`Waker`] is the reactor's cross-thread doorbell: a nonblocking
//! socketpair whose read end sits in the poll set, so worker threads
//! (and automaton-pool workers delivering notifications) can interrupt
//! a blocked `poll` by writing one byte. Every wake writes — unconditionally. An earlier version
//! coalesced wakes through an atomic flag; a wake landing inside
//! [`Waker::drain`] could then have its byte consumed while the flag
//! stayed armed, leaving an empty pipe that silently swallowed every
//! later wake (including shutdown's) and wedged the reactor in an
//! infinite `poll`. The socketpair buffer bounds the cost of the
//! unconditional write: once it fills, `WouldBlock` is itself proof
//! the descriptor is readable.

use std::io;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readable-interest/readiness bit (`POLLIN`).
pub const POLL_IN: i16 = 0x001;
/// Writable-interest/readiness bit (`POLLOUT`).
pub const POLL_OUT: i16 = 0x004;
/// Error readiness bit (`POLLERR`, output only).
pub const POLL_ERR: i16 = 0x008;
/// Peer-hangup readiness bit (`POLLHUP`, output only).
pub const POLL_HUP: i16 = 0x010;
/// Invalid-descriptor readiness bit (`POLLNVAL`, output only).
pub const POLL_NVAL: i16 = 0x020;

/// One registered descriptor, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLL_IN`] | [`POLL_OUT`]).
    pub events: i16,
    /// Returned events; also carries [`POLL_ERR`]/[`POLL_HUP`]/[`POLL_NVAL`].
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The descriptor became readable (or reached EOF/error — both must
    /// be discovered by reading).
    pub fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_HUP | POLL_ERR | POLL_NVAL) != 0
    }

    /// The descriptor accepts writes (or is in an error state that a
    /// write will report).
    pub fn writable(&self) -> bool {
        self.revents & (POLL_OUT | POLL_HUP | POLL_ERR | POLL_NVAL) != 0
    }
}

extern "C" {
    /// `poll(2)` from the platform C runtime (already linked by std).
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until at least one descriptor in `fds` is ready, the timeout
/// elapses (`Ok(0)`), or a signal is handled (retried internally).
/// `None` waits forever.
///
/// # Errors
///
/// Returns the underlying OS error for anything other than `EINTR`.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        // poll(2) takes whole milliseconds; round up so a 100µs request
        // cannot become a hot spin at 0ms.
        Some(t) => c_int::try_from(t.as_millis().max(1)).unwrap_or(c_int::MAX),
        None => -1,
    };
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-compatible structs, and the length passed
        // matches the allocation poll(2) may write into.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A cross-thread doorbell for a thread blocked in [`wait`].
///
/// The read end is registered in the poll set; any thread holding the
/// waker can make that descriptor readable. Wakes write a byte
/// unconditionally — see the module docs for why a coalescing flag is
/// a lost-wakeup bug, not an optimisation.
#[derive(Debug)]
pub struct Waker {
    read_end: UnixStream,
    write_end: UnixStream,
}

impl Waker {
    /// Create a waker (a nonblocking socketpair).
    ///
    /// # Errors
    ///
    /// Returns the OS error if the socketpair cannot be created.
    pub fn new() -> io::Result<Waker> {
        let (read_end, write_end) = UnixStream::pair()?;
        read_end.set_nonblocking(true)?;
        write_end.set_nonblocking(true)?;
        Ok(Waker {
            read_end,
            write_end,
        })
    }

    /// The descriptor to register with [`POLL_IN`] interest.
    pub fn poll_fd(&self) -> RawFd {
        self.read_end.as_raw_fd()
    }

    /// Make the poll descriptor readable.
    pub fn wake(&self) {
        use std::io::Write as _;
        // A full pipe still wakes the poller; WouldBlock is success.
        let _ = (&self.write_end).write(&[1u8]);
    }

    /// Consume pending wake bytes after the poller observed readability.
    /// Bytes written by wakes that race this drain are either consumed
    /// here (their state change is visible to the caller's next sweep)
    /// or left pending (the next poll returns immediately) — with an
    /// unconditional write in [`Waker::wake`], a wake is never lost.
    pub fn drain(&self) {
        use std::io::Read as _;
        let mut buf = [0u8; 512];
        while matches!((&self.read_end).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn wait_times_out_with_nothing_ready() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.poll_fd(), POLL_IN)];
        let ready = wait(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn a_wake_makes_the_poll_fd_readable_and_drain_clears_it() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake();
        let mut fds = [PollFd::new(waker.poll_fd(), POLL_IN)];
        let ready = wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
        waker.drain();
        let mut fds = [PollFd::new(waker.poll_fd(), POLL_IN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn wakes_cross_threads() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let mut fds = [PollFd::new(waker.poll_fd(), POLL_IN)];
        let ready = wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, 1);
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_wakes_are_never_lost() {
        // Regression for a lost-wakeup bug: wakes were once coalesced
        // through an atomic flag, and a wake landing inside drain()
        // could have its byte consumed while the flag stayed armed —
        // silencing every later wake and wedging the poller forever.
        // Two threads recreate the shape: a free-runner hammers wakes
        // (to land inside drains), while a lockstep waker requires an
        // answered poll for every wake it sends. If the doorbell ever
        // goes silent, the lockstep thread stalls and the round count
        // falls short.
        const ROUNDS: u64 = 1000;
        let waker = Arc::new(Waker::new().unwrap());
        let done = Arc::new(AtomicBool::new(false));
        let acks = Arc::new(AtomicU64::new(0));

        let free_runner = {
            let (waker, done) = (Arc::clone(&waker), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    waker.wake();
                    std::hint::spin_loop();
                }
            })
        };
        let lockstep = {
            let (waker, done, acks) = (Arc::clone(&waker), Arc::clone(&done), Arc::clone(&acks));
            std::thread::spawn(move || {
                let bail = Instant::now() + Duration::from_secs(10);
                let mut completed = 0;
                for round in 1..=ROUNDS {
                    waker.wake();
                    while acks.load(Ordering::Acquire) < round {
                        if Instant::now() >= bail {
                            done.store(true, Ordering::Release);
                            return completed;
                        }
                        std::hint::spin_loop();
                    }
                    completed = round;
                }
                done.store(true, Ordering::Release);
                completed
            })
        };

        while !done.load(Ordering::Acquire) {
            let mut fds = [PollFd::new(waker.poll_fd(), POLL_IN)];
            let _ = wait(&mut fds, Some(Duration::from_millis(100))).unwrap();
            waker.drain();
            acks.fetch_add(1, Ordering::Release);
        }
        free_runner.join().unwrap();
        let completed = lockstep.join().unwrap();
        assert_eq!(
            completed, ROUNDS,
            "the doorbell went silent: a wake was lost after {completed} rounds"
        );
    }

    #[test]
    fn tcp_readability_is_observed() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut fds = [PollFd::new(server.as_raw_fd(), POLL_IN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0);
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLL_IN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].readable());
    }
}
