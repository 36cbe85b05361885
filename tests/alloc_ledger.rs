//! Allocation ledger: what the hot paths cost, counted instead of timed.
//!
//! A counting global allocator tallies every `alloc` and `realloc` the
//! process makes. Time ratios near 1.0 cannot tell a 5% regression from
//! a noisy neighbour; an allocation count is the same on every run, so
//! each check below fails every time on the regression it guards.
//!
//! * (a) Recording into the metrics registry allocates **nothing**:
//!   `LatencyHistogram::record`, `record_duration`,
//!   `Obs::count_request` and a below-threshold `Obs::record_rpc`.
//! * (b) A plan-cached `select` and a typed insert into an unwatched
//!   in-memory stream each allocate a pinned number of times per op —
//!   one more allocation on either path (a timer that boxes, a clone
//!   that was not there) fails the pin.
//! * (c) An idempotency token adds no allocation to an insert: over the
//!   in-process transport, a tokened insert allocates at most 0.05 more
//!   per op than the same insert without a token.
//! * (d) Decoding a 100-row `InsertBatch` allocates once per row, once
//!   per string value, and once each for the table name and the row
//!   list: every vector is sized from its length prefix, never grown.
//!
//! The counter is process-wide, so every test holds [`serial`] for its
//! whole body: no other test of this binary allocates while one
//! measures. Each figure is the fewest allocations per op over
//! [`ROUNDS`] rounds after a warm-up round — interference from outside
//! a test (the harness recording a result) only ever adds.
//!
//! The reactor's per-request span path is not counted here: the poll
//! loop's allocations per op depend on how many times it wakes, which
//! depends on scheduling. That path is priced end to end by psbench's
//! `server_cpu_us_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use gapl::event::Scalar;
use pscache::obs::LatencyHistogram;
use pscache::{CacheBuilder, Obs, OpTrace, ReqKind, Response};
use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, ClientMessage, Request};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Measured rounds per figure; the figure is the fewest of them.
const ROUNDS: u64 = 5;

/// Allocations per op of a plan-cached `select` returning one row of
/// one column: the filter's scratch `Vec`, the column-name `Vec` and its
/// `String`, the row `Vec` and the row's values.
const CACHED_SELECT_ALLOCS: f64 = 5.0;
/// Allocations per op of a typed stream insert, the caller's own
/// argument `Vec` included.
const STREAM_INSERT_ALLOCS: f64 = 2.0;
/// Allocations to decode a 100-row `InsertBatch` of 8 columns, 2 of
/// them strings: the table name, the row list, and per row its value
/// list and two strings.
const DECODE_BATCH_8X2_ALLOCS: f64 = 302.0;
/// The same for 4 columns, 1 of them a string.
const DECODE_BATCH_4X1_ALLOCS: f64 = 202.0;
/// Allowed excess over a pin: below one, so one more allocation per op
/// always fails, while a rare amortised growth does not.
const SLACK: f64 = 0.5;

/// Serialises the tests of this binary: the allocation counter is
/// shared by every thread of the process.
fn serial() -> MutexGuard<'static, ()> {
    static LEDGER: Mutex<()> = Mutex::new(());
    LEDGER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations per call of `op` over `calls` calls: one warm-up round,
/// then the fewest of [`ROUNDS`] measured rounds. `op` gets a running
/// call number.
fn allocs_per_op(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    (0..calls).for_each(&mut op);
    (1..=ROUNDS)
        .map(|round| {
            let before = ALLOCS.load(Ordering::SeqCst);
            (round * calls..(round + 1) * calls).for_each(&mut op);
            (ALLOCS.load(Ordering::SeqCst) - before) as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn assert_pinned(what: &str, measured: f64, pinned: f64) {
    assert!(
        measured >= pinned && measured < pinned + SLACK,
        "{what}: {measured:.3} allocations per op, pinned at {pinned} (+{SLACK})"
    );
}

#[test]
fn recording_a_metric_allocates_nothing() {
    let _serial = serial();
    let hist = LatencyHistogram::default();
    let obs = Obs::new(Duration::from_secs(1));
    let ledger = [
        (
            "LatencyHistogram::record",
            allocs_per_op(10_000, |i| hist.record(i)),
        ),
        (
            "LatencyHistogram::record_duration",
            allocs_per_op(10_000, |i| hist.record_duration(Duration::from_nanos(i))),
        ),
        (
            "Obs::count_request",
            allocs_per_op(10_000, |_| obs.count_request(ReqKind::Insert)),
        ),
        (
            "Obs::record_rpc",
            allocs_per_op(10_000, |i| {
                obs.record_rpc(OpTrace {
                    trace_id: i,
                    kind: ReqKind::Insert,
                    table: None,
                    queue_ns: 10,
                    exec_ns: 10,
                    flush_ns: 10,
                })
            }),
        ),
    ];
    for (what, per_op) in ledger {
        println!("{what}: {per_op:.3} allocations per call");
        assert_eq!(per_op, 0.0, "{what} allocated");
    }
}

#[test]
fn a_cached_select_allocates_its_pinned_count() {
    let _serial = serial();
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table T (v integer) capacity 256")
        .unwrap();
    for v in 0..256 {
        cache.insert("T", vec![Scalar::Int(v)]).unwrap();
    }
    let per_op = allocs_per_op(10_000, |_| {
        let rows = cache.execute("select v from T where v = 7").unwrap();
        assert!(matches!(rows, Response::Rows(ref rs) if rs.len() == 1));
    });
    println!("cached select: {per_op:.3} allocations per op");
    assert_pinned("cached select", per_op, CACHED_SELECT_ALLOCS);
}

#[test]
fn a_stream_insert_allocates_its_pinned_count() {
    let _serial = serial();
    let cache = CacheBuilder::new().manual_clock().build();
    cache
        .execute("create table T (v integer) capacity 256")
        .unwrap();
    let per_op = allocs_per_op(10_000, |i| {
        cache.insert("T", vec![Scalar::Int(i as i64)]).unwrap();
    });
    println!("stream insert: {per_op:.3} allocations per op");
    assert_pinned("stream insert", per_op, STREAM_INSERT_ALLOCS);
}

#[test]
fn an_idempotency_token_adds_no_allocation_to_an_insert() {
    let _serial = serial();
    let cache = CacheBuilder::new().manual_clock().build();
    let client = CacheClient::connect_inproc(cache);
    client
        .execute("create table T (v integer) capacity 256")
        .unwrap();
    let insert = |i: u64, tokened: bool| {
        let request = Request::Insert {
            table: "T".into(),
            values: vec![Scalar::Int(i as i64)],
            upsert: false,
        };
        let token = tokened.then(|| client.next_token());
        let reply = client
            .begin_request_with_token(request, token)
            .unwrap()
            .wait()
            .unwrap();
        assert!(matches!(reply, CacheReply::Inserted { .. }));
    };
    let tokened = allocs_per_op(5_000, |i| insert(i, true));
    let untokened = allocs_per_op(5_000, |i| insert(i, false));
    println!("inproc insert: {tokened:.3} tokened, {untokened:.3} untokened allocations per op");
    assert!(
        tokened <= untokened + 0.05,
        "a token adds {:.3} allocations per insert",
        tokened - untokened
    );
}

#[test]
fn decoding_an_insert_batch_allocates_its_pinned_count() {
    let _serial = serial();
    let batch = |columns: usize, pinned: f64| {
        let rows = (0..100i64)
            .map(|i| {
                let mut row = vec![
                    Scalar::Str(format!("host-{i}").into()),
                    Scalar::Int(i),
                    Scalar::Real(0.5),
                    Scalar::Bool(true),
                    Scalar::Str("eth0".into()),
                    Scalar::Int(-i),
                    Scalar::Tstamp(7),
                    Scalar::Int(3),
                ];
                row.truncate(columns);
                row
            })
            .collect();
        let bytes = ClientMessage {
            seq: 1,
            token: None,
            trace: None,
            request: Request::InsertBatch {
                table: "Hosts".into(),
                rows,
                upsert: true,
            },
        }
        .encode();
        let per_op = allocs_per_op(200, |_| {
            let decoded = ClientMessage::decode(&bytes).unwrap();
            assert!(
                matches!(decoded.request, Request::InsertBatch { ref rows, .. } if rows.len() == 100)
            );
        });
        println!("100-row InsertBatch decode, {columns} columns: {per_op:.3} allocations");
        assert_pinned("InsertBatch decode", per_op, pinned);
    };
    batch(8, DECODE_BATCH_8X2_ALLOCS);
    batch(4, DECODE_BATCH_4X1_ALLOCS);
}
