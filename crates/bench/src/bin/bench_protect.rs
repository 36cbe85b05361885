//! Protection-layer snapshot: prices the two costs the production
//! protection layer is allowed to impose, written as
//! `BENCH_protect.json` for the performance trajectory.
//!
//! Two measurements:
//!
//! * **Dedup overhead** — the insert hot path with idempotency tokens
//!   (the default: every mutation stamped, the server records its
//!   outcome in the bounded token table) vs the same workload with
//!   tokens disabled. The headline `protect_dedup_ratio` is
//!   tokened/untokened throughput; `scripts/ci.sh bench` enforces
//!   `>= 0.9` — exactly-once may cost at most 10% of the hot path.
//!
//! * **Throttled-flood fairness** — a hostile client floods a
//!   rate-limited server (~10x its quota, pipelined) while a
//!   well-behaved client proceeds self-paced below quota.
//!   `protect_fairness_ratio` is the well-behaved client's throughput
//!   under flood over its isolated throughput; the floor is `>= 0.5` —
//!   admission control must actually isolate neighbours from the
//!   flood, not merely reject it.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_protect`
//! (output path override: `BENCH_PROTECT_OUT`; op budget:
//! `BENCH_PROTECT_OPS`).

use std::fs;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{CacheBuilder, ClientPolicy};
use psrpc::client::CacheClient;
use psrpc::message::{CacheReply, Request};
use psrpc::reactor::ReactorServer;

/// In-flight window for the pipelined insert measurement.
const WINDOW: usize = 32;
/// Per-client quota for the fairness measurement.
const QUOTA_PER_SEC: u64 = 500;
/// Self-paced interval of the well-behaved client: half its quota.
const PACE: Duration = Duration::from_millis(4);
/// Paced inserts per fairness measurement.
const PACED_OPS: usize = 150;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn insert_request(v: i64) -> Request {
    Request::Insert {
        table: "T".into(),
        values: vec![Scalar::Int(v)],
        upsert: false,
    }
}

/// Pipelined inserts/second over one connection; `tokened` stamps every
/// insert with a fresh idempotency token (the default client behavior
/// for blocking mutations), pricing the server-side record + the wire
/// bytes.
fn measure_inserts(addr: SocketAddr, ops: usize, tokened: bool) -> f64 {
    let client = CacheClient::connect(addr).expect("bench client connects");
    let started = Instant::now();
    let mut pendings = std::collections::VecDeque::with_capacity(WINDOW);
    for i in 0..ops {
        let token = tokened.then(|| client.next_token());
        pendings.push_back(
            client
                .begin_request_with_token(insert_request(i as i64), token)
                .expect("bench request sent"),
        );
        if pendings.len() == WINDOW {
            let reply = pendings.pop_front().unwrap().wait().expect("bench reply");
            assert!(matches!(reply, CacheReply::Inserted { .. }));
        }
    }
    for p in pendings {
        p.wait().expect("bench reply");
    }
    ops as f64 / started.elapsed().as_secs_f64()
}

/// The dedup-overhead measurement: alternate tokened/untokened rounds
/// on one server (interleaving absorbs drift — thermal, page cache,
/// allocator state) and keep each mode's best round.
fn dedup_measurement(ops: usize) -> (f64, f64) {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").expect("bind the reactor");
    let addr = server.local_addr();
    let setup = CacheClient::connect(addr).expect("setup client connects");
    setup
        .execute("create table T (v integer) capacity 256")
        .expect("create table");

    // Warm-up rounds, discarded.
    measure_inserts(addr, ops / 4, true);
    measure_inserts(addr, ops / 4, false);
    let (mut tokened, mut untokened) = (0.0f64, 0.0f64);
    for round in 0..4 {
        // Alternate which mode goes first so ordering bias (page
        // cache, allocator, CPU frequency ramps) cancels out.
        if round % 2 == 0 {
            tokened = tokened.max(measure_inserts(addr, ops, true));
            untokened = untokened.max(measure_inserts(addr, ops, false));
        } else {
            untokened = untokened.max(measure_inserts(addr, ops, false));
            tokened = tokened.max(measure_inserts(addr, ops, true));
        }
    }
    server.shutdown();
    (tokened, untokened)
}

/// The well-behaved client's paced throughput (inserts/second).
fn paced_throughput(addr: SocketAddr) -> f64 {
    let client = CacheClient::connect(addr).expect("paced client connects");
    let started = Instant::now();
    for i in 0..PACED_OPS {
        client
            .insert("T", vec![Scalar::Int(i as i64)])
            .expect("a well-behaved insert was rejected");
        std::thread::sleep(PACE);
    }
    PACED_OPS as f64 / started.elapsed().as_secs_f64()
}

/// The fairness measurement: isolated paced throughput, then the same
/// paced workload under a pipelined flood from a hostile connection.
/// Returns (isolated, flooded, throttle rejections served).
fn fairness_measurement() -> (f64, f64, u64) {
    let cache = CacheBuilder::new()
        .client_policy(ClientPolicy {
            max_requests_per_sec: QUOTA_PER_SEC,
            burst: 100,
            ..ClientPolicy::default()
        })
        .build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").expect("bind the reactor");
    let addr = server.local_addr();
    let setup = CacheClient::connect(addr).expect("setup client connects");
    setup
        .execute("create table T (v integer) capacity 256")
        .expect("create table");

    let isolated = paced_throughput(addr);

    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = CacheClient::connect(addr).expect("flooder connects");
            let mut pendings = std::collections::VecDeque::new();
            while !stop.load(Ordering::Acquire) {
                if let Ok(p) = client.begin_request(insert_request(-1)) {
                    pendings.push_back(p);
                }
                while pendings.len() > 64 {
                    let _ = pendings.pop_front().unwrap().wait();
                }
            }
            for p in pendings {
                let _ = p.wait();
            }
        })
    };
    let flooded = paced_throughput(addr);
    stop.store(true, Ordering::Release);
    flooder.join().expect("flooder thread");

    let throttled = server.stats().rpc_requests_throttled;
    server.shutdown();
    (isolated, flooded, throttled)
}

fn main() {
    let ops = env_usize("BENCH_PROTECT_OPS", 20_000);
    let out = std::env::var("BENCH_PROTECT_OUT").unwrap_or_else(|_| "BENCH_protect.json".into());

    let (tokened, untokened) = dedup_measurement(ops);
    let dedup_ratio = tokened / untokened;
    println!(
        "dedup: tokened {tokened:>9.0} inserts/s, untokened {untokened:>9.0} inserts/s \
         (ratio {dedup_ratio:.3})"
    );

    let (isolated, flooded, throttled) = fairness_measurement();
    let fairness_ratio = flooded / isolated;
    println!(
        "fairness: paced client {isolated:>6.0}/s isolated, {flooded:>6.0}/s under flood \
         (ratio {fairness_ratio:.3}, {throttled} floods rejected)"
    );
    assert!(
        throttled > 0,
        "the flood was never throttled — admission control is not engaging"
    );

    let json = format!(
        "{{\n  \"scenario\": \"idempotency-token dedup overhead on the pipelined insert hot path; paced-client fairness under a pipelined flood against a {QUOTA_PER_SEC}/s quota\",\n  \"tokened_inserts_per_sec\": {tokened:.1},\n  \"untokened_inserts_per_sec\": {untokened:.1},\n  \"protect_dedup_ratio\": {dedup_ratio:.3},\n  \"isolated_paced_per_sec\": {isolated:.1},\n  \"flooded_paced_per_sec\": {flooded:.1},\n  \"flood_requests_throttled\": {throttled},\n  \"protect_fairness_ratio\": {fairness_ratio:.3}\n}}\n"
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "protect: dedup keeps {:.0}% of the untokened hot path, paced neighbours keep \
         {:.0}% of isolated throughput under flood -> {out}",
        dedup_ratio * 100.0,
        fairness_ratio * 100.0
    );
}
