//! Protection-layer snapshot: prices admission control's isolation of
//! neighbours, written as `BENCH_protect.json` for the performance
//! trajectory.
//!
//! **Throttled-flood fairness** — a hostile client floods a
//! rate-limited server (~10x its quota, pipelined) while a well-behaved
//! client proceeds self-paced below quota. `protect_fairness_ratio` is
//! the well-behaved client's throughput under flood over its isolated
//! throughput; `scripts/ci.sh bench` enforces `>= 0.5` — admission
//! control must actually isolate neighbours from the flood, not merely
//! reject it.
//!
//! What an idempotency token adds to an insert is counted, not timed:
//! `tests/alloc_ledger.rs` holds a tokened insert to the allocations of
//! an untokened one.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_protect`
//! (output path override: `BENCH_PROTECT_OUT`).

use std::fs;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{CacheBuilder, ClientPolicy};
use psrpc::client::CacheClient;
use psrpc::message::Request;
use psrpc::reactor::ReactorServer;

/// Per-client quota for the fairness measurement.
const QUOTA_PER_SEC: u64 = 500;
/// Self-paced interval of the well-behaved client: half its quota.
const PACE: Duration = Duration::from_millis(4);
/// Paced inserts per fairness measurement.
const PACED_OPS: usize = 150;

fn insert_request(v: i64) -> Request {
    Request::Insert {
        table: "T".into(),
        values: vec![Scalar::Int(v)],
        upsert: false,
    }
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
    let out = std::env::var("BENCH_PROTECT_OUT").unwrap_or_else(|_| "BENCH_protect.json".into());

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
        "{{\n  \"scenario\": \"paced-client fairness under a pipelined flood against a {QUOTA_PER_SEC}/s quota\",\n  \"isolated_paced_per_sec\": {isolated:.1},\n  \"flooded_paced_per_sec\": {flooded:.1},\n  \"flood_requests_throttled\": {throttled},\n  \"protect_fairness_ratio\": {fairness_ratio:.3}\n}}\n"
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "protect: paced neighbours keep {:.0}% of isolated throughput under flood -> {out}",
        fairness_ratio * 100.0
    );
}
