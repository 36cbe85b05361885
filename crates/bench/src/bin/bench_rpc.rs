//! RPC throughput snapshot: the connections-vs-throughput curve of the
//! event-driven reactor, serial vs pipelined, written as
//! `BENCH_rpc.json` for the performance trajectory.
//!
//! The scenario is the paper's periodic poller at scale: N applications
//! each running the same small windowed `select` over TCP. A *serial*
//! client issues one request per round trip — the per-connection read
//! ceiling the reactor work set out to break — while a *pipelined*
//! client keeps a window of correlated requests in flight and lets
//! replies complete out of order. The harness measures aggregate
//! reads/second at 1, 16, 256 and 1024 concurrent connections in both
//! modes against one `ReactorServer`.
//!
//! The headline metric is `rpc_speedup_16`: pipelined aggregate
//! throughput at 16 connections over the ~550 reads/sec baseline the
//! replication snapshot recorded for the serial windowed-select path
//! (`BENCH_repl.json`, `primary_reads_per_sec`). `scripts/ci.sh bench`
//! enforces `rpc_speedup_16 >= 10`.
//!
//! Run with `cargo run --release -p cep_bench --bin bench_rpc`
//! (output path override: `BENCH_RPC_OUT`; per-config op budget:
//! `BENCH_RPC_OPS`).

use std::fs;
use std::net::SocketAddr;
use std::time::Instant;

use gapl::event::Scalar;
use pscache::CacheBuilder;
use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;

/// The serial read ceiling recorded by the replication snapshot
/// (`BENCH_repl.json`, `primary_reads_per_sec`).
const BASELINE_READS_PER_SEC: f64 = 550.0;
/// In-flight window per pipelined connection.
const WINDOW: usize = 32;
/// Rows in the polled table; the query returns the top slice.
const ROWS: i64 = 128;

const QUERY: &str = "select * from T where v >= 120";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Aggregate reads/second for `conns` connections, each keeping
/// `window` requests in flight (1 = serial round trips). Connections
/// are pre-established and spread over a bounded driver pool so the
/// client side never needs a thousand driver threads.
fn measure(addr: SocketAddr, conns: usize, window: usize, total_ops: usize) -> f64 {
    let drivers = conns.min(8);
    let clients: Vec<CacheClient> = (0..conns)
        .map(|_| CacheClient::connect(addr).expect("bench client connects"))
        .collect();
    let ops_per_conn = (total_ops / conns).max(window).max(2);
    // Round ops to whole windows so every burst is full-depth.
    let bursts_per_conn = ops_per_conn.div_ceil(window);
    let started = Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .chunks(conns.div_ceil(drivers))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut done = 0usize;
                    for _ in 0..bursts_per_conn {
                        for client in chunk {
                            let pendings: Vec<_> = (0..window)
                                .map(|_| client.begin_execute(QUERY).expect("bench request sent"))
                                .collect();
                            for p in pendings {
                                let reply = p.wait().expect("bench reply arrives");
                                assert!(
                                    matches!(reply, psrpc::message::CacheReply::Rows { .. }),
                                    "the measured query must return rows"
                                );
                                done += 1;
                            }
                        }
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(clients);
    served as f64 / elapsed
}

fn main() {
    let total_ops = env_usize("BENCH_RPC_OPS", 8_000);
    let out = std::env::var("BENCH_RPC_OUT").unwrap_or_else(|_| "BENCH_rpc.json".into());

    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache, "127.0.0.1:0").expect("bind the reactor");
    let addr = server.local_addr();
    let setup = CacheClient::connect(addr).expect("setup client connects");
    setup
        .execute("create table T (v integer) capacity 256")
        .expect("create table");
    setup
        .insert_batch("T", (0..ROWS).map(|i| vec![Scalar::Int(i)]).collect())
        .expect("load rows");

    let mut lines = Vec::new();
    let mut pipelined_16 = 0.0f64;
    for &conns in &[1usize, 16, 256, 1024] {
        // Serial gets a smaller budget: it is the slow mode by design.
        let serial = measure(addr, conns, 1, total_ops / 4);
        let pipelined = measure(addr, conns, WINDOW, total_ops);
        if conns == 16 {
            pipelined_16 = pipelined;
        }
        println!(
            "{conns:>5} conns: serial {serial:>9.0} reads/s, pipelined {pipelined:>9.0} reads/s ({:.1}x)",
            pipelined / serial
        );
        lines.push(format!("  \"serial_{conns}_reads_per_sec\": {serial:.1}"));
        lines.push(format!(
            "  \"pipelined_{conns}_reads_per_sec\": {pipelined:.1}"
        ));
    }
    let speedup = pipelined_16 / BASELINE_READS_PER_SEC;

    let json = format!(
        "{{\n  \"scenario\": \"windowed select over the RPC reactor, 1..1024 connections, serial vs {WINDOW}-deep pipeline\",\n  \"window\": {WINDOW},\n{},\n  \"baseline_reads_per_sec\": {BASELINE_READS_PER_SEC:.1},\n  \"rpc_speedup_16\": {speedup:.1}\n}}\n",
        lines.join(",\n"),
    );
    fs::write(&out, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!(
        "rpc: 16 pipelined connections serve {pipelined_16:.0} reads/s, \
         {speedup:.1}x the {BASELINE_READS_PER_SEC:.0}/s serial baseline -> {out}"
    );

    let stats = server.stats();
    assert_eq!(stats.rpc_in_flight, 0, "the reactor drained every request");
    drop(setup);
    server.shutdown();
}
