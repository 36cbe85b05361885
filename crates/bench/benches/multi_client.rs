//! Multi-client throughput of the RPC server.
//!
//! The paper's prototype serves every application from one accept loop;
//! `psrpc::reactor::ReactorServer` executes different connections'
//! requests on a worker pool so concurrent clients scale with cores. This benchmark measures aggregate
//! insert throughput (tuples/sec over TCP loopback) as the client count
//! grows, in two shapes:
//!
//! * **disjoint** — each client inserts into its own table, the
//!   embarrassingly parallel case per-table locking exists for;
//! * **shared** — every client inserts into one table, bounding the win
//!   at the per-table lock while still exercising parallel decode.
//!
//! Run with `cargo bench --bench multi_client`; each case prints
//! tuples/sec directly (wall-clock measurement, no sampling harness).
//!
//! Note: aggregate throughput only scales with the client count when the
//! host actually has spare cores. On a single-core container (as in some
//! CI sandboxes) every case is time-sliced onto the same CPU and the
//! disjoint curve is flat — that is the scheduler, not the server.

use std::time::Instant;

use gapl::event::Scalar;
use pscache::CacheBuilder;
use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;

const INSERTS_PER_CLIENT: usize = 4000;

fn run_case(clients: usize, shared: bool) -> f64 {
    let cache = CacheBuilder::new().build();
    if shared {
        cache
            .execute("create table T (client integer, v integer)")
            .expect("create table");
    } else {
        for c in 0..clients {
            cache
                .execute(&format!("create table T{c} (client integer, v integer)"))
                .expect("create table");
        }
    }
    let server = ReactorServer::bind(cache, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let client = CacheClient::connect(addr).expect("connect");
                let table = if shared {
                    "T".to_owned()
                } else {
                    format!("T{c}")
                };
                for i in 0..INSERTS_PER_CLIENT {
                    client
                        .insert(&table, vec![Scalar::Int(c as i64), Scalar::Int(i as i64)])
                        .expect("insert");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    server.shutdown();
    (clients * INSERTS_PER_CLIENT) as f64 / elapsed.as_secs_f64()
}

fn main() {
    println!("multi_client throughput ({INSERTS_PER_CLIENT} inserts per client, TCP loopback)");
    for &shared in &[false, true] {
        let shape = if shared { "shared" } else { "disjoint" };
        let mut baseline = None;
        for clients in [1usize, 2, 4, 8] {
            let tput = run_case(clients, shared);
            let speedup = tput / *baseline.get_or_insert(tput);
            println!(
                "multi_client/{shape}/clients={clients:<2}  {tput:>12.0} tuples/s  \
                 ({speedup:.2}x vs 1 client)"
            );
        }
    }
}
