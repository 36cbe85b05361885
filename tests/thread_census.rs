//! Thread census: the RPC servers own the threads their docs say they
//! own and no others. Lives in its own test binary — one test, so no
//! sibling test's server shows up in `/proc/self/task`.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;
use unipubsub::prelude::*;

/// Names (`comm`, truncated by the kernel to 15 bytes) of this process's
/// live threads that belong to the RPC layer, sorted.
fn psrpc_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("psrpc-"))
        .collect();
    names.sort();
    names
}

/// Threads announce their name and exit asynchronously; poll briefly.
fn assert_census(expected: &[&str], when: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while psrpc_threads() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(psrpc_threads(), expected, "{when}");
}

#[test]
fn the_servers_own_exactly_the_threads_they_document() {
    // The reactor: one poll thread plus the configured worker pool —
    // nothing per connection, nothing for notification routing.
    let cache = CacheBuilder::new().rpc_workers(2).build();
    cache.execute("create table T (v integer)").unwrap();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").unwrap();
    let reactor = ["psrpc-reactor", "psrpc-reactor-w", "psrpc-reactor-w"];
    assert_census(&reactor, "a bound, idle reactor");

    // The client's own reader thread is the only addition when a
    // subscriber connects and notifications flow.
    let client = CacheClient::connect(server.local_addr()).unwrap();
    client
        .register_automaton("subscribe t to T; behavior { send(t.v); }")
        .unwrap();
    cache.insert("T", vec![1i64.into()]).unwrap();
    client
        .notifications()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    let added: Vec<String> = psrpc_threads()
        .into_iter()
        .filter(|name| !name.starts_with("psrpc-reactor"))
        .collect();
    assert_eq!(added, ["psrpc-client-re"], "a connected subscriber");
    drop(client);
    server.shutdown();
    assert_census(&[], "after reactor shutdown");

    // An in-process connection: its server-side worker and writer (and
    // the client's reader).
    let inproc = CacheClient::connect_inproc(cache);
    inproc.ping().unwrap();
    assert_census(
        &["psrpc-client-re", "psrpc-inproc-se", "psrpc-writer"],
        "one in-process connection",
    );
    drop(inproc);
    assert_census(&[], "after the in-process client is dropped");
}
