//! Integration tests for the hybrid scenarios that motivate the
//! unification: automata that need both the publish/subscribe face (raw
//! event streams) and the stream-database face (global, persistent state)
//! at the same time.

use std::time::Duration;

use cep_workloads::{DebsConfig, DebsGenerator, FlowConfig, FlowGenerator};
use gapl::event::Scalar;
use unipubsub::prelude::*;

#[test]
fn bandwidth_allowance_scenario_detects_exactly_the_right_violations() {
    let cache = CacheBuilder::new().build();
    cache.execute(FlowGenerator::create_table_sql()).unwrap();
    cache
        .execute(
            "create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)",
        )
        .unwrap();
    cache
        .execute("create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)")
        .unwrap();

    // Host 0 is monitored with a small allowance, host 1 with a huge one.
    let monitored_small = FlowGenerator::local_ip(0);
    let monitored_large = FlowGenerator::local_ip(1);
    cache
        .execute(&format!(
            "insert into Allowances values ('{monitored_small}', 2000000)"
        ))
        .unwrap();
    cache
        .execute(&format!(
            "insert into Allowances values ('{monitored_large}', 999999999999)"
        ))
        .unwrap();

    let (_id, rx) = cache
        .register_automaton(
            r#"
            subscribe f to Flows;
            associate a with Allowances;
            associate b with BWUsage;
            int n, limit;
            identifier ip;
            sequence s;
            behavior {
                ip = Identifier(f.dstip);
                if (hasEntry(a, ip)) {
                    limit = seqElement(lookup(a, ip), 1);
                    if (hasEntry(b, ip))
                        n = seqElement(lookup(b, ip), 1);
                    else
                        n = 0;
                    n += f.nbytes;
                    s = Sequence(f.dstip, n);
                    if (n > limit)
                        send(s, limit, 'limit exceeded');
                    insert(b, ip, s);
                }
            }
            "#,
        )
        .unwrap();

    // Replay flows and compute the expected violations independently.
    let mut generator = FlowGenerator::new(FlowConfig {
        local_hosts: 4,
        ..FlowConfig::default()
    });
    let flows = generator.take(2_000);
    let mut usage_small = 0i64;
    let mut expected_small_violations = 0usize;
    let mut expected_totals = std::collections::HashMap::new();
    for flow in &flows {
        cache.insert("Flows", flow.to_scalars()).unwrap();
        if flow.dstip == monitored_small {
            usage_small += flow.nbytes;
            if usage_small > 2_000_000 {
                expected_small_violations += 1;
            }
        }
        if flow.dstip == monitored_small || flow.dstip == monitored_large {
            *expected_totals.entry(flow.dstip.clone()).or_insert(0i64) += flow.nbytes;
        }
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    // Only the small-allowance host produces notifications, one per flow
    // past the threshold.
    let notes: Vec<Notification> = rx.try_iter().collect();
    assert_eq!(notes.len(), expected_small_violations);
    assert!(notes
        .iter()
        .all(|n| n.values[0].as_str() == Some(monitored_small.as_str())));

    // The BWUsage relation holds the exact accumulated usage for every
    // monitored host — global state updated by the automaton, readable by
    // anyone.
    for (ip, expected) in expected_totals {
        let row = cache.lookup("BWUsage", &ip).unwrap().unwrap();
        assert_eq!(row.values()[1], Scalar::Int(expected), "usage of {ip}");
    }
    // Unmonitored hosts never appear.
    assert!(cache
        .lookup("BWUsage", &FlowGenerator::local_ip(2))
        .unwrap()
        .is_none());
}

#[test]
fn materialised_views_cascade_into_further_automata() {
    // Automaton A derives per-host byte counters into a persistent table;
    // automaton B subscribes to that table's topic (a materialised view)
    // and raises second-level alerts — "complex patterns presented as
    // materialised views ... and vice versa" (§3).
    let cache = CacheBuilder::new().build();
    cache
        .execute("create table Flows (dstip varchar(16), nbytes integer)")
        .unwrap();
    cache
        .execute("create persistenttable Totals (ipaddr varchar(16) primary key, bytes integer)")
        .unwrap();

    let (_a, _rx_a) = cache
        .register_automaton(
            r#"
            subscribe f to Flows;
            associate t with Totals;
            int n;
            identifier ip;
            behavior {
                ip = Identifier(f.dstip);
                if (hasEntry(t, ip))
                    n = seqElement(lookup(t, ip), 1);
                else
                    n = 0;
                n += f.nbytes;
                insert(t, ip, Sequence(f.dstip, n));
            }
            "#,
        )
        .unwrap();
    let (_b, rx_b) = cache
        .register_automaton(
            r#"
            subscribe total to Totals;
            behavior {
                if (total.bytes > 10000)
                    send(total.ipaddr, total.bytes);
            }
            "#,
        )
        .unwrap();

    for i in 0..20 {
        cache
            .insert(
                "Flows",
                vec![Scalar::Str("192.168.1.5".into()), Scalar::Int(1_000 + i)],
            )
            .unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    let alerts: Vec<Notification> = rx_b.try_iter().collect();
    assert!(!alerts.is_empty());
    // The first alert fires as soon as the accumulated total passes 10 kB.
    let first_total = alerts[0].values[1].as_int().unwrap();
    assert!(first_total > 10_000 && first_total < 12_100);
    // Totals is an ordinary relation: the final value equals the sum.
    let expected: i64 = (0..20).map(|i| 1_000 + i).sum();
    let row = cache.lookup("Totals", "192.168.1.5").unwrap().unwrap();
    assert_eq!(row.values()[1], Scalar::Int(expected));
}

#[test]
fn the_debs_merged_automaton_tracks_the_reference_delays() {
    let cache = CacheBuilder::new().build();
    cache.execute(DebsGenerator::create_table_sql()).unwrap();
    cache
        .execute("create table Transitions (a_seq integer, delay integer)")
        .unwrap();
    let (_id, _rx) = cache
        .register_automaton(
            r#"
            subscribe t to Telemetry;
            int prev_a, prev_b, awaiting_b;
            int a_seq, delay;
            initialization {
                prev_a = 1;
                prev_b = 1;
                awaiting_b = 0;
            }
            behavior {
                if (t.sensor_a > prev_a) {
                    a_seq = t.seq;
                    awaiting_b = 1;
                }
                if (awaiting_b == 1) {
                    if (t.sensor_b > prev_b) {
                        delay = t.seq - a_seq;
                        publish('Transitions', a_seq, delay);
                        awaiting_b = 0;
                    }
                }
                prev_a = t.sensor_a;
                prev_b = t.sensor_b;
            }
            "#,
        )
        .unwrap();

    let mut generator = DebsGenerator::new(DebsConfig {
        events: 5_000,
        ..DebsConfig::default()
    });
    let telemetry = generator.generate();
    for event in &telemetry {
        cache.insert("Telemetry", event.to_scalars()).unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    let reference = DebsGenerator::reference_delays(&telemetry);
    let derived = cache
        .execute("select delay from Transitions")
        .unwrap()
        .rows()
        .unwrap();
    let derived: Vec<i64> = derived
        .rows
        .iter()
        .map(|r| r.values[0].as_int().unwrap())
        .collect();
    assert_eq!(derived, reference);
}

#[test]
fn eight_automata_on_one_topic_all_observe_every_event_in_order() {
    // The structure of the performance-at-scale experiment (§6.2), checked
    // functionally: every automaton sees every tuple, in insertion order.
    let cache = CacheBuilder::new().build();
    cache.execute("create table Flows (seq integer)").unwrap();
    let receivers: Vec<_> = (0..8)
        .map(|_| {
            cache
                .register_automaton("subscribe f to Flows; behavior { send(f.seq); }")
                .unwrap()
                .1
        })
        .collect();
    for i in 0..200 {
        cache.insert("Flows", vec![Scalar::Int(i)]).unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));
    for rx in receivers {
        let seen: Vec<i64> = rx
            .try_iter()
            .map(|n| n.values[0].as_int().unwrap())
            .collect();
        assert_eq!(seen, (0..200).collect::<Vec<i64>>());
    }
}

/// Two writers race on table `A` while a third fills `B`. An automaton
/// on `A` alone sees `A`'s tuples in exactly the order the table stored
/// them, and an automaton on both topics sees each topic's tuples in
/// that topic's order — however the two topics interleave.
#[test]
fn concurrent_writers_are_delivered_in_storage_order_per_topic() {
    const PER_WRITER: i64 = 300;
    let cache = CacheBuilder::new().build();
    cache
        .execute("create table A (v integer) capacity 10000")
        .unwrap();
    cache
        .execute("create table B (v integer) capacity 10000")
        .unwrap();
    let (_one, rx_one) = cache
        .register_automaton("subscribe x to A; behavior { send(x.v); }")
        .unwrap();
    let (_two, rx_two) = cache
        .register_automaton(
            "subscribe x to A; subscribe y to B; behavior { \
             if (currentTopic() == 'A') send(1, x.v); else send(2, y.v); }",
        )
        .unwrap();

    let start = std::sync::Arc::new(std::sync::Barrier::new(3));
    let writers: Vec<_> = [("A", 0), ("A", 1_000_000), ("B", 0)]
        .into_iter()
        .map(|(table, base)| {
            let cache = cache.clone();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    cache.insert(table, vec![Scalar::Int(base + i)]).unwrap();
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    assert!(cache.quiesce(Duration::from_secs(30)));

    let stored_a: Vec<i64> = cache
        .select(&Query::new("A"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.values[0].as_int().unwrap())
        .collect();
    assert_eq!(stored_a.len(), 2 * PER_WRITER as usize);
    let seen_one: Vec<i64> = rx_one
        .try_iter()
        .map(|n| n.values[0].as_int().unwrap())
        .collect();
    assert_eq!(seen_one, stored_a, "A delivered out of storage order");

    let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
    for n in rx_two.try_iter() {
        let v = n.values[1].as_int().unwrap();
        match n.values[0].as_int().unwrap() {
            1 => seen_a.push(v),
            _ => seen_b.push(v),
        }
    }
    assert_eq!(seen_a, stored_a, "two-topic automaton reordered A");
    assert_eq!(seen_b, (0..PER_WRITER).collect::<Vec<_>>());
}
