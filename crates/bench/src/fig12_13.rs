//! Figs. 12 and 13 — performance at stress: the maximal rate at which the
//! cache can absorb (and, in the 2-way case, also generate) RPCs.
//!
//! A single application inserts tuples into a `Test` table as fast as
//! possible over the RPC connection while the stress automaton of Fig. 11
//! counts them (1-way) or echoes every event back to the application with
//! `send()` (2-way). Fig. 12 varies the number of integer attributes in the
//! `Test` schema (1–16); Fig. 13 uses a single varchar attribute and varies
//! its size from 10 to 10,000 bytes — the knee past 1,020 bytes is the RPC
//! layer's fragmentation boundary.

use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::CacheBuilder;
use psrpc::client::CacheClient;
use psrpc::reactor::ReactorServer;

/// Which direction(s) of RPC traffic the stress run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressMode {
    /// Application → cache inserts only.
    OneWay,
    /// Inserts plus an automaton `send()` back to the application per event.
    TwoWay,
}

impl StressMode {
    /// Label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            StressMode::OneWay => "1-way",
            StressMode::TwoWay => "2-way",
        }
    }
}

/// The workload shape: how the `Test` table looks and what gets inserted.
#[derive(Debug, Clone)]
pub enum StressSchema {
    /// `n` integer attributes (Fig. 12).
    Integers(usize),
    /// One varchar attribute carrying a string of `len` bytes (Fig. 13).
    Varchar(usize),
}

impl StressSchema {
    fn create_table_sql(&self) -> String {
        match self {
            StressSchema::Integers(n) => {
                let cols: Vec<String> = (0..*n).map(|i| format!("a{i} integer")).collect();
                format!("create table Test ({})", cols.join(", "))
            }
            StressSchema::Varchar(len) => {
                format!("create table Test (payload varchar({}))", (*len).max(1))
            }
        }
    }

    fn tuple(&self) -> Vec<Scalar> {
        match self {
            StressSchema::Integers(n) => (0..*n as i64).map(Scalar::Int).collect(),
            StressSchema::Varchar(len) => vec![Scalar::Str("x".repeat(*len).into())],
        }
    }

    /// The x-axis value of the figure (attribute count or byte size).
    pub fn x_value(&self) -> usize {
        match self {
            StressSchema::Integers(n) => *n,
            StressSchema::Varchar(len) => *len,
        }
    }
}

/// The stress automaton of Fig. 11; the 2-way variant un-comments the
/// `send()`.
fn stress_automaton(mode: StressMode) -> String {
    let send_line = match mode {
        StressMode::OneWay => "",
        StressMode::TwoWay => "send(s.a0);",
    };
    format!(
        r#"
        subscribe t to Timer;
        subscribe s to Test;
        int count;
        initialization {{
            count = 0;
        }}
        behavior {{
            if (currentTopic() == 'Timer') {{
                if (count > 0)
                    print(String('stress1way: ', count));
                count = 0;
            }} else {{
                count += 1;
                {send_line}
            }}
        }}
        "#
    )
}

/// For the varchar workload `s.a0` does not exist; echo the payload length
/// instead.
fn stress_automaton_for(mode: StressMode, schema: &StressSchema) -> String {
    let source = stress_automaton(mode);
    match (mode, schema) {
        (StressMode::TwoWay, StressSchema::Varchar(_)) => {
            source.replace("send(s.a0);", "send(s.payload);")
        }
        _ => source,
    }
}

/// One measured point of Fig. 12 or Fig. 13.
#[derive(Debug, Clone)]
pub struct StressPoint {
    /// Attribute count (Fig. 12) or payload bytes (Fig. 13).
    pub x: usize,
    /// Direction of the run.
    pub mode: StressMode,
    /// Total inserts completed.
    pub inserts: usize,
    /// Sustained insert rate.
    pub inserts_per_sec: f64,
    /// Echo notifications received (2-way only).
    pub echoes: usize,
}

/// Run one stress configuration for roughly `duration`.
pub fn run_point(schema: StressSchema, mode: StressMode, duration: Duration) -> StressPoint {
    let cache = CacheBuilder::new().build();
    cache
        .execute(&schema.create_table_sql())
        .expect("creating the Test table succeeds");
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").expect("bind an ephemeral port");
    let client = CacheClient::connect(server.local_addr()).expect("connect to the server");
    client
        .register_automaton(&stress_automaton_for(mode, &schema))
        .expect("the stress automaton compiles");

    let payload = schema.tuple();
    let start = Instant::now();
    let mut inserts = 0usize;
    while start.elapsed() < duration {
        client
            .insert("Test", payload.clone())
            .expect("inserting into Test succeeds");
        inserts += 1;
    }
    let elapsed = start.elapsed();
    cache.quiesce(Duration::from_secs(10));
    // In the 2-way case the echoes travel back through the notification
    // forwarder and the transport after the automata have quiesced; give
    // them a moment to drain.
    let mut echoes = client.drain_notifications().len();
    if mode == StressMode::TwoWay {
        let deadline = Instant::now() + Duration::from_secs(5);
        while echoes < inserts && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            echoes += client.drain_notifications().len();
        }
    }
    let point = StressPoint {
        x: schema.x_value(),
        mode,
        inserts,
        inserts_per_sec: inserts as f64 / elapsed.as_secs_f64(),
        echoes,
    };
    drop(client);
    server.shutdown();
    cache.shutdown();
    point
}

/// Fig. 12: inserts/sec vs number of integer attributes, 1-way and 2-way.
pub fn run_fig12(duration_per_point: Duration) -> Vec<StressPoint> {
    let mut points = Vec::new();
    for mode in [StressMode::OneWay, StressMode::TwoWay] {
        for n in [1usize, 2, 4, 8, 16] {
            points.push(run_point(
                StressSchema::Integers(n),
                mode,
                duration_per_point,
            ));
        }
    }
    points
}

/// Fig. 13: inserts/sec vs varchar size, 1-way and 2-way.
pub fn run_fig13(duration_per_point: Duration) -> Vec<StressPoint> {
    let mut points = Vec::new();
    for mode in [StressMode::OneWay, StressMode::TwoWay] {
        for len in [10usize, 100, 1_000, 10_000] {
            points.push(run_point(
                StressSchema::Varchar(len),
                mode,
                duration_per_point,
            ));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_automata_compile_for_both_modes_and_schemas() {
        for mode in [StressMode::OneWay, StressMode::TwoWay] {
            for schema in [StressSchema::Integers(4), StressSchema::Varchar(100)] {
                let source = stress_automaton_for(mode, &schema);
                assert!(gapl::compile(&source).is_ok(), "{mode:?}/{schema:?}");
            }
        }
        assert_eq!(StressMode::OneWay.label(), "1-way");
        assert_eq!(StressSchema::Integers(4).x_value(), 4);
        assert_eq!(StressSchema::Varchar(100).x_value(), 100);
    }

    #[test]
    fn a_short_one_way_run_sustains_inserts() {
        let point = run_point(
            StressSchema::Integers(2),
            StressMode::OneWay,
            Duration::from_millis(200),
        );
        assert!(point.inserts > 10);
        assert!(point.inserts_per_sec > 50.0);
        assert_eq!(point.echoes, 0);
    }

    #[test]
    fn a_short_two_way_run_echoes_every_insert() {
        let point = run_point(
            StressSchema::Integers(1),
            StressMode::TwoWay,
            Duration::from_millis(200),
        );
        assert!(point.inserts > 10);
        assert_eq!(point.echoes, point.inserts);
    }
}
