//! The per-layer half of a traced run: the first operations of a workload
//! are replayed **in-process** through each layer's public functions, every
//! call wrapped in a span, so each layer's cost is known on its own and
//! their sum can be held against the end-to-end number.
//!
//! Layer names are module names. What is timed:
//!
//! * `psrpc.message`, `psrpc.framing` — the codec and fragmenter, on the
//!   workload's own requests, replies and notifications;
//! * `pscache.sql`, `pscache.plan`, `pscache.query`, `pscache.table`,
//!   `pscache.snapshot` — against an in-memory cache with no subscribers;
//! * `pscache.dispatch`, `gapl.*` — the same inserts with the workload's
//!   automata registered, and the compiler, prefilter and VM on their own;
//! * `pscache.wal` — the same inserts against a durable cache (the `Wal`
//!   type is crate-private, so append and commit-wait come from that
//!   cache's own histograms), then a checkpoint and a recovery;
//! * `psrpc.reactor` — ping round trips and the workload's own operations,
//!   one at a time, against a fresh server child.

use std::collections::HashMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gapl::event::{Scalar, Tuple};
use gapl::vm::{RecordingHost, Vm};
use pscache::{Cache, CacheBuilder, Response};
use psrpc::framing;
use psrpc::message::{CacheReply, ClientMessage, Request, ServerMessage, WireRow};

use crate::child::{ServeOpts, ServerProc};
use crate::pacer::Clock;
use crate::report::LayerValues;
use crate::stats::percentile_of;
use crate::trace::SpanLog;

/// One replayed operation.
#[derive(Debug, Clone)]
pub enum Op {
    Insert {
        table: &'static str,
        values: Vec<Scalar>,
        upsert: bool,
    },
    Batch {
        table: &'static str,
        rows: Vec<Vec<Scalar>>,
        upsert: bool,
    },
    /// `before τ after`, where τ is the timestamp of the row `back` rows
    /// before the newest one inserted into `table` (`back == 0`: no τ, the
    /// text is `before` alone).
    Select {
        table: &'static str,
        before: String,
        after: String,
        back: usize,
    },
}

/// Which latency a workload's budget is drawn up for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Path_ {
    Ack,
    Notify,
    Select,
}

/// What a workload hands the replayer.
pub struct Replay {
    pub ddl: Vec<&'static str>,
    /// Rows loaded before anything is timed: `(table, upsert, rows)`.
    pub preload: Vec<(&'static str, bool, Vec<Vec<Scalar>>)>,
    pub automata: Vec<String>,
    pub ops: Vec<Op>,
    /// Whether the workload's server is durable.
    pub durable: bool,
    pub path: Path_,
}

/// Time each pass may take; a pass stops early rather than overrun it.
const PASS_BUDGET: Duration = Duration::from_millis(1_500);

fn rows_of(op: &Op) -> u64 {
    match op {
        Op::Batch { rows, .. } => rows.len() as u64,
        _ => 1,
    }
}

/// Reply timestamps per table, from which a `since τ` select takes its τ:
/// each side of a comparison (in-process cache, server child) keeps its
/// own, because each stamps rows with its own clock.
#[derive(Default)]
struct TauLog(HashMap<&'static str, Vec<u64>>);

impl TauLog {
    fn request(&self, op: &Op) -> Request {
        match op {
            Op::Insert {
                table,
                values,
                upsert,
            } => Request::Insert {
                table: (*table).to_owned(),
                values: values.clone(),
                upsert: *upsert,
            },
            Op::Batch {
                table,
                rows,
                upsert,
            } => Request::InsertBatch {
                table: (*table).to_owned(),
                rows: rows.clone(),
                upsert: *upsert,
            },
            Op::Select {
                table,
                before,
                after,
                back,
            } => {
                let command = if *back == 0 {
                    before.clone()
                } else {
                    let log = self.0.get(table).map_or(&[][..], Vec::as_slice);
                    let tau = log.len().checked_sub(*back + 1).map_or(0, |i| log[i]);
                    format!("{before}{tau}{after}")
                };
                Request::Execute { command }
            }
        }
    }

    fn record(&mut self, op: &Op, reply: &CacheReply) {
        match (op, reply) {
            (Op::Insert { table, .. }, CacheReply::Inserted { tstamp, .. }) => {
                self.0.entry(table).or_default().push(*tstamp);
            }
            (Op::Batch { table, .. }, CacheReply::InsertedBatch { tstamps }) => {
                self.0.entry(table).or_default().extend(tstamps);
            }
            _ => {}
        }
    }
}

/// The replay's preload as batch operations.
fn preload_ops(replay: &Replay) -> impl Iterator<Item = Op> + '_ {
    replay.preload.iter().flat_map(|(table, upsert, rows)| {
        rows.chunks(1_024).map(move |chunk| Op::Batch {
            table,
            rows: chunk.to_vec(),
            upsert: *upsert,
        })
    })
}

/// An in-process cache with the replay's tables and preload.
struct Target {
    cache: Cache,
    taus: TauLog,
}

impl Target {
    fn new(builder: CacheBuilder, replay: &Replay) -> Result<Target, String> {
        let cache = builder
            .open()
            .map_err(|e| format!("opening an in-process cache: {e}"))?;
        let mut target = Target {
            cache,
            taus: TauLog::default(),
        };
        for ddl in &replay.ddl {
            target
                .cache
                .execute(ddl)
                .map_err(|e| format!("{ddl}: {e}"))?;
        }
        for op in preload_ops(replay) {
            target.apply(&op)?;
        }
        Ok(target)
    }

    fn request(&self, op: &Op) -> Request {
        self.taus.request(op)
    }

    /// Execute `op` the way the server's request handler would, minus the
    /// wire.
    fn apply(&mut self, op: &Op) -> Result<CacheReply, String> {
        let fail = |e: pscache::Error| format!("replaying {op:?}: {e}");
        let reply = match op {
            Op::Insert {
                table,
                values,
                upsert,
            } => {
                let tstamp = if *upsert {
                    self.cache.upsert(table, values.clone())
                } else {
                    self.cache.insert(table, values.clone())
                }
                .map_err(fail)?;
                CacheReply::Inserted {
                    replaced: false,
                    tstamp,
                }
            }
            Op::Batch {
                table,
                rows,
                upsert,
            } => {
                let tstamps = if *upsert {
                    self.cache.upsert_batch(table, rows.clone())
                } else {
                    self.cache.insert_batch(table, rows.clone())
                }
                .map_err(fail)?;
                CacheReply::InsertedBatch { tstamps }
            }
            Op::Select { .. } => {
                let Request::Execute { command } = self.request(op) else {
                    unreachable!()
                };
                match self.cache.execute(&command).map_err(fail)? {
                    Response::Rows(rs) => CacheReply::Rows {
                        columns: rs.columns,
                        rows: rs
                            .rows
                            .into_iter()
                            .map(|r| WireRow {
                                values: r.values,
                                tstamp: r.tstamp,
                            })
                            .collect(),
                    },
                    other => return Err(format!("a select answered {other:?}")),
                }
            }
        };
        self.taus.record(op, &reply);
        Ok(reply)
    }
}

fn p50(v: &mut [u64]) -> f64 {
    percentile_of(v, 0.5) as f64
}

/// Replay `replay` through every layer; fills `layers` and appends to
/// `spans`. `scratch` is a directory for the durable pass.
pub fn replay_layers(
    replay: &Replay,
    scratch: &Path,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let clock = Clock::start();
    let in_memory_ns = codec_and_cache_pass(replay, &clock, layers, spans)?;
    let notes = dispatch_pass(replay, &clock, layers, spans)?;
    notification_codec(&notes, &clock, layers, spans);
    gapl_pass(replay, &clock, layers, spans)?;
    if replay.durable {
        wal_pass(replay, scratch, &clock, &in_memory_ns, layers, spans)?;
    }
    reactor_pass(replay, layers)?;
    Ok(())
}

/// Per-operation in-memory write times by op index (0 for selects), for the
/// passes that subtract them.
type WriteTimes = Vec<u64>;

/// Pass 1: the codec and framing on every message of the replay, and the
/// SQL, plan, query, table and snapshot layers against an in-memory cache
/// with no subscribers.
fn codec_and_cache_pass(
    replay: &Replay,
    clock: &Clock,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<WriteTimes, String> {
    let mut target = Target::new(CacheBuilder::new(), replay)?;
    let started = Instant::now();
    let mut write_ns = vec![0u64; replay.ops.len()];
    let (mut bytes, mut fragments, mut ops, mut rows_returned, mut selects) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut insert_per_row = Vec::new();
    for (i, op) in replay.ops.iter().enumerate() {
        if started.elapsed() > PASS_BUDGET * 2 {
            break;
        }
        let id = spans.new_op();
        let t0 = clock.now_ns();
        let request = target.request(op);
        let message = ClientMessage {
            seq: i as u64 + 1,
            token: None,
            trace: None,
            request,
        };
        let (wire, _) = spans.time(clock, "psrpc.message.encode_request", -1, id, || {
            message.encode()
        });
        let mut framed = Vec::with_capacity(wire.len() + 64);
        let (back, _) = spans.time(clock, "psrpc.framing.roundtrip", -1, id, || {
            framing::write_message(&mut framed, &wire)
                .and_then(|()| framing::read_message(&mut Cursor::new(&framed)))
        });
        if back.ok().flatten().as_deref() != Some(&wire[..]) {
            return Err("framing did not round-trip a request".into());
        }
        fragments += framing::fragments_for_len(wire.len()) as u64;
        let (decoded, _) = spans.time(clock, "psrpc.message.decode_request", -1, id, || {
            ClientMessage::decode(&wire)
        });
        if decoded.ok().as_ref() != Some(&message) {
            return Err("the codec did not round-trip a request".into());
        }
        let reply = match op {
            Op::Select { table, .. } => {
                let Request::Execute { command } = &message.request else {
                    unreachable!()
                };
                let (parsed, _) = spans.time(clock, "pscache.sql.parse", -1, id, || {
                    pscache::sql::parse(command)
                });
                if let Ok(pscache::sql::Command::Select(query)) = parsed {
                    let schema = target.cache.schema(table).map_err(|e| e.to_string())?;
                    let (plan, _) = spans.time(clock, "pscache.plan.compile", -1, id, || {
                        pscache::QueryPlan::compile(&query, &schema)
                    });
                    plan.map_err(|e| format!("compiling `{command}`: {e}"))?;
                }
                let (reply, _) =
                    spans.time(clock, "pscache.query.select", -1, id, || target.apply(op));
                let reply = reply?;
                if let CacheReply::Rows { rows, .. } = &reply {
                    rows_returned += rows.len() as u64;
                }
                selects += 1;
                reply
            }
            _ => {
                let (reply, ix) =
                    spans.time(clock, "pscache.table.insert", -1, id, || target.apply(op));
                let s = spans.spans[ix as usize];
                write_ns[i] = s.end_ns - s.start_ns;
                insert_per_row.push(write_ns[i] / rows_of(op));
                reply?
            }
        };
        let answer = ServerMessage::Reply {
            seq: message.seq,
            reply,
        };
        let (reply_wire, _) = spans.time(clock, "psrpc.message.encode_reply", -1, id, || {
            answer.encode()
        });
        let (decoded, _) = spans.time(clock, "psrpc.message.decode_reply", -1, id, || {
            ServerMessage::decode(&reply_wire)
        });
        if decoded.ok().as_ref() != Some(&answer) {
            return Err("the codec did not round-trip a reply".into());
        }
        bytes += (wire.len() + reply_wire.len()) as u64;
        ops += 1;
        spans.push("replay.op", t0, clock.now_ns(), -1, id);
    }
    for (layer, span) in [
        (
            "psrpc.message.encode_request_ns",
            "psrpc.message.encode_request",
        ),
        (
            "psrpc.message.decode_request_ns",
            "psrpc.message.decode_request",
        ),
        (
            "psrpc.message.encode_reply_ns",
            "psrpc.message.encode_reply",
        ),
        (
            "psrpc.message.decode_reply_ns",
            "psrpc.message.decode_reply",
        ),
        ("psrpc.framing.roundtrip_ns", "psrpc.framing.roundtrip"),
        ("pscache.sql.parse_ns", "pscache.sql.parse"),
        ("pscache.plan.compile_ns", "pscache.plan.compile"),
        ("pscache.query.select_ns", "pscache.query.select"),
    ] {
        layers.set(layer, spans.p50_ns(span));
    }
    layers.set("pscache.table.insert_ns", p50(&mut insert_per_row));
    layers.set(
        "psrpc.message.bytes_per_op",
        bytes as f64 / ops.max(1) as f64,
    );
    layers.set(
        "psrpc.framing.fragments_per_op",
        fragments as f64 / ops.max(1) as f64,
    );
    layers.set(
        "pscache.query.rows_returned_per_select",
        rows_returned as f64 / selects.max(1) as f64,
    );
    layers.set(
        "pscache.plan.cache_hit_ratio",
        target.cache.plan_cache_stats().hit_rate(),
    );
    layers.set(
        "pscache.snapshot.select_under_write_ratio",
        select_under_write(replay, &mut target)?,
    );
    target.cache.shutdown();
    Ok(write_ns)
}

/// Select throughput with a concurrent writer over the same without one.
/// The probe is a whole-table count, so its work does not grow with what
/// the writer adds (the rings are full, the keyed tables fixed in size).
fn select_under_write(replay: &Replay, target: &mut Target) -> Result<f64, String> {
    let Some(Op::Select { table, .. }) =
        replay.ops.iter().find(|op| matches!(op, Op::Select { .. }))
    else {
        return Ok(0.0);
    };
    let command = format!("select count(*) from {table}");
    let writes: Vec<&Op> = replay
        .ops
        .iter()
        .filter(|op| !matches!(op, Op::Select { .. }))
        .collect();
    let rate = |cache: &Cache| -> f64 {
        let (t, mut n) = (Instant::now(), 0u64);
        while t.elapsed() < Duration::from_millis(250) {
            let _ = std::hint::black_box(cache.execute(&command));
            n += 1;
        }
        n as f64 / t.elapsed().as_secs_f64()
    };
    let alone = rate(&target.cache);
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| {
        let mut writer_side = Target {
            cache: target.cache.clone(),
            taus: TauLog::default(),
        };
        let (stop, writes) = (&stop, &writes);
        let writer = scope.spawn(move || {
            for op in writes.iter().cycle() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let _ = writer_side.apply(op);
            }
        });
        let contended = rate(&target.cache);
        stop.store(true, Ordering::Release);
        writer.join().expect("the writer does not panic");
        contended
    });
    Ok(if alone > 0.0 { contended / alone } else { 0.0 })
}

/// Pass 2: the same writes with the workload's automata registered; what
/// they add to an insert-and-quiesce is the dispatch layer's delivery cost.
fn dispatch_pass(
    replay: &Replay,
    clock: &Clock,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<Vec<pscache::Notification>, String> {
    if replay.automata.is_empty() {
        return Ok(Vec::new());
    }
    let mut target = Target::new(CacheBuilder::new(), replay)?;
    let (tx, rx) = crossbeam::channel::unbounded();
    for source in &replay.automata {
        target
            .cache
            .register_automaton_with_notifier(source, tx.clone())
            .map_err(|e| format!("registering an automaton in-process: {e}"))?;
    }
    let quiesce = Duration::from_secs(5);
    // The baseline is insert-and-quiesce with nobody listening, so the
    // quiesce call itself is not charged to delivery.
    let mut bare = Target::new(CacheBuilder::new(), replay)?;
    let started = Instant::now();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for op in replay
        .ops
        .iter()
        .filter(|op| !matches!(op, Op::Select { .. }))
    {
        if started.elapsed() > PASS_BUDGET {
            break;
        }
        let id = spans.new_op();
        let (r, ix) = spans.time(clock, "pscache.dispatch.insert_and_deliver", -1, id, || {
            target.apply(op).map(|_| target.cache.quiesce(quiesce))
        });
        r?;
        let s = spans.spans[ix as usize];
        with.push(s.end_ns - s.start_ns);
        let t = clock.now_ns();
        bare.apply(op).map(|_| bare.cache.quiesce(quiesce))?;
        without.push(clock.now_ns() - t);
    }
    layers.set(
        "pscache.dispatch.deliver_ns",
        (p50(&mut with) - p50(&mut without)).max(0.0),
    );
    let notes = rx.try_iter().collect();
    target.cache.shutdown();
    bare.cache.shutdown();
    Ok(notes)
}

/// The notification codec on the notifications the replay produced.
fn notification_codec(
    notes: &[pscache::Notification],
    clock: &Clock,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) {
    for n in notes.iter().take(20_000) {
        let id = spans.new_op();
        let message = ServerMessage::Notification {
            automaton: n.automaton.0,
            values: n.values.clone(),
            at: n.at,
        };
        spans.time(clock, "psrpc.message.notification_codec", -1, id, || {
            let wire = message.encode();
            std::hint::black_box(ServerMessage::decode(&wire)).is_ok()
        });
    }
    layers.set(
        "psrpc.message.notification_codec_ns",
        spans.p50_ns("psrpc.message.notification_codec"),
    );
}

/// The GAPL compiler, prefilter and VM on their own.
fn gapl_pass(
    replay: &Replay,
    clock: &Clock,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let Some(first) = replay.automata.first() else {
        return Ok(());
    };
    for source in replay.automata.iter().take(200) {
        let id = spans.new_op();
        spans.time(clock, "gapl.compile", -1, id, || {
            std::hint::black_box(gapl::compile(source)).is_ok()
        });
    }
    layers.set("gapl.compile_us", spans.p50_ns("gapl.compile") / 1e3);

    // The first automaton against every tuple the replay inserts into the
    // topic it subscribes to.
    let program =
        Arc::new(gapl::compile(first).map_err(|e| format!("compiling an automaton: {e}"))?);
    let topic = program
        .topics()
        .first()
        .map(|t| (*t).to_owned())
        .unwrap_or_default();
    let tables = CacheBuilder::new().build();
    for ddl in &replay.ddl {
        tables.execute(ddl).map_err(|e| format!("{ddl}: {e}"))?;
    }
    let schema = tables.schema(&topic).map_err(|e| e.to_string())?;
    tables.shutdown();
    let tuples: Vec<Tuple> = replay
        .ops
        .iter()
        .flat_map(|op| match op {
            Op::Insert { table, values, .. } if *table == topic => vec![values.clone()],
            Op::Batch { table, rows, .. } if *table == topic => rows.clone(),
            _ => Vec::new(),
        })
        .take(20_000)
        .enumerate()
        .filter_map(|(i, values)| Tuple::new(Arc::clone(&schema), values, i as u64 + 1).ok())
        .collect();
    let mut vm = Vm::new(Arc::clone(&program));
    let mut host = RecordingHost::default();
    vm.run_initialization(&mut host)
        .map_err(|e| format!("initialising an automaton: {e}"))?;
    let mut events = 0u64;
    for tuple in &tuples {
        let id = spans.new_op();
        let (hit, _) = spans.time(clock, "gapl.prefilter.matches", -1, id, || {
            program.prefilter().matches(tuple)
        });
        if hit {
            let (r, _) = spans.time(clock, "gapl.vm.run_behavior", -1, id, || {
                vm.run_behavior(&topic, tuple, &mut host)
            });
            r.map_err(|e| format!("running an automaton: {e}"))?;
            events += 1;
        }
    }
    layers.set(
        "gapl.prefilter.matches_ns",
        spans.p50_ns("gapl.prefilter.matches"),
    );
    layers.set(
        "gapl.vm.run_behavior_ns",
        spans.p50_ns("gapl.vm.run_behavior"),
    );
    layers.set(
        "gapl.vm.instructions_per_event",
        vm.instructions_executed() as f64 / events.max(1) as f64,
    );
    Ok(())
}

/// Pass 3: the same writes against a durable cache (automatic checkpoints
/// off, so none lands inside a timed insert), then a checkpoint of the
/// steady-state tables and a recovery of the directory.
fn wal_pass(
    replay: &Replay,
    scratch: &Path,
    clock: &Clock,
    in_memory_ns: &WriteTimes,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let dir = crate::child::fresh_dir(scratch, "layers-wal")?;
    let mut target = Target::new(
        CacheBuilder::new().durability(&dir).checkpoint_every(0),
        replay,
    )?;
    // Preload rows are checkpointed away so that bytes-per-row and the
    // replay count below cover the replayed operations only.
    target
        .cache
        .checkpoint()
        .map_err(|e| format!("checkpointing the preload: {e}"))?;
    let before = target.cache.obs().snapshot();
    let started = Instant::now();
    let (mut deltas, mut rows) = (Vec::new(), 0u64);
    for (i, op) in replay
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| !matches!(op, Op::Select { .. }))
    {
        if started.elapsed() > PASS_BUDGET {
            break;
        }
        let id = spans.new_op();
        let (r, ix) = spans.time(clock, "pscache.wal.durable_insert", -1, id, || {
            target.apply(op)
        });
        r?;
        let s = spans.spans[ix as usize];
        deltas.push((s.end_ns - s.start_ns).saturating_sub(in_memory_ns[i]));
        if let Op::Insert { table, .. } | Op::Batch { table, .. } = op {
            if target.cache.table_kind(table).ok() == Some(pscache::TableKind::Persistent) {
                rows += rows_of(op);
            }
        }
    }
    let after = target.cache.obs().snapshot();
    layers.set("pscache.wal.durable_delta_ns", p50(&mut deltas));
    layers.set(
        "pscache.wal.append_ns",
        crate::measure::delta_p50(&before, &after, &["wal_append_ns"]),
    );
    layers.set(
        "pscache.wal.wait_durable_ns",
        crate::measure::delta_p50(&before, &after, &["wal_commit_wait_ns"]),
    );
    let log_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    layers.set(
        "pscache.wal.bytes_per_row",
        log_bytes as f64 / rows.max(1) as f64,
    );

    target.cache.shutdown();
    drop(target);
    let id = spans.new_op();
    let (recovered, ix) = spans.time(clock, "pscache.wal.recover", -1, id, || {
        Cache::recover(&dir)
    });
    let recovered = recovered.map_err(|e| format!("recovering {}: {e}", dir.display()))?;
    let s = spans.spans[ix as usize];
    layers.set(
        "pscache.wal.recovery_ms",
        (s.end_ns - s.start_ns) as f64 / 1e6,
    );
    layers.set(
        "pscache.wal.replayed_records",
        recovered.wal_stats().map_or(0, |s| s.replayed) as f64,
    );
    let mut checkpoints = Vec::new();
    for _ in 0..3 {
        let (r, ix) = spans.time(clock, "pscache.wal.checkpoint", -1, id, || {
            recovered.checkpoint()
        });
        r.map_err(|e| format!("checkpointing: {e}"))?;
        let s = spans.spans[ix as usize];
        checkpoints.push(s.end_ns - s.start_ns);
    }
    layers.set("pscache.wal.checkpoint_ms", p50(&mut checkpoints) / 1e6);
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The wire floor and what the RPC layer adds to an in-process call: pings,
/// then the replay's own operations one at a time, against a fresh
/// in-memory server child.
fn reactor_pass(replay: &Replay, layers: &mut LayerValues) -> Result<(), String> {
    let server = ServerProc::spawn(&ServeOpts::default())?;
    let client = crate::run::connect(server.rpc, false)?;
    let mut pings = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(t.elapsed().as_nanos() as u64);
    }
    layers.set("psrpc.reactor.ping_rtt_us", p50(&mut pings) / 1e3);

    for ddl in &replay.ddl {
        client.execute(ddl).map_err(|e| format!("{ddl}: {e}"))?;
    }
    let mut local = Target::new(CacheBuilder::new(), replay)?;
    // The server stamps rows with its own clock, so its `since τ` comes
    // from its own replies.
    let mut remote_taus = TauLog::default();
    let mut remote = |op: &Op| -> Result<u64, String> {
        let request = remote_taus.request(op);
        let t = Instant::now();
        let reply = client
            .begin_request(request)
            .and_then(psrpc::PendingReply::wait);
        let ns = t.elapsed().as_nanos() as u64;
        remote_taus.record(op, &reply.map_err(|e| format!("the reactor pass: {e}"))?);
        Ok(ns)
    };
    for op in preload_ops(replay) {
        remote(&op)?;
    }
    // The path the budget is drawn up for — the workload's writes, or its
    // selects — one operation at a time, on both sides.
    let wanted = |op: &Op| matches!(op, Op::Select { .. }) == (replay.path == Path_::Select);
    let started = Instant::now();
    let (mut remote_ns, mut local_ns) = (Vec::new(), Vec::new());
    for op in replay.ops.iter() {
        if started.elapsed() > PASS_BUDGET {
            break;
        }
        let t = Instant::now();
        local.apply(op)?;
        let l = t.elapsed().as_nanos() as u64;
        let r = remote(op)?;
        if wanted(op) {
            local_ns.push(l);
            remote_ns.push(r);
        }
    }
    layers.set(
        "psrpc.reactor.rpc_overhead_us",
        (p50(&mut remote_ns) - p50(&mut local_ns)).max(0.0) / 1e3,
    );
    local.cache.shutdown();
    drop(client);
    server.shutdown();
    Ok(())
}

/// Draw up the budget: the end-to-end median of the workload's path against
/// the sum of the layer medians on the steps that block it.
pub fn budget(path: Path_, e2e_p50_us: f64, layers: &mut LayerValues) {
    let us = |name: &str| layers.get(name) / 1e3;
    let wire = us("psrpc.message.encode_request_ns") + layers.get("psrpc.reactor.ping_rtt_us");
    let attributed = wire
        + us("pscache.obs.rpc_queue_ns_p50")
        + match path {
            // A tuple is published before its log record is durable, and the
            // reply is not on this path: execution less the commit wait, then
            // delivery.
            Path_::Notify => {
                (us("pscache.obs.rpc_exec_ns_p50") - us("pscache.obs.wal_commit_wait_ns_p50"))
                    .max(0.0)
                    + us("pscache.obs.dispatch_queue_ns_p50")
                    + us("gapl.vm.run_behavior_ns")
                    + us("psrpc.message.notification_codec_ns")
            }
            Path_::Ack | Path_::Select => {
                us("pscache.obs.rpc_exec_ns_p50")
                    + us("pscache.obs.rpc_flush_ns_p50")
                    + us("psrpc.message.decode_reply_ns")
            }
        };
    layers.set("budget.e2e_p50_us", e2e_p50_us);
    layers.set("budget.attributed_us", attributed);
    layers.set(
        "budget.unattributed_ratio",
        if e2e_p50_us > 0.0 {
            (e2e_p50_us - attributed) / e2e_p50_us
        } else {
            0.0
        },
    );
}
