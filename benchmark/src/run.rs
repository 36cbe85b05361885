//! One run of one workload: make the inputs, set the system up (several
//! times, for a steady `setup_s`), drive it, judge it.

use std::path::PathBuf;
use std::time::Instant;

use gapl::event::Scalar;
use psrpc::client::CacheClient;

use crate::layers::Path_;
use crate::report::{LayerValues, RunOutcome};
use crate::spec::SETUPS_PER_RUN;
use crate::stats::median;
use crate::trace::SpanLog;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// Seconds of measured segments.
    pub seconds: f64,
    /// Warm-up before the first measured segment.
    pub warmup_s: f64,
    /// Times to set up (the last set-up is the one driven).
    pub setups: usize,
    /// Stamp wire trace ids on every request (the traced half of a
    /// `--trace 1` run).
    pub wire_trace: bool,
    /// Where server children keep their durability directories.
    pub data_root: PathBuf,
}

impl RunOpts {
    pub fn new(workload: &str, seed: u64, seconds: f64, data_root: PathBuf) -> RunOpts {
        RunOpts {
            workload: workload.to_owned(),
            seed,
            seconds,
            warmup_s: crate::spec::WARMUP_S,
            setups: SETUPS_PER_RUN,
            wire_trace: false,
            data_root,
        }
    }
}

/// A workload: how its inputs are made, how the system is set up for it,
/// and how it is driven and judged. `drive` owns the environment and ends
/// every process in it.
pub trait Workload {
    type Inputs;
    type Env;
    fn inputs(opts: &RunOpts) -> Self::Inputs;
    /// Operations' worth of input generated (for `generate_ns_per_op`).
    fn input_ops(inputs: &Self::Inputs) -> u64;
    /// The workload's first operations, for the in-process layer replay.
    fn replay(inputs: &Self::Inputs) -> crate::layers::Replay;
    fn setup(inputs: &Self::Inputs, opts: &RunOpts) -> Result<Self::Env, String>;
    fn drive(
        inputs: &Self::Inputs,
        env: Self::Env,
        opts: &RunOpts,
        out: &mut RunOutcome,
    ) -> Result<(), String>;
}

/// Call `$f::<W>($($arg),*)` for the workload type `W` that `$opts` names.
macro_rules! for_workload {
    ($opts:expr, $f:ident($($arg:expr),*)) => {
        match $opts.workload.as_str() {
            "cep_fanout" => $f::<crate::w_fanout::Fanout>($($arg),*),
            "durable_ingest" => $f::<crate::w_ingest::Ingest>($($arg),*),
            "window_select" => $f::<crate::w_select::Select>($($arg),*),
            "mixed_cep" => $f::<crate::w_mixed::Mixed>($($arg),*),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                crate::spec::WORKLOADS.join(", ")
            )),
        }
    };
}

/// Run the workload `opts` names.
pub fn run(opts: &RunOpts) -> Result<RunOutcome, String> {
    for_workload!(opts, run_with(opts))
}

/// Replay the first operations of the workload `opts` names through each
/// layer, in-process.
pub fn replay_layers(
    opts: &RunOpts,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<(), String> {
    for_workload!(opts, replay_with(opts, layers, spans))
}

fn replay_with<W: Workload>(
    opts: &RunOpts,
    layers: &mut LayerValues,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let replay = W::replay(&W::inputs(opts));
    crate::layers::replay_layers(&replay, &opts.data_root, layers, spans)
}

/// The path the budget of the workload `opts` names is drawn up for, and
/// its end-to-end median in `outcome`.
pub fn budget_path(opts: &RunOpts, outcome: &RunOutcome) -> (Path_, f64) {
    match opts.workload.as_str() {
        "durable_ingest" => (Path_::Ack, outcome.e2e.ack_p50_us),
        "window_select" => (Path_::Select, outcome.e2e.select_p50_us),
        _ => (Path_::Notify, outcome.e2e.notify_p50_us),
    }
}

fn run_with<W: Workload>(opts: &RunOpts) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let t = Instant::now();
    let inputs = W::inputs(opts);
    let gen_ns = t.elapsed().as_nanos() as f64;
    out.layers.set(
        "workloads.generate_ns_per_op",
        gen_ns / W::input_ops(&inputs).max(1) as f64,
    );

    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut env = None;
    for _ in 0..opts.setups.max(1) {
        // The previous set-up's servers are gone before the next starts.
        drop(env.take());
        let _ = std::fs::remove_dir_all(&opts.data_root);
        let t = Instant::now();
        env = Some(W::setup(&inputs, opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.e2e.setup_s = median(&setup_s);
    let result = W::drive(
        &inputs,
        env.expect("at least one set-up ran"),
        opts,
        &mut out,
    );
    let _ = std::fs::remove_dir_all(&opts.data_root);
    result.map(|()| out)
}

/// Connect a client to a server child.
pub fn connect(addr: std::net::SocketAddr, wire_trace: bool) -> Result<CacheClient, String> {
    let client = CacheClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if wire_trace {
        client.set_trace_base(Some(u64::from(std::process::id()) << 32));
    }
    Ok(client)
}

/// Shorthand for the error text of a failed set-up step.
pub fn step<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Insert `rows` rows (built by `row`) into `table` in batches of 1,024;
/// returns every row's timestamp.
pub fn preload(
    client: &CacheClient,
    table: &str,
    upsert: bool,
    rows: usize,
    mut row: impl FnMut(u64) -> Vec<Scalar>,
) -> Result<Vec<u64>, String> {
    let mut tstamps = Vec::with_capacity(rows);
    let mut next = 0u64;
    while (next as usize) < rows {
        let n = (rows - next as usize).min(1_024);
        let batch: Vec<Vec<Scalar>> = (next..next + n as u64).map(&mut row).collect();
        let reply = if upsert {
            client.upsert_batch(table, batch)
        } else {
            client.insert_batch(table, batch)
        };
        tstamps.extend(step("preloading", reply)?);
        next += n as u64;
    }
    Ok(tstamps)
}
