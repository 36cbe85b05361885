//! `psbench`: the repository's end-to-end benchmark. See `README.md` in
//! this directory and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! psbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! psbench trace --workload W [--seed N] [--seconds S]     the same as --trace 1
//! psbench repeat [--runs N] [--seconds S] [--seed N]      two sets of runs, held against the bounds
//! psbench smoke                                           all four workloads with oracles, briefly
//! psbench manifest                                        print BENCHMARK.json
//! psbench serve …                                         (internal) host the system under test
//! ```

mod child;
mod gen;
mod lane;
mod layers;
mod measure;
mod pacer;
mod procfs;
mod repeat;
mod report;
mod run;
mod spec;
mod stats;
mod ticks;
mod trace;
mod w_fanout;
mod w_ingest;
mod w_mixed;
mod w_select;

use std::path::{Path, PathBuf};
use std::time::Duration;

use procfs::Fingerprint;
use report::RunOutcome;
use run::RunOpts;

/// The benchmark's own directory, from the repository root or from inside
/// it; everything the benchmark writes goes under `out/` there.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Command-line options shared by the run-like subcommands.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    data_dir: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        runs: 3,
        data_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = number(value()?)? as u64,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--runs" => cli.runs = number(value()?)? as usize,
            "--data-dir" => cli.data_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

impl Cli {
    fn opts(&self, workload: &str) -> RunOpts {
        let root = self.data_dir.clone().unwrap_or_else(out_dir);
        RunOpts::new(
            workload,
            self.seed,
            self.seconds,
            root.join(format!("data-{}", std::process::id())),
        )
    }
}

/// One traced run: the workload driven twice for a quarter of the time each
/// (wire trace ids off, then on), then its first operations replayed
/// in-process through each layer. End-to-end numbers are never taken here.
fn run_traced(opts: &RunOpts, fp: &Fingerprint) -> Result<RunOutcome, String> {
    let quarter = RunOpts {
        seconds: opts.seconds / 4.0,
        setups: 1,
        ..opts.clone()
    };
    let untraced = run::run(&quarter)?;
    let mut traced = run::run(&RunOpts {
        wire_trace: true,
        ..quarter
    })?;
    let (mut layers, mut spans) = (
        report::LayerValues::default(),
        std::mem::take(&mut traced.spans),
    );
    run::replay_layers(opts, &mut layers, &mut spans)?;
    // What the driven server reported wins over the in-process estimate of
    // the same name (recovery after a real kill, for one).
    for m in &spec::PER_LAYER {
        let v = traced.layers.get(m.name);
        if v != 0.0 {
            layers.set(m.name, v);
        }
    }
    let (path, e2e_p50) = run::budget_path(opts, &traced);
    layers::budget(path, e2e_p50, &mut layers);
    layers.set("trace.untraced_ops_per_s", untraced.e2e.ops_per_s);
    layers.set("trace.traced_ops_per_s", traced.e2e.ops_per_s);
    if untraced.e2e.ops_per_s > 0.0 {
        layers.set(
            "trace.overhead_ratio",
            traced.e2e.ops_per_s / untraced.e2e.ops_per_s,
        );
    }
    layers.set("trace.spans", spans.spans.len() as f64);
    let path = out_dir().join(format!("trace-{}.json", opts.workload));
    spans.write(&path, &opts.workload, fp, 60_000)?;
    eprintln!(
        "psbench: {} spans, the first 60000 written to {}",
        spans.spans.len(),
        path.display()
    );
    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    Ok(RunOutcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        errors,
        e2e: traced.e2e,
        layers,
        spans,
    })
}

/// Kill the run if it hangs: the driver allows 180 s, and a wedged server
/// must not hold its generator past that.
fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("psbench: no result after {limit:?}; killing the servers and giving up");
        child::kill_all();
        std::process::exit(3);
    });
}

fn run_once(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.as_deref().ok_or("--workload is required")?;
    let opts = cli.opts(workload);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinning = child::pin_generator();
    arm_watchdog(Duration::from_secs_f64(cli.seconds + 100.0).min(Duration::from_secs(170)));
    let fp = Fingerprint::collect(
        opts.data_root.parent().unwrap_or(Path::new(".")),
        nproc,
        &pinning,
    );
    eprintln!("psbench: fingerprint {}", fp.to_json());
    if cli.data_dir.is_some() {
        eprintln!(
            "psbench: --data-dir given: this result is NOT comparable with the committed bounds"
        );
    }
    let outcome = if cli.trace {
        run_traced(&opts, &fp)?
    } else {
        run::run(&opts)?
    };
    // The traced run's in-process durable pass works under the data root too.
    let _ = std::fs::remove_dir_all(&opts.data_root);
    report::print_table(workload, &outcome, cli.trace);
    println!("{}", report::result_line(&outcome, cli.trace));
    Ok(outcome.correct())
}

/// All four workloads with their oracles in well under 20 s; numbers are
/// not reported.
fn smoke(cli: &Cli) -> Result<bool, String> {
    child::pin_generator();
    arm_watchdog(Duration::from_secs(120));
    let mut all_ok = true;
    for workload in spec::WORKLOADS {
        let opts = RunOpts {
            seconds: 2.0,
            warmup_s: 0.3,
            setups: 1,
            ..cli.opts(workload)
        };
        let outcome = run::run(&opts)?;
        let ok = outcome.correct();
        eprintln!(
            "psbench smoke: {workload}: {} ({} operations)",
            if ok { "ok" } else { "FAILED" },
            outcome.attempted
        );
        for e in &outcome.errors {
            eprintln!("  oracle: {e}");
        }
        all_ok &= ok;
    }
    Ok(all_ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("--smoke") => ("smoke", &args[1..]),
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match command {
        "serve" => child::ServeOpts::from_args(rest)
            .and_then(|o| child::serve_main(&o))
            .map(|()| true),
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        "run" => parse(rest).and_then(|cli| run_once(&cli)),
        "trace" => parse(rest).and_then(|cli| run_once(&Cli { trace: true, ..cli })),
        "repeat" => parse(rest).and_then(|cli| {
            eprintln!("psbench: pinning: {}", child::pin_generator());
            repeat::repeat(
                &cli.workload,
                cli.runs,
                cli.seed,
                cli.seconds,
                &|w, seed| {
                    run::run(&RunOpts {
                        seed,
                        ..cli.opts(w)
                    })
                },
            )
        }),
        "smoke" => parse(rest).and_then(|cli| smoke(&cli)),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("psbench: {e}");
            std::process::exit(2);
        }
    }
}
