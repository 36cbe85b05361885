//! The system under test, hosted in child processes.
//!
//! `psbench serve` is this same binary re-executed: it opens a cache with
//! the product defaults of `CacheBuilder`, serves it with `ReactorServer`
//! on an ephemeral loopback port, prints one `READY` line naming its
//! addresses, and runs until its standard input closes — so a generator
//! that dies takes its servers with it. The parent side ([`ServerProc`])
//! reads the child's CPU time and peak RSS from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pscache::CacheBuilder;
use psrpc::ReactorServer;

use crate::procfs;

/// How a server child is configured; everything not named here is the
/// product default.
#[derive(Debug, Clone, Default)]
pub struct ServeOpts {
    /// Durability directory (`SyncPolicy::Group`).
    pub durable: Option<PathBuf>,
    /// Logged records between checkpoints; `None` is the product default.
    pub checkpoint_every: Option<u64>,
    /// Serve the WAL stream to followers on an ephemeral port.
    pub replicate: bool,
    /// Run as a follower of the primary's replication address.
    pub follow: Option<String>,
}

impl ServeOpts {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec!["serve".to_owned()];
        if let Some(dir) = &self.durable {
            args.push("--durable".into());
            args.push(dir.to_string_lossy().into_owned());
        }
        if let Some(records) = self.checkpoint_every {
            args.push("--checkpoint-every".into());
            args.push(records.to_string());
        }
        if self.replicate {
            args.push("--replicate".into());
        }
        if let Some(addr) = &self.follow {
            args.push("--follow".into());
            args.push(addr.clone());
        }
        args
    }

    pub fn from_args(args: &[String]) -> Result<ServeOpts, String> {
        let mut opts = ServeOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--durable" => {
                    opts.durable = Some(it.next().ok_or("--durable needs a directory")?.into())
                }
                "--checkpoint-every" => {
                    let records = it.next().and_then(|r| r.parse().ok());
                    opts.checkpoint_every =
                        Some(records.ok_or("--checkpoint-every needs a record count")?);
                }
                "--replicate" => opts.replicate = true,
                "--follow" => {
                    opts.follow = Some(it.next().ok_or("--follow needs an address")?.clone())
                }
                other => return Err(format!("serve: unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// Entry point of the `psbench serve` child.
pub fn serve_main(opts: &ServeOpts) -> Result<(), String> {
    let mut builder = CacheBuilder::new();
    if let Some(dir) = &opts.durable {
        builder = builder.durability(dir);
    }
    if let Some(records) = opts.checkpoint_every {
        builder = builder.checkpoint_every(records);
    }
    if opts.replicate {
        builder = builder.replicate_to("127.0.0.1:0");
    }
    if let Some(addr) = &opts.follow {
        builder = builder.follow(addr.as_str());
    }
    let cache = builder
        .open()
        .map_err(|e| format!("opening the cache: {e}"))?;
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0")
        .map_err(|e| format!("binding the RPC server: {e}"))?;
    let repl = cache
        .repl_addr()
        .map_or_else(|| "-".to_owned(), |a| a.to_string());
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "READY rpc={} repl={repl}", server.local_addr())
            .and_then(|()| out.flush())
            .map_err(|e| format!("announcing readiness: {e}"))?;
    }
    // Serve until the parent says quit or goes away (EOF).
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    server.shutdown();
    cache.shutdown();
    Ok(())
}

/// A running server child, owned by the generator.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// RPC address clients connect to.
    pub rpc: SocketAddr,
    /// Replication address followers attach to, when serving one.
    pub repl: Option<String>,
}

/// The CPUs server children run on, once [`pin_generator`] has split the
/// machine; `None` when it could not.
static SERVER_CPUS: OnceLock<Option<String>> = OnceLock::new();

/// Give the generator one CPU and the servers the rest, so that neither
/// steals the other's cycles and every wake-up between server threads stays
/// off the generator's CPU — on a two-vCPU virtual machine that alone
/// removed a bimodal 2x spread from the latency medians. Uses `taskset`
/// (the standard library cannot set affinity); with one CPU, or without
/// `taskset`, nothing is pinned. Call before any thread is spawned: threads
/// inherit the affinity of the thread that creates them. Returns a
/// description for the fingerprint.
pub fn pin_generator() -> String {
    let plan = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let cpus = procfs::parse_cpu_list(list.trim())?;
            let (generator, servers) = cpus.split_first()?;
            (!servers.is_empty()).then(|| (generator.to_string(), join_cpus(servers)))
        })
        .filter(|(generator, _)| {
            Command::new("taskset")
                .args(["-cp", generator, &std::process::id().to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        });
    let description = match &plan {
        Some((generator, servers)) => {
            format!("generator on cpu {generator}, servers on cpu {servers}")
        }
        None => "none".to_owned(),
    };
    let _ = SERVER_CPUS.set(plan.map(|(_, servers)| servers));
    description
}

fn join_cpus(cpus: &[usize]) -> String {
    cpus.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Pids of the live server children, for [`kill_all`].
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// SIGKILL every live server child: the watchdog's last resort when a run
/// hangs. The owners' pending requests then fail and unwind normally.
pub fn kill_all() {
    let pids = CHILDREN.lock().map(|c| c.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }
}

const READY_TIMEOUT: Duration = Duration::from_secs(20);
const QUIT_TIMEOUT: Duration = Duration::from_secs(10);

impl ServerProc {
    /// Re-execute this binary as `psbench serve` and wait for its `READY`
    /// line.
    pub fn spawn(opts: &ServeOpts) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating psbench: {e}"))?;
        // With the generator pinned to one CPU, the servers get the others.
        let mut command = match SERVER_CPUS.get().and_then(Option::as_deref) {
            Some(cpus) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", cpus]).arg(exe);
                taskset
            }
            None => Command::new(exe),
        };
        let mut child = command
            .args(opts.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let ready = rx
            .recv_timeout(READY_TIMEOUT)
            .ok()
            .and_then(|l| parse_ready(&l));
        if ready.is_none() {
            // Ends the reader too: it is blocked on the child's stdout.
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = reader.join();
        let (rpc, repl) = ready.ok_or("the server child did not report READY")?;
        if let Ok(mut children) = CHILDREN.lock() {
            children.push(child.id());
        }
        Ok(ServerProc {
            child,
            stdin,
            rpc,
            repl,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time used so far, microseconds (0 once the child is gone).
    pub fn cpu_us(&self, ticks_per_s: u64) -> u64 {
        procfs::cpu_us(self.pid(), ticks_per_s).unwrap_or(0)
    }

    /// Peak resident set so far, KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        procfs::peak_rss_kib(self.pid()).unwrap_or(0)
    }

    /// Ask the child to shut down cleanly and wait for it; kill it if it
    /// does not go within the timeout.
    pub fn shutdown(mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + QUIT_TIMEOUT;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill_and_wait();
    }

    /// SIGKILL the child — the crash of the kill-and-recover oracle.
    pub fn kill(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut children) = CHILDREN.lock() {
            children.retain(|&pid| pid != self.child.id());
        }
    }
}

impl Drop for ServerProc {
    /// No path out of the generator — early return, failed oracle, panic —
    /// may leave a server behind.
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

fn parse_ready(line: &str) -> Option<(SocketAddr, Option<String>)> {
    let mut words = line.split_ascii_whitespace();
    if words.next()? != "READY" {
        return None;
    }
    let rpc = words.next()?.strip_prefix("rpc=")?.parse().ok()?;
    let repl = words.next()?.strip_prefix("repl=")?;
    Some((rpc, (repl != "-").then(|| repl.to_owned())))
}

/// A fresh, empty scratch directory under `root` for one server's data.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_lines_parse() {
        let (rpc, repl) = parse_ready("READY rpc=127.0.0.1:4000 repl=127.0.0.1:4001\n").unwrap();
        assert_eq!(rpc.port(), 4000);
        assert_eq!(repl.as_deref(), Some("127.0.0.1:4001"));
        let (_, repl) = parse_ready("READY rpc=127.0.0.1:4000 repl=-").unwrap();
        assert_eq!(repl, None);
        assert!(parse_ready("").is_none());
        assert!(parse_ready("READY rpc=nonsense repl=-").is_none());
    }

    #[test]
    fn serve_options_round_trip_through_the_command_line() {
        let opts = ServeOpts {
            durable: Some("/tmp/x y".into()),
            checkpoint_every: Some(100),
            replicate: true,
            follow: Some("127.0.0.1:9".into()),
        };
        let args = opts.to_args();
        assert_eq!(args[0], "serve");
        let back = ServeOpts::from_args(&args[1..]).unwrap();
        assert_eq!(back.durable, opts.durable);
        assert_eq!(back.checkpoint_every, Some(100));
        assert!(back.replicate);
        assert_eq!(back.follow, opts.follow);
        assert!(ServeOpts::from_args(&["--bogus".to_owned()]).is_err());
    }
}
