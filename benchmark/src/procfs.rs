//! What the benchmark reads from `/proc`: CPU time and peak resident set of
//! the server children, and the machine fingerprint printed with every
//! result.

use std::path::Path;
use std::process::Command;

/// `utime + stime` of a process in clock ticks, parsed from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// File-system type of the mount holding `path`, from the text of
/// `/proc/mounts` (longest mount-point prefix wins).
pub fn parse_mount_fstype(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            let under = path == point
                || point == "/"
                || path
                    .strip_prefix(point)
                    .is_some_and(|rest| rest.starts_with('/'));
            under.then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// The CPUs named by a kernel CPU list such as `0-3,8`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                cpus.extend(lo.trim().parse::<usize>().ok()?..=hi.trim().parse().ok()?)
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// CPU time a live process has used so far, in microseconds.
pub fn cpu_us(pid: u32, ticks_per_s: u64) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? * 1_000_000 / ticks_per_s)
}

/// Peak resident set of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kib(&status, "VmHWM")
}

/// `sysconf(_SC_CLK_TCK)` without libc: ask `getconf`, fall back to the
/// value every Linux port uses.
pub fn clock_ticks_per_s() -> u64 {
    command_line("getconf", &["CLK_TCK"])
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
    pub data_dir_fs: String,
    /// How [`crate::child::pin_generator`] split the CPUs.
    pub pinning: String,
}

impl Fingerprint {
    /// `nproc` is the CPU count from before the generator pinned itself.
    pub fn collect(data_dir: &Path, nproc: usize, pinning: &str) -> Fingerprint {
        let unknown = || "unknown".to_owned();
        let data_dir = std::fs::canonicalize(data_dir).unwrap_or_else(|_| data_dir.to_owned());
        Fingerprint {
            nproc,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            data_dir_fs: std::fs::read_to_string("/proc/mounts")
                .ok()
                .and_then(|m| parse_mount_fstype(&m, &data_dir.to_string_lossy()))
                .unwrap_or_else(unknown),
            pinning: pinning.to_owned(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \"data_dir_fs\": {}, \"pinning\": {}}}",
            self.nproc,
            crate::report::json_string(&self.kernel),
            crate::report::json_string(&self.rustc),
            crate::report::json_string(&self.commit),
            crate::report::json_string(&self.data_dir_fs),
            crate::report::json_string(&self.pinning),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (ps bench) serve) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 269 0 0 20 0 11 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1_000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_are_read_in_kib() {
        let status =
            "Name:\tpsbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51_234));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kib(status, "Vm"), None);
    }

    #[test]
    fn the_longest_mount_prefix_names_the_filesystem() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      /dev/vdb /data xfs rw 0 0\n";
        assert_eq!(
            parse_mount_fstype(mounts, "/dev/shm/psbench-1").as_deref(),
            Some("tmpfs")
        );
        assert_eq!(parse_mount_fstype(mounts, "/data").as_deref(), Some("xfs"));
        assert_eq!(
            parse_mount_fstype(mounts, "/database/x").as_deref(),
            Some("ext4")
        );
        assert_eq!(parse_mount_fstype("", "/x"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,8"), Some(vec![0, 1, 2, 8]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_a_peak_rss() {
        let pid = std::process::id();
        assert!(cpu_us(pid, clock_ticks_per_s()).is_some());
        assert!(peak_rss_kib(pid).is_some_and(|kib| kib > 0));
    }
}
