//! What `/proc` says about this process and machine: per-thread CPU time,
//! resident memory, hypervisor steal, and which filesystem a path lives on.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time one thread has consumed.
#[derive(Clone, Debug)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u64,
    /// Thread name (`comm`); threads spawned without a name inherit their
    /// creator's.
    pub name: String,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

/// Parses the `(comm, utime + stime)` out of a `/proc/.../stat` line. `comm`
/// may itself contain spaces and parentheses, so split at the *last* `)`.
fn parse_stat(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = stat.get(close + 1..)?.split_whitespace().collect();
    // After the comm field: state is rest[0], utime is field 14 = rest[11].
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((name, (utime + stime) / TICKS_PER_SECOND))
}

/// CPU time of every live thread of this process, sorted by tid.
pub fn threads() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
            continue; // the thread exited between readdir and read
        };
        if let Some((name, cpu_s)) = parse_stat(&stat) {
            out.push(ThreadCpu { tid, name, cpu_s });
        }
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// CPU seconds the calling thread has run, at nanosecond resolution where
/// the kernel exposes `schedstat`, at tick resolution otherwise.
pub fn this_thread_cpu_s() -> f64 {
    if let Ok(s) = fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            return ns as f64 / 1e9;
        }
    }
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, cpu)| cpu)
}

/// User + system CPU seconds of the whole process.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, cpu)| cpu)
}

/// CPU seconds the hypervisor has withheld from this machine since boot
/// (the `steal` column of `/proc/stat`, all CPUs): time a virtual CPU was
/// runnable but the host ran something else.
pub fn machine_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_SECOND)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Current resident set size, kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0)
}

/// Filesystem type of the mount `path` lives on (`tmpfs`, `ext4`, …), from
/// the longest matching mount point in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_comm_parses() {
        let line = "42 (sc (replica) 1) S 1 42 42 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        let (name, cpu) = parse_stat(line).unwrap();
        assert_eq!(name, "sc (replica) 1");
        assert!((cpu - 3.0).abs() < 1e-9);
    }

    #[test]
    fn own_process_is_visible() {
        assert!(!threads().is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
