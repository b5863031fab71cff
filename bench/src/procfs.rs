//! Process and host counters read from `/proc`, and the Prometheus text
//! the service serves on `GET /v1/metrics`.

use std::collections::HashMap;
use std::net::SocketAddr;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// these; Linux fixes the user-visible value at 100 on every architecture.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may hold spaces; fields are counted after its `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLK_TCK
}

fn status_field(name: &str) -> u64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size, KiB.
pub fn rss_kb() -> u64 {
    status_field("VmRSS:")
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Context switches since boot, whole host. A thread's own count dies with
/// the thread, and the REST front end spawns one per connection, so the
/// host-wide counter on an otherwise idle box is the usable one.
pub fn host_context_switches() -> u64 {
    read("/proc/stat")
        .lines()
        .find_map(|l| l.strip_prefix("ctxt "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Sockets in TIME_WAIT with `addr`'s port on either side.
pub fn time_wait_sockets(addr: SocketAddr) -> u64 {
    let port = format!(":{:04X}", addr.port());
    read("/proc/net/tcp")
        .lines()
        .skip(1)
        .filter(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            // Columns: sl local remote st ...; state 06 is TIME_WAIT.
            f.len() > 3 && f[3] == "06" && (f[1].ends_with(&port) || f[2].ends_with(&port))
        })
        .count() as u64
}

pub fn kernel_release() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`. The child is
/// waited for.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout this binary was built from, read from its `.git`
/// directory; `unknown` when the checkout is not a git repository.
pub fn git_sha() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = read(&format!("{git}/HEAD"));
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(reference) => {
            let loose = read(&format!("{git}/{reference}"));
            if loose.trim().is_empty() {
                read(&format!("{git}/packed-refs"))
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
                    .unwrap_or_default()
            } else {
                loose.trim().to_string()
            }
        }
        None => head.trim().to_string(),
    };
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha
    }
}

/// Unlabelled samples of a Prometheus text exposition, by metric name.
pub fn parse_metrics(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_unlabelled_samples() {
        let text = "# HELP x y\n# TYPE x counter\nfuncx_tasks_submitted_total 42\n\
                    funcx_queue_depth{endpoint=\"e\",kind=\"task\"} 3\nfuncx_uptime_seconds 1.5\n";
        let m = parse_metrics(text);
        assert_eq!(m.get("funcx_tasks_submitted_total"), Some(&42.0));
        assert_eq!(m.get("funcx_uptime_seconds"), Some(&1.5));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn proc_counters_read_on_this_host() {
        assert!(rss_kb() > 0);
        assert!(threads() >= 1);
        assert!(host_context_switches() > 0);
        assert!(cpu_seconds() >= 0.0);
        assert!(!kernel_release().is_empty());
    }
}
