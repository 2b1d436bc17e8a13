//! Process-level resource readings from `/proc`: CPU time, voluntary
//! context switches and peak resident set. Read from outside any layer,
//! at the boundaries of the measured window.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// has reported 100 to userspace on every architecture for decades;
/// there is no `sysconf` without a libc binding.
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary context switches, summed over every thread.
    pub vol_ctxsw: u64,
    /// CPU time the hypervisor gave to someone else while this machine
    /// had work for it (all CPUs, whole machine): the host's share of
    /// any slowness.
    pub steal_s: f64,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_ctxsw: self.vol_ctxsw.saturating_sub(earlier.vol_ctxsw),
            steal_s: self.steal_s - earlier.steal_s,
        }
    }
}

/// Cumulative usage of this process so far. Threads that have already
/// exited no longer contribute their context switches, so snapshots
/// are compared only across windows in which the thread set is fixed.
pub fn usage() -> Usage {
    let (user_s, sys_s) = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_times(&s))
        .unwrap_or((0.0, 0.0));
    let mut vol_ctxsw = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                vol_ctxsw += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
            }
        }
    }
    let steal_s = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0.0);
    Usage {
        user_s,
        sys_s,
        vol_ctxsw,
        steal_s,
    }
}

/// Peak resident set size so far, MiB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// `(utime, stime)` in seconds from a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
fn parse_stat_times(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// Steal time, seconds, from the aggregate `cpu` line of `/proc/stat`
/// (its eighth figure).
fn parse_steal(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / TICKS_PER_SEC)
}

/// The leading integer of `Name:   123 kB`-style lines.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_survive_an_awkward_command_name() {
        let line = "1234 (layer) bench) S 1 1234 1234 0 -1 4194560 900 0 0 0 \
                    250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_times(line), Some((2.5, 0.5)));
        assert_eq!(parse_stat_times("garbage"), None);
    }

    #[test]
    fn steal_is_the_eighth_figure_of_the_aggregate_line() {
        let stat = "cpu  1168014 2818 163130 1861403 9670 0 58247 68090 0 0\n\
                    cpu0 584007 1409 81565 930701 4835 0 29123 34045 0 0\n";
        assert_eq!(parse_steal(stat), Some(680.9));
        assert_eq!(parse_steal("cpu0 1 2 3"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t77\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(77));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let u = usage();
        assert!(u.user_s >= 0.0 && u.sys_s >= 0.0);
        assert!(rss_peak_mb() > 0.0);
    }
}
