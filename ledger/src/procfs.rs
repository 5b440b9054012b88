//! `/proc` readers, split into pure parsers (unit-tested on captured
//! fixtures) and thin file-reading wrappers.
//!
//! All readings are taken *on the measuring thread at slice boundaries*:
//! a sampler thread would compete with the workload for the two vCPUs
//! this benchmark was designed on.

use std::fs;

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`; 100 on
/// every Linux this runs on).
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set, "high water mark") in KiB from
/// `/proc/<pid>/status` text.
pub(crate) fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds — the first field of a `schedstat` file.
pub(crate) fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Aggregate CPU ticks from the first (`cpu `) line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SystemCpu {
    /// Ticks spent not idle: user, nice, system, irq, softirq, steal.
    pub busy: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks: busy plus idle and iowait.
    pub total: u64,
}

/// Parse the aggregate `cpu` line of `/proc/stat` text.
pub(crate) fn parse_stat_cpu(stat: &str) -> Option<SystemCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map_while(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user/nice.
    let [user, nice, system, idle, iowait, irq, softirq, steal] = *f.get(..8)? else {
        return None;
    };
    let busy = user + nice + system + irq + softirq + steal;
    Some(SystemCpu {
        busy,
        steal,
        total: busy + idle + iowait,
    })
}

/// Peak resident set of this process so far in MiB (0 when unreadable).
pub(crate) fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time of this process in nanoseconds: on-CPU time summed over
/// every live thread's `schedstat` (nanosecond resolution, where
/// `/proc/self/stat`'s `utime + stime` only has 10 ms ticks). Threads
/// that exit between two readings drop out of the sum, so callers take
/// both readings while the thread set is stable.
pub(crate) fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat_run_ns(&s))
        .sum()
}

/// Current aggregate system CPU ticks (zeros when unreadable).
pub(crate) fn system_cpu() -> SystemCpu {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

/// What the rest of the machine did during a phase, from two
/// [`SystemCpu`] readings and this process's own CPU time:
/// `(other_cpu_share, steal_share)`, both as a share of all CPU time
/// available in the interval.
pub(crate) fn contention(before: SystemCpu, after: SystemCpu, own_cpu_ns: u64) -> (f64, f64) {
    let total = after.total.saturating_sub(before.total) as f64;
    if total == 0.0 {
        return (0.0, 0.0);
    }
    let busy = after.busy.saturating_sub(before.busy) as f64;
    let steal = after.steal.saturating_sub(before.steal) as f64;
    let own_ticks = own_cpu_ns as f64 / 1e9 * USER_HZ;
    (((busy - own_ticks) / total).max(0.0), steal / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fixture_yields_vm_hwm() {
        let status = include_str!("../fixtures/proc_self_status.txt");
        assert_eq!(parse_vm_hwm_kib(status), Some(48_212));
        assert_eq!(parse_vm_hwm_kib("Name:\tledger\nVmRSS:\t 41976 kB\n"), None);
    }

    #[test]
    fn schedstat_fixture_yields_run_ns() {
        let s = include_str!("../fixtures/proc_task_schedstat.txt");
        assert_eq!(parse_schedstat_run_ns(s), Some(18_204_533_911));
        assert_eq!(parse_schedstat_run_ns(""), None);
    }

    #[test]
    fn stat_fixture_yields_busy_steal_total() {
        let stat = include_str!("../fixtures/proc_stat.txt");
        let cpu = parse_stat_cpu(stat).expect("fixture has a cpu line");
        assert_eq!(cpu.steal, 17_359);
        assert_eq!(cpu.busy, 3_818_406 + 1_910 + 756_085 + 8_071 + 17_359);
        assert_eq!(cpu.total, cpu.busy + 4_067_100 + 12_005);
        assert_eq!(parse_stat_cpu("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_cpu("cpu  1 2 3\n"), None);
    }

    #[test]
    fn contention_subtracts_own_cpu() {
        let before = SystemCpu {
            busy: 1_000,
            steal: 10,
            total: 5_000,
        };
        // 2 s on 2 CPUs = 400 ticks; 300 busy of which 200 are ours.
        let after = SystemCpu {
            busy: 1_300,
            steal: 30,
            total: 5_400,
        };
        let (other, steal) = contention(before, after, 2_000_000_000);
        assert_eq!(other, 0.25);
        assert_eq!(steal, 0.05);
        assert_eq!(contention(before, before, 1), (0.0, 0.0));
    }

    #[test]
    fn live_readers_see_this_process() {
        // Only presence is asserted: sibling test threads come and go,
        // so the summed CPU time is not monotonic under `cargo test`.
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_ns() > 0);
        assert!(system_cpu().total > 0);
    }
}
