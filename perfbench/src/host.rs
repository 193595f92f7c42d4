//! Process and host readings from `/proc`: CPU time, peak memory and
//! hypervisor steal.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture the workspace builds
/// for).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// User + system CPU time of this process so far (all threads, including
/// exited ones), in microseconds.
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed.
pub fn process_cpu_us() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) * 1e6 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS, so model compilation for
/// the reference answers does not count towards the run's peak. Best
/// effort: on kernels without `clear_refs` the peak covers the whole
/// process lifetime instead.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Aggregate CPU tick counters of the host (first line of `/proc/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Current counters.
    ///
    /// # Errors
    ///
    /// When `/proc/stat` is unreadable or malformed.
    pub fn now() -> Result<Self, String> {
        let stat = read("/proc/stat")?;
        let line = stat.lines().next().ok_or("empty /proc/stat")?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        if v.len() < 8 {
            return Err("malformed /proc/stat".into());
        }
        // user nice system idle iowait irq softirq steal; guest time is
        // already included in user.
        Ok(Self {
            steal: v[7],
            total: v[..8].iter().sum(),
        })
    }

    /// Share of all CPU time the hypervisor stole between `self` and
    /// `later`.
    pub fn steal_ratio(&self, later: &HostTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}
