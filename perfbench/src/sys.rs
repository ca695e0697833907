//! Process-level readings from `/proc/self` (Linux). Each reader returns
//! `None` where the file or field is unavailable, and the caller reports
//! the metric as unmeasured rather than guessing.

use std::fs;

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size since start or the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb * 1024.0 / 1e6)
}

/// Current resident set size, bytes.
pub fn rss_bytes() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb * 1024.0)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what ran after this call. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, i.e. 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut it = rest.split_whitespace().skip(11);
    let utime: f64 = it.next()?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    // USER_HZ is 100 on every mainstream Linux configuration.
    Some((utime + stime) / 100.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
