//! Process memory probe, generalizing the bench crate's old ad-hoc VmHWM
//! parser: peak RSS, current RSS, and a helper publishing both as registry
//! gauges.

/// A point-in-time memory reading. Fields are `None` where procfs is
/// unavailable (non-Linux dev machines).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemProbe {
    /// Peak resident-set size of this process, mebibytes (`VmHWM`).
    pub peak_rss_mb: Option<f64>,
    /// Current resident-set size, mebibytes (`VmRSS`).
    pub current_rss_mb: Option<f64>,
}

/// Reads both RSS figures from `/proc/self/status`.
pub fn probe() -> MemProbe {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return MemProbe::default();
    };
    MemProbe {
        peak_rss_mb: field_mb(&status, "VmHWM:"),
        current_rss_mb: field_mb(&status, "VmRSS:"),
    }
}

/// Peak resident-set size of this process in mebibytes, self-measured from
/// `/proc/self/status` (`VmHWM`). The value is process-wide and monotone
/// non-decreasing, so in a table whose rows run in one process, each row's
/// number is "the largest footprint any cell needed *so far*" and the final
/// row records the run's peak.
pub fn peak_rss_mb() -> Option<f64> {
    probe().peak_rss_mb
}

/// Current resident-set size in mebibytes (`VmRSS`).
pub fn current_rss_mb() -> Option<f64> {
    probe().current_rss_mb
}

/// Publishes the probe as `mem.peak_rss_mb` / `mem.current_rss_mb` gauges
/// (no-op while the registry is disabled or when procfs is absent).
pub fn record_rss_gauges() {
    if !crate::enabled() {
        return;
    }
    let m = probe();
    if let Some(mb) = m.peak_rss_mb {
        crate::gauge("mem.peak_rss_mb").set(mb);
    }
    if let Some(mb) = m.current_rss_mb {
        crate::gauge("mem.current_rss_mb").set(mb);
    }
}

fn field_mb(status: &str, prefix: &str) -> Option<f64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(prefix) {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_positive_rss_on_linux() {
        let m = probe();
        if let Some(peak) = m.peak_rss_mb {
            assert!(peak > 0.0);
            // VmHWM is the high-water mark of VmRSS.
            if let Some(current) = m.current_rss_mb {
                assert!(current > 0.0);
                assert!(peak >= current * 0.5, "peak {peak} vs current {current}");
            }
        }
    }

    #[test]
    fn field_parser_handles_units() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(field_mb(status, "VmHWM:"), Some(2.0));
        assert_eq!(field_mb(status, "VmRSS:"), Some(1.0));
        assert_eq!(field_mb(status, "VmSwap:"), None);
    }
}
