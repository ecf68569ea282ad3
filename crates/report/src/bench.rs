//! Host and process probes for wall-clock measurement: the host's
//! parallelism and this process's peak resident-set size (`VmHWM`),
//! with a best-effort reset so a long-lived sweep can attribute a peak
//! to each run.

/// `available_parallelism` of this host.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident-set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` (kilobytes, scaled). Returns 0 where the file or
/// the field is unavailable (non-Linux hosts) — callers treat 0 as
/// "unknown", never as "zero memory".
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Best-effort reset of the kernel's peak-RSS high-water mark for this
/// process: writes `5` to `/proc/self/clear_refs` (Linux ≥ 4.0). After
/// a successful reset [`peak_rss_bytes`] reports the peak *since the
/// reset*, which lets a long-lived sweep attribute a peak to each
/// individual run instead of every later entry inheriting the largest
/// earlier one. Returns whether the reset took; on `false` (non-Linux,
/// restricted procfs) the HWM keeps its process-monotone semantics.
pub fn reset_peak_rss() -> bool {
    // The kernel floors the reset HWM at *current* RSS, and glibc
    // retains freed heap pages on its free lists — without a trim, a
    // run that follows a large one would still inherit hundreds of MiB
    // of retained-but-free pages in its "peak". `malloc_trim` is part
    // of the already-linked libc, not a new dependency.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_reports_a_peak_rss() {
        // Linux CI and dev hosts have /proc; the helper must return a
        // plausible nonzero HWM there (and 0, never garbage, elsewhere).
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 1 << 20, "VmHWM under 1 MiB is implausible: {rss}");
        }
    }
}
