//! Peak resident memory of this process.

/// `VmHWM` of this process, in MB (0 where `/proc` does not tell).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a fresh peak, as a newly started daemon would: hands the
/// allocator's free pages back to the system, then resets `VmHWM` to the
/// current resident size. Without the first step the peak would carry
/// whatever free memory earlier work left in the allocator's arenas, which
/// differs from run to run. Best effort: where either step is unavailable
/// the peak simply keeps running.
pub fn restart_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
        // free memory to the system; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak resident size (proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restarting_the_peak_forgets_freed_memory() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb();
        restart_peak();
        assert!(peak_rss_mb() < before - 32.0, "{before}");
    }
}
