//! Per-run peak-RSS measurement: the figure on the `experiments`
//! per-experiment stderr line and in `metro_probe`'s output.
//!
//! Linux tracks a process's resident-set high-water mark (`VmHWM` in
//! `/proc/self/status`) and lets the process reset it by writing `5` to
//! `/proc/self/clear_refs`. Resetting before a run and reading after
//! yields that run's peak — the honest "did this fit in RAM" number the
//! metro tier is sized by, without wrapping runs in a separate process.
//!
//! Both calls degrade gracefully: on platforms without these files
//! [`reset_peak`] is a no-op and [`peak_bytes`] returns `None`, and the
//! callers simply leave the figure out.

/// Resets the kernel's peak-RSS watermark to the current RSS. Call
/// immediately before the measured region.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS in bytes since the last [`reset_peak`] (or process start),
/// or `None` where unavailable.
///
/// The value is an upper bound on the measured region's own footprint:
/// pages an earlier region allocated and the allocator retained still
/// count. With regions measured largest-last, or compared release to
/// release under a tolerance, the bound is tight enough to gate on.
pub fn peak_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The watermark is process-global and the test harness runs tests on
    /// parallel threads, so the two tests below must not interleave their
    /// reset/allocate/read sequences.
    static WATERMARK: Mutex<()> = Mutex::new(());

    #[test]
    fn peak_tracks_a_large_allocation() {
        let _guard = WATERMARK.lock().unwrap();
        // Unrelated test threads sharing this process can still shift RSS
        // (a concurrent munmap between our two reads shrinks the observed
        // delta), so tolerate a few noisy attempts before failing.
        let mut last = None;
        for _ in 0..3 {
            reset_peak();
            let before = peak_bytes();
            // 64 MiB, touched so the pages are actually resident.
            let block = vec![7u8; 64 << 20];
            std::hint::black_box(&block);
            let after = peak_bytes();
            let (Some(b), Some(a)) = (before, after) else {
                return; // non-Linux: nothing to assert
            };
            if a >= b + (48 << 20) {
                return;
            }
            last = Some((b, a));
        }
        let (b, a) = last.unwrap();
        panic!("peak should grow by roughly the allocation: before {b}, after {a}");
    }

    #[test]
    fn reset_rebases_the_watermark_to_current_rss() {
        let _guard = WATERMARK.lock().unwrap();
        let peak_with_block = {
            let block = vec![7u8; 64 << 20];
            std::hint::black_box(&block);
            peak_bytes()
        };
        reset_peak();
        if let (Some(high), Some(rebased)) = (peak_with_block, peak_bytes()) {
            assert!(
                rebased <= high,
                "reset must not raise the watermark: {rebased} > {high}"
            );
        }
    }
}
