//! Clock, `/proc` and order-statistic helpers.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Inter-quartile distance over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the rule the driver applies
/// across runs; here it is applied to the repeats inside one run).
/// `None` below two samples, where quartiles are undefined.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4;
    let m = v.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// One line of `/proc/self/status`, value part.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim_start_matches(':').trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), MiB. Panics where
/// `/proc` is missing: a benchmark that cannot read its own memory must
/// not print a number.
pub fn peak_rss_mib() -> f64 {
    let value = proc_status("VmHWM").expect("VmHWM in /proc/self/status");
    let kib: f64 = value
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a kB count");
    kib / 1024.0
}

/// User + system CPU seconds this process (all threads) has consumed.
/// `/proc/self/stat` counts in `USER_HZ` ticks, fixed at 100 on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields count from the last ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    // After the comm field: state is 0, utime 11, stime 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Times a fixed integer spin loop (xorshift steps: each depends on the
/// last and no closed form exists for the compiler to fold them into), ms.
/// Printed before every workload: when this number moves between two
/// sets of runs, the box changed, not the program.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..20_000_000_u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Median ns per operation over `rounds` timed calls of `f(ops)`, after
/// one untimed call that lets tables grow and caches fill.
pub fn ns_per_op(rounds: usize, ops: u64, mut f: impl FnMut(u64)) -> f64 {
    f(ops);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            f(ops);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert!((quartile_spread(&[3.0, 1.0]).unwrap() - 3.0 / 2.0).abs() < 1e-12);
        assert!(quartile_spread(&[1.0]).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        assert!(cpu_seconds() >= 0.0);
    }
}
