//! Process-level measurements and the small statistics the harness
//! reports: resident memory, a CPU calibration loop, timer cost,
//! medians, quantiles and MAD.

use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Current resident set size in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Running maximum of sampled `VmRSS`. Drivers sample at chunk
/// boundaries and after every barrier while the configured system
/// runs, so the peak is attributable to it — `VmHWM` cannot tell it
/// apart from input generation or from the static-plan yardstick reps.
#[derive(Debug, Default)]
pub struct RssPeak(pub f64);

impl RssPeak {
    pub fn sample(&mut self) {
        self.0 = self.0.max(rss_mb());
    }
}

/// Iterations of one pass of the calibration loop (~40 ms on the
/// reference box).
const CALIB_ITERS: u64 = 20_000_000;

/// Times a fixed dependent xorshift chain: the same instructions on
/// every machine and commit, so two runs' `calib.ns_per_iter` say how
/// fast the box was, independent of the program under test. Best of
/// three passes: the first pass of a fresh process reads up to twice
/// the steady figure while the core clocks up, and that is not the
/// drift the noise flag is after.
pub fn calibrate() -> f64 {
    let pass = || {
        let start = Instant::now();
        let mut x: u64 = std::hint::black_box(88_172_645_463_325_252);
        for _ in 0..CALIB_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        start.elapsed().as_nanos() as f64 / CALIB_ITERS as f64
    };
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// What an empty `Instant::now()` … `elapsed()` interval reads, in ns:
/// the clock-read cost a wrapper bills to every call it times,
/// subtracted so the timer is not charged to the layer it wraps.
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let mut acc = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        acc += t.elapsed().as_nanos();
    }
    acc as f64 / f64::from(N)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation as a percentage of the median.
pub fn mad_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    100.0 * median(&dev) / m
}

/// Nearest-rank quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the acceptance rule for a metric's spread is written in those
/// terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
    }
}
