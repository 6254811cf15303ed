//! Percentiles, replay timing and process memory.

use std::hint::black_box;
use std::time::Instant;

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, linearly
/// interpolated between closest ranks. A failed operation enters the samples
/// as `+∞`, so it misses every percentile it reaches.
///
/// # Panics
/// Panics on an empty sample set or a NaN sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let fraction = rank - low as f64;
    if low == high || fraction == 0.0 {
        return sorted[low];
    }
    if sorted[high].is_infinite() {
        return f64::INFINITY;
    }
    sorted[low] + (sorted[high] - sorted[low]) * fraction
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median wall seconds of `reps` calls of `f`, after one untimed warm-up
/// call that fills any cache the call path keeps.
pub fn replay<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    proc_status_mb("VmRSS:")
}

/// Resets the peak resident set size to the current one; `false` where the
/// kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_count_failures_as_misses() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 90.0), 4.6);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(median(&with_failure), 2.0);
        assert!(percentile(&with_failure, 90.0).is_infinite());
    }
}
