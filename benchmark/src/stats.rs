//! Exact order statistics over raw samples, and the bucketed-rate
//! estimator behind `commits_per_s`.
//!
//! Nothing here goes through `LatencyHistogram`: its power-of-two
//! buckets make a reported percentile either not move or jump 2×.

/// `num ÷ den`, or 0 when there is nothing to divide by (a metric that
/// does not apply reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at
/// or below it. Returns 0 for an empty slice.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of an unsorted slice of floats (mean of the two middle values
/// for an even count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) gives them — the rule the benchmark
/// contract's spread check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // Position i·(n+1)/4, 1-based, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest quantile that still has at least `beyond` samples above
/// it: `1 − beyond/n`, or the median when the sample is too small.
pub fn tail_quantile(n: usize, beyond: usize) -> f64 {
    if n < 2 * beyond {
        0.5
    } else {
        1.0 - beyond as f64 / n as f64
    }
}

/// A latency sample summarised: median, p99, and the highest percentile
/// the sample supports (≥ 10 samples beyond it), with the count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatSummary {
    pub p50_us: f64,
    pub p99_us: f64,
    /// At the [`tail_quantile`] of the sample.
    pub tail_us: f64,
    pub mean_us: f64,
    pub count: usize,
}

/// Summarise raw nanosecond samples (sorts in place).
pub fn summarize_ns(samples: &mut [u32]) -> LatSummary {
    samples.sort_unstable();
    let n = samples.len();
    let sum: u64 = samples.iter().map(|&s| s as u64).sum();
    LatSummary {
        p50_us: percentile(samples, 0.5) / 1e3,
        p99_us: percentile(samples, 0.99) / 1e3,
        tail_us: percentile(samples, tail_quantile(n, 10)) / 1e3,
        mean_us: if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        },
        count: n,
    }
}

/// Width of one completion-count bucket.
pub const BUCKET_NS: u64 = 100_000_000;
/// Buckets per rate sample: the rate estimator slides a one-second
/// window over the bucket series.
const BUCKETS_PER_SECOND: usize = (1_000_000_000 / BUCKET_NS) as usize;

/// Sustained completions per second from per-bucket completion counts:
/// the **90th percentile of the one-second counts**, taken over every
/// one-second window that starts on a bucket boundary.
///
/// Why the upper end and not the middle: on a shared host everything
/// that disturbs a run — a scheduler stall, a neighbour taking the core,
/// the host's clock speed dropping for some seconds — only ever slows
/// the system down, so the quiet end of the distribution is the system's
/// own rate and the rest is the host's. The median of the same series
/// spread two to three times wider between identical runs (README,
/// "Steadiness"). A slowdown that lasts the whole window still shows; a
/// stall shorter than nine tenths of it does not, which is why the
/// per-bucket coefficient of variation is reported beside it.
/// Falls back to the mean rate when the series is shorter than a second.
pub fn sustained_rate(buckets: &[u32]) -> f64 {
    if buckets.len() < BUCKETS_PER_SECOND {
        let total: u64 = buckets.iter().map(|&b| b as u64).sum();
        let secs = buckets.len() as f64 * BUCKET_NS as f64 / 1e9;
        return if secs == 0.0 {
            0.0
        } else {
            total as f64 / secs
        };
    }
    let mut per_second: Vec<u32> = buckets
        .windows(BUCKETS_PER_SECOND)
        .map(|w| w.iter().sum())
        .collect();
    per_second.sort_unstable();
    percentile(&per_second, 0.9)
}

/// Slices a paced window's samples are cut into, in completion order.
pub const SLICES: usize = 40;

/// Median latency (ns) of the quietest of [`SLICES`] equal slices of
/// `samples` (completion order): each slice's exact median, then the
/// smallest of them. The same reasoning as [`sustained_rate`]: a stall
/// or a slow spell of the host raises the latency of the slices it
/// covers and of the backlog behind them, never lowers one, so the
/// quietest slice is the system's own latency at this rate. Equals the
/// plain median when the window is undisturbed.
pub fn quiet_median_ns(samples: &[u32]) -> f64 {
    let per_slice = samples.len().div_ceil(SLICES).max(1);
    let medians = samples
        .chunks(per_slice)
        // A short last slice would be a noisier median than the rest.
        .filter(|slice| slice.len() * 2 >= per_slice)
        .map(|slice| {
            let mut s = slice.to_vec();
            s.sort_unstable();
            percentile(&s, 0.5)
        });
    medians.reduce(f64::min).unwrap_or(0.0)
}

/// Coefficient of variation (σ/mean) of the bucket counts.
pub fn bucket_cv(buckets: &[u32]) -> f64 {
    let n = buckets.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mean = buckets.iter().map(|&b| b as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = buckets
        .iter()
        .map(|&b| (b as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7u32], 0.99), 7.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000, 10), 0.99);
        assert_eq!(tail_quantile(100_000, 10), 0.9999);
        // Too few samples for any tail claim: fall back to the median.
        assert_eq!(tail_quantile(15, 10), 0.5);
    }

    #[test]
    fn summary_reports_exact_values_and_count() {
        let mut ns: Vec<u32> = (1..=2000).map(|i| i * 1000).collect();
        ns.reverse();
        let s = summarize_ns(&mut ns);
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50_us, 1000.0);
        assert_eq!(s.p99_us, 1980.0);
        // 10 of 2000 samples beyond: the 99.5th percentile.
        assert_eq!(s.tail_us, 1990.0);
        assert_eq!(s.mean_us, 1000.5);
    }

    #[test]
    fn sustained_rate_ignores_a_single_stall() {
        // 6 s at 1000 per 100 ms, with a half-second stall in the middle.
        let mut buckets = vec![1000u32; 60];
        for b in &mut buckets[30..35] {
            *b = 0;
        }
        assert_eq!(sustained_rate(&buckets), 10_000.0);
        // The mean would have reported 9167.
        let mean = buckets.iter().sum::<u32>() as f64 / 6.0;
        assert!(mean < 9200.0);
    }

    #[test]
    fn sustained_rate_is_not_the_best_second() {
        // One lucky second does not set the rate: a tenth of the
        // one-second windows must reach it.
        let mut buckets = vec![1000u32; 200];
        for b in &mut buckets[50..52] {
            *b = 3000;
        }
        assert_eq!(sustained_rate(&buckets), 10_000.0);
    }

    #[test]
    fn a_slowdown_over_the_whole_window_shows() {
        assert_eq!(sustained_rate(&[800u32; 60]), 8_000.0);
    }

    #[test]
    fn quiet_median_is_the_plain_median_of_an_undisturbed_window() {
        let samples: Vec<u32> = (0..4000).map(|i| 100 + (i % 7)).collect();
        assert_eq!(quiet_median_ns(&samples), 103.0);
    }

    #[test]
    fn quiet_median_ignores_a_stall_and_its_backlog() {
        // Three quarters of the window sit behind a stall.
        let mut samples = vec![500u32; 4000];
        for s in &mut samples[500..3500] {
            *s = 900_000;
        }
        assert_eq!(quiet_median_ns(&samples), 500.0);
        // A window that is slow throughout reads slow.
        assert_eq!(quiet_median_ns(&[900u32; 4000]), 900.0);
        assert_eq!(quiet_median_ns(&[]), 0.0);
    }

    #[test]
    fn sustained_rate_of_a_short_series_is_the_mean() {
        assert_eq!(sustained_rate(&[100, 300]), 2000.0);
        assert_eq!(sustained_rate(&[]), 0.0);
    }

    #[test]
    fn bucket_cv_is_zero_for_a_flat_series() {
        assert_eq!(bucket_cv(&[5, 5, 5, 5]), 0.0);
        assert!((bucket_cv(&[0, 10]) - 1.0).abs() < 1e-12);
    }
}
