//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of n sorted
//! samples is the sample at 1-based rank ⌈p·n/100⌉, so exactly
//! `n − rank` samples lie beyond it. A tail percentile is only worth
//! reporting when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported
/// as that percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, lowest first, when looking for the highest one that
/// still has [`MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// offset keeps exact products such as 99.9 % of 10 000 from rounding up
/// a rank).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(p, v.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count, so a
/// run's figure does not jump between neighbouring samples; 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, as `(p, value)`; `None` when even the
/// median has fewer than that many beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n - rank(p, n) >= MIN_BEYOND)
        .map(|&p| (p, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 (rank 990) has 9 beyond it, p95 has 49.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        // 10 000 samples: p99.9 has 10 beyond it.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        // 20 samples: the median has 10 beyond it, p90 only 2.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        // Whatever is returned really has ten samples beyond it.
        for n in [20, 57, 200, 1234, 5000] {
            let v = ramp(n);
            let (_, value) = tail(&v).unwrap();
            assert!(v.iter().filter(|&&x| x > value).count() >= MIN_BEYOND);
        }
    }
}
