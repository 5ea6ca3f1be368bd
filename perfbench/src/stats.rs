//! Order statistics over exact samples (no histogram buckets).

/// An exact nearest-rank percentile: the smallest sample with at least
/// `q · n` samples at or below it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub count: usize,
}

/// The nearest-rank percentile of `samples` at `q` in `(0, 1]`, or
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile: q must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&v| v <= value);
    Some(Percentile {
        value,
        beyond,
        count: n,
    })
}

/// The highest of the usual tail percentiles (p99.9, p99, p95, p90) with
/// at least ten samples beyond it, so a tail figure always rests on a
/// stated count.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, Percentile)> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .filter_map(|q| percentile(samples, q).map(|p| (q, p)))
        .find(|(_, p)| p.beyond >= 10)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reports_the_count_beyond_it() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond, p99.count), (99.0, 1, 100));
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        let p100 = percentile(&samples, 1.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn ties_are_not_counted_beyond_the_percentile() {
        // 7 of 10 samples equal the p50 value; only the three 9s exceed it.
        let samples = [5.0, 5.0, 9.0, 5.0, 5.0, 9.0, 5.0, 5.0, 9.0, 5.0];
        let p = percentile(&samples, 0.5).unwrap();
        assert_eq!((p.value, p.beyond), (5.0, 3));
        let p90 = percentile(&samples, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (9.0, 0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 has 1 beyond, p99 has 10.
        let (q, p) = tail_percentile(&samples).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!((p.value, p.beyond), (990.0, 10));
        assert!(tail_percentile(&samples[..5]).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(max(&[1.0, 7.0, 2.0]), 7.0);
    }
}
