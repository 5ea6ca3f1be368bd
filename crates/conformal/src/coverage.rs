//! Coverage diagnostics for prediction intervals.

use crate::split::Interval;

/// Fraction of `truths[i]` covered by `intervals[i]`.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn empirical_coverage(intervals: &[Interval], truths: &[f64]) -> f64 {
    assert_eq!(intervals.len(), truths.len(), "coverage: length mismatch");
    assert!(!intervals.is_empty(), "coverage: empty input");
    let hits = intervals
        .iter()
        .zip(truths)
        .filter(|(iv, &t)| iv.contains(t))
        .count();
    hits as f64 / intervals.len() as f64
}

/// Mean width of a batch of intervals.
///
/// # Panics
/// Panics on empty input.
pub fn mean_width(intervals: &[Interval]) -> f64 {
    assert!(!intervals.is_empty(), "mean_width: empty input");
    intervals.iter().map(Interval::width).sum::<f64>() / intervals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    #[test]
    fn coverage_counts_hits() {
        let ivs = [iv(0.0, 1.0), iv(0.0, 1.0), iv(2.0, 3.0)];
        let truths = [0.5, 1.5, 2.5];
        assert!((empirical_coverage(&ivs, &truths) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_values_count_as_covered() {
        let ivs = [iv(0.0, 1.0)];
        assert_eq!(empirical_coverage(&ivs, &[1.0]), 1.0);
        assert_eq!(empirical_coverage(&ivs, &[0.0]), 1.0);
    }

    #[test]
    fn width_statistics() {
        let ivs = [iv(0.0, 1.0), iv(0.0, 3.0)];
        assert_eq!(mean_width(&ivs), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_coverage_panics() {
        let _ = empirical_coverage(&[], &[]);
    }
}
