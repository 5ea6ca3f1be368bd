//! Summary statistics and quantiles.
//!
//! Includes the *finite-sample conformal quantile* used by split conformal
//! prediction (Algorithm 3, line 5 of the paper): the
//! `⌈(1−α)(n+1)⌉ / n` empirical quantile of the calibration scores.

use crate::error::{Error, Result};

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance (divides by `n`). Returns 0.0 for fewer than 2 items.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Sample variance (divides by `n - 1`). Returns 0.0 for fewer than 2 items.
pub fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Sample standard deviation.
pub fn sample_std_dev(values: &[f64]) -> f64 {
    sample_variance(values).sqrt()
}

/// Empirical quantile by the "higher" rule: the smallest order statistic
/// whose empirical CDF weight is `>= level`.
///
/// `level` must lie in `[0, 1]`; values outside are errors.
pub fn quantile_higher(values: &[f64], level: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(Error::Empty {
            what: "quantile input",
        });
    }
    if !(0.0..=1.0).contains(&level) {
        return Err(Error::InvalidLevel { value: level });
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    // Smallest k (1-based) with k/n >= level.
    let k = ((level * n as f64).ceil() as usize).clamp(1, n);
    Ok(sorted[k - 1])
}

/// The split-conformal calibration quantile (Algorithm 3, line 5):
/// the `⌈(1−α)(n+1)⌉ / n` empirical quantile of `scores`.
///
/// When `⌈(1−α)(n+1)⌉ > n` (calibration set too small for the requested
/// coverage), the quantile is `+∞`, which yields intervals covering the
/// whole space — the standard conservative convention.
///
/// `alpha` must lie in `(0, 1)`.
pub fn conformal_quantile(scores: &[f64], alpha: f64) -> Result<f64> {
    if scores.is_empty() {
        return Err(Error::Empty {
            what: "conformal scores",
        });
    }
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(Error::InvalidLevel { value: alpha });
    }
    let n = scores.len();
    let rank = ((1.0 - alpha) * (n as f64 + 1.0)).ceil() as usize;
    if rank > n {
        return Ok(f64::INFINITY);
    }
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(sorted[rank - 1])
}

/// Pearson correlation coefficient. Returns 0.0 when either input is
/// constant (undefined correlation) or the slices are shorter than 2.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Per-column standardization parameters.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

tinyjson::json_struct!(Standardizer { means, stds } check |s: &Standardizer| {
    if s.means.len() == s.stds.len() {
        Ok(())
    } else {
        Err(format!("{} means but {} stds", s.means.len(), s.stds.len()))
    }
});

impl Standardizer {
    /// Fits per-column mean/std on `x` (columns with zero variance get
    /// std 1.0 so they pass through unchanged after centering).
    pub fn fit(x: &crate::Matrix) -> Self {
        let means = x.col_means();
        let mut stds = vec![0.0; x.cols()];
        for row in x.row_iter() {
            for (c, (&v, &m)) in row.iter().zip(&means).enumerate() {
                stds[c] += (v - m) * (v - m);
            }
        }
        let n = x.rows().max(1) as f64;
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// Applies `(x - mean) / std` column-wise.
    pub fn transform(&self, x: &crate::Matrix) -> crate::Matrix {
        assert_eq!(
            x.cols(),
            self.means.len(),
            "Standardizer::transform: fitted on {} columns, got {}",
            self.means.len(),
            x.cols()
        );
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v - self.means[c]) / self.stds[c];
            }
        }
        out
    }

    /// Fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-column standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn mean_var_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
        assert!((sample_variance(&v) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn quantile_higher_rule() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_higher(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile_higher(&v, 0.25).unwrap(), 1.0);
        assert_eq!(quantile_higher(&v, 0.26).unwrap(), 2.0);
        assert_eq!(quantile_higher(&v, 1.0).unwrap(), 4.0);
        assert!(quantile_higher(&[], 0.5).is_err());
        assert!(quantile_higher(&v, 1.5).is_err());
    }

    #[test]
    fn conformal_quantile_definition() {
        // n = 9, alpha = 0.1: rank = ceil(0.9 * 10) = 9 -> 9th of 9.
        let scores: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        assert_eq!(conformal_quantile(&scores, 0.1).unwrap(), 9.0);
        // n = 19, alpha = 0.1: rank = ceil(0.9 * 20) = 18.
        let scores: Vec<f64> = (1..=19).map(|i| i as f64).collect();
        assert_eq!(conformal_quantile(&scores, 0.1).unwrap(), 18.0);
        // Too small a calibration set -> infinite quantile.
        assert_eq!(conformal_quantile(&[1.0], 0.1).unwrap(), f64::INFINITY);
        assert!(conformal_quantile(&[1.0], 0.0).is_err());
        assert!(conformal_quantile(&[], 0.1).is_err());
    }

    #[test]
    fn conformal_quantile_unsorted_input() {
        let scores = [5.0, 1.0, 3.0, 2.0, 4.0];
        // n = 5, alpha = 0.5: rank = ceil(0.5 * 6) = 3 -> third smallest = 3.
        assert_eq!(conformal_quantile(&scores, 0.5).unwrap(), 3.0);
    }

    #[test]
    fn pearson_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((pearson(&a, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]]);
        let s = Standardizer::fit(&x);
        let z = s.transform(&x);
        let m = z.col_means();
        assert!(m[0].abs() < 1e-12);
        // constant column: std clamped to 1, so it is only centered
        assert!(m[1].abs() < 1e-12);
        let col0 = z.col(0);
        assert!((std_dev(&col0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_decode_requires_one_std_per_mean() {
        let ok = r#"{"means": [0.5, 1.0], "stds": [2.0, 1.0]}"#;
        assert!(tinyjson::from_str::<Standardizer>(ok).is_ok());
        let bad = r#"{"means": [0.5, 1.0], "stds": [2.0]}"#;
        let err = tinyjson::from_str::<Standardizer>(bad).unwrap_err();
        assert!(err.to_string().contains("2 means but 1 stds"), "{err}");
    }
}
