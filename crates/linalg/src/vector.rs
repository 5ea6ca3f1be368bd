//! Small vector kernels used by optimizers, losses, and metrics.

/// Dot product of two equally sized slices.
///
/// Accumulates into four independent partial sums (one per unrolled
/// lane) and combines them at the end. The independent chains let the
/// CPU overlap the multiply-add latency, and splitting the sum this way
/// also tracks a compensated (Kahan) reference more closely than the
/// naive single-accumulator loop — both properties are pinned in tests.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    let mut acc = [0.0f64; 4];
    let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
    let (b4, b_tail) = b.split_at(a4.len());
    for (xs, ys) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// `y += alpha * x` in place.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Elementwise quotient `a / b` with a guard against division by values
/// whose magnitude is below `floor` (they are clamped to `±floor`).
///
/// ROI computation divides revenue uplift by cost uplift; near-zero cost
/// uplift would otherwise explode the ratio, which is exactly why the paper
/// constrains ROI to (0, 1) (Assumption 3).
pub fn safe_div(a: &[f64], b: &[f64], floor: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "safe_div: length mismatch");
    assert!(floor > 0.0, "safe_div: floor must be positive");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let denom = if y.abs() < floor {
                floor.copysign(if y < 0.0 { -1.0 } else { 1.0 })
            } else {
                y
            };
            x / denom
        })
        .collect()
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse sigmoid (logit). Input is clamped to `(eps, 1-eps)` with
/// `eps = 1e-12` to keep the output finite.
#[inline]
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    (p / (1.0 - p)).ln()
}

/// Numerically stable `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Softmax of a slice (stable: subtracts the max first).
pub fn softmax(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let max = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = x.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Indices that sort `values` in descending order (ties broken by index,
/// making the order deterministic).
pub fn argsort_desc(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

/// Indices that sort `values` in ascending order.
pub fn argsort_asc(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    /// Compensated (Kahan) dot product — the rounding-error reference
    /// the unrolled kernel is pinned against.
    fn kahan_dot(a: &[f64], b: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut c = 0.0;
        for (x, y) in a.iter().zip(b) {
            let term = x * y - c;
            let t = sum + term;
            c = (t - sum) - term;
            sum = t;
        }
        sum
    }

    #[test]
    fn dot_tracks_kahan_reference() {
        // Deterministic pseudo-random inputs spanning many magnitudes,
        // at lengths hitting every remainder of the 4-way unroll.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // in roughly [-8, 8) with varying exponents
            (state as f64 / u64::MAX as f64 - 0.5) * 16.0
        };
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 1000, 1003] {
            let a: Vec<f64> = (0..n).map(|_| next()).collect();
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let reference = kahan_dot(&a, &b);
            let got = dot(&a, &b);
            let scale: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x * y).abs())
                .sum::<f64>()
                .max(1.0);
            assert!(
                (got - reference).abs() <= 1e-13 * scale,
                "n={n}: dot={got} kahan={reference}"
            );
        }
    }

    #[test]
    fn dot_exact_on_small_integers() {
        // Integer-valued inputs have exact products and sums, so any
        // accumulation order must produce the same result.
        let a: Vec<f64> = (1..=11).map(f64::from).collect();
        let b: Vec<f64> = (1..=11).map(|i| f64::from(12 - i)).collect();
        let want: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), want);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        // symmetric: sigma(-x) = 1 - sigma(x)
        for &x in &[0.3, 2.0, 10.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for &x in &[-5.0f64, -1.0, 0.0, 1.0, 5.0] {
            let naive = (1.0f64 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-12);
        }
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) > 0.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        // huge values must not overflow
        let s = softmax(&[1000.0, 1000.0]);
        assert!((s[0] - 0.5).abs() < 1e-12);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argsort_orders() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(argsort_desc(&v), vec![0, 2, 1]);
        assert_eq!(argsort_asc(&v), vec![1, 2, 0]);
        // ties broken by index
        let t = [1.0, 1.0, 0.0];
        assert_eq!(argsort_desc(&t), vec![0, 1, 2]);
    }

    #[test]
    fn safe_div_guards_small_denominators() {
        let out = safe_div(&[1.0, 1.0], &[0.5, 1e-12], 1e-6);
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 1e6);
        let neg = safe_div(&[1.0], &[-1e-12], 1e-6);
        assert_eq!(neg[0], -1e6);
    }
}
