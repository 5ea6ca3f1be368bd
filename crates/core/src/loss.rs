//! The DRP loss (paper Eq. 2).
//!
//! With `r̂oi_i = σ(ŝ_i)`, the bracketed per-sample term simplifies —
//! `ln(r̂oi/(1−r̂oi)) = ŝ` and `ln(1−r̂oi) = −softplus(ŝ)` — to
//!
//! ```text
//! L(ŝ) = −[ (1/N₁) Σ_{t=1} (y^r ŝ − y^c softplus(ŝ))
//!         − (1/N₀) Σ_{t=0} (y^r ŝ − y^c softplus(ŝ)) ]
//! ```
//!
//! whose per-sample gradient is `−w_i (y^r_i − y^c_i σ(ŝ_i))` with
//! `w_i = 1/N₁` for treated and `−1/N₀` for control rows (`N₁`, `N₀`
//! counted within the minibatch, as in the paper's batch training).
//!
//! Convexity (Theorem 2 of \[5\]): for a *shared* score `s`, the derivative
//! `L'(s) = τ̄^c σ(s) − τ̄^r` is increasing whenever the mean cost uplift
//! `τ̄^c > 0` (Assumption 4), so the loss has a unique minimum at
//! `σ(s*) = τ̄^r / τ̄^c` — the population ROI. This is what Algorithm 2's
//! binary search exploits ([`crate::search`]).

use linalg::vector::{sigmoid, softplus};
use nn::Objective;

/// The DRP training objective over a fixed RCT dataset's labels.
#[derive(Debug, Clone)]
pub struct DrpObjective {
    t: Vec<u8>,
    y_r: Vec<f64>,
    y_c: Vec<f64>,
}

impl DrpObjective {
    /// Builds the objective from full-dataset labels.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn new(t: Vec<u8>, y_r: Vec<f64>, y_c: Vec<f64>) -> Self {
        assert_eq!(t.len(), y_r.len(), "DrpObjective: t/y_r length mismatch");
        assert_eq!(t.len(), y_c.len(), "DrpObjective: t/y_c length mismatch");
        DrpObjective { t, y_r, y_c }
    }
}

impl Objective for DrpObjective {
    fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>) {
        assert_eq!(preds.len(), rows.len(), "DRP: preds/rows length mismatch");
        let n1 = rows.iter().filter(|&&i| self.t[i] == 1).count();
        let n0 = rows.len() - n1;
        // A batch with only one group carries no uplift signal: the loss
        // contribution is defined as zero (gradient zero), which simply
        // skips such (rare, small-batch) steps.
        if n1 == 0 || n0 == 0 {
            return (0.0, vec![0.0; preds.len()]);
        }
        let w1 = 1.0 / n1 as f64;
        let w0 = 1.0 / n0 as f64;
        let mut loss = 0.0;
        let mut grad = Vec::with_capacity(preds.len());
        for (&s, &i) in preds.iter().zip(rows) {
            let w = if self.t[i] == 1 { w1 } else { -w0 };
            let term = self.y_r[i] * s - self.y_c[i] * softplus(s);
            loss -= w * term;
            grad.push(-w * (self.y_r[i] - self.y_c[i] * sigmoid(s)));
        }
        (loss, grad)
    }
}

/// Derivative of the DRP loss at a *shared* score `s` over a dataset
/// (Algorithm 2, line 2): `L'(s) = τ̄^c σ(s) − τ̄^r` where `τ̄^r`, `τ̄^c`
/// are the difference-in-means uplift estimates.
///
/// # Panics
/// Panics if either treatment group is empty.
pub fn shared_score_derivative(s: f64, t: &[u8], y_r: &[f64], y_c: &[f64]) -> f64 {
    let (tau_r, tau_c) = mean_uplifts(t, y_r, y_c);
    tau_c * sigmoid(s) - tau_r
}

/// Difference-in-means estimates `(τ̄^r, τ̄^c)` from RCT labels.
///
/// # Panics
/// Panics on length mismatches or if either treatment group is empty.
pub fn mean_uplifts(t: &[u8], y_r: &[f64], y_c: &[f64]) -> (f64, f64) {
    assert_eq!(t.len(), y_r.len(), "mean_uplifts: t/y_r length mismatch");
    assert_eq!(t.len(), y_c.len(), "mean_uplifts: t/y_c length mismatch");
    let (mut n1, mut n0) = (0usize, 0usize);
    let (mut r1, mut r0, mut c1, mut c0) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..t.len() {
        if t[i] == 1 {
            n1 += 1;
            r1 += y_r[i];
            c1 += y_c[i];
        } else {
            n0 += 1;
            r0 += y_r[i];
            c0 += y_c[i];
        }
    }
    assert!(n1 > 0 && n0 > 0, "mean_uplifts: need both treatment groups");
    (
        r1 / n1 as f64 - r0 / n0 as f64,
        c1 / n1 as f64 - c0 / n0 as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Objective;

    fn toy() -> DrpObjective {
        DrpObjective::new(
            vec![1, 1, 0, 0, 1, 0],
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        )
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let obj = toy();
        let preds = [0.3, -1.0, 0.5, 2.0, -0.2, 0.0];
        let rows = [0, 1, 2, 3, 4, 5];
        let (_, grad) = obj.loss_and_grad(&preds, &rows);
        let eps = 1e-6;
        for j in 0..preds.len() {
            let mut pp = preds.to_vec();
            pp[j] += eps;
            let mut pm = preds.to_vec();
            pm[j] -= eps;
            let numeric = (obj.loss(&pp, &rows) - obj.loss(&pm, &rows)) / (2.0 * eps);
            assert!(
                (numeric - grad[j]).abs() < 1e-6,
                "grad[{j}]: numeric {numeric} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn single_group_batch_is_inert() {
        let obj = toy();
        // Rows 0, 1, 4 are all treated.
        let (loss, grad) = obj.loss_and_grad(&[0.1, 0.2, 0.3], &[0, 1, 4]);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn shared_score_loss_is_convex_in_s() {
        // Sample the shared-score loss on a grid; the derivative must be
        // increasing (convexity) given positive mean cost uplift.
        let t = vec![1, 1, 1, 0, 0, 0];
        let y_r = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let y_c = vec![1.0, 1.0, 1.0, 0.0, 1.0, 0.0];
        let mut last = f64::NEG_INFINITY;
        for k in -20..=20 {
            let s = k as f64 / 4.0;
            let d = shared_score_derivative(s, &t, &y_r, &y_c);
            assert!(d >= last, "derivative decreased at s = {s}");
            last = d;
        }
    }

    #[test]
    fn stationary_point_is_population_roi() {
        let t = vec![1, 1, 1, 0, 0, 0];
        let y_r = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]; // tau_r = 1/3
        let y_c = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0]; // tau_c = 2/3
        let (tr, tc) = mean_uplifts(&t, &y_r, &y_c);
        assert!((tr - 1.0 / 3.0).abs() < 1e-12);
        assert!((tc - 2.0 / 3.0).abs() < 1e-12);
        // L'(s) = 0 at sigma(s) = 0.5.
        let s_star = linalg::vector::logit(0.5);
        assert!(shared_score_derivative(s_star, &t, &y_r, &y_c).abs() < 1e-12);
    }

    #[test]
    fn gradient_direction_pushes_roi_toward_ratio() {
        // One treated converter with cost: gradient at roi < true ratio
        // must be negative (increase s).
        let obj = DrpObjective::new(vec![1, 0], vec![1.0, 0.0], vec![1.0, 0.0]);
        // true ratio = 1.0; at s = 0 (roi = 0.5) gradient should push up.
        let (_, grad) = obj.loss_and_grad(&[0.0, 0.0], &[0, 1]);
        assert!(grad[0] < 0.0, "treated gradient {}", grad[0]);
    }

    #[test]
    #[should_panic(expected = "need both treatment groups")]
    fn mean_uplifts_single_group_panics() {
        let _ = mean_uplifts(&[1, 1], &[1.0, 0.0], &[1.0, 0.0]);
    }
}
