//! Training objectives.
//!
//! A network's output for a minibatch is a vector of scalars (one per
//! sample); the objective maps those predictions plus the batch's dataset
//! row indices to a loss value and per-sample gradients `dL/d(pred)`.
//!
//! Passing *row indices* (rather than label slices) is deliberate: the DRP
//! loss (Eq. 2) and the Direct Rank loss normalize treated and control
//! samples separately **within the batch** (`1/N1`, `1/N0`), so an
//! objective must see which rows it got, not just their labels.

/// A differentiable training objective over scalar predictions.
pub trait Objective {
    /// Returns `(loss, dL/d_pred)` for the batch.
    ///
    /// `preds[i]` is the network output for dataset row `rows[i]`.
    fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>);

    /// Loss value only (defaults to discarding the gradient).
    fn loss(&self, preds: &[f64], rows: &[usize]) -> f64 {
        self.loss_and_grad(preds, rows).0
    }
}

/// Mean squared error against fixed targets: `L = mean((pred - y)^2)`.
#[derive(Debug, Clone)]
pub struct MseObjective {
    targets: Vec<f64>,
}

impl MseObjective {
    /// Creates an MSE objective over the full dataset's targets.
    pub fn new(targets: Vec<f64>) -> Self {
        MseObjective { targets }
    }
}

impl Objective for MseObjective {
    fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>) {
        assert_eq!(preds.len(), rows.len(), "MSE: preds/rows length mismatch");
        let n = preds.len().max(1) as f64;
        let mut loss = 0.0;
        let mut grad = Vec::with_capacity(preds.len());
        for (&p, &r) in preds.iter().zip(rows) {
            let e = p - self.targets[r];
            loss += e * e;
            grad.push(2.0 * e / n);
        }
        (loss / n, grad)
    }
}

/// Binary cross entropy on a *logit* prediction against 0/1 targets:
/// `L = mean(softplus(s) - y * s)` — the numerically stable form of
/// `-[y ln σ(s) + (1-y) ln(1-σ(s))]`.
#[derive(Debug, Clone)]
pub struct BceObjective {
    targets: Vec<f64>,
}

impl BceObjective {
    /// Creates a BCE objective over the full dataset's 0/1 targets.
    pub fn new(targets: Vec<f64>) -> Self {
        BceObjective { targets }
    }
}

impl Objective for BceObjective {
    fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>) {
        assert_eq!(preds.len(), rows.len(), "BCE: preds/rows length mismatch");
        let n = preds.len().max(1) as f64;
        let mut loss = 0.0;
        let mut grad = Vec::with_capacity(preds.len());
        for (&s, &r) in preds.iter().zip(rows) {
            let y = self.targets[r];
            loss += linalg::vector::softplus(s) - y * s;
            grad.push((linalg::vector::sigmoid(s) - y) / n);
        }
        (loss / n, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(obj: &dyn Objective, preds: &[f64], rows: &[usize]) {
        let (_, grad) = obj.loss_and_grad(preds, rows);
        let eps = 1e-6;
        for i in 0..preds.len() {
            let mut pp = preds.to_vec();
            pp[i] += eps;
            let mut pm = preds.to_vec();
            pm[i] -= eps;
            let numeric = (obj.loss(&pp, rows) - obj.loss(&pm, rows)) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-6,
                "grad[{i}]: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn mse_value_and_grad() {
        let obj = MseObjective::new(vec![1.0, 2.0, 3.0]);
        let preds = [1.5, 2.0, 2.0];
        let rows = [0, 1, 2];
        let (loss, grad) = obj.loss_and_grad(&preds, &rows);
        assert!((loss - (0.25 + 0.0 + 1.0) / 3.0).abs() < 1e-12);
        assert!((grad[0] - 2.0 * 0.5 / 3.0).abs() < 1e-12);
        finite_diff_check(&obj, &preds, &rows);
    }

    #[test]
    fn mse_respects_row_indices() {
        let obj = MseObjective::new(vec![0.0, 10.0]);
        let (loss, _) = obj.loss_and_grad(&[10.0], &[1]);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn bce_value_and_grad() {
        let obj = BceObjective::new(vec![1.0, 0.0]);
        let preds = [2.0, -1.0];
        let rows = [0, 1];
        let (loss, _) = obj.loss_and_grad(&preds, &rows);
        // Manual: softplus(2) - 2 + softplus(-1) over 2.
        let want = (linalg::vector::softplus(2.0) - 2.0 + linalg::vector::softplus(-1.0)) / 2.0;
        assert!((loss - want).abs() < 1e-12);
        finite_diff_check(&obj, &preds, &rows);
    }

    #[test]
    fn bce_minimized_by_confident_correct_logits() {
        let obj = BceObjective::new(vec![1.0]);
        assert!(obj.loss(&[5.0], &[0]) < obj.loss(&[0.0], &[0]));
        assert!(obj.loss(&[0.0], &[0]) < obj.loss(&[-5.0], &[0]));
    }
}
