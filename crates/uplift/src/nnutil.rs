//! Shared plumbing for the neural uplift models.

use linalg::random::Prng;
use linalg::stats::Standardizer;
use linalg::Matrix;
use nn::{Activation, Mlp};

/// Decode check for a fitted scalar scorer (DRP, Direct Rank): the scaler
/// standardizes exactly the features the network consumes, and the
/// network emits one score per row. Scoring and the MC-dropout sweep
/// index by both.
pub fn check_scaled_scalar_net(scaler: &Standardizer, net: &Mlp) -> Result<(), String> {
    if scaler.means().len() != net.input_dim() {
        return Err(format!(
            "scaler standardizes {} features but the network takes {}",
            scaler.means().len(),
            net.input_dim()
        ));
    }
    if net.output_dim() != 1 {
        return Err(format!(
            "network emits {} outputs per row, expected 1",
            net.output_dim()
        ));
    }
    Ok(())
}

/// Hyperparameters shared by the representation-learning uplift models.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Trunk hidden units.
    pub hidden: usize,
    /// Representation (trunk output) dimension.
    pub rep_dim: usize,
    /// Head hidden units.
    pub head_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Dropout probability in the trunk.
    pub dropout: f64,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
}

tinyjson::json_struct!(NetConfig {
    hidden,
    rep_dim,
    head_hidden,
    epochs,
    batch_size,
    lr,
    dropout,
    grad_clip,
    weight_decay
});

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hidden: 64,
            rep_dim: 32,
            head_hidden: 32,
            epochs: 40,
            batch_size: 256,
            lr: 1e-3,
            dropout: 0.1,
            grad_clip: 5.0,
            weight_decay: 1e-5,
        }
    }
}

impl NetConfig {
    /// Builds the standard trunk: `dense(hidden, elu) → dropout →
    /// dense(rep_dim, elu)`.
    pub fn build_trunk(&self, input_dim: usize, rng: &mut Prng) -> Mlp {
        Mlp::builder(input_dim)
            .dense(self.hidden, Activation::Elu)
            .dropout(self.dropout)
            .dense(self.rep_dim, Activation::Elu)
            .build(rng)
    }

    /// Builds the standard scalar head: `dense(head_hidden, elu) →
    /// dense(1, identity)`.
    pub fn build_head(&self, input_dim: usize, rng: &mut Prng) -> Mlp {
        Mlp::builder(input_dim)
            .dense(self.head_hidden, Activation::Elu)
            .dense(1, Activation::Identity)
            .build(rng)
    }
}

/// Fits a standardizer and returns it with the transformed matrix.
pub fn standardize(x: &Matrix) -> (Standardizer, Matrix) {
    let s = Standardizer::fit(x);
    let z = s.transform(x);
    (s, z)
}

/// Shuffled minibatch index chunks for one epoch.
pub fn minibatches(n: usize, batch_size: usize, rng: &mut Prng) -> Vec<Vec<usize>> {
    assert!(n > 0, "minibatches: empty dataset");
    let order = rng.permutation(n);
    order
        .chunks(batch_size.clamp(1, n))
        .map(|c| c.to_vec())
        .collect()
}

/// MSE gradient masked to one treatment group: returns `dL/d pred` with
/// `2 (pred − y) / m` on rows of the batch whose treatment equals `group`
/// (`m` = number of such rows) and zero elsewhere, plus the group's summed
/// squared error for logging.
pub fn masked_mse_grad(
    preds: &[f64],
    batch: &[usize],
    t: &[u8],
    y: &[f64],
    group: u8,
) -> (Vec<f64>, f64) {
    assert_eq!(preds.len(), batch.len(), "masked_mse_grad: length mismatch");
    let m = batch.iter().filter(|&&i| t[i] == group).count();
    let mut grad = vec![0.0; preds.len()];
    let mut loss = 0.0;
    if m == 0 {
        return (grad, 0.0);
    }
    let inv = 1.0 / m as f64;
    for (k, &i) in batch.iter().enumerate() {
        if t[i] == group {
            let e = preds[k] - y[i];
            loss += e * e;
            grad[k] = 2.0 * e * inv;
        }
    }
    (grad, loss * inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minibatches_cover_everything() {
        let mut rng = Prng::seed_from_u64(0);
        let batches = minibatches(103, 32, &mut rng);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        assert_eq!(batches[0].len(), 32);
        assert_eq!(batches.last().unwrap().len(), 103 % 32);
    }

    #[test]
    fn masked_grad_zeroes_other_group() {
        let preds = [1.0, 2.0, 3.0];
        let batch = [0, 1, 2];
        let t = [1u8, 0, 1];
        let y = [0.0, 0.0, 0.0];
        let (g, loss) = masked_mse_grad(&preds, &batch, &t, &y, 1);
        assert_eq!(g[1], 0.0);
        assert!(g[0] > 0.0 && g[2] > 0.0);
        // loss = (1 + 9) / 2
        assert!((loss - 5.0).abs() < 1e-12);
        let (g0, _) = masked_mse_grad(&preds, &batch, &t, &y, 0);
        assert_eq!(g0[0], 0.0);
        assert!(g0[1] > 0.0);
    }

    #[test]
    fn masked_grad_empty_group_is_zero() {
        let (g, loss) = masked_mse_grad(&[1.0], &[0], &[1u8], &[0.0], 0);
        assert_eq!(g, vec![0.0]);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn trunk_and_head_shapes() {
        let cfg = NetConfig::default();
        let mut rng = Prng::seed_from_u64(1);
        let trunk = cfg.build_trunk(12, &mut rng);
        assert_eq!(trunk.input_dim(), 12);
        assert_eq!(trunk.output_dim(), cfg.rep_dim);
        let head = cfg.build_head(cfg.rep_dim, &mut rng);
        assert_eq!(head.output_dim(), 1);
    }
}
