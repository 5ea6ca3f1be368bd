//! K-arm outcome training over a shared-trunk multi-head network.
//!
//! The K-arm meta-learners need one conditional-outcome surface per arm:
//! head `k` of a [`MultiHeadNet`] predicts `E[y | x, arm = k]` (arm 0 is
//! control). Training uses a **masked** squared loss: each minibatch row
//! contributes gradient only through the head of the arm that row
//! actually received, so every head is fit on its own arm's outcomes
//! while the trunk representation is shared across all arms — the same
//! weight-sharing trick TARNet uses for two arms, generalized to K.
//!
//! The loop mirrors [`crate::trainer::train`]'s structure and takes its
//! [`TrainConfig`] (minibatches, Adam, global-norm clipping via
//! [`clipped_step`]) but fails fast on a
//! non-finite loss instead of carrying the checkpoint-rollback machinery:
//! the K-arm fitters feed it bounded synthetic outcomes where divergence
//! means bad inputs, not bad luck.

use crate::error::{DivergenceCause, TrainError};
use crate::multihead::{clipped_step, MultiHeadNet};
use crate::optimizer::Adam;
use crate::trainer::TrainConfig;
use crate::Mode;
use crate::{Activation, Mlp};
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;

/// Builds the canonical K-arm network: a `rep_dim`-unit tanh trunk and
/// one scalar head per arm (a `head_hidden`-unit tanh layer feeding an
/// identity unit; `head_hidden = 0` makes the heads linear).
pub fn build_karm_net(
    input_dim: usize,
    rep_dim: usize,
    head_hidden: usize,
    n_arms: usize,
    rng: &mut Prng,
) -> MultiHeadNet {
    let trunk = Mlp::builder(input_dim)
        .dense(rep_dim, Activation::Tanh)
        .build(rng);
    let heads = (0..n_arms)
        .map(|_| {
            let b = Mlp::builder(rep_dim);
            if head_hidden > 0 {
                b.dense(head_hidden, Activation::Tanh)
                    .dense(1, Activation::Identity)
                    .build(rng)
            } else {
                b.dense(1, Activation::Identity).build(rng)
            }
        })
        .collect();
    MultiHeadNet::new(trunk, heads)
}

fn check_inputs(net: &MultiHeadNet, x: &Matrix, arms: &[u8], y: &[f64]) -> Result<(), TrainError> {
    if x.rows() == 0 {
        return Err(TrainError::EmptyDataset);
    }
    if arms.len() != x.rows() || y.len() != x.rows() {
        return Err(TrainError::ShapeMismatch {
            detail: format!(
                "{} feature rows vs {} arm labels vs {} outcomes",
                x.rows(),
                arms.len(),
                y.len()
            ),
        });
    }
    let heads = net.head_count();
    if let Some(&bad) = arms.iter().find(|&&a| usize::from(a) >= heads) {
        return Err(TrainError::ShapeMismatch {
            detail: format!("arm {bad} has no head (network has {heads} heads)"),
        });
    }
    if let Some(dim) = net.head_output_dims().into_iter().find(|&d| d != 1) {
        return Err(TrainError::NonScalarOutput { output_dim: dim });
    }
    Ok(())
}

/// Trains `net`'s heads so head `k` regresses `E[y | x, arm = k]`, using
/// the masked squared loss described in the module docs. Returns the mean
/// per-batch loss of each epoch.
///
/// Trace vocabulary (under `obs`): event `karm.epoch` `{epoch, loss}`,
/// counter `karm.epochs`, gauge `karm.final_loss`.
///
/// # Errors
/// [`TrainError::EmptyDataset`], [`TrainError::ShapeMismatch`] when the
/// inputs disagree or an arm index has no head,
/// [`TrainError::NonScalarOutput`] when a head is not scalar, and
/// [`TrainError::Diverged`] on a non-finite batch loss.
pub fn train_arm_heads(
    net: &mut MultiHeadNet,
    x: &Matrix,
    arms: &[u8],
    y: &[f64],
    config: &TrainConfig,
    rng: &mut Prng,
    obs: &Obs,
) -> Result<Vec<f64>, TrainError> {
    check_inputs(net, x, arms, y)?;
    let n = x.rows();
    let heads = net.head_count();
    let batch = config.batch_size.clamp(1, n);
    let mut opt = Adam::new(config.lr);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    // The minibatch's rows, rebuilt in place every step.
    let mut xb = Matrix::default();
    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(batch) {
            x.select_rows_into(chunk, &mut xb);
            net.zero_grad();
            let outs = net.forward(&xb, Mode::Train, rng);
            let m = chunk.len() as f64;
            let mut loss = 0.0;
            let mut grads = vec![vec![0.0; chunk.len()]; heads];
            for (pos, &row) in chunk.iter().enumerate() {
                let a = usize::from(arms[row]);
                let pred = outs[a].get(pos, 0);
                let err = pred - y[row];
                loss += err * err / m;
                grads[a][pos] = 2.0 * err / m;
            }
            if !loss.is_finite() {
                return Err(TrainError::Diverged {
                    epoch,
                    attempts: 0,
                    cause: DivergenceCause::NonFiniteLoss { loss },
                });
            }
            epoch_loss += loss;
            batches += 1;
            let head_grads: Vec<Matrix> = grads.iter().map(|g| Matrix::column(g)).collect();
            net.backward(&head_grads);
            clipped_step(net, &mut opt, config.grad_clip, config.weight_decay);
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        obs.counter("karm.epochs", 1.0);
        obs.event(
            "karm.epoch",
            &[("epoch", epoch.into()), ("loss", mean_loss.into())],
        );
        epoch_losses.push(mean_loss);
    }
    if let Some(&final_loss) = epoch_losses.last() {
        obs.gauge("karm.final_loss", final_loss);
    }
    net.release_training_buffers();
    Ok(epoch_losses)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three arms with distinct conditional means over one feature:
    /// `y = effect[a] + 0.5 x + noise`.
    fn three_arm_problem(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<f64>) {
        let effects = [0.0, 1.0, -2.0];
        let mut rng = Prng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut arms = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let x = rng.gaussian();
            let a = (i % 3) as u8;
            rows.push(vec![x]);
            arms.push(a);
            y.push(effects[a as usize] + 0.5 * x + 0.05 * rng.gaussian());
        }
        (Matrix::from_rows(&rows), arms, y)
    }

    #[test]
    fn heads_learn_their_own_arms_conditional_mean() {
        let (x, arms, y) = three_arm_problem(600, 1);
        let mut rng = Prng::seed_from_u64(2);
        let mut net = build_karm_net(1, 8, 4, 3, &mut rng);
        let cfg = TrainConfig {
            epochs: 200,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let losses =
            train_arm_heads(&mut net, &x, &arms, &y, &cfg, &mut rng, &Obs::disabled()).unwrap();
        assert!(losses.last().unwrap() < &0.02, "loss {:?}", losses.last());
        // At x = 0 the heads should separate by the arm effects.
        let probe = Matrix::from_rows(&[vec![0.0]]);
        let preds = net.predict_scalars(&probe);
        assert!((preds[0][0] - 0.0).abs() < 0.2, "control {}", preds[0][0]);
        assert!((preds[1][0] - 1.0).abs() < 0.2, "arm 1 {}", preds[1][0]);
        assert!((preds[2][0] + 2.0).abs() < 0.2, "arm 2 {}", preds[2][0]);
    }

    #[test]
    fn deterministic_given_seeds() {
        let (x, arms, y) = three_arm_problem(120, 3);
        let run = || {
            let mut rng = Prng::seed_from_u64(4);
            let mut net = build_karm_net(1, 4, 0, 3, &mut rng);
            let cfg = TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            };
            train_arm_heads(&mut net, &x, &arms, &y, &cfg, &mut rng, &Obs::disabled()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shape_problems_are_typed_errors() {
        let (x, arms, y) = three_arm_problem(30, 5);
        let mut rng = Prng::seed_from_u64(6);
        let cfg = TrainConfig::default();
        // Arm index with no head.
        let mut two_heads = build_karm_net(1, 4, 0, 2, &mut rng);
        let err = train_arm_heads(
            &mut two_heads,
            &x,
            &arms,
            &y,
            &cfg,
            &mut rng,
            &Obs::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::ShapeMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("no head"), "{err}");
        // Label-count mismatch.
        let mut net = build_karm_net(1, 4, 0, 3, &mut rng);
        let err = train_arm_heads(
            &mut net,
            &x,
            &arms[..10],
            &y,
            &cfg,
            &mut rng,
            &Obs::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::ShapeMismatch { .. }), "{err:?}");
        // Empty data.
        let err = train_arm_heads(
            &mut net,
            &Matrix::zeros(0, 1),
            &[],
            &[],
            &cfg,
            &mut rng,
            &Obs::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn non_finite_labels_fail_fast() {
        let (x, arms, mut y) = three_arm_problem(30, 7);
        y[3] = f64::NAN;
        let mut rng = Prng::seed_from_u64(8);
        let mut net = build_karm_net(1, 4, 0, 3, &mut rng);
        let cfg = TrainConfig::default();
        let err =
            train_arm_heads(&mut net, &x, &arms, &y, &cfg, &mut rng, &Obs::disabled()).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Diverged {
                    epoch: 0,
                    attempts: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
