//! Minibatch training loop with divergence guardrails.
//!
//! Training failure is a *data* problem as much as an optimization
//! problem: a NaN feature, a corrupted label, or an over-eager learning
//! rate all surface here first, as a non-finite batch loss or an
//! exploding gradient. The loop therefore keeps a checkpoint of the best
//! weights seen so far and, when a divergence sentinel trips, rolls the
//! network back to that checkpoint, halves the learning rate, and
//! retries — a bounded number of times, with every recovery recorded in
//! the [`TrainReport`]. Only when the retries are exhausted does the run
//! return a typed [`TrainError`].

use crate::error::{DivergenceCause, TrainError};
use crate::mlp::Mlp;
use crate::multihead::clipped_step;
use crate::objective::Objective;
use crate::optimizer::Adam;
use crate::Mode;
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;

/// How many times a diverged run rolls back to the best checkpoint and
/// retries at half the learning rate before [`train`] gives up with
/// [`TrainError::Diverged`].
pub const MAX_DIVERGENCE_RETRIES: usize = 3;

/// Pre-clip global gradient norm beyond which a run is declared diverged
/// (non-finite norms always trip).
const GRAD_NORM_LIMIT: f64 = 1e6;

/// Training hyperparameters. Every run uses Adam and shuffles the rows
/// each epoch.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f64,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 256,
            lr: 1e-3,
            weight_decay: 0.0,
            grad_clip: 5.0,
        }
    }
}

/// One divergence-recovery event: the sentinel tripped, the network was
/// rolled back to the best checkpoint, and training resumed at `lr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Epoch (0-based, counting completed epochs) being attempted when
    /// the sentinel tripped.
    pub epoch: usize,
    /// What tripped the sentinel.
    pub cause: DivergenceCause,
    /// The halved learning rate used after the rollback.
    pub lr: f64,
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean per-batch loss for each completed epoch.
    pub epoch_losses: Vec<f64>,
    /// Every checkpoint-rollback the divergence guard performed, in
    /// order. Empty for a clean run.
    pub recoveries: Vec<Recovery>,
}

impl TrainReport {
    /// Loss of the final completed epoch, or `None` when no epoch
    /// completed (`epochs == 0`).
    pub fn final_loss(&self) -> Option<f64> {
        self.epoch_losses.last().copied()
    }

    /// Whether the divergence guard had to intervene at least once.
    pub fn recovered(&self) -> bool {
        !self.recoveries.is_empty()
    }
}

/// Checks the accumulated gradients for divergence: a non-finite global
/// norm always trips; a finite norm trips when it exceeds
/// [`GRAD_NORM_LIMIT`].
fn gradient_sentinel(net: &mut Mlp) -> Option<DivergenceCause> {
    let mut sq = 0.0;
    net.visit_params(|_p, g| sq += g.iter().map(|v| v * v).sum::<f64>());
    let norm = sq.sqrt();
    if !norm.is_finite() {
        return Some(DivergenceCause::NonFiniteGradient);
    }
    if norm > GRAD_NORM_LIMIT {
        return Some(DivergenceCause::ExplodingGradient { norm });
    }
    None
}

/// Trains `net` on the rows of `x` under `objective`.
///
/// The objective is consulted with the *row indices into `x`* of each
/// minibatch, so it can look up labels and apply batch-level normalization
/// (as the DRP and Direct Rank losses require).
///
/// The run's decisions are recorded through `obs`; pass
/// [`Obs::disabled`] when no trace is wanted (one branch per recording
/// call). Trace vocabulary:
/// * event `train.epoch` `{epoch, loss}` per completed epoch;
/// * event `train.divergence` `{epoch, cause, lr}` per sentinel trip, with
///   the *halved* learning rate the rollback resumes at;
/// * counters `train.epochs` and `train.divergence_retries`;
/// * gauge `train.final_loss` when at least one epoch completed.
///
/// # Errors
/// [`TrainError::EmptyDataset`] when `x` has no rows,
/// [`TrainError::NonScalarOutput`] when the network's output is not
/// 1-dimensional, and [`TrainError::Diverged`] when a non-finite loss or
/// exploding gradient persists through every rollback retry.
pub fn train(
    net: &mut Mlp,
    x: &Matrix,
    objective: &dyn Objective,
    config: &TrainConfig,
    rng: &mut Prng,
    obs: &Obs,
) -> Result<TrainReport, TrainError> {
    if x.rows() == 0 {
        return Err(TrainError::EmptyDataset);
    }
    if net.output_dim() != 1 {
        return Err(TrainError::NonScalarOutput {
            output_dim: net.output_dim(),
        });
    }
    let mut lr = config.lr;
    let mut opt = Adam::new(lr);
    let n = x.rows();
    let batch = config.batch_size.clamp(1, n);
    let mut order: Vec<usize> = (0..n).collect();
    let mut report = TrainReport {
        epoch_losses: Vec::with_capacity(config.epochs),
        recoveries: Vec::new(),
    };
    // Rollback target: the weights of the best epoch so far (the initial
    // weights until an epoch completes).
    let mut checkpoint = net.clone();
    let mut best_checkpoint_loss = f64::INFINITY;
    let mut attempts = 0usize;
    // The minibatch's rows, rebuilt in place every step.
    let mut xb = Matrix::default();

    let mut epoch = 0usize;
    while epoch < config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut tripped: Option<DivergenceCause> = None;
        for chunk in order.chunks(batch) {
            x.select_rows_into(chunk, &mut xb);
            net.zero_grad();
            // The output is one column, so its storage is the predictions.
            let preds = net.forward(&xb, Mode::Train, rng).as_slice();
            let (loss, grad) = objective.loss_and_grad(preds, chunk);
            if !loss.is_finite() {
                tripped = Some(DivergenceCause::NonFiniteLoss { loss });
                break;
            }
            epoch_loss += loss;
            batches += 1;
            net.backward_params(&Matrix::from_vec(grad.len(), 1, grad));
            if let Some(cause) = gradient_sentinel(net) {
                tripped = Some(cause);
                break;
            }
            clipped_step(net, &mut opt, config.grad_clip, config.weight_decay);
        }
        if let Some(cause) = tripped {
            attempts += 1;
            if attempts > MAX_DIVERGENCE_RETRIES {
                return Err(TrainError::Diverged {
                    epoch,
                    attempts: attempts - 1,
                    cause,
                });
            }
            // Roll back to the best weights and retry this epoch at half
            // the learning rate. The optimizer is rebuilt from scratch:
            // its moment estimates were accumulated along the diverged
            // trajectory and would re-poison the restored weights.
            net.clone_from(&checkpoint);
            lr *= 0.5;
            opt = Adam::new(lr);
            obs.counter("train.divergence_retries", 1.0);
            obs.event(
                "train.divergence",
                &[
                    ("epoch", epoch.into()),
                    ("cause", cause.label().into()),
                    ("lr", lr.into()),
                ],
            );
            report.recoveries.push(Recovery { epoch, cause, lr });
            continue;
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        obs.counter("train.epochs", 1.0);
        obs.event(
            "train.epoch",
            &[("epoch", epoch.into()), ("loss", mean_loss.into())],
        );
        report.epoch_losses.push(mean_loss);
        if mean_loss < best_checkpoint_loss {
            best_checkpoint_loss = mean_loss;
            checkpoint.clone_from(net);
        }
        epoch += 1;
    }
    if let Some(final_loss) = report.final_loss() {
        obs.gauge("train.final_loss", final_loss);
    }
    net.release_training_buffers();
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::objective::{BceObjective, MseObjective};
    use std::cell::Cell;

    /// y = 0.5 x0 - 1.5 x1 + 0.3, learnable by a linear model.
    fn linear_problem(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gaussian(), rng.gaussian()])
            .collect();
        let y = rows.iter().map(|r| 0.5 * r[0] - 1.5 * r[1] + 0.3).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn mse_regression_converges() {
        let (x, y) = linear_problem(256, 1);
        let mut rng = Prng::seed_from_u64(2);
        let mut net = Mlp::builder(2)
            .dense(8, Activation::Tanh)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = MseObjective::new(y);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 64,
            lr: 0.01,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap();
        let final_loss = report.final_loss().unwrap();
        assert!(final_loss < 0.01, "final loss {final_loss}");
        // Loss decreased substantially from the first epoch.
        assert!(final_loss < report.epoch_losses[0] / 10.0);
        assert!(!report.recovered());
    }

    #[test]
    fn bce_classification_converges() {
        let mut rng = Prng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..256)
            .map(|_| vec![rng.gaussian(), rng.gaussian()])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] + r[1] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut net = Mlp::builder(2)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = BceObjective::new(y.clone());
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 64,
            lr: 0.02,
            ..TrainConfig::default()
        };
        let _ = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap();
        // Training accuracy should be high on this separable problem.
        let preds = net.predict_scalar(&x, &Obs::disabled());
        let correct = preds
            .iter()
            .zip(&y)
            .filter(|(&s, &t)| (s > 0.0) == (t > 0.5))
            .count();
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (x, y) = linear_problem(128, 6);
        let obj = MseObjective::new(y);
        let train_with = |wd: f64| {
            let mut rng = Prng::seed_from_u64(7);
            let mut net = Mlp::builder(2)
                .dense(8, Activation::Tanh)
                .dense(1, Activation::Identity)
                .build(&mut rng);
            let cfg = TrainConfig {
                epochs: 100,
                weight_decay: wd,
                ..TrainConfig::default()
            };
            let _ = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap();
            let mut sq = 0.0;
            net.visit_params(|p, _| sq += p.iter().map(|v| v * v).sum::<f64>());
            sq
        };
        assert!(train_with(0.1) < train_with(0.0));
    }

    #[test]
    fn deterministic_given_seeds() {
        let (x, y) = linear_problem(64, 8);
        let obj = MseObjective::new(y);
        let run = || {
            let mut rng = Prng::seed_from_u64(9);
            let mut net = Mlp::builder(2)
                .dense(4, Activation::Tanh)
                .dense(1, Activation::Identity)
                .build(&mut rng);
            let cfg = TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            };
            train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled())
                .unwrap()
                .epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let mut rng = Prng::seed_from_u64(0);
        let mut net = Mlp::builder(2)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = MseObjective::new(vec![]);
        let err = train(
            &mut net,
            &Matrix::zeros(0, 2),
            &obj,
            &TrainConfig::default(),
            &mut rng,
            &Obs::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn non_scalar_output_is_a_typed_error() {
        let mut rng = Prng::seed_from_u64(0);
        let mut net = Mlp::builder(2)
            .dense(3, Activation::Identity)
            .build(&mut rng);
        let (x, y) = linear_problem(8, 1);
        let obj = MseObjective::new(y);
        let err = train(
            &mut net,
            &x,
            &obj,
            &TrainConfig::default(),
            &mut rng,
            &Obs::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, TrainError::NonScalarOutput { output_dim: 3 });
    }

    #[test]
    fn zero_epochs_reports_no_final_loss() {
        let (x, y) = linear_problem(8, 2);
        let mut rng = Prng::seed_from_u64(1);
        let mut net = Mlp::builder(2)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = MseObjective::new(y);
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap();
        assert_eq!(report.final_loss(), None);
    }

    #[test]
    fn nan_labels_exhaust_retries_into_typed_error() {
        let (x, mut y) = linear_problem(64, 3);
        y[10] = f64::NAN;
        let mut rng = Prng::seed_from_u64(4);
        let mut net = Mlp::builder(2)
            .dense(4, Activation::Tanh)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = MseObjective::new(y);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 64, // one batch: the NaN label poisons every epoch
            ..TrainConfig::default()
        };
        let err = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap_err();
        match err {
            TrainError::Diverged {
                epoch,
                attempts,
                cause,
            } => {
                assert_eq!(epoch, 0, "NaN data diverges immediately");
                assert_eq!(attempts, MAX_DIVERGENCE_RETRIES);
                assert!(matches!(cause, DivergenceCause::NonFiniteLoss { .. }));
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn exploding_lr_without_clipping_is_a_typed_error_not_a_panic() {
        // Feature scale x10 makes the MSE Hessian stiff; absurd Adam
        // steps with clipping disabled must explode, trip the sentinel on
        // every retry, and come back as a typed error.
        let (x, y) = linear_problem(128, 5);
        let x = x.scale(10.0);
        let mut rng = Prng::seed_from_u64(6);
        let mut net = Mlp::builder(2)
            .dense(4, Activation::Tanh)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = MseObjective::new(y);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 32,
            lr: 1e9,
            grad_clip: 0.0,
            ..TrainConfig::default()
        };
        let err = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap_err();
        assert!(matches!(err, TrainError::Diverged { .. }), "{err:?}");
    }

    /// Objective that reports a NaN loss for its first `poisoned` calls,
    /// then delegates to MSE — a deterministic transient divergence.
    struct TransientNan {
        inner: MseObjective,
        remaining: Cell<usize>,
    }

    impl Objective for TransientNan {
        fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>) {
            if self.remaining.get() > 0 {
                self.remaining.set(self.remaining.get() - 1);
                return (f64::NAN, vec![0.0; preds.len()]);
            }
            self.inner.loss_and_grad(preds, rows)
        }
    }

    #[test]
    fn transient_divergence_rolls_back_and_recovers() {
        let (x, y) = linear_problem(128, 10);
        let mut rng = Prng::seed_from_u64(11);
        let mut net = Mlp::builder(2)
            .dense(8, Activation::Tanh)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let obj = TransientNan {
            inner: MseObjective::new(y),
            remaining: Cell::new(2),
        };
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 64,
            lr: 0.02,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x, &obj, &cfg, &mut rng, &Obs::disabled()).unwrap();
        // Two poisoned calls => two rollbacks, each halving the LR.
        assert_eq!(report.recoveries.len(), 2);
        assert!(report.recovered());
        assert!((report.recoveries[0].lr - 0.01).abs() < 1e-12);
        assert!((report.recoveries[1].lr - 0.005).abs() < 1e-12);
        assert!(report
            .recoveries
            .iter()
            .all(|r| matches!(r.cause, DivergenceCause::NonFiniteLoss { .. })));
        // All attempted epochs still completed and training converged.
        assert_eq!(report.epoch_losses.len(), 200);
        assert!(report.final_loss().unwrap() < 0.05);
    }

    /// The training step as plain `Matrix` products: every layer keeps
    /// fresh copies of its input and pre-activation, takes `f'` from a
    /// second pass over `z`, and builds `xᵀ` and `Wᵀ` for the textbook
    /// products — the step the reusable-buffer layers must match bit for
    /// bit.
    enum RefLayer {
        Dense {
            w: Matrix,
            b: Vec<f64>,
            act: Activation,
            gw: Matrix,
            gb: Vec<f64>,
            x: Matrix,
            z: Matrix,
        },
        Dropout {
            p: f64,
            mask: Matrix,
        },
    }

    fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.shape(), b.shape());
        let data = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y);
        Matrix::from_vec(a.rows(), a.cols(), data.collect())
    }

    fn reference_layers(net: &Mlp) -> Vec<RefLayer> {
        use crate::mlp::Layer;
        net.layers()
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => RefLayer::Dense {
                    w: d.weights().clone(),
                    b: d.biases().to_vec(),
                    act: d.activation(),
                    gw: Matrix::zeros(d.fan_in(), d.fan_out()),
                    gb: vec![0.0; d.fan_out()],
                    x: Matrix::zeros(0, 0),
                    z: Matrix::zeros(0, 0),
                },
                Layer::Dropout(d) => RefLayer::Dropout {
                    p: d.p(),
                    mask: Matrix::zeros(0, 0),
                },
            })
            .collect()
    }

    fn reference_forward(layers: &mut [RefLayer], x: &Matrix, rng: &mut Prng) -> Matrix {
        let mut h = x.clone();
        for layer in layers {
            h = match layer {
                RefLayer::Dense {
                    w, b, act, x, z, ..
                } => {
                    let mut pre = h.matmul(w).unwrap();
                    pre.add_row_vector_mut(b).unwrap();
                    *x = h;
                    *z = pre.clone();
                    pre.map_mut(|v| act.apply(v));
                    pre
                }
                RefLayer::Dropout { p, mask } => {
                    let keep = 1.0 - *p;
                    let scale = 1.0 / keep;
                    let draws =
                        (0..h.rows() * h.cols())
                            .map(|_| if rng.bernoulli(keep) { scale } else { 0.0 });
                    *mask = Matrix::from_vec(h.rows(), h.cols(), draws.collect());
                    hadamard(&h, mask)
                }
            };
        }
        h
    }

    fn reference_backward(layers: &mut [RefLayer], grad_out: &Matrix) {
        let mut g = grad_out.clone();
        for layer in layers.iter_mut().rev() {
            g = match layer {
                RefLayer::Dense {
                    w,
                    act,
                    gw,
                    gb,
                    x,
                    z,
                    ..
                } => {
                    let mut fprime = z.clone();
                    fprime.map_mut(|v| act.derivative(v));
                    let delta = hadamard(&g, &fprime);
                    *gw = gw.add(&x.transpose().matmul(&delta).unwrap()).unwrap();
                    for (acc, v) in gb.iter_mut().zip(delta.col_sums()) {
                        *acc += v;
                    }
                    delta.matmul(&w.transpose()).unwrap()
                }
                RefLayer::Dropout { mask, .. } => hadamard(&g, mask),
            };
        }
    }

    /// Adam step with global-norm clipping and weight decay, building a
    /// fresh adjusted-gradient vector per tensor. Returns whether the
    /// clip fired.
    fn reference_step(layers: &mut [RefLayer], opt: &mut Adam, clip: f64, decay: f64) -> bool {
        let mut sq = 0.0;
        for layer in layers.iter() {
            if let RefLayer::Dense { gw, gb, .. } = layer {
                sq += gw.as_slice().iter().map(|v| v * v).sum::<f64>();
                sq += gb.iter().map(|v| v * v).sum::<f64>();
            }
        }
        let norm = sq.sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        let mut id = 0;
        for layer in layers.iter_mut() {
            if let RefLayer::Dense { w, b, gw, gb, .. } = layer {
                for (p, g) in [
                    (w.as_mut_slice(), gw.as_slice()),
                    (b.as_mut_slice(), &gb[..]),
                ] {
                    let adjusted: Vec<f64> = p
                        .iter()
                        .zip(g)
                        .map(|(&pi, &gi)| gi * scale + decay * pi)
                        .collect();
                    opt.update(id, p, &adjusted);
                    id += 1;
                }
            }
        }
        opt.end_step();
        scale != 1.0
    }

    /// `train`'s weights and losses against the reference step, bit for
    /// bit, on what the golden fixtures (DRP: ELU, one dropout, no
    /// clipping in practice, weight decay 1e-5, full batches) leave out:
    /// tanh, two dropout layers, a hidden layer whose input gradient is
    /// needed, clipping that fires, weight decay 0 and a final partial
    /// batch.
    #[test]
    fn train_matches_the_plain_matrix_reference_step_bitwise() {
        let (x, y) = linear_problem(50, 14);
        let obj = MseObjective::new(y);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 16, // 16 + 16 + 16 + 2
            lr: 0.05,
            grad_clip: 0.05,
            weight_decay: 0.0,
        };
        let mut init_rng = Prng::seed_from_u64(15);
        let mut net = Mlp::builder(2)
            .dense(8, Activation::Tanh)
            .dropout(0.2)
            .dense(5, Activation::Tanh)
            .dropout(0.3)
            .dense(1, Activation::Identity)
            .build(&mut init_rng);
        let mut layers = reference_layers(&net);

        let mut train_rng = Prng::seed_from_u64(16);
        let report = train(&mut net, &x, &obj, &cfg, &mut train_rng, &Obs::disabled()).unwrap();
        assert!(!report.recovered());

        let mut rng = Prng::seed_from_u64(16);
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut clipped = 0;
        let mut losses = Vec::new();
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size) {
                for layer in layers.iter_mut() {
                    if let RefLayer::Dense { gw, gb, .. } = layer {
                        *gw = Matrix::zeros(gw.rows(), gw.cols());
                        gb.iter_mut().for_each(|v| *v = 0.0);
                    }
                }
                let out = reference_forward(&mut layers, &x.select_rows(chunk), &mut rng);
                let (loss, grad) = obj.loss_and_grad(&out.col(0), chunk);
                epoch_loss += loss;
                batches += 1;
                reference_backward(&mut layers, &Matrix::column(&grad));
                if reference_step(&mut layers, &mut opt, cfg.grad_clip, cfg.weight_decay) {
                    clipped += 1;
                }
            }
            losses.push(epoch_loss / batches as f64);
        }
        assert!(clipped > 0, "the clip never fired");

        let mut got = Vec::new();
        net.visit_params(|p, _| got.extend(p.iter().map(|v| v.to_bits())));
        let mut want = Vec::new();
        for layer in &layers {
            if let RefLayer::Dense { w, b, .. } = layer {
                want.extend(w.as_slice().iter().chain(b).map(|v| v.to_bits()));
            }
        }
        assert_eq!(got, want, "weights");
        let loss_bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            loss_bits(&report.epoch_losses),
            loss_bits(&losses),
            "losses"
        );
        // Both runs drew the same number of values.
        assert_eq!(train_rng.uniform(), rng.uniform());
    }
}
