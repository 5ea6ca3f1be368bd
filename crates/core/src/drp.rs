//! The DRP model (Zhou et al., AAAI 2023) — the baseline rDRP builds on.

use crate::config::DrpConfig;
use crate::loss::DrpObjective;
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::stats::Standardizer;
use linalg::vector::sigmoid;
use linalg::Matrix;
use nn::{mc_predict_map, Activation, McStats, Mlp, TrainConfig, Workspace};
use obs::Obs;
use uplift::error::{check_both_groups, check_xty};
use uplift::nnutil::check_scaled_scalar_net;
use uplift::FitError;

/// Direct ROI Prediction: a one-hidden-layer network scoring `ŝ(x)` whose
/// sigmoid is an unbiased ROI estimate when the Eq. (2) loss converges.
#[derive(Debug, Clone)]
pub struct DrpModel {
    config: DrpConfig,
    state: Option<Fitted>,
}

tinyjson::json_struct!(DrpModel { config, state });

#[derive(Debug, Clone)]
struct Fitted {
    scaler: Standardizer,
    net: Mlp,
    final_loss: Option<f64>,
}

tinyjson::json_struct!(Fitted { scaler, net, final_loss } check |f: &Fitted| {
    check_scaled_scalar_net(&f.scaler, &f.net)
});

impl DrpModel {
    /// Creates an unfitted DRP model.
    pub fn new(config: DrpConfig) -> Self {
        DrpModel {
            config,
            state: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DrpConfig {
        &self.config
    }

    /// Raw network scores `ŝ(x)` (pre-sigmoid), with batch-inference
    /// accounting routed through [`Mlp::predict_scalar`]
    /// (`infer.predict_*` histograms and counters).
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`].
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn predict_score(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        let state = self.state.as_ref().expect("DrpModel: fit before predict");
        let z = state.scaler.transform(x);
        state.net.predict_scalar(&z, obs)
    }

    /// Point ROI estimates `σ(ŝ(x))`, with batch-inference accounting.
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`].
    pub fn predict_roi(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        self.predict_score(x, obs)
            .into_iter()
            .map(sigmoid)
            .collect()
    }

    /// [`DrpModel::predict_roi`] reusing a caller-owned [`Workspace`] for
    /// the serial inference path — the variant long-lived scorers (the
    /// serving engine's worker threads) call in a loop.
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`].
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn predict_roi_with(&self, x: &Matrix, ws: &mut Workspace, obs: &Obs) -> Vec<f64> {
        let state = self.state.as_ref().expect("DrpModel: fit before predict");
        let z = state.scaler.transform(x);
        state
            .net
            .predict_scalar_with(&z, ws, obs)
            .into_iter()
            .map(sigmoid)
            .collect()
    }

    /// [`DrpModel::predict_roi`] through the columnar f32 kernel path
    /// ([`nn::Mlp::predict_scalar_block`]): the network runs in f32
    /// blocks, then the sigmoid is applied in f64. Scores match the
    /// scalar path to f32 rounding, not bitwise — see DESIGN.md §11 for
    /// the tolerance contract.
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`].
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn predict_roi_block(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        let state = self.state.as_ref().expect("DrpModel: fit before predict");
        let z = state.scaler.transform(x);
        state
            .net
            .predict_scalar_block(&z, obs)
            .into_iter()
            .map(sigmoid)
            .collect()
    }

    /// Feature dimension the fitted network consumes, or `None` before
    /// [`DrpModel::fit`].
    pub fn n_features(&self) -> Option<usize> {
        self.state.as_ref().map(|s| s.net.input_dim())
    }

    /// MC-dropout statistics of the *ROI* estimate `σ(ŝ)` — the mean is a
    /// smoothed point prediction and the std is the paper's `r̂(x)`.
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`] or when `passes == 0`.
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn mc_roi(
        &self,
        x: &Matrix,
        passes: usize,
        std_floor: f64,
        rng: &mut Prng,
        obs: &Obs,
    ) -> McStats {
        let state = self.state.as_ref().expect("DrpModel: fit before predict");
        let z = state.scaler.transform(x);
        mc_predict_map(&state.net, &z, passes, std_floor, rng, sigmoid, obs)
    }

    /// Like [`DrpModel::mc_roi`] but with the dropout layer's rate
    /// overridden to `rate` for the MC passes (the paper adds the MC
    /// dropout layer at inference, so its rate is independent of
    /// training). MC-sweep accounting goes through [`mc_predict_map`]
    /// (`infer.mc_*` histograms and counters).
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`] or when `passes == 0`.
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn mc_roi_with_rate(
        &self,
        x: &Matrix,
        passes: usize,
        rate: f64,
        std_floor: f64,
        rng: &mut Prng,
        obs: &Obs,
    ) -> McStats {
        let state = self.state.as_ref().expect("DrpModel: fit before predict");
        let z = state.scaler.transform(x);
        let net = state.net.with_dropout_rate(rate);
        mc_predict_map(&net, &z, passes, std_floor, rng, sigmoid, obs)
    }

    /// Final training loss (diagnostic; the paper's Fig. 3 is about this
    /// value failing to reach the convergence point). `None` when the
    /// trainer ran for zero epochs.
    ///
    /// # Panics
    /// Panics before [`DrpModel::fit`].
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn final_loss(&self) -> Option<f64> {
        self.state.as_ref().expect("DrpModel: fit first").final_loss
    }

    /// Fits the network on an RCT with the Eq. (2) loss, emitting the
    /// trainer's trace vocabulary (`train.epoch` events,
    /// divergence/LR-halving retries, final-loss gauge — see
    /// [`nn::train`]).
    pub fn fit(&mut self, data: &RctDataset, rng: &mut Prng, obs: &Obs) -> Result<(), FitError> {
        check_xty("DRP", &data.x, &data.t, &data.y_r)?;
        check_xty("DRP", &data.x, &data.t, &data.y_c)?;
        check_both_groups("DRP", &data.t)?;
        let (scaler, z) = {
            let s = Standardizer::fit(&data.x);
            let z = s.transform(&data.x);
            (s, z)
        };
        let mut net = Mlp::builder(z.cols())
            .dense(self.config.hidden, Activation::Elu)
            .dropout(self.config.dropout)
            .dense(1, Activation::Identity)
            .build(rng);
        let objective = DrpObjective::new(data.t.clone(), data.y_r.clone(), data.y_c.clone());
        let cfg = TrainConfig {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            lr: self.config.lr,
            grad_clip: self.config.grad_clip,
            weight_decay: self.config.weight_decay,
        };
        let report = nn::train(&mut net, &z, &objective, &cfg, rng, obs)?;
        self.state = Some(Fitted {
            scaler,
            net,
            final_loss: report.final_loss(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::{Population, RctGenerator};
    use datasets::CriteoLike;

    fn fitted(n: usize, epochs: usize, seed: u64) -> (DrpModel, RctDataset, RctDataset) {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(seed);
        let train = gen.sample(n, Population::Base, &mut rng);
        let test = gen.sample(n, Population::Base, &mut rng);
        let mut m = DrpModel::new(DrpConfig {
            epochs,
            ..DrpConfig::default()
        });
        m.fit(&train, &mut rng, &Obs::disabled()).unwrap();
        (m, train, test)
    }

    #[test]
    fn predictions_live_in_unit_interval() {
        let (m, _, test) = fitted(3000, 10, 0);
        let preds = m.predict_roi(&test.x, &Obs::disabled());
        assert!(preds.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn ranks_roi_better_than_random_out_of_sample() {
        // Averaged over two seeds: single-seed AUCC margins on the gated
        // Criteo lookalike are within evaluation noise.
        let mut diff_sum = 0.0;
        for seed in [1u64, 2] {
            let (m, _, test) = fitted(15_000, 40, seed);
            let preds = m.predict_roi(&test.x, &Obs::disabled());
            let aucc = metrics::aucc_from_labels(&test, &preds, 20);
            let mut rng = Prng::seed_from_u64(seed + 100);
            let random: Vec<f64> = (0..test.len()).map(|_| rng.uniform()).collect();
            diff_sum += aucc - metrics::aucc_from_labels(&test, &random, 20);
        }
        assert!(diff_sum / 2.0 > 0.01, "mean DRP-over-random {diff_sum}");
    }

    #[test]
    fn correlates_with_true_roi() {
        let (m, _, test) = fitted(15_000, 40, 3);
        let preds = m.predict_roi(&test.x, &Obs::disabled());
        let truth = test.true_roi().unwrap();
        let corr = linalg::stats::pearson(&preds, &truth);
        assert!(corr > 0.3, "corr {corr}");
    }

    #[test]
    fn mc_roi_bounds_and_spread() {
        let (m, _, test) = fitted(2000, 10, 4);
        let mut rng = Prng::seed_from_u64(5);
        let stats = m.mc_roi(&test.x, 30, 1e-6, &mut rng, &Obs::disabled());
        assert!(stats.mean.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(stats.std.iter().all(|&s| s >= 1e-6));
        assert!(stats.std.iter().any(|&s| s > 1e-4), "dropout should spread");
    }

    #[test]
    fn more_training_lowers_loss() {
        let (short, _, _) = fitted(4000, 3, 6);
        let (long, _, _) = fitted(4000, 40, 6);
        assert!(long.final_loss().unwrap() < short.final_loss().unwrap());
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let m = DrpModel::new(DrpConfig::default());
        let _ = m.predict_roi(&Matrix::zeros(1, 12), &Obs::disabled());
    }
}
