//! Direct Rank (Du, Lee & Ghaffarizadeh 2019).
//!
//! DR learns a score whose *ranking* matches ROI by maximizing a
//! softmax-weighted ratio of IPW-transformed revenue uplift to cost
//! uplift. With `p = softmax(s)` over the batch and the RCT inverse
//! propensity transform `w_i = t_i/e − (1−t_i)/(1−e)` (so that
//! `E[w_i y_i | x_i] = τ(x_i)`):
//!
//! ```text
//! L(s) = − ( Σ_i w_i y^r_i p_i ) / ( Σ_i w_i y^c_i p_i )
//! ```
//!
//! The ratio-of-softmax form is **non-convex** — the property the rDRP
//! paper leans on: DR has no unique loss convergence point, so Algorithm 2
//! (binary search for `roi*`) and conformal calibration cannot be applied
//! to it (only the MC-dropout part of the ablation can). The paper cites
//! but does not restate this loss; the reconstruction above is documented
//! in DESIGN.md (substitution 6).

use crate::error::{check_both_groups, check_xty, FitError};
use crate::nnutil::{check_scaled_scalar_net, standardize, NetConfig};
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::stats::Standardizer;
use linalg::vector::softmax;
use linalg::Matrix;
use nn::{mc_predict, McStats, Mlp, Objective, TrainConfig};

/// Floor applied to the denominator of the ratio loss to keep it finite
/// on batches whose estimated cost uplift is near zero or negative.
const DENOM_FLOOR: f64 = 1e-3;

/// The Direct Rank objective (see module docs).
#[derive(Debug, Clone)]
pub struct DrObjective {
    t: Vec<u8>,
    y_r: Vec<f64>,
    y_c: Vec<f64>,
    propensity: f64,
}

impl DrObjective {
    /// Builds the objective from full-dataset labels; `propensity` is the
    /// RCT treated fraction.
    pub fn new(t: Vec<u8>, y_r: Vec<f64>, y_c: Vec<f64>, propensity: f64) -> Self {
        assert!(
            propensity > 0.0 && propensity < 1.0,
            "DrObjective: propensity must be in (0,1)"
        );
        DrObjective {
            t,
            y_r,
            y_c,
            propensity,
        }
    }

    fn weight(&self, i: usize) -> f64 {
        if self.t[i] == 1 {
            1.0 / self.propensity
        } else {
            -1.0 / (1.0 - self.propensity)
        }
    }
}

impl Objective for DrObjective {
    fn loss_and_grad(&self, preds: &[f64], rows: &[usize]) -> (f64, Vec<f64>) {
        assert_eq!(preds.len(), rows.len(), "DR: preds/rows length mismatch");
        let p = softmax(preds);
        let mut a = 0.0; // softmax-weighted revenue uplift
        let mut b = 0.0; // softmax-weighted cost uplift
        for (k, &i) in rows.iter().enumerate() {
            let w = self.weight(i);
            a += w * self.y_r[i] * p[k];
            b += w * self.y_c[i] * p[k];
        }
        let clamped = b < DENOM_FLOOR;
        let b_eff = b.max(DENOM_FLOOR);
        let loss = -a / b_eff;
        // dA/ds_j = p_j (w_j y^r_j − A); dB/ds_j = p_j (w_j y^c_j − B);
        // dL/ds_j = −(dA·B − A·dB)/B² (dB = 0 where the floor binds).
        let grad = rows
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                let w = self.weight(i);
                let da = p[j] * (w * self.y_r[i] - a);
                let db = if clamped {
                    0.0
                } else {
                    p[j] * (w * self.y_c[i] - b)
                };
                -(da * b_eff - a * db) / (b_eff * b_eff)
            })
            .collect();
        (loss, grad)
    }
}

/// The Direct Rank ROI model.
#[derive(Debug, Clone)]
pub struct DirectRank {
    config: NetConfig,
    state: Option<Fitted>,
}

tinyjson::json_struct!(DirectRank { config, state });

#[derive(Debug, Clone)]
struct Fitted {
    scaler: Standardizer,
    net: Mlp,
}

tinyjson::json_struct!(Fitted { scaler, net } check |f: &Fitted| {
    check_scaled_scalar_net(&f.scaler, &f.net)
});

impl DirectRank {
    /// Creates an unfitted Direct Rank model.
    pub fn new(config: NetConfig) -> Self {
        DirectRank {
            config,
            state: None,
        }
    }

    /// Feature dimension the fitted model consumes, or `None` before
    /// fitting.
    pub fn n_features(&self) -> Option<usize> {
        self.state.as_ref().map(|s| s.net.input_dim())
    }

    /// MC-dropout statistics of the score (used by the "DR w/ MC"
    /// ablation: the point estimate is combined with the MC std).
    ///
    /// # Panics
    /// Panics before [`DirectRank::fit`].
    pub fn mc_scores(&self, x: &Matrix, passes: usize, rng: &mut Prng) -> McStats {
        let state = self.state.as_ref().expect("DirectRank: fit before predict");
        let z = state.scaler.transform(x);
        mc_predict(&state.net, &z, passes, 0.0, rng, &obs::Obs::disabled())
    }

    /// Fits the ranking network on a full RCT with the Direct Rank loss.
    ///
    /// # Errors
    /// [`FitError::InvalidData`] for malformed inputs or a missing
    /// treatment group, [`FitError::Train`] for training divergence.
    pub fn fit(&mut self, data: &RctDataset, rng: &mut Prng) -> Result<(), FitError> {
        check_xty("DirectRank::fit", &data.x, &data.t, &data.y_r)?;
        check_xty("DirectRank::fit", &data.x, &data.t, &data.y_c)?;
        check_both_groups("DirectRank::fit", &data.t)?;
        let n1 = data.n_treated();
        let (scaler, z) = standardize(&data.x);
        let mut net = Mlp::builder(z.cols())
            .dense(self.config.hidden, nn::Activation::Elu)
            .dropout(self.config.dropout)
            .dense(1, nn::Activation::Identity)
            .build(rng);
        let objective = DrObjective::new(
            data.t.clone(),
            data.y_r.clone(),
            data.y_c.clone(),
            n1 as f64 / data.len() as f64,
        );
        let cfg = TrainConfig {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            lr: self.config.lr,
            grad_clip: self.config.grad_clip,
            weight_decay: self.config.weight_decay,
        };
        nn::train(&mut net, &z, &objective, &cfg, rng, &obs::Obs::disabled())?;
        self.state = Some(Fitted { scaler, net });
        Ok(())
    }

    /// Uncalibrated ROI ranking scores for every row of `x`.
    ///
    /// # Panics
    /// Panics before [`DirectRank::fit`].
    pub fn predict_roi(&self, x: &Matrix) -> Vec<f64> {
        let state = self.state.as_ref().expect("DirectRank: fit before predict");
        let z = state.scaler.transform(x);
        state.net.predict_scalar(&z, &obs::Obs::disabled())
    }

    /// [`DirectRank::predict_roi`] through the columnar f32 kernels,
    /// within the DESIGN.md §11 tolerance contract.
    pub fn predict_roi_block(&self, x: &Matrix) -> Vec<f64> {
        let state = self.state.as_ref().expect("DirectRank: fit before predict");
        // Standardization stays in f64; only the network runs in f32.
        let z = state.scaler.transform(x);
        state.net.predict_scalar_block(&z, &obs::Obs::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::{Population, RctGenerator};
    use datasets::CriteoLike;

    #[test]
    fn dr_objective_gradient_matches_finite_differences() {
        let obj = DrObjective::new(
            vec![1, 0, 1, 0, 1],
            vec![1.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0, 1.0],
            0.6,
        );
        let preds = [0.3, -0.2, 0.8, 0.1, -0.5];
        let rows = [0, 1, 2, 3, 4];
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
    fn denominator_floor_prevents_blowup() {
        // All-control batch => negative weights => negative B => floored.
        let obj = DrObjective::new(vec![0, 0], vec![1.0, 1.0], vec![1.0, 1.0], 0.5);
        let (loss, grad) = obj.loss_and_grad(&[0.0, 0.0], &[0, 1]);
        assert!(loss.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn learns_roi_ranking_on_synthetic_data() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(0);
        let data = gen.sample(8000, Population::Base, &mut rng);
        let mut dr = DirectRank::new(NetConfig {
            epochs: 30,
            lr: 5e-3,
            ..NetConfig::default()
        });
        dr.fit(&data, &mut rng).unwrap();
        let scores = dr.predict_roi(&data.x);
        let aucc = metrics::aucc_from_labels(&data, &scores, 50);
        assert!(aucc > 0.52, "DR AUCC {aucc}");
    }

    #[test]
    fn mc_scores_have_positive_std() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(1);
        let data = gen.sample(1000, Population::Base, &mut rng);
        let mut dr = DirectRank::new(NetConfig {
            epochs: 5,
            ..NetConfig::default()
        });
        dr.fit(&data, &mut rng).unwrap();
        let stats = dr.mc_scores(&data.x, 20, &mut rng);
        assert_eq!(stats.mean.len(), data.len());
        assert!(stats.std.iter().any(|&s| s > 0.0));
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let dr = DirectRank::new(NetConfig::default());
        let _ = dr.predict_roi(&Matrix::zeros(1, 2));
    }
}
