//! Meta-learners: S- and X-learner (Künzel et al. 2019).

use crate::error::{check_both_groups, check_xty, FitError};
use crate::regressor::{BaseLearner, FittedRegressor};
use crate::UpliftModel;
use linalg::block::FeatureBlock;
use linalg::random::Prng;
use linalg::Matrix;

/// A one-column block holding `value` in every logical row — the block
/// layout's equivalent of [`Matrix::full`]`(rows, 1, value)` for the
/// treatment-indicator columns the S-learner appends. `0.0` and `1.0`
/// are exact in `f32`, so the appended column is bitwise faithful.
pub(crate) fn const_col_block(rows: usize, value: f32) -> FeatureBlock {
    let mut col = FeatureBlock::zeros(rows, 1);
    col.col_mut(0)[..rows].fill(value);
    col
}

/// S-learner: a single outcome model `μ(x, t)` with the treatment appended
/// as a feature; `τ̂(x) = μ(x, 1) − μ(x, 0)`.
#[derive(Debug, Clone)]
pub struct SLearner {
    base: BaseLearner,
    model: Option<FittedRegressor>,
}

tinyjson::json_struct!(SLearner { base, model });

impl SLearner {
    /// Creates an S-learner over the given base regressor.
    pub fn new(base: BaseLearner) -> Self {
        SLearner { base, model: None }
    }
}

impl UpliftModel for SLearner {
    fn name(&self) -> String {
        "S-Learner".to_string()
    }

    fn to_tagged_json(&self) -> Option<tinyjson::Value> {
        Some(tinyjson::Value::Obj(vec![(
            "SLearner".to_string(),
            tinyjson::ToJson::to_json(self),
        )]))
    }

    fn fit(&mut self, x: &Matrix, t: &[u8], y: &[f64], rng: &mut Prng) -> Result<(), FitError> {
        check_xty("SLearner::fit", x, t, y)?;
        let t_col = Matrix::column(&t.iter().map(|&v| f64::from(v)).collect::<Vec<_>>());
        let design = x.hstack(&t_col).expect("row counts match");
        self.model = Some(self.base.fit(&design, y, rng));
        Ok(())
    }

    fn predict_uplift(&self, x: &Matrix) -> Vec<f64> {
        let model = self.model.as_ref().expect("SLearner: fit before predict");
        let ones = Matrix::full(x.rows(), 1, 1.0);
        let zeros = Matrix::zeros(x.rows(), 1);
        let mu1 = model.predict(&x.hstack(&ones).expect("shapes match"));
        let mu0 = model.predict(&x.hstack(&zeros).expect("shapes match"));
        mu1.iter().zip(&mu0).map(|(a, b)| a - b).collect()
    }

    fn predict_uplift_block(&self, x: &Matrix) -> Vec<f64> {
        let model = self.model.as_ref().expect("SLearner: fit before predict");
        let block = FeatureBlock::from_matrix(x);
        let mu1 = model.predict_block(&block.hstack(&const_col_block(x.rows(), 1.0)));
        let mu0 = model.predict_block(&block.hstack(&const_col_block(x.rows(), 0.0)));
        mu1.iter().zip(&mu0).map(|(a, b)| a - b).collect()
    }
}

fn group_rows(t: &[u8], group: u8) -> Vec<usize> {
    (0..t.len()).filter(|&i| t[i] == group).collect()
}

fn select(v: &[f64], rows: &[usize]) -> Vec<f64> {
    rows.iter().map(|&i| v[i]).collect()
}

/// X-learner (Künzel et al. 2019): T-learner first stage, then imputed
/// individual effects are regressed per group and blended with the
/// propensity `e` — under an RCT, `e = N₁/N` is known exactly:
/// `τ̂(x) = e·τ̂₀(x) + (1−e)·τ̂₁(x)`.
#[derive(Debug, Clone)]
pub struct XLearner {
    base: BaseLearner,
    tau1: Option<FittedRegressor>,
    tau0: Option<FittedRegressor>,
    propensity: f64,
}

tinyjson::json_struct!(XLearner {
    base,
    tau1,
    tau0,
    propensity
});

impl XLearner {
    /// Creates an X-learner over the given base regressor.
    pub fn new(base: BaseLearner) -> Self {
        XLearner {
            base,
            tau1: None,
            tau0: None,
            propensity: 0.5,
        }
    }
}

impl UpliftModel for XLearner {
    fn name(&self) -> String {
        "X-Learner".to_string()
    }

    fn to_tagged_json(&self) -> Option<tinyjson::Value> {
        Some(tinyjson::Value::Obj(vec![(
            "XLearner".to_string(),
            tinyjson::ToJson::to_json(self),
        )]))
    }

    fn fit(&mut self, x: &Matrix, t: &[u8], y: &[f64], rng: &mut Prng) -> Result<(), FitError> {
        check_xty("XLearner::fit", x, t, y)?;
        check_both_groups("XLearner::fit", t)?;
        let treated = group_rows(t, 1);
        let control = group_rows(t, 0);
        // Stage 1: group outcome models.
        let x1 = x.select_rows(&treated);
        let x0 = x.select_rows(&control);
        let mu1 = self.base.fit(&x1, &select(y, &treated), rng);
        let mu0 = self.base.fit(&x0, &select(y, &control), rng);
        // Stage 2: imputed effects.
        // Treated group: D1_i = y_i − μ̂₀(x_i).
        let d1: Vec<f64> = select(y, &treated)
            .iter()
            .zip(&mu0.predict(&x1))
            .map(|(yi, m)| yi - m)
            .collect();
        // Control group: D0_i = μ̂₁(x_i) − y_i.
        let d0: Vec<f64> = mu1
            .predict(&x0)
            .iter()
            .zip(&select(y, &control))
            .map(|(m, yi)| m - yi)
            .collect();
        self.tau1 = Some(self.base.fit(&x1, &d1, rng));
        self.tau0 = Some(self.base.fit(&x0, &d0, rng));
        self.propensity = treated.len() as f64 / t.len() as f64;
        Ok(())
    }

    fn predict_uplift(&self, x: &Matrix) -> Vec<f64> {
        let tau1 = self.tau1.as_ref().expect("XLearner: fit before predict");
        let tau0 = self.tau0.as_ref().expect("XLearner: fit before predict");
        let e = self.propensity;
        tau1.predict(x)
            .iter()
            .zip(&tau0.predict(x))
            .map(|(t1, t0)| e * t0 + (1.0 - e) * t1)
            .collect()
    }

    fn predict_uplift_block(&self, x: &Matrix) -> Vec<f64> {
        let tau1 = self.tau1.as_ref().expect("XLearner: fit before predict");
        let tau0 = self.tau0.as_ref().expect("XLearner: fit before predict");
        let e = self.propensity;
        let block = FeatureBlock::from_matrix(x);
        tau1.predict_block(&block)
            .iter()
            .zip(&tau0.predict_block(&block))
            .map(|(t1, t0)| e * t0 + (1.0 - e) * t1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RCT with tau(x) = 1 + 2 x0 and a confound-free prognostic term.
    fn rct(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<f64>, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        let mut ys = Vec::new();
        let mut taus = Vec::new();
        for _ in 0..n {
            let x0 = rng.uniform();
            let x1 = rng.gaussian();
            let t = u8::from(rng.bernoulli(0.5));
            let tau = 1.0 + 2.0 * x0;
            let y = 0.5 * x1 + tau * f64::from(t) + 0.2 * rng.gaussian();
            xs.push(vec![x0, x1]);
            ts.push(t);
            ys.push(y);
            taus.push(tau);
        }
        (Matrix::from_rows(&xs), ts, ys, taus)
    }

    fn check_recovers(model: &mut dyn UpliftModel, seed: u64, tol_corr: f64) {
        let (x, t, y, taus) = rct(3000, seed);
        let mut rng = Prng::seed_from_u64(seed + 100);
        model.fit(&x, &t, &y, &mut rng).unwrap();
        let preds = model.predict_uplift(&x);
        let corr = linalg::stats::pearson(&preds, &taus);
        assert!(corr > tol_corr, "{}: corr {corr}", model.name());
        // Average effect approximately recovered (E[tau] = 2.0).
        let mean: f64 = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!((mean - 2.0).abs() < 0.2, "{}: mean {mean}", model.name());
    }

    #[test]
    fn slearner_ridge_recovers_linear_effect() {
        // Ridge S-learner cannot represent x-dependent effects (no
        // interaction term) but recovers the ATE.
        let (x, t, y, _) = rct(3000, 0);
        let mut m = SLearner::new(BaseLearner::Ridge { lambda: 1e-3 });
        let mut rng = Prng::seed_from_u64(1);
        m.fit(&x, &t, &y, &mut rng).unwrap();
        let preds = m.predict_uplift(&x);
        let mean: f64 = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn slearner_forest_recovers_heterogeneity() {
        check_recovers(&mut SLearner::new(BaseLearner::default_forest()), 2, 0.5);
    }

    #[test]
    fn xlearner_recovers_heterogeneity() {
        // Ridge second stage gives X-learner a smooth tau model, which is
        // exactly right for the linear tau here.
        check_recovers(
            &mut XLearner::new(BaseLearner::Ridge { lambda: 1.0 }),
            4,
            0.8,
        );
    }

    #[test]
    fn xlearner_propensity_estimated_from_data() {
        let (x, _t, y, _) = rct(1000, 5);
        // Imbalanced RCT: 80% treated.
        let mut rng = Prng::seed_from_u64(6);
        let t: Vec<u8> = (0..1000).map(|_| u8::from(rng.bernoulli(0.8))).collect();
        let mut m = XLearner::new(BaseLearner::default_ridge());
        m.fit(&x, &t, &y, &mut rng).unwrap();
        assert!((m.propensity - 0.8).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let m = SLearner::new(BaseLearner::default_ridge());
        let _ = m.predict_uplift(&Matrix::zeros(1, 2));
    }
}
