//! Base regressors for the meta-learners.

use linalg::random::Prng;
use linalg::{solve, Matrix};
use tinyjson::{FromJson, JsonError, ToJson, Value};
use trees::{RandomForest, RandomForestConfig};

/// Which base regressor a meta-learner uses for its outcome models.
#[derive(Debug, Clone)]
pub enum BaseLearner {
    /// Ridge regression with the given L2 penalty (an intercept column is
    /// appended internally). Fast and surprisingly strong on the mostly
    /// monotone outcome surfaces of the lookalike datasets.
    Ridge {
        /// L2 penalty.
        lambda: f64,
    },
    /// Random forest regression.
    Forest(RandomForestConfig),
}

impl ToJson for BaseLearner {
    fn to_json(&self) -> Value {
        let (tag, inner) = match self {
            BaseLearner::Ridge { lambda } => ("Ridge", lambda.to_json()),
            BaseLearner::Forest(c) => ("Forest", c.to_json()),
        };
        Value::Obj(vec![(tag.to_string(), inner)])
    }
}

impl FromJson for BaseLearner {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_obj()? {
            [(tag, inner)] if tag == "Ridge" => Ok(BaseLearner::Ridge {
                lambda: inner.as_f64()?,
            }),
            [(tag, inner)] if tag == "Forest" => {
                Ok(BaseLearner::Forest(RandomForestConfig::from_json(inner)?))
            }
            _ => Err(JsonError::msg(
                "BaseLearner: expected {\"Ridge\"|\"Forest\": ...}",
            )),
        }
    }
}

impl BaseLearner {
    /// A sensible default ridge learner.
    pub fn default_ridge() -> Self {
        BaseLearner::Ridge { lambda: 1.0 }
    }

    /// A small default forest (25 trees) balancing accuracy and runtime.
    pub fn default_forest() -> Self {
        BaseLearner::Forest(RandomForestConfig {
            n_trees: 25,
            ..RandomForestConfig::default()
        })
    }

    /// Fits the learner on `(x, y)`.
    pub fn fit(&self, x: &Matrix, y: &[f64], rng: &mut Prng) -> FittedRegressor {
        assert!(x.rows() > 0, "BaseLearner::fit: empty dataset");
        assert_eq!(x.rows(), y.len(), "BaseLearner::fit: x/y length mismatch");
        match self {
            BaseLearner::Ridge { lambda } => {
                let design = x.with_const_col(1.0);
                let beta = solve::ridge_fit(&design, y, *lambda)
                    .expect("ridge system is SPD for lambda > 0");
                FittedRegressor::Ridge { beta }
            }
            BaseLearner::Forest(config) => {
                FittedRegressor::Forest(RandomForest::fit(x, y, config, rng))
            }
        }
    }
}

/// A fitted base regressor.
#[derive(Debug, Clone)]
pub enum FittedRegressor {
    /// Ridge coefficients (last entry is the intercept).
    Ridge {
        /// Coefficients including the trailing intercept.
        beta: Vec<f64>,
    },
    /// A fitted random forest.
    Forest(RandomForest),
}

impl ToJson for FittedRegressor {
    fn to_json(&self) -> Value {
        let (tag, inner) = match self {
            FittedRegressor::Ridge { beta } => ("Ridge", beta.to_json()),
            FittedRegressor::Forest(f) => ("Forest", f.to_json()),
        };
        Value::Obj(vec![(tag.to_string(), inner)])
    }
}

impl FromJson for FittedRegressor {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_obj()? {
            [(tag, inner)] if tag == "Ridge" => Ok(FittedRegressor::Ridge {
                beta: Vec::<f64>::from_json(inner)?,
            }),
            [(tag, inner)] if tag == "Forest" => {
                Ok(FittedRegressor::Forest(RandomForest::from_json(inner)?))
            }
            _ => Err(JsonError::msg(
                "FittedRegressor: expected {\"Ridge\"|\"Forest\": ...}",
            )),
        }
    }
}

impl FittedRegressor {
    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        match self {
            FittedRegressor::Ridge { beta } => {
                let design = x.with_const_col(1.0);
                design
                    .matvec(beta)
                    .expect("design width matches beta length")
            }
            FittedRegressor::Forest(f) => f.predict(x),
        }
    }

    /// Block-path twin of [`FittedRegressor::predict`] over a columnar
    /// `f32` block:
    ///
    /// * Ridge runs as an `n = 1` GEMM through the micro-kernels, with
    ///   the intercept folded in as the bias.
    /// * Forests flatten into level-order batch traversal
    ///   ([`trees::batch`]). Flattening happens **per call**
    ///   (`O(total nodes)`), amortized over the rows of the block — the
    ///   right trade for bulk scoring, wasteful for single rows.
    ///
    /// # Panics
    /// Panics when the block's feature count mismatches the model.
    pub fn predict_block(&self, x: &linalg::block::FeatureBlock) -> Vec<f64> {
        use linalg::block::{active_dispatch, PackedGemm};
        match self {
            FittedRegressor::Ridge { beta } => {
                let d = beta.len() - 1;
                assert_eq!(
                    x.cols(),
                    d,
                    "FittedRegressor::predict_block: block has {} features, ridge expects {d}",
                    x.cols()
                );
                let w = Matrix::from_vec(d, 1, beta[..d].to_vec());
                let packed = PackedGemm::pack(&w, &beta[d..]);
                packed.apply(x, active_dispatch()).col_f64(0)
            }
            FittedRegressor::Forest(f) => trees::FlatForest::from_forest(f).predict_block(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gaussian(), rng.gaussian()])
            .collect();
        let y = rows.iter().map(|r| 3.0 * r[0] - r[1] + 2.0).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn ridge_learns_linear_target() {
        let (x, y) = linear_data(200, 0);
        let mut rng = Prng::seed_from_u64(1);
        let model = BaseLearner::Ridge { lambda: 1e-6 }.fit(&x, &y, &mut rng);
        let preds = model.predict(&x);
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3, "{p} vs {t}");
        }
    }

    #[test]
    fn forest_learns_nonlinear_target() {
        let mut rng = Prng::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| vec![rng.uniform(), rng.uniform()])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 2.0 } else { 0.0 })
            .collect();
        let model = BaseLearner::default_forest().fit(&x, &y, &mut rng);
        let preds = model.predict(&x);
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.1, "mse {mse}");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let mut rng = Prng::seed_from_u64(3);
        let _ = BaseLearner::default_ridge().fit(&Matrix::zeros(0, 2), &[], &mut rng);
    }
}
