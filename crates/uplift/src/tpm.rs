//! Two-Phase Method: ROI as the ratio of two uplift models.
//!
//! Phase 1 fits one [`UpliftModel`] on the revenue outcome and another on
//! the cost outcome; phase 2 ranks by `τ̂^r(x) / τ̂^c(x)`. The paper's
//! central criticism of this family is error amplification through the
//! division — two individually decent models can produce a terrible ratio
//! where the cost estimate approaches zero, which is why a floor guards
//! the denominator (and why DRP exists).

use crate::causal_forest::CausalForestUplift;
use crate::dragonnet::DragonNet;
use crate::meta::{SLearner, XLearner};
use crate::nnutil::NetConfig;
use crate::offsetnet::OffsetNet;
use crate::regressor::BaseLearner;
use crate::snet::SNet;
use crate::tarnet::TarNet;
use crate::{FitError, UpliftModel};
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::vector::safe_div;
use linalg::Matrix;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// Floor on the predicted cost uplift when forming the ratio.
const COST_FLOOR: f64 = 1e-4;

/// A two-phase ROI model over any pair of uplift models.
pub struct Tpm {
    label: String,
    revenue: Box<dyn UpliftModel + Send + Sync>,
    cost: Box<dyn UpliftModel + Send + Sync>,
    fitted: bool,
    n_features: Option<usize>,
}

impl Tpm {
    /// Builds a TPM from two (unfitted) uplift models; `label` is the
    /// Table I name suffix (e.g. "SL" gives "TPM-SL").
    pub fn new(
        label: &str,
        revenue: Box<dyn UpliftModel + Send + Sync>,
        cost: Box<dyn UpliftModel + Send + Sync>,
    ) -> Self {
        Tpm {
            label: label.to_string(),
            revenue,
            cost,
            fitted: false,
            n_features: None,
        }
    }

    /// The Table I name suffix this TPM was built with (e.g. `"SL"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Feature dimension the fitted model consumes, or `None` before
    /// fitting.
    pub fn n_features(&self) -> Option<usize> {
        self.n_features
    }

    /// TPM-SL: S-learners with random-forest bases. (A linear base would
    /// make the S-learner's uplift *constant* — the treatment indicator
    /// enters additively — so an interaction-capable base is required.)
    pub fn slearner() -> Self {
        Tpm::new(
            "SL",
            Box::new(SLearner::new(BaseLearner::default_forest())),
            Box::new(SLearner::new(BaseLearner::default_forest())),
        )
    }

    /// TPM-XL: X-learners with ridge bases.
    pub fn xlearner() -> Self {
        Tpm::new(
            "XL",
            Box::new(XLearner::new(BaseLearner::default_ridge())),
            Box::new(XLearner::new(BaseLearner::default_ridge())),
        )
    }

    /// TPM-CF: honest causal forests.
    pub fn causal_forest() -> Self {
        Tpm::new(
            "CF",
            Box::new(CausalForestUplift::default_config()),
            Box::new(CausalForestUplift::default_config()),
        )
    }

    /// TPM-DragonNet.
    pub fn dragonnet(config: NetConfig) -> Self {
        Tpm::new(
            "DragonNet",
            Box::new(DragonNet::new(config.clone(), 1.0)),
            Box::new(DragonNet::new(config, 1.0)),
        )
    }

    /// TPM-TARNet.
    pub fn tarnet(config: NetConfig) -> Self {
        Tpm::new(
            "TARNet",
            Box::new(TarNet::new(config.clone())),
            Box::new(TarNet::new(config)),
        )
    }

    /// TPM-OffsetNet.
    pub fn offsetnet(config: NetConfig) -> Self {
        Tpm::new(
            "OffsetNet",
            Box::new(OffsetNet::new(config.clone())),
            Box::new(OffsetNet::new(config)),
        )
    }

    /// TPM-SNet.
    pub fn snet(config: NetConfig) -> Self {
        Tpm::new(
            "SNet",
            Box::new(SNet::new(config.clone())),
            Box::new(SNet::new(config)),
        )
    }
}

/// Decodes a `{"<Tag>": <body>}` value produced by
/// [`UpliftModel::to_tagged_json`] back into a boxed component model.
/// The tag set is closed-world: every serializable [`UpliftModel`] must
/// appear here, or round-tripping a [`Tpm`] built from it will fail.
///
/// # Errors
/// [`JsonError`] on an unknown tag or a malformed body.
pub fn component_from_tagged_json(
    v: &Value,
) -> Result<Box<dyn UpliftModel + Send + Sync>, JsonError> {
    match v.as_obj()? {
        [(tag, inner)] => match tag.as_str() {
            "SLearner" => Ok(Box::new(SLearner::from_json(inner)?)),
            "XLearner" => Ok(Box::new(XLearner::from_json(inner)?)),
            "CausalForest" => Ok(Box::new(CausalForestUplift::from_json(inner)?)),
            "DragonNet" => Ok(Box::new(DragonNet::from_json(inner)?)),
            "TarNet" => Ok(Box::new(TarNet::from_json(inner)?)),
            "OffsetNet" => Ok(Box::new(OffsetNet::from_json(inner)?)),
            "SNet" => Ok(Box::new(SNet::from_json(inner)?)),
            other => Err(JsonError::msg(format!(
                "uplift component: unknown tag {other:?}"
            ))),
        },
        _ => Err(JsonError::msg(
            "uplift component: expected a single-key tagged object",
        )),
    }
}

impl ToJson for Tpm {
    /// # Panics
    /// Panics when a component model does not implement
    /// [`UpliftModel::to_tagged_json`] (every model built by the `Tpm`
    /// constructors does).
    fn to_json(&self) -> Value {
        let tagged = |m: &(dyn UpliftModel + Send + Sync)| {
            m.to_tagged_json()
                .unwrap_or_else(|| panic!("Tpm: component {} is not serializable", m.name()))
        };
        Value::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("revenue".to_string(), tagged(self.revenue.as_ref())),
            ("cost".to_string(), tagged(self.cost.as_ref())),
            ("fitted".to_string(), self.fitted.to_json()),
            ("n_features".to_string(), self.n_features.to_json()),
        ])
    }
}

impl FromJson for Tpm {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let label = String::from_json(v.fetch("label"))?;
        let revenue = component_from_tagged_json(v.fetch("revenue"))?;
        let cost = component_from_tagged_json(v.fetch("cost"))?;
        let fitted = bool::from_json(v.fetch("fitted"))?;
        let n_features = Option::<usize>::from_json(v.fetch("n_features"))?;
        Ok(Tpm {
            label,
            revenue,
            cost,
            fitted,
            n_features,
        })
    }
}

impl Tpm {
    /// Paper-style name, `TPM-<label>` (e.g. `TPM-SL`).
    pub fn name(&self) -> String {
        format!("TPM-{}", self.label)
    }

    /// Fits the revenue and the cost uplift model on a full RCT.
    ///
    /// # Errors
    /// [`FitError::InvalidData`] for malformed inputs; component fitting
    /// errors propagate.
    pub fn fit(&mut self, data: &RctDataset, rng: &mut Prng) -> Result<(), FitError> {
        if let Some(problem) = data.validate() {
            return Err(FitError::InvalidData(format!("Tpm::fit: {problem}")));
        }
        if data.is_empty() {
            return Err(FitError::InvalidData("Tpm::fit: empty dataset".into()));
        }
        self.revenue.fit(&data.x, &data.t, &data.y_r, rng)?;
        self.cost.fit(&data.x, &data.t, &data.y_c, rng)?;
        self.fitted = true;
        self.n_features = Some(data.x.cols());
        Ok(())
    }

    /// The ROI ratio `τ̂^r(x) / τ̂^c(x)`, cost floored, for every row.
    ///
    /// # Panics
    /// Panics before [`Tpm::fit`].
    pub fn predict_roi(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "Tpm: fit before predict");
        let tau_r = self.revenue.predict_uplift(x);
        let tau_c = self.cost.predict_uplift(x);
        safe_div(&tau_r, &tau_c, COST_FLOOR)
    }

    /// [`Tpm::predict_roi`] through the columnar f32 kernels, within the
    /// DESIGN.md §11 tolerance contract.
    pub fn predict_roi_block(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "Tpm: fit before predict");
        // The ratio and floor stay in f64; only the component uplift
        // models run through the columnar kernels.
        let tau_r = self.revenue.predict_uplift_block(x);
        let tau_c = self.cost.predict_uplift_block(x);
        safe_div(&tau_r, &tau_c, COST_FLOOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::{Population, RctGenerator};
    use datasets::CriteoLike;

    #[test]
    fn tpm_sl_ranks_better_than_random() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(0);
        let train = gen.sample(10_000, Population::Base, &mut rng);
        let test = gen.sample(10_000, Population::Base, &mut rng);
        let mut tpm = Tpm::slearner();
        tpm.fit(&train, &mut rng).unwrap();
        let scores = tpm.predict_roi(&test.x);
        let aucc = metrics::aucc_from_labels(&test, &scores, 50);
        let random: Vec<f64> = (0..test.len()).map(|_| rng.uniform()).collect();
        let aucc_rand = metrics::aucc_from_labels(&test, &random, 50);
        assert!(aucc > aucc_rand, "TPM-SL {aucc} vs random {aucc_rand}");
    }

    #[test]
    fn names_follow_table_one() {
        assert_eq!(Tpm::slearner().name(), "TPM-SL");
        assert_eq!(Tpm::xlearner().name(), "TPM-XL");
        assert_eq!(Tpm::causal_forest().name(), "TPM-CF");
        assert_eq!(Tpm::tarnet(NetConfig::default()).name(), "TPM-TARNet");
        assert_eq!(Tpm::dragonnet(NetConfig::default()).name(), "TPM-DragonNet");
        assert_eq!(Tpm::offsetnet(NetConfig::default()).name(), "TPM-OffsetNet");
        assert_eq!(Tpm::snet(NetConfig::default()).name(), "TPM-SNet");
    }

    #[test]
    fn ratio_is_floored() {
        // Degenerate: cost model predicting ~0 must not produce inf.
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(1);
        let train = gen.sample(2000, Population::Base, &mut rng);
        let mut tpm = Tpm::slearner();
        tpm.fit(&train, &mut rng).unwrap();
        let scores = tpm.predict_roi(&train.x);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let tpm = Tpm::slearner();
        let _ = tpm.predict_roi(&Matrix::zeros(1, 12));
    }
}
