//! K-arm uplift models: the meta-learner zoo generalized past binary.
//!
//! A binary [`crate::UpliftModel`] estimates one effect `τ̂(x)`; a
//! [`KArmUpliftModel`] estimates `K − 1` of them — `τ̂_k(x) = E[y | x,
//! arm k] − E[y | x, control]` for every treatment arm — as one **uplift
//! matrix** with rows indexed by arm. All fitting goes through the typed
//! [`TreatmentAssignment`] axis, so arm bookkeeping is validated once at
//! the boundary instead of re-derived per model.
//!
//! Four learners, mirroring their binary namesakes (Künzel et al. 2019):
//!
//! * [`KSLearner`] — one outcome model over `[x | one-hot(arm)]`;
//! * [`KTLearner`] — one outcome model per arm (control included);
//! * [`KXLearner`] — per-arm X-learner against the shared control group,
//!   with per-arm RCT propensities;
//! * [`KNetLearner`] — a shared-trunk [`nn::MultiHeadNet`] with one head
//!   per arm, trained with the masked loss of [`nn::karm`].
//!
//! [`KTpm`] composes two of these (revenue + cost) into the K-arm
//! two-phase ROI model: `roi_k(x) = τ̂^r_k(x) / max(τ̂^c_k(x), floor)`,
//! the score matrix the MCKP allocator and the bandit loop consume.

use crate::error::{check_finite_params, FitError};
use crate::regressor::{BaseLearner, FittedRegressor};
use datasets::multi::MultiRctDataset;
use datasets::TreatmentAssignment;
use linalg::random::Prng;
use linalg::vector::safe_div;
use linalg::Matrix;
use nn::karm::{build_karm_net, train_arm_heads};
use nn::{MultiHeadNet, TrainConfig};
use obs::Obs;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// Floor on the predicted per-arm cost uplift when forming the ROI ratio
/// (same guard as the binary [`crate::Tpm`]).
const COST_FLOOR: f64 = 1e-4;

/// An uplift model over `K` arms (control + `K − 1` treatments).
///
/// `predict_uplift_matrix` returns `K − 1` rows: row `k` holds
/// `τ̂_{k+1}(x_i)` — the score-matrix layout shared with
/// `rdrp::PerArm` and the MCKP allocator.
pub trait KArmUpliftModel: std::fmt::Debug {
    /// Human-readable model name.
    fn name(&self) -> String;

    /// Total arm count including control.
    fn n_arms(&self) -> u8;

    /// Fits on a K-arm RCT.
    ///
    /// # Errors
    /// [`FitError::InvalidData`] on malformed inputs or an assignment
    /// whose arm count disagrees with this model, [`FitError::Train`] /
    /// [`FitError::NonFiniteModel`] from the neural fitter.
    fn fit(
        &mut self,
        x: &Matrix,
        assignment: &TreatmentAssignment,
        y: &[f64],
        rng: &mut Prng,
    ) -> Result<(), FitError>;

    /// The `(K − 1) × n` uplift matrix for the rows of `x`.
    fn predict_uplift_matrix(&self, x: &Matrix) -> Vec<Vec<f64>>;

    /// Tagged JSON for artifact persistence (`None` = not serializable).
    fn to_tagged_json(&self) -> Option<Value> {
        None
    }
}

/// Shared input validation: aligned lengths, finite values, the expected
/// arm count, and every arm populated (each needs rows to fit on).
fn check_karm(
    name: &str,
    x: &Matrix,
    assignment: &TreatmentAssignment,
    y: &[f64],
    n_arms: u8,
) -> Result<(), FitError> {
    if x.rows() == 0 {
        return Err(FitError::InvalidData(format!("{name}: empty training set")));
    }
    if x.rows() != assignment.len() || x.rows() != y.len() {
        return Err(FitError::InvalidData(format!(
            "{name}: x has {} rows but assignment has {} and y has {}",
            x.rows(),
            assignment.len(),
            y.len()
        )));
    }
    if assignment.n_arms() != n_arms {
        return Err(FitError::InvalidData(format!(
            "{name}: assignment has {} arms, model expects {n_arms}",
            assignment.n_arms()
        )));
    }
    if !x.is_finite() {
        return Err(FitError::InvalidData(format!(
            "{name}: features contain non-finite values"
        )));
    }
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        return Err(FitError::InvalidData(format!(
            "{name}: label {i} is non-finite ({})",
            y[i]
        )));
    }
    if let Some(k) = assignment.arm_counts().iter().position(|&c| c == 0) {
        return Err(FitError::InvalidData(format!(
            "{name}: arm {k} has no samples"
        )));
    }
    Ok(())
}

fn select(v: &[f64], rows: &[usize]) -> Vec<f64> {
    rows.iter().map(|&i| v[i]).collect()
}

/// K-arm S-learner: one outcome model `μ(x, a)` over the design
/// `[x | one-hot(arm 1..K−1)]` (control is the all-zero encoding);
/// `τ̂_k(x) = μ(x, k) − μ(x, 0)`.
#[derive(Debug, Clone)]
pub struct KSLearner {
    base: BaseLearner,
    n_arms: u8,
    model: Option<FittedRegressor>,
}

tinyjson::json_struct!(KSLearner {
    base,
    n_arms,
    model
});

impl KSLearner {
    /// Creates a K-arm S-learner over the given base regressor.
    ///
    /// # Panics
    /// Panics when `n_arms < 2`.
    pub fn new(base: BaseLearner, n_arms: u8) -> Self {
        assert!(n_arms >= 2, "need control plus at least one arm");
        KSLearner {
            base,
            n_arms,
            model: None,
        }
    }

    /// One-hot arm columns for a constant arm `k` (0 = control).
    fn const_onehot(&self, rows: usize, k: u8) -> Matrix {
        let mut cols = Matrix::zeros(rows, usize::from(self.n_arms) - 1);
        if k > 0 {
            for i in 0..rows {
                cols.set(i, usize::from(k) - 1, 1.0);
            }
        }
        cols
    }
}

impl KArmUpliftModel for KSLearner {
    fn name(&self) -> String {
        format!("KS-Learner[{}]", self.n_arms)
    }

    fn n_arms(&self) -> u8 {
        self.n_arms
    }

    fn to_tagged_json(&self) -> Option<Value> {
        Some(Value::Obj(vec![(
            "KSLearner".to_string(),
            ToJson::to_json(self),
        )]))
    }

    fn fit(
        &mut self,
        x: &Matrix,
        assignment: &TreatmentAssignment,
        y: &[f64],
        rng: &mut Prng,
    ) -> Result<(), FitError> {
        check_karm("KSLearner::fit", x, assignment, y, self.n_arms)?;
        let mut onehot = Matrix::zeros(x.rows(), usize::from(self.n_arms) - 1);
        for (i, &l) in assignment.levels().iter().enumerate() {
            if l > 0 {
                onehot.set(i, usize::from(l) - 1, 1.0);
            }
        }
        let design = x.hstack(&onehot).expect("row counts match");
        self.model = Some(self.base.fit(&design, y, rng));
        Ok(())
    }

    fn predict_uplift_matrix(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let model = self.model.as_ref().expect("KSLearner: fit before predict");
        let mu = |k: u8| {
            let design = x
                .hstack(&self.const_onehot(x.rows(), k))
                .expect("shapes match");
            model.predict(&design)
        };
        let mu0 = mu(0);
        (1..self.n_arms)
            .map(|k| mu(k).iter().zip(&mu0).map(|(a, b)| a - b).collect())
            .collect()
    }
}

/// K-arm T-learner: one outcome model per arm (control included), fitted
/// on that arm's rows only; `τ̂_k(x) = μ̂_k(x) − μ̂_0(x)`.
#[derive(Debug, Clone)]
pub struct KTLearner {
    base: BaseLearner,
    n_arms: u8,
    mus: Option<Vec<FittedRegressor>>,
}

tinyjson::json_struct!(KTLearner { base, n_arms, mus });

impl KTLearner {
    /// Creates a K-arm T-learner over the given base regressor.
    ///
    /// # Panics
    /// Panics when `n_arms < 2`.
    pub fn new(base: BaseLearner, n_arms: u8) -> Self {
        assert!(n_arms >= 2, "need control plus at least one arm");
        KTLearner {
            base,
            n_arms,
            mus: None,
        }
    }
}

impl KArmUpliftModel for KTLearner {
    fn name(&self) -> String {
        format!("KT-Learner[{}]", self.n_arms)
    }

    fn n_arms(&self) -> u8 {
        self.n_arms
    }

    fn to_tagged_json(&self) -> Option<Value> {
        Some(Value::Obj(vec![(
            "KTLearner".to_string(),
            ToJson::to_json(self),
        )]))
    }

    fn fit(
        &mut self,
        x: &Matrix,
        assignment: &TreatmentAssignment,
        y: &[f64],
        rng: &mut Prng,
    ) -> Result<(), FitError> {
        check_karm("KTLearner::fit", x, assignment, y, self.n_arms)?;
        // Arm order 0..K: control's model is fitted first, then each arm.
        let mus = (0..self.n_arms)
            .map(|k| {
                let rows = assignment.arm_rows(k);
                self.base.fit(&x.select_rows(&rows), &select(y, &rows), rng)
            })
            .collect();
        self.mus = Some(mus);
        Ok(())
    }

    fn predict_uplift_matrix(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let mus = self.mus.as_ref().expect("KTLearner: fit before predict");
        let mu0 = mus[0].predict(x);
        mus[1..]
            .iter()
            .map(|m| m.predict(x).iter().zip(&mu0).map(|(a, b)| a - b).collect())
            .collect()
    }
}

/// K-arm X-learner: each treatment arm runs the binary X-learner recipe
/// against the shared control group. Stage 1 fits `μ̂_0` once on control
/// and `μ̂_k` per arm; stage 2 regresses the imputed effects
/// `D_k = y − μ̂_0(x)` (arm rows) and `D_{0,k} = μ̂_k(x) − y` (control
/// rows); the blend uses the arm's two-group RCT propensity
/// `e_k = N_k / (N_k + N_0)`:
/// `τ̂_k(x) = e_k·τ̂_{0,k}(x) + (1 − e_k)·τ̂_k(x)`.
#[derive(Debug, Clone)]
pub struct KXLearner {
    base: BaseLearner,
    n_arms: u8,
    tau_arm: Option<Vec<FittedRegressor>>,
    tau_ctl: Option<Vec<FittedRegressor>>,
    propensities: Vec<f64>,
}

tinyjson::json_struct!(KXLearner {
    base,
    n_arms,
    tau_arm,
    tau_ctl,
    propensities
});

impl KXLearner {
    /// Creates a K-arm X-learner over the given base regressor.
    ///
    /// # Panics
    /// Panics when `n_arms < 2`.
    pub fn new(base: BaseLearner, n_arms: u8) -> Self {
        assert!(n_arms >= 2, "need control plus at least one arm");
        KXLearner {
            base,
            n_arms,
            tau_arm: None,
            tau_ctl: None,
            propensities: Vec::new(),
        }
    }
}

impl KArmUpliftModel for KXLearner {
    fn name(&self) -> String {
        format!("KX-Learner[{}]", self.n_arms)
    }

    fn n_arms(&self) -> u8 {
        self.n_arms
    }

    fn to_tagged_json(&self) -> Option<Value> {
        Some(Value::Obj(vec![(
            "KXLearner".to_string(),
            ToJson::to_json(self),
        )]))
    }

    fn fit(
        &mut self,
        x: &Matrix,
        assignment: &TreatmentAssignment,
        y: &[f64],
        rng: &mut Prng,
    ) -> Result<(), FitError> {
        check_karm("KXLearner::fit", x, assignment, y, self.n_arms)?;
        let control = assignment.arm_rows(0);
        let x0 = x.select_rows(&control);
        let y0 = select(y, &control);
        let mu0 = self.base.fit(&x0, &y0, rng);
        let mut tau_arm = Vec::new();
        let mut tau_ctl = Vec::new();
        let mut propensities = Vec::new();
        for k in 1..self.n_arms {
            let rows = assignment.arm_rows(k);
            let xk = x.select_rows(&rows);
            let yk = select(y, &rows);
            let muk = self.base.fit(&xk, &yk, rng);
            // Imputed effects, arm side then control side.
            let dk: Vec<f64> = yk
                .iter()
                .zip(&mu0.predict(&xk))
                .map(|(yi, m)| yi - m)
                .collect();
            let d0: Vec<f64> = muk
                .predict(&x0)
                .iter()
                .zip(&y0)
                .map(|(m, yi)| m - yi)
                .collect();
            tau_arm.push(self.base.fit(&xk, &dk, rng));
            tau_ctl.push(self.base.fit(&x0, &d0, rng));
            propensities.push(rows.len() as f64 / (rows.len() + control.len()) as f64);
        }
        self.tau_arm = Some(tau_arm);
        self.tau_ctl = Some(tau_ctl);
        self.propensities = propensities;
        Ok(())
    }

    fn predict_uplift_matrix(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let tau_arm = self
            .tau_arm
            .as_ref()
            .expect("KXLearner: fit before predict");
        let tau_ctl = self
            .tau_ctl
            .as_ref()
            .expect("KXLearner: fit before predict");
        tau_arm
            .iter()
            .zip(tau_ctl)
            .zip(&self.propensities)
            .map(|((ta, tc), &e)| {
                ta.predict(x)
                    .iter()
                    .zip(&tc.predict(x))
                    .map(|(a, c)| e * c + (1.0 - e) * a)
                    .collect()
            })
            .collect()
    }
}

/// K-arm neural learner: a shared-trunk [`MultiHeadNet`] with one scalar
/// head per arm, trained with [`nn::karm`]'s masked loss; uplifts are
/// head differences against the control head.
#[derive(Debug, Clone)]
pub struct KNetLearner {
    n_arms: u8,
    rep_dim: usize,
    head_hidden: usize,
    epochs: usize,
    batch_size: usize,
    lr: f64,
    net: Option<MultiHeadNet>,
}

tinyjson::json_struct!(KNetLearner {
    n_arms,
    rep_dim,
    head_hidden,
    epochs,
    batch_size,
    lr,
    net
});

impl KNetLearner {
    /// Creates a K-arm neural learner with the given architecture.
    ///
    /// # Panics
    /// Panics when `n_arms < 2`.
    pub fn new(n_arms: u8, rep_dim: usize, head_hidden: usize, epochs: usize) -> Self {
        assert!(n_arms >= 2, "need control plus at least one arm");
        KNetLearner {
            n_arms,
            rep_dim,
            head_hidden,
            epochs,
            batch_size: 256,
            lr: 5e-3,
            net: None,
        }
    }
}

impl KArmUpliftModel for KNetLearner {
    fn name(&self) -> String {
        format!("KNet-Learner[{}]", self.n_arms)
    }

    fn n_arms(&self) -> u8 {
        self.n_arms
    }

    fn to_tagged_json(&self) -> Option<Value> {
        Some(Value::Obj(vec![(
            "KNetLearner".to_string(),
            ToJson::to_json(self),
        )]))
    }

    fn fit(
        &mut self,
        x: &Matrix,
        assignment: &TreatmentAssignment,
        y: &[f64],
        rng: &mut Prng,
    ) -> Result<(), FitError> {
        check_karm("KNetLearner::fit", x, assignment, y, self.n_arms)?;
        let mut net = build_karm_net(
            x.cols(),
            self.rep_dim,
            self.head_hidden,
            usize::from(self.n_arms),
            rng,
        );
        let config = TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            ..TrainConfig::default()
        };
        train_arm_heads(
            &mut net,
            x,
            assignment.levels(),
            y,
            &config,
            rng,
            &Obs::disabled(),
        )?;
        check_finite_params("KNetLearner", &mut net)?;
        self.net = Some(net);
        Ok(())
    }

    fn predict_uplift_matrix(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let net = self.net.as_ref().expect("KNetLearner: fit before predict");
        let mus = net.predict_scalars(x);
        mus[1..]
            .iter()
            .map(|mk| mk.iter().zip(&mus[0]).map(|(a, b)| a - b).collect())
            .collect()
    }
}

/// Reconstructs a boxed [`KArmUpliftModel`] from its tagged JSON — the
/// closed-world codec the K-arm artifact bodies use.
///
/// # Errors
/// [`JsonError`] on an unknown tag or a malformed payload.
pub fn karm_component_from_tagged_json(
    v: &Value,
) -> Result<Box<dyn KArmUpliftModel + Send + Sync>, JsonError> {
    match v.as_obj()? {
        [(tag, inner)] if tag == "KSLearner" => Ok(Box::new(KSLearner::from_json(inner)?)),
        [(tag, inner)] if tag == "KTLearner" => Ok(Box::new(KTLearner::from_json(inner)?)),
        [(tag, inner)] if tag == "KXLearner" => Ok(Box::new(KXLearner::from_json(inner)?)),
        [(tag, inner)] if tag == "KNetLearner" => Ok(Box::new(KNetLearner::from_json(inner)?)),
        _ => Err(JsonError::msg(
            "KArmUpliftModel: unknown tag (expected KSLearner|KTLearner|KXLearner|KNetLearner)",
        )),
    }
}

/// The K-arm two-phase ROI model: a revenue and a cost
/// [`KArmUpliftModel`] whose uplift matrices are combined row-wise into
/// `roi_k(x) = τ̂^r_k(x) / max(τ̂^c_k(x), floor)` — the `(K − 1) × n`
/// score matrix consumed by the MCKP allocator and the bandit loop.
pub struct KTpm {
    label: String,
    n_arms: u8,
    revenue: Box<dyn KArmUpliftModel + Send + Sync>,
    cost: Box<dyn KArmUpliftModel + Send + Sync>,
    fitted: bool,
    n_features: Option<usize>,
}

impl std::fmt::Debug for KTpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KTpm")
            .field("label", &self.label)
            .field("n_arms", &self.n_arms)
            .field("fitted", &self.fitted)
            .finish()
    }
}

impl KTpm {
    /// Builds a K-arm TPM from two (unfitted) K-arm uplift models.
    ///
    /// # Panics
    /// Panics when the components disagree on the arm count.
    pub fn new(
        label: &str,
        revenue: Box<dyn KArmUpliftModel + Send + Sync>,
        cost: Box<dyn KArmUpliftModel + Send + Sync>,
    ) -> Self {
        assert_eq!(
            revenue.n_arms(),
            cost.n_arms(),
            "revenue and cost models must share the arm count"
        );
        KTpm {
            label: label.to_string(),
            n_arms: revenue.n_arms(),
            revenue,
            cost,
            fitted: false,
            n_features: None,
        }
    }

    /// KTPM-SL: K-arm S-learners with random-forest bases (interactions
    /// required, as in the binary TPM-SL).
    pub fn slearner(n_arms: u8) -> Self {
        KTpm::new(
            "SL",
            Box::new(KSLearner::new(BaseLearner::default_forest(), n_arms)),
            Box::new(KSLearner::new(BaseLearner::default_forest(), n_arms)),
        )
    }

    /// KTPM-XL: K-arm X-learners with ridge bases.
    pub fn xlearner(n_arms: u8) -> Self {
        KTpm::new(
            "XL",
            Box::new(KXLearner::new(BaseLearner::default_ridge(), n_arms)),
            Box::new(KXLearner::new(BaseLearner::default_ridge(), n_arms)),
        )
    }

    /// KTPM-TL: K-arm T-learners with ridge bases.
    pub fn tlearner(n_arms: u8) -> Self {
        KTpm::new(
            "TL",
            Box::new(KTLearner::new(BaseLearner::default_ridge(), n_arms)),
            Box::new(KTLearner::new(BaseLearner::default_ridge(), n_arms)),
        )
    }

    /// KTPM-Net: shared-trunk multi-head networks.
    pub fn net(n_arms: u8, rep_dim: usize, head_hidden: usize, epochs: usize) -> Self {
        KTpm::new(
            "Net",
            Box::new(KNetLearner::new(n_arms, rep_dim, head_hidden, epochs)),
            Box::new(KNetLearner::new(n_arms, rep_dim, head_hidden, epochs)),
        )
    }

    /// The label suffix this KTPM was built with (e.g. `"XL"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total arm count including control.
    pub fn n_arms(&self) -> u8 {
        self.n_arms
    }

    /// Whether [`KTpm::fit`] has completed.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Feature dimension the fitted model consumes.
    pub fn n_features(&self) -> Option<usize> {
        self.n_features
    }

    /// Fits revenue and cost models on a K-arm RCT (revenue first, then
    /// cost, on the shared rng — the same order as the binary TPM).
    ///
    /// # Errors
    /// [`FitError::InvalidData`] when the dataset fails validation or its
    /// arm count disagrees with this model; component errors propagate.
    pub fn fit(&mut self, data: &MultiRctDataset, rng: &mut Prng) -> Result<(), FitError> {
        if let Some(problem) = data.validate() {
            return Err(FitError::InvalidData(format!("KTpm::fit: {problem}")));
        }
        let assignment = data
            .assignment()
            .map_err(|e| FitError::InvalidData(format!("KTpm::fit: {e}")))?;
        if assignment.n_arms() != self.n_arms {
            return Err(FitError::InvalidData(format!(
                "KTpm::fit: dataset has {} arms, model expects {}",
                assignment.n_arms(),
                self.n_arms
            )));
        }
        self.revenue.fit(&data.x, &assignment, &data.y_r, rng)?;
        self.cost.fit(&data.x, &assignment, &data.y_c, rng)?;
        self.fitted = true;
        self.n_features = Some(data.x.cols());
        Ok(())
    }

    /// The `(K − 1) × n` ROI score matrix for the rows of `x`.
    ///
    /// # Panics
    /// Panics before [`KTpm::fit`].
    pub fn predict_roi_matrix(&self, x: &Matrix) -> Vec<Vec<f64>> {
        assert!(self.fitted, "KTpm: fit before predict");
        let tau_r = self.revenue.predict_uplift_matrix(x);
        let tau_c = self.cost.predict_uplift_matrix(x);
        tau_r
            .iter()
            .zip(&tau_c)
            .map(|(r, c)| safe_div(r, c, COST_FLOOR))
            .collect()
    }

    /// Serializes to tagged JSON when both components are serializable.
    pub fn to_tagged_json(&self) -> Option<Value> {
        let revenue = self.revenue.to_tagged_json()?;
        let cost = self.cost.to_tagged_json()?;
        Some(Value::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("n_arms".to_string(), u64::from(self.n_arms).to_json()),
            ("revenue".to_string(), revenue),
            ("cost".to_string(), cost),
            ("fitted".to_string(), self.fitted.to_json()),
            (
                "n_features".to_string(),
                self.n_features.map(|v| v as u64).to_json(),
            ),
        ]))
    }

    /// Reconstructs a [`KTpm`] from [`KTpm::to_tagged_json`] output.
    ///
    /// # Errors
    /// [`JsonError`] on malformed JSON or unknown component tags.
    pub fn from_tagged_json(v: &Value) -> Result<Self, JsonError> {
        let label = String::from_json(v.fetch("label"))?;
        let n_arms = u64::from_json(v.fetch("n_arms"))?;
        let revenue = karm_component_from_tagged_json(v.fetch("revenue"))?;
        let cost = karm_component_from_tagged_json(v.fetch("cost"))?;
        let fitted = bool::from_json(v.fetch("fitted"))?;
        let n_features = Option::<u64>::from_json(v.fetch("n_features"))?;
        if n_arms < 2 || n_arms > u64::from(u8::MAX) {
            return Err(JsonError::msg("KTpm: n_arms out of range"));
        }
        Ok(KTpm {
            label,
            n_arms: n_arms as u8,
            revenue,
            cost,
            fitted,
            n_features: n_features.map(|v| v as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::Population;
    use datasets::multi::MultiCouponGenerator;

    /// A 3-arm RCT with per-arm effects on one outcome:
    /// `y = 0.5 x0 + τ_a(x) + noise`, `τ_k(x) = k (0.5 + x0)`.
    fn karm_rct(n: usize, seed: u64) -> (Matrix, TreatmentAssignment, Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut levels = Vec::new();
        let mut y = Vec::new();
        let mut true_taus = vec![Vec::new(); 2];
        for _ in 0..n {
            let x0 = rng.uniform();
            let x1 = rng.gaussian();
            let a = (rng.uniform() * 3.0) as u8;
            let tau = |k: f64| k * (0.5 + x0);
            y.push(0.5 * x1 + tau(f64::from(a)) + 0.1 * rng.gaussian());
            true_taus[0].push(tau(1.0));
            true_taus[1].push(tau(2.0));
            rows.push(vec![x0, x1]);
            levels.push(a);
        }
        let x = Matrix::from_rows(&rows);
        let assignment = TreatmentAssignment::new(levels, 3).unwrap();
        (x, assignment, y, true_taus)
    }

    fn check_recovers(model: &mut dyn KArmUpliftModel, seed: u64, tol_corr: f64) {
        let (x, a, y, true_taus) = karm_rct(3000, seed);
        let mut rng = Prng::seed_from_u64(seed + 50);
        model.fit(&x, &a, &y, &mut rng).unwrap();
        let taus = model.predict_uplift_matrix(&x);
        assert_eq!(taus.len(), 2);
        for k in 0..2 {
            let corr = linalg::stats::pearson(&taus[k], &true_taus[k]);
            assert!(corr > tol_corr, "{} arm {k}: corr {corr}", model.name());
            let mean: f64 = taus[k].iter().sum::<f64>() / taus[k].len() as f64;
            let true_mean: f64 = true_taus[k].iter().sum::<f64>() / true_taus[k].len() as f64;
            assert!(
                (mean - true_mean).abs() < 0.25,
                "{} arm {k}: mean {mean} vs {true_mean}",
                model.name()
            );
        }
    }

    #[test]
    fn kslearner_recovers_per_arm_effects() {
        check_recovers(
            &mut KSLearner::new(BaseLearner::default_forest(), 3),
            1,
            0.4,
        );
    }

    #[test]
    fn ktlearner_recovers_per_arm_effects() {
        check_recovers(&mut KTLearner::new(BaseLearner::default_ridge(), 3), 2, 0.6);
    }

    #[test]
    fn kxlearner_recovers_per_arm_effects() {
        check_recovers(&mut KXLearner::new(BaseLearner::default_ridge(), 3), 3, 0.6);
    }

    #[test]
    fn knetlearner_recovers_per_arm_effects() {
        check_recovers(&mut KNetLearner::new(3, 8, 4, 60), 4, 0.4);
    }

    #[test]
    fn mismatched_arm_count_is_a_typed_error() {
        let (x, a, y, _) = karm_rct(200, 11);
        let mut m = KTLearner::new(BaseLearner::default_ridge(), 4);
        let err = m.fit(&x, &a, &y, &mut Prng::seed_from_u64(0)).unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
        assert!(err.to_string().contains("arms"), "{err}");
    }

    #[test]
    fn ktpm_scores_karm_rcts_and_roundtrips_json() {
        let gen = MultiCouponGenerator::new(3);
        let mut rng = Prng::seed_from_u64(12);
        let train = gen.sample(3000, Population::Base, &mut rng);
        let test = gen.sample(500, Population::Base, &mut rng);
        let mut tpm = KTpm::xlearner(4); // 3 treatment arms + control
        tpm.fit(&train, &mut rng).unwrap();
        assert!(tpm.is_fitted());
        assert_eq!(tpm.n_features(), Some(train.x.cols()));
        let roi = tpm.predict_roi_matrix(&test.x);
        assert_eq!(roi.len(), 3);
        assert_eq!(roi[0].len(), test.len());
        assert!(roi.iter().flatten().all(|v| v.is_finite()));
        // Tagged JSON roundtrip preserves predictions exactly.
        let json = tpm.to_tagged_json().unwrap();
        let back = KTpm::from_tagged_json(&json).unwrap();
        assert_eq!(back.predict_roi_matrix(&test.x), roi);
    }

    #[test]
    fn ktpm_rejects_wrong_arm_count() {
        let gen = MultiCouponGenerator::new(2);
        let mut rng = Prng::seed_from_u64(13);
        let train = gen.sample(600, Population::Base, &mut rng);
        let mut tpm = KTpm::tlearner(4);
        let err = tpm.fit(&train, &mut rng).unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
    }
}
