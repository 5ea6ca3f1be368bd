//! The uplift-model zoo: every baseline in the paper's Table I except DRP
//! and rDRP (which are the `rdrp` crate's subject).
//!
//! Two model notions:
//!
//! * [`UpliftModel`] predicts a *single outcome's* CATE `τ(x)` — the
//!   building block: S-/X-learners, causal forests, and the
//!   representation-learning networks (TARNet, DragonNet, OffsetNet,
//!   SNet).
//! * ROI rankers predict per-individual ROI directly. The Two-Phase
//!   Method ([`Tpm`]) forms it as the ratio of two [`UpliftModel`]s
//!   (revenue uplift / cost uplift), exactly the combination whose error
//!   amplification the paper criticizes; [`DirectRank`] learns an ROI
//!   *ranking* score with a non-convex loss. The `rdrp` crate's
//!   `RoiMethod` puts both behind one interface next to DRP/rDRP, so the
//!   experiment harness treats all methods uniformly.

pub mod causal_forest;
pub mod direct_rank;
pub mod dragonnet;
pub mod error;
pub mod karm;
pub mod meta;
pub mod nnutil;
pub mod offsetnet;
pub mod regressor;
pub mod snet;
pub mod tarnet;
pub mod tpm;

use linalg::random::Prng;
use linalg::Matrix;

pub use causal_forest::CausalForestUplift;
pub use direct_rank::DirectRank;
pub use dragonnet::DragonNet;
pub use error::FitError;
pub use karm::{
    karm_component_from_tagged_json, KArmUpliftModel, KNetLearner, KSLearner, KTLearner, KTpm,
    KXLearner,
};
pub use meta::{SLearner, XLearner};
pub use nnutil::NetConfig;
pub use offsetnet::OffsetNet;
pub use regressor::BaseLearner;
pub use snet::SNet;
pub use tarnet::TarNet;
pub use tpm::Tpm;

/// A model of a single outcome's conditional average treatment effect.
pub trait UpliftModel {
    /// Human-readable model name.
    fn name(&self) -> String;

    /// Fits the model on RCT data `(x, t, y)` for one outcome.
    ///
    /// # Errors
    /// [`FitError::InvalidData`] when the inputs are malformed (empty,
    /// misaligned, non-finite, or missing a treatment group where the
    /// estimator needs both), [`FitError::Train`] /
    /// [`FitError::NonFiniteModel`] when the underlying optimization
    /// diverged beyond recovery.
    fn fit(&mut self, x: &Matrix, t: &[u8], y: &[f64], rng: &mut Prng) -> Result<(), FitError>;

    /// Predicts `τ̂(x)` for every row of `x`.
    ///
    /// # Panics
    /// Implementations panic if called before [`UpliftModel::fit`].
    fn predict_uplift(&self, x: &Matrix) -> Vec<f64>;

    /// Block-path twin of [`UpliftModel::predict_uplift`]: scores
    /// through the columnar `f32` kernels (`linalg::block`) where the
    /// model supports them. The default delegates to the scalar `f64`
    /// path — always correct, never accelerated — so implementing this
    /// is strictly an optimization. Overrides must stay within the
    /// per-family tolerance contract of DESIGN.md §11 against the
    /// scalar path.
    fn predict_uplift_block(&self, x: &Matrix) -> Vec<f64> {
        self.predict_uplift(x)
    }

    /// Serializes the model (config + any fitted state) as a
    /// single-key tagged JSON object, `{"<Tag>": <body>}`, or `None`
    /// when the model does not support persistence. The tag namespace
    /// is closed-world: [`tpm::component_from_tagged_json`] is the
    /// matching decoder and must know every tag emitted here.
    fn to_tagged_json(&self) -> Option<tinyjson::Value> {
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use linalg::random::Prng;
    use linalg::Matrix;

    /// RCT fixture with tau(x) = 0.5 + 2 x0, a nonlinear prognostic term,
    /// and mild noise — shared by the neural uplift model tests.
    pub(crate) fn rct(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<f64>, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        let mut ys = Vec::new();
        let mut taus = Vec::new();
        for _ in 0..n {
            let x0 = rng.uniform();
            let x1 = rng.gaussian();
            let t = u8::from(rng.bernoulli(0.5));
            let tau = 0.5 + 2.0 * x0;
            let y = x1.sin() + tau * f64::from(t) + 0.2 * rng.gaussian();
            xs.push(vec![x0, x1]);
            ts.push(t);
            ys.push(y);
            taus.push(tau);
        }
        (Matrix::from_rows(&xs), ts, ys, taus)
    }
}
