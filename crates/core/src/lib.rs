//! DRP and rDRP: direct and robust direct ROI prediction.
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates:
//!
//! * [`DrpModel`] — the AAAI'23 Direct ROI Prediction baseline: a
//!   one-hidden-layer network trained with the convex loss of Eq. (2)
//!   ([`loss::DrpObjective`]), whose sigmoid output is an unbiased ROI
//!   point estimate at convergence.
//! * [`search::find_roi_star`] — Algorithm 2: binary search for the loss
//!   convergence point on the calibration set (Assumption 5 treats
//!   `σ(s*)` as the reference "true" ROI).
//! * MC-dropout uncertainty ([`DrpModel::mc_roi`]) — the `r̂(x)` scalar.
//! * Conformal calibration (Algorithm 3) via the `conformal` crate:
//!   score `|roi* − r̂oi|/r̂(x)`, quantile `q̂`, interval
//!   `[r̂oi ± r̂(x)q̂]`.
//! * [`calibrate::CalibrationForm`] — the heuristic point-estimate
//!   re-ranking forms of Eq. (5a)–(5c), selected on the calibration set.
//! * [`Rdrp`] — Algorithm 4, tying everything together.
//! * [`allocator::greedy_allocate`] — Algorithm 1, the budgeted greedy
//!   C-BTAP solver that consumes the ROI ranking.
//!
//! Every fitting path is fallible: construction-time problems surface as
//! [`PipelineError`], fitting problems as [`uplift::FitError`] (which
//! wraps [`nn::TrainError`]), and recoverable calibration degeneracies as
//! [`calibrate::DegradedMode`] diagnostics rather than errors.
//!
//! # Example
//!
//! ```
//! use datasets::generator::{Population, RctGenerator};
//! use datasets::CriteoLike;
//! use linalg::random::Prng;
//! use rdrp::{greedy_allocate, DrpConfig, Rdrp, RdrpConfig};
//!
//! let mut rng = Prng::seed_from_u64(7);
//! let gen = CriteoLike::new();
//! let train = gen.sample(2_000, Population::Base, &mut rng);
//! let calibration = gen.sample(800, Population::Base, &mut rng);
//!
//! let mut model = Rdrp::new(RdrpConfig {
//!     drp: DrpConfig { epochs: 3, ..DrpConfig::default() },
//!     mc_passes: 5,
//!     ..RdrpConfig::default()
//! }).unwrap();
//! model
//!     .fit_with_calibration(&train, &calibration, &mut rng, &obs::Obs::disabled())
//!     .unwrap();
//!
//! let customers = gen.sample(500, Population::Base, &mut rng);
//! let scores = model.predict_scores(&customers.x, &mut rng, &obs::Obs::disabled());
//! let costs = customers.true_tau_c.clone().unwrap();
//! let budget = 0.3 * costs.iter().sum::<f64>();
//! let allocation = greedy_allocate(&scores, &costs, budget);
//! assert!(allocation.spent <= budget);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod allocator;
pub mod artifact;
pub mod bootstrap_uq;
pub mod calibrate;
pub mod config;
pub mod drp;
pub mod error;
pub mod karm;
pub mod loss;
pub mod mckp;
pub mod methods;
pub mod persist;
pub mod rdrp;
pub mod search;

pub use allocator::{greedy_allocate, optimal_allocate_dp, Allocation};
pub use artifact::FORMAT_VERSION;
pub use bootstrap_uq::BootstrapDrp;
pub use calibrate::{CalibrationForm, DegradedMode};
pub use config::{DrpConfig, RdrpConfig};
pub use drp::DrpModel;
pub use error::PipelineError;
pub use karm::{
    build_karm, karm_method_names, load_karm_method, save_karm_method, KArmMethodSpec,
    KArmRoiMethod, PerArm, KARM_METHODS,
};
pub use loss::DrpObjective;
pub use mckp::{mckp_allocate, multi_allocation_value, MultiAllocation};
pub use methods::{build, load_method, method_names, save_method, MethodConfig, RoiMethod};
pub use persist::{atomic_write_artifact, PersistError};
pub use rdrp::{Rdrp, RdrpDiagnostics, SCORING_SEED};
pub use search::{find_roi_star, SearchError};
