//! Split conformal prediction.
//!
//! rDRP's interval machinery (paper Algorithm 3) is an instance of
//! *Conformalizing Scalar Uncertainty Estimates* (Angelopoulos & Bates
//! 2021, §4): given a point prediction `ŷ(x)`, an uncertainty scalar
//! `r̂(x) > 0`, and a reference value `y*`, the nonconformity score
//!
//! ```text
//! score(x, y*) = |y* − ŷ(x)| / r̂(x)          (paper Eq. 3)
//! ```
//!
//! is computed on a calibration set; its `⌈(1−α)(n+1)⌉/n` empirical
//! quantile `q̂` then yields test-time intervals
//!
//! ```text
//! C(x) = [ŷ(x) − r̂(x)·q̂,  ŷ(x) + r̂(x)·q̂]   (Algorithm 3, line 6)
//! ```
//!
//! with the finite-sample marginal coverage guarantee
//! `P(y* ∈ C(x)) ≥ 1 − α` whenever calibration and test points are
//! exchangeable (paper Eq. 4, which is why rDRP collects a *fresh* 1–2 day
//! RCT as the calibration set right before deployment).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod coverage;
pub mod error;
pub mod online;
pub mod score;
pub mod split;

pub use coverage::{empirical_coverage, mean_width};
pub use error::ConformalError;
pub use online::{Observation, OnlineConformal, OnlineConformalConfig};
pub use score::{scaled_score, scaled_scores};
pub use split::{Interval, SplitConformal};
