//! Typed fitting failures shared by every uplift/ROI model.
//!
//! [`FitError`] is the middle layer of the pipeline's error hierarchy:
//! `nn::TrainError` (innermost) converts into it via `From`, and the
//! `rdrp` crate's `PipelineError` wraps it in turn. Every model fitter
//! validates its inputs up front — a NaN feature is cheaper to reject
//! before training than to diagnose after the optimizer has chased it —
//! and the neural fitters additionally verify their parameters stayed
//! finite.

use linalg::Matrix;
use nn::TrainError;
use std::fmt;

/// Why a model could not be fitted.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training inputs failed validation (shape mismatch, empty set,
    /// missing treatment group, non-finite values, ...).
    InvalidData(String),
    /// The inner scalar trainer failed (see [`nn::TrainError`]).
    Train(TrainError),
    /// A multi-head training loop left non-finite parameters behind —
    /// the model diverged without the scalar trainer's sentinels seeing it.
    NonFiniteModel {
        /// Which model's parameters went non-finite.
        model: String,
    },
    /// Conformal calibration failed (rDRP fits through this type, so its
    /// calibration stage must be expressible here).
    Calibration(String),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::InvalidData(msg) => write!(f, "invalid training data: {msg}"),
            FitError::Train(e) => write!(f, "training failed: {e}"),
            FitError::NonFiniteModel { model } => {
                write!(f, "{model}: parameters became non-finite during training")
            }
            FitError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FitError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for FitError {
    fn from(e: TrainError) -> Self {
        FitError::Train(e)
    }
}

/// Validates the `(x, t, y)` triple every [`crate::UpliftModel`] consumes:
/// non-empty, aligned lengths, binary treatment, finite features and
/// labels. `name` prefixes the error message.
pub fn check_xty(name: &str, x: &Matrix, t: &[u8], y: &[f64]) -> Result<(), FitError> {
    if x.rows() == 0 {
        return Err(FitError::InvalidData(format!("{name}: empty training set")));
    }
    if x.rows() != t.len() || x.rows() != y.len() {
        return Err(FitError::InvalidData(format!(
            "{name}: x has {} rows but t has {} and y has {}",
            x.rows(),
            t.len(),
            y.len()
        )));
    }
    if t.iter().any(|&v| v > 1) {
        return Err(FitError::InvalidData(format!(
            "{name}: treatment is not binary"
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
    Ok(())
}

/// Validates that both treatment groups are represented.
pub fn check_both_groups(name: &str, t: &[u8]) -> Result<(), FitError> {
    let n1 = t.iter().filter(|&&v| v == 1).count();
    if n1 == 0 || n1 == t.len() {
        return Err(FitError::InvalidData(format!(
            "{name}: need both treated and control samples (got {n1} treated of {})",
            t.len()
        )));
    }
    Ok(())
}

/// Post-training divergence check for models that run their own epoch
/// loops (the multi-head networks): every parameter must be finite.
pub fn check_finite_params<M: nn::multihead::Parameterized>(
    name: &str,
    model: &mut M,
) -> Result<(), FitError> {
    let mut finite = true;
    model.visit_param_tensors(&mut |p, _| finite &= p.iter().all(|v| v.is_finite()));
    if finite {
        Ok(())
    } else {
        Err(FitError::NonFiniteModel {
            model: name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from_chain() {
        let e: FitError = TrainError::EmptyDataset.into();
        assert!(e.to_string().contains("training failed"));
        assert!(matches!(e, FitError::Train(TrainError::EmptyDataset)));
        let c = FitError::Calibration("qhat undefined".into());
        assert!(c.to_string().contains("qhat undefined"));
    }

    #[test]
    fn check_xty_catches_each_defect() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(check_xty("m", &x, &[0, 1], &[0.5, 0.5]).is_ok());
        assert!(check_xty("m", &Matrix::zeros(0, 2), &[], &[]).is_err());
        assert!(check_xty("m", &x, &[0], &[0.5, 0.5]).is_err());
        assert!(check_xty("m", &x, &[0, 2], &[0.5, 0.5]).is_err());
        assert!(check_xty("m", &x, &[0, 1], &[0.5, f64::NAN]).is_err());
        let bad = Matrix::from_rows(&[vec![1.0, f64::INFINITY], vec![3.0, 4.0]]);
        assert!(check_xty("m", &bad, &[0, 1], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn check_both_groups_rejects_single_arm() {
        assert!(check_both_groups("m", &[0, 1, 1]).is_ok());
        assert!(check_both_groups("m", &[1, 1, 1]).is_err());
        assert!(check_both_groups("m", &[0, 0]).is_err());
    }
}
