//! Typed calibration errors.

use std::fmt;

/// Why a conformal calibration could not produce a quantile.
///
/// Calibration failures are *inputs* problems, never panics: the serving
/// stack recalibrates from live feedback windows, so every degenerate
/// window must surface as a value the caller can route (reject, degrade,
/// retry later) instead of unwinding a worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformalError {
    /// The calibration set is empty — no quantile exists.
    Empty,
    /// The miscoverage level is outside the open interval `(0, 1)`.
    InvalidAlpha {
        /// The offending level.
        value: f64,
    },
    /// An online calibrator's configuration cannot produce a quantile:
    /// its window sizes, step size, α bounds or scale floor are
    /// inconsistent, or its nominal α lies outside its α bounds.
    InvalidConfig {
        /// The first problem found.
        reason: String,
    },
    /// One or more nonconformity scores were NaN (a NaN truth, prediction,
    /// or scale poisons the quantile silently if let through).
    NonFiniteScores {
        /// How many of the scores were NaN.
        count: usize,
    },
}

impl fmt::Display for ConformalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformalError::Empty => write!(f, "empty calibration set"),
            ConformalError::InvalidAlpha { value } => {
                write!(f, "alpha {value} is outside (0, 1)")
            }
            ConformalError::InvalidConfig { reason } => {
                write!(f, "invalid calibrator configuration: {reason}")
            }
            ConformalError::NonFiniteScores { count } => {
                write!(f, "{count} nonconformity score(s) are NaN")
            }
        }
    }
}

impl std::error::Error for ConformalError {}

impl From<linalg::Error> for ConformalError {
    fn from(e: linalg::Error) -> Self {
        match e {
            linalg::Error::InvalidLevel { value } => ConformalError::InvalidAlpha { value },
            // `conformal_quantile` only raises Empty/InvalidLevel; map any
            // future linalg failure to the closest degenerate-input kind.
            _ => ConformalError::Empty,
        }
    }
}
