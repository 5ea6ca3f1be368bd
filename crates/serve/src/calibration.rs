//! Serve-side online conformal calibration.
//!
//! The paper's deployment recipe calibrates on a *fresh* RCT because the
//! conformal guarantee only holds while calibration and serving traffic
//! stay exchangeable. Traffic drifts; a one-shot `q̂` silently loses
//! coverage. The [`CalibrationMonitor`] closes that gap online:
//!
//! 1. every feedback observation `(row, outcome)` enters a bounded
//!    rolling window of conformity scores
//!    ([`conformal::OnlineConformal`]), which maintains the exact
//!    split-conformal quantile of the current window;
//! 2. the feature rows stream through an EWMA drift detector
//!    ([`datasets::DriftDetector`]) comparing per-feature standardized
//!    mean differences against the training reference;
//! 3. when drift fires and the window is healthy, the monitor rebuilds
//!    the serving artifact with the window's `q̂`
//!    ([`RoiMethod::with_qhat`]) and hot-swaps it through the
//!    [`ModelRegistry`] — in-flight batches keep their own `Arc` and are
//!    never rejected; when the window is too small (or its quantile is
//!    infinite, which is the same condition wearing its honest face) it
//!    raises the machine-readable
//!    [`DegradedMode::InsufficientWindow`] instead.
//!
//! Everything is observable: gauge `calibration.window_size`, histogram
//! `calibration.coverage` (0/1 per judged observation), events
//! `calibration.drift`, `calibration.hot_swap`, `calibration.degraded`.

use crate::registry::ModelRegistry;
use conformal::{ConformalError, Observation, OnlineConformal, OnlineConformalConfig};
use datasets::{DriftDetector, DriftDetectorConfig, DriftUpdate, FeatureReference, ShiftError};
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use rdrp::{DegradedMode, RoiMethod};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Why the calibration monitor could not be built or fed.
#[derive(Debug)]
pub enum MonitorError {
    /// No monitor is attached to the engine (the `serve` frontends turn
    /// this into a per-line error response, not a dropped connection).
    Disabled,
    /// The registry has no model under the configured name.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// The resolved scorer has no conformal stage to recalibrate.
    NotCalibrated {
        /// The registry name of the offending scorer.
        name: String,
    },
    /// The rolling-window calibrator rejected its configuration.
    Conformal(ConformalError),
    /// The drift detector rejected its configuration or a feature row.
    Shift(ShiftError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Disabled => write!(f, "online calibration is not enabled"),
            MonitorError::UnknownModel { name } => {
                write!(f, "no model registered under {name:?}")
            }
            MonitorError::NotCalibrated { name } => {
                write!(f, "model {name:?} has no conformal stage to recalibrate")
            }
            MonitorError::Conformal(e) => write!(f, "online calibrator: {e}"),
            MonitorError::Shift(e) => write!(f, "drift detector: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<ConformalError> for MonitorError {
    fn from(e: ConformalError) -> Self {
        MonitorError::Conformal(e)
    }
}

impl From<ShiftError> for MonitorError {
    fn from(e: ShiftError) -> Self {
        MonitorError::Shift(e)
    }
}

/// Monitor knobs: which registry slot to watch and how to calibrate.
#[derive(Debug, Clone)]
pub struct CalibrationMonitorConfig {
    /// Registry name the monitor watches and publishes swaps under.
    pub model: String,
    /// Version stem for hot-swapped artifacts: the `k`-th swap registers
    /// as `{base_version}-oc{k:06}`. Zero-padding keeps the sequence
    /// lexicographically ordered, so `registry.get(name, None)` (newest
    /// version) always resolves to the latest recalibration.
    pub base_version: String,
    /// Rolling-window calibrator knobs.
    pub online: OnlineConformalConfig,
    /// Drift detector knobs.
    pub drift: DriftDetectorConfig,
}

impl Default for CalibrationMonitorConfig {
    fn default() -> Self {
        CalibrationMonitorConfig {
            model: crate::registry::DEFAULT_MODEL.to_string(),
            base_version: "v1".to_string(),
            online: OnlineConformalConfig::default(),
            drift: DriftDetectorConfig::default(),
        }
    }
}

/// What one feedback observation did (see [`CalibrationMonitor::observe`]).
#[derive(Debug, Clone)]
pub struct FeedbackOutcome {
    /// The rolling-window calibrator's accounting for this observation.
    pub observation: Observation,
    /// The drift comparison, when this row completed a detector batch.
    pub drift: Option<DriftUpdate>,
    /// The registry version a hot-swap published, when one happened.
    pub swapped_version: Option<String>,
    /// Set when drift fired but the window could not support a swap.
    pub degraded: Option<DegradedMode>,
}

struct MonitorState {
    online: OnlineConformal,
    drift: DriftDetector,
    scorer: Arc<dyn RoiMethod>,
    ws: Workspace,
    swaps: u64,
}

/// The serve-side online calibration loop (see the module docs).
///
/// All mutable state sits behind one mutex: feedback arrives from the
/// protocol frontends, not the scoring hot path, so observation
/// throughput is bounded by the feedback stream itself — and the scoring
/// workers never touch this lock.
pub struct CalibrationMonitor {
    registry: Arc<ModelRegistry>,
    obs: Obs,
    model: String,
    base_version: String,
    state: Mutex<MonitorState>,
}

impl fmt::Debug for CalibrationMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalibrationMonitor")
            .field("model", &self.model)
            .field("base_version", &self.base_version)
            .finish()
    }
}

impl CalibrationMonitor {
    /// Builds a monitor for the newest scorer registered under
    /// `cfg.model`, with `reference` as the drift baseline (the training
    /// feature moments).
    ///
    /// # Errors
    /// [`MonitorError::UnknownModel`] when the name resolves to nothing,
    /// [`MonitorError::NotCalibrated`] when the scorer has no conformal
    /// stage, and config errors from the calibrator or detector.
    pub fn new(
        registry: Arc<ModelRegistry>,
        reference: FeatureReference,
        cfg: CalibrationMonitorConfig,
        obs: Obs,
    ) -> Result<CalibrationMonitor, MonitorError> {
        let scorer = registry
            .get(&cfg.model, None)
            .ok_or_else(|| MonitorError::UnknownModel {
                name: cfg.model.clone(),
            })?;
        if scorer.qhat().is_none() {
            return Err(MonitorError::NotCalibrated {
                name: cfg.model.clone(),
            });
        }
        let online = OnlineConformal::new(cfg.online)?;
        let drift = DriftDetector::new(reference, cfg.drift)?;
        Ok(CalibrationMonitor {
            registry,
            obs,
            model: cfg.model,
            base_version: cfg.base_version,
            state: Mutex::new(MonitorState {
                online,
                drift,
                scorer,
                ws: Workspace::new(),
                swaps: 0,
            }),
        })
    }

    /// The registry name the monitor watches.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// How many hot-swaps the monitor has published.
    pub fn swaps(&self) -> u64 {
        lock(&self.state).swaps
    }

    /// The calibrator's current adaptive miscoverage level.
    pub fn alpha(&self) -> f64 {
        lock(&self.state).online.alpha()
    }

    /// Feeds one feedback observation: the served feature `row`, the
    /// prediction it was served (`pred`; recomputed through the current
    /// scorer when the caller did not retain it), the uncertainty scale
    /// the score should be normalized by (`scale`; defaults to 1.0 —
    /// absolute-residual conformity), and the realized `outcome`.
    ///
    /// Updates the rolling window and the drift detector, and — when a
    /// completed detector batch reports drift — either hot-swaps a
    /// recalibrated artifact through the registry or reports
    /// [`DegradedMode::InsufficientWindow`].
    ///
    /// # Errors
    /// [`MonitorError::Shift`] when `row`'s width does not match the
    /// model. Malformed *values* (NaN outcomes) are not errors: the
    /// calibrator counts and drops them, because a poisoned feedback line
    /// must never wedge the monitor.
    pub fn observe(
        &self,
        row: &[f64],
        pred: Option<f64>,
        scale: Option<f64>,
        outcome: f64,
    ) -> Result<FeedbackOutcome, MonitorError> {
        let mut st = lock(&self.state);
        if let Some(expected) = st.scorer.n_features() {
            if row.len() != expected {
                return Err(MonitorError::Shift(ShiftError::FeatureMismatch {
                    reference: expected,
                    incoming: row.len(),
                }));
            }
        }
        let pred = match pred {
            Some(p) => p,
            None => {
                // Slow path: re-score the row through the current artifact.
                let x = Matrix::from_rows(&[row.to_vec()]);
                let MonitorState { scorer, ws, .. } = &mut *st;
                scorer
                    .scores(&x, ws, &self.obs)
                    .first()
                    .copied()
                    .unwrap_or(f64::NAN)
            }
        };
        let observation = st.online.observe(pred, scale.unwrap_or(1.0), outcome);
        self.obs
            .gauge("calibration.window_size", st.online.len() as f64);
        if let Some(covered) = observation.covered {
            self.obs
                .observe("calibration.coverage", f64::from(u8::from(covered)));
        }
        let drift = st.drift.observe_row(row)?;
        let mut swapped_version = None;
        let mut degraded = None;
        if let Some(update) = drift {
            if update.drifted {
                self.obs.event(
                    "calibration.drift",
                    &[
                        ("ewma", update.ewma.into()),
                        ("batch_smd", update.batch_smd.into()),
                        ("non_finite_features", update.non_finite_features.into()),
                    ],
                );
                match st
                    .online
                    .qhat()
                    .filter(|q| q.is_finite() && st.online.ready())
                {
                    Some(qhat) => {
                        let swapped = st.scorer.with_qhat(qhat, st.online.len());
                        if let Some(next) = swapped.map(Arc::from) {
                            st.swaps += 1;
                            let version = format!("{}-oc{:06}", self.base_version, st.swaps);
                            // Publish first, then adopt: a reader that
                            // races the insert sees either the old or the
                            // new artifact, both complete.
                            self.registry
                                .insert(&self.model, &version, Arc::clone(&next));
                            st.scorer = next;
                            st.drift.reset_ewma();
                            self.obs.event(
                                "calibration.hot_swap",
                                &[
                                    ("version", version.as_str().into()),
                                    ("qhat", qhat.into()),
                                    ("window", st.online.len().into()),
                                    ("alpha", st.online.alpha().into()),
                                ],
                            );
                            swapped_version = Some(version);
                        }
                    }
                    None => {
                        degraded = Some(DegradedMode::InsufficientWindow);
                        self.obs.event(
                            "calibration.degraded",
                            &[
                                ("mode", DegradedMode::InsufficientWindow.label().into()),
                                ("window", st.online.len().into()),
                            ],
                        );
                    }
                }
            }
        }
        Ok(FeedbackOutcome {
            observation,
            drift,
            swapped_version,
            degraded,
        })
    }
}

// Same poisoned-lock policy as the engine queue: every mutation leaves
// the state consistent before the guard drops.
fn lock(m: &Mutex<MonitorState>) -> MutexGuard<'_, MonitorState> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
