//! Algorithm 4: the robust DRP pipeline.
//!
//! ```text
//! 1. Train DRP on the training set.
//! 2. On the calibration set (a fresh pre-deployment RCT):
//!      (i)   infer DRP point estimates r̂oi,
//!      (ii)  find roi* by binary search (Algorithm 2),
//!      (iii) infer MC-dropout stds r̂(x),
//!      (iv)  compute the conformal quantile q̂ (Algorithm 3),
//!      (v)   select the calibration form among Eq. 5a–5c by AUCC.
//! 3. On the test set: infer r̂oi and r̂(x), apply the selected form with
//!    q̂ to obtain the calibrated ranking scores.
//! ```

use crate::calibrate::{CalibrationForm, DegradedMode};
use crate::config::RdrpConfig;
use crate::drp::DrpModel;
use crate::error::PipelineError;
use crate::search::{find_roi_star, SearchError};
use conformal::{Interval, SplitConformal};
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use uplift::FitError;

/// What the calibration phase produced (inspectable diagnostics).
#[derive(Debug, Clone)]
pub struct RdrpDiagnostics {
    /// The convergence-point ROI from Algorithm 2 (`None` when the search
    /// failed and rDRP fell back to uncalibrated DRP).
    pub roi_star: Option<f64>,
    /// The conformal score quantile `q̂`.
    pub qhat: f64,
    /// The calibration form selected on the calibration set.
    pub selected_form: CalibrationForm,
    /// Mean paired-bootstrap AUCC improvement over the uncalibrated
    /// point estimate for each candidate form `(form, mean_improvement)`,
    /// in candidate order (empty when the search fell back).
    pub form_auccs: Vec<(CalibrationForm, f64)>,
    /// Calibration-set size.
    pub n_calibration: usize,
    /// Set when the pipeline could not calibrate and degraded to plain
    /// DRP ranking (a warning, not an error — scores stay usable).
    pub degraded: Option<DegradedMode>,
}

tinyjson::json_struct!(RdrpDiagnostics {
    roi_star,
    qhat,
    selected_form,
    form_auccs,
    n_calibration,
    degraded
});

/// The fixed RNG seed deterministic scoring paths use for their
/// MC-dropout passes: [`crate::RoiMethod::scores`] on a fitted rDRP, the
/// CLI `score`/`serve` subcommands, and the serving engine. Scoring a
/// fitted model must be a pure function of the inputs, so every replay
/// path seeds from this constant.
pub const SCORING_SEED: u64 = 0x5C0BE;

/// Bootstrap resamples used by the form-selection significance test.
const SELECTION_BOOTSTRAPS: usize = 16;
/// One-sided t-statistic threshold a form must clear to replace the
/// uncalibrated point estimate. Deliberately strict: the bootstrap only
/// measures resampling variance, not the calibration sample's own bias,
/// so adopting a form on weak evidence risks degrading deployment — the
/// opposite of "robust".
const SELECTION_T_THRESHOLD: f64 = 2.5;
/// Minimum mean paired AUCC improvement a form must show besides
/// statistical significance.
const SELECTION_MIN_GAIN: f64 = 0.005;
/// Percentile bins used for calibration-set AUCC during selection.
const SELECTION_AUCC_BINS: usize = 20;

/// Paired-bootstrap form selection with split confirmation (Algorithm 4
/// line 8, with sampling noise accounted for).
///
/// Two noise sources threaten the selection: *resampling variance*
/// (handled by the paired bootstrap's t-test on one half of the
/// calibration set) and the *label-realization noise of the calibration
/// sample itself*, which the bootstrap cannot see — a form can look
/// consistently better on one particular sample and be worthless on the
/// population. The held-out half guards against the latter: a form is
/// adopted only if it also improves on calibration data it was not
/// selected on. Returns the selected form and each candidate's mean
/// paired AUCC improvement on the selection half.
fn select_form_bootstrap(
    calibration: &RctDataset,
    preds: &[f64],
    half_widths: &[f64],
    width_floor: f64,
    bootstraps: usize,
    rng: &mut Prng,
) -> (CalibrationForm, Vec<(CalibrationForm, f64)>) {
    let forms = CalibrationForm::CANDIDATES;
    // A split + paired bootstrap needs at least two points on each half;
    // smaller calibration sets carry no ranking signal (and an empty
    // selection half would panic inside the bootstrap resampler). Decline
    // to calibrate and keep the raw point estimate.
    if calibration.len() < 4 {
        return (CalibrationForm::Identity, Vec::new());
    }
    // Split the calibration set into a selection half and a confirm half.
    let order = rng.permutation(calibration.len());
    let mid = calibration.len() / 2;
    let select_idx = &order[..mid];
    let confirm_idx = &order[mid..];
    let confirm = calibration.subset(confirm_idx);

    let mut diffs: Vec<Vec<f64>> = vec![Vec::with_capacity(bootstraps); forms.len()];
    for _ in 0..bootstraps {
        let pick = rng.sample_with_replacement(select_idx.len(), select_idx.len());
        let idx: Vec<usize> = pick.iter().map(|&k| select_idx[k]).collect();
        let sub = calibration.subset(&idx);
        let id_scores: Vec<f64> = idx.iter().map(|&i| preds[i]).collect();
        // Degenerate resamples (missing group / non-positive uplift
        // totals) carry no ranking information; skip the whole draw.
        let Some(a_id) = metrics::aucc_checked(&sub, &id_scores, SELECTION_AUCC_BINS) else {
            continue;
        };
        for (fi, form) in forms.iter().enumerate() {
            let scores: Vec<f64> = idx
                .iter()
                .map(|&i| form.apply(preds[i], half_widths[i], width_floor))
                .collect();
            if let Some(a) = metrics::aucc_checked(&sub, &scores, SELECTION_AUCC_BINS) {
                diffs[fi].push(a - a_id);
            }
        }
    }
    // Confirm-half identity baseline.
    let confirm_id: Vec<f64> = confirm_idx.iter().map(|&i| preds[i]).collect();
    let confirm_base = metrics::aucc_checked(&confirm, &confirm_id, SELECTION_AUCC_BINS);

    let mut best = CalibrationForm::Identity;
    let mut best_t = 0.0f64;
    let mut report = Vec::with_capacity(forms.len());
    for (fi, form) in forms.iter().enumerate() {
        if diffs[fi].len() < 2 {
            report.push((*form, 0.0));
            continue;
        }
        let mean = linalg::stats::mean(&diffs[fi]);
        let se = linalg::stats::sample_std_dev(&diffs[fi]) / (diffs[fi].len() as f64).sqrt();
        let t = if se > 0.0 { mean / se } else { 0.0 };
        report.push((*form, mean));
        if mean > SELECTION_MIN_GAIN && t > SELECTION_T_THRESHOLD && t > best_t {
            // Held-out confirmation against the sample's own label noise.
            let confirmed = match confirm_base {
                Some(base) => {
                    let scores: Vec<f64> = confirm_idx
                        .iter()
                        .map(|&i| form.apply(preds[i], half_widths[i], width_floor))
                        .collect();
                    metrics::aucc_checked(&confirm, &scores, SELECTION_AUCC_BINS)
                        .is_some_and(|a| a > base + SELECTION_MIN_GAIN)
                }
                None => false,
            };
            if confirmed {
                best = *form;
                best_t = t;
            }
        }
    }
    (best, report)
}

/// The robust DRP model.
#[derive(Debug, Clone)]
pub struct Rdrp {
    config: RdrpConfig,
    drp: DrpModel,
    state: Option<Calibrated>,
    /// Internal calibration fraction used by the [`Rdrp::fit`]
    /// convenience path (which has no separate calibration set).
    internal_calib_fraction: f64,
}

tinyjson::json_struct!(Rdrp {
    config,
    drp,
    state,
    internal_calib_fraction
});

#[derive(Debug, Clone)]
struct Calibrated {
    conformal: SplitConformal,
    form: CalibrationForm,
    diagnostics: RdrpDiagnostics,
}

tinyjson::json_struct!(Calibrated {
    conformal,
    form,
    diagnostics
});

impl Rdrp {
    /// Creates an unfitted rDRP model.
    ///
    /// # Errors
    /// Returns [`PipelineError::Config`] when the configuration is
    /// invalid (e.g. `alpha` outside (0, 1)).
    pub fn new(config: RdrpConfig) -> Result<Self, PipelineError> {
        if let Some(problem) = config.validate() {
            return Err(PipelineError::Config(problem));
        }
        let drp = DrpModel::new(config.drp.clone());
        Ok(Rdrp {
            config,
            drp,
            state: None,
            internal_calib_fraction: 0.2,
        })
    }

    /// The underlying (trained) DRP model.
    pub fn drp(&self) -> &DrpModel {
        &self.drp
    }

    /// Calibration diagnostics.
    ///
    /// # Panics
    /// Panics before fitting.
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn diagnostics(&self) -> &RdrpDiagnostics {
        &self
            .state
            .as_ref()
            .expect("Rdrp: fit before reading diagnostics")
            .diagnostics
    }

    /// Whether (and how) the last fit degraded to plain DRP ranking.
    /// `None` before fitting or when calibration succeeded.
    pub fn degraded(&self) -> Option<DegradedMode> {
        self.state.as_ref().and_then(|s| s.diagnostics.degraded)
    }

    /// The full Algorithm 4: trains DRP on `train` and calibrates the
    /// conformal interval + form selection on `calibration` (the fresh
    /// pre-deployment RCT whose distribution matches the test population,
    /// Assumption 6).
    ///
    /// Degenerate calibration inputs do **not** fail the fit: when the
    /// `roi*` search cannot run on the calibration labels, or when the
    /// MC-dropout uncertainty is near-constant across the calibration
    /// set (so the conformal score carries no ranking information), the
    /// model degrades to plain DRP ranking and records why in
    /// [`RdrpDiagnostics::degraded`].
    ///
    /// The `obs` handle records every run-level decision the diagnostics
    /// summarize (pass [`Obs::disabled`] for a silent run):
    ///
    /// * the trainer's `train.*` vocabulary (via [`nn::train`]);
    /// * `infer.*` batch/MC histograms for the calibration-set inference;
    /// * counter `calibration.std_floor_hits` — how many calibration rows
    ///   had their MC-dropout std clamped at `std_floor`;
    /// * event `calibration.roi_star` `{roi_star, iterations, lo, hi}`
    ///   from Algorithm 2's bisection (exactly once on a non-degraded
    ///   run);
    /// * event `calibration.qhat` `{qhat, n_calibration, alpha}` once the
    ///   conformal quantile exists;
    /// * event `calibration.form_selected` `{form}` on full success, or
    /// * event `calibration.degraded` `{mode}` (exactly once) when the
    ///   pipeline fell back to plain DRP ranking — `mode` is the
    ///   [`DegradedMode`] variant name.
    ///
    /// # Errors
    /// Returns [`FitError`] when the training data is malformed, DRP
    /// training diverges beyond its retry budget, or conformal
    /// calibration itself fails.
    pub fn fit_with_calibration(
        &mut self,
        train: &RctDataset,
        calibration: &RctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError> {
        if calibration.is_empty() {
            return Err(FitError::InvalidData(
                "rDRP: empty calibration set".to_string(),
            ));
        }
        uplift::error::check_xty(
            "rDRP calibration",
            &calibration.x,
            &calibration.t,
            &calibration.y_r,
        )?;
        uplift::error::check_xty(
            "rDRP calibration",
            &calibration.x,
            &calibration.t,
            &calibration.y_c,
        )?;
        // Step 1: train DRP.
        self.drp.fit(train, rng, obs)?;
        // Step 2 on the calibration set.
        let preds = self.drp.predict_roi(&calibration.x, obs);
        let mc = self.drp.mc_roi_with_rate(
            &calibration.x,
            self.config.mc_passes,
            self.config.mc_dropout,
            self.config.std_floor,
            rng,
            obs,
        );
        // `mc_predict_map` clamps each std at the floor, so a floored row
        // is exactly equal to it.
        let floor_hits = mc
            .std
            .iter()
            .filter(|&&s| s <= self.config.std_floor)
            .count();
        if floor_hits > 0 {
            obs.counter("calibration.std_floor_hits", floor_hits as f64);
        }
        let roi_star = match find_roi_star(
            &calibration.t,
            &calibration.y_r,
            &calibration.y_c,
            self.config.search_eps,
            obs,
        ) {
            Ok(v) => v,
            Err(SearchError::MissingGroup | SearchError::NonPositiveCostUplift { .. }) => {
                // Degenerate calibration sample: fall back to plain DRP
                // (q̂ = 0 makes every form reduce to a monotone transform
                // of the point estimate — Identity keeps it exact).
                // A q̂ = 0 conformal object keeps predict_intervals usable.
                obs.event(
                    "calibration.degraded",
                    &[("mode", DegradedMode::DegenerateLabels.label().into())],
                );
                self.state = Some(Calibrated {
                    conformal: SplitConformal::from_quantile(
                        0.0,
                        self.config.alpha,
                        calibration.len(),
                        self.config.std_floor,
                    ),
                    form: CalibrationForm::Identity,
                    diagnostics: RdrpDiagnostics {
                        roi_star: None,
                        qhat: 0.0,
                        selected_form: CalibrationForm::Identity,
                        form_auccs: Vec::new(),
                        n_calibration: calibration.len(),
                        degraded: Some(DegradedMode::DegenerateLabels),
                    },
                });
                return Ok(());
            }
            // The tolerance is config-validated, but keep the error typed
            // rather than unreachable!() — a future config path may skip
            // validation.
            Err(e @ SearchError::InvalidTolerance { .. }) => {
                return Err(FitError::Calibration(e.to_string()));
            }
        };
        let truths = vec![roi_star; calibration.len()];
        let conformal = SplitConformal::calibrate(
            &truths,
            &preds,
            &mc.std,
            self.config.alpha,
            self.config.std_floor,
        )
        .map_err(|e| FitError::Calibration(e.to_string()))?;
        obs.event(
            "calibration.qhat",
            &[
                ("qhat", conformal.qhat().into()),
                ("n_calibration", calibration.len().into()),
                ("alpha", self.config.alpha.into()),
            ],
        );
        // Degenerate-uncertainty guard: when the calibration-set MC stds
        // are (near-)constant — e.g. dropout disabled, or every pass
        // floored at `std_floor` — the conformal score `|roi* − r̂oi|/r̂`
        // is a monotone transform of the point estimate and the interval
        // widths carry no per-individual information. Form selection on
        // such scores is noise-chasing; degrade to plain DRP ranking and
        // say so.
        let spread = {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &s in &mc.std {
                lo = lo.min(s);
                hi = hi.max(s);
            }
            hi - lo
        };
        if spread <= self.config.std_degeneracy_eps {
            obs.event(
                "calibration.degraded",
                &[
                    ("mode", DegradedMode::DegenerateUncertainty.label().into()),
                    ("spread", spread.into()),
                ],
            );
            self.state = Some(Calibrated {
                form: CalibrationForm::Identity,
                diagnostics: RdrpDiagnostics {
                    roi_star: Some(roi_star),
                    qhat: conformal.qhat(),
                    selected_form: CalibrationForm::Identity,
                    form_auccs: Vec::new(),
                    n_calibration: calibration.len(),
                    degraded: Some(DegradedMode::DegenerateUncertainty),
                },
                conformal,
            });
            return Ok(());
        }
        // Step 2(v): select the form by calibration-set AUCC. Calibration
        // labels are noisy (AUCC on a few thousand RCT rows has sampling
        // error comparable to the form effects), so the selection is a
        // *paired bootstrap*: each resample of the calibration set scores
        // every form against the uncalibrated point estimate, and a form
        // is adopted only when its mean paired improvement is positive and
        // statistically significant. Otherwise rDRP declines to calibrate
        // — the "validate on the calibration set which form is best" step
        // of Algorithm 4, taken with the noise accounted for.
        let qhat = conformal.qhat();
        let half_widths: Vec<f64> = mc.std.iter().map(|&s| s * qhat).collect();
        let (selected, form_auccs) = select_form_bootstrap(
            calibration,
            &preds,
            &half_widths,
            self.config.std_floor,
            SELECTION_BOOTSTRAPS,
            rng,
        );
        obs.event(
            "calibration.form_selected",
            &[("form", selected.label().into())],
        );
        let diagnostics = RdrpDiagnostics {
            roi_star: Some(roi_star),
            qhat,
            selected_form: selected,
            form_auccs,
            n_calibration: calibration.len(),
            degraded: None,
        };
        self.state = Some(Calibrated {
            conformal,
            form: selected,
            diagnostics,
        });
        Ok(())
    }

    /// Conformal prediction intervals `C(x)` for test points, clipped to
    /// the ROI range (0, 1) (Assumption 3).
    ///
    /// # Panics
    /// Panics before fitting.
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn predict_intervals(&self, x: &Matrix, rng: &mut Prng) -> Vec<Interval> {
        let state = self.state.as_ref().expect("Rdrp: fit before predict");
        let obs = Obs::disabled();
        let preds = self.drp.predict_roi(x, &obs);
        let mc = self.drp.mc_roi_with_rate(
            x,
            self.config.mc_passes,
            self.config.mc_dropout,
            self.config.std_floor,
            rng,
            &obs,
        );
        state
            .conformal
            .intervals(&preds, &mc.std)
            .into_iter()
            .map(|iv| iv.clamp_to(0.0, 1.0))
            .collect()
    }

    /// Calibrated ranking scores on test points — Algorithm 4 line 12.
    ///
    /// Takes an explicit RNG so the MC-dropout passes are reproducible;
    /// [`crate::RoiMethod::scores`] wraps this with the fixed
    /// [`SCORING_SEED`]. Batch-inference accounting goes through `obs`:
    /// the point-estimate pass records `infer.predict_*` and, when the
    /// selected form needs interval widths, the MC sweep records
    /// `infer.mc_*`.
    ///
    /// # Panics
    /// Panics before fitting.
    pub fn predict_scores(&self, x: &Matrix, rng: &mut Prng, obs: &Obs) -> Vec<f64> {
        let mut ws = Workspace::new();
        self.predict_scores_with(x, rng, &mut ws, obs)
    }

    /// [`Rdrp::predict_scores`] reusing a caller-owned [`Workspace`] for
    /// the serial point-estimate pass — the variant long-lived scorers
    /// (the serving engine's worker threads) call in a loop. The MC sweep
    /// (non-Identity forms only) manages its own per-worker scratch.
    ///
    /// # Panics
    /// Panics before fitting.
    #[allow(clippy::expect_used)] // documented API-misuse panic
    pub fn predict_scores_with(
        &self,
        x: &Matrix,
        rng: &mut Prng,
        ws: &mut Workspace,
        obs: &Obs,
    ) -> Vec<f64> {
        let state = self.state.as_ref().expect("Rdrp: fit before predict");
        let preds = self.drp.predict_roi_with(x, ws, obs);
        if state.form == CalibrationForm::Identity {
            return preds;
        }
        let mc = self.drp.mc_roi_with_rate(
            x,
            self.config.mc_passes,
            self.config.mc_dropout,
            self.config.std_floor,
            rng,
            obs,
        );
        let qhat = state.conformal.qhat();
        let half_widths: Vec<f64> = mc.std.iter().map(|&s| s * qhat).collect();
        state
            .form
            .apply_all(&preds, &half_widths, self.config.std_floor)
    }

    /// The calibration form a fitted model applies at scoring time, or
    /// `None` before fitting. [`CalibrationForm::Identity`] means scoring
    /// is a pure row-independent function of the features (no MC-dropout
    /// sweep) — the property the serving engine's batch coalescer keys on.
    pub fn selected_form(&self) -> Option<CalibrationForm> {
        self.state.as_ref().map(|s| s.form)
    }

    /// Feature dimension the fitted model consumes, or `None` before
    /// fitting.
    pub fn n_features(&self) -> Option<usize> {
        self.drp.n_features()
    }

    /// The fitted conformal quantile `q̂`, or `None` before fitting.
    pub fn qhat(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.conformal.qhat())
    }

    /// The miscoverage level `α` the fitted `q̂` was calibrated at, or
    /// `None` before fitting.
    pub fn alpha(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.conformal.alpha())
    }

    /// A copy of this fitted model with the conformal quantile replaced —
    /// the online-recalibration hot-swap path. Everything else (trained
    /// DRP, selected form, `α`, scale floor) is kept; the diagnostics
    /// record the new `q̂` and the feedback-window size that produced it.
    /// Returns `None` before fitting, and for non-finite negative inputs
    /// (an *infinite* `q̂` is legal — it is what a tiny window honestly
    /// yields — but a NaN or negative one is not a quantile).
    pub fn with_qhat(&self, qhat: f64, n_calibration: usize) -> Option<Rdrp> {
        if qhat.is_nan() || qhat < 0.0 {
            return None;
        }
        let state = self.state.as_ref()?;
        let mut swapped = self.clone();
        let conformal = SplitConformal::from_quantile(
            qhat,
            state.conformal.alpha(),
            n_calibration,
            self.config.std_floor,
        );
        let mut diagnostics = state.diagnostics.clone();
        diagnostics.qhat = qhat;
        diagnostics.n_calibration = n_calibration;
        swapped.state = Some(Calibrated {
            conformal,
            form: state.form,
            diagnostics,
        });
        Some(swapped)
    }

    /// Convenience fit when no separate calibration RCT exists: holds out
    /// `internal_calib_fraction` of `data` (default 20%) as the
    /// calibration set. Production deployments should prefer
    /// [`Rdrp::fit_with_calibration`] with a *fresh* RCT matching the
    /// deployment distribution — that freshness is the entire point of
    /// the method under covariate shift.
    pub fn fit(&mut self, data: &RctDataset, rng: &mut Prng) -> Result<(), FitError> {
        if data.len() < 10 {
            return Err(FitError::InvalidData(format!(
                "rDRP: dataset of {} rows is too small to split for internal calibration",
                data.len()
            )));
        }
        let order = rng.permutation(data.len());
        let n_cal = ((data.len() as f64 * self.internal_calib_fraction).round() as usize)
            .clamp(1, data.len() - 1);
        let calibration = data.subset(&order[..n_cal]);
        let train = data.subset(&order[n_cal..]);
        self.fit_with_calibration(&train, &calibration, rng, &Obs::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::find_roi_star;
    use datasets::generator::{Population, RctGenerator};
    use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};

    /// Scores at the fixed serving seed, as `RdrpMethod::scores` does.
    fn scores(m: &Rdrp, x: &Matrix) -> Vec<f64> {
        m.predict_scores(x, &mut Prng::seed_from_u64(SCORING_SEED), &Obs::disabled())
    }

    fn small_config() -> RdrpConfig {
        RdrpConfig {
            drp: crate::DrpConfig {
                epochs: 20,
                ..crate::DrpConfig::default()
            },
            mc_passes: 25,
            ..RdrpConfig::default()
        }
    }

    #[test]
    fn full_pipeline_runs_and_reports_diagnostics() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(0);
        let train = gen.sample(6000, Population::Base, &mut rng);
        let cal = gen.sample(2000, Population::Base, &mut rng);
        let test = gen.sample(2000, Population::Base, &mut rng);
        let mut m = Rdrp::new(small_config()).unwrap();
        m.fit_with_calibration(&train, &cal, &mut rng, &Obs::disabled())
            .unwrap();
        let d = m.diagnostics();
        assert!(d.roi_star.is_some());
        assert_eq!(d.degraded, None);
        assert_eq!(m.degraded(), None);
        let roi_star = d.roi_star.unwrap();
        assert!((0.0..1.0).contains(&roi_star), "roi* = {roi_star}");
        assert!(d.qhat > 0.0 && d.qhat.is_finite());
        assert_eq!(d.form_auccs.len(), 3); // paired improvements for 5a/5b/5c
        assert_eq!(d.n_calibration, 2000);
        let scores = scores(&m, &test.x);
        assert_eq!(scores.len(), 2000);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn intervals_cover_roi_star_at_nominal_rate() {
        // The conformal guarantee (Eq. 4) is about covering roi*_test; on
        // an exchangeable calibration/test pair the empirical coverage of
        // the *test-set* roi* must be >= 1 - alpha (up to noise).
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(1);
        let train = gen.sample(6000, Population::Base, &mut rng);
        let cal = gen.sample(3000, Population::Base, &mut rng);
        let test = gen.sample(3000, Population::Base, &mut rng);
        let mut m = Rdrp::new(small_config()).unwrap();
        m.fit_with_calibration(&train, &cal, &mut rng, &Obs::disabled())
            .unwrap();
        let ivs = m.predict_intervals(&test.x, &mut rng);
        let roi_star_test =
            find_roi_star(&test.t, &test.y_r, &test.y_c, 1e-6, &Obs::disabled()).unwrap();
        let covered = ivs.iter().filter(|iv| iv.contains(roi_star_test)).count();
        let rate = covered as f64 / ivs.len() as f64;
        assert!(rate >= 0.80, "coverage of test roi* = {rate}");
        // Intervals are clipped to (0,1).
        assert!(ivs.iter().all(|iv| iv.lo >= 0.0 && iv.hi <= 1.0));
    }

    #[test]
    fn rdrp_not_worse_than_drp_under_shift_and_scarcity() {
        // The headline claim (Table I, InCo cell): with insufficient data
        // and covariate shift, rDRP outperforms raw DRP.
        let gen = CriteoLike::new();
        let sizes = SettingSizes {
            train_sufficient: 12_000,
            insufficient_fraction: 0.15,
            calibration: 3_000,
            test: 6_000,
        };
        let mut diffs = Vec::new();
        for seed in 0..3u64 {
            let mut rng = Prng::seed_from_u64(100 + seed);
            let data = ExperimentData::build(&gen, Setting::InCo, &sizes, &mut rng);
            let mut m = Rdrp::new(small_config()).unwrap();
            m.fit_with_calibration(&data.train, &data.calibration, &mut rng, &Obs::disabled())
                .unwrap();
            let rdrp_scores = scores(&m, &data.test.x);
            let drp_scores = m.drp().predict_roi(&data.test.x, &Obs::disabled());
            let a_rdrp = metrics::aucc_from_labels(&data.test, &rdrp_scores, 50);
            let a_drp = metrics::aucc_from_labels(&data.test, &drp_scores, 50);
            diffs.push(a_rdrp - a_drp);
        }
        let mean_diff: f64 = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!(
            mean_diff > -0.01,
            "rDRP should not lose to DRP under InCo (mean diff {mean_diff}, {diffs:?})"
        );
    }

    #[test]
    fn degenerate_calibration_falls_back_to_identity() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(2);
        let train = gen.sample(3000, Population::Base, &mut rng);
        let mut cal = gen.sample(500, Population::Base, &mut rng);
        // Destroy the calibration cost labels: zero cost uplift.
        cal.y_c = vec![0.0; cal.len()];
        let mut m = Rdrp::new(small_config()).unwrap();
        m.fit_with_calibration(&train, &cal, &mut rng, &Obs::disabled())
            .unwrap();
        let d = m.diagnostics();
        assert_eq!(d.roi_star, None);
        assert_eq!(d.selected_form, CalibrationForm::Identity);
        assert_eq!(d.degraded, Some(DegradedMode::DegenerateLabels));
        assert_eq!(m.degraded(), Some(DegradedMode::DegenerateLabels));
        // Predictions equal plain DRP.
        let test = gen.sample(200, Population::Base, &mut rng);
        assert_eq!(
            scores(&m, &test.x),
            m.drp().predict_roi(&test.x, &Obs::disabled())
        );
    }

    #[test]
    fn degenerate_uncertainty_falls_back_to_drp_ranking() {
        // MC dropout disabled: every MC pass is identical, every std is
        // floored to the same constant, and the spread hits 0 — the
        // conformal score carries no per-individual information. The
        // pipeline must flag DegenerateUncertainty, keep all scores
        // finite, and rank exactly like plain DRP.
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(7);
        let train = gen.sample(3000, Population::Base, &mut rng);
        let cal = gen.sample(800, Population::Base, &mut rng);
        let test = gen.sample(300, Population::Base, &mut rng);
        let mut m = Rdrp::new(RdrpConfig {
            mc_dropout: 0.0,
            ..small_config()
        })
        .unwrap();
        m.fit_with_calibration(&train, &cal, &mut rng, &Obs::disabled())
            .unwrap();
        let d = m.diagnostics();
        assert_eq!(d.degraded, Some(DegradedMode::DegenerateUncertainty));
        assert_eq!(d.selected_form, CalibrationForm::Identity);
        assert!(d.form_auccs.is_empty());
        // roi* and q̂ are still real — only the form degraded.
        assert!(d.roi_star.is_some());
        assert!(d.qhat.is_finite());
        let scores = scores(&m, &test.x);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(scores, m.drp().predict_roi(&test.x, &Obs::disabled()));
        // Intervals stay usable (constant width, clipped to (0,1)).
        let ivs = m.predict_intervals(&test.x, &mut rng);
        assert!(ivs.iter().all(|iv| iv.lo.is_finite() && iv.hi.is_finite()));
    }

    #[test]
    fn roimodel_fit_splits_internally() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(3);
        let data = gen.sample(4000, Population::Base, &mut rng);
        let mut m = Rdrp::new(small_config()).unwrap();
        m.fit(&data, &mut rng).unwrap();
        assert_eq!(m.diagnostics().n_calibration, 800); // 20%
        let scores = scores(&m, &data.x);
        assert_eq!(scores.len(), 4000);
    }

    #[test]
    fn predictions_are_deterministic_after_fit() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(4);
        let data = gen.sample(2000, Population::Base, &mut rng);
        let mut m = Rdrp::new(small_config()).unwrap();
        m.fit(&data, &mut rng).unwrap();
        let test = gen.sample(300, Population::Base, &mut rng);
        assert_eq!(scores(&m, &test.x), scores(&m, &test.x));
    }

    #[test]
    fn form_selection_degenerately_small_calibration_falls_back() {
        // Regression: select_form_bootstrap used to bootstrap-resample an
        // empty or singleton selection half for calibration sets smaller
        // than 4 rows, panicking inside the resampler. It must instead
        // decline to calibrate.
        for n in 1usize..=3 {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let cal = RctDataset {
                x: Matrix::from_rows(&rows),
                t: (0..n).map(|i| (i % 2) as u8).collect(),
                y_r: vec![1.0; n],
                y_c: vec![1.0; n],
                true_tau_r: None,
                true_tau_c: None,
            };
            let preds = vec![0.5; n];
            let half_widths = vec![0.1; n];
            let mut rng = Prng::seed_from_u64(n as u64);
            let (form, report) =
                select_form_bootstrap(&cal, &preds, &half_widths, 1e-3, 8, &mut rng);
            assert_eq!(form, CalibrationForm::Identity, "n = {n}");
            assert!(report.is_empty(), "n = {n}");
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let c = RdrpConfig {
            alpha: 2.0,
            ..RdrpConfig::default()
        };
        let err = Rdrp::new(c).unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)));
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn too_small_dataset_is_a_typed_error() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(8);
        let data = gen.sample(5, Population::Base, &mut rng);
        let mut m = Rdrp::new(small_config()).unwrap();
        let err = m.fit(&data, &mut rng).unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)));
    }
}
