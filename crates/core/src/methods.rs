//! The method registry: every paper method behind one object-safe trait.
//!
//! The experiment harness, the CLI, and the serving layer all need "a
//! fitted ROI ranker" without caring which of the twelve Table I/II
//! methods it is. [`RoiMethod`] is that interface; [`METHODS`] maps each
//! registry name (which doubles as the artifact tag of
//! [`crate::artifact`]) to a builder and a loader, so
//!
//! * `cli train --method <name>` constructs any method from its name,
//! * [`save_method`]/[`load_method`] round-trip any of them through the
//!   versioned envelope, and
//! * a serving registry can hot-swap between method families by loading
//!   whatever tag a file carries.
//!
//! Scoring through [`RoiMethod::scores`] is **deterministic**: methods
//! whose scoring consumes randomness (the MC-dropout sweeps) seed it
//! from [`crate::SCORING_SEED`] per call, so a loaded artifact scores
//! bitwise identically to the model that was saved — the property the
//! round-trip and golden-artifact tests pin down.

use crate::artifact;
use crate::bootstrap_uq::BootstrapDrp;
use crate::config::RdrpConfig;
use crate::drp::DrpModel;
use crate::error::PipelineError;
use crate::persist::PersistError;
use crate::rdrp::{Rdrp, SCORING_SEED};
use conformal::Interval;
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use std::fmt;
use std::path::Path;
use tinyjson::{FromJson, JsonError, ToJson, Value};
use uplift::{DirectRank, FitError, NetConfig, Tpm};

/// One ROI-ranking method of the paper's evaluation, behind a uniform
/// fit/score/persist surface — the one scorer interface the harness,
/// the CLI, and the serving engine all batch over.
///
/// Object-safe on purpose: the harness holds `Box<dyn RoiMethod>`, the
/// serving layer `Arc<dyn RoiMethod>`. The contract the serving
/// micro-batcher relies on: [`RoiMethod::scores`] is a pure function of
/// the fitted state and `x` (MC sweeps re-seed from [`SCORING_SEED`]),
/// whichever worker thread runs it, and [`RoiMethod::rowwise`] tells a
/// batcher whether rows from different requests may be coalesced into
/// one call and split again.
pub trait RoiMethod: Send + Sync + fmt::Debug {
    /// Registry name, which is also the artifact tag (e.g. `"tpm-sl"`).
    fn method_name(&self) -> &'static str;

    /// Paper-style row label (e.g. `"TPM-SL"`, `"DRP w/ MC"`).
    fn label(&self) -> String;

    /// Fits the method. Methods without a calibration stage ignore
    /// `calibration`; rDRP runs Algorithm 4 on it.
    ///
    /// # Errors
    /// [`FitError`] as the underlying model raises it.
    fn fit(
        &mut self,
        train: &RctDataset,
        calibration: &RctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError>;

    /// Whether the method has been fitted (a loaded artifact of a fitted
    /// model counts).
    fn is_fitted(&self) -> bool {
        self.n_features().is_some()
    }

    /// Feature dimension the fitted method consumes, `None` before
    /// fitting.
    fn n_features(&self) -> Option<usize>;

    /// Whether each row's score depends only on that row (MC-sweep
    /// methods consume RNG across the batch and must answer `false`).
    fn rowwise(&self) -> bool;

    /// Ranking scores for every row of `x`. Deterministic: equal inputs
    /// give bitwise-equal scores. `ws` is reusable forward scratch for
    /// the neural methods; others ignore it.
    ///
    /// # Panics
    /// Panics when unfitted (callers gate on [`RoiMethod::is_fitted`]).
    fn scores(&self, x: &Matrix, ws: &mut Workspace, obs: &Obs) -> Vec<f64>;

    /// [`RoiMethod::scores`] with method-owned scratch — the convenience
    /// entry point for one-shot callers.
    fn scores_fresh(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        let mut ws = Workspace::new();
        self.scores(x, &mut ws, obs)
    }

    /// Ranking scores through the columnar f32 kernel path, where the
    /// method has one (the rowwise-coalescible families: TPM, DR, DRP,
    /// Identity-form rDRP, the bootstrap ensemble). The default falls
    /// back to the f64 scalar path, so MC-sweep methods stay bitwise
    /// identical to [`RoiMethod::scores`].
    ///
    /// Block scores match scalar scores to f32 rounding, not bitwise —
    /// tree families are bitwise once inputs are rounded to f32, net
    /// families carry an absolute tolerance (DESIGN.md §11). Callers
    /// that persist or replay scores must stay on [`RoiMethod::scores`];
    /// this path is opt-in (`EngineConfig::block_kernels`).
    ///
    /// # Panics
    /// Panics when unfitted (callers gate on [`RoiMethod::is_fitted`]).
    fn scores_block(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        self.scores_fresh(x, obs)
    }

    /// Conformal prediction intervals, for the methods that calibrate
    /// them (rDRP); `None` for everything else.
    fn intervals(&self, _x: &Matrix) -> Option<Vec<Interval>> {
        None
    }

    /// Downcast to the calibrated rDRP model, when that is what this
    /// method wraps — the CLI uses it to print calibration diagnostics
    /// and degraded-mode warnings that only rDRP has.
    fn as_rdrp(&self) -> Option<&Rdrp> {
        None
    }

    /// The conformal quantile `q̂` this method scores with, when it has
    /// a conformal stage — the handle the serving layer's online
    /// calibration monitor keys on. `None` for uncalibrated methods
    /// (nothing to recalibrate) and before fitting.
    fn qhat(&self) -> Option<f64> {
        self.as_rdrp().and_then(Rdrp::qhat)
    }

    /// A copy of this method with its conformal quantile replaced — the
    /// online-recalibration hot-swap path. `None` for methods without a
    /// conformal stage (they have nothing to recalibrate), when the
    /// method is unfitted, or when `qhat` is not a quantile (NaN or
    /// negative).
    fn with_qhat(&self, _qhat: f64, _n_calibration: usize) -> Option<Box<dyn RoiMethod>> {
        None
    }

    /// The artifact body (everything [`load_method`] needs to
    /// reconstruct this method, fitted state included).
    fn body_to_json(&self) -> Value;
}

/// Saves any method as a versioned artifact at `path`, through the
/// crash-safe [`crate::persist::atomic_write_artifact`] path (temp +
/// fsync + rename): an interrupted save leaves any previous artifact
/// intact.
///
/// # Errors
/// [`PersistError::Io`] when the file cannot be written.
pub fn save_method(method: &dyn RoiMethod, path: impl AsRef<Path>) -> Result<(), PersistError> {
    crate::persist::atomic_write_artifact(
        path,
        &artifact::render(method.method_name(), method.body_to_json()),
    )
}

/// Loads any artifact by its embedded method tag.
///
/// # Errors
/// [`PersistError::Io`]/[`PersistError::Serde`] for unreadable or
/// unparseable files, [`PersistError::Format`] for a valid JSON file
/// that is not an artifact or carries an unknown tag,
/// [`PersistError::Checksum`] for a stamped artifact whose body was
/// altered after it was written.
pub fn load_method(path: impl AsRef<Path>) -> Result<Box<dyn RoiMethod>, PersistError> {
    let v: Value = tinyjson::from_str(&crate::persist::read_artifact(path)?)?;
    if u64::from_json(v.fetch("format_version")) == Ok(artifact::KARM_FORMAT_VERSION) {
        let n_arms = artifact::artifact_n_arms(&v)?;
        return Err(PersistError::Format(format!(
            "artifact is a K-arm model ({n_arms} arms, format_version \
             {}); load it with `load_karm_method`",
            artifact::KARM_FORMAT_VERSION
        )));
    }
    let (tag, body) = artifact::decode(&v)?;
    let body = body.clone();
    let spec = spec(&tag).ok_or_else(|| {
        PersistError::Format(format!(
            "unknown method tag {tag:?} (known: {})",
            method_names().join(", ")
        ))
    })?;
    Ok((spec.load_body)(&body)?)
}

/// Hyperparameters a method builder draws from. One bundle for all
/// methods so the registry's builders stay `fn` pointers.
#[derive(Debug, Clone)]
pub struct MethodConfig {
    /// Network hyperparameters for the neural baselines (TPM nets, DR).
    pub net: NetConfig,
    /// DRP/rDRP hyperparameters; also supplies `mc_passes`/`std_floor`
    /// to the `*-mc` ablations and the bootstrap ensemble.
    pub rdrp: RdrpConfig,
    /// Ensemble size of `bootstrap-drp`.
    pub bootstrap_models: usize,
}

impl Default for MethodConfig {
    fn default() -> Self {
        MethodConfig {
            net: NetConfig::default(),
            rdrp: RdrpConfig::default(),
            bootstrap_models: 5,
        }
    }
}

/// One registry row: a name, its paper label, and the two constructors.
pub struct MethodSpec {
    /// Registry name == artifact tag.
    pub name: &'static str,
    /// Paper-style label.
    pub label: &'static str,
    /// Builds an unfitted instance from a config bundle.
    pub build: fn(&MethodConfig) -> Result<Box<dyn RoiMethod>, PipelineError>,
    /// Reconstructs an instance from an artifact body.
    pub load_body: fn(&Value) -> Result<Box<dyn RoiMethod>, JsonError>,
}

impl fmt::Debug for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodSpec")
            .field("name", &self.name)
            .field("label", &self.label)
            .finish()
    }
}

/// Every registered method, in the paper's Table I then Table II order.
pub const METHODS: [MethodSpec; 13] = [
    MethodSpec {
        name: "tpm-sl",
        label: "TPM-SL",
        build: |_| Ok(Box::new(TpmMethod::new("tpm-sl", Tpm::slearner()))),
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-xl",
        label: "TPM-XL",
        build: |_| Ok(Box::new(TpmMethod::new("tpm-xl", Tpm::xlearner()))),
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-cf",
        label: "TPM-CF",
        build: |_| Ok(Box::new(TpmMethod::new("tpm-cf", Tpm::causal_forest()))),
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-dragonnet",
        label: "TPM-DragonNet",
        build: |c| {
            Ok(Box::new(TpmMethod::new(
                "tpm-dragonnet",
                Tpm::dragonnet(c.net.clone()),
            )))
        },
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-tarnet",
        label: "TPM-TARNet",
        build: |c| {
            Ok(Box::new(TpmMethod::new(
                "tpm-tarnet",
                Tpm::tarnet(c.net.clone()),
            )))
        },
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-offsetnet",
        label: "TPM-OffsetNet",
        build: |c| {
            Ok(Box::new(TpmMethod::new(
                "tpm-offsetnet",
                Tpm::offsetnet(c.net.clone()),
            )))
        },
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "tpm-snet",
        label: "TPM-SNet",
        build: |c| {
            Ok(Box::new(TpmMethod::new(
                "tpm-snet",
                Tpm::snet(c.net.clone()),
            )))
        },
        load_body: tpm_load_body,
    },
    MethodSpec {
        name: "dr",
        label: "DR",
        build: |c| Ok(Box::new(DrMethod::unfitted(false, c))),
        load_body: |b| DrMethod::from_body(false, b),
    },
    MethodSpec {
        name: "dr-mc",
        label: "DR w/ MC",
        build: |c| Ok(Box::new(DrMethod::unfitted(true, c))),
        load_body: |b| DrMethod::from_body(true, b),
    },
    MethodSpec {
        name: "drp",
        label: "DRP",
        build: |c| Ok(Box::new(DrpMethod::unfitted(false, c))),
        load_body: |b| DrpMethod::from_body(false, b),
    },
    MethodSpec {
        name: "drp-mc",
        label: "DRP w/ MC",
        build: |c| Ok(Box::new(DrpMethod::unfitted(true, c))),
        load_body: |b| DrpMethod::from_body(true, b),
    },
    MethodSpec {
        name: "rdrp",
        label: "rDRP",
        build: |c| Ok(Box::new(RdrpMethod::unfitted(c)?)),
        load_body: |b| Ok(Box::new(RdrpMethod::new(Rdrp::from_json(b)?))),
    },
    MethodSpec {
        name: "bootstrap-drp",
        label: "BootstrapDRP",
        build: |c| Ok(Box::new(BootstrapDrpMethod::unfitted(c))),
        load_body: BootstrapDrpMethod::from_body,
    },
];

/// Shared loader for all seven `tpm-*` rows: the body carries the TPM
/// label, from which [`TpmMethod::from_body`] re-derives the tag.
fn tpm_load_body(body: &Value) -> Result<Box<dyn RoiMethod>, JsonError> {
    Ok(Box::new(TpmMethod::from_body(body)?))
}

/// Resolves a registry name to its spec.
pub fn spec(name: &str) -> Option<&'static MethodSpec> {
    METHODS.iter().find(|s| s.name == name)
}

/// All registry names, in table order.
pub fn method_names() -> Vec<&'static str> {
    METHODS.iter().map(|s| s.name).collect()
}

/// Builds an unfitted method by registry name.
///
/// # Errors
/// [`PipelineError::Config`] for an unknown name (the message lists
/// every valid one) or an invalid configuration.
pub fn build(name: &str, config: &MethodConfig) -> Result<Box<dyn RoiMethod>, PipelineError> {
    match spec(name) {
        Some(s) => (s.build)(config),
        None => Err(PipelineError::Config(format!(
            "unknown method {name:?}; valid methods: {}",
            method_names().join(", ")
        ))),
    }
}

// ---------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------

/// The seven `tpm-*` methods: a [`Tpm`] plus its registry tag.
pub struct TpmMethod {
    name: &'static str,
    model: Tpm,
}

impl fmt::Debug for TpmMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TpmMethod")
            .field("name", &self.name)
            .field("fitted", &self.model.n_features().is_some())
            .finish()
    }
}

impl TpmMethod {
    fn new(name: &'static str, model: Tpm) -> TpmMethod {
        TpmMethod { name, model }
    }

    /// Reconstructs a TPM method from an artifact body, re-deriving the
    /// static tag from the model's label.
    fn from_body(body: &Value) -> Result<TpmMethod, JsonError> {
        let model = Tpm::from_json(body)?;
        let name = tpm_tag(model.label())
            .ok_or_else(|| JsonError::msg(format!("unknown TPM label {:?}", model.label())))?;
        Ok(TpmMethod { name, model })
    }
}

/// Maps a [`Tpm`] label (`"SL"`, `"DragonNet"`, …) to its registry tag.
fn tpm_tag(label: &str) -> Option<&'static str> {
    match label {
        "SL" => Some("tpm-sl"),
        "XL" => Some("tpm-xl"),
        "CF" => Some("tpm-cf"),
        "DragonNet" => Some("tpm-dragonnet"),
        "TARNet" => Some("tpm-tarnet"),
        "OffsetNet" => Some("tpm-offsetnet"),
        "SNet" => Some("tpm-snet"),
        _ => None,
    }
}

impl RoiMethod for TpmMethod {
    fn method_name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> String {
        self.model.name()
    }

    fn fit(
        &mut self,
        train: &RctDataset,
        _calibration: &RctDataset,
        rng: &mut Prng,
        _obs: &Obs,
    ) -> Result<(), FitError> {
        self.model.fit(train, rng)
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn rowwise(&self) -> bool {
        true
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        self.model.predict_roi(x)
    }

    fn scores_block(&self, x: &Matrix, _obs: &Obs) -> Vec<f64> {
        self.model.predict_roi_block(x)
    }

    fn body_to_json(&self) -> Value {
        self.model.to_json()
    }
}

/// `dr` and `dr-mc`: Direct Rank, optionally combined with its MC std.
#[derive(Debug)]
pub struct DrMethod {
    mc: bool,
    mc_passes: usize,
    model: DirectRank,
}

impl DrMethod {
    fn unfitted(mc: bool, config: &MethodConfig) -> DrMethod {
        DrMethod {
            mc,
            mc_passes: config.rdrp.mc_passes,
            model: DirectRank::new(config.net.clone()),
        }
    }

    fn from_body(mc: bool, body: &Value) -> Result<Box<dyn RoiMethod>, JsonError> {
        if mc {
            let (model, mc_passes, _floor) = artifact::mc_body_parts(body)?;
            Ok(Box::new(DrMethod {
                mc: true,
                mc_passes,
                model: DirectRank::from_json(model)?,
            }))
        } else {
            Ok(Box::new(DrMethod {
                mc: false,
                mc_passes: 0,
                model: DirectRank::from_json(body)?,
            }))
        }
    }
}

impl RoiMethod for DrMethod {
    fn method_name(&self) -> &'static str {
        if self.mc {
            "dr-mc"
        } else {
            "dr"
        }
    }

    fn label(&self) -> String {
        if self.mc {
            "DR w/ MC".to_string()
        } else {
            "DR".to_string()
        }
    }

    fn fit(
        &mut self,
        train: &RctDataset,
        _calibration: &RctDataset,
        rng: &mut Prng,
        _obs: &Obs,
    ) -> Result<(), FitError> {
        self.model.fit(train, rng)
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn rowwise(&self) -> bool {
        !self.mc
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        if self.mc {
            // The Table II ablation: point estimate plus MC std as the
            // optimism term, on a fixed seed for determinism.
            let mut rng = Prng::seed_from_u64(SCORING_SEED);
            let stats = self.model.mc_scores(x, self.mc_passes, &mut rng);
            stats
                .mean
                .iter()
                .zip(&stats.std)
                .map(|(m, s)| m + s)
                .collect()
        } else {
            self.model.predict_roi(x)
        }
    }

    fn scores_block(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        if self.mc {
            // The MC sweep consumes RNG across the batch; keep it on the
            // scalar path so dr-mc stays bitwise-stable.
            self.scores_fresh(x, obs)
        } else {
            self.model.predict_roi_block(x)
        }
    }

    fn body_to_json(&self) -> Value {
        if self.mc {
            artifact::mc_body(self.model.to_json(), self.mc_passes, 0.0)
        } else {
            self.model.to_json()
        }
    }
}

/// `drp` and `drp-mc`: Direct ROI Prediction, optionally with MC std.
#[derive(Debug)]
pub struct DrpMethod {
    mc: bool,
    mc_passes: usize,
    std_floor: f64,
    model: DrpModel,
}

impl DrpMethod {
    fn unfitted(mc: bool, config: &MethodConfig) -> DrpMethod {
        DrpMethod {
            mc,
            mc_passes: config.rdrp.mc_passes,
            std_floor: config.rdrp.std_floor,
            model: DrpModel::new(config.rdrp.drp.clone()),
        }
    }

    fn from_body(mc: bool, body: &Value) -> Result<Box<dyn RoiMethod>, JsonError> {
        if mc {
            let (model, mc_passes, std_floor) = artifact::mc_body_parts(body)?;
            Ok(Box::new(DrpMethod {
                mc: true,
                mc_passes,
                std_floor,
                model: DrpModel::from_json(model)?,
            }))
        } else {
            Ok(Box::new(DrpMethod {
                mc: false,
                mc_passes: 0,
                std_floor: 0.0,
                model: DrpModel::from_json(body)?,
            }))
        }
    }
}

impl RoiMethod for DrpMethod {
    fn method_name(&self) -> &'static str {
        if self.mc {
            "drp-mc"
        } else {
            "drp"
        }
    }

    fn label(&self) -> String {
        if self.mc {
            "DRP w/ MC".to_string()
        } else {
            "DRP".to_string()
        }
    }

    fn fit(
        &mut self,
        train: &RctDataset,
        _calibration: &RctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError> {
        self.model.fit(train, rng, obs)
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn rowwise(&self) -> bool {
        !self.mc
    }

    fn scores(&self, x: &Matrix, ws: &mut Workspace, obs: &Obs) -> Vec<f64> {
        if self.mc {
            let mut rng = Prng::seed_from_u64(SCORING_SEED);
            let stats = self
                .model
                .mc_roi(x, self.mc_passes, self.std_floor, &mut rng, obs);
            stats
                .mean
                .iter()
                .zip(&stats.std)
                .map(|(m, s)| m + s)
                .collect()
        } else {
            self.model.predict_roi_with(x, ws, obs)
        }
    }

    fn scores_block(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        if self.mc {
            // The MC sweep consumes RNG across the batch; keep it on the
            // scalar path so drp-mc stays bitwise-stable.
            self.scores_fresh(x, obs)
        } else {
            self.model.predict_roi_block(x, obs)
        }
    }

    fn body_to_json(&self) -> Value {
        if self.mc {
            artifact::mc_body(self.model.to_json(), self.mc_passes, self.std_floor)
        } else {
            self.model.to_json()
        }
    }
}

/// `rdrp`: the calibrated robust DRP model (Algorithm 4).
#[derive(Debug)]
pub struct RdrpMethod {
    model: Rdrp,
}

impl RdrpMethod {
    /// Wraps an existing (possibly fitted) rDRP model.
    pub fn new(model: Rdrp) -> RdrpMethod {
        RdrpMethod { model }
    }

    fn unfitted(config: &MethodConfig) -> Result<RdrpMethod, PipelineError> {
        Ok(RdrpMethod {
            model: Rdrp::new(config.rdrp.clone())?,
        })
    }
}

impl RoiMethod for RdrpMethod {
    fn method_name(&self) -> &'static str {
        "rdrp"
    }

    fn label(&self) -> String {
        "rDRP".to_string()
    }

    fn fit(
        &mut self,
        train: &RctDataset,
        calibration: &RctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError> {
        self.model
            .fit_with_calibration(train, calibration, rng, obs)
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn rowwise(&self) -> bool {
        self.model.selected_form() == Some(crate::calibrate::CalibrationForm::Identity)
    }

    fn scores(&self, x: &Matrix, ws: &mut Workspace, obs: &Obs) -> Vec<f64> {
        let mut rng = Prng::seed_from_u64(SCORING_SEED);
        self.model.predict_scores_with(x, &mut rng, ws, obs)
    }

    fn scores_block(&self, x: &Matrix, obs: &Obs) -> Vec<f64> {
        if self.rowwise() {
            // Identity form: calibrated scores ARE the DRP point
            // estimates, which have a block path.
            self.model.drp().predict_roi_block(x, obs)
        } else {
            // Non-Identity forms need the MC-dropout sweep; keep it on
            // the scalar path so scoring stays bitwise-stable.
            self.scores_fresh(x, obs)
        }
    }

    fn intervals(&self, x: &Matrix) -> Option<Vec<Interval>> {
        let mut rng = Prng::seed_from_u64(SCORING_SEED);
        Some(self.model.predict_intervals(x, &mut rng))
    }

    fn as_rdrp(&self) -> Option<&Rdrp> {
        Some(&self.model)
    }

    fn with_qhat(&self, qhat: f64, n_calibration: usize) -> Option<Box<dyn RoiMethod>> {
        let swapped = self.model.with_qhat(qhat, n_calibration)?;
        Some(Box::new(RdrpMethod::new(swapped)))
    }

    fn body_to_json(&self) -> Value {
        self.model.to_json()
    }
}

/// `bootstrap-drp`: the ensemble-uncertainty baseline rDRP avoids.
#[derive(Debug)]
pub struct BootstrapDrpMethod {
    std_floor: f64,
    model: BootstrapDrp,
}

impl BootstrapDrpMethod {
    fn unfitted(config: &MethodConfig) -> BootstrapDrpMethod {
        BootstrapDrpMethod {
            std_floor: config.rdrp.std_floor,
            model: BootstrapDrp::new(config.rdrp.drp.clone(), config.bootstrap_models.max(1)),
        }
    }

    fn from_body(body: &Value) -> Result<Box<dyn RoiMethod>, JsonError> {
        Ok(Box::new(BootstrapDrpMethod {
            std_floor: f64::from_json(body.fetch("std_floor"))?,
            model: BootstrapDrp::from_json(body.fetch("model"))?,
        }))
    }
}

impl RoiMethod for BootstrapDrpMethod {
    fn method_name(&self) -> &'static str {
        "bootstrap-drp"
    }

    fn label(&self) -> String {
        "BootstrapDRP".to_string()
    }

    fn fit(
        &mut self,
        train: &RctDataset,
        _calibration: &RctDataset,
        rng: &mut Prng,
        _obs: &Obs,
    ) -> Result<(), FitError> {
        self.model.fit(train, rng)
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn rowwise(&self) -> bool {
        // Ensemble mean/std are per-row functions of deterministic
        // member predictions — no cross-row randomness.
        true
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        let stats = self.model.ensemble_roi(x, self.std_floor);
        stats
            .mean
            .iter()
            .zip(&stats.std)
            .map(|(m, s)| m + s)
            .collect()
    }

    fn scores_block(&self, x: &Matrix, _obs: &Obs) -> Vec<f64> {
        let stats = self.model.ensemble_roi_block(x, self.std_floor);
        stats
            .mean
            .iter()
            .zip(&stats.std)
            .map(|(m, s)| m + s)
            .collect()
    }

    fn body_to_json(&self) -> Value {
        Value::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("std_floor".to_string(), self.std_floor.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::{Population, RctGenerator};
    use datasets::CriteoLike;

    #[test]
    fn registry_names_are_unique_and_resolve() {
        let names = method_names();
        assert_eq!(names.len(), 13);
        for name in &names {
            let s = spec(name).unwrap();
            assert_eq!(&s.name, name);
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
    }

    #[test]
    fn unknown_method_error_lists_valid_names() {
        let err = build("gradient-boosted-hopes", &MethodConfig::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gradient-boosted-hopes"), "{msg}");
        for name in method_names() {
            assert!(msg.contains(name), "missing {name} in {msg}");
        }
    }

    #[test]
    fn every_method_builds_unfitted() {
        for s in &METHODS {
            let m = build(s.name, &MethodConfig::default()).unwrap();
            assert_eq!(m.method_name(), s.name);
            assert_eq!(m.label(), s.label);
            assert!(!m.is_fitted(), "{} claims fitted before fit", s.name);
            assert!(m.n_features().is_none());
        }
    }

    #[test]
    fn invalid_rdrp_config_is_a_typed_build_error() {
        let mut config = MethodConfig::default();
        config.rdrp.alpha = 7.5;
        let err = build("rdrp", &config).unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err:?}");
    }

    #[test]
    fn fit_and_score_through_the_trait_object() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(0);
        let train = gen.sample(1500, Population::Base, &mut rng);
        let cal = gen.sample(600, Population::Base, &mut rng);
        let test = gen.sample(100, Population::Base, &mut rng);
        let mut config = MethodConfig::default();
        config.rdrp.drp.epochs = 3;
        config.rdrp.mc_passes = 5;
        let mut m = build("drp", &config).unwrap();
        m.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
        assert!(m.is_fitted());
        assert_eq!(m.n_features(), Some(test.x.cols()));
        let scores = m.scores_fresh(&test.x, &Obs::disabled());
        assert_eq!(scores.len(), 100);
        // Determinism: a second call is bitwise identical.
        assert_eq!(scores, m.scores_fresh(&test.x, &Obs::disabled()));
    }
}
