//! The K-arm method layer: every ROI ranker behind a multi-treatment
//! fit/score/persist surface.
//!
//! Two routes produce a [`KArmRoiMethod`]:
//!
//! * **Adapted** — [`PerArm`] lifts any binary [`RoiMethod`] from
//!   [`crate::methods::METHODS`] to K arms by fitting one independent
//!   copy per treatment arm on the arm-vs-control slice
//!   ([`MultiRctDataset::to_binary`]). At `K = 2` this *is* the binary
//!   pipeline: the single inner method sees exactly the dataset the
//!   binary path would, consumes the shared RNG identically, and its
//!   artifact is saved in the v1 envelope — scores and artifact bytes
//!   are bitwise-identical to fitting the binary method directly (the
//!   differential suite pins this down).
//! * **Native** — [`KARM_METHODS`] registers methods that model all
//!   arms jointly ([`uplift::KTpm`] over the K-arm meta-learners and
//!   the shared-trunk multi-head network). These always persist in the
//!   v2 envelope carrying `n_arms`.
//!
//! Score matrices follow the crate-wide layout: `(K − 1) × n`, row
//! `k` holding arm `k + 1`'s score for every individual (control is
//! never a row) — the shape [`crate::mckp::mckp_allocate`] consumes.

use crate::artifact;
use crate::error::PipelineError;
use crate::methods::{self, MethodConfig, RoiMethod};
use crate::persist::PersistError;
use conformal::Interval;
use datasets::multi::MultiRctDataset;
use linalg::random::Prng;
use linalg::vector::argsort_desc;
use linalg::Matrix;
use obs::Obs;
use std::fmt;
use std::path::Path;
use tinyjson::{FromJson, JsonError, Value};
use uplift::{FitError, KTpm};

/// One K-arm ROI-ranking method behind a uniform fit/score/persist
/// surface — the multi-treatment analogue of [`RoiMethod`].
///
/// Object-safe on purpose: the bandit loop holds
/// `Box<dyn KArmRoiMethod>` per policy. Scoring is deterministic under
/// the same contract as the binary trait (MC sweeps re-seed from
/// [`crate::SCORING_SEED`] per call).
pub trait KArmRoiMethod: Send + Sync + fmt::Debug {
    /// Registry name, which is also the artifact tag.
    fn method_name(&self) -> &'static str;

    /// Human-readable label (e.g. `"TPM-XL ×3 arms"`, `"KTPM-SL"`).
    fn label(&self) -> String;

    /// Total arm count including control (`2` = binary).
    fn n_arms(&self) -> u8;

    /// Fits the method on K-arm RCT data. Methods without a
    /// calibration stage ignore `calibration`.
    ///
    /// # Errors
    /// [`FitError::InvalidData`] when either dataset fails validation
    /// or disagrees with this method's arm count; component errors
    /// propagate.
    fn fit(
        &mut self,
        train: &MultiRctDataset,
        calibration: &MultiRctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError>;

    /// Whether the method has been fitted (a loaded artifact counts).
    fn is_fitted(&self) -> bool;

    /// Feature dimension the fitted method consumes, `None` before
    /// fitting.
    fn n_features(&self) -> Option<usize>;

    /// The `(K − 1) × n` score matrix for the rows of `x`:
    /// `matrix[k][i]` ranks assigning individual `i` to arm `k + 1`.
    /// Deterministic: equal inputs give bitwise-equal matrices.
    ///
    /// # Panics
    /// Panics when unfitted (callers gate on
    /// [`KArmRoiMethod::is_fitted`]).
    fn score_matrix(&self, x: &Matrix, obs: &Obs) -> Vec<Vec<f64>>;

    /// [`KArmRoiMethod::score_matrix`] through the columnar f32 kernel
    /// path where the inner models have one; defaults to the scalar
    /// path. The DESIGN.md §11 tolerance contract applies per row.
    ///
    /// # Panics
    /// Panics when unfitted.
    fn score_matrix_block(&self, x: &Matrix, obs: &Obs) -> Vec<Vec<f64>> {
        self.score_matrix(x, obs)
    }

    /// Per-arm conformal intervals (`(K − 1) × n`), when every arm's
    /// inner method calibrates them; `None` otherwise.
    fn interval_matrix(&self, _x: &Matrix) -> Option<Vec<Vec<Interval>>> {
        None
    }

    /// The artifact body [`load_karm_method`] reconstructs this method
    /// from. For [`PerArm`] this is `{"arms": [body, ...]}`; natives
    /// define their own shape.
    fn body_to_json(&self) -> Value;

    /// When this method is the `K = 2` adapter over a single binary
    /// method: that method's v1 artifact body, letting
    /// [`save_karm_method`] emit bytes identical to
    /// [`crate::methods::save_method`]. `None` otherwise.
    fn binary_body(&self) -> Option<Value> {
        None
    }
}

// ---------------------------------------------------------------------
// PerArm: any binary method, lifted
// ---------------------------------------------------------------------

/// Lifts a binary [`RoiMethod`] to K arms: one independent copy per
/// treatment arm, each fitted on the arm-vs-control binary slice.
///
/// Fitting walks arms in order `1..K` on the *shared* RNG, so the
/// `K = 2` case consumes randomness exactly like the binary pipeline
/// (one arm, one fit) and reproduces it bitwise.
#[derive(Debug)]
pub struct PerArm {
    name: &'static str,
    arms: Vec<Box<dyn RoiMethod>>,
}

impl PerArm {
    /// Wraps pre-built per-arm instances. `arms[k]` will serve
    /// treatment arm `k + 1`. Callers normally go through
    /// [`build_karm`] instead.
    ///
    /// # Errors
    /// [`PipelineError::Config`] when `arms` is empty or longer than
    /// 254 (arm indices are `u8` with control at 0).
    pub fn new(name: &'static str, arms: Vec<Box<dyn RoiMethod>>) -> Result<PerArm, PipelineError> {
        if arms.is_empty() {
            return Err(PipelineError::Config(
                "PerArm needs at least one treatment arm".to_string(),
            ));
        }
        if arms.len() > usize::from(u8::MAX) - 1 {
            return Err(PipelineError::Config(format!(
                "PerArm supports at most 254 treatment arms, got {}",
                arms.len()
            )));
        }
        Ok(PerArm { name, arms })
    }

    /// The per-arm inner methods, in arm order (`[0]` serves arm 1).
    pub fn arms(&self) -> &[Box<dyn RoiMethod>] {
        &self.arms
    }

    /// Cross-arm **comparable** scores for the multiple-choice allocator
    /// (`(K − 1) × n`), when every arm is a calibrated rDRP; `None`
    /// otherwise, like [`KArmRoiMethod::interval_matrix`].
    ///
    /// Each arm's calibrated rDRP score only ranks *within* that arm:
    /// arms may select Eq. 5 forms of very different magnitudes (e.g.
    /// `roi + r̂q̂` vs raw `roi`), so raw scores would let one arm's scale
    /// monopolize the budget. This quantile-matches: within each arm,
    /// individuals are ordered by the calibrated score but *valued* by
    /// the arm's own sorted DRP point-ROI estimates, putting every arm on
    /// the common (0, 1) ROI scale while preserving rDRP's ranking.
    ///
    /// # Panics
    /// Panics when unfitted.
    pub fn comparable_score_matrix(&self, x: &Matrix, obs: &Obs) -> Option<Vec<Vec<f64>>> {
        self.arms
            .iter()
            .map(|arm| {
                let drp = arm.as_rdrp()?.drp();
                let calibrated = arm.scores_fresh(x, obs);
                let mut roi_values = drp.predict_roi(x, obs);
                roi_values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
                let mut out = vec![0.0; calibrated.len()];
                for (&i, &value) in argsort_desc(&calibrated).iter().zip(&roi_values) {
                    out[i] = value;
                }
                Some(out)
            })
            .collect()
    }

    fn check_dataset(&self, role: &str, data: &MultiRctDataset) -> Result<(), FitError> {
        if let Some(problem) = data.validate() {
            return Err(FitError::InvalidData(format!(
                "PerArm::fit: {role}: {problem}"
            )));
        }
        if data.n_arms() != self.n_arms() {
            return Err(FitError::InvalidData(format!(
                "PerArm::fit: {role} has {} arms, method expects {}",
                data.n_arms(),
                self.n_arms()
            )));
        }
        Ok(())
    }
}

impl KArmRoiMethod for PerArm {
    fn method_name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> String {
        match self.arms.first() {
            Some(first) if self.arms.len() == 1 => first.label(),
            Some(first) => format!("{} ×{} arms", first.label(), self.arms.len()),
            None => self.name.to_string(),
        }
    }

    fn n_arms(&self) -> u8 {
        self.arms.len() as u8 + 1
    }

    fn fit(
        &mut self,
        train: &MultiRctDataset,
        calibration: &MultiRctDataset,
        rng: &mut Prng,
        obs: &Obs,
    ) -> Result<(), FitError> {
        self.check_dataset("train", train)?;
        self.check_dataset("calibration", calibration)?;
        for (idx, arm) in self.arms.iter_mut().enumerate() {
            let k = idx as u8 + 1;
            let train_k = train.to_binary(k);
            let cal_k = calibration.to_binary(k);
            arm.fit(&train_k, &cal_k, rng, obs)?;
        }
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.arms.iter().all(|a| a.is_fitted())
    }

    fn n_features(&self) -> Option<usize> {
        self.arms.first().and_then(|a| a.n_features())
    }

    fn score_matrix(&self, x: &Matrix, obs: &Obs) -> Vec<Vec<f64>> {
        self.arms.iter().map(|a| a.scores_fresh(x, obs)).collect()
    }

    fn score_matrix_block(&self, x: &Matrix, obs: &Obs) -> Vec<Vec<f64>> {
        self.arms.iter().map(|a| a.scores_block(x, obs)).collect()
    }

    fn interval_matrix(&self, x: &Matrix) -> Option<Vec<Vec<Interval>>> {
        self.arms.iter().map(|a| a.intervals(x)).collect()
    }

    fn body_to_json(&self) -> Value {
        Value::Obj(vec![(
            "arms".to_string(),
            Value::Arr(self.arms.iter().map(|a| a.body_to_json()).collect()),
        )])
    }

    fn binary_body(&self) -> Option<Value> {
        match self.arms.as_slice() {
            [only] => Some(only.body_to_json()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Native K-arm methods
// ---------------------------------------------------------------------

/// The `karm-*` registry rows: [`KTpm`] behind the method trait.
pub struct KArmTpmMethod {
    name: &'static str,
    model: KTpm,
}

impl fmt::Debug for KArmTpmMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KArmTpmMethod")
            .field("name", &self.name)
            .field("n_arms", &self.model.n_arms())
            .field("fitted", &self.model.is_fitted())
            .finish()
    }
}

impl KArmTpmMethod {
    fn new(name: &'static str, model: KTpm) -> KArmTpmMethod {
        KArmTpmMethod { name, model }
    }

    /// Reconstructs from an artifact body, re-deriving the static tag
    /// from the model's label and checking the envelope's arm count.
    fn from_body(body: &Value, n_arms: u8) -> Result<Box<dyn KArmRoiMethod>, JsonError> {
        let model = KTpm::from_tagged_json(body)?;
        let name = karm_tpm_tag(model.label())
            .ok_or_else(|| JsonError::msg(format!("unknown KTPM label {:?}", model.label())))?;
        if model.n_arms() != n_arms {
            return Err(JsonError::msg(format!(
                "artifact envelope declares {n_arms} arms but the body carries {}",
                model.n_arms()
            )));
        }
        Ok(Box::new(KArmTpmMethod { name, model }))
    }
}

/// Maps a [`KTpm`] label (`"SL"`, `"Net"`, …) to its registry tag.
fn karm_tpm_tag(label: &str) -> Option<&'static str> {
    match label {
        "SL" => Some("karm-tpm-sl"),
        "TL" => Some("karm-tpm-tl"),
        "XL" => Some("karm-tpm-xl"),
        "Net" => Some("karm-net"),
        _ => None,
    }
}

impl KArmRoiMethod for KArmTpmMethod {
    fn method_name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> String {
        format!("KTPM-{}", self.model.label())
    }

    fn n_arms(&self) -> u8 {
        self.model.n_arms()
    }

    fn fit(
        &mut self,
        train: &MultiRctDataset,
        _calibration: &MultiRctDataset,
        rng: &mut Prng,
        _obs: &Obs,
    ) -> Result<(), FitError> {
        self.model.fit(train, rng)
    }

    fn is_fitted(&self) -> bool {
        self.model.is_fitted()
    }

    fn n_features(&self) -> Option<usize> {
        self.model.n_features()
    }

    fn score_matrix(&self, x: &Matrix, _obs: &Obs) -> Vec<Vec<f64>> {
        self.model.predict_roi_matrix(x)
    }

    fn score_matrix_block(&self, x: &Matrix, _obs: &Obs) -> Vec<Vec<f64>> {
        self.model.predict_roi_matrix_block(x)
    }

    fn body_to_json(&self) -> Value {
        // Every registry constructor uses serializable components, so
        // this is always `Some`; `Null` would only surface for a
        // hand-built KTpm outside the registry.
        self.model.to_tagged_json().unwrap_or(Value::Null)
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Constructor signature of a native K-arm method: arm count + config.
pub type KArmBuildFn = fn(u8, &MethodConfig) -> Result<Box<dyn KArmRoiMethod>, PipelineError>;

/// Loader signature: artifact body + the envelope's declared arm count.
pub type KArmLoadFn = fn(&Value, u8) -> Result<Box<dyn KArmRoiMethod>, JsonError>;

/// One native registry row: a name, its label, and the constructors —
/// the K-arm analogue of [`crate::methods::MethodSpec`], with the arm
/// count threaded through both.
pub struct KArmMethodSpec {
    /// Registry name == artifact tag.
    pub name: &'static str,
    /// Human-readable label.
    pub label: &'static str,
    /// Builds an unfitted instance for a given arm count.
    pub build: KArmBuildFn,
    /// Reconstructs an instance from an artifact body and the
    /// envelope's declared arm count.
    pub load_body: KArmLoadFn,
}

impl fmt::Debug for KArmMethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KArmMethodSpec")
            .field("name", &self.name)
            .field("label", &self.label)
            .finish()
    }
}

/// Every native K-arm method. Binary registry names work too — see
/// [`build_karm`], which falls back to a [`PerArm`] adapter.
pub const KARM_METHODS: [KArmMethodSpec; 4] = [
    KArmMethodSpec {
        name: "karm-tpm-sl",
        label: "KTPM-SL",
        build: |k, _| {
            Ok(Box::new(KArmTpmMethod::new(
                "karm-tpm-sl",
                KTpm::slearner(k),
            )))
        },
        load_body: KArmTpmMethod::from_body,
    },
    KArmMethodSpec {
        name: "karm-tpm-tl",
        label: "KTPM-TL",
        build: |k, _| {
            Ok(Box::new(KArmTpmMethod::new(
                "karm-tpm-tl",
                KTpm::tlearner(k),
            )))
        },
        load_body: KArmTpmMethod::from_body,
    },
    KArmMethodSpec {
        name: "karm-tpm-xl",
        label: "KTPM-XL",
        build: |k, _| {
            Ok(Box::new(KArmTpmMethod::new(
                "karm-tpm-xl",
                KTpm::xlearner(k),
            )))
        },
        load_body: KArmTpmMethod::from_body,
    },
    KArmMethodSpec {
        name: "karm-net",
        label: "KTPM-Net",
        build: |k, c| {
            Ok(Box::new(KArmTpmMethod::new(
                "karm-net",
                KTpm::net(k, c.net.rep_dim, c.net.head_hidden, c.net.epochs),
            )))
        },
        load_body: KArmTpmMethod::from_body,
    },
];

/// Resolves a native registry name to its spec.
pub fn karm_spec(name: &str) -> Option<&'static KArmMethodSpec> {
    KARM_METHODS.iter().find(|s| s.name == name)
}

/// Every name [`build_karm`] accepts: the native K-arm methods first,
/// then every binary method (served through [`PerArm`]).
pub fn karm_method_names() -> Vec<&'static str> {
    KARM_METHODS
        .iter()
        .map(|s| s.name)
        .chain(methods::method_names())
        .collect()
}

/// Builds an unfitted K-arm method by name: a native `karm-*` method,
/// or any binary registry name lifted through [`PerArm`] (one inner
/// instance per treatment arm).
///
/// # Errors
/// [`PipelineError::Config`] for `n_arms < 2`, an unknown name (the
/// message lists every valid one), or an invalid configuration.
pub fn build_karm(
    name: &str,
    n_arms: u8,
    config: &MethodConfig,
) -> Result<Box<dyn KArmRoiMethod>, PipelineError> {
    if n_arms < 2 {
        return Err(PipelineError::Config(format!(
            "n_arms must be at least 2 (control + one treatment), got {n_arms}"
        )));
    }
    if let Some(s) = karm_spec(name) {
        return (s.build)(n_arms, config);
    }
    match methods::spec(name) {
        Some(s) => {
            let arms = (1..n_arms)
                .map(|_| (s.build)(config))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Box::new(PerArm::new(s.name, arms)?))
        }
        None => Err(PipelineError::Config(format!(
            "unknown method {name:?}; valid methods: {}",
            karm_method_names().join(", ")
        ))),
    }
}

// ---------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------

/// Saves a K-arm method as a versioned artifact at `path`, through the
/// crash-safe atomic-write path. A `K = 2` [`PerArm`] is written in the
/// **v1** (binary) envelope — byte-identical to
/// [`crate::methods::save_method`] on the inner method — so binary
/// tooling keeps reading it; everything else gets the v2 envelope with
/// its `n_arms` field.
///
/// # Errors
/// [`PersistError::Io`] when the file cannot be written.
pub fn save_karm_method(
    method: &dyn KArmRoiMethod,
    path: impl AsRef<Path>,
) -> Result<(), PersistError> {
    let rendered = match method.binary_body() {
        Some(body) => artifact::render(method.method_name(), body),
        None => {
            artifact::render_with_arms(method.method_name(), method.n_arms(), method.body_to_json())
        }
    };
    crate::persist::atomic_write_artifact(path, &rendered)
}

/// Loads any K-arm artifact by its embedded method tag: native tags
/// dispatch through [`KARM_METHODS`]; binary tags reconstruct a
/// [`PerArm`] — from the single v1 body (one arm), or from a v2
/// envelope's `{"arms": [...]}` array.
///
/// # Errors
/// [`PersistError::Io`]/[`PersistError::Serde`] for unreadable or
/// unparseable files, [`PersistError::Format`] for a non-artifact, an
/// unknown tag, or an arm-count mismatch between envelope and body,
/// [`PersistError::Checksum`] for a tampered body.
pub fn load_karm_method(path: impl AsRef<Path>) -> Result<Box<dyn KArmRoiMethod>, PersistError> {
    let v = tinyjson::from_str(&crate::persist::read_artifact(path)?)?;
    let (tag, body) = artifact::decode(&v)?;
    let n_arms = artifact::artifact_n_arms(&v)?;
    if let Some(kspec) = karm_spec(&tag) {
        return Ok((kspec.load_body)(body, n_arms)?);
    }
    let bspec = methods::spec(&tag).ok_or_else(|| {
        PersistError::Format(format!(
            "unknown method tag {tag:?} (known: {})",
            karm_method_names().join(", ")
        ))
    })?;
    let version = u64::from_json(v.fetch("format_version")).unwrap_or(0);
    let arms = if version == artifact::FORMAT_VERSION {
        // A v1 binary artifact is the K = 2 case: one arm, whose body
        // is the envelope body itself.
        vec![(bspec.load_body)(body)?]
    } else {
        let Value::Arr(bodies) = body.fetch("arms") else {
            return Err(PersistError::Format(format!(
                "v2 artifact {tag:?} has no \"arms\" array"
            )));
        };
        if bodies.len() != usize::from(n_arms) - 1 {
            return Err(PersistError::Format(format!(
                "artifact declares {n_arms} arms but carries {} per-arm bodies",
                bodies.len()
            )));
        }
        bodies
            .iter()
            .map(|b| (bspec.load_body)(b))
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(Box::new(PerArm::new(bspec.name, arms).map_err(|e| {
        PersistError::Format(format!("artifact {tag:?}: {e}"))
    })?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::generator::{Population, RctGenerator};
    use datasets::multi::MultiCouponGenerator;
    use datasets::CriteoLike;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rdrp_karm_{name}_{}.json", std::process::id()))
    }

    fn config() -> MethodConfig {
        let mut c = MethodConfig::default();
        c.net.epochs = 2;
        c.net.hidden = 8;
        c.net.rep_dim = 8;
        c.net.head_hidden = 4;
        c.rdrp.drp.epochs = 2;
        c.rdrp.mc_passes = 3;
        c
    }

    #[test]
    fn k2_per_arm_reproduces_the_binary_method_bitwise() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(41);
        let train = gen.sample(800, Population::Base, &mut rng);
        let cal = gen.sample(300, Population::Base, &mut rng);
        let test = gen.sample(120, Population::Base, &mut rng);

        let mut binary = methods::build("tpm-xl", &config()).unwrap();
        let mut rng_b = Prng::seed_from_u64(7);
        binary
            .fit(&train, &cal, &mut rng_b, &Obs::disabled())
            .unwrap();
        let binary_scores = binary.scores_fresh(&test.x, &Obs::disabled());

        let mut karm = build_karm("tpm-xl", 2, &config()).unwrap();
        let mtrain = MultiRctDataset::from_binary(&train);
        let mcal = MultiRctDataset::from_binary(&cal);
        let mut rng_k = Prng::seed_from_u64(7);
        karm.fit(&mtrain, &mcal, &mut rng_k, &Obs::disabled())
            .unwrap();
        let matrix = karm.score_matrix(&test.x, &Obs::disabled());

        assert_eq!(matrix.len(), 1);
        assert_eq!(
            matrix[0], binary_scores,
            "K=2 scores must be bitwise-identical"
        );
    }

    #[test]
    fn k2_artifact_bytes_match_the_binary_save() {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(42);
        let train = gen.sample(500, Population::Base, &mut rng);
        let cal = gen.sample(200, Population::Base, &mut rng);

        let mut binary = methods::build("tpm-xl", &config()).unwrap();
        let mut rng_b = Prng::seed_from_u64(9);
        binary
            .fit(&train, &cal, &mut rng_b, &Obs::disabled())
            .unwrap();
        let p_binary = tmp("binary");
        methods::save_method(binary.as_ref(), &p_binary).unwrap();

        let mut karm = build_karm("tpm-xl", 2, &config()).unwrap();
        let mut rng_k = Prng::seed_from_u64(9);
        karm.fit(
            &MultiRctDataset::from_binary(&train),
            &MultiRctDataset::from_binary(&cal),
            &mut rng_k,
            &Obs::disabled(),
        )
        .unwrap();
        let p_karm = tmp("k2");
        save_karm_method(karm.as_ref(), &p_karm).unwrap();

        let bytes_binary = std::fs::read_to_string(&p_binary).unwrap();
        let bytes_karm = std::fs::read_to_string(&p_karm).unwrap();
        assert_eq!(
            bytes_binary, bytes_karm,
            "K=2 artifact must be byte-identical"
        );

        // And the binary loader still reads the K=2 artifact.
        let reloaded = methods::load_method(&p_karm).unwrap();
        assert_eq!(reloaded.method_name(), "tpm-xl");
        let _ = std::fs::remove_file(&p_binary);
        let _ = std::fs::remove_file(&p_karm);
    }

    #[test]
    fn k3_per_arm_fits_scores_and_roundtrips_v2() {
        let gen = MultiCouponGenerator::new(2);
        let mut rng = Prng::seed_from_u64(5);
        let train = gen.sample(900, Population::Base, &mut rng);
        let cal = gen.sample(300, Population::Base, &mut rng);
        let test = gen.sample(80, Population::Base, &mut rng);

        let mut m = build_karm("tpm-xl", 3, &config()).unwrap();
        assert_eq!(m.n_arms(), 3);
        assert!(!m.is_fitted());
        m.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
        assert!(m.is_fitted());
        assert_eq!(m.n_features(), Some(test.x.cols()));
        let matrix = m.score_matrix(&test.x, &Obs::disabled());
        assert_eq!(matrix.len(), 2);
        assert!(matrix.iter().all(|row| row.len() == test.len()));

        let p = tmp("k3");
        save_karm_method(m.as_ref(), &p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"format_version\": 2"), "{text}");
        assert!(text.contains("\"n_arms\": 3"), "{text}");

        let loaded = load_karm_method(&p).unwrap();
        assert_eq!(loaded.n_arms(), 3);
        assert_eq!(loaded.method_name(), "tpm-xl");
        assert_eq!(
            loaded.score_matrix(&test.x, &Obs::disabled()),
            matrix,
            "loaded artifact must score bitwise-identically"
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn native_ktpm_fits_scores_and_roundtrips() {
        let gen = MultiCouponGenerator::new(3);
        let mut rng = Prng::seed_from_u64(11);
        let train = gen.sample(900, Population::Base, &mut rng);
        let cal = gen.sample(200, Population::Base, &mut rng);
        let test = gen.sample(60, Population::Base, &mut rng);

        let mut m = build_karm("karm-tpm-xl", 4, &config()).unwrap();
        assert_eq!(m.method_name(), "karm-tpm-xl");
        assert_eq!(m.label(), "KTPM-XL");
        assert_eq!(m.n_arms(), 4);
        m.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
        let matrix = m.score_matrix(&test.x, &Obs::disabled());
        assert_eq!(matrix.len(), 3);

        let p = tmp("native");
        save_karm_method(m.as_ref(), &p).unwrap();
        let loaded = load_karm_method(&p).unwrap();
        assert_eq!(loaded.method_name(), "karm-tpm-xl");
        assert_eq!(loaded.n_arms(), 4);
        assert_eq!(loaded.score_matrix(&test.x, &Obs::disabled()), matrix);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn rdrp_per_arm_exposes_interval_matrix() {
        let gen = MultiCouponGenerator::new(2);
        let mut rng = Prng::seed_from_u64(3);
        let train = gen.sample(900, Population::Base, &mut rng);
        let cal = gen.sample(400, Population::Base, &mut rng);
        let test = gen.sample(40, Population::Base, &mut rng);

        let mut m = build_karm("rdrp", 3, &config()).unwrap();
        m.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
        let intervals = m.interval_matrix(&test.x).unwrap();
        assert_eq!(intervals.len(), 2);
        assert!(intervals.iter().all(|row| row.len() == test.len()));
        // Methods without a conformal stage answer None.
        let mut plain = build_karm("tpm-xl", 3, &config()).unwrap();
        plain.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
        assert!(plain.interval_matrix(&test.x).is_none());
    }

    /// `PerArm` over `"rdrp"`: the paper's §VI Divide and Conquer, one
    /// calibrated rDRP per treatment arm.
    fn rdrp_per_arm(n_arms: u8, config: &MethodConfig) -> PerArm {
        let arms = (1..n_arms)
            .map(|_| methods::build("rdrp", config))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        PerArm::new("rdrp", arms).unwrap()
    }

    #[test]
    fn divide_and_conquer_end_to_end() {
        let gen = MultiCouponGenerator::new(2);
        let mut rng = Prng::seed_from_u64(0);
        let train = gen.sample(6000, Population::Base, &mut rng);
        let calib = gen.sample(2500, Population::Base, &mut rng);
        let test = gen.sample(2000, Population::Base, &mut rng);
        let mut config = MethodConfig::default();
        config.rdrp.drp.epochs = 10;
        config.rdrp.mc_passes = 15;
        let mut dc = rdrp_per_arm(3, &config);
        dc.fit(&train, &calib, &mut rng, &Obs::disabled()).unwrap();
        let scores = dc.score_matrix(&test.x, &Obs::disabled());
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].len(), test.len());
        assert!(scores.iter().flatten().all(|s| s.is_finite()));

        // Allocate against ground-truth costs and check value vs random.
        let costs = test.true_tau_c.clone().unwrap();
        let values = test.true_tau_r.clone().unwrap();
        let budget = 0.2 * costs[0].iter().sum::<f64>();
        let captured = |scores: &[Vec<f64>]| {
            let alloc = crate::mckp::mckp_allocate(scores, &costs, budget).unwrap();
            assert!(alloc.spent <= budget);
            crate::mckp::multi_allocation_value(&alloc, &values)
        };
        let rand_scores: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..test.len()).map(|_| rng.uniform()).collect())
            .collect();
        let (dc_value, rand_value) = (captured(&scores), captured(&rand_scores));
        assert!(
            dc_value > rand_value * 0.9,
            "D&C {dc_value} vs random {rand_value}"
        );
    }

    #[test]
    fn comparable_scores_live_on_common_roi_scale() {
        let gen = MultiCouponGenerator::new(3);
        let mut rng = Prng::seed_from_u64(9);
        let train = gen.sample(5000, Population::Base, &mut rng);
        let calib = gen.sample(2000, Population::Base, &mut rng);
        let test = gen.sample(1000, Population::Base, &mut rng);
        let mut config = MethodConfig::default();
        config.rdrp.drp.epochs = 8;
        config.rdrp.mc_passes = 10;
        let mut dc = rdrp_per_arm(4, &config);
        dc.fit(&train, &calib, &mut rng, &Obs::disabled()).unwrap();
        let comparable = dc
            .comparable_score_matrix(&test.x, &Obs::disabled())
            .unwrap();
        // All arms' scores live in (0, 1) — the common ROI scale.
        for (k, arm_scores) in comparable.iter().enumerate() {
            assert!(
                arm_scores.iter().all(|&s| (0.0..=1.0).contains(&s)),
                "arm {k} escaped (0,1)"
            );
        }
        // Quantile matching preserves each arm's calibrated ranking.
        let raw = dc.score_matrix(&test.x, &Obs::disabled());
        for k in 0..3 {
            let a = argsort_desc(&raw[k]);
            let b = argsort_desc(&comparable[k]);
            assert_eq!(a, b, "arm {k} ranking changed");
        }
        // Arms without a calibrated rDRP have no common scale to offer.
        let plain = PerArm::new("drp", vec![methods::build("drp", &config).unwrap()]).unwrap();
        assert!(plain
            .comparable_score_matrix(&test.x, &Obs::disabled())
            .is_none());
    }

    #[test]
    fn fit_rejects_arm_count_mismatch() {
        let gen = MultiCouponGenerator::new(2);
        let mut rng = Prng::seed_from_u64(1);
        let train = gen.sample(300, Population::Base, &mut rng);
        let cal = gen.sample(100, Population::Base, &mut rng);
        let mut m = build_karm("tpm-xl", 4, &config()).unwrap();
        let err = m.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
        let mut native = build_karm("karm-tpm-xl", 4, &config()).unwrap();
        let err = native
            .fit(&train, &cal, &mut rng, &Obs::disabled())
            .unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
    }

    #[test]
    fn mismatched_arms_is_a_typed_error() {
        // The train set fits the method; the calibration set does not.
        let mut rng = Prng::seed_from_u64(1);
        let train = MultiCouponGenerator::new(3).sample(500, Population::Base, &mut rng);
        let calib = MultiCouponGenerator::new(2).sample(500, Population::Base, &mut rng);
        let mut dc = rdrp_per_arm(4, &config());
        let err = dc
            .fit(&train, &calib, &mut rng, &Obs::disabled())
            .unwrap_err();
        assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
        assert!(err.to_string().contains("calibration has 3 arms"), "{err}");
    }

    #[test]
    fn unknown_name_and_bad_arm_count_are_config_errors() {
        let err = build_karm("spaghetti-forest", 3, &config()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("spaghetti-forest"), "{msg}");
        assert!(msg.contains("karm-tpm-sl"), "{msg}");
        assert!(msg.contains("tpm-sl"), "{msg}");
        let err = build_karm("tpm-sl", 1, &config()).unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err:?}");
        let err = PerArm::new("tpm-sl", Vec::new()).unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err:?}");
    }

    #[test]
    fn registry_names_are_unique_across_both_registries() {
        let names = karm_method_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
        for s in &KARM_METHODS {
            assert!(karm_spec(s.name).is_some());
        }
    }
}
