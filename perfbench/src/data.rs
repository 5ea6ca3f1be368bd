//! Workload inputs, made before any timer starts.
//!
//! The model inputs (training and calibration rows, and the fit's RNG)
//! come from a fixed model seed, so every workload seed fits and serves
//! the same model; the workload seed draws everything the model is
//! applied to (the scored population, request order, feedback rows).
//! Drawn from the workload seed, a 4 000-row training set would make
//! `oracle_share` measure the sample's luck (0.80–0.93 over five seeds)
//! rather than the code.
//!
//! Sizes are fixed, so the work per pass or request does not depend on
//! the seed. The data-dependent branches that change the amount of work
//! are pinned here: a fit whose outcome would change later work (an rDRP
//! form other than `identity`, whose scoring adds a 50-pass MC sweep; a
//! degraded calibration, which skips steps; a training divergence
//! rollback, which adds epochs) is redrawn from the next derived seed.
//! The number of redraws is printed with the run.

use datasets::multi::{MultiCouponGenerator, MultiRctDataset};
use datasets::{
    read_rct_csv, write_rct_csv, CriteoLike, CsvSchema, Population, RctDataset, RctGenerator,
};
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;
use rdrp::{CalibrationForm, KArmRoiMethod, MethodConfig, RoiMethod};
use std::path::{Path, PathBuf};

/// Training rows of every fit.
pub const TRAIN_ROWS: usize = 4000;
/// Calibration rows of every fit.
pub const CAL_ROWS: usize = 2000;
/// Population rows each `pipeline-rdrp` pass scores and allocates.
pub const POP_ROWS: usize = 8000;
/// Population rows each `pipeline-karm` pass scores and allocates: more
/// than `pipeline-rdrp`'s, whose 50-pass interval sweep scales with the
/// population, so that `score_matrix` and `mckp_allocate` carry weight
/// in the pass and `oracle_share` varies less from seed to seed.
pub const KARM_POP_ROWS: usize = 32_000;
/// Share of the population's expected cost every allocation may spend.
pub const BUDGET_FRACTION: f64 = 0.3;
/// Treatment arms plus control of the K-arm workload.
pub const KARM_ARMS: u8 = 4;
/// Fits tried before a run gives up on finding a pinned-work fit.
const MAX_DRAWS: u32 = 12;
/// Seed of the model inputs, shared by every workload seed.
pub const MODEL_SEED: u64 = 20_240_701;

/// The CSV column names `rdrp-cli` uses by default.
pub fn schema() -> CsvSchema {
    CsvSchema {
        treatment: "treatment".into(),
        revenue: "conversion".into(),
        cost: "visit".into(),
    }
}

/// A seed for one input stream, derived from the workload seed
/// (SplitMix64 finalizer), so streams never share random draws.
pub fn derive(seed: u64, stream: u64, draw: u32) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(draw).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TRAIN: u64 = 1;
const CAL: u64 = 2;
const FIT: u64 = 3;
const POP: u64 = 4;
const SHIFTED: u64 = 5;

/// `n` CriteoLike rows from `population`, on the given stream.
pub fn criteo(seed: u64, stream: u64, draw: u32, n: usize, population: Population) -> RctDataset {
    let mut rng = Prng::seed_from_u64(derive(seed, stream, draw));
    CriteoLike::new().sample(n, population, &mut rng)
}

/// The base-population rows a workload scores.
pub fn base_population(seed: u64, n: usize) -> RctDataset {
    criteo(seed, POP, 0, n, Population::Base)
}

/// The shifted-population rows a workload scores after the switch.
pub fn shifted_population(seed: u64, n: usize) -> RctDataset {
    criteo(seed, SHIFTED, 0, n, Population::Shifted)
}

/// A binary fit whose later work is pinned, with the data it was fitted on.
pub struct PinnedFit {
    /// Training rows.
    pub train: RctDataset,
    /// Calibration rows.
    pub cal: RctDataset,
    /// Seed of the fit's RNG; refitting with it reproduces the method.
    pub fit_seed: u64,
    /// Draws rejected before this one.
    pub redraws: u32,
    /// The fitted method.
    pub method: Box<dyn RoiMethod>,
}

/// Why a fit changes the amount of later work, if it does.
fn work_branch(method: &dyn RoiMethod, trace: &obs::InMemoryRecorder) -> Option<String> {
    if trace.counter_value("train.divergence_retries") > 0.0 {
        return Some("training divergence rollback".into());
    }
    let rdrp = method.as_rdrp()?;
    if let Some(mode) = rdrp.degraded() {
        return Some(format!("degraded calibration {mode:?}"));
    }
    match rdrp.selected_form() {
        Some(CalibrationForm::Identity) => None,
        other => Some(format!("selected form {other:?}")),
    }
}

/// Fits binary method `name` at the CLI defaults on the model inputs,
/// redrawing while the fit takes a work-changing branch.
pub fn pinned_fit(name: &str) -> Result<PinnedFit, String> {
    let seed = MODEL_SEED;
    for draw in 0..MAX_DRAWS {
        let train = criteo(seed, TRAIN, draw, TRAIN_ROWS, Population::Base);
        let cal = criteo(seed, CAL, draw, CAL_ROWS, Population::Base);
        let fit_seed = derive(seed, FIT, draw);
        let mut method = rdrp::build(name, &MethodConfig::default()).map_err(|e| e.to_string())?;
        let (obs, trace) = Obs::in_memory();
        method
            .fit(&train, &cal, &mut Prng::seed_from_u64(fit_seed), &obs)
            .map_err(|e| format!("fit {name}: {e}"))?;
        match work_branch(method.as_ref(), &trace) {
            None => {
                return Ok(PinnedFit {
                    train,
                    cal,
                    fit_seed,
                    redraws: draw,
                    method,
                })
            }
            Some(why) => println!("pin: draw {draw} of {name} rejected ({why})"),
        }
    }
    Err(format!("no pinned-work {name} fit in {MAX_DRAWS} draws"))
}

/// K-arm inputs: grouped by level, so they round-trip through one
/// binary CSV per level.
pub struct KArmInputs {
    /// Training rows.
    pub train: MultiRctDataset,
    /// Calibration rows.
    pub cal: MultiRctDataset,
    /// Population rows with ground truth.
    pub pop: MultiRctDataset,
    /// Seed of the fit's RNG.
    pub fit_seed: u64,
    /// Draws rejected before this one.
    pub redraws: u32,
}

/// Builds the per-arm-lifted K-arm method the workload runs.
pub fn karm_method() -> Result<Box<dyn KArmRoiMethod>, String> {
    rdrp::build_karm("drp", KARM_ARMS, &MethodConfig::default()).map_err(|e| e.to_string())
}

/// K-arm inputs whose fit takes no work-changing branch.
pub fn karm_inputs(seed: u64) -> Result<KArmInputs, String> {
    let gen = MultiCouponGenerator::new(KARM_ARMS - 1);
    let sample = |seed, stream, draw, n| {
        let mut rng = Prng::seed_from_u64(derive(seed, stream, draw));
        gen.sample(n, Population::Base, &mut rng)
    };
    let pop = sample(seed, POP, 0, KARM_POP_ROWS);
    for draw in 0..MAX_DRAWS {
        let train = group_by_level(&sample(MODEL_SEED, TRAIN, draw, TRAIN_ROWS));
        let cal = group_by_level(&sample(MODEL_SEED, CAL, draw, CAL_ROWS));
        let fit_seed = derive(MODEL_SEED, FIT, draw);
        let mut method = karm_method()?;
        let (obs, trace) = Obs::in_memory();
        method
            .fit(&train, &cal, &mut Prng::seed_from_u64(fit_seed), &obs)
            .map_err(|e| format!("fit karm: {e}"))?;
        if trace.counter_value("train.divergence_retries") == 0.0 {
            return Ok(KArmInputs {
                train,
                cal,
                pop,
                fit_seed,
                redraws: draw,
            });
        }
        println!("pin: draw {draw} of the K-arm fit rejected (training divergence rollback)");
    }
    Err(format!("no pinned-work K-arm fit in {MAX_DRAWS} draws"))
}

/// Reorders rows by treatment level (stable), so each level is a
/// contiguous block that one binary CSV can hold.
pub fn group_by_level(d: &MultiRctDataset) -> MultiRctDataset {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by_key(|&i| d.level[i]);
    let pick = |v: &[f64]| order.iter().map(|&i| v[i]).collect::<Vec<f64>>();
    let pick_truth = |t: &Option<Vec<Vec<f64>>>| {
        t.as_ref()
            .map(|arms| arms.iter().map(|a| pick(a)).collect::<Vec<_>>())
    };
    MultiRctDataset {
        x: d.x.select_rows(&order),
        level: order.iter().map(|&i| d.level[i]).collect(),
        y_r: pick(&d.y_r),
        y_c: pick(&d.y_c),
        n_levels: d.n_levels,
        true_tau_r: pick_truth(&d.true_tau_r),
        true_tau_c: pick_truth(&d.true_tau_c),
    }
}

/// The binary view of rows `rows` of a K-arm dataset: treatment = "any
/// arm", outcomes unchanged.
fn binary_rows(d: &MultiRctDataset, rows: &[usize]) -> RctDataset {
    RctDataset {
        x: d.x.select_rows(rows),
        t: rows.iter().map(|&i| u8::from(d.level[i] > 0)).collect(),
        y_r: rows.iter().map(|&i| d.y_r[i]).collect(),
        y_c: rows.iter().map(|&i| d.y_c[i]).collect(),
        true_tau_r: None,
        true_tau_c: None,
    }
}

/// Writes a level-grouped K-arm dataset as one CSV per level
/// (`{stem}.L{k}.csv`) and returns the paths in level order.
pub fn write_levels(d: &MultiRctDataset, dir: &Path, stem: &str) -> Result<Vec<PathBuf>, String> {
    (0..=d.n_levels)
        .map(|k| {
            let rows: Vec<usize> = (0..d.len()).filter(|&i| d.level[i] == k).collect();
            let path = dir.join(format!("{stem}.L{k}.csv"));
            write_rct_csv(&binary_rows(d, &rows), &path, &schema())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Writes all rows of a K-arm dataset as one binary CSV (the population
/// file: only its features are read back).
pub fn write_all(d: &MultiRctDataset, path: &Path) -> Result<(), String> {
    let rows: Vec<usize> = (0..d.len()).collect();
    write_rct_csv(&binary_rows(d, &rows), path, &schema())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads one CSV per level back into a K-arm dataset (no ground truth).
pub fn read_levels(paths: &[PathBuf]) -> Result<MultiRctDataset, String> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut level = Vec::new();
    let mut y_r = Vec::new();
    let mut y_c = Vec::new();
    for (k, path) in paths.iter().enumerate() {
        let d = read_csv(path)?;
        for i in 0..d.len() {
            rows.push(d.x.row(i).to_vec());
        }
        level.extend(std::iter::repeat_n(k as u8, d.len()));
        y_r.extend_from_slice(&d.y_r);
        y_c.extend_from_slice(&d.y_c);
    }
    Ok(MultiRctDataset {
        x: Matrix::from_rows(&rows),
        level,
        y_r,
        y_c,
        n_levels: (paths.len() - 1) as u8,
        true_tau_r: None,
        true_tau_c: None,
    })
}

/// `read_rct_csv` with the default schema.
pub fn read_csv(path: &Path) -> Result<RctDataset, String> {
    read_rct_csv(path, &schema()).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Writes a binary dataset with the default schema.
pub fn write_csv(d: &RctDataset, path: &Path) -> Result<(), String> {
    write_rct_csv(d, path, &schema()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Whether two matrices hold bitwise-identical values.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows() && a.cols() == b.cols() && bits_equal(a.as_slice(), b.as_slice())
}

/// Whether two score vectors are bitwise identical.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
