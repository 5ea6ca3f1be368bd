//! Fitting and scoring every method of the paper's evaluation.

use datasets::generator::RctGenerator;
use datasets::{ExperimentData, Setting, SettingSizes};
use linalg::random::Prng;
use rdrp::{DrpConfig, MethodConfig, RdrpConfig};
use uplift::NetConfig;

/// Percentile bins used for all reported AUCCs.
pub const AUCC_BINS: usize = 20;

/// The ten Table-I methods, by registry name (`rdrp::methods::METHODS`,
/// also the artifact tag), in the paper's row order.
pub const TABLE1: [&str; 10] = [
    "tpm-sl",
    "tpm-xl",
    "tpm-cf",
    "tpm-dragonnet",
    "tpm-tarnet",
    "tpm-offsetnet",
    "tpm-snet",
    "dr",
    "drp",
    "rdrp",
];

/// The five Table-II ablation methods, by registry name, in the paper's
/// row order.
pub const TABLE2: [&str; 5] = ["dr", "dr-mc", "drp", "drp-mc", "rdrp"];

/// The paper-style row label of a registered method.
///
/// # Panics
/// Panics when `name` is not in the registry.
pub fn label(name: &str) -> &'static str {
    rdrp::methods::spec(name)
        .unwrap_or_else(|| panic!("{name:?} is not a registered method"))
        .label
}

/// Shared network hyperparameters for the neural baselines.
pub fn table_net_config() -> NetConfig {
    NetConfig {
        epochs: 40,
        ..NetConfig::default()
    }
}

/// Shared rDRP/DRP hyperparameters (paper: same for DRP and rDRP).
pub fn table_rdrp_config() -> RdrpConfig {
    RdrpConfig {
        drp: DrpConfig {
            epochs: 40,
            dropout: 0.2,
            ..DrpConfig::default()
        },
        mc_passes: 50,
        ..RdrpConfig::default()
    }
}

/// Default sizes for the offline tables (scaled from the paper's
/// millions to laptop scale; see DESIGN.md §4).
pub fn table_sizes() -> SettingSizes {
    SettingSizes {
        train_sufficient: 16_000,
        insufficient_fraction: 0.15,
        calibration: 10_000,
        test: 20_000,
    }
}

/// The table hyperparameters as one registry config bundle.
pub fn table_method_config() -> MethodConfig {
    MethodConfig {
        net: table_net_config(),
        rdrp: table_rdrp_config(),
        ..MethodConfig::default()
    }
}

/// Fits the registered method `name` on `data` and returns its test-set
/// ranking scores. Scoring is the same deterministic path
/// the CLI and the serving layer use (MC sweeps reseed from
/// [`rdrp::SCORING_SEED`] rather than forking the harness RNG).
pub fn score_method(name: &str, data: &ExperimentData, rng: &mut Prng) -> Vec<f64> {
    let mut method = rdrp::build(name, &table_method_config())
        .unwrap_or_else(|e| panic!("{name:?} is not a registered method: {e}"));
    method
        .fit(&data.train, &data.calibration, rng, &obs::Obs::disabled())
        .expect("bench data is well-formed");
    method.scores_fresh(&data.test.x, &obs::Obs::disabled())
}

/// One method's result on one (dataset, setting) cell.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Which method.
    pub method: String,
    /// Mean test AUCC across seeds.
    pub aucc: f64,
    /// Per-seed AUCCs.
    pub per_seed: Vec<f64>,
}

tinyjson::json_struct!(MethodResult {
    method,
    aucc,
    per_seed
});

/// Runs the registered `methods` on `(generator, setting)` for `seeds`
/// replicates and returns each method's mean AUCC, under its paper
/// label.
pub fn run_setting(
    generator: &dyn RctGenerator,
    setting: Setting,
    sizes: &SettingSizes,
    methods: &[&str],
    seeds: &[u64],
) -> Vec<MethodResult> {
    assert!(!seeds.is_empty(), "run_setting: need at least one seed");
    let mut results: Vec<MethodResult> = methods
        .iter()
        .map(|m| MethodResult {
            method: label(m).to_string(),
            aucc: 0.0,
            per_seed: Vec::with_capacity(seeds.len()),
        })
        .collect();
    for &seed in seeds {
        let mut rng = Prng::seed_from_u64(seed);
        let data = ExperimentData::build(generator, setting, sizes, &mut rng);
        for (mi, method) in methods.iter().enumerate() {
            let mut mrng = rng.fork();
            let scores = score_method(method, &data, &mut mrng);
            let aucc = metrics::aucc_from_labels(&data.test, &scores, AUCC_BINS);
            results[mi].per_seed.push(aucc);
        }
    }
    for r in &mut results {
        r.aucc = linalg::stats::mean(&r.per_seed);
    }
    results
}

/// Parses an optional `--seeds N` / positional integer CLI argument into
/// a seed list (defaults to `default_n` seeds).
pub fn seeds_from_args(default_n: usize) -> Vec<u64> {
    let mut n = default_n;
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--seeds" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                n = v.max(1);
            }
        } else if let Ok(v) = a.parse::<usize>() {
            if i > 0 {
                n = v.max(1);
            }
        }
    }
    (0..n as u64).map(|i| 1000 + i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::CriteoLike;

    #[test]
    fn labels_cover_table_rows() {
        for name in TABLE1.iter().chain(&TABLE2) {
            label(name);
        }
        assert_eq!(label("rdrp"), "rDRP");
        assert_eq!(label("tpm-snet"), "TPM-SNet");
    }

    #[test]
    fn run_setting_produces_sane_auccs() {
        let gen = CriteoLike::new();
        let sizes = SettingSizes {
            train_sufficient: 3_000,
            insufficient_fraction: 0.15,
            calibration: 1_500,
            test: 3_000,
        };
        // Cheap subset: one classical and one neural method, one seed.
        let results = run_setting(&gen, Setting::SuNo, &sizes, &["tpm-sl", "drp"], &[7]);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                (0.2..0.95).contains(&r.aucc),
                "{}: aucc {} out of range",
                r.method,
                r.aucc
            );
            assert_eq!(r.per_seed.len(), 1);
        }
    }
}
