//! Shared fixtures for the cross-crate integration tests.

use datasets::{ExperimentData, RctDataset, Setting, SettingSizes};
use linalg::random::Prng;
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use rdrp::{DrpConfig, RdrpConfig, RoiMethod};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tinyjson::Value;
use uplift::FitError;

/// Small-but-meaningful sizes so the whole suite stays fast.
pub fn quick_sizes() -> SettingSizes {
    SettingSizes {
        train_sufficient: 6_000,
        insufficient_fraction: 0.15,
        calibration: 2_500,
        test: 5_000,
    }
}

/// A fast rDRP configuration for integration tests.
pub fn quick_rdrp_config() -> RdrpConfig {
    RdrpConfig {
        drp: DrpConfig {
            epochs: 15,
            ..DrpConfig::default()
        },
        mc_passes: 20,
        ..RdrpConfig::default()
    }
}

/// Builds experiment data for a generator/setting pair with a fixed seed.
pub fn quick_data(
    generator: &dyn datasets::generator::RctGenerator,
    setting: Setting,
    seed: u64,
) -> (ExperimentData, Prng) {
    let mut rng = Prng::seed_from_u64(seed);
    let data = ExperimentData::build(generator, setting, &quick_sizes(), &mut rng);
    (data, rng)
}

/// A fresh path in the system temp directory, unique per call: the pid
/// keeps test processes apart and a process-wide counter keeps tests
/// (and repeated runs of one scenario) inside a process apart, so no two
/// callers ever share, overwrite, or delete each other's file.
pub fn unique_tmp(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rdrp_it_{}_{n}_{name}", std::process::id()))
}

/// A trivially fast rowwise scorer — each row scores its own sum — so
/// serving tests exercise the engine and the wire, not a neural net.
#[derive(Debug)]
struct RowSum {
    width: usize,
}

impl RoiMethod for RowSum {
    fn method_name(&self) -> &'static str {
        "row-sum"
    }

    fn label(&self) -> String {
        "RowSum".to_string()
    }

    fn fit(
        &mut self,
        _: &RctDataset,
        _: &RctDataset,
        _: &mut Prng,
        _: &Obs,
    ) -> Result<(), FitError> {
        Ok(())
    }

    fn n_features(&self) -> Option<usize> {
        Some(self.width)
    }

    fn rowwise(&self) -> bool {
        true
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        x.row_iter().map(|r| r.iter().sum()).collect()
    }

    fn body_to_json(&self) -> Value {
        Value::Null
    }
}

/// The row-sum scorer, over rows of `width` features.
pub fn row_sum_scorer(width: usize) -> Arc<dyn RoiMethod> {
    Arc::new(RowSum { width })
}
