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

/// `drp` artifacts, derived from the saved artifact `saved`, whose shapes
/// are wrong in ways that parse as JSON but used to load and then panic
/// or mis-score at scoring time: the first dense layer's bias one value
/// short; the last dense layer's weights declared `2^63 × 2` with no data
/// (the element count wraps to 0 unchecked); a layer list holding one
/// dropout layer and no dense layer; and a scaler one feature narrower
/// than the network. Each is re-stamped with a valid checksum, so only
/// the shape is wrong.
pub fn malformed_drp_artifacts(saved: &str) -> Vec<(&'static str, String)> {
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{key}: not an object: {other:?}"),
        }
    }
    fn layers(body: &mut Value) -> &mut Vec<Value> {
        match field(field(field(body, "state"), "net"), "layers") {
            Value::Arr(layers) => layers,
            other => panic!("layers: not an array: {other:?}"),
        }
    }
    fn pop(v: &mut Value) {
        match v {
            Value::Arr(items) => {
                items.pop();
            }
            other => panic!("not an array: {other:?}"),
        }
    }
    let envelope = tinyjson::parse(saved).expect("a saved artifact parses");
    let edit = |change: &dyn Fn(&mut Vec<Value>)| {
        let mut body = envelope.fetch("body").clone();
        change(layers(&mut body));
        rdrp::artifact::render("drp", body)
    };
    let mut narrow_scaler = envelope.fetch("body").clone();
    let scaler = field(field(&mut narrow_scaler, "state"), "scaler");
    pop(field(scaler, "means"));
    pop(field(scaler, "stds"));
    vec![
        (
            "first bias one short",
            edit(&|layers| pop(field(field(&mut layers[0], "Dense"), "b"))),
        ),
        (
            "last weights 2^63 x 2 with no data",
            edit(&|layers| {
                let last = layers.last_mut().expect("a dense layer");
                *field(field(last, "Dense"), "w") = Value::Obj(vec![
                    ("rows".to_string(), Value::Num(2f64.powi(63))),
                    ("cols".to_string(), Value::Num(2.0)),
                    ("data".to_string(), Value::Arr(vec![])),
                ]);
            }),
        ),
        (
            "dropout only",
            edit(&|layers| {
                *layers = vec![Value::Obj(vec![("Dropout".to_string(), Value::Num(0.1))])];
            }),
        ),
        (
            "scaler one feature short",
            rdrp::artifact::render("drp", narrow_scaler),
        ),
    ]
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
