//! Per-row cost of the online calibration feedback path.
//!
//! The serve-side monitor sits on the feedback stream, not the scoring
//! hot path — but feedback volume tracks traffic, so each observation
//! must stay well under a microsecond:
//!
//! 1. **Window update** — `OnlineConformal::observe` against a full
//!    window: one `O(log n)` treap insert + evict + quantile probe and
//!    the adaptive-α bookkeeping.
//! 2. **Drift update** — `DriftDetector::observe_row` on CriteoLike-wide
//!    rows: a running-sum accumulation most rows, the SMD + EWMA fold on
//!    batch boundaries.
//! 3. **Full monitor** — `CalibrationMonitor::observe` end to end
//!    (lock, width check, window, drift, instrumentation) with the
//!    prediction supplied, as the protocol frontends supply it.

use datasets::generator::{Population, RctGenerator};
use datasets::{CriteoLike, DriftDetector, DriftDetectorConfig, FeatureReference, RctDataset};
use linalg::random::Prng;
use linalg::Matrix;
use minibench::{criterion_group, criterion_main, Criterion};
use nn::Workspace;
use obs::Obs;
use rdrp::RoiMethod;
use serve::{CalibrationMonitor, CalibrationMonitorConfig, ModelRegistry};
use std::sync::Arc;
use uplift::FitError;

use conformal::{OnlineConformal, OnlineConformalConfig};

fn feedback_stream(n: usize) -> Vec<f64> {
    let mut rng = Prng::seed_from_u64(11);
    (0..n).map(|_| rng.gaussian()).collect()
}

/// One feedback observation against a full 256-score window.
fn bench_online_observe(c: &mut Criterion) {
    let mut online = OnlineConformal::new(0.1, OnlineConformalConfig::default()).unwrap();
    let outcomes = feedback_stream(4096);
    for &s in &outcomes[..256] {
        online.push_score(s.abs());
    }
    let mut i = 0usize;
    c.bench_function("online_conformal_observe_w256", |b| {
        b.iter(|| {
            let outcome = outcomes[i % outcomes.len()];
            i += 1;
            online.observe(0.0, 1.0, outcome)
        })
    });
}

/// One feature row through the drift detector (batch boundary cost is
/// amortized into the mean at the configured cadence).
fn bench_drift_observe_row(c: &mut Criterion) {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(12);
    let train = gen.sample(2_000, Population::Base, &mut rng);
    let stream = gen.sample(1_024, Population::Shifted, &mut rng);
    let reference = FeatureReference::from_dataset(&train).unwrap();
    let mut detector = DriftDetector::new(reference, DriftDetectorConfig::default()).unwrap();
    let mut i = 0usize;
    c.bench_function("drift_detector_observe_row", |b| {
        b.iter(|| {
            let row = stream.x.row(i % stream.x.rows());
            i += 1;
            detector.observe_row(row).unwrap()
        })
    });
}

/// A calibrated scorer that costs nothing, so the bench isolates the
/// monitor's own bookkeeping rather than a model forward pass.
#[derive(Debug)]
struct FlatScorer {
    n_features: usize,
}

impl RoiMethod for FlatScorer {
    fn method_name(&self) -> &'static str {
        "flat"
    }

    fn label(&self) -> String {
        "Flat".to_string()
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
        Some(self.n_features)
    }

    fn rowwise(&self) -> bool {
        true
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        vec![0.0; x.rows()]
    }

    fn qhat(&self) -> Option<f64> {
        Some(1.0)
    }

    fn alpha(&self) -> Option<f64> {
        Some(0.1)
    }

    fn with_qhat(&self, _qhat: f64, _n_calibration: usize) -> Option<Box<dyn RoiMethod>> {
        Some(Box::new(FlatScorer {
            n_features: self.n_features,
        }))
    }

    fn body_to_json(&self) -> tinyjson::Value {
        tinyjson::Value::Null
    }
}

/// The whole feedback path: lock, width check, window, drift, metrics.
fn bench_monitor_observe(c: &mut Criterion) {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(13);
    let train = gen.sample(2_000, Population::Base, &mut rng);
    let stream = gen.sample(1_024, Population::Base, &mut rng);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(
        "bench",
        "v1",
        Arc::new(FlatScorer {
            n_features: train.x.cols(),
        }),
    );
    let monitor = CalibrationMonitor::new(
        registry,
        FeatureReference::from_dataset(&train).unwrap(),
        CalibrationMonitorConfig {
            model: "bench".to_string(),
            ..CalibrationMonitorConfig::default()
        },
        Obs::disabled(),
    )
    .unwrap();
    let outcomes = feedback_stream(stream.x.rows());
    let mut i = 0usize;
    c.bench_function("calibration_monitor_observe", |b| {
        b.iter(|| {
            let idx = i % stream.x.rows();
            i += 1;
            monitor
                .observe(stream.x.row(idx), Some(0.0), Some(1.0), outcomes[idx])
                .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_online_observe,
    bench_drift_observe_row,
    bench_monitor_observe
);
criterion_main!(benches);
