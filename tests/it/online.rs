//! Online calibration end-to-end: the paper's SuCo ablation shows a
//! one-shot conformal quantile losing marginal coverage under covariate
//! shift; the streaming calibrator must win it back. And the serve-side
//! loop around it — drift detection, registry hot-swap, degraded mode —
//! must be byte-for-byte reproducible and must never reject in-flight
//! traffic while swapping.

use conformal::{OnlineConformal, OnlineConformalConfig};
use datasets::{
    CriteoLike, DriftDetectorConfig, FeatureReference, Population, RctDataset, RctGenerator,
};
use linalg::random::Prng;
use linalg::stats::conformal_quantile;
use linalg::Matrix;
use nn::Workspace;
use obs::{FieldValue, InMemoryRecorder, Obs};
use rdrp::RoiMethod;
use serve::{
    CalibrationMonitor, CalibrationMonitorConfig, EngineConfig, FeedbackOutcome, ModelRegistry,
    ScoringEngine,
};
use std::sync::{Arc, Condvar, Mutex};
use uplift::FitError;

const ALPHA: f64 = 0.1;

// ---------------------------------------------------------------------------
// Coverage under shift
// ---------------------------------------------------------------------------

/// A synthetic serving model over CriteoLike features: the prediction is
/// a fixed projection `z = w·x` along the population-shift direction, and
/// the truth is `z + s(x)·ε` with a heteroscedastic noise scale `s(x)`
/// that grows along that same direction. Under the base population the
/// residual quantile is one number; under the shifted population it is a
/// larger one — exactly the exchangeability break that invalidates a
/// frozen q̂.
struct ShiftedResiduals {
    w: Vec<f64>,
    z_mean: f64,
    z_std: f64,
}

impl ShiftedResiduals {
    fn fit(base: &Matrix, shifted: &Matrix) -> ShiftedResiduals {
        let d = base.cols();
        let mean = |x: &Matrix, j: usize| x.col(j).iter().sum::<f64>() / x.rows() as f64;
        let w: Vec<f64> = (0..d).map(|j| mean(shifted, j) - mean(base, j)).collect();
        let zs: Vec<f64> = (0..base.rows()).map(|i| dot(&w, base.row(i))).collect();
        let z_mean = zs.iter().sum::<f64>() / zs.len() as f64;
        let var = zs.iter().map(|z| (z - z_mean).powi(2)).sum::<f64>() / zs.len() as f64;
        ShiftedResiduals {
            w,
            z_mean,
            z_std: var.sqrt().max(1e-12),
        }
    }

    fn pred(&self, row: &[f64]) -> f64 {
        dot(&self.w, row)
    }

    /// Noise scale: lognormal in the standardized shift coordinate, so
    /// the shifted population (whose coordinate is stochastically larger)
    /// has stochastically larger residuals.
    fn scale(&self, row: &[f64]) -> f64 {
        let u = ((self.pred(row) - self.z_mean) / self.z_std).clamp(-6.0, 6.0);
        0.05 + u.exp()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[test]
fn one_shot_quantile_loses_coverage_under_shift_and_online_restores_it() {
    let generator = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(7);
    let base = generator.sample(4000, Population::Base, &mut rng);
    let stream = generator.sample(6000, Population::Shifted, &mut rng);
    let model = ShiftedResiduals::fit(&base.x, &stream.x);

    // Residual draws: |y - pred| = s(x)·|ε|, one ε per row.
    let residual =
        |m: &ShiftedResiduals, row: &[f64], rng: &mut Prng| m.scale(row) * rng.gaussian();

    // One-shot split conformal, calibrated on the base population.
    let calib_scores: Vec<f64> = (0..base.x.rows())
        .map(|i| residual(&model, base.x.row(i), &mut rng).abs())
        .collect();
    let qhat0 = conformal_quantile(&calib_scores, ALPHA).expect("healthy calibration scores");

    // The same frozen q̂ served against the shifted stream, and the
    // streaming calibrator fed the identical feedback.
    let mut online = OnlineConformal::new(ALPHA, OnlineConformalConfig::default())
        .expect("default-shaped config");
    let mut frozen_hits = 0usize;
    let mut adaptive_hits = 0usize;
    let mut adaptive_judged = 0usize;
    let warmup = 1000;
    for i in 0..stream.x.rows() {
        let row = stream.x.row(i);
        let pred = model.pred(row);
        let outcome = pred + residual(&model, row, &mut rng);
        let obs = online.observe(pred, 1.0, outcome);
        if (outcome - pred).abs() <= qhat0 {
            frozen_hits += 1;
        }
        if i >= warmup {
            if let Some(covered) = obs.covered {
                adaptive_judged += 1;
                adaptive_hits += usize::from(covered);
            }
        }
    }

    let frozen = frozen_hits as f64 / stream.x.rows() as f64;
    let adaptive = adaptive_hits as f64 / adaptive_judged as f64;
    let nominal = 1.0 - ALPHA;
    assert!(
        frozen < nominal - 0.02,
        "frozen q̂ should lose coverage under shift: got {frozen:.3} vs nominal {nominal}"
    );
    assert!(
        (adaptive - nominal).abs() <= 0.02,
        "online calibration should restore coverage to within ±2% of {nominal}: got {adaptive:.3} \
         (frozen baseline {frozen:.3})"
    );
}

// ---------------------------------------------------------------------------
// Drift → hot-swap serving loop
// ---------------------------------------------------------------------------

/// A blocking rendezvous so a test can hold a scoring worker mid-batch
/// while the calibration monitor swaps the registry underneath it.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl Gate {
    /// Called by the scorer: announce arrival, then block until opened.
    fn enter_and_wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.1 += 1;
        self.cv.notify_all();
        while !st.0 {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Called by the test: block until a scorer is inside the gate.
    fn await_waiter(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while st.1 == 0 {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.0 = true;
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gate")
    }
}

/// A deterministic calibrated scorer: score = row sum + q̂, so a swapped
/// artifact is distinguishable from the original by its scores alone.
#[derive(Debug)]
struct StubScorer {
    qhat: f64,
    gate: Option<Arc<Gate>>,
}

impl RoiMethod for StubScorer {
    fn method_name(&self) -> &'static str {
        "stub"
    }

    fn label(&self) -> String {
        "Stub".to_string()
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
        Some(2)
    }

    fn rowwise(&self) -> bool {
        false
    }

    fn scores(&self, x: &Matrix, _ws: &mut Workspace, _obs: &Obs) -> Vec<f64> {
        if let Some(gate) = &self.gate {
            gate.enter_and_wait();
        }
        (0..x.rows())
            .map(|i| x.row(i).iter().sum::<f64>() + self.qhat)
            .collect()
    }

    fn qhat(&self) -> Option<f64> {
        Some(self.qhat)
    }

    fn alpha(&self) -> Option<f64> {
        Some(ALPHA)
    }

    fn with_qhat(&self, qhat: f64, _n_calibration: usize) -> Option<Box<dyn RoiMethod>> {
        Some(Box::new(StubScorer { qhat, gate: None }))
    }

    fn body_to_json(&self) -> tinyjson::Value {
        tinyjson::Value::Null
    }
}

/// Training-reference moments: mean 0, nonzero std in both features.
fn stub_reference() -> FeatureReference {
    let rows = vec![
        vec![-1.0, -1.0],
        vec![1.0, 1.0],
        vec![1.0, -1.0],
        vec![-1.0, 1.0],
    ];
    FeatureReference::from_matrix(&Matrix::from_rows(&rows)).expect("non-degenerate reference")
}

fn monitor_config() -> CalibrationMonitorConfig {
    CalibrationMonitorConfig {
        model: "m".to_string(),
        base_version: "v1".to_string(),
        online: OnlineConformalConfig {
            window: 64,
            min_window: 10,
            gamma: 0.0,
            ..OnlineConformalConfig::default()
        },
        drift: DriftDetectorConfig {
            batch_rows: 8,
            beta: 0.5,
            threshold: 0.25,
        },
    }
}

/// One fixed drift scenario: a base scorer at q̂ = 1.0, then 16 feedback
/// rows from a far-shifted feature distribution. The first detector batch
/// fires drift with an 8-deep window (below `min_window` = 10) and must
/// degrade; the second fires with 16 scores and must hot-swap. Everything
/// is deterministic, so two runs must render identical traces.
fn drift_scenario() -> (
    Arc<InMemoryRecorder>,
    Arc<ModelRegistry>,
    Vec<FeedbackOutcome>,
) {
    let (obs, recorder, _clock) = Obs::manual();
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(
        "m",
        "v1",
        Arc::new(StubScorer {
            qhat: 1.0,
            gate: None,
        }),
    );
    let monitor = CalibrationMonitor::new(
        Arc::clone(&registry),
        stub_reference(),
        monitor_config(),
        obs,
    )
    .expect("calibrated scorer is registered");
    let outcomes: Vec<FeedbackOutcome> = (0..16)
        .map(|i| {
            monitor
                .observe(&[9.0, 9.0], Some(0.0), Some(1.0), 0.1 * i as f64)
                .expect("feature width matches")
        })
        .collect();
    (recorder, registry, outcomes)
}

#[test]
fn drift_degrades_below_min_window_then_hot_swaps() {
    let (recorder, registry, outcomes) = drift_scenario();

    // Batch 1 (row 8): drift fired but the window is 8 < min_window 10 —
    // and its α = 0.1 quantile is +∞ anyway. Machine-readable degraded
    // mode, no swap, original artifact still newest.
    let first = &outcomes[7];
    assert!(first.drift.as_ref().is_some_and(|d| d.drifted));
    assert!(matches!(
        first.degraded,
        Some(rdrp::DegradedMode::InsufficientWindow)
    ));
    assert_eq!(first.swapped_version, None);

    // Batch 2 (row 16): window is 16 ≥ min_window with a finite quantile
    // — the monitor publishes a recalibrated artifact.
    let second = &outcomes[15];
    assert!(second.drift.as_ref().is_some_and(|d| d.drifted));
    assert_eq!(second.degraded, None);
    assert_eq!(second.swapped_version.as_deref(), Some("v1-oc000001"));

    // The swap is live: `get(name, None)` resolves the new version, whose
    // q̂ is the 16-score window quantile (rank ⌈0.9·17⌉ = 16 → the max
    // score 1.5), while the original stays addressable by version.
    let newest = registry.get("m", None).expect("model still registered");
    assert_eq!(newest.qhat(), Some(1.5));
    let original = registry
        .get("m", Some("v1"))
        .expect("original version retained");
    assert_eq!(original.qhat(), Some(1.0));

    // Exact observable event sequence — and the trace agrees with the
    // per-call outcomes.
    let names: Vec<String> = recorder.events().iter().map(|e| e.name.clone()).collect();
    assert_eq!(
        names,
        [
            "calibration.drift",
            "calibration.degraded",
            "calibration.drift",
            "calibration.hot_swap",
        ]
    );
    let events = recorder.events();
    let swap = events.last().expect("hot swap event");
    assert_eq!(
        swap.field("version"),
        Some(&FieldValue::Str("v1-oc000001".to_string()))
    );
    assert_eq!(swap.field("qhat"), Some(&FieldValue::F64(1.5)));
    assert_eq!(
        recorder.gauge_value("calibration.window_size"),
        Some(16.0),
        "gauge tracks the window fill"
    );
}

#[test]
fn drift_trace_renders_byte_identically_across_runs() {
    let (first, _, _) = drift_scenario();
    let (second, _, _) = drift_scenario();
    let a = first.render_json();
    let b = second.render_json();
    assert_eq!(a, b, "two fixed drift scenarios rendered different traces");

    // CI determinism gate, mirroring GOLDEN_TRACE_OUT: persist the trace
    // so two test invocations can be diffed byte-for-byte on disk.
    if let Ok(path) = std::env::var("DRIFT_TRACE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &a).expect("write drift trace");
        }
    }
}

#[test]
fn hot_swap_never_rejects_in_flight_requests() {
    let (obs, _recorder, _clock) = Obs::manual();
    let registry = Arc::new(ModelRegistry::new());
    let gate = Arc::new(Gate::default());
    registry.insert(
        "m",
        "v1",
        Arc::new(StubScorer {
            qhat: 1.0,
            gate: Some(Arc::clone(&gate)),
        }),
    );
    let monitor = CalibrationMonitor::new(
        Arc::clone(&registry),
        stub_reference(),
        monitor_config(),
        obs.clone(),
    )
    .expect("calibrated scorer is registered");

    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .build()
            .expect("valid test config"),
        obs,
    );
    engine.attach_monitor(Arc::new(monitor));

    // A request enters the old artifact and blocks mid-score.
    let old = registry.get("m", None).expect("registered");
    let pending = engine
        .submit(&old, Matrix::from_rows(&[vec![1.0, 2.0]]), None)
        .expect("queue empty");
    gate.await_waiter();

    // While that request is in flight, drift feedback hot-swaps the slot.
    let mut swapped = None;
    for i in 0..16 {
        let outcome = engine
            .observe(&[9.0, 9.0], Some(0.0), Some(1.0), 0.1 * i as f64)
            .expect("monitor attached");
        swapped = swapped.or(outcome.swapped_version);
    }
    assert_eq!(swapped.as_deref(), Some("v1-oc000001"));

    // The in-flight request completes on the artifact it was submitted
    // to: scored (1 + 2) + old q̂ 1.0 — not rejected, not re-routed.
    gate.open();
    assert_eq!(pending.wait(), Ok(vec![4.0]));

    // New traffic resolves the swapped artifact: (1 + 2) + new q̂ 1.5.
    let new = registry.get("m", None).expect("still registered");
    let fresh = engine
        .submit(&new, Matrix::from_rows(&[vec![1.0, 2.0]]), None)
        .expect("queue empty");
    assert_eq!(fresh.wait(), Ok(vec![4.5]));
}

/// The monitor recalibrates at the served model's own α. A drift swap
/// keeps that α on the model, so a window quantiled at any other level
/// would serve intervals for a coverage the model does not report.
#[test]
fn monitor_calibrates_at_the_served_models_alpha() {
    let mut config = rdrp::MethodConfig::default();
    config.rdrp.alpha = 0.2;
    config.rdrp.drp.epochs = 2;
    config.rdrp.mc_passes = 5;
    let mut rng = Prng::seed_from_u64(5);
    let generator = CriteoLike::new();
    let train = generator.sample(600, Population::Base, &mut rng);
    let calibration = generator.sample(300, Population::Base, &mut rng);
    let mut method = rdrp::build("rdrp", &config).expect("registered");
    method
        .fit(&train, &calibration, &mut rng, &Obs::disabled())
        .expect("fits");
    assert_eq!(method.alpha(), Some(0.2));

    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", "v1", Arc::from(method));
    let monitor = CalibrationMonitor::new(
        registry,
        FeatureReference::from_dataset(&train).expect("non-degenerate reference"),
        CalibrationMonitorConfig {
            model: "m".to_string(),
            ..CalibrationMonitorConfig::default()
        },
        Obs::disabled(),
    )
    .expect("a calibrated rDRP is registered");
    assert_eq!(monitor.alpha(), 0.2);
}
