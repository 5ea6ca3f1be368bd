//! Engine semantics: determinism against the direct inference path,
//! coalescing under load and none when idle, backpressure, deadline
//! expiry on a manual clock, and poisoned-worker recovery.

use datasets::generator::{Population, RctGenerator};
use datasets::{CriteoLike, RctDataset};
use linalg::random::Prng;
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use rdrp::methods::RdrpMethod;
use rdrp::{DrpConfig, MethodConfig, Rdrp, RdrpConfig, RoiMethod, SCORING_SEED};
use serve::{EngineConfig, Rejected, ScoreError, ScoringEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tinyjson::Value;
use uplift::FitError;

fn fitted_rdrp(mc_dropout: f64, seed: u64) -> Rdrp {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(seed);
    let train = gen.sample(2_500, Population::Base, &mut rng);
    let cal = gen.sample(1_000, Population::Base, &mut rng);
    let mut model = Rdrp::new(RdrpConfig {
        drp: DrpConfig {
            epochs: 4,
            ..DrpConfig::default()
        },
        mc_passes: 8,
        mc_dropout,
        ..RdrpConfig::default()
    })
    .unwrap();
    model
        .fit_with_calibration(&train, &cal, &mut rng, &Obs::disabled())
        .unwrap();
    model
}

fn fitted_drp(seed: u64) -> Arc<dyn RoiMethod> {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(seed);
    let train = gen.sample(2_000, Population::Base, &mut rng);
    let mut config = MethodConfig::default();
    config.rdrp.drp.epochs = 4;
    let mut model = rdrp::build("drp", &config).unwrap();
    // DRP has no calibration stage; the training set stands in.
    model
        .fit(&train, &train, &mut rng, &Obs::disabled())
        .unwrap();
    Arc::from(model)
}

fn chunks_of(x: &Matrix, sizes: &[usize]) -> Vec<Matrix> {
    let mut out = Vec::new();
    let mut start = 0;
    for &size in sizes.iter().cycle() {
        if start >= x.rows() {
            break;
        }
        let end = (start + size).min(x.rows());
        let rows: Vec<Vec<f64>> = (start..end).map(|r| x.row(r).to_vec()).collect();
        out.push(Matrix::from_rows(&rows));
        start = end;
    }
    out
}

/// The acceptance bar: engine scores are bitwise identical to the
/// direct serial `predict_scores` path, for MC-form and identity-form
/// models alike, at worker counts 1, 2, and 8 and any request chunking.
#[test]
fn engine_scores_match_direct_serial_bitwise() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(9);
    let test = gen.sample(600, Population::Base, &mut rng);
    // mc_dropout > 0: a real calibration form with an MC sweep
    // (non-rowwise). mc_dropout = 0: degrades to the identity form
    // (rowwise), exercising the coalescer.
    for (label, model) in [
        ("mc-form", fitted_rdrp(0.5, 0)),
        ("identity-form", fitted_rdrp(0.0, 1)),
    ] {
        let scorer: Arc<dyn RoiMethod> = Arc::new(RdrpMethod::new(model.clone()));
        // The form decides the engine path: MC sweeps are scored one
        // request at a time, the identity form is coalesced.
        assert_eq!(scorer.rowwise(), label == "identity-form", "{label}");
        let chunks = chunks_of(&test.x, &[1, 7, 64, 300]);
        let expected: Vec<Vec<f64>> = chunks
            .iter()
            .map(|chunk| {
                let mut rng = Prng::seed_from_u64(SCORING_SEED);
                model.predict_scores(chunk, &mut rng, &Obs::disabled())
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let engine = ScoringEngine::start(
                EngineConfig::builder()
                    .workers(workers)
                    .max_batch_rows(128)
                    .max_wait(Duration::from_micros(200))
                    .build()
                    .unwrap(),
                Obs::disabled(),
            );
            let pending: Vec<_> = chunks
                .iter()
                .map(|chunk| engine.submit(&scorer, chunk.clone(), None).unwrap())
                .collect();
            for (i, p) in pending.into_iter().enumerate() {
                let got = p.wait().unwrap();
                assert_eq!(
                    got, expected[i],
                    "{label}: chunk {i} differs at {workers} workers"
                );
            }
        }
    }
}

/// A gate the test opens to release a blocked scorer — used to hold a
/// worker busy so queue behavior is observable deterministically.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

/// Blocks inside `score` until the gate opens. Non-rowwise so the
/// engine never coalesces across it.
#[derive(Debug)]
struct GatedScorer {
    gate: Arc<Gate>,
}

impl RoiMethod for GatedScorer {
    fn method_name(&self) -> &'static str {
        "gated"
    }

    fn label(&self) -> String {
        "Gated".to_string()
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
        self.gate.wait();
        x.row_iter().map(|row| row[0] + row[1]).collect()
    }

    fn body_to_json(&self) -> Value {
        Value::Null
    }
}

/// Rowwise requests coalesced into one batch must score exactly as they
/// would alone — the coalescer's correctness contract. The only worker
/// is held on a gated job while the chunks queue, so the batch after it
/// holds every chunk.
#[test]
fn coalesced_rowwise_batches_are_bitwise_identical() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(10);
    let test = gen.sample(200, Population::Base, &mut rng);
    let scorer = fitted_drp(11);
    let chunks = chunks_of(&test.x, &[3, 5, 17]);
    let gate = Arc::new(Gate::default());
    let gated: Arc<dyn RoiMethod> = Arc::new(GatedScorer {
        gate: Arc::clone(&gate),
    });
    let (obs, recorder) = Obs::in_memory();
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_batch_rows(4096)
            .build()
            .unwrap(),
        obs,
    );
    let blocked = engine
        .submit(&gated, Matrix::from_rows(&[vec![1.0, 2.0]]), None)
        .unwrap();
    // Wait until the worker has dequeued the gated job (queue-depth
    // gauge back to zero), so every chunk queues behind it.
    while recorder.gauge_value("serve.queue_depth") != Some(0.0) {
        std::thread::yield_now();
    }
    let pending: Vec<_> = chunks
        .iter()
        .map(|chunk| engine.submit(&scorer, chunk.clone(), None).unwrap())
        .collect();
    gate.open();
    assert_eq!(blocked.wait().unwrap(), vec![3.0]);
    for (chunk, p) in chunks.iter().zip(pending) {
        let expected = scorer.scores_fresh(chunk, &Obs::disabled());
        assert_eq!(p.wait().unwrap(), expected);
    }
    // Two batches: the gated job, then one holding every chunk.
    let batches = recorder.histogram("serve.batch_requests").unwrap();
    assert_eq!(batches.count(), 2);
    assert_eq!(batches.max(), Some(chunks.len() as f64));
}

/// A lone rowwise request on an idle engine is scored at once: a worker
/// holds a batch for fill only while another worker is busy, so a 2 s
/// `max_wait` costs a one-worker engine nothing.
#[test]
fn lone_rowwise_request_is_scored_without_waiting_for_fill() {
    let scorer = fitted_drp(12);
    let row = Matrix::from_rows(&[vec![0.5; scorer.n_features().unwrap()]]);
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::from_secs(2))
            .build()
            .unwrap(),
        Obs::disabled(),
    );
    let start = Instant::now();
    let scores = engine.submit(&scorer, row.clone(), None).unwrap().wait();
    let elapsed = start.elapsed();
    assert_eq!(scores.unwrap(), scorer.scores_fresh(&row, &Obs::disabled()));
    assert!(
        elapsed < Duration::from_secs(1),
        "a lone request waited {elapsed:?}"
    );
}

#[test]
fn full_queue_rejects_with_typed_backpressure_error() {
    let gate = Arc::new(Gate::default());
    let scorer: Arc<dyn RoiMethod> = Arc::new(GatedScorer {
        gate: Arc::clone(&gate),
    });
    let (obs, recorder) = Obs::in_memory();
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .queue_rows(4)
            .max_wait(Duration::ZERO)
            .build()
            .unwrap(),
        obs,
    );
    let row = Matrix::from_rows(&[vec![1.0, 2.0]]);
    // First request occupies the (only) worker behind the gate...
    let blocked = engine.submit(&scorer, row.clone(), None).unwrap();
    // ...wait until the worker has actually dequeued it (queue-depth
    // gauge back to zero), so the capacity below is consumed by exactly
    // the next four requests.
    while recorder.gauge_value("serve.queue_depth") != Some(0.0) {
        std::thread::yield_now();
    }
    let mut queued = Vec::new();
    let overflow = loop {
        match engine.submit(&scorer, row.clone(), None) {
            Ok(p) => queued.push(p),
            Err(rejected) => break rejected,
        }
        assert!(queued.len() <= 4, "queue never filled");
    };
    assert_eq!(
        overflow,
        Rejected::QueueFull {
            queued_rows: 4,
            capacity_rows: 4
        }
    );
    gate.open();
    assert_eq!(blocked.wait().unwrap(), vec![3.0]);
    for p in queued {
        assert_eq!(p.wait().unwrap(), vec![3.0]);
    }
    assert!(recorder.counter_value("serve.rejected.queue_full") >= 1.0);
}

#[test]
fn expired_deadline_is_rejected_on_the_manual_clock() {
    let (obs, recorder, clock) = Obs::manual();
    let gate = Arc::new(Gate::default());
    let scorer: Arc<dyn RoiMethod> = Arc::new(GatedScorer {
        gate: Arc::clone(&gate),
    });
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::ZERO)
            .build()
            .unwrap(),
        obs,
    );
    let row = Matrix::from_rows(&[vec![1.0, 2.0]]);
    // Occupy the worker, then queue a request with a 1 ms budget.
    let blocked = engine.submit(&scorer, row.clone(), None).unwrap();
    let doomed = engine
        .submit(&scorer, row.clone(), Some(Duration::from_millis(1)))
        .unwrap();
    let unbounded = engine.submit(&scorer, row, None).unwrap();
    // 2 ms pass on the engine's clock before any worker reaches it.
    clock.advance(2_000_000);
    gate.open();
    assert_eq!(blocked.wait().unwrap(), vec![3.0]);
    assert_eq!(doomed.wait(), Err(ScoreError::DeadlineExpired));
    // The deadline-free request behind it is unaffected.
    assert_eq!(unbounded.wait().unwrap(), vec![3.0]);
    assert_eq!(recorder.counter_value("serve.rejected.deadline"), 1.0);
}

/// Pins the deadline boundary on both edges: a deadline exactly equal
/// to the worker's clock reading is expired ("done strictly before
/// `d`"), and a saturated deadline (`now + huge` clamped to `u64::MAX`)
/// still expires once the clock itself saturates — the `d < now`
/// off-by-one made both unexpirable.
#[test]
fn deadline_equal_to_now_is_expired() {
    let (obs, recorder, clock) = Obs::manual();
    let gate = Arc::new(Gate::default());
    let scorer: Arc<dyn RoiMethod> = Arc::new(GatedScorer {
        gate: Arc::clone(&gate),
    });
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::ZERO)
            .build()
            .unwrap(),
        obs,
    );
    let row = Matrix::from_rows(&[vec![1.0, 2.0]]);
    // Occupy the worker, then queue a request with a 1 ms budget and
    // advance the clock to *exactly* the deadline instant.
    let blocked = engine.submit(&scorer, row.clone(), None).unwrap();
    let doomed = engine
        .submit(&scorer, row, Some(Duration::from_millis(1)))
        .unwrap();
    clock.advance(1_000_000);
    gate.open();
    assert_eq!(blocked.wait().unwrap(), vec![3.0]);
    assert_eq!(doomed.wait(), Err(ScoreError::DeadlineExpired));
    assert_eq!(recorder.counter_value("serve.rejected.deadline"), 1.0);
}

#[test]
fn saturated_deadline_expires_at_clock_saturation() {
    let (obs, recorder, clock) = Obs::manual();
    let gate = Arc::new(Gate::default());
    let scorer: Arc<dyn RoiMethod> = Arc::new(GatedScorer {
        gate: Arc::clone(&gate),
    });
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::ZERO)
            .build()
            .unwrap(),
        obs,
    );
    let row = Matrix::from_rows(&[vec![1.0, 2.0]]);
    let blocked = engine.submit(&scorer, row.clone(), None).unwrap();
    // A deadline so large that `now + d` saturates to u64::MAX...
    let doomed = engine
        .submit(&scorer, row, Some(Duration::from_nanos(u64::MAX)))
        .unwrap();
    // ...must still expire once the clock itself reaches u64::MAX.
    clock.set(u64::MAX);
    gate.open();
    assert_eq!(blocked.wait().unwrap(), vec![3.0]);
    assert_eq!(doomed.wait(), Err(ScoreError::DeadlineExpired));
    assert_eq!(recorder.counter_value("serve.rejected.deadline"), 1.0);
}

/// Panics on the first call, then scores normally — the poisoned-worker
/// recovery fixture.
#[derive(Debug)]
struct PanicOnce {
    armed: AtomicBool,
}

impl RoiMethod for PanicOnce {
    fn method_name(&self) -> &'static str {
        "panic-once"
    }

    fn label(&self) -> String {
        "PanicOnce".to_string()
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
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected scorer fault");
        }
        x.row_iter().map(|row| row[0] * row[1]).collect()
    }

    fn body_to_json(&self) -> Value {
        Value::Null
    }
}

#[test]
fn panicking_scorer_poisons_the_request_not_the_worker() {
    let scorer: Arc<dyn RoiMethod> = Arc::new(PanicOnce {
        armed: AtomicBool::new(true),
    });
    let (obs, recorder) = Obs::in_memory();
    // One worker: the follow-up request must be served by the same
    // thread that caught the panic.
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::ZERO)
            .build()
            .unwrap(),
        obs,
    );
    let row = Matrix::from_rows(&[vec![3.0, 4.0]]);
    let poisoned = engine.submit(&scorer, row.clone(), None).unwrap();
    assert_eq!(poisoned.wait(), Err(ScoreError::WorkerPanicked));
    let healthy = engine.submit(&scorer, row, None).unwrap();
    assert_eq!(healthy.wait().unwrap(), vec![12.0]);
    assert_eq!(recorder.counter_value("serve.worker_panics"), 1.0);
}

#[test]
fn wrong_feature_width_is_rejected_before_queueing() {
    let scorer = fitted_drp(20);
    let n = scorer.n_features().unwrap();
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());
    let narrow = Matrix::from_rows(&[vec![0.0; n - 1]]);
    assert_eq!(
        engine.submit(&scorer, narrow, None).unwrap_err(),
        Rejected::WrongWidth {
            expected: n,
            got: n - 1
        }
    );
}

#[test]
fn unfitted_model_is_rejected_with_typed_error_not_panic() {
    let scorer: Arc<dyn RoiMethod> =
        Arc::from(rdrp::build("drp", &MethodConfig::default()).unwrap());
    assert_eq!(scorer.n_features(), None);
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());
    let row = Matrix::from_rows(&[vec![0.0; 12]]);
    assert_eq!(
        engine.submit(&scorer, row, None).unwrap_err(),
        Rejected::Unfitted
    );
}

#[test]
fn empty_request_answers_immediately() {
    let scorer: Arc<dyn RoiMethod> = Arc::new(PanicOnce {
        armed: AtomicBool::new(true),
    });
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());
    let pending = engine.submit(&scorer, Matrix::zeros(0, 2), None).unwrap();
    assert_eq!(pending.wait().unwrap(), Vec::<f64>::new());
}

#[test]
fn drop_drains_submitted_requests() {
    let scorer = fitted_drp(21);
    let test_x = {
        let gen = CriteoLike::new();
        let mut rng = Prng::seed_from_u64(22);
        gen.sample(50, Population::Base, &mut rng).x
    };
    let expected = scorer.scores_fresh(&test_x, &Obs::disabled());
    let engine = ScoringEngine::start(
        EngineConfig::builder().workers(2).build().unwrap(),
        Obs::disabled(),
    );
    let pending: Vec<_> = (0..8)
        .map(|_| engine.submit(&scorer, test_x.clone(), None).unwrap())
        .collect();
    drop(engine);
    for p in pending {
        assert_eq!(
            p.wait().unwrap(),
            expected,
            "request lost in shutdown drain"
        );
    }
}
