//! End-to-end robustness: corrupted inputs and diverging optimizers must
//! surface as typed errors (or recover via rollback) — never as panics.

use datasets::generator::{Population, RctGenerator};
use datasets::CriteoLike;
use linalg::random::Prng;
use rdrp::{DegradedMode, DrpConfig, Rdrp, RdrpConfig, SCORING_SEED};
use uplift::FitError;

fn quick_config() -> RdrpConfig {
    RdrpConfig {
        drp: DrpConfig {
            epochs: 8,
            ..DrpConfig::default()
        },
        mc_passes: 10,
        ..RdrpConfig::default()
    }
}

#[test]
fn nan_features_are_a_typed_error_not_a_panic() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(0);
    let mut data = gen.sample(2000, Population::Base, &mut rng);
    data.x.set(17, 0, f64::NAN);
    let mut m = Rdrp::new(quick_config()).unwrap();
    let err = m.fit(&data, &mut rng).unwrap_err();
    assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn nan_labels_are_a_typed_error_not_a_panic() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(1);
    let mut data = gen.sample(2000, Population::Base, &mut rng);
    data.y_r[3] = f64::NAN;
    data.y_c[999] = f64::INFINITY;
    let mut m = Rdrp::new(quick_config()).unwrap();
    let err = m.fit(&data, &mut rng).unwrap_err();
    assert!(matches!(err, FitError::InvalidData(_)), "{err:?}");
}

#[test]
fn nan_calibration_set_is_a_typed_error_not_a_panic() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(2);
    let train = gen.sample(2000, Population::Base, &mut rng);
    let mut cal = gen.sample(500, Population::Base, &mut rng);
    cal.x.set(0, 0, f64::NAN);
    let mut m = Rdrp::new(quick_config()).unwrap();
    // The DRP trains fine; the corruption is only seen when the MC
    // forward passes hit the calibration features and the conformal
    // scores go non-finite.
    let result = m.fit_with_calibration(&train, &cal, &mut rng, &obs::Obs::disabled());
    match result {
        Err(FitError::Calibration(_)) | Err(FitError::InvalidData(_)) => {}
        other => panic!("expected a typed calibration error, got {other:?}"),
    }
}

#[test]
fn diverging_learning_rate_errors_or_recovers_never_panics() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(3);
    let data = gen.sample(2000, Population::Base, &mut rng);
    // An absurd learning rate with gradient clipping disabled: the loss
    // explodes within an epoch. The trainer's sentinels must either roll
    // back and retry at a lower rate (Ok) or exhaust the retry budget
    // into TrainError::Diverged (Err) — both acceptable; a panic is not.
    let mut m = Rdrp::new(RdrpConfig {
        drp: DrpConfig {
            lr: 1e9,
            grad_clip: 0.0,
            epochs: 5,
            ..DrpConfig::default()
        },
        ..quick_config()
    })
    .unwrap();
    match m.fit(&data, &mut rng) {
        Ok(()) => {
            // Recovery path: the model must still predict finite scores.
            let mut scoring_rng = Prng::seed_from_u64(SCORING_SEED);
            let scores = m.predict_scores(&data.x, &mut scoring_rng, &obs::Obs::disabled());
            assert!(scores.iter().all(|s| s.is_finite()));
        }
        Err(FitError::Train(nn::TrainError::Diverged { attempts, .. })) => {
            assert_eq!(attempts, nn::TrainConfig::default().max_divergence_retries);
        }
        Err(other) => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn degenerate_uncertainty_end_to_end_through_the_roi_model_trait() {
    // mc_dropout = 0 makes every MC pass identical; the pipeline must
    // serve the plain DRP ranking with the machine-readable flag set.
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(4);
    let data = gen.sample(3000, Population::Base, &mut rng);
    let mut m = Rdrp::new(RdrpConfig {
        mc_dropout: 0.0,
        ..quick_config()
    })
    .unwrap();
    m.fit(&data, &mut rng).unwrap();
    assert_eq!(m.degraded(), Some(DegradedMode::DegenerateUncertainty));
    let test = gen.sample(400, Population::Base, &mut rng);
    let mut scoring_rng = Prng::seed_from_u64(SCORING_SEED);
    let scores = m.predict_scores(&test.x, &mut scoring_rng, &obs::Obs::disabled());
    assert!(scores.iter().all(|s| s.is_finite()));
    assert_eq!(scores, m.drp().predict_roi(&test.x, &obs::Obs::disabled()));
}
