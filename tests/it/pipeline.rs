//! End-to-end Algorithm 4 runs on all three dataset lookalikes.

use datasets::{AlibabaLike, CriteoLike, MeituanLike, Setting};
use integration::{quick_data, quick_rdrp_config};
use linalg::random::Prng;
use rdrp::{Rdrp, SCORING_SEED};

fn full_pipeline_on(generator: &dyn datasets::generator::RctGenerator, seed: u64) {
    let (data, mut rng) = quick_data(generator, Setting::SuNo, seed);
    let mut model = Rdrp::new(quick_rdrp_config()).unwrap();
    model
        .fit_with_calibration(
            &data.train,
            &data.calibration,
            &mut rng,
            &obs::Obs::disabled(),
        )
        .unwrap();

    // Diagnostics are populated and in range.
    let diag = model.diagnostics();
    let roi_star = diag.roi_star.expect("healthy calibration finds roi*");
    assert!((0.0..1.0).contains(&roi_star), "roi* = {roi_star}");
    assert!(diag.qhat > 0.0, "q̂ = {}", diag.qhat);
    assert_eq!(diag.n_calibration, data.calibration.len());

    // Scores are finite and rank better than random on the test set.
    let mut scoring_rng = Prng::seed_from_u64(SCORING_SEED);
    let scores = model.predict_scores(&data.test.x, &mut scoring_rng, &obs::Obs::disabled());
    assert_eq!(scores.len(), data.test.len());
    assert!(scores.iter().all(|s| s.is_finite()));
    let aucc = metrics::aucc_from_labels(&data.test, &scores, 20);
    let mut rng2 = Prng::seed_from_u64(seed + 1);
    let random: Vec<f64> = (0..data.test.len()).map(|_| rng2.uniform()).collect();
    let aucc_rand = metrics::aucc_from_labels(&data.test, &random, 20);
    assert!(
        aucc > aucc_rand - 0.02,
        "{}: rDRP {aucc} vs random {aucc_rand}",
        generator.name()
    );

    // Intervals exist, are ordered, and are clipped to the unit range.
    let intervals = model.predict_intervals(&data.test.x, &mut rng);
    assert_eq!(intervals.len(), data.test.len());
    for iv in &intervals {
        assert!(iv.lo <= iv.hi);
        assert!(iv.lo >= 0.0 && iv.hi <= 1.0);
    }
}

#[test]
fn criteo_pipeline() {
    full_pipeline_on(&CriteoLike::new(), 10);
}

#[test]
fn meituan_pipeline() {
    full_pipeline_on(&MeituanLike::new(), 11);
}

#[test]
fn alibaba_pipeline() {
    full_pipeline_on(&AlibabaLike::new(), 12);
}

#[test]
fn rdrp_handles_every_setting() {
    let generator = CriteoLike::new();
    for (i, setting) in Setting::ALL.iter().enumerate() {
        let (data, mut rng) = quick_data(&generator, *setting, 20 + i as u64);
        let mut model = Rdrp::new(quick_rdrp_config()).unwrap();
        model
            .fit_with_calibration(
                &data.train,
                &data.calibration,
                &mut rng,
                &obs::Obs::disabled(),
            )
            .unwrap();
        let mut scoring_rng = Prng::seed_from_u64(SCORING_SEED);
        let scores = model.predict_scores(&data.test.x, &mut scoring_rng, &obs::Obs::disabled());
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "non-finite scores under {setting}"
        );
    }
}

#[test]
fn insufficient_training_set_is_smaller() {
    let generator = CriteoLike::new();
    let (su, _) = quick_data(&generator, Setting::SuNo, 30);
    let (ins, _) = quick_data(&generator, Setting::InNo, 30);
    assert_eq!(ins.train.len(), (su.train.len() as f64 * 0.15) as usize);
}
