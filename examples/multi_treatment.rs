//! Multi-treatment campaigns via Divide and Conquer (paper §VI), plus
//! model persistence.
//!
//! ```sh
//! cargo run -p rdrp-examples --release --example multi_treatment
//! ```
//!
//! Three coupon face values compete for one budget. [`PerArm`] trains
//! one rDRP per arm against the shared control group; the
//! multiple-choice greedy then assigns each customer at most one coupon.
//! One arm's model is also saved/reloaded to show the deployment
//! serialization path.

use datasets::generator::Population;
use datasets::multi::MultiCouponGenerator;
use linalg::random::Prng;
use obs::Obs;
use rdrp::{mckp_allocate, KArmRoiMethod, MethodConfig, PerArm};

fn main() {
    let mut rng = Prng::seed_from_u64(21);
    let generator = MultiCouponGenerator::new(3);
    let train = generator.sample(9_000, Population::Base, &mut rng);
    let calibration = generator.sample(3_000, Population::Base, &mut rng);
    let customers = generator.sample(4_000, Population::Base, &mut rng);
    println!(
        "multi-coupon RCT: {} arms + control, {} training rows",
        train.n_levels,
        train.len()
    );

    let mut config = MethodConfig::default();
    config.rdrp.drp.epochs = 25;
    config.rdrp.mc_passes = 25;
    let arms = (1..=3)
        .map(|_| rdrp::build("rdrp", &config))
        .collect::<Result<Vec<_>, _>>()
        .expect("config is valid");
    let mut dc = PerArm::new("rdrp", arms).expect("three arms");
    dc.fit(&train, &calibration, &mut rng, &Obs::disabled())
        .expect("synthetic RCT data is well-formed");
    for (k, arm) in (1..).zip(dc.arms()) {
        let d = arm.as_rdrp().expect("every arm is an rDRP").diagnostics();
        println!(
            "  arm {k}: roi* = {:?}, q̂ = {:.2}, form = {}",
            d.roi_star.map(|v| (v * 1000.0).round() / 1000.0),
            d.qhat,
            d.selected_form.label()
        );
    }

    // Persist arm 2's model and prove the roundtrip is exact.
    let path = std::env::temp_dir().join("rdrp_multi_arm2.json");
    let arm2 = dc.arms()[1].as_ref();
    rdrp::save_method(arm2, &path).expect("save model");
    let reloaded = rdrp::load_method(&path).expect("load model");
    let before = arm2.scores_fresh(&customers.x, &Obs::disabled());
    let after = reloaded.scores_fresh(&customers.x, &Obs::disabled());
    assert_eq!(before, after, "persistence must be bit-exact");
    println!(
        "\narm-2 model saved to {} and reloaded bit-exactly",
        path.display()
    );
    let _ = std::fs::remove_file(path);

    // Allocate one budget across all arms. Comparable (quantile-matched)
    // scores put every arm on the common ROI scale — raw calibrated
    // scores would let the largest-magnitude form monopolize the budget.
    let scores = dc
        .comparable_score_matrix(&customers.x, &Obs::disabled())
        .expect("every arm is an rDRP");
    let costs = customers
        .true_tau_c
        .clone()
        .expect("synthetic ground truth");
    let values = customers
        .true_tau_r
        .clone()
        .expect("synthetic ground truth");
    let budget = 0.25 * costs[0].iter().sum::<f64>();
    let alloc = mckp_allocate(&scores, &costs, budget).expect("allocator inputs are well-formed");
    println!(
        "\nbudget {budget:.1}: treated {} of {} customers",
        alloc.n_treated,
        customers.len()
    );
    for k in 1..=3u8 {
        let n = alloc.assigned.iter().filter(|a| **a == Some(k)).count();
        println!("  coupon arm {k}: {n} customers");
    }
    let captured: f64 = alloc
        .assigned
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|k| values[(k - 1) as usize][i]))
        .sum();
    println!("expected incremental conversions captured: {captured:.1}");
}
