//! Coupon targeting on a food-delivery platform (Meituan-LIFT lookalike).
//!
//! ```sh
//! cargo run -p rdrp-examples --release --example coupon_targeting
//! ```
//!
//! The scenario of the paper's introduction: allocate coupons (binary
//! treatment) to maximize conversions per click-cost. Compares three ways
//! to rank customers — a classical two-phase method, plain DRP, and rDRP
//! — on the same budget, reporting AUCC and captured incremental revenue.

use datasets::generator::{Population, RctGenerator};
use datasets::MeituanLike;
use linalg::random::Prng;
use metrics::aucc_from_labels;
use rdrp::{greedy_allocate, DrpModel, Rdrp, RdrpConfig};
use uplift::Tpm;

fn main() {
    let mut rng = Prng::seed_from_u64(99);
    let generator = MeituanLike::new();
    let train = generator.sample(12_000, Population::Base, &mut rng);
    let calibration = generator.sample(4_000, Population::Base, &mut rng);
    let test = generator.sample(10_000, Population::Base, &mut rng);
    println!(
        "Meituan-style coupon RCT: {} features, {} train rows",
        train.n_features(),
        train.len()
    );

    // Candidate rankers.
    let mut tpm = Tpm::xlearner();
    tpm.fit(&train, &mut rng)
        .expect("synthetic RCT data is well-formed");
    let tpm_scores = tpm.predict_roi(&test.x);

    let mut drp = DrpModel::new(RdrpConfig::default().drp);
    drp.fit(&train, &mut rng, &obs::Obs::disabled())
        .expect("synthetic RCT data is well-formed");
    let drp_scores = drp.predict_roi(&test.x, &obs::Obs::disabled());

    let mut rdrp = Rdrp::new(RdrpConfig::default()).expect("default config is valid");
    rdrp.fit_with_calibration(&train, &calibration, &mut rng, &obs::Obs::disabled())
        .expect("synthetic RCT data is well-formed");
    let rdrp_scores = rdrp.predict_scores(&test.x, &mut rng, &obs::Obs::disabled());

    // Evaluate rankings.
    println!("\nranking quality (AUCC, higher is better):");
    for (name, scores) in [
        ("TPM-XL", &tpm_scores),
        ("DRP", &drp_scores),
        ("rDRP", &rdrp_scores),
    ] {
        println!("  {name:<8} {:.4}", aucc_from_labels(&test, scores, 20));
    }

    // Spend the same coupon budget with each ranking and compare captured
    // incremental conversions (ground truth known for synthetic data).
    let costs = test.true_tau_c.clone().expect("synthetic ground truth");
    let truth_r = test.true_tau_r.as_ref().expect("ground truth");
    let budget = 0.25 * costs.iter().sum::<f64>();
    println!("\nbudgeted campaign (25% of total incremental cost):");
    for (name, scores) in [
        ("TPM-XL", &tpm_scores),
        ("DRP", &drp_scores),
        ("rDRP", &rdrp_scores),
    ] {
        let alloc = greedy_allocate(scores, &costs, budget);
        let captured: f64 = (0..test.len())
            .filter(|&i| alloc.treated[i])
            .map(|i| truth_r[i])
            .sum();
        println!(
            "  {name:<8} treats {:>5} users, captures {captured:>7.1} incremental conversions",
            alloc.n_treated
        );
    }
}
