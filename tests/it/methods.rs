//! All ten Table-I methods run end-to-end through the shared harness.

use bench::harness::{run_setting, TABLE1, TABLE2};
use datasets::{CriteoLike, Setting, SettingSizes};

fn tiny_sizes() -> SettingSizes {
    SettingSizes {
        train_sufficient: 3_000,
        insufficient_fraction: 0.15,
        calibration: 1_500,
        test: 3_000,
    }
}

#[test]
fn every_table1_method_produces_a_sane_aucc() {
    let generator = CriteoLike::new();
    let results = run_setting(&generator, Setting::SuNo, &tiny_sizes(), &TABLE1, &[500]);
    assert_eq!(results.len(), 10);
    for r in &results {
        assert!(
            r.aucc.is_finite() && (0.15..0.95).contains(&r.aucc),
            "{}: aucc {}",
            r.method,
            r.aucc
        );
    }
}

#[test]
fn every_table2_method_produces_a_sane_aucc() {
    let generator = CriteoLike::new();
    let results = run_setting(&generator, Setting::InNo, &tiny_sizes(), &TABLE2, &[501]);
    assert_eq!(results.len(), 5);
    for r in &results {
        assert!(
            r.aucc.is_finite() && (0.15..0.95).contains(&r.aucc),
            "{}: aucc {}",
            r.method,
            r.aucc
        );
    }
}

#[test]
fn direct_roi_methods_competitive_with_two_phase() {
    // The paper's coarse claim: DRP-family direct methods are at least
    // competitive with TPM baselines under SuNo. Averaged over two seeds
    // to damp evaluation noise; "competitive" = within 0.05 of the best
    // TPM baseline (the exact ordering is noise at this scale).
    let generator = CriteoLike::new();
    let results = run_setting(
        &generator,
        Setting::SuNo,
        &tiny_sizes(),
        &["tpm-sl", "tpm-xl", "drp", "rdrp"],
        &[502, 503],
    );
    let find = |name: &str| {
        results
            .iter()
            .find(|r| r.method == name)
            .map(|r| r.aucc)
            .expect("method present")
    };
    let best_tpm = find("TPM-SL").max(find("TPM-XL"));
    let best_direct = find("DRP").max(find("rDRP"));
    assert!(
        best_direct > best_tpm - 0.05,
        "direct {best_direct} vs TPM {best_tpm}"
    );
}
