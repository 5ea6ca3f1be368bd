//! Scalar-vs-kernel differential suite.
//!
//! Every registry method is fitted once and scored twice — through the
//! always-available f64 scalar path (`scores_fresh`) and through the
//! columnar f32 kernel path (`scores_block`) — and the two are compared
//! under per-family gates:
//!
//! * **Tree-backed TPM methods** (`tpm-sl`, `tpm-cf`): the level-order
//!   traversal performs exactly the comparisons of the recursive walk,
//!   so on f32-representable inputs the scores are **bitwise equal**.
//! * **MC-sweep methods** (anything with `rowwise() == false`): the
//!   block path falls back to the scalar path, so scores are trivially
//!   bitwise equal.
//! * **Net-backed methods**: the f32 GEMM and activation kernels round
//!   differently from f64, so the gate is a tolerance. Ratio-of-uplifts
//!   families (`tpm-dragonnet` …) additionally pass through `safe_div`'s
//!   cost floor, which amplifies component rounding — their gate is
//!   looser than the directly-scored families'.
//!
//! The CI `kernel-parity` job runs this file **twice**: once with
//! `RDRP_KERNEL_DISPATCH=scalar` and once with best-available dispatch.
//! Block scores are bitwise dispatch-invariant, so both processes must
//! observe identical numbers — a failure under exactly one mode
//! pinpoints a kernel bug rather than a tolerance problem.

use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};
use linalg::block::{best_dispatch, Dispatch, FeatureBlock, PackedGemm};
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;
use rdrp::{DrpConfig, MethodConfig, RdrpConfig};
use serve::{EngineConfig, ScoringEngine};
use std::sync::Arc;
use std::time::Duration;
use trees::{
    CausalForest, CausalForestConfig, FlatCausalForest, FlatForest, RandomForest,
    RandomForestConfig,
};
use uplift::NetConfig;

/// Casts a matrix through f32 and back: inputs both paths see bitwise
/// identically, making the tree families' bitwise gate well-defined.
fn f32_rounded(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    out.map_mut(|v| v as f32 as f64);
    out
}

/// Small nets and ensembles: the suite pins parity, not model quality.
fn small_config() -> MethodConfig {
    MethodConfig {
        net: NetConfig {
            epochs: 3,
            hidden: 8,
            rep_dim: 8,
            head_hidden: 4,
            ..NetConfig::default()
        },
        rdrp: RdrpConfig {
            drp: DrpConfig {
                epochs: 3,
                hidden: 8,
                ..DrpConfig::default()
            },
            mc_passes: 5,
            ..RdrpConfig::default()
        },
        bootstrap_models: 2,
    }
}

fn small_data() -> ExperimentData {
    let sizes = SettingSizes {
        train_sufficient: 600,
        insufficient_fraction: 0.15,
        calibration: 400,
        test: 300,
    };
    let mut rng = Prng::seed_from_u64(4242);
    ExperimentData::build(&CriteoLike::new(), Setting::SuNo, &sizes, &mut rng)
}

/// Tree-backed TPM methods: bitwise on f32-representable inputs.
/// (`tpm-xl` is absent: its ridge base learners score through the f32
/// GEMM, putting it under the net-family tolerance gate instead.)
const TREE_FAMILIES: [&str; 2] = ["tpm-sl", "tpm-cf"];

/// Ratio-of-uplifts TPM methods with f32-scored components (nets or
/// ridge) feeding `safe_div` with a cost floor.
const RATIO_FAMILIES: [&str; 5] = [
    "tpm-xl",
    "tpm-dragonnet",
    "tpm-tarnet",
    "tpm-offsetnet",
    "tpm-snet",
];

#[test]
fn every_registry_method_scores_block_matches_scalar_per_family_gate() {
    let data = small_data();
    let config = small_config();
    let obs = Obs::disabled();
    let x = f32_rounded(&data.test.x);
    let names = rdrp::method_names();
    assert_eq!(names.len(), 13, "registry grew: extend the family gates");
    for name in names {
        let mut method = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(42);
        method
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let scalar = method.scores_fresh(&x, &obs);
        let block = method.scores_block(&x, &obs);
        assert_eq!(scalar.len(), block.len(), "{name}: length mismatch");

        // Tree traversal is exact; non-rowwise (MC-sweep) methods fall
        // back to the scalar path. Both must agree bitwise.
        let bitwise = TREE_FAMILIES.contains(&name) || !method.rowwise();
        if bitwise {
            for (i, (s, b)) in scalar.iter().zip(&block).enumerate() {
                assert!(
                    s.to_bits() == b.to_bits(),
                    "{name}: row {i} not bitwise: scalar {s} vs block {b}"
                );
            }
            continue;
        }
        // Net families: f32 rounding, scaled by the score magnitude.
        // The ratio families inherit `safe_div` amplification on top.
        let tol = if RATIO_FAMILIES.contains(&name) {
            2e-2
        } else {
            1e-3
        };
        for (i, (s, b)) in scalar.iter().zip(&block).enumerate() {
            assert!(
                (s - b).abs() <= tol * (1.0 + s.abs()),
                "{name}: row {i} outside the f32 gate: scalar {s} vs block {b}"
            );
        }
    }
}

#[test]
fn scores_block_is_deterministic() {
    let data = small_data();
    let obs = Obs::disabled();
    let mut method = rdrp::build("drp", &small_config()).unwrap();
    let mut rng = Prng::seed_from_u64(7);
    method
        .fit(&data.train, &data.calibration, &mut rng, &obs)
        .unwrap();
    let a = method.scores_block(&data.test.x, &obs);
    let b = method.scores_block(&data.test.x, &obs);
    assert_eq!(a, b);
}

/// GEMM property sweep over ragged shapes: every row-tile and
/// column-panel remainder against the f64 `matmul` oracle, in both
/// dispatch modes, plus the bitwise dispatch-invariance pin.
#[test]
fn packed_gemm_tracks_matmul_oracle_over_ragged_shapes() {
    let mut rng = Prng::seed_from_u64(31);
    for &rows in &[0usize, 1, 15, 16, 17, 33, 64] {
        for &k in &[1usize, 5, 12] {
            for &n in &[1usize, 3, 4, 5, 9] {
                let x = Matrix::from_vec(rows, k, rng.gaussian_vec(rows * k));
                let w = Matrix::from_vec(k, n, rng.gaussian_vec(k * n));
                let bias = rng.gaussian_vec(n);
                let mut want = x.matmul(&w).unwrap();
                want.add_row_vector_mut(&bias).unwrap();
                let packed = PackedGemm::pack(&w, &bias);
                let a = FeatureBlock::from_matrix(&x);
                let scalar = packed.apply(&a, Dispatch::Scalar);
                let best = packed.apply(&a, best_dispatch());
                for r in 0..rows {
                    for c in 0..n {
                        assert_eq!(
                            scalar.get(r, c).to_bits(),
                            best.get(r, c).to_bits(),
                            "rows={rows} k={k} n={n} [{r},{c}]: dispatch divergence"
                        );
                        let diff = (f64::from(best.get(r, c)) - want.get(r, c)).abs();
                        assert!(
                            diff < 1e-4,
                            "rows={rows} k={k} n={n} [{r},{c}]: {} vs oracle {}",
                            best.get(r, c),
                            want.get(r, c)
                        );
                    }
                }
            }
        }
    }
}

/// Level-order batch traversal against the recursive reference, bitwise,
/// for both flattened ensemble kinds at integration scale.
#[test]
fn flat_traversal_is_bitwise_equal_to_recursive_for_every_ensemble_kind() {
    let n = 777; // crosses many MR=16 tiles, odd remainder
    let d = 6;
    let mut rng = Prng::seed_from_u64(11);
    let x = Matrix::from_vec(n, d, rng.gaussian_vec(n * d));
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let r = x.row(i);
            (r[0] - r[2]).tanh() + 0.5 * r[4] + 0.05 * rng.gaussian()
        })
        .collect();
    let t: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
    let xr = f32_rounded(&x);
    let xb = FeatureBlock::from_matrix(&x);

    let forest = RandomForest::fit(&x, &y, &RandomForestConfig::default(), &mut rng);
    assert_eq!(
        FlatForest::from_forest(&forest).predict_block(&xb),
        forest.predict(&xr),
        "random forest traversal diverged"
    );

    let cf = CausalForest::fit(&x, &t, &y, &CausalForestConfig::default(), &mut rng);
    assert_eq!(
        FlatCausalForest::from_forest(&cf).predict_block(&xb),
        cf.predict(&xr),
        "causal forest traversal diverged"
    );
}

/// `EngineConfig::block_kernels` end-to-end: the engine routes batches
/// through `score_block` when (and only when) the flag is set.
#[test]
fn engine_block_kernels_flag_selects_the_block_path() {
    let data = small_data();
    let obs = Obs::disabled();
    let mut method = rdrp::build("drp", &small_config()).unwrap();
    let mut rng = Prng::seed_from_u64(8);
    method
        .fit(&data.train, &data.calibration, &mut rng, &obs)
        .unwrap();
    let x = f32_rounded(&data.test.x);
    let want_scalar = method.scores_fresh(&x, &obs);
    let want_block = method.scores_block(&x, &obs);
    let scorer: Arc<dyn rdrp::RoiMethod> = Arc::from(method);

    for (block_kernels, want) in [(false, &want_scalar), (true, &want_block)] {
        let engine = ScoringEngine::start(
            EngineConfig::builder()
                .workers(1)
                .max_wait(Duration::ZERO)
                .block_kernels(block_kernels)
                .build()
                .expect("valid test config"),
            Obs::disabled(),
        );
        let got = engine
            .submit(&scorer, x.clone(), None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            got, *want,
            "block_kernels={block_kernels}: engine scores diverge from the direct path"
        );
    }
}
