//! K-arm differential and golden-artifact tests.
//!
//! Two guarantees pin the treatment-axis refactor:
//!
//! 1. **Binary is K = 2, bitwise.** Every golden method family fit
//!    through the K-arm surface on the binary data lifted to
//!    [`datasets::multi::MultiRctDataset`] must reproduce the committed
//!    binary golden fixtures exactly — same scores bit-for-bit, same
//!    artifact byte-for-byte. A divergence means the K-arm path is not
//!    a refactor but a behavior change.
//! 2. **K-arm artifacts and fits are stable.** One committed K = 3
//!    fixture per K-arm family, loaded and scored byte-for-byte, exactly
//!    like the binary goldens in `golden.rs`; and refitting each family
//!    reproduces its fixture byte-for-byte.
//!
//! Regenerate the K-arm fixtures after an *intentional* format change:
//!
//! ```text
//! cargo test -p integration --test karm -- --ignored regenerate
//! ```

use datasets::multi::{MultiCouponGenerator, MultiRctDataset};
use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};
use integration::unique_tmp;
use linalg::random::Prng;
use rdrp::{DrpConfig, MethodConfig, RdrpConfig};
use std::path::{Path, PathBuf};
use uplift::NetConfig;

/// The same representative families `golden.rs` pins.
const FAMILIES: [&str; 6] = [
    "tpm-sl",
    "tpm-tarnet",
    "dr-mc",
    "drp",
    "rdrp",
    "bootstrap-drp",
];

/// K-arm golden families: the native KTPM methods plus one per-arm
/// lifted binary method, all at K = 3.
const KARM_FAMILIES: [&str; 4] = ["karm-tpm-sl", "karm-tpm-xl", "karm-net", "drp"];
const KARM_GOLDEN_ARMS: u8 = 3;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/artifacts")
}

/// Identical to `golden.rs::golden_config` — the differential tests
/// must fit the exact model the committed fixtures hold.
fn golden_config() -> MethodConfig {
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

fn golden_data() -> ExperimentData {
    let sizes = SettingSizes {
        train_sufficient: 600,
        insufficient_fraction: 0.15,
        calibration: 400,
        test: 100,
    };
    let mut rng = Prng::seed_from_u64(777);
    ExperimentData::build(&CriteoLike::new(), Setting::SuNo, &sizes, &mut rng)
}

/// K = 3 golden data from the multi-arm generator, fixed seed.
fn karm_golden_data() -> (MultiRctDataset, MultiRctDataset, MultiRctDataset) {
    let gen = MultiCouponGenerator::new(KARM_GOLDEN_ARMS - 1);
    let mut rng = Prng::seed_from_u64(777);
    let train = gen.sample(600, datasets::generator::Population::Base, &mut rng);
    let cal = gen.sample(400, datasets::generator::Population::Base, &mut rng);
    let test = gen.sample(100, datasets::generator::Population::Base, &mut rng);
    (train, cal, test)
}

/// Every binary family, fit through the K-arm surface at K = 2 on the
/// lifted binary data, must reproduce the committed binary golden
/// fixtures: scores bit-for-bit and the artifact byte-for-byte.
#[test]
fn k2_fit_reproduces_every_binary_golden_fixture() {
    let data = golden_data();
    let config = golden_config();
    let obs = obs::Obs::disabled();
    let train = MultiRctDataset::from_binary(&data.train);
    let cal = MultiRctDataset::from_binary(&data.calibration);
    for name in FAMILIES {
        let mut method = rdrp::build_karm(name, 2, &config).expect(name);
        let mut rng = Prng::seed_from_u64(1234);
        method.fit(&train, &cal, &mut rng, &obs).expect(name);

        // Scores: row 0 of the (K−1)×n matrix is the binary score
        // vector, and must match the committed fixture bitwise.
        let matrix = method.score_matrix(&data.test.x, &obs);
        assert_eq!(matrix.len(), 1, "{name}: K = 2 means one scored arm");
        let expected = fixture_dir().join(format!("{name}.scores.json"));
        let want: Vec<f64> =
            tinyjson::from_str(&std::fs::read_to_string(&expected).expect(name)).expect(name);
        assert_eq!(matrix[0].len(), want.len(), "{name}");
        for (i, (got, exp)) in matrix[0].iter().zip(&want).enumerate() {
            assert!(
                got.to_bits() == exp.to_bits(),
                "{name}: K-arm score {i} diverged from the binary golden \
                 fixture: got {got}, expected {exp}"
            );
        }

        // Artifact: a K = 2 save emits the v1 binary envelope, and must
        // be byte-identical to saving the same model fit through the
        // binary path.
        let mut binary = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(1234);
        binary
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let karm_path = unique_tmp(&format!("karm_{name}.json"));
        let binary_path = unique_tmp(&format!("binary_{name}.json"));
        rdrp::save_karm_method(method.as_ref(), &karm_path).expect(name);
        rdrp::save_method(binary.as_ref(), &binary_path).expect(name);
        let karm_bytes = std::fs::read(&karm_path).expect(name);
        let binary_bytes = std::fs::read(&binary_path).expect(name);
        assert!(
            karm_bytes == binary_bytes,
            "{name}: K = 2 artifact bytes differ from the binary save"
        );
        // The body must also match the *committed* fixture semantically
        // (the fixtures predate the checksum field, so raw bytes differ
        // by exactly that envelope addition).
        let fixture: tinyjson::Value = tinyjson::from_str(
            &std::fs::read_to_string(fixture_dir().join(format!("{name}.json"))).expect(name),
        )
        .expect(name);
        let saved: tinyjson::Value =
            tinyjson::from_str(&String::from_utf8(karm_bytes).expect(name)).expect(name);
        assert_eq!(
            tinyjson::to_string(fixture.fetch("body")),
            tinyjson::to_string(saved.fetch("body")),
            "{name}: K = 2 artifact body diverged from the committed fixture"
        );
        // And the binary loader accepts the K = 2 save as its own.
        let reloaded = rdrp::load_method(&karm_path).expect(name);
        assert_eq!(reloaded.method_name(), name);
        for f in [karm_path, binary_path] {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// The committed K = 3 golden fixtures load through `load_karm_method`
/// and score byte-for-byte.
#[test]
fn karm_golden_artifacts_load_and_score_byte_for_byte() {
    let (_, _, test) = karm_golden_data();
    let obs = obs::Obs::disabled();
    for name in KARM_FAMILIES {
        let artifact = fixture_dir().join(format!("karm-k3-{name}.json"));
        let expected = fixture_dir().join(format!("karm-k3-{name}.scores.json"));
        assert!(
            artifact.is_file() && expected.is_file(),
            "{name}: missing K-arm golden fixture; run \
             `cargo test -p integration --test karm -- --ignored regenerate`"
        );
        let method = rdrp::load_karm_method(&artifact)
            .unwrap_or_else(|e| panic!("{name}: K-arm golden artifact no longer loads: {e}"));
        assert_eq!(method.method_name(), name);
        assert_eq!(method.n_arms(), KARM_GOLDEN_ARMS);
        let matrix = method.score_matrix(&test.x, &obs);
        let want: Vec<Vec<f64>> =
            tinyjson::from_str(&std::fs::read_to_string(&expected).expect(name)).expect(name);
        assert_eq!(matrix.len(), want.len(), "{name}");
        for (k, (got_row, want_row)) in matrix.iter().zip(&want).enumerate() {
            assert_eq!(got_row.len(), want_row.len(), "{name} arm {k}");
            for (i, (got, exp)) in got_row.iter().zip(want_row).enumerate() {
                assert!(
                    got.to_bits() == exp.to_bits(),
                    "{name}: arm {} score {i} diverged from the K-arm \
                     golden fixture: got {got}, expected {exp}. If the \
                     format change was intentional, regenerate.",
                    k + 1
                );
            }
        }
    }
}

/// A v2 (K-arm) artifact must be refused by the binary loader with a
/// pointer at the K-arm one, and round-trip bitwise through its own.
#[test]
fn karm_artifacts_are_versioned_and_fenced_from_the_binary_loader() {
    for name in KARM_FAMILIES {
        let artifact = fixture_dir().join(format!("karm-k3-{name}.json"));
        let text = std::fs::read_to_string(&artifact).expect(name);
        assert!(
            text.contains("\"format_version\": 2") && text.contains("\"n_arms\": 3"),
            "{name}: K-arm fixture is not a v2 envelope"
        );
        let err = rdrp::load_method(&artifact).expect_err(name);
        assert!(
            err.to_string().contains("load_karm_method"),
            "{name}: binary loader should point at load_karm_method, \
             said: {err}"
        );
    }
}

/// Fits `name` at K = 3 on the K-arm golden data at seed 1234, saves
/// the artifact to `artifact`, and writes its score matrix on the golden
/// test rows to `scores`: the recipe the committed K-arm fixtures hold.
fn write_karm_golden(name: &str, artifact: &Path, scores: &Path) {
    let (train, cal, test) = karm_golden_data();
    let obs = obs::Obs::disabled();
    let mut method = rdrp::build_karm(name, KARM_GOLDEN_ARMS, &golden_config()).expect(name);
    let mut rng = Prng::seed_from_u64(1234);
    method.fit(&train, &cal, &mut rng, &obs).expect(name);
    rdrp::save_karm_method(method.as_ref(), artifact).expect(name);
    let matrix = method.score_matrix(&test.x, &obs);
    std::fs::write(scores, tinyjson::to_string_pretty(&matrix)).expect(name);
}

/// Refitting every K = 3 family reproduces its committed artifact and
/// score matrix byte for byte, which pins the K-arm fits themselves (the
/// per-arm lifted DRP, the KTPM learners and `nn::train_arm_heads`), not
/// only loading.
#[test]
fn karm_k3_fit_reproduces_every_golden_fixture_byte_for_byte() {
    for name in KARM_FAMILIES {
        let artifact = unique_tmp(&format!("karm_k3_{name}.json"));
        let scores = unique_tmp(&format!("karm_k3_{name}.scores.json"));
        write_karm_golden(name, &artifact, &scores);
        for (path, fixture) in [
            (artifact, format!("karm-k3-{name}.json")),
            (scores, format!("karm-k3-{name}.scores.json")),
        ] {
            let got = std::fs::read(&path).expect(name);
            let want = std::fs::read(fixture_dir().join(&fixture)).expect(name);
            assert!(
                got == want,
                "{name}: the refit {fixture} differs from the committed fixture"
            );
            let _ = std::fs::remove_file(path);
        }
    }
}

#[test]
#[ignore = "regenerates the committed K-arm golden fixtures; run only after an intentional format change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_dir()).unwrap();
    for name in KARM_FAMILIES {
        write_karm_golden(
            name,
            &fixture_dir().join(format!("karm-k3-{name}.json")),
            &fixture_dir().join(format!("karm-k3-{name}.scores.json")),
        );
    }
}
