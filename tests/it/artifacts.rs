//! Round-trip property tests for the versioned artifact layer.
//!
//! Every registered method must survive fit → save → load with
//! bitwise-identical scores: the serving layer hot-swaps artifacts by
//! tag, so a loaded model that scores even one ULP differently from the
//! model that produced it would silently corrupt experiments.

use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};
use integration::{malformed_drp_artifacts, unique_tmp};
use linalg::random::Prng;
use rdrp::{DrpConfig, MethodConfig, RdrpConfig};
use uplift::NetConfig;

/// Cheap hyperparameters: enough training to make weights non-trivial,
/// small enough to keep 13 fits fast.
fn cheap_config() -> MethodConfig {
    MethodConfig {
        net: NetConfig {
            epochs: 3,
            ..NetConfig::default()
        },
        rdrp: RdrpConfig {
            drp: DrpConfig {
                epochs: 3,
                ..DrpConfig::default()
            },
            mc_passes: 5,
            ..RdrpConfig::default()
        },
        bootstrap_models: 2,
    }
}

fn tiny_data(seed: u64) -> ExperimentData {
    let sizes = SettingSizes {
        train_sufficient: 600,
        insufficient_fraction: 0.15,
        calibration: 400,
        test: 200,
    };
    let mut rng = Prng::seed_from_u64(seed);
    ExperimentData::build(&CriteoLike::new(), Setting::SuNo, &sizes, &mut rng)
}

#[test]
fn every_registered_method_roundtrips_bitwise() {
    let data = tiny_data(9001);
    let config = cheap_config();
    let obs = obs::Obs::disabled();
    for name in rdrp::method_names() {
        let mut method = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(42);
        method
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let before = method.scores_fresh(&data.test.x, &obs);
        let before_intervals = method.intervals(&data.test.x);

        let path = unique_tmp(name);
        rdrp::save_method(method.as_ref(), &path).expect(name);
        let loaded = rdrp::load_method(&path).expect(name);
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded.method_name(), name);
        assert_eq!(loaded.label(), method.label(), "{name}");
        assert_eq!(
            loaded.n_features(),
            Some(data.test.x.cols()),
            "{name}: loaded artifact lost its input width"
        );
        let after = loaded.scores_fresh(&data.test.x, &obs);
        assert_eq!(before.len(), after.len(), "{name}");
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                b.to_bits() == a.to_bits(),
                "{name}: score {i} drifted across the round trip: {b} vs {a}"
            );
        }
        match (before_intervals, loaded.intervals(&data.test.x)) {
            (None, None) => {}
            (Some(bi), Some(ai)) => {
                assert_eq!(bi.len(), ai.len(), "{name}");
                for (b, a) in bi.iter().zip(&ai) {
                    assert!(
                        b.lo.to_bits() == a.lo.to_bits() && b.hi.to_bits() == a.hi.to_bits(),
                        "{name}: interval drifted: [{}, {}] vs [{}, {}]",
                        b.lo,
                        b.hi,
                        a.lo,
                        a.hi
                    );
                }
            }
            (b, a) => panic!(
                "{name}: interval support changed across round trip: {} vs {}",
                b.is_some(),
                a.is_some()
            ),
        }
    }
}

#[test]
fn artifacts_declare_their_tag_and_format_version() {
    let data = tiny_data(9002);
    let config = cheap_config();
    let obs = obs::Obs::disabled();
    // One representative per family; the full loop above covers fidelity.
    for name in ["tpm-sl", "dr", "drp-mc", "rdrp", "bootstrap-drp"] {
        let mut method = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(7);
        method
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let path = unique_tmp(&format!("tag_{name}"));
        rdrp::save_method(method.as_ref(), &path).expect(name);
        let text = std::fs::read_to_string(&path).expect(name);
        let _ = std::fs::remove_file(&path);
        let value = tinyjson::parse(&text).expect(name);
        let (tag, _body) = rdrp::artifact::decode(&value).expect(name);
        assert_eq!(tag, name);
        assert_eq!(
            value.fetch("format_version").as_f64().ok(),
            Some(rdrp::FORMAT_VERSION as f64),
            "{name}"
        );
    }
}

/// Flips the first digit inside the envelope's body: still valid JSON,
/// but the body no longer hashes to its checksum stamp. `7 ↔ 8` keeps
/// any number it lands in valid (no leading-zero pitfalls).
fn corrupt_body_digit(text: &str) -> String {
    let body_at = text.find("\"body\"").expect("envelope has a body");
    let (i, c) = text[body_at..]
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .expect("body contains a digit");
    let replacement = if c == '7' { '8' } else { '7' };
    let mut out = text.to_string();
    out.replace_range(body_at + i..body_at + i + 1, &replacement.to_string());
    out
}

/// One representative per method family (two-model, direct-rank, DRP,
/// rDRP, bootstrap ensemble) for the corruption sweeps below.
const FAMILY_REPS: [&str; 5] = ["tpm-sl", "dr-mc", "drp", "rdrp", "bootstrap-drp"];

#[test]
fn truncated_and_bit_rotted_artifacts_fail_typed_for_every_family() {
    let data = tiny_data(9004);
    let config = cheap_config();
    let obs = obs::Obs::disabled();
    for name in FAMILY_REPS {
        let mut method = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(23);
        method
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let path = unique_tmp(&format!("corrupt_{name}"));
        rdrp::save_method(method.as_ref(), &path).expect(name);
        let text = std::fs::read_to_string(&path).expect(name);

        // Truncated mid-envelope: unparseable JSON, a typed Serde error
        // — never a panic, never a half-loaded model.
        std::fs::write(&path, &text[..text.len() / 2]).expect(name);
        let err = rdrp::load_method(&path).expect_err(name);
        assert!(
            matches!(err, rdrp::PersistError::Serde(_)),
            "{name}: truncation should fail parsing, got {err:?}"
        );

        // One flipped digit in the body: parses fine, but the checksum
        // catches the rot before a wrong-weights model can serve.
        std::fs::write(&path, corrupt_body_digit(&text)).expect(name);
        let err = rdrp::load_method(&path).expect_err(name);
        assert!(
            matches!(err, rdrp::PersistError::Checksum { .. }),
            "{name}: bit rot should fail the checksum, got {err:?}"
        );

        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn kill_mid_save_keeps_the_old_artifact_loadable_for_every_family() {
    let data = tiny_data(9005);
    let config = cheap_config();
    let obs = obs::Obs::disabled();
    for name in FAMILY_REPS {
        let mut method = rdrp::build(name, &config).expect(name);
        let mut rng = Prng::seed_from_u64(29);
        method
            .fit(&data.train, &data.calibration, &mut rng, &obs)
            .expect(name);
        let path = unique_tmp(&format!("killsave_{name}"));
        rdrp::save_method(method.as_ref(), &path).expect(name);
        let before = std::fs::read_to_string(&path).expect(name);

        // Kill the re-save at every stage of the atomic write path, with
        // both a clean I/O failure and a torn partial write.
        for (point, kind) in [
            ("persist.write", chaos::FaultKind::Io),
            (
                "persist.write",
                chaos::FaultKind::Truncate(before.len() / 2),
            ),
            ("persist.fsync", chaos::FaultKind::Io),
            ("persist.rename", chaos::FaultKind::Io),
        ] {
            let plan = chaos::FaultPlan::new().fail(point, chaos::Trigger::Nth(1), kind.clone());
            let _guard = chaos::install(chaos::Chaos::new(plan, obs.clone()));
            let err = rdrp::save_method(method.as_ref(), &path).expect_err(name);
            assert!(
                matches!(err, rdrp::PersistError::Io(_)),
                "{name}/{point}/{kind:?}: {err:?}"
            );
            // The destination file is byte-identical to the pre-crash
            // artifact and still loads with a valid checksum.
            assert_eq!(
                std::fs::read_to_string(&path).expect(name),
                before,
                "{name}/{point}: interrupted save touched the destination"
            );
            rdrp::load_method(&path)
                .unwrap_or_else(|e| panic!("{name}/{point}: old artifact unloadable: {e}"));
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn loading_a_tampered_tag_is_a_typed_error_naming_known_methods() {
    let data = tiny_data(9003);
    let obs = obs::Obs::disabled();
    let mut method = rdrp::build("dr", &cheap_config()).unwrap();
    let mut rng = Prng::seed_from_u64(11);
    method
        .fit(&data.train, &data.calibration, &mut rng, &obs)
        .unwrap();
    let path = unique_tmp("tampered");
    rdrp::save_method(method.as_ref(), &path).unwrap();
    let text = std::fs::read_to_string(&path)
        .unwrap()
        .replace("\"dr\"", "\"causal-transformer\"");
    std::fs::write(&path, text).unwrap();
    let err = rdrp::load_method(&path).unwrap_err();
    let _ = std::fs::remove_file(&path);
    let msg = err.to_string();
    assert!(
        msg.contains("causal-transformer") && msg.contains("rdrp"),
        "error should name the bad tag and the known methods: {msg}"
    );
}

/// Shape faults a checksum cannot catch — the artifact was written that
/// way — fail the load with a typed error instead of loading and then
/// panicking, or scoring garbage, at the first request.
#[test]
fn malformed_network_shapes_fail_the_load_typed() {
    let data = tiny_data(9006);
    let obs = obs::Obs::disabled();
    let mut method = rdrp::build("drp", &cheap_config()).unwrap();
    let mut rng = Prng::seed_from_u64(31);
    method
        .fit(&data.train, &data.calibration, &mut rng, &obs)
        .unwrap();
    let path = unique_tmp("malformed_drp.json");
    rdrp::save_method(method.as_ref(), &path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    for (fault, text) in malformed_drp_artifacts(&saved) {
        std::fs::write(&path, text).unwrap();
        let err = rdrp::load_method(&path).expect_err(fault);
        assert!(
            matches!(err, rdrp::PersistError::Serde(_)),
            "{fault}: expected a decode error, got {err:?}"
        );
    }
    // The untouched artifact still loads.
    std::fs::write(&path, &saved).unwrap();
    rdrp::load_method(&path).unwrap();
    let _ = std::fs::remove_file(&path);
}
