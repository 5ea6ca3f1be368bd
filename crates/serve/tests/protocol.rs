//! Registry resolution and the JSONL wire protocol, end to end over
//! in-memory transports. Session output is pinned byte-for-byte.

use datasets::generator::{Population, RctGenerator};
use datasets::CriteoLike;
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;
use rdrp::{MethodConfig, RoiMethod};
use serve::protocol::{render_error, render_scores, rows_to_matrix, ScoreRequest, WireError};
use serve::{
    run_session, EngineConfig, JsonlCodec, ModelRegistry, ScoringEngine, SessionLimits,
    DEFAULT_MODEL,
};
use std::io::Cursor;
use std::sync::Arc;

fn fitted_drp(seed: u64) -> Arc<dyn RoiMethod> {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(seed);
    let train = gen.sample(1_500, Population::Base, &mut rng);
    let mut config = MethodConfig::default();
    config.rdrp.drp.epochs = 3;
    let mut model = rdrp::build("drp", &config).unwrap();
    // DRP has no calibration stage; the training set stands in.
    model
        .fit(&train, &train, &mut rng, &Obs::disabled())
        .unwrap();
    Arc::from(model)
}

/// Runs one JSONL session over in-memory transports.
fn serve_jsonl(
    input: String,
    engine: &ScoringEngine,
    registry: &ModelRegistry,
    limits: &SessionLimits,
) -> String {
    let mut output = Vec::new();
    let mut codec = JsonlCodec::new();
    run_session(
        Cursor::new(input),
        &mut output,
        &mut codec,
        engine,
        registry,
        limits,
    )
    .unwrap();
    String::from_utf8(output).unwrap()
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rdrp_serve_{name}_{}.json", std::process::id()))
}

#[test]
fn registry_resolves_newest_version_and_hot_swaps() {
    let registry = ModelRegistry::new();
    assert!(registry.is_empty());
    let v1 = fitted_drp(1);
    let v2 = fitted_drp(2);
    let probe = Matrix::from_rows(&[vec![0.25; v1.n_features().unwrap()]]);
    let s1 = v1.scores_fresh(&probe, &Obs::disabled());
    let s2 = v2.scores_fresh(&probe, &Obs::disabled());
    assert_ne!(s1, s2, "differently seeded fits should disagree");

    registry.insert("promo", "1", v1);
    registry.insert("promo", "2", v2);
    assert_eq!(registry.len(), 2);

    let mut ws = nn::Workspace::new();
    let obs = Obs::disabled();
    let latest = registry.get("promo", None).unwrap();
    assert_eq!(latest.scores(&probe, &mut ws, &obs), s2);
    let pinned = registry.get("promo", Some("1")).unwrap();
    assert_eq!(pinned.scores(&probe, &mut ws, &obs), s1);
    assert!(registry.get("promo", Some("3")).is_none());
    assert!(registry.get("absent", None).is_none());

    // Hot swap: slot 1 now serves the v2 weights; the Arc the earlier
    // get() handed out still scores as v1.
    registry.insert("promo", "1", fitted_drp(2));
    let swapped = registry.get("promo", Some("1")).unwrap();
    assert_eq!(swapped.scores(&probe, &mut ws, &obs), s2);
    assert_eq!(pinned.scores(&probe, &mut ws, &obs), s1);
}

#[test]
fn registry_loads_persisted_models_and_rejects_unfitted() {
    let model = fitted_drp(3);
    let probe = Matrix::from_rows(&[vec![0.1; model.n_features().unwrap()]]);
    let expected = model.scores_fresh(&probe, &Obs::disabled());

    let path = tmp("fitted");
    rdrp::save_method(model.as_ref(), &path).unwrap();
    let registry = ModelRegistry::new();
    registry.load(DEFAULT_MODEL, "1", &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let loaded = registry.get(DEFAULT_MODEL, None).unwrap();
    let mut ws = nn::Workspace::new();
    assert_eq!(loaded.scores(&probe, &mut ws, &Obs::disabled()), expected);

    let path = tmp("unfitted");
    let unfitted = rdrp::build("drp", &MethodConfig::default()).unwrap();
    rdrp::save_method(unfitted.as_ref(), &path).unwrap();
    let err = registry.load("blank", "1", &path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        err,
        serve::RegistryError::Unfitted { ref name } if name == "blank"
    ));
    assert!(registry.get("blank", None).is_none());
}

/// The registry dispatches on the artifact's embedded method tag: the
/// same `load` call serves an rDRP, a TPM, or any other registered
/// method, and hot-swapping between families is just another insert.
#[test]
fn registry_serves_any_method_family_by_artifact_tag() {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(11);
    let train = gen.sample(1_200, Population::Base, &mut rng);
    let cal = gen.sample(600, Population::Base, &mut rng);
    let probe = gen.sample(4, Population::Base, &mut rng).x;

    let mut config = rdrp::MethodConfig::default();
    config.rdrp.drp.epochs = 3;
    config.rdrp.mc_passes = 5;
    let mut tpm = rdrp::methods::build("tpm-xl", &config).unwrap();
    tpm.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
    let expected = tpm.scores_fresh(&probe, &Obs::disabled());

    let path = tmp("tagdispatch");
    rdrp::save_method(tpm.as_ref(), &path).unwrap();
    let registry = ModelRegistry::new();
    registry.load(DEFAULT_MODEL, "1", &path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let served = registry.get(DEFAULT_MODEL, None).unwrap();
    let mut ws = nn::Workspace::new();
    assert_eq!(served.n_features(), Some(probe.cols()));
    assert_eq!(served.scores(&probe, &mut ws, &Obs::disabled()), expected);
}

#[test]
fn request_lines_parse_with_and_without_optional_fields() {
    let parse = tinyjson::from_str::<ScoreRequest>;
    let full = parse(
        r#"{"id": "r1", "model": "m", "version": "7", "rows": [[1.0, 2.0]], "deadline_ms": 50}"#,
    )
    .unwrap();
    assert_eq!(full.id, "r1");
    assert_eq!(full.model.as_deref(), Some("m"));
    assert_eq!(full.version.as_deref(), Some("7"));
    assert_eq!(full.rows, vec![vec![1.0, 2.0]]);
    assert_eq!(full.deadline_ms, Some(50.0));

    let minimal = parse(r#"{"id": "r2", "rows": []}"#).unwrap();
    assert_eq!(minimal.id, "r2");
    assert_eq!(minimal.model, None);
    assert_eq!(minimal.version, None);
    assert_eq!(minimal.deadline_ms, None);

    assert!(parse("not json").is_err());
    assert!(parse(r#"{"rows": [[1.0]]}"#).is_err(), "id required");
}

#[test]
fn response_rendering_roundtrips_floats_exactly() {
    let scores = [0.1 + 0.2, f64::MIN_POSITIVE, -1.5e300, 0.0];
    let line = render_scores("r1", &scores);
    let parsed = tinyjson::parse(&line).unwrap();
    assert_eq!(parsed.fetch("id").as_str().unwrap(), "r1");
    let back: Vec<f64> = parsed
        .fetch("scores")
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(back, scores, "shortest-roundtrip encoding must be exact");
    assert_eq!(
        render_error("r2", &WireError::new("bad_request", "boom")),
        r#"{"id":"r2","error":"boom","code":"bad_request"}"#
    );
    assert_eq!(
        render_error(
            "r3",
            &WireError {
                code: "overloaded",
                message: "shedding".to_string(),
                retry_after_ms: Some(250),
            }
        ),
        r#"{"id":"r3","error":"shedding","code":"overloaded","retry_after_ms":250}"#
    );
}

#[test]
fn ragged_rows_are_rejected_not_panicked() {
    let err = rows_to_matrix(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
    assert!(err.contains("row 1"), "unhelpful message: {err}");
    assert!(rows_to_matrix(&[]).unwrap().rows() == 0);
}

/// The full loop: requests in, responses out, in request order, with
/// per-line errors that never tear down the stream — and scores bitwise
/// equal to the direct inference path.
#[test]
fn jsonl_session_end_to_end_matches_direct_scores() {
    let model = fitted_drp(4);
    let n = model.n_features().unwrap();
    let registry = ModelRegistry::new();
    registry.insert(DEFAULT_MODEL, "1", Arc::clone(&model));
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());

    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(5);
    let x = gen.sample(6, Population::Base, &mut rng).x;
    let rows: Vec<Vec<f64>> = x.row_iter().map(<[f64]>::to_vec).collect();
    let expected = model.scores_fresh(&x, &Obs::disabled());

    let input = [
        format!(
            r#"{{"id": "good", "rows": {}}}"#,
            tinyjson::to_string(&rows)
        ),
        String::new(), // blank lines are skipped, not answered
        r#"{"id": "bad-model", "model": "nope", "rows": [[0.0]]}"#.to_string(),
        "{malformed".to_string(),
        r#"{"id": "ragged", "rows": [[0.0], [0.0, 0.0]]}"#.to_string(),
        r#"{"id": "narrow", "rows": [[0.5]]}"#.to_string(),
        format!(
            r#"{{"id": "tail", "rows": [{}]}}"#,
            tinyjson::to_string(&rows[0])
        ),
    ]
    .join("\n");

    let output = serve_jsonl(input, &engine, &registry, &SessionLimits::with_window(4));
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 6, "one response per non-blank line: {output}");

    assert_eq!(lines[0], render_scores("good", &expected));
    let e1 = tinyjson::parse(lines[1]).unwrap();
    assert_eq!(e1.fetch("id").as_str().unwrap(), "bad-model");
    assert!(e1.fetch("error").as_str().unwrap().contains("default@1"));
    assert_eq!(e1.fetch("code").as_str().unwrap(), "unknown_model");
    let e2 = tinyjson::parse(lines[2]).unwrap();
    assert_eq!(e2.fetch("id").as_str().unwrap(), "");
    assert!(e2.fetch("error").as_str().unwrap().contains("bad request"));
    assert_eq!(e2.fetch("code").as_str().unwrap(), "bad_request");
    let e3 = tinyjson::parse(lines[3]).unwrap();
    assert_eq!(e3.fetch("id").as_str().unwrap(), "ragged");
    assert_eq!(e3.fetch("code").as_str().unwrap(), "ragged_rows");
    let e4 = tinyjson::parse(lines[4]).unwrap();
    assert!(e4
        .fetch("error")
        .as_str()
        .unwrap()
        .contains(&format!("expected {n} features")));
    assert_eq!(e4.fetch("code").as_str().unwrap(), "wrong_width");
    assert_eq!(lines[5], render_scores("tail", &expected[..1]));
}

/// The per-connection request cap: the session answers exactly the
/// capped number of requests, then closes as at EOF — later lines are
/// never read, so a firehosing peer gets bounded work.
#[test]
fn jsonl_session_request_cap_bounds_one_session() {
    let model = fitted_drp(8);
    let registry = ModelRegistry::new();
    registry.insert(DEFAULT_MODEL, "1", Arc::clone(&model));
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(9);
    let x = gen.sample(5, Population::Base, &mut rng).x;
    let expected = model.scores_fresh(&x, &Obs::disabled());

    let input: String = x
        .row_iter()
        .enumerate()
        .map(|(i, row)| {
            format!(
                "{{\"id\": \"r{i}\", \"rows\": [{}]}}\n",
                tinyjson::to_string(row)
            )
        })
        .collect();
    let limits = SessionLimits {
        window: 4,
        max_requests: 2,
    };
    let output = serve_jsonl(input, &engine, &registry, &limits);
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 2, "cap of 2 must answer exactly 2: {output}");
    assert_eq!(lines[0], render_scores("r0", &expected[0..1]));
    assert_eq!(lines[1], render_scores("r1", &expected[1..2]));
}

/// A window of 1 serializes: each request is awaited before the next is
/// submitted. Responses must still be complete and ordered.
#[test]
fn jsonl_session_window_of_one_still_drains_everything() {
    let model = fitted_drp(6);
    let registry = ModelRegistry::new();
    registry.insert(DEFAULT_MODEL, "1", Arc::clone(&model));
    let engine = ScoringEngine::start(EngineConfig::default(), Obs::disabled());
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(7);
    let x = gen.sample(3, Population::Base, &mut rng).x;
    let expected = model.scores_fresh(&x, &Obs::disabled());

    let input: String = x
        .row_iter()
        .enumerate()
        .map(|(i, row)| {
            format!(
                "{{\"id\": \"r{i}\", \"rows\": [{}]}}\n",
                tinyjson::to_string(row)
            )
        })
        .collect();
    // window = 0 is clamped to 1.
    let output = serve_jsonl(input, &engine, &registry, &SessionLimits::with_window(0));
    for (i, line) in output.lines().enumerate() {
        assert_eq!(line, render_scores(&format!("r{i}"), &expected[i..=i]));
    }
    assert_eq!(output.lines().count(), 3);
}
