//! Black-box CLI tests: spawn the real `rdrp-cli` binary and assert the
//! documented exit-code contract — `2` usage, `3` data/IO, `4`
//! training/calibration, and `0` (with a stderr warning) for a run whose
//! calibration *degraded* but still produced a usable model.

use integration::{malformed_drp_artifacts, unique_tmp};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Locates the `rdrp-cli` binary relative to this test executable.
///
/// `CARGO_BIN_EXE_*` is only set for tests *inside* the defining package,
/// so walk up from the test binary (`target/<profile>/deps/...`) to the
/// `target` directory and probe the profiles. Preferring `release` keeps
/// the test honest after the tier-1 `cargo build --release`.
fn cli_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe
        .ancestors()
        .find(|p| p.file_name().is_some_and(|n| n == "target"))
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("target"));
    let name = format!("rdrp-cli{}", std::env::consts::EXE_SUFFIX);
    for profile in ["release", "debug"] {
        let candidate = target.join(profile).join(&name);
        if candidate.exists() {
            return candidate;
        }
    }
    panic!(
        "rdrp-cli binary not found under {} — build the workspace first",
        target.display()
    );
}

fn run_cli(args: &[&str]) -> Output {
    Command::new(cli_binary())
        .args(args)
        .output()
        .expect("spawn rdrp-cli")
}

/// A small trainable CSV in the CLI's default schema. Even rows are
/// treated; conversions and visits follow the feature so both uplifts are
/// positive and both groups are present.
fn write_trainable_csv(path: &str, rows: usize, zero_visits: bool) {
    let mut body = String::from("f0,treatment,conversion,visit\n");
    for i in 0..rows {
        let treated = i % 2 == 0;
        let f0 = (i % 10) as f64 / 10.0;
        let conversion = u8::from(treated && i % 3 == 0);
        let visit = if zero_visits {
            0
        } else {
            u8::from(treated && i % 2 == 0)
        };
        body.push_str(&format!(
            "{f0},{},{conversion},{visit}\n",
            u8::from(treated)
        ));
    }
    std::fs::write(path, body).expect("write fixture csv");
}

#[test]
fn usage_error_exits_2() {
    let out = run_cli(&[
        "train",
        "--train",
        "x.csv",
        "--calibration",
        "y.csv",
        "--model",
        "m.json",
        "--alpha",
        "2.0",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", text(&out.stderr));
    assert!(text(&out.stderr).contains("alpha"));

    let out = run_cli(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_files_exit_3() {
    let out = run_cli(&[
        "train",
        "--train",
        "/nonexistent/train.csv",
        "--calibration",
        "/nonexistent/cal.csv",
        "--model",
        &unique_tmp("never.json").display().to_string(),
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", text(&out.stderr));
}

#[test]
fn untrainable_data_exits_4() {
    // Well-formed CSV, but every row treated: no uplift is identifiable
    // and the pipeline's own validation must reject it as a *training*
    // failure, not a data/IO one.
    let csv = unique_tmp("single_group.csv").display().to_string();
    let mut body = String::from("f0,treatment,conversion,visit\n");
    for i in 0..200 {
        body.push_str(&format!("{}.0,1,1,1\n", i % 7));
    }
    std::fs::write(&csv, body).expect("write fixture csv");
    let out = run_cli(&[
        "train",
        "--train",
        &csv,
        "--calibration",
        &csv,
        "--model",
        &unique_tmp("never2.json").display().to_string(),
        "--epochs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", text(&out.stderr));
    let _ = std::fs::remove_file(csv);
}

#[test]
fn degraded_calibration_warns_but_exits_0() {
    let train_csv = unique_tmp("degraded_train.csv").display().to_string();
    let cal_csv = unique_tmp("degraded_cal.csv").display().to_string();
    let model_json = unique_tmp("degraded_model.json").display().to_string();
    let trace_json = unique_tmp("degraded_trace.json").display().to_string();
    write_trainable_csv(&train_csv, 400, false);
    // All-zero visit costs validate but collapse the calibration cost
    // uplift: Algorithm 2's search fails and rDRP falls back to plain DRP
    // ranking — a warning, not an error.
    write_trainable_csv(&cal_csv, 200, true);
    let out = run_cli(&[
        "train",
        "--train",
        &train_csv,
        "--calibration",
        &cal_csv,
        "--model",
        &model_json,
        "--epochs",
        "3",
        "--mc-passes",
        "5",
        "--trace-out",
        &trace_json,
        "-v",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}\nstdout: {}",
        text(&out.stderr),
        text(&out.stdout)
    );
    assert!(
        text(&out.stderr).contains("degraded"),
        "missing degradation warning: {}",
        text(&out.stderr)
    );
    // The model was still persisted, and --trace-out dumped a JSON trace
    // that records the degradation as a structured event.
    assert!(Path::new(&model_json).exists());
    let trace = std::fs::read_to_string(&trace_json).expect("trace file");
    assert!(trace.trim_start().starts_with('{'));
    assert!(trace.contains("\"calibration.degraded\""));
    assert!(trace.contains("DegenerateLabels"));
    // -v printed the metrics summary table on stderr, keeping stdout
    // free for machine-readable output (the serve protocol relies on
    // this).
    assert!(
        text(&out.stderr).contains("train.epochs"),
        "missing summary table: {}",
        text(&out.stderr)
    );
    for f in [train_csv, cal_csv, model_json, trace_json] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn malformed_artifact_exits_3_instead_of_panicking() {
    let csv = unique_tmp("malformed_train.csv").display().to_string();
    let model = unique_tmp("malformed_model.json").display().to_string();
    let scores = unique_tmp("malformed_scores.csv").display().to_string();
    write_trainable_csv(&csv, 400, false);
    let out = run_cli(&[
        "train",
        "--train",
        &csv,
        "--calibration",
        &csv,
        "--model",
        &model,
        "--method",
        "drp",
        "--epochs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let saved = std::fs::read_to_string(&model).expect("trained model");
    for (fault, artifact) in malformed_drp_artifacts(&saved) {
        std::fs::write(&model, artifact).expect("write artifact");
        let out = run_cli(&["score", "--model", &model, "--data", &csv, "--out", &scores]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{fault}: stderr: {}",
            text(&out.stderr)
        );
    }
    for f in [csv, model, scores] {
        let _ = std::fs::remove_file(f);
    }
}

/// Trains an rDRP model on a small trainable CSV, then serves it over
/// stdin with online calibration (that CSV as the drift reference) and
/// sends one feedback line. Returns the serve process's output.
fn serve_one_feedback_line(name: &str, train_flags: &[&str], serve_flags: &[&str]) -> Output {
    let csv = unique_tmp(&format!("{name}_train.csv"))
        .display()
        .to_string();
    let model = unique_tmp(&format!("{name}_model.json"))
        .display()
        .to_string();
    write_trainable_csv(&csv, 400, false);
    let mut train = vec![
        "train",
        "--train",
        &csv,
        "--calibration",
        &csv,
        "--model",
        &model,
        "--epochs",
        "2",
        "--mc-passes",
        "5",
    ];
    train.extend_from_slice(train_flags);
    let out = run_cli(&train);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let mut serve = vec![
        "serve",
        "--model",
        &model,
        "--online-calibration",
        "true",
        "--reference",
        &csv,
    ];
    serve.extend_from_slice(serve_flags);
    let mut child = Command::new(cli_binary())
        .args(&serve)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rdrp-cli serve");
    // Dropping stdin after the line closes it: the server drains and exits.
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"{\"id\": \"f1\", \"row\": [0.3], \"outcome\": 1.0}\n")
        .expect("send the feedback line");
    let out = child.wait_with_output().expect("serve exits");
    for f in [csv, model] {
        let _ = std::fs::remove_file(f);
    }
    out
}

/// `--calibration-window` below the calibrator's default fill floor
/// (30) starts the monitor instead of failing its configuration.
#[test]
fn online_calibration_starts_with_a_window_below_the_default_floor() {
    let out = serve_one_feedback_line("short_window", &[], &["--calibration-window", "10"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stdout).starts_with("{\"id\":\"f1\",\"observed\":"),
        "stdout: {}",
        text(&out.stdout)
    );
}

/// A model trained at α = 0.4, above the default adaptive-α clamp
/// [0.01, 0.3], is served with online calibration at its own α.
#[test]
fn online_calibration_starts_for_a_model_above_the_default_alpha_clamp() {
    let out = serve_one_feedback_line("alpha_04", &["--alpha", "0.4"], &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stdout).starts_with("{\"id\":\"f1\",\"observed\":"),
        "stdout: {}",
        text(&out.stdout)
    );
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
