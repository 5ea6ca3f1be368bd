//! Deterministic chaos suite: the serving and persistence layers under
//! injected faults.
//!
//! Every scenario runs against a seeded [`chaos::FaultPlan`] through a
//! [`ManualClock`] recorder handle, so the full fault schedule — which
//! injection point fired, at which hit, what the engine did about it —
//! is pinned as an exact obs-event sequence and rendered byte-for-byte
//! reproducibly, the same contract the golden-trace and drift-trace
//! suites enforce for training and calibration.
//!
//! The scenarios cover one fault class each:
//!
//! * worker panic → supervisor respawn (`serve.worker_respawn`)
//! * repeated panics → breaker trip, shed, recover (`serve.shed`,
//!   `serve.recovered`)
//! * injected stall → late response degraded to `DeadlineExpired`,
//!   never a stale answer
//! * persistence faults → atomic saves keep the old artifact, transient
//!   reads retry (`registry.load_retry`), bit rot is caught
//!   (`artifact.checksum_mismatch`)
//! * connection drop mid-stream → accepted requests still answered, the
//!   engine survives into the next session
//!
//! The final test renders all scenarios twice and asserts byte equality;
//! with `CHAOS_TRACE_OUT` set it also persists the trace so CI can diff
//! two independent process runs.

use chaos::{Chaos, FaultKind, FaultPlan, Trigger};
use datasets::generator::{Population, RctGenerator};
use datasets::CriteoLike;
use integration::{row_sum_scorer, unique_tmp};
use linalg::random::Prng;
use linalg::Matrix;
use obs::{InMemoryRecorder, Obs};
use rdrp::{MethodConfig, PersistError, RoiMethod};
use serve::{
    run_session, BackoffPolicy, BreakerConfig, EngineConfig, JsonlCodec, ModelRegistry, Rejected,
    ScoreError, ScoringEngine, SessionLimits, SupervisorConfig,
};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

fn one_row() -> Matrix {
    Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0])
}

/// Builder sized for deterministic sequencing: one worker, no fill
/// wait. Scenarios chain their supervision/breaker knobs onto it.
fn serial_engine_builder() -> serve::EngineConfigBuilder {
    EngineConfig::builder().workers(1).max_wait(Duration::ZERO)
}

/// Engine sized for deterministic sequencing: one worker, no fill wait.
fn serial_engine_config() -> EngineConfig {
    serial_engine_builder().build().expect("valid test config")
}

/// Event names in recorded order — the sequence every scenario pins.
fn event_names(recorder: &InMemoryRecorder) -> Vec<String> {
    recorder.events().iter().map(|e| e.name.clone()).collect()
}

// ---------------------------------------------------------------------
// Scenario: worker panics repeatedly → the supervisor respawns it.
// ---------------------------------------------------------------------

fn respawn_scenario() -> Arc<InMemoryRecorder> {
    let (obs, recorder, _clock) = Obs::manual();
    let plan = FaultPlan::new().fail("engine.worker_batch", Trigger::First(2), FaultKind::Panic);
    let engine = ScoringEngine::start_with_chaos(
        serial_engine_builder()
            .supervisor(SupervisorConfig {
                respawn_after_panics: 2,
            })
            .build()
            .expect("valid test config"),
        obs.clone(),
        Chaos::new(plan, obs),
    );
    let scorer = row_sum_scorer(3);
    // Two consecutive panics: each poisons only its own request …
    for _ in 0..2 {
        let got = engine
            .submit(&scorer, one_row(), None)
            .expect("queued")
            .wait();
        assert_eq!(got, Err(ScoreError::WorkerPanicked));
    }
    // … and the respawned worker serves the very next one.
    let got = engine
        .submit(&scorer, one_row(), None)
        .expect("queued")
        .wait();
    assert_eq!(got, Ok(vec![6.0]));
    drop(engine); // joins every worker, respawned ones included
    recorder
}

#[test]
fn panicking_worker_is_respawned_and_requests_get_typed_errors() {
    let recorder = respawn_scenario();
    assert_eq!(
        event_names(&recorder),
        vec!["fault.injected", "fault.injected", "serve.worker_respawn",],
        "respawn event sequence drifted"
    );
    assert_eq!(recorder.counter_value("serve.worker_panics"), 2.0);
    assert_eq!(recorder.counter_value("serve.worker_respawns"), 1.0);
    // The healthy request after the respawn was served, not dropped.
    assert_eq!(recorder.counter_value("serve.requests"), 1.0);
}

// ---------------------------------------------------------------------
// Scenario: panic rate trips the breaker; load sheds; cooldown recovers.
// ---------------------------------------------------------------------

fn shed_recover_scenario() -> Arc<InMemoryRecorder> {
    let (obs, recorder, clock) = Obs::manual();
    let plan = FaultPlan::new().fail("engine.worker_batch", Trigger::First(2), FaultKind::Panic);
    let engine = ScoringEngine::start_with_chaos(
        serial_engine_builder()
            .supervisor(SupervisorConfig {
                respawn_after_panics: 0,
            })
            .breaker(BreakerConfig {
                trip_panics: 2,
                shed_queue_rows: None,
                cooldown: Duration::from_millis(100),
            })
            .build()
            .expect("valid test config"),
        obs.clone(),
        Chaos::new(plan, obs),
    );
    let scorer = row_sum_scorer(3);
    for _ in 0..2 {
        let got = engine
            .submit(&scorer, one_row(), None)
            .expect("queued")
            .wait();
        assert_eq!(got, Err(ScoreError::WorkerPanicked));
    }
    // The second panic tripped the breaker: submissions now shed with a
    // typed rejection carrying the cooldown as the retry hint.
    let rejected = engine
        .submit(&scorer, one_row(), None)
        .expect_err("breaker open");
    assert_eq!(
        rejected,
        Rejected::Overloaded {
            retry_after_ms: 100
        }
    );
    // After the cooldown the first submission closes the breaker and is
    // served normally — the shed/recover cycle, not a stuck-open breaker.
    clock.advance(100 * 1_000_000);
    let got = engine
        .submit(&scorer, one_row(), None)
        .expect("recovered")
        .wait();
    assert_eq!(got, Ok(vec![6.0]));
    drop(engine);
    recorder
}

#[test]
fn breaker_sheds_under_panic_rate_and_recovers_after_cooldown() {
    let recorder = shed_recover_scenario();
    assert_eq!(
        event_names(&recorder),
        vec![
            "fault.injected",
            "fault.injected",
            "serve.shed",
            "serve.recovered",
        ],
        "shed/recover event sequence drifted"
    );
    let events = recorder.events();
    let shed = events
        .iter()
        .find(|e| e.name == "serve.shed")
        .expect("shed event");
    assert_eq!(
        shed.field("reason"),
        Some(&obs::FieldValue::Str("panic_rate".to_string()))
    );
    assert_eq!(shed.field("cooldown_ms"), Some(&obs::FieldValue::U64(100)));
    assert_eq!(recorder.counter_value("serve.breaker_trips"), 1.0);
    assert_eq!(recorder.counter_value("serve.rejected.overloaded"), 1.0);
}

// ---------------------------------------------------------------------
// Scenario: a stalled worker makes a response late → typed deadline
// error, never a stale answer.
// ---------------------------------------------------------------------

fn stall_deadline_scenario() -> Arc<InMemoryRecorder> {
    let (obs, recorder, clock) = Obs::manual();
    let plan = FaultPlan::new().fail(
        "engine.worker_batch",
        Trigger::Nth(2),
        FaultKind::StallNs(10 * 1_000_000),
    );
    let engine = ScoringEngine::start_with_chaos(
        serial_engine_config(),
        obs.clone(),
        Chaos::new(plan, obs).with_stall_clock(Arc::clone(&clock)),
    );
    let scorer = row_sum_scorer(3);
    // Healthy batch first (hit 1 of the injection point).
    let got = engine
        .submit(&scorer, one_row(), None)
        .expect("queued")
        .wait();
    assert_eq!(got, Ok(vec![6.0]));
    // Hit 2 stalls the worker 10ms against a 5ms deadline: the response
    // finishes late and must degrade to the typed error.
    let got = engine
        .submit(&scorer, one_row(), Some(Duration::from_millis(5)))
        .expect("queued")
        .wait();
    assert_eq!(got, Err(ScoreError::DeadlineExpired));
    drop(engine);
    recorder
}

#[test]
fn stalled_worker_degrades_late_responses_to_deadline_errors() {
    let recorder = stall_deadline_scenario();
    assert_eq!(event_names(&recorder), vec!["fault.injected"]);
    assert_eq!(recorder.counter_value("serve.rejected.deadline"), 1.0);
    // Exactly the healthy request counts as served.
    assert_eq!(recorder.counter_value("serve.requests"), 1.0);
}

// ---------------------------------------------------------------------
// Scenario: persistence faults — interrupted saves, transient reads,
// and bit rot.
// ---------------------------------------------------------------------

fn fitted_drp_model() -> Box<dyn RoiMethod> {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(17);
    let train = gen.sample(400, Population::Base, &mut rng);
    let mut config = MethodConfig::default();
    config.rdrp.drp.epochs = 2;
    let mut model = rdrp::build("drp", &config).expect("registry has drp");
    // DRP has no calibration stage; the training set stands in.
    model
        .fit(&train, &train, &mut rng, &Obs::disabled())
        .expect("fit");
    model
}

/// Flips the first digit inside the envelope's body, producing a file
/// that still parses as JSON but whose body no longer hashes to its
/// checksum stamp. `7 ↔ 8` keeps any number it lands in valid (no
/// leading-zero pitfalls).
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

fn persist_faults_scenario() -> Arc<InMemoryRecorder> {
    let (obs, recorder, _clock) = Obs::manual();
    let path = unique_tmp("persist.json");
    let model = fitted_drp_model();
    rdrp::save_method(model.as_ref(), &path).expect("clean save");

    // 1. A save killed at the rename leaves the previous artifact
    //    loadable — the atomic path never tears the destination.
    {
        let plan = FaultPlan::new().fail("persist.rename", Trigger::Nth(1), FaultKind::Io);
        let _guard = chaos::install(Chaos::new(plan, obs.clone()));
        let err = rdrp::save_method(model.as_ref(), &path).expect_err("injected rename failure");
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        rdrp::load_method(&path).expect("old artifact intact after failed save");
    }

    // 2. A transiently unreadable artifact retries under bounded backoff
    //    and loads on the second attempt.
    {
        let plan = FaultPlan::new().fail("persist.read", Trigger::Nth(1), FaultKind::Io);
        let _guard = chaos::install(Chaos::new(plan, obs.clone()));
        let registry = ModelRegistry::new();
        let policy = BackoffPolicy {
            attempts: 3,
            base: Duration::from_micros(50),
            cap: Duration::from_micros(200),
            ..BackoffPolicy::default()
        };
        registry
            .load_with_retry("default", "1", &path, &policy, &obs)
            .expect("transient read fault retries into success");
        assert_eq!(registry.len(), 1);
    }

    // 3. Bit rot: one flipped digit in the body fails the checksum with
    //    a typed error, and retrying is refused (corrupt bytes stay
    //    corrupt).
    {
        let rotted = unique_tmp("persist_rot.json");
        let text = std::fs::read_to_string(&path).expect("read artifact");
        std::fs::write(&rotted, corrupt_body_digit(&text)).expect("write rotted");
        let registry = ModelRegistry::new();
        let err = registry
            .load_with_retry("default", "1", &rotted, &BackoffPolicy::default(), &obs)
            .expect_err("bit rot must not load");
        assert!(
            matches!(
                err,
                serve::RegistryError::Persist(PersistError::Checksum { .. })
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_file(rotted);
    }
    let _ = std::fs::remove_file(path);
    recorder
}

#[test]
fn persistence_faults_keep_artifacts_loadable_and_typed() {
    let recorder = persist_faults_scenario();
    assert_eq!(
        event_names(&recorder),
        vec![
            "fault.injected",      // persist.rename
            "fault.injected",      // persist.read
            "registry.load_retry", // the retried load
            "artifact.checksum_mismatch",
        ],
        "persistence event sequence drifted"
    );
    assert_eq!(recorder.counter_value("registry.load_retries"), 1.0);
    let events = recorder.events();
    let mismatch = events
        .iter()
        .find(|e| e.name == "artifact.checksum_mismatch")
        .expect("checksum event");
    // The event names the two hashes so operators can tell bit rot from
    // a missing file.
    assert!(matches!(
        mismatch.field("expected"),
        Some(obs::FieldValue::Str(_))
    ));
    assert!(matches!(
        mismatch.field("computed"),
        Some(obs::FieldValue::Str(_))
    ));
}

// ---------------------------------------------------------------------
// Scenario: a connection dropping mid-stream answers what it accepted
// and leaves the engine fully serviceable for the next session.
// ---------------------------------------------------------------------

fn conn_drop_scenario() -> Arc<InMemoryRecorder> {
    let (obs, recorder, _clock) = Obs::manual();
    let registry = ModelRegistry::new();
    registry.insert("default", "1", row_sum_scorer(3));
    let engine = ScoringEngine::start(serial_engine_config(), obs.clone());
    let plan = FaultPlan::new().fail("conn.read", Trigger::Nth(2), FaultKind::Disconnect);
    let _guard = chaos::install(Chaos::new(plan, obs));
    let limits = SessionLimits::with_window(4);

    let input = "{\"id\": \"a\", \"rows\": [[1, 2, 3]]}\n\
                 {\"id\": \"b\", \"rows\": [[4, 5, 6]]}\n";
    let mut output = Vec::new();
    let err = run_session(
        Cursor::new(input),
        &mut output,
        &mut JsonlCodec::new(),
        &engine,
        &registry,
        &limits,
    )
    .expect_err("injected disconnect");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    // The request accepted before the drop was still answered.
    let output = String::from_utf8(output).expect("utf8");
    assert_eq!(output, "{\"id\":\"a\",\"scores\":[6]}\n");

    // The engine survives into a fresh session untouched.
    let mut output = Vec::new();
    run_session(
        Cursor::new("{\"id\": \"c\", \"rows\": [[1, 1, 1]]}\n"),
        &mut output,
        &mut JsonlCodec::new(),
        &engine,
        &registry,
        &limits,
    )
    .expect("second session serves");
    assert_eq!(
        String::from_utf8(output).expect("utf8"),
        "{\"id\":\"c\",\"scores\":[3]}\n"
    );
    drop(engine);
    recorder
}

#[test]
fn dropped_connection_never_loses_accepted_requests_or_the_engine() {
    let recorder = conn_drop_scenario();
    assert_eq!(event_names(&recorder), vec!["fault.injected"]);
    // Both sessions' served requests are accounted for.
    assert_eq!(recorder.counter_value("serve.requests"), 2.0);
}

// ---------------------------------------------------------------------
// Scenario: queue-pressure shedding under a burst.
// ---------------------------------------------------------------------

#[test]
fn queue_pressure_trips_the_breaker_and_sheds_the_burst() {
    let (obs, recorder, clock) = Obs::manual();
    // No workers can drain fast enough to matter: the queue watermark is
    // below the burst, so admission itself trips the breaker.
    let engine = ScoringEngine::start(
        serial_engine_builder()
            .queue_rows(64)
            .breaker(BreakerConfig {
                trip_panics: 0,
                shed_queue_rows: Some(2),
                cooldown: Duration::from_millis(50),
            })
            .build()
            .expect("valid test config"),
        obs,
    );
    let scorer = row_sum_scorer(3);
    let mut pending = Vec::new();
    let mut shed = 0usize;
    for _ in 0..8 {
        match engine.submit(&scorer, one_row(), None) {
            Ok(p) => pending.push(p),
            Err(Rejected::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 50);
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    // At least the watermark-crossing requests were admitted and at
    // least one later one shed; every admitted request completes.
    assert!(shed >= 1, "burst never shed");
    assert_eq!(pending.len() + shed, 8);
    for p in pending {
        assert_eq!(p.wait(), Ok(vec![6.0]));
    }
    assert!(recorder.counter_value("serve.breaker_trips") >= 1.0);
    // After the cooldown the engine recovers for new work.
    clock.advance(50 * 1_000_000);
    let got = engine
        .submit(&scorer, one_row(), None)
        .expect("recovered")
        .wait();
    assert_eq!(got, Ok(vec![6.0]));
}

// ---------------------------------------------------------------------
// The determinism gate: every scenario, rendered twice, byte for byte.
// ---------------------------------------------------------------------

fn full_trace() -> String {
    let sections: [(&str, Arc<InMemoryRecorder>); 5] = [
        ("respawn", respawn_scenario()),
        ("shed_recover", shed_recover_scenario()),
        ("stall_deadline", stall_deadline_scenario()),
        ("persist_faults", persist_faults_scenario()),
        ("conn_drop", conn_drop_scenario()),
    ];
    let mut out = String::new();
    for (name, recorder) in sections {
        out.push_str("=== ");
        out.push_str(name);
        out.push_str(" ===\n");
        out.push_str(&recorder.render_json());
        out.push('\n');
    }
    out
}

#[test]
fn chaos_traces_render_byte_identically_across_runs() {
    let a = full_trace();
    let b = full_trace();
    assert_eq!(a, b, "two seeded chaos runs rendered different traces");

    // CI determinism gate: persist the trace so two test invocations can
    // be diffed byte-for-byte outside the process.
    if let Ok(path) = std::env::var("CHAOS_TRACE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &a).expect("write chaos trace");
        }
    }
}
