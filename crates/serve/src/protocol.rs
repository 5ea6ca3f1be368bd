//! The line-delimited JSON wire protocol.
//!
//! One request per line in, one response per line out, in request
//! order:
//!
//! ```text
//! → {"id": "r1", "rows": [[0.1, 0.2, …], …]}
//! → {"id": "r2", "model": "checkout", "version": "3", "rows": [[…]], "deadline_ms": 50}
//! ← {"id": "r1", "scores": [0.42, …]}
//! ← {"id": "r2", "error": "unknown model \"checkout\" (have: default@v1)", "code": "unknown_model"}
//! ```
//!
//! `model`/`version` default to the registry's
//! [`DEFAULT_MODEL`](crate::registry::DEFAULT_MODEL) at its newest
//! version. Scores render with the shortest-roundtrip float encoding,
//! so replaying a request stream yields byte-identical responses.
//!
//! Every error response carries a stable machine-readable `code` field
//! alongside the human-readable `error` message (see [`WireError`] and
//! the README's serving section for the full list); `overloaded`
//! responses additionally carry `retry_after_ms`. Clients branch on the
//! code, humans read the message, and the message text can improve
//! without breaking anyone.
//!
//! [`run_session`](crate::session::run_session) with a
//! [`JsonlCodec`](crate::wire::JsonlCodec) is the transport-agnostic loop
//! both frontends use: the CLI `serve` subcommand feeds it stdin/stdout,
//! the TCP endpoint feeds it a socket. It keeps up to
//! [`SessionLimits::window`] requests in flight so the engine's
//! micro-batcher has something to coalesce, while responses still come
//! back in request order with bounded memory;
//! [`SessionLimits::max_requests`] bounds how much work one connection
//! can claim.

use crate::calibration::MonitorError;
use crate::engine::{Rejected, ScoreError};
use linalg::Matrix;
use tinyjson::{json, JsonError};

/// One scoring request, as parsed off the wire.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: String,
    /// Registry model name; `None` means [`DEFAULT_MODEL`].
    pub model: Option<String>,
    /// Registry model version; `None` means the newest registered.
    pub version: Option<String>,
    /// Feature rows to score.
    pub rows: Vec<Vec<f64>>,
    /// Queue-plus-scoring budget in milliseconds, measured from
    /// submission.
    pub deadline_ms: Option<f64>,
}

tinyjson::json_struct!(ScoreRequest {
    id,
    model,
    version,
    rows,
    deadline_ms
});

/// One feedback (online-calibration) line, distinguished from a scoring
/// request by the presence of an `"outcome"` key:
///
/// ```text
/// → {"id": "f1", "row": [0.1, …], "outcome": 0.43}
/// → {"id": "f2", "row": [0.1, …], "pred": 0.5, "scale": 0.07, "outcome": 0.41}
/// ← {"id": "f1", "observed": {"window": 31, "covered": true, "drifted": false, …}}
/// ```
///
/// `pred` is the score this row was served (recomputed through the
/// current artifact when omitted), `scale` the uncertainty the conformity
/// score normalizes by (1.0 when omitted).
#[derive(Debug, Clone)]
pub struct ObserveRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: String,
    /// The feature row that was served.
    pub row: Vec<f64>,
    /// The prediction served for the row, when the caller retained it.
    pub pred: Option<f64>,
    /// The uncertainty scale for the conformity score.
    pub scale: Option<f64>,
    /// The realized outcome.
    pub outcome: f64,
}

tinyjson::json_struct!(ObserveRequest {
    id,
    row,
    pred,
    scale,
    outcome
});

/// Parses one request line.
///
/// # Errors
/// [`JsonError`] when the line is not a JSON object of the request
/// shape.
pub fn parse_request(line: &str) -> Result<ScoreRequest, JsonError> {
    tinyjson::from_str(line)
}

/// Renders the success response line for `id`.
pub fn render_scores(id: &str, scores: &[f64]) -> String {
    json!({"id": id, "scores": scores}).render_compact()
}

/// A protocol-level error: a stable machine-readable code plus the
/// human-readable message, and an optional retry hint for shed load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable code clients branch on (documented in the README's
    /// serving section), e.g. `queue_full` or `deadline_expired`.
    pub code: &'static str,
    /// Human-readable detail; free to change between releases.
    pub message: String,
    /// Backoff hint in milliseconds, set for `overloaded` responses.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A plain coded error with no retry hint.
    pub fn new(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

impl From<&Rejected> for WireError {
    fn from(r: &Rejected) -> WireError {
        let code = match r {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::WrongWidth { .. } => "wrong_width",
            Rejected::Unfitted => "unfitted",
            Rejected::ShuttingDown => "shutting_down",
            Rejected::Overloaded { .. } => "overloaded",
        };
        WireError {
            code,
            message: r.to_string(),
            retry_after_ms: match r {
                Rejected::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            },
        }
    }
}

impl From<&ScoreError> for WireError {
    fn from(e: &ScoreError) -> WireError {
        let code = match e {
            ScoreError::DeadlineExpired => "deadline_expired",
            ScoreError::WorkerPanicked => "worker_panicked",
            ScoreError::EngineShutDown => "engine_shutdown",
        };
        WireError::new(code, e.to_string())
    }
}

impl From<&MonitorError> for WireError {
    fn from(e: &MonitorError) -> WireError {
        let code = match e {
            MonitorError::Disabled => "calibration_disabled",
            MonitorError::UnknownModel { .. } => "unknown_model",
            MonitorError::NotCalibrated { .. } => "not_calibrated",
            MonitorError::Conformal(_) | MonitorError::Shift(_) => "bad_observe",
        };
        WireError::new(code, e.to_string())
    }
}

/// Renders the error response line for `id`:
/// `{"id": …, "error": <message>, "code": <code>[, "retry_after_ms": …]}`.
pub fn render_error(id: &str, error: &WireError) -> String {
    match error.retry_after_ms {
        Some(ms) => json!({
            "id": id,
            "error": error.message.as_str(),
            "code": error.code,
            "retry_after_ms": ms
        })
        .render_compact(),
        None => json!({
            "id": id,
            "error": error.message.as_str(),
            "code": error.code
        })
        .render_compact(),
    }
}

/// Converts the wire rows into a feature matrix, rejecting ragged rows
/// (which [`Matrix::from_rows`] would otherwise panic on).
///
/// # Errors
/// A human-readable message naming the first offending row.
pub fn rows_to_matrix(rows: &[Vec<f64>]) -> Result<Matrix, String> {
    if let Some(first) = rows.first() {
        let cols = first.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(format!(
                    "row {i} has {} features, row 0 has {cols}",
                    row.len()
                ));
            }
        }
    }
    Ok(Matrix::from_rows(rows))
}

/// Per-connection limits for [`run_session`](crate::session::run_session).
#[derive(Debug, Clone)]
pub struct SessionLimits {
    /// Requests kept in flight at once so the engine's micro-batcher
    /// has something to coalesce (clamped to at least 1).
    pub window: usize,
    /// Hard cap on requests served over one connection; `0` means
    /// unlimited. When the cap is reached every accepted request is
    /// still answered, then the loop returns as at EOF — one peer can
    /// claim only bounded work from a scoped serving thread.
    pub max_requests: u64,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            window: 32,
            max_requests: 0,
        }
    }
}

impl SessionLimits {
    /// Limits with the given in-flight window and no request cap.
    pub fn with_window(window: usize) -> SessionLimits {
        SessionLimits {
            window,
            ..SessionLimits::default()
        }
    }
}

/// Renders the response line for an applied feedback observation.
pub fn render_observed(id: &str, outcome: &crate::calibration::FeedbackOutcome) -> String {
    json!({
        "id": id,
        "observed": json!({
            "window": outcome.observation.window,
            "covered": outcome.observation.covered,
            "drifted": outcome.drift.map(|d| d.drifted),
            "swapped": outcome.swapped_version.as_deref(),
            "degraded": outcome.degraded.map(rdrp::DegradedMode::label)
        })
    })
    .render_compact()
}
