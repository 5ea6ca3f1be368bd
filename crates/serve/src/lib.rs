//! Online batch scoring for trained DRP/rDRP models.
//!
//! The deployment story the paper describes — train offline, calibrate
//! on a fresh RCT, then serve "heavy traffic" behind a promotion engine
//! — needs an online scorer. This crate is that scorer, in the house
//! style of `par` and `obs`: `std`-only threads, no external
//! dependencies.
//!
//! * [`rdrp::RoiMethod`] — the scoring interface: any registered method
//!   serves as-is. Its `rowwise` flag tells the engine whether rows from
//!   different requests may be coalesced into one batch.
//! * [`ModelRegistry`] — named, versioned models loaded from their
//!   persisted artifacts (via [`rdrp::load_method`]), hot-swappable
//!   under a lock while in-flight batches keep their own `Arc`.
//! * [`ScoringEngine`] — a bounded submission queue drained by a
//!   persistent worker pool; a micro-batcher coalesces small rowwise
//!   requests into row-chunk-parallel batches. Backpressure, deadlines,
//!   and panicking scorers all degrade into typed responses, never into
//!   a dead engine.
//! * [`protocol`] — the line-delimited JSON request/response protocol
//!   both frontends (CLI stdin/stdout and the TCP endpoint) speak, with
//!   an `observe` feedback line for online calibration.
//! * [`CalibrationMonitor`] — serve-side online conformal calibration:
//!   a rolling feedback window, an EWMA drift detector over incoming
//!   feature rows, and drift-triggered recalibration that hot-swaps the
//!   artifact through the registry without dropping traffic.
//! * [`backoff`] — bounded retry with deterministic seeded jitter, used
//!   by registry loads and the CLI's TCP client path. Fault *injection*
//!   (the other half of the robustness story) lives in the vendored
//!   `chaos` crate; the engine accepts a handle through
//!   [`ScoringEngine::start_with_chaos`] and the persistence/protocol
//!   layers consult the thread-local ambient plan.
//!
//! Determinism: engine scores are bitwise identical to a direct
//! [`rdrp::RoiMethod::scores`] call, for any batching, coalescing,
//! or worker count — rowwise models are row-independent, and MC-form
//! models are scored per-request from the fixed [`rdrp::SCORING_SEED`].

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod binary;
pub mod calibration;
pub mod config;
pub mod engine;
pub mod net;
pub mod protocol;
pub mod registry;
pub mod session;
pub mod shard;
pub mod wire;

pub use backoff::BackoffPolicy;
pub use binary::{
    decode_client_frame, encode_observe_request, encode_score_request, BinaryCodec, ClientFrame,
};
pub use calibration::{
    CalibrationMonitor, CalibrationMonitorConfig, FeedbackOutcome, MonitorError,
};
pub use config::{BreakerConfig, ConfigError, EngineConfig, EngineConfigBuilder, SupervisorConfig};
pub use engine::{PendingScore, Rejected, ScoreError, ScoringEngine};
pub use net::{serve_poll, NetConfig};
pub use protocol::{ObserveRequest, ScoreRequest, SessionLimits, WireError};
pub use registry::{ModelRegistry, RegistryError, DEFAULT_MODEL};
pub use session::run_session;
pub use shard::{shard_index, ShardedEngine, SHARD_PIN_ENV};
pub use wire::{sniff_codec, Decoded, Frame, FrameBuf, JsonlCodec, WireCodec};
