//! The codec-generic request/response session.
//!
//! One [`Session`] holds everything a connection needs besides its
//! transport and codec: the windowed in-flight queue, registry
//! resolution, engine dispatch, and the per-connection request cap.
//! Two drivers share it:
//!
//! * [`run_session`] — the blocking loop over any `Read`/`Write` pair
//!   (the CLI's stdin/stdout frontend, tests over in-memory buffers).
//! * the poll loop in [`crate::net`] — the non-blocking TCP frontend,
//!   which feeds bytes in as they arrive and drains responses with
//!   [`Session::pop_ready`] instead of blocking.
//!
//! Both apply the same [`SessionLimits`], so connection limits behave
//! identically whether a request came over a socket or a pipe.
//!
//! The chaos injection point `conn.read` is consulted once per decoded
//! input item (frame or blank line — matching the old per-line
//! semantics): an injected `Disconnect`/`Io` fault tears down *this*
//! connection while admitted work still completes and drains.

use crate::engine::{PendingScore, ScoringEngine};
use crate::protocol::{rows_to_matrix, SessionLimits, WireError};
use crate::registry::{ModelRegistry, DEFAULT_MODEL};
use crate::wire::{Decoded, Frame, WireCodec};
use crate::FrameBuf;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::time::Duration;

/// The response half of one accepted request.
pub(crate) enum Outcome {
    /// Submitted to the engine; the handle resolves to scores or a
    /// typed error.
    Pending(PendingScore),
    /// Refused at the door (parse failure, unknown model, engine
    /// rejection).
    Rejected(WireError),
    /// A feedback line, already applied through the calibration
    /// monitor; rendered by the codec at write time.
    Observed(Box<crate::calibration::FeedbackOutcome>),
}

/// Per-connection session state shared by the blocking and the
/// non-blocking drivers.
pub struct Session<'a> {
    engine: &'a ScoringEngine,
    registry: &'a ModelRegistry,
    window: usize,
    max_requests: u64,
    served: u64,
    in_flight: VecDeque<(String, Outcome)>,
}

impl<'a> Session<'a> {
    /// A session over `engine`/`registry` with the given limits.
    pub fn new(
        engine: &'a ScoringEngine,
        registry: &'a ModelRegistry,
        limits: &SessionLimits,
    ) -> Session<'a> {
        Session {
            engine,
            registry,
            window: limits.window.max(1),
            max_requests: limits.max_requests,
            served: 0,
            in_flight: VecDeque::new(),
        }
    }

    /// Whether the in-flight window is full — the driver must drain a
    /// response before accepting another frame.
    pub fn window_full(&self) -> bool {
        self.in_flight.len() >= self.window
    }

    /// Whether the per-connection request cap has been reached.
    pub fn cap_reached(&self) -> bool {
        self.max_requests > 0 && self.served >= self.max_requests
    }

    /// Whether any accepted request still awaits its response.
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Accepts one decoded frame: dispatches it and queues its outcome
    /// so responses leave in request order.
    pub fn accept(&mut self, frame: Frame) {
        let entry = self.dispatch(frame);
        self.in_flight.push_back(entry);
        self.served += 1;
    }

    /// Blocks until the oldest in-flight response is ready, encodes it
    /// into `out`, and slides the window. Returns `false` when nothing
    /// was in flight.
    pub fn write_front_blocking<C: WireCodec + ?Sized>(
        &mut self,
        codec: &C,
        out: &mut Vec<u8>,
    ) -> bool {
        let Some((id, outcome)) = self.in_flight.pop_front() else {
            return false;
        };
        encode_outcome(codec, &id, outcome, out);
        true
    }

    /// Non-blocking variant: encodes the oldest response only if it is
    /// already resolved. Returns `false` when nothing was ready.
    pub fn pop_ready<C: WireCodec + ?Sized>(&mut self, codec: &C, out: &mut Vec<u8>) -> bool {
        let ready = match self.in_flight.front() {
            None => return false,
            Some((_, Outcome::Pending(pending))) => match pending.try_wait() {
                None => return false,
                Some(result) => Some(result),
            },
            Some(_) => None,
        };
        let Some((id, outcome)) = self.in_flight.pop_front() else {
            return false;
        };
        match (ready, outcome) {
            // The resolved result was already pulled off the channel by
            // `try_wait`; encode that, not the spent handle.
            (Some(Ok(scores)), _) => codec.encode_response(&id, &scores, out),
            (Some(Err(e)), _) => codec.encode_error(&id, &WireError::from(&e), out),
            (None, outcome) => encode_outcome(codec, &id, outcome, out),
        }
        true
    }

    /// Drains every in-flight response (blocking), encoding into `out`.
    pub fn drain<C: WireCodec + ?Sized>(&mut self, codec: &C, out: &mut Vec<u8>) {
        while self.write_front_blocking(codec, out) {}
    }

    /// Parses, resolves, and dispatches one frame.
    fn dispatch(&self, frame: Frame) -> (String, Outcome) {
        match frame {
            Frame::Malformed { id, error } => (id, Outcome::Rejected(error)),
            Frame::Observe(req) => {
                match self
                    .engine
                    .observe(&req.row, req.pred, req.scale, req.outcome)
                {
                    Ok(outcome) => (req.id, Outcome::Observed(Box::new(outcome))),
                    Err(e) => (req.id, Outcome::Rejected(WireError::from(&e))),
                }
            }
            Frame::Score(req) => {
                let name = req.model.as_deref().unwrap_or(DEFAULT_MODEL);
                let Some(scorer) = self.registry.get(name, req.version.as_deref()) else {
                    let known = self
                        .registry
                        .entries()
                        .into_iter()
                        .map(|(n, v)| format!("{n}@{v}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    return (
                        req.id,
                        Outcome::Rejected(WireError::new(
                            "unknown_model",
                            format!("unknown model {name:?} (have: {known})"),
                        )),
                    );
                };
                let x = match rows_to_matrix(&req.rows) {
                    Ok(x) => x,
                    Err(e) => {
                        return (req.id, Outcome::Rejected(WireError::new("ragged_rows", e)));
                    }
                };
                let deadline = req
                    .deadline_ms
                    .filter(|ms| ms.is_finite() && *ms >= 0.0)
                    .map(|ms| Duration::from_nanos((ms * 1e6) as u64));
                match self.engine.submit(&scorer, x, deadline) {
                    Ok(pending) => (req.id, Outcome::Pending(pending)),
                    Err(rejected) => (req.id, Outcome::Rejected(WireError::from(&rejected))),
                }
            }
        }
    }
}

fn encode_outcome<C: WireCodec + ?Sized>(codec: &C, id: &str, outcome: Outcome, out: &mut Vec<u8>) {
    match outcome {
        Outcome::Pending(pending) => match pending.wait() {
            Ok(scores) => codec.encode_response(id, &scores, out),
            Err(e) => codec.encode_error(id, &WireError::from(&e), out),
        },
        Outcome::Rejected(error) => codec.encode_error(id, &error, out),
        Outcome::Observed(outcome) => codec.encode_observed(id, &outcome, out),
    }
}

/// Runs the request/response loop over any blocking transport with the
/// given codec.
///
/// Up to [`SessionLimits::window`] requests stay in flight at once
/// (older responses are awaited and written as the window slides), so a
/// stream of small requests exercises the engine's micro-batcher.
/// Responses are written in request order. Returns when the input
/// reaches EOF, the stream turns corrupt (the typed error is answered
/// first), or the session's request cap is reached — always after
/// draining every in-flight request.
///
/// # Errors
/// Propagates transport I/O errors. Malformed or unserviceable requests
/// are answered with error *responses*, not I/O errors — a bad frame
/// never tears down the connection; a corrupt stream is answered then
/// closed cleanly.
pub fn run_session<C: WireCodec + ?Sized>(
    mut input: impl Read,
    mut output: impl Write,
    codec: &mut C,
    engine: &ScoringEngine,
    registry: &ModelRegistry,
    limits: &SessionLimits,
) -> std::io::Result<()> {
    let harness = chaos::ambient();
    let mut session = Session::new(engine, registry, limits);
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 8192];
    let mut pending_out = Vec::new();
    let result = (|| {
        'outer: loop {
            loop {
                match codec.decode_frame(&mut buf) {
                    Decoded::Incomplete => break,
                    Decoded::Skip => {
                        conn_read_fault(&harness)?;
                    }
                    Decoded::Frame(frame) => {
                        conn_read_fault(&harness)?;
                        if session.window_full() {
                            session.write_front_blocking(codec, &mut pending_out);
                            flush(&mut output, &mut pending_out)?;
                        }
                        session.accept(frame);
                        if session.cap_reached() {
                            break 'outer;
                        }
                    }
                    Decoded::Corrupt { id, error } => {
                        // Answer in-flight work in order, then the
                        // corruption error, then close the session.
                        session.drain(codec, &mut pending_out);
                        codec.encode_error(&id, &error, &mut pending_out);
                        flush(&mut output, &mut pending_out)?;
                        return Ok(());
                    }
                }
            }
            if buf.at_eof() {
                break;
            }
            match input.read(&mut chunk) {
                Ok(0) => buf.set_eof(),
                Ok(n) => buf.extend(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })();
    // Drain whatever was accepted even when the read loop failed: an
    // admitted request is always answered (or the failure is the
    // transport's, in which case the engine work still completes and the
    // responses go nowhere — never into the next session).
    session.drain(codec, &mut pending_out);
    let _ = flush(&mut output, &mut pending_out);
    result
}

fn conn_read_fault(harness: &chaos::Chaos) -> std::io::Result<()> {
    if let Some(fault) = harness.hit("conn.read") {
        if matches!(
            fault.kind,
            chaos::FaultKind::Disconnect | chaos::FaultKind::Io
        ) {
            return Err(fault.to_io_error());
        }
    }
    Ok(())
}

fn flush(output: &mut impl Write, pending: &mut Vec<u8>) -> std::io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    output.write_all(pending)?;
    pending.clear();
    output.flush()
}
