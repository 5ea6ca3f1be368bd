//! The length-prefixed binary wire protocol.
//!
//! JSONL spends most of a hot request's cycles rendering and parsing
//! decimal floats. The binary codec carries the same request/response
//! vocabulary as [`crate::protocol`] in little-endian frames, so f64
//! feature rows and scores cross the wire as raw IEEE-754 bits —
//! bitwise exact, no shortest-roundtrip formatting on either side.
//!
//! ## Frame layout
//!
//! Every frame is an 8-byte header plus a payload:
//!
//! ```text
//! offset  size  field
//! 0       1     magic        0xC7
//! 1       1     version      0x01
//! 2       1     kind         1 score-req · 2 observe-req · 3 scores ·
//!                            4 error · 5 observed
//! 3       1     reserved     0x00
//! 4       4     payload_len  u32 LE, ≤ 64 MiB
//! 8       n     payload      kind-specific, little-endian throughout
//! ```
//!
//! Variable-length fields encode as a length prefix (`u16` for ids and
//! short strings, `u32` for messages and float arrays) followed by the
//! bytes; optional fields as a one-byte presence flag followed by the
//! value when present. Score-request rows are a dense `n_rows × n_cols`
//! f64 block, so ragged rows are unrepresentable on the wire — and the
//! client-side encoders *reject* what the wire cannot represent (a
//! correlation id longer than the `u16` prefix, ragged rows, a payload
//! over the frame cap) rather than silently truncate or pad: a mangled
//! id would be echoed back unmatchable and padded rows would score
//! phantom zeros.
//!
//! Error frames carry the [`WireError`] code as a one-byte id
//! ([`code_id`]) mapped onto the same 14 stable codes the JSONL codec
//! spells out as strings.
//!
//! ## Fault handling
//!
//! Frame-boundary faults — wrong magic, unsupported version, unknown
//! kind, a length over the cap, or a stream truncated mid-frame — mean
//! the byte stream itself cannot be trusted: the codec returns
//! [`Decoded::Corrupt`] and the session answers the typed error, then
//! closes. Payload-level parse faults leave the boundary sound, so the
//! codec returns [`Frame::Malformed`] and the session answers the error
//! and keeps the connection — the binary analogue of a bad JSONL line.

use crate::calibration::FeedbackOutcome;
use crate::protocol::{ObserveRequest, ScoreRequest, WireError};
use crate::wire::{Decoded, Frame, FrameBuf, WireCodec};

/// First byte of every binary frame. No JSON document starts with it
/// (`{` is 0x7B), which is what makes first-byte codec sniffing sound.
pub const MAGIC: u8 = 0xC7;

/// Protocol version this codec speaks.
pub const VERSION: u8 = 1;

/// Header size: magic + version + kind + reserved + payload length.
pub const HEADER_LEN: usize = 8;

/// Payload size cap. A frame claiming more is corruption, not load.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Frame kinds (header byte 2).
pub mod kind {
    /// Client → server scoring request.
    pub const SCORE_REQUEST: u8 = 1;
    /// Client → server feedback (online-calibration) request.
    pub const OBSERVE_REQUEST: u8 = 2;
    /// Server → client success response carrying scores.
    pub const SCORES: u8 = 3;
    /// Server → client typed error response.
    pub const ERROR: u8 = 4;
    /// Server → client feedback-applied response.
    pub const OBSERVED: u8 = 5;
}

/// The 14 stable wire-error codes, numbered for the one-byte error
/// frame field. The numbering is part of the protocol: append only.
const CODES: [&str; 14] = [
    "bad_request",
    "bad_observe",
    "ragged_rows",
    "unknown_model",
    "queue_full",
    "wrong_width",
    "unfitted",
    "shutting_down",
    "overloaded",
    "deadline_expired",
    "worker_panicked",
    "engine_shutdown",
    "calibration_disabled",
    "not_calibrated",
];

/// The wire id (1-based) for a [`WireError::code`]. Unknown codes map
/// to `bad_request`'s id so an unmapped server-side code degrades to
/// the generic error rather than an unencodable frame.
pub fn code_id(code: &str) -> u8 {
    CODES
        .iter()
        .position(|c| *c == code)
        .map_or(1, |i| i as u8 + 1)
}

/// The static code string for a wire id, `None` when out of range.
pub fn code_from_id(id: u8) -> Option<&'static str> {
    CODES.get(id.checked_sub(1)? as usize).copied()
}

/// The binary codec (see the module docs for the frame layout).
#[derive(Debug, Default)]
pub struct BinaryCodec;

impl BinaryCodec {
    /// A binary codec.
    pub fn new() -> BinaryCodec {
        BinaryCodec
    }
}

// ---- little-endian writers -------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u16`-length-prefixed string. Callers guarantee the length
/// fits the prefix: server-side ids are echoes of decoded `str16`
/// fields (≤ 65535 by construction) and the client-side request
/// encoders validate up front; the clamp is a release-mode backstop so
/// a violated invariant degrades to truncation instead of a corrupt
/// length prefix.
fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "unvalidated str16");
    put_u16(out, bytes.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    put_u32(out, bytes.len().min(u32::MAX as usize) as u32);
    out.extend_from_slice(&bytes[..bytes.len().min(u32::MAX as usize)]);
}

fn put_opt_str16(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str16(out, s);
        }
        None => out.push(0),
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
        None => out.push(0),
    }
}

/// `None` → 0, `Some(false)` → 1, `Some(true)` → 2.
fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    out.push(match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

/// Appends a full frame: header with the payload length backfilled.
fn put_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.push(0);
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
}

// ---- little-endian reader --------------------------------------------------

/// A bounds-checked cursor over one frame's payload. Every read names
/// the field it was after, so a short payload produces a message like
/// `"payload ended reading scores"` instead of a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!("payload ended reading {field}"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, field: &str) -> Result<u8, String> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &str) -> Result<u16, String> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &str) -> Result<u32, String> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &str) -> Result<u64, String> {
        let b = self.take(8, field)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self, field: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    fn str16(&mut self, field: &str) -> Result<String, String> {
        let len = self.u16(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{field} is not UTF-8"))
    }

    fn str32(&mut self, field: &str) -> Result<String, String> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{field} is not UTF-8"))
    }

    fn opt_str16(&mut self, field: &str) -> Result<Option<String>, String> {
        match self.u8(field)? {
            0 => Ok(None),
            _ => Ok(Some(self.str16(field)?)),
        }
    }

    fn opt_f64(&mut self, field: &str) -> Result<Option<f64>, String> {
        match self.u8(field)? {
            0 => Ok(None),
            _ => Ok(Some(self.f64(field)?)),
        }
    }

    fn opt_bool(&mut self, field: &str) -> Result<Option<bool>, String> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            other => Err(format!("{field} flag {other} out of range")),
        }
    }

    fn f64s(&mut self, n: usize, field: &str) -> Result<Vec<f64>, String> {
        let n = n
            .checked_mul(8)
            .ok_or_else(|| format!("{field} count overflows"))?;
        let bytes = self.take(n, field)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(c);
                f64::from_le_bytes(buf)
            })
            .collect())
    }
}

// ---- request encode (client side) ------------------------------------------

/// Rejects a string the `u16` length prefix cannot carry. Truncating
/// instead would mangle the correlation id, leaving the client unable
/// to match the echoed response to its request.
fn check_str16(field: &str, s: &str) -> Result<(), WireError> {
    if s.len() > u16::MAX as usize {
        return Err(WireError::new(
            "bad_request",
            format!(
                "{field} of {} bytes exceeds the {}-byte wire limit",
                s.len(),
                u16::MAX
            ),
        ));
    }
    Ok(())
}

/// Rejects a payload the frame cannot carry — the server treats
/// anything over [`MAX_PAYLOAD`] as stream corruption, so encoding it
/// would only get the connection closed.
fn check_payload(p: &[u8]) -> Result<(), WireError> {
    if p.len() > MAX_PAYLOAD {
        return Err(WireError::new(
            "bad_request",
            format!(
                "request payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
                p.len()
            ),
        ));
    }
    Ok(())
}

/// Appends a score-request frame — what a binary client (a load
/// generator, the tests) sends.
///
/// # Errors
/// A `bad_request` [`WireError`] when the id, model, or version exceeds
/// the `u16` length prefix or the payload exceeds the frame cap, and a
/// `ragged_rows` error when the rows are not rectangular — the dense
/// row block cannot represent ragged input, and zero-padding it would
/// silently score phantom features. Nothing is appended on error.
pub fn encode_score_request(req: &ScoreRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    check_str16("id", &req.id)?;
    if let Some(model) = req.model.as_deref() {
        check_str16("model", model)?;
    }
    if let Some(version) = req.version.as_deref() {
        check_str16("version", version)?;
    }
    let cols = req.rows.first().map_or(0, Vec::len);
    for (i, row) in req.rows.iter().enumerate() {
        if row.len() != cols {
            return Err(WireError::new(
                "ragged_rows",
                format!("row {i} has {} columns, expected {cols}", row.len()),
            ));
        }
    }
    let mut p = Vec::new();
    put_str16(&mut p, &req.id);
    put_opt_str16(&mut p, req.model.as_deref());
    put_opt_str16(&mut p, req.version.as_deref());
    put_opt_f64(&mut p, req.deadline_ms);
    put_u32(&mut p, req.rows.len() as u32);
    put_u32(&mut p, cols as u32);
    for row in &req.rows {
        for &v in row {
            put_f64(&mut p, v);
        }
    }
    check_payload(&p)?;
    put_frame(out, kind::SCORE_REQUEST, &p);
    Ok(())
}

/// Appends an observe-request frame.
///
/// # Errors
/// A `bad_request` [`WireError`] when the id exceeds the `u16` length
/// prefix or the payload exceeds the frame cap. Nothing is appended on
/// error.
pub fn encode_observe_request(req: &ObserveRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    check_str16("id", &req.id)?;
    let mut p = Vec::new();
    put_str16(&mut p, &req.id);
    put_u32(&mut p, req.row.len() as u32);
    for &v in &req.row {
        put_f64(&mut p, v);
    }
    put_opt_f64(&mut p, req.pred);
    put_opt_f64(&mut p, req.scale);
    put_f64(&mut p, req.outcome);
    check_payload(&p)?;
    put_frame(out, kind::OBSERVE_REQUEST, &p);
    Ok(())
}

// ---- request decode (server side) ------------------------------------------

fn parse_score_request(payload: &[u8]) -> Frame {
    let mut c = Cursor::new(payload);
    // Parse the id first so later failures can still answer it.
    let id = match c.str16("id") {
        Ok(id) => id,
        Err(e) => return malformed(String::new(), "bad_request", &e),
    };
    let inner = (|| -> Result<ScoreRequest, String> {
        let model = c.opt_str16("model")?;
        let version = c.opt_str16("version")?;
        let deadline_ms = c.opt_f64("deadline_ms")?;
        let n_rows = c.u32("n_rows")? as usize;
        let n_cols = c.u32("n_cols")? as usize;
        let rows = if n_rows == 0 {
            Vec::new()
        } else if n_cols == 0 {
            // Zero-width rows carry no data and would only tempt a
            // pathological n_rows into a huge allocation.
            return Err("zero-width rows".to_string());
        } else {
            let n = n_rows
                .checked_mul(n_cols)
                .ok_or_else(|| "row block size overflows".to_string())?;
            c.f64s(n, "rows")?
                .chunks(n_cols)
                .map(<[f64]>::to_vec)
                .collect()
        };
        Ok(ScoreRequest {
            id: String::new(),
            model,
            version,
            rows,
            deadline_ms,
        })
    })();
    match inner {
        Ok(mut req) => {
            req.id = id;
            Frame::Score(req)
        }
        Err(e) => malformed(id, "bad_request", &e),
    }
}

fn parse_observe_request(payload: &[u8]) -> Frame {
    let mut c = Cursor::new(payload);
    let id = match c.str16("id") {
        Ok(id) => id,
        Err(e) => return malformed(String::new(), "bad_observe", &e),
    };
    let inner = (|| -> Result<ObserveRequest, String> {
        let n = c.u32("row_len")? as usize;
        let row = c.f64s(n, "row")?;
        let pred = c.opt_f64("pred")?;
        let scale = c.opt_f64("scale")?;
        let outcome = c.f64("outcome")?;
        Ok(ObserveRequest {
            id: String::new(),
            row,
            pred,
            scale,
            outcome,
        })
    })();
    match inner {
        Ok(mut req) => {
            req.id = id;
            Frame::Observe(req)
        }
        Err(e) => malformed(id, "bad_observe", &e),
    }
}

fn malformed(id: String, code: &'static str, detail: &str) -> Frame {
    let noun = if code == "bad_observe" {
        "observe request"
    } else {
        "request"
    };
    Frame::Malformed {
        id,
        error: WireError::new(code, format!("bad binary {noun}: {detail}")),
    }
}

fn corrupt(message: String) -> Decoded {
    Decoded::Corrupt {
        id: String::new(),
        error: WireError::new("bad_request", message),
    }
}

impl WireCodec for BinaryCodec {
    fn decode_frame(&mut self, buf: &mut FrameBuf) -> Decoded {
        let avail = buf.peek();
        if avail.is_empty() {
            return Decoded::Incomplete;
        }
        if avail.len() < HEADER_LEN {
            return if buf.at_eof() {
                corrupt(format!(
                    "truncated frame: stream ended after {} of {HEADER_LEN} header bytes",
                    avail.len()
                ))
            } else {
                Decoded::Incomplete
            };
        }
        if avail[0] != MAGIC {
            return corrupt(format!(
                "bad magic byte 0x{:02x} (expected 0x{MAGIC:02x})",
                avail[0]
            ));
        }
        if avail[1] != VERSION {
            return corrupt(format!(
                "unsupported protocol version {} (this server speaks {VERSION})",
                avail[1]
            ));
        }
        let frame_kind = avail[2];
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        if len > MAX_PAYLOAD {
            return corrupt(format!(
                "oversized frame: payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            ));
        }
        if avail.len() < HEADER_LEN + len {
            return if buf.at_eof() {
                corrupt(format!(
                    "truncated frame: stream ended {} bytes into a {len}-byte payload",
                    avail.len() - HEADER_LEN
                ))
            } else {
                Decoded::Incomplete
            };
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        buf.consume(HEADER_LEN + len);
        match frame_kind {
            kind::SCORE_REQUEST => Decoded::Frame(parse_score_request(&payload)),
            kind::OBSERVE_REQUEST => Decoded::Frame(parse_observe_request(&payload)),
            other => corrupt(format!("unknown frame kind {other}")),
        }
    }

    fn encode_response(&self, id: &str, scores: &[f64], out: &mut Vec<u8>) {
        let mut p = Vec::with_capacity(2 + id.len() + 4 + scores.len() * 8);
        put_str16(&mut p, id);
        put_u32(&mut p, scores.len() as u32);
        for &s in scores {
            put_f64(&mut p, s);
        }
        put_frame(out, kind::SCORES, &p);
    }

    fn encode_error(&self, id: &str, error: &WireError, out: &mut Vec<u8>) {
        let mut p = Vec::new();
        put_str16(&mut p, id);
        p.push(code_id(error.code));
        put_str32(&mut p, &error.message);
        match error.retry_after_ms {
            Some(ms) => {
                p.push(1);
                put_u64(&mut p, ms);
            }
            None => p.push(0),
        }
        put_frame(out, kind::ERROR, &p);
    }

    fn encode_observed(&self, id: &str, outcome: &FeedbackOutcome, out: &mut Vec<u8>) {
        let mut p = Vec::new();
        put_str16(&mut p, id);
        put_u64(&mut p, outcome.observation.window as u64);
        put_opt_bool(&mut p, outcome.observation.covered);
        put_opt_bool(&mut p, outcome.drift.map(|d| d.drifted));
        put_opt_str16(&mut p, outcome.swapped_version.as_deref());
        put_opt_str16(&mut p, outcome.degraded.map(rdrp::DegradedMode::label));
        put_frame(out, kind::OBSERVED, &p);
    }
}

// ---- response decode (client side) ------------------------------------------

/// One server response, as decoded by a binary client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Scores for the request with this id.
    Scores {
        /// Echoed correlation id.
        id: String,
        /// The scores, bitwise as the server computed them.
        scores: Vec<f64>,
    },
    /// A typed error for the request with this id.
    Error {
        /// Echoed correlation id (possibly empty for corrupt-stream
        /// errors).
        id: String,
        /// The decoded error, code mapped back to its static string.
        error: WireError,
    },
    /// Feedback applied.
    Observed {
        /// Echoed correlation id.
        id: String,
        /// Feedback window fill.
        window: u64,
        /// Whether the observed outcome fell inside the served interval.
        covered: Option<bool>,
        /// Whether this observation tripped the drift detector.
        drifted: Option<bool>,
        /// Version hot-swapped into the registry, when recalibration ran.
        swapped: Option<String>,
        /// Degraded-mode label, when recalibration could not run.
        degraded: Option<String>,
    },
}

/// Decodes one server→client frame from the buffer.
///
/// Returns `Ok(None)` when the buffer holds only a partial frame.
///
/// # Errors
/// A [`WireError`] when the stream is corrupt (bad magic/version/kind,
/// oversized or truncated frame, undecodable payload) — client-side
/// mirror of the server's [`Decoded::Corrupt`].
pub fn decode_client_frame(buf: &mut FrameBuf) -> Result<Option<ClientFrame>, WireError> {
    let avail = buf.peek();
    if avail.len() < HEADER_LEN {
        if buf.at_eof() && !avail.is_empty() {
            return Err(WireError::new(
                "bad_request",
                "truncated response: stream ended mid-header",
            ));
        }
        return Ok(None);
    }
    if avail[0] != MAGIC || avail[1] != VERSION {
        return Err(WireError::new(
            "bad_request",
            format!("bad response header {:02x} {:02x}", avail[0], avail[1]),
        ));
    }
    let frame_kind = avail[2];
    let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::new(
            "bad_request",
            format!("oversized response payload: {len} bytes"),
        ));
    }
    if avail.len() < HEADER_LEN + len {
        if buf.at_eof() {
            return Err(WireError::new(
                "bad_request",
                "truncated response: stream ended mid-payload",
            ));
        }
        return Ok(None);
    }
    let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
    buf.consume(HEADER_LEN + len);
    let bad = |e: String| WireError::new("bad_request", format!("bad response payload: {e}"));
    let mut c = Cursor::new(&payload);
    match frame_kind {
        kind::SCORES => {
            let id = c.str16("id").map_err(bad)?;
            let n = c.u32("n_scores").map_err(bad)? as usize;
            let scores = c.f64s(n, "scores").map_err(bad)?;
            Ok(Some(ClientFrame::Scores { id, scores }))
        }
        kind::ERROR => {
            let id = c.str16("id").map_err(bad)?;
            let code = c.u8("code").map_err(bad)?;
            let code =
                code_from_id(code).ok_or_else(|| bad(format!("unknown error code id {code}")))?;
            let message = c.str32("message").map_err(bad)?;
            let retry_after_ms = match c.u8("retry_flag").map_err(bad)? {
                0 => None,
                _ => Some(c.u64("retry_after_ms").map_err(bad)?),
            };
            Ok(Some(ClientFrame::Error {
                id,
                error: WireError {
                    code,
                    message,
                    retry_after_ms,
                },
            }))
        }
        kind::OBSERVED => {
            let id = c.str16("id").map_err(bad)?;
            let window = c.u64("window").map_err(bad)?;
            let covered = c.opt_bool("covered").map_err(bad)?;
            let drifted = c.opt_bool("drifted").map_err(bad)?;
            let swapped = c.opt_str16("swapped").map_err(bad)?;
            let degraded = c.opt_str16("degraded").map_err(bad)?;
            Ok(Some(ClientFrame::Observed {
                id,
                window,
                covered,
                drifted,
                swapped,
                degraded,
            }))
        }
        other => Err(WireError::new(
            "bad_request",
            format!("unexpected response frame kind {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_one(codec: &mut BinaryCodec, bytes: &[u8], eof: bool) -> Decoded {
        let mut buf = FrameBuf::new();
        buf.extend(bytes);
        if eof {
            buf.set_eof();
        }
        codec.decode_frame(&mut buf)
    }

    #[test]
    fn score_request_round_trips_bitwise() {
        let req = ScoreRequest {
            id: "req-1".into(),
            model: Some("checkout".into()),
            version: None,
            rows: vec![
                vec![0.1, -0.0, f64::MIN_POSITIVE],
                vec![f64::MAX, 1e-308, 3.5],
            ],
            deadline_ms: Some(12.5),
        };
        let mut bytes = Vec::new();
        encode_score_request(&req, &mut bytes).expect("encodable request");
        match decode_one(&mut BinaryCodec::new(), &bytes, false) {
            Decoded::Frame(Frame::Score(got)) => {
                assert_eq!(got.id, req.id);
                assert_eq!(got.model, req.model);
                assert_eq!(got.version, req.version);
                assert_eq!(got.deadline_ms, req.deadline_ms);
                for (a, b) in got.rows.iter().flatten().zip(req.rows.iter().flatten()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("expected score frame, got {other:?}"),
        }
    }

    #[test]
    fn observe_request_round_trips() {
        let req = ObserveRequest {
            id: "f1".into(),
            row: vec![1.5, -2.25],
            pred: Some(0.5),
            scale: None,
            outcome: 0.41,
        };
        let mut bytes = Vec::new();
        encode_observe_request(&req, &mut bytes).expect("encodable request");
        match decode_one(&mut BinaryCodec::new(), &bytes, false) {
            Decoded::Frame(Frame::Observe(got)) => {
                assert_eq!(got.id, req.id);
                assert_eq!(got.row, req.row);
                assert_eq!(got.pred, req.pred);
                assert_eq!(got.scale, req.scale);
                assert_eq!(got.outcome, req.outcome);
            }
            other => panic!("expected observe frame, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_corrupt() {
        match decode_one(&mut BinaryCodec::new(), &[0x7B, 1, 1, 0, 0, 0, 0, 0], false) {
            Decoded::Corrupt { error, .. } => {
                assert_eq!(error.code, "bad_request");
                assert!(error.message.contains("bad magic"), "{}", error.message);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_corrupt_without_allocating() {
        let mut bytes = vec![MAGIC, VERSION, kind::SCORE_REQUEST, 0];
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        match decode_one(&mut BinaryCodec::new(), &bytes, false) {
            Decoded::Corrupt { error, .. } => {
                assert!(error.message.contains("oversized"), "{}", error.message);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_eof_is_corrupt_not_incomplete() {
        let req = ScoreRequest {
            id: "t".into(),
            model: None,
            version: None,
            rows: vec![vec![1.0]],
            deadline_ms: None,
        };
        let mut bytes = Vec::new();
        encode_score_request(&req, &mut bytes).expect("encodable request");
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            decode_one(&mut BinaryCodec::new(), cut, false),
            Decoded::Incomplete
        ));
        match decode_one(&mut BinaryCodec::new(), cut, true) {
            Decoded::Corrupt { error, .. } => {
                assert!(error.message.contains("truncated"), "{}", error.message);
            }
            other => panic!("expected corrupt at eof, got {other:?}"),
        }
    }

    #[test]
    fn encode_rejects_overlong_ids_and_ragged_rows() {
        let mut out = Vec::new();
        let long_id = "x".repeat(u16::MAX as usize + 1);
        let err = encode_score_request(
            &ScoreRequest {
                id: long_id.clone(),
                model: None,
                version: None,
                rows: vec![vec![1.0]],
                deadline_ms: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("id"), "{}", err.message);

        let err = encode_score_request(
            &ScoreRequest {
                id: "r".into(),
                model: None,
                version: None,
                rows: vec![vec![1.0, 2.0], vec![3.0]],
                deadline_ms: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, "ragged_rows");
        assert!(err.message.contains("row 1"), "{}", err.message);

        let err = encode_observe_request(
            &ObserveRequest {
                id: long_id,
                row: vec![1.0],
                pred: None,
                scale: None,
                outcome: 0.0,
            },
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(out.is_empty(), "rejected encodes must append nothing");
    }

    #[test]
    fn every_code_round_trips_through_its_id() {
        for code in CODES {
            assert_eq!(code_from_id(code_id(code)), Some(code));
        }
        assert_eq!(code_from_id(0), None);
        assert_eq!(code_from_id(15), None);
        assert_eq!(code_id("never_heard_of_it"), 1);
    }

    #[test]
    fn error_frame_round_trips_with_retry_hint() {
        let codec = BinaryCodec::new();
        let err = WireError {
            code: "overloaded",
            message: "shed".into(),
            retry_after_ms: Some(17),
        };
        let mut bytes = Vec::new();
        codec.encode_error("r9", &err, &mut bytes);
        let mut buf = FrameBuf::new();
        buf.extend(&bytes);
        match decode_client_frame(&mut buf).unwrap().unwrap() {
            ClientFrame::Error { id, error } => {
                assert_eq!(id, "r9");
                assert_eq!(error, err);
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn scores_response_round_trips_bitwise() {
        let codec = BinaryCodec::new();
        let scores = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE / 2.0, 1e308];
        let mut bytes = Vec::new();
        codec.encode_response("r1", &scores, &mut bytes);
        let mut buf = FrameBuf::new();
        buf.extend(&bytes);
        match decode_client_frame(&mut buf).unwrap().unwrap() {
            ClientFrame::Scores { id, scores: got } => {
                assert_eq!(id, "r1");
                for (a, b) in got.iter().zip(&scores) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("expected scores frame, got {other:?}"),
        }
    }
}
