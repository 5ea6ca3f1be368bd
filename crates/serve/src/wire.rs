//! The codec seam between transports and the session loop.
//!
//! [`WireCodec`] separates the framing from the session logic (windowed
//! in-flight requests, registry resolution, engine dispatch), so the
//! same session loop ([`crate::session::run_session`] and the
//! non-blocking poll loop in [`crate::net`]) drives either codec:
//!
//! * [`JsonlCodec`] — the one-JSON-object-per-line debug codec. Its
//!   output is pinned byte-for-byte by the protocol tests and CI's
//!   serve-smoke `cmp`.
//! * [`crate::BinaryCodec`] — length-prefixed little-endian frames for
//!   throughput (see [`crate::binary`] for the layout).
//!
//! A codec is a pure in-memory transformation over a [`FrameBuf`]: the
//! transport reads bytes into the buffer however it likes (blocking
//! `Read`, non-blocking socket), and [`WireCodec::decode_frame`] either
//! yields a [`Frame`], asks for more bytes, or declares the stream
//! corrupt. Responses are encoded into a byte vector the transport
//! flushes. Nothing in a codec blocks, so the same impl serves the
//! blocking and the readiness-style frontends.
//!
//! Which codec a connection speaks is negotiated by first-byte sniffing
//! ([`sniff_codec`]): binary frames open with the magic byte `0xC7`,
//! which no JSON document starts with, so JSONL remains usable as the
//! debug codec on the same port.

use crate::binary::{BinaryCodec, MAGIC};
use crate::calibration::FeedbackOutcome;
use crate::protocol::{
    parse_request, render_error, render_observed, render_scores, ObserveRequest, ScoreRequest,
    WireError,
};

/// Growable byte buffer a transport fills and a codec drains.
///
/// Consumed bytes are logically removed via a start offset and
/// physically compacted once they outgrow half the buffer, so a
/// long-lived connection doesn't accumulate dead bytes.
#[derive(Debug, Default)]
pub struct FrameBuf {
    data: Vec<u8>,
    start: usize,
    eof: bool,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends bytes read off the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Marks the transport closed: no more bytes will arrive. A codec
    /// uses this to distinguish "frame still in flight" from "stream
    /// truncated mid-frame".
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether the transport reached EOF.
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// The unconsumed bytes.
    pub fn peek(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Whether every received byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.start >= self.data.len()
    }

    /// Marks `n` unconsumed bytes as consumed.
    pub fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.data.len());
        if self.start > self.data.len() / 2 {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One decoded request frame.
#[derive(Debug)]
pub enum Frame {
    /// A scoring request.
    Score(ScoreRequest),
    /// A feedback (online-calibration) request.
    Observe(ObserveRequest),
    /// A frame whose boundary was sound but whose payload wasn't — the
    /// session answers the typed error and keeps the connection.
    Malformed {
        /// Correlation id when the payload parsed far enough to have
        /// one, empty otherwise.
        id: String,
        /// The typed parse error to answer with.
        error: WireError,
    },
}

/// The result of one [`WireCodec::decode_frame`] call.
#[derive(Debug)]
pub enum Decoded {
    /// A complete frame was consumed from the buffer.
    Frame(Frame),
    /// Input was consumed but no frame produced (a blank JSONL line).
    /// Counted like a frame by session-level fault injection so chaos
    /// hit counting matches the old per-line semantics.
    Skip,
    /// Not enough bytes for a complete frame; read more (or, at EOF
    /// with an empty buffer, the stream ended cleanly).
    Incomplete,
    /// The stream cannot be trusted past this point (bad magic, bad
    /// version, oversized length, truncation mid-frame). The session
    /// answers the error, drains in-flight work, and closes.
    Corrupt {
        /// Correlation id when one was salvageable, empty otherwise.
        id: String,
        /// The typed error to answer before closing.
        error: WireError,
    },
}

/// A wire codec: pure framing over a [`FrameBuf`], shared by the
/// blocking and the non-blocking session drivers.
pub trait WireCodec {
    /// Tries to decode the next frame from the buffer. Must consume the
    /// frame's bytes exactly when returning [`Decoded::Frame`] or
    /// [`Decoded::Skip`]; must consume nothing on [`Decoded::Incomplete`].
    fn decode_frame(&mut self, buf: &mut FrameBuf) -> Decoded;

    /// Appends the success response for `id` to `out`.
    fn encode_response(&self, id: &str, scores: &[f64], out: &mut Vec<u8>);

    /// Appends the error response for `id` to `out`.
    fn encode_error(&self, id: &str, error: &WireError, out: &mut Vec<u8>);

    /// Appends the feedback-applied response for `id` to `out`.
    fn encode_observed(&self, id: &str, outcome: &FeedbackOutcome, out: &mut Vec<u8>);
}

/// Picks the codec for a connection from its first byte: the binary
/// magic selects [`BinaryCodec`], anything else (in particular `{`,
/// whitespace, or any UTF-8 text) stays on [`JsonlCodec`].
pub fn sniff_codec(first_byte: u8) -> Box<dyn WireCodec + Send> {
    if first_byte == MAGIC {
        Box::new(BinaryCodec::new())
    } else {
        Box::new(JsonlCodec::new())
    }
}

/// The line-delimited JSON codec (the original debug protocol; see
/// [`crate::protocol`] for the line grammar).
#[derive(Debug, Default)]
pub struct JsonlCodec;

impl JsonlCodec {
    /// A JSONL codec.
    pub fn new() -> JsonlCodec {
        JsonlCodec
    }
}

impl WireCodec for JsonlCodec {
    fn decode_frame(&mut self, buf: &mut FrameBuf) -> Decoded {
        let avail = buf.peek();
        let (line_end, consume) = match avail.iter().position(|&b| b == b'\n') {
            Some(nl) => (nl, nl + 1),
            // `BufRead::lines` yields a final unterminated line, so the
            // bytes after the last newline become a frame at EOF.
            None if buf.at_eof() && !avail.is_empty() => (avail.len(), avail.len()),
            None => return Decoded::Incomplete,
        };
        // Mirror `BufRead::lines`: strip one trailing `\r`.
        let line_end = if line_end > 0 && avail[line_end - 1] == b'\r' {
            line_end - 1
        } else {
            line_end
        };
        let line = String::from_utf8_lossy(&avail[..line_end]).into_owned();
        buf.consume(consume);
        if line.trim().is_empty() {
            return Decoded::Skip;
        }
        Decoded::Frame(parse_line(&line))
    }

    fn encode_response(&self, id: &str, scores: &[f64], out: &mut Vec<u8>) {
        out.extend_from_slice(render_scores(id, scores).as_bytes());
        out.push(b'\n');
    }

    fn encode_error(&self, id: &str, error: &WireError, out: &mut Vec<u8>) {
        out.extend_from_slice(render_error(id, error).as_bytes());
        out.push(b'\n');
    }

    fn encode_observed(&self, id: &str, outcome: &FeedbackOutcome, out: &mut Vec<u8>) {
        out.extend_from_slice(render_observed(id, outcome).as_bytes());
        out.push(b'\n');
    }
}

/// Parses one JSONL line into a frame. Feedback lines are distinguished
/// from scoring lines by a non-null `"outcome"` key; parse failures
/// salvage the id when the object parsed far enough to have one.
fn parse_line(line: &str) -> Frame {
    let parsed = tinyjson::parse(line).ok();
    let salvage_id = || {
        parsed
            .as_ref()
            .and_then(|v| {
                v.get("id")
                    .and_then(|id| id.as_str().ok().map(String::from))
            })
            .unwrap_or_default()
    };
    if parsed
        .as_ref()
        .is_some_and(|v| !matches!(v.get("outcome"), Some(tinyjson::Value::Null) | None))
    {
        return match tinyjson::from_str::<ObserveRequest>(line) {
            Ok(req) => Frame::Observe(req),
            Err(e) => Frame::Malformed {
                id: salvage_id(),
                error: WireError::new("bad_observe", format!("bad observe request: {e}")),
            },
        };
    }
    match parse_request(line) {
        Ok(req) => Frame::Score(req),
        Err(e) => Frame::Malformed {
            // Salvage the id when the object parsed but a field didn't.
            id: salvage_id(),
            error: WireError::new("bad_request", format!("bad request: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_decodes_lines_and_skips_blanks() {
        let mut codec = JsonlCodec::new();
        let mut buf = FrameBuf::new();
        buf.extend(b"{\"id\":\"a\",\"rows\":[[1]]}\n\n{\"id\":\"b\",");
        match codec.decode_frame(&mut buf) {
            Decoded::Frame(Frame::Score(req)) => assert_eq!(req.id, "a"),
            other => panic!("expected score frame, got {other:?}"),
        }
        assert!(matches!(codec.decode_frame(&mut buf), Decoded::Skip));
        assert!(matches!(codec.decode_frame(&mut buf), Decoded::Incomplete));
        buf.extend(b"\"rows\":[[2]]}");
        assert!(matches!(codec.decode_frame(&mut buf), Decoded::Incomplete));
        buf.set_eof();
        match codec.decode_frame(&mut buf) {
            Decoded::Frame(Frame::Score(req)) => assert_eq!(req.id, "b"),
            other => panic!("expected final unterminated line, got {other:?}"),
        }
        assert!(matches!(codec.decode_frame(&mut buf), Decoded::Incomplete));
        assert!(buf.is_empty());
    }

    #[test]
    fn jsonl_strips_carriage_returns_like_bufread_lines() {
        let mut codec = JsonlCodec::new();
        let mut buf = FrameBuf::new();
        buf.extend(b"{\"id\":\"crlf\",\"rows\":[[1]]}\r\n");
        match codec.decode_frame(&mut buf) {
            Decoded::Frame(Frame::Score(req)) => assert_eq!(req.id, "crlf"),
            other => panic!("expected score frame, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_malformed_line_salvages_id() {
        let mut codec = JsonlCodec::new();
        let mut buf = FrameBuf::new();
        buf.extend(b"{\"id\":\"r2\",\"rows\":\"nope\"}\n");
        match codec.decode_frame(&mut buf) {
            Decoded::Frame(Frame::Malformed { id, error }) => {
                assert_eq!(id, "r2");
                assert_eq!(error.code, "bad_request");
            }
            other => panic!("expected malformed frame, got {other:?}"),
        }
    }

    #[test]
    fn framebuf_compacts_consumed_prefix() {
        let mut buf = FrameBuf::new();
        buf.extend(&[0u8; 100]);
        buf.consume(80);
        assert_eq!(buf.peek().len(), 20);
        buf.extend(&[1u8; 4]);
        assert_eq!(buf.peek().len(), 24);
        assert_eq!(buf.peek()[20], 1);
    }
}
