//! The non-blocking TCP frontend: one poll loop, many connections, no
//! thread-per-connection.
//!
//! [`serve_poll`] owns a nonblocking [`TcpListener`] and a set of
//! nonblocking accepted sockets, and drives every connection's
//! [`Session`] from a single readiness-style loop (std::net only, house
//! style of `par` — no epoll binding, just `WouldBlock` plus a bounded
//! idle sleep when nothing progressed). Where the old
//! thread-per-connection frontend pinned one OS thread per peer, the
//! poll loop's cost per idle connection is one non-blocking `read`.
//!
//! Each connection:
//!
//! * gets a monotonically increasing connection id and is routed to
//!   [`ShardedEngine::shard_for`]`(id)` — the whole session runs on one
//!   shard, preserving per-connection ordering and batching;
//! * negotiates its codec from its first byte ([`sniff_codec`]): the
//!   binary magic selects the binary codec, anything else stays JSONL,
//!   so both protocols share one port ([`NetConfig::binary_only`]
//!   skips the sniff and rejects non-binary bytes as corrupt);
//! * is bounded by the shared [`SessionLimits`] plus
//!   [`NetConfig::conn_timeout`]: a peer that neither sends nor
//!   accepts bytes for that long *while nothing of its own is queued in
//!   the engine* is disconnected and counted
//!   (`serve.slow_client_disconnects`). The in-flight guard matters
//!   under overload: backpressure stops reading a connection whose
//!   window is full, so engine backlog would otherwise masquerade as
//!   client idleness and sever loaded-but-healthy connections. A peer
//!   with *unflushed responses* that accepts none of them for the
//!   timeout is disconnected even with work in flight — pending writes
//!   are the peer's to drain, so a write stall is never the engine's
//!   fault (the old frontend's write-timeout semantics).
//!
//! Backpressure composes instead of blocking, and it is enforced at
//! every stage, not just documented: reads and decodes interleave, and
//! both stop while the session's response window is full or more than
//! [`NetConfig::max_unflushed`] encoded bytes await the socket
//! ([`Session::pop_ready`] pauses on the same cap). A peer that sends
//! faster than the engine scores — or that never reads its responses —
//! therefore stops being *read*: its bytes pile up in the kernel's
//! socket buffers, which fill and push back on the peer via TCP flow
//! control. Server-side memory per connection stays bounded by the
//! window, the unflushed cap, and one readahead chunk.

use crate::protocol::{SessionLimits, WireError};
use crate::registry::ModelRegistry;
use crate::session::Session;
use crate::shard::ShardedEngine;
use crate::wire::{sniff_codec, Decoded, FrameBuf, WireCodec};
use crate::BinaryCodec;
use obs::Obs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long the loop sleeps when a full pass over listener and
/// connections made no progress.
const POLL_WAIT: Duration = Duration::from_micros(200);

/// Poll-loop configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Total connections accepted before the loop drains and returns;
    /// `None` serves until the process dies. (Lifetime cap, matching
    /// the old frontend's `--max-conns` — used by tests and smoke
    /// runs.)
    pub max_conns: Option<usize>,
    /// Disconnect a connection with no read or write progress for this
    /// long (`serve.slow_client_disconnects`). `None` never times out.
    pub conn_timeout: Option<Duration>,
    /// Skip codec sniffing and require the binary protocol.
    pub binary_only: bool,
    /// Encoded-but-unwritten response bytes a connection may hold
    /// before the loop stops resolving (and therefore decoding and
    /// reading) for it. This is the write-side memory bound: a peer
    /// that never reads its responses accumulates at most this many
    /// bytes plus one response, not its whole backlog.
    pub max_unflushed: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: None,
            conn_timeout: None,
            binary_only: false,
            max_unflushed: 256 * 1024,
        }
    }
}

/// One connection's state in the poll loop.
struct Conn<'a> {
    stream: TcpStream,
    buf: FrameBuf,
    /// Encoded responses not yet fully written to the socket.
    out: Vec<u8>,
    written: usize,
    /// Sniffed lazily from the first byte (or fixed when binary-only).
    codec: Option<Box<dyn WireCodec + Send>>,
    session: Session<'a>,
    /// The corrupt-stream error to answer once in-flight work drains.
    pending_corrupt: Option<(String, WireError)>,
    /// The stream was declared corrupt and answered: whatever bytes
    /// remain in `buf` are untrusted and intentionally unserved.
    discarding: bool,
    last_activity: Instant,
    read_closed: bool,
    dead: bool,
}

impl Conn<'_> {
    /// Encoded response bytes not yet accepted by the socket.
    fn unflushed(&self) -> usize {
        self.out.len() - self.written
    }

    /// Whether everything this connection will ever send has been sent.
    fn finished(&self) -> bool {
        let drained = !self.session.has_in_flight() && self.pending_corrupt.is_none();
        let flushed = self.written >= self.out.len();
        // Unconsumed buffer bytes are undecoded *requests* — decoding
        // pauses while the response window is full, so at EOF the
        // buffer can still hold work that must be served before the
        // connection is done (unless the rest of the stream is
        // untrusted after corruption, or the request cap cut it off).
        let consumed = self.buf.is_empty() || self.discarding || self.session.cap_reached();
        self.dead
            || ((self.read_closed || self.session.cap_reached()) && consumed && drained && flushed)
    }
}

/// Serves connections from `listener` until the
/// [`NetConfig::max_conns`] lifetime cap is reached and every accepted
/// connection has drained (forever when uncapped).
///
/// # Errors
/// Only setup errors (putting the listener into non-blocking mode)
/// fail the loop; per-connection I/O errors tear down that connection
/// and are recorded as `serve.conn_errors`.
pub fn serve_poll(
    listener: &TcpListener,
    engine: &ShardedEngine,
    registry: &ModelRegistry,
    limits: &SessionLimits,
    cfg: &NetConfig,
    obs: &Obs,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepted: usize = 0;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let mut progress = false;
        // Accept whatever is pending, up to the lifetime cap.
        while cfg.max_conns.is_none_or(|m| accepted < m) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Err(e) = stream.set_nonblocking(true) {
                        obs.event("serve.conn_error", &[("error", format!("{e}").into())]);
                        continue;
                    }
                    let conn_id = accepted as u64;
                    accepted += 1;
                    progress = true;
                    obs.counter("serve.conns", 1.0);
                    conns.push(Conn {
                        stream,
                        buf: FrameBuf::new(),
                        out: Vec::new(),
                        written: 0,
                        codec: cfg
                            .binary_only
                            .then(|| Box::new(BinaryCodec::new()) as Box<dyn WireCodec + Send>),
                        session: Session::new(engine.shard_for(conn_id), registry, limits),
                        pending_corrupt: None,
                        discarding: false,
                        last_activity: Instant::now(),
                        read_closed: false,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    obs.event("serve.accept_error", &[("error", format!("{e}").into())]);
                    break;
                }
            }
        }
        for conn in &mut conns {
            progress |= tick(conn, &mut chunk, cfg, obs);
            if let Some(timeout) = cfg.conn_timeout {
                // Idleness is the *client's*: a connection whose requests
                // are still queued in the engine sees no read/write
                // progress through no fault of its own (backpressure
                // stops reads while the window is full), so the timeout
                // only runs while nothing is in flight — except when
                // responses sit unflushed, which means the *peer* is not
                // reading: engine backlog never excuses a write stall.
                if !conn.finished()
                    && (conn.unflushed() > 0 || !conn.session.has_in_flight())
                    && conn.last_activity.elapsed() > timeout
                {
                    obs.counter("serve.slow_client_disconnects", 1.0);
                    conn.dead = true;
                    progress = true;
                }
            }
        }
        conns.retain(|c| !c.finished());
        if cfg.max_conns.is_some_and(|m| accepted >= m) && conns.is_empty() {
            return Ok(());
        }
        if !progress {
            std::thread::sleep(POLL_WAIT);
        }
    }
}

/// One readiness pass over a connection: read what's there, decode and
/// dispatch what's complete, collect resolved responses, flush what the
/// socket will take. Returns whether anything progressed.
fn tick(conn: &mut Conn<'_>, chunk: &mut [u8], cfg: &NetConfig, obs: &Obs) -> bool {
    let mut progress = false;
    let harness = chaos::ambient();
    // 1. Interleave reading and decoding, one chunk at a time, so the
    //    backpressure gates are re-checked between chunks: once the
    //    response window is full or unflushed output exceeds its cap,
    //    the loop stops *reading*, not just decoding, and the kernel's
    //    socket buffers fill and push back on the peer. Draining the
    //    socket first and gating only the decode would buffer an
    //    arbitrarily fast sender's whole backlog in `conn.buf`.
    loop {
        // Negotiate the codec from the first byte.
        if conn.codec.is_none() {
            if let Some(&first) = conn.buf.peek().first() {
                conn.codec = Some(sniff_codec(first));
            }
        }
        // Decode and dispatch the complete frames buffered so far.
        if let Some(codec) = &mut conn.codec {
            while !conn.dead
                && conn.pending_corrupt.is_none()
                && !conn.session.window_full()
                && !conn.session.cap_reached()
                // `unflushed()` spelled out: the method would borrow
                // all of `conn` while `codec` is borrowed from it.
                && conn.out.len() - conn.written <= cfg.max_unflushed
            {
                match codec.decode_frame(&mut conn.buf) {
                    Decoded::Incomplete => break,
                    Decoded::Skip => {
                        progress = true;
                        if conn_read_fault(&harness) {
                            conn.dead = true;
                        }
                    }
                    Decoded::Frame(frame) => {
                        progress = true;
                        if conn_read_fault(&harness) {
                            conn.dead = true;
                        } else {
                            conn.session.accept(frame);
                        }
                    }
                    Decoded::Corrupt { id, error } => {
                        progress = true;
                        conn.pending_corrupt = Some((id, error));
                    }
                }
            }
        }
        // The read gate: stop pulling bytes while the connection
        // cannot consume them (window full, unflushed cap exceeded,
        // request cap reached, stream corrupt or closed). `conn.buf`
        // then holds at most the readahead of one gated pass.
        if conn.read_closed
            || conn.dead
            || conn.pending_corrupt.is_some()
            || conn.session.window_full()
            || conn.session.cap_reached()
            || conn.unflushed() > cfg.max_unflushed
        {
            break;
        }
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.read_closed = true;
                conn.buf.set_eof();
                progress = true;
                // Loop once more: the codec distinguishes "incomplete"
                // from "truncated" only after seeing EOF.
            }
            Ok(n) => {
                conn.buf.extend(&chunk[..n]);
                conn.last_activity = Instant::now();
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                obs.event("serve.conn_error", &[("error", format!("{e}").into())]);
                conn.dead = true;
                return true;
            }
        }
    }
    if let Some(codec) = &mut conn.codec {
        // 2. Collect responses that resolved, in request order, until
        //    the unflushed cap says the peer has stopped draining them.
        while conn.out.len() - conn.written <= cfg.max_unflushed
            && conn.session.pop_ready(codec.as_ref(), &mut conn.out)
        {
            progress = true;
        }
        // 3. Once in-flight work drained, answer the corruption error
        //    and treat the stream as closed.
        if !conn.session.has_in_flight() {
            if let Some((id, error)) = conn.pending_corrupt.take() {
                codec.encode_error(&id, &error, &mut conn.out);
                conn.read_closed = true;
                conn.discarding = true;
                progress = true;
            }
        }
    }
    // 4. Flush what the socket will take.
    while conn.written < conn.out.len() && !conn.dead {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
            }
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                obs.event("serve.conn_error", &[("error", format!("{e}").into())]);
                conn.dead = true;
            }
        }
    }
    if conn.written == conn.out.len() && conn.written > 0 {
        conn.out.clear();
        conn.written = 0;
    }
    progress
}

/// Mirrors the blocking session's `conn.read` chaos handling: an
/// injected `Disconnect`/`Io` fault tears down this connection.
fn conn_read_fault(harness: &chaos::Chaos) -> bool {
    matches!(
        harness.hit("conn.read"),
        Some(chaos::Fault {
            kind: chaos::FaultKind::Disconnect | chaos::FaultKind::Io,
            ..
        })
    )
}
