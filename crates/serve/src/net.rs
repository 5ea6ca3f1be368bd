//! The non-blocking TCP frontend: one poll loop, many connections, no
//! thread-per-connection.
//!
//! [`serve_poll`] owns a nonblocking [`TcpListener`] and a set of
//! nonblocking accepted sockets (`TCP_NODELAY` on, so a response leaves
//! as soon as it is written), and drives every connection's [`Session`]
//! from a single event-driven loop. The loop blocks in `poll(2)` on the
//! listener, every connection it can act on, and a waker — an
//! `eventfd(2)` counter the engine's workers bump after answering — so
//! an idle server sleeps in the kernel and a ready socket or a ready
//! answer wakes it at once. It acts only on what `poll` reported: it
//! accepts only when the listener polled readable, reads a socket only
//! when it polled readable (stopping at a short read), and retries a
//! blocked write only when the socket polled writable. std only, house
//! style of `par`: the two libc calls std lacks, `poll` and `eventfd`,
//! are declared here.
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
//!   fault (the old frontend's write-timeout semantics). The loop's
//!   `poll` timeout is the nearest such deadline.
//!
//! Backpressure composes instead of blocking, and it is enforced at
//! every stage, not just documented: reads and decodes interleave, and
//! both stop while the session's response window is full or more than
//! [`NetConfig::max_unflushed`] encoded bytes await the socket
//! ([`Session::pop_ready`] pauses on the same cap). A peer that sends
//! faster than the engine scores — or that never reads its responses —
//! therefore stops being *read* (the loop stops polling it for input):
//! its bytes pile up in the kernel's socket buffers, which fill and
//! push back on the peer via TCP flow control. Server-side memory per
//! connection stays bounded by the window, the unflushed cap, and one
//! readahead chunk.

use crate::protocol::{SessionLimits, WireError};
use crate::registry::ModelRegistry;
use crate::session::Session;
use crate::shard::ShardedEngine;
use crate::wire::{sniff_codec, Decoded, FrameBuf, WireCodec};
use crate::BinaryCodec;
use obs::Obs;
use std::ffi::{c_int, c_short, c_uint};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// `poll` reported input (or a hang-up or error) that no read has
    /// consumed yet.
    readable: bool,
    /// The last write would have blocked; retried once `poll` reports
    /// the socket writable.
    write_blocked: bool,
    read_closed: bool,
    dead: bool,
}

impl Conn<'_> {
    /// Encoded response bytes not yet accepted by the socket.
    fn unflushed(&self) -> usize {
        self.out.len() - self.written
    }

    /// The read gate: whether the connection can take more input now.
    /// Closed while the response window is full, unflushed output
    /// exceeds its cap, the request cap is reached, or the stream is
    /// corrupt or closed; `buf` then holds at most the readahead of one
    /// gated pass.
    fn wants_input(&self, cfg: &NetConfig) -> bool {
        !(self.read_closed
            || self.dead
            || self.pending_corrupt.is_some()
            || self.session.window_full()
            || self.session.cap_reached()
            || self.unflushed() > cfg.max_unflushed)
    }

    /// Whether the idle timeout runs. Idleness is the *client's*: a
    /// connection whose requests are still queued in the engine sees no
    /// read/write progress through no fault of its own (backpressure
    /// stops reads while the window is full), so the timeout only runs
    /// while nothing is in flight — except when responses sit
    /// unflushed, which means the *peer* is not reading: engine backlog
    /// never excuses a write stall.
    fn idle_timer_runs(&self) -> bool {
        !self.finished() && (self.unflushed() > 0 || !self.session.has_in_flight())
    }

    /// Encodes the responses that resolved, in request order, until the
    /// unflushed cap says the peer has stopped draining them. Makes no
    /// syscall. Returns whether any resolved.
    fn resolve(&mut self, cfg: &NetConfig) -> bool {
        let Some(codec) = &self.codec else {
            return false;
        };
        let mut resolved = false;
        while self.out.len() - self.written <= cfg.max_unflushed
            && self.session.pop_ready(codec.as_ref(), &mut self.out)
        {
            resolved = true;
        }
        resolved
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
/// One poll loop per engine: the loop attaches its wake-up to
/// `engine`'s workers for as long as it runs.
///
/// # Errors
/// Setup errors (putting the listener into non-blocking mode, creating
/// the wake-up counter) and `poll` failures end the loop;
/// per-connection I/O errors tear down that connection and are recorded
/// as `serve.conn_error` events.
pub fn serve_poll(
    listener: &TcpListener,
    engine: &ShardedEngine,
    registry: &ModelRegistry,
    limits: &SessionLimits,
    cfg: &NetConfig,
    obs: &Obs,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let waker = Arc::new(Waker::new()?);
    engine.set_waker(Some(Arc::clone(&waker)));
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepted: usize = 0;
    let mut chunk = [0u8; 16 * 1024];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut listener_ready = false;
    let served = loop {
        // Accept what the listener reported, up to the lifetime cap.
        while listener_ready && cfg.max_conns.is_none_or(|m| accepted < m) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Err(e) = stream
                        .set_nonblocking(true)
                        .and_then(|()| stream.set_nodelay(true))
                    {
                        obs.event("serve.conn_error", &[("error", format!("{e}").into())]);
                        continue;
                    }
                    let conn_id = accepted as u64;
                    accepted += 1;
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
                        readable: false,
                        write_blocked: false,
                        read_closed: false,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => listener_ready = false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    obs.event("serve.accept_error", &[("error", format!("{e}").into())]);
                    listener_ready = false;
                }
            }
        }
        for conn in &mut conns {
            tick(conn, &mut chunk, cfg, obs);
            if let Some(timeout) = cfg.conn_timeout {
                if conn.idle_timer_runs() && conn.last_activity.elapsed() > timeout {
                    obs.counter("serve.slow_client_disconnects", 1.0);
                    conn.dead = true;
                }
            }
        }
        conns.retain(|c| !c.finished());
        let capped = cfg.max_conns.is_some_and(|m| accepted >= m);
        if capped && conns.is_empty() {
            break Ok(());
        }
        // Arm the wake-up, then look once more: an answer that landed
        // before the arm woke nothing, so only this look finds it.
        waker.arm();
        let mut resolved = false;
        for conn in &mut conns {
            resolved |= conn.resolve(cfg);
        }
        if resolved {
            continue;
        }
        // Block until the listener, a connection or the engine is ready,
        // or the nearest idle timeout is due.
        fds.clear();
        fds.push(PollFd::new(waker.fd.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(
            listener.as_raw_fd(),
            if capped { 0 } else { POLLIN },
        ));
        for conn in &conns {
            let mut events = 0;
            if conn.wants_input(cfg) {
                events |= POLLIN;
            }
            if conn.unflushed() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        let timeout = cfg.conn_timeout.and_then(|timeout| {
            conns
                .iter()
                .filter(|c| c.idle_timer_runs())
                .map(|c| timeout.saturating_sub(c.last_activity.elapsed()))
                .min()
        });
        if let Err(e) = wait_ready(&mut fds, timeout) {
            break Err(e);
        }
        if fds[0].revents != 0 {
            // The answers themselves are picked up by the next pass.
            waker.clear();
        }
        listener_ready = fds[1].revents != 0;
        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            conn.readable |= fd.revents & (POLLIN | POLLHUP | POLLERR) != 0;
            if fd.revents & (POLLOUT | POLLHUP | POLLERR) != 0 {
                conn.write_blocked = false;
            }
        }
    };
    engine.set_waker(None);
    served
}

/// Drives one connection as far as it goes without a new event.
fn tick(conn: &mut Conn<'_>, chunk: &mut [u8], cfg: &NetConfig, obs: &Obs) {
    let harness = chaos::ambient();
    while step(conn, chunk, cfg, obs, &harness) {}
}

/// One pass over a connection: read what `poll` reported, decode and
/// dispatch what's complete, collect resolved responses, flush what the
/// socket will take. Returns whether anything progressed.
fn step(
    conn: &mut Conn<'_>,
    chunk: &mut [u8],
    cfg: &NetConfig,
    obs: &Obs,
    harness: &chaos::Chaos,
) -> bool {
    let mut progress = false;
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
                        if conn_read_fault(harness) {
                            conn.dead = true;
                        }
                    }
                    Decoded::Frame(frame) => {
                        progress = true;
                        if conn_read_fault(harness) {
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
        // Read only what `poll` reported, and only through the read
        // gate: stop pulling bytes while the connection cannot consume
        // them.
        if !conn.readable || !conn.wants_input(cfg) {
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
                // A short read drained the socket: wait for `poll`.
                conn.readable = n == chunk.len();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                conn.readable = false;
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                obs.event("serve.conn_error", &[("error", format!("{e}").into())]);
                conn.dead = true;
                return true;
            }
        }
    }
    // 2. Collect responses that resolved, in request order.
    progress |= conn.resolve(cfg);
    if let Some(codec) = &mut conn.codec {
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
    while conn.written < conn.out.len() && !conn.dead && !conn.write_blocked {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
            }
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => conn.write_blocked = true,
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

/// Wakes the poll loop blocked on an engine's answers: an `eventfd(2)`
/// counter the loop polls beside its sockets.
///
/// The loop arms the waker just before it blocks; a worker that has
/// answered bumps the counter only if it finds the waker armed, and
/// disarms it. A loop that is busy therefore costs the workers no
/// syscall, and a blocked loop is woken once however many answers land.
#[derive(Debug)]
pub(crate) struct Waker {
    armed: AtomicBool,
    fd: File,
}

impl Waker {
    /// A disarmed waker.
    fn new() -> std::io::Result<Waker> {
        // SAFETY: eventfd takes two integers and touches no memory.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh, open descriptor that nothing else
        // owns, so the `File` may close it.
        let fd = unsafe { File::from_raw_fd(fd) };
        Ok(Waker {
            armed: AtomicBool::new(false),
            fd,
        })
    }

    /// Arms the waker: the next answer bumps the counter. Call it before
    /// the last look at the answers that precedes blocking. Both sides
    /// swap (SeqCst), so either this swap reads the last worker's
    /// disarm, and that worker's answer is visible to the look, or the
    /// worker's swap reads this arm and bumps the counter.
    fn arm(&self) {
        self.armed.swap(true, Ordering::SeqCst);
    }

    /// Called by a worker after it answered: wakes the loop if armed.
    pub(crate) fn wake(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            // Nonblocking: a saturated counter already holds a wake-up.
            let _ = (&self.fd).write(&1u64.to_ne_bytes());
        }
    }

    /// Resets the counter once `poll` reported it readable.
    fn clear(&self) {
        let mut count = [0u8; 8];
        let _ = (&self.fd).read(&mut count);
    }
}

/// One `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`; with no events the entry is ignored
    /// (a negative descriptor), hang-ups and errors included.
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2_000_000;

extern "C" {
    /// `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits forever; rounded up to whole milliseconds). The loop's
/// only readiness source.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<()> {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is a valid, writable slice of `struct pollfd` of the
    // length passed, borrowed for the call's duration.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
