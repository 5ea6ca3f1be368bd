//! The benchmark's open-loop load generator.
//!
//! One thread drives two TCP connections. Every payload is encoded
//! before the run, and every line has a fixed due time, whatever the
//! server is doing; its latency counts from that due time to the
//! moment its response was read, so a stall also delays the lines
//! scheduled behind it. Between sends the thread sleeps in `ppoll`.
//! Samples are kept exactly, one per line.

use crate::sys::{self, CpuSnapshot, PollFd, POLLIN, POLLOUT};
use serve::{ClientFrame, FrameBuf};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long after the last due time unanswered lines are given up on.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// One decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Scores for a scoring line.
    Scores(Vec<f64>),
    /// A feedback line was applied; `swapped` when it hot-swapped.
    Observed {
        /// The observation published a recalibrated version.
        swapped: bool,
    },
    /// A typed error.
    Error(String),
}

/// A response with its echoed id and its size on the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed correlation id.
    pub id: String,
    /// What the server answered.
    pub reply: Reply,
    /// Encoded response bytes.
    pub bytes: usize,
}

/// The two wire protocols the server speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Length-prefixed binary frames.
    Binary,
    /// Line-delimited JSON.
    Jsonl,
}

impl Protocol {
    /// Decodes the next complete response in `buf`, `Ok(None)` when
    /// only part of one has arrived.
    pub fn decode(self, buf: &mut FrameBuf) -> Result<Option<Response>, String> {
        match self {
            Protocol::Binary => {
                let before = buf.peek().len();
                let Some(frame) = serve::decode_client_frame(buf).map_err(|e| e.message)? else {
                    return Ok(None);
                };
                let bytes = before - buf.peek().len();
                let (id, reply) = match frame {
                    ClientFrame::Scores { id, scores } => (id, Reply::Scores(scores)),
                    ClientFrame::Error { id, error } => (id, Reply::Error(error.code.to_string())),
                    ClientFrame::Observed { id, swapped, .. } => (
                        id,
                        Reply::Observed {
                            swapped: swapped.is_some(),
                        },
                    ),
                };
                Ok(Some(Response { id, reply, bytes }))
            }
            Protocol::Jsonl => {
                let Some(nl) = buf.peek().iter().position(|&b| b == b'\n') else {
                    return Ok(None);
                };
                let line = String::from_utf8_lossy(&buf.peek()[..nl]).into_owned();
                buf.consume(nl + 1);
                parse_jsonl(&line)
                    .map(|(id, reply)| {
                        Some(Response {
                            id,
                            reply,
                            bytes: nl + 1,
                        })
                    })
                    .map_err(|e| format!("bad response line {line:?}: {e}"))
            }
        }
    }
}

fn parse_jsonl(line: &str) -> Result<(String, Reply), String> {
    let v = tinyjson::parse(line).map_err(|e| e.to_string())?;
    let id = v
        .get("id")
        .and_then(|id| id.as_str().ok())
        .unwrap_or_default()
        .to_string();
    if let Some(scores) = v.get("scores") {
        let scores = scores
            .as_arr()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|s| s.as_f64().map_err(|e| e.to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        return Ok((id, Reply::Scores(scores)));
    }
    if let Some(observed) = v.get("observed") {
        let swapped = matches!(observed.get("swapped"), Some(tinyjson::Value::Str(_)));
        return Ok((id, Reply::Observed { swapped }));
    }
    let code = v
        .get("code")
        .and_then(|c| c.as_str().ok())
        .unwrap_or("unknown");
    Ok((id, Reply::Error(code.to_string())))
}

/// One scheduled line: when it is due, which connection it goes out on
/// and which pre-encoded payload it sends.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due time, ns after the run starts.
    pub due_ns: u64,
    /// Connection index, 0 or 1.
    pub conn: usize,
    /// Index into the payload pool.
    pub payload: usize,
}

/// The lines of a fixed-rate stream: `count` lines `1/rate` apart,
/// starting `offset_ns` into the run.
pub fn fixed_rate(rate: f64, offset_ns: u64, count: usize) -> impl Iterator<Item = u64> {
    (0..count).map(move |k| offset_ns + (k as f64 * 1e9 / rate) as u64)
}

/// What happened to one line.
#[derive(Debug, Clone, Default)]
pub struct LineRecord {
    /// Due time, ns on the run's clock.
    pub due_ns: u64,
    /// When the generator queued it for sending.
    pub sent_ns: u64,
    /// When its response was read (0 when unanswered).
    pub done_ns: u64,
    /// The response, when one arrived.
    pub response: Option<Response>,
}

impl LineRecord {
    /// Latency from due time to response, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the line, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// A finished load phase.
#[derive(Debug)]
pub struct LoadResult {
    /// One record per planned line.
    pub lines: Vec<LineRecord>,
    /// Lines before this index were warm-up.
    pub warmup: usize,
    /// Server CPU when the first measured line was due.
    pub cpu_start: CpuSnapshot,
    /// Server CPU once every measured line was answered.
    pub cpu_end: CpuSnapshot,
    /// Server peak RSS at the end, MiB.
    pub peak_rss_mib: f64,
}

impl LoadResult {
    /// The measured (post-warm-up) lines.
    pub fn measured(&self) -> &[LineRecord] {
        &self.lines[self.warmup..]
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: FrameBuf,
    pending: VecDeque<usize>,
}

/// Opens `n` connections with Nagle off on the client side, so the
/// generator itself never holds a request back.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect()
}

/// Runs the open loop: sends `plan` (sorted by due time) over `streams`,
/// reads every response, and snapshots `server_pid`'s CPU when line
/// `warmup` is due and after the last measured answer.
pub fn run(
    streams: Vec<TcpStream>,
    protocol: Protocol,
    payloads: &[Vec<u8>],
    plan: &[Planned],
    warmup: usize,
    server_pid: u32,
) -> Result<LoadResult, String> {
    assert!(
        plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns),
        "plan not sorted by due time"
    );
    sys::tighten_timer_slack();
    let mut conns: Vec<Conn> = streams
        .into_iter()
        .map(|stream| {
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                out: Vec::new(),
                written: 0,
                inbuf: FrameBuf::new(),
                pending: VecDeque::new(),
            })
        })
        .collect::<Result<_, String>>()?;
    let origin = Instant::now();
    let clock = || origin.elapsed().as_nanos() as u64;
    // Start a little ahead so the first due time is not already past.
    let start_ns = clock() + 2_000_000;
    let due = |j: usize| start_ns + plan[j].due_ns;
    let mut lines = vec![LineRecord::default(); plan.len()];
    let mut cpu_start = sys::snapshot(server_pid).map_err(|e| e.to_string())?;
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let drain_deadline =
        plan.last().map_or(start_ns, |p| start_ns + p.due_ns) + DRAIN_LIMIT.as_nanos() as u64;
    loop {
        let now = clock();
        while next < plan.len() && due(next) <= now {
            if next == warmup {
                cpu_start = sys::snapshot(server_pid).map_err(|e| e.to_string())?;
            }
            let p = plan[next];
            let c = &mut conns[p.conn];
            c.out.extend_from_slice(&payloads[p.payload]);
            c.pending.push_back(next);
            lines[next].due_ns = due(next);
            lines[next].sent_ns = clock();
            next += 1;
        }
        for c in &mut conns {
            while c.written < c.out.len() {
                match c.stream.write(&c.out[c.written..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => c.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            if c.written == c.out.len() {
                c.out.clear();
                c.written = 0;
            }
        }
        let waiting = conns.iter().any(|c| !c.pending.is_empty());
        if next == plan.len() && !waiting {
            break;
        }
        let now = clock();
        if now > drain_deadline {
            break;
        }
        let wake = if next < plan.len() {
            due(next)
        } else {
            drain_deadline
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        sys::poll(
            &mut fds,
            Some(Duration::from_nanos(wake.saturating_sub(now))),
        )
        .map_err(|e| format!("ppoll: {e}"))?;
        for (c, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents & POLLIN == 0 {
                continue;
            }
            let mut got = false;
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        if c.pending.is_empty() {
                            break;
                        }
                        return Err("server closed a connection with lines in flight".into());
                    }
                    Ok(n) => {
                        c.inbuf.extend(&chunk[..n]);
                        got = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            if !got {
                continue;
            }
            let done = clock();
            while let Some(response) = protocol.decode(&mut c.inbuf)? {
                let Some(line) = c.pending.pop_front() else {
                    return Err("response without a request".into());
                };
                lines[line].done_ns = done;
                lines[line].response = Some(response);
            }
        }
    }
    let cpu_end = sys::snapshot(server_pid).map_err(|e| e.to_string())?;
    let peak_rss_mib = sys::read_peak_rss_mib(server_pid).map_err(|e| e.to_string())?;
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{server_pid}/status")) {
        let fields: Vec<&str> = status
            .lines()
            .filter(|l| {
                ["VmHWM", "VmRSS", "RssAnon", "RssFile"]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .collect();
        println!(
            "server memory: {}",
            fields
                .join(" ")
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    // Half-close: the server answers what is left, then ends the session.
    for c in &conns {
        let _ = c.stream.shutdown(std::net::Shutdown::Write);
    }
    for c in &mut conns {
        c.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        c.stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        while matches!(c.stream.read(&mut chunk), Ok(n) if n > 0) {}
    }
    Ok(LoadResult {
        lines,
        warmup,
        cpu_start,
        cpu_end,
        peak_rss_mib,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_replies_decode_by_kind() {
        let mut buf = FrameBuf::new();
        buf.extend(b"{\"id\":\"s1\",\"scores\":[0.25,-1.5e-7]}\n{\"id\":\"f2\",\"observed\":");
        let r = Protocol::Jsonl.decode(&mut buf).unwrap().unwrap();
        assert_eq!(r.id, "s1");
        assert_eq!(r.reply, Reply::Scores(vec![0.25, -1.5e-7]));
        assert_eq!(r.bytes, 36);
        assert!(Protocol::Jsonl.decode(&mut buf).unwrap().is_none());
        buf.extend(b"{\"window\":3,\"swapped\":\"1-oc000001\"}}\n{\"id\":\"x\",\"error\":\"m\",\"code\":\"queue_full\"}\n");
        let r = Protocol::Jsonl.decode(&mut buf).unwrap().unwrap();
        assert_eq!(r.reply, Reply::Observed { swapped: true });
        let r = Protocol::Jsonl.decode(&mut buf).unwrap().unwrap();
        assert_eq!(r.reply, Reply::Error("queue_full".into()));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let r = LineRecord {
            due_ns: 1_000_000,
            sent_ns: 1_250_000,
            done_ns: 2_500_000,
            response: None,
        };
        assert_eq!(r.latency_ms(), 1.5);
        assert_eq!(r.late_ms(), 0.25);
    }
}
