//! The load generator: closed-loop keep-alive HTTP clients over loopback.
//!
//! A client sends its next request only after the previous reply has been
//! read in full, because a voice user waits for the answer. Everything a
//! client does per request is kept cheap (pre-built wire bytes, two
//! substring scans of the reply), since it shares two cores with the
//! server it measures.

use crate::spec::{CLIENTS, THETA_MS};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How one request ended, judged at the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A 200 on the planned rung with exact values.
    Ok,
    /// A 200 below its planned rung (the text fallback included), or
    /// approximate where exact was planned.
    Degraded,
    /// Not a 200 (shed, refused, error), or no well-formed reply at all.
    Failed,
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send time, as an offset from the start of the measured window.
    pub at: Duration,
    /// Send -> full response at the client.
    pub latency: Duration,
    /// The server's own `total_ms` (0 when the reply carried none).
    pub server_ms: f64,
    pub verdict: Verdict,
}

impl Sample {
    /// Whether the request missed: failed, degraded, or slower than theta.
    pub fn missed(&self) -> bool {
        self.verdict != Verdict::Ok || self.latency > Duration::from_millis(THETA_MS)
    }
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub samples: Vec<Sample>,
    /// `(pool index, reply body)` of the replies kept for the oracle.
    pub kept: Vec<(u32, Vec<u8>)>,
    /// Start of the window -> completion of the client's last request.
    pub elapsed: Duration,
}

/// A client keeps at most this many reply bodies, so that neither the load
/// generator's share of `peak_rss_mb` nor the oracle's run time grows with
/// the throughput measured. They are spread evenly over the window: of every
/// `keep_every`-th reply, the first in each of this many equal parts.
const KEEP_AT_MOST: u32 = 48;

/// A keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// The wire bytes of `POST /query` for one transcript.
pub fn wire(transcript: &str) -> Vec<u8> {
    let body = serde_json::to_string(&serde_json::json!({
        "transcript": transcript,
        "deadline_ms": THETA_MS as f64,
    }))
    .expect("rendering is total");
    format!(
        "POST /query HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
        }
    }

    /// Send `wire` and read one full response: `(status, body)`. Any I/O or
    /// framing error drops the connection; the next call reconnects.
    pub fn roundtrip(&mut self, wire: &[u8]) -> io::Result<(u16, &[u8])> {
        let result = self.exchange(wire);
        if result.is_err() {
            self.stream = None;
        }
        let (status, head_end) = result?;
        Ok((status, &self.buf[head_end..]))
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<(u16, usize)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(5)))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("just connected");
        stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let (head_end, need) = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| bad("head"))?;
                let length = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .ok_or_else(|| bad("no content-length"))?;
                break (end + 4, length);
            }
        };
        while self.buf.len() < head_end + need {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let status = std::str::from_utf8(&self.buf[..head_end.min(16)])
            .ok()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| bad("status line"))?;
        self.buf.truncate(head_end + need);
        Ok((status, head_end))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The raw text of the field whose `"key": ` prefix is `pattern`, found
/// from the end of a reply body (the fields read here all follow the echoed
/// transcript, and a quote inside a JSON string is escaped, so the prefix
/// cannot occur in one).
fn field<'a>(body: &'a [u8], pattern: &[u8]) -> Option<&'a str> {
    let at = body.windows(pattern.len()).rposition(|w| w == pattern)?;
    let rest = &body[at + pattern.len()..];
    let end = rest
        .iter()
        .position(|&b| b == b',' || b == b'}')
        .unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).ok()
}

/// Judge a reply without decoding it.
fn judge(status: u16, body: &[u8]) -> (Verdict, f64) {
    if status != 200 {
        return (Verdict::Failed, 0.0);
    }
    let server_ms = field(body, b"\"total_ms\": ").and_then(|v| v.parse::<f64>().ok());
    let on_rung = field(body, b"\"degraded\": ") == Some("false");
    let exact = field(body, b"\"approximate\": ") == Some("false");
    match server_ms {
        Some(ms) if on_rung && exact => (Verdict::Ok, ms),
        Some(ms) => (Verdict::Degraded, ms),
        None => (Verdict::Failed, 0.0),
    }
}

/// One client's loop: warm up until `window_start`, then measure until
/// `window_end`. `order` is cycled; `keep_every` = 0 keeps no bodies.
fn client_loop(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    order: &[u32],
    window_start: Instant,
    window_end: Instant,
    keep_every: usize,
) -> ClientRun {
    let mut conn = Conn::new(addr);
    let mut run = ClientRun::default();
    run.samples.reserve(1 << 16);
    let mut position = 0usize;
    let keep_part = (window_end - window_start) / KEEP_AT_MOST;
    loop {
        let sent = Instant::now();
        if sent >= window_end {
            break;
        }
        let index = order[position % order.len()];
        position += 1;
        let reply = conn.roundtrip(&wires[index as usize]);
        let latency = sent.elapsed();
        if sent < window_start {
            continue; // warm-up
        }
        let (verdict, server_ms) = match &reply {
            Ok((status, body)) => judge(*status, body),
            Err(_) => (Verdict::Failed, 0.0),
        };
        let at = sent - window_start;
        if keep_every > 0
            && run.samples.len() % keep_every == 0
            && at >= keep_part * run.kept.len() as u32
        {
            if let Ok((200, body)) = reply {
                run.kept.push((index, body.to_vec()));
            }
        }
        run.samples.push(Sample {
            at,
            latency,
            server_ms,
            verdict,
        });
        run.elapsed = window_start.elapsed();
    }
    run
}

/// Drive `addr` from [`CLIENTS`] closed-loop clients in this process:
/// `warmup` unmeasured, then a measured window of `window`.
pub fn drive(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    orders: &[Vec<u32>],
    warmup: Duration,
    window: Duration,
    keep_every: usize,
) -> Vec<ClientRun> {
    assert_eq!(orders.len(), CLIENTS);
    let window_start = Instant::now() + warmup;
    let window_end = window_start + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                scope.spawn(move || {
                    client_loop(addr, wires, order, window_start, window_end, keep_every)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_reads_the_fields_it_needs() {
        let body = br#"{"transcript": "a \"degraded\": true trap", "degraded": false, "visualization": {"kind": "multiplot", "approximate": false, "results": [1, null]}, "queue_wait_ms": 0.01, "total_ms": 1.25, "trace_id": 7}"#;
        assert_eq!(judge(200, body), (Verdict::Ok, 1.25));
        let degraded =
            String::from_utf8_lossy(body).replace("\"degraded\": false", "\"degraded\": true");
        assert_eq!(judge(200, degraded.as_bytes()).0, Verdict::Degraded);
        let approx = String::from_utf8_lossy(body)
            .replace("\"approximate\": false", "\"approximate\": true");
        assert_eq!(judge(200, approx.as_bytes()).0, Verdict::Degraded);
        let text = br#"{"transcript": "x", "degraded": true, "visualization": {"kind": "text", "message": "could not interpret \"x\": no"}, "attempts": 1, "total_ms": 0.2, "trace_id": 7}"#;
        assert_eq!(judge(200, text), (Verdict::Degraded, 0.2));
        assert_eq!(judge(429, body).0, Verdict::Failed);
        assert_eq!(judge(200, b"{}").0, Verdict::Failed);
    }

    #[test]
    fn wire_is_a_well_formed_request() {
        use muve::net::{Limits, Parsed, Parser};
        let mut p = Parser::new(Limits::default());
        match p.feed(&wire("count \"quoted\" rows")).unwrap() {
            Parsed::Complete(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/query");
                let body = serde_json::from_str(std::str::from_utf8(&req.body).unwrap()).unwrap();
                assert_eq!(body["transcript"], "count \"quoted\" rows");
                assert_eq!(body["deadline_ms"], THETA_MS as f64);
            }
            Parsed::Partial => panic!("request must be complete"),
        }
    }
}
