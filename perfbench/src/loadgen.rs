//! Seeded load generation and a minimal HTTP/1.1 client.
//!
//! The open loop sends on a Poisson schedule regardless of replies and
//! times each request from when it was *due*, so a stall is charged to
//! every request queued behind it; the closed loop sends the next request
//! only after the previous reply. One thread drives each connection, and
//! a connection may have several requests in flight (HTTP/1.1 pipelining:
//! replies come back in request order).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the generator waits for replies still owed once it has sent
/// everything; a reply later than this counts as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the timed phase.
    pub due: Duration,
    /// Index of the request body to send.
    pub window: usize,
}

/// Seed of the one Poisson realization that every schedule rotates.
const BASE_SCHEDULE_SEED: u64 = 0;

/// Poisson arrivals for `seconds` at `rate` per second.
///
/// The arrival times are one Poisson realization, conditioned on its count
/// (exactly `round(rate * seconds)` times drawn uniformly over the phase),
/// rotated on the `seconds`-long circle by a phase drawn from `seed`; the
/// request windows are drawn from `seed` too. A rotated Poisson process is
/// again a Poisson process, so every seed's schedule is a Poisson schedule,
/// and all seeds share one set of gaps (common random numbers): the seed
/// moves when each burst comes and which windows are sent, not how bursty
/// the load is, so a queueing tail compares across seeds. The fixed count
/// keeps the tail percentile's support the same on every seed.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, windows: usize) -> Vec<Arrival> {
    assert!(windows > 0, "need at least one request body");
    let count = (rate * seconds).round() as usize;
    let mut base = StdRng::seed_from_u64(BASE_SCHEDULE_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let phase = rng.gen::<f64>() * seconds;
    let mut times: Vec<f64> = (0..count)
        .map(|_| (base.gen::<f64>() * seconds + phase) % seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|t| Arrival {
            due: Duration::from_secs_f64(t),
            window: rng.gen_range(0..windows),
        })
        .collect()
}

/// A complete HTTP response and when its last byte arrived.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes (`Content-Length` framed).
    pub body: Vec<u8>,
    /// Arrival time of the last byte.
    pub at: Instant,
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Write one whole request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read until one complete response is buffered. With `until` set,
    /// give up at that instant and return `Ok(None)`.
    pub fn recv(&mut self, until: Option<Instant>) -> std::io::Result<Option<Reply>> {
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            if let Some(reply) = self.take_response()? {
                return Ok(Some(reply));
            }
            let timeout = match until {
                Some(t) => {
                    let left = t.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
                None => None,
            };
            self.stream.set_read_timeout(timeout)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Split one response off the front of the buffer, if complete.
    fn take_response(&mut self) -> std::io::Result<Option<Reply>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.trim().parse().map_err(|_| bad("bad content-length")))
            .transpose()?
            .unwrap_or(0);
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let at = Instant::now();
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply { status, body, at }))
    }
}

/// The HTTP request bytes for a forecast body.
pub fn forecast_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/forecast HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What one connection's generator saw.
#[derive(Default)]
pub struct Outcome {
    /// Requests sent.
    pub sent: u64,
    /// Replies that passed the check.
    pub ok: u64,
    /// Requests without a passing reply (bad status, check failure, or no
    /// reply at all).
    pub failed: u64,
    /// Latency per reply received, ms.
    pub latencies_ms: Vec<f64>,
    /// How late each open-loop send was, ms.
    pub lags_ms: Vec<f64>,
    /// When each passing closed-loop reply arrived, seconds from the start
    /// of the closed-loop phase.
    pub done_s: Vec<f64>,
    /// First failure, for the log.
    pub first_error: Option<String>,
}

impl Outcome {
    /// Fold another connection's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.lags_ms.extend(other.lags_ms);
        self.done_s.extend(other.done_s);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn record(&mut self, verdict: Result<(), String>) {
        match verdict {
            Ok(()) => self.ok += 1,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// Drive one connection on an open-loop schedule starting at `start`.
/// `check(window, reply)` judges each reply.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    arrivals: &[Arrival],
    requests: &[Vec<u8>],
    check: &(dyn Fn(usize, &Reply) -> Result<(), String> + Sync),
) -> Outcome {
    let mut out = Outcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failed = arrivals.len() as u64;
            out.first_error = Some(format!("connect: {e}"));
            return out;
        }
    };
    let mut next = 0;
    let mut owed: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut drain_deadline = None;
    loop {
        if let Some(a) = arrivals.get(next) {
            let due = start + a.due;
            let now = Instant::now();
            if now >= due {
                out.lags_ms.push((now - due).as_secs_f64() * 1e3);
                if let Err(e) = conn.send(&requests[a.window]) {
                    out.first_error.get_or_insert(format!("send: {e}"));
                    break;
                }
                out.sent += 1;
                owed.push_back((due, a.window));
                next += 1;
                continue;
            }
        } else if owed.is_empty() {
            break;
        }
        let until = match arrivals.get(next) {
            Some(a) => start + a.due,
            None => *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT),
        };
        match conn.recv(Some(until)) {
            Ok(Some(reply)) => {
                let Some((due, window)) = owed.pop_front() else {
                    out.first_error
                        .get_or_insert("reply without a request".to_string());
                    break;
                };
                out.latencies_ms.push((reply.at - due).as_secs_f64() * 1e3);
                out.record(check(window, &reply));
            }
            Ok(None) if arrivals.get(next).is_none() => break,
            Ok(None) => {}
            Err(e) => {
                out.first_error.get_or_insert(format!("receive: {e}"));
                break;
            }
        }
    }
    // Whatever is still owed (or was never sent) has failed.
    let unanswered = (owed.len() + arrivals.len() - next) as u64;
    if unanswered > 0 {
        out.failed += unanswered;
        out.first_error
            .get_or_insert_with(|| format!("{unanswered} requests unanswered"));
    }
    out
}

/// Drive `connections` closed loops at once for `seconds`, each starting
/// at its own window, and merge their outcomes. `done_s` then gives the
/// stack's capacity at this concurrency.
pub fn closed_loops(
    addr: SocketAddr,
    seconds: f64,
    connections: usize,
    requests: &[Vec<u8>],
    check: &(dyn Fn(usize, &Reply) -> Result<(), String> + Sync),
) -> Outcome {
    let start = Instant::now();
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let first = c * requests.len() / connections;
                s.spawn(move || closed_loop(addr, start, seconds, first, requests, check))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load generator thread"));
        }
    });
    total
}

/// Drive one connection closed-loop from `start` for `seconds`, cycling
/// through the request bodies in order from window `first`.
fn closed_loop(
    addr: SocketAddr,
    start: Instant,
    seconds: f64,
    first: usize,
    requests: &[Vec<u8>],
    check: &(dyn Fn(usize, &Reply) -> Result<(), String> + Sync),
) -> Outcome {
    let mut out = Outcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failed = 1;
            out.first_error = Some(format!("connect: {e}"));
            return out;
        }
    };
    let end = start + Duration::from_secs_f64(seconds);
    let mut window = first;
    while Instant::now() < end {
        let sent_at = Instant::now();
        out.sent += 1;
        if let Err(e) = conn.send(&requests[window]) {
            out.record(Err(format!("send: {e}")));
            break;
        }
        match conn.recv(None) {
            Ok(Some(reply)) => {
                out.latencies_ms
                    .push((reply.at - sent_at).as_secs_f64() * 1e3);
                let verdict = check(window, &reply);
                if verdict.is_ok() {
                    out.done_s.push((reply.at - start).as_secs_f64());
                }
                out.record(verdict);
            }
            Ok(None) => unreachable!("a blocking receive returns a reply or an error"),
            Err(e) => {
                out.record(Err(format!("receive: {e}")));
                break;
            }
        }
        window = (window + 1) % requests.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 5.0, 20.0, 16);
        let b = poisson_schedule(7, 5.0, 20.0, 16);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 5.0, 20.0, 16));
    }

    #[test]
    fn seeds_share_the_gaps() {
        // Rotation keeps every gap but the one across the wrap point.
        let gaps = |seed| {
            let s = poisson_schedule(seed, 6.0, 30.0, 4);
            let mut g: Vec<u64> = s
                .windows(2)
                .map(|w| (w[1].due - w[0].due).as_nanos() as u64 / 1000)
                .collect();
            g.sort_unstable();
            g
        };
        let (a, b) = (gaps(1), gaps(2));
        let shared = a
            .iter()
            .filter(|g| b.iter().any(|h| h.abs_diff(**g) <= 1))
            .count();
        assert!(shared + 2 >= a.len(), "{shared} of {} gaps shared", a.len());
    }

    #[test]
    fn schedule_has_fixed_count_sorted_in_range() {
        let s = poisson_schedule(3, 6.5, 30.0, 4);
        assert_eq!(s.len(), 195);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s
            .iter()
            .all(|a| a.due < Duration::from_secs(30) && a.window < 4));
    }

    #[test]
    fn gaps_look_exponential() {
        // Mean gap 1/rate and a coefficient of variation near 1, as for
        // exponential inter-arrival times.
        let s = poisson_schedule(11, 10.0, 400.0, 1);
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.1).abs() < 0.005, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn parses_pipelined_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 503 No\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        let a = conn.recv(None).unwrap().unwrap();
        let b = conn.recv(None).unwrap().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"hi"[..]));
        assert_eq!((b.status, b.body.len()), (503, 0));
        server.join().unwrap();
    }
}
