//! Load generators over raw TCP, speaking the program's wire codec.
//!
//! * [`BurstClient`]: a closed loop over one connection that pipelines a whole burst and
//!   sends the next only after the last reply arrived.
//! * [`read_loop`]: a closed loop of single requests, each sent when the previous reply
//!   arrived.
//!
//! Requests are encoded before timing starts; the program receives only these frames.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nc_serve::{decode_result, ServeError};

use crate::trace::Tracer;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// An estimate: the model version that served it and the raw bits.
    Estimate {
        version: u64,
        bits: u64,
        degraded: bool,
    },
    /// Shed by admission control.
    Overloaded,
    /// No reply within the deadline (or none at all).
    Timeout,
    /// The connection failed, or the server answered with an error frame.
    Error,
}

/// One request of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the request in the caller's pool.
    pub pick: usize,
    /// Sending time and reply time, in ns since the phase start.
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub reply: Reply,
}

impl Sample {
    /// Latency from the send, in ms; failures read as infinitely late.
    pub fn latency_ms(&self) -> f64 {
        match self.reply {
            Reply::Estimate { .. } => (self.recv_ns - self.sent_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }

    pub fn ok(&self) -> bool {
        matches!(self.reply, Reply::Estimate { .. })
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encoded request frames, one per pool entry (length prefix included).
pub fn frames(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    payloads.iter().map(|p| frame(p)).collect()
}

/// Classifies a reply payload.
pub fn classify(payload: &[u8]) -> Reply {
    match decode_result(payload) {
        Ok(Ok(reply)) => Reply::Estimate {
            version: reply.key.version,
            bits: reply.estimate.to_bits(),
            degraded: reply.degraded,
        },
        Ok(Err(ServeError::Overloaded)) => Reply::Overloaded,
        Ok(Err(ServeError::Timeout)) => Reply::Timeout,
        _ => Reply::Error,
    }
}

/// Reassembles length-prefixed frames from a byte stream.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Reads once (blocking up to the socket timeout) and hands every complete payload
    /// to `on_frame`.  `Ok(false)` means the read timed out with nothing new.
    fn pump(
        &mut self,
        stream: &mut TcpStream,
        mut on_frame: impl FnMut(&[u8]),
    ) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(e),
        };
        self.buf.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() - at - 4 < len {
                break;
            }
            on_frame(&self.buf[at + 4..at + 4 + len]);
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(true)
    }
}

/// Connects with Nagle off (requests are small and latency-bound).
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One blocking request/reply on `stream`: the raw reply payload.
pub fn roundtrip(stream: &mut TcpStream, request_frame: &[u8]) -> std::io::Result<Vec<u8>> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request_frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// A closed-loop client that pipelines one burst of requests at a time.
pub struct BurstClient {
    stream: TcpStream,
    reader: FrameReader,
    deadline: Duration,
}

/// One burst: when it started and ended, and each request's reply.
pub struct Burst {
    pub start: Instant,
    pub end: Instant,
    pub replies: Vec<Reply>,
}

impl BurstClient {
    pub fn connect(addr: SocketAddr, deadline: Duration) -> std::io::Result<Self> {
        let stream = connect(addr)?;
        stream.set_read_timeout(Some(deadline))?;
        Ok(BurstClient {
            stream,
            reader: FrameReader::default(),
            deadline,
        })
    }

    /// Sends every frame of `burst` in one write and waits for all replies.
    pub fn burst(&mut self, frames: &[Vec<u8>], picks: &[usize], scratch: &mut Vec<u8>) -> Burst {
        scratch.clear();
        for &p in picks {
            scratch.extend_from_slice(&frames[p]);
        }
        let start = Instant::now();
        let mut replies = Vec::with_capacity(picks.len());
        if self.stream.write_all(scratch).is_err() {
            replies.resize(picks.len(), Reply::Error);
            return Burst {
                start,
                end: Instant::now(),
                replies,
            };
        }
        while replies.len() < picks.len() {
            match self
                .reader
                .pump(&mut self.stream, |payload| replies.push(classify(payload)))
            {
                Ok(true) => {}
                Ok(false) => {
                    replies.resize(picks.len(), Reply::Timeout);
                }
                Err(_) => replies.resize(picks.len(), Reply::Error),
            }
            if start.elapsed() > self.deadline && replies.len() < picks.len() {
                replies.resize(picks.len(), Reply::Timeout);
            }
        }
        Burst {
            start,
            end: Instant::now(),
            replies,
        }
    }
}

/// A closed loop of single requests: each is sent as soon as the previous reply
/// arrived, until `stop` turns true or `picks` run out.  Latency is timed from the
/// send; the reader's own turnaround between a reply and the next send is kept in the
/// trace (`loadgen.lag`).
pub struct ReadLoop<'a> {
    pub addr: SocketAddr,
    pub frames: &'a [Vec<u8>],
    pub picks: &'a [usize],
    pub deadline: Duration,
    pub stop: &'a AtomicBool,
    /// Highest model version seen in any reply so far.
    pub max_version: &'a AtomicU64,
    /// Record a span per request, with its lag as a child.
    pub trace: bool,
}

/// Runs the loop; returns the requests, the spans when tracing, and the start.
pub fn read_loop(plan: &ReadLoop<'_>) -> (Vec<Sample>, Tracer, Instant) {
    let start = Instant::now();
    let mut tracer = Tracer::new(start);
    let mut samples = Vec::new();
    let mut client = BurstClient::connect(plan.addr, plan.deadline).expect("connect the reader");
    let mut scratch = Vec::new();
    let mut due = start;
    for &pick in plan.picks {
        if plan.stop.load(Ordering::SeqCst) {
            break;
        }
        let burst = client.burst(plan.frames, &[pick], &mut scratch);
        let reply = burst.replies[0];
        if let Reply::Estimate { version, .. } = reply {
            plan.max_version.fetch_max(version, Ordering::SeqCst);
        } else {
            client = BurstClient::connect(plan.addr, plan.deadline).expect("reconnect the reader");
        }
        if plan.trace {
            let id = samples.len() as u64;
            let root = tracer.record("loadgen.request", id, None, due, burst.end);
            tracer.record("loadgen.lag", id, Some(root), due, burst.start);
        }
        samples.push(Sample {
            pick,
            sent_ns: ns_since(start, burst.start),
            recv_ns: ns_since(start, burst.end),
            reply,
        });
        due = burst.end;
    }
    (samples, tracer, start)
}
