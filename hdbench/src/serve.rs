//! Load generators that drive the loopback server through the public
//! `netserve::Client`.
//!
//! - [`open_loop`]: single-graph `classify` frames on a fixed schedule
//!   over [`CONNECTIONS`] connections. Each request is timed from when
//!   it was due, so a stall also charges the requests queued behind it.
//! - [`closed_loop`]: frames of one or [`BATCH`] graphs back to back on
//!   one connection, each sent when the previous one was answered;
//!   [`closed_loops`] runs several of them at once, one per connection.

use crate::setup::MODEL;
use crate::trace::Tracer;
use graphcore::Graph;
use netserve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Connections (and generator threads) of the open loop; at most the
/// two vCPUs the benchmark is sized for.
pub const CONNECTIONS: usize = 2;
/// Graphs per frame in the batch phase.
pub const BATCH: usize = 64;
/// Share of each phase run before recording starts.
pub const WARMUP_SHARE: f64 = 0.1;
/// The generator sleeps until this long before a due time, then yields
/// until it is due: `thread::sleep` alone overshoots by tens of µs.
const SPIN: Duration = Duration::from_micros(150);

/// Results of the open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time to response, per recorded request.
    pub latency_ns: Vec<u64>,
    /// Send to response, per recorded request.
    pub round_trip_ns: Vec<u64>,
    /// How late the generator sent, per recorded request it had to wait
    /// for (requests sent behind schedule because the previous reply was
    /// late are not the generator's lateness).
    pub late_ns: Vec<u64>,
    /// Recorded requests sent behind schedule.
    pub behind: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub tracers: Vec<Tracer>,
}

/// Results of a closed loop.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Round trip per recorded frame.
    pub frame_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub tracers: Vec<Tracer>,
}

impl ClosedLoop {
    /// Adds another connection's frames to this one.
    pub fn absorb(&mut self, part: ClosedLoop) {
        self.frame_ns.extend(part.frame_ns);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.mismatched += part.mismatched;
        self.tracers.extend(part.tracers);
    }
}

impl OpenLoop {
    /// Adds another phase's (or connection's) requests to this one.
    pub fn absorb(&mut self, part: OpenLoop) {
        self.latency_ns.extend(part.latency_ns);
        self.round_trip_ns.extend(part.round_trip_ns);
        self.late_ns.extend(part.late_ns);
        self.behind += part.behind;
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.mismatched += part.mismatched;
        self.tracers.extend(part.tracers);
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `rate_per_s` single-graph requests per second for `duration`
/// (after a warm-up) over [`CONNECTIONS`] connections, cycling through
/// `graphs`, and checks every answer against `expected`.
pub fn open_loop(
    addr: SocketAddr,
    graphs: &[Graph],
    expected: &[u32],
    rate_per_s: f64,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> Result<OpenLoop, String> {
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / rate_per_s);
    let warmup = duration.mul_f64(WARMUP_SHARE);
    let start = Instant::now() + Duration::from_millis(20);
    let record_from = start + warmup;
    let end = record_from + duration;
    let results: Vec<Result<OpenLoop, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = OpenLoop::default();
                    let mut tracer = Tracer::new(epoch, trace);
                    let offset = period.mul_f64(c as f64 / CONNECTIONS as f64);
                    for i in 0u32.. {
                        let due = start + offset + period * i;
                        if due >= end {
                            break;
                        }
                        let waited = Instant::now() < due;
                        if waited {
                            wait_until(due);
                        }
                        let sent = Instant::now();
                        let index = (c + CONNECTIONS * i as usize) % graphs.len();
                        let answer = client.classify(MODEL, &graphs[index]);
                        let done = Instant::now();
                        out.attempted += 1;
                        match answer {
                            Ok(class) => {
                                out.mismatched += u64::from(class != expected[index]);
                            }
                            Err(_) => out.failed += 1,
                        }
                        // Warm-up requests are checked but not timed.
                        if due < record_from {
                            continue;
                        }
                        tracer.record("netserve.classify", due, done, index as u64);
                        out.latency_ns.push(nanos(done - due));
                        out.round_trip_ns.push(nanos(done - sent));
                        if waited {
                            out.late_ns.push(nanos(sent - due));
                        } else {
                            out.behind += 1;
                        }
                    }
                    out.tracers.push(tracer);
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut merged = OpenLoop::default();
    for part in results {
        merged.absorb(part?);
    }
    Ok(merged)
}

/// Frames of `size` consecutive graphs, wrapping around `graphs`, with
/// the classes each frame must be answered with.
pub fn frames(graphs: &[Graph], expected: &[u32], size: usize) -> Vec<(Vec<Graph>, Vec<u32>)> {
    let count = graphs.len().div_ceil(size);
    (0..count)
        .map(|f| {
            (0..size)
                .map(|k| {
                    let i = (f * size + k) % graphs.len();
                    (graphs[i].clone(), expected[i])
                })
                .unzip()
        })
        .collect()
}

/// Sends frames back to back on one connection for `duration` (after a
/// warm-up), at least `min_frames` recorded frames, starting at frame
/// `start`. A one-graph frame is a `classify` request, a larger one a
/// batch request.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[(Vec<Graph>, Vec<u32>)],
    start: usize,
    duration: Duration,
    min_frames: usize,
    epoch: Instant,
    trace: bool,
) -> Result<ClosedLoop, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = ClosedLoop::default();
    let mut tracer = Tracer::new(epoch, trace);
    let record_from = Instant::now() + duration.mul_f64(WARMUP_SHARE);
    let end = record_from + duration;
    for (f, (graphs, expected)) in frames.iter().cycle().skip(start).enumerate() {
        let sent = Instant::now();
        if sent >= end && out.frame_ns.len() >= min_frames {
            break;
        }
        let (name, answer) = match graphs.as_slice() {
            [graph] => (
                "netserve.classify_closed",
                client.classify(MODEL, graph).map(|class| vec![class]),
            ),
            _ => (
                "netserve.classify_batch",
                client.classify_batch(MODEL, graphs, None),
            ),
        };
        let done = Instant::now();
        out.attempted += 1;
        match answer {
            Ok(classes) => out.mismatched += u64::from(&classes != expected),
            Err(_) => out.failed += 1,
        }
        // Warm-up frames are checked but not timed.
        if sent < record_from {
            continue;
        }
        tracer.record(name, sent, done, f as u64);
        out.frame_ns.push(nanos(done - sent));
    }
    out.tracers.push(tracer);
    Ok(out)
}

/// [`closed_loop`] on `connections` connections at once, each from its
/// own thread and starting at its own share of `frames`; untraced.
pub fn closed_loops(
    addr: SocketAddr,
    frames: &[(Vec<Graph>, Vec<u32>)],
    connections: usize,
    duration: Duration,
    epoch: Instant,
) -> Result<ClosedLoop, String> {
    let results: Vec<Result<ClosedLoop, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let start = c * frames.len() / connections;
                scope.spawn(move || closed_loop(addr, frames, start, duration, 1, epoch, false))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut merged = ClosedLoop::default();
    for part in results {
        merged.absorb(part?);
    }
    Ok(merged)
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
