//! Load generation: a fixed open-loop send schedule per client thread, a
//! closed loop for capacity, and a minimal HTTP/1.1 client.
//!
//! Open-loop latency is timed from when a request was *due*, not from when
//! it was sent, so a stall also charges the requests that queued behind
//! it on the same thread. How late the generator itself woke up while idle
//! is recorded separately: if that is large the run measured the
//! generator, not the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request `i` of a thread is due `offset_ns + i × interval_ns` after the
/// run's origin. Due times are computed from `i`, never accumulated, so
/// the schedule cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub offset_ns: u64,
    pub interval_ns: u64,
}

impl Schedule {
    /// `rate` requests per second, starting `offset_ns` after the origin.
    pub fn per_second(rate: f64, offset_ns: u64) -> Schedule {
        Schedule {
            offset_ns,
            interval_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        self.offset_ns + i * self.interval_ns
    }
}

/// One request's timeline in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
    /// The thread was idle at the due time (it slept until then); false
    /// when the previous request was still running.
    pub idle: bool,
}

impl Timing {
    /// Latency as a user sees it: due time to complete response.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// The generator's own lateness: due to send while the thread was idle.
    pub fn late_ns(&self) -> Option<u64> {
        self.idle.then(|| self.send_ns.saturating_sub(self.due_ns))
    }

    /// Queueing behind this thread's previous request: due to send while
    /// the thread was busy.
    pub fn queued_ns(&self) -> Option<u64> {
        (!self.idle).then(|| self.send_ns.saturating_sub(self.due_ns))
    }
}

/// How long before a due time the generator stops sleeping and spins:
/// a sleep overshoots by up to the kernel's 50 µs timer slack, which
/// would count as latency.
const SPIN: Duration = Duration::from_micros(100);

/// Send `count` requests on `schedule`, waiting until each is due; a
/// request already past due goes out at once.
pub fn open_loop<T>(
    origin: Instant,
    schedule: Schedule,
    count: u64,
    mut send: impl FnMut(u64) -> T,
) -> Vec<(Timing, T)> {
    let mut out = Vec::with_capacity(count as usize);
    let mut previous_done: Option<Instant> = None;
    for i in 0..count {
        let due = origin + Duration::from_nanos(schedule.due_ns(i));
        let idle = previous_done.is_none_or(|done| done < due);
        let wake = due.checked_sub(SPIN).unwrap_or(due);
        let now = Instant::now();
        if now < wake {
            std::thread::sleep(wake - now);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let send_at = Instant::now();
        let result = send(i);
        let done = Instant::now();
        previous_done = Some(done);
        out.push((
            Timing {
                due_ns: schedule.due_ns(i),
                send_ns: ns_between(origin, send_at),
                done_ns: ns_between(origin, done),
                idle,
            },
            result,
        ));
    }
    out
}

/// Send requests `range` back to back. A fixed count, not a fixed time,
/// so every commit sends the same requests; returns the results and the
/// wall time they took.
pub fn closed_loop<T>(
    range: std::ops::Range<u64>,
    send: impl FnMut(u64) -> T,
) -> (Vec<T>, Duration) {
    let start = Instant::now();
    let out = range.map(send).collect();
    (out, start.elapsed())
}

pub fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// A complete HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One request on a fresh connection (the daemon closes every connection
/// after its response). Returns when the connection was established and
/// the response.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(Instant, Response)> {
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok((connected, Response { status, body }))
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_computed_not_accumulated() {
        // 500/s from a 1 ms offset: due at 1, 3, 5, ... ms.
        let s = Schedule::per_second(500.0, 1_000_000);
        assert_eq!(s.interval_ns, 2_000_000);
        assert_eq!(s.due_ns(0), 1_000_000);
        assert_eq!(s.due_ns(3), 7_000_000);
        assert_eq!(s.due_ns(1_000_000), 2_000_001_000_000);
        // A rate that does not divide a second rounds to the nearest ns.
        assert_eq!(Schedule::per_second(3.0, 0).interval_ns, 333_333_333);
    }

    #[test]
    fn latency_counts_from_due_and_splits_lateness_from_queueing() {
        // The thread woke 0.2 ms late and the server took 0.3 ms.
        let idle = Timing {
            due_ns: 1_000_000,
            send_ns: 1_200_000,
            done_ns: 1_500_000,
            idle: true,
        };
        assert_eq!(idle.latency_ns(), 500_000);
        assert_eq!(idle.late_ns(), Some(200_000));
        assert_eq!(idle.queued_ns(), None);
        // Due while the previous request was stalled for 20 ms: the wait
        // behind it is queueing and is part of the latency.
        let busy = Timing {
            due_ns: 3_000_000,
            send_ns: 21_000_000,
            done_ns: 21_400_000,
            idle: false,
        };
        assert_eq!(busy.latency_ns(), 18_400_000);
        assert_eq!(busy.queued_ns(), Some(18_000_000));
        assert_eq!(busy.late_ns(), None);
    }

    #[test]
    fn open_loop_sends_on_schedule() {
        let origin = Instant::now();
        let timings = open_loop(origin, Schedule::per_second(1_000.0, 0), 5, |i| i * 10);
        assert_eq!(timings.len(), 5);
        for (i, (t, v)) in timings.iter().enumerate() {
            assert_eq!(*v, i as u64 * 10);
            assert_eq!(t.due_ns, i as u64 * 1_000_000);
            assert!(t.send_ns >= t.due_ns && t.done_ns >= t.send_ns);
        }
    }
}
