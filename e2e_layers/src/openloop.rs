//! The load generator: one process, one thread per connection.
//!
//! In an open loop request `i` is due `i / rate` seconds after the start,
//! whether or not earlier requests have finished, and its latency is
//! counted from that due time — a stall delays every request queued
//! behind it, and those waits count. A closed loop sends the next request
//! as soon as a connection is free. Either way, a request waits for a
//! free connection; with at most two connections, a backlog shows as
//! requests sent after their due time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The most connections (and so threads) one generator drives.
pub const MAX_CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Requests due at a fixed rate (per second).
    Open { rate: f64 },
    /// The next request as soon as a connection is free.
    Closed,
}

/// One request as the generator saw it; instants are offsets from the
/// start of the loop.
#[derive(Debug, Clone)]
pub struct Sample<T> {
    pub index: usize,
    /// When the request was due (open loop) or could first be sent
    /// (closed loop).
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// How late the generator woke for a request whose connection was
    /// free before it was due; `None` when the connection was still busy
    /// at the due time, so the lateness is the system's backlog.
    pub late: Option<Duration>,
    pub outcome: T,
}

impl<T> Sample<T> {
    /// Latency from the due time: what the request's caller waited.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// Time from the first byte sent to the last byte received.
    pub fn service(&self) -> Duration {
        self.done - self.sent
    }
}

/// Runs `count` requests over `connections` (one thread each) and returns
/// the samples in request order. `request` performs request `i` on a
/// connection.
pub fn drive<C, T, F>(
    connections: &mut [C],
    schedule: Schedule,
    count: usize,
    request: F,
) -> Vec<Sample<T>>
where
    C: Send,
    T: Send,
    F: Fn(&mut C, usize) -> T + Sync,
{
    assert!(
        (1..=MAX_CONNECTIONS).contains(&connections.len()),
        "the generator drives 1 to {MAX_CONNECTIONS} connections"
    );
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for connection in connections.iter_mut() {
            let (next, samples, request) = (&next, &samples, &request);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let free_at = start.elapsed();
                let (due, late) = match schedule {
                    Schedule::Open { rate } => {
                        let due = Duration::from_secs_f64(index as f64 / rate);
                        if free_at < due {
                            std::thread::sleep(due - free_at);
                            (due, Some(start.elapsed() - due))
                        } else {
                            (due, None)
                        }
                    }
                    Schedule::Closed => (free_at, Some(Duration::ZERO)),
                };
                let sent = start.elapsed();
                let outcome = request(connection, index);
                let done = start.elapsed();
                let sample = Sample { index, due, sent, done, late, outcome };
                samples.lock().expect("a generator thread panicked").push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("a generator thread panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_sends_on_schedule_and_counts_from_due_time() {
        // 40 requests at 400/s over one connection: 100 ms of schedule
        let samples = drive(&mut [()], Schedule::Open { rate: 400.0 }, 40, |_, i| i);
        assert_eq!(
            samples.iter().map(|s| s.outcome).collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
        for s in &samples {
            assert_eq!(s.due, Duration::from_secs_f64(s.index as f64 / 400.0));
            assert!(s.sent >= s.due, "request {} sent before it was due", s.index);
            assert!(s.latency() >= s.service());
        }
        let late: Vec<_> = samples.iter().filter_map(|s| s.late).collect();
        assert!(!late.is_empty(), "an idle connection waits for the due time");
    }

    #[test]
    fn a_stalled_request_delays_the_ones_due_behind_it() {
        // request 0 stalls 50 ms on the only connection; requests 1..5
        // fall due meanwhile and their latency includes the wait
        let samples = drive(&mut [()], Schedule::Open { rate: 1000.0 }, 5, |_, i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        for s in &samples[1..] {
            assert!(s.late.is_none(), "request {} found its connection busy", s.index);
            assert!(s.latency() >= Duration::from_millis(45), "{:?}", s.latency());
            assert!(s.service() < Duration::from_millis(20));
        }
    }

    #[test]
    fn two_connections_share_the_requests() {
        let mut used = [0usize, 0];
        let samples = drive(&mut used, Schedule::Closed, 20, |count, _| {
            *count += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(samples.len(), 20);
        assert_eq!(used[0] + used[1], 20);
        assert!(used.iter().all(|&n| n > 0), "both connections carried requests: {used:?}");
    }
}
