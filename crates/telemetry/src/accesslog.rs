//! Structured access log for `qv serve`: one JSONL record per request.
//!
//! Records land in a bounded in-memory ring (served back at
//! `GET /log/recent`) and, when a file sink is attached via
//! `--access-log <path>`, are appended to disk as they arrive. Each
//! record carries the request's [`RunId`] when one was minted, so an
//! access-log line is the entry point into the full correlation chain
//! (trace → ledger → stats) via `GET /runs/<id>`.
//!
//! A record times its request from the first byte read to the last byte
//! written, split into the six [`PHASES`] by a [`PhaseClock`].
//!
//! One lock guards the sequence counter, the sink and the ring, so the
//! file holds its lines in `seq` order and the ring holds exactly its
//! capacity once full. `qv serve` records a few dozen requests a second,
//! so the lock is never contended enough to shard.

use crate::runid::RunId;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The phases of one request, in the order they run: the keys of an
/// access record's `phases_ns`.
pub const PHASES: [&str; 6] = ["read", "parse", "execute", "flush", "serialize", "write"];

/// One of the [`PHASES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From the first byte of the request read until the request is framed.
    Read,
    /// The request body parsed into a data set.
    Parse,
    /// The engine run, or the handler of a route that runs no view.
    Execute,
    /// The store flush before a run is acknowledged.
    Flush,
    /// The response body and head written into one buffer.
    Serialize,
    /// That buffer written to the socket.
    Write,
}

/// Times a request's phases by contiguous clock reads: each
/// [`PhaseClock::mark`] charges the time since the previous read to one
/// phase, so the phases sum exactly to the time from the first read to
/// the last. A phase never marked stays 0.
#[derive(Debug, Clone)]
pub struct PhaseClock {
    last: Instant,
    phases_ns: [u64; 6],
}

impl PhaseClock {
    /// A clock whose first read is `start`.
    pub fn starting_at(start: Instant) -> PhaseClock {
        PhaseClock { last: start, phases_ns: [0; 6] }
    }

    /// Reads the clock and charges the time since the previous read to
    /// `phase`.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        self.phases_ns[phase as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Nanoseconds per phase, in [`PHASES`] order.
    pub fn phases_ns(&self) -> [u64; 6] {
        self.phases_ns
    }
}

/// One served request (or early failure), as recorded by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRecord {
    /// Global sequence number, assigned by [`AccessLog::record`].
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Client peer address (`ip:port`), or `"-"` when unknown.
    pub peer: String,
    /// Clamped route label (the same low-cardinality set the request
    /// metrics use), `"-"` for requests that failed before routing.
    pub route: String,
    /// HTTP status sent.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Nanoseconds per phase, in [`PHASES`] order, from the first byte
    /// of the request read to the last byte of the response written.
    pub phases_ns: [u64; 6],
    /// The run minted for this request, when it executed a view.
    pub run_id: Option<RunId>,
    /// The request was shed by admission control (503 + Retry-After).
    pub shed: bool,
    /// The request timed out mid-read (408).
    pub timeout: bool,
}

impl AccessRecord {
    /// The request's wall time in microseconds: the phases' sum.
    pub fn latency_us(&self) -> u64 {
        self.phases_ns.iter().sum::<u64>() / 1_000
    }

    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let run = match self.run_id {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        };
        let phases: Vec<String> = PHASES
            .iter()
            .zip(self.phases_ns)
            .map(|(name, ns)| format!("\"{name}\":{ns}"))
            .collect();
        format!(
            concat!(
                "{{\"type\":\"access\",\"seq\":{},\"ts_ms\":{},\"peer\":\"{}\",",
                "\"route\":\"{}\",\"status\":{},\"bytes\":{},\"latency_us\":{},",
                "\"phases_ns\":{{{}}},\"run_id\":{},\"shed\":{},\"timeout\":{}}}"
            ),
            self.seq,
            self.ts_ms,
            crate::json::escape(&self.peer),
            crate::json::escape(&self.route),
            self.status,
            self.bytes,
            self.latency_us(),
            phases.join(","),
            run,
            self.shed,
            self.timeout,
        )
    }
}

/// The state one lock guards: the next sequence number, the sink and
/// the ring.
struct Inner {
    next_seq: u64,
    ring: VecDeque<AccessRecord>,
    sink: Option<std::fs::File>,
}

/// Bounded access-log ring with an optional file sink.
pub struct AccessLog {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl AccessLog {
    /// An in-memory-only log keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> AccessLog {
        AccessLog {
            inner: Mutex::new(Inner { next_seq: 0, ring: VecDeque::new(), sink: None }),
            capacity,
        }
    }

    /// Attaches an append-mode file sink; every record is written as one
    /// JSON line as it arrives.
    pub fn with_sink(capacity: usize, path: &Path) -> std::io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let log = AccessLog::new(capacity);
        log.lock().sink = Some(file);
        Ok(log)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one request. The record's `seq` field is assigned here;
    /// the caller fills everything else.
    pub fn record(&self, mut record: AccessRecord) {
        let mut inner = self.lock();
        record.seq = inner.next_seq;
        inner.next_seq += 1;
        if let Some(file) = &mut inner.sink {
            let mut line = record.to_json();
            line.push('\n');
            if file.write_all(line.as_bytes()).is_err() {
                crate::metrics().counter("serve.accesslog.sink_error").inc();
            }
        }
        if self.capacity > 0 {
            if inner.ring.len() == self.capacity {
                inner.ring.pop_front();
            }
            inner.ring.push_back(record);
        }
    }

    /// Total records ever recorded.
    pub fn recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// The most recent records, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<AccessRecord> {
        self.lock().ring.iter().rev().take(limit).cloned().collect()
    }

    /// The most recent records as JSON lines, newest first.
    pub fn recent_jsonl(&self, limit: usize) -> String {
        let mut out = String::new();
        for record in self.recent(limit) {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(route: &str, status: u16) -> AccessRecord {
        AccessRecord {
            seq: 0,
            ts_ms: 1_700_000_000_000,
            peer: "127.0.0.1:5000".into(),
            route: route.into(),
            status,
            bytes: 42,
            phases_ns: [80_000, 20_000, 15_500, 0, 3_000, 1_700],
            run_id: Some(RunId::from_u64(0xABCD)),
            shed: false,
            timeout: false,
        }
    }

    #[test]
    fn ring_keeps_the_newest_records_and_orders_them() {
        let log = AccessLog::new(16);
        for i in 0..100u16 {
            log.record(record("/run", 200 + i % 2));
        }
        assert_eq!(log.recorded(), 100);
        let recent = log.recent(8);
        assert_eq!(recent.len(), 8);
        // newest first, strictly descending seq, all from the tail
        assert!(recent.windows(2).all(|w| w[0].seq > w[1].seq));
        assert_eq!(recent[0].seq, 99);
        // residency is hard-bounded by the configured capacity
        assert_eq!(log.recent(usize::MAX).len(), 16);
    }

    #[test]
    fn jsonl_lines_are_schema_valid() {
        let log = AccessLog::new(8);
        log.record(record("/run", 200));
        let mut shed = record("-", 503);
        shed.run_id = None;
        shed.shed = true;
        shed.phases_ns = [0, 0, 0, 0, 0, 41_000];
        log.record(shed);
        let jsonl = log.recent_jsonl(usize::MAX);
        crate::schema::validate_access_log_jsonl(&jsonl).unwrap();
        assert!(jsonl.contains("\"run_id\":\"000000000000abcd\""));
        assert!(jsonl.contains("\"run_id\":null"));
        assert!(jsonl.contains("\"shed\":true"));
        // the phases in their order, and latency_us their sum in µs
        assert!(jsonl.contains(concat!(
            "\"latency_us\":120,\"phases_ns\":{\"read\":80000,\"parse\":20000,",
            "\"execute\":15500,\"flush\":0,\"serialize\":3000,\"write\":1700}"
        )));
        assert!(jsonl.contains("\"latency_us\":41,"));
    }

    #[test]
    fn phase_clock_charges_each_interval_to_one_phase() {
        let start = Instant::now();
        let mut clock = PhaseClock::starting_at(start);
        clock.mark(Phase::Read);
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.mark(Phase::Execute);
        clock.mark(Phase::Write);
        let elapsed = start.elapsed().as_nanos() as u64;
        let [read, parse, execute, flush, serialize, write] = clock.phases_ns();
        assert!(execute >= 2_000_000, "{execute}");
        assert_eq!((parse, flush, serialize), (0, 0, 0), "unmarked phases stay 0");
        assert!(read + execute + write <= elapsed);
    }

    #[test]
    fn sink_appends_one_line_per_record() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qv-accesslog-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let log = AccessLog::with_sink(8, &path).expect("open sink");
            for _ in 0..3 {
                log.record(record("/metrics", 200));
            }
        }
        let text = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(text.lines().count(), 3);
        crate::schema::validate_access_log_jsonl(&text).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn residency_equals_the_capacity() {
        let log = AccessLog::new(10);
        for _ in 0..25 {
            log.record(record("/run", 200));
        }
        let recent = log.recent(usize::MAX);
        assert_eq!(recent.len(), 10);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (15..25).rev().collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_sink_lines_keep_sequence_order() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        const CAPACITY: usize = 1_000;
        let path = std::env::temp_dir()
            .join(format!("qv-accesslog-order-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::with_sink(CAPACITY, &path).expect("open sink");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        log.record(record("/run", 200));
                    }
                });
            }
        });
        let recent = log.recent(usize::MAX);
        drop(log);
        let text = std::fs::read_to_string(&path).expect("read sink");
        let _ = std::fs::remove_file(&path);

        let seqs: Vec<u64> = text
            .lines()
            .map(|line| {
                let value = crate::json::parse(line).expect("sink line parses");
                value.get("seq").and_then(|v| v.as_u64()).expect("seq")
            })
            .collect();
        assert_eq!(seqs.len(), THREADS * PER_THREAD);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "sink lines out of seq order");
        assert_eq!(recent.len(), CAPACITY);
        assert_eq!(recent[0].seq, (THREADS * PER_THREAD - 1) as u64);
        assert!(recent.windows(2).all(|w| w[0].seq == w[1].seq + 1), "ring is not newest first");
    }

    #[test]
    fn concurrent_recording_keeps_sequence_unique() {
        let log = AccessLog::new(1024);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..64 {
                        log.record(record("/run", 200));
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = log.recent(usize::MAX).iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 512);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 512, "duplicate sequence numbers");
    }
}
