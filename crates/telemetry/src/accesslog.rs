//! Structured access log for `qv serve`: one JSONL record per request.
//!
//! Records land in a bounded, lock-sharded in-memory ring (served back
//! at `GET /log/recent`) and, when a file sink is attached via
//! `--access-log <path>`, are appended to disk as they arrive. Each
//! record carries the request's [`RunId`] when one was minted, so an
//! access-log line is the entry point into the full correlation chain
//! (trace → ledger → stats) via `GET /runs/<id>`.
//!
//! Shards are picked round-robin by the record's global sequence
//! number, so concurrent workers land on different mutexes most of the
//! time, residency stays exactly bounded, and reading the ring back
//! restores total order by sequence number.

use crate::runid::RunId;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const SHARDS: usize = crate::metrics::SHARDS;

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
    /// Wall time from request receipt to response write.
    pub latency_us: u64,
    /// The run minted for this request, when it executed a view.
    pub run_id: Option<RunId>,
    /// The request was shed by admission control (503 + Retry-After).
    pub shed: bool,
    /// The request timed out mid-read (408).
    pub timeout: bool,
}

impl AccessRecord {
    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let run = match self.run_id {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"type\":\"access\",\"seq\":{},\"ts_ms\":{},\"peer\":\"{}\",",
                "\"route\":\"{}\",\"status\":{},\"bytes\":{},\"latency_us\":{},",
                "\"run_id\":{},\"shed\":{},\"timeout\":{}}}"
            ),
            self.seq,
            self.ts_ms,
            crate::json::escape(&self.peer),
            crate::json::escape(&self.route),
            self.status,
            self.bytes,
            self.latency_us,
            run,
            self.shed,
            self.timeout,
        )
    }
}

#[derive(Default)]
struct Shard {
    ring: VecDeque<AccessRecord>,
}

/// Bounded, sharded access-log ring with an optional file sink.
pub struct AccessLog {
    shards: [Mutex<Shard>; SHARDS],
    seq: AtomicU64,
    /// Per-shard ring capacity (total capacity / SHARDS, at least 1).
    shard_capacity: usize,
    sink: Option<Mutex<std::fs::File>>,
}

impl AccessLog {
    /// An in-memory-only log keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> AccessLog {
        AccessLog {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            seq: AtomicU64::new(0),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            sink: None,
        }
    }

    /// Attaches an append-mode file sink; every record is written as one
    /// JSON line as it arrives.
    pub fn with_sink(capacity: usize, path: &Path) -> std::io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut log = AccessLog::new(capacity);
        log.sink = Some(Mutex::new(file));
        Ok(log)
    }

    /// Records one request. The record's `seq` field is assigned here;
    /// the caller fills everything else.
    pub fn record(&self, mut record: AccessRecord) {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            let mut line = record.to_json();
            line.push('\n');
            let mut file = sink.lock().unwrap_or_else(|e| e.into_inner());
            if file.write_all(line.as_bytes()).is_err() {
                crate::metrics().counter("serve.accesslog.sink_error").inc();
            }
        }
        let shard = &self.shards[(record.seq % SHARDS as u64) as usize];
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        while shard.ring.len() >= self.shard_capacity {
            shard.ring.pop_front();
        }
        shard.ring.push_back(record);
    }

    /// Total records ever recorded.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The most recent records, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<AccessRecord> {
        let mut all: Vec<AccessRecord> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(shard.ring.iter().cloned());
        }
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(limit);
        all
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
            latency_us: 120,
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
        log.record(shed);
        let jsonl = log.recent_jsonl(usize::MAX);
        crate::schema::validate_access_log_jsonl(&jsonl).unwrap();
        assert!(jsonl.contains("\"run_id\":\"000000000000abcd\""));
        assert!(jsonl.contains("\"run_id\":null"));
        assert!(jsonl.contains("\"shed\":true"));
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
