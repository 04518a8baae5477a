//! Run identifiers: the correlation spine of the observability stack.
//!
//! A [`RunId`] is minted once at every entry point (each `POST
//! /run/<view>` request, each `qv run` / `qv profile` invocation) and
//! threaded through everything that run produces: the root span carries
//! it as an attribute, it keys the engine's record of the run (its span
//! trace, stats and decisions), and every decision trace is stamped with
//! it. Given the 16-hex-char rendering from an `X-QV-Run-Id` response
//! header, `GET /runs/<id>` (or the exporters) can reassemble the whole
//! picture after the fact.
//!
//! Ids are derived by running a process-unique counter through
//! splitmix64, seeded with wall-clock + pid entropy so two processes
//! started back to back do not collide on their first runs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// splitmix64 finalizer: a full-period, well-mixed permutation of the
/// 64-bit state.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A telemetry-level run identifier, rendered as 16 lowercase hex chars.
///
/// `Default` is the all-zero id; every real execution path mints a fresh
/// id instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RunId(u64);

impl RunId {
    /// Wraps a raw value (tests and deterministic replay).
    pub fn from_u64(raw: u64) -> RunId {
        RunId(raw)
    }

    /// The raw 64-bit value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Mints a fresh, process-unique id.
    pub fn mint() -> RunId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            nanos ^ ((std::process::id() as u64) << 32) ^ (&COUNTER as *const _ as u64)
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        RunId(splitmix64(seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
    }

    /// Parses the 16-hex-char rendering back. Accepts exactly 16 hex
    /// digits (either case), i.e. whatever [`fmt::Display`] produced.
    pub fn parse(s: &str) -> Option<RunId> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RunId)
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_parse() {
        for raw in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let id = RunId::from_u64(raw);
            let rendered = id.to_string();
            assert_eq!(rendered.len(), 16);
            assert_eq!(RunId::parse(&rendered), Some(id));
        }
        assert_eq!(RunId::parse("00000000DEADBEEF"), Some(RunId::from_u64(0xDEAD_BEEF)));
    }

    #[test]
    fn parse_rejects_malformed_ids() {
        for bad in ["", "123", "0123456789abcdef0", "0123456789abcdeg", "run-0123456789ab"] {
            assert_eq!(RunId::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn minted_ids_are_unique_across_threads() {
        let mut ids: Vec<RunId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..64).map(|_| RunId::mint()).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "minted run ids collided");
    }
}
