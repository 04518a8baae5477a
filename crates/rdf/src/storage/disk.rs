//! The persistent, dictionary-encoded triple store backend.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/LOCK        pid of the process holding the store
//! <dir>/dict.seg    append-only term dictionary (id = record ordinal)
//! <dir>/base.seg    immutable compacted segment: SPO + POS + OSP runs
//! <dir>/wal.log     write-ahead journal of mutations since the base
//! ```
//!
//! Reads merge the (disk-resident, binary-searched) base segment with an
//! in-memory delta overlay — triples added since the last compaction plus
//! tombstones for deleted base triples — reconstructed from the journal on
//! open. [`DiskBackend::flush`] is the group-commit durability barrier
//! (dictionary fsync, then journal fsync); [`DiskBackend::checkpoint`]
//! folds the delta into a fresh base segment and truncates the journal.

use crate::store::{GraphStore, Key};
use crate::term::Term;
use crate::triple::{PatternTerm, Triple, TriplePattern};
use crate::{RdfError, Result};
use qurator_telemetry::{Counter, Histogram};
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use super::dict::DiskDict;
use super::segment::{sync_dir, BaseSegment, Order, SegmentWriter};
use super::wal::{Wal, OP_ADD, OP_DEL};
use super::{IndexChoice, Storage, StorageStatus};

fn compact_count() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qurator_telemetry::metrics().counter("store.compact.count"))
}

fn compact_duration() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("store.compact.duration_us"))
}

fn compact_folded() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("store.compact.folded"))
}

/// Refreshes the storage size gauges (base segment triples, dictionary
/// terms and bytes) after open and after every compaction.
fn update_size_gauges(base_triples: u64, dict_terms: u64, dict_bytes: u64) {
    let metrics = qurator_telemetry::metrics();
    metrics.gauge("store.base.triples").set(base_triples as i64);
    metrics.gauge("store.dict.terms").set(dict_terms as i64);
    metrics.gauge("store.dict.bytes").set(dict_bytes as i64);
}

/// Journal records accumulated before `flush` folds the delta into the base
/// segment automatically.
const AUTO_COMPACT_RECORDS: usize = 1 << 16;

/// Holds `<dir>/LOCK` for the lifetime of the backend. A stale lock (holder
/// pid no longer alive) is stolen; a live holder is a fail-fast
/// [`RdfError::Locked`].
#[derive(Debug)]
pub(crate) struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    pub(crate) fn acquire(dir: &Path) -> Result<LockGuard> {
        let path = dir.join("LOCK");
        for _ in 0..16 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_data();
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    match holder.trim().parse::<u32>() {
                        Ok(pid) if pid_alive(pid) => {
                            return Err(RdfError::Locked {
                                path: dir.display().to_string(),
                                holder: format!("pid {pid}"),
                            });
                        }
                        // Stale (dead holder) or unreadable (torn write
                        // during a crash): steal and retry.
                        _ => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => {
                    return Err(RdfError::Io(format!("locking store {}: {e}", dir.display())))
                }
            }
        }
        Err(RdfError::Locked { path: dir.display().to_string(), holder: "contention".into() })
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Liveness check for lock stealing. The current process always counts as
/// alive, so double-opening one directory in-process fails fast too.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // Without a portable liveness probe, assume the holder died; store
        // dirs are single-writer per host in this codebase.
        false
    }
}

/// In-memory triple-key overlay kept in the same three orders as the base
/// segment so merged scans stay ascending.
#[derive(Debug, Default)]
struct Delta {
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

impl Delta {
    fn insert(&mut self, key: Key) -> bool {
        let added = self.spo.insert(key);
        if added {
            self.pos.insert(Order::Pos.to_coords(key));
            self.osp.insert(Order::Osp.to_coords(key));
        }
        added
    }

    fn remove(&mut self, key: Key) -> bool {
        let removed = self.spo.remove(&key);
        if removed {
            self.pos.remove(&Order::Pos.to_coords(key));
            self.osp.remove(&Order::Osp.to_coords(key));
        }
        removed
    }

    fn contains(&self, key: Key) -> bool {
        self.spo.contains(&key)
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn clear(&mut self) {
        self.spo.clear();
        self.pos.clear();
        self.osp.clear();
    }

    fn set(&self, order: Order) -> &BTreeSet<Key> {
        match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        }
    }
}

/// Ascending merge of two already-sorted key streams (duplicates collapse).
struct MergeAsc<A: Iterator<Item = Key>, B: Iterator<Item = Key>> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<A: Iterator<Item = Key>, B: Iterator<Item = Key>> Iterator for MergeAsc<A, B> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        match (self.a.peek().copied(), self.b.peek().copied()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    self.a.next();
                    if x == y {
                        self.b.next();
                    }
                    Some(x)
                } else {
                    self.b.next();
                    Some(y)
                }
            }
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

/// The disk-backed [`Storage`] implementation.
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    _lock: LockGuard,
    dict: DiskDict,
    base: Option<BaseSegment>,
    /// Triples inserted since the last compaction (disjoint from live base).
    adds: Delta,
    /// Tombstones for base triples deleted since the last compaction.
    dels: Delta,
    wal: Wal,
    live: usize,
    auto_compact_records: usize,
    crashed: bool,
    /// Compactions performed over this backend's lifetime (including the
    /// replay-then-compact on open).
    compactions: u64,
    last_compaction_us: u64,
    /// Journal records folded into the base by the last compaction.
    last_compaction_folded: u64,
}

impl DiskBackend {
    /// Opens or creates the store at `dir`: acquires the lock, scans the
    /// dictionary, integrity-checks the base segment, replays the journal
    /// into the delta overlay, then compacts if the journal was non-empty
    /// (replay-then-compact) so every open starts from a clean base.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskBackend> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| RdfError::Io(format!("creating store dir {}: {e}", dir.display())))?;
        let lock = LockGuard::acquire(&dir)?;
        let dict = DiskDict::open(&dir)?;
        let base = BaseSegment::open(&dir.join("base.seg"), dict.len())?;

        let mut adds = Delta::default();
        let mut dels = Delta::default();
        let mut base_cleared = false;
        {
            // Replay re-applies history against the current base. The apply
            // rules are idempotent, so a journal that predates a compaction
            // crash-interrupted before its truncation replays harmlessly.
            let base_has = |cleared: bool, key: Key| -> bool {
                !cleared && base.as_ref().is_some_and(|b| b.contains(key).unwrap_or(false))
            };
            let wal = Wal::open(&dir.join("wal.log"), dict.len(), |op, key| match op {
                OP_ADD => {
                    if base_has(base_cleared, key) {
                        dels.remove(key);
                    } else {
                        adds.insert(key);
                    }
                }
                OP_DEL => {
                    if adds.contains(key) {
                        adds.remove(key);
                    } else if base_has(base_cleared, key) {
                        dels.insert(key);
                    }
                }
                // OP_CLEAR, from stores written while `Storage::clear`
                // existed: it empties the store but keeps the dictionary
                _ => {
                    base_cleared = true;
                    adds.clear();
                    dels.clear();
                }
            })?;
            // a replayed clear leaves the base empty; the compaction below
            // (the journal is non-empty) rewrites it from the delta alone
            let base = if base_cleared { None } else { base };
            let live = base.as_ref().map_or(0, |b| b.count as usize) - dels.len() + adds.len();
            let mut backend = DiskBackend {
                dir,
                _lock: lock,
                dict,
                base,
                adds,
                dels,
                wal,
                live,
                auto_compact_records: AUTO_COMPACT_RECORDS,
                crashed: false,
                compactions: 0,
                last_compaction_us: 0,
                last_compaction_folded: 0,
            };
            if backend.wal.records > 0 {
                backend.compact()?;
            } else {
                update_size_gauges(
                    backend.base.as_ref().map_or(0, |b| b.count),
                    backend.dict.len() as u64,
                    backend.dict.bytes(),
                );
            }
            Ok(backend)
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lowers the auto-compaction threshold (tests exercise compaction
    /// without writing 64k records).
    pub fn set_auto_compact_records(&mut self, records: usize) {
        self.auto_compact_records = records.max(1);
    }

    /// Simulates a crash for recovery tests: drops the backend without the
    /// graceful-shutdown fsync and releases the lock the way a dead pid
    /// would (the next open steals it).
    #[doc(hidden)]
    pub fn crash(mut self) {
        self.crashed = true;
    }

    fn base_has(&self, key: Key) -> Result<bool> {
        match &self.base {
            Some(b) => b.contains(key),
            None => Ok(false),
        }
    }

    fn contains_key(&self, key: Key) -> Result<bool> {
        if self.adds.contains(key) {
            return Ok(true);
        }
        Ok(self.base_has(key)? && !self.dels.contains(key))
    }

    /// Merged ascending scan of one ordering with `GraphStore::scan`
    /// bound-prefix semantics, in that ordering's coordinates.
    fn scan_order(
        &self,
        order: Order,
        k0: Option<u32>,
        k1: Option<u32>,
        k2: Option<u32>,
    ) -> impl Iterator<Item = Key> + '_ {
        let base: Box<dyn Iterator<Item = Key> + '_> = match &self.base {
            Some(b) => Box::new(b.scan(order, k0, k1)),
            None => Box::new(std::iter::empty()),
        };
        let delta = GraphStore::scan(self.adds.set(order), k0, k1, k2);
        MergeAsc { a: base.peekable(), b: delta.peekable() }
            .filter(move |&(a, b, c)| {
                k0.is_none_or(|k| k == a) && k1.is_none_or(|k| k == b) && k2.is_none_or(|k| k == c)
            })
            .filter(move |&row| !self.dels.contains(order.spo_from_coords(row)))
    }

    fn decode(&self, key: Key) -> Option<Triple> {
        Some(Triple {
            subject: self.dict.term(key.0)?,
            predicate: self.dict.term(key.1)?,
            object: self.dict.term(key.2)?,
        })
    }

    fn apply_add(&mut self, key: Key) -> Result<()> {
        if self.base_has(key)? {
            self.dels.remove(key);
        } else {
            self.adds.insert(key);
        }
        Ok(())
    }

    fn apply_del(&mut self, key: Key) -> Result<()> {
        if self.adds.contains(key) {
            self.adds.remove(key);
        } else if self.base_has(key)? {
            self.dels.insert(key);
        }
        Ok(())
    }

    /// Rewrites the base segment from the merged live set and truncates the
    /// journal. Durability order: dictionary → new segment → journal reset,
    /// so a crash at any point replays to the same state.
    fn compact(&mut self) -> Result<()> {
        let started = Instant::now();
        let folded = self.wal.records as u64;
        self.dict.flush()?;
        self.wal.flush()?;
        let count = self.live as u64;
        let target = self.dir.join("base.seg");
        let mut writer = SegmentWriter::create(&target)?;
        for order in Order::ALL {
            for row in self.scan_order(order, None, None, None) {
                writer.push(row)?;
            }
        }
        writer.finish(count)?;
        self.base = BaseSegment::open(&target, self.dict.len())?;
        self.adds.clear();
        self.dels.clear();
        self.wal.reset()?;
        sync_dir(&self.dir)?;
        let duration_us = started.elapsed().as_micros() as u64;
        self.compactions += 1;
        self.last_compaction_us = duration_us;
        self.last_compaction_folded = folded;
        compact_count().inc();
        compact_duration().record(duration_us);
        compact_folded().record(folded);
        update_size_gauges(
            self.base.as_ref().map_or(0, |b| b.count),
            self.dict.len() as u64,
            self.dict.bytes(),
        );
        Ok(())
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        if !self.crashed {
            let _ = self.dict.flush();
            let _ = self.wal.flush();
        }
    }
}

impl Storage for DiskBackend {
    fn backend_name(&self) -> &'static str {
        "disk"
    }

    fn len(&self) -> usize {
        self.live
    }

    fn term_count(&self) -> usize {
        self.dict.len()
    }

    fn insert(&mut self, t: Triple) -> Result<bool> {
        if !t.is_well_formed() {
            return Err(RdfError::IllFormed(t.to_string()));
        }
        let key = (
            self.dict.intern(&t.subject)?,
            self.dict.intern(&t.predicate)?,
            self.dict.intern(&t.object)?,
        );
        if self.contains_key(key)? {
            return Ok(false);
        }
        self.wal.append(OP_ADD, key)?;
        self.apply_add(key)?;
        self.live += 1;
        Ok(true)
    }

    fn remove(&mut self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&t.subject),
            self.dict.lookup(&t.predicate),
            self.dict.lookup(&t.object),
        ) else {
            return false;
        };
        let key = (s, p, o);
        if !self.contains_key(key).unwrap_or(false) {
            return false;
        }
        if self.wal.append(OP_DEL, key).is_err() || self.apply_del(key).is_err() {
            return false;
        }
        self.live -= 1;
        true
    }

    fn contains(&self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&t.subject),
            self.dict.lookup(&t.predicate),
            self.dict.lookup(&t.object),
        ) else {
            return false;
        };
        self.contains_key((s, p, o)).unwrap_or(false)
    }

    fn matching<'a>(&'a self, pattern: &TriplePattern) -> Box<dyn Iterator<Item = Triple> + 'a> {
        let resolve = |pt: &PatternTerm| -> std::result::Result<Option<u32>, ()> {
            match pt.as_term() {
                None => Ok(None),
                Some(t) => self.dict.lookup(t).map(Some).ok_or(()),
            }
        };
        let (s, p, o) = match (
            resolve(&pattern.subject),
            resolve(&pattern.predicate),
            resolve(&pattern.object),
        ) {
            (Ok(s), Ok(p), Ok(o)) => (s, p, o),
            _ => return Box::new(std::iter::empty()),
        };
        let (order, k) = match GraphStore::index_for(pattern) {
            IndexChoice::Spo => (Order::Spo, (s, p, o)),
            IndexChoice::Pos => (Order::Pos, (p, o, s)),
            IndexChoice::Osp => (Order::Osp, (o, s, p)),
        };
        Box::new(
            self.scan_order(order, k.0, k.1, k.2)
                .filter_map(move |row| self.decode(order.spo_from_coords(row))),
        )
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = Triple> + 'a> {
        Box::new(self.scan_order(Order::Spo, None, None, None).filter_map(|key| self.decode(key)))
    }

    fn id_of(&self, term: &Term) -> Option<u32> {
        self.dict.lookup(term)
    }

    fn try_term_at(&self, id: u32) -> Option<Term> {
        self.dict.term(id)
    }

    fn edge_ids<'a>(&'a self, predicate: u32) -> Box<dyn Iterator<Item = (u32, u32)> + 'a> {
        Box::new(self.scan_order(Order::Pos, Some(predicate), None, None).map(|(_, o, s)| (s, o)))
    }

    fn object_ids<'a>(
        &'a self,
        subject: u32,
        predicate: u32,
    ) -> Box<dyn Iterator<Item = u32> + 'a> {
        Box::new(
            self.scan_order(Order::Spo, Some(subject), Some(predicate), None).map(|(_, _, o)| o),
        )
    }

    fn flush(&mut self) -> Result<()> {
        if self.wal.records >= self.auto_compact_records {
            return self.compact();
        }
        self.dict.flush()?;
        self.wal.flush()
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.compact()
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn status(&self) -> StorageStatus {
        StorageStatus {
            backend: "disk",
            triples: self.live,
            terms: self.dict.len(),
            journal_records: self.wal.records,
            base_triples: self.base.as_ref().map_or(0, |b| b.count),
            dict_bytes: self.dict.bytes(),
            compactions: self.compactions,
            last_compaction_us: (self.compactions > 0).then_some(self.last_compaction_us),
            last_compaction_folded: (self.compactions > 0).then_some(self.last_compaction_folded),
        }
    }
}
