//! Pluggable storage backends behind one [`Storage`] trait.
//!
//! The trait captures everything the upper layers (annotation repositories,
//! SPARQL evaluation, bulk enrichment) ask of a triple store: term-space
//! pattern matching plus the id-space join API (`id_of` / `try_term_at` /
//! `edge_ids` / `object_ids`) that `enrich_bulk` runs on, and a
//! snapshot/recovery surface (`flush` / `checkpoint`) for durable backends.
//!
//! Two implementations ship:
//!
//! * [`MemoryBackend`] — the existing BTreeSet-indexed [`GraphStore`]; the
//!   default, unchanged semantics.
//! * [`DiskBackend`] — a persistent, dictionary-encoded store (append-only
//!   term dictionary, immutable sorted segment files, write-ahead journal
//!   with group commit and crash recovery). See the `disk` module.
//!
//! # Id stability (invariant)
//!
//! Term ids returned by [`Storage::id_of`] are assigned at intern time and
//! remain valid for the *entire lifetime of the store* — across `flush`,
//! `checkpoint`/compaction, and (for durable backends) process restarts.
//! Ids are never reused or remapped; compaction rewrites triple segments
//! but never the dictionary. Consequently id order is intern order on
//! every backend, which is what makes the ascending id-space scans
//! (`edge_ids`, `object_ids`) and their first-wins consumers
//! deterministic and backend-independent. Code holding ids from an
//! *external* source (disk segments, the network) must resolve them with
//! [`Storage::try_term_at`], which turns a corrupt or foreign id into
//! `None` instead of a panic.

mod bulk;
mod codec;
mod dict;
mod disk;
mod segment;
mod wal;

pub use crate::store::IndexChoice;
pub use bulk::{BulkLoadStats, BulkLoader};
pub use disk::DiskBackend;
pub use wal::truncate_mid_record;

use crate::store::GraphStore;
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};
use crate::Result;
use std::path::Path;

/// The default in-memory backend: today's [`GraphStore`], unchanged.
pub type MemoryBackend = GraphStore;

/// A structured snapshot of one backend's storage-layer state — the
/// expanded `GET /store` surface. Volatile backends report the size
/// figures only; [`DiskBackend`] fills in journal, base-segment,
/// dictionary and compaction facts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStatus {
    /// Backend identifier (`"memory"`, `"disk"`).
    pub backend: &'static str,
    /// Live triples.
    pub triples: usize,
    /// Distinct interned terms.
    pub terms: usize,
    /// Records currently in the write-ahead journal (0 for volatile
    /// backends).
    pub journal_records: usize,
    /// Triples in the compacted base segment.
    pub base_triples: u64,
    /// On-disk dictionary size in bytes.
    pub dict_bytes: u64,
    /// Compactions performed over this backend's lifetime.
    pub compactions: u64,
    /// Duration of the most recent compaction, if one ran.
    pub last_compaction_us: Option<u64>,
    /// Journal records folded by the most recent compaction, if one ran.
    pub last_compaction_folded: Option<u64>,
}

/// Abstract triple storage. Object-safe: the engine holds repositories as
/// `Box<dyn Storage>` so one binary serves both backends.
///
/// Implementations must uphold the **id-stability invariant** documented on
/// [the module](self): ids are assigned in intern order, never reused, and
/// survive `checkpoint`/reopen. All id-space scans yield ascending
/// key order (`edge_ids` ascending `(object, subject)`, `object_ids`
/// ascending object id), matching `GraphStore`'s BTreeSet semantics.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Short backend identifier (`"memory"`, `"disk"`), used in
    /// diagnostics and the `/store` endpoint.
    fn backend_name(&self) -> &'static str;

    /// Number of triples currently live.
    fn len(&self) -> usize;

    /// Number of distinct terms interned over the store's lifetime.
    fn term_count(&self) -> usize;

    /// Inserts a triple; `Ok(true)` when it was not already present.
    /// Ill-formed triples (literal subject / non-IRI predicate) are a
    /// [`crate::RdfError::IllFormed`] error — external data reaches this
    /// boundary, so it must not abort the process.
    fn insert(&mut self, t: Triple) -> Result<bool>;

    /// Removes a triple; `true` when it was present.
    fn remove(&mut self, t: &Triple) -> bool;

    /// Membership test.
    fn contains(&self, t: &Triple) -> bool;

    /// Streams all triples matching the pattern via the best index, in
    /// that index's ascending key order.
    fn matching<'a>(&'a self, pattern: &TriplePattern) -> Box<dyn Iterator<Item = Triple> + 'a>;

    /// Iterates all triples in ascending SPO id order.
    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = Triple> + 'a>;

    /// The interned id of a term, or `None` if the store has never seen it.
    fn id_of(&self, term: &Term) -> Option<u32>;

    /// The term behind an id, or `None` for ids this store never issued —
    /// the trust boundary for ids read back from disk segments or any
    /// other external source.
    fn try_term_at(&self, id: u32) -> Option<Term>;

    /// All `(subject, object)` id pairs under a bound predicate, ascending
    /// by `(object, subject)` — the bulk-enrichment workhorse.
    fn edge_ids<'a>(&'a self, predicate: u32) -> Box<dyn Iterator<Item = (u32, u32)> + 'a>;

    /// Object ids of `(subject, predicate, ?)`, ascending.
    fn object_ids<'a>(&'a self, subject: u32, predicate: u32)
        -> Box<dyn Iterator<Item = u32> + 'a>;

    /// Mints a store-scoped fresh blank node (not yet interned).
    fn fresh_blank(&mut self) -> Term;

    /// Durability barrier: after `Ok(())`, every previously acknowledged
    /// mutation survives a crash. No-op for volatile backends.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Folds accumulated mutations into a compact snapshot (segment
    /// compaction + journal truncation on disk). Implies [`Self::flush`].
    fn checkpoint(&mut self) -> Result<()> {
        Ok(())
    }

    /// The directory backing this store, if any.
    fn path(&self) -> Option<&Path> {
        None
    }

    /// Storage-layer state for operators (`GET /store`). The default
    /// covers volatile backends: sizes only, everything durable zeroed.
    fn status(&self) -> StorageStatus {
        StorageStatus {
            backend: self.backend_name(),
            triples: self.len(),
            terms: self.term_count(),
            ..StorageStatus::default()
        }
    }

    /// True when the store holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Infallible [`Self::try_term_at`] for ids the *store itself* just
    /// issued. Panics on foreign ids.
    fn term_at(&self, id: u32) -> Term {
        self.try_term_at(id)
            .unwrap_or_else(|| panic!("term id {id} was never issued by this store"))
    }

    /// Removes every triple matching the pattern; returns how many.
    fn remove_matching(&mut self, pattern: &TriplePattern) -> usize {
        let victims: Vec<Triple> = self.matching(pattern).collect();
        for v in &victims {
            self.remove(v);
        }
        victims.len()
    }

    /// Inserts every triple from an iterator; returns how many were new.
    fn insert_all(&mut self, triples: &mut dyn Iterator<Item = Triple>) -> Result<usize> {
        let mut added = 0;
        for t in triples {
            if self.insert(t)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Convenience: all objects of `(subject, predicate, ?)`.
    fn objects(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        self.matching(&TriplePattern::new(subject.clone(), predicate.clone(), None))
            .map(|t| t.object)
            .collect()
    }

    /// Convenience: all subjects of `(?, predicate, object)`.
    fn subjects(&self, predicate: &Term, object: &Term) -> Vec<Term> {
        self.matching(&TriplePattern::new(None, predicate.clone(), object.clone()))
            .map(|t| t.subject)
            .collect()
    }

    /// The first object of `(subject, predicate, ?)` if any.
    fn object(&self, subject: &Term, predicate: &Term) -> Option<Term> {
        self.matching(&TriplePattern::new(subject.clone(), predicate.clone(), None))
            .next()
            .map(|t| t.object)
    }
}

impl Storage for GraphStore {
    fn backend_name(&self) -> &'static str {
        "memory"
    }

    fn len(&self) -> usize {
        GraphStore::len(self)
    }

    fn term_count(&self) -> usize {
        GraphStore::term_count(self)
    }

    fn insert(&mut self, t: Triple) -> Result<bool> {
        self.try_insert(t)
    }

    fn remove(&mut self, t: &Triple) -> bool {
        GraphStore::remove(self, t)
    }

    fn contains(&self, t: &Triple) -> bool {
        GraphStore::contains(self, t)
    }

    fn matching<'a>(&'a self, pattern: &TriplePattern) -> Box<dyn Iterator<Item = Triple> + 'a> {
        GraphStore::matching(self, pattern)
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = Triple> + 'a> {
        Box::new(GraphStore::iter(self))
    }

    fn id_of(&self, term: &Term) -> Option<u32> {
        GraphStore::id_of(self, term)
    }

    fn try_term_at(&self, id: u32) -> Option<Term> {
        GraphStore::try_term_at(self, id).cloned()
    }

    fn edge_ids<'a>(&'a self, predicate: u32) -> Box<dyn Iterator<Item = (u32, u32)> + 'a> {
        Box::new(GraphStore::edge_ids(self, predicate))
    }

    fn object_ids<'a>(
        &'a self,
        subject: u32,
        predicate: u32,
    ) -> Box<dyn Iterator<Item = u32> + 'a> {
        Box::new(GraphStore::object_ids(self, subject, predicate))
    }

    fn fresh_blank(&mut self) -> Term {
        GraphStore::fresh_blank(self)
    }
}

/// Test support: a unique scratch directory removed on drop. Public so
/// downstream crates' backend-equivalence tests can share it (hidden from
/// docs; not a stable API).
#[doc(hidden)]
pub mod test_support {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> TempDir {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("qv-store-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create scratch dir");
            TempDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }

        pub fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::TempDir;
    use super::*;
    use crate::term::Literal;
    use crate::triple::Triple;

    fn iri(n: u32) -> Term {
        Term::iri(format!("http://x/{n}"))
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    /// Every observable surface of the trait, compared across backends.
    pub(crate) fn assert_equivalent(a: &dyn Storage, b: &dyn Storage) {
        assert_eq!(a.len(), b.len(), "len");
        assert_eq!(a.is_empty(), b.is_empty());
        let ta: Vec<Triple> = a.iter().collect();
        let tb: Vec<Triple> = b.iter().collect();
        assert_eq!(ta, tb, "iter (including SPO id order)");
        // All eight pattern shapes, exercising every index, in index order.
        let subjects: Vec<Option<Term>> = vec![None, ta.first().map(|t| t.subject.clone())];
        for s in &subjects {
            for p in &[None, ta.first().map(|t| t.predicate.clone())] {
                for o in &[None, ta.first().map(|t| t.object.clone())] {
                    let pat = TriplePattern::new(s.clone(), p.clone(), o.clone());
                    let ra: Vec<Triple> = a.matching(&pat).collect();
                    let rb: Vec<Triple> = b.matching(&pat).collect();
                    assert_eq!(ra, rb, "pattern {pat:?}");
                }
            }
        }
        // Id-space scans: ids are intern-ordered on both backends, so the
        // raw id streams must agree wherever both know the term.
        for t in ta.iter().take(4) {
            let (ia, ib) = (a.id_of(&t.predicate), b.id_of(&t.predicate));
            let (ia, ib) = (ia.expect("a knows its own predicate"), ib.expect("b too"));
            assert_eq!(ia, ib, "intern order must agree");
            let ea: Vec<(u32, u32)> = a.edge_ids(ia).collect();
            let eb: Vec<(u32, u32)> = b.edge_ids(ib).collect();
            assert_eq!(ea, eb, "edge_ids({})", t.predicate);
            let sa = a.id_of(&t.subject).unwrap();
            let oa: Vec<u32> = a.object_ids(sa, ia).collect();
            let ob: Vec<u32> = b.object_ids(sa, ia).collect();
            assert_eq!(oa, ob, "object_ids");
        }
        assert_eq!(a.try_term_at(u32::MAX), None, "foreign id on {}", a.backend_name());
        assert_eq!(b.try_term_at(u32::MAX), None, "foreign id on {}", b.backend_name());
    }

    #[test]
    fn status_reports_journal_base_and_compaction_facts() {
        let dir = TempDir::new("status");
        let mut d = DiskBackend::open(dir.path()).unwrap();
        let fresh = d.status();
        assert_eq!(fresh.backend, "disk");
        assert_eq!((fresh.triples, fresh.journal_records, fresh.compactions), (0, 0, 0));
        assert_eq!(fresh.last_compaction_us, None);

        for i in 0..10 {
            d.insert(tr(i, 1, i + 1)).unwrap();
        }
        let dirty = d.status();
        assert_eq!(dirty.triples, 10);
        assert_eq!(dirty.journal_records, 10, "all writes still journaled");
        assert_eq!(dirty.base_triples, 0);
        assert!(dirty.dict_bytes > 0, "dictionary has interned terms");

        d.checkpoint().unwrap();
        let compacted = d.status();
        assert_eq!(compacted.journal_records, 0, "journal truncated");
        assert_eq!(compacted.base_triples, 10, "delta folded into the base");
        assert_eq!(compacted.compactions, 1);
        assert_eq!(compacted.last_compaction_folded, Some(10));
        assert!(compacted.last_compaction_us.is_some());

        // The volatile backend reports sizes only.
        let mut m = GraphStore::new();
        Storage::insert(&mut m, tr(1, 2, 3)).unwrap();
        let mem = Storage::status(&m);
        assert_eq!((mem.backend, mem.triples), ("memory", 1));
        assert_eq!(mem.journal_records, 0);
        assert_eq!(mem.last_compaction_us, None);
    }

    #[test]
    fn disk_backend_basics() {
        let dir = TempDir::new("basics");
        let mut d = DiskBackend::open(dir.path()).unwrap();
        assert_eq!(d.backend_name(), "disk");
        assert!(d.is_empty());
        assert!(d.insert(tr(1, 2, 3)).unwrap());
        assert!(!d.insert(tr(1, 2, 3)).unwrap(), "duplicate insert is a no-op");
        assert!(d.contains(&tr(1, 2, 3)));
        assert_eq!(d.len(), 1);
        assert!(d.remove(&tr(1, 2, 3)));
        assert!(!d.remove(&tr(1, 2, 3)));
        assert!(d.is_empty());
    }

    #[test]
    fn ill_formed_insert_is_an_error_not_a_panic() {
        let dir = TempDir::new("illformed");
        let bad = Triple {
            subject: Term::string("lit"),
            predicate: Term::iri("http://x/p"),
            object: Term::string("o"),
        };
        let mut d = DiskBackend::open(dir.path()).unwrap();
        assert!(matches!(d.insert(bad.clone()), Err(crate::RdfError::IllFormed(_))));
        let mut m = GraphStore::new();
        assert!(matches!(Storage::insert(&mut m, bad), Err(crate::RdfError::IllFormed(_))));
    }

    #[test]
    fn literals_survive_reopen() {
        let dir = TempDir::new("literals");
        let exotic = vec![
            Triple::new(iri(1), iri(2), Term::string("plain \"quoted\" text\n")),
            Triple::new(iri(1), iri(3), Term::integer(-42)),
            Triple::new(iri(1), iri(4), Term::double(2.5)),
            Triple::new(iri(1), iri(5), Term::Literal(Literal::lang_string("déjà", "fr"))),
            Triple::new(Term::blank("b0"), iri(6), Term::boolean(true)),
        ];
        {
            let mut d = DiskBackend::open(dir.path()).unwrap();
            for t in &exotic {
                d.insert(t.clone()).unwrap();
            }
            d.flush().unwrap();
        }
        let d = DiskBackend::open(dir.path()).unwrap();
        for t in &exotic {
            assert!(d.contains(t), "missing after reopen: {t}");
        }
        assert_eq!(d.len(), exotic.len());
    }

    #[test]
    fn id_stability_across_clear_checkpoint_and_reopen() {
        let dir = TempDir::new("idstable");
        let term = Term::iri("http://x/stable");
        let id = {
            let mut d = DiskBackend::open(dir.path()).unwrap();
            d.insert(Triple::new(term.clone(), iri(1), iri(2))).unwrap();
            d.checkpoint().unwrap(); // this triple in the base segment …
            d.insert(tr(7, 8, 9)).unwrap(); // … and this one in the journal
            d.id_of(&term).unwrap()
        };
        // A journal written while `Storage::clear` existed may hold a
        // clear record. Replay empties the store, base and journal alike,
        // but keeps the dictionary.
        let mut wal = super::wal::Wal::open(&dir.join("wal.log"), usize::MAX, |_, _| {}).unwrap();
        wal.append(super::wal::OP_CLEAR, (0, 0, 0)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let mut d = DiskBackend::open(dir.path()).unwrap();
        assert!(d.is_empty(), "replayed clear");
        assert_eq!(d.id_of(&term), Some(id), "id survives clear");
        assert!(d.insert(tr(7, 8, 9)).unwrap(), "a cleared triple inserts anew");
        d.checkpoint().unwrap();
        assert_eq!(d.id_of(&term), Some(id), "id survives compaction");
        drop(d);
        let d = DiskBackend::open(dir.path()).unwrap();
        assert_eq!(d.id_of(&term), Some(id), "id survives reopen");
        assert_eq!(d.try_term_at(id), Some(term));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn crash_recovery_restores_exactly_the_acknowledged_writes() {
        let dir = TempDir::new("crash");
        let acked: Vec<Triple> = (0..20).map(|i| tr(i, 100, i + 1)).collect();
        let unacked: Vec<Triple> = (0..5).map(|i| tr(i + 50, 200, i)).collect();
        {
            let mut d = DiskBackend::open(dir.path()).unwrap();
            for t in &acked {
                d.insert(t.clone()).unwrap();
            }
            d.flush().unwrap(); // ← the acknowledgement barrier
            for t in &unacked {
                d.insert(t.clone()).unwrap();
            }
            d.crash(); // no graceful-shutdown flush
        }
        // Simulate the torn tail a mid-write crash leaves: half a record.
        truncate_mid_record(&dir.join("wal.log")).unwrap();
        let d = DiskBackend::open(dir.path()).unwrap();
        for t in &acked {
            assert!(d.contains(t), "acknowledged write lost: {t}");
        }
        // The torn record is gone; any unacked prefix that fully reached
        // the journal may survive. Either way the store is consistent.
        let live: Vec<Triple> = d.iter().collect();
        assert!(live.len() >= acked.len() && live.len() < acked.len() + unacked.len());
        assert_eq!(live.len(), d.len());
        for t in &live {
            assert!(d.contains(t));
        }
        // Replay-then-compact leaves a clean journal behind.
        assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
    }

    #[test]
    fn locked_directory_fails_fast_and_stale_locks_are_stolen() {
        let dir = TempDir::new("lock");
        let d = DiskBackend::open(dir.path()).unwrap();
        match DiskBackend::open(dir.path()) {
            Err(crate::RdfError::Locked { holder, .. }) => {
                assert!(holder.contains(&std::process::id().to_string()));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(d);
        // A lock whose holder is dead is stolen silently.
        std::fs::write(dir.join("LOCK"), "4294967294").unwrap();
        let d = DiskBackend::open(dir.path()).unwrap();
        drop(d);
        assert!(!dir.join("LOCK").exists(), "lock released on drop");
    }

    #[test]
    fn corrupt_segment_fails_fast_with_a_clear_error() {
        let dir = TempDir::new("corrupt");
        {
            let mut d = DiskBackend::open(dir.path()).unwrap();
            for i in 0..50 {
                d.insert(tr(i, 1, i + 1)).unwrap();
            }
            d.checkpoint().unwrap();
        }
        // Flip a payload byte: checksum must catch it.
        let path = dir.join("base.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match DiskBackend::open(dir.path()) {
            Err(crate::RdfError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Trash the magic: still a clear error, not a panic or empty store.
        std::fs::write(&path, b"garbage-not-a-segment").unwrap();
        match DiskBackend::open(dir.path()) {
            Err(crate::RdfError::Corrupt { detail, .. }) => {
                assert!(detail.contains("magic"), "got: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bulk_loader_builds_an_equivalent_store() {
        let dir = TempDir::new("bulk");
        let mut triples = Vec::new();
        for s in 0..40u32 {
            for p in 0..5u32 {
                triples.push(tr(s, 1000 + p, (s * p) % 17));
            }
        }
        triples.push(tr(0, 1000, 0)); // duplicate: must dedup
        let stats = BulkLoader::new(dir.path())
            .run_capacity(16) // force a real multi-run merge
            .load_triples(triples.clone())
            .unwrap();
        assert_eq!(stats.triples_read, triples.len());
        assert!(stats.runs > 1, "want a multi-run merge, got {}", stats.runs);
        let mem: GraphStore = triples.iter().cloned().collect();
        assert_eq!(stats.triples_stored, mem.len());
        let mut d = DiskBackend::open(dir.path()).unwrap();
        assert_equivalent(&mem, &d);
        // The loaded store accepts further mutations.
        assert!(d.insert(tr(999, 999, 999)).unwrap());
        assert!(d.remove(&tr(0, 1000, 0)));
        d.flush().unwrap();
        // Refusing to load over an existing store is an error, not a wipe.
        drop(d);
        assert!(BulkLoader::new(dir.path()).load_triples(vec![tr(1, 2, 3)]).is_err());
    }

    #[test]
    fn bulk_loader_rejects_hostile_turtle_with_line_context() {
        let dir = TempDir::new("hostile");
        // Literal subject: rejected by the grammar with position info.
        let hostile = "<http://x/ok> <http://x/p> <http://x/o> .\n\"lit\" <http://x/p> 1 .\n";
        match BulkLoader::new(dir.path()).load_turtle(hostile) {
            Err(crate::RdfError::TurtleSyntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected TurtleSyntax at line 2, got {other:?}"),
        }
    }

    #[test]
    fn fresh_blanks_never_collide_across_reopen() {
        let dir = TempDir::new("blank");
        {
            let mut d = DiskBackend::open(dir.path()).unwrap();
            let b = d.fresh_blank();
            d.insert(Triple::new(b, iri(1), iri(2))).unwrap();
            d.flush().unwrap();
        }
        let mut d = DiskBackend::open(dir.path()).unwrap();
        let b2 = d.fresh_blank();
        assert_eq!(d.id_of(&b2), None, "fresh blank must be unused: {b2}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::test_support::TempDir;
    use super::*;
    use crate::triple::Triple;
    use proptest::prelude::*;

    fn arb_triple() -> impl Strategy<Value = Triple> {
        (0u32..10, 0u32..4, 0u32..10).prop_map(|(s, p, o)| {
            Triple::new(
                Term::iri(format!("http://t/{s}")),
                Term::iri(format!("http://t/p{p}")),
                Term::iri(format!("http://t/{o}")),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MemoryBackend ≡ DiskBackend under any interleaving of inserts
        /// and removes — including after a flush + reopen cycle.
        #[test]
        fn backends_are_observationally_equivalent(
            ops in proptest::collection::vec((any::<bool>(), arb_triple()), 0..60),
        ) {
            let dir = TempDir::new("prop");
            let mut mem = GraphStore::new();
            let mut disk = DiskBackend::open(dir.path()).unwrap();
            disk.set_auto_compact_records(25); // exercise mid-stream compaction
            for (i, (is_insert, t)) in ops.into_iter().enumerate() {
                if is_insert {
                    let a = Storage::insert(&mut mem, t.clone()).unwrap();
                    let b = disk.insert(t).unwrap();
                    prop_assert_eq!(a, b);
                } else {
                    prop_assert_eq!(Storage::remove(&mut mem, &t), disk.remove(&t));
                }
                if i % 13 == 0 {
                    disk.flush().unwrap();
                }
            }
            super::tests::assert_equivalent(&mem, &disk);
            // Recovery: reopen from disk and compare again.
            disk.flush().unwrap();
            drop(disk);
            let reopened = DiskBackend::open(dir.path()).unwrap();
            super::tests::assert_equivalent(&mem, &reopened);
        }
    }
}
