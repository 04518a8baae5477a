//! A dictionary-encoded, triple-indexed in-memory RDF store.
//!
//! The paper (§5) notes that annotation repositories are accessed "primarily
//! based on `(data, evidence type)` keys" through SPARQL, and that scalable
//! RDF storage back-ends (Sesame, 3store, Oracle) can be swapped in. This
//! store is the swap-in: terms are interned into `u32` ids and triples are
//! kept in three ordered indexes (SPO, POS, OSP) so that every single-triple
//! lookup pattern is answered by a range scan on the best index.

use crate::term::Term;
use crate::triple::{PatternTerm, Triple, TriplePattern};
use crate::{RdfError, Result};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

pub(crate) type Id = u32;
pub(crate) type Key = (Id, Id, Id);

/// Which index a pattern was routed to (exposed for the E3 index ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    Spo,
    Pos,
    Osp,
}

/// Term dictionary: bidirectional Term ↔ id mapping.
#[derive(Debug, Default, Clone)]
struct Dictionary {
    by_term: HashMap<Term, Id>,
    by_id: Vec<Term>,
}

impl Dictionary {
    fn intern(&mut self, term: &Term) -> Id {
        match self.by_term.entry(term.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = self.by_id.len() as Id;
                self.by_id.push(term.clone());
                e.insert(id);
                id
            }
        }
    }

    fn lookup(&self, term: &Term) -> Option<Id> {
        self.by_term.get(term).copied()
    }

    fn term(&self, id: Id) -> &Term {
        &self.by_id[id as usize]
    }
}

/// The in-memory triple store.
///
/// Invariant: the three indexes always contain exactly the same set of
/// triples (verified by property tests in this module).
#[derive(Debug, Default, Clone)]
pub struct GraphStore {
    dict: Dictionary,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct terms interned (for capacity diagnostics).
    pub fn term_count(&self) -> usize {
        self.dict.by_id.len()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    /// Ill-formed triples (literal subject / non-IRI predicate) are rejected
    /// with a panic, since they can only arise from programmer error.
    pub fn insert(&mut self, t: Triple) -> bool {
        assert!(t.is_well_formed(), "ill-formed triple: {t}");
        let s = self.dict.intern(&t.subject);
        let p = self.dict.intern(&t.predicate);
        let o = self.dict.intern(&t.object);
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        added
    }

    /// Fallible insert for load paths fed by external data: an ill-formed
    /// triple yields [`RdfError::IllFormed`] instead of aborting the process.
    pub fn try_insert(&mut self, t: Triple) -> Result<bool> {
        if !t.is_well_formed() {
            return Err(RdfError::IllFormed(t.to_string()));
        }
        let s = self.dict.intern(&t.subject);
        let p = self.dict.intern(&t.predicate);
        let o = self.dict.intern(&t.object);
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        Ok(added)
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&t.subject),
            self.dict.lookup(&t.predicate),
            self.dict.lookup(&t.object),
        ) else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// Removes every triple matching the pattern; returns how many were removed.
    pub fn remove_matching(&mut self, pattern: &TriplePattern) -> usize {
        let victims: Vec<Triple> = self.matching(pattern).collect();
        for v in &victims {
            self.remove(v);
        }
        victims.len()
    }

    /// Membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&t.subject),
            self.dict.lookup(&t.predicate),
            self.dict.lookup(&t.object),
        ) else {
            return false;
        };
        self.spo.contains(&(s, p, o))
    }

    /// Iterates over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&(s, p, o)| self.decode(s, p, o))
    }

    fn decode(&self, s: Id, p: Id, o: Id) -> Triple {
        Triple {
            subject: self.dict.term(s).clone(),
            predicate: self.dict.term(p).clone(),
            object: self.dict.term(o).clone(),
        }
    }

    /// Chooses the index that turns the largest bound prefix of the pattern
    /// into a range scan.
    pub fn index_for(pattern: &TriplePattern) -> IndexChoice {
        let s = pattern.subject.as_term().is_some();
        let p = pattern.predicate.as_term().is_some();
        let o = pattern.object.as_term().is_some();
        match (s, p, o) {
            // subject bound: SPO handles (s,*,*), (s,p,*), (s,p,o)
            (true, _, false) => IndexChoice::Spo,
            (true, true, true) => IndexChoice::Spo,
            // (s,*,o) -> OSP gives o,s prefix
            (true, false, true) => IndexChoice::Osp,
            // predicate bound without subject
            (false, true, _) => IndexChoice::Pos,
            // object bound only
            (false, false, true) => IndexChoice::Osp,
            // nothing bound
            (false, false, false) => IndexChoice::Spo,
        }
    }

    /// Streams all triples matching the pattern, using the best index.
    pub fn matching<'a>(
        &'a self,
        pattern: &TriplePattern,
    ) -> Box<dyn Iterator<Item = Triple> + 'a> {
        // Resolve bound pattern positions to ids; an unknown term can match
        // nothing.
        let resolve = |pt: &PatternTerm| -> std::result::Result<Option<Id>, ()> {
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

        match Self::index_for(pattern) {
            IndexChoice::Spo => {
                let it = Self::scan(&self.spo, s, p, o);
                Box::new(it.map(move |(a, b, c)| self.decode(a, b, c)))
            }
            IndexChoice::Pos => {
                let it = Self::scan(&self.pos, p, o, s);
                Box::new(it.map(move |(a, b, c)| self.decode(c, a, b)))
            }
            IndexChoice::Osp => {
                let it = Self::scan(&self.osp, o, s, p);
                Box::new(it.map(move |(a, b, c)| self.decode(b, c, a)))
            }
        }
    }

    /// Range-scans an index whose key order is `(k0, k1, k2)`, where a bound
    /// prefix narrows the range and any remaining bound positions are
    /// filtered. Shared with the disk backend's delta overlays.
    pub(crate) fn scan<'a>(
        index: &'a BTreeSet<Key>,
        k0: Option<Id>,
        k1: Option<Id>,
        k2: Option<Id>,
    ) -> impl Iterator<Item = Key> + 'a {
        let (lo, hi): (Bound<Key>, Bound<Key>) = match (k0, k1, k2) {
            (Some(a), Some(b), Some(c)) => (Bound::Included((a, b, c)), Bound::Included((a, b, c))),
            (Some(a), Some(b), None) => {
                (Bound::Included((a, b, Id::MIN)), Bound::Included((a, b, Id::MAX)))
            }
            (Some(a), None, _) => {
                (Bound::Included((a, Id::MIN, Id::MIN)), Bound::Included((a, Id::MAX, Id::MAX)))
            }
            (None, ..) => (Bound::Unbounded, Bound::Unbounded),
        };
        // Positions after an unbound one cannot narrow the range; filter.
        index.range((lo, hi)).copied().filter(move |&(a, b, c)| {
            k0.is_none_or(|k| k == a) && k1.is_none_or(|k| k == b) && k2.is_none_or(|k| k == c)
        })
    }

    /// The interned id of a term, or `None` if the store has never seen it.
    /// Ids are stable for the lifetime of the store and are the currency of
    /// the bulk-join accessors below.
    pub fn id_of(&self, term: &Term) -> Option<u32> {
        self.dict.lookup(term)
    }

    /// The term behind an id obtained from [`Self::id_of`] or an id-space
    /// scan. Panics on ids the store never issued.
    pub fn term_at(&self, id: u32) -> &Term {
        self.dict.term(id)
    }

    /// Fallible [`Self::term_at`] for trust boundaries: ids read back from
    /// disk segments (or any other external source) resolve to `None` rather
    /// than an out-of-bounds panic when the store never issued them.
    pub fn try_term_at(&self, id: u32) -> Option<&Term> {
        self.dict.by_id.get(id as usize)
    }

    /// All `(subject, object)` id pairs under a bound predicate, in
    /// ascending `(object, subject)` order — a POS range scan with no term
    /// decoding. This is the workhorse of bulk enrichment: joins against an
    /// item set happen on `u32`s, and only the winning terms are decoded.
    pub fn edge_ids(&self, predicate: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        Self::scan(&self.pos, Some(predicate), None, None).map(|(_, o, s)| (s, o))
    }

    /// Object ids of `(subject, predicate, ?)` in ascending id order — an
    /// SPO range scan with no term decoding.
    pub fn object_ids(&self, subject: u32, predicate: u32) -> impl Iterator<Item = u32> + '_ {
        Self::scan(&self.spo, Some(subject), Some(predicate), None).map(|(_, _, o)| o)
    }

    /// Convenience: all objects of `(subject, predicate, ?)`.
    pub fn objects(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        self.matching(&TriplePattern::new(subject.clone(), predicate.clone(), None))
            .map(|t| t.object)
            .collect()
    }

    /// Convenience: all subjects of `(?, predicate, object)`.
    pub fn subjects(&self, predicate: &Term, object: &Term) -> Vec<Term> {
        self.matching(&TriplePattern::new(None, predicate.clone(), object.clone()))
            .map(|t| t.subject)
            .collect()
    }

    /// The first object of `(subject, predicate, ?)` if any.
    pub fn object(&self, subject: &Term, predicate: &Term) -> Option<Term> {
        self.matching(&TriplePattern::new(subject.clone(), predicate.clone(), None))
            .next()
            .map(|t| t.object)
    }

    /// Inserts every triple from an iterator; returns how many were new.
    pub fn extend(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        triples.into_iter().filter(|t| self.insert(t.clone())).count()
    }
}

impl FromIterator<Triple> for GraphStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = GraphStore::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::rdf;

    fn iri(n: u32) -> Term {
        Term::iri(format!("http://x/{n}"))
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    #[test]
    fn insert_contains_remove() {
        let mut g = GraphStore::new();
        assert!(g.insert(tr(1, 2, 3)));
        assert!(!g.insert(tr(1, 2, 3)), "duplicate insert is a no-op");
        assert!(g.contains(&tr(1, 2, 3)));
        assert_eq!(g.len(), 1);
        assert!(g.remove(&tr(1, 2, 3)));
        assert!(!g.remove(&tr(1, 2, 3)));
        assert!(g.is_empty());
    }

    #[test]
    fn all_eight_patterns_agree_with_naive_filter() {
        let mut g = GraphStore::new();
        for s in 0..4 {
            for p in 4..7 {
                for o in 7..10 {
                    if (s + p + o) % 2 == 0 {
                        g.insert(tr(s, p, o));
                    }
                }
            }
        }
        let all: Vec<Triple> = g.iter().collect();
        let candidates = [None, Some(2u32)];
        for s in candidates {
            for p in [None, Some(5u32)] {
                for o in [None, Some(8u32)] {
                    let pat = TriplePattern::new(s.map(iri), p.map(iri), o.map(iri));
                    let mut via_index: Vec<Triple> = g.matching(&pat).collect();
                    let mut naive: Vec<Triple> =
                        all.iter().filter(|t| pat.matches(t)).cloned().collect();
                    via_index.sort();
                    naive.sort();
                    assert_eq!(via_index, naive, "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let mut g = GraphStore::new();
        g.insert(tr(1, 2, 3));
        let pat = TriplePattern::new(iri(99), None, None);
        assert_eq!(g.matching(&pat).count(), 0);
    }

    #[test]
    fn index_routing() {
        use IndexChoice::*;
        let some = |n: u32| PatternTerm::Is(iri(n));
        let pat = |s: Option<u32>, p: Option<u32>, o: Option<u32>| TriplePattern {
            subject: s.map_or(PatternTerm::Any, &some),
            predicate: p.map_or(PatternTerm::Any, &some),
            object: o.map_or(PatternTerm::Any, &some),
        };
        assert_eq!(GraphStore::index_for(&pat(Some(1), None, None)), Spo);
        assert_eq!(GraphStore::index_for(&pat(Some(1), Some(2), None)), Spo);
        assert_eq!(GraphStore::index_for(&pat(Some(1), Some(2), Some(3))), Spo);
        assert_eq!(GraphStore::index_for(&pat(None, Some(2), None)), Pos);
        assert_eq!(GraphStore::index_for(&pat(None, Some(2), Some(3))), Pos);
        assert_eq!(GraphStore::index_for(&pat(None, None, Some(3))), Osp);
        assert_eq!(GraphStore::index_for(&pat(Some(1), None, Some(3))), Osp);
        assert_eq!(GraphStore::index_for(&pat(None, None, None)), Spo);
    }

    #[test]
    fn convenience_accessors() {
        let mut g = GraphStore::new();
        let s = Term::iri("http://x/s");
        let p = Term::iri(rdf::TYPE);
        g.insert(Triple::new(s.clone(), p.clone(), iri(1)));
        g.insert(Triple::new(s.clone(), p.clone(), iri(2)));
        let mut os = g.objects(&s, &p);
        os.sort();
        assert_eq!(os, vec![iri(1), iri(2)]);
        assert_eq!(g.subjects(&p, &iri(1)), vec![s.clone()]);
        assert!(g.object(&s, &p).is_some());
    }

    #[test]
    fn id_space_scans_agree_with_term_space() {
        let mut g = GraphStore::new();
        let p = Term::iri("http://x/p");
        for s in 1..=3u32 {
            for o in 4..=5u32 {
                g.insert(tr(s, 100, o + s));
                g.insert(Triple::new(iri(s), p.clone(), iri(o)));
            }
        }
        assert_eq!(g.id_of(&Term::iri("http://x/nope")), None);
        let pid = g.id_of(&p).unwrap();

        // edge_ids decodes back to exactly the POS-ordered matching() result.
        let via_ids: Vec<(Term, Term)> =
            g.edge_ids(pid).map(|(s, o)| (g.term_at(s).clone(), g.term_at(o).clone())).collect();
        let via_terms: Vec<(Term, Term)> = g
            .matching(&TriplePattern::new(None, p.clone(), None))
            .map(|t| (t.subject, t.object))
            .collect();
        assert_eq!(via_ids, via_terms);

        // object_ids reproduces objects() content and ascending-id order.
        let sid = g.id_of(&iri(2)).unwrap();
        let objs: Vec<Term> = g.object_ids(sid, pid).map(|o| g.term_at(o).clone()).collect();
        assert_eq!(objs.len(), 2);
        let mut expected = g.objects(&iri(2), &p);
        expected.sort_by_key(|t| g.id_of(t).unwrap());
        assert_eq!(objs, expected);
    }

    #[test]
    fn remove_matching_and_clear() {
        let mut g = GraphStore::new();
        g.insert(tr(1, 2, 3));
        g.insert(tr(1, 2, 4));
        g.insert(tr(5, 2, 3));
        let removed = g.remove_matching(&TriplePattern::new(iri(1), None, None));
        assert_eq!(removed, 2);
        assert_eq!(g.len(), 1);
        // the all-wildcard pattern clears the store; ids stay interned
        assert_eq!(g.remove_matching(&TriplePattern::new(None, None, None)), 1);
        assert!(g.is_empty());
        assert!(g.term_count() > 0, "dictionary survives clear");
    }

    #[test]
    #[should_panic(expected = "ill-formed")]
    fn ill_formed_insert_panics() {
        let mut g = GraphStore::new();
        let bad = Triple {
            subject: Term::string("lit"),
            predicate: Term::iri("http://x/p"),
            object: Term::string("o"),
        };
        g.insert(bad);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_term_id() -> impl Strategy<Value = u32> {
        0u32..12
    }

    fn arb_triple() -> impl Strategy<Value = Triple> {
        (arb_term_id(), arb_term_id(), arb_term_id()).prop_map(|(s, p, o)| {
            Triple::new(
                Term::iri(format!("http://t/{s}")),
                Term::iri(format!("http://t/p{p}")),
                Term::iri(format!("http://t/{o}")),
            )
        })
    }

    proptest! {
        /// After any interleaving of inserts and removes, the three indexes
        /// agree: every pattern query equals the naive filter over iter().
        #[test]
        fn indexes_stay_coherent(ops in proptest::collection::vec((any::<bool>(), arb_triple()), 0..80)) {
            let mut g = GraphStore::new();
            let mut model: std::collections::BTreeSet<Triple> = Default::default();
            for (is_insert, t) in ops {
                if is_insert {
                    prop_assert_eq!(g.insert(t.clone()), model.insert(t));
                } else {
                    prop_assert_eq!(g.remove(&t), model.remove(&t));
                }
            }
            prop_assert_eq!(g.len(), model.len());
            let got: std::collections::BTreeSet<Triple> = g.iter().collect();
            prop_assert_eq!(&got, &model);
            // spot-check a bound pattern on each position
            for t in model.iter().take(3) {
                let by_s: Vec<_> = g.matching(&TriplePattern::new(t.subject.clone(), None, None)).collect();
                prop_assert!(by_s.iter().all(|x| x.subject == t.subject));
                let expect = model.iter().filter(|x| x.subject == t.subject).count();
                prop_assert_eq!(by_s.len(), expect);
            }
        }
    }
}
