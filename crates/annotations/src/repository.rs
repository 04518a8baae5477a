//! Annotation repositories: RDF-graph stores of quality annotations with
//! ontology-validated writes and SPARQL-based retrieval.
//!
//! The encoding follows the paper's Figure 2 exactly: a data item (an
//! LSID-wrapped IRI) carries `q:contains-evidence` links to evidence nodes;
//! each evidence node is typed with its `q:QualityEvidence` subclass and
//! carries a `q:value` literal.
//!
//! ```text
//! <urn:lsid:uniprot.org:uniprot:P30089>
//!     a q:ImprintHitEntry ;
//!     q:contains-evidence _:e1 .
//! _:e1 a q:HitRatio ; q:value 0.82 .
//! ```

use crate::map::AnnotationMap;
use crate::value::EvidenceValue;
use crate::{AnnotationError, Result};
use parking_lot::RwLock;
use qurator_ontology::iq::{vocab, IqModel};
use qurator_rdf::namespace::{rdf, PrefixMap};
use qurator_rdf::sparql::{self, PreparedQuery};
use qurator_rdf::storage::{DiskBackend, MemoryBackend, Storage};
use qurator_rdf::term::{Iri, Term};
use qurator_rdf::triple::{Triple, TriplePattern};
use qurator_telemetry::Counter;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Maps storage-layer failures into the annotation error space.
fn rdf_err(e: qurator_rdf::RdfError) -> AnnotationError {
    AnnotationError::Rdf(e.to_string())
}

fn bulk_sparse() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qurator_telemetry::metrics().counter("enrich.bulk.sparse"))
}

fn bulk_dense() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qurator_telemetry::metrics().counter("enrich.bulk.dense"))
}

/// How a repository answers `(data item, evidence type)` lookups — §5 uses
/// SPARQL; the other modes are the E3 ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupMode {
    /// Generate, parse and evaluate a SPARQL SELECT per lookup
    /// (paper-faithful baseline; pays a parse per `(item, type)` pair).
    #[default]
    Sparql,
    /// Evaluate a shared pre-parsed SELECT with `(item, type)` bound as
    /// parameters — same query shape as [`LookupMode::Sparql`], no parsing,
    /// immune to IRI injection by construction.
    Prepared,
    /// Walk the triple indexes directly.
    Direct,
}

/// The canonical §5 lookup, parsed once per process: bind `?item` and
/// `?etype` to get the evidence values of one `(data item, evidence type)`
/// pair.
fn lookup_query() -> &'static PreparedQuery {
    static QUERY: OnceLock<PreparedQuery> = OnceLock::new();
    QUERY.get_or_init(|| {
        PreparedQuery::new(
            "PREFIX q: <http://qurator.org/iq#>\n\
             SELECT ?v WHERE {\n\
               ?item q:contains-evidence ?e .\n\
               ?e a ?etype ; q:value ?v .\n\
             }",
        )
        .expect("canonical lookup query parses")
    })
}

/// A quality-annotation repository.
///
/// Thread-safe: processors executing in parallel waves may annotate and
/// enrich concurrently. Writes validate the evidence class against the IQ
/// model ("guarantees that the metadata complies with the ontology model",
/// §5).
pub struct AnnotationRepository {
    name: String,
    persistent: bool,
    iq: Arc<IqModel>,
    store: RwLock<Box<dyn Storage>>,
    lookup_mode: LookupMode,
    blank_counter: AtomicU64,
}

impl AnnotationRepository {
    /// Creates an in-memory repository. `persistent = false` marks a cache
    /// (§4): one that `exec::bind` creates belongs to that run and is
    /// dropped with it; one a caller creates stays the caller's.
    pub fn new(name: impl Into<String>, persistent: bool, iq: Arc<IqModel>) -> Self {
        AnnotationRepository {
            name: name.into(),
            persistent,
            iq,
            store: RwLock::new(Box::new(MemoryBackend::new())),
            lookup_mode: LookupMode::default(),
            blank_counter: AtomicU64::new(0),
        }
    }

    /// Opens (creating if absent) a disk-backed repository rooted at `dir`.
    ///
    /// Because storage ids are stable across reopen, evidence-node blank
    /// labels minted by earlier process lifetimes are still present; the
    /// blank counter restarts past the highest `{name}-e<n>` label found so
    /// a restarted `qv serve` never reuses an evidence node.
    pub fn open_disk(
        name: impl Into<String>,
        persistent: bool,
        iq: Arc<IqModel>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        let name = name.into();
        let store = DiskBackend::open(dir).map_err(rdf_err)?;
        let prefix = format!("{name}-e");
        let mut next = 0u64;
        for id in 0..store.term_count() as u32 {
            if let Some(Term::Blank(node)) = store.try_term_at(id) {
                if let Some(n) =
                    node.label().strip_prefix(&prefix).and_then(|rest| rest.parse::<u64>().ok())
                {
                    next = next.max(n + 1);
                }
            }
        }
        Ok(AnnotationRepository {
            name,
            persistent,
            iq,
            store: RwLock::new(Box::new(store)),
            lookup_mode: LookupMode::default(),
            blank_counter: AtomicU64::new(next),
        })
    }

    /// Durability barrier: group-commits everything written so far. A no-op
    /// for in-memory repositories.
    pub fn flush(&self) -> Result<()> {
        self.store.write().flush().map_err(rdf_err)
    }

    /// Folds the journal into the base segment (disk backends); a no-op in
    /// memory.
    pub fn checkpoint(&self) -> Result<()> {
        self.store.write().checkpoint().map_err(rdf_err)
    }

    /// Which storage backend answers this repository's lookups.
    pub fn backend_name(&self) -> &'static str {
        self.store.read().backend_name()
    }

    /// The on-disk store directory, if this repository is disk-backed.
    pub fn store_path(&self) -> Option<PathBuf> {
        self.store.read().path().map(Path::to_path_buf)
    }

    /// Number of interned terms (diagnostics).
    pub fn term_count(&self) -> usize {
        self.store.read().term_count()
    }

    /// Storage-layer snapshot of the backing store (journal depth, base
    /// segment size, dictionary size, compaction facts) — the expanded
    /// `GET /store` surface.
    pub fn storage_status(&self) -> qurator_rdf::storage::StorageStatus {
        self.store.read().status()
    }

    /// Switches the lookup implementation (E3 ablation).
    pub fn with_lookup_mode(mut self, mode: LookupMode) -> Self {
        self.lookup_mode = mode;
        self
    }

    /// The repository name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether annotations here outlive a single process execution.
    pub fn is_persistent(&self) -> bool {
        self.persistent
    }

    /// Number of stored triples (diagnostics).
    pub fn triple_count(&self) -> usize {
        self.store.read().len()
    }

    /// The distinct evidence types this repository currently holds
    /// annotations for — the inventory the static analyzer checks
    /// enrichment fetches against (QV024). Reads the `rdf:type` facts
    /// [`annotate`](Self::annotate) writes on evidence nodes, filtered
    /// to registered evidence classes (item-type records don't count).
    pub fn annotated_evidence_types(&self) -> Vec<Iri> {
        let store = self.store.read();
        let mut out: Vec<Iri> = Vec::new();
        for triple in store.matching(&TriplePattern::new(None, Term::iri(rdf::TYPE), None)) {
            if let Term::Iri(class) = triple.object {
                if self.iq.is_evidence_type(&class) && !out.contains(&class) {
                    out.push(class);
                }
            }
        }
        out.sort();
        out
    }

    /// Writes one annotation: `item --evidence_type--> value`.
    ///
    /// Returns an error when `evidence_type` is not a registered subclass of
    /// `q:QualityEvidence`. A repeated write for the same `(item, type)`
    /// replaces the previous value (latest annotation wins).
    pub fn annotate(&self, item: &Term, evidence_type: &Iri, value: EvidenceValue) -> Result<()> {
        if !self.iq.is_evidence_type(evidence_type) {
            return Err(AnnotationError::NotEvidence(format!(
                "<{evidence_type}> (annotating {item})"
            )));
        }
        let Some(value_term) = value.to_term() else {
            // Null: record nothing; absence is the null.
            return Ok(());
        };
        let a = Term::iri(rdf::TYPE);
        let contains = Term::Iri(vocab::contains_evidence());
        let value_prop = Term::Iri(vocab::value());

        let mut store = self.store.write();
        // Replace any previous evidence node of this type for this item.
        let old_nodes: Vec<Term> = store
            .matching(&TriplePattern::new(item.clone(), contains.clone(), None))
            .map(|t| t.object)
            .filter(|node| {
                store.contains(&Triple::new(
                    node.clone(),
                    a.clone(),
                    Term::Iri(evidence_type.clone()),
                ))
            })
            .collect();
        for node in old_nodes {
            store.remove_matching(&TriplePattern::new(node.clone(), None, None));
            store.remove(&Triple::new(item.clone(), contains.clone(), node));
        }
        let node = Term::blank(format!(
            "{}-e{}",
            self.name,
            self.blank_counter.fetch_add(1, Ordering::Relaxed)
        ));
        store.insert(Triple::new(item.clone(), contains.clone(), node.clone())).map_err(rdf_err)?;
        store
            .insert(Triple::new(node.clone(), a, Term::Iri(evidence_type.clone())))
            .map_err(rdf_err)?;
        store.insert(Triple::new(node, value_prop, value_term)).map_err(rdf_err)?;
        Ok(())
    }

    /// Records the data-entity type of an item (`rdf:type` triple).
    pub fn record_item_type(&self, item: &Term, entity_type: &Iri) -> Result<()> {
        if !self.iq.is_data_entity_type(entity_type) {
            return Err(AnnotationError::NotEvidence(format!(
                "<{entity_type}> is not a DataEntity class"
            )));
        }
        self.store
            .write()
            .insert(Triple::new(item.clone(), Term::iri(rdf::TYPE), Term::Iri(entity_type.clone())))
            .map_err(rdf_err)?;
        Ok(())
    }

    /// The `(item, evidence type)` lookup of §5.
    pub fn lookup(&self, item: &Term, evidence_type: &Iri) -> Result<EvidenceValue> {
        match self.lookup_mode {
            LookupMode::Sparql => self.lookup_sparql(item, evidence_type),
            LookupMode::Prepared => self.lookup_prepared(item, evidence_type),
            LookupMode::Direct => Ok(self.lookup_direct(item, evidence_type)),
        }
    }

    /// SPARQL-based lookup — renders and parses the query text of §5 per
    /// call (the paper-faithful baseline).
    ///
    /// An [`Iri`] can never contain `>`, `"` or whitespace, so an
    /// interpolated IRI cannot escape its `<…>` brackets. But IRIs whose
    /// first character makes `<` lex as a comparison operator (digits, `-`,
    /// `?`, `=`) would silently corrupt the rendered query; those are
    /// refused with an explicit error. [`LookupMode::Prepared`] handles
    /// every valid IRI because it never renders IRIs into query text.
    pub fn lookup_sparql(&self, item: &Term, evidence_type: &Iri) -> Result<EvidenceValue> {
        let Term::Iri(item_iri) = item else {
            return Ok(EvidenceValue::Null);
        };
        for iri in [item_iri, evidence_type] {
            if matches!(
                iri.as_str().as_bytes().first(),
                Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'?' | b'=')
            ) {
                return Err(AnnotationError::Rdf(format!(
                    "refusing to interpolate <{iri}> into SPARQL text: it would \
                     mis-lex as an operator; use LookupMode::Prepared"
                )));
            }
        }
        let query = format!(
            "PREFIX q: <http://qurator.org/iq#>\n\
             SELECT ?v WHERE {{\n\
               <{item_iri}> q:contains-evidence ?e .\n\
               ?e a <{evidence_type}> ; q:value ?v .\n\
             }}"
        );
        let store = self.store.read();
        let rows =
            sparql::select(&**store, &query).map_err(|e| AnnotationError::Rdf(e.to_string()))?;
        Ok(rows
            .first()
            .and_then(|r| r.get("v"))
            .map(EvidenceValue::from_term)
            .unwrap_or(EvidenceValue::Null))
    }

    /// Prepared-query lookup: same query shape as [`Self::lookup_sparql`],
    /// parsed once per process, with `(item, type)` bound at evaluation
    /// time. Non-IRI items read as null, mirroring the SPARQL path.
    pub fn lookup_prepared(&self, item: &Term, evidence_type: &Iri) -> Result<EvidenceValue> {
        if !matches!(item, Term::Iri(_)) {
            return Ok(EvidenceValue::Null);
        }
        let store = self.store.read();
        let rows = lookup_query()
            .select(
                &**store,
                &[("item", item.clone()), ("etype", Term::Iri(evidence_type.clone()))],
            )
            .map_err(|e| AnnotationError::Rdf(e.to_string()))?;
        Ok(rows
            .first()
            .and_then(|r| r.get("v"))
            .map(EvidenceValue::from_term)
            .unwrap_or(EvidenceValue::Null))
    }

    /// Index-walking lookup (E3 ablation baseline).
    pub fn lookup_direct(&self, item: &Term, evidence_type: &Iri) -> EvidenceValue {
        let store = self.store.read();
        let contains = Term::Iri(vocab::contains_evidence());
        let a = Term::iri(rdf::TYPE);
        let value_prop = Term::Iri(vocab::value());
        for node in store
            .matching(&TriplePattern::new(item.clone(), contains.clone(), None))
            .map(|t| t.object)
        {
            if store.contains(&Triple::new(
                node.clone(),
                a.clone(),
                Term::Iri(evidence_type.clone()),
            )) {
                if let Some(v) = store.object(&node, &value_prop) {
                    return EvidenceValue::from_term(&v);
                }
            }
        }
        EvidenceValue::Null
    }

    /// The Data-Enrichment primitive: fetches the given evidence types for
    /// every item, producing an annotation map (nulls where absent).
    ///
    /// Issues one [`Self::lookup`] per `(item, type)` pair in the current
    /// [`LookupMode`] — the E3 ablation baseline. Production callers should
    /// prefer [`Self::enrich_bulk`], which answers the whole batch from a
    /// single index scan.
    pub fn enrich(&self, items: &[Term], evidence_types: &[Iri]) -> Result<AnnotationMap> {
        let mut map = AnnotationMap::for_items(items.iter().cloned());
        for item in items {
            for evidence_type in evidence_types {
                let value = self.lookup(item, evidence_type)?;
                if !value.is_null() {
                    map.set_evidence(item, evidence_type.clone(), value);
                }
            }
        }
        Ok(map)
    }

    /// Batched Data Enrichment: one read lock, one range scan over the
    /// `q:contains-evidence` edges, hash-joined against the requested item
    /// and evidence-type sets.
    ///
    /// Returns exactly the map [`Self::enrich`] would: per `(item, type)`
    /// the deciding evidence node is the first (in index order) that has the
    /// type and a `q:value` — the same node every per-pair mode finds —
    /// and null values are left unrecorded. (Non-IRI items are resolved
    /// like [`LookupMode::Direct`]; the SPARQL modes read them as null.)
    pub fn enrich_bulk(&self, items: &[Term], evidence_types: &[Iri]) -> Result<AnnotationMap> {
        let mut map = AnnotationMap::for_items(items.iter().cloned());
        if items.is_empty() || evidence_types.is_empty() {
            return Ok(map);
        }

        let store = self.store.read();
        // The whole join runs on interned u32 ids; a term the dictionary has
        // never seen (item, type, or even the vocabulary itself in an empty
        // repository) can contribute no evidence.
        let (Some(contains), Some(a), Some(value_prop)) = (
            store.id_of(&Term::Iri(vocab::contains_evidence())),
            store.id_of(&Term::iri(rdf::TYPE)),
            store.id_of(&Term::Iri(vocab::value())),
        ) else {
            return Ok(map);
        };
        let item_ids: Vec<Option<u32>> = items.iter().map(|i| store.id_of(i)).collect();
        let type_ids: Vec<Option<u32>> =
            evidence_types.iter().map(|t| store.id_of(&Term::Iri(t.clone()))).collect();
        let item_set: HashSet<u32> = item_ids.iter().flatten().copied().collect();
        let wanted: HashSet<u32> = type_ids.iter().flatten().copied().collect();

        // Whichever access path feeds it, evidence nodes arrive per item in
        // ascending id order — the same order the per-pair scans use — so
        // first-wins picks the identical node.
        let mut decided: HashMap<(u32, u32), u32> =
            HashMap::with_capacity(item_set.len() * wanted.len());
        // Adaptive access path. The Figure-2 encoding spends ~3 triples per
        // evidence node, so `len() / 3` estimates the contains-evidence edge
        // count. A sparse request (a few items against a large store)
        // walks only its items' SPO ranges; a request covering most of the
        // store is answered by three linear POS scans (edges, values, types)
        // joined on ids, with no per-node range seeks. Per `(item, type)`
        // both paths elect the same node — the lowest-id evidence node that
        // carries the type and a value — so the choice is invisible in the
        // result.
        if item_set.len() * 8 <= store.len() / 3 {
            bulk_sparse().inc();
            let mut consider = |item: u32, node: u32| {
                let Some(value_term) = store.object_ids(node, value_prop).next() else {
                    // Typed but valueless nodes never decide a pair.
                    return;
                };
                for etype in store.object_ids(node, a) {
                    if wanted.contains(&etype) {
                        decided.entry((item, etype)).or_insert(value_term);
                    }
                }
            };
            for &item in &item_set {
                for node in store.object_ids(item, contains) {
                    consider(item, node);
                }
            }
        } else {
            bulk_dense().inc();
            // Requested contains-evidence edges as (node, item), already in
            // ascending (node, item) order courtesy of the POS index.
            let edges: Vec<(u32, u32)> = store
                .edge_ids(contains)
                .filter(|(item, _)| item_set.contains(item))
                .map(|(item, node)| (node, item))
                .collect();
            // First q:value per node. The scan ascends by (value, node) id,
            // so a node's first sighting carries its lowest value id — the
            // value `object_ids(node, value).next()` would return.
            let mut node_value: HashMap<u32, u32> = HashMap::with_capacity(edges.len());
            for (node, value) in store.edge_ids(value_prop) {
                node_value.entry(node).or_insert(value);
            }
            // Typed edges ascend by (etype, node): per wanted type, nodes
            // arrive in ascending order, so first-wins elects the same node
            // as the per-pair scans.
            for (node, etype) in store.edge_ids(a) {
                if !wanted.contains(&etype) {
                    continue;
                }
                let Some(&value) = node_value.get(&node) else {
                    continue;
                };
                let start = edges.partition_point(|&(n, _)| n < node);
                for &(n, item) in &edges[start..] {
                    if n != node {
                        break;
                    }
                    decided.entry((item, etype)).or_insert(value);
                }
            }
        }

        // Emit in (item, type) request order so the result is structurally
        // identical to the per-pair path's map; only winning terms decode,
        // and each item's row is located once, not once per pair.
        for (item, item_id) in items.iter().zip(&item_ids) {
            let Some(item_id) = item_id else { continue };
            let row = map.row_mut(item).expect("seeded by for_items");
            for (evidence_type, type_id) in evidence_types.iter().zip(&type_ids) {
                let Some(type_id) = type_id else { continue };
                if let Some(&value_id) = decided.get(&(*item_id, *type_id)) {
                    // Trust boundary: on a disk backend `value_id` came off a
                    // segment file, so decode fallibly instead of panicking.
                    let value_term = store.try_term_at(value_id).ok_or_else(|| {
                        AnnotationError::Rdf(format!(
                            "corrupt store: evidence value id {value_id} has no term"
                        ))
                    })?;
                    let value = EvidenceValue::from_term(&value_term);
                    if !value.is_null() {
                        row.insert_evidence(evidence_type.clone(), value);
                    }
                }
            }
        }
        Ok(map)
    }

    /// Bulk-writes every evidence entry of an annotation map.
    pub fn store_map(&self, map: &AnnotationMap) -> Result<usize> {
        let mut written = 0;
        for item in map.items() {
            let row = map.item(item).expect("listed");
            for (evidence_type, value) in row.evidence_entries() {
                self.annotate(item, evidence_type, value.clone())?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Serializes the annotation graph as Turtle (persistence format).
    pub fn export_turtle(&self) -> String {
        let store = self.store.read();
        qurator_rdf::turtle::serialize(&**store, &PrefixMap::with_defaults())
    }

    /// Loads annotations from Turtle produced by [`Self::export_turtle`]
    /// (contents are added to whatever is already stored).
    pub fn import_turtle(&self, text: &str) -> Result<usize> {
        let (triples, _) =
            qurator_rdf::turtle::parse(text).map_err(|e| AnnotationError::Rdf(e.to_string()))?;
        let mut store = self.store.write();
        store.insert_all(&mut triples.into_iter()).map_err(rdf_err)
    }

    /// Runs an arbitrary SPARQL SELECT against the annotation graph.
    pub fn query(&self, query: &str) -> Result<Vec<sparql::Row>> {
        let store = self.store.read();
        sparql::select(&**store, query).map_err(|e| AnnotationError::Rdf(e.to_string()))
    }
}

impl std::fmt::Debug for AnnotationRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnnotationRepository")
            .field("name", &self.name)
            .field("persistent", &self.persistent)
            .field("backend", &self.backend_name())
            .field("triples", &self.triple_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;

    fn repo() -> AnnotationRepository {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        AnnotationRepository::new("cache", false, iq)
    }

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
    }

    #[test]
    fn annotate_and_lookup_both_modes() {
        let r = repo();
        r.annotate(&item(30089), &q::iri("HitRatio"), 0.82.into()).unwrap();
        r.annotate(&item(30089), &q::iri("MassCoverage"), 31.into()).unwrap();
        assert_eq!(
            r.lookup_sparql(&item(30089), &q::iri("HitRatio")).unwrap(),
            EvidenceValue::Number(0.82)
        );
        assert_eq!(r.lookup_direct(&item(30089), &q::iri("HitRatio")), EvidenceValue::Number(0.82));
        assert_eq!(
            r.lookup(&item(30089), &q::iri("MassCoverage")).unwrap(),
            EvidenceValue::Number(31.0)
        );
        assert_eq!(r.lookup(&item(30089), &q::iri("PeptidesCount")).unwrap(), EvidenceValue::Null);
        assert_eq!(r.lookup(&item(99999), &q::iri("HitRatio")).unwrap(), EvidenceValue::Null);
    }

    #[test]
    fn rewrite_replaces_value() {
        let r = repo();
        r.annotate(&item(1), &q::iri("HitRatio"), 0.1.into()).unwrap();
        r.annotate(&item(1), &q::iri("HitRatio"), 0.9.into()).unwrap();
        assert_eq!(r.lookup(&item(1), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.9));
        // exactly one evidence node of that type remains
        assert_eq!(r.triple_count(), 3);
    }

    #[test]
    fn ontology_validation_rejects_non_evidence() {
        let r = repo();
        let err = r.annotate(&item(1), &q::iri("UniversalPIScore2"), 1.0.into()).unwrap_err();
        assert!(matches!(err, AnnotationError::NotEvidence(_)));
        let err = r.annotate(&item(1), &Iri::new("http://random/thing"), 1.0.into()).unwrap_err();
        assert!(matches!(err, AnnotationError::NotEvidence(_)));
    }

    #[test]
    fn null_values_are_not_stored() {
        let r = repo();
        r.annotate(&item(1), &q::iri("HitRatio"), EvidenceValue::Null).unwrap();
        assert_eq!(r.triple_count(), 0);
    }

    #[test]
    fn annotated_evidence_types_inventories_the_store() {
        let r = repo();
        assert!(r.annotated_evidence_types().is_empty());
        r.annotate(&item(1), &q::iri("HitRatio"), 0.5.into()).unwrap();
        r.annotate(&item(2), &q::iri("HitRatio"), 0.7.into()).unwrap();
        r.annotate(&item(1), &q::iri("MassCoverage"), 31.into()).unwrap();
        // duplicates collapse; order is the sorted-IRI order QV024 keys on
        assert_eq!(r.annotated_evidence_types(), vec![q::iri("HitRatio"), q::iri("MassCoverage")]);
    }

    #[test]
    fn enrich_builds_annotation_map() {
        let r = repo();
        for i in 1..=3 {
            r.annotate(&item(i), &q::iri("HitRatio"), (0.1 * i as f64).into()).unwrap();
        }
        r.annotate(&item(2), &q::iri("MassCoverage"), 25.into()).unwrap();
        let items: Vec<Term> = (1..=3).map(item).collect();
        let map = r.enrich(&items, &[q::iri("HitRatio"), q::iri("MassCoverage")]).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(
            map.item(&item(2)).unwrap().evidence(&q::iri("MassCoverage")),
            EvidenceValue::Number(25.0)
        );
        assert_eq!(
            map.item(&item(1)).unwrap().evidence(&q::iri("MassCoverage")),
            EvidenceValue::Null
        );
    }

    #[test]
    fn store_map_roundtrip() {
        let r = repo();
        let mut map = AnnotationMap::new();
        map.set_evidence(&item(1), q::iri("HitRatio"), 0.7.into());
        map.set_evidence(&item(1), q::iri("Coverage"), 12.into());
        let written = r.store_map(&map).unwrap();
        assert_eq!(written, 2);
        let back = r.enrich(&[item(1)], &[q::iri("HitRatio"), q::iri("Coverage")]).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn turtle_persistence_roundtrip() {
        let r = repo();
        r.record_item_type(&item(1), &q::iri("ImprintHitEntry")).unwrap();
        r.annotate(&item(1), &q::iri("HitRatio"), 0.5.into()).unwrap();
        let text = r.export_turtle();
        let fresh = repo();
        fresh.import_turtle(&text).unwrap();
        assert_eq!(
            fresh.lookup(&item(1), &q::iri("HitRatio")).unwrap(),
            EvidenceValue::Number(0.5)
        );
    }

    #[test]
    fn record_item_type_validates() {
        let r = repo();
        r.record_item_type(&item(1), &q::iri("ImprintHitEntry")).unwrap();
        assert!(r.record_item_type(&item(1), &q::iri("HitRatio")).is_err());
    }

    #[test]
    fn concurrent_annotation() {
        let r = Arc::new(repo());
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let id = worker * 100 + i;
                        r.annotate(&item(id), &q::iri("HitRatio"), (id as f64).into()).unwrap();
                    }
                });
            }
        });
        assert_eq!(r.triple_count(), 3 * 200);
        assert_eq!(
            r.lookup(&item(307), &q::iri("HitRatio")).unwrap(),
            EvidenceValue::Number(307.0)
        );
    }

    #[test]
    fn disk_repository_survives_reopen_without_blank_collision() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("annrepo");
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let r = AnnotationRepository::open_disk("archive", true, iq.clone(), tmp.path()).unwrap();
        assert_eq!(r.backend_name(), "disk");
        assert_eq!(r.store_path().as_deref(), Some(tmp.path()));
        r.annotate(&item(1), &q::iri("HitRatio"), 0.25.into()).unwrap();
        r.annotate(&item(2), &q::iri("MassCoverage"), 42.into()).unwrap();
        r.flush().unwrap();
        drop(r);

        let r = AnnotationRepository::open_disk("archive", true, iq, tmp.path()).unwrap();
        assert_eq!(r.triple_count(), 6);
        assert_eq!(r.lookup(&item(1), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.25));
        // The blank counter restarted past the surviving evidence labels, so
        // a new annotation must not clobber an old node: overwrite semantics
        // stay per-(item, type).
        r.annotate(&item(3), &q::iri("HitRatio"), 0.75.into()).unwrap();
        assert_eq!(r.triple_count(), 9);
        assert_eq!(r.lookup(&item(1), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.25));
        assert_eq!(r.lookup(&item(3), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.75));
        assert_eq!(
            r.lookup(&item(2), &q::iri("MassCoverage")).unwrap(),
            EvidenceValue::Number(42.0)
        );
        // Replacement still works across the restart boundary.
        r.annotate(&item(1), &q::iri("HitRatio"), 0.5.into()).unwrap();
        assert_eq!(r.triple_count(), 9);
        assert_eq!(r.lookup(&item(1), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.5));
    }

    #[test]
    fn prepared_lookup_matches_sparql_lookup() {
        let r = repo();
        r.annotate(&item(1), &q::iri("HitRatio"), 0.82.into()).unwrap();
        r.annotate(&item(1), &q::iri("MassCoverage"), 31.into()).unwrap();
        for etype in [q::iri("HitRatio"), q::iri("MassCoverage"), q::iri("PeptidesCount")] {
            assert_eq!(
                r.lookup_prepared(&item(1), &etype).unwrap(),
                r.lookup_sparql(&item(1), &etype).unwrap(),
                "mismatch for {etype}"
            );
        }
        // Non-IRI items read as null on both SPARQL paths.
        let blank = Term::blank("b0");
        assert_eq!(r.lookup_prepared(&blank, &q::iri("HitRatio")).unwrap(), EvidenceValue::Null);
        assert_eq!(r.lookup_sparql(&blank, &q::iri("HitRatio")).unwrap(), EvidenceValue::Null);
        // The mode switch routes lookups through the prepared query.
        let r = repo().with_lookup_mode(LookupMode::Prepared);
        r.annotate(&item(2), &q::iri("HitRatio"), 0.5.into()).unwrap();
        assert_eq!(r.lookup(&item(2), &q::iri("HitRatio")).unwrap(), EvidenceValue::Number(0.5));
    }

    #[test]
    fn hostile_iri_regression() {
        // `Iri` construction already rejects the close-and-reopen payload…
        assert!(Iri::try_new("urn:x> q:value ?v . ?s ?p <urn:y").is_err());
        // …but digit-initial IRIs are valid and used to corrupt the
        // interpolated query text silently. The SPARQL mode now refuses
        // them loudly; the prepared mode answers them correctly.
        let r = repo();
        let hostile = Term::iri("7evil:item");
        let err = r.lookup_sparql(&hostile, &q::iri("HitRatio")).unwrap_err();
        assert!(err.to_string().contains("refusing to interpolate"), "err: {err}");
        assert_eq!(r.lookup_prepared(&hostile, &q::iri("HitRatio")).unwrap(), EvidenceValue::Null);
        // And when such an item actually carries evidence, the prepared
        // path retrieves it.
        r.annotate(&hostile, &q::iri("HitRatio"), 0.9.into()).unwrap();
        assert_eq!(
            r.lookup_prepared(&hostile, &q::iri("HitRatio")).unwrap(),
            EvidenceValue::Number(0.9)
        );
        assert_eq!(r.lookup_direct(&hostile, &q::iri("HitRatio")), EvidenceValue::Number(0.9));
    }

    #[test]
    fn enrich_bulk_matches_per_pair() {
        let r = repo();
        for i in 1..=10 {
            r.annotate(&item(i), &q::iri("HitRatio"), (0.05 * i as f64).into()).unwrap();
            if i % 2 == 0 {
                r.annotate(&item(i), &q::iri("MassCoverage"), (i as i64).into()).unwrap();
            }
            if i % 3 == 0 {
                r.annotate(&item(i), &q::iri("PeptidesCount"), (2 * i as i64).into()).unwrap();
            }
        }
        // Also items with no annotations at all, plus a type nobody has.
        let items: Vec<Term> = (1..=12).map(item).collect();
        let types = [
            q::iri("HitRatio"),
            q::iri("MassCoverage"),
            q::iri("PeptidesCount"),
            q::iri("SequenceCoverage"),
        ];
        let per_pair = r.enrich(&items, &types).unwrap();
        let bulk = r.enrich_bulk(&items, &types).unwrap();
        assert_eq!(bulk, per_pair);
        // Empty corners.
        assert_eq!(r.enrich_bulk(&[], &types).unwrap(), r.enrich(&[], &types).unwrap());
        assert_eq!(r.enrich_bulk(&items, &[]).unwrap(), r.enrich(&items, &[]).unwrap());
    }

    #[test]
    fn enrich_bulk_ignores_unrequested_items_and_types() {
        let r = repo();
        r.annotate(&item(1), &q::iri("HitRatio"), 0.9.into()).unwrap();
        r.annotate(&item(2), &q::iri("MassCoverage"), 10.into()).unwrap();
        let map = r.enrich_bulk(&[item(1)], &[q::iri("HitRatio")]).unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map.items(), &[item(1)]);
        assert_eq!(
            map.item(&item(1)).unwrap().evidence_entries().count(),
            1,
            "only the requested type may appear"
        );
    }

    #[test]
    fn concurrent_bulk_enrich_and_annotate() {
        // Writers keep annotating while readers run bulk enrichments; every
        // observed value must be one a writer actually wrote, and the run
        // must be free of deadlocks and panics.
        let r = Arc::new(repo());
        for i in 0..64 {
            r.annotate(&item(i), &q::iri("HitRatio"), 1.0.into()).unwrap();
        }
        let items: Vec<Term> = (0..64).map(item).collect();
        std::thread::scope(|scope| {
            for w in 0..2 {
                let r = r.clone();
                scope.spawn(move || {
                    for round in 1..=20 {
                        for i in (w * 32)..(w * 32 + 32) {
                            r.annotate(
                                &item(i),
                                &q::iri("HitRatio"),
                                ((round * 100 + i) as f64).into(),
                            )
                            .unwrap();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let r = r.clone();
                let items = items.clone();
                scope.spawn(move || {
                    for _ in 0..40 {
                        let map = r.enrich_bulk(&items, &[q::iri("HitRatio")]).unwrap();
                        assert_eq!(map.len(), 64);
                        for it in map.items() {
                            // value may be mid-update but never garbage
                            let v = map.item(it).unwrap().evidence(&q::iri("HitRatio"));
                            if let EvidenceValue::Number(n) = v {
                                assert!((0.0..=2064.0).contains(&n), "implausible value {n}");
                            }
                        }
                    }
                });
            }
        });
        // Quiescent state: bulk agrees with per-pair.
        let final_bulk = r.enrich_bulk(&items, &[q::iri("HitRatio")]).unwrap();
        let final_pairs = r.enrich(&items, &[q::iri("HitRatio")]).unwrap();
        assert_eq!(final_bulk, final_pairs);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use qurator_rdf::namespace::q;

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
    }

    const TYPES: [&str; 3] = ["HitRatio", "MassCoverage", "PeptidesCount"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// All four lookup paths produce the identical annotation map for
        /// any random annotation workload.
        #[test]
        fn all_lookup_paths_agree(
            writes in proptest::collection::vec((0u32..12, 0usize..3, -50f64..50.0), 0..60),
            queried in proptest::collection::vec(0u32..15, 1..15),
        ) {
            let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
            let sparql_repo = AnnotationRepository::new("a", false, iq.clone());
            for (i, t, v) in &writes {
                sparql_repo.annotate(&item(*i), &q::iri(TYPES[*t]), (*v).into()).unwrap();
            }
            let turtle = sparql_repo.export_turtle();
            let mk = |mode: LookupMode| {
                let r = AnnotationRepository::new("b", false, iq.clone()).with_lookup_mode(mode);
                r.import_turtle(&turtle).unwrap();
                r
            };
            let items: Vec<Term> = queried.iter().map(|i| item(*i)).collect();
            let types: Vec<Iri> = TYPES.iter().map(|t| q::iri(t)).collect();

            let via_sparql = sparql_repo.enrich(&items, &types).unwrap();
            let via_prepared = mk(LookupMode::Prepared).enrich(&items, &types).unwrap();
            let via_direct = mk(LookupMode::Direct).enrich(&items, &types).unwrap();
            let via_bulk = sparql_repo.enrich_bulk(&items, &types).unwrap();

            prop_assert_eq!(&via_prepared, &via_sparql);
            prop_assert_eq!(&via_direct, &via_sparql);
            prop_assert_eq!(&via_bulk, &via_sparql);
        }
    }
}
