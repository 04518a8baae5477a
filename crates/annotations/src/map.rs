//! Annotation maps: the structure quality operators pass around.
//!
//! Paper §4.1: "an annotation map `Amap : d ↦ {(e, v)}` associates an
//! evidence value v (possibly null) for evidence type e ∈ E to each data
//! item d ∈ D", and quality assertions augment the map with classification
//! mappings `{d ↦ (t, cl)}` and scores. We key evidence by its ontology
//! class [`Iri`] and QA outputs by their *tag name* (the `tagName`
//! variables of QV declarations, e.g. `HR_MC`, `ScoreClass`).

use crate::value::EvidenceValue;
use qurator_rdf::term::{Iri, Term};
use std::collections::{BTreeMap, HashSet};

/// Per-item annotations: evidence values plus QA tags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemAnnotations {
    evidence: BTreeMap<Iri, EvidenceValue>,
    tags: BTreeMap<String, EvidenceValue>,
}

impl ItemAnnotations {
    /// The value for an evidence type (explicit null and absence both read
    /// as `Null`).
    pub fn evidence(&self, evidence_type: &Iri) -> EvidenceValue {
        self.evidence.get(evidence_type).cloned().unwrap_or(EvidenceValue::Null)
    }

    /// The value for a QA tag.
    pub fn tag(&self, tag: &str) -> EvidenceValue {
        self.tags.get(tag).cloned().unwrap_or(EvidenceValue::Null)
    }

    /// Borrowed view of a QA tag's value, `None` when absent. Readers
    /// that only render the value (provenance capture) use this to skip
    /// the clone [`ItemAnnotations::tag`] pays.
    pub fn tag_ref(&self, tag: &str) -> Option<&EvidenceValue> {
        self.tags.get(tag)
    }

    /// Directly sets an evidence value on this row. Bulk writers pair this
    /// with [`AnnotationMap::row_mut`] to pay one row lookup per item
    /// instead of one per `(item, evidence type)` pair.
    pub fn insert_evidence(&mut self, evidence_type: Iri, value: EvidenceValue) {
        self.evidence.insert(evidence_type, value);
    }

    /// All evidence entries.
    pub fn evidence_entries(&self) -> impl Iterator<Item = (&Iri, &EvidenceValue)> {
        self.evidence.iter()
    }

    /// All tag entries.
    pub fn tag_entries(&self) -> impl Iterator<Item = (&str, &EvidenceValue)> {
        self.tags.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// An annotation map over an ordered data set.
///
/// Order matters: the data items flow through the quality process as a
/// collection and actions must emit their groups in input order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationMap {
    order: Vec<Term>,
    rows: BTreeMap<Term, ItemAnnotations>,
}

impl AnnotationMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map over the given data set with no annotations yet.
    ///
    /// Equivalent to repeated [`Self::ensure_item`] (first-seen order,
    /// duplicates dropped) but built in one pass: `BTreeMap`'s
    /// `FromIterator` sorts and bulk-loads, which is markedly cheaper than
    /// per-item inserts on the large batches bulk enrichment seeds.
    pub fn for_items(items: impl IntoIterator<Item = Term>) -> Self {
        let mut order: Vec<Term> = Vec::new();
        let mut seen: HashSet<&Term> = HashSet::new();
        let items: Vec<Term> = items.into_iter().collect();
        for item in &items {
            if seen.insert(item) {
                order.push(item.clone());
            }
        }
        drop(seen);
        let rows = order.iter().map(|item| (item.clone(), ItemAnnotations::default())).collect();
        Self { order, rows }
    }

    /// Adds a data item (idempotent; preserves first-seen order).
    pub fn ensure_item(&mut self, item: Term) {
        if !self.rows.contains_key(&item) {
            self.order.push(item.clone());
            self.rows.insert(item, ItemAnnotations::default());
        }
    }

    /// Sets an evidence value for an item.
    pub fn set_evidence(&mut self, item: &Term, evidence_type: Iri, value: EvidenceValue) {
        self.ensure_item(item.clone());
        self.rows.get_mut(item).expect("just ensured").evidence.insert(evidence_type, value);
    }

    /// Sets a QA tag value for an item (scores, class labels).
    pub fn set_tag(&mut self, item: &Term, tag: impl Into<String>, value: EvidenceValue) {
        self.ensure_item(item.clone());
        self.rows.get_mut(item).expect("just ensured").tags.insert(tag.into(), value);
    }

    /// The annotations of one item.
    pub fn item(&self, item: &Term) -> Option<&ItemAnnotations> {
        self.rows.get(item)
    }

    /// Mutable access to an existing item's row (`None` for unknown items).
    /// This is the bulk-enrichment write path; [`Self::set_evidence`] stays
    /// the convenient per-value entry point.
    pub fn row_mut(&mut self, item: &Term) -> Option<&mut ItemAnnotations> {
        self.rows.get_mut(item)
    }

    /// Data items in input order.
    pub fn items(&self) -> &[Term] {
        &self.order
    }

    /// All `(item, row)` pairs in key order — the cheap whole-map scan
    /// (no per-item lookup), for consumers that don't need input order.
    pub fn rows(&self) -> impl Iterator<Item = (&Term, &ItemAnnotations)> {
        self.rows.iter()
    }

    /// Number of data items.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no items are present.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// All evidence values of one evidence type in item order (nulls for
    /// unannotated items) — the column view QAs consume to compute
    /// collection statistics (avg/stddev thresholds, §5.1).
    pub fn column(&self, evidence_type: &Iri) -> Vec<EvidenceValue> {
        self.order.iter().map(|item| self.rows[item].evidence(evidence_type)).collect()
    }

    /// The tag column in item order.
    pub fn tag_column(&self, tag: &str) -> Vec<EvidenceValue> {
        self.order.iter().map(|item| self.rows[item].tag(tag)).collect()
    }

    /// Merges `other` into `self` (evidence/tags of shared items are
    /// unioned, `other` winning conflicts; new items appended in order).
    /// Used when one Data-Enrichment operator reads several repositories.
    pub fn merge(&mut self, other: &AnnotationMap) {
        for item in other.items() {
            self.ensure_item(item.clone());
            let src = &other.rows[item];
            let dst = self.rows.get_mut(item).expect("ensured");
            for (e, v) in &src.evidence {
                dst.evidence.insert(e.clone(), v.clone());
            }
            for (t, v) in &src.tags {
                dst.tags.insert(t.clone(), v.clone());
            }
        }
    }

    /// Restricts the map to the given items (used by split actions to ship
    /// each group with its own sub-map — paper §4.1: output consists of
    /// pairs `(D_i, Amap_i)`). Items come in `keep`'s order; repeats are
    /// dropped as in [`Self::for_items`] (first seen wins) and items this
    /// map does not hold are ignored.
    pub fn restrict(&self, keep: &[Term]) -> AnnotationMap {
        let mut out = AnnotationMap::new();
        for item in keep {
            if let Some(row) = self.rows.get(item) {
                if !out.rows.contains_key(item) {
                    out.order.push(item.clone());
                    out.rows.insert(item.clone(), row.clone());
                }
            }
        }
        out
    }

    /// Collection statistics over a numeric evidence column: `(mean,
    /// population std-dev, n)` skipping nulls. The §5.1 classifier uses
    /// `avg ± stddev` thresholds.
    pub fn column_stats(&self, evidence_type: &Iri) -> Option<(f64, f64, usize)> {
        let values: Vec<f64> =
            self.column(evidence_type).iter().filter_map(EvidenceValue::as_number).collect();
        numeric_stats(&values)
    }

    /// Same statistics over a tag column.
    pub fn tag_stats(&self, tag: &str) -> Option<(f64, f64, usize)> {
        let values: Vec<f64> =
            self.tag_column(tag).iter().filter_map(EvidenceValue::as_number).collect();
        numeric_stats(&values)
    }
}

/// Mean / population standard deviation of a sample (None when empty).
pub fn numeric_stats(values: &[f64]) -> Option<(f64, f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Some((mean, var.sqrt(), values.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:t:hit:H{n}"))
    }

    #[test]
    fn order_preserved_and_idempotent() {
        let mut m = AnnotationMap::new();
        m.ensure_item(item(2));
        m.ensure_item(item(1));
        m.ensure_item(item(2));
        assert_eq!(m.items(), &[item(2), item(1)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn evidence_and_tags() {
        let mut m = AnnotationMap::new();
        m.set_evidence(&item(1), q::iri("HitRatio"), 0.8.into());
        m.set_tag(&item(1), "ScoreClass", EvidenceValue::Class(q::iri("high")));
        let row = m.item(&item(1)).unwrap();
        assert_eq!(row.evidence(&q::iri("HitRatio")), EvidenceValue::Number(0.8));
        assert_eq!(row.evidence(&q::iri("Missing")), EvidenceValue::Null);
        assert_eq!(row.tag("ScoreClass"), EvidenceValue::Class(q::iri("high")));
        assert_eq!(row.tag("Other"), EvidenceValue::Null);
        assert_eq!(row.evidence_entries().count(), 1);
        assert_eq!(row.tag_entries().count(), 1);
    }

    #[test]
    fn columns_align_with_items() {
        let mut m = AnnotationMap::new();
        m.set_evidence(&item(1), q::iri("HR"), 0.1.into());
        m.ensure_item(item(2)); // no HR
        m.set_evidence(&item(3), q::iri("HR"), 0.3.into());
        let col = m.column(&q::iri("HR"));
        assert_eq!(
            col,
            vec![EvidenceValue::Number(0.1), EvidenceValue::Null, EvidenceValue::Number(0.3)]
        );
    }

    #[test]
    fn stats_skip_nulls() {
        let mut m = AnnotationMap::new();
        m.set_evidence(&item(1), q::iri("HR"), 1.0.into());
        m.ensure_item(item(2));
        m.set_evidence(&item(3), q::iri("HR"), 3.0.into());
        let (mean, sd, n) = m.column_stats(&q::iri("HR")).unwrap();
        assert_eq!(mean, 2.0);
        assert_eq!(sd, 1.0);
        assert_eq!(n, 2);
        assert!(m.column_stats(&q::iri("Absent")).is_none());
    }

    #[test]
    fn merge_unions_and_overrides() {
        let mut a = AnnotationMap::new();
        a.set_evidence(&item(1), q::iri("HR"), 0.1.into());
        let mut b = AnnotationMap::new();
        b.set_evidence(&item(1), q::iri("HR"), 0.9.into());
        b.set_evidence(&item(2), q::iri("MC"), 30.into());
        a.merge(&b);
        assert_eq!(a.item(&item(1)).unwrap().evidence(&q::iri("HR")), EvidenceValue::Number(0.9));
        assert_eq!(a.items(), &[item(1), item(2)]);
    }

    #[test]
    fn restrict_keeps_order_and_rows() {
        let mut m = AnnotationMap::new();
        for i in 1..=4 {
            m.set_evidence(&item(i), q::iri("HR"), (i as f64).into());
        }
        let sub = m.restrict(&[item(3), item(1)]);
        assert_eq!(sub.items(), &[item(3), item(1)]);
        assert_eq!(sub.item(&item(3)).unwrap().evidence(&q::iri("HR")), EvidenceValue::Number(3.0));
        assert!(sub.item(&item(2)).is_none());
    }

    #[test]
    fn tag_stats() {
        let mut m = AnnotationMap::new();
        m.set_tag(&item(1), "score", 10.0.into());
        m.set_tag(&item(2), "score", 20.0.into());
        let (mean, _, n) = m.tag_stats("score").unwrap();
        assert_eq!((mean, n), (15.0, 2));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use qurator_rdf::namespace::q;

    proptest! {
        /// restrict(items()) is the identity; restrict is idempotent; a
        /// keep list with repeats and absent items yields each present
        /// item once, in first-seen order, with one row per item.
        #[test]
        fn restrict_laws(
            values in proptest::collection::vec((0u32..12, -100f64..100.0), 0..30),
            picks in proptest::collection::vec(0u32..16, 0..40),
        ) {
            let mut m = AnnotationMap::new();
            for (i, v) in &values {
                m.set_evidence(&Term::iri(format!("urn:lsid:t:h:{i}")), q::iri("HR"), (*v).into());
            }
            let full = m.restrict(m.items());
            prop_assert_eq!(&full, &m);
            let keep: Vec<Term> = m.items().iter().take(m.len() / 2).cloned().collect();
            let once = m.restrict(&keep);
            let twice = once.restrict(&keep);
            prop_assert_eq!(once, twice);

            let keep: Vec<Term> =
                picks.iter().map(|i| Term::iri(format!("urn:lsid:t:h:{i}"))).collect();
            let sub = m.restrict(&keep);
            prop_assert_eq!(sub.len(), sub.rows().count());
            let unique: HashSet<&Term> = sub.items().iter().collect();
            prop_assert_eq!(unique.len(), sub.len());
            let mut first_seen: Vec<Term> = Vec::new();
            for item in keep.iter().filter(|item| m.item(item).is_some()) {
                if !first_seen.contains(item) {
                    first_seen.push(item.clone());
                }
            }
            prop_assert_eq!(sub.items(), &first_seen[..]);
        }

        /// column_stats mean is bounded by min/max of the inputs.
        #[test]
        fn stats_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let (mean, sd, n) = numeric_stats(&values).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean >= min - 1e-9 && mean <= max + 1e-9);
            prop_assert!(sd >= 0.0);
            prop_assert_eq!(n, values.len());
        }
    }
}
