//! The common message model: data sets with named payload fields.

use qurator_annotations::EvidenceValue;
use qurator_rdf::term::Term;
use std::collections::{BTreeMap, HashSet};

/// A collection of identified data items, each carrying named payload
/// fields. This is the concrete data-set model of the common service
/// schema: e.g. each Imprint hit entry arrives as an item whose fields are
/// `hitRatio`, `massCoverage`, `rank`, …
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataSet {
    order: Vec<Term>,
    payloads: BTreeMap<Term, BTreeMap<String, EvidenceValue>>,
}

impl DataSet {
    /// An empty data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a data set from bare items (no payloads).
    pub fn from_items(items: impl IntoIterator<Item = Term>) -> Self {
        let mut ds = Self::new();
        for item in items {
            ds.push(item, [] as [(String, EvidenceValue); 0]);
        }
        ds
    }

    /// Appends an item with payload fields. Re-pushing an existing item
    /// merges the fields (latest wins).
    pub fn push<I, K>(&mut self, item: Term, fields: I)
    where
        I: IntoIterator<Item = (K, EvidenceValue)>,
        K: Into<String>,
    {
        if !self.payloads.contains_key(&item) {
            self.order.push(item.clone());
            self.payloads.insert(item.clone(), BTreeMap::new());
        }
        let slot = self.payloads.get_mut(&item).expect("ensured");
        for (k, v) in fields {
            slot.insert(k.into(), v);
        }
    }

    /// The items in insertion order.
    pub fn items(&self) -> &[Term] {
        &self.order
    }

    /// A payload field of one item.
    pub fn field(&self, item: &Term, field: &str) -> EvidenceValue {
        self.payloads.get(item).and_then(|m| m.get(field)).cloned().unwrap_or(EvidenceValue::Null)
    }

    /// All fields of one item.
    pub fn fields(&self, item: &Term) -> impl Iterator<Item = (&str, &EvidenceValue)> {
        self.payloads.get(item).into_iter().flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), v)))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Keeps only the given items, preserving this set's order. Repeats in
    /// `keep` and items this set does not hold are ignored.
    ///
    /// One hash set over `keep` and one pass over the items: O(n + k) per
    /// action group. The set keeps std's seeded hasher because item IRIs
    /// arrive from outside the program.
    pub fn restrict(&self, keep: &[Term]) -> DataSet {
        let keep: HashSet<&Term> = keep.iter().collect();
        let mut out = DataSet::new();
        for item in self.order.iter().filter(|item| keep.contains(item)) {
            out.order.push(item.clone());
            out.payloads.insert(item.clone(), self.payloads[item].clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:t:h:{n}"))
    }

    #[test]
    fn push_and_merge_fields() {
        let mut ds = DataSet::new();
        ds.push(item(1), [("hitRatio", EvidenceValue::from(0.8))]);
        ds.push(item(1), [("massCoverage", EvidenceValue::from(30.0))]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.field(&item(1), "hitRatio"), EvidenceValue::Number(0.8));
        assert_eq!(ds.field(&item(1), "massCoverage"), EvidenceValue::Number(30.0));
        assert_eq!(ds.field(&item(1), "absent"), EvidenceValue::Null);
        assert_eq!(ds.fields(&item(1)).count(), 2);
    }

    #[test]
    fn order_and_restrict() {
        let mut ds = DataSet::new();
        for i in [3u32, 1, 2] {
            ds.push(item(i), [("v", EvidenceValue::from(i as f64))]);
        }
        assert_eq!(ds.items(), &[item(3), item(1), item(2)]);
        let sub = ds.restrict(&[item(2), item(3)]);
        assert_eq!(sub.items(), &[item(3), item(2)], "source order wins");
        assert_eq!(sub.field(&item(2), "v"), EvidenceValue::Number(2.0));
    }

    proptest::proptest! {
        /// `restrict` equals a naive filter of `items()` in source order,
        /// payloads included, whatever the keep list's order, repeats and
        /// absent items.
        #[test]
        fn restrict_matches_naive_filter(
            source in proptest::collection::vec((0u32..16, -100f64..100.0), 0..24),
            picks in proptest::collection::vec(0u32..24, 0..40),
        ) {
            let mut ds = DataSet::new();
            for (n, v) in &source {
                let fields = [("v", EvidenceValue::from(*v)), ("n", EvidenceValue::from(*n as f64))];
                ds.push(item(*n), fields);
            }
            let keep: Vec<Term> = picks.into_iter().map(item).collect();
            let mut naive = DataSet::new();
            for kept in ds.items().iter().filter(|it| keep.contains(it)) {
                naive.push(kept.clone(), ds.fields(kept).map(|(k, v)| (k, v.clone())));
            }
            proptest::prop_assert_eq!(ds.restrict(&keep), naive);
        }
    }

    #[test]
    fn from_items_has_empty_payloads() {
        let ds = DataSet::from_items([item(1), item(2)]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.fields(&item(1)).count(), 0);
    }
}
