//! The ISPIDER proteomics pipeline (paper §1.1, §6.3) against the
//! synthetic testbed, with and without an embedded quality view.
//!
//! §6.3's experiment: run the workflow on the peak lists of 10 protein
//! spots, collect the GO terms of all identified proteins (~500 term
//! occurrences), then re-run with a quality filter and rank GO terms by
//! the **significance ratio** — occurrences *with* filtering divided by
//! occurrences *without*. Because the simulator records ground truth, we
//! additionally report identification precision before and after
//! filtering, quantifying what the paper argued qualitatively.

use qurator::prelude::*;
use qurator_proteomics::{HitEntry, World};
use qurator_rdf::lsid::LsidAuthority;
use qurator_rdf::term::Term;
use std::collections::BTreeMap;

/// Builds a [`DataSet`] (LSID-wrapped items + Imprint evidence payloads)
/// from one spot's hit entries — the adapter between the Imprint output
/// and the quality framework's common data model.
pub fn hits_to_dataset(spot_id: &str, hits: &[HitEntry]) -> DataSet {
    // Hit entries are per-search results: wrap accession + spot into the
    // LSID object id so items from different spots stay distinct.
    let authority = LsidAuthority::new("pedro.man.ac.uk", "hit");
    let mut dataset = DataSet::new();
    for hit in hits {
        let item = authority.term(format!("{spot_id}.{}", hit.accession));
        dataset.push(
            item,
            [
                ("hitRatio", EvidenceValue::from(hit.hit_ratio)),
                ("massCoverage", EvidenceValue::from(hit.mass_coverage)),
                ("peptidesCount", EvidenceValue::from(hit.peptides_count as i64)),
                ("accession", EvidenceValue::from(hit.accession.as_str())),
                ("rank", EvidenceValue::from(hit.rank as i64)),
            ],
        );
    }
    dataset
}

/// The accession recorded in a data-set item's payload.
pub fn accession_of(dataset: &DataSet, item: &Term) -> Option<String> {
    dataset.field(item, "accession").as_text().map(str::to_string)
}

/// Per-spot pipeline products.
#[derive(Debug, Clone)]
pub struct SpotResult {
    pub spot_id: String,
    /// Accessions surviving (or all hits, for the unfiltered run).
    pub identified: Vec<String>,
    /// The spot's ground-truth accessions.
    pub truth: Vec<String>,
}

/// Aggregated output of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    pub spots: Vec<SpotResult>,
    /// GO term id → number of occurrences accumulated over the sample.
    pub go_counts: BTreeMap<String, usize>,
}

impl PipelineOutput {
    /// Total GO-term occurrences.
    pub fn total_go_occurrences(&self) -> usize {
        self.go_counts.values().sum()
    }

    /// Identification precision: true identifications / all
    /// identifications (ground truth from the simulator).
    pub fn precision(&self) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for spot in &self.spots {
            total += spot.identified.len();
            correct +=
                spot.identified.iter().filter(|accession| spot.truth.contains(accession)).count();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Identification recall: found true proteins / all true proteins.
    pub fn recall(&self) -> f64 {
        let mut found = 0usize;
        let mut total = 0usize;
        for spot in &self.spots {
            total += spot.truth.len();
            found += spot.truth.iter().filter(|t| spot.identified.contains(t)).count();
        }
        if total == 0 {
            0.0
        } else {
            found as f64 / total as f64
        }
    }
}

/// The ISPIDER pipeline bound to a testbed world and a quality engine.
pub struct IspiderPipeline<'a> {
    pub world: &'a World,
    pub engine: &'a QualityEngine,
}

impl<'a> IspiderPipeline<'a> {
    /// Creates a pipeline over the given world/engine.
    pub fn new(world: &'a World, engine: &'a QualityEngine) -> Self {
        IspiderPipeline { world, engine }
    }

    /// Runs the original (unfiltered) workflow: every Imprint hit
    /// contributes its GOA terms.
    pub fn run_unfiltered(&self) -> PipelineOutput {
        let mut spots = Vec::new();
        let mut go_counts: BTreeMap<String, usize> = BTreeMap::new();
        for peak_list in self.world.peak_lists() {
            let hits = self.world.imprint.search(peak_list);
            let identified: Vec<String> = hits.iter().map(|h| h.accession.clone()).collect();
            for accession in &identified {
                for association in self.world.goa.lookup(accession) {
                    *go_counts.entry(association.term_id.clone()).or_insert(0) += 1;
                }
            }
            spots.push(SpotResult {
                spot_id: peak_list.spot_id.clone(),
                identified,
                truth: peak_list.true_proteins.clone(),
            });
        }
        PipelineOutput { spots, go_counts }
    }

    /// Runs the workflow with the quality view applied per spot (QAs are
    /// whole-collection models, and in the paper the collection is one
    /// Imprint run — "given the set of protein IDs computed by one run of
    /// the Imprint algorithm").
    pub fn run_filtered(
        &self,
        spec: &QualityViewSpec,
        group: &str,
    ) -> qurator::Result<PipelineOutput> {
        let mut spots = Vec::new();
        let mut go_counts: BTreeMap<String, usize> = BTreeMap::new();
        for peak_list in self.world.peak_lists() {
            let hits = self.world.imprint.search(peak_list);
            let dataset = hits_to_dataset(&peak_list.spot_id, &hits);
            let outcome = self.engine.execute_view(spec, &dataset)?;
            let surviving = outcome.group(group).ok_or_else(|| {
                qurator::QuratorError::Execution(format!("no action group {group:?}"))
            })?;
            let identified: Vec<String> = surviving
                .dataset
                .items()
                .iter()
                .filter_map(|item| accession_of(&surviving.dataset, item))
                .collect();
            for accession in &identified {
                for association in self.world.goa.lookup(accession) {
                    *go_counts.entry(association.term_id.clone()).or_insert(0) += 1;
                }
            }
            spots.push(SpotResult {
                spot_id: peak_list.spot_id.clone(),
                identified,
                truth: peak_list.true_proteins.clone(),
            });
        }
        Ok(PipelineOutput { spots, go_counts })
    }
}

/// One row of the Figure 7 ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct SignificanceRow {
    pub term_id: String,
    pub occurrences_without: usize,
    pub occurrences_with: usize,
    /// `occurrences_with / occurrences_without` — "a high ratio indicates
    /// that the GO term is relatively unaffected by the filtering, and
    /// thus it is representative of high-quality proteins" (§6.3).
    pub ratio: f64,
    /// 1-based rank by raw frequency in the unfiltered run.
    pub original_rank: usize,
    /// 1-based rank by significance ratio.
    pub significance_rank: usize,
}

/// Summary statistics over a ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct GoTermStats {
    pub terms: usize,
    pub total_without: usize,
    pub total_with: usize,
    /// Spearman rank correlation between original and significance ranks
    /// (the paper: filtering "significantly alters the original ranking",
    /// i.e. this should be visibly below 1).
    pub rank_correlation: f64,
}

/// Computes the Figure 7 ranking: GO terms ordered by significance ratio
/// (descending), ties broken by filtered count then term id.
pub fn significance_ranking(
    without: &PipelineOutput,
    with: &PipelineOutput,
) -> (Vec<SignificanceRow>, GoTermStats) {
    // original frequency ranking
    let mut by_frequency: Vec<(&String, &usize)> = without.go_counts.iter().collect();
    by_frequency.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let original_rank: BTreeMap<&String, usize> =
        by_frequency.iter().enumerate().map(|(i, (term, _))| (*term, i + 1)).collect();

    let mut rows: Vec<SignificanceRow> = without
        .go_counts
        .iter()
        .map(|(term, &occurrences_without)| {
            let occurrences_with = with.go_counts.get(term).copied().unwrap_or(0);
            SignificanceRow {
                term_id: term.clone(),
                occurrences_without,
                occurrences_with,
                ratio: occurrences_with as f64 / occurrences_without as f64,
                original_rank: original_rank[term],
                significance_rank: 0,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.occurrences_with.cmp(&a.occurrences_with))
            .then(a.term_id.cmp(&b.term_id))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.significance_rank = i + 1;
    }

    let n = rows.len();
    let rank_correlation = if n < 2 {
        1.0
    } else {
        let d2: f64 = rows
            .iter()
            .map(|r| {
                let d = r.original_rank as f64 - r.significance_rank as f64;
                d * d
            })
            .sum();
        1.0 - (6.0 * d2) / ((n * (n * n - 1)) as f64)
    };
    let stats = GoTermStats {
        terms: n,
        total_without: without.total_go_occurrences(),
        total_with: with.total_go_occurrences(),
        rank_correlation,
    };
    (rows, stats)
}

/// The §6.3 quality view: keep only "the top quality protein IDs, i.e.,
/// those with a score higher than the average + standard deviation". With
/// the z-score QA and the avg±σ classifier this is exactly
/// `ScoreClass in q:high`.
pub fn figure7_view() -> QualityViewSpec {
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind =
        qurator::spec::ActionKind::Filter { condition: "ScoreClass in q:high".to_string() };
    spec
}

/// The name of the filter group in [`figure7_view`].
pub const FIGURE7_GROUP: &str = "filter top k score";

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_proteomics::WorldConfig;

    #[test]
    fn hits_to_dataset_preserves_evidence() {
        let hit = HitEntry {
            accession: "P10001".into(),
            rank: 1,
            matched_peaks: 12,
            hit_ratio: 0.4,
            mass_coverage: 33.0,
            peptides_count: 12,
            eldp: 8,
        };
        let ds = hits_to_dataset("spot-00", &[hit]);
        assert_eq!(ds.len(), 1);
        let item = &ds.items()[0];
        assert_eq!(item.as_iri().unwrap().as_str(), "urn:lsid:pedro.man.ac.uk:hit:spot-00.P10001");
        assert_eq!(ds.field(item, "hitRatio"), EvidenceValue::Number(0.4));
        assert_eq!(accession_of(&ds, item).as_deref(), Some("P10001"));
    }

    #[test]
    fn figure7_shapes_hold_at_small_scale() {
        let world = World::generate(&WorldConfig::paper_scale(42)).unwrap();
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let pipeline = IspiderPipeline::new(&world, &engine);

        let unfiltered = pipeline.run_unfiltered();
        let filtered = pipeline.run_filtered(&figure7_view(), FIGURE7_GROUP).unwrap();

        // filtering reduces volume…
        assert!(filtered.total_go_occurrences() < unfiltered.total_go_occurrences());
        // …and (the quantitative claim behind §6.3) improves precision
        assert!(
            filtered.precision() > unfiltered.precision(),
            "filtered {} vs unfiltered {}",
            filtered.precision(),
            unfiltered.precision()
        );

        let (rows, stats) = significance_ranking(&unfiltered, &filtered);
        assert_eq!(stats.terms, rows.len());
        assert!(stats.rank_correlation < 0.999, "ranking must change");
        // ranks are a permutation
        let mut ranks: Vec<usize> = rows.iter().map(|r| r.significance_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=rows.len()).collect::<Vec<_>>());
        // ratios within [0, 1]
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.ratio)));
    }
}
