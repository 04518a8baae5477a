//! The seeded hit-row generator every workload draws its inputs from.
//!
//! A hit's values depend only on its id, its rank in a quality gradient
//! and the seed, so an id drawn twice carries the same evidence — the
//! shape of a real entity resubmitted by a host workflow. Seed 0 renders
//! exactly the rows of the experiment harness's `synthetic_hits(n)`.

use qurator::prelude::*;
use qurator_rdf::term::Term;

/// One synthetic Imprint hit: the three evidence fields the views read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub id: u64,
    pub hit_ratio: f64,
    pub mass_coverage: f64,
    pub peptides_count: i64,
}

impl Hit {
    /// Hit `id` at position `rank` of an `n`-row gradient (rank 0 is the
    /// best quality).
    pub fn new(seed: u64, id: u64, rank: usize, n: usize) -> Hit {
        let jitter = lcg(id ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000;
        let quality = (n - rank) as f64 / n as f64;
        Hit {
            id,
            hit_ratio: (0.05 + 0.9 * quality + jitter as f64 * 1e-5).min(1.0),
            mass_coverage: 50.0 * quality + (jitter % 100) as f64 * 0.05,
            peptides_count: (1.0 + 14.0 * quality) as i64,
        }
    }

    pub fn iri(&self) -> String {
        format!("urn:lsid:bench:hit:H{:06}", self.id)
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) >> 33
}

/// SplitMix64: the workloads' only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        assert!(k as u64 <= n, "cannot draw {k} distinct values below {n}");
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// An `n`-row gradient. Seed 0 keeps rank order (and so the harness's
/// rows); any other seed shuffles the rows.
pub fn gradient(seed: u64, n: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = (0..n).map(|rank| Hit::new(seed, rank as u64, rank, n)).collect();
    if seed != 0 {
        let mut rng = Rng::new(seed);
        for i in (1..hits.len()).rev() {
            hits.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    hits
}

/// Hits for ids drawn from a pool of `pool` ids, each ranked by its id.
pub fn from_pool(seed: u64, ids: &[u64], pool: usize) -> Vec<Hit> {
    ids.iter().map(|&id| Hit::new(seed, id, id as usize % pool, pool)).collect()
}

/// The hits as an in-process data set.
pub fn dataset(hits: &[Hit]) -> DataSet {
    let mut dataset = DataSet::new();
    for hit in hits {
        dataset.push(
            Term::iri(hit.iri()),
            [
                ("hitRatio", EvidenceValue::from(hit.hit_ratio)),
                ("massCoverage", EvidenceValue::from(hit.mass_coverage)),
                ("peptidesCount", EvidenceValue::from(hit.peptides_count)),
            ],
        );
    }
    dataset
}

/// The hits in the TSV wire format `POST /run/<view>` accepts.
pub fn tsv(hits: &[Hit]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("id\thitRatio\tmassCoverage\tpeptidesCount\n");
    for hit in hits {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            hit.iri(),
            hit.hit_ratio,
            hit.mass_coverage,
            hit.peptides_count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_harness_rows_byte_for_byte() {
        for n in [1, 7, 250] {
            assert_eq!(tsv(&gradient(0, n)), bench::synthetic_hits_tsv(n), "n = {n}");
            assert_eq!(dataset(&gradient(0, n)), bench::synthetic_hits(n), "n = {n}");
        }
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        assert_eq!(gradient(3, 100), gradient(3, 100));
        assert_ne!(gradient(3, 100), gradient(4, 100));
        let mut ids: Vec<u64> = gradient(3, 100).iter().map(|h| h.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>(), "a shuffle keeps every row");
    }

    #[test]
    fn an_id_carries_the_same_values_in_every_draw() {
        let a = from_pool(9, &[5, 17], 100);
        let b = from_pool(9, &[17, 5], 100);
        assert_eq!(a[0], b[1]);
        assert_eq!(a[1], b[0]);
    }

    #[test]
    fn distinct_draws_do_not_repeat() {
        let mut rng = Rng::new(1);
        let mut drawn = rng.distinct(50, 60);
        drawn.sort_unstable();
        drawn.dedup();
        assert_eq!(drawn.len(), 50);
        assert!(drawn.iter().all(|&v| v < 60));
    }
}
