//! Order statistics and the scaling fit the reports are built from.

/// Nearest-rank quantile: the smallest sample with at least `q·n`
/// samples at or below it. `NaN` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u8,
    pub value: f64,
    pub beyond: usize,
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it; `None` when even p75 has fewer.
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    [99u8, 95, 90, 75].into_iter().find_map(|percentile| {
        let q = f64::from(percentile) / 100.0;
        let beyond = samples.len().saturating_sub(rank(samples.len(), q));
        (!samples.is_empty() && beyond >= 10).then(|| Tail {
            percentile,
            value: quantile(samples, q),
            beyond,
        })
    })
}

/// Least-squares slope of `ln y` on `ln x`: the scaling exponent of a
/// cost `y` in the input size `x`. Points with a non-positive coordinate
/// are skipped; `NaN` when fewer than two remain.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return f64::NAN;
    }
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&samples), 5.0);
        assert_eq!(quantile(&samples, 0.9), 9.0);
        assert_eq!(quantile(&samples, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        let tail = tail_percentile(&samples(1000)).unwrap();
        assert_eq!((tail.percentile, tail.beyond), (99, 10));
        assert_eq!(tail_percentile(&samples(200)).unwrap().percentile, 95);
        let tail = tail_percentile(&samples(120)).unwrap();
        assert_eq!((tail.percentile, tail.beyond, tail.value), (90, 12, 107.0));
        assert_eq!(tail_percentile(&samples(40)).unwrap().percentile, 75);
        assert_eq!(tail_percentile(&samples(39)), None);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let points: Vec<(f64, f64)> =
            [1e3, 3e3, 1e4].iter().map(|&x: &f64| (x, 2.0 * x.powf(1.3))).collect();
        assert!((loglog_slope(&points) - 1.3).abs() < 1e-9);
        assert!(loglog_slope(&points[..1]).is_nan());
        assert!(loglog_slope(&[(1.0, 0.0), (2.0, 1.0)]).is_nan(), "a zero cost has no logarithm");
    }
}
