//! Order statistics for the reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median and 99th percentile of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Quantiles {
    /// Nearest-rank p50/p99 of `values` (zeros for an empty sample, whose
    /// `n` of 0 says so).
    pub fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self {
            p50: nearest_rank(&values, 50.0).unwrap_or(0.0),
            p99: nearest_rank(&values, 99.0).unwrap_or(0.0),
            n: values.len(),
        }
    }
}

/// Median of `values` (nearest rank; 0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    Quantiles::of(values.to_vec()).p50
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(198.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(200.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn quantiles_sort_and_report_sample_count() {
        let q = Quantiles::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            q,
            Quantiles {
                p50: 3.0,
                p99: 5.0,
                n: 5
            }
        );
        assert_eq!(Quantiles::of(Vec::new()).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
    }
}
