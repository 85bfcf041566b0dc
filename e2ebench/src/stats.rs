//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here, computed from
//! the full list of measured values. The library's log₂-bucket histogram
//! (`sickle_obs::metrics::Histogram`) is deliberately not used: its
//! bucket midpoints are off by up to +41% / −29%.

/// Nearest-rank percentile: the smallest sample `v` such that at least
/// `p` percent of the samples are `<= v`, i.e. the sample of 1-based rank
/// `⌈p · n / 100⌉` in sorted order.
///
/// # Panics
/// Panics on an empty slice, a `p` outside `(0, 100]`, or a NaN sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // Unsorted on purpose: the helper must sort.
        let v = [35.0, 20.0, 50.0, 15.0, 40.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn percentiles_are_observed_samples_at_exact_ranks() {
        let v: Vec<f64> = (1..=1024).rev().map(f64::from).collect();
        // ⌈0.5 · 1024⌉ = 512, ⌈0.9 · 1024⌉ = 922, ⌈0.99 · 1024⌉ = 1014.
        assert_eq!(percentile(&v, 50.0), 512.0);
        assert_eq!(percentile(&v, 90.0), 922.0);
        assert_eq!(percentile(&v, 99.0), 1014.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(median(&ten), 5.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [1.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[3.25], p), 3.25);
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_rejected() {
        percentile(&[], 50.0);
    }
}
