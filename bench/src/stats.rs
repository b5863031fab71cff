//! Order statistics over latency samples.

/// Nearest-rank quantile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is in (0, 1].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is only reported when at least this many samples lie
/// beyond it, so the tail is estimated from more than a handful of points.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether `n` samples support the `q` quantile under the tail rule.
pub fn quantile_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + MIN_TAIL_SAMPLES
}

/// Samples sorted once, queried many times.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank quantile (`None` only when empty). Whether the
    /// tail rule supports it is [`Sorted::supports`]'s question.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        (!self.0.is_empty()).then(|| quantile_sorted(&self.0, q))
    }

    /// Whether enough samples lie beyond the `q` quantile to trust it.
    pub fn supports(&self, q: f64) -> bool {
        quantile_supported(self.0.len(), q)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Median of a few values (set-up times, ladder samples).
pub fn median(samples: &[f64]) -> f64 {
    Sorted::new(samples.to_vec()).median().expect("median of no samples")
}

/// Mean of the middle half of the samples. Set-up takes a whole number of
/// 1 ms poll periods, so its times fall on a few discrete values and a
/// median hops between neighbours; the midmean moves smoothly and still
/// ignores the occasional slow outlier.
pub fn midmean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    assert!(!middle.is_empty(), "midmean of no samples");
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 5.0);
        assert_eq!(quantile_sorted(&s, 0.51), 6.0);
        assert_eq!(quantile_sorted(&s, 0.95), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.01), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.5), 7.0);
        // Odd count: the median is the middle sample, never an average.
        assert_eq!(quantile_sorted(&[1.0, 2.0, 9.0], 0.5), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        // p95 of 200 samples is rank 190: exactly 10 beyond it.
        assert!(quantile_supported(200, 0.95));
        assert!(!quantile_supported(199, 0.95));
        // p99 needs 1000 samples (rank 990 + 10).
        assert!(quantile_supported(1000, 0.99));
        assert!(!quantile_supported(999, 0.99));
        // The median needs 20.
        assert!(quantile_supported(20, 0.5));
        assert!(!quantile_supported(19, 0.5));

        let few = Sorted::new((0..50).map(f64::from).collect());
        assert!(!few.supports(0.95));
        assert_eq!(few.quantile(0.95), Some(47.0));
        assert!(few.supports(0.5));
        assert_eq!(few.quantile(0.5), Some(24.0));
    }

    #[test]
    fn midmean_averages_the_middle_half() {
        // Quarter cut of 8 is 2: the mean of 3, 4, 5, 6 — the outlier and
        // the low pair do not count.
        assert_eq!(midmean(&[6.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0, 7.0]), 4.5);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn sorted_orders_its_input() {
        let s = Sorted::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.median(), Some(2.0));
        assert_eq!(s.len(), 3);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
