//! Small statistics helpers shared by the experiment harness: empirical CDFs,
//! means with confidence intervals, percentile extraction.

/// An empirical distribution over f64 samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Samples { values: Vec::new() }
    }

    /// Record a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean; 0.0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (n-1 denominator); 0.0 for fewer than two
    /// samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.values.iter().map(|v| (v - mean) * (v - mean)).sum();
        (ss / (n as f64 - 1.0)).sqrt()
    }

    /// Half-width of the 99% confidence interval on the mean (normal
    /// approximation, z = 2.576), as used for Fig. 8's error bars.
    pub fn ci99_half_width(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        2.576 * self.std_dev() / (n as f64).sqrt()
    }

    /// Percentile in `[0, 100]` by linear interpolation between order
    /// statistics; 0.0 for an empty set.
    ///
    /// The boundaries are exact by construction: any `p <= 0` returns the
    /// minimum and any `p >= 100` the maximum (no interpolation arithmetic
    /// is performed, so float rounding in `p * (n - 1) / 100` can never
    /// blend the extreme order statistic with its neighbor or index out of
    /// bounds on small sets). A NaN `p` falls into the minimum branch
    /// rather than poisoning the index computation.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_of_sorted(&self.sorted(), p)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        sorted
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Minimum; 0.0 for an empty set.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum; 0.0 for an empty set.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Several percentiles in one pass (a single clone + sort), for report
    /// emitters that want p50/p90/p99 together.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        let sorted = self.sorted();
        ps.iter()
            .map(|&p| percentile_of_sorted(&sorted, p))
            .collect()
    }

    /// The empirical CDF as `(value, cumulative_probability)` points, sorted
    /// by value — exactly the series a Fig. 7-style plot consumes.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.values.len() as f64;
        self.sorted()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

/// Shared interpolation core over an already-sorted slice.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Exact boundary short-circuits; a NaN `p` clamps to the minimum.
    if p.is_nan() || p <= 0.0 {
        return sorted[0];
    }
    if p >= 100.0 {
        return sorted[sorted.len() - 1];
    }
    let idx = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = idx - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let s = Samples::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn empty_set_is_safe() {
        let s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.cdf_points().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Samples::from_iter([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let s = Samples::from_iter([3.0, 1.0, 2.0]);
        let cdf = s.cdf_points();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn min_max() {
        let s = Samples::from_iter([5.0, -1.0, 3.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 5.0);
    }

    /// Boundary spec for tiny sample sets, written before the fix: every
    /// percentile of a 0-element set is 0.0, every percentile of a
    /// 1-element set is that element, and on a 2-element set p0/p100 are
    /// exactly the extremes (no interpolation residue) while interior
    /// percentiles interpolate linearly.
    #[test]
    fn percentile_boundaries_on_zero_one_two_element_sets() {
        let empty = Samples::new();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0] {
            assert_eq!(empty.percentile(p), 0.0);
        }

        let one = Samples::from_iter([7.5]);
        for p in [-10.0, 0.0, 0.001, 50.0, 99.999, 100.0, 250.0] {
            assert_eq!(one.percentile(p), 7.5, "p = {p}");
        }

        let two = Samples::from_iter([4.0, 2.0]);
        assert_eq!(two.percentile(-5.0), 2.0);
        assert_eq!(two.percentile(0.0), 2.0);
        assert_eq!(two.percentile(100.0), 4.0);
        assert_eq!(two.percentile(130.0), 4.0);
        assert!((two.percentile(50.0) - 3.0).abs() < 1e-12);
        assert!((two.percentile(25.0) - 2.5).abs() < 1e-12);
        // The extremes must be *exact* order statistics even for p values
        // adjacent to the boundary, where naive `p/100 * (n-1)` index
        // arithmetic could round past the last element.
        assert!(two.percentile(99.999_999_999) <= 4.0);
        assert!(two.percentile(0.000_000_001) >= 2.0);
    }

    /// A NaN percentile argument must not index out of bounds or poison
    /// the result; it resolves to the minimum branch.
    #[test]
    fn percentile_nan_p_is_contained() {
        let s = Samples::from_iter([1.0, 2.0, 3.0]);
        assert_eq!(s.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn percentiles_batch_matches_individual() {
        let s = Samples::from_iter([10.0, 20.0, 30.0, 40.0, 50.0]);
        let batch = s.percentiles(&[0.0, 25.0, 50.0, 99.0, 100.0]);
        let single: Vec<f64> = [0.0, 25.0, 50.0, 99.0, 100.0]
            .iter()
            .map(|&p| s.percentile(p))
            .collect();
        assert_eq!(batch, single);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small = Samples::from_iter((0..10).map(|i| i as f64));
        let big = Samples::from_iter((0..1000).map(|i| (i % 10) as f64));
        assert!(big.ci99_half_width() < small.ci99_half_width());
    }
}
