//! Order statistics for the report: medians and quartiles over repeats,
//! and the rule that picks which tail percentile a sample can support.

/// Sort a sample ascending. Every value the benchmark collects is finite
/// (the gate refuses anything else before it gets here).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the driver's spread
/// rule uses that function, so the report shows the same numbers). A
/// single value is its own median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). Panics on an empty sample: a
    /// metric with no measurements is a harness bug.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let s = sorted(values);
        let n = s.len();
        if n == 1 {
            return Quartiles {
                q1: s[0],
                median: s[0],
                q3: s[0],
                n,
            };
        }
        // The "exclusive" method: cut point i of 4 sits at rank i*(n+1)/4.
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread the benchmark's bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the report may quote, ascending.
pub const TAIL_PERCENTILES: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it in a sample of `n`; `None` when even p90 does not
/// (fewer than 100 samples), in which case only the median is reported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Integer arithmetic: samples beyond p = n * (100 - p) / 100, with p
    // expressed in thousandths of a percent so 99.999 is exact.
    TAIL_PERCENTILES.iter().copied().rfind(|&p| {
        let beyond_milli = 100_000 - (p * 1000.0).round() as u128;
        n as u128 * beyond_milli >= 10 * 100_000
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let q = Quartiles::of(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let q = Quartiles::of(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 3.0, 7.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // Ten values, as the driver takes them:
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(q.spread(), 1.0);
    }

    #[test]
    fn single_value_is_its_own_quartiles() {
        let q = Quartiles::of(&[3.5]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (3.5, 3.5, 3.5, 1));
        assert_eq!(q.spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_of_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_of_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_of_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 7 repeats support no tail at all.
        assert_eq!(highest_supported_percentile(7), None);
        assert_eq!(highest_supported_percentile(99), None);
        // p90 of 100 leaves exactly ten beyond.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        // p99 needs 1,000; the 4,096 flows of dc-scale support it but not p99.9.
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(4_096), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(22_200), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99.999));
    }
}
