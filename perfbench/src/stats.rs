//! Order statistics used for every reported figure.
//!
//! One rule everywhere: the *nearest-rank* percentile. For `n` samples
//! sorted ascending, the `q`-percentile is the sample at 1-based rank
//! `max(1, ceil(q·n))` — a value that was actually observed, never an
//! interpolation. The median is the `0.5` percentile under the same rule.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples must not be
/// reported as a number.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts a copy of `values` ascending (total order; NaN never occurs in
/// timings, and would sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values under the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Median, p99 and tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above the p99 rank (the tail the p99 rests on).
    pub beyond_p99: usize,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty population.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let n = s.len();
        let rank99 = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Self {
            p50: percentile(&s, 0.5),
            p99: percentile(&s, 0.99),
            beyond_p99: n - rank99,
            max: s[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The defining property of the nearest-rank percentile, checked by
    /// counting instead of indexing: at least `ceil(q·n)` samples are
    /// `<= v`, and fewer than that are `< v`.
    fn oracle_holds(values: &[f64], q: f64, v: f64) -> bool {
        let n = values.len();
        let need = ((q * n as f64).ceil() as usize).clamp(1, n);
        let le = values.iter().filter(|&&x| x <= v).count();
        let lt = values.iter().filter(|&&x| x < v).count();
        le >= need && lt < need && values.contains(&v)
    }

    #[test]
    fn percentile_matches_counting_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            // Small integer range forces many ties.
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..20) as f64).collect();
            let s = sorted(&values);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let v = percentile(&s, q);
                assert!(oracle_holds(&values, q, v), "n={n} q={q} v={v}");
            }
        }
    }

    #[test]
    fn hand_checked_ranks() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        let sum = Summary::of(&s);
        assert_eq!((sum.beyond_p99, sum.max), (1, 100.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_refused() {
        percentile(&[], 0.5);
    }
}
