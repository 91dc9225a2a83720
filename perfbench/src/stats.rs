//! The benchmark's own statistics: nearest-rank percentiles, the tail-support rule and
//! q-error.  Deliberately independent of `nc_serve::stats`, so a change to the program
//! cannot change how the benchmark measures it.

/// A percentile as an exact fraction `num / den` (p99 = 99/100), so ranks are computed in
/// integers and never suffer from `0.99 * n` rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    pub num: u64,
    pub den: u64,
}

pub const P50: Pct = Pct { num: 50, den: 100 };
pub const P99: Pct = Pct { num: 99, den: 100 };

/// Samples strictly beyond a percentile's rank that make the percentile a quantile and not
/// an extreme value.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of `p` among `n` samples: the smallest rank `r` with
/// `r / n >= p` (at least 1).
pub fn rank(n: usize, p: Pct) -> usize {
    let r = (p.num * n as u64).div_ceil(p.den) as usize;
    r.max(1)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: Pct) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    Some(sorted[rank(sorted.len(), p).min(sorted.len()) - 1])
}

/// Whether `n` samples leave at least [`MIN_TAIL`] samples beyond the rank of `p`.
pub fn tail_supported(n: usize, p: Pct) -> bool {
    n > 0 && n - rank(n, p).min(n) >= MIN_TAIL
}

/// Sorts a sample (NaN-free by construction; failed requests are `+inf`).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Nearest-rank median of a metric's samples (at least one).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    nearest_rank(&sorted(values.into_iter().collect()), P50)
        .expect("a metric has at least one sample")
}

/// Median and p99 of one timed phase, with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: Vec<f64>) -> Option<Summary> {
        let s = sorted(values);
        Some(Summary {
            n: s.len(),
            p50: nearest_rank(&s, P50)?,
            p99: nearest_rank(&s, P99)?,
            max: *s.last()?,
        })
    }

    /// Whether the p99 has at least [`MIN_TAIL`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        tail_supported(self.n, P99)
    }
}

/// Q-error with both sides floored at one row (the estimator's own convention).
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let (e, t) = (estimate.max(1.0), truth.max(1.0));
    e.max(t) / e.min(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_at_edge_counts() {
        assert_eq!(rank(1, P50), 1);
        assert_eq!(rank(2, P50), 1);
        assert_eq!(rank(3, P50), 2);
        assert_eq!(rank(100, P99), 99);
        assert_eq!(rank(101, P99), 100);
        assert_eq!(rank(1000, P99), 990);
        assert_eq!(rank(999, P99), 990);
        assert_eq!(rank(0, P99), 1);
    }

    #[test]
    fn nearest_rank_picks_sample_values() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, P99), Some(990.0));
        assert_eq!(nearest_rank(&s, P50), Some(500.0));
        assert_eq!(nearest_rank(&[7.0], P99), Some(7.0));
        assert_eq!(nearest_rank(&[], P50), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, P99));
        assert!(!tail_supported(999, P99));
        assert!(!tail_supported(100, P99));
        assert!(tail_supported(20, P50));
        assert!(!tail_supported(19, P50));
        assert!(!tail_supported(0, P50));
    }

    #[test]
    fn summary_and_q_error() {
        let s = Summary::of((0..1000).rev().map(f64::from).collect()).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.max), (1000, 499.0, 989.0, 999.0));
        assert!(s.p99_supported());
        assert!(!Summary::of((0..999).map(f64::from).collect()).unwrap().p99_supported());
        assert!(Summary::of(vec![]).is_none());
        assert_eq!(q_error(10.0, 40.0), 4.0);
        assert_eq!(q_error(40.0, 10.0), 4.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }
}
