//! Order statistics over measured samples.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a reported tail must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts samples ascending (no NaNs are ever recorded).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Nearest-rank percentile of sorted samples; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// A tail latency: the highest of [`TAIL_PERCENTILES`] that leaves at
/// least [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of sorted samples; `None` when even the median has fewer than
/// [`TAIL_MIN_BEYOND`] samples above it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank.max(1));
        (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank.clamp(1, n) - 1],
            beyond,
            samples: n,
        })
    })
}

/// The median, over groups of samples, of `stat` applied to each sorted
/// group.  Reporting a median over groups (grid passes, or slices of
/// consecutive requests) keeps one stall from moving a whole run's
/// figure.
pub fn median_over(
    groups: impl IntoIterator<Item = Vec<f64>>,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per_group: Vec<f64> = groups
        .into_iter()
        .filter_map(|g| stat(&sorted(g)))
        .collect();
    median(&per_group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 90.0);
        assert!(tail(&s[..15]).is_none());
    }
}
