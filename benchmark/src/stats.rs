//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples, so a
//! reported percentile is always one of the measured values. A tail
//! percentile is only meaningful when enough samples lie beyond it:
//! [`tail`] picks the highest requested percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples past it, and reports which one it chose.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Tail percentiles tried, highest first.
pub const TAILS: [f64; 3] = [99.0, 90.0, 50.0];

/// [`median`], or 0 for no values.
pub fn median_of(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Zero-based nearest-rank index of percentile `p` (in `0..=100`) among
/// `n` sorted samples.
pub fn rank_index(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The tolerance keeps decimal percentiles exact: 99.9 % of 10 000 is
    // rank 9990, not the 9991 that `0.999 * 10000.0` rounds up to.
    let exact = p * n as f64 / 100.0;
    let rank = (exact - 1e-9 * exact.max(1.0)).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// A percentile as reported: which one, its value, how many samples it was
/// taken over, and how many of them lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. `99.0`.
    pub p: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
}

impl Percentile {
    /// Label such as `p99` or `p99.9`.
    pub fn label(&self) -> String {
        if self.p.fract() == 0.0 {
            format!("p{}", self.p as u64)
        } else {
            format!("p{}", self.p)
        }
    }
}

/// Percentile `p` of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = rank_index(p, v.len());
    Some(Percentile {
        p,
        value: v[idx],
        count: v.len(),
        beyond: v.len() - idx - 1,
    })
}

/// The highest of `candidates` (tried in the given order, highest first)
/// that has at least [`TAIL_MIN_BEYOND`] samples beyond it; falls back to
/// the median when none qualifies. `None` when `values` is empty.
pub fn tail(values: &[f64], candidates: &[f64]) -> Option<Percentile> {
    for &p in candidates {
        let pct = percentile(values, p)?;
        if pct.beyond >= TAIL_MIN_BEYOND {
            return Some(pct);
        }
    }
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order must not matter.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.count, one.beyond), (7.0, 1, 0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let cands = [99.9, 99.0, 90.0, 50.0];
        // 10_000 samples: p99.9 has exactly 10 beyond it.
        let t = tail(&ramp(10_000), &cands).unwrap();
        assert_eq!((t.p, t.beyond, t.count), (99.9, 10, 10_000));
        assert_eq!(t.label(), "p99.9");
        // 9_999 samples: p99.9 has only 9 beyond it, p99 has 99.
        let t = tail(&ramp(9_999), &cands).unwrap();
        assert_eq!((t.p, t.beyond), (99.0, 99));
        // 1_000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1_000), &cands).unwrap();
        assert_eq!((t.p, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(t.label(), "p99");
        // 999 samples: p99 rank 990, 9 beyond -> p90.
        let t = tail(&ramp(999), &cands).unwrap();
        assert_eq!((t.p, t.beyond), (90.0, 99));
        // 15 samples: only the median qualifies (7 beyond, fallback).
        let t = tail(&ramp(15), &cands).unwrap();
        assert_eq!((t.p, t.value), (50.0, 8.0));
        assert!(tail(&[], &cands).is_none());
    }
}
