//! Order statistics for the benchmark's samples.
//!
//! Quantiles use the nearest-rank rule (the value at rank `⌈q·n⌉` of the
//! sorted samples), so every reported figure is one that was actually
//! measured. A tail quantile is refused unless at least
//! [`MIN_BEYOND`] samples lie beyond it: a p90 needs 100 samples.

/// Samples that must lie beyond a tail quantile (`q > 0.5`) for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (any order), or `None` when
/// there are no samples, or when `q > 0.5` and fewer than [`MIN_BEYOND`]
/// samples lie beyond it. Medians are always reported: each sample of the
/// batch workload is a deterministic second-long computation, so a
/// median of a handful is meaningful where a tail would not be.
///
/// # Panics
///
/// Panics if `q` is not in `(0, 1]` or a sample is NaN.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Rank in 1..=n; the small epsilon keeps q·n from rounding up past an
    // exact integer (0.9 × 100 = 90.000000000000014 in binary).
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    Some(sorted[rank - 1])
}

/// The nearest-rank median (`None` when empty).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&s), Some(5.0));
        assert_eq!(quantile(&s, 0.1), Some(1.0));
        assert_eq!(quantile(&s, 0.25), Some(3.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), Some(900.0));
        assert_eq!(quantile(&s, 0.99), Some(990.0));
    }
}
