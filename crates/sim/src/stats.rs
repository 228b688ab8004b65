//! Normal-distribution helpers for experiment analysis.
//!
//! The §VI-A experiment ("decisive role of sensing area") compares each
//! sensing shape's mean full-view fraction with a baseline's by a Welch
//! z statistic on per-trial fractions; its two-sided p-value needs the
//! standard normal CDF, which is small enough to implement directly.

/// The standard normal CDF `Φ(x)`, via the Abramowitz & Stegun 7.1.26
/// polynomial approximation of `erf` (absolute error < 1.5e-7 — ample for
/// p-values).
#[must_use]
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (A&S 7.1.26).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_reference_table_to_1e6() {
        // Reference values from the standard erf table (A&S Table 7.1 /
        // any modern reference implementation, 9 significant digits). The
        // 7.1.26 approximation claims |error| < 1.5e-7; the service's
        // confidence reporting budgets 1e-6.
        let table = [
            (0.0, 0.0),
            (0.1, 0.112_462_916),
            (0.25, 0.276_326_390),
            (0.5, 0.520_499_878),
            (0.75, 0.711_155_634),
            (1.0, 0.842_700_793),
            (1.5, 0.966_105_146),
            (2.0, 0.995_322_265),
            (2.5, 0.999_593_048),
            (3.0, 0.999_977_910),
        ];
        for (x, want) in table {
            assert!(
                (erf(x) - want).abs() <= 1e-6,
                "erf({x}) = {}, want {want}",
                erf(x)
            );
            assert!(
                (erf(-x) + want).abs() <= 1e-6,
                "erf(-{x}) must mirror erf({x})"
            );
        }
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12); // odd by construction
        assert!(erf(5.0) > 0.999_999);
    }

    #[test]
    fn normal_cdf_matches_reference_table_to_1e6() {
        // Φ(z) table values to 9 significant digits.
        let table = [
            (0.0, 0.5),
            (0.5, 0.691_462_461),
            (1.0, 0.841_344_746),
            (1.5, 0.933_192_799),
            (1.96, 0.975_002_105),
            (2.0, 0.977_249_868),
            (2.576, 0.995_002_467),
            (3.0, 0.998_650_102),
        ];
        for (z, want) in table {
            let got = standard_normal_cdf(z);
            assert!((got - want).abs() <= 1e-6, "Φ({z}) = {got}, want {want}");
            // Symmetry: Φ(-z) = 1 - Φ(z).
            let neg = standard_normal_cdf(-z);
            assert!((neg - (1.0 - want)).abs() <= 1e-6, "Φ(-{z}) = {neg}");
        }
    }
}
