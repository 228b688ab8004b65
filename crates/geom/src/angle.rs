//! Angles on the unit circle.
//!
//! Full-view coverage analysis is, at its heart, reasoning about *directions*:
//! the facing direction of an object, the viewed direction `P→S` towards a
//! camera, and camera orientations. [`Angle`] is a newtype over `f64` radians
//! that is always kept normalized to `[0, 2π)`, so that circular arithmetic
//! (wrap-around distance, counter-clockwise deltas, arc membership) is
//! well-defined and cheap.

use std::f64::consts::{PI, TAU};
use std::fmt;

/// Absolute tolerance used for angular comparisons throughout the crate.
///
/// Directions are derived from `atan2` of coordinate differences, so an
/// epsilon a few orders of magnitude above `f64::EPSILON` absorbs the
/// round-trip error without ever being visible at the scale of effective
/// angles (`θ ≥ 0.01π` in all practical configurations).
pub const ANGLE_EPS: f64 = 1e-9;

/// A direction on the unit circle, normalized to `[0, 2π)` radians.
///
/// `Angle` is a *point* on the circle, not a rotation amount; rotation
/// amounts (widths, deltas) are plain `f64` radians. This distinction keeps
/// signatures honest: an [`crate::Arc`] has an `Angle` start and an `f64`
/// width.
///
/// # Examples
///
/// ```
/// use fullview_geom::Angle;
/// use std::f64::consts::PI;
///
/// let a = Angle::new(0.25 * PI);
/// let b = Angle::new(-0.25 * PI); // normalized to 1.75π
/// assert!((b.radians() - 1.75 * PI).abs() < 1e-12);
/// // Circular distance wraps: the short way round is π/2, not 3π/2.
/// assert!((a.distance(b) - 0.5 * PI).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Angle(f64);

impl Angle {
    /// The zero direction (positive x-axis).
    pub const ZERO: Angle = Angle(0.0);

    /// Creates an angle from radians, normalizing into `[0, 2π)`.
    ///
    /// # Panics
    ///
    /// Panics if `radians` is not finite.
    #[must_use]
    pub fn new(radians: f64) -> Self {
        assert!(radians.is_finite(), "angle must be finite, got {radians}");
        Angle(normalize_radians(radians))
    }

    /// Creates an angle from degrees, normalizing into `[0°, 360°)`.
    ///
    /// ```
    /// use fullview_geom::Angle;
    /// assert!((Angle::from_degrees(450.0).degrees() - 90.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn from_degrees(degrees: f64) -> Self {
        Angle::new(degrees.to_radians())
    }

    /// Direction of the vector `(dx, dy)`.
    ///
    /// Returns `None` for the zero vector (and for sub-epsilon vectors,
    /// whose direction would be numerically meaningless).
    ///
    /// ```
    /// use fullview_geom::Angle;
    /// use std::f64::consts::PI;
    /// let up = Angle::from_vector(0.0, 1.0).unwrap();
    /// assert!((up.radians() - PI / 2.0).abs() < 1e-12);
    /// assert!(Angle::from_vector(0.0, 0.0).is_none());
    /// ```
    #[must_use]
    pub fn from_vector(dx: f64, dy: f64) -> Option<Self> {
        // `dx² + dy² ≥ 4e-18` proves `hypot ≥ 2e-9 > ANGLE_EPS` (the float
        // sum is within ulps of the true one), so only shorter vectors and
        // NaN pay for the `hypot`.
        let d2 = dx * dx + dy * dy;
        if (d2.is_nan() || d2 < 4e-18) && dx.hypot(dy) < ANGLE_EPS {
            return None;
        }
        let r = dy.atan2(dx);
        assert!(r.is_finite(), "angle must be finite, got {r}");
        // `atan2` lies in [−π, π], where `rem_euclid(TAU)` is this one
        // compare-and-add (`−0.0` stays `−0.0`); a rounded TAU folds to 0.
        let r = if r < 0.0 { r + TAU } else { r };
        Some(Angle(if r >= TAU { 0.0 } else { r }))
    }

    /// The normalized value in radians, guaranteed to lie in `[0, 2π)`.
    #[must_use]
    pub fn radians(self) -> f64 {
        self.0
    }

    /// The normalized value in degrees, in `[0°, 360°)`.
    #[must_use]
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Circular (geodesic) distance to `other`, in `[0, π]`.
    ///
    /// This is the quantity written `∠(d⃗, P⃗S)` in the paper: the smaller of
    /// the two arcs between the directions.
    #[must_use]
    pub fn distance(self, other: Angle) -> f64 {
        let d = (self.0 - other.0).abs();
        d.min(TAU - d)
    }

    /// Counter-clockwise rotation from `self` to `other`, in `[0, 2π)`.
    ///
    /// ```
    /// use fullview_geom::Angle;
    /// use std::f64::consts::PI;
    /// let a = Angle::new(1.75 * PI);
    /// let b = Angle::new(0.25 * PI);
    /// assert!((a.ccw_delta(b) - 0.5 * PI).abs() < 1e-12);
    /// assert!((b.ccw_delta(a) - 1.5 * PI).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn ccw_delta(self, other: Angle) -> f64 {
        let d = other.0 - self.0;
        if d < 0.0 {
            d + TAU
        } else {
            d
        }
    }

    /// Rotates by `delta` radians (positive = counter-clockwise),
    /// re-normalizing the result.
    #[must_use]
    pub fn rotate(self, delta: f64) -> Self {
        Angle::new(self.0 + delta)
    }

    /// The diametrically opposite direction.
    #[must_use]
    pub fn opposite(self) -> Self {
        self.rotate(PI)
    }

    /// Unit vector `(cos, sin)` pointing in this direction.
    #[must_use]
    pub fn unit_vector(self) -> (f64, f64) {
        (self.0.cos(), self.0.sin())
    }

    /// Whether this angle equals `other` within [`ANGLE_EPS`] circular
    /// distance (so `2π − ε` and `ε/2` compare equal).
    #[must_use]
    pub fn approx_eq(self, other: Angle) -> bool {
        self.distance(other) <= ANGLE_EPS
    }

    /// Total order on the normalized representative in `[0, 2π)`.
    ///
    /// `Angle` cannot implement `Ord` honestly (the circle has no canonical
    /// order), but sorting by representative is exactly what circular-gap
    /// algorithms need; this named comparator makes that intent explicit.
    #[must_use]
    pub fn cmp_by_radians(&self, other: &Angle) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("normalized angles are always finite")
    }
}

impl Default for Angle {
    fn default() -> Self {
        Angle::ZERO
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}rad", self.0)
    }
}

impl From<Angle> for f64 {
    fn from(a: Angle) -> f64 {
        a.radians()
    }
}

/// Normalizes radians into `[0, 2π)`.
///
/// Handles values many turns away from the principal range as well as the
/// awkward `-ε` case (which `rem_euclid` may round to exactly `2π`).
#[must_use]
pub fn normalize_radians(radians: f64) -> f64 {
    let r = radians.rem_euclid(TAU);
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Circular distance between two plain radian values, in `[0, π]`.
#[must_use]
pub fn circular_distance(a: f64, b: f64) -> f64 {
    Angle::new(a).distance(Angle::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_into_range() {
        for raw in [-10.0, -TAU, -1.0, 0.0, 1.0, TAU, 10.0, 100.0 * TAU + 0.5] {
            let a = Angle::new(raw);
            assert!(a.radians() >= 0.0 && a.radians() < TAU, "raw {raw} -> {a}");
        }
    }

    #[test]
    fn negative_epsilon_normalizes_to_zero_side() {
        let a = Angle::new(-1e-18);
        assert!(a.radians() < TAU);
        assert!(a.approx_eq(Angle::ZERO));
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = Angle::new(0.3);
        let b = Angle::new(5.9);
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-15);
        assert!(a.distance(b) <= PI + 1e-15);
    }

    #[test]
    fn distance_wraps_around_zero() {
        let a = Angle::new(0.1);
        let b = Angle::new(TAU - 0.1);
        assert!((a.distance(b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero_and_to_opposite_is_pi() {
        let a = Angle::new(1.234);
        assert_eq!(a.distance(a), 0.0);
        assert!((a.distance(a.opposite()) - PI).abs() < 1e-12);
    }

    #[test]
    fn ccw_delta_roundtrip() {
        let a = Angle::new(1.0);
        let b = Angle::new(4.0);
        let d = a.ccw_delta(b);
        assert!(a.rotate(d).approx_eq(b));
        assert!((a.ccw_delta(b) + b.ccw_delta(a) - TAU).abs() < 1e-12);
    }

    #[test]
    fn ccw_delta_to_self_is_zero() {
        let a = Angle::new(2.5);
        assert_eq!(a.ccw_delta(a), 0.0);
    }

    #[test]
    fn from_vector_cardinal_directions() {
        let cases = [
            ((1.0, 0.0), 0.0),
            ((0.0, 1.0), PI / 2.0),
            ((-1.0, 0.0), PI),
            ((0.0, -1.0), 1.5 * PI),
        ];
        for ((dx, dy), expect) in cases {
            let a = Angle::from_vector(dx, dy).unwrap();
            assert!(
                (a.radians() - expect).abs() < 1e-12,
                "({dx},{dy}) -> {a}, expected {expect}"
            );
        }
    }

    #[test]
    fn from_vector_zero_is_none() {
        assert!(Angle::from_vector(0.0, 0.0).is_none());
        assert!(Angle::from_vector(1e-12, -1e-12).is_none());
    }

    #[test]
    fn unit_vector_roundtrip() {
        for i in 0..32 {
            let a = Angle::new(i as f64 * TAU / 32.0);
            let (x, y) = a.unit_vector();
            let back = Angle::from_vector(x, y).unwrap();
            assert!(a.approx_eq(back), "{a} -> ({x},{y}) -> {back}");
        }
    }

    #[test]
    fn degrees_conversion() {
        assert!((Angle::from_degrees(90.0).radians() - PI / 2.0).abs() < 1e-12);
        assert!((Angle::new(PI).degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn display_shows_radians() {
        let s = format!("{}", Angle::new(1.0));
        assert!(s.contains("rad"));
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_panics() {
        let _ = Angle::new(f64::NAN);
    }

    #[test]
    fn sorting_by_radians_is_total_on_normalized_values() {
        let mut v = [Angle::new(3.0), Angle::new(1.0), Angle::new(6.0)];
        v.sort_by(Angle::cmp_by_radians);
        assert!(v.windows(2).all(|w| w[0].radians() <= w[1].radians()));
    }
}
