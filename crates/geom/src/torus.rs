//! The toroidal operational region.
//!
//! The paper's operational region is a unit square "supposed to be a torus
//! so that we can ignore the boundary effect" (§II-A). [`Torus`] provides
//! the wrap-around metric: displacements, distances, and directions are
//! always taken along the minimal image.

use crate::angle::Angle;
use crate::point::Point;
use std::fmt;

/// A square region of side `side` with opposite edges identified
/// (a flat torus).
///
/// All coverage geometry in this project is computed relative to a torus so
/// that asymptotic results are not polluted by boundary effects, exactly as
/// in the paper.
///
/// # Examples
///
/// ```
/// use fullview_geom::{Point, Torus};
///
/// let t = Torus::unit();
/// // Points near opposite edges are close through the seam:
/// let a = Point::new(0.05, 0.5);
/// let b = Point::new(0.95, 0.5);
/// assert!((t.distance(a, b) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Torus {
    side: f64,
}

impl Torus {
    /// The unit torus (side 1), the paper's operational region.
    #[must_use]
    pub fn unit() -> Self {
        Torus { side: 1.0 }
    }

    /// A torus with the given side length.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not finite and strictly positive.
    #[must_use]
    pub fn with_side(side: f64) -> Self {
        assert!(
            side.is_finite() && side > 0.0,
            "torus side must be finite and positive, got {side}"
        );
        Torus { side }
    }

    /// The side length.
    #[must_use]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The area of the region.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.side * self.side
    }

    /// Half the side length — the largest unambiguous displacement along
    /// one axis, and therefore an upper bound on meaningful sensing radii.
    #[must_use]
    pub fn half_side(&self) -> f64 {
        self.side / 2.0
    }

    /// Maps a point into the fundamental domain `[0, side) × [0, side)`.
    #[must_use]
    pub fn wrap(&self, p: Point) -> Point {
        Point::new(wrap_coord(p.x, self.side), wrap_coord(p.y, self.side))
    }

    /// Whether `p` already lies in the fundamental domain.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        (0.0..self.side).contains(&p.x) && (0.0..self.side).contains(&p.y)
    }

    /// Minimal-image displacement from `a` to `b`: the shortest vector
    /// `(dx, dy)` such that `a + (dx, dy) ≡ b` on the torus. Each component
    /// lies in `[-side/2, side/2)`.
    #[must_use]
    pub fn displacement(&self, a: Point, b: Point) -> (f64, f64) {
        (
            wrap_delta(b.x - a.x, self.side),
            wrap_delta(b.y - a.y, self.side),
        )
    }

    /// Geodesic distance between `a` and `b` on the torus.
    #[must_use]
    pub fn distance(&self, a: Point, b: Point) -> f64 {
        let (dx, dy) = self.displacement(a, b);
        dx.hypot(dy)
    }

    /// Squared geodesic distance (avoids the square root in hot loops).
    #[must_use]
    pub fn distance_squared(&self, a: Point, b: Point) -> f64 {
        let (dx, dy) = self.displacement(a, b);
        dx * dx + dy * dy
    }

    /// Direction of the minimal-image vector from `a` to `b`, or `None` if
    /// the points coincide (within numeric tolerance).
    ///
    /// For a target `P` and sensor `S`, `direction(P, S)` is the paper's
    /// *viewed direction* `P→S`.
    #[must_use]
    pub fn direction(&self, a: Point, b: Point) -> Option<Angle> {
        let (dx, dy) = self.displacement(a, b);
        Angle::from_vector(dx, dy)
    }

    /// The point reached from `p` by moving `distance` in direction `dir`,
    /// wrapped into the fundamental domain.
    #[must_use]
    pub fn offset(&self, p: Point, dir: Angle, distance: f64) -> Point {
        let (ux, uy) = dir.unit_vector();
        self.wrap(p.translate(ux * distance, uy * distance))
    }

    /// Wraps a single coordinate difference into `[-side/2, side/2)` — one
    /// axis of [`displacement`](Self::displacement).
    ///
    /// Batch sweeps factor a tile's displacements per axis: wrapping each
    /// column's `Δx` and each row's `Δy` once gives every `(column, row)`
    /// pair's displacement as the wrapped pair, bit-identical to calling
    /// `displacement` point by point.
    #[must_use]
    pub fn wrap_coord_delta(&self, d: f64) -> f64 {
        wrap_delta(d, self.side)
    }
}

impl Default for Torus {
    fn default() -> Self {
        Torus::unit()
    }
}

impl fmt::Display for Torus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Torus(side={})", self.side)
    }
}

fn wrap_coord(x: f64, side: f64) -> f64 {
    let w = x.rem_euclid(side);
    if w >= side {
        0.0
    } else {
        w
    }
}

/// Wraps a coordinate difference into `[-side/2, side/2)`.
///
/// Bit-identical to `(d + side/2).rem_euclid(side) − side/2` (folding a
/// rounded `side/2` to `−side/2`), but without the `fmod` whenever
/// `v = d + side/2` lies in `(−side, 2·side)` — always for a difference of
/// two coordinates already wrapped into `[0, side)`. There `v % side` is
/// `v` itself on `(−side, side)`, and `v − side` on `[side, 2·side)`,
/// which the subtraction computes exactly (Sterbenz); so one comparison
/// and one add or subtract reproduce `rem_euclid`'s value, `−0.0`
/// included.
fn wrap_delta(d: f64, side: f64) -> f64 {
    let half = side / 2.0;
    let v = d + half;
    let r = if v >= 0.0 && v < side {
        v
    } else if v < 0.0 && v > -side {
        v + side
    } else if v >= side && v < 2.0 * side {
        v - side
    } else {
        v.rem_euclid(side)
    };
    let w = r - half;
    if w >= half {
        -half
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wrap_into_domain() {
        let t = Torus::unit();
        let p = t.wrap(Point::new(1.25, -0.25));
        assert!((p.x - 0.25).abs() < 1e-12);
        assert!((p.y - 0.75).abs() < 1e-12);
        assert!(t.contains(p));
    }

    #[test]
    fn wrap_is_idempotent() {
        let t = Torus::with_side(2.0);
        let p = t.wrap(Point::new(5.3, -7.7));
        assert_eq!(t.wrap(p), p);
    }

    #[test]
    fn distance_through_seam_is_short() {
        let t = Torus::unit();
        let a = Point::new(0.05, 0.05);
        let b = Point::new(0.95, 0.95);
        // Direct distance would be ~1.27; through the corner it's ~0.141.
        assert!((t.distance(a, b) - (0.1f64 * 0.1 + 0.1 * 0.1).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn distance_within_domain_matches_euclidean() {
        let t = Torus::unit();
        let a = Point::new(0.3, 0.3);
        let b = Point::new(0.4, 0.45);
        assert!((t.distance(a, b) - a.euclidean_distance(b)).abs() < 1e-12);
    }

    #[test]
    fn max_distance_is_half_diagonal() {
        let t = Torus::unit();
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.5, 0.5);
        assert!((t.distance(a, b) - 0.5f64.hypot(0.5)).abs() < 1e-12);
        // No pair can be farther.
        let c = Point::new(0.6, 0.6);
        assert!(t.distance(a, c) <= 0.5f64.hypot(0.5) + 1e-12);
    }

    #[test]
    fn displacement_components_in_half_open_range() {
        let t = Torus::unit();
        let a = Point::new(0.0, 0.0);
        for (bx, by) in [(0.5, 0.5), (0.49, 0.51), (0.999, 0.001), (0.25, 0.75)] {
            let (dx, dy) = t.displacement(a, Point::new(bx, by));
            assert!((-0.5..0.5).contains(&dx), "dx={dx}");
            assert!((-0.5..0.5).contains(&dy), "dy={dy}");
        }
    }

    #[test]
    fn direction_through_seam() {
        let t = Torus::unit();
        let p = Point::new(0.95, 0.5);
        let s = Point::new(0.05, 0.5);
        // Viewed direction from p to s points in +x through the seam.
        let dir = t.direction(p, s).unwrap();
        assert!(dir.approx_eq(Angle::ZERO), "{dir}");
    }

    #[test]
    fn direction_of_coincident_points_is_none() {
        let t = Torus::unit();
        let p = Point::new(0.5, 0.5);
        assert!(t.direction(p, p).is_none());
    }

    #[test]
    fn distance_squared_consistent() {
        let t = Torus::unit();
        let a = Point::new(0.1, 0.9);
        let b = Point::new(0.8, 0.2);
        let d = t.distance(a, b);
        assert!((t.distance_squared(a, b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn offset_roundtrip() {
        let t = Torus::unit();
        let p = Point::new(0.9, 0.9);
        let q = t.offset(p, Angle::new(PI / 4.0), 0.3);
        assert!(t.contains(q));
        assert!((t.distance(p, q) - 0.3).abs() < 1e-12);
        assert!(t.direction(p, q).unwrap().approx_eq(Angle::new(PI / 4.0)));
    }

    #[test]
    fn triangle_inequality_samples() {
        let t = Torus::unit();
        let pts = [
            Point::new(0.1, 0.2),
            Point::new(0.8, 0.9),
            Point::new(0.5, 0.01),
        ];
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c) + 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_side_panics() {
        let _ = Torus::with_side(0.0);
    }

    #[test]
    fn non_unit_side_scales() {
        let t = Torus::with_side(10.0);
        let a = Point::new(0.5, 5.0);
        let b = Point::new(9.5, 5.0);
        assert!((t.distance(a, b) - 1.0).abs() < 1e-12);
        assert_eq!(t.area(), 100.0);
        assert_eq!(t.half_side(), 5.0);
    }
}
