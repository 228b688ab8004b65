//! Exact full-view coverage of a point (Definition 1).
//!
//! A point `P` is full-view covered with effective angle `θ` if **every**
//! facing direction `d⃗` has a covering camera `S` with `∠(d⃗, P→S) ≤ θ`.
//! Two equivalent exact algorithms are provided:
//!
//! * the **angular-gap** check: sort the viewed directions of all covering
//!   cameras; `P` is full-view covered iff no circular gap between
//!   consecutive directions exceeds `2θ` (`O(c log c)` in the number of
//!   covering cameras) — this is the fast path used by the dense-grid
//!   sweeps;
//! * the **safe-arc-set** check: union the arcs `[β−θ, β+θ]` around each
//!   viewed direction `β` and test whether the union is the full circle —
//!   slower, but it also yields the exact *unsafe* directions (the
//!   coverage holes of §VI-C), and serves as an independent oracle for
//!   property-testing the gap method.

use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Arc, ArcSet, Point, ANGLE_EPS};
use fullview_model::{CameraNetwork, CoverageProvider};
use std::f64::consts::TAU;

/// Result of analysing the full-view coverage of a single point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointCoverage {
    /// Number of cameras covering the point.
    pub covering_cameras: usize,
    /// Whether a covering camera is co-located with the point (and can
    /// therefore view it from any side).
    pub has_colocated_camera: bool,
    /// The sorted viewed directions of the covering cameras (co-located
    /// cameras excluded).
    pub viewed_directions: Vec<Angle>,
    /// The largest circular gap between consecutive viewed directions
    /// (`2π` when at most one direction exists and no co-located camera).
    pub largest_gap: f64,
}

impl PointCoverage {
    /// Borrows this analysis as a [`CoverageView`].
    #[must_use]
    pub fn as_view(&self) -> CoverageView<'_> {
        CoverageView {
            covering_cameras: self.covering_cameras,
            has_colocated_camera: self.has_colocated_camera,
            viewed_directions: &self.viewed_directions,
            largest_gap: self.largest_gap,
        }
    }

    /// Whether the point is full-view covered for effective angle `theta`:
    /// the largest gap between viewed directions is at most `2θ`.
    #[must_use]
    pub fn is_full_view(&self, theta: EffectiveAngle) -> bool {
        self.as_view().is_full_view(theta)
    }

    /// The *worst* effective angle this point supports: the smallest `θ`
    /// for which it would be full-view covered, `largest_gap / 2`.
    ///
    /// Returns `None` when the point is not full-view coverable for any
    /// `θ ≤ π` (fewer than one viewed direction, or a gap wider than
    /// `2π`... i.e. no cameras at all).
    #[must_use]
    pub fn critical_theta(&self) -> Option<f64> {
        self.as_view().critical_theta()
    }
}

/// A borrowed view of a point's coverage analysis — the same facts as
/// [`PointCoverage`], with the sorted viewed directions borrowing a
/// caller-owned buffer (see [`PointAnalyzer::analyze_point_into`]).
#[derive(Debug, Clone, Copy)]
pub struct CoverageView<'a> {
    /// Number of cameras covering the point.
    pub covering_cameras: usize,
    /// Whether a covering camera is co-located with the point.
    pub has_colocated_camera: bool,
    /// The sorted viewed directions of the covering cameras (co-located
    /// cameras excluded).
    pub viewed_directions: &'a [Angle],
    /// The largest circular gap between consecutive viewed directions
    /// (`2π` when at most one direction exists).
    pub largest_gap: f64,
}

impl CoverageView<'_> {
    /// Whether the point is full-view covered for effective angle `theta`:
    /// the largest gap between viewed directions is at most `2θ`.
    #[must_use]
    pub fn is_full_view(&self, theta: EffectiveAngle) -> bool {
        if self.has_colocated_camera {
            return true;
        }
        // At least one camera must cover the point: with θ = π a single
        // viewed direction suffices (gap exactly 2π = 2θ), but zero
        // directions never do — full-view coverage implies 1-coverage.
        !self.viewed_directions.is_empty() && self.largest_gap <= theta.max_gap() + 2.0 * ANGLE_EPS
    }

    /// The *worst* effective angle this point supports — see
    /// [`PointCoverage::critical_theta`].
    #[must_use]
    pub fn critical_theta(&self) -> Option<f64> {
        if self.has_colocated_camera {
            return Some(0.0);
        }
        if self.covering_cameras == 0 {
            return None;
        }
        Some(self.largest_gap / 2.0)
    }

    /// The view multiplicity at effective angle `theta`: the minimum, over
    /// all facing directions, of the number of covering cameras watching
    /// the direction within `θ` (see [`crate::view_multiplicity`]). Every
    /// co-located camera watches every direction, so each counts one.
    #[must_use]
    pub fn view_multiplicity(&self, theta: EffectiveAngle) -> usize {
        self.view_multiplicity_with(theta, &mut Vec::new())
    }

    /// [`view_multiplicity`](Self::view_multiplicity) on a caller-owned
    /// arc-sweep event buffer.
    pub(crate) fn view_multiplicity_with(
        &self,
        theta: EffectiveAngle,
        events: &mut Vec<(f64, i32)>,
    ) -> usize {
        let colocated = self.covering_cameras - self.viewed_directions.len();
        crate::kfullview::min_arc_depth_with(self.viewed_directions, theta.radians(), events)
            + colocated
    }

    /// Copies the borrowed analysis into an owned [`PointCoverage`].
    #[must_use]
    pub fn to_owned(&self) -> PointCoverage {
        PointCoverage {
            covering_cameras: self.covering_cameras,
            has_colocated_camera: self.has_colocated_camera,
            viewed_directions: self.viewed_directions.to_vec(),
            largest_gap: self.largest_gap,
        }
    }
}

/// Gathers the covering cameras of `point` into `dirs` (cleared first,
/// sorted on return) and returns `(covering_cameras, has_colocated)`.
///
/// Generic over the query backend — the whole-network spatial walk or a
/// pinned [`TileCursor`](fullview_model::TileCursor) — so both produce
/// identical analyses: candidate enumeration order is erased by the sort.
fn gather_directions<P: CoverageProvider>(
    provider: &P,
    point: Point,
    dirs: &mut Vec<Angle>,
) -> (usize, bool) {
    dirs.clear();
    let mut covering = 0usize;
    let mut colocated = false;
    let torus = provider.torus();
    provider.for_each_covering(point, |cam| {
        covering += 1;
        match cam.viewed_direction(torus, point) {
            Some(d) => dirs.push(d),
            None => colocated = true,
        }
    });
    // Unstable sort: no allocation (stable merge sort buffers), and equal
    // angles are indistinguishable so stability is irrelevant.
    dirs.sort_unstable_by(Angle::cmp_by_radians);
    (covering, colocated)
}

/// Analyses the coverage of `point`: gathers covering cameras, their
/// viewed directions, and the largest angular gap.
///
/// This is the shared work of every per-point predicate. One-shot callers
/// get an owned [`PointCoverage`]; loops evaluating many points should
/// hold a [`PointAnalyzer`] and use
/// [`analyze_point_into`](PointAnalyzer::analyze_point_into), which reuses
/// one buffer across calls.
#[must_use]
pub fn analyze_point(net: &CameraNetwork, point: Point) -> PointCoverage {
    let mut dirs: Vec<Angle> = Vec::new();
    let (covering, colocated) = gather_directions(net, point, &mut dirs);
    let largest_gap = largest_circular_gap(&dirs);
    PointCoverage {
        covering_cameras: covering,
        has_colocated_camera: colocated,
        viewed_directions: dirs,
        largest_gap,
    }
}

/// Reusable scratch state for allocation-free per-point coverage analysis.
///
/// The dense-grid sweeps call [`analyze_point_into`] once per grid point;
/// after the buffer warms up to the largest covering-camera count, the hot
/// loop performs no heap allocation at all.
///
/// [`analyze_point_into`]: PointAnalyzer::analyze_point_into
///
/// # Examples
///
/// ```
/// use fullview_core::{analyze_point, PointAnalyzer};
/// use fullview_geom::{Point, Torus};
/// use fullview_model::CameraNetwork;
///
/// let net = CameraNetwork::new(Torus::unit(), Vec::new());
/// let mut analyzer = PointAnalyzer::new();
/// let p = Point::new(0.25, 0.75);
/// let view = analyzer.analyze_point_into(&net, p);
/// assert_eq!(view.to_owned(), analyze_point(&net, p));
/// ```
#[derive(Debug, Default, Clone)]
pub struct PointAnalyzer {
    dirs: Vec<Angle>,
}

impl PointAnalyzer {
    /// Creates an analyzer with an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer whose buffer already holds room for `cap`
    /// viewed directions (one per covering camera).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        PointAnalyzer {
            dirs: Vec::with_capacity(cap),
        }
    }

    /// Analyses the coverage of `point` into this analyzer's scratch
    /// buffer, returning a [`CoverageView`] borrowing it.
    ///
    /// Produces results identical to [`analyze_point`] (the returned view
    /// `to_owned()` equals the owned analysis) without allocating once the
    /// buffer has grown to the local camera density.
    #[must_use]
    pub fn analyze_point_into(&mut self, net: &CameraNetwork, point: Point) -> CoverageView<'_> {
        self.analyze_point_with(net, point)
    }

    /// [`analyze_point_into`](Self::analyze_point_into) generalized over
    /// the query backend: accepts anything implementing
    /// [`CoverageProvider`] — the whole network, or a
    /// [`TileCursor`](fullview_model::TileCursor) pinned to the tile
    /// containing `point`. This is the single analysis path of the tile
    /// evaluation engine; both backends yield bit-identical views.
    #[must_use]
    pub fn analyze_point_with<P: CoverageProvider>(
        &mut self,
        provider: &P,
        point: Point,
    ) -> CoverageView<'_> {
        let (covering, colocated) = gather_directions(provider, point, &mut self.dirs);
        let largest_gap = largest_circular_gap(&self.dirs);
        CoverageView {
            covering_cameras: covering,
            has_colocated_camera: colocated,
            viewed_directions: &self.dirs,
            largest_gap,
        }
    }
}

/// The largest circular gap between consecutive angles of a **sorted**
/// slice (by radians). Returns `2π` for an empty or singleton-free slice
/// (zero angles); a single angle also yields `2π` minus nothing — the gap
/// wraps all the way around, which is `2π`.
///
/// This is the inner predicate of [`CoverageView::is_full_view`]: a point
/// is full-view covered iff the largest gap between its sorted viewed
/// directions is at most `2θ` (Theorem 1). Public so property tests can
/// pin it against a naive `O(n²)` reference.
///
/// # Panics
///
/// Does not panic, but the result is only meaningful when `sorted` really
/// is sorted ascending by radians.
pub fn largest_circular_gap(sorted: &[Angle]) -> f64 {
    match sorted.len() {
        0 => TAU,
        1 => TAU,
        _ => {
            let mut max_gap = sorted[0].radians() + TAU - sorted[sorted.len() - 1].radians();
            for w in sorted.windows(2) {
                max_gap = max_gap.max(w[1].radians() - w[0].radians());
            }
            max_gap
        }
    }
}

/// Whether `point` is full-view covered by `net` for effective angle
/// `theta` — the angular-gap algorithm.
///
/// # Examples
///
/// ```
/// use fullview_core::{is_full_view_covered, EffectiveAngle};
/// use fullview_geom::{Angle, Point, Torus};
/// use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
/// use std::f64::consts::PI;
///
/// let theta = EffectiveAngle::new(PI / 3.0)?;
/// let target = Point::new(0.5, 0.5);
/// let torus = Torus::unit();
/// let spec = SensorSpec::new(0.3, PI)?;
/// // Three cameras at 120° spacing around the target, all facing it:
/// // every gap is exactly 2π/3 = 2θ, so the point is full-view covered.
/// let cams: Vec<Camera> = (0..3)
///     .map(|k| {
///         let dir = Angle::new(k as f64 * 2.0 * PI / 3.0);
///         Camera::new(torus.offset(target, dir, 0.2), dir.opposite(), spec, GroupId(0))
///     })
///     .collect();
/// let net = CameraNetwork::new(torus, cams);
/// assert!(is_full_view_covered(&net, target, theta));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn is_full_view_covered(net: &CameraNetwork, point: Point, theta: EffectiveAngle) -> bool {
    analyze_point(net, point).is_full_view(theta)
}

/// The set of *safe* facing directions of `point` (Definition 1): the
/// union of arcs of half-width `θ` around each viewed direction. The point
/// is full-view covered iff this set is the whole circle.
#[must_use]
pub fn safe_directions(net: &CameraNetwork, point: Point, theta: EffectiveAngle) -> ArcSet {
    let cov = analyze_point(net, point);
    if cov.has_colocated_camera {
        return ArcSet::full_circle();
    }
    ArcSet::from_centered_arcs(cov.viewed_directions.iter().copied(), theta.radians())
}

/// The *unsafe* facing directions of `point` — the coverage holes of
/// §VI-C. Empty iff the point is full-view covered.
#[must_use]
pub fn unsafe_directions(net: &CameraNetwork, point: Point, theta: EffectiveAngle) -> Vec<Arc> {
    safe_directions(net, point, theta).gaps()
}

/// Whether a specific facing direction `d` of `point` is safe: some
/// covering camera's viewed direction lies within `θ` of `d`.
#[must_use]
pub fn is_direction_safe(
    net: &CameraNetwork,
    point: Point,
    theta: EffectiveAngle,
    d: Angle,
) -> bool {
    let mut safe = false;
    net.for_each_covering(point, |cam| {
        if safe {
            return;
        }
        match cam.viewed_direction(net.torus(), point) {
            Some(viewed) => {
                if viewed.distance(d) <= theta.radians() + ANGLE_EPS {
                    safe = true;
                }
            }
            None => safe = true,
        }
    });
    safe
}

/// The fraction of facing directions of `point` that are safe — the
/// probability that an object at `point` facing a uniformly random
/// direction is captured within the effective angle.
///
/// `1.0` iff the point is full-view covered; between 0 and 1 it grades
/// partial protection (useful as a soft coverage quality score when the
/// full guarantee is out of budget).
///
/// ```
/// use fullview_core::{safe_fraction, EffectiveAngle};
/// use fullview_geom::Torus;
/// use fullview_model::CameraNetwork;
/// use std::f64::consts::PI;
///
/// let net = CameraNetwork::new(Torus::unit(), Vec::new());
/// let theta = EffectiveAngle::new(PI / 4.0)?;
/// assert_eq!(safe_fraction(&net, fullview_geom::Point::new(0.5, 0.5), theta), 0.0);
/// # Ok::<(), fullview_core::CoreError>(())
/// ```
#[must_use]
pub fn safe_fraction(net: &CameraNetwork, point: Point, theta: EffectiveAngle) -> f64 {
    safe_directions(net, point, theta).measure() / TAU
}

/// Whether `point` is full-view covered — the independent safe-arc-set
/// algorithm, used as an oracle against
/// [`is_full_view_covered`]. Prefer the gap algorithm in hot paths.
#[must_use]
pub fn is_full_view_covered_arcset(
    net: &CameraNetwork,
    point: Point,
    theta: EffectiveAngle,
) -> bool {
    safe_directions(net, point, theta).covers_circle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::Torus;
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    /// Cameras surrounding `target` at the given directions, all facing it.
    fn ring_network(target: Point, directions: &[f64], dist: f64, r: f64) -> CameraNetwork {
        let torus = Torus::unit();
        let spec = SensorSpec::new(r, PI).unwrap();
        let cams: Vec<Camera> = directions
            .iter()
            .map(|&d| {
                let dir = Angle::new(d);
                Camera::new(
                    torus.offset(target, dir, dist),
                    dir.opposite(),
                    spec,
                    GroupId(0),
                )
            })
            .collect();
        CameraNetwork::new(torus, cams)
    }

    #[test]
    fn empty_network_not_covered() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let p = Point::new(0.5, 0.5);
        assert!(!is_full_view_covered(&net, p, theta(PI)));
        assert!(!is_full_view_covered_arcset(&net, p, theta(PI)));
        assert!(analyze_point(&net, p).critical_theta().is_none());
    }

    #[test]
    fn single_camera_covers_only_at_theta_pi() {
        let p = Point::new(0.5, 0.5);
        let net = ring_network(p, &[0.0], 0.1, 0.3);
        assert!(is_full_view_covered(&net, p, theta(PI)));
        assert!(!is_full_view_covered(&net, p, theta(PI - 0.01)));
    }

    #[test]
    fn evenly_spaced_ring_critical_theta() {
        let p = Point::new(0.5, 0.5);
        for k in [3usize, 4, 5, 8] {
            let dirs: Vec<f64> = (0..k).map(|i| i as f64 * TAU / k as f64).collect();
            let net = ring_network(p, &dirs, 0.1, 0.3);
            let crit = PI / k as f64; // gaps are 2π/k = 2·(π/k)
            assert!(
                is_full_view_covered(&net, p, theta(crit + 1e-6)),
                "k={k} should cover just above critical"
            );
            assert!(
                !is_full_view_covered(&net, p, theta(crit - 1e-6)),
                "k={k} should fail just below critical"
            );
            let analysed = analyze_point(&net, p);
            assert!((analysed.critical_theta().unwrap() - crit).abs() < 1e-9);
        }
    }

    #[test]
    fn uneven_ring_fails_on_big_gap() {
        let p = Point::new(0.5, 0.5);
        // Directions clustered in the right half-plane: huge gap on the left.
        let net = ring_network(p, &[0.0, 0.5, 1.0, 1.5, 2.0], 0.1, 0.3);
        // Gap from 2.0 back to 0 is 2π - 2 ≈ 4.28 > 2θ for θ = π/2.
        assert!(!is_full_view_covered(&net, p, theta(PI / 2.0)));
        // The paper's point: k-coverage (here 5-coverage) does not imply
        // full-view coverage.
        assert_eq!(net.coverage_count(p), 5);
    }

    #[test]
    fn out_of_range_cameras_do_not_help() {
        let p = Point::new(0.5, 0.5);
        // Ring at distance 0.2 with sensing radius 0.1: nobody covers P.
        let dirs: Vec<f64> = (0..8).map(|i| i as f64 * TAU / 8.0).collect();
        let net = ring_network(p, &dirs, 0.2, 0.1);
        assert_eq!(net.coverage_count(p), 0);
        assert!(!is_full_view_covered(&net, p, theta(PI)));
    }

    #[test]
    fn colocated_camera_covers_everything() {
        let torus = Torus::unit();
        let p = Point::new(0.5, 0.5);
        let spec = SensorSpec::new(0.1, PI / 4.0).unwrap();
        let net = CameraNetwork::new(torus, vec![Camera::new(p, Angle::ZERO, spec, GroupId(0))]);
        assert!(is_full_view_covered(&net, p, theta(0.01)));
        assert!(is_full_view_covered_arcset(&net, p, theta(0.01)));
        assert_eq!(analyze_point(&net, p).critical_theta(), Some(0.0));
    }

    #[test]
    fn gap_and_arcset_agree_on_ring_cases() {
        let p = Point::new(0.3, 0.7);
        for k in 1..8usize {
            let dirs: Vec<f64> = (0..k).map(|i| i as f64 * TAU / k as f64 + 0.3).collect();
            let net = ring_network(p, &dirs, 0.12, 0.3);
            for t in [0.2, PI / 4.0, PI / 2.0, PI * 0.9, PI] {
                let th = theta(t);
                assert_eq!(
                    is_full_view_covered(&net, p, th),
                    is_full_view_covered_arcset(&net, p, th),
                    "k={k}, θ={t}"
                );
            }
        }
    }

    #[test]
    fn safe_directions_measure_matches_expectation() {
        let p = Point::new(0.5, 0.5);
        // One camera east of the point: safe arc of width 2θ around 0.
        let net = ring_network(p, &[0.0], 0.1, 0.3);
        let th = theta(PI / 4.0);
        let safe = safe_directions(&net, p, th);
        assert!((safe.measure() - 2.0 * th.radians()).abs() < 1e-9);
        assert!(is_direction_safe(&net, p, th, Angle::ZERO));
        assert!(is_direction_safe(&net, p, th, Angle::new(PI / 4.0 - 0.01)));
        assert!(!is_direction_safe(&net, p, th, Angle::new(PI)));
    }

    #[test]
    fn unsafe_directions_complement_safe() {
        let p = Point::new(0.5, 0.5);
        let net = ring_network(p, &[0.0, PI], 0.1, 0.3);
        let th = theta(PI / 4.0);
        let holes = unsafe_directions(&net, p, th);
        assert_eq!(holes.len(), 2);
        let hole_total: f64 = holes.iter().map(Arc::width).sum();
        assert!((hole_total - (TAU - 4.0 * th.radians())).abs() < 1e-9);
        // The bisector of each hole is indeed unsafe.
        for h in &holes {
            assert!(!is_direction_safe(&net, p, th, h.bisector()));
        }
    }

    #[test]
    fn viewed_directions_sorted() {
        let p = Point::new(0.5, 0.5);
        let net = ring_network(p, &[3.0, 1.0, 5.0, 0.2], 0.1, 0.3);
        let cov = analyze_point(&net, p);
        assert_eq!(cov.covering_cameras, 4);
        assert!(cov
            .viewed_directions
            .windows(2)
            .all(|w| w[0].radians() <= w[1].radians()));
    }

    #[test]
    fn exact_tiling_boundary_is_covered() {
        // Gaps exactly equal to 2θ: closed-condition semantics say covered.
        let p = Point::new(0.5, 0.5);
        let dirs: Vec<f64> = (0..4).map(|i| i as f64 * TAU / 4.0).collect();
        let net = ring_network(p, &dirs, 0.1, 0.3);
        assert!(is_full_view_covered(&net, p, theta(PI / 4.0)));
        assert!(is_full_view_covered_arcset(&net, p, theta(PI / 4.0)));
    }
}
