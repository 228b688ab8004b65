//! k-full-view coverage: fault-tolerant full-view coverage.
//!
//! Just as classical coverage hardens into k-coverage for fault
//! tolerance (§VII-B), full-view coverage hardens naturally: a point is
//! **k-full-view covered** when *every* facing direction is watched,
//! within the effective angle `θ`, by at least `k` distinct cameras — so
//! any `k − 1` camera failures leave the point full-view covered.
//!
//! Algorithm: the view multiplicity of a facing direction `d` is the
//! number of viewed directions within `θ` of `d`, i.e. the depth of `d`
//! under the arcs `[β_i − θ, β_i + θ]`, plus one for each camera
//! co-located with the point (it watches every direction). The minimum
//! depth over the circle is computed by a circular sweep over arc
//! endpoints; the point is k-full-view covered iff the multiplicity is at
//! least `k`.

use crate::densegrid::GridEvaluator;
use crate::engine::{sweep_grid, walk};
use crate::fullview::analyze_point;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Point, UnitGrid, ANGLE_EPS};
use fullview_model::CameraNetwork;
use std::f64::consts::TAU;

/// The minimum, over all facing directions, of the number of covering
/// cameras whose viewed direction lies within `θ` — the *view
/// multiplicity* of the point.
///
/// `0` means some facing direction is unwatched (not full-view covered);
/// `k` means the point survives any `k − 1` failures. Each camera
/// co-located with the point counts towards every direction.
#[must_use]
pub fn view_multiplicity(net: &CameraNetwork, point: Point, theta: EffectiveAngle) -> usize {
    analyze_point(net, point).as_view().view_multiplicity(theta)
}

/// Calls `f(index, multiplicity)` with the view multiplicity of every
/// point of `grid` — the batch counterpart of [`view_multiplicity`],
/// sweeping tile-coherently through the shared evaluation engine (points
/// arrive in tile order; key results by `index`).
pub fn for_each_view_multiplicity<F: FnMut(usize, usize)>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    mut f: F,
) {
    sweep_grid(net, grid, |idx, _, view| {
        f(idx, view.view_multiplicity(theta))
    });
}

/// Calls `f(index, met)` exactly once for every grid index in `lo..hi`
/// (tile order — key results by index), where `met` says whether the
/// point's view multiplicity is at least `k`. The walk hands each tile to
/// the k funnel behind [`GridEvaluator::for_each_point_k_in_rect`], which
/// pays for the exact arc sweep only on points the
/// [`SectorMaskKernel`](crate::SectorMaskKernel)'s depth screen leaves
/// undecided; the verdicts are bit-identical to the wholesale exact sweep
/// either way. `k = 0` holds at every point and walks nothing.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_k_range<F: FnMut(usize, bool)>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
    mut f: F,
) {
    if k == 0 {
        assert!(
            lo <= hi && hi <= grid.len(),
            "range {lo}..{hi} out of bounds for a grid of {} points",
            grid.len()
        );
        (lo..hi).for_each(|idx| f(idx, true));
        return;
    }
    // The depth screen's start line is arbitrary: the strict-depth
    // argument holds for any partition, and certainty is what routes to
    // the exact sweep.
    let mut evaluator = GridEvaluator::new(theta, Angle::ZERO);
    walk(net, grid, lo, hi, |unit| evaluator.unit_k(unit, k, &mut f));
}

/// Counts the points of the row-major grid index range `lo..hi` whose
/// view multiplicity is at least `k` — the sum of [`sweep_k_range`]'s
/// verdicts. Summing range counts over a partition of `0..grid.len()`
/// equals the full-grid count, since each point's multiplicity depends
/// only on the network.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
#[must_use]
pub fn count_k_view_range(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
) -> usize {
    let mut meeting = 0usize;
    sweep_k_range(net, grid, theta, k, lo, hi, |_, met| {
        meeting += usize::from(met);
    });
    meeting
}

/// Whether every facing direction of `point` is watched by at least `k`
/// cameras within the effective angle — see [`view_multiplicity`].
///
/// `k = 0` is trivially true; `k = 1` coincides with plain full-view
/// coverage.
#[must_use]
pub fn is_k_full_view_covered(
    net: &CameraNetwork,
    point: Point,
    theta: EffectiveAngle,
    k: usize,
) -> bool {
    if k == 0 {
        return true;
    }
    view_multiplicity(net, point, theta) >= k
}

/// Minimum coverage depth over the circle of the arcs of half-width
/// `half_width` centred on `centers`.
///
/// Circular sweep: each arc contributes a `+1` event at its start and a
/// `−1` event just after its end; scanning events in angular order while
/// carrying the wrap-around depth yields the running depth between
/// events, whose minimum is the answer. Runs in `O(c log c)`. Public so
/// property tests can pin it against a naive `O(n²)` reference.
pub fn min_arc_depth(centers: &[Angle], half_width: f64) -> usize {
    min_arc_depth_with(centers, half_width, &mut Vec::new())
}

/// [`min_arc_depth`] on a caller-owned event buffer (cleared first), so a
/// warmed sweep calling it once per point allocates nothing.
pub(crate) fn min_arc_depth_with(
    centers: &[Angle],
    half_width: f64,
    events: &mut Vec<(f64, i32)>,
) -> usize {
    if centers.is_empty() {
        return 0;
    }
    if half_width >= TAU / 2.0 - ANGLE_EPS {
        // Every arc is the full circle.
        return centers.len();
    }
    // Events: (angle, delta). Starts sort before ends at the same angle so
    // that a direction exactly on a closed boundary counts as covered. The
    // scan starts at angle 0 with depth = number of arcs spanning the
    // 0/2π seam (their normalized end precedes their normalized start);
    // those arcs are then correctly switched off by their −1 event early
    // in the scan and back on by their +1 event late in it, so no arc is
    // ever double-counted.
    events.clear();
    events.reserve(centers.len() * 2);
    let mut depth: i32 = 0;
    for c in centers {
        let start = c.rotate(-half_width).radians();
        let end = c.rotate(half_width + 2.0 * ANGLE_EPS).radians();
        if end < start {
            depth += 1; // covers the seam, live at the start of the scan
        }
        events.push((start, 1));
        events.push((end, -1));
    }
    // Unstable sort: no allocation, and events the comparator calls
    // equal carry the same delta, so every sort yields one delta sequence.
    events.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite angles")
            .then(b.1.cmp(&a.1)) // +1 before −1 at equal angle
    });
    let mut min_depth = depth;
    for &(_, delta) in events.iter() {
        depth += delta;
        min_depth = min_depth.min(depth);
    }
    debug_assert!(min_depth >= 0, "sweep depth went negative");
    min_depth.max(0) as usize
}

/// Poisson-deployment analogue of Theorem 3 for k-full-view coverage:
/// the probability that an arbitrary point meets the *k-necessary*
/// condition (every `2θ`-sector contains at least `k` covering cameras),
/// under the paper's sector-independence approximation.
///
/// The pooled covering count of one sector is
/// `Poisson(Σ_y (θ/π)·n_y·s_y)` (superposition of the per-group thinned
/// processes), so
/// `P = [P(Poisson(λ) ≥ k)]^{⌈π/θ⌉}`.
///
/// With `k = 1` this reduces exactly to
/// [`crate::prob_point_meets_necessary_poisson`].
#[must_use]
pub fn prob_point_meets_necessary_k_poisson(
    profile: &fullview_model::NetworkProfile,
    density: f64,
    theta: EffectiveAngle,
    k: usize,
) -> f64 {
    use crate::numeric::PoissonPmf;
    use std::f64::consts::PI;
    if k == 0 {
        return 1.0;
    }
    let lambda: f64 = profile
        .groups()
        .iter()
        .map(|g| (theta.radians() / PI) * g.fraction() * density * g.spec().sensing_area())
        .sum();
    let tail_below: f64 = PoissonPmf::new(lambda).take(k).sum();
    let sector_ok = (1.0 - tail_below).clamp(0.0, 1.0);
    sector_ok.powi(theta.necessary_sector_count() as i32)
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

    fn ring(target: Point, dirs: &[f64]) -> CameraNetwork {
        let torus = Torus::unit();
        let spec = SensorSpec::new(0.3, PI).unwrap();
        let cams: Vec<Camera> = dirs
            .iter()
            .map(|&d| {
                let dir = Angle::new(d);
                Camera::new(
                    torus.offset(target, dir, 0.1),
                    dir.opposite(),
                    spec,
                    GroupId(0),
                )
            })
            .collect();
        CameraNetwork::new(torus, cams)
    }

    #[test]
    fn empty_network_multiplicity_zero() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let p = Point::new(0.5, 0.5);
        assert_eq!(view_multiplicity(&net, p, theta(PI / 2.0)), 0);
        assert!(is_k_full_view_covered(&net, p, theta(PI / 2.0), 0));
        assert!(!is_k_full_view_covered(&net, p, theta(PI / 2.0), 1));
    }

    #[test]
    fn k1_matches_plain_full_view() {
        let p = Point::new(0.5, 0.5);
        for count in 1..9usize {
            let dirs: Vec<f64> = (0..count).map(|i| i as f64 * TAU / count as f64).collect();
            let net = ring(p, &dirs);
            for t in [0.3, PI / 4.0, PI / 2.0, PI] {
                let th = theta(t);
                assert_eq!(
                    is_k_full_view_covered(&net, p, th, 1),
                    crate::fullview::is_full_view_covered(&net, p, th),
                    "count={count}, θ={t}"
                );
            }
        }
    }

    #[test]
    fn theta_pi_multiplicity_is_camera_count() {
        // Every arc is the whole circle at θ = π.
        let p = Point::new(0.5, 0.5);
        let net = ring(p, &[0.0, 1.0, 2.0, 4.0]);
        assert_eq!(view_multiplicity(&net, p, theta(PI)), 4);
    }

    #[test]
    fn evenly_spaced_ring_multiplicity() {
        // 8 cameras at spacing π/4; with θ = π/4 each direction sees the
        // arcs of the 2 (boundary: 3) nearest cameras — min depth 2.
        let p = Point::new(0.5, 0.5);
        let dirs: Vec<f64> = (0..8).map(|i| i as f64 * TAU / 8.0).collect();
        let net = ring(p, &dirs);
        assert_eq!(view_multiplicity(&net, p, theta(PI / 4.0)), 2);
        // Halve θ: arcs shrink to width π/4, min depth 1.
        assert_eq!(view_multiplicity(&net, p, theta(PI / 8.0)), 1);
        // θ slightly under π/8: gaps appear.
        assert_eq!(view_multiplicity(&net, p, theta(PI / 8.0 - 0.01)), 0);
    }

    #[test]
    fn multiplicity_survives_failures() {
        // k-full-view coverage means any k−1 removals keep full-view.
        let p = Point::new(0.5, 0.5);
        let dirs: Vec<f64> = (0..12).map(|i| i as f64 * TAU / 12.0).collect();
        let net = ring(p, &dirs);
        let th = theta(PI / 3.0);
        let k = view_multiplicity(&net, p, th);
        assert!(k >= 2, "fixture should be at least 2-full-view covered");
        // Remove any single camera: still full-view covered.
        for skip in 0..net.len() {
            let mut idx = 0;
            let reduced = net.filter(|_| {
                let keep = idx != skip;
                idx += 1;
                keep
            });
            assert!(
                crate::fullview::is_full_view_covered(&reduced, p, th),
                "single failure {skip} broke full-view despite multiplicity {k}"
            );
        }
    }

    #[test]
    fn colocated_camera_adds_one_everywhere() {
        let torus = Torus::unit();
        let p = Point::new(0.5, 0.5);
        let spec = SensorSpec::new(0.3, PI).unwrap();
        let colocated = Camera::new(p, Angle::ZERO, spec, GroupId(0));
        // A one-sided camera.
        let side = Camera::new(
            torus.offset(p, Angle::ZERO, 0.1),
            Angle::new(PI),
            spec,
            GroupId(0),
        );
        let net = CameraNetwork::new(torus, vec![colocated, side]);
        let th = theta(PI / 4.0);
        // Colocated alone gives multiplicity 1 everywhere; the side camera
        // raises it to 2 only near direction 0.
        assert_eq!(view_multiplicity(&net, p, th), 1);
        assert!(is_k_full_view_covered(&net, p, th, 1));
        assert!(!is_k_full_view_covered(&net, p, th, 2));

        // A second camera on the point counts one more everywhere: losing
        // either co-located camera leaves the point full-view covered.
        let twin = Camera::new(p, Angle::new(PI / 2.0), spec, GroupId(1));
        let net = CameraNetwork::new(torus, vec![colocated, side, twin]);
        assert_eq!(view_multiplicity(&net, p, th), 2);
        assert!(is_k_full_view_covered(&net, p, th, 2));
        assert!(!is_k_full_view_covered(&net, p, th, 3));
        for lost in [colocated, twin] {
            let reduced = net.filter(|c| *c != lost);
            assert_eq!(reduced.len(), 2);
            assert!(crate::fullview::is_full_view_covered(&reduced, p, th));
        }
    }

    #[test]
    fn min_depth_brute_force_agreement() {
        // Compare the sweep against dense sampling of the circle.
        let centers: Vec<Angle> = [0.3f64, 0.5, 1.8, 2.2, 4.4, 5.9, 6.1]
            .iter()
            .map(|&a| Angle::new(a))
            .collect();
        for half in [0.1, 0.4, 0.9, 1.5, 2.5] {
            let sweep = min_arc_depth(&centers, half);
            let mut brute = usize::MAX;
            for i in 0..7200 {
                let d = Angle::new(i as f64 * TAU / 7200.0);
                let depth = centers
                    .iter()
                    .filter(|c| c.distance(d) <= half + 1e-9)
                    .count();
                brute = brute.min(depth);
            }
            assert_eq!(sweep, brute, "half-width {half}");
        }
    }

    #[test]
    fn k_poisson_reduces_to_theorem_3_at_k1() {
        let profile = fullview_model::NetworkProfile::builder()
            .group(SensorSpec::new(0.08, PI).unwrap(), 0.6)
            .group(SensorSpec::new(0.11, PI / 3.0).unwrap(), 0.4)
            .build()
            .unwrap();
        let th = theta(PI / 4.0);
        for density in [100.0, 500.0, 2000.0] {
            let k1 = prob_point_meets_necessary_k_poisson(&profile, density, th, 1);
            let thm3 =
                crate::poisson_theory::prob_point_meets_necessary_poisson(&profile, density, th);
            // Pooled-λ form vs per-group product form: identical because
            // 1 − Π_y e^{−λ_y} ... both equal 1 − e^{−Σλ_y}.
            assert!(
                (k1 - thm3).abs() < 1e-12,
                "density {density}: {k1} vs {thm3}"
            );
        }
    }

    #[test]
    fn k_poisson_monotone_and_bounded() {
        let profile =
            fullview_model::NetworkProfile::homogeneous(SensorSpec::new(0.1, PI).unwrap());
        let th = theta(PI / 4.0);
        let mut prev = 1.0;
        for k in 0..6 {
            let p = prob_point_meets_necessary_k_poisson(&profile, 800.0, th, k);
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev + 1e-12, "not decreasing in k at {k}");
            prev = p;
        }
        assert_eq!(
            prob_point_meets_necessary_k_poisson(&profile, 800.0, th, 0),
            1.0
        );
    }

    #[test]
    fn range_counts_sum_to_the_full_count() {
        let p = Point::new(0.5, 0.5);
        let dirs: Vec<f64> = (0..9).map(|i| i as f64 * TAU / 9.0).collect();
        let net = ring(p, &dirs);
        let grid = UnitGrid::new(Torus::unit(), 15);
        let th = theta(PI / 3.0);
        for k in 0..3usize {
            let mut full = 0usize;
            for_each_view_multiplicity(&net, &grid, th, |_, m| full += usize::from(m >= k));
            for cuts in [vec![0, 225], vec![0, 97, 225], vec![0, 1, 120, 121, 225]] {
                let split: usize = cuts
                    .windows(2)
                    .map(|w| count_k_view_range(&net, &grid, th, k, w[0], w[1]))
                    .sum();
                assert_eq!(split, full, "k={k} partition {cuts:?}");
            }
        }
    }

    #[test]
    fn multiplicity_monotone_in_theta() {
        let p = Point::new(0.4, 0.6);
        let dirs: Vec<f64> = (0..10).map(|i| (i as f64 * 1.7) % TAU).collect();
        let net = ring(p, &dirs);
        let mut prev = 0;
        for i in 1..=10 {
            let th = theta(i as f64 * PI / 10.0);
            let m = view_multiplicity(&net, p, th);
            assert!(m >= prev, "multiplicity dropped at θ index {i}");
            prev = m;
        }
    }
}
