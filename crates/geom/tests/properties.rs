//! Property-based tests for the geometry substrate.

use fullview_geom::{
    circular_distance, normalize_radians, Angle, Arc, ArcSet, Point, SpatialGrid, Torus, UnitGrid,
    ANGLE_EPS,
};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

fn finite_angle() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

fn arc_strategy() -> impl Strategy<Value = Arc> {
    (0.0..TAU, 0.0..TAU).prop_map(|(start, width)| Arc::new(Angle::new(start), width))
}

fn unit_point() -> impl Strategy<Value = Point> {
    (0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    // ---------- Angle ----------

    #[test]
    fn normalization_is_idempotent(raw in finite_angle()) {
        let once = normalize_radians(raw);
        let twice = normalize_radians(once);
        prop_assert!((once - twice).abs() < 1e-12);
        prop_assert!((0.0..TAU).contains(&once));
    }

    #[test]
    fn angle_distance_symmetric_and_bounded(a in finite_angle(), b in finite_angle()) {
        let d1 = circular_distance(a, b);
        let d2 = circular_distance(b, a);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=PI + 1e-12).contains(&d1));
    }

    #[test]
    fn angle_distance_triangle_inequality(a in finite_angle(), b in finite_angle(), c in finite_angle()) {
        let ab = circular_distance(a, b);
        let bc = circular_distance(b, c);
        let ac = circular_distance(a, c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn ccw_deltas_sum_to_tau(a in finite_angle(), b in finite_angle()) {
        let x = Angle::new(a);
        let y = Angle::new(b);
        if !x.approx_eq(y) {
            prop_assert!((x.ccw_delta(y) + y.ccw_delta(x) - TAU).abs() < 1e-9);
        }
    }

    #[test]
    fn rotate_by_delta_lands_at_ccw_delta(a in finite_angle(), d in 0.0..TAU) {
        let x = Angle::new(a);
        let y = x.rotate(d);
        prop_assert!((x.ccw_delta(y) - d).abs() < 1e-9 || (x.ccw_delta(y) - d).abs() > TAU - 1e-9);
    }

    // ---------- Arc ----------

    #[test]
    fn arc_contains_its_bisector_and_endpoints(arc in arc_strategy()) {
        prop_assert!(arc.contains(arc.start()));
        prop_assert!(arc.contains(arc.bisector()));
        prop_assert!(arc.contains(arc.end()));
    }

    #[test]
    fn arc_segments_preserve_width(arc in arc_strategy()) {
        let total: f64 = arc.to_segments().iter().map(|(lo, hi)| hi - lo).sum();
        prop_assert!((total - arc.width()).abs() < 1e-9);
    }

    #[test]
    fn centered_arc_contains_iff_within_half_width(
        center in finite_angle(),
        half in 0.0..PI,
        probe in finite_angle(),
    ) {
        let c = Angle::new(center);
        let p = Angle::new(probe);
        let arc = Arc::centered(c, half);
        let d = c.distance(p);
        if d < half - 1e-6 {
            prop_assert!(arc.contains(p), "inside point {p} not contained, d={d}, half={half}");
        }
        if d > half + 1e-6 {
            prop_assert!(!arc.contains(p), "outside point {p} contained, d={d}, half={half}");
        }
    }

    // ---------- ArcSet ----------

    #[test]
    fn arcset_measure_subadditive(arcs in prop::collection::vec(arc_strategy(), 0..12)) {
        let set: ArcSet = arcs.iter().copied().collect();
        let sum: f64 = arcs.iter().map(Arc::width).sum();
        prop_assert!(set.measure() <= sum + 1e-6);
        prop_assert!(set.measure() <= TAU + 1e-9);
        let max_single = arcs.iter().map(Arc::width).fold(0.0, f64::max);
        prop_assert!(set.measure() >= max_single - 1e-9);
    }

    #[test]
    fn arcset_measure_plus_gaps_is_tau(arcs in prop::collection::vec(arc_strategy(), 0..12)) {
        let set: ArcSet = arcs.iter().copied().collect();
        let gap_total: f64 = set.gaps().iter().map(Arc::width).sum();
        prop_assert!((set.measure() + gap_total - TAU).abs() < 1e-6);
    }

    #[test]
    fn arcset_contains_every_inserted_bisector(arcs in prop::collection::vec(arc_strategy(), 1..12)) {
        let set: ArcSet = arcs.iter().copied().collect();
        for arc in &arcs {
            prop_assert!(set.contains(arc.bisector()), "lost bisector of {arc}");
        }
    }

    #[test]
    fn arcset_gaps_disjoint_from_set(arcs in prop::collection::vec(arc_strategy(), 0..12)) {
        let set: ArcSet = arcs.iter().copied().collect();
        for gap in set.gaps() {
            // Probe strictly interior points of each gap.
            if gap.width() > 1e-6 {
                let mid = gap.bisector();
                prop_assert!(!set.contains(mid), "gap bisector {mid} claimed covered");
            }
        }
    }

    #[test]
    fn arcset_covers_circle_iff_no_gaps(arcs in prop::collection::vec(arc_strategy(), 0..12)) {
        let set: ArcSet = arcs.iter().copied().collect();
        prop_assert_eq!(set.covers_circle(), set.gaps().is_empty());
        prop_assert_eq!(set.covers_circle(), set.largest_gap() == 0.0);
    }

    #[test]
    fn arcset_insertion_order_invariant(arcs in prop::collection::vec(arc_strategy(), 0..8)) {
        let forward: ArcSet = arcs.iter().copied().collect();
        let backward: ArcSet = arcs.iter().rev().copied().collect();
        prop_assert!((forward.measure() - backward.measure()).abs() < 1e-6);
        prop_assert_eq!(forward.covers_circle(), backward.covers_circle());
    }

    #[test]
    fn arcset_membership_monotone_under_insert(
        arcs in prop::collection::vec(arc_strategy(), 1..8),
        extra in arc_strategy(),
        probe in finite_angle(),
    ) {
        let p = Angle::new(probe);
        let before: ArcSet = arcs.iter().copied().collect();
        let mut after = before.clone();
        after.insert(extra);
        if before.contains(p) {
            prop_assert!(after.contains(p), "insert removed membership of {p}");
        }
    }

    // ---------- Torus ----------

    #[test]
    fn torus_distance_metric_axioms(a in unit_point(), b in unit_point(), c in unit_point()) {
        let t = Torus::unit();
        prop_assert!((t.distance(a, b) - t.distance(b, a)).abs() < 1e-12);
        prop_assert!(t.distance(a, a) < 1e-12);
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c) + 1e-9);
        prop_assert!(t.distance(a, b) <= 0.5f64.hypot(0.5) + 1e-12);
    }

    #[test]
    fn torus_direction_is_opposite_when_reversed(a in unit_point(), b in unit_point()) {
        let t = Torus::unit();
        // Skip near-coincident and near-antipodal pairs, where the minimal
        // image is ambiguous.
        let d = t.distance(a, b);
        prop_assume!(d > 1e-6);
        let (dx, dy) = t.displacement(a, b);
        prop_assume!(dx.abs() < 0.5 - 1e-6 && dy.abs() < 0.5 - 1e-6);
        let ab = t.direction(a, b).unwrap();
        let ba = t.direction(b, a).unwrap();
        prop_assert!(ab.distance(ba.opposite()) < 1e-6, "{ab} vs {ba}");
    }

    #[test]
    fn torus_offset_distance_roundtrip(p in unit_point(), dir in finite_angle(), dist in 0.0..0.49f64) {
        let t = Torus::unit();
        let q = t.offset(p, Angle::new(dir), dist);
        prop_assert!((t.distance(p, q) - dist).abs() < 1e-9);
    }

    // ---------- SpatialGrid ----------

    #[test]
    fn spatial_grid_matches_brute_force(
        pts in prop::collection::vec(unit_point(), 0..60),
        center in unit_point(),
        radius in 0.0..0.7f64,
        cell in 0.02..0.5f64,
    ) {
        let t = Torus::unit();
        let idx = SpatialGrid::build(t, &pts, cell);
        let mut got = idx.query_within(center, radius);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| t.distance(center, **p) <= radius)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    // ---------- UnitGrid ----------

    #[test]
    fn unit_grid_minimal_and_sufficient(m in 1usize..5000) {
        let g = UnitGrid::with_at_least(Torus::unit(), m);
        prop_assert!(g.len() >= m);
        let k = g.side_count();
        prop_assert!(k == 1 || (k - 1) * (k - 1) < m);
    }
}

proptest! {
    #[test]
    fn arcset_complement_partitions_circle(arcs in prop::collection::vec(arc_strategy(), 0..10)) {
        let s: ArcSet = arcs.iter().copied().collect();
        let c = s.complement();
        prop_assert!((s.measure() + c.measure() - TAU).abs() < 1e-6);
        // Nothing is in both (probe gap bisectors and arc bisectors).
        for gap in s.gaps() {
            if gap.width() > 1e-6 {
                prop_assert!(c.contains(gap.bisector()));
                prop_assert!(!s.contains(gap.bisector()));
            }
        }
    }

    #[test]
    fn arcset_intersection_bounded_by_operands(
        a in prop::collection::vec(arc_strategy(), 0..8),
        b in prop::collection::vec(arc_strategy(), 0..8),
    ) {
        let sa: ArcSet = a.into_iter().collect();
        let sb: ArcSet = b.into_iter().collect();
        let i = sa.intersect(&sb);
        prop_assert!(i.measure() <= sa.measure() + 1e-6);
        prop_assert!(i.measure() <= sb.measure() + 1e-6);
        // Inclusion–exclusion lower bound: |A∩B| >= |A| + |B| - 2π.
        prop_assert!(i.measure() >= sa.measure() + sb.measure() - TAU - 1e-6);
    }

    #[test]
    fn arcset_intersection_commutative(
        a in prop::collection::vec(arc_strategy(), 0..8),
        b in prop::collection::vec(arc_strategy(), 0..8),
    ) {
        let sa: ArcSet = a.into_iter().collect();
        let sb: ArcSet = b.into_iter().collect();
        let ab = sa.intersect(&sb);
        let ba = sb.intersect(&sa);
        prop_assert!((ab.measure() - ba.measure()).abs() < 1e-6);
    }

    #[test]
    fn arcset_membership_respects_intersection(
        a in prop::collection::vec(arc_strategy(), 1..8),
        b in prop::collection::vec(arc_strategy(), 1..8),
        probe in 0.0..TAU,
    ) {
        let sa: ArcSet = a.into_iter().collect();
        let sb: ArcSet = b.into_iter().collect();
        let i = sa.intersect(&sb);
        let p = Angle::new(probe);
        // Probe away from boundaries to dodge tolerance effects: require
        // clear membership margins on both sides.
        if i.contains(p) {
            prop_assert!(sa.contains(p) || near_boundary(&sa, p));
            prop_assert!(sb.contains(p) || near_boundary(&sb, p));
        }
    }
}

/// Whether `p` is within a loose tolerance of some arc boundary of `s` —
/// used to excuse membership disagreements at knife edges.
fn near_boundary(s: &ArcSet, p: Angle) -> bool {
    s.arcs()
        .iter()
        .any(|a| a.start().distance(p) < 1e-6 || a.end().distance(p) < 1e-6)
        || s.gaps()
            .iter()
            .any(|g| g.start().distance(p) < 1e-6 || g.end().distance(p) < 1e-6)
}

// ---------- fmod-free and hypot-free fast paths ----------

/// The `rem_euclid` form `Torus::wrap_coord_delta` replaced.
fn wrap_delta_fmod(d: f64, side: f64) -> f64 {
    let half = side / 2.0;
    let w = (d + half).rem_euclid(side) - half;
    if w >= half {
        -half
    } else {
        w
    }
}

/// The `hypot` + `rem_euclid` form `Angle::from_vector` replaced, as
/// radian bits (`None` below `ANGLE_EPS`).
fn from_vector_reference(dx: f64, dy: f64) -> Option<u64> {
    if dx.hypot(dy) < ANGLE_EPS {
        None
    } else {
        Some(normalize_radians(dy.atan2(dx)).to_bits())
    }
}

fn from_vector_bits(dx: f64, dy: f64) -> Option<u64> {
    Angle::from_vector(dx, dy).map(|a| a.radians().to_bits())
}

/// The next float towards +∞ (−0.0 and +0.0 both step to the smallest
/// positive subnormal).
fn ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn ulp_down(x: f64) -> f64 {
    -ulp_up(-x)
}

/// Finite floats of every magnitude, subnormals and signed zeros included.
fn any_finite() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.0
        }
    })
}

/// The fast branches agree with `rem_euclid` bit for bit where they take
/// over (`v = d + side/2` on `(−side, 2·side)`): at each edge of that
/// range, one and two ulps either side, at the `±side/2` ties, at `±0.0`,
/// far outside it, on unit and non-unit sides.
#[test]
fn wrap_delta_matches_fmod_at_range_edges() {
    for side in [1.0, 0.3, 3.0, 7.25, 1e-3, 1e6] {
        let torus = Torus::with_side(side);
        let half = side / 2.0;
        let mut ds = vec![0.0, -0.0, half, -half, side, -side, 1.5 * side, -1.5 * side];
        ds.extend([2.0 * side, -2.0 * side, 2.5 * side, 1e3 * side, -1e3 * side]);
        for edge in [-side, 0.0, side, 2.0 * side] {
            let d = edge - half;
            ds.extend([
                d,
                ulp_up(d),
                ulp_down(d),
                ulp_up(ulp_up(d)),
                ulp_down(ulp_down(d)),
            ]);
        }
        for d in ds {
            assert_eq!(
                torus.wrap_coord_delta(d).to_bits(),
                wrap_delta_fmod(d, side).to_bits(),
                "d={d:e} side={side}"
            );
        }
    }
    assert!(Torus::unit().wrap_coord_delta(f64::NAN).is_nan());
}

/// Signed zeros, infinities, subnormals, the colocation floor and vectors
/// whose `hypot` sits within a few ulps of `ANGLE_EPS` (on an axis and on
/// the diagonal) agree with the reference bit for bit, `None`-ness
/// included.
#[test]
fn from_vector_matches_reference_at_edge_inputs() {
    let near = |x: f64| {
        (0..4u64).flat_map(move |k| {
            let (up, down) = (
                f64::from_bits(x.to_bits() + k),
                f64::from_bits(x.to_bits() - k),
            );
            [up, down, -up, -down]
        })
    };
    let sub = f64::from_bits(1);
    let mut comps = vec![
        0.0,
        -0.0,
        sub,
        -sub,
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        2e-9,
        -2e-9,
    ];
    comps.extend([f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]);
    comps.extend(near(ANGLE_EPS));
    comps.extend(near(ANGLE_EPS / std::f64::consts::SQRT_2));
    comps.extend(near(2e-9 / std::f64::consts::SQRT_2));
    for &dx in &comps {
        for &dy in &comps {
            assert_eq!(
                from_vector_bits(dx, dy),
                from_vector_reference(dx, dy),
                "({dx:e}, {dy:e})"
            );
        }
    }
}

#[test]
#[should_panic(expected = "finite")]
fn from_vector_of_nan_panics_like_the_reference() {
    let _ = Angle::from_vector(f64::NAN, f64::INFINITY);
}

proptest! {
    #[test]
    fn wrap_delta_matches_fmod_on_coordinate_differences(
        side in 1e-3..1e3f64,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        // Two coordinates wrapped into [0, side): the fast branch always.
        let torus = Torus::with_side(side);
        let (x, y) = (torus.wrap(Point::new(a * side, 0.0)).x, torus.wrap(Point::new(b * side, 0.0)).x);
        for d in [x - y, y - x] {
            prop_assert_eq!(torus.wrap_coord_delta(d).to_bits(), wrap_delta_fmod(d, side).to_bits());
        }
    }

    #[test]
    fn wrap_delta_matches_fmod_anywhere(side in 1e-6..1e6f64, d in any_finite(), t in -3.0..3.0f64) {
        let torus = Torus::with_side(side);
        for d in [d, t * side, ulp_up(t * side), ulp_down(t * side)] {
            prop_assert_eq!(torus.wrap_coord_delta(d).to_bits(), wrap_delta_fmod(d, side).to_bits());
        }
    }

    #[test]
    fn from_vector_matches_reference(
        dx in any_finite(),
        dy in any_finite(),
        scale in -30.0..2.0f64,
        a in 0.0..TAU,
    ) {
        prop_assert_eq!(from_vector_bits(dx, dy), from_vector_reference(dx, dy));
        // Ordinary vectors, and lengths around ANGLE_EPS and the 2e-9 floor.
        let len = 10f64.powf(scale);
        for len in [len, ANGLE_EPS * (1.0 + len.min(1.0)), 2e-9 * (1.0 - 1e-3 * len.min(1.0))] {
            let (x, y) = (len * a.cos(), len * a.sin());
            prop_assert_eq!(from_vector_bits(x, y), from_vector_reference(x, y));
        }
    }
}
