//! Property tests for the sector-mask kernel layer.
//!
//! Two families:
//!
//! * the angular primitives the two-stage engine leans on —
//!   [`largest_circular_gap`] and [`min_arc_depth`] — pinned against
//!   naive `O(n²)` references over random, duplicated, and
//!   near-wraparound angle sets;
//! * the engine differential: the mask-screened tiled sweep must be
//!   **bit-identical** to the wholesale exact sweep across random
//!   heterogeneous networks, effective angles parked on sector-count
//!   boundaries, arbitrary start lines, and arbitrary ranges — plus the
//!   inputs that exercise the screen's gathered directions: fleets below
//!   Theorem 1's necessary CSA, θ = π/16, rectangles where few and where
//!   most points are gathered, and one past the gather's direction budget.

use fullview_core::{
    count_k_view_range, csa_necessary, largest_circular_gap, min_arc_depth, view_multiplicity,
    EffectiveAngle, FlagBits, GridCoverageReport, GridEvaluator, GridTiling, PointByte,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::f64::consts::{PI, TAU};

// ---------- naive references ----------

/// Quadratic reference for [`largest_circular_gap`]: for every angle,
/// the smallest counter-clockwise step to another angle (computed with
/// the same float expressions the fast path uses — plain difference for
/// an ahead angle, `b + TAU − a` across the seam); the largest gap is
/// the maximum such step.
fn naive_largest_gap(sorted: &[Angle]) -> f64 {
    if sorted.len() < 2 {
        return TAU;
    }
    let mut max_gap: f64 = 0.0;
    for a in sorted {
        let a = a.radians();
        let mut next = TAU;
        for b in sorted {
            let b = b.radians();
            let step = if b > a { b - a } else { b + TAU - a };
            // b == a (the angle itself or an exact duplicate) yields the
            // full circle via the seam expression, never a zero step —
            // duplicates contribute their 0-width gap to the *sorted*
            // scan but can never be the largest gap, so the maxima agree.
            if step < next {
                next = step;
            }
        }
        if next > max_gap {
            max_gap = next;
        }
    }
    max_gap
}

/// Quadratic reference for [`min_arc_depth`]: the depth function is
/// piecewise constant between arc endpoints, so its minimum is attained
/// just after some event angle. For each event `e`, an arc covers the
/// interval right after `e` iff `e`'s circular offset from the arc's
/// start is strictly less than the arc's length — exactly the sweep's
/// "+1 before −1 at equal angles" convention, expressed combinatorially.
fn naive_min_arc_depth(centers: &[Angle], half_width: f64) -> usize {
    if centers.is_empty() {
        return 0;
    }
    if half_width >= TAU / 2.0 - ANGLE_EPS {
        return centers.len();
    }
    let starts: Vec<f64> = centers
        .iter()
        .map(|c| c.rotate(-half_width).radians())
        .collect();
    let ends: Vec<f64> = centers
        .iter()
        .map(|c| c.rotate(half_width + 2.0 * ANGLE_EPS).radians())
        .collect();
    let mut min_depth = usize::MAX;
    for &e in starts.iter().chain(ends.iter()) {
        let mut depth = 0usize;
        for j in 0..centers.len() {
            let len = (ends[j] - starts[j]).rem_euclid(TAU);
            let pos = (e - starts[j]).rem_euclid(TAU);
            if pos < len {
                depth += 1;
            }
        }
        min_depth = min_depth.min(depth);
    }
    min_depth
}

// ---------- strategies ----------

// The vendored proptest shim has no `prop_oneof!` / weighted union, so
// mixture strategies draw a selector integer alongside a unit value and
// pick the branch in `prop_map`.

/// Angle sets biased towards the hard cases: clusters hugging the 0/2π
/// seam and exact duplicates appended to the base set.
fn angle_set_strategy() -> impl Strategy<Value = Vec<Angle>> {
    let element = (0usize..5, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
        0..=2 => u * TAU,            // anywhere on the circle
        3 => u * 1e-7,               // hugging 0
        _ => TAU - 1e-7 * (1.0 - u), // hugging the 2π seam
    });
    (
        prop::collection::vec(element, 0..28),
        prop::collection::vec(0usize..4096, 0..8),
    )
        .prop_map(|(mut vals, dups)| {
            if !vals.is_empty() {
                for d in dups {
                    let v = vals[d % vals.len()];
                    vals.push(v); // exact duplicate
                }
            }
            vals.into_iter().map(Angle::new).collect()
        })
}

fn half_width_strategy() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
        0..=3 => 0.001 + u * (PI - 0.001),
        4 => PI - 1e-8 + u * 2e-8, // full-circle branch boundary
        _ => u * 1e-8,             // sliver arcs
    })
}

/// Heterogeneous cameras hitting every kernel camera class: generic
/// sectors, φ ≈ π (the cos T ≈ 0 square-root class), near-disc φ ≈ 2π,
/// and narrow slivers.
fn hetero_camera_strategy() -> impl Strategy<Value = Camera> {
    (
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..TAU,
        (0usize..4, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
            0..=2 => 0.03 + u * 0.22,
            _ => 0.25 + u * 0.20,
        }),
        (0usize..7, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
            0..=3 => 0.1 + u * (TAU - 0.1),
            4 => PI - 1e-7 + u * 2e-7,
            5 => TAU - 2e-9 * (1.0 - u),
            _ => 0.05 + u * 0.25,
        }),
        0usize..4,
    )
        .prop_map(|(x, y, facing, r, phi, g)| {
            Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(g),
            )
        })
}

fn hetero_network_strategy(max: usize) -> impl Strategy<Value = CameraNetwork> {
    prop::collection::vec(hetero_camera_strategy(), 0..max)
        .prop_map(|cams| CameraNetwork::new(Torus::unit(), cams))
}

/// Effective angles parked on the sector-count boundaries the kernel's
/// partition descriptors are most sensitive to: θ = π (one necessary
/// sector), θ = 2π/64 (exactly one mask word), `2π/θ` a hair above and
/// below an integer (extra-sector appears/disappears), plus θ below the
/// kernel's support gate (exercising the wholesale-exact path).
fn boundary_theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
    (0usize..10, 0.05..=1.0f64, 2usize..40, -4i32..=4).prop_map(|(sel, f, k, ulps)| {
        let t = match sel {
            0..=3 => f * PI,
            4 => PI,
            5 => TAU / 64.0,
            6..=8 => ((TAU / k as f64) * (1.0 + f64::from(ulps) * 1e-15)).clamp(1e-3, PI),
            _ => 0.021 + (f - 0.05) * 0.003, // below the kernel support gate
        };
        EffectiveAngle::new(t).unwrap()
    })
}

/// Mostly the heterogeneous mix; one case in five is an input the
/// dense-grid walk answers with its per-point unit (more index cells than
/// grid points): the empty network, or the same cameras with radii below
/// the grid spacing.
fn range_network_strategy(max: usize) -> impl Strategy<Value = CameraNetwork> {
    (0usize..10, hetero_network_strategy(max), 0.002..0.02f64).prop_map(|(sel, net, r)| {
        let cams = match sel {
            0..=7 => return net,
            8 => Vec::new(),
            _ => net
                .cameras()
                .iter()
                .map(|c| {
                    let spec = SensorSpec::new(r, c.spec().angle_of_view()).unwrap();
                    Camera::new(c.position(), c.orientation(), spec, c.group())
                })
                .collect(),
        };
        CameraNetwork::new(Torus::unit(), cams)
    })
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn largest_gap_matches_naive_reference(angles in angle_set_strategy()) {
        let mut angles = angles;
        angles.sort_by(|a, b| a.radians().partial_cmp(&b.radians()).unwrap());
        let fast = largest_circular_gap(&angles);
        let naive = naive_largest_gap(&angles);
        prop_assert_eq!(fast, naive, "n={}", angles.len());
        prop_assert!((0.0..=TAU).contains(&fast));
    }

    #[test]
    fn min_arc_depth_matches_naive_reference(
        centers in angle_set_strategy(),
        hw in half_width_strategy(),
    ) {
        let fast = min_arc_depth(&centers, hw);
        let naive = naive_min_arc_depth(&centers, hw);
        prop_assert_eq!(fast, naive, "n={} hw={}", centers.len(), hw);
        prop_assert!(fast <= centers.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole differential: the mask-screened tiled engine against
    /// the wholesale exact per-point sweep, whole-report equality (which
    /// is bit-identity — every field is an exact integer tally).
    #[test]
    fn mask_screened_tiles_match_exact_sweep(
        net in hetero_network_strategy(50),
        theta in boundary_theta_strategy(),
        start in 0.0..TAU,
        side in 2usize..24,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let start = Angle::new(start);
        // The reference: every point analysed through the whole network.
        let mut exact_ev = GridEvaluator::new_exact(theta, start);
        let mut exact = GridCoverageReport::default();
        for idx in 0..grid.len() {
            exact.record(&exact_ev.point_flags_with(&net, grid.point(idx)));
        }
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let masked = GridEvaluator::new(theta, start)
            .evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiling.tile_count());
        prop_assert_eq!(masked, exact, "θ={} side={}", theta.radians(), side);
    }

    /// Per-point flags from the screened range sweep against the exact
    /// evaluator, over an arbitrary sub-range (exercises the tile span
    /// rejection and in-tile range filtering too).
    #[test]
    fn flags_sweep_matches_exact_flags(
        net in range_network_strategy(40),
        theta in boundary_theta_strategy(),
        side in 2usize..16,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let mut got = Vec::with_capacity(hi - lo);
        FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, lo, hi, &mut |idx, flags| {
            got.push((idx, flags));
        });
        prop_assert_eq!(got.len(), hi - lo);
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        let mut seen = vec![false; hi - lo];
        for (idx, flags) in got {
            prop_assert!(idx >= lo && idx < hi, "idx {} outside {}..{}", idx, lo, hi);
            prop_assert!(!seen[idx - lo], "idx {} visited twice", idx);
            seen[idx - lo] = true;
            let exact = exact_ev.point_flags_with(&net, grid.point(idx));
            prop_assert_eq!(flags, exact, "idx {}", idx);
        }
    }

    /// The depth-screened k-count against per-point exact multiplicities,
    /// over the whole grid and an arbitrary sub-range (tile splits and the
    /// per-point unit included).
    #[test]
    fn k_count_matches_per_point_multiplicity(
        net in range_network_strategy(40),
        theta in boundary_theta_strategy(),
        k in 0usize..5,
        side in 2usize..14,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        for (lo, hi) in [(0, grid.len()), (lo, hi)] {
            let counted = count_k_view_range(&net, &grid, theta, k, lo, hi);
            let brute = (lo..hi)
                .filter(|&i| view_multiplicity(&net, grid.point(i), theta) >= k)
                .count();
            prop_assert_eq!(counted, brute, "k={} side={} range={}..{}", k, side, lo, hi);
        }
    }
}

// ---------- the screen's gathered directions ----------

/// The §VI reference mix (50 % φ = π, 30 % φ = π/2, 20 % φ = π/4 by
/// count, sensing areas 1.2 : 1 : 0.5) scaled to weighted area `s_c`.
fn section6_profile(s_c: f64) -> NetworkProfile {
    NetworkProfile::builder()
        .group(SensorSpec::with_sensing_area(1.2, PI).unwrap(), 0.5)
        .group(SensorSpec::with_sensing_area(1.0, PI / 2.0).unwrap(), 0.3)
        .group(SensorSpec::with_sensing_area(0.5, PI / 4.0).unwrap(), 0.2)
        .build()
        .unwrap()
        .scale_to_weighted_area(s_c)
        .unwrap()
}

/// `n` cameras of the §VI mix at `fraction` of Theorem 1's necessary CSA
/// for θ = π/4: below it, a large share of the covered points is in the
/// indeterminate band the masks cannot decide.
fn below_csa_fleet(n: usize, fraction: f64, seed: u64) -> CameraNetwork {
    let s_c = csa_necessary(n, EffectiveAngle::new(PI / 4.0).unwrap()) * fraction;
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), &section6_profile(s_c), n, &mut rng).unwrap()
}

/// Per-tile differential through `GridEvaluator::evaluate_tiles` with the
/// screen stats split per tile: returns, over the tiles, the counts of
/// tiles whose gathered points were under a quarter of the tile (few),
/// at least a quarter (many), and that rescanned points.
fn per_tile_differential(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    side: usize,
) -> (usize, usize, usize) {
    let grid = UnitGrid::new(Torus::unit(), side);
    let tiling = GridTiling::new(net.index(), &grid);
    let mut cursor = net.tile_cursor();
    let mut ev = GridEvaluator::new(theta, Angle::ZERO);
    let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
    let (mut few, mut many, mut rescanning) = (0, 0, 0);
    for t in 0..tiling.tile_count() {
        let before = ev.screen_stats();
        let got = ev.evaluate_tiles(&mut cursor, &tiling, &grid, [t]);
        let want = exact_ev.evaluate_tiles(&mut cursor, &tiling, &grid, [t]);
        assert_eq!(got, want, "tile {t} θ={}", theta.radians());
        let after = ev.screen_stats();
        let rescanned = after.rescanned - before.rescanned;
        let gathered = (after.exact - before.exact) - rescanned;
        let points = tiling.tile_point_count(t) as u64;
        if gathered > 0 && gathered * 4 < points {
            few += 1;
        }
        if gathered > 0 && gathered * 4 >= points {
            many += 1;
        }
        rescanning += usize::from(rescanned > 0);
    }
    (few, many, rescanning)
}

/// Below the CSA the screen leaves many points to the exact predicates,
/// and decides nearly all of them from gathered directions: a stage 2
/// that silently stopped engaging would rescan every one of them.
#[test]
fn below_csa_fleet_decides_undecided_points_from_gathered_directions() {
    let net = below_csa_fleet(2000, 0.5, 71);
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 120);
    let tiling = GridTiling::new(net.index(), &grid);
    let mut ev = GridEvaluator::new(theta, Angle::ZERO);
    let report = ev.evaluate_tiles(
        &mut net.tile_cursor(),
        &tiling,
        &grid,
        0..tiling.tile_count(),
    );
    let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
    let mut exact = GridCoverageReport::default();
    for idx in 0..grid.len() {
        exact.record(&exact_ev.point_flags_with(&net, grid.point(idx)));
    }
    assert_eq!(report, exact);
    let stats = ev.screen_stats();
    assert!(
        stats.exact * 10 > stats.screened + stats.exact,
        "under a tenth of the points left undecided: {stats:?}"
    );
    assert!(stats.rescanned < stats.exact, "nothing gathered: {stats:?}");
}

/// Tiles where the gather skips most points and tiles where it fills
/// most, at θ = π/4 (few undecided points per tile) and θ = π/16 (nearly
/// all).
#[test]
fn tiles_with_few_and_many_gathered_points_match_exact() {
    let net = below_csa_fleet(1500, 0.6, 72);
    let (mut few, mut many) = (0, 0);
    for theta in [PI / 4.0, PI / 16.0] {
        let (f, m, _) = per_tile_differential(&net, EffectiveAngle::new(theta).unwrap(), 96);
        few += f;
        many += m;
    }
    assert!(few > 0 && many > 0, "few {few}, many {many}");
}

/// A fleet whose covered points each see hundreds of cameras from one
/// side: the masks cannot fill, and a tile's undecided points hold more
/// directions than the gather's 64 Ki budget, so it gathers some and
/// rescans the rest — with the same flags and k verdicts either way.
#[test]
fn tile_past_the_gather_budget_matches_exact() {
    let spec = SensorSpec::new(0.45, PI / 2.0).unwrap();
    let cams = (0..450)
        .map(|i| {
            let x = 0.4 + 0.2 * ((i as f64 * 0.618_033_98) % 1.0);
            let y = 0.85 + 0.1 * ((i as f64 * 0.414_213_56) % 1.0);
            Camera::new(Point::new(x, y), Angle::new(1.5 * PI), spec, GroupId(0))
        })
        .collect();
    let net = CameraNetwork::new(Torus::unit(), cams);
    let theta = EffectiveAngle::new(PI / 16.0).unwrap();
    let (few, many, rescanning) = per_tile_differential(&net, theta, 60);
    assert!(few + many > 0, "nothing gathered");
    assert!(rescanning > 0, "no tile went past the budget");
    let grid = UnitGrid::new(Torus::unit(), 60);
    let multiplicities: Vec<usize> = (0..grid.len())
        .map(|i| view_multiplicity(&net, grid.point(i), theta))
        .collect();
    for k in [1, 40] {
        let counted = count_k_view_range(&net, &grid, theta, k, 0, grid.len());
        let brute = multiplicities.iter().filter(|&&m| m >= k).count();
        assert_eq!(counted, brute, "k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flags and k differentials on stage 2's inputs: fleets below
    /// Theorem 1's necessary CSA, at θ = π/4 and at θ = π/16 (where the
    /// masks almost never fill), over the whole grid and a sub-range.
    #[test]
    fn below_csa_and_pi_16_sweeps_match_exact(
        seed in 0u64..1_000_000,
        n in 300usize..900,
        fraction in 0.25..0.95f64,
        pi_16 in 0usize..2,
        side in 20usize..44,
        k in 1usize..4,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let net = below_csa_fleet(n, fraction, seed);
        let theta = EffectiveAngle::new(if pi_16 == 1 { PI / 16.0 } else { PI / 4.0 }).unwrap();
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        for (lo, hi) in [(0, grid.len()), (lo, hi)] {
            let mut got = Vec::with_capacity(hi - lo);
            FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, lo, hi, &mut |idx, flags| {
                got.push((idx, flags));
            });
            prop_assert_eq!(got.len(), hi - lo);
            for (idx, flags) in got {
                let exact = exact_ev.point_flags_with(&net, grid.point(idx));
                prop_assert_eq!(flags, exact, "idx {} range {}..{}", idx, lo, hi);
            }
            let counted = count_k_view_range(&net, &grid, theta, k, lo, hi);
            let brute = (lo..hi)
                .filter(|&i| view_multiplicity(&net, grid.point(i), theta) >= k)
                .count();
            prop_assert_eq!(counted, brute, "k={} range={}..{}", k, lo, hi);
        }
    }
}
