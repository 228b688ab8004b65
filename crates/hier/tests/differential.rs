//! The hier ⇄ exact differential: every hier-backed sweep must be
//! **bit-identical** to the exact engine, which stays the oracle.
//!
//! Four families:
//!
//! * property differentials — random heterogeneous networks, effective
//!   angles parked on sector-count boundaries, arbitrary ranged
//!   sub-sweeps and tile geometries, pinning flags, k-counts, masks,
//!   and glyph rows against `fullview-core`;
//! * accounting invariants — every in-range point is either proven by a
//!   certificate or visited exactly once, never both, never neither;
//! * deterministic deployments large enough that the point-space
//!   recursion actually proves interior rectangles (`points_proved > 0`)
//!   — a dense omnidirectional one, and a directional one with a
//!   camera-free band that proves both `Empty` and `Full` rectangles —
//!   so the fast path itself, not just its fallbacks, is differential
//!   tested;
//! * sparse directional fleets whose tiles all exceed the whole-tile
//!   threshold, so every unproved point reaches core through a sub-tile
//!   residual rectangle, for flags and k-counts alike.

use fullview_core::{
    count_k_view_range, coverage_glyphs_range, csa_sufficient, evaluate_grid, find_holes,
    full_view_mask_range, holes_from_mask, view_multiplicity, EffectiveAngle, FlagBits,
    GridEvaluator, IncrementalSweep, KBit, PointByte, PointFlags,
};
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_hier::{evaluate_grid_hier, ProverStats, Tier};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

// ---------- strategies (mirroring core's mask differential) ----------

/// Heterogeneous cameras hitting the prover's case splits: generic
/// sectors, omnidirectional φ ≈ 2π (the `aov_ok` fast branch), narrow
/// slivers, and radii from sliver to index-degenerate.
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

/// Effective angles parked where the sector partitions are touchiest:
/// θ = π (one necessary sector), exact divisors of 2π a few ulps either
/// side of an integer sector count, and generic values.
fn boundary_theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
    (0usize..10, 0.05..=1.0f64, 2usize..40, -4i32..=4).prop_map(|(sel, f, k, ulps)| {
        let t = match sel {
            0..=3 => f * PI,
            4 => PI,
            5 => TAU / 64.0,
            6..=8 => ((TAU / k as f64) * (1.0 + f64::from(ulps) * 1e-15)).clamp(1e-3, PI),
            _ => 0.021 + (f - 0.05) * 0.003,
        };
        EffectiveAngle::new(t).unwrap()
    })
}

// ---------- deterministic dense deployments ----------

/// Low-discrepancy golden-ratio scatter: dense enough that interior
/// rectangles are provably covered, deterministic so failures replay.
fn dense_network(n: usize, radius: f64, aov: f64) -> CameraNetwork {
    let torus = Torus::unit();
    let spec = SensorSpec::new(radius, aov).unwrap();
    let cams: Vec<Camera> = (0..n)
        .map(|i| {
            let t = i as f64;
            let pos = Point::new(
                (t * 0.754_877_666_246_693).fract(),
                (t * 0.569_840_290_998_053 + 0.137).fract(),
            );
            Camera::new(pos, Angle::new(t * 2.399_963), spec, GroupId(i % 3))
        })
        .collect();
    CameraNetwork::new(torus, cams)
}

/// The §VI reference mix (50 % φ = π, 30 % φ = π/2, 20 % φ = π/4, the
/// larger sensing areas on the wider angles) scaled to Theorem 2's
/// sufficient CSA at `theta` for `n` cameras, on the golden-ratio
/// scatter: a directional fleet whose `Full` certificates must pass the
/// field-of-view (`aov_ok`) test.
fn paper_mix_network(n: usize, theta: EffectiveAngle) -> CameraNetwork {
    let profile = NetworkProfile::builder()
        .group(SensorSpec::with_sensing_area(1.2, PI).unwrap(), 0.5)
        .group(SensorSpec::with_sensing_area(1.0, PI / 2.0).unwrap(), 0.3)
        .group(SensorSpec::with_sensing_area(0.5, PI / 4.0).unwrap(), 0.2)
        .build()
        .unwrap()
        .scale_to_weighted_area(csa_sufficient(n, theta))
        .unwrap();
    let groups = profile.groups();
    let cams: Vec<Camera> = (0..n)
        .filter_map(|i| {
            let t = i as f64;
            let pos = Point::new(
                (t * 0.754_877_666_246_693).fract(),
                (t * 0.569_840_290_998_053 + 0.137).fract(),
            );
            // Ten-camera blocks: five φ = π, three φ = π/2, two φ = π/4.
            let g = match i % 10 {
                0..=4 => 0,
                5..=7 => 1,
                _ => 2,
            };
            // The strip 0.4 ≤ x < 0.65 holds no camera, so points there fail.
            (!(0.4..0.65).contains(&pos.x)).then(|| {
                Camera::new(
                    pos,
                    Angle::new(t * 2.399_963),
                    *groups[g].spec(),
                    GroupId(g),
                )
            })
        })
        .collect();
    CameraNetwork::new(Torus::unit(), cams)
}

/// Collects one hier flags sweep into an index-keyed vector, asserting
/// each in-range index is emitted exactly once.
fn hier_flags(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    lo: usize,
    hi: usize,
) -> (Vec<fullview_core::PointFlags>, ProverStats) {
    let mut got = vec![None; hi - lo];
    let holds = FlagBits::new(Angle::ZERO);
    let stats = Tier::Hier.sweep(net, grid, theta, &holds, lo, hi, &mut |idx, flags| {
        assert!(idx >= lo && idx < hi, "idx {idx} outside {lo}..{hi}");
        assert!(got[idx - lo].is_none(), "idx {idx} emitted twice");
        got[idx - lo] = Some(flags);
    });
    let flags = got
        .into_iter()
        .map(|f| f.expect("every in-range index emitted"))
        .collect();
    (flags, stats)
}

/// How many points of `lo..hi` the hier k sweep finds with view
/// multiplicity at least `k`, and what the prover decided.
fn hier_k_count(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
) -> (usize, ProverStats) {
    let mut meeting = 0usize;
    let stats = Tier::Hier.sweep(net, grid, theta, &KBit::new(k), lo, hi, &mut |_, met| {
        meeting += usize::from(met);
    });
    (meeting, stats)
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

/// Sparse directional fleets holding one camera of radius 0.34–0.45: the
/// spatial index then has 2 × 2 cells, so at sides 40–96 every tile holds
/// 400–2304 points — beyond the whole-tile threshold — and every point
/// the prover cannot certify reaches core through a sub-tile residual
/// rectangle. 3–24 cameras stay far below the sufficient CSA.
fn large_tile_network_strategy() -> impl Strategy<Value = CameraNetwork> {
    let camera = |radius: std::ops::Range<f64>| {
        (
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..TAU,
            radius,
            PI / 4.0..1.5 * PI,
        )
            .prop_map(|(x, y, facing, r, phi)| {
                Camera::new(
                    Point::new(x, y),
                    Angle::new(facing),
                    SensorSpec::new(r, phi).unwrap(),
                    GroupId(0),
                )
            })
    };
    (
        camera(0.34..0.45),
        prop::collection::vec(camera(0.05..0.2), 2..24),
    )
        .prop_map(|(big, mut cams)| {
            cams.push(big);
            CameraNetwork::new(Torus::unit(), cams)
        })
}

/// θ = π/16 (where the screen decides least), a few ulps either side of
/// 2π/k, or generic.
fn residual_theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
    (0usize..3, 3usize..13, -4i32..=4, 0.05..=1.0f64).prop_map(|(sel, k, ulps, f)| {
        let t = match sel {
            0 => PI / 16.0,
            1 => (TAU / k as f64) * (1.0 + f64::from(ulps) * 1e-15),
            _ => f * PI,
        };
        EffectiveAngle::new(t).unwrap()
    })
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole differential: hier-backed flags, bit-identical to
    /// the exact range sweep over an arbitrary sub-range, with every
    /// in-range point either proven or visited (exactly once).
    #[test]
    fn hier_flags_sweep_matches_exact(
        net in range_network_strategy(40),
        theta in boundary_theta_strategy(),
        side in 2usize..24,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let (got, stats) = hier_flags(&net, &grid, theta, lo, hi);
        prop_assert_eq!(
            stats.points_proved + stats.points_visited,
            hi - lo,
            "accounting must partition the range"
        );
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        for (off, flags) in got.iter().enumerate() {
            let exact = exact_ev.point_flags_with(&net, grid.point(lo + off));
            prop_assert_eq!(*flags, exact, "idx {}", lo + off);
        }
    }

    /// Hier k-count against the core range count, all k including the
    /// trivial 0 and values above any multiplicity present.
    #[test]
    fn hier_kcount_matches_core(
        net in range_network_strategy(40),
        theta in boundary_theta_strategy(),
        k in 0usize..5,
        side in 2usize..16,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let (got, stats) = hier_k_count(&net, &grid, theta, k, lo, hi);
        let want = count_k_view_range(&net, &grid, theta, k, lo, hi);
        prop_assert_eq!(got, want, "k={} side={} range={}..{}", k, side, lo, hi);
        if k > 0 && lo < hi {
            prop_assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
        }
    }

    /// The wire-visible wrappers: glyph rows and full-view masks must be
    /// byte-identical to the core renderers the daemon verbs serve.
    #[test]
    fn hier_wrappers_match_core_bytes(
        net in range_network_strategy(32),
        theta in boundary_theta_strategy(),
        side in 2usize..16,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let len = side * side;
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * len as f64) as usize;
        let hi = ((fb * len as f64) as usize).min(len);
        let (glyphs, _) = Tier::Hier.glyphs(&net, theta, side, lo, hi);
        prop_assert_eq!(glyphs, coverage_glyphs_range(&net, theta, side, lo, hi));
        let (mask, _) = Tier::Hier.mask(&net, theta, side, lo, hi);
        prop_assert_eq!(mask, full_view_mask_range(&net, theta, side, lo, hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sub-tile residual rectangles: flags and k-counts (k = 1..3) over a
    /// sub-range, against references built point by point through the
    /// whole network, and against core's range count.
    #[test]
    fn sub_tile_residuals_match_exact(
        net in large_tile_network_strategy(),
        theta in residual_theta_strategy(),
        side in 40usize..97,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let (got, stats) = hier_flags(&net, &grid, theta, lo, hi);
        prop_assert_eq!(stats.tiles_exact, 0, "every tile exceeds the whole-tile threshold");
        prop_assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        let mut multiplicity = Vec::with_capacity(hi - lo);
        for (off, flags) in got.iter().enumerate() {
            let p = grid.point(lo + off);
            prop_assert_eq!(*flags, exact_ev.point_flags_with(&net, p), "idx {}", lo + off);
            multiplicity.push(view_multiplicity(&net, p, theta));
        }
        for k in 1..4 {
            let want = multiplicity.iter().filter(|&&m| m >= k).count();
            let (count, _) = hier_k_count(&net, &grid, theta, k, lo, hi);
            prop_assert_eq!(count, want, "hier k={} side={} range={}..{}", k, side, lo, hi);
            prop_assert_eq!(count_k_view_range(&net, &grid, theta, k, lo, hi), want, "core k={}", k);
        }
    }
}

// ---------- deterministic dense cases ----------

/// Side large enough that index tiles exceed the whole-tile kernel
/// threshold, forcing point-space recursion — and dense enough that
/// `FullyCovered` certificates actually fire.
#[test]
fn dense_omni_large_grid_proves_interior_rectangles() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 160;
    let grid = UnitGrid::new(Torus::unit(), side);
    let (got, stats) = hier_flags(&net, &grid, theta, 0, grid.len());
    assert!(
        stats.points_proved > 0,
        "dense omni deployment must prove some rectangles, stats: {stats}"
    );
    assert_eq!(stats.points_proved + stats.points_visited, grid.len());
    // Pinned, so that a change that weakens or strengthens a proof shows.
    let pinned = ProverStats {
        nodes: 1365,
        proved_full: 538,
        proved_empty: 0,
        points_proved: 13450,
        points_visited: 12150,
        tiles_exact: 0,
    };
    assert_eq!(stats, pinned);
    let mut want = vec![None; grid.len()];
    FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, 0, grid.len(), &mut |idx, flags| {
        want[idx] = Some(flags);
    });
    for (idx, flags) in got.iter().enumerate() {
        assert_eq!(*flags, want[idx].unwrap(), "idx {idx}");
    }
}

/// Directional cameras (φ = π) on the golden-ratio scatter with none in
/// the band 0.25 ≤ x < 0.75, on a side whose tiles hold 324 points — past
/// the whole-tile threshold, so certificates are tried inside tiles too.
/// The band's middle is out of every camera's reach, so `Empty`
/// certificates fire there; outside it `Full` certificates fire, each
/// through the field-of-view test. Flags equal core's, k = 1..3 counts
/// equal `count_k_view_range`'s, and every sweep's stats are pinned.
#[test]
fn sparse_directional_grid_matches_exact_and_proves_empties() {
    let net = dense_network(600, 0.12, PI).filter(|c| !(0.25..0.75).contains(&c.position().x));
    assert!(net.cameras().iter().all(|c| c.spec().angle_of_view() < TAU));
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    let side = 144;
    let grid = UnitGrid::new(Torus::unit(), side);
    let (got, stats) = hier_flags(&net, &grid, theta, 0, grid.len());
    assert!(
        stats.proved_empty > 0 && stats.proved_full > 0,
        "the fleet must prove both certificates: {stats}"
    );
    assert_eq!(stats.points_proved + stats.points_visited, grid.len());
    // Pinned, so that a change that weakens or strengthens a proof shows.
    let pinned = |nodes, proved_full, points_proved, points_visited| ProverStats {
        nodes,
        proved_full,
        proved_empty: 16,
        points_proved,
        points_visited,
        tiles_exact: 0,
    };
    assert_eq!(stats, pinned(850, 206, 9650, 11086));
    let mut want = vec![None; grid.len()];
    FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, 0, grid.len(), &mut |idx, flags| {
        want[idx] = Some(flags);
    });
    for (idx, flags) in got.iter().enumerate() {
        assert_eq!(*flags, want[idx].unwrap(), "idx {idx}");
    }
    let k_pinned = [
        pinned(850, 206, 9650, 11086),
        pinned(853, 19, 5584, 15152),
        pinned(853, 0, 5184, 15552),
    ];
    for (k, want_stats) in (1..).zip(k_pinned) {
        let (count, got_stats) = hier_k_count(&net, &grid, theta, k, 0, grid.len());
        assert_eq!(
            count,
            count_k_view_range(&net, &grid, theta, k, 0, grid.len()),
            "k={k}"
        );
        assert_eq!(got_stats, want_stats, "k={k}");
    }
}

/// The directional paper-mix differential: the §VI mix at Theorem 2's
/// CSA for 600 cameras, with a camera-free strip so that some points
/// fail, on a side where `Full` certificates fire through the
/// field-of-view test. Flags and k = 1..3 counts equal core's over the
/// whole grid and a sub-range, and every sweep's prover stats are pinned,
/// so a change that weakens or strengthens a proof shows up here.
#[test]
fn paper_mix_directional_grid_matches_exact_with_pinned_stats() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let net = paper_mix_network(600, theta);
    let grid = UnitGrid::new(Torus::unit(), 96);
    let len = grid.len();
    let stats = |nodes, proved_full, points_proved, points_visited| ProverStats {
        nodes,
        proved_full,
        proved_empty: 0,
        points_proved,
        points_visited,
        tiles_exact: 0,
    };
    // (range, flags stats, k = 1..3 stats).
    let cases = [
        (
            0..len,
            stats(341, 98, 3528, 5688),
            [
                stats(341, 98, 3528, 5688),
                stats(341, 51, 1836, 7380),
                stats(341, 14, 504, 8712),
            ],
        ),
        (
            len / 5..3 * len / 4,
            stats(201, 54, 1889, 3180),
            [
                stats(201, 54, 1889, 3180),
                stats(201, 30, 1038, 4031),
                stats(201, 8, 288, 4781),
            ],
        ),
    ];
    for (range, flag_stats, k_stats) in cases {
        let (lo, hi) = (range.start, range.end);
        let (got, got_stats) = hier_flags(&net, &grid, theta, lo, hi);
        assert_eq!(got_stats, flag_stats, "flags {lo}..{hi}");
        let mut want = vec![None; hi - lo];
        FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, lo, hi, &mut |idx, flags| {
            want[idx - lo] = Some(flags);
        });
        for (off, flags) in got.iter().enumerate() {
            assert_eq!(Some(*flags), want[off], "idx {}", lo + off);
        }
        assert!(
            got.iter().any(|f| !f.full_view) && got.iter().any(|f| f.full_view),
            "the strip must leave both verdicts in {lo}..{hi}"
        );
        for (k, want_stats) in (1..).zip(k_stats) {
            let (count, got_stats) = hier_k_count(&net, &grid, theta, k, lo, hi);
            assert_eq!(
                count,
                count_k_view_range(&net, &grid, theta, k, lo, hi),
                "k={k} {lo}..{hi}"
            );
            assert_eq!(got_stats, want_stats, "k={k} {lo}..{hi}");
        }
    }
}

/// The paper mix at Theorem 2's CSA for θ = π/8, where the prover
/// certifies least and most of the grid reaches core's screen through
/// residual rectangles: flags and k = 1..3 counts equal core's, and every
/// sweep's prover stats are pinned.
#[test]
fn paper_mix_at_an_eighth_of_pi_matches_exact_with_pinned_stats() {
    let theta = EffectiveAngle::new(PI / 8.0).unwrap();
    let net = paper_mix_network(600, theta);
    let grid = UnitGrid::new(Torus::unit(), 96);
    let len = grid.len();
    let (got, flag_stats) = hier_flags(&net, &grid, theta, 0, len);
    let mut want = vec![None; len];
    FlagBits::new(Angle::ZERO).sweep(&net, &grid, theta, 0, len, &mut |idx, flags| {
        want[idx] = Some(flags);
    });
    for (idx, flags) in got.iter().enumerate() {
        assert_eq!(Some(*flags), want[idx], "idx {idx}");
    }
    // Pinned, so that a change that weakens or strengthens a proof shows;
    // the certificate scan's facing pre-test skips only cones that could
    // not make a witness, so it moves none of them.
    let stats = |proved_full, points_proved, points_visited| ProverStats {
        nodes: 341,
        proved_full,
        proved_empty: 0,
        points_proved,
        points_visited,
        tiles_exact: 0,
    };
    assert_eq!(flag_stats, stats(19, 684, 8532), "flags");
    let k_stats = [stats(19, 684, 8532), stats(0, 0, 9216), stats(0, 0, 9216)];
    for (k, want_stats) in (1..).zip(k_stats) {
        let (count, got_stats) = hier_k_count(&net, &grid, theta, k, 0, len);
        assert_eq!(
            count,
            count_k_view_range(&net, &grid, theta, k, 0, len),
            "k={k}"
        );
        assert_eq!(got_stats, want_stats, "k={k}");
    }
}

/// The report- and hole-level wrappers at a side where certificates
/// fire: identical tallies, identical rendered hole report.
#[test]
fn dense_reports_and_holes_match_core() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 160;
    let grid = UnitGrid::new(Torus::unit(), side);
    let (report, _) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
    assert_eq!(report, evaluate_grid(&net, theta, &grid, Angle::ZERO));
    let (mask, _) = Tier::Hier.mask(&net, theta, side, 0, side * side);
    let holes = holes_from_mask(*net.torus(), side, &mask);
    assert_eq!(holes.to_string(), find_holes(&net, theta, side).to_string());
}

/// Hier k-count at a certificate-firing side, for the multiplicities
/// the cluster `kfull` verb serves.
#[test]
fn dense_kcount_matches_core_at_scale() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 128;
    let grid = UnitGrid::new(Torus::unit(), side);
    for k in [1usize, 2, 3] {
        let (got, _) = hier_k_count(&net, &grid, theta, k, 0, grid.len());
        assert_eq!(
            got,
            count_k_view_range(&net, &grid, theta, k, 0, grid.len()),
            "k={k}"
        );
    }
    // Ranged sub-sweeps partition-sum to the full count.
    let third = grid.len() / 3;
    let (c1, _) = hier_k_count(&net, &grid, theta, 1, 0, third);
    let (c2, _) = hier_k_count(&net, &grid, theta, 1, third, 2 * third);
    let (c3, _) = hier_k_count(&net, &grid, theta, 1, 2 * third, grid.len());
    let (all, _) = hier_k_count(&net, &grid, theta, 1, 0, grid.len());
    assert_eq!(c1 + c2 + c3, all);
}

/// Two cameras on one grid point: each co-located camera watches every
/// direction, so the point has multiplicity 2 and both tiers count it at
/// k = 2. No other point qualifies: both cameras view it from the same
/// direction.
#[test]
fn grid_point_carrying_two_cameras_counts_at_k2() {
    let grid = UnitGrid::new(Torus::unit(), 16);
    let p = grid.point(5 * 16 + 7);
    let spec = SensorSpec::new(0.3, PI).unwrap();
    let net = CameraNetwork::new(
        Torus::unit(),
        vec![
            Camera::new(p, Angle::ZERO, spec, GroupId(0)),
            Camera::new(p, Angle::new(PI / 2.0), spec, GroupId(1)),
        ],
    );
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    assert_eq!(view_multiplicity(&net, p, theta), 2);
    assert_eq!(count_k_view_range(&net, &grid, theta, 2, 0, grid.len()), 1);
    let (got, stats) = hier_k_count(&net, &grid, theta, 2, 0, grid.len());
    assert_eq!(got, 1, "{stats}");
    assert!(stats.nodes > 0, "the prover never ran");
}

/// Stats merging is plain summation; the Display line is stable.
#[test]
fn stats_merge_and_display() {
    let mut a = ProverStats {
        nodes: 3,
        proved_full: 1,
        proved_empty: 1,
        points_proved: 90,
        points_visited: 10,
        tiles_exact: 1,
    };
    let b = a;
    a.merge(&b);
    assert_eq!(a.nodes, 6);
    assert_eq!(a.points_proved, 180);
    assert!((a.proved_fraction() - 0.9).abs() < 1e-12);
    assert_eq!(
        b.to_string(),
        "nodes 3 (full 1, empty 1), points proved 90 / visited 10, exact tiles 1"
    );
}

/// The composed tier: an incremental state whose cold builds come from
/// the prover matches the core-built state — cold, after a move repaired
/// through the core funnel, and after a rebuild.
#[test]
fn incremental_state_built_by_the_prover_matches_the_core_walk() {
    let mut net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 160;
    let mut nodes = 0;
    let holds = FlagBits::new(Angle::ZERO);
    let mut cold =
        |net: &CameraNetwork, grid: &UnitGrid, emit: &mut dyn FnMut(usize, PointFlags)| {
            nodes += Tier::Hier
                .sweep(net, grid, theta, &holds, 0, grid.len(), emit)
                .nodes;
        };
    let mut state = IncrementalSweep::with_cold_sweep(&net, theta, holds, side, &mut cold);
    let core = |net: &CameraNetwork| IncrementalSweep::new(net, theta, Angle::ZERO, side);
    assert_eq!(state.report(), core(&net).report());
    assert_eq!(state.mask(), core(&net).mask());

    let cam = net.cameras()[7];
    let to = Point::new(0.52, 0.31);
    assert!(net.move_camera(7, to));
    state.mark_disk(cam.position(), cam.spec().radius());
    state.mark_disk(to, cam.spec().radius());
    assert!(!state.resweep_dirty_with(&net, &mut cold).rebuilt);
    assert_eq!(state.mask(), core(&net).mask(), "after the repair");

    state.invalidate();
    assert!(state.resweep_dirty_with(&net, &mut cold).rebuilt);
    assert_eq!(state.report(), core(&net).report(), "after the rebuild");
    assert_eq!(state.mask(), core(&net).mask(), "after the rebuild");
    assert!(nodes > 0, "the prover never ran");
}
