//! Differential test for the tiled evaluation engine's parallel report:
//! `evaluate_grid_parallel`, whose workers share a grid's tiles, and the
//! serial walk (tiles or the per-point unit) must produce bit-identical
//! [`GridCoverageReport`]s, and the mask-screened engine must match the
//! wholesale exact evaluator.
//!
//! Every report field is an integer tally over a disjoint partition of the
//! grid, so equality must be exact (`==` on every field) for any execution
//! shape: serial vs parallel, tiled vs per-point, and any thread count —
//! including 0 (one per CPU) and 7, which does not divide the tile count.

use fullview_core::{
    dense_grid, evaluate_dense_grid, evaluate_dense_grid_parallel, evaluate_grid,
    evaluate_grid_parallel, use_tiled, EffectiveAngle, GridCoverageReport, GridEvaluator,
    GridTiling,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

const THREADS: [usize; 5] = [0, 1, 2, 4, 7];

fn network(n: usize, seed: u64, r: f64, phi: f64) -> CameraNetwork {
    let profile = NetworkProfile::homogeneous(SensorSpec::new(r, phi).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), &profile, n, &mut rng).unwrap()
}

/// Asserts every thread count agrees with the serial walk on
/// `net × grid` and returns the reference report.
fn assert_all_backends_agree(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    start: Angle,
    label: &str,
) -> GridCoverageReport {
    let reference = evaluate_grid(net, theta, grid, start);
    for threads in THREADS {
        let parallel = evaluate_grid_parallel(net, theta, grid, start, threads);
        assert_eq!(parallel, reference, "{label}: threads={threads}");
    }
    reference
}

#[test]
fn parallel_and_serial_agree_across_seeds() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    for seed in [3u64, 77, 0xC0FFEE] {
        let net = network(140, seed, 0.15, PI);
        let grid = UnitGrid::new(Torus::unit(), 60);
        let label = format!("seed {seed}");
        let r = assert_all_backends_agree(&net, &grid, theta, Angle::new(0.37), &label);
        assert_eq!(r.total_points, 3600);
    }
}

#[test]
fn parallel_equals_serial_for_all_thread_counts_and_seeds() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    for seed in [0u64, 42, 0xDEAD_BEEF] {
        let net = network(150, seed, 0.16, PI);
        let grid = UnitGrid::new(Torus::unit(), 70); // 4900 points
        assert_all_backends_agree(&net, &grid, theta, Angle::ZERO, &format!("seed {seed}"));
    }
}

#[test]
fn mask_screened_parallel_matches_wholesale_exact() {
    // The parallel report builds `GridEvaluator::new` per worker, so it
    // inherits the two-stage sector-mask kernel. Pin it against the
    // wholesale exact per-point evaluator (`new_exact`, no screening at
    // all) for every thread count — this crosses both the kernel/exact
    // boundary and the serial/parallel boundary in one differential.
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    for (seed, phi) in [(1u64, PI), (9, 2.0 * PI), (77, PI / 6.0)] {
        let net = network(120, seed, 0.15, phi);
        let grid = UnitGrid::new(Torus::unit(), 48); // 2304 points
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        let mut exact = GridCoverageReport::default();
        for idx in 0..grid.len() {
            exact.record(&exact_ev.point_flags_with(&net, grid.point(idx)));
        }
        for threads in THREADS {
            let par = evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
            assert_eq!(par, exact, "threads={threads} seed={seed} phi={phi}");
        }
    }
}

#[test]
fn dense_grid_wrapper_matches_core_wrapper() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let net = network(100, 7, 0.2, PI / 2.0);
    let serial = evaluate_dense_grid(&net, theta, Angle::ZERO);
    for threads in THREADS {
        let par = evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, threads);
        assert_eq!(par, serial, "threads={threads}");
    }
    // Both use the paper's m = ⌈n ln n⌉ grid.
    let grid = dense_grid(Torus::unit(), net.len());
    assert_eq!(serial.total_points, grid.len());
}

#[test]
fn heterogeneous_profile_and_awkward_start_line_agree() {
    // Mixed radii stress the spatial-index window; a non-zero start line
    // stresses the sector partitions.
    let profile = NetworkProfile::builder()
        .group(SensorSpec::new(0.08, PI / 2.0).unwrap(), 0.6)
        .group(SensorSpec::new(0.22, PI / 8.0).unwrap(), 0.4)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let net = deploy_uniform(Torus::unit(), &profile, 200, &mut rng).unwrap();
    let theta = EffectiveAngle::new(0.41 * PI).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 64);
    assert_all_backends_agree(&net, &grid, theta, Angle::new(1.234), "start 1.234");
}

#[test]
fn heterogeneous_profile_mixed_radii_and_aov() {
    // Mixed r_y stresses the per-camera radius² prefilter in the tile
    // cursor (candidates pinned at the global max radius, filtered
    // per-camera); mixed φ_y stresses the sector check.
    let profile = NetworkProfile::builder()
        .group(SensorSpec::new(0.06, PI / 3.0).unwrap(), 0.5)
        .group(SensorSpec::new(0.18, 2.0 * PI).unwrap(), 0.3)
        .group(SensorSpec::new(0.27, PI / 7.0).unwrap(), 0.2)
        .build()
        .unwrap();
    let theta = EffectiveAngle::new(0.45 * PI).unwrap();
    for seed in [11u64, 5150] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = deploy_uniform(Torus::unit(), &profile, 180, &mut rng).unwrap();
        for side in [31usize, 64] {
            let grid = UnitGrid::new(Torus::unit(), side);
            let label = format!("seed {seed} side {side}");
            assert_all_backends_agree(&net, &grid, theta, Angle::new(0.37), &label);
        }
    }
}

#[test]
fn saturated_network_all_full_view_in_parallel() {
    let spec = SensorSpec::new(0.3, 2.0 * PI).unwrap();
    let mut cams = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            let p = Point::new(i as f64 / 12.0, j as f64 / 12.0);
            cams.push(Camera::new(p, Angle::ZERO, spec, GroupId(0)));
        }
    }
    let net = CameraNetwork::new(Torus::unit(), cams);
    let grid = UnitGrid::new(Torus::unit(), 40);
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let r = assert_all_backends_agree(&net, &grid, theta, Angle::ZERO, "saturated");
    assert!(r.all_full_view(), "{r}");
    assert_eq!(r.full_view_fraction(), 1.0);
}

#[test]
fn small_grid_single_chunk_short_circuits() {
    // A 25-point grid, and requests for more workers than it has tiles.
    let net = network(20, 3, 0.18, PI);
    let grid = UnitGrid::new(Torus::unit(), 5);
    let tiles = GridTiling::new(net.index(), &grid).tile_count();
    assert!(use_tiled(&net, &grid) && tiles < 64, "{tiles} tiles");
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    let serial = assert_all_backends_agree(&net, &grid, theta, Angle::ZERO, "25 points");
    for threads in [8usize, 64] {
        let par = evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn empty_network_degenerate() {
    // Empty network: max radius 0 collapses the index to its minimum cell
    // fraction, so the tiled policy must bow out on small grids — and stay
    // exact when it doesn't.
    let net = CameraNetwork::new(Torus::unit(), Vec::new());
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    for side in [1usize, 13, 40] {
        let grid = UnitGrid::new(Torus::unit(), side);
        let label = format!("empty side {side}");
        let r = assert_all_backends_agree(&net, &grid, theta, Angle::new(0.37), &label);
        assert_eq!(r.covered, 0);
        assert_eq!(r.total_points, side * side);
    }
}

#[test]
fn single_camera_degenerate() {
    let spec = SensorSpec::new(0.25, PI).unwrap();
    let net = CameraNetwork::new(
        Torus::unit(),
        vec![Camera::new(
            Point::new(0.31, 0.62),
            Angle::new(1.1),
            spec,
            GroupId(0),
        )],
    );
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    for side in [1usize, 9, 48] {
        let grid = UnitGrid::new(Torus::unit(), side);
        let label = format!("n=1 side {side}");
        let r = assert_all_backends_agree(&net, &grid, theta, Angle::new(0.37), &label);
        // One sector-bounded camera never full-view covers a non-colocated
        // point, but 1-coverage must register somewhere on a fine grid.
        if side == 48 {
            assert!(r.covered > 0);
        }
    }
}

#[test]
fn sensing_radius_exceeding_torus_side_degenerate() {
    // r = 1.5 on the unit torus: every tile's candidate window is a full
    // scan, so tiling degenerates to the whole-network query and must
    // still agree bit-for-bit.
    let spec = SensorSpec::new(1.5, 2.0 * PI).unwrap();
    let cams: Vec<Camera> = (0..9)
        .map(|i| {
            let p = Point::new(0.1 + 0.09 * i as f64, (0.13 * i as f64) % 1.0);
            Camera::new(p, Angle::new(i as f64), spec, GroupId(i % 2))
        })
        .collect();
    let net = CameraNetwork::new(Torus::unit(), cams);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 25);
    let r = assert_all_backends_agree(&net, &grid, theta, Angle::new(0.37), "radius > side");
    // Omni cameras with unbounded reach cover everything.
    assert_eq!(r.covered, r.total_points);
}

#[test]
fn tiled_policy_engages_on_dense_grids() {
    // Sanity: the differential tests above exercise BOTH code paths.
    let net = network(140, 9, 0.15, PI);
    assert!(use_tiled(&net, &UnitGrid::new(Torus::unit(), 60)));
    let empty = CameraNetwork::new(Torus::unit(), Vec::new());
    assert!(!use_tiled(&empty, &UnitGrid::new(Torus::unit(), 13)));
}
