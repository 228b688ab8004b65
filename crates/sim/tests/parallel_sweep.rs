//! Differential test: the parallel dense-grid sweep must be bit-identical
//! to the serial `fullview_core::evaluate_grid` for every thread count.
//!
//! Integer tallies over disjoint chunks merge exactly, so even float-free
//! equality (`==` on every report field) must hold regardless of
//! scheduling. Thread counts deliberately include 7 (doesn't divide the
//! chunk count) and more threads than chunks.

use fullview_core::{dense_grid, evaluate_grid, EffectiveAngle, GridCoverageReport, GridEvaluator};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Torus, UnitGrid};
use fullview_model::{CameraNetwork, NetworkProfile, SensorSpec};
use fullview_sim::{evaluate_dense_grid_parallel, evaluate_grid_parallel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

fn network(n: usize, seed: u64, r: f64, phi: f64) -> CameraNetwork {
    let profile = NetworkProfile::homogeneous(SensorSpec::new(r, phi).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), &profile, n, &mut rng).unwrap()
}

#[test]
fn parallel_equals_serial_for_all_thread_counts_and_seeds() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    for seed in [0u64, 42, 0xDEAD_BEEF] {
        let net = network(150, seed, 0.16, PI);
        // Big enough for several 1024-point chunks.
        let grid = UnitGrid::new(Torus::unit(), 70); // 4900 points
        let serial = evaluate_grid(&net, theta, &grid, Angle::ZERO);
        for threads in [1usize, 2, 4, 7] {
            let par = evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
            assert_eq!(
                par, serial,
                "parallel sweep diverged: threads={threads} seed={seed}"
            );
        }
    }
}

#[test]
fn mask_screened_parallel_matches_wholesale_exact() {
    // The parallel sweep builds `GridEvaluator::new` internally, so it
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
        for threads in [1usize, 2, 4] {
            let par = evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
            assert_eq!(par, exact, "threads={threads} seed={seed} phi={phi}");
        }
    }
}

#[test]
fn dense_grid_wrapper_matches_core_wrapper() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let net = network(100, 7, 0.2, PI / 2.0);
    let serial = fullview_core::evaluate_dense_grid(&net, theta, Angle::ZERO);
    for threads in [0usize, 1, 2, 4, 7] {
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
    let start = Angle::new(1.234);
    let grid = UnitGrid::new(Torus::unit(), 64); // 4096 points = 4 exact chunks
    let serial = evaluate_grid(&net, theta, &grid, start);
    for threads in [2usize, 3, 5, 8] {
        assert_eq!(
            evaluate_grid_parallel(&net, theta, &grid, start, threads),
            serial,
            "threads={threads}"
        );
    }
}
