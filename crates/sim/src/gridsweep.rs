//! Intra-sweep parallel dense-grid coverage evaluation.
//!
//! The Monte-Carlo runner ([`crate::run_trials_map`]) parallelises *across*
//! trials; this module parallelises *within* one trial: the tiles of a
//! single dense-grid sweep (§III-A) — one spatial-index cell's worth of
//! grid points sharing a pinned candidate list — are claimed dynamically
//! by workers, each evaluating with its own [`GridEvaluator`] scratch
//! state (no per-point allocation), and the partial
//! [`GridCoverageReport`]s are merged in tile order. Every report field is
//! a plain integer sum over disjoint point sets, so merging is exact and
//! order-independent: the parallel sweep is **bit-identical** to
//! [`evaluate_grid`] for every thread count.
//!
//! When tiles do not pay off ([`use_tiled`]) the grid is small — the index
//! has at most 256 cells per axis, so such a grid holds at most 65,536
//! points — and the serial sweep answers it.

use fullview_core::{
    dense_grid, evaluate_grid, use_tiled, EffectiveAngle, GridCoverageReport, GridEvaluator,
    GridTiling,
};
use fullview_geom::{Angle, UnitGrid};
use fullview_model::CameraNetwork;
use std::sync::atomic::{AtomicUsize, Ordering};

fn effective_threads(threads: usize, units: usize) -> usize {
    let n = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    };
    n.max(1).min(units.max(1))
}

/// Sweeps `grid` with `threads` workers (`0` = one per available CPU),
/// evaluating every coverage predicate at each point.
///
/// Workers claim tiles from an atomic counter when the tiled engine is
/// profitable ([`use_tiled`]); otherwise the grid is small and the serial
/// sweep answers it. Produces a report bit-identical to
/// [`evaluate_grid`]`(net, theta, grid, start_line)` for every thread
/// count: workers tally disjoint point sets and the integer tallies are
/// merged, which is exact regardless of scheduling.
///
/// # Panics
///
/// Propagates panics from worker threads.
#[must_use]
pub fn evaluate_grid_parallel(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    grid: &UnitGrid,
    start_line: Angle,
    threads: usize,
) -> GridCoverageReport {
    if !use_tiled(net, grid) {
        return evaluate_grid(net, theta, grid, start_line);
    }
    let tiling = GridTiling::new(net.index(), grid);
    let tiles = tiling.tile_count();
    let threads = effective_threads(threads, tiles);
    if threads == 1 {
        return evaluate_grid(net, theta, grid, start_line);
    }

    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, GridCoverageReport)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let tiling = &tiling;
                scope.spawn(move || {
                    let mut evaluator = GridEvaluator::new(theta, start_line);
                    let mut cursor = net.tile_cursor();
                    let mut out = Vec::new();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tiles {
                            break out;
                        }
                        // Empty tiles contribute the zero report; skip the
                        // pin entirely (identity under merge).
                        if tiling.tile_point_count(t) == 0 {
                            continue;
                        }
                        out.push((
                            t,
                            evaluator.evaluate_tiles(&mut cursor, tiling, grid, t..t + 1),
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("grid sweep worker panicked"))
            .collect()
    });

    // Merge in tile order (empty tiles absent — they are the identity).
    let mut indexed: Vec<(usize, GridCoverageReport)> = Vec::new();
    for worker in per_worker.drain(..) {
        indexed.extend(worker);
    }
    indexed.sort_by_key(|(t, _)| *t);
    let mut report = GridCoverageReport::default();
    for (_, partial) in indexed {
        report += partial;
    }
    report
}

/// Parallel variant of [`fullview_core::evaluate_dense_grid`]: sweeps the
/// paper's dense grid (`m = ⌈n ln n⌉` with `n = net.len()`) over the
/// network's torus using `threads` workers (`0` = one per available CPU).
#[must_use]
pub fn evaluate_dense_grid_parallel(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    start_line: Angle,
    threads: usize,
) -> GridCoverageReport {
    let grid = dense_grid(*net.torus(), net.len());
    evaluate_grid_parallel(net, theta, &grid, start_line, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_deploy::deploy_uniform;
    use fullview_geom::{Point, Torus};
    use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    fn random_network(n: usize, seed: u64) -> CameraNetwork {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.18, PI).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        deploy_uniform(Torus::unit(), &profile, n, &mut rng).unwrap()
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_across_threads_and_seeds() {
        let th = theta(PI / 3.0);
        for seed in [1u64, 99, 0xFEED] {
            let net = random_network(120, seed);
            let grid = UnitGrid::new(Torus::unit(), 60); // 3600 points
            let serial = evaluate_grid(&net, th, &grid, Angle::ZERO);
            for threads in [1usize, 2, 4, 7] {
                let par = evaluate_grid_parallel(&net, th, &grid, Angle::ZERO, threads);
                assert_eq!(par, serial, "threads={threads} seed={seed}");
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one_worker_minimum() {
        // `effective_threads` never resolves to zero, whatever mix of
        // zero threads / zero work units it is handed.
        assert!(effective_threads(0, 16) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
        assert_eq!(effective_threads(0, 0), 1);
        // And threads=0 sweeps run and stay bit-identical to serial.
        let net = random_network(80, 11);
        let grid = UnitGrid::new(Torus::unit(), 48);
        let th = theta(PI / 3.0);
        let serial = evaluate_grid(&net, th, &grid, Angle::ZERO);
        assert_eq!(
            evaluate_grid_parallel(&net, th, &grid, Angle::ZERO, 0),
            serial
        );
    }

    #[test]
    fn auto_thread_count_matches_serial() {
        let net = random_network(60, 7);
        let th = theta(PI / 4.0);
        let serial = fullview_core::evaluate_dense_grid(&net, th, Angle::ZERO);
        let par = evaluate_dense_grid_parallel(&net, th, Angle::ZERO, 0);
        assert_eq!(par, serial);
    }

    #[test]
    fn small_grid_single_chunk_short_circuits() {
        // A 25-point grid with more threads than it has tiles must agree.
        let net = random_network(20, 3);
        let grid = UnitGrid::new(Torus::unit(), 5);
        let th = theta(PI / 2.0);
        let serial = evaluate_grid(&net, th, &grid, Angle::ZERO);
        assert_eq!(
            evaluate_grid_parallel(&net, th, &grid, Angle::ZERO, 8),
            serial
        );
    }

    #[test]
    fn empty_network_parallel_sweep() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let grid = UnitGrid::new(Torus::unit(), 40);
        let th = theta(PI / 2.0);
        let r = evaluate_grid_parallel(&net, th, &grid, Angle::ZERO, 4);
        assert_eq!(r.total_points, 1600);
        assert_eq!(r.covered, 0);
        assert!(!r.all_full_view());
    }

    #[test]
    fn saturated_network_all_full_view_in_parallel() {
        let torus = Torus::unit();
        let spec = SensorSpec::new(0.3, 2.0 * PI).unwrap();
        let mut cams = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                cams.push(Camera::new(
                    Point::new(i as f64 / 12.0, j as f64 / 12.0),
                    Angle::ZERO,
                    spec,
                    GroupId(0),
                ));
            }
        }
        let net = CameraNetwork::new(torus, cams);
        let grid = UnitGrid::new(torus, 40);
        let r = evaluate_grid_parallel(&net, theta(PI / 4.0), &grid, Angle::ZERO, 3);
        assert!(r.all_full_view(), "{r}");
        assert_eq!(r.full_view_fraction(), 1.0);
    }
}
