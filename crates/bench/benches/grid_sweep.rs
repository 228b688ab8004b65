//! Stage-1 screen rate and cold-sweep timings of the sector-mask kernel
//! per effective angle, on the bench fleet (1000 cameras, s_c = 0.05,
//! 96² grid). The screen rate shrinks as θ does: more sectors must fill
//! before the §IV certificate decides a point. Every row asserts the
//! mask-screened sweep bit-identical to the exact one before timing; the
//! printed table feeds the EXPERIMENTS.md sector-mask appendix.
//!
//! The tier speed floors live in `tier_gates.sh`, on the paper-regime
//! benchmark's traced per-layer metrics; the tiled path's zero-allocation
//! audit is `tests/alloc_audit.rs`.

use fullview_bench::bench_network;
use fullview_core::{EffectiveAngle, GridCoverageReport, GridEvaluator, GridTiling};
use fullview_geom::{Angle, Torus, UnitGrid};
use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Instant;

/// Manual median-of-N timing (the sweeps are tens to hundreds of
/// milliseconds each).
fn time_median_ns<F: FnMut() -> GridCoverageReport>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    let net = bench_network(1000, 0.05, 7);
    let grid = UnitGrid::new(Torus::unit(), 96);
    let tiling = GridTiling::new(net.index(), &grid);
    let tiles = tiling.tile_count();
    println!("\n| θ (rad) | suf sectors | screen rate | exact ms | mask ms | speedup |");
    println!("|---------|-------------|-------------|----------|---------|---------|");
    for theta in [PI, PI / 2.0, PI / 4.0, PI / 8.0, PI / 16.0] {
        let theta = EffectiveAngle::new(theta).expect("valid θ");
        let mut cursor = net.tile_cursor();
        let mut ev = GridEvaluator::new(theta, Angle::ZERO);
        let masked = ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
        let stats = ev.screen_stats();
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        let exact_report = exact_ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
        assert_eq!(masked, exact_report, "θ={}", theta.radians());
        let exact_ns = time_median_ns(5, || {
            let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
            ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles)
        });
        let mask_ns = time_median_ns(5, || {
            let mut ev = GridEvaluator::new(theta, Angle::ZERO);
            ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles)
        });
        println!(
            "| {:.4} | {} | {:.1}% | {:.1} | {:.1} | {:.1}x |",
            theta.radians(),
            theta.sufficient_sector_count(),
            stats.screen_rate() * 100.0,
            exact_ns / 1e6,
            mask_ns / 1e6,
            exact_ns / mask_ns
        );
    }
    println!();
}
