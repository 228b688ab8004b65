//! Allocation audit of the tiled hot path. A dedicated test binary
//! (single test, no parallel siblings) so the global counting allocator
//! sees only this test's allocations.
//!
//! After one warm-up sweep grows the [`GridEvaluator`]'s scratch buffers
//! and the tile cursor's candidate pin to the local camera density, a
//! full tiled grid sweep must perform no heap allocation at all — the
//! flags funnel and the k funnel alike.

use fullview_bench::bench_network;
use fullview_core::{use_tiled, EffectiveAngle, GridEvaluator, GridTiling};
use fullview_geom::{Angle, Torus, UnitGrid};
use fullview_model::TileCursor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Points of `grid` with view multiplicity at least `k`, through the k
/// funnel over every tile.
fn k_sweep(
    evaluator: &mut GridEvaluator,
    cursor: &mut TileCursor<'_>,
    tiling: &GridTiling,
    grid: &UnitGrid,
    k: usize,
) -> usize {
    let mut met = 0usize;
    for t in 0..tiling.tile_count() {
        if tiling.tile_point_count(t) == 0 {
            continue;
        }
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
        evaluator.for_each_point_k_in_rect(
            cursor,
            grid,
            cols,
            rows,
            0,
            grid.len(),
            k,
            &mut |_, m| {
                met += usize::from(m);
            },
        );
    }
    met
}

#[test]
fn warmed_tiled_sweep_allocates_nothing() {
    let theta = EffectiveAngle::new(PI / 4.0).expect("valid θ");
    let net = bench_network(1000, 0.05, 7);
    let grid = UnitGrid::new(Torus::unit(), 50); // 2500 points
    assert!(use_tiled(&net, &grid), "audit must exercise the tiled path");
    let tiling = GridTiling::new(net.index(), &grid);
    let mut cursor = net.tile_cursor();
    let tiles = tiling.tile_count();
    let mut evaluator = GridEvaluator::new(theta, Angle::ZERO);
    // Warm-up grows the direction scratch buffer and the cursor's pin.
    let warm = evaluator.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
    let before = allocations();
    let hot = evaluator.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
    let allocated = allocations() - before;
    assert_eq!(warm, hot, "warmed tiled sweeps must agree");
    assert_eq!(
        allocated, 0,
        "tiled hot path regressed: {allocated} allocations in a warmed sweep"
    );

    // The k funnel, in this same test: the counter is global, so a
    // second test would run in parallel with the first.
    let warm = k_sweep(&mut evaluator, &mut cursor, &tiling, &grid, 2);
    let before = allocations();
    let hot = k_sweep(&mut evaluator, &mut cursor, &tiling, &grid, 2);
    let allocated = allocations() - before;
    assert_eq!(warm, hot, "warmed k sweeps must agree");
    assert_eq!(
        allocated, 0,
        "k funnel regressed: {allocated} allocations in a warmed k = 2 sweep"
    );
}
