//! Allocation audit of the tiled hot path. A dedicated test binary
//! (single test, no parallel siblings) so the global counting allocator
//! sees only this test's allocations.
//!
//! After one warm-up sweep grows the [`GridEvaluator`]'s scratch buffers
//! and the tile cursor's candidate pin to the local camera density, a
//! full tiled grid sweep must perform no heap allocation at all — the
//! flags funnel and the k funnel alike — and so must a mask screen over
//! a rectangle whose every point retires, in either mode, a camera move
//! itself (the spatial index re-buckets the one camera in place) and a
//! warm state's marking and repair of it. A warm state's full rebuild
//! runs on its own evaluator, so it allocates only the buffers a rebuild
//! makes anew.

use fullview_bench::bench_network;
use fullview_core::{
    use_tiled, EffectiveAngle, GridEvaluator, GridTiling, IncrementalSweep, KBit, PointByte,
    PointVerdict, ScreenMode, SectorMaskKernel,
};
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{CameraNetwork, TileCursor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::ops::Range;
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
        KBit::new(k).evaluate_rect(
            evaluator,
            cursor,
            grid,
            cols,
            rows,
            0,
            grid.len(),
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
    let mut net = bench_network(1000, 0.05, 7);
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

    // Warmed screens over a rectangle whose every point retires: the
    // kernel ends its candidate walk once none is left, in Report mode
    // (both masks full and the count at ⌈π/θ⌉: a decided, fully covered
    // point) and in Depth mode (every sector depth at k: a met k verdict).
    // The rectangle is the first 4 × 4 block of a tile that retires.
    let mut kernel = SectorMaskKernel::new(theta, Angle::ZERO).expect("supported θ");
    let cap = theta.necessary_sector_count() as u32;
    let depth = ScreenMode::Depth { k: 2 };
    let blocks: Vec<(usize, Range<usize>, Range<usize>)> = (0..tiles)
        .flat_map(|t| {
            let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
            let block = |r: Range<usize>| (r.start..r.end.saturating_sub(3)).step_by(4);
            block(rows).flat_map(move |r| block(cols.clone()).map(move |c| (t, c..c + 4, r..r + 4)))
        })
        .collect();
    let mut screen = |kernel: &mut SectorMaskKernel,
                      (t, cols, rows): &(usize, Range<usize>, Range<usize>),
                      mode| {
        let (cx, cy) = tiling.tile_cell(*t);
        cursor.pin(cx, cy);
        let before = allocations();
        kernel.screen_tile(&cursor, &grid, cols.clone(), rows.clone(), mode);
        allocations() - before
    };
    let retired = blocks
        .iter()
        .find(|block| {
            screen(&mut kernel, block, ScreenMode::Report);
            let report = (0..16).all(|local| {
                matches!(
                    kernel.verdict(local),
                    PointVerdict::Decided { count, suf_full: true, nec_full: true } if count >= cap
                )
            });
            screen(&mut kernel, block, depth);
            report && (0..16).all(|local| kernel.k_verdict(local, 2) == Some(true))
        })
        .expect("some block retires every point in both modes");
    for mode in [ScreenMode::Report, depth] {
        screen(&mut kernel, retired, mode);
        let allocated = screen(&mut kernel, retired, mode);
        assert_eq!(
            allocated, 0,
            "retiring screen regressed: {allocated} allocations in a warmed {mode:?} screen"
        );
    }

    // A warmed move and repair: each round moves one camera by 1e-4,
    // marks its old and new sensing disks and resweeps the dirty
    // rectangles. The first two rounds grow the state's cursor buffers;
    // the third is counted, `move_camera` and the marking included. The
    // move flips no point, so the delta's flip lists (the repair's
    // output, which grow with the change) stay empty too.
    let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, grid.side_count());
    let id = 17;
    let home = net.cameras()[id].position();
    let away = Point::new(home.x + 1e-4, home.y);
    let mut repair = |net: &mut CameraNetwork, to: Point| {
        let cam = net.cameras()[id];
        let before = allocations();
        assert!(net.move_camera(id, to));
        state.mark_disk(cam.position(), cam.spec().radius());
        state.mark_disk(to, cam.spec().radius());
        let delta = state.resweep_dirty(net);
        (delta, allocations() - before)
    };
    repair(&mut net, away);
    repair(&mut net, home);
    let (delta, allocated) = repair(&mut net, away);
    assert!(
        !delta.rebuilt && delta.tiles_resweeped > 0,
        "the move must repair tiles"
    );
    assert!(
        delta.flipped_on.is_empty() && delta.flipped_off.is_empty(),
        "the audited move must flip no point"
    );
    assert_eq!(
        allocated, 0,
        "warm move regressed: {allocated} allocations in a warmed move, mark and repair"
    );

    // A warmed rebuild: `invalidate` sends the next repair down the cold
    // path, which runs the walk on the state's own evaluator — its kernel
    // scratch already warm, no second evaluator built. The first two
    // rebuilds warm it; the third is counted. What is left are the
    // buffers a rebuild makes anew, six on this fixture: the state's
    // tiling and its dirty set's rectangles and tile bits, then the
    // walk's own tiling and its tile cursor's candidate and
    // pinned-camera buffers (one each: every tile of this 3 × 3 index
    // scans all 1000 cameras).
    let mut rebuild = |net: &CameraNetwork| {
        state.invalidate();
        let before = allocations();
        let delta = state.resweep_dirty(net);
        (delta, allocations() - before)
    };
    rebuild(&net);
    rebuild(&net);
    let (delta, allocated) = rebuild(&net);
    assert!(delta.rebuilt, "an invalidated state must rebuild");
    assert!(
        delta.flipped_on.is_empty() && delta.flipped_off.is_empty(),
        "a rebuild over the same network must flip no point"
    );
    assert!(
        allocated <= 6,
        "warm rebuild regressed: {allocated} allocations in a warmed rebuild (at most 6)"
    );
}
