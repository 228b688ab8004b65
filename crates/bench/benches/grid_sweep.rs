//! Serial vs intra-sweep parallel dense-grid coverage, plus an
//! allocation audit of the tiled hot path and gates computed from the
//! current run's own medians.
//!
//! Four claims are measured:
//!
//! 1. **Zero allocation per point.** After one warm-up sweep grows the
//!    [`GridEvaluator`]'s scratch buffer and the [`TileCursor`]'s
//!    candidate pin to the local camera density, a full tiled grid sweep
//!    must perform no heap allocation at all (counted by a wrapping global
//!    allocator; the audit runs before the timings and aborts the bench on
//!    regression).
//! 2. **Mask screen vs exact.** `mask_cold` / `exact_cold` time the
//!    two-stage sector-mask sweep against the pinned exact analyzer; the
//!    gate requires at least [`MIN_MASK_SPEEDUP`]×.
//! 3. **Parallel scaling.** 1/2/4 threads vs serial. On a single-core host
//!    the parallel variants only show claiming overhead; speedups require
//!    real cores.
//! 4. **Incremental resweep.** After a single-camera move, re-evaluating
//!    only the dirty tiles ([`IncrementalSweep::resweep_dirty`]) must be at
//!    least [`MIN_INCREMENTAL_SPEEDUP`]× faster than a cold sweep on the
//!    same grid — and bit-identical to it (asserted before timing).
//!
//! The hierarchical prover is gated likewise against the mask kernel on a
//! large grid ([`MIN_HIER_SPEEDUP`]). Every gate compares numbers from the
//! same run, so it holds on any host; set `FULLVIEW_BENCH_GATE=off` to
//! skip them.
//!
//! [`TileCursor`]: fullview_model::TileCursor

use criterion::{BenchmarkId, Criterion};
use fullview_bench::bench_network;
use fullview_core::{
    evaluate_grid, sweep_flags_range, use_tiled, EffectiveAngle, GridCoverageReport, GridEvaluator,
    GridTiling, IncrementalSweep,
};
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_hier::sweep_flags_range_hier;
use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
use fullview_sim::evaluate_grid_parallel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation made through the global allocator.
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

/// Verifies the zero-allocation claim: a warmed evaluator sweeps every
/// tile of the grid without touching the heap.
fn allocation_audit() {
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

    println!(
        "allocation audit: {allocated} heap allocations across {} points (warmed)",
        grid.len()
    );
    assert_eq!(
        allocated, 0,
        "tiled hot path regressed: {allocated} allocations in a warmed sweep"
    );
}

fn bench_sweep(c: &mut Criterion) {
    let theta = EffectiveAngle::new(PI / 4.0).expect("valid θ");
    let torus = Torus::unit();
    let grid = UnitGrid::new(torus, 96); // 9216 points ≈ n=10³ dense grid
    let net = bench_network(1000, 0.05, 7);
    assert!(
        use_tiled(&net, &grid),
        "bench grid must take the tiled path"
    );
    let serial_report = evaluate_grid(&net, theta, &grid, Angle::ZERO);

    let mut group = c.benchmark_group("grid_sweep");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| black_box(evaluate_grid(&net, theta, &grid, Angle::ZERO)));
    });
    // Two-stage mask screen vs pinned exact analyzer, both cold (fresh
    // evaluator per iteration) on the tiled path: the sector-mask
    // kernel's raison d'être, gated at MIN_MASK_SPEEDUP below.
    {
        let tiling = GridTiling::new(net.index(), &grid);
        let tiles = tiling.tile_count();
        let mut cursor = net.tile_cursor();
        let mut mask_ev = GridEvaluator::new(theta, Angle::ZERO);
        let mut exact_ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        let masked = mask_ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
        let exact = exact_ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles);
        assert_eq!(masked, exact, "mask-screened sweep diverged from exact");
        let stats = mask_ev.screen_stats();
        println!(
            "mask screen: {}/{} points decided by stage 1 ({:.1}% screen rate)",
            stats.screened,
            stats.screened + stats.exact,
            stats.screen_rate() * 100.0
        );
        group.bench_function("mask_cold", |b| {
            b.iter(|| {
                let mut ev = GridEvaluator::new(theta, Angle::ZERO);
                black_box(ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles))
            });
        });
        group.bench_function("exact_cold", |b| {
            b.iter(|| {
                let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
                black_box(ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiles))
            });
        });
    }
    for &threads in &[1usize, 2, 4] {
        // Bit-identity across thread counts is part of the contract benchmarked.
        let par: GridCoverageReport =
            evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
        assert_eq!(par, serial_report, "threads={threads}");
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| black_box(evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, t)));
        });
    }
    group.finish();
}

/// A dense omnidirectional fleet on an R2 low-discrepancy scatter: the
/// regime the hierarchical prover is built for (wide overlap lets whole
/// quadtree rectangles certify as fully covered). The directional
/// [`bench_network`] profile stays on the mask benches untouched.
fn dense_omni_network(n: usize, radius: f64) -> CameraNetwork {
    let spec = SensorSpec::new(radius, std::f64::consts::TAU).expect("valid spec");
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
    CameraNetwork::new(Torus::unit(), cams)
}

/// The hierarchical prover vs the mask-screened kernel, both cold, on a
/// large grid (`hier`'s raison d'être: interior rectangles proved
/// without visiting their points). Bit-identity is asserted before any
/// timing; the speedup is gated at [`MIN_HIER_SPEEDUP`] below.
fn bench_hier(c: &mut Criterion) {
    let theta = EffectiveAngle::new(PI / 3.0).expect("valid θ");
    let net = dense_omni_network(420, 0.12);
    let side = 640usize;
    let grid = UnitGrid::new(Torus::unit(), side);

    let mut mask_full = 0usize;
    sweep_flags_range(&net, &grid, theta, Angle::ZERO, 0, grid.len(), |_, f| {
        mask_full += usize::from(f.full_view);
    });
    let mut hier_full = 0usize;
    let stats = sweep_flags_range_hier(&net, &grid, theta, Angle::ZERO, 0, grid.len(), |_, f| {
        hier_full += usize::from(f.full_view);
    });
    assert_eq!(mask_full, hier_full, "hier sweep diverged from the kernel");
    assert!(
        stats.points_proved > 0,
        "prover proved nothing on the dense omni fleet: {stats}"
    );
    println!("hier prover at side {side}: {stats}");

    let mut group = c.benchmark_group("grid_sweep");
    group.sample_size(10);
    group.bench_function("mask_cold_large", |b| {
        b.iter(|| {
            let mut full = 0usize;
            sweep_flags_range(&net, &grid, theta, Angle::ZERO, 0, grid.len(), |_, f| {
                full += usize::from(f.full_view);
            });
            black_box(full)
        });
    });
    group.bench_function("hier_cold", |b| {
        b.iter(|| {
            let mut full = 0usize;
            sweep_flags_range_hier(&net, &grid, theta, Angle::ZERO, 0, grid.len(), |_, f| {
                full += usize::from(f.full_view);
            });
            black_box(full)
        });
    });
    group.finish();
}

/// Floor on the cold-sweep / dirty-resweep median ratio after a single
/// camera move; the whole point of tile-dirty tracking.
const MIN_INCREMENTAL_SPEEDUP: f64 = 5.0;

/// Floor on the exact-sweep / mask-screened-sweep median ratio on the
/// single-thread tiled path; the whole point of the sector-mask kernel.
/// Compared on the *current* run's medians, so it is host-independent.
const MIN_MASK_SPEEDUP: f64 = 5.0;

/// Floor on the mask-kernel / hierarchical-prover median ratio on the
/// large-grid dense-omni sweep; the whole point of the quadtree prover.
/// Compared on the *current* run's medians, so it is host-independent.
const MIN_HIER_SPEEDUP: f64 = 3.0;

/// Cold full-grid sweeps vs dirty-tile resweeps after one camera move.
///
/// The resweep iteration toggles camera 0 between its seeded position and
/// a fixed offset, marking the departure and arrival disks each time —
/// exactly the daemon's `move` mutation path. Bit-identity with a cold
/// rebuild is asserted for both toggle directions before any timing.
fn bench_incremental(c: &mut Criterion) {
    let theta = EffectiveAngle::new(PI / 4.0).expect("valid θ");
    let grid_side = 96usize;
    // Finer sensing areas than the sweep benches: dirty granularity is the
    // spatial-index cell (sized by the fleet's max radius), and at
    // s_c = 0.05 the index is 3×3 so any move dirties every tile. At
    // s_c = 0.002 (radii ≈ 0.04–0.05) the index is 19×19 and a move
    // dirties ~12 of 361 tiles — the regime the engine is built for.
    let mut net = bench_network(1000, 0.002, 7);
    let radius = net.cameras()[0].spec().radius();
    let home = net.cameras()[0].position();
    let away = Point::new((home.x + 0.31) % 1.0, (home.y + 0.17) % 1.0);

    let mut sweep = IncrementalSweep::new(&net, theta, Angle::ZERO, grid_side);
    for &(from, to) in &[(home, away), (away, home)] {
        assert!(net.move_camera(0, to), "camera 0 exists");
        sweep.mark_disk(from, radius);
        sweep.mark_disk(to, radius);
        let delta = sweep.resweep_dirty(&net);
        assert!(!delta.rebuilt, "a move must repair, not rebuild");
        let cold = IncrementalSweep::new(&net, theta, Angle::ZERO, grid_side);
        assert_eq!(
            sweep.report(),
            cold.report(),
            "dirty resweep diverged from a cold sweep"
        );
        assert_eq!(sweep.mask(), cold.mask(), "masks diverged");
    }

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(IncrementalSweep::new(&net, theta, Angle::ZERO, grid_side)));
    });
    let mut at_home = true;
    group.bench_function("resweep", |b| {
        b.iter(|| {
            let (from, to) = if at_home { (home, away) } else { (away, home) };
            at_home = !at_home;
            net.move_camera(0, to);
            sweep.mark_disk(from, radius);
            sweep.mark_disk(to, radius);
            black_box(sweep.resweep_dirty(&net))
        });
    });
    group.finish();
}

fn lookup(results: &[(String, f64)], id: &str) -> Option<f64> {
    results.iter().find(|(i, _)| i == id).map(|(_, m)| *m)
}

/// Fails the bench when a tier stops paying for itself: each gate
/// compares two medians of the current run, so it is host-independent
/// and needs no committed baseline.
fn regression_gate(criterion: &Criterion) {
    if std::env::var("FULLVIEW_BENCH_GATE").as_deref() == Ok("off") {
        println!("bench gate: FULLVIEW_BENCH_GATE=off, skipping");
        return;
    }
    let current: Vec<(String, f64)> = criterion
        .results()
        .iter()
        .map(|r| (r.id.clone(), r.median_ns))
        .collect();

    // Incremental gate: the cold sweep vs the dirty-tile resweep.
    match (
        lookup(&current, "incremental/cold"),
        lookup(&current, "incremental/resweep"),
    ) {
        (Some(cold), Some(resweep)) => {
            let speedup = cold / resweep;
            println!(
                "bench gate: incremental resweep speedup {speedup:.1}x \
                 (floor {MIN_INCREMENTAL_SPEEDUP:.0}x)"
            );
            assert!(
                speedup >= MIN_INCREMENTAL_SPEEDUP,
                "dirty-tile resweep no longer pays: {speedup:.1}x < \
                 {MIN_INCREMENTAL_SPEEDUP:.0}x over a cold sweep"
            );
        }
        _ => println!("bench gate: incremental ids missing from current run, skipping"),
    }

    // Mask-kernel gate: exact vs mask-screened cold sweeps.
    match (
        lookup(&current, "grid_sweep/mask_cold"),
        lookup(&current, "grid_sweep/exact_cold"),
    ) {
        (Some(mask), Some(exact)) => {
            let speedup = exact / mask;
            println!(
                "bench gate: mask-screen speedup {speedup:.1}x \
                 (floor {MIN_MASK_SPEEDUP:.0}x)"
            );
            assert!(
                speedup >= MIN_MASK_SPEEDUP,
                "sector-mask screen no longer pays: {speedup:.1}x < \
                 {MIN_MASK_SPEEDUP:.0}x over the exact tiled sweep"
            );
        }
        _ => println!("bench gate: mask/exact ids missing from current run, skipping"),
    }

    // Hierarchical-prover gate: mask kernel vs quadtree prover on the
    // large dense-omni grid.
    match (
        lookup(&current, "grid_sweep/hier_cold"),
        lookup(&current, "grid_sweep/mask_cold_large"),
    ) {
        (Some(hier), Some(mask)) => {
            let speedup = mask / hier;
            println!(
                "bench gate: hier prover speedup {speedup:.1}x \
                 (floor {MIN_HIER_SPEEDUP:.0}x)"
            );
            assert!(
                speedup >= MIN_HIER_SPEEDUP,
                "hierarchical prover no longer pays: {speedup:.1}x < \
                 {MIN_HIER_SPEEDUP:.0}x over the mask kernel at large sides"
            );
        }
        _ => println!("bench gate: hier/mask_large ids missing from current run, skipping"),
    }
}

/// Manual median-of-N timing (seconds granularity is overkill here; the
/// sweeps are hundreds of milliseconds each).
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

/// Prints the stage-1 screen rate and cold-sweep timings per effective
/// angle (the screen rate shrinks as θ does: more sectors must fill
/// before the §IV certificate decides a point). Enabled with
/// `FULLVIEW_BENCH_SCREEN_TABLE=1`; output feeds the EXPERIMENTS.md
/// sector-mask section.
fn screen_rate_table(net: &CameraNetwork) {
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

fn main() {
    allocation_audit();
    if std::env::var("FULLVIEW_BENCH_SCREEN_TABLE").as_deref() == Ok("1") {
        let net = bench_network(1000, 0.05, 7);
        screen_rate_table(&net);
    }
    let mut criterion = Criterion::default();
    bench_sweep(&mut criterion);
    bench_hier(&mut criterion);
    bench_incremental(&mut criterion);
    regression_gate(&criterion);
    criterion.final_summary();
}
