//! The cell-coherent tile evaluation engine: one batch query path from the
//! spatial index to every dense-grid sweep consumer.
//!
//! Every coverage experiment in this repository reduces to "evaluate some
//! predicate at each point of a [`UnitGrid`]". The naive loop asks the
//! [`SpatialGrid`] for candidates once *per point*, re-walking the same
//! 3×3 bucket neighbourhood for every grid point in a cell. The engine
//! instead traverses the grid *tile by tile* (one spatial-index cell's
//! worth of grid points), pins the cell's candidate cameras once through a
//! [`TileCursor`](fullview_model::TileCursor), and answers each point's
//! query with only the exact distance/sector filter over a contiguous
//! candidate snapshot.
//!
//! Every sweep over a grid index range — views, flags, k-counts — runs
//! through one walk (`walk`): it decides between tiles and the
//! per-point unit and filters each unit's points to the range. Every
//! visit of a tile — the walk's, [`GridEvaluator::evaluate_tiles`]'s,
//! a warm state's repair, a parallel worker's — goes through one tile
//! loop (`walk_tiles`), which skips tiles outside the range and pins the
//! cursor. Work shared across threads goes through one worker loop
//! ([`claim_units`]) under one worker rule ([`worker_count`]).
//! Invariants they maintain (and the differential tests assert):
//!
//! * **Exact partition** — [`GridTiling`] assigns every grid index to
//!   exactly one tile, so tile-order tallies merge to precisely the
//!   row-major result (all report fields are order-independent integer
//!   sums).
//! * **Backend equivalence** — the tile path and the per-point path
//!   enumerate the same covering-camera set for every point; differing
//!   candidate order is erased by the analyzer's direction sort, so
//!   analyses are bit-identical.
//! * **Adaptive traversal** — tiles only pay off when several grid points
//!   share a cell. [`use_tiled`] sends the walk down the per-point unit —
//!   the whole range, unscreened, backed by the whole network — when the
//!   index has more cells than the grid has points (e.g. an empty network,
//!   whose index floors at 256×256 cells).

use crate::densegrid::{GridCoverageReport, GridEvaluator, PointFlags, FULL_VIEW_BIT};
use crate::fullview::{CoverageView, PointAnalyzer};
use crate::holes::FullViewMask;
use crate::mask::{ScreenMode, ScreenStats, SectorMaskKernel};
use crate::render::{glyph_of, glyph_string};
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Point, SpatialGrid, Torus, UnitGrid};
use fullview_model::{Camera, CameraNetwork, CoverageProvider, CursorBuffers, TileCursor};
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps a [`UnitGrid`] onto the cells of a [`SpatialGrid`]: every grid
/// point belongs to exactly one tile (the index cell containing it), and
/// each tile's points form a contiguous block of grid columns × rows.
///
/// Grid coordinates are monotone in the point index along each axis, and
/// the cell-of-coordinate map is monotone too, so the columns (rows)
/// owned by an index cell form a contiguous run; the tiling stores just
/// the `cells + 1` run boundaries (shared by both axes — cells and grid
/// are square over the same torus).
#[derive(Debug, Clone)]
pub struct GridTiling {
    /// Index cells per axis.
    cells: usize,
    /// Grid points per axis.
    grid_side: usize,
    /// `starts[c]..starts[c + 1]` is the run of grid columns (and rows)
    /// whose coordinate falls in cell column (row) `c`.
    starts: Vec<usize>,
}

impl GridTiling {
    /// Builds the tiling of `grid` by the cells of `index`.
    ///
    /// # Panics
    ///
    /// Panics if the grid and index cover tori of different side lengths.
    #[must_use]
    pub fn new(index: &SpatialGrid, grid: &UnitGrid) -> Self {
        let cells = index.cells_per_axis();
        let k = grid.side_count();
        let grid_span = grid.spacing() * k as f64;
        assert!(
            (grid_span - index.torus().side()).abs() <= 1e-9 * index.torus().side().max(1.0),
            "grid (side {grid_span}) and spatial index (side {}) cover different tori",
            index.torus().side()
        );
        let mut starts = vec![0usize; cells + 1];
        let mut prev = 0usize;
        for i in 0..k {
            // Column i's x-coordinate (row 0 works: x only depends on i).
            let x = grid.point(i).x;
            let (c, _) = index.cell_of(Point::new(x, x));
            debug_assert!(c >= prev, "cell-of-coordinate must be monotone");
            for boundary in &mut starts[prev + 1..=c] {
                *boundary = i;
            }
            prev = c;
        }
        for boundary in &mut starts[prev + 1..=cells] {
            *boundary = k;
        }
        GridTiling {
            cells,
            grid_side: k,
            starts,
        }
    }

    /// Total number of tiles (index cells), including empty ones.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.cells * self.cells
    }

    /// Index cells per axis (`tile_count()` is its square). Hierarchical
    /// consumers recurse over the `cells × cells` tile lattice and need
    /// the axis extent to form tile-coordinate rectangles.
    #[must_use]
    pub fn cells_per_axis(&self) -> usize {
        self.cells
    }

    /// The contiguous run of grid columns whose x-coordinate falls in
    /// index-cell column `c` — the per-axis form of
    /// [`tile_col_range`](Self::tile_col_range), addressed by cell
    /// coordinate instead of tile id (rows are identical by symmetry:
    /// cells and grid are square over the same torus).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cells_per_axis()`.
    #[must_use]
    pub fn cell_axis_range(&self, c: usize) -> std::ops::Range<usize> {
        assert!(c < self.cells, "cell column {c} out of {}", self.cells);
        self.starts[c]..self.starts[c + 1]
    }

    /// Calls `f(c, lines)` for every index-cell coordinate `c` whose run
    /// of grid lines meets one of `runs`, with that run's lines inside
    /// the cell — in run order, cells ascending within a run. Columns and
    /// rows alike: cells and grid are square.
    pub(crate) fn for_each_cell_meeting(
        &self,
        runs: &[Range<usize>; 2],
        mut f: impl FnMut(usize, Range<usize>),
    ) {
        for run in runs.iter().filter(|run| !run.is_empty()) {
            // `starts[0] == 0`, so the first cell starting after
            // `run.start` has a predecessor: the cell holding it.
            let first = self.starts.partition_point(|&s| s <= run.start) - 1;
            for c in first..self.cells {
                let cell = self.cell_axis_range(c);
                if cell.start >= run.end {
                    break;
                }
                let lines = cell.start.max(run.start)..cell.end.min(run.end);
                if !lines.is_empty() {
                    f(c, lines);
                }
            }
        }
    }

    /// The index cell `(cx, cy)` of tile `t` (row-major tile ids).
    #[must_use]
    pub fn tile_cell(&self, t: usize) -> (usize, usize) {
        (t % self.cells, t / self.cells)
    }

    /// Number of grid points inside tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_point_count(&self, t: usize) -> usize {
        let (cx, cy) = self.tile_cell(t);
        let cols = self.starts[cx + 1] - self.starts[cx];
        let rows = self.starts[cy + 1] - self.starts[cy];
        cols * rows
    }

    /// Calls `f` with the row-major grid index of every point inside tile
    /// `t`, in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    pub fn for_each_point_in_tile<F: FnMut(usize)>(&self, t: usize, mut f: F) {
        let (cx, cy) = self.tile_cell(t);
        for j in self.starts[cy]..self.starts[cy + 1] {
            let base = j * self.grid_side;
            for i in self.starts[cx]..self.starts[cx + 1] {
                f(base + i);
            }
        }
    }

    /// Total number of grid points across all tiles (`grid.len()`).
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.grid_side * self.grid_side
    }

    /// The contiguous run of grid columns owned by tile `t` — batch
    /// kernels iterate this to lay out per-column scratch, visiting the
    /// same points [`for_each_point_in_tile`](Self::for_each_point_in_tile)
    /// does (columns inner, rows outer).
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_col_range(&self, t: usize) -> std::ops::Range<usize> {
        let (cx, _) = self.tile_cell(t);
        self.starts[cx]..self.starts[cx + 1]
    }

    /// The contiguous run of grid rows owned by tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_row_range(&self, t: usize) -> std::ops::Range<usize> {
        let (_, cy) = self.tile_cell(t);
        self.starts[cy]..self.starts[cy + 1]
    }

    /// The row-major grid-index interval `[min, max]` spanned by tile
    /// `t`'s points (inclusive). Useful for rejecting tiles wholly
    /// outside a contiguous index range without pinning their cell.
    ///
    /// Returns `None` for an empty tile.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_index_span(&self, t: usize) -> Option<(usize, usize)> {
        let (cx, cy) = self.tile_cell(t);
        let (c0, c1) = (self.starts[cx], self.starts[cx + 1]);
        let (r0, r1) = (self.starts[cy], self.starts[cy + 1]);
        if c0 == c1 || r0 == r1 {
            return None;
        }
        Some((r0 * self.grid_side + c0, (r1 - 1) * self.grid_side + c1 - 1))
    }
}

/// Whether the tile path is profitable for this network/grid pair: tiles
/// amortise the bucket walk only when grid points outnumber index cells
/// (at least one point per tile on average). A tiny-radius or empty
/// network floors the index at 256×256 cells, where per-tile pinning
/// would dwarf a small sweep.
#[must_use]
pub fn use_tiled(net: &CameraNetwork, grid: &UnitGrid) -> bool {
    let cells = net.index().cells_per_axis();
    cells * cells <= grid.len()
}

/// One unit of the dense-grid walk: a rectangle of grid points inside the
/// cell a cursor is pinned to — a whole tile, or any sub-rectangle of one
/// — or, when tiles do not pay off, the whole range as a single
/// unscreened unit backed by the whole network. Either way a consumer
/// writes one loop: screen the unit if it can, then visit its in-range
/// points with the unit itself as the [`CoverageProvider`].
///
/// Public only so the sealed [`PointByte`] can name it; the `engine`
/// module is private and does not re-export it, so nothing outside the
/// crate can build or read one.
#[derive(Debug)]
pub struct SweepUnit<'a> {
    net: &'a CameraNetwork,
    /// The pinned cursor and the unit's grid columns × rows; `None` for
    /// the whole-network unit.
    rect: Option<(&'a TileCursor<'a>, Range<usize>, Range<usize>)>,
    grid: &'a UnitGrid,
    lo: usize,
    hi: usize,
}

impl<'a> SweepUnit<'a> {
    /// The unit of the in-range points `lo..hi` among grid columns `cols`
    /// × rows `rows`, a rectangle of the cell `cursor` is pinned to.
    pub(crate) fn rect(
        cursor: &'a TileCursor<'a>,
        grid: &'a UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
    ) -> Self {
        SweepUnit {
            net: cursor.network(),
            rect: Some((cursor, cols, rows)),
            grid,
            lo,
            hi,
        }
    }

    /// Screens the unit's rectangle through `kernel` and gathers the
    /// viewed directions of its in-range points the masks leave
    /// undecided; the verdicts are then indexed by the `local` position
    /// [`for_each_point`](Self::for_each_point) reports. Returns `false` —
    /// nothing screened — for the whole-network unit.
    pub(crate) fn screen(&self, kernel: &mut SectorMaskKernel, mode: ScreenMode) -> bool {
        let Some((cursor, cols, rows)) = &self.rect else {
            return false;
        };
        kernel.screen_tile(cursor, self.grid, cols.clone(), rows.clone(), mode);
        kernel.gather_directions(cursor, self.lo, self.hi);
        true
    }

    /// Calls `f(local, index)` for every point of the unit inside
    /// `lo..hi`: rows outer, columns inner within a rectangle, row-major
    /// for the whole-network unit. `local` is the point's position in the
    /// unit's full traversal (out-of-range points included), the index of
    /// its screen verdict.
    pub(crate) fn for_each_point<F: FnMut(usize, usize)>(&self, mut f: F) {
        let (lo, hi) = (self.lo, self.hi);
        match &self.rect {
            Some((_, cols, rows)) => {
                let side = self.grid.side_count();
                let mut local = 0usize;
                for r in rows.clone() {
                    for idx in r * side + cols.start..r * side + cols.end {
                        if idx >= lo && idx < hi {
                            f(local, idx);
                        }
                        local += 1;
                    }
                }
            }
            None => (lo..hi).for_each(|idx| f(idx - lo, idx)),
        }
    }

    /// The cursor a rectangle unit is pinned through, for a consumer that
    /// evaluates a sub-rectangle of it; `None` for the whole-network unit.
    pub(crate) fn cursor(&self) -> Option<&'a TileCursor<'a>> {
        self.rect.as_ref().map(|&(cursor, ..)| cursor)
    }

    /// The coordinates of grid index `idx` — computed only for the points
    /// a consumer analyses, since screened points never need them.
    pub(crate) fn point(&self, idx: usize) -> Point {
        self.grid.point(idx)
    }
}

impl CoverageProvider for SweepUnit<'_> {
    fn torus(&self) -> &Torus {
        self.net.torus()
    }

    fn for_each_covering<F: FnMut(&Camera)>(&self, target: Point, f: F) {
        match &self.rect {
            Some((cursor, ..)) => cursor.for_each_covering(target, f),
            None => self.net.for_each_covering(target, f),
        }
    }
}

/// The one tile loop: for each id in `tiles`, skips a tile that is empty
/// or wholly outside `lo..hi`, pins `cursor` to the tile's cell, and
/// hands `visit(t, unit)` the tile's rectangle as the unit of its
/// in-range points. Its callers differ only in the ids they pass: the
/// walk passes every tile, a repair its dirty tiles (then evaluating
/// only each tile's dirty rectangle on the pinned cursor), a parallel
/// worker the tiles it claims.
///
/// # Panics
///
/// Panics if an id is at or past `tiling.tile_count()`.
pub(crate) fn walk_tiles<F>(
    cursor: &mut TileCursor<'_>,
    tiling: &GridTiling,
    grid: &UnitGrid,
    tiles: impl IntoIterator<Item = usize>,
    lo: usize,
    hi: usize,
    mut visit: F,
) where
    F: FnMut(usize, &SweepUnit<'_>),
{
    let count = tiling.tile_count();
    for t in tiles {
        assert!(t < count, "tile id {t} exceeds tile count {count}");
        let Some((min_idx, max_idx)) = tiling.tile_index_span(t) else {
            continue;
        };
        if max_idx < lo || min_idx >= hi {
            continue;
        }
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
        visit(t, &SweepUnit::rect(cursor, grid, cols, rows, lo, hi));
    }
}

/// The one dense-grid walk every sweep runs: chooses tiles or the
/// per-point unit ([`use_tiled`]) and hands each [`SweepUnit`] that holds
/// points of `lo..hi` to `visit`, every tile through [`walk_tiles`].
/// Units arrive in tile order, so consumers key results by grid index.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub(crate) fn walk<F>(net: &CameraNetwork, grid: &UnitGrid, lo: usize, hi: usize, mut visit: F)
where
    F: FnMut(&SweepUnit<'_>),
{
    assert!(
        lo <= hi && hi <= grid.len(),
        "range {lo}..{hi} out of bounds for a grid of {} points",
        grid.len()
    );
    if lo == hi {
        return;
    }
    if !use_tiled(net, grid) {
        visit(&SweepUnit {
            net,
            rect: None,
            grid,
            lo,
            hi,
        });
        return;
    }
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    let tiles = 0..tiling.tile_count();
    walk_tiles(&mut cursor, &tiling, grid, tiles, lo, hi, |_, unit| {
        visit(unit)
    });
}

/// The one worker rule: how many workers a request for `threads` gets
/// over `units` units of work. `0` asks for one per CPU; the count is
/// never above the CPUs or the units, and never zero. Every caller is
/// CPU-bound and answers identically for any count, so workers beyond
/// the CPUs could not help.
#[must_use]
pub fn worker_count(threads: usize, units: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let wanted = if threads == 0 {
        cpus
    } else {
        threads.min(cpus)
    };
    wanted.min(units).max(1)
}

/// The one worker loop: shares the unit ids `0..units` among
/// [`worker_count`]`(threads, units)` workers and returns each worker's
/// result. `work` receives the ids its worker claims and must consume
/// them; every id reaches exactly one worker.
///
/// A single worker runs on the calling thread over `0..units` in order.
/// Several run on scoped threads and claim ids one at a time from one
/// atomic counter, so uneven units balance. Results come back in worker
/// order, not unit order: callers either add them up (tallies over
/// disjoint units) or key them by unit id.
///
/// # Panics
///
/// Propagates a panic from `work`.
pub fn claim_units<R, W>(units: usize, threads: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(&mut dyn Iterator<Item = usize>) -> R + Sync,
{
    let workers = worker_count(threads, units);
    if workers == 1 {
        return vec![work(&mut (0..units))];
    }
    // The counter only hands out ids; results travel back through `join`,
    // which orders them after the work.
    let next = AtomicUsize::new(0);
    let claim = || {
        let id = next.fetch_add(1, Ordering::Relaxed);
        (id < units).then_some(id)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| work(&mut std::iter::from_fn(claim))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Visits every grid point with a ready-to-use coverage backend. Points
/// arrive in tile order, so callbacks key results by `index`.
pub(crate) fn for_each_grid_point<F>(net: &CameraNetwork, grid: &UnitGrid, mut f: F)
where
    F: FnMut(&SweepUnit<'_>, usize, Point),
{
    walk(net, grid, 0, grid.len(), |unit| {
        unit.for_each_point(|_, idx| f(unit, idx, unit.point(idx)));
    });
}

/// Sweeps the grid with a shared [`PointAnalyzer`], handing each point's
/// [`CoverageView`] to the callback — the one-stop entry point for
/// consumers that need the full per-point analysis (full-view predicates,
/// gap statistics, multiplicities).
///
/// Allocation-free once the analyzer and cursor buffers are warm; visits
/// points in tile order (key results by the `usize` grid index).
pub fn sweep_grid<F>(net: &CameraNetwork, grid: &UnitGrid, f: F)
where
    F: FnMut(usize, Point, &CoverageView<'_>),
{
    sweep_grid_range(net, grid, 0, grid.len(), f);
}

/// [`sweep_grid`] restricted to the contiguous row-major index range
/// `lo..hi`. Per-point analyses are bit-identical to the full sweep, so
/// concatenating range results over a partition of `0..grid.len()`
/// reproduces the full sweep exactly.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub(crate) fn sweep_grid_range<F>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    lo: usize,
    hi: usize,
    mut f: F,
) where
    F: FnMut(usize, Point, &CoverageView<'_>),
{
    let mut analyzer = PointAnalyzer::new();
    walk(net, grid, lo, hi, |unit| {
        unit.for_each_point(|_, idx| {
            let point = unit.point(idx);
            let view = analyzer.analyze_point_with(unit, point);
            f(idx, point, &view);
        });
    });
}

/// The work list of the incremental resweep: per tile id of a
/// [`GridTiling`], the rectangle of grid columns × rows inside the tile
/// that a mutation may have changed, and a bitset of the tiles whose
/// rectangle is non-empty.
///
/// Marking is an *over-approximation*: re-evaluating a clean point always
/// reproduces its stored byte (per-point analysis is history-free), so
/// extra marks cost time, never correctness. Missing a point is the only
/// bug class, which is why [`WarmGrid::mark_disk`] widens each disk's
/// reach past every rounding of the exact path's coverage test. Marks into
/// one tile before a repair merge into their bounding rectangle.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet {
    /// Per tile, its dirty columns `c0..c1` × rows `r0..r1` as
    /// `[c0, c1, r0, r1]`; all zero while the tile is clean.
    rects: Vec<[u32; 4]>,
    /// Bit `t % 64` of word `t / 64` is set while tile `t` is dirty.
    words: Vec<u64>,
    marked: usize,
}

impl DirtySet {
    /// An all-clean set over `tiles` tile ids.
    pub(crate) fn new(tiles: usize) -> Self {
        DirtySet {
            rects: vec![[0; 4]; tiles],
            words: vec![0; tiles.div_ceil(64)],
            marked: 0,
        }
    }

    /// Widens tile `t`'s dirty rectangle to hold columns `cols` × rows
    /// `rows`; an empty `cols` or `rows` marks nothing.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or a grid line does not fit a `u32`.
    pub(crate) fn mark(&mut self, t: usize, cols: Range<usize>, rows: Range<usize>) {
        if cols.is_empty() || rows.is_empty() {
            return;
        }
        let line = |i: usize| u32::try_from(i).expect("grid lines fit a u32");
        let add = [
            line(cols.start),
            line(cols.end),
            line(rows.start),
            line(rows.end),
        ];
        let (word, bit) = (t / 64, 1u64 << (t % 64));
        let rect = &mut self.rects[t];
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.marked += 1;
            *rect = add;
        } else {
            *rect = [
                rect[0].min(add[0]),
                rect[1].max(add[1]),
                rect[2].min(add[2]),
                rect[3].max(add[3]),
            ];
        }
    }

    /// Tile `t`'s dirty columns and rows (both empty while it is clean).
    pub(crate) fn rect(&self, t: usize) -> (Range<usize>, Range<usize>) {
        let [c0, c1, r0, r1] = self.rects[t].map(|line| line as usize);
        (c0..c1, r0..r1)
    }

    /// Number of dirty tiles.
    pub(crate) fn marked_count(&self) -> usize {
        self.marked
    }

    /// Whether no tile is dirty.
    pub(crate) fn is_empty(&self) -> bool {
        self.marked == 0
    }

    /// The dirty tile ids in ascending order.
    pub(crate) fn marked(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    t
                })
            })
        })
    }

    /// Cleans every tile.
    pub(crate) fn clear(&mut self) {
        for (w, word) in self.words.iter_mut().enumerate() {
            while *word != 0 {
                self.rects[w * 64 + word.trailing_zeros() as usize] = [0; 4];
                *word &= *word - 1;
            }
        }
        self.marked = 0;
    }
}

/// A whole-grid sweep feeding a [`WarmGrid`] cold build: `cold(net, grid,
/// emit)` must call `emit(index, verdict)` exactly once per grid index,
/// with verdicts bit-identical to the state's kind's
/// [`sweep`](PointByte::sweep) at the state's θ — [`PointFlags`] (the
/// default) for a flags state, `bool` for a k-count state. The
/// hierarchical prover is one such sweep.
pub type ColdSweep<'s, V = PointFlags> =
    dyn FnMut(&CameraNetwork, &UnitGrid, &mut dyn FnMut(usize, V)) + 's;

/// What one [`WarmGrid::resweep_dirty`] repair changed — the raw
/// material of the service layer's `watch` delta frames.
#[derive(Debug, Clone, Default)]
pub struct SweepDelta<T = GridCoverageReport> {
    /// Tiles whose dirty rectangle this repair re-evaluated — the tiles
    /// holding a grid point a marked disk can reach; every tile on a
    /// rebuild.
    pub tiles_resweeped: usize,
    /// Grid points this repair re-evaluated: the points of the dirty
    /// rectangles (a marked disk's bounding box, cut at tile edges and
    /// merged per tile); every point on a rebuild.
    pub points_resweeped: usize,
    /// Grid indices whose kept bit turned on: full-view coverage for a
    /// flags state, multiplicity ≥ k for a k-count state.
    pub flipped_on: Vec<usize>,
    /// Grid indices whose kept bit turned off.
    pub flipped_off: Vec<usize>,
    /// The state's tally before the repair (the grid report of a flags
    /// state, the count of a k-count state).
    pub before: T,
    /// The tally after the repair (equal to the state's).
    pub after: T,
    /// Whether the repair fell back to a full rebuild (tiling geometry
    /// changed, e.g. after `reseed`).
    pub rebuilt: bool,
}

impl<T> SweepDelta<T> {
    /// Records one re-evaluated point whose kept bit went from `was` to
    /// `now`.
    fn note(&mut self, idx: usize, was: bool, now: bool) {
        self.points_resweeped += 1;
        match (was, now) {
            (false, true) => self.flipped_on.push(idx),
            (true, false) => self.flipped_off.push(idx),
            _ => {}
        }
    }
}

/// A kind of per-point verdict, and what a [`WarmGrid`] keeps of it in
/// one byte per grid point: how the verdict packs into the byte and
/// tallies, and which core funnel evaluates it. [`FlagBits`] keeps the
/// five [`PointFlags`], [`KBit`] whether the view multiplicity reaches
/// `k`; the trait is sealed to those two, and its two impls are the only
/// place core tells them apart. Every range sweep, rectangle and warm
/// state runs through its provided methods.
pub trait PointByte: Clone + fmt::Debug + sealed::Sealed {
    /// One point's verdict, as the funnels and cold sweeps emit it.
    type Verdict: Copy;
    /// The tally of a set of verdicts (the whole grid's, or a repair's
    /// old and new ones). Tallies are plain integer sums, so a total
    /// patched point by point equals the cold sum bit for bit.
    type Tally: Clone + fmt::Debug + Default + PartialEq;

    /// The stored byte of `verdict`.
    fn byte(verdict: Self::Verdict) -> u8;
    /// The verdict a stored byte holds — the inverse of
    /// [`byte`](Self::byte).
    fn verdict(byte: u8) -> Self::Verdict;
    /// The bit of a stored byte whose flips a [`SweepDelta`] lists.
    fn is_set(byte: u8) -> bool;
    /// Folds one verdict into `tally`.
    fn record(tally: &mut Self::Tally, verdict: Self::Verdict);
    /// Adds `part` to `tally`.
    fn merge(tally: &mut Self::Tally, part: &Self::Tally);
    /// Removes a previously merged `part` from `tally`.
    fn subtract(tally: &mut Self::Tally, part: &Self::Tally);
    /// The evaluator this kind's funnel runs on.
    fn evaluator(&self, theta: EffectiveAngle) -> GridEvaluator;
    /// Evaluates the in-range points of one unit of the walk or the tile
    /// loop through core's funnel of this kind — the one entry every
    /// sweep, repair and residual rectangle reaches the funnel by.
    fn evaluate_unit(
        &self,
        evaluator: &mut GridEvaluator,
        unit: &SweepUnit<'_>,
        emit: &mut dyn FnMut(usize, Self::Verdict),
    );

    /// Calls `emit(index, verdict)` for every point inside `lo..hi` among
    /// grid columns `cols` × rows `rows`, a rectangle of the cell `cursor`
    /// is pinned to (rows outer, columns inner), through `evaluator`. The
    /// funnel screens the whole rectangle through the mask kernel when
    /// one is configured; out-of-range points are never gathered and
    /// never reach the exact analyzer or `emit`. The hierarchical
    /// prover's residual rectangles come through here.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_rect(
        &self,
        evaluator: &mut GridEvaluator,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
        emit: &mut dyn FnMut(usize, Self::Verdict),
    ) {
        let unit = SweepUnit::rect(cursor, grid, cols, rows, lo, hi);
        self.evaluate_unit(evaluator, &unit, emit);
    }

    /// The core range sweep of this kind: calls `emit(index, verdict)`
    /// exactly once for every grid index in `lo..hi`, in tile order (key
    /// results by index), through the walk and a fresh
    /// [`evaluator`](Self::evaluator). Tiles are screened through the
    /// [`SectorMaskKernel`] and only screen-undecided in-range points pay
    /// for the exact predicates, so verdicts are bit-identical to the
    /// exact per-point analysis, and concatenating range results over a
    /// partition of `0..grid.len()` reproduces a full sweep. Behind hole
    /// masks, glyph maps, k-counts and warm states' cold builds, and the
    /// scatter unit of the sharded cluster layer.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid.len()`.
    fn sweep(
        &self,
        net: &CameraNetwork,
        grid: &UnitGrid,
        theta: EffectiveAngle,
        lo: usize,
        hi: usize,
        emit: &mut dyn FnMut(usize, Self::Verdict),
    ) {
        let mut evaluator = self.evaluator(theta);
        walk(net, grid, lo, hi, |unit| {
            self.evaluate_unit(&mut evaluator, unit, emit);
        });
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::FlagBits {}
    impl Sealed for super::KBit {}
}

/// The five [`PointFlags`] of a point, packed by
/// [`PointFlags::to_byte`] — what an [`IncrementalSweep`] keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlagBits {
    /// The sector-condition start line.
    start_line: Angle,
}

impl FlagBits {
    /// The flags with sector conditions built from `start_line`
    /// ([`Angle::ZERO`] is the conventional choice).
    #[must_use]
    pub fn new(start_line: Angle) -> Self {
        FlagBits { start_line }
    }

    /// The sector-condition start line.
    #[must_use]
    pub fn start_line(&self) -> Angle {
        self.start_line
    }
}

impl PointByte for FlagBits {
    type Verdict = PointFlags;
    type Tally = GridCoverageReport;

    fn byte(flags: PointFlags) -> u8 {
        flags.to_byte()
    }

    fn verdict(byte: u8) -> PointFlags {
        PointFlags::from_byte(byte)
    }

    fn is_set(byte: u8) -> bool {
        byte & FULL_VIEW_BIT != 0
    }

    fn record(report: &mut GridCoverageReport, flags: PointFlags) {
        report.record(&flags);
    }

    fn merge(report: &mut GridCoverageReport, part: &GridCoverageReport) {
        report.merge(part);
    }

    fn subtract(report: &mut GridCoverageReport, part: &GridCoverageReport) {
        report.subtract(part);
    }

    fn evaluator(&self, theta: EffectiveAngle) -> GridEvaluator {
        GridEvaluator::new(theta, self.start_line)
    }

    fn evaluate_unit(
        &self,
        evaluator: &mut GridEvaluator,
        unit: &SweepUnit<'_>,
        emit: &mut dyn FnMut(usize, PointFlags),
    ) {
        evaluator.unit_flags(unit, emit);
    }
}

/// Whether a point's view multiplicity is at least `k`, as `0` or `1` —
/// what a [`KCountSweep`] keeps. `k = 0` holds at every point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KBit {
    /// The multiplicity threshold.
    k: usize,
}

impl KBit {
    /// Whether the view multiplicity reaches `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        KBit { k }
    }

    /// The multiplicity threshold.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl PointByte for KBit {
    type Verdict = bool;
    type Tally = usize;

    fn byte(met: bool) -> u8 {
        u8::from(met)
    }

    fn verdict(byte: u8) -> bool {
        byte != 0
    }

    fn is_set(byte: u8) -> bool {
        byte != 0
    }

    fn record(count: &mut usize, met: bool) {
        *count += usize::from(met);
    }

    fn merge(count: &mut usize, part: &usize) {
        *count += part;
    }

    fn subtract(count: &mut usize, part: &usize) {
        *count -= part;
    }

    fn evaluator(&self, theta: EffectiveAngle) -> GridEvaluator {
        // The depth screen's start line is arbitrary: the strict-depth
        // argument holds for any partition, and certainty is what routes
        // to the exact sweep.
        GridEvaluator::new(theta, Angle::ZERO)
    }

    fn evaluate_unit(
        &self,
        evaluator: &mut GridEvaluator,
        unit: &SweepUnit<'_>,
        emit: &mut dyn FnMut(usize, bool),
    ) {
        evaluator.unit_k(unit, self.k, emit);
    }
}

/// Relative widening of a disk's reach in [`WarmGrid::mark_disk`], on the
/// scale of torus side + radius + |centre|. Every rounding it must absorb
/// — the exact coverage test's squares, its wrapped coordinate delta, the
/// wrap of a stored position, the grid coordinates and the line bounds'
/// own division — is a few ulps of that scale (~1e-15), so the slack has
/// five orders of magnitude to spare, and it marks an extra grid line
/// only when one lies within ~1e-9 of a disk's edge.
const REACH_SLACK: f64 = 1e-9;

/// An incrementally maintained dense-grid state: one byte per grid point
/// (what `B` keeps) and the tally of all of them, repaired rectangle by
/// rectangle through a dirty set that keeps, per tile, the grid columns ×
/// rows a mutation may have changed. The daemon keeps one per (θ, side)
/// for flags ([`IncrementalSweep`]) and one per (θ, side, k) for k-counts
/// ([`KCountSweep`]), and every dense-grid verb reads one.
///
/// # The dirty-tracking invariant
///
/// After any sequence of [`mark_disk`](Self::mark_disk) /
/// [`mark_all`](Self::mark_all) / [`invalidate`](Self::invalidate) calls
/// that covers every mutation applied to the network since the last
/// repair, [`resweep_dirty`](Self::resweep_dirty) leaves the bytes and the
/// total **bit-identical** to a freshly built state over the same
/// network. Three facts make this exact rather than approximate:
///
/// * a camera mutation can only change the analysis of the points its old
///   or new sensing sector covers, and every covered point passes the
///   exact path's `d² ≤ r²` on the wrapped coordinate deltas, hence lies
///   within the radius of the camera's position on each axis up to a
///   few ulps; [`mark_disk`](Self::mark_disk) marks every grid column and
///   row within the radius widened far past those ulps, so the marked
///   rectangles hold every point the camera covers before or after;
/// * per-point analysis is history-free, so re-evaluating a point the
///   mutation did not touch rewrites its byte unchanged;
/// * tallies are plain integer sums, so `total − old + new` over the
///   re-evaluated points, each old verdict decoded from its stored byte
///   ([`PointByte::verdict`]), equals the cold sum bit for bit.
///
/// `fail`/`move` mutations rebucket the spatial index in place without
/// changing its cell geometry, so the tiling stays valid and repairs are
/// proportional to the dirty area. A `reseed`-style replacement can change
/// the index geometry; [`resweep_dirty`](Self::resweep_dirty) detects the
/// mismatch and falls back to a full rebuild (still reporting the flips in
/// its [`SweepDelta`]).
#[derive(Debug, Clone)]
pub struct WarmGrid<B: PointByte> {
    holds: B,
    theta: EffectiveAngle,
    grid: UnitGrid,
    tiling: GridTiling,
    cells: usize,
    cell_len: f64,
    torus: Torus,
    evaluator: GridEvaluator,
    bytes: Vec<u8>,
    total: B::Tally,
    dirty: DirtySet,
    /// The buffers of the tile cursor that repairs the dirty rectangles,
    /// kept so a warmed repair allocates nothing.
    cursor_buffers: CursorBuffers,
    needs_rebuild: bool,
}

/// The warm flags state: every point's five [`PointFlags`] in one byte
/// and their [`GridCoverageReport`]. `check` reads the report, `holes`,
/// `mask` and `barrier` the full-view [`mask`](WarmGrid::mask), `map` and
/// `cells` the [`glyphs`](WarmGrid::glyphs).
pub type IncrementalSweep = WarmGrid<FlagBits>;

/// The warm k-count state: whether each point's view multiplicity reaches
/// `k`, one byte per point, and their count. `kfull` and `kcount` read
/// its [`count`](WarmGrid::count).
pub type KCountSweep = WarmGrid<KBit>;

impl<B: PointByte> WarmGrid<B> {
    /// Cold-builds the state keeping `holds` for `net` over a
    /// `grid_side × grid_side` grid, with every verdict taken from `cold`,
    /// or from the walk on the state's own evaluator without one.
    fn build(
        net: &CameraNetwork,
        theta: EffectiveAngle,
        holds: B,
        grid_side: usize,
        cold: Option<&mut ColdSweep<'_, B::Verdict>>,
    ) -> Self {
        assert!(grid_side > 0, "grid side must be positive");
        let torus = *net.torus();
        let grid = UnitGrid::new(torus, grid_side);
        let index = net.index();
        let tiling = GridTiling::new(index, &grid);
        let mut state = WarmGrid {
            evaluator: holds.evaluator(theta),
            holds,
            theta,
            cells: index.cells_per_axis(),
            cell_len: index.cell_len(),
            torus,
            bytes: vec![0; grid.len()],
            total: B::Tally::default(),
            dirty: DirtySet::new(tiling.tile_count()),
            cursor_buffers: CursorBuffers::default(),
            grid,
            tiling,
            needs_rebuild: false,
        };
        state.cold_sweep(net, cold, None);
        state
    }

    /// Cold-builds the state keeping `holds` for `net` over a
    /// `grid_side × grid_side` grid, with the verdicts of the cold build
    /// taken from `cold` instead of the core walk. Repairs still run the
    /// core tile funnel.
    ///
    /// # Panics
    ///
    /// Panics if `grid_side == 0`.
    #[must_use]
    pub fn with_cold_sweep(
        net: &CameraNetwork,
        theta: EffectiveAngle,
        holds: B,
        grid_side: usize,
        cold: &mut ColdSweep<'_, B::Verdict>,
    ) -> Self {
        Self::build(net, theta, holds, grid_side, Some(cold))
    }

    /// Evaluates every point into a fresh total, overwriting every byte
    /// — through `cold` when given, else through the walk on the state's
    /// own evaluator; with `delta`, records the flips against the bytes
    /// it overwrites.
    fn cold_sweep(
        &mut self,
        net: &CameraNetwork,
        cold: Option<&mut ColdSweep<'_, B::Verdict>>,
        mut delta: Option<&mut SweepDelta<B::Tally>>,
    ) {
        // Disjoint borrows: the emit closure writes bytes while the walk
        // reads the kind and runs the evaluator.
        let WarmGrid {
            holds,
            grid,
            evaluator,
            bytes,
            ..
        } = self;
        let mut total = B::Tally::default();
        let mut emitted = 0usize;
        let mut emit = |idx: usize, verdict: B::Verdict| {
            B::record(&mut total, verdict);
            let byte = B::byte(verdict);
            if let Some(delta) = delta.as_deref_mut() {
                delta.note(idx, B::is_set(bytes[idx]), B::is_set(byte));
            }
            bytes[idx] = byte;
            emitted += 1;
        };
        match cold {
            Some(cold) => cold(net, grid, &mut emit),
            None => walk(net, grid, 0, grid.len(), |unit| {
                holds.evaluate_unit(evaluator, unit, &mut emit);
            }),
        }
        assert_eq!(
            emitted,
            grid.len(),
            "cold sweep must emit every grid index once"
        );
        self.total = total;
        self.dirty.clear();
        self.needs_rebuild = false;
    }

    /// The effective angle this state evaluates with.
    #[must_use]
    pub fn theta(&self) -> EffectiveAngle {
        self.theta
    }

    /// Grid points per axis.
    #[must_use]
    pub fn grid_side(&self) -> usize {
        self.grid.side_count()
    }

    /// What the screen decided over every evaluation this state ran on
    /// its own evaluator: its cold build and rebuilds, unless a cold sweep
    /// answered them, and every dirty-rectangle repair.
    #[must_use]
    pub fn screen_stats(&self) -> ScreenStats {
        self.evaluator.screen_stats()
    }

    /// Whether the state has no pending dirty rectangle or rebuild.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty() && !self.needs_rebuild
    }

    /// Whether `index` still has the cell geometry this state's tiling
    /// was built from (in-place rebuckets preserve it; a fresh network
    /// may not).
    #[must_use]
    pub fn geometry_matches(&self, index: &SpatialGrid) -> bool {
        index.cells_per_axis() == self.cells
            && index.cell_len().to_bits() == self.cell_len.to_bits()
            && index.torus().side().to_bits() == self.torus.side().to_bits()
    }

    /// Marks dirty every grid point a sensing disk of `radius` around
    /// `center` can reach — call once with the old disk and once with the
    /// new disk of each mutated camera, `center` being its position as
    /// the camera stores it ([`Camera::position`]).
    ///
    /// The marked points are the disk's bounding box on the torus: the
    /// grid columns and rows whose coordinate lies within the radius of
    /// the wrapped centre, the radius widened by 1e-9 of torus side +
    /// radius + |centre| past every rounding of the exact coverage test
    /// — including that of a stored position outside the fundamental
    /// domain, which the |centre| term scales with. Each tile the box
    /// meets gets the box's part inside it; marks into one tile merge
    /// into their bounding rectangle. A non-finite reach marks
    /// everything.
    pub fn mark_disk(&mut self, center: Point, radius: f64) {
        if self.needs_rebuild {
            return;
        }
        let scale = self.torus.side() + radius.abs() + center.x.abs() + center.y.abs();
        let reach = radius + REACH_SLACK * scale;
        if !reach.is_finite() {
            self.mark_all();
            return;
        }
        let p = self.torus.wrap(center);
        let (cols, rows) = (self.lines_within(p.x, reach), self.lines_within(p.y, reach));
        let WarmGrid { tiling, dirty, .. } = self;
        let cells = tiling.cells_per_axis();
        tiling.for_each_cell_meeting(&rows, |cy, rows| {
            tiling.for_each_cell_meeting(&cols, |cx, cols| {
                dirty.mark(cy * cells + cx, cols, rows.clone());
            });
        });
    }

    /// The grid lines — columns, or equally rows — whose coordinate lies
    /// within `reach` of the wrapped coordinate `w` around the torus, as
    /// at most two runs (one wrapped across the seam, or the whole axis).
    fn lines_within(&self, w: f64, reach: f64) -> [Range<usize>; 2] {
        let (side, spacing) = (self.grid.side_count(), self.grid.spacing());
        // Line i sits at (i + ½)·spacing; these bounds may leave 0..side
        // and wrap.
        let lo = ((w - reach) / spacing - 0.5).ceil();
        let hi = ((w + reach) / spacing - 0.5).floor();
        if hi - lo + 1.0 >= side as f64 {
            return [0..side, 0..0];
        }
        if hi < lo {
            return [0..0, 0..0];
        }
        let wrap = |line: f64| (line as isize).rem_euclid(side as isize) as usize;
        let (first, last) = (wrap(lo), wrap(hi));
        if first <= last {
            [first..last + 1, 0..0]
        } else {
            [first..side, 0..last + 1]
        }
    }

    /// Marks every point dirty (a mutation with unknown extent).
    pub fn mark_all(&mut self) {
        if self.needs_rebuild {
            return;
        }
        for t in 0..self.tiling.tile_count() {
            let (cols, rows) = (self.tiling.tile_col_range(t), self.tiling.tile_row_range(t));
            self.dirty.mark(t, cols, rows);
        }
    }

    /// Flags the state for a full rebuild on the next repair — for
    /// wholesale network replacement (`reseed`/`restore`), where even the
    /// index geometry may have changed.
    pub fn invalidate(&mut self) {
        self.needs_rebuild = true;
    }

    /// Repairs the state against the (already mutated) network:
    /// re-evaluates exactly the dirty rectangles through core's funnel and
    /// patches the bytes and the total in place, returning what changed.
    /// Falls back to a full rebuild — the walk on the state's own
    /// evaluator — when the index geometry no longer matches the stored
    /// tiling (or [`invalidate`](Self::invalidate) was called).
    ///
    /// Afterwards the state is clean and bit-identical to a cold build
    /// over `net` — the invariant the differential tests pin down.
    pub fn resweep_dirty(&mut self, net: &CameraNetwork) -> SweepDelta<B::Tally> {
        self.resweep(net, None)
    }

    /// [`resweep_dirty`](Self::resweep_dirty) with a full rebuild's
    /// verdicts taken from `cold`; dirty rectangles are still repaired
    /// through core's funnel.
    pub fn resweep_dirty_with(
        &mut self,
        net: &CameraNetwork,
        cold: &mut ColdSweep<'_, B::Verdict>,
    ) -> SweepDelta<B::Tally> {
        self.resweep(net, Some(cold))
    }

    /// The repair both entries run: a rebuild (through `cold` when given)
    /// or a repair of the dirty rectangles.
    fn resweep(
        &mut self,
        net: &CameraNetwork,
        cold: Option<&mut ColdSweep<'_, B::Verdict>>,
    ) -> SweepDelta<B::Tally> {
        let mut delta = SweepDelta {
            before: self.total.clone(),
            ..SweepDelta::default()
        };
        if self.needs_rebuild || !self.geometry_matches(net.index()) {
            self.rebuild(net, cold, &mut delta);
        } else {
            self.repair(net, &mut delta);
        }
        delta.after = self.total.clone();
        delta
    }

    /// Re-evaluates the dirty rectangles, patching bytes and the total:
    /// the total loses the old verdict and gains the new one of every
    /// point whose byte changed.
    fn repair(&mut self, net: &CameraNetwork, delta: &mut SweepDelta<B::Tally>) {
        if self.dirty.is_empty() {
            return;
        }
        let mut cursor = net.tile_cursor_with(std::mem::take(&mut self.cursor_buffers));
        let WarmGrid {
            holds,
            grid,
            tiling,
            evaluator,
            bytes,
            total,
            dirty,
            ..
        } = self;
        let len = grid.len();
        let (mut old, mut new) = (B::Tally::default(), B::Tally::default());
        walk_tiles(
            &mut cursor,
            tiling,
            grid,
            dirty.marked(),
            0,
            len,
            |t, unit| {
                let (cols, rows) = dirty.rect(t);
                let cursor = unit.cursor().expect("the tile loop pins every tile");
                let mut patch = |idx: usize, verdict: B::Verdict| {
                    let (was, byte) = (bytes[idx], B::byte(verdict));
                    delta.note(idx, B::is_set(was), B::is_set(byte));
                    if was != byte {
                        B::record(&mut old, B::verdict(was));
                        B::record(&mut new, verdict);
                        bytes[idx] = byte;
                    }
                };
                holds.evaluate_rect(evaluator, cursor, grid, cols, rows, 0, len, &mut patch);
            },
        );
        B::merge(total, &new);
        B::subtract(total, &old);
        delta.tiles_resweeped = dirty.marked_count();
        dirty.clear();
        self.cursor_buffers = cursor.into_buffers();
    }

    /// Full rebuild: re-derives the tiling from the network's current
    /// index and cold-sweeps, recording the flips against the old bytes.
    fn rebuild(
        &mut self,
        net: &CameraNetwork,
        cold: Option<&mut ColdSweep<'_, B::Verdict>>,
        delta: &mut SweepDelta<B::Tally>,
    ) {
        let index = net.index();
        self.cells = index.cells_per_axis();
        self.cell_len = index.cell_len();
        self.torus = *net.torus();
        self.grid = UnitGrid::new(self.torus, self.grid.side_count());
        self.tiling = GridTiling::new(index, &self.grid);
        self.dirty = DirtySet::new(self.tiling.tile_count());
        self.cold_sweep(net, cold, Some(delta));
        delta.rebuilt = true;
        delta.tiles_resweeped = self.tiling.tile_count();
    }
}

impl WarmGrid<FlagBits> {
    /// Cold-builds the flags state for `net` over a
    /// `grid_side × grid_side` grid: every point evaluated once through
    /// the walk on the state's own evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `grid_side == 0`.
    #[must_use]
    pub fn new(
        net: &CameraNetwork,
        theta: EffectiveAngle,
        start_line: Angle,
        grid_side: usize,
    ) -> Self {
        Self::build(net, theta, FlagBits::new(start_line), grid_side, None)
    }

    /// The sector-condition start line this state evaluates with.
    #[must_use]
    pub fn start_line(&self) -> Angle {
        self.holds.start_line
    }

    /// The maintained whole-grid report. Only valid when
    /// [`is_clean`](Self::is_clean); repair first after mutations.
    #[must_use]
    pub fn report(&self) -> &GridCoverageReport {
        &self.total
    }

    /// The maintained full-view mask (row-major grid order), read from
    /// the flag bytes. Only valid when [`is_clean`](Self::is_clean).
    #[must_use]
    pub fn mask(&self) -> FullViewMask<'_> {
        FullViewMask::new(&self.bytes)
    }

    /// The coverage-map glyphs of grid indices `lo..hi`, read from the
    /// flag bytes — byte-identical to
    /// [`coverage_glyphs_range`](crate::coverage_glyphs_range) over the
    /// same network. Only valid when [`is_clean`](Self::is_clean).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid_side²`.
    #[must_use]
    pub fn glyphs(&self, lo: usize, hi: usize) -> String {
        glyph_string(
            self.bytes[lo..hi]
                .iter()
                .map(|&b| glyph_of(&PointFlags::from_byte(b)))
                .collect(),
        )
    }
}

impl WarmGrid<KBit> {
    /// Cold-builds the k-count state for `net` over a
    /// `grid_side × grid_side` grid: every point evaluated once through
    /// the walk on the state's own evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `grid_side == 0`.
    #[must_use]
    pub fn new(net: &CameraNetwork, theta: EffectiveAngle, k: usize, grid_side: usize) -> Self {
        Self::build(net, theta, KBit::new(k), grid_side, None)
    }

    /// The multiplicity threshold this state counts against.
    #[must_use]
    pub fn k(&self) -> usize {
        self.holds.k
    }

    /// How many grid indices in `lo..hi` have view multiplicity at least
    /// `k` — equal to [`count_k_view_range`](crate::count_k_view_range)
    /// over the same network. Only valid when
    /// [`is_clean`](Self::is_clean).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid_side²`.
    #[must_use]
    pub fn count(&self, lo: usize, hi: usize) -> usize {
        if (lo, hi) == (0, self.bytes.len()) {
            return self.total;
        }
        self.bytes[lo..hi].iter().map(|&b| usize::from(b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullview::analyze_point;
    use fullview_model::{GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn pseudo_random_net(n: usize, r_base: f64) -> CameraNetwork {
        let mut cams = Vec::new();
        for i in 0..n {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = (i as f64 * 2.399_963) % (2.0 * PI);
            let r = r_base * (1.0 + (i % 5) as f64 / 5.0);
            let phi = PI / 4.0 + PI / 2.0 * ((i % 3) as f64 / 3.0);
            cams.push(Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(i % 3),
            ));
        }
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn tiling_partitions_the_grid_exactly() {
        let net = pseudo_random_net(80, 0.08);
        for side in [1usize, 7, 13, 40] {
            let grid = UnitGrid::new(Torus::unit(), side);
            let tiling = GridTiling::new(net.index(), &grid);
            assert_eq!(tiling.grid_len(), grid.len());
            let mut seen = vec![0u32; grid.len()];
            let mut total = 0usize;
            for t in 0..tiling.tile_count() {
                let mut in_tile = 0;
                let (cx, cy) = tiling.tile_cell(t);
                tiling.for_each_point_in_tile(t, |idx| {
                    seen[idx] += 1;
                    in_tile += 1;
                    // Every point must actually live in the tile's cell.
                    assert_eq!(
                        net.index().cell_of(grid.point(idx)),
                        (cx, cy),
                        "grid point {idx} assigned to wrong tile"
                    );
                });
                assert_eq!(in_tile, tiling.tile_point_count(t));
                total += in_tile;
            }
            assert_eq!(total, grid.len(), "side={side}");
            assert!(seen.iter().all(|&c| c == 1), "side={side}: not a partition");
        }
    }

    #[test]
    fn sweep_grid_matches_per_point_analysis() {
        let net = pseudo_random_net(120, 0.07);
        let grid = UnitGrid::new(Torus::unit(), 25);
        assert!(use_tiled(&net, &grid), "test intends to exercise tiles");
        let mut visited = vec![false; grid.len()];
        sweep_grid(&net, &grid, |idx, point, view| {
            assert!(!visited[idx]);
            visited[idx] = true;
            let owned = analyze_point(&net, point);
            assert_eq!(view.to_owned(), owned, "idx {idx}");
        });
        assert!(visited.iter().all(|&v| v));
    }

    /// Every partition of `0..len` — including cuts inside tiles — must
    /// reassemble the full sweep's views, flags and k-counts exactly.
    fn assert_partitions_reassemble(net: &CameraNetwork, side: usize) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let len = grid.len();
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut full = vec![None; len];
        sweep_grid(net, &grid, |idx, _, view| full[idx] = Some(view.to_owned()));
        let mut exact = GridEvaluator::new_exact(theta, Angle::ZERO);
        let flag_bits = FlagBits::new(Angle::ZERO);

        for cuts in [
            vec![0, len],
            vec![0, len / 5 + 3, len],
            vec![0, 1, len / 2, len / 2 - 1, len],
        ] {
            let mut sorted = cuts.clone();
            sorted.sort_unstable();
            let mut seen = vec![false; len];
            let mut flagged = vec![false; len];
            let mut k2 = 0;
            for pair in sorted.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                sweep_grid_range(net, &grid, lo, hi, |idx, point, view| {
                    assert!(
                        idx >= lo && idx < hi && !seen[idx],
                        "index {idx} in {lo}..{hi}"
                    );
                    seen[idx] = true;
                    assert_eq!(view.to_owned(), analyze_point(net, point));
                    assert_eq!(Some(view.to_owned()), full[idx], "idx {idx}");
                });
                flag_bits.sweep(net, &grid, theta, lo, hi, &mut |idx, flags| {
                    assert!(
                        idx >= lo && idx < hi && !flagged[idx],
                        "index {idx} in {lo}..{hi}"
                    );
                    flagged[idx] = true;
                    assert_eq!(
                        flags,
                        exact.point_flags_with(net, grid.point(idx)),
                        "idx {idx}"
                    );
                });
                let count = crate::count_k_view_range(net, &grid, theta, 2, lo, hi);
                let brute = (lo..hi)
                    .filter(|&i| crate::view_multiplicity(net, grid.point(i), theta) >= 2)
                    .count();
                assert_eq!(count, brute, "k-count over {lo}..{hi}");
                k2 += count;
            }
            assert!(seen.iter().all(|&v| v), "partition {cuts:?} missed views");
            assert!(
                flagged.iter().all(|&v| v),
                "partition {cuts:?} missed flags"
            );
            assert_eq!(k2, crate::count_k_view_range(net, &grid, theta, 2, 0, len));
        }

        // Empty and degenerate ranges are fine.
        sweep_grid_range(net, &grid, 7, 7, |_, _, _| panic!("empty range"));
    }

    #[test]
    fn range_sweep_partitions_concatenate_to_the_full_sweep() {
        // Tiles, cut mid-tile by the partitions.
        let net = pseudo_random_net(100, 0.07);
        assert!(use_tiled(&net, &UnitGrid::new(Torus::unit(), 21)));
        assert_partitions_reassemble(&net, 21);
        // The per-point unit: an empty network, and radii below the grid
        // spacing (more index cells than grid points).
        let empty = CameraNetwork::new(Torus::unit(), Vec::new());
        let tiny = pseudo_random_net(100, 0.004);
        for (net, side) in [(&empty, 8), (&tiny, 21)] {
            assert!(!use_tiled(net, &UnitGrid::new(Torus::unit(), side)));
            assert_partitions_reassemble(net, side);
        }
    }

    #[test]
    fn tile_index_spans_cover_their_points() {
        let net = pseudo_random_net(80, 0.08);
        let grid = UnitGrid::new(Torus::unit(), 17);
        let tiling = GridTiling::new(net.index(), &grid);
        for t in 0..tiling.tile_count() {
            match tiling.tile_index_span(t) {
                None => assert_eq!(tiling.tile_point_count(t), 0),
                Some((min_idx, max_idx)) => {
                    tiling.for_each_point_in_tile(t, |idx| {
                        assert!(idx >= min_idx && idx <= max_idx);
                    });
                }
            }
        }
    }

    #[test]
    fn coverage_query_backends_agree() {
        let net = pseudo_random_net(60, 0.09);
        let grid = UnitGrid::new(Torus::unit(), 20);
        for_each_grid_point(&net, &grid, |query, _, point| {
            assert_eq!(query.coverage_count(point), net.coverage_count(point));
        });
    }

    fn incremental_matches_cold(state: &IncrementalSweep, net: &CameraNetwork, ctx: &str) {
        let cold = IncrementalSweep::new(net, state.theta(), Angle::ZERO, state.grid_side());
        assert_eq!(state.report(), cold.report(), "{ctx}: report drifted");
        assert_eq!(state.mask(), cold.mask(), "{ctx}: mask drifted");
    }

    #[test]
    fn dirty_set_marks_counts_and_iterates() {
        let mut d = DirtySet::new(130);
        assert!(d.is_empty());
        d.mark(129, 3..5, 7..9);
        d.mark(0, 0..2, 0..1);
        d.mark(64, 4..6, 2..3);
        d.mark(64, 1..2, 5..8);
        d.mark(1, 2..2, 0..4);
        assert_eq!(d.marked_count(), 3, "an empty rectangle marks nothing");
        assert_eq!(d.rect(64), (1..6, 2..8), "marks merge into their hull");
        assert_eq!(d.rect(1), (0..0, 0..0));
        assert_eq!(d.marked().collect::<Vec<_>>(), vec![0, 64, 129]);
        d.clear();
        assert!(d.is_empty() && d.marked().next().is_none());
        assert_eq!(d.rect(64), (0..0, 0..0));
        d.mark(64, 9..10, 9..10);
        assert_eq!(d.rect(64), (9..10, 9..10), "a cleaned tile starts afresh");
    }

    /// Every grid point a camera at `center` (as stored) covers passes the
    /// exact test `d² ≤ r²` on the wrapped deltas; each must lie in its
    /// tile's dirty rectangle after `mark_disk`, and every marked point
    /// must lie in the disk's bounding box unless the box wraps around
    /// the torus.
    fn assert_disk_marks_cover(state: &mut IncrementalSweep, center: Point, r: f64) {
        state.mark_disk(center, r);
        let (torus, grid, cells) = (state.torus, &state.grid, state.cells);
        let side = grid.side_count();
        let cell_of = |line: usize| {
            (0..cells)
                .find(|&c| state.tiling.cell_axis_range(c).contains(&line))
                .unwrap()
        };
        let mut inside = 0;
        for idx in 0..grid.len() {
            let p = grid.point(idx);
            let (col, row) = (idx % side, idx / side);
            let (cols, rows) = state.dirty.rect(cell_of(row) * cells + cell_of(col));
            let marked = cols.contains(&col) && rows.contains(&row);
            let (dx, dy) = torus.displacement(center, p);
            if dx * dx + dy * dy <= r * r {
                inside += 1;
                assert!(marked, "{center} r={r}: reached point {idx} unmarked");
            }
            let slack = 1e-6 * (1.0 + center.x.abs() + center.y.abs());
            // A box wrapping within a cell of itself meets that cell from
            // both sides, and the cell's rectangle is their hull.
            if marked && 2.0 * (r + state.cell_len) < torus.side() {
                assert!(
                    dx.abs() <= r + slack && dy.abs() <= r + slack,
                    "{center} r={r}: point {idx} outside the bounding box marked"
                );
            }
        }
        assert!(inside > 0 || r < grid.spacing(), "{center} r={r}: no point");
        state.dirty.clear();
    }

    #[test]
    fn mark_disk_marks_every_reached_point_and_stays_in_the_box() {
        let net = pseudo_random_net(90, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for side in [7usize, 24, 41] {
            let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, side);
            let (h, cell) = (state.grid.spacing(), state.cell_len);
            let on_grid = |i: usize| (i as f64 + 0.5) * h;
            let centers = [
                Point::new(0.5, 0.5),
                Point::new(0.0, below_one),
                Point::new(below_one, 0.0),
                Point::new(on_grid(3), on_grid(side - 1)),
                Point::new(2.0 * cell, 3.0 * cell),
                Point::new(on_grid(0) + 2.0 * h, on_grid(side / 2)),
                // Stored positions outside the fundamental domain.
                Point::new(1.0 + on_grid(2), -1.0 + 2.0 * cell),
                Point::new(-0.25, 7.75),
            ];
            let radii = [0.3 * h, h, 2.0 * h, 3.0 * h, cell, 1.5 * cell, 0.49, 0.7];
            for &center in &centers {
                for &r in &radii {
                    assert_disk_marks_cover(&mut state, center, r);
                }
            }
        }
    }

    #[test]
    fn worker_count_caps_at_the_cpus_and_never_reaches_zero() {
        // The rule alone: no worker is started here.
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let capped = worker_count(1 << 20, 1 << 16);
        assert!(
            (1..=cpus).contains(&capped),
            "{capped} workers on {cpus} CPUs"
        );
        for (threads, units) in [(0, 1 << 16), (0, 1), (3, 0), (0, 0)] {
            assert!(worker_count(threads, units) >= 1, "({threads}, {units})");
        }
        assert_eq!(worker_count(0, 1 << 16), cpus);
        assert_eq!(worker_count(1, 1 << 16), 1);
        assert!(worker_count(64, 2) <= 2, "never more workers than units");
    }

    #[test]
    fn claim_units_hands_out_each_unit_exactly_once() {
        for units in [0usize, 1, 7, 1000] {
            for threads in [0usize, 1, 2, 3] {
                let claimed = claim_units(units, threads, |ids| ids.collect::<Vec<_>>());
                assert_eq!(claimed.len(), worker_count(threads, units));
                let mut seen = vec![0u32; units];
                for id in claimed.into_iter().flatten() {
                    seen[id] += 1;
                }
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "units={units} threads={threads}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_cold_build_matches_sweep_grid() {
        let net = pseudo_random_net(120, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let state = IncrementalSweep::new(&net, theta, Angle::ZERO, 25);
        let grid = UnitGrid::new(Torus::unit(), 25);
        let mut evaluator = GridEvaluator::new(theta, Angle::ZERO);
        let cold = evaluator.evaluate_grid(&net, &grid);
        assert_eq!(state.report(), &cold);
        let mut mask = vec![false; grid.len()];
        sweep_grid(&net, &grid, |idx, _, view| {
            mask[idx] = view.is_full_view(theta);
        });
        assert!(state.mask().iter().eq(mask.iter().copied()));
        assert!(state.is_clean());
    }

    #[test]
    #[should_panic(expected = "cold sweep must emit every grid index once")]
    fn cold_sweep_that_skips_points_is_rejected() {
        let net = pseudo_random_net(120, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut skip_last =
            |net: &CameraNetwork, grid: &UnitGrid, emit: &mut dyn FnMut(usize, PointFlags)| {
                FlagBits::new(Angle::ZERO).sweep(net, grid, theta, 0, grid.len() - 1, emit);
            };
        let holds = FlagBits::new(Angle::ZERO);
        let _ = IncrementalSweep::with_cold_sweep(&net, theta, holds, 25, &mut skip_last);
    }

    #[test]
    fn resweep_after_move_is_bit_identical_and_local() {
        let mut net = pseudo_random_net(150, 0.06);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 30);
        let total_tiles = net.index().cells_per_axis().pow(2);

        let cam = net.cameras()[17];
        let (old_pos, radius) = (cam.position(), cam.spec().radius());
        let to = Point::new(0.81, 0.13);
        assert!(net.move_camera(17, to));
        state.mark_disk(old_pos, radius);
        state.mark_disk(to, radius);
        let delta = state.resweep_dirty(&net);
        assert!(!delta.rebuilt);
        assert!(delta.tiles_resweeped > 0 && delta.tiles_resweeped < total_tiles);
        assert_eq!(delta.after, *state.report());
        incremental_matches_cold(&state, &net, "after move");

        // Flip lists must be consistent with the report delta.
        let net_gain = delta.flipped_on.len() as isize - delta.flipped_off.len() as isize;
        assert_eq!(
            delta.after.full_view as isize - delta.before.full_view as isize,
            net_gain
        );
    }

    #[test]
    fn resweep_after_fail_is_bit_identical() {
        let mut net = pseudo_random_net(100, 0.08);
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 24);
        let victim = net.cameras()[42];
        assert!(net.remove_camera(42));
        state.mark_disk(victim.position(), victim.spec().radius());
        let delta = state.resweep_dirty(&net);
        assert!(!delta.rebuilt, "fail keeps index geometry");
        assert!(
            delta.flipped_on.is_empty(),
            "losing a camera never adds coverage"
        );
        incremental_matches_cold(&state, &net, "after fail");
    }

    #[test]
    fn geometry_change_falls_back_to_rebuild() {
        let net = pseudo_random_net(80, 0.08);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 20);
        // A freshly-deployed replacement with a different max radius has
        // different index geometry.
        let reseeded = pseudo_random_net(50, 0.15);
        assert!(!state.geometry_matches(reseeded.index()));
        state.invalidate();
        let delta = state.resweep_dirty(&reseeded);
        assert!(delta.rebuilt);
        assert_eq!(delta.points_resweeped, 400);
        incremental_matches_cold(&state, &reseeded, "after rebuild");
    }

    #[test]
    fn random_mutation_sequence_stays_bit_identical() {
        // The tentpole invariant end-to-end: an arbitrary interleaving of
        // fail/move mutations with incremental repairs never drifts from a
        // cold sweep.
        let mut net = pseudo_random_net(130, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 26);
        for step in 0..12 {
            let id = (step * 37) % net.len();
            if step % 3 == 0 {
                let victim = net.cameras()[id];
                assert!(net.remove_camera(id));
                state.mark_disk(victim.position(), victim.spec().radius());
            } else {
                let cam = net.cameras()[id];
                let to = Point::new(
                    (step as f64 * 0.271_828) % 1.0,
                    (step as f64 * 0.141_421) % 1.0,
                );
                assert!(net.move_camera(id, to));
                state.mark_disk(cam.position(), cam.spec().radius());
                state.mark_disk(to, cam.spec().radius());
            }
            // Repair on every other step so some repairs batch two
            // mutations' dirt.
            if step % 2 == 1 {
                state.resweep_dirty(&net);
                incremental_matches_cold(&state, &net, &format!("step {step}"));
            }
        }
        state.resweep_dirty(&net);
        incremental_matches_cold(&state, &net, "final");
    }

    #[test]
    fn seam_straddling_disk_marks_wrapped_tiles() {
        // A camera at the torus corner: its disk wraps all four seams and
        // the marked window must wrap with it.
        let mut net = pseudo_random_net(90, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 22);
        let cam = net.cameras()[5];
        let to = Point::new(0.001, 0.999);
        assert!(net.move_camera(5, to));
        state.mark_disk(cam.position(), cam.spec().radius());
        state.mark_disk(to, cam.spec().radius());
        state.resweep_dirty(&net);
        incremental_matches_cold(&state, &net, "seam move");
    }

    #[test]
    fn clean_resweep_is_a_no_op_delta() {
        let net = pseudo_random_net(60, 0.09);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 16);
        let delta = state.resweep_dirty(&net);
        assert_eq!(delta.tiles_resweeped, 0);
        assert_eq!(delta.points_resweeped, 0);
        assert!(delta.flipped_on.is_empty() && delta.flipped_off.is_empty());
        assert_eq!(delta.before, delta.after);
    }

    #[test]
    fn single_camera_and_giant_radius_degenerate_cases() {
        // n = 1.
        let one = CameraNetwork::new(
            Torus::unit(),
            vec![Camera::new(
                Point::new(0.5, 0.5),
                Angle::ZERO,
                SensorSpec::new(0.2, PI).unwrap(),
                GroupId(0),
            )],
        );
        let grid = UnitGrid::new(Torus::unit(), 12);
        sweep_grid(&one, &grid, |_, point, view| {
            assert_eq!(view.to_owned(), analyze_point(&one, point));
        });
        // Radius beyond the torus side: full-scan candidates everywhere.
        let giant = CameraNetwork::new(
            Torus::unit(),
            vec![Camera::new(
                Point::new(0.3, 0.3),
                Angle::ZERO,
                SensorSpec::new(1.5, PI).unwrap(),
                GroupId(0),
            )],
        );
        sweep_grid(&giant, &grid, |_, point, view| {
            assert_eq!(view.to_owned(), analyze_point(&giant, point));
        });
    }
}
