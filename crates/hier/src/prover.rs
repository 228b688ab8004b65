//! The quadtree certificate prover over [`GridTiling`].
//!
//! # Certificates
//!
//! The prover runs one recursion over axis-aligned rectangles of grid
//! points. While a rectangle spans several index cells it is a block of
//! whole tiles and splits at tile-coordinate midpoints; once it lies in
//! one cell the tile cursor is pinned once and it splits at point
//! midpoints. Each node attempts one of two certificates from the
//! conservative bounds of [`crate::bounds`]:
//!
//! * **`Empty`** — every candidate camera's `dmin` over the rectangle
//!   exceeds its sensing radius (plus margin): no rectangle point has
//!   any covering camera, so all five predicate flags are `false` and
//!   the k-view multiplicity is `0`.
//! * **`FullyCovered`** — at least `⌈π/θ⌉` *full-cover witnesses*
//!   (cameras whose `dmax` is inside their radius with margin and whose
//!   viewed-direction cone fits inside their field of view with margin)
//!   exist, and every sector of **both** the necessary (`2θ`) and
//!   sufficient (`θ`) partitions contains some witness cone entirely.
//!   By the paper's §IV sufficiency theorem the largest angular gap at
//!   every rectangle point is then at most `2θ`, so all five flags are
//!   `true`. Disjoint witness families (first-fit, one family member
//!   per sufficient sector) additionally lower-bound the k-view
//!   multiplicity: `groups` families imply multiplicity ≥ `groups`
//!   everywhere in the rectangle.
//! * **`Boundary`** — neither proof succeeds: recurse.
//!
//! Every rectangle the prover does not certify ends as a *residual*: a
//! whole tile of at most `KERNEL_TILE_MAX` points, or a sub-tile
//! rectangle of at most `FLOOR_POINTS` points. Residuals go to core's
//! screened funnels on the pinned cursor —
//! [`GridEvaluator::for_each_point_flags_in_rect`] for flags,
//! [`GridEvaluator::for_each_point_k_in_rect`] for k verdicts — the
//! funnels the core sweeps run on every tile.
//!
//! # Conservativeness and bit-identity
//!
//! Every certificate implies the exact per-point predicate *strictly*
//! (margins of `1e-9`/`1e-7` dwarf both f64 noise and the engine's
//! `ANGLE_EPS` tolerances), and extra covering cameras can only keep
//! the proven flags `true` (all five predicates are monotone in the
//! covering set). Residual points get core's own answers, so the
//! combined answer is bit-identical to [`fullview_core::sweep_flags_range`]
//! and [`fullview_core::sweep_k_range`] by construction.

use crate::bounds::{bound_camera, dist_band, Rect, ANG_BAND};
use fullview_core::{
    sweep_flags_range, sweep_k_range, use_tiled, EffectiveAngle, GridEvaluator, GridTiling,
    PointFlags, SectorPartition,
};
use fullview_geom::{Angle, Arc, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::{CameraNetwork, TileCursor};
use std::f64::consts::TAU;
use std::fmt;
use std::ops::Range;

/// Tiles with at most this many grid points skip point-space recursion
/// and go whole through core's screened funnel — at small tile sizes the
/// kernel screen beats certificate attempts.
const KERNEL_TILE_MAX: usize = 256;

/// Point-space recursion floor: sub-tile rectangles of at most this many
/// points go through core's screened funnel without a certificate
/// attempt.
const FLOOR_POINTS: usize = 16;

/// `ScreenStats`-style counters of what the prover decided without
/// visiting points, accumulated over one hierarchical sweep (or merged
/// across many via [`merge`](Self::merge)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Certificate attempts (tree nodes classified).
    pub nodes: usize,
    /// Nodes proven `FullyCovered`.
    pub proved_full: usize,
    /// Nodes proven `Empty`.
    pub proved_empty: usize,
    /// In-range points decided by a certificate, never visited.
    pub points_proved: usize,
    /// In-range points evaluated by core's screened funnels.
    pub points_visited: usize,
    /// Whole tiles handed to core's funnels as residuals.
    pub tiles_exact: usize,
}

impl ProverStats {
    /// Accumulates `other` into `self` (plain field-wise sums, so merge
    /// order never matters).
    pub fn merge(&mut self, other: &ProverStats) {
        self.nodes += other.nodes;
        self.proved_full += other.proved_full;
        self.proved_empty += other.proved_empty;
        self.points_proved += other.points_proved;
        self.points_visited += other.points_visited;
        self.tiles_exact += other.tiles_exact;
    }

    /// Fraction of decided points proven without a visit (`1.0` when no
    /// points were processed at all).
    #[must_use]
    pub fn proved_fraction(&self) -> f64 {
        let total = self.points_proved + self.points_visited;
        if total == 0 {
            return 1.0;
        }
        self.points_proved as f64 / total as f64
    }
}

impl fmt::Display for ProverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes {} (full {}, empty {}), points proved {} / visited {}, exact tiles {}",
            self.nodes,
            self.proved_full,
            self.proved_empty,
            self.points_proved,
            self.points_visited,
            self.tiles_exact
        )
    }
}

/// A node-level proof. `Boundary` is represented as `None` from
/// [`Prover::classify`].
#[derive(Debug, Clone, Copy)]
enum Cert {
    /// No candidate camera reaches any point of the rectangle.
    Empty,
    /// The rectangle is uniformly covered in every sense the flags
    /// measure; `groups` disjoint witness families bound the k-view
    /// multiplicity from below, `flags_ok` says all five predicate
    /// flags are proven `true`.
    Full { groups: usize, flags_ok: bool },
}

const ALL_TRUE: PointFlags = PointFlags {
    covered: true,
    k_covered: true,
    necessary: true,
    full_view: true,
    sufficient: true,
};

const ALL_FALSE: PointFlags = PointFlags {
    covered: false,
    k_covered: false,
    necessary: false,
    full_view: false,
    sufficient: false,
};

/// What a consumer does with proven rectangles and residual rectangles.
/// The prover owns recursion, certificates and stats; a sink owns what a
/// certificate means to it and which core funnel evaluates the rest.
trait HierSink {
    /// Whether a `Full` certificate decides this sink's predicate.
    fn accepts_full(&self, groups: usize, flags_ok: bool) -> bool;

    /// Consumes a certified rectangle, given as the in-range index run of
    /// each of its rows.
    fn proved_rect(&mut self, cert: &Cert, runs: impl Iterator<Item = Range<usize>>);

    /// Evaluates the in-range points `lo..hi` among grid columns `cols` ×
    /// rows `rows`, a rectangle of the cell `cursor` is pinned to, through
    /// core's screened funnel.
    fn residual(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
    );
}

/// One axis of a recursion node: the index cells `cells` it spans and the
/// grid columns (or rows) `points` it covers. While a node spans several
/// cells, `points` is exactly those cells' run; inside one cell it may be
/// any sub-run.
#[derive(Debug, Clone)]
struct Span {
    cells: Range<usize>,
    points: Range<usize>,
}

/// The non-empty halves of `r`, split at its midpoint.
fn halves(r: &Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let mid = r.start + r.len() / 2;
    [r.start..mid, mid..r.end]
        .into_iter()
        .filter(|h| !h.is_empty())
}

/// Per-camera geometry snapshot (avoids re-reading specs in the hot
/// candidate loop).
struct CamInfo {
    pos: Point,
    radius: f64,
    orientation: Angle,
    aov: f64,
}

struct Prover<'a> {
    grid: &'a UnitGrid,
    torus: Torus,
    cursor: TileCursor<'a>,
    cams: Vec<CamInfo>,
    necessary: Vec<Arc>,
    sufficient: Vec<Arc>,
    k_nec: usize,
    /// `starts[c]..starts[c + 1]`: grid columns (rows) of index cell `c`.
    starts: Vec<usize>,
    gs: usize,
    spacing: f64,
    band: f64,
    lo: usize,
    hi: usize,
    stats: ProverStats,
}

impl<'a> Prover<'a> {
    fn new(
        net: &'a CameraNetwork,
        grid: &'a UnitGrid,
        theta: EffectiveAngle,
        start_line: Angle,
        lo: usize,
        hi: usize,
    ) -> Self {
        let tiling = GridTiling::new(net.index(), grid);
        let mut starts: Vec<usize> = (0..tiling.cells_per_axis())
            .map(|c| tiling.cell_axis_range(c).start)
            .collect();
        starts.push(grid.side_count());
        let cams = net
            .cameras()
            .iter()
            .map(|c| CamInfo {
                pos: c.position(),
                radius: c.spec().radius(),
                orientation: c.orientation(),
                aov: c.spec().angle_of_view(),
            })
            .collect();
        Prover {
            grid,
            torus: *net.torus(),
            cursor: net.tile_cursor(),
            cams,
            necessary: SectorPartition::necessary(theta, start_line)
                .sectors()
                .to_vec(),
            sufficient: SectorPartition::sufficient(theta, start_line)
                .sectors()
                .to_vec(),
            k_nec: theta.necessary_sector_count(),
            starts,
            gs: grid.side_count(),
            spacing: grid.spacing(),
            band: dist_band(net.torus().side()),
            lo,
            hi,
            stats: ProverStats::default(),
        }
    }

    /// The axis span of the index cells `cells`: their whole run of grid
    /// columns (rows).
    fn span(&self, cells: Range<usize>) -> Span {
        Span {
            points: self.starts[cells.start]..self.starts[cells.end],
            cells,
        }
    }

    /// The closed rectangle of point centres of grid columns `cols`, rows
    /// `rows` — the same `(i + 0.5) · spacing` expression
    /// [`UnitGrid::point`] evaluates, so the bounds bracket the exact
    /// engine's own coordinates.
    fn rect_of(&self, cols: &Range<usize>, rows: &Range<usize>) -> Rect {
        let s = self.spacing;
        Rect {
            x0: (cols.start as f64 + 0.5) * s,
            x1: ((cols.end - 1) as f64 + 0.5) * s,
            y0: (rows.start as f64 + 0.5) * s,
            y1: ((rows.end - 1) as f64 + 0.5) * s,
        }
    }

    fn intersects_range(&self, cols: &Range<usize>, rows: &Range<usize>) -> bool {
        let min_idx = rows.start * self.gs + cols.start;
        let max_idx = (rows.end - 1) * self.gs + cols.end - 1;
        max_idx >= self.lo && min_idx < self.hi
    }

    /// The in-range index run of each row of the rectangle: every row is a
    /// contiguous index run, clipped to `lo..hi` (empty when the row lies
    /// outside).
    fn runs(&self, cols: &Range<usize>, rows: &Range<usize>) -> impl Iterator<Item = Range<usize>> {
        let (gs, lo, hi, c0, c1) = (self.gs, self.lo, self.hi, cols.start, cols.end);
        rows.clone().map(move |r| {
            let a = (r * gs + c0).max(lo);
            a..(r * gs + c1).min(hi).max(a)
        })
    }

    /// In-range point count of the rectangle.
    fn in_range_count(&self, cols: &Range<usize>, rows: &Range<usize>) -> usize {
        self.runs(cols, rows).map(|run| run.len()).sum()
    }

    /// Attempts a certificate for the rectangle; fills `kept` with the
    /// candidates that survive the distance filter (the child nodes'
    /// candidate set). `None` means `Boundary`.
    fn classify(&mut self, rect: &Rect, cands: &[u32], kept: &mut Vec<u32>) -> Option<Cert> {
        self.stats.nodes += 1;
        kept.clear();
        let mut witnesses: Vec<(Angle, f64)> = Vec::new();
        for &ci in cands {
            let cam = &self.cams[ci as usize];
            let b = bound_camera(&self.torus, cam.pos, rect);
            if b.dmin > cam.radius + self.band {
                // Surely out of range for every rectangle point.
                continue;
            }
            kept.push(ci);
            if b.dmax + self.band < cam.radius {
                if let Some((center, half)) = b.cone {
                    let aov_ok = cam.aov >= TAU - ANGLE_EPS
                        || cam.orientation.distance(center.opposite()) + half + ANG_BAND
                            <= 0.5 * cam.aov;
                    if aov_ok {
                        witnesses.push((center, half));
                    }
                }
            }
        }
        if kept.is_empty() {
            return Some(Cert::Empty);
        }
        if witnesses.len() < self.k_nec.max(1) {
            return None;
        }
        let contains = |arc: &Arc, c: Angle, h: f64| {
            arc.is_full_circle() || arc.bisector().distance(c) + h + ANG_BAND <= 0.5 * arc.width()
        };
        // Disjoint witness families for the multiplicity bound: first-fit
        // each witness into one sufficient sector; taking one member per
        // sector forms `min occupancy` families, each of which alone
        // satisfies the sufficient condition everywhere in the rectangle.
        let mut per_sector = vec![0usize; self.sufficient.len()];
        'witness: for &(c, h) in &witnesses {
            for (si, arc) in self.sufficient.iter().enumerate() {
                if contains(arc, c, h) {
                    per_sector[si] += 1;
                    continue 'witness;
                }
            }
        }
        let groups = per_sector.iter().copied().min().unwrap_or(0);
        // For the flags proof sharing is fine: one witness direction may
        // satisfy two overlapping sectors, exactly as in
        // `SectorPartition::is_satisfied_by`.
        let flags_ok = witnesses.len() >= self.k_nec
            && self
                .sufficient
                .iter()
                .all(|arc| witnesses.iter().any(|&(c, h)| contains(arc, c, h)))
            && self
                .necessary
                .iter()
                .all(|arc| witnesses.iter().any(|&(c, h)| contains(arc, c, h)));
        if groups >= 1 || flags_ok {
            Some(Cert::Full { groups, flags_ok })
        } else {
            None
        }
    }

    /// Books and emits an accepted certificate; `false` means the sink
    /// rejected it (treat as `Boundary`).
    fn consume_cert<S: HierSink>(
        &mut self,
        cert: &Cert,
        sink: &mut S,
        cols: &Range<usize>,
        rows: &Range<usize>,
    ) -> bool {
        let accept = match *cert {
            Cert::Empty => true,
            Cert::Full { groups, flags_ok } => sink.accepts_full(groups, flags_ok),
        };
        if !accept {
            return false;
        }
        match cert {
            Cert::Empty => self.stats.proved_empty += 1,
            Cert::Full { .. } => self.stats.proved_full += 1,
        }
        self.stats.points_proved += self.in_range_count(cols, rows);
        sink.proved_rect(cert, self.runs(cols, rows));
        true
    }

    /// Hands a residual rectangle of the pinned cell to the sink's core
    /// funnel.
    fn residual<S: HierSink>(&mut self, cols: Range<usize>, rows: Range<usize>, sink: &mut S) {
        self.stats.points_visited += self.in_range_count(&cols, &rows);
        sink.residual(&self.cursor, self.grid, cols, rows, self.lo, self.hi);
    }

    /// The one recursion over the node `x × y`. A sub-tile rectangle of at
    /// most `FLOOR_POINTS` points is a residual outright; every other node
    /// is classified once. A `Boundary` node spanning several cells splits
    /// at tile-coordinate midpoints. A `Boundary` whole tile pins the
    /// cursor and is a residual when it has at most `KERNEL_TILE_MAX`
    /// points; otherwise it, like a `Boundary` sub-tile rectangle, splits
    /// at point midpoints.
    fn visit<S: HierSink>(&mut self, x: Span, y: Span, cands: &[u32], sink: &mut S) {
        let (cols, rows) = (x.points.clone(), y.points.clone());
        if cols.is_empty() || rows.is_empty() || !self.intersects_range(&cols, &rows) {
            return;
        }
        let points = cols.len() * rows.len();
        let whole_tiles =
            cols == self.span(x.cells.clone()).points && rows == self.span(y.cells.clone()).points;
        if !whole_tiles && points <= FLOOR_POINTS {
            return self.residual(cols, rows, sink);
        }
        let rect = self.rect_of(&cols, &rows);
        let mut kept = Vec::with_capacity(cands.len());
        if let Some(cert) = self.classify(&rect, cands, &mut kept) {
            if self.consume_cert(&cert, sink, &cols, &rows) {
                return;
            }
        }
        if x.cells.len() > 1 || y.cells.len() > 1 {
            for xc in halves(&x.cells) {
                for yc in halves(&y.cells) {
                    let (xs, ys) = (self.span(xc.clone()), self.span(yc));
                    self.visit(xs, ys, &kept, sink);
                }
            }
            return;
        }
        if whole_tiles {
            self.cursor.pin(x.cells.start, y.cells.start);
            if points <= KERNEL_TILE_MAX {
                self.stats.tiles_exact += 1;
                return self.residual(cols, rows, sink);
            }
        }
        for xp in halves(&cols) {
            for yp in halves(&rows) {
                let xs = Span {
                    points: xp.clone(),
                    ..x.clone()
                };
                let ys = Span {
                    points: yp,
                    ..y.clone()
                };
                self.visit(xs, ys, &kept, sink);
            }
        }
    }
}

/// Flags consumer: proven rectangles emit constant flags, residual
/// rectangles run through core's flags funnel.
struct FlagsSink<'f> {
    evaluator: GridEvaluator,
    f: &'f mut dyn FnMut(usize, PointFlags),
}

impl HierSink for FlagsSink<'_> {
    fn accepts_full(&self, _groups: usize, flags_ok: bool) -> bool {
        flags_ok
    }

    fn proved_rect(&mut self, cert: &Cert, runs: impl Iterator<Item = Range<usize>>) {
        let flags = match cert {
            Cert::Empty => ALL_FALSE,
            Cert::Full { .. } => ALL_TRUE,
        };
        for idx in runs.flatten() {
            (self.f)(idx, flags);
        }
    }

    fn residual(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
    ) {
        self.evaluator
            .for_each_point_flags_in_rect(cursor, grid, cols, rows, lo, hi, self.f);
    }
}

/// k-verdict consumer for the `kfull`/`kcount` path: a `Full` certificate
/// with at least `k` disjoint witness families decides a whole rectangle
/// (`Empty` decides it the other way); residual rectangles run through
/// core's k funnel. Every in-range index is emitted once.
struct KSink<'f> {
    evaluator: GridEvaluator,
    k: usize,
    f: &'f mut dyn FnMut(usize, bool),
}

impl HierSink for KSink<'_> {
    fn accepts_full(&self, groups: usize, _flags_ok: bool) -> bool {
        groups >= self.k
    }

    fn proved_rect(&mut self, cert: &Cert, runs: impl Iterator<Item = Range<usize>>) {
        // `Empty` means multiplicity 0 < k (k = 0 never reaches the prover).
        let met = matches!(cert, Cert::Full { .. });
        for idx in runs.flatten() {
            (self.f)(idx, met);
        }
    }

    fn residual(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
    ) {
        self.evaluator
            .for_each_point_k_in_rect(cursor, grid, cols, rows, lo, hi, self.k, self.f);
    }
}

/// The prover entry both sweeps share: proves the points of `lo..hi`
/// into `sink` and returns what it decided — or `None`, touching nothing,
/// when tiles do not pay off on this grid and the caller's core sweep
/// answers instead.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
fn prove<S: HierSink>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    start_line: Angle,
    lo: usize,
    hi: usize,
    sink: &mut S,
) -> Option<ProverStats> {
    assert!(
        lo <= hi && hi <= grid.len(),
        "range {lo}..{hi} out of bounds for a grid of {} points",
        grid.len()
    );
    if !use_tiled(net, grid) {
        return None;
    }
    let mut prover = Prover::new(net, grid, theta, start_line, lo, hi);
    let all: Vec<u32> = (0..u32::try_from(net.len()).expect("camera count fits u32")).collect();
    let root = prover.span(0..prover.starts.len() - 1);
    prover.visit(root.clone(), root, &all, sink);
    Some(prover.stats)
}

/// What a core sweep of `lo..hi` visited, in prover terms.
fn visited(lo: usize, hi: usize) -> ProverStats {
    ProverStats {
        points_visited: hi - lo,
        ..ProverStats::default()
    }
}

/// The hierarchical counterpart of [`fullview_core::sweep_flags_range`]:
/// calls `f(index, flags)` exactly once for every grid index in
/// `lo..hi` (order unspecified, as with the tile engine — key results
/// by index), with flags bit-identical to the exact engine's, and
/// returns what the prover decided without visiting points.
///
/// Grids where the tile path does not pay off delegate wholesale to the
/// core sweep.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_flags_range_hier<F: FnMut(usize, PointFlags)>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    start_line: Angle,
    lo: usize,
    hi: usize,
    mut f: F,
) -> ProverStats {
    let mut sink = FlagsSink {
        evaluator: GridEvaluator::new(theta, start_line),
        f: &mut f,
    };
    prove(net, grid, theta, start_line, lo, hi, &mut sink).unwrap_or_else(|| {
        sweep_flags_range(net, grid, theta, start_line, lo, hi, &mut f);
        visited(lo, hi)
    })
}

/// The hierarchical counterpart of [`fullview_core::sweep_k_range`]:
/// calls `f(index, met)` exactly once for every grid index in `lo..hi`
/// (order unspecified — key results by index), where `met` says whether
/// the point's view multiplicity is at least `k`. `Full` certificates
/// with `≥ k` disjoint witness families decide whole rectangles and
/// core's k funnel the rest, so the verdicts equal the core sweep's
/// exactly. Returns what the prover decided without visiting points.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_k_range_hier<F: FnMut(usize, bool)>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
    mut f: F,
) -> ProverStats {
    if k == 0 {
        // Every point qualifies: the core sweep evaluates nothing.
        sweep_k_range(net, grid, theta, 0, lo, hi, f);
        return ProverStats::default();
    }
    let mut sink = KSink {
        evaluator: GridEvaluator::new(theta, Angle::ZERO),
        k,
        f: &mut f,
    };
    prove(net, grid, theta, Angle::ZERO, lo, hi, &mut sink).unwrap_or_else(|| {
        sweep_k_range(net, grid, theta, k, lo, hi, &mut f);
        visited(lo, hi)
    })
}

/// The hierarchical counterpart of [`fullview_core::count_k_view_range`]:
/// the sum of [`sweep_k_range_hier`]'s verdicts, equal to the core
/// function's count exactly.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn count_k_view_range_hier(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
) -> (usize, ProverStats) {
    let mut meeting = 0usize;
    let stats = sweep_k_range_hier(net, grid, theta, k, lo, hi, |_, met| {
        meeting += usize::from(met);
    });
    (meeting, stats)
}
