//! The quadtree certificate prover over [`GridTiling`].
//!
//! # Certificates
//!
//! The prover recurses over axis-aligned rectangles of grid points —
//! first over the tile lattice of the spatial index (midpoint quadtree
//! splits down to single tiles), then over point-space sub-rectangles
//! *inside* a tile — and attempts, per node, one of two certificates
//! from the conservative bounds of [`crate::bounds`]:
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
//! * **`Boundary`** — neither proof succeeds: recurse, and at the
//!   floor hand the surviving points to the exact engine.
//!
//! # Conservativeness and bit-identity
//!
//! Every certificate implies the exact per-point predicate *strictly*
//! (margins of `1e-9`/`1e-7` dwarf both f64 noise and the engine's
//! `ANGLE_EPS` tolerances), and extra covering cameras can only keep
//! the proven flags `true` (all five predicates are monotone in the
//! covering set). Anything unproven falls through to
//! [`GridEvaluator::point_flags_with`] / the whole-tile funnel
//! [`GridEvaluator::for_each_point_flags_in_tile`] — the same code the
//! cold sweep runs — so the combined answer is bit-identical to
//! [`fullview_core::sweep_flags_range`] by construction.

use crate::bounds::{bound_camera, dist_band, Rect, ANG_BAND};
use fullview_core::{
    min_arc_depth, sweep_flags_range, use_tiled, EffectiveAngle, GridEvaluator, GridTiling,
    PointAnalyzer, PointFlags, SectorPartition,
};
use fullview_geom::{Angle, Arc, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::{CameraNetwork, TileCursor};
use std::f64::consts::TAU;
use std::fmt;

/// Tiles with at most this many grid points skip point-space recursion
/// and go straight through the engine's whole-tile mask/exact funnel —
/// at small tile sizes the kernel screen beats certificate attempts.
const KERNEL_TILE_MAX: usize = 256;

/// Point-space recursion floor: rectangles at most this many points are
/// evaluated exactly, point by point, against the pinned tile cursor.
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
    /// In-range points that reached the exact/mask engine.
    pub points_visited: usize,
    /// Whole tiles routed through the engine's tile funnel.
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

/// What a consumer does with proven rectangles and residual points. The
/// prover owns recursion, certificates, and stats; sinks own the exact
/// evaluation semantics (flags vs multiplicity counting).
trait HierSink {
    /// Whether a `Full` certificate decides this sink's predicate.
    fn accepts_full(&self, groups: usize, flags_ok: bool) -> bool;

    /// Consume a certified rectangle (grid columns `c0..c1`, rows
    /// `r0..r1`; clip each row to `lo..hi`).
    #[allow(clippy::too_many_arguments)]
    fn proved_rect(
        &mut self,
        cert: &Cert,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    );

    /// Exactly evaluate the in-range points of the rectangle; `cursor`
    /// is pinned to the enclosing tile's cell.
    #[allow(clippy::too_many_arguments)]
    fn exact_rect(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    );

    /// Exactly evaluate a whole tile through the shared engine funnel.
    fn exact_tile(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        lo: usize,
        hi: usize,
    );
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
    tiling: GridTiling,
    cursor: TileCursor<'a>,
    cams: Vec<CamInfo>,
    necessary: Vec<Arc>,
    sufficient: Vec<Arc>,
    k_nec: usize,
    /// `starts[c]..starts[c + 1]`: grid columns (rows) of index cell `c`.
    starts: Vec<usize>,
    cells: usize,
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
        let cells = tiling.cells_per_axis();
        let mut starts: Vec<usize> = (0..cells)
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
            cells,
            gs: grid.side_count(),
            spacing: grid.spacing(),
            band: dist_band(net.torus().side()),
            lo,
            hi,
            stats: ProverStats::default(),
            tiling,
        }
    }

    /// The closed rectangle of point centres of grid columns `c0..c1`,
    /// rows `r0..r1` — the same `(i + 0.5) · spacing` expression
    /// [`UnitGrid::point`] evaluates, so the bounds brackets the exact
    /// engine's own coordinates.
    fn rect_of(&self, c0: usize, c1: usize, r0: usize, r1: usize) -> Rect {
        let s = self.spacing;
        Rect {
            x0: (c0 as f64 + 0.5) * s,
            x1: ((c1 - 1) as f64 + 0.5) * s,
            y0: (r0 as f64 + 0.5) * s,
            y1: ((r1 - 1) as f64 + 0.5) * s,
        }
    }

    fn intersects_range(&self, c0: usize, c1: usize, r0: usize, r1: usize) -> bool {
        let min_idx = r0 * self.gs + c0;
        let max_idx = (r1 - 1) * self.gs + c1 - 1;
        max_idx >= self.lo && min_idx < self.hi
    }

    /// In-range point count of the rectangle (each row is a contiguous
    /// index run, clipped to `lo..hi`).
    fn in_range_count(&self, c0: usize, c1: usize, r0: usize, r1: usize) -> usize {
        let mut n = 0usize;
        for r in r0..r1 {
            let base = r * self.gs;
            let a = (base + c0).max(self.lo);
            let b = (base + c1).min(self.hi);
            n += b.saturating_sub(a);
        }
        n
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
    #[allow(clippy::too_many_arguments)]
    fn consume_cert<S: HierSink>(
        &mut self,
        cert: &Cert,
        sink: &mut S,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
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
        self.stats.points_proved += self.in_range_count(c0, c1, r0, r1);
        sink.proved_rect(cert, self.gs, self.lo, self.hi, c0, c1, r0, r1);
        true
    }

    /// Phase 1: recursion over the tile-coordinate rectangle
    /// `[tx0, tx1) × [ty0, ty1)`.
    fn visit_tiles<S: HierSink>(
        &mut self,
        tx0: usize,
        tx1: usize,
        ty0: usize,
        ty1: usize,
        cands: &[u32],
        sink: &mut S,
    ) {
        let (c0, c1) = (self.starts[tx0], self.starts[tx1]);
        let (r0, r1) = (self.starts[ty0], self.starts[ty1]);
        if c0 == c1 || r0 == r1 || !self.intersects_range(c0, c1, r0, r1) {
            return;
        }
        let rect = self.rect_of(c0, c1, r0, r1);
        let mut kept = Vec::with_capacity(cands.len());
        if let Some(cert) = self.classify(&rect, cands, &mut kept) {
            if self.consume_cert(&cert, sink, c0, c1, r0, r1) {
                return;
            }
        }
        if tx1 - tx0 == 1 && ty1 - ty0 == 1 {
            self.visit_tile_leaf(ty0 * self.cells + tx0, c0, c1, r0, r1, &kept, sink);
            return;
        }
        let mx = tx0 + (tx1 - tx0) / 2;
        let my = ty0 + (ty1 - ty0) / 2;
        for (ax, bx) in [(tx0, mx), (mx, tx1)] {
            if ax == bx {
                continue;
            }
            for (ay, by) in [(ty0, my), (my, ty1)] {
                if ay == by {
                    continue;
                }
                self.visit_tiles(ax, bx, ay, by, &kept, sink);
            }
        }
    }

    /// A single `Boundary` tile: small tiles go wholesale through the
    /// engine's tile funnel; large tiles recurse in point space with the
    /// cursor pinned once.
    #[allow(clippy::too_many_arguments)]
    fn visit_tile_leaf<S: HierSink>(
        &mut self,
        t: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
        cands: &[u32],
        sink: &mut S,
    ) {
        let points = (c1 - c0) * (r1 - r0);
        if points <= KERNEL_TILE_MAX {
            self.stats.tiles_exact += 1;
            self.stats.points_visited += self.in_range_count(c0, c1, r0, r1);
            sink.exact_tile(
                &mut self.cursor,
                &self.tiling,
                self.grid,
                t,
                self.lo,
                self.hi,
            );
            return;
        }
        let (cx, cy) = self.tiling.tile_cell(t);
        self.cursor.pin(cx, cy);
        self.visit_points(c0, c1, r0, r1, cands, sink);
    }

    /// Phase 2: recursion over point-space sub-rectangles inside one
    /// tile (cursor already pinned to the tile's cell).
    fn visit_points<S: HierSink>(
        &mut self,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
        cands: &[u32],
        sink: &mut S,
    ) {
        if c0 == c1 || r0 == r1 || !self.intersects_range(c0, c1, r0, r1) {
            return;
        }
        let points = (c1 - c0) * (r1 - r0);
        if points <= FLOOR_POINTS {
            self.stats.points_visited += self.in_range_count(c0, c1, r0, r1);
            sink.exact_rect(
                &self.cursor,
                self.grid,
                self.gs,
                self.lo,
                self.hi,
                c0,
                c1,
                r0,
                r1,
            );
            return;
        }
        let rect = self.rect_of(c0, c1, r0, r1);
        let mut kept = Vec::with_capacity(cands.len());
        if let Some(cert) = self.classify(&rect, cands, &mut kept) {
            if self.consume_cert(&cert, sink, c0, c1, r0, r1) {
                return;
            }
        }
        let mx = c0 + (c1 - c0) / 2;
        let my = r0 + (r1 - r0) / 2;
        for (ax, bx) in [(c0, mx), (mx, c1)] {
            if ax == bx {
                continue;
            }
            for (ay, by) in [(r0, my), (my, r1)] {
                if ay == by {
                    continue;
                }
                self.visit_points(ax, bx, ay, by, &kept, sink);
            }
        }
    }
}

/// Flags consumer: proven rectangles emit constant flags, residual
/// points run through the very evaluator the cold sweep uses.
struct FlagsSink<'f> {
    evaluator: GridEvaluator,
    f: &'f mut dyn FnMut(usize, PointFlags),
}

impl HierSink for FlagsSink<'_> {
    fn accepts_full(&self, _groups: usize, flags_ok: bool) -> bool {
        flags_ok
    }

    fn proved_rect(
        &mut self,
        cert: &Cert,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    ) {
        let flags = match cert {
            Cert::Empty => ALL_FALSE,
            Cert::Full { .. } => ALL_TRUE,
        };
        for r in r0..r1 {
            let base = r * gs;
            let a = (base + c0).max(lo);
            let b = (base + c1).min(hi);
            for idx in a..b {
                (self.f)(idx, flags);
            }
        }
    }

    fn exact_rect(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    ) {
        for r in r0..r1 {
            let base = r * gs;
            for c in c0..c1 {
                let idx = base + c;
                if idx >= lo && idx < hi {
                    let flags = self.evaluator.point_flags_with(cursor, grid.point(idx));
                    (self.f)(idx, flags);
                }
            }
        }
    }

    fn exact_tile(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        lo: usize,
        hi: usize,
    ) {
        self.evaluator
            .for_each_point_flags_in_tile(cursor, tiling, grid, t, lo, hi, self.f);
    }
}

/// Multiplicity-count consumer for the `kcount` path: a `Full`
/// certificate with at least `k` disjoint witness families decides a
/// whole rectangle; residual points run the exact arc-depth sweep.
struct CountSink {
    analyzer: PointAnalyzer,
    theta_radians: f64,
    k: usize,
    count: usize,
}

impl CountSink {
    fn meets(&mut self, cursor: &TileCursor<'_>, point: Point) -> bool {
        let view = self.analyzer.analyze_point_with(cursor, point);
        let colocated_bonus = usize::from(view.has_colocated_camera);
        min_arc_depth(view.viewed_directions, self.theta_radians) + colocated_bonus >= self.k
    }
}

impl HierSink for CountSink {
    fn accepts_full(&self, groups: usize, _flags_ok: bool) -> bool {
        groups >= self.k
    }

    fn proved_rect(
        &mut self,
        cert: &Cert,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    ) {
        if matches!(cert, Cert::Empty) {
            // Multiplicity 0 < k (k = 0 never reaches the prover).
            return;
        }
        for r in r0..r1 {
            let base = r * gs;
            let a = (base + c0).max(lo);
            let b = (base + c1).min(hi);
            self.count += b.saturating_sub(a);
        }
    }

    fn exact_rect(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        gs: usize,
        lo: usize,
        hi: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    ) {
        for r in r0..r1 {
            let base = r * gs;
            for c in c0..c1 {
                let idx = base + c;
                if idx >= lo && idx < hi && self.meets(cursor, grid.point(idx)) {
                    self.count += 1;
                }
            }
        }
    }

    fn exact_tile(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        lo: usize,
        hi: usize,
    ) {
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        let cur: &TileCursor<'_> = cursor;
        let mut hits = 0usize;
        let mut analyzer = std::mem::replace(&mut self.analyzer, PointAnalyzer::new());
        let theta_radians = self.theta_radians;
        let k = self.k;
        tiling.for_each_point_in_tile(t, |idx| {
            if idx >= lo && idx < hi {
                let view = analyzer.analyze_point_with(cur, grid.point(idx));
                let colocated_bonus = usize::from(view.has_colocated_camera);
                if min_arc_depth(view.viewed_directions, theta_radians) + colocated_bonus >= k {
                    hits += 1;
                }
            }
        });
        self.analyzer = analyzer;
        self.count += hits;
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
    let cells = prover.cells;
    let all: Vec<u32> = (0..u32::try_from(net.len()).expect("camera count fits u32")).collect();
    prover.visit_tiles(0, cells, 0, cells, &all, sink);
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

/// The hierarchical counterpart of [`fullview_core::count_k_view_range`]:
/// counts the points of `lo..hi` whose view multiplicity is at least
/// `k`, using `Full` certificates with `≥ k` disjoint witness families
/// to decide whole rectangles and the exact arc-depth sweep for the
/// rest. The count equals the core function's exactly.
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
    if k == 0 {
        // Every point qualifies; the core count checks the range.
        return (
            fullview_core::count_k_view_range(net, grid, theta, 0, lo, hi),
            ProverStats::default(),
        );
    }
    let mut sink = CountSink {
        analyzer: PointAnalyzer::new(),
        theta_radians: theta.radians(),
        k,
        count: 0,
    };
    match prove(net, grid, theta, Angle::ZERO, lo, hi, &mut sink) {
        Some(stats) => (sink.count, stats),
        None => (
            fullview_core::count_k_view_range(net, grid, theta, k, lo, hi),
            visited(lo, hi),
        ),
    }
}
