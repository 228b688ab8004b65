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
//!   exist, and the sink's proof closes. For flags, every sector of
//!   **both** the necessary (`2θ`) and sufficient (`θ`) partitions
//!   contains some witness cone entirely: by the paper's §IV sufficiency
//!   theorem the largest angular gap at every rectangle point is then at
//!   most `2θ`, so all five flags are `true`. For k verdicts, each
//!   witness is placed first-fit into the first sufficient sector that
//!   holds its cone, and every sector's count reaches `k`: taking one
//!   member per sector forms `k` disjoint families, each of which alone
//!   meets the sufficient condition, so the multiplicity is at least `k`
//!   everywhere in the rectangle.
//! * **`Boundary`** — neither proof succeeds: recurse.
//!
//! # The certificate scan
//!
//! A node's certificate attempt is one pass over its candidates (the
//! cameras its parent kept, the parent's witnesses first). Per candidate
//! it bounds the x axis first and drops the camera when `dmin_x²`
//! alone exceeds `(r + band)²`; then the y axis, and the full
//! `dmin² > (r + band)²`. A camera still in play is kept for the
//! children. Only a kept camera with `dmax² < (r − band)²` pays for its
//! direction cone, and only then for the field-of-view test. Each
//! witness is added to the sink's proof, and the scan stops the moment
//! that proof closes ([`Proof`]): every certificate condition is
//! monotone in the witness set, so a partial set that proves the node
//! proves it as the full set would, and a node whose proof never closes
//! has scanned every candidate. Squared distances differ from the
//! `hypot` forms by about 1e-16 relative, far inside the 1e-9 band.
//!
//! Every rectangle the prover does not certify ends as a *residual*: a
//! whole tile of at most `KERNEL_TILE_MAX` points, or a sub-tile
//! rectangle of at most `FLOOR_POINTS` points. Residuals go to core's
//! screened funnel of the sweep's kind on the pinned cursor
//! ([`PointByte::evaluate_rect`]) — the funnel the core sweep runs on
//! every tile.
//!
//! # One sink, two kinds
//!
//! The prover owns recursion, certificates and stats; one [`Sink`] owns
//! the emit callback and the residual funnel. The sealed [`Certified`]
//! trait is the only place the prover tells flags ([`FlagBits`]) from
//! k verdicts ([`KBit`]): what closes the kind's `Full` proof, the start
//! line of its partitions, and the verdict a certified rectangle emits.
//!
//! # Conservativeness and bit-identity
//!
//! Every certificate implies the exact per-point predicate *strictly*
//! (margins of `1e-9`/`1e-7` dwarf both f64 noise and the engine's
//! `ANGLE_EPS` tolerances), and extra covering cameras can only keep
//! the proven flags `true` (all five predicates are monotone in the
//! covering set). Residual points get core's own answers, so the
//! combined answer is bit-identical to the kind's core
//! [`sweep`](PointByte::sweep) by construction.

use crate::bounds::{axis_bound, cone, dist_band, Rect, ANG_BAND};
use fullview_core::{
    use_tiled, EffectiveAngle, FlagBits, GridEvaluator, GridTiling, KBit, PointByte, PointFlags,
    SectorPartition,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cert {
    /// No candidate camera reaches any point of the rectangle.
    Empty,
    /// The sink's [`Proof`] closed: the rectangle is uniformly covered in
    /// the sense the sink measures.
    Full,
}

/// What closes a sink's `Full` proof. Both also need at least `⌈π/θ⌉`
/// witnesses; both conditions are monotone in the witness set.
#[derive(Debug, Clone, Copy)]
pub enum Proof {
    /// Every sector of both partitions holds a witness cone: all five
    /// predicate flags are `true` everywhere in the rectangle.
    Flags,
    /// Every sufficient sector's first-fit witness count reaches `k`
    /// (`k ≥ 1`): the view multiplicity is at least `k` everywhere.
    K(usize),
}

mod sealed {
    use super::{Cert, Proof};
    use fullview_core::PointByte;
    use fullview_geom::Angle;

    /// What a certificate means to one verdict kind.
    pub trait Certify: PointByte {
        /// What closes this kind's `Full` proof; `None` when every point
        /// holds without a proof (k = 0), which the core sweep answers.
        fn proof(&self) -> Option<Proof>;
        /// The start line of the sector partitions the proof fills.
        fn start_line(&self) -> Angle;
        /// The verdict of every point of a certified rectangle.
        fn certified(cert: Cert) -> Self::Verdict;
    }
}

/// A verdict kind the prover can certify: [`FlagBits`] (all five flags
/// hold, or none) and [`KBit`] (the multiplicity reaches `k`, or it is
/// 0). Sealed: the two impls are the only place the prover tells the
/// kinds apart.
pub trait Certified: PointByte + sealed::Certify {}

impl<B: sealed::Certify> Certified for B {}

impl sealed::Certify for FlagBits {
    fn proof(&self) -> Option<Proof> {
        Some(Proof::Flags)
    }

    fn start_line(&self) -> Angle {
        FlagBits::start_line(self)
    }

    fn certified(cert: Cert) -> PointFlags {
        let full = cert == Cert::Full;
        PointFlags {
            covered: full,
            k_covered: full,
            necessary: full,
            full_view: full,
            sufficient: full,
        }
    }
}

impl sealed::Certify for KBit {
    fn proof(&self) -> Option<Proof> {
        (self.k() > 0).then(|| Proof::K(self.k()))
    }

    fn start_line(&self) -> Angle {
        Angle::ZERO
    }

    /// `Full` means at least `k` disjoint witness families; `Empty` means
    /// multiplicity 0 < k.
    fn certified(cert: Cert) -> bool {
        cert == Cert::Full
    }
}

/// Where a sweep's verdicts go: the kind, the evaluator its residual
/// rectangles run through core's funnel on, and the emit callback. Every
/// in-range index is emitted once, by a certificate or by the funnel.
struct Sink<'s, B: Certified> {
    holds: &'s B,
    evaluator: GridEvaluator,
    f: &'s mut dyn FnMut(usize, B::Verdict),
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

/// Per-camera geometry snapshot: what the candidate scan compares,
/// computed once per prover.
struct CamInfo {
    pos: Point,
    /// `(r + band)²`: a camera whose squared `dmin` exceeds this reaches
    /// no point of the rectangle.
    reach_sq: f64,
    /// `(r − band)²`, or `−1` when `r ≤ band`: a camera whose squared
    /// `dmax` is below this reaches every point of the rectangle.
    sure_sq: f64,
    orientation: Angle,
    /// Whether the field of view is the whole circle.
    omni: bool,
    /// Half the angle of view, `φ/2`.
    half_aov: f64,
}

impl CamInfo {
    /// Whether the cone `(center, half)` of viewed directions fits the
    /// field of view with margin: the camera then faces every rectangle
    /// point.
    fn sees(&self, (center, half): (Angle, f64)) -> bool {
        self.omni || self.orientation.distance(center.opposite()) + half + ANG_BAND <= self.half_aov
    }
}

/// One sector of a partition with what a containment test reads computed
/// once: the values [`Arc::bisector`], [`Arc::width`] and
/// [`Arc::is_full_circle`] give.
#[derive(Debug, Clone, Copy)]
struct Sector {
    bisector: Angle,
    half_width: f64,
    full: bool,
}

impl Sector {
    fn of(arc: &Arc) -> Self {
        Sector {
            bisector: arc.bisector(),
            half_width: 0.5 * arc.width(),
            full: arc.is_full_circle(),
        }
    }

    /// Whether the cone `(c, h)` lies inside the sector with margin.
    fn holds(&self, (c, h): (Angle, f64)) -> bool {
        self.full || self.bisector.distance(c) + h + ANG_BAND <= self.half_width
    }
}

/// One node's [`Proof`] in progress, witness by witness; its buffers are
/// reused across nodes.
struct ProofScan {
    /// The sectors the proof must fill: the sufficient partition's, then
    /// (for flags) the necessary partition's.
    sectors: Vec<Sector>,
    /// The witness cones each sector needs: 1 for flags, `k` for k.
    need: usize,
    /// Whether a witness counts only in the first sector that holds it
    /// (k: disjoint families, so the counts do not depend on the order
    /// witnesses arrive in) or in every sector that holds it (flags: one
    /// direction may serve two overlapping sectors, exactly as in
    /// `SectorPartition::is_satisfied_by`).
    first_fit: bool,
    /// The witnesses a proof needs at least, `⌈π/θ⌉`.
    min_witnesses: usize,
    /// Witnesses added so far.
    witnesses: usize,
    /// The witness count of each sector.
    counts: Vec<usize>,
    /// Sectors whose count is still below `need`.
    short: usize,
}

impl ProofScan {
    fn new(proof: Proof, theta: EffectiveAngle, start_line: Angle) -> Self {
        let mut sectors: Vec<Sector> = SectorPartition::sufficient(theta, start_line)
            .sectors()
            .iter()
            .map(Sector::of)
            .collect();
        let (need, first_fit) = match proof {
            Proof::Flags => {
                let necessary = SectorPartition::necessary(theta, start_line);
                sectors.extend(necessary.sectors().iter().map(Sector::of));
                (1, false)
            }
            Proof::K(k) => (k, true),
        };
        ProofScan {
            need,
            first_fit,
            min_witnesses: theta.necessary_sector_count().max(1),
            witnesses: 0,
            counts: vec![0; sectors.len()],
            short: sectors.len(),
            sectors,
        }
    }

    /// Starts a node's proof: no witness yet.
    fn reset(&mut self) {
        self.witnesses = 0;
        self.counts.fill(0);
        self.short = self.sectors.len();
    }

    /// Adds one witness cone; `true` once the proof has closed.
    fn add(&mut self, cone: (Angle, f64)) -> bool {
        self.witnesses += 1;
        for (count, sector) in self.counts.iter_mut().zip(&self.sectors) {
            if sector.holds(cone) {
                *count += 1;
                if *count == self.need {
                    self.short -= 1;
                }
                if self.first_fit {
                    break;
                }
            }
        }
        self.short == 0 && self.witnesses >= self.min_witnesses
    }
}

struct Prover<'a> {
    grid: &'a UnitGrid,
    torus: Torus,
    cursor: TileCursor<'a>,
    cams: Vec<CamInfo>,
    scan: ProofScan,
    /// Scratch: a node's kept candidates that are not witnesses.
    rest: Vec<u32>,
    /// Kept-candidate buffers of finished nodes, reused down the
    /// recursion.
    kept_pool: Vec<Vec<u32>>,
    /// `starts[c]..starts[c + 1]`: grid columns (rows) of index cell `c`.
    starts: Vec<usize>,
    gs: usize,
    spacing: f64,
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
        proof: Proof,
        lo: usize,
        hi: usize,
    ) -> Self {
        let tiling = GridTiling::new(net.index(), grid);
        let mut starts: Vec<usize> = (0..tiling.cells_per_axis())
            .map(|c| tiling.cell_axis_range(c).start)
            .collect();
        starts.push(grid.side_count());
        let band = dist_band(net.torus().side());
        let cams = net
            .cameras()
            .iter()
            .map(|c| {
                let (r, aov) = (c.spec().radius(), c.spec().angle_of_view());
                CamInfo {
                    pos: c.position(),
                    reach_sq: (r + band) * (r + band),
                    sure_sq: if r > band {
                        (r - band) * (r - band)
                    } else {
                        -1.0
                    },
                    orientation: c.orientation(),
                    omni: aov >= TAU - ANGLE_EPS,
                    half_aov: 0.5 * aov,
                }
            })
            .collect();
        Prover {
            grid,
            torus: *net.torus(),
            cursor: net.tile_cursor(),
            cams,
            scan: ProofScan::new(proof, theta, start_line),
            rest: Vec::new(),
            kept_pool: Vec::new(),
            starts,
            gs: grid.side_count(),
            spacing: grid.spacing(),
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

    /// Attempts a certificate for the rectangle, scanning `cands` until
    /// the sink's proof closes (the module doc's certificate scan).
    /// `None` means `Boundary`: every candidate was scanned, and `kept`
    /// holds those that may reach the rectangle, witnesses first — the
    /// child nodes' candidate set.
    fn classify(&mut self, rect: &Rect, cands: &[u32], kept: &mut Vec<u32>) -> Option<Cert> {
        self.stats.nodes += 1;
        kept.clear();
        let Prover {
            torus,
            cams,
            scan,
            rest,
            ..
        } = self;
        rest.clear();
        scan.reset();
        for &ci in cands {
            let cam = &cams[ci as usize];
            let x = axis_bound(torus, cam.pos.x, rect.x0, rect.x1);
            if x.lo_sq() > cam.reach_sq {
                continue;
            }
            let y = axis_bound(torus, cam.pos.y, rect.y0, rect.y1);
            if x.lo_sq() + y.lo_sq() > cam.reach_sq {
                // Surely out of range for every rectangle point.
                continue;
            }
            let witness = if x.hi_sq() + y.hi_sq() < cam.sure_sq {
                cone(&x, &y).filter(|&c| cam.sees(c))
            } else {
                None
            };
            match witness {
                Some(c) => {
                    kept.push(ci);
                    if scan.add(c) {
                        return Some(Cert::Full);
                    }
                }
                None => rest.push(ci),
            }
        }
        if kept.is_empty() && rest.is_empty() {
            return Some(Cert::Empty);
        }
        kept.extend_from_slice(rest);
        None
    }

    /// Books and emits a certificate: every in-range point of the
    /// rectangle gets the kind's certified verdict.
    fn prove<B: Certified>(
        &mut self,
        cert: Cert,
        sink: &mut Sink<'_, B>,
        cols: &Range<usize>,
        rows: &Range<usize>,
    ) {
        match cert {
            Cert::Empty => self.stats.proved_empty += 1,
            Cert::Full => self.stats.proved_full += 1,
        }
        self.stats.points_proved += self.in_range_count(cols, rows);
        let verdict = B::certified(cert);
        for idx in self.runs(cols, rows).flatten() {
            (sink.f)(idx, verdict);
        }
    }

    /// Hands a residual rectangle of the pinned cell to core's funnel of
    /// the sink's kind.
    fn residual<B: Certified>(
        &mut self,
        cols: Range<usize>,
        rows: Range<usize>,
        sink: &mut Sink<'_, B>,
    ) {
        self.stats.points_visited += self.in_range_count(&cols, &rows);
        sink.holds.evaluate_rect(
            &mut sink.evaluator,
            &self.cursor,
            self.grid,
            cols,
            rows,
            self.lo,
            self.hi,
            sink.f,
        );
    }

    /// The one recursion over the node `x × y`. A sub-tile rectangle of at
    /// most `FLOOR_POINTS` points is a residual outright; every other node
    /// is classified once, and a `Boundary` node [`split`](Self::split)s.
    fn visit<B: Certified>(&mut self, x: Span, y: Span, cands: &[u32], sink: &mut Sink<'_, B>) {
        let (cols, rows) = (x.points.clone(), y.points.clone());
        if cols.is_empty() || rows.is_empty() || !self.intersects_range(&cols, &rows) {
            return;
        }
        let whole_tiles =
            cols == self.span(x.cells.clone()).points && rows == self.span(y.cells.clone()).points;
        if !whole_tiles && cols.len() * rows.len() <= FLOOR_POINTS {
            return self.residual(cols, rows, sink);
        }
        let rect = self.rect_of(&cols, &rows);
        let mut kept = self.kept_pool.pop().unwrap_or_default();
        match self.classify(&rect, cands, &mut kept) {
            Some(cert) => self.prove(cert, sink, &cols, &rows),
            None => self.split(x, y, whole_tiles, &kept, sink),
        }
        self.kept_pool.push(kept);
    }

    /// Recurses into a `Boundary` node's children with its kept
    /// candidates. A node spanning several cells splits at tile-coordinate
    /// midpoints. A whole tile pins the cursor and is a residual when it
    /// has at most `KERNEL_TILE_MAX` points; otherwise it, like a sub-tile
    /// rectangle, splits at point midpoints.
    fn split<B: Certified>(
        &mut self,
        x: Span,
        y: Span,
        whole_tiles: bool,
        kept: &[u32],
        sink: &mut Sink<'_, B>,
    ) {
        if x.cells.len() > 1 || y.cells.len() > 1 {
            for xc in halves(&x.cells) {
                for yc in halves(&y.cells) {
                    let (xs, ys) = (self.span(xc.clone()), self.span(yc));
                    self.visit(xs, ys, kept, sink);
                }
            }
            return;
        }
        let (cols, rows) = (x.points.clone(), y.points.clone());
        if whole_tiles {
            self.cursor.pin(x.cells.start, y.cells.start);
            if cols.len() * rows.len() <= KERNEL_TILE_MAX {
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
                self.visit(xs, ys, kept, sink);
            }
        }
    }
}

/// The prover's one sweep, for either kind: calls `f(index, verdict)`
/// exactly once for every grid index in `lo..hi` (order unspecified, as
/// with the tile engine — key results by index), with verdicts
/// bit-identical to the kind's core [`sweep`](PointByte::sweep), and
/// returns what the prover decided without visiting points. Grids where
/// the tile path does not pay off go wholesale to the core sweep, and so
/// does a kind with nothing to prove (k = 0), with default stats.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub(crate) fn sweep<B: Certified>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    holds: &B,
    lo: usize,
    hi: usize,
    f: &mut dyn FnMut(usize, B::Verdict),
) -> ProverStats {
    let Some(proof) = holds.proof() else {
        holds.sweep(net, grid, theta, lo, hi, f);
        return ProverStats::default();
    };
    assert!(
        lo <= hi && hi <= grid.len(),
        "range {lo}..{hi} out of bounds for a grid of {} points",
        grid.len()
    );
    if !use_tiled(net, grid) {
        holds.sweep(net, grid, theta, lo, hi, f);
        return ProverStats {
            points_visited: hi - lo,
            ..ProverStats::default()
        };
    }
    let mut prover = Prover::new(net, grid, theta, holds.start_line(), proof, lo, hi);
    let mut sink = Sink {
        holds,
        evaluator: holds.evaluator(theta),
        f,
    };
    let all: Vec<u32> = (0..u32::try_from(net.len()).expect("camera count fits u32")).collect();
    let root = prover.span(0..prover.starts.len() - 1);
    prover.visit(root.clone(), root, &all, &mut sink);
    prover.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_model::{Camera, GroupId, SensorSpec};
    use proptest::prelude::*;
    use std::f64::consts::PI;

    /// A node-level proof as the full scan states it, before a sink
    /// accepts it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RefCert {
        Empty,
        Full { groups: usize, flags_ok: bool },
    }

    /// The reference certificate attempt: a full scan of `cands` in which
    /// every candidate pays both `hypot` distance bounds and its cone, the
    /// sectors are tested through [`Arc::bisector`], and nothing stops
    /// early. `kept` gets every candidate that may reach the rectangle.
    fn reference_classify(
        net: &CameraNetwork,
        theta: EffectiveAngle,
        start_line: Angle,
        rect: &Rect,
        cands: &[u32],
        kept: &mut Vec<u32>,
    ) -> Option<RefCert> {
        let torus = net.torus();
        let band = dist_band(torus.side());
        let necessary = SectorPartition::necessary(theta, start_line);
        let sufficient = SectorPartition::sufficient(theta, start_line);
        let k_nec = theta.necessary_sector_count();
        kept.clear();
        let mut witnesses: Vec<(Angle, f64)> = Vec::new();
        for &ci in cands {
            let cam = &net.cameras()[ci as usize];
            let (radius, aov) = (cam.spec().radius(), cam.spec().angle_of_view());
            let bx = axis_bound(torus, cam.position().x, rect.x0, rect.x1);
            let by = axis_bound(torus, cam.position().y, rect.y0, rect.y1);
            let dmin = bx.abs_lo.hypot(by.abs_lo);
            let dmax = bx.abs_hi.hypot(by.abs_hi);
            if dmin > radius + band {
                continue;
            }
            kept.push(ci);
            if dmax + band < radius {
                if let Some((center, half)) = cone(&bx, &by) {
                    let aov_ok = aov >= TAU - ANGLE_EPS
                        || cam.orientation().distance(center.opposite()) + half + ANG_BAND
                            <= 0.5 * aov;
                    if aov_ok {
                        witnesses.push((center, half));
                    }
                }
            }
        }
        if kept.is_empty() {
            return Some(RefCert::Empty);
        }
        if witnesses.len() < k_nec.max(1) {
            return None;
        }
        let contains = |arc: &Arc, c: Angle, h: f64| {
            arc.is_full_circle() || arc.bisector().distance(c) + h + ANG_BAND <= 0.5 * arc.width()
        };
        let mut per_sector = vec![0usize; sufficient.sectors().len()];
        'witness: for &(c, h) in &witnesses {
            for (si, arc) in sufficient.sectors().iter().enumerate() {
                if contains(arc, c, h) {
                    per_sector[si] += 1;
                    continue 'witness;
                }
            }
        }
        let groups = per_sector.iter().copied().min().unwrap_or(0);
        let flags_ok = witnesses.len() >= k_nec
            && [&sufficient, &necessary].iter().all(|p| {
                p.sectors()
                    .iter()
                    .all(|arc| witnesses.iter().any(|&(c, h)| contains(arc, c, h)))
            });
        (groups >= 1 || flags_ok).then_some(RefCert::Full { groups, flags_ok })
    }

    /// What a sink with `proof` makes of a reference certificate: one it
    /// rejects leaves the node `Boundary`.
    fn accepted(cert: Option<RefCert>, proof: Proof) -> Option<Cert> {
        match (cert?, proof) {
            (RefCert::Empty, _) => Some(Cert::Empty),
            (RefCert::Full { flags_ok: true, .. }, Proof::Flags) => Some(Cert::Full),
            (RefCert::Full { groups, .. }, Proof::K(k)) if groups >= k => Some(Cert::Full),
            _ => None,
        }
    }

    /// One certificate attempt: a rectangle, the cameras around it, θ and
    /// the sector start line.
    #[derive(Debug, Clone)]
    struct Case {
        rect: Rect,
        cams: Vec<Camera>,
        theta: EffectiveAngle,
        start_line: Angle,
    }

    /// A rectangle of point centres on a 304² grid: a single point, a
    /// block of up to 60 × 60 points, a block wider than half the torus
    /// (every camera's delta straddles the seam on that axis), or a block
    /// holding a camera (`true`).
    fn rect_strategy() -> impl Strategy<Value = (Rect, bool)> {
        (0usize..4, 0usize..304, 0usize..304, 1usize..61, 1usize..61).prop_map(
            |(sel, i, j, w, h)| {
                let s = 1.0 / 304.0;
                let c = |i: usize| (i as f64 + 0.5) * s;
                let block = |w: usize, h: usize| Rect {
                    x0: c(i.min(303 - w)),
                    x1: c(i.min(303 - w) + w),
                    y0: c(j.min(303 - h)),
                    y1: c(j.min(303 - h) + h),
                };
                match sel {
                    0 => (block(0, 0), false),
                    1 => (block(w, h), false),
                    2 => (block(160 + 2 * w, h), false),
                    _ => (block(w, h), true),
                }
            },
        )
    }

    /// θ parked on sector-count boundaries: π, a few ulps either side of
    /// 2π/k, or generic.
    fn theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
        (0usize..4, 2usize..24, -4i32..=4, 0.1..=1.0f64).prop_map(|(sel, k, ulps, f)| {
            let t = match sel {
                0 => PI,
                1 | 2 => (TAU / k as f64) * (1.0 + f64::from(ulps) * 1e-15),
                _ => f * PI,
            };
            EffectiveAngle::new(t.min(PI)).unwrap()
        })
    }

    /// Builds one camera from raw draws against `rect`: placed on a ring
    /// around it or anywhere, facing it or anywhere, with φ = 2π,
    /// φ = π ± 1e-7, a sliver or a generic angle, and a radius drawn
    /// absolutely or a few bands either side of the rectangle's `dmax` or
    /// `dmin` (never within rounding of a band edge, where `hypot` and
    /// squared forms may disagree by an ulp and both stay sound).
    fn camera(
        rect: &Rect,
        place: (usize, f64, f64, f64),
        view: (usize, f64, usize, f64),
    ) -> Camera {
        let torus = Torus::unit();
        let (place_sel, d, ang, jitter) = place;
        let (phi_sel, u_phi, r_sel, u_r) = view;
        let (cx, cy) = (0.5 * (rect.x0 + rect.x1), 0.5 * (rect.y0 + rect.y1));
        let (pos, facing) = match place_sel {
            0 | 1 => {
                let d = 0.01 + 0.34 * d;
                let pos = torus.wrap(Point::new(cx + d * ang.cos(), cy + d * ang.sin()));
                (pos, ang + PI + (jitter - 0.5) * 0.6)
            }
            _ => (Point::new(d, jitter), ang),
        };
        let phi = match phi_sel {
            0 => TAU,
            1 => PI - 1e-7 + u_phi * 2e-7,
            2 => 0.05 + u_phi * 0.25,
            _ => 0.1 + u_phi * (TAU - 0.1),
        };
        let bx = axis_bound(&torus, pos.x, rect.x0, rect.x1);
        let by = axis_bound(&torus, pos.y, rect.y0, rect.y1);
        let (dmin, dmax) = (bx.abs_lo.hypot(by.abs_lo), bx.abs_hi.hypot(by.abs_hi));
        let bands = [-3.0, -2.0, -1.5, -0.5, 0.5, 1.5, 2.0, 3.0][(u_r * 8.0) as usize % 8];
        let band = dist_band(1.0);
        let r = match r_sel {
            0 | 1 => 0.02 + u_r * 0.43,
            2 | 3 => dmax + bands * band,
            4 => dmin + bands * band,
            _ => dmax * (1.0 + (u_r - 0.5) * 1e-6),
        };
        let spec = SensorSpec::new(r.max(1e-4), phi).unwrap();
        Camera::new(pos, Angle::new(facing), spec, GroupId(0))
    }

    fn case_strategy() -> impl Strategy<Value = Case> {
        let draws = (
            (0usize..3, 0.0..1.0f64, 0.0..TAU, 0.0..1.0f64),
            (0usize..4, 0.0..1.0f64, 0usize..6, 0.0..1.0f64),
        );
        (
            rect_strategy(),
            prop::collection::vec(draws, 0..48),
            theta_strategy(),
            0.0..TAU,
            (0.0..1.0f64, 0usize..6, 0.0..1.0f64),
        )
            .prop_map(|((rect, inside), draws, theta, start, (u, r_sel, u_r))| {
                let mut cams: Vec<Camera> = draws
                    .into_iter()
                    .map(|(place, view)| camera(&rect, place, view))
                    .collect();
                if inside {
                    let mut cam = camera(&rect, (2, 0.0, 0.0, 0.0), (3, u, r_sel, u_r));
                    let pos = Point::new(
                        rect.x0 + u * (rect.x1 - rect.x0),
                        rect.y0 + u_r * (rect.y1 - rect.y0),
                    );
                    cam = Camera::new(pos, cam.orientation(), *cam.spec(), GroupId(0));
                    cams.push(cam);
                }
                Case {
                    rect,
                    cams,
                    theta,
                    start_line: Angle::new(start),
                }
            })
    }

    const PROOFS: [Proof; 5] = [
        Proof::Flags,
        Proof::K(1),
        Proof::K(2),
        Proof::K(3),
        Proof::K(4),
    ];

    /// Classifies `case` with one prover per proof — its rectangle, then
    /// the lower-left quarter of it with the candidates the first attempt
    /// kept (witnesses first), so buffers are reused across nodes — and
    /// returns each attempt's verdict after checking it against the
    /// reference: the same `Empty`/`Full`/`Boundary`, and on `Boundary`
    /// the same kept set.
    fn check_case(case: &Case) -> Result<Vec<Option<Cert>>, TestCaseError> {
        let net = CameraNetwork::new(Torus::unit(), case.cams.clone());
        let grid = UnitGrid::new(Torus::unit(), 16);
        let all: Vec<u32> = (0..u32::try_from(net.len()).unwrap()).collect();
        let r = case.rect;
        let child = Rect {
            x1: r.x0 + 0.5 * (r.x1 - r.x0),
            y1: r.y0 + 0.5 * (r.y1 - r.y0),
            ..r
        };
        let reference = |rect: &Rect, cands: &[u32]| {
            let mut kept = Vec::new();
            let cert =
                reference_classify(&net, case.theta, case.start_line, rect, cands, &mut kept);
            kept.sort_unstable();
            (cert, kept)
        };
        let mut verdicts = Vec::new();
        for proof in PROOFS {
            let mut prover = Prover::new(
                &net,
                &grid,
                case.theta,
                case.start_line,
                proof,
                0,
                grid.len(),
            );
            let mut cands = all.clone();
            for rect in [r, child] {
                let (want, want_kept) = reference(&rect, &cands);
                let mut kept = Vec::new();
                let got = prover.classify(&rect, &cands, &mut kept);
                prop_assert_eq!(got, accepted(want, proof), "{:?} on {:?}", proof, rect);
                verdicts.push(got);
                if got.is_some() {
                    break;
                }
                let mut sorted = kept.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&sorted, &want_kept, "{:?} kept on {:?}", proof, rect);
                cands = kept;
            }
        }
        Ok(verdicts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The certificate scan gives the full scan's verdict for the flags
        /// sink and for k = 1..=4, and on `Boundary` keeps the same
        /// candidates.
        #[test]
        fn classify_gives_the_full_scan_verdict(case in case_strategy()) {
            check_case(&case)?;
        }
    }

    /// The cases the property draws reach every verdict, so it is not
    /// vacuous: `Empty`, `Full` and `Boundary` each occur for the flags
    /// sink and for k = 2.
    #[test]
    fn certificate_cases_reach_every_verdict() {
        let mut rng = TestRng::for_test("classify_gives_the_full_scan_verdict");
        let strategy = case_strategy();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let case = strategy.generate(&mut rng);
            let verdicts = check_case(&case).unwrap();
            // One prover per proof; the first verdict of each is the
            // case rectangle's.
            let mut it = verdicts.iter();
            for proof in PROOFS {
                let first = *it.next().unwrap();
                if first.is_none() {
                    it.next();
                }
                seen.insert((format!("{proof:?}"), format!("{first:?}")));
            }
        }
        for proof in ["Flags", "K(2)"] {
            for verdict in ["Some(Empty)", "Some(Full)", "None"] {
                assert!(
                    seen.contains(&(proof.to_string(), verdict.to_string())),
                    "{proof} never gave {verdict}: {seen:?}"
                );
            }
        }
    }
}
