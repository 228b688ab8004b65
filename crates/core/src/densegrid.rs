//! Dense-grid area coverage (§III-A).
//!
//! Following Kumar et al. [6], the paper reduces area coverage of the unit
//! square to coverage of a `√m × √m` dense grid with `m = n log n` points:
//! conditions achieving full-view coverage of the grid also cover the
//! square (for `lim φ(n) > 0`), while grid coverage is trivially necessary.
//! [`GridCoverageReport`] evaluates **all** per-point predicates in a
//! single sweep, sharing the camera query and viewed-direction computation
//! per grid point.

use crate::conditions::SectorPartition;
use crate::engine::{claim_units, use_tiled, walk, walk_tiles, GridTiling, SweepUnit};
use crate::fullview::{largest_circular_gap, CoverageView, PointAnalyzer};
use crate::kfullview::min_arc_depth_with;
use crate::mask::{PointVerdict, ScreenMode, ScreenStats, SectorMaskKernel};
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{CameraNetwork, CoverageProvider, TileCursor};
use std::fmt;
use std::ops::{AddAssign, Range};

/// The paper's dense-grid size `m = ⌈n ln n⌉`, floored at 4 so degenerate
/// populations still produce a usable grid.
#[must_use]
pub fn dense_grid_point_count(n: usize) -> usize {
    if n < 2 {
        return 4;
    }
    let m = (n as f64 * (n as f64).ln()).ceil() as usize;
    m.max(4)
}

/// The dense evaluation grid for a network of `n` sensors on `torus`.
#[must_use]
pub fn dense_grid(torus: Torus, n: usize) -> UnitGrid {
    UnitGrid::with_at_least(torus, dense_grid_point_count(n))
}

/// The verdicts of all five per-point predicates at one grid point —
/// the unit of exchange between the analysis engine and its consumers
/// (report tallies, full-view masks, glyph rendering).
///
/// Produced either by the exact analyzer
/// ([`GridEvaluator::point_flags_with`]) or by the sector-mask screen
/// when it can decide the point; the two agree bit for bit by
/// construction (see [`SectorMaskKernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointFlags {
    /// Covered by at least one camera.
    pub covered: bool,
    /// Covered by at least `⌈π/θ⌉` cameras (§VII-B).
    pub k_covered: bool,
    /// Meets the §III necessary condition.
    pub necessary: bool,
    /// Full-view covered (Definition 1).
    pub full_view: bool,
    /// Meets the §IV sufficient condition.
    pub sufficient: bool,
}

/// The bit of [`PointFlags::to_byte`] that holds the full-view verdict.
pub(crate) const FULL_VIEW_BIT: u8 = 1 << 3;

impl PointFlags {
    /// The five verdicts packed into one byte, one bit each (covered,
    /// k-covered, necessary, full-view, sufficient from the low bit up) —
    /// how a warm [`IncrementalSweep`](crate::IncrementalSweep) stores a
    /// point.
    #[must_use]
    pub const fn to_byte(self) -> u8 {
        self.covered as u8
            | (self.k_covered as u8) << 1
            | (self.necessary as u8) << 2
            | (self.full_view as u8) << 3
            | (self.sufficient as u8) << 4
    }

    /// Unpacks a byte of [`to_byte`](Self::to_byte); higher bits are
    /// ignored.
    #[must_use]
    pub const fn from_byte(byte: u8) -> Self {
        PointFlags {
            covered: byte & 1 != 0,
            k_covered: byte & 1 << 1 != 0,
            necessary: byte & 1 << 2 != 0,
            full_view: byte & FULL_VIEW_BIT != 0,
            sufficient: byte & 1 << 4 != 0,
        }
    }
}

/// Per-grid-point coverage tallies from one sweep of a dense grid.
///
/// All predicates are evaluated with the same effective angle and (for the
/// sector conditions) the same start line.
///
/// Reports over disjoint point sets combine with [`merge`](Self::merge) or
/// `+=`; since every field is a plain sum, merging is associative and
/// commutative, so a chunked parallel sweep produces **bit-identical**
/// reports regardless of chunking or thread count.
///
/// # Empty reports
///
/// A report over zero points (`total_points == 0`) treats every universal
/// predicate as **vacuously true** and every fraction as `1.0`:
/// `all_full_view()`, `all_necessary()`, `all_sufficient()` return `true`
/// and the `*_fraction()` accessors return `1.0`. This keeps the
/// "all points satisfy X" semantics consistent between the boolean and
/// fractional views, and makes the empty report the identity element for
/// [`merge`](Self::merge). (The dense grids of §III-A are never empty —
/// [`UnitGrid`] always has at least one point — so this only arises for
/// explicitly constructed empty reports.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GridCoverageReport {
    /// Total number of grid points evaluated.
    pub total_points: usize,
    /// Points covered by at least one camera (1-coverage).
    pub covered: usize,
    /// Points covered by at least `⌈π/θ⌉` cameras (the k-coverage
    /// full-view coverage implies, §VII-B).
    pub k_covered: usize,
    /// Points meeting the §III necessary condition.
    pub necessary: usize,
    /// Points full-view covered (Definition 1).
    pub full_view: usize,
    /// Points meeting the §IV sufficient condition.
    pub sufficient: usize,
}

impl GridCoverageReport {
    /// Fraction of grid points covered by at least one camera.
    #[must_use]
    pub fn covered_fraction(&self) -> f64 {
        self.fraction(self.covered)
    }

    /// Fraction of grid points with `⌈π/θ⌉`-coverage.
    #[must_use]
    pub fn k_covered_fraction(&self) -> f64 {
        self.fraction(self.k_covered)
    }

    /// Fraction of grid points meeting the necessary condition.
    #[must_use]
    pub fn necessary_fraction(&self) -> f64 {
        self.fraction(self.necessary)
    }

    /// Fraction of grid points that are full-view covered.
    #[must_use]
    pub fn full_view_fraction(&self) -> f64 {
        self.fraction(self.full_view)
    }

    /// Fraction of grid points meeting the sufficient condition.
    #[must_use]
    pub fn sufficient_fraction(&self) -> f64 {
        self.fraction(self.sufficient)
    }

    /// Whether every grid point is full-view covered — the event `H` of
    /// Definition 2 instantiated for full-view coverage. Vacuously `true`
    /// for an empty report (see the type-level docs).
    #[must_use]
    pub fn all_full_view(&self) -> bool {
        self.full_view == self.total_points
    }

    /// Whether every grid point meets the necessary condition — the event
    /// `H_N` of §III.
    #[must_use]
    pub fn all_necessary(&self) -> bool {
        self.necessary == self.total_points
    }

    /// Whether every grid point meets the sufficient condition — the event
    /// `H_S` of §IV.
    #[must_use]
    pub fn all_sufficient(&self) -> bool {
        self.sufficient == self.total_points
    }

    /// Folds one point's predicate verdicts into the tallies.
    pub fn record(&mut self, flags: &PointFlags) {
        self.total_points += 1;
        self.covered += usize::from(flags.covered);
        self.k_covered += usize::from(flags.k_covered);
        self.necessary += usize::from(flags.necessary);
        self.full_view += usize::from(flags.full_view);
        self.sufficient += usize::from(flags.sufficient);
    }

    /// Accumulates another report's tallies into this one.
    ///
    /// The two reports must cover **disjoint** point sets (the caller's
    /// responsibility); all fields are plain sums, so merging in any order
    /// or grouping yields the same result.
    pub fn merge(&mut self, other: &GridCoverageReport) {
        self.total_points += other.total_points;
        self.covered += other.covered;
        self.k_covered += other.k_covered;
        self.necessary += other.necessary;
        self.full_view += other.full_view;
        self.sufficient += other.sufficient;
    }

    /// Removes a previously-merged part from this report — the exact
    /// inverse of [`merge`](Self::merge), used by the incremental engine
    /// to patch a cached total in place (subtract a tile's old tallies,
    /// add its re-evaluated ones). Because every field is a plain integer
    /// sum, `total.subtract(&old); total.merge(&new)` is bit-identical to
    /// recomputing the total from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `other` was not previously merged into this report (any
    /// field would underflow).
    pub fn subtract(&mut self, other: &GridCoverageReport) {
        self.total_points -= other.total_points;
        self.covered -= other.covered;
        self.k_covered -= other.k_covered;
        self.necessary -= other.necessary;
        self.full_view -= other.full_view;
        self.sufficient -= other.sufficient;
    }

    fn fraction(&self, count: usize) -> f64 {
        if self.total_points == 0 {
            // Vacuous truth: an empty report satisfies every universal
            // predicate, matching `all_*()` (0 == 0).
            1.0
        } else {
            count as f64 / self.total_points as f64
        }
    }
}

impl AddAssign<&GridCoverageReport> for GridCoverageReport {
    fn add_assign(&mut self, rhs: &GridCoverageReport) {
        self.merge(rhs);
    }
}

impl AddAssign<GridCoverageReport> for GridCoverageReport {
    fn add_assign(&mut self, rhs: GridCoverageReport) {
        self.merge(&rhs);
    }
}

impl fmt::Display for GridCoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid[{}]: covered {:.4}, k-cov {:.4}, necessary {:.4}, full-view {:.4}, sufficient {:.4}",
            self.total_points,
            self.covered_fraction(),
            self.k_covered_fraction(),
            self.necessary_fraction(),
            self.full_view_fraction(),
            self.sufficient_fraction()
        )
    }
}

/// Reusable per-worker state for sweeping grid ranges without per-point
/// allocation.
///
/// Holds the sector partitions (built once from `θ` and the start line),
/// the mask kernel's scratch, a [`PointAnalyzer`] scratch buffer and the
/// arc-depth sweep's event buffer. A serial sweep uses one
/// evaluator for the whole grid; [`evaluate_grid_parallel`] gives each
/// worker its own evaluator, has each evaluate the tiles it claims via
/// [`evaluate_tiles`](Self::evaluate_tiles), and adds up the partial
/// reports — the result is bit-identical to the serial sweep for any
/// split of the tiles.
#[derive(Debug, Clone)]
pub struct GridEvaluator {
    necessary: SectorPartition,
    sufficient: SectorPartition,
    k: usize,
    theta: EffectiveAngle,
    analyzer: PointAnalyzer,
    /// The stage-1 mask screen; `None` runs the exact analyzer wholesale
    /// (unsupported θ, or an evaluator built with
    /// [`new_exact`](Self::new_exact) to serve as the differential
    /// oracle).
    kernel: Option<SectorMaskKernel>,
    stats: ScreenStats,
    /// The k funnel's reused arc-depth event buffer.
    events: Vec<(f64, i32)>,
}

impl GridEvaluator {
    /// Builds the evaluator for one `(θ, start_line)` configuration.
    ///
    /// The sector conditions use `start_line` for their constructions
    /// (the paper's dashed radius; [`Angle::ZERO`] is the conventional
    /// choice). Tiled evaluation screens each tile through the
    /// [`SectorMaskKernel`] first and decides the points the masks cannot
    /// with the exact predicates: from the viewed directions the screen
    /// gathered for them, or by rescanning the cursor where it could not
    /// gather them (boundary-band and colocated pairs, the gather budget).
    /// The per-point unit of the walk and
    /// [`point_flags_with`](Self::point_flags_with) are always exact.
    #[must_use]
    pub fn new(theta: EffectiveAngle, start_line: Angle) -> Self {
        let mut ev = Self::new_exact(theta, start_line);
        ev.kernel = SectorMaskKernel::new(theta, start_line);
        ev
    }

    /// Builds an evaluator with the mask screen disabled: every point
    /// goes through the exact analyzer, even on the tiled paths. This is
    /// the reference configuration differential tests and benchmarks
    /// compare the screened engine against.
    #[must_use]
    pub fn new_exact(theta: EffectiveAngle, start_line: Angle) -> Self {
        GridEvaluator {
            necessary: SectorPartition::necessary(theta, start_line),
            sufficient: SectorPartition::sufficient(theta, start_line),
            k: theta.necessary_sector_count(),
            theta,
            analyzer: PointAnalyzer::new(),
            kernel: None,
            stats: ScreenStats::default(),
            events: Vec::new(),
        }
    }

    /// Running screen statistics (points decided by the masks vs. by the
    /// exact predicates, and how many of the latter were rescanned)
    /// accumulated over every tiled evaluation since construction.
    #[must_use]
    pub fn screen_stats(&self) -> ScreenStats {
        self.stats
    }

    /// Analyses one point through `provider` with the exact engine —
    /// covering-camera gather, direction sort, gap scan — and returns
    /// every predicate verdict. This is the semantic definition the mask
    /// screen and its gathered directions must agree with, and the rescan
    /// the funnels fall back to for points the screen could not gather.
    pub fn point_flags_with<P: CoverageProvider>(
        &mut self,
        provider: &P,
        point: Point,
    ) -> PointFlags {
        let view = self.analyzer.analyze_point_with(provider, point);
        PointFlags {
            covered: view.covering_cameras >= 1,
            k_covered: view.covering_cameras >= self.k,
            necessary: self
                .necessary
                .is_satisfied_by(view.viewed_directions, view.has_colocated_camera),
            full_view: view.is_full_view(self.theta),
            sufficient: self
                .sufficient
                .is_satisfied_by(view.viewed_directions, view.has_colocated_camera),
        }
    }

    /// The flags of a point the screen gathered: every covering camera's
    /// viewed direction, sorted, none colocated. `nec_full` is the
    /// necessary mask, complete since the point was never done; the
    /// sufficient mask is not full, or the screen would have decided it.
    fn gathered_flags(&self, directions: &[Angle], nec_full: bool) -> PointFlags {
        let view = CoverageView {
            covering_cameras: directions.len(),
            has_colocated_camera: false,
            viewed_directions: directions,
            largest_gap: largest_circular_gap(directions),
        };
        PointFlags {
            covered: view.covering_cameras >= 1,
            k_covered: view.covering_cameras >= self.k,
            necessary: nec_full,
            full_view: view.is_full_view(self.theta),
            sufficient: false,
        }
    }

    /// The flags funnel: produces the [`PointFlags`] of the points inside
    /// `lo..hi` among grid columns `cols` × rows `rows`, a rectangle of the
    /// cell `cursor` is pinned to (rows outer, columns inner). Screens the
    /// whole rectangle through the mask kernel when one is configured, then
    /// decides each in-range point from its verdict, from the viewed
    /// directions the screen gathered for it, or by the exact analyzer's
    /// rescan. Out-of-range points are never gathered and never reach the
    /// exact analyzer or `f`.
    ///
    /// Every tiled flags evaluation — the walk's tiles, incremental
    /// repairs, the hierarchical prover's residual rectangles — runs this
    /// funnel's body (the tile loop's units enter it directly), so the
    /// kernel integration (and its bit-identity obligations) live in
    /// exactly one place.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_point_flags_in_rect(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(usize, PointFlags),
    ) {
        self.unit_flags(&SweepUnit::rect(cursor, grid, cols, rows, lo, hi), f);
    }

    /// The k funnel: calls `f(index, met)` for every point inside `lo..hi`
    /// among grid columns `cols` × rows `rows`, a rectangle of the cell
    /// `cursor` is pinned to (rows outer, columns inner), where `met` says
    /// whether the point's view multiplicity is at least `k`
    /// ([`CoverageView::view_multiplicity`](crate::CoverageView::view_multiplicity)).
    /// Screens the rectangle through the kernel's per-sector depth counters
    /// ([`ScreenMode::Depth`]) and runs the exact arc sweep only on the
    /// points the screen leaves undecided — over the directions it
    /// gathered for them, or on a rescan; the verdicts are bit-identical
    /// to the exact sweep either way.
    ///
    /// Every k evaluation — [`count_k_view_range`](crate::count_k_view_range),
    /// a warm [`KCountSweep`](crate::KCountSweep)'s repairs and the
    /// hierarchical prover's residual rectangles — runs this funnel's body
    /// (the tile loop's units enter it directly).
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_point_k_in_rect(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        lo: usize,
        hi: usize,
        k: usize,
        f: &mut dyn FnMut(usize, bool),
    ) {
        self.unit_k(&SweepUnit::rect(cursor, grid, cols, rows, lo, hi), k, f);
    }

    /// The flags of one walk unit's in-range points: screened verdicts or
    /// gathered directions where the unit is a rectangle and a kernel is
    /// configured, the exact analyzer through the unit's backend
    /// everywhere else.
    pub(crate) fn unit_flags(
        &mut self,
        unit: &SweepUnit<'_>,
        f: &mut dyn FnMut(usize, PointFlags),
    ) {
        // Take the kernel out of `self` so a rescan can borrow `self`
        // mutably while the kernel's verdicts and directions are read.
        let mut kernel = self.kernel.take();
        let screened = kernel
            .as_mut()
            .is_some_and(|k| unit.screen(k, ScreenMode::Report));
        // Only a kernel that screened this unit holds its verdicts.
        let screen = kernel.as_ref().filter(|_| screened);
        unit.for_each_point(|local, idx| {
            let verdict = screen.map_or(PointVerdict::Undecided, |kern| kern.verdict(local));
            let flags = match verdict {
                PointVerdict::Decided {
                    count,
                    suf_full,
                    nec_full,
                } => {
                    self.stats.screened += 1;
                    PointFlags {
                        covered: count >= 1,
                        k_covered: count as usize >= self.k,
                        necessary: nec_full,
                        full_view: suf_full,
                        sufficient: suf_full,
                    }
                }
                PointVerdict::Undecided => {
                    self.stats.exact += u64::from(screened);
                    let gathered = screen
                        .and_then(|kern| Some((kern.directions(local)?, kern.nec_full(local))));
                    match gathered {
                        Some((dirs, nec_full)) => self.gathered_flags(dirs, nec_full),
                        None => {
                            self.stats.rescanned += u64::from(screened);
                            self.point_flags_with(unit, unit.point(idx))
                        }
                    }
                }
            };
            f(idx, flags);
        });
        self.kernel = kernel;
    }

    /// Whether each of one walk unit's in-range points has view
    /// multiplicity at least `k`: depth-screened verdicts where the unit
    /// is a rectangle, a kernel is configured and `k` fits the counters,
    /// the exact arc sweep everywhere else — over the directions the
    /// screen gathered, or through the unit's backend. `k = 0` holds
    /// everywhere and evaluates nothing.
    pub(crate) fn unit_k(
        &mut self,
        unit: &SweepUnit<'_>,
        k: usize,
        f: &mut dyn FnMut(usize, bool),
    ) {
        if k == 0 {
            unit.for_each_point(|_, idx| f(idx, true));
            return;
        }
        let mut kernel = self.kernel.take();
        // The depth counters saturate at `u8::MAX`: larger `k` run exact.
        let depth = u8::try_from(k).ok().filter(|&k8| {
            kernel
                .as_mut()
                .is_some_and(|kern| unit.screen(kern, ScreenMode::Depth { k: k8 }))
        });
        // Only a kernel that screened this unit holds its verdicts.
        let screen = kernel.as_ref().filter(|_| depth.is_some());
        let half_width = self.theta.radians();
        unit.for_each_point(|local, idx| {
            let verdict = match (screen, depth) {
                (Some(kern), Some(k8)) => kern.k_verdict(local, k8),
                _ => None,
            };
            let met = match verdict {
                Some(met) => {
                    self.stats.screened += 1;
                    met
                }
                None => {
                    self.stats.exact += u64::from(screen.is_some());
                    match screen.and_then(|kern| kern.directions(local)) {
                        // Gathered: no colocated camera.
                        Some(dirs) => min_arc_depth_with(dirs, half_width, &mut self.events) >= k,
                        None => {
                            self.stats.rescanned += u64::from(screen.is_some());
                            let view = self.analyzer.analyze_point_with(unit, unit.point(idx));
                            view.view_multiplicity_with(self.theta, &mut self.events) >= k
                        }
                    }
                }
            };
            f(idx, met);
        });
        self.kernel = kernel;
    }

    /// Evaluates every predicate over the grid points of the tiles with
    /// ids in `tiles`, in any order and not necessarily contiguous,
    /// pinning each tile's candidate cameras once through `cursor` — the
    /// batch path of the tile engine.
    ///
    /// Reports over disjoint tile sets merge to exactly the full-grid
    /// report (tiles partition the grid).
    ///
    /// # Panics
    ///
    /// Panics if an id is at or past `tiling.tile_count()` or if the
    /// tiling does not match `grid`.
    #[must_use]
    pub fn evaluate_tiles(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        tiles: impl IntoIterator<Item = usize>,
    ) -> GridCoverageReport {
        assert_eq!(
            tiling.grid_len(),
            grid.len(),
            "tiling does not match the grid"
        );
        let mut report = GridCoverageReport::default();
        walk_tiles(cursor, tiling, grid, tiles, 0, grid.len(), |_, unit| {
            self.unit_flags(unit, &mut |_idx, flags| report.record(&flags));
        });
        report
    }

    /// Evaluates the whole grid through the dense-grid walk: tiles when
    /// they pay off ([`use_tiled`](crate::use_tiled)), the per-point unit
    /// otherwise. Both produce bit-identical reports.
    #[must_use]
    pub fn evaluate_grid(&mut self, net: &CameraNetwork, grid: &UnitGrid) -> GridCoverageReport {
        let mut report = GridCoverageReport::default();
        walk(net, grid, 0, grid.len(), |unit| {
            self.unit_flags(unit, &mut |_idx, flags| report.record(&flags));
        });
        report
    }
}

/// Sweeps `grid`, evaluating every coverage predicate at each point
/// (tile-coherent traversal when profitable; see
/// [`GridEvaluator::evaluate_grid`]).
///
/// The sector conditions use `start_line` for their constructions
/// (the paper's dashed radius; [`Angle::ZERO`] is the conventional
/// choice).
#[must_use]
pub fn evaluate_grid(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    grid: &UnitGrid,
    start_line: Angle,
) -> GridCoverageReport {
    GridEvaluator::new(theta, start_line).evaluate_grid(net, grid)
}

/// Convenience wrapper: evaluates the paper's dense grid
/// (`m = ⌈n ln n⌉` with `n = net.len()`) over the network's torus.
#[must_use]
pub fn evaluate_dense_grid(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    start_line: Angle,
) -> GridCoverageReport {
    let grid = dense_grid(*net.torus(), net.len());
    evaluate_grid(net, theta, &grid, start_line)
}

/// [`evaluate_grid`] with up to `threads` workers (`0` = one per CPU; at
/// most one per CPU, see [`worker_count`](crate::worker_count)).
///
/// When tiles pay off ([`use_tiled`]) the workers claim tiles through
/// [`claim_units`], each evaluating its claims with its own
/// [`GridEvaluator`] and cursor through
/// [`evaluate_tiles`](GridEvaluator::evaluate_tiles); one worker runs on
/// the calling thread. Otherwise the grid is small — the index has at
/// most 256 cells per axis, so such a grid holds at most 65,536 points —
/// and the serial walk answers it. Every report field is an integer sum
/// over disjoint points, so the workers' reports add up to a report
/// bit-identical to [`evaluate_grid`] for every thread count.
///
/// # Panics
///
/// Propagates a panic from a worker.
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
    let parts = claim_units(tiling.tile_count(), threads, |tiles| {
        let mut evaluator = GridEvaluator::new(theta, start_line);
        evaluator.evaluate_tiles(&mut net.tile_cursor(), &tiling, grid, tiles)
    });
    let mut report = GridCoverageReport::default();
    for part in &parts {
        report += part;
    }
    report
}

/// [`evaluate_dense_grid`] with up to `threads` workers (`0` = one per
/// CPU), through [`evaluate_grid_parallel`].
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
    use fullview_geom::Point;
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    #[test]
    fn dense_grid_size_formula() {
        assert_eq!(dense_grid_point_count(0), 4);
        assert_eq!(dense_grid_point_count(1), 4);
        let m = dense_grid_point_count(1000);
        let expect = (1000.0 * 1000f64.ln()).ceil() as usize;
        assert_eq!(m, expect);
        let grid = dense_grid(Torus::unit(), 1000);
        assert!(grid.len() >= m);
    }

    #[test]
    fn empty_network_report_is_all_zero() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let grid = UnitGrid::new(Torus::unit(), 5);
        let r = evaluate_grid(&net, theta(PI / 4.0), &grid, Angle::ZERO);
        assert_eq!(r.total_points, 25);
        assert_eq!(r.covered, 0);
        assert_eq!(r.full_view, 0);
        assert!(!r.all_full_view());
        assert_eq!(r.covered_fraction(), 0.0);
    }

    #[test]
    fn report_invariant_chain() {
        // sufficient ≤ full_view ≤ necessary ≤ k_covered ≤ covered·(k≥1).
        // Build a medium-density deterministic network.
        let torus = Torus::unit();
        let spec = SensorSpec::new(0.22, PI).unwrap();
        let mut cams = Vec::new();
        for i in 0..150 {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = Angle::new((i as f64 * 2.399_963) % (2.0 * PI));
            cams.push(Camera::new(Point::new(x, y), facing, spec, GroupId(0)));
        }
        let net = CameraNetwork::new(torus, cams);
        let grid = UnitGrid::new(torus, 20);
        let r = evaluate_grid(&net, theta(PI / 3.0), &grid, Angle::ZERO);
        assert!(r.sufficient <= r.full_view, "{r}");
        assert!(r.full_view <= r.necessary, "{r}");
        assert!(r.necessary <= r.k_covered, "{r}");
        assert!(r.k_covered <= r.covered, "{r}");
        // Sanity: such a dense network covers most of the grid.
        assert!(r.covered_fraction() > 0.9, "{r}");
    }

    #[test]
    fn saturated_network_everything_full_view() {
        // Blanket the square with omnidirectional-ish rings of cameras so
        // every grid point is sufficiently surrounded.
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
        let grid = UnitGrid::new(torus, 10);
        let th = theta(PI / 4.0);
        let r = evaluate_grid(&net, th, &grid, Angle::ZERO);
        assert!(r.all_full_view(), "{r}");
        assert!(r.all_necessary(), "{r}");
        assert!(r.all_sufficient(), "{r}");
        assert_eq!(r.full_view_fraction(), 1.0);
    }

    #[test]
    fn theta_pi_full_view_equals_coverage() {
        // §VII-A degeneration on a whole grid: at θ = π the full-view count
        // must equal the 1-coverage count.
        let torus = Torus::unit();
        let spec = SensorSpec::new(0.15, PI / 2.0).unwrap();
        let mut cams = Vec::new();
        for i in 0..60 {
            let x = (i as f64 * 0.754_877) % 1.0;
            let y = (i as f64 * 0.569_840) % 1.0;
            cams.push(Camera::new(
                Point::new(x, y),
                Angle::new((i as f64 * 1.234_567) % (2.0 * PI)),
                spec,
                GroupId(0),
            ));
        }
        let net = CameraNetwork::new(torus, cams);
        let grid = UnitGrid::new(torus, 15);
        let r = evaluate_grid(&net, theta(PI), &grid, Angle::ZERO);
        assert_eq!(r.full_view, r.covered, "{r}");
        assert_eq!(r.necessary, r.covered, "{r}");
        assert_eq!(r.k_covered, r.covered, "{r}");
    }

    #[test]
    fn empty_report_is_vacuously_true_and_merge_identity() {
        // Zero points: the boolean and fractional views must agree that
        // every universal predicate holds vacuously.
        let empty = GridCoverageReport::default();
        assert_eq!(empty.total_points, 0);
        assert!(empty.all_full_view());
        assert!(empty.all_necessary());
        assert!(empty.all_sufficient());
        assert_eq!(empty.full_view_fraction(), 1.0);
        assert_eq!(empty.covered_fraction(), 1.0);
        assert_eq!(empty.sufficient_fraction(), 1.0);
        // And the empty report is the merge identity.
        let r = GridCoverageReport {
            total_points: 10,
            covered: 9,
            k_covered: 7,
            necessary: 6,
            full_view: 5,
            sufficient: 4,
        };
        let mut merged = empty.clone();
        merged.merge(&r);
        assert_eq!(merged, r);
        let mut other_way = r.clone();
        other_way += &empty;
        assert_eq!(other_way, r);
    }

    #[test]
    fn tiled_evaluation_is_bit_identical_to_per_point() {
        let torus = Torus::unit();
        let mut cams = Vec::new();
        for i in 0..120 {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            // Heterogeneous mix: per-camera radii exercise the cursor's
            // tighter prefilter.
            let spec = SensorSpec::new(
                0.05 + 0.07 * ((i % 4) as f64 / 4.0),
                PI / (1 + i % 3) as f64,
            )
            .unwrap();
            cams.push(Camera::new(
                Point::new(x, y),
                Angle::new((i as f64 * 2.399_963) % (2.0 * PI)),
                spec,
                GroupId(i % 4),
            ));
        }
        let net = CameraNetwork::new(torus, cams);
        let th = theta(PI / 3.0);
        for side in [1usize, 9, 24] {
            let grid = UnitGrid::new(torus, side);
            // The reference: every point analysed through the whole network.
            let mut exact = GridEvaluator::new_exact(th, Angle::ZERO);
            let mut per_point = GridCoverageReport::default();
            for idx in 0..grid.len() {
                per_point.record(&exact.point_flags_with(&net, grid.point(idx)));
            }
            let tiling = GridTiling::new(net.index(), &grid);
            let mut cursor = net.tile_cursor();
            let mut ev = GridEvaluator::new(th, Angle::ZERO);
            let whole = ev.evaluate_tiles(&mut cursor, &tiling, &grid, 0..tiling.tile_count());
            assert_eq!(whole, per_point, "side={side}");
            // Chunked tile ranges merge to the same report.
            for chunk in [1usize, 5, 37] {
                let mut merged = GridCoverageReport::default();
                let mut lo = 0;
                while lo < tiling.tile_count() {
                    let hi = (lo + chunk).min(tiling.tile_count());
                    merged += ev.evaluate_tiles(&mut cursor, &tiling, &grid, lo..hi);
                    lo = hi;
                }
                assert_eq!(merged, per_point, "side={side} chunk={chunk}");
            }
            // So do non-contiguous tile sets: the odd ids, then the even
            // ids, then every id in reverse.
            let ids = 0..tiling.tile_count();
            let mut odd_even =
                ev.evaluate_tiles(&mut cursor, &tiling, &grid, ids.clone().skip(1).step_by(2));
            odd_even += ev.evaluate_tiles(&mut cursor, &tiling, &grid, ids.clone().step_by(2));
            assert_eq!(odd_even, per_point, "side={side} odd then even");
            let reversed = ev.evaluate_tiles(&mut cursor, &tiling, &grid, ids.rev());
            assert_eq!(reversed, per_point, "side={side} reversed");
            // And the auto path agrees too.
            let auto = GridEvaluator::new(th, Angle::ZERO).evaluate_grid(&net, &grid);
            assert_eq!(auto, per_point, "side={side} auto");
        }
    }

    #[test]
    fn split_tile_range_sends_no_outside_point_to_the_exact_analyzer() {
        // Sparse directional cameras: most covered points fall through
        // the screen to the exact analyzer.
        let cams = (0..60)
            .map(|i| {
                let x = (i as f64 * 0.618_033_98) % 1.0;
                let y = (i as f64 * 0.414_213_56) % 1.0;
                let spec = SensorSpec::new(0.2, PI / 2.0).unwrap();
                Camera::new(Point::new(x, y), Angle::new(i as f64), spec, GroupId(0))
            })
            .collect();
        let net = CameraNetwork::new(Torus::unit(), cams);
        let grid = UnitGrid::new(Torus::unit(), 40);
        let tiling = GridTiling::new(net.index(), &grid);
        let t = (0..tiling.tile_count())
            .max_by_key(|&t| tiling.tile_point_count(t))
            .unwrap();
        let (min_idx, max_idx) = tiling.tile_index_span(t).unwrap();
        // Start inside the tile's second row: the range splits the tile.
        let (lo, hi) = (min_idx + grid.side_count() + 1, max_idx + 1);
        let mut in_range = 0;
        tiling.for_each_point_in_tile(t, |idx| in_range += usize::from(idx >= lo && idx < hi));
        assert!(in_range > 0 && in_range < tiling.tile_point_count(t));

        let mut ev = GridEvaluator::new(theta(PI / 4.0), Angle::ZERO);
        let mut cursor = net.tile_cursor();
        let mut emitted = 0;
        walk_tiles(&mut cursor, &tiling, &grid, [t], lo, hi, |_, unit| {
            ev.unit_flags(unit, &mut |idx, _| {
                assert!(idx >= lo && idx < hi, "out-of-range index {idx} emitted");
                emitted += 1;
            });
        });
        let stats = ev.screen_stats();
        assert_eq!(emitted, in_range);
        assert!(stats.exact > 0, "the screen decided every point: {stats:?}");
        assert_eq!(
            (stats.screened + stats.exact) as usize,
            in_range,
            "only in-range points may be decided: {stats:?}"
        );
    }

    #[test]
    fn rect_funnels_emit_exactly_the_in_range_points_of_a_sub_rectangle() {
        // Sparse directional cameras: a mix of screened and exact points.
        let cams = (0..60)
            .map(|i| {
                let x = (i as f64 * 0.618_033_98) % 1.0;
                let y = (i as f64 * 0.414_213_56) % 1.0;
                let spec = SensorSpec::new(0.2, PI / 2.0).unwrap();
                Camera::new(Point::new(x, y), Angle::new(i as f64), spec, GroupId(0))
            })
            .collect();
        let net = CameraNetwork::new(Torus::unit(), cams);
        let grid = UnitGrid::new(Torus::unit(), 60);
        let side = grid.side_count();
        let tiling = GridTiling::new(net.index(), &grid);
        let t = (0..tiling.tile_count())
            .max_by_key(|&t| tiling.tile_point_count(t))
            .unwrap();
        let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
        // A sub-rectangle strictly inside the tile, cut by the range.
        let sub_cols = cols.start + 1..cols.end - 2;
        let sub_rows = rows.start + 2..rows.end - 1;
        let lo = (sub_rows.start + 1) * side + sub_cols.start + 3;
        let hi = (sub_rows.end - 2) * side + sub_cols.start + 1;
        let in_range: Vec<usize> = sub_rows
            .clone()
            .flat_map(|r| sub_cols.clone().map(move |c| r * side + c))
            .filter(|&idx| idx >= lo && idx < hi)
            .collect();
        let mut cursor = net.tile_cursor();
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);

        let th = theta(PI / 4.0);
        let mut ev = GridEvaluator::new(th, Angle::ZERO);
        let mut exact = GridEvaluator::new_exact(th, Angle::ZERO);
        let mut emitted = Vec::new();
        ev.for_each_point_flags_in_rect(
            &cursor,
            &grid,
            sub_cols.clone(),
            sub_rows.clone(),
            lo,
            hi,
            &mut |idx, flags| {
                assert_eq!(
                    flags,
                    exact.point_flags_with(&net, grid.point(idx)),
                    "idx {idx}"
                );
                emitted.push(idx);
            },
        );
        assert_eq!(
            emitted, in_range,
            "rows outer, columns inner, in range only"
        );
        for k in 1..4 {
            let want = in_range
                .iter()
                .filter(|&&idx| crate::view_multiplicity(&net, grid.point(idx), th) >= k)
                .count();
            let mut got = 0;
            ev.for_each_point_k_in_rect(
                &cursor,
                &grid,
                sub_cols.clone(),
                sub_rows.clone(),
                lo,
                hi,
                k,
                &mut |_, met| got += usize::from(met),
            );
            assert_eq!(got, want, "k={k}");
        }
        let stats = ev.screen_stats();
        assert!(stats.screened > 0 && stats.exact > 0, "{stats:?}");
        assert_eq!(
            (stats.screened + stats.exact) as usize,
            4 * in_range.len(),
            "only in-range points may be decided: {stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds tile count")]
    fn evaluate_tiles_rejects_out_of_bounds() {
        let net = CameraNetwork::new(
            Torus::unit(),
            vec![Camera::new(
                Point::new(0.5, 0.5),
                Angle::ZERO,
                SensorSpec::new(0.2, PI).unwrap(),
                GroupId(0),
            )],
        );
        let grid = UnitGrid::new(Torus::unit(), 3);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let _ = GridEvaluator::new(theta(PI / 2.0), Angle::ZERO).evaluate_tiles(
            &mut cursor,
            &tiling,
            &grid,
            0..tiling.tile_count() + 1,
        );
    }

    #[test]
    fn display_is_informative() {
        let r = GridCoverageReport {
            total_points: 100,
            covered: 90,
            k_covered: 70,
            necessary: 60,
            full_view: 50,
            sufficient: 40,
        };
        let s = r.to_string();
        assert!(s.contains("0.9") && s.contains("0.5"));
    }
}
