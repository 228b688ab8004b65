//! Spatial coverage-hole analysis.
//!
//! §VI-C explains failures of full-view coverage through "hole
//! directions"; operators care about the *spatial* holes those create:
//! connected regions of the area where an object can face somewhere
//! unwatched. This module discretizes the region, marks full-view
//! covered cells, and reports the connected components of the remainder
//! (4-connected, with torus wrap on both axes).

use crate::densegrid::FULL_VIEW_BIT;
use crate::engine::sweep_flags_range;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::CameraNetwork;
use std::collections::VecDeque;
use std::fmt;

/// One connected hole: a maximal 4-connected set of grid cells whose
/// centres are not full-view covered.
#[derive(Debug, Clone, PartialEq)]
pub struct Hole {
    /// Number of grid cells in the hole.
    pub cells: usize,
    /// Area estimate (cells × cell area).
    pub area: f64,
    /// Centroid of the hole's cells (computed in the torus' fundamental
    /// domain; for holes wrapping the seam this is the arithmetic
    /// centroid of representatives, adequate for reporting).
    pub centroid: Point,
}

/// Summary of the spatial holes of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct HoleReport {
    /// Grid side used for the analysis.
    pub grid_side: usize,
    /// All holes, largest first.
    pub holes: Vec<Hole>,
    /// Fraction of cells that are full-view covered.
    pub covered_fraction: f64,
}

impl HoleReport {
    /// Number of distinct holes.
    #[must_use]
    pub fn hole_count(&self) -> usize {
        self.holes.len()
    }

    /// The largest hole, if any.
    #[must_use]
    pub fn largest(&self) -> Option<&Hole> {
        self.holes.first()
    }

    /// Total uncovered area estimate.
    #[must_use]
    pub fn total_hole_area(&self) -> f64 {
        self.holes.iter().map(|h| h.area).sum()
    }
}

impl fmt::Display for HoleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "holes[{}×{}]: {} holes, covered {:.4}, largest {}",
            self.grid_side,
            self.grid_side,
            self.hole_count(),
            self.covered_fraction,
            self.largest().map_or(0, |h| h.cells)
        )
    }
}

/// The full-view coverage mask of the row-major grid index range
/// `lo..hi` on a `grid_side × grid_side` discretization — the scatter
/// unit of the cluster layer's `holes` query. Concatenating range masks
/// over a partition of `0..grid_side²` yields the exact mask
/// [`find_holes`] computes, so [`holes_from_mask`] over the gathered
/// mask reproduces the single-process report bit for bit.
///
/// # Panics
///
/// Panics if `grid_side == 0`, `lo > hi`, or `hi > grid_side²`.
#[must_use]
pub fn full_view_mask_range(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    grid_side: usize,
    lo: usize,
    hi: usize,
) -> Vec<bool> {
    assert!(grid_side > 0, "grid side must be positive");
    let grid = UnitGrid::new(*net.torus(), grid_side);
    full_view_mask_range_with(lo, hi, |emit| {
        sweep_flags_range(net, &grid, theta, Angle::ZERO, lo, hi, emit);
    })
}

/// [`full_view_mask_range`] with the flags sweep supplied by the caller:
/// `sweep` must call its callback exactly once per index of `lo..hi` (any
/// order) with that point's flags. The mask layout is shared with
/// [`full_view_mask_range`], so any sweep whose flags are bit-identical
/// to [`sweep_flags_range`] (e.g. the hierarchical prover) produces the
/// identical mask.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn full_view_mask_range_with<F>(lo: usize, hi: usize, sweep: F) -> Vec<bool>
where
    F: FnOnce(&mut dyn FnMut(usize, crate::densegrid::PointFlags)),
{
    assert!(lo <= hi, "inverted range {lo}..{hi}");
    let mut covered = vec![false; hi - lo];
    sweep(&mut |idx, flags| {
        covered[idx - lo] = flags.full_view;
    });
    covered
}

/// A row-major full-view coverage mask, one cell per grid point — what
/// [`holes_from_mask`] and [`barrier_from_mask`](crate::barrier_from_mask)
/// read. Implemented for bool buffers (`&[bool]`, `&Vec<bool>`, arrays)
/// and for a warm state's [`FullViewMask`], so the daemon reads its
/// repaired flag bytes without copying them into a mask.
pub trait CoverageMask {
    /// Number of cells.
    fn cell_count(&self) -> usize;
    /// Whether cell `idx` is full-view covered.
    fn is_covered(&self, idx: usize) -> bool;
}

impl<T: AsRef<[bool]>> CoverageMask for T {
    fn cell_count(&self) -> usize {
        self.as_ref().len()
    }

    fn is_covered(&self, idx: usize) -> bool {
        self.as_ref()[idx]
    }
}

/// The full-view mask of a warm [`IncrementalSweep`](crate::IncrementalSweep),
/// read from the full-view bit of its per-point flag bytes
/// ([`PointFlags::to_byte`](crate::PointFlags::to_byte)). Two masks are
/// equal when their full-view bits are.
#[derive(Debug, Clone, Copy)]
pub struct FullViewMask<'a> {
    bytes: &'a [u8],
}

impl<'a> FullViewMask<'a> {
    /// The mask of `bytes`, one [`PointFlags`] byte per grid point.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        FullViewMask { bytes }
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the mask has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether grid point `idx` is full-view covered.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        self.bytes[idx] & FULL_VIEW_BIT != 0
    }

    /// The full-view verdicts in row-major grid order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        self.bytes.iter().map(|&b| b & FULL_VIEW_BIT != 0)
    }
}

impl PartialEq for FullViewMask<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for FullViewMask<'_> {}

impl CoverageMask for FullViewMask<'_> {
    fn cell_count(&self) -> usize {
        self.len()
    }

    fn is_covered(&self, idx: usize) -> bool {
        self.get(idx)
    }
}

/// Finds the connected holes of a precomputed full-view coverage mask
/// (row-major, cell `j * grid_side + i` for column `i`, row `j`) — the
/// gather half of [`find_holes`], split out so a cluster coordinator can
/// run it on a mask assembled from per-shard [`full_view_mask_range`]
/// results and a daemon on the mask of a warm sweep.
///
/// # Panics
///
/// Panics if `grid_side == 0` or the mask does not hold `grid_side²`
/// cells.
#[must_use]
pub fn holes_from_mask(torus: Torus, grid_side: usize, covered: impl CoverageMask) -> HoleReport {
    assert!(grid_side > 0, "grid side must be positive");
    let len = covered.cell_count();
    assert_eq!(
        len,
        grid_side * grid_side,
        "mask must hold grid_side² cells"
    );
    let grid = UnitGrid::new(torus, grid_side);
    let k = grid_side;
    let covered_count = (0..len).filter(|&idx| covered.is_covered(idx)).count();

    let cell_area = torus.area() / (k * k) as f64;
    let mut visited = vec![false; len];
    let mut holes: Vec<Hole> = Vec::new();
    for start in 0..len {
        if covered.is_covered(start) || visited[start] {
            continue;
        }
        // BFS this hole.
        let mut cells = 0usize;
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut queue = VecDeque::from([start]);
        visited[start] = true;
        while let Some(idx) = queue.pop_front() {
            cells += 1;
            let p = grid.point(idx);
            sum_x += p.x;
            sum_y += p.y;
            let (i, j) = (idx % k, idx / k);
            for (ni, nj) in [
                ((i + 1) % k, j),
                ((i + k - 1) % k, j),
                (i, (j + 1) % k),
                (i, (j + k - 1) % k),
            ] {
                let nidx = nj * k + ni;
                if !covered.is_covered(nidx) && !visited[nidx] {
                    visited[nidx] = true;
                    queue.push_back(nidx);
                }
            }
        }
        holes.push(Hole {
            cells,
            area: cells as f64 * cell_area,
            centroid: Point::new(sum_x / cells as f64, sum_y / cells as f64),
        });
    }
    holes.sort_by_key(|h| std::cmp::Reverse(h.cells));
    HoleReport {
        grid_side,
        holes,
        covered_fraction: covered_count as f64 / len as f64,
    }
}

/// Finds the full-view coverage holes of `net` on a `grid_side ×
/// grid_side` discretization.
///
/// # Panics
///
/// Panics if `grid_side == 0`.
#[must_use]
pub fn find_holes(net: &CameraNetwork, theta: EffectiveAngle, grid_side: usize) -> HoleReport {
    let mask = full_view_mask_range(net, theta, grid_side, 0, grid_side * grid_side);
    holes_from_mask(*net.torus(), grid_side, &mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::{Angle, Torus};
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    /// Rings of omni cameras full-view covering neighbourhoods of their
    /// anchors only.
    fn spotty_network(anchors: &[(f64, f64)]) -> CameraNetwork {
        let torus = Torus::unit();
        let spec = SensorSpec::new(0.12, 2.0 * PI).unwrap();
        let mut cams = Vec::new();
        for &(x, y) in anchors {
            for k in 0..6 {
                let dir = Angle::new(k as f64 * PI / 3.0);
                let pos = torus.offset(Point::new(x, y), dir, 0.04);
                cams.push(Camera::new(pos, dir.opposite(), spec, GroupId(0)));
            }
        }
        CameraNetwork::new(torus, cams)
    }

    #[test]
    fn empty_network_single_full_hole() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let r = find_holes(&net, theta(PI / 2.0), 10);
        assert_eq!(r.hole_count(), 1);
        assert_eq!(r.largest().unwrap().cells, 100);
        assert_eq!(r.covered_fraction, 0.0);
        assert!((r.total_hole_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spotty_coverage_leaves_holes() {
        let net = spotty_network(&[(0.25, 0.25), (0.75, 0.75)]);
        let r = find_holes(&net, theta(PI / 2.0), 20);
        assert!(r.covered_fraction > 0.0 && r.covered_fraction < 1.0, "{r}");
        assert!(r.hole_count() >= 1);
        // Cells and area are consistent.
        let total_cells: usize = r.holes.iter().map(|h| h.cells).sum();
        assert_eq!(
            total_cells,
            (400.0 * (1.0 - r.covered_fraction)).round() as usize
        );
    }

    #[test]
    fn holes_sorted_descending() {
        let net = spotty_network(&[(0.2, 0.2)]);
        let r = find_holes(&net, theta(PI / 2.0), 16);
        for w in r.holes.windows(2) {
            assert!(w[0].cells >= w[1].cells);
        }
    }

    #[test]
    fn dense_network_no_holes() {
        let anchors: Vec<(f64, f64)> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i as f64 / 6.0 + 0.08, j as f64 / 6.0 + 0.08)))
            .collect();
        let net = spotty_network(&anchors);
        let r = find_holes(&net, theta(PI / 2.0), 12);
        assert_eq!(r.hole_count(), 0, "{r}");
        assert_eq!(r.covered_fraction, 1.0);
        assert!(r.largest().is_none());
    }

    #[test]
    fn wrapping_hole_is_one_component() {
        // Cover only a central vertical band; the hole wraps through the
        // x-seam and must count once.
        let anchors: Vec<(f64, f64)> = (0..8).map(|j| (0.5, j as f64 / 8.0)).collect();
        let net = spotty_network(&anchors);
        let r = find_holes(&net, theta(PI / 2.0), 16);
        assert_eq!(r.hole_count(), 1, "{r}");
    }

    #[test]
    fn centroid_inside_domain() {
        let net = spotty_network(&[(0.5, 0.5)]);
        let r = find_holes(&net, theta(PI / 2.0), 14);
        for h in &r.holes {
            assert!(Torus::unit().contains(h.centroid), "{:?}", h.centroid);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_grid_panics() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let _ = find_holes(&net, theta(PI / 2.0), 0);
    }

    #[test]
    fn mask_ranges_reassemble_the_find_holes_report() {
        let net = spotty_network(&[(0.25, 0.25), (0.7, 0.6)]);
        let th = theta(PI / 2.0);
        let side = 18;
        let total = side * side;
        let direct = find_holes(&net, th, side);
        for cuts in [
            vec![0, total],
            vec![0, 161, total],
            vec![0, 1, 200, 201, total],
        ] {
            let mask: Vec<bool> = cuts
                .windows(2)
                .flat_map(|w| full_view_mask_range(&net, th, side, w[0], w[1]))
                .collect();
            let report = holes_from_mask(*net.torus(), side, &mask);
            assert_eq!(report, direct, "partition {cuts:?} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "grid_side² cells")]
    fn wrong_mask_length_panics() {
        let _ = holes_from_mask(Torus::unit(), 4, [false; 15]);
    }
}
