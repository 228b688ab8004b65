//! Torus-aware spatial hashing for neighbourhood queries.
//!
//! Area-coverage evaluation sweeps a dense grid of `m = n log n` points and,
//! for each point, needs the cameras within sensing range. A uniform
//! bucket grid over the torus turns that from `O(m·n)` into `O(m·local)`;
//! the `grid_coverage` bench quantifies the win.

use crate::point::Point;
use crate::torus::Torus;

/// A uniform bucket grid over a torus, indexing a fixed set of points
/// (typically camera locations) for radius queries.
///
/// # Examples
///
/// ```
/// use fullview_geom::{Point, SpatialGrid, Torus};
///
/// let t = Torus::unit();
/// let pts = vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9), Point::new(0.5, 0.5)];
/// let idx = SpatialGrid::build(t, &pts, 0.25);
/// // Query wraps through the torus seam: (0.95, 0.95) is near both corners.
/// let mut hits = idx.query_within(Point::new(0.95, 0.95), 0.25);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    torus: Torus,
    /// Number of cells per axis.
    cells: usize,
    /// Cell side length (`torus.side() / cells`).
    cell_len: f64,
    /// `cells × cells` buckets of point indices, row-major.
    buckets: Vec<Vec<u32>>,
    /// The indexed points (owned copy, used for the exact distance filter).
    points: Vec<Point>,
}

impl SpatialGrid {
    /// Builds an index over `points` with bucket size at least
    /// `min_cell_len` (typically the largest sensing radius, so that a
    /// radius query only needs the 3×3 neighbourhood).
    ///
    /// Points are wrapped into the torus fundamental domain before
    /// bucketing.
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_len` is not finite and strictly positive, or if
    /// more than `u32::MAX` points are indexed.
    #[must_use]
    pub fn build(torus: Torus, points: &[Point], min_cell_len: f64) -> Self {
        assert!(
            min_cell_len.is_finite() && min_cell_len > 0.0,
            "cell length must be finite and positive, got {min_cell_len}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "spatial grid supports at most u32::MAX points"
        );
        let cells = ((torus.side() / min_cell_len).floor() as usize).max(1);
        let cell_len = torus.side() / cells as f64;
        let mut buckets = vec![Vec::new(); cells * cells];
        let wrapped: Vec<Point> = points.iter().map(|&p| torus.wrap(p)).collect();
        for (i, p) in wrapped.iter().enumerate() {
            let (cx, cy) = bucket_of(p, cell_len, cells);
            buckets[cy * cells + cx].push(i as u32);
        }
        SpatialGrid {
            torus,
            cells,
            cell_len,
            buckets,
            points: wrapped,
        }
    }

    /// Re-indexes the grid over a new point set, keeping the torus and
    /// cell geometry and reusing every bucket allocation. Each bucket
    /// lists its points in ascending index order.
    ///
    /// This is the structural rebuild hook behind in-place camera
    /// failures, which shift every later index: the cell size was chosen
    /// for the *largest* sensing radius, and cells larger than needed
    /// preserve the 3×3-neighbourhood query property, so removing points
    /// never requires re-sizing the grid. A single moved point does not
    /// need a rebuild: [`move_point`](Self::move_point) re-buckets it in
    /// place and leaves the same buckets.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` points are indexed.
    pub fn rebuild(&mut self, points: &[Point]) {
        assert!(
            points.len() <= u32::MAX as usize,
            "spatial grid supports at most u32::MAX points"
        );
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        let torus = self.torus;
        self.points.clear();
        self.points.extend(points.iter().map(|&p| torus.wrap(p)));
        for (i, p) in self.points.iter().enumerate() {
            let (cx, cy) = bucket_of(p, self.cell_len, self.cells);
            self.buckets[cy * self.cells + cx].push(i as u32);
        }
    }

    /// Moves point `i` to `to` (wrapped into the fundamental domain) in
    /// place, without touching any other point: a move within its bucket
    /// only rewrites the stored point, and a move across buckets takes
    /// the index out of one ascending bucket and inserts it into another
    /// at its sorted position. The index is left exactly as
    /// [`rebuild`](Self::rebuild) over the new positions would leave it,
    /// so every candidate list keeps its order. Allocation-free unless
    /// the destination bucket must grow.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn move_point(&mut self, i: usize, to: Point) {
        let to = self.torus.wrap(to);
        let (ox, oy) = bucket_of(&self.points[i], self.cell_len, self.cells);
        let (nx, ny) = bucket_of(&to, self.cell_len, self.cells);
        self.points[i] = to;
        if (ox, oy) == (nx, ny) {
            return;
        }
        let id = i as u32;
        let from = &mut self.buckets[oy * self.cells + ox];
        let at = from
            .binary_search(&id)
            .expect("an indexed point is listed in its bucket");
        from.remove(at);
        let into = &mut self.buckets[ny * self.cells + nx];
        let at = into.binary_search(&id).unwrap_or_else(|at| at);
        into.insert(at, id);
    }

    /// Number of indexed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The torus this index lives on.
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Number of cells per axis.
    #[must_use]
    pub fn cells_per_axis(&self) -> usize {
        self.cells
    }

    /// Indices of all points within torus distance `radius` of `center`
    /// (inclusive).
    ///
    /// **Deprecation note:** this convenience helper allocates a fresh
    /// `Vec` per call and is kept for tests and one-shot queries only.
    /// Hot loops should use [`for_each_within`](Self::for_each_within)
    /// (the allocation-free per-point path) or
    /// [`tile_candidates`](Self::tile_candidates), which amortises the
    /// bucket walk across every query point sharing a cell.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    #[must_use]
    pub fn query_within(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |i| out.push(i));
        out
    }

    /// Calls `f` with the index of every point within torus distance
    /// `radius` of `center` (inclusive). Allocation-free variant of
    /// [`query_within`](Self::query_within) for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        let (center, bounds) = self.query_bounds(center, radius);
        let r2 = radius * radius;
        if bounds.full_scan {
            for (i, p) in self.points.iter().enumerate() {
                if self.torus.distance_squared(center, *p) <= r2 {
                    f(i);
                }
            }
            return;
        }
        self.for_each_window_bucket(&bounds, |bucket| {
            for &i in bucket {
                let p = self.points[i as usize];
                if self.torus.distance_squared(center, p) <= r2 {
                    f(i as usize);
                }
            }
        });
    }

    /// Computes the cell neighbourhood a radius query must visit.
    ///
    /// The per-axis offset ranges are derived from the centre's position
    /// *inside* its cell, so a query with `radius ≤ cell_len` visits at
    /// most 3 (and typically 2) cells per axis instead of a symmetric
    /// worst-case window: a cell `dx` to the left can only matter when its
    /// right edge is within `radius` of the centre, i.e.
    /// `dx ≥ ⌈(fx − radius)/cell_len⌉ − 1` for in-cell offset `fx`, and
    /// symmetrically `dx ≤ ⌊(fx + radius)/cell_len⌋` on the right.
    fn query_bounds(&self, center: Point, radius: f64) -> (Point, QueryBounds) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be finite and non-negative, got {radius}"
        );
        let center = self.torus.wrap(center);
        let (cx, cy) = bucket_of(&center, self.cell_len, self.cells);
        let fx = center.x - cx as f64 * self.cell_len;
        let fy = center.y - cy as f64 * self.cell_len;
        let (dx_lo, dx_hi) = axis_span(fx, radius, self.cell_len);
        let (dy_lo, dy_hi) = axis_span(fy, radius, self.cell_len);
        // If either axis span wraps past the whole grid, scan every bucket
        // once instead of double-visiting wrapped cells.
        let span = (dx_hi - dx_lo + 1).max(dy_hi - dy_lo + 1);
        (
            center,
            QueryBounds {
                full_scan: span >= self.cells as isize,
                cx,
                cy,
                dx_lo,
                dx_hi,
                dy_lo,
                dy_hi,
            },
        )
    }

    /// The cell window a *tile* query must visit: the union, over every
    /// possible query point inside cell `(cx, cy)`, of that point's
    /// per-point window at the given `radius`.
    ///
    /// Per axis the union is attained at the cell edges: the left bound is
    /// a point at in-cell offset `0` ([`axis_span`] is monotone in the
    /// offset) and the right bound at offset `cell_len` (an upper bound on
    /// the supremum over the half-open cell). A superset window is safe —
    /// the exact distance filter removes false candidates — and for
    /// `radius < cell_len` it is at most the 3×3 neighbourhood (one cell
    /// wider than a single point's window can need, one narrower than a
    /// naive symmetric ±⌈r/len⌉ window at small radii).
    fn cell_window(&self, cx: usize, cy: usize, radius: f64) -> QueryBounds {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be finite and non-negative, got {radius}"
        );
        assert!(
            cx < self.cells && cy < self.cells,
            "cell ({cx}, {cy}) out of range for {0}×{0} grid",
            self.cells
        );
        let (lo, _) = axis_span(0.0, radius, self.cell_len);
        let (_, hi) = axis_span(self.cell_len, radius, self.cell_len);
        // Cells are square, so the x and y spans coincide.
        let span = hi - lo + 1;
        QueryBounds {
            full_scan: span >= self.cells as isize,
            cx,
            cy,
            dx_lo: lo,
            dx_hi: hi,
            dy_lo: lo,
            dy_hi: hi,
        }
    }

    /// Walks every bucket of a resolved window exactly once, wrapping
    /// offsets around the torus. All scan-window consumers — per-point
    /// queries, the tile API, and the [`buckets_scanned`](Self::buckets_scanned)
    /// diagnostic — share this single walk, so the diagnostic can never
    /// drift from the real scan.
    fn for_each_window_bucket<F: FnMut(&[u32])>(&self, w: &QueryBounds, mut f: F) {
        let n = self.cells as isize;
        for dy in w.dy_lo..=w.dy_hi {
            let by = (w.cy as isize + dy).rem_euclid(n) as usize;
            for dx in w.dx_lo..=w.dx_hi {
                let bx = (w.cx as isize + dx).rem_euclid(n) as usize;
                f(&self.buckets[by * self.cells + bx]);
            }
        }
    }

    /// Number of buckets the shared walk visits for a resolved window
    /// (full scans touch the flat point list once per point instead and
    /// report every bucket).
    fn window_bucket_count(&self, w: &QueryBounds) -> usize {
        if w.full_scan {
            return self.cells * self.cells;
        }
        let mut n = 0;
        self.for_each_window_bucket(w, |_| n += 1);
        n
    }

    /// The number of buckets a query for `radius` around `center` scans —
    /// a diagnostic for tests and tuning (the contract is ≤ 9 whenever
    /// `radius ≤` the cell length; full scans report every bucket).
    ///
    /// Counted by running the same window walk the real queries use, so
    /// the diagnostic cannot drift from the actual scan.
    #[must_use]
    pub fn buckets_scanned(&self, center: Point, radius: f64) -> usize {
        let (_, b) = self.query_bounds(center, radius);
        self.window_bucket_count(&b)
    }

    /// The number of buckets [`tile_candidates`](Self::tile_candidates)
    /// scans for cell `(cx, cy)` at the given `radius` — the tile-side
    /// counterpart of [`buckets_scanned`](Self::buckets_scanned), counted
    /// by the same shared walk.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or `radius` is negative or not
    /// finite.
    #[must_use]
    pub fn tile_buckets_scanned(&self, cx: usize, cy: usize, radius: f64) -> usize {
        self.window_bucket_count(&self.cell_window(cx, cy, radius))
    }

    /// Side length of one index cell.
    #[must_use]
    pub fn cell_len(&self) -> f64 {
        self.cell_len
    }

    /// The cell that contains `p` (after wrapping into the fundamental
    /// domain).
    #[must_use]
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let p = self.torus.wrap(p);
        bucket_of(&p, self.cell_len, self.cells)
    }

    /// Collects into `out` the indices of every point that could be within
    /// `radius` of *any* location inside cell `(cx, cy)` — the tile's
    /// shared candidate list, computed with one bucket walk instead of one
    /// per query point.
    ///
    /// The list is a superset of [`query_within`](Self::query_within) for
    /// every centre inside the cell at any radius ≤ `radius`; callers
    /// apply their own exact distance/sector filter. `out` is cleared
    /// first, so a reused scratch vector makes this allocation-free once
    /// warm. When the window covers the whole grid every index is a
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or `radius` is negative or not
    /// finite.
    pub fn tile_candidates(&self, cx: usize, cy: usize, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let w = self.cell_window(cx, cy, radius);
        if w.full_scan {
            out.extend(0..self.points.len() as u32);
            return;
        }
        self.for_each_window_bucket(&w, |bucket| out.extend_from_slice(bucket));
    }

    /// The indexed (wrapped) point with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }
}

fn bucket_of(p: &Point, cell_len: f64, cells: usize) -> (usize, usize) {
    let cx = ((p.x / cell_len) as usize).min(cells - 1);
    let cy = ((p.y / cell_len) as usize).min(cells - 1);
    (cx, cy)
}

/// Inclusive cell-offset range `[lo, hi]` along one axis for a query with
/// the given in-cell offset `frac ∈ [0, cell_len)`.
///
/// A cell `dx ≤ 0` holds points strictly below its exclusive right edge
/// (edge points bucket rightward), so it matters iff
/// `frac − (dx+1)·cell_len < radius` ⇒ `lo = ⌊(frac − radius)/cell_len⌋`
/// (the strict inequality is exactly what `floor` gives at integer
/// quotients — the far cell's supremum is excluded). A cell `dx ≥ 0`
/// includes its left edge, so the closed inequality gives
/// `hi = ⌊(frac + radius)/cell_len⌋`; the `+1e-12` nudge keeps a
/// knife-edge rounding of an exactly-at-radius edge point on the
/// inclusive side (one extra cell at worst, never a clipped one).
fn axis_span(frac: f64, radius: f64, cell_len: f64) -> (isize, isize) {
    let lo = ((frac - radius) / cell_len).floor() as isize;
    let hi = ((frac + radius) / cell_len + 1e-12).floor() as isize;
    (lo, hi)
}

/// Resolved cell window for one radius or tile query: the inclusive
/// per-axis cell-offset ranges around an anchor cell `(cx, cy)`. Shared by
/// per-point queries ([`SpatialGrid::query_bounds`]) and the tile API
/// ([`SpatialGrid::cell_window`]), and always walked through
/// [`SpatialGrid::for_each_window_bucket`].
struct QueryBounds {
    /// Whether the window covers the whole grid (fall back to a flat scan).
    full_scan: bool,
    cx: usize,
    cy: usize,
    dx_lo: isize,
    dx_hi: isize,
    dy_lo: isize,
    dy_hi: isize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(torus: &Torus, pts: &[Point], center: Point, radius: f64) -> Vec<usize> {
        pts.iter()
            .enumerate()
            .filter(|(_, p)| torus.distance(center, **p) <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = SpatialGrid::build(Torus::unit(), &[], 0.1);
        assert!(idx.is_empty());
        assert!(idx.query_within(Point::new(0.5, 0.5), 0.3).is_empty());
    }

    #[test]
    fn matches_brute_force_on_regular_points() {
        let t = Torus::unit();
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Point::new(i as f64 / 20.0, j as f64 / 20.0));
            }
        }
        let idx = SpatialGrid::build(t, &pts, 0.07);
        for &(cx, cy, r) in &[
            (0.5, 0.5, 0.1),
            (0.0, 0.0, 0.15),
            (0.97, 0.03, 0.2),
            (0.5, 0.5, 0.0),
        ] {
            let c = Point::new(cx, cy);
            let mut got = idx.query_within(c, r);
            got.sort_unstable();
            let mut want = brute_force(&t, &pts, c, r);
            want.sort_unstable();
            assert_eq!(got, want, "center ({cx},{cy}) radius {r}");
        }
    }

    #[test]
    fn query_wraps_seam() {
        let t = Torus::unit();
        let pts = vec![Point::new(0.01, 0.5), Point::new(0.99, 0.5)];
        let idx = SpatialGrid::build(t, &pts, 0.05);
        let mut hits = idx.query_within(Point::new(0.995, 0.5), 0.03);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn large_radius_falls_back_to_scan() {
        let t = Torus::unit();
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0))
            .collect();
        let idx = SpatialGrid::build(t, &pts, 0.05);
        // Radius covering the whole torus: everything is a hit.
        let hits = idx.query_within(Point::new(0.5, 0.5), 1.0);
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn unwrapped_input_points_are_wrapped() {
        let t = Torus::unit();
        let pts = vec![Point::new(1.25, -0.25)]; // wraps to (0.25, 0.75)
        let idx = SpatialGrid::build(t, &pts, 0.1);
        let hits = idx.query_within(Point::new(0.25, 0.75), 0.01);
        assert_eq!(hits, vec![0]);
        assert!((idx.point(0).x - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_finds_exact_point() {
        let t = Torus::unit();
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.5)];
        let idx = SpatialGrid::build(t, &pts, 0.1);
        assert_eq!(idx.query_within(Point::new(0.5, 0.5), 0.0), vec![0]);
    }

    #[test]
    fn for_each_within_agrees_with_query() {
        let t = Torus::unit();
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i as f64 * 0.13) % 1.0, (i as f64 * 0.29) % 1.0))
            .collect();
        let idx = SpatialGrid::build(t, &pts, 0.12);
        let mut via_cb = Vec::new();
        idx.for_each_within(Point::new(0.3, 0.7), 0.25, |i| via_cb.push(i));
        via_cb.sort_unstable();
        let mut via_q = idx.query_within(Point::new(0.3, 0.7), 0.25);
        via_q.sort_unstable();
        assert_eq!(via_cb, via_q);
    }

    #[test]
    fn cell_count_respects_min_len() {
        let idx = SpatialGrid::build(Torus::unit(), &[], 0.3);
        assert_eq!(idx.cells_per_axis(), 3); // floor(1/0.3)
        let idx = SpatialGrid::build(Torus::unit(), &[], 5.0);
        assert_eq!(idx.cells_per_axis(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_len_panics() {
        let _ = SpatialGrid::build(Torus::unit(), &[], 0.0);
    }

    #[test]
    fn scan_window_is_at_most_3x3_for_radius_up_to_cell() {
        // The build contract: cell_len ≥ min_cell_len, so a query with
        // radius ≤ min_cell_len must touch at most the 3×3 neighbourhood.
        let t = Torus::unit();
        let pts: Vec<Point> = (0..64)
            .map(|i| Point::new((i as f64 * 0.17) % 1.0, (i as f64 * 0.23) % 1.0))
            .collect();
        let idx = SpatialGrid::build(t, &pts, 0.1); // 10×10 cells
        for i in 0..50 {
            let c = Point::new((i as f64 * 0.093) % 1.0, (i as f64 * 0.061) % 1.0);
            for r in [0.0, 0.03, 0.07, 0.0999, 0.1] {
                let scanned = idx.buckets_scanned(c, r);
                assert!(scanned <= 9, "{scanned} buckets for r={r} at {c}");
            }
        }
        // A centre in the middle of its cell with a small radius needs
        // just that one cell.
        assert_eq!(idx.buckets_scanned(Point::new(0.55, 0.55), 0.04), 1);
    }

    #[test]
    fn tightened_window_still_matches_brute_force() {
        // Radii straddling multiples of the cell length, centres on cell
        // edges and the torus seam — the cases the asymmetric window must
        // not clip.
        let t = Torus::unit();
        let pts: Vec<Point> = (0..300)
            .map(|i| Point::new((i as f64 * 0.618_034) % 1.0, (i as f64 * 0.414_214) % 1.0))
            .collect();
        let idx = SpatialGrid::build(t, &pts, 0.08);
        for &(x, y) in &[
            (0.0, 0.0),
            (0.08, 0.16), // exactly on cell corners
            (0.999, 0.5),
            (0.5, 0.999),
            (0.321, 0.654),
        ] {
            for r in [0.0, 0.05, 0.08, 0.081, 0.16, 0.2, 0.31, 0.5] {
                let c = Point::new(x, y);
                let mut got = idx.query_within(c, r);
                got.sort_unstable();
                let mut want = brute_force(&t, &pts, c, r);
                want.sort_unstable();
                assert_eq!(got, want, "center ({x},{y}) radius {r}");
            }
        }
    }

    /// Deterministic quasi-random point cloud shared by the tile tests.
    fn cloud(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 0.618_034) % 1.0, (i as f64 * 0.414_214) % 1.0))
            .collect()
    }

    #[test]
    fn tile_candidates_superset_of_any_point_query_in_cell() {
        let t = Torus::unit();
        let pts = cloud(250);
        let idx = SpatialGrid::build(t, &pts, 0.09);
        let mut scratch = Vec::new();
        for r in [0.0, 0.05, 0.09, 0.13, 0.21] {
            // Probe points all over the torus, including seams and corners.
            for i in 0..60 {
                let c = Point::new((i as f64 * 0.173) % 1.0, (i as f64 * 0.311) % 1.0);
                let (cx, cy) = idx.cell_of(c);
                idx.tile_candidates(cx, cy, r, &mut scratch);
                let tile: std::collections::HashSet<u32> = scratch.iter().copied().collect();
                for hit in idx.query_within(c, r) {
                    assert!(
                        tile.contains(&(hit as u32)),
                        "point {hit} within r={r} of {c} missing from tile ({cx},{cy})"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_window_is_3x3_for_radius_up_to_cell() {
        let idx = SpatialGrid::build(Torus::unit(), &cloud(64), 0.1); // 10×10 cells
        for cx in 0..10 {
            for cy in 0..10 {
                for r in [0.0, 0.04, 0.0999] {
                    let scanned = idx.tile_buckets_scanned(cx, cy, r);
                    assert!(scanned <= 9, "{scanned} buckets for r={r} at ({cx},{cy})");
                }
                // At exactly r == cell_len the union over the whole cell
                // needs one extra column/row: 4×4.
                assert!(idx.tile_buckets_scanned(cx, cy, 0.1) <= 16);
            }
        }
        // Zero radius still needs the left/up neighbours (a query point at
        // the cell's low edge can match an edge point bucketed one cell
        // over), but never more than the 2×2 block.
        assert!(idx.tile_buckets_scanned(5, 5, 0.0) <= 4);
    }

    #[test]
    fn tile_candidates_full_scan_on_large_radius() {
        let t = Torus::unit();
        let pts = cloud(40);
        let idx = SpatialGrid::build(t, &pts, 0.05);
        let mut out = Vec::new();
        idx.tile_candidates(3, 7, 1.0, &mut out);
        assert_eq!(out.len(), 40, "whole-torus radius lists every point");
        assert_eq!(idx.tile_buckets_scanned(3, 7, 1.0), 20 * 20);
    }

    #[test]
    fn tile_candidates_wrap_the_seam() {
        let t = Torus::unit();
        // One point on each side of the x seam.
        let pts = vec![Point::new(0.01, 0.5), Point::new(0.99, 0.5)];
        let idx = SpatialGrid::build(t, &pts, 0.1);
        let (cx, cy) = idx.cell_of(Point::new(0.005, 0.5));
        let mut out = Vec::new();
        idx.tile_candidates(cx, cy, 0.05, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "seam neighbour must be a candidate");
    }

    #[test]
    fn buckets_scanned_diagnostics_share_the_real_walk() {
        // Regression for the diagnostic/scan drift class of bug: both
        // `buckets_scanned` and `tile_buckets_scanned` must equal a count
        // taken by the walk the real queries perform.
        let t = Torus::unit();
        let idx = SpatialGrid::build(t, &cloud(100), 0.07);
        for i in 0..40 {
            let c = Point::new((i as f64 * 0.093) % 1.0, (i as f64 * 0.061) % 1.0);
            for r in [0.0, 0.03, 0.07, 0.071, 0.14, 0.2, 0.5] {
                let (_, w) = idx.query_bounds(c, r);
                let mut walked = 0;
                idx.for_each_window_bucket(&w, |_| walked += 1);
                let reported = idx.buckets_scanned(c, r);
                if w.full_scan {
                    assert_eq!(reported, idx.cells_per_axis() * idx.cells_per_axis());
                } else {
                    assert_eq!(reported, walked, "drift at {c} r={r}");
                }
                let (cx, cy) = idx.cell_of(c);
                let tw = idx.cell_window(cx, cy, r);
                let mut tile_walked = 0;
                idx.for_each_window_bucket(&tw, |_| tile_walked += 1);
                let tile_reported = idx.tile_buckets_scanned(cx, cy, r);
                if tw.full_scan {
                    assert_eq!(tile_reported, idx.cells_per_axis() * idx.cells_per_axis());
                } else {
                    assert_eq!(
                        tile_reported, tile_walked,
                        "tile drift at ({cx},{cy}) r={r}"
                    );
                }
                // The tile window contains the per-point window.
                assert!(reported <= tile_reported.max(reported), "sanity");
                if !w.full_scan && !tw.full_scan {
                    assert!(
                        tw.dx_lo <= w.dx_lo
                            && tw.dx_hi >= w.dx_hi
                            && tw.dy_lo <= w.dy_lo
                            && tw.dy_hi >= w.dy_hi,
                        "tile window must contain the per-point window at {c} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let t = Torus::unit();
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                Point::new(
                    (i as f64 * 0.618_033_98) % 1.0,
                    (i as f64 * 0.414_213_56) % 1.0,
                )
            })
            .collect();
        let mut idx = SpatialGrid::build(t, &pts, 0.2);
        // Drop every third point and move the rest slightly (wrapping).
        let mutated: Vec<Point> = pts
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, p)| Point::new(p.x + 1.05, p.y - 0.95))
            .collect();
        idx.rebuild(&mutated);
        let fresh = SpatialGrid::build(t, &mutated, 0.2);
        assert_eq!(idx.len(), fresh.len());
        assert_eq!(idx.cells_per_axis(), fresh.cells_per_axis());
        for j in 0..25 {
            let c = Point::new((j as f64 * 0.7548) % 1.0, (j as f64 * 0.5698) % 1.0);
            for r in [0.0, 0.1, 0.2, 0.35] {
                let mut a = idx.query_within(c, r);
                let mut b = fresh.query_within(c, r);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "query at {c} r={r}");
            }
        }
        // Rebuild to empty and back is fine.
        idx.rebuild(&[]);
        assert!(idx.is_empty());
        idx.rebuild(&pts);
        assert_eq!(idx.len(), pts.len());

        // In-place moves: after every move the index equals a rebuild over
        // the same positions — the same stored points, and the same
        // candidate lists in the same order for every cell and radius.
        // Moves cycle through a target inside the point's own bucket,
        // targets just past the x and the y seam (given unwrapped), and
        // targets far outside the domain.
        let mut rebuilt = SpatialGrid::build(t, &pts, 0.2);
        let mut positions = pts.clone();
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for step in 0..240 {
            let i = (unit() * pts.len() as f64) as usize;
            let at = idx.point(i);
            let to = match step % 4 {
                0 => {
                    let (cx, cy) = idx.cell_of(at);
                    let len = idx.cell_len();
                    let to = Point::new(
                        (cx as f64 + 0.999 * unit()) * len,
                        (cy as f64 + 0.999 * unit()) * len,
                    );
                    assert_eq!(idx.cell_of(to), (cx, cy), "same-bucket target");
                    to
                }
                1 => Point::new(-0.05 * unit(), at.y),
                2 => Point::new(at.x, 1.0 + 0.05 * unit()),
                _ => Point::new(unit() * 8.0 - 4.0, unit() * 8.0 - 4.0),
            };
            positions[i] = to;
            idx.move_point(i, to);
            rebuilt.rebuild(&positions);
            for (j, p) in positions.iter().enumerate() {
                let (a, b) = (idx.point(j), rebuilt.point(j));
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "point {j} ({p}) at step {step}"
                );
            }
            for cx in 0..idx.cells_per_axis() {
                for cy in 0..idx.cells_per_axis() {
                    for r in [0.0, 0.1, 0.2, 0.35] {
                        idx.tile_candidates(cx, cy, r, &mut got);
                        rebuilt.tile_candidates(cx, cy, r, &mut want);
                        assert_eq!(got, want, "cell ({cx}, {cy}) r={r} at step {step}");
                    }
                }
            }
        }
    }
}
