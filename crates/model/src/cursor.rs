//! Tile-pinned coverage queries: the batch counterpart of
//! [`CameraNetwork::for_each_covering`].
//!
//! Dense-grid sweeps ask "which cameras cover `p`?" for thousands of
//! points, and neighbouring grid points share the same spatial-index cell —
//! hence the same candidate cameras. A [`TileCursor`] pins one cell's
//! candidate list once (a single bucket walk plus a cache-friendly
//! struct-of-arrays snapshot of candidate positions and radii) and then
//! answers per-point queries with only the exact distance/sector filter.
//! The [`CoverageProvider`] trait lets every coverage predicate in
//! `fullview-core` run unchanged over either the whole-network path or a
//! pinned tile, which is what guarantees the two produce identical results.

use crate::camera::Camera;
use crate::network::CameraNetwork;
use fullview_geom::{Point, Torus};

/// A source of "which cameras cover this point" answers.
///
/// Implemented by [`CameraNetwork`] (per-point spatial-index walk) and
/// [`TileCursor`] (pinned tile candidates). Both enumerate exactly the
/// cameras whose sector contains the target; only the candidate-narrowing
/// strategy differs, so any predicate built on this trait is
/// backend-agnostic by construction.
pub trait CoverageProvider {
    /// The torus the cameras live on.
    fn torus(&self) -> &Torus;

    /// Calls `f` for every camera covering `target`.
    fn for_each_covering<F: FnMut(&Camera)>(&self, target: Point, f: F);

    /// Number of cameras covering `target` — the `k` of traditional
    /// k-coverage.
    fn coverage_count(&self, target: Point) -> usize {
        let mut n = 0;
        self.for_each_covering(target, |_| n += 1);
        n
    }
}

impl CoverageProvider for CameraNetwork {
    fn torus(&self) -> &Torus {
        CameraNetwork::torus(self)
    }

    fn for_each_covering<F: FnMut(&Camera)>(&self, target: Point, f: F) {
        CameraNetwork::for_each_covering(self, target, f)
    }

    fn coverage_count(&self, target: Point) -> usize {
        CameraNetwork::coverage_count(self, target)
    }
}

/// One pinned candidate: everything the exact filter needs, laid out
/// contiguously so the per-point loop never chases bucket pointers.
///
/// Exposed read-only through [`TileCursor::pinned_candidates`] so batch
/// kernels can iterate the same snapshot the cursor filters with — same
/// positions, same per-camera squared radii — and therefore reproduce the
/// cursor's prefilter bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct PinnedCamera {
    /// Index into `CameraNetwork::cameras`.
    pub(crate) index: u32,
    /// Wrapped camera position (from the spatial index).
    pub(crate) position: Point,
    /// This camera's own sensing radius, squared — a *tighter* prefilter
    /// than the per-point path's shared `max_radius`.
    pub(crate) radius_sq: f64,
}

impl PinnedCamera {
    /// Index into [`CameraNetwork::cameras`].
    #[must_use]
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The wrapped camera position the cursor prefilters with.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The camera's own sensing radius, squared.
    #[must_use]
    pub fn radius_sq(&self) -> f64 {
        self.radius_sq
    }
}

/// A cursor that pins one spatial-index cell's candidate cameras and
/// answers coverage queries for any point inside that cell.
///
/// Create with [`CameraNetwork::tile_cursor`], call [`pin`](Self::pin) per
/// tile, then query through [`CoverageProvider`]. Re-pinning reuses the
/// internal buffers, so a warmed cursor allocates nothing for the rest of
/// the sweep.
///
/// # Examples
///
/// ```
/// use fullview_geom::{Angle, Point, Torus};
/// use fullview_model::{Camera, CameraNetwork, CoverageProvider, GroupId, SensorSpec};
/// use std::f64::consts::PI;
///
/// let spec = SensorSpec::new(0.3, PI)?;
/// let cam = Camera::new(Point::new(0.5, 0.5), Angle::ZERO, spec, GroupId(0));
/// let net = CameraNetwork::new(Torus::unit(), vec![cam]);
/// let target = Point::new(0.45, 0.5);
/// let mut cursor = net.tile_cursor();
/// let (cx, cy) = net.index().cell_of(target);
/// cursor.pin(cx, cy);
/// assert_eq!(cursor.coverage_count(target), net.coverage_count(target));
/// # Ok::<(), fullview_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct TileCursor<'a> {
    net: &'a CameraNetwork,
    buffers: CursorBuffers,
    cell: Option<(usize, usize)>,
}

/// A [`TileCursor`]'s buffers without its network borrow, so that a
/// long-lived state can keep them between sweeps of a network it mutates
/// in between: hand them to [`CameraNetwork::tile_cursor_with`] and take
/// them back with [`TileCursor::into_buffers`], and a warmed cursor
/// allocates nothing on later sweeps either.
#[derive(Debug, Clone, Default)]
pub struct CursorBuffers {
    /// Scratch for the index's tile query.
    candidates: Vec<u32>,
    pinned: Vec<PinnedCamera>,
}

impl<'a> TileCursor<'a> {
    /// A cursor over `net` with nothing pinned, growing `buffers`.
    pub(crate) fn with_buffers(net: &'a CameraNetwork, buffers: CursorBuffers) -> Self {
        TileCursor {
            net,
            buffers,
            cell: None,
        }
    }

    /// Releases the cursor's buffers for a later
    /// [`CameraNetwork::tile_cursor_with`].
    #[must_use]
    pub fn into_buffers(self) -> CursorBuffers {
        self.buffers
    }

    /// The network this cursor reads from.
    #[must_use]
    pub fn network(&self) -> &'a CameraNetwork {
        self.net
    }

    /// The currently pinned cell, if any.
    #[must_use]
    pub fn pinned_cell(&self) -> Option<(usize, usize)> {
        self.cell
    }

    /// Number of candidate cameras pinned for the current cell.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.buffers.pinned.len()
    }

    /// The pinned candidate snapshot for the current cell, in the order
    /// [`for_each_covering`](CoverageProvider::for_each_covering) visits it.
    ///
    /// Batch kernels read this to run the same `distance² ≤ radius²`
    /// prefilter over whole tiles at once.
    #[must_use]
    pub fn pinned_candidates(&self) -> &[PinnedCamera] {
        &self.buffers.pinned
    }

    /// Pins cell `(cx, cy)`: gathers the candidate cameras for queries
    /// anywhere inside that cell (at the network's largest sensing radius)
    /// with a single bucket walk. A no-op when the cell is already pinned.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range for the network's spatial index.
    pub fn pin(&mut self, cx: usize, cy: usize) {
        if self.cell == Some((cx, cy)) {
            return;
        }
        let index = self.net.index();
        let CursorBuffers { candidates, pinned } = &mut self.buffers;
        index.tile_candidates(cx, cy, self.net.max_radius(), candidates);
        let cameras = self.net.cameras();
        pinned.clear();
        pinned.extend(candidates.iter().map(|&i| {
            let r = cameras[i as usize].spec().radius();
            PinnedCamera {
                index: i,
                position: index.point(i as usize),
                radius_sq: r * r,
            }
        }));
        self.cell = Some((cx, cy));
    }
}

impl CoverageProvider for TileCursor<'_> {
    fn torus(&self) -> &Torus {
        self.net.torus()
    }

    /// Calls `f` for every camera covering `target`.
    ///
    /// `target` must lie inside the pinned cell — the candidate list is
    /// only guaranteed complete there (checked in debug builds).
    fn for_each_covering<F: FnMut(&Camera)>(&self, target: Point, mut f: F) {
        debug_assert_eq!(
            self.cell,
            Some(self.net.index().cell_of(target)),
            "TileCursor queried for a point outside the pinned cell"
        );
        let torus = self.net.torus();
        let cameras = self.net.cameras();
        for pc in &self.buffers.pinned {
            if torus.distance_squared(pc.position, target) <= pc.radius_sq {
                let cam = &cameras[pc.index as usize];
                if cam.covers(torus, target) {
                    f(cam);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::GroupId;
    use crate::spec::SensorSpec;
    use fullview_geom::Angle;
    use std::f64::consts::PI;

    fn cam_at(x: f64, y: f64, facing: f64, r: f64, phi: f64) -> Camera {
        Camera::new(
            Point::new(x, y),
            Angle::new(facing),
            SensorSpec::new(r, phi).unwrap(),
            GroupId(0),
        )
    }

    fn pseudo_random_net(n: usize) -> CameraNetwork {
        let mut cams = Vec::new();
        for i in 0..n {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = (i as f64 * 2.399_963) % (2.0 * PI);
            // Mixed radii and angles of view: heterogeneity matters here
            // because the cursor prefilters with per-camera radii.
            let r = 0.05 + 0.1 * ((i % 7) as f64 / 7.0);
            let phi = PI / 4.0 + PI / 2.0 * ((i % 3) as f64 / 3.0);
            cams.push(cam_at(x, y, facing, r, phi));
        }
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn cursor_matches_network_queries_inside_pinned_cell() {
        let net = pseudo_random_net(150);
        let mut cursor = net.tile_cursor();
        for j in 0..60 {
            let p = Point::new((j as f64 * 0.7548) % 1.0, (j as f64 * 0.5698) % 1.0);
            let (cx, cy) = net.index().cell_of(p);
            cursor.pin(cx, cy);
            let mut via_net: Vec<u64> = Vec::new();
            net.for_each_covering(p, |c| via_net.push((c.position().x * 1e12) as u64));
            let mut via_cursor: Vec<u64> = Vec::new();
            cursor.for_each_covering(p, |c| via_cursor.push((c.position().x * 1e12) as u64));
            via_net.sort_unstable();
            via_cursor.sort_unstable();
            assert_eq!(via_net, via_cursor, "point {p}");
            assert_eq!(net.coverage_count(p), cursor.coverage_count(p));
        }
    }

    #[test]
    fn repinning_same_cell_is_a_cheap_no_op() {
        let net = pseudo_random_net(40);
        let mut cursor = net.tile_cursor();
        cursor.pin(2, 3);
        let count = cursor.candidate_count();
        cursor.pin(2, 3);
        assert_eq!(cursor.pinned_cell(), Some((2, 3)));
        assert_eq!(cursor.candidate_count(), count);
        cursor.pin(0, 0);
        assert_eq!(cursor.pinned_cell(), Some((0, 0)));
    }

    #[test]
    fn handed_off_buffers_start_unpinned_and_match_a_fresh_cursor() {
        let mut net = pseudo_random_net(80);
        let mut cursor = net.tile_cursor();
        cursor.pin(1, 1);
        let buffers = cursor.into_buffers();
        // The buffers outlive the borrow, across a mutation of the network.
        assert!(net.move_camera(3, Point::new(0.5, 0.5)));
        let mut reused = net.tile_cursor_with(buffers);
        assert_eq!(reused.pinned_cell(), None);
        let p = Point::new(0.51, 0.49);
        let (cx, cy) = net.index().cell_of(p);
        reused.pin(cx, cy);
        let mut fresh = net.tile_cursor();
        fresh.pin(cx, cy);
        assert_eq!(reused.candidate_count(), fresh.candidate_count());
        assert_eq!(reused.coverage_count(p), fresh.coverage_count(p));
    }

    #[test]
    fn cursor_on_empty_network_sees_nothing() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let mut cursor = net.tile_cursor();
        let p = Point::new(0.5, 0.5);
        let (cx, cy) = net.index().cell_of(p);
        cursor.pin(cx, cy);
        assert_eq!(cursor.candidate_count(), 0);
        assert_eq!(cursor.coverage_count(p), 0);
    }

    #[test]
    fn cursor_handles_radius_larger_than_torus() {
        // A sensing radius beyond the half-side forces the full-scan
        // window: every camera is a candidate of every tile.
        let net = CameraNetwork::new(
            Torus::unit(),
            vec![
                cam_at(0.1, 0.1, 0.0, 1.5, PI),
                cam_at(0.8, 0.8, PI, 1.5, PI),
            ],
        );
        let mut cursor = net.tile_cursor();
        let p = Point::new(0.6, 0.4);
        let (cx, cy) = net.index().cell_of(p);
        cursor.pin(cx, cy);
        assert_eq!(cursor.candidate_count(), 2);
        assert_eq!(cursor.coverage_count(p), net.coverage_count(p));
    }

    #[test]
    fn provider_trait_is_interchangeable() {
        fn count_via<P: CoverageProvider>(p: &P, target: Point) -> usize {
            p.coverage_count(target)
        }
        let net = pseudo_random_net(30);
        let target = Point::new(0.25, 0.75);
        let mut cursor = net.tile_cursor();
        let (cx, cy) = net.index().cell_of(target);
        cursor.pin(cx, cy);
        assert_eq!(count_via(&net, target), count_via(&cursor, target));
        assert_eq!(CoverageProvider::torus(&cursor).side(), 1.0);
    }
}
