//! Deployed camera networks with fast coverage queries.

use crate::camera::Camera;
use fullview_geom::{Angle, Point, SpatialGrid, Torus};
use std::fmt;

/// Lower bound on the spatial-index cell size relative to the torus side.
///
/// Very small sensing radii would otherwise create millions of near-empty
/// buckets; a 1/256 floor keeps the index at most 256×256 while preserving
/// the 3×3-neighbourhood query property (cells are never smaller than
/// needed, only larger).
const MIN_CELL_FRACTION: f64 = 1.0 / 256.0;

/// A deployed camera sensor network over a toroidal region, with a spatial
/// index for "which cameras cover this point" queries.
///
/// This is the object the coverage algorithms in `fullview-core` operate
/// on: deployments (uniform, Poisson, lattice — see `fullview-deploy`)
/// produce a `CameraNetwork`, and all full-view / necessary / sufficient /
/// k-coverage predicates consume one.
///
/// # Examples
///
/// ```
/// use fullview_geom::{Angle, Point, Torus};
/// use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
/// use std::f64::consts::PI;
///
/// let spec = SensorSpec::new(0.25, PI)?;
/// let target = Point::new(0.5, 0.5);
/// // Four cameras around the target, all facing it.
/// let cams: Vec<Camera> = (0..4)
///     .map(|k| {
///         let dir = Angle::new(k as f64 * PI / 2.0);
///         let pos = Torus::unit().offset(target, dir, 0.2);
///         Camera::new(pos, dir.opposite(), spec, GroupId(0))
///     })
///     .collect();
/// let net = CameraNetwork::new(Torus::unit(), cams);
/// assert_eq!(net.coverage_count(target), 4);
/// # Ok::<(), fullview_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CameraNetwork {
    torus: Torus,
    cameras: Vec<Camera>,
    index: SpatialGrid,
    max_radius: f64,
}

impl CameraNetwork {
    /// Builds a network from deployed cameras, wrapping camera positions
    /// into the torus fundamental domain and indexing them: a camera's
    /// [`position`](Camera::position) and the index's copy of it are the
    /// same bits.
    #[must_use]
    pub fn new(torus: Torus, mut cameras: Vec<Camera>) -> Self {
        for c in &mut cameras {
            *c = Camera::new(
                torus.wrap(c.position()),
                c.orientation(),
                *c.spec(),
                c.group(),
            );
        }
        let max_radius = cameras
            .iter()
            .map(|c| c.spec().radius())
            .fold(0.0, f64::max);
        let cell = max_radius.max(torus.side() * MIN_CELL_FRACTION);
        let positions: Vec<Point> = cameras.iter().map(|c| c.position()).collect();
        let index = SpatialGrid::build(torus, &positions, cell);
        CameraNetwork {
            torus,
            cameras,
            index,
            max_radius,
        }
    }

    /// The operational region.
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Number of deployed cameras.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// Whether the network has no cameras.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// All deployed cameras.
    #[must_use]
    pub fn cameras(&self) -> &[Camera] {
        &self.cameras
    }

    /// The largest sensing radius in the network (0 for an empty network).
    #[must_use]
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// The spatial index over camera positions — exposed so batch
    /// consumers (the tile engine in `fullview-core`) can align their
    /// traversal with the index cells.
    #[must_use]
    pub fn index(&self) -> &SpatialGrid {
        &self.index
    }

    /// Creates a [`TileCursor`](crate::TileCursor) for cell-coherent batch
    /// queries against this network.
    #[must_use]
    pub fn tile_cursor(&self) -> crate::TileCursor<'_> {
        self.tile_cursor_with(crate::CursorBuffers::default())
    }

    /// [`tile_cursor`](Self::tile_cursor) growing the buffers an earlier
    /// cursor released with
    /// [`TileCursor::into_buffers`](crate::TileCursor::into_buffers)
    /// (possibly over this network before a mutation): nothing is pinned.
    #[must_use]
    pub fn tile_cursor_with(&self, buffers: crate::CursorBuffers) -> crate::TileCursor<'_> {
        crate::TileCursor::with_buffers(self, buffers)
    }

    /// Calls `f` for every camera covering `target` (allocation-free hot
    /// path used by the dense-grid sweeps).
    pub fn for_each_covering<'a, F: FnMut(&'a Camera)>(&'a self, target: Point, mut f: F) {
        if self.cameras.is_empty() {
            return;
        }
        self.index.for_each_within(target, self.max_radius, |i| {
            let cam = &self.cameras[i];
            if cam.covers(&self.torus, target) {
                f(cam);
            }
        });
    }

    /// Number of cameras covering `target` — the `k` of traditional
    /// k-coverage (§VII-B).
    #[must_use]
    pub fn coverage_count(&self, target: Point) -> usize {
        let mut n = 0;
        self.for_each_covering(target, |_| n += 1);
        n
    }

    /// The *viewed directions* of `target`: for every covering camera `S`,
    /// the direction `P→S`. A camera coincident with the target yields
    /// `None` in place of a direction (it can view the target from any
    /// side).
    #[must_use]
    pub fn viewed_directions(&self, target: Point) -> Vec<Option<Angle>> {
        let mut dirs = Vec::new();
        self.for_each_covering(target, |cam| {
            dirs.push(cam.viewed_direction(&self.torus, target));
        });
        dirs
    }

    /// Returns a new network containing only the cameras for which `keep`
    /// returns `true` — used for failure injection and what-if analyses.
    #[must_use]
    pub fn filter<F: FnMut(&Camera) -> bool>(&self, mut keep: F) -> CameraNetwork {
        let cameras: Vec<Camera> = self.cameras.iter().filter(|c| keep(c)).copied().collect();
        CameraNetwork::new(self.torus, cameras)
    }

    /// Removes the camera at `index` in place, re-indexing without
    /// re-sizing the spatial grid (cells only ever get *larger* than
    /// strictly needed, which preserves the 3×3-neighbourhood query
    /// property — see [`fullview_geom::SpatialGrid::rebuild`]).
    ///
    /// Returns `false` (and leaves the network untouched) if `index` is
    /// out of range. This is the cheap mutation hook behind long-running
    /// services that model camera failures without rebuilding the world.
    pub fn remove_camera(&mut self, index: usize) -> bool {
        if index >= self.cameras.len() {
            return false;
        }
        self.cameras.remove(index);
        self.refresh_index();
        true
    }

    /// Moves the camera at `index` to `to` (wrapped into the torus
    /// fundamental domain), keeping its orientation, spec, and group.
    /// Returns `false` if `index` is out of range.
    ///
    /// O(1) in the fleet size: the spatial index re-buckets just this
    /// camera ([`SpatialGrid::move_point`]), leaving every candidate list
    /// in the order a rebuild would give, and `max_radius` stands because
    /// the camera keeps its radius.
    pub fn move_camera(&mut self, index: usize, to: Point) -> bool {
        let Some(cam) = self.cameras.get(index) else {
            return false;
        };
        let moved = Camera::new(
            self.torus.wrap(to),
            cam.orientation(),
            *cam.spec(),
            cam.group(),
        );
        self.cameras[index] = moved;
        self.index.move_point(index, moved.position());
        true
    }

    /// Re-derives `max_radius` and re-buckets the spatial index after a
    /// removal, which shifts every later index. The grid keeps its
    /// original cell size: removals can only shrink the largest radius,
    /// so existing cells stay at least as large as any query radius
    /// requires.
    fn refresh_index(&mut self) {
        self.max_radius = self
            .cameras
            .iter()
            .map(|c| c.spec().radius())
            .fold(0.0, f64::max);
        let positions: Vec<Point> = self.cameras.iter().map(|c| c.position()).collect();
        self.index.rebuild(&positions);
    }
}

impl fmt::Display for CameraNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CameraNetwork({} cameras on {})",
            self.cameras.len(),
            self.torus
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::GroupId;
    use crate::spec::SensorSpec;
    use std::f64::consts::PI;

    fn spec(r: f64, phi: f64) -> SensorSpec {
        SensorSpec::new(r, phi).unwrap()
    }

    fn cam_at(x: f64, y: f64, facing: f64, r: f64, phi: f64) -> Camera {
        Camera::new(
            Point::new(x, y),
            Angle::new(facing),
            spec(r, phi),
            GroupId(0),
        )
    }

    #[test]
    fn empty_network() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        assert!(net.is_empty());
        assert_eq!(net.coverage_count(Point::new(0.5, 0.5)), 0);
        assert!(net.viewed_directions(Point::new(0.5, 0.5)).is_empty());
        assert_eq!(net.max_radius(), 0.0);
    }

    #[test]
    fn new_wraps_positions_into_the_domain() {
        let net = CameraNetwork::new(
            Torus::unit(),
            vec![
                cam_at(1.25, -0.25, 0.0, 0.1, PI),
                cam_at(0.5, 0.25, 0.0, 0.1, PI),
            ],
        );
        for (i, cam) in net.cameras().iter().enumerate() {
            let (p, q) = (cam.position(), net.index().point(i));
            assert!(net.torus().contains(p), "camera {i} at {p}");
            assert_eq!(
                (p.x.to_bits(), p.y.to_bits()),
                (q.x.to_bits(), q.y.to_bits())
            );
        }
        assert_eq!(net.cameras()[0].position(), Point::new(0.25, 0.75));
        assert_eq!(net.cameras()[1].position(), Point::new(0.5, 0.25));
    }

    #[test]
    fn covering_finds_only_real_coverers() {
        let target = Point::new(0.5, 0.5);
        let cams = vec![
            cam_at(0.6, 0.5, PI, 0.2, PI / 2.0), // covers (facing -x at target)
            cam_at(0.6, 0.5, 0.0, 0.2, PI / 2.0), // in range but facing away
            cam_at(0.9, 0.5, PI, 0.2, PI / 2.0), // facing target but out of range
        ];
        let net = CameraNetwork::new(Torus::unit(), cams);
        assert_eq!(net.coverage_count(target), 1);
    }

    #[test]
    fn covering_works_across_seam() {
        let target = Point::new(0.02, 0.5);
        let cams = vec![cam_at(0.95, 0.5, 0.0, 0.15, PI / 2.0)];
        let net = CameraNetwork::new(Torus::unit(), cams);
        assert_eq!(net.coverage_count(target), 1);
    }

    #[test]
    fn heterogeneous_radii_respected() {
        let target = Point::new(0.5, 0.5);
        // Short-range camera out of reach; long-range in reach.
        let cams = vec![
            cam_at(0.65, 0.5, PI, 0.1, PI),
            cam_at(0.65, 0.5, PI, 0.2, PI),
        ];
        let net = CameraNetwork::new(Torus::unit(), cams);
        assert_eq!(net.coverage_count(target), 1);
        assert!((net.max_radius() - 0.2).abs() < 1e-15);
    }

    #[test]
    fn viewed_directions_point_at_cameras() {
        let target = Point::new(0.5, 0.5);
        let cams = vec![
            cam_at(0.7, 0.5, PI, 0.25, PI),       // east of target
            cam_at(0.5, 0.7, 1.5 * PI, 0.25, PI), // north of target
        ];
        let net = CameraNetwork::new(Torus::unit(), cams);
        let mut dirs: Vec<f64> = net
            .viewed_directions(target)
            .into_iter()
            .map(|d| d.unwrap().radians())
            .collect();
        dirs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((dirs[0] - 0.0).abs() < 1e-9);
        assert!((dirs[1] - PI / 2.0).abs() < 1e-9);
    }

    #[test]
    fn colocated_camera_yields_none_direction() {
        let target = Point::new(0.5, 0.5);
        let cams = vec![cam_at(0.5, 0.5, 0.0, 0.1, PI)];
        let net = CameraNetwork::new(Torus::unit(), cams);
        let dirs = net.viewed_directions(target);
        assert_eq!(dirs, vec![None]);
    }

    #[test]
    fn filter_removes_cameras() {
        let cams = vec![
            cam_at(0.4, 0.5, 0.0, 0.2, PI),
            cam_at(0.6, 0.5, PI, 0.2, PI),
        ];
        let net = CameraNetwork::new(Torus::unit(), cams);
        let filtered = net.filter(|c| c.position().x < 0.5);
        assert_eq!(filtered.len(), 1);
        assert_eq!(net.len(), 2); // original untouched
    }

    #[test]
    fn remove_camera_matches_fresh_network() {
        let mut cams = Vec::new();
        for i in 0..30 {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            // Heterogeneous radii so removals can shrink max_radius.
            let r = if i == 4 { 0.3 } else { 0.1 };
            cams.push(cam_at(x, y, (i as f64 * 1.1) % (2.0 * PI), r, PI));
        }
        let mut net = CameraNetwork::new(Torus::unit(), cams.clone());
        assert!(!net.remove_camera(30), "out of range must be rejected");
        assert!(net.remove_camera(4)); // drops the widest camera
        cams.remove(4);
        let fresh = CameraNetwork::new(Torus::unit(), cams.clone());
        assert_eq!(net.len(), fresh.len());
        assert!((net.max_radius() - 0.1).abs() < 1e-15);
        for j in 0..25 {
            let p = Point::new((j as f64 * 0.7548) % 1.0, (j as f64 * 0.5698) % 1.0);
            assert_eq!(net.coverage_count(p), fresh.coverage_count(p), "at {p}");
        }
        // Removing everything leaves a queryable empty network.
        while !net.is_empty() {
            assert!(net.remove_camera(0));
        }
        assert_eq!(net.coverage_count(Point::new(0.5, 0.5)), 0);
    }

    #[test]
    fn move_camera_matches_fresh_network() {
        let mut cams = vec![
            cam_at(0.2, 0.2, 0.0, 0.15, PI),
            cam_at(0.8, 0.8, PI, 0.15, PI),
        ];
        let mut net = CameraNetwork::new(Torus::unit(), cams.clone());
        assert!(!net.move_camera(2, Point::new(0.5, 0.5)));
        // Move across the seam: the position must wrap into the domain.
        assert!(net.move_camera(0, Point::new(1.45, -0.25)));
        cams[0] = cam_at(0.45, 0.75, 0.0, 0.15, PI);
        let fresh = CameraNetwork::new(Torus::unit(), cams);
        let moved = net.cameras()[0].position();
        assert!((moved.x - 0.45).abs() < 1e-12 && (moved.y - 0.75).abs() < 1e-12);
        for j in 0..25 {
            let p = Point::new((j as f64 * 0.7548) % 1.0, (j as f64 * 0.5698) % 1.0);
            assert_eq!(net.coverage_count(p), fresh.coverage_count(p), "at {p}");
        }
    }

    #[test]
    fn brute_force_agreement_on_random_layout() {
        // Deterministic pseudo-random layout (no RNG dependency here).
        let t = Torus::unit();
        let mut cams = Vec::new();
        for i in 0..200 {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = (i as f64 * 2.399_963) % (2.0 * PI);
            let r = 0.05 + 0.1 * ((i % 7) as f64 / 7.0);
            cams.push(cam_at(x, y, facing, r, PI / 2.0));
        }
        let net = CameraNetwork::new(t, cams.clone());
        for j in 0..50 {
            let p = Point::new((j as f64 * 0.7548) % 1.0, (j as f64 * 0.5698) % 1.0);
            let brute = cams.iter().filter(|c| c.covers(&t, p)).count();
            assert_eq!(net.coverage_count(p), brute, "point {p}");
        }
    }
}
