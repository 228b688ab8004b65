//! Deterministic lattice deployment — the comparator of §VII-C.
//!
//! Wang & Cao \[4\] achieve full-view coverage deterministically by placing
//! camera clusters on a triangular lattice. This module reproduces that
//! style of construction: at every vertex of a square or triangular
//! lattice, place a *fan* of `k` cameras with evenly spaced orientations,
//! so that every nearby point is seen from every surrounding vertex. With
//! spacing small enough relative to the sensing radius, the viewed
//! directions around any point become dense enough for full-view coverage
//! — the `lattice` experiment searches for that critical spacing using the
//! exact checker from `fullview-core`.

use crate::error::DeployError;
use crate::orientation::orientation_fan;
use fullview_geom::{square_lattice, triangular_lattice, Angle, Torus};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};

/// The lattice pattern used for deterministic deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatticeKind {
    /// Vertices on a square grid.
    Square,
    /// Vertices on a triangular (hexagonal-packing) lattice — the pattern
    /// of Wang & Cao \[4\].
    Triangular,
}

/// Configuration for a deterministic lattice deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeDeployment {
    /// Lattice pattern.
    pub kind: LatticeKind,
    /// Distance between adjacent lattice vertices.
    pub spacing: f64,
    /// Number of cameras in the orientation fan at each vertex.
    pub cameras_per_vertex: usize,
    /// Orientation of the first camera in each fan.
    pub fan_offset: Angle,
}

impl LatticeDeployment {
    /// A triangular lattice whose per-vertex fan is just wide enough for
    /// the fan to cover all directions given the angle of view `φ`:
    /// `k = ⌈2π/φ⌉` cameras per vertex.
    ///
    /// With this fan, any point within sensing range of a vertex is covered
    /// by at least one camera at that vertex, which is the property the
    /// full-view construction of \[4\] relies on.
    #[must_use]
    pub fn covering_fan(kind: LatticeKind, spacing: f64, spec: &SensorSpec) -> Self {
        let k = (std::f64::consts::TAU / spec.angle_of_view())
            .ceil()
            .max(1.0) as usize;
        LatticeDeployment {
            kind,
            spacing,
            cameras_per_vertex: k,
            fan_offset: Angle::ZERO,
        }
    }

    /// Deploys homogeneous cameras of the given `spec` on the lattice.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::EmptyOrientationFan`] if
    /// `cameras_per_vertex == 0` and [`DeployError::Model`] if the sensing
    /// radius does not fit the torus.
    pub fn deploy(&self, torus: Torus, spec: &SensorSpec) -> Result<CameraNetwork, DeployError> {
        if self.cameras_per_vertex == 0 {
            return Err(DeployError::EmptyOrientationFan);
        }
        NetworkProfile::homogeneous(*spec).check_fits_torus(torus.side())?;
        let vertices = match self.kind {
            LatticeKind::Square => square_lattice(&torus, self.spacing),
            LatticeKind::Triangular => triangular_lattice(&torus, self.spacing),
        };
        let fan = orientation_fan(self.cameras_per_vertex, self.fan_offset);
        let mut cameras = Vec::with_capacity(vertices.len() * fan.len());
        for v in vertices {
            for &orientation in &fan {
                cameras.push(Camera::new(v, orientation, *spec, GroupId(0)));
            }
        }
        Ok(CameraNetwork::new(torus, cameras))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::Point;
    use std::f64::consts::PI;

    fn spec() -> SensorSpec {
        SensorSpec::new(0.2, PI / 2.0).unwrap()
    }

    #[test]
    fn covering_fan_size() {
        let d = LatticeDeployment::covering_fan(LatticeKind::Square, 0.1, &spec());
        assert_eq!(d.cameras_per_vertex, 4); // ⌈2π/(π/2)⌉
        let narrow = SensorSpec::new(0.2, PI / 3.5).unwrap();
        let d = LatticeDeployment::covering_fan(LatticeKind::Square, 0.1, &narrow);
        assert_eq!(d.cameras_per_vertex, 7);
    }

    #[test]
    fn square_deploy_camera_count() {
        let d = LatticeDeployment {
            kind: LatticeKind::Square,
            spacing: 0.25,
            cameras_per_vertex: 4,
            fan_offset: Angle::ZERO,
        };
        let net = d.deploy(Torus::unit(), &spec()).unwrap();
        assert_eq!(net.len(), 16 * 4);
    }

    #[test]
    fn every_point_near_vertex_is_covered_with_covering_fan() {
        let d = LatticeDeployment::covering_fan(LatticeKind::Square, 0.2, &spec());
        let net = d.deploy(Torus::unit(), &spec()).unwrap();
        // Sample points: all are within sensing radius of some vertex, and
        // the fan guarantees at least one camera there sees them.
        for i in 0..10 {
            for j in 0..10 {
                let p = Point::new(i as f64 / 10.0 + 0.03, j as f64 / 10.0 + 0.06);
                assert!(net.coverage_count(p) >= 1, "uncovered point {p}");
            }
        }
    }

    #[test]
    fn triangular_deploys() {
        let d = LatticeDeployment {
            kind: LatticeKind::Triangular,
            spacing: 0.2,
            cameras_per_vertex: 4,
            fan_offset: Angle::ZERO,
        };
        let net = d.deploy(Torus::unit(), &spec()).unwrap();
        assert!(net.len() >= 4 * 20);
        assert_eq!(net.len() % 4, 0);
    }

    #[test]
    fn empty_fan_rejected() {
        let d = LatticeDeployment {
            kind: LatticeKind::Square,
            spacing: 0.2,
            cameras_per_vertex: 0,
            fan_offset: Angle::ZERO,
        };
        assert!(matches!(
            d.deploy(Torus::unit(), &spec()),
            Err(DeployError::EmptyOrientationFan)
        ));
    }

    #[test]
    fn oversized_radius_rejected() {
        let d = LatticeDeployment {
            kind: LatticeKind::Square,
            spacing: 0.2,
            cameras_per_vertex: 2,
            fan_offset: Angle::ZERO,
        };
        let huge = SensorSpec::new(0.9, PI).unwrap();
        assert!(matches!(
            d.deploy(Torus::unit(), &huge),
            Err(DeployError::Model(_))
        ));
    }
}
