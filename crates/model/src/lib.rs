//! # fullview-model
//!
//! The camera sensor model of Wu & Wang's full-view coverage paper
//! (ICDCS 2012), §II:
//!
//! * [`SensorSpec`] — the binary sector sensing parameters `(r, φ)` and the
//!   derived sensing area `s = φ r² / 2`;
//! * [`Camera`] — a deployed sensor: position, fixed orientation, spec, and
//!   heterogeneous [`GroupId`];
//! * [`NetworkProfile`] — the heterogeneous composition `G_1..G_u` with
//!   fractions `c_y`, and the paper's centralized weighted sensing area
//!   `s_c = Σ c_y s_y`;
//! * [`CameraNetwork`] — a deployed network with spatially-indexed
//!   "who covers this point" queries, the substrate every coverage
//!   algorithm in `fullview-core` runs on.
//!
//! # Example
//!
//! ```
//! use fullview_geom::{Angle, Point, Torus};
//! use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
//! use std::f64::consts::PI;
//!
//! // A heterogeneous fleet: 60% wide short-range, 40% narrow long-range.
//! let profile = NetworkProfile::builder()
//!     .group(SensorSpec::new(0.08, PI / 2.0)?, 0.6)
//!     .group(SensorSpec::new(0.16, PI / 8.0)?, 0.4)
//!     .build()?;
//! let counts = profile.counts(1000);
//! assert_eq!(counts.iter().sum::<usize>(), 1000);
//!
//! // Networks are built from deployed cameras (see `fullview-deploy` for
//! // random deployment engines).
//! let cams = vec![Camera::new(
//!     Point::new(0.4, 0.5),
//!     Angle::ZERO,
//!     *profile.groups()[0].spec(),
//!     GroupId(0),
//! )];
//! let net = CameraNetwork::new(Torus::unit(), cams);
//! assert_eq!(net.coverage_count(Point::new(0.45, 0.5)), 1);
//! # Ok::<(), fullview_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod camera;
mod cursor;
mod error;
mod group;
mod io;
mod network;
mod spec;

pub use camera::{Camera, GroupId};
pub use cursor::{CoverageProvider, PinnedCamera, TileCursor};
pub use error::ModelError;
pub use group::{GroupProfile, NetworkProfile, NetworkProfileBuilder};
pub use io::{
    empirical_profile, network_from_text, network_to_text, network_to_text_exact,
    profile_from_text, profile_to_text, profile_to_text_exact, ParseNetworkError,
};
pub use network::CameraNetwork;
pub use spec::SensorSpec;
