//! # fullview-geom
//!
//! Geometry substrate for full-view coverage analysis of camera sensor
//! networks (Wu & Wang, ICDCS 2012).
//!
//! This crate provides the primitives that every coverage predicate in the
//! reproduction reduces to:
//!
//! * [`Angle`] — normalized directions with circular distance and
//!   counter-clockwise deltas;
//! * [`Arc`] / [`ArcSet`] — circular arcs and exact unions of arcs, used to
//!   represent safe-direction sets and the sector partitions of the paper's
//!   §III/§IV constructions;
//! * [`Point`] and [`Torus`] — the toroidal unit-square operational region
//!   with minimal-image displacement, distance and direction;
//! * [`Sector`] — the binary sector sensing region of the paper's camera
//!   model;
//! * [`UnitGrid`], [`square_lattice`], [`triangular_lattice`] — the dense
//!   evaluation grid and deterministic deployment lattices;
//! * [`SpatialGrid`] — torus-aware spatial hashing for fast "cameras near
//!   this point" queries.
//!
//! # Example
//!
//! Check whether a set of viewed directions protects every facing
//! direction within effective angle `θ`:
//!
//! ```
//! use fullview_geom::{Angle, ArcSet};
//! use std::f64::consts::PI;
//!
//! let theta = PI / 3.0;
//! let viewed = [0.0f64, 1.8, 3.5, 5.2].map(Angle::new);
//! let safe = ArcSet::from_centered_arcs(viewed, theta);
//! assert!(safe.covers_circle());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod angle;
mod arc;
mod arcset;
mod index;
mod lattice;
mod point;
mod sector;
mod torus;

pub use angle::{circular_distance, normalize_radians, Angle, ANGLE_EPS};
pub use arc::{Arc, SegmentPair};
pub use arcset::ArcSet;
pub use index::SpatialGrid;
pub use lattice::{square_lattice, triangular_lattice, UnitGrid};
pub use point::Point;
pub use sector::Sector;
pub use torus::Torus;
