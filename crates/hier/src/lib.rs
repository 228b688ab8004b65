//! # fullview-hier
//!
//! A hierarchical coarse-to-fine **coverage prover** layered above
//! `fullview-core`'s tile engine. A quadtree over the spatial-index
//! tiling computes conservative per-node bounds — minimum/maximum
//! wrapped camera distance over the node's rectangle and, per angular
//! sector, a conservative viewed-direction cone containment test — and
//! emits a certificate per node:
//!
//! * **`FullyCovered`** — every point of the rectangle provably passes
//!   all five coverage predicates (and, on the k-count path, provably
//!   reaches multiplicity `k`);
//! * **`Empty`** — no camera reaches any point of the rectangle;
//! * **`Boundary`** — undecided: recurse, and at the floor hand the
//!   surviving points to the exact/mask kernel through the *same*
//!   funnel the cold sweep uses
//!   ([`PointByte::evaluate_rect`](fullview_core::PointByte::evaluate_rect)).
//!
//! Interior nodes are proven without visiting a single grid point, so
//! the combined answer is **bit-identical** to a cold core
//! [`sweep`](fullview_core::PointByte::sweep) by construction — the
//! exact engine stays the oracle (differential tests pin this). What the
//! prover decided is reported as [`ProverStats`].
//!
//! [`Tier`] is the one switch between the prover and the core's
//! mask-screened walk, and [`Tier::sweep`] its one sweep over both
//! verdict kinds ([`Certified`]); the CLI and the daemon sweep through
//! it.
//!
//! ```
//! use fullview_core::EffectiveAngle;
//! use fullview_geom::{Angle, Point, Torus};
//! use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
//! use fullview_hier::Tier;
//! use std::f64::consts::PI;
//!
//! let torus = Torus::unit();
//! let spec = SensorSpec::new(0.2, PI)?;
//! // Deterministic low-discrepancy scatter of 40 cameras.
//! let cams: Vec<Camera> = (0..40)
//!     .map(|i| {
//!         let t = i as f64;
//!         let pos = Point::new((t * 0.618_034).fract(), (t * 0.381_966).fract());
//!         Camera::new(pos, Angle::new(t), spec, GroupId(0))
//!     })
//!     .collect();
//! let net = CameraNetwork::new(torus, cams);
//! let theta = EffectiveAngle::new(PI / 3.0)?;
//! let (mask, stats) = Tier::Hier.mask(&net, theta, 48, 0, 48 * 48);
//! assert_eq!(mask.len(), 48 * 48);
//! assert_eq!(stats.points_proved + stats.points_visited, 48 * 48);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounds;
mod prover;

pub use prover::{Certified, ProverStats};

use fullview_core::{
    coverage_glyphs_range_with, coverage_map_from_glyphs, evaluate_grid_parallel,
    full_view_mask_range_with, EffectiveAngle, FlagBits, GridCoverageReport,
};
use fullview_geom::{Angle, UnitGrid};
use fullview_model::CameraNetwork;

/// The evaluation tier of a dense-grid query — the one switch between
/// the core's mask-screened walk and the hierarchical prover. Both
/// answer bit-identically; they differ in cost and in the
/// [`ProverStats`] they report (all zero for [`Tier::Screened`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The core tile walk: sector-mask screen, exact fallback.
    Screened,
    /// The quadtree certificate prover above the same tile funnel.
    Hier,
}

impl Tier {
    /// [`Tier::Hier`] when `hier` is set (the `--hier` switch), else
    /// [`Tier::Screened`].
    #[must_use]
    pub fn from_hier(hier: bool) -> Self {
        if hier {
            Tier::Hier
        } else {
            Tier::Screened
        }
    }

    /// Calls `f(index, verdict)` exactly once for every grid index in
    /// `lo..hi` (tile order — key results by index), with the verdicts of
    /// the kind's core [`sweep`](fullview_core::PointByte::sweep) —
    /// [`FlagBits`]' five flags or [`KBit`](fullview_core::KBit)'s
    /// multiplicity test — and returns what the prover decided.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep<B: Certified>(
        self,
        net: &CameraNetwork,
        grid: &UnitGrid,
        theta: EffectiveAngle,
        holds: &B,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(usize, B::Verdict),
    ) -> ProverStats {
        match self {
            Tier::Screened => {
                holds.sweep(net, grid, theta, lo, hi, f);
                ProverStats::default()
            }
            Tier::Hier => prover::sweep(net, grid, theta, holds, lo, hi, f),
        }
    }

    /// The coverage-map glyphs of grid indices `lo..hi` on a `side × side`
    /// grid, byte-identical to [`fullview_core::coverage_glyphs_range`].
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`, `lo > hi`, or `hi > side²`.
    #[must_use]
    pub fn glyphs(
        self,
        net: &CameraNetwork,
        theta: EffectiveAngle,
        side: usize,
        lo: usize,
        hi: usize,
    ) -> (String, ProverStats) {
        assert!(side > 0, "map side must be positive");
        let grid = UnitGrid::new(*net.torus(), side);
        let mut stats = ProverStats::default();
        let glyphs = coverage_glyphs_range_with(lo, hi, |emit| {
            stats = self.sweep(net, &grid, theta, &FlagBits::new(Angle::ZERO), lo, hi, emit);
        });
        (glyphs, stats)
    }

    /// The full-view mask of grid indices `lo..hi` on a `side × side`
    /// grid, identical to [`fullview_core::full_view_mask_range`].
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`, `lo > hi`, or `hi > side²`.
    #[must_use]
    pub fn mask(
        self,
        net: &CameraNetwork,
        theta: EffectiveAngle,
        side: usize,
        lo: usize,
        hi: usize,
    ) -> (Vec<bool>, ProverStats) {
        assert!(side > 0, "grid side must be positive");
        let grid = UnitGrid::new(*net.torus(), side);
        let mut stats = ProverStats::default();
        let mask = full_view_mask_range_with(lo, hi, |emit| {
            stats = self.sweep(net, &grid, theta, &FlagBits::new(Angle::ZERO), lo, hi, emit);
        });
        (mask, stats)
    }

    /// The whole-grid [`GridCoverageReport`] of `grid`, identical to
    /// [`fullview_core::evaluate_grid`]. The screened tier shares the
    /// grid's tiles among up to `threads` workers
    /// ([`fullview_core::evaluate_grid_parallel`]; `0` = one per CPU); the
    /// prover ignores `threads` and runs on the calling thread.
    #[must_use]
    pub fn report(
        self,
        net: &CameraNetwork,
        grid: &UnitGrid,
        theta: EffectiveAngle,
        start_line: Angle,
        threads: usize,
    ) -> (GridCoverageReport, ProverStats) {
        if self == Tier::Screened {
            let report = evaluate_grid_parallel(net, theta, grid, start_line, threads);
            return (report, ProverStats::default());
        }
        let mut report = GridCoverageReport::default();
        let holds = FlagBits::new(start_line);
        let stats = self.sweep(net, grid, theta, &holds, 0, grid.len(), &mut |_, f| {
            report.record(&f);
        });
        (report, stats)
    }
}

/// Hier-backed counterpart of [`fullview_core::coverage_map_text`]: the
/// full rendered coverage map (legend plus `side` glyph rows),
/// byte-identical to the exact engine's, plus the prover stats.
///
/// # Panics
///
/// Panics if `side == 0`.
#[must_use]
pub fn coverage_map_text_hier(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    side: usize,
) -> (String, ProverStats) {
    let (glyphs, stats) = Tier::Hier.glyphs(net, theta, side, 0, side * side);
    (coverage_map_from_glyphs(side, &glyphs), stats)
}

/// Hier-backed counterpart of [`fullview_core::evaluate_grid`]: the
/// same [`GridCoverageReport`] tallies (identical report), plus the
/// prover stats.
#[must_use]
pub fn evaluate_grid_hier(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    grid: &UnitGrid,
    start_line: Angle,
) -> (GridCoverageReport, ProverStats) {
    Tier::Hier.report(net, grid, theta, start_line, 1)
}
