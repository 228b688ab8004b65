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
//!   [`GridEvaluator`](fullview_core::GridEvaluator) funnel the cold
//!   sweep uses.
//!
//! Interior nodes are proven without visiting a single grid point, so
//! the combined answer is **bit-identical** to a cold
//! [`fullview_core::sweep_flags_range`] by construction — the exact
//! engine stays the oracle (differential tests pin this). What the
//! prover decided is reported as [`ProverStats`].
//!
//! [`Tier`] is the one switch between the prover and the core's
//! mask-screened walk; the CLI and the daemon sweep through it.
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

pub use prover::{
    count_k_view_range_hier, sweep_flags_range_hier, sweep_k_range_hier, ProverStats,
};

use fullview_core::{
    coverage_glyphs_range_with, coverage_map_from_glyphs, evaluate_grid_parallel,
    full_view_mask_range_with, sweep_flags_range, sweep_k_range, EffectiveAngle,
    GridCoverageReport, PointFlags,
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

    /// Calls `f(index, flags)` exactly once for every grid index in
    /// `lo..hi` (tile order — key results by index), with the flags of
    /// [`fullview_core::sweep_flags_range`], and returns what the prover
    /// decided.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_flags(
        self,
        net: &CameraNetwork,
        grid: &UnitGrid,
        theta: EffectiveAngle,
        start_line: Angle,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(usize, PointFlags),
    ) -> ProverStats {
        match self {
            Tier::Screened => {
                sweep_flags_range(net, grid, theta, start_line, lo, hi, f);
                ProverStats::default()
            }
            Tier::Hier => sweep_flags_range_hier(net, grid, theta, start_line, lo, hi, f),
        }
    }

    /// Calls `f(index, met)` exactly once for every grid index in
    /// `lo..hi` (tile order — key results by index), where `met` is
    /// [`fullview_core::sweep_k_range`]'s verdict (view multiplicity at
    /// least `k`), and returns what the prover decided.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > grid.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_k(
        self,
        net: &CameraNetwork,
        grid: &UnitGrid,
        theta: EffectiveAngle,
        k: usize,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(usize, bool),
    ) -> ProverStats {
        match self {
            Tier::Screened => {
                sweep_k_range(net, grid, theta, k, lo, hi, f);
                ProverStats::default()
            }
            Tier::Hier => sweep_k_range_hier(net, grid, theta, k, lo, hi, f),
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
            stats = self.sweep_flags(net, &grid, theta, Angle::ZERO, lo, hi, emit);
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
            stats = self.sweep_flags(net, &grid, theta, Angle::ZERO, lo, hi, emit);
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
        let stats = self.sweep_flags(net, grid, theta, start_line, 0, grid.len(), &mut |_, f| {
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
