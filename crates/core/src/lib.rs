//! # fullview-core
//!
//! The primary contribution of Wu & Wang, *"Achieving Full View Coverage
//! with Randomly-Deployed Heterogeneous Camera Sensors"* (ICDCS 2012),
//! implemented as a library:
//!
//! * **Definition 1 — full-view coverage.** Exact per-point checking via
//!   two independent algorithms ([`is_full_view_covered`] /
//!   [`is_full_view_covered_arcset`]), safe/unsafe direction analysis
//!   ([`safe_directions`], [`unsafe_directions`]).
//! * **§III / §IV — geometric conditions.** The `2θ`- and `θ`-sector
//!   partitions ([`SectorPartition`]) and per-point predicates
//!   ([`meets_necessary_condition`], [`meets_sufficient_condition`]).
//! * **Definition 2, Theorems 1 & 2 — critical sensing areas.**
//!   [`csa_necessary`], [`csa_sufficient`], the indeterminate band
//!   classifier [`classify_csa`], and the §VII related-work formulas
//!   ([`csa_one_coverage`], [`critical_esr`], [`kumar_k_coverage_area`]).
//! * **Eqs. (2)–(4), (13)–(15) — uniform-deployment probabilities.**
//!   [`prob_point_fails_necessary`], [`prob_point_fails_sufficient`],
//!   [`grid_failure_bounds`].
//! * **Theorems 3 & 4 — Poisson probabilities.**
//!   [`prob_point_meets_necessary_poisson`],
//!   [`prob_point_meets_sufficient_poisson`], with both the paper's
//!   truncated series ([`q_series`]) and the closed form
//!   ([`q_closed_form`]).
//! * **§III-A — dense-grid area coverage.** [`dense_grid`],
//!   [`evaluate_grid`], [`GridCoverageReport`].
//! * **§VII-B — k-coverage comparison.** [`is_k_covered`], [`implied_k`].
//! * **§VIII future work.** Barrier full-view coverage
//!   ([`barrier_full_view`]) and the probabilistic sensing extension
//!   ([`ProbabilisticModel`], [`is_full_view_covered_with_confidence`]).
//!
//! # Quick start
//!
//! ```
//! use fullview_core::{csa_sufficient, classify_csa, CsaRegime, EffectiveAngle};
//! use std::f64::consts::PI;
//!
//! // How much weighted sensing area does a 1000-camera uniform deployment
//! // need so a θ = π/4 full-view coverage is asymptotically guaranteed?
//! let theta = EffectiveAngle::new(PI / 4.0)?;
//! let s_needed = csa_sufficient(1000, theta);
//! assert_eq!(
//!     classify_csa(1.1 * s_needed, 1000, theta),
//!     CsaRegime::AboveSufficient
//! );
//! # Ok::<(), fullview_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod barrier;
pub mod canon;
mod conditions;
mod csa;
mod densegrid;
mod dependence;
mod design;
mod engine;
mod error;
mod exact;
mod fullview;
mod holes;
mod kcov;
mod kfullview;
mod mask;
pub mod numeric;
mod path;
mod poisson_theory;
mod probabilistic;
mod render;
mod temporal;
mod theta;
mod uniform_theory;

pub use barrier::{barrier_from_mask, barrier_full_view, BarrierReport};
pub use conditions::{
    cameras_sufficient, meets_necessary_condition, meets_sufficient_condition,
    min_cameras_necessary, ConditionKind, SectorPartition,
};
pub use csa::{
    classify_csa, critical_esr, csa_necessary, csa_one_coverage, csa_sufficient,
    kumar_k_coverage_area, CsaRegime,
};
pub use densegrid::{
    dense_grid, dense_grid_point_count, evaluate_dense_grid, evaluate_grid, GridCoverageReport,
    GridEvaluator, PointFlags,
};
pub use dependence::{
    independence_approximation_error, partition_is_disjoint, prob_point_meets_dependent,
};
pub use design::{
    max_cameras_below_necessary, min_cameras_for_guarantee, required_area_for_expected_fraction,
};
pub use engine::{
    sweep_flags_range, sweep_grid, use_tiled, ColdSweep, DirtySet, FlagBits, GridTiling,
    IncrementalSweep, KBit, KCountSweep, PointByte, SweepDelta, WarmGrid,
};
pub use error::CoreError;
pub use exact::{
    covering_count_pmf_poisson, covering_count_pmf_uniform, prob_point_full_view_poisson,
    prob_point_full_view_uniform, stevens_coverage_probability,
};
pub use fullview::{
    analyze_point, is_direction_safe, is_full_view_covered, is_full_view_covered_arcset,
    largest_circular_gap, safe_directions, safe_fraction, unsafe_directions, CoverageView,
    PointAnalyzer, PointCoverage,
};
pub use holes::{
    find_holes, full_view_mask_range, full_view_mask_range_with, holes_from_mask, CoverageMask,
    FullViewMask, Hole, HoleReport,
};
pub use kcov::{implied_k, is_k_covered, k_covered_fraction, min_coverage_over_grid};
pub use kfullview::{
    count_k_view_range, for_each_view_multiplicity, is_k_full_view_covered, min_arc_depth,
    prob_point_meets_necessary_k_poisson, sweep_k_range, view_multiplicity,
};
pub use mask::{PointVerdict, ScreenMode, ScreenStats, SectorMaskKernel};
pub use path::{evaluate_path, ExposedStretch, Path, PathCoverageReport};
pub use poisson_theory::{
    prob_point_meets, prob_point_meets_necessary_poisson, prob_point_meets_sufficient_poisson,
    q_closed_form, q_series, Condition,
};
pub use render::{
    coverage_glyphs_range, coverage_glyphs_range_with, coverage_map_from_glyphs, coverage_map_text,
    hole_report_text, kfull_text, MAP_GLYPHS,
};

pub use probabilistic::{
    confident_covered_fraction, confident_point_coverage, confident_point_coverage_with,
    is_full_view_covered_with_confidence, ProbabilisticModel,
};
pub use temporal::{always_full_view, eventually_full_view, fraction_of_time_full_view};
pub use theta::EffectiveAngle;
pub use uniform_theory::{
    expected_necessary_fraction, expected_sufficient_fraction, grid_failure_bounds,
    prob_point_fails_necessary, prob_point_fails_sufficient, sector_miss_probability_necessary,
    sector_miss_probability_sufficient, GridFailureBounds,
};
