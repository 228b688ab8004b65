//! # fullview-sim
//!
//! Monte-Carlo simulation engine for the full-view coverage experiments:
//!
//! * [`run_proportion`] / [`run_mean`] / [`run_trials_map`] — parallel,
//!   deterministic trial execution (per-trial seeds derived from a master
//!   seed, results independent of thread count);
//! * [`ProportionEstimate`] / [`MeanEstimate`] — estimators with Wilson
//!   intervals and Welford accumulation;
//! * [`erf`] / [`standard_normal_cdf`] — the normal tail behind the
//!   experiments' z statistics (the §VI-A "sensing area is decisive"
//!   comparison takes a Welch z on trial means);
//! * [`evaluate_grid_parallel`] / [`evaluate_dense_grid_parallel`] —
//!   re-exported from `fullview_core`, whose tile and worker loops share
//!   one dense-grid sweep across threads, bit-identical to the serial
//!   `fullview_core::evaluate_grid` for any thread count; the trial
//!   runner shares trials through the same worker loop;
//! * [`linspace`] / [`logspace`] / [`logspace_counts`] — sweep grids;
//! * [`Table`] and [`asciiplot`] — the tabular and figure output of every
//!   experiment binary;
//! * [`with_random_failures`] — fault injection for the robustness
//!   extension.
//!
//! # Example
//!
//! ```
//! use fullview_sim::{run_proportion, RunConfig};
//! use fullview_deploy::deploy_uniform;
//! use fullview_geom::{Point, Torus};
//! use fullview_core::{is_full_view_covered, EffectiveAngle};
//! use fullview_model::{NetworkProfile, SensorSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::f64::consts::PI;
//!
//! // P(the centre point is full-view covered) over random deployments.
//! let profile = NetworkProfile::homogeneous(SensorSpec::new(0.2, PI)?);
//! let theta = EffectiveAngle::new(PI / 3.0)?;
//! let est = run_proportion(RunConfig::new(64).with_seed(11), |seed| {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     let net = deploy_uniform(Torus::unit(), &profile, 200, &mut rng).expect("valid profile");
//!     is_full_view_covered(&net, Point::new(0.5, 0.5), theta)
//! });
//! assert_eq!(est.trials(), 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asciiplot;
mod estimate;
mod failure;
mod histogram;
mod runner;
mod stats;
mod sweep;
mod table;

pub use estimate::{MeanEstimate, ProportionEstimate};
pub use failure::with_random_failures;
pub use fullview_core::{evaluate_dense_grid_parallel, evaluate_grid_parallel};
pub use histogram::Histogram;
pub use runner::{run_mean, run_proportion, run_trials_map, RunConfig};
pub use stats::{erf, standard_normal_cdf};
pub use sweep::{linspace, logspace, logspace_counts};
pub use table::{fmt_g, Table};
