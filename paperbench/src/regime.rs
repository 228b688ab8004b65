//! The paper's regime: fleet size, effective angle, CSAs, the §VI
//! heterogeneous mix, and the seeded request script.

use fullview_core::{csa_necessary, csa_sufficient, EffectiveAngle};
use fullview_deploy::derive_seed;
use fullview_geom::Point;
use fullview_model::{CameraNetwork, NetworkProfile};

/// Problem sizes of one run. [`Scale::paper`] is what the benchmark
/// measures; [`Scale::toy`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Cameras per fleet.
    pub n: usize,
    /// The hier map's side as a multiple of the dense grid's side.
    pub map_factor: usize,
    /// Tiles timed through the exact analyzer (traced run).
    pub exact_tiles: usize,
    /// `holes grid=` and `map side=` of `serve_churn`.
    pub serve_side: usize,
    /// `holes grid=`, `map side=` and `kfull grid=` of `cluster_scatter`.
    pub cluster_side: usize,
    /// `kfull k=` of `cluster_scatter`.
    pub kfull_k: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fleets `paper_check` measures at least.
    pub min_fleets: usize,
    /// Rounds the serving workloads measure at least.
    pub min_rounds: usize,
}

impl Scale {
    /// The measured size: n = 10⁴ cameras, a 304² dense grid.
    #[must_use]
    pub fn paper() -> Self {
        Scale {
            n: 10_000,
            map_factor: 4,
            exact_tiles: 2,
            serve_side: 64,
            cluster_side: 96,
            kfull_k: 2,
            setups: 7,
            min_fleets: 3,
            min_rounds: 20,
        }
    }

    /// A toy size for tests (about a second per workload).
    #[must_use]
    pub fn toy() -> Self {
        Scale {
            n: 600,
            map_factor: 2,
            exact_tiles: 1,
            serve_side: 16,
            cluster_side: 20,
            kfull_k: 2,
            setups: 1,
            min_fleets: 2,
            min_rounds: 4,
        }
    }
}

/// θ = π/4, the evaluation's effective angle.
#[must_use]
pub fn theta() -> EffectiveAngle {
    fullview_experiments::standard_theta()
}

/// Theorem 2's sufficient CSA s_Sc(n): full view is asymptotically sure.
#[must_use]
pub fn sufficient_csa(n: usize) -> f64 {
    csa_sufficient(n, theta())
}

/// Half of Theorem 1's necessary CSA s_Nc(n): holes are sure.
#[must_use]
pub fn below_necessary_csa(n: usize) -> f64 {
    csa_necessary(n, theta()) / 2.0
}

/// The §VI reference mix (50% φ=π, 30% φ=π/2, 20% φ=π/4) at `s_c`.
#[must_use]
pub fn profile(s_c: f64) -> NetworkProfile {
    fullview_experiments::heterogeneous_profile(s_c)
}

/// The fleet a daemon started with `n` and `seed` deploys.
#[must_use]
pub fn fleet(profile: &NetworkProfile, n: usize, seed: u64) -> CameraNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    fullview_deploy::deploy_uniform(fullview_geom::Torus::unit(), profile, n, &mut rng)
        .expect("the reference mix fits the unit torus at these sizes")
}

/// Seed streams derived from the workload seed.
const FLEET_STREAM: u64 = 0x0F1E_E700;
const SCRIPT_STREAM: u64 = 0x5C21_9700;

/// The deployment seed of fleet `i` of a run.
#[must_use]
pub fn fleet_seed(seed: u64, i: u64) -> u64 {
    derive_seed(derive_seed(seed, FLEET_STREAM), i)
}

/// One scripted `move`: camera `id` to `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// Camera index.
    pub id: usize,
    /// Target x in `[0, 1)`.
    pub x: f64,
    /// Target y in `[0, 1)`.
    pub y: f64,
}

impl Move {
    /// The `move` request line; `{}` prints the shortest decimal that
    /// parses back to the same `f64`, so daemon and mirror agree exactly.
    #[must_use]
    pub fn request(&self) -> String {
        format!("move id={} x={} y={}", self.id, self.x, self.y)
    }

    /// The target point.
    #[must_use]
    pub fn to(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// Round `r`'s move for a fleet of `n` cameras.
#[must_use]
pub fn move_at(seed: u64, n: usize, r: u64) -> Move {
    let h = derive_seed(derive_seed(seed, SCRIPT_STREAM), r);
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    Move {
        id: (h % n as u64) as usize,
        x: unit(derive_seed(h, 1)),
        y: unit(derive_seed(h, 2)),
    }
}

/// Which rows of a `side × side` grid may hold points within `radius`
/// of one of `centers` (with one row of margin). A move changes coverage
/// only inside the moved camera's old and new sensing disks, so these are
/// the only rows a mirror has to re-render.
#[must_use]
pub fn rows_near(net: &CameraNetwork, centers: &[Point], radius: f64, side: usize) -> Vec<bool> {
    let len = net.torus().side();
    let step = len / side as f64;
    (0..side)
        .map(|j| {
            let y = (j as f64 + 0.5) * step;
            centers.iter().any(|c| {
                let d = (y - net.torus().wrap(*c).y).abs();
                d.min(len - d) <= radius + step
            })
        })
        .collect()
}
