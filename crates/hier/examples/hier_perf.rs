//! The hierarchical prover against the screened core sweep, in two tables:
//!
//! * grid-side rows: a dense omnidirectional low-discrepancy fleet (420
//!   cameras, r = 0.12, θ = π/3) from side 128 to 2048, plus the same
//!   fleet directional (φ = π) at side 1024;
//! * the θ × φ ledger: homogeneous fleets of n = 10⁴ uniformly deployed
//!   cameras, each with the §VI mix's weighted sensing area at Theorem 2's
//!   CSA for θ = π/4, on the 304² dense grid, for θ ∈ {π/16, π/8, π/4,
//!   π/2, π} × φ ∈ {π/4, π/2, π, 2π}. Each cell times the screened report
//!   and the hier report on one thread and asserts them equal.
//!
//! Run with `cargo run --release --example hier_perf -p fullview-hier`.

use fullview_core::{csa_sufficient, dense_grid, EffectiveAngle, FlagBits, PointByte};
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_hier::Tier;
use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};
use std::time::Instant;

fn dense_network(n: usize, radius: f64, aov: f64) -> CameraNetwork {
    let torus = Torus::unit();
    let spec = SensorSpec::new(radius, aov).unwrap();
    let cams: Vec<Camera> = (0..n)
        .map(|i| {
            let t = i as f64;
            let pos = Point::new(
                (t * 0.754_877_666_246_693).fract(),
                (t * 0.569_840_290_998_053 + 0.137).fract(),
            );
            Camera::new(pos, Angle::new(t * 2.399_963), spec, GroupId(i % 3))
        })
        .collect();
    CameraNetwork::new(torus, cams)
}

/// `n` cameras of sensing area `area` and angle of view `aov`, uniformly
/// placed and oriented (the same draws for every `aov`).
fn uniform_network(n: usize, area: f64, aov: f64) -> CameraNetwork {
    let spec = SensorSpec::with_sensing_area(area, aov).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let cams: Vec<Camera> = (0..n)
        .map(|_| {
            let pos = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            Camera::new(pos, Angle::new(rng.gen_range(0.0..TAU)), spec, GroupId(0))
        })
        .collect();
    CameraNetwork::new(Torus::unit(), cams)
}

fn grid_side_rows() {
    for (n, r, aov, side) in [
        (420usize, 0.12f64, TAU, 128usize),
        (420, 0.12, TAU, 256),
        (420, 0.12, TAU, 512),
        (420, 0.12, TAU, 1024),
        (420, 0.12, TAU, 2048),
        (420, 0.12, PI, 1024),
    ] {
        let net = dense_network(n, r, aov);
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let grid = UnitGrid::new(Torus::unit(), side);
        let holds = FlagBits::new(Angle::ZERO);
        let t0 = Instant::now();
        let mut acc = 0usize;
        holds.sweep(&net, &grid, theta, 0, grid.len(), &mut |_, f| {
            acc += usize::from(f.full_view);
        });
        let mask_t = t0.elapsed();
        let t1 = Instant::now();
        let mut acc2 = 0usize;
        let stats = Tier::Hier.sweep(&net, &grid, theta, &holds, 0, grid.len(), &mut |_, f| {
            acc2 += usize::from(f.full_view);
        });
        let hier_t = t1.elapsed();
        assert_eq!(acc, acc2);
        println!(
            "n={n} r={r} aov={aov:.2} side={side}: mask {:?}  hier {:?}  speedup {:.2}x  [{stats}]",
            mask_t,
            hier_t,
            mask_t.as_secs_f64() / hier_t.as_secs_f64()
        );
    }
}

fn theta_phi_ledger() {
    let n = 10_000;
    let area = csa_sufficient(n, EffectiveAngle::new(PI / 4.0).unwrap());
    let grid = dense_grid(Torus::unit(), n);
    println!();
    println!(
        "θ × φ ledger: n = {n}, sensing area {area:.6}, {0}² grid",
        grid.side_count()
    );
    println!("| φ | r | θ | screened ms | hier ms | screened/hier | proved |");
    println!("|---|---|---|-------------|---------|---------------|--------|");
    for (phi_name, phi) in [("π/4", PI / 4.0), ("π/2", PI / 2.0), ("π", PI), ("2π", TAU)] {
        let net = uniform_network(n, area, phi);
        let r = net.cameras()[0].spec().radius();
        for (theta_name, div) in [
            ("π/16", 16.0),
            ("π/8", 8.0),
            ("π/4", 4.0),
            ("π/2", 2.0),
            ("π", 1.0),
        ] {
            let theta = EffectiveAngle::new(PI / div).unwrap();
            let t0 = Instant::now();
            let (screened, _) = Tier::Screened.report(&net, &grid, theta, Angle::ZERO, 1);
            let screened_t = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let (hier, stats) = Tier::Hier.report(&net, &grid, theta, Angle::ZERO, 1);
            let hier_t = t1.elapsed().as_secs_f64();
            assert_eq!(hier, screened, "φ = {phi_name}, θ = {theta_name}");
            println!(
                "| {phi_name} | {r:.4} | {theta_name} | {:.0} | {:.0} | {:.2}x | {:.3} |",
                screened_t * 1e3,
                hier_t * 1e3,
                screened_t / hier_t,
                stats.proved_fraction()
            );
        }
    }
}

fn main() {
    grid_side_rows();
    theta_phi_ledger();
}
