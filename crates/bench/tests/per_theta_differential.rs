//! The whole-fleet per-θ differential of the screened sweeps, on the bench
//! fleet (1000 cameras, s_c = 0.05, 64² grid): every point's flag byte and
//! its k = 1, 2, 3 verdicts from the default sweeps — the mask screen,
//! stage 2's gathered directions and the cursor rescan — equal the exact
//! analyzer's, computed point by point through the whole network, at
//! θ = π, π/2, π/4, 0.5 (a ragged extra sector in both partitions), π/8
//! and π/16, where the screen leaves the most points to the exact
//! predicates. In a debug build the kernel also checks every sector it
//! bins from a direction's estimate against the real direction.

use fullview_bench::bench_network;
use fullview_core::{
    use_tiled, view_multiplicity, EffectiveAngle, FlagBits, GridEvaluator, KBit, PointByte,
};
use fullview_geom::{Angle, Torus, UnitGrid};
use fullview_model::CameraNetwork;
use std::f64::consts::PI;

/// The differential at one θ.
fn check_theta(net: &CameraNetwork, grid: &UnitGrid, t: f64) {
    let theta = EffectiveAngle::new(t).expect("valid θ");
    let len = grid.len();
    let mut flags = vec![None; len];
    FlagBits::new(Angle::ZERO).sweep(net, grid, theta, 0, len, &mut |idx, f| {
        flags[idx] = Some(f.to_byte());
    });
    let mut k_met = vec![[None; 3]; len];
    for k in 1..=3 {
        KBit::new(k).sweep(net, grid, theta, 0, len, &mut |idx, met| {
            k_met[idx][k - 1] = Some(met);
        });
    }
    let mut exact = GridEvaluator::new_exact(theta, Angle::ZERO);
    for idx in 0..len {
        let p = grid.point(idx);
        let want = exact.point_flags_with(net, p).to_byte();
        assert_eq!(flags[idx], Some(want), "θ={t} idx {idx} flags");
        let multiplicity = view_multiplicity(net, p, theta);
        let want_k = [1, 2, 3].map(|k| Some(multiplicity >= k));
        assert_eq!(k_met[idx], want_k, "θ={t} idx {idx} k = 1, 2, 3");
    }
}

#[test]
fn screened_sweeps_match_exact_per_point_at_every_theta() {
    let net = bench_network(1000, 0.05, 7);
    let grid = UnitGrid::new(Torus::unit(), 64);
    assert!(
        use_tiled(&net, &grid),
        "the sweeps must take the tiled screen"
    );
    // One thread per θ: the six differentials are independent.
    std::thread::scope(|s| {
        for t in [PI, PI / 2.0, PI / 4.0, 0.5, PI / 8.0, PI / 16.0] {
            let (net, grid) = (&net, &grid);
            s.spawn(move || check_theta(net, grid, t));
        }
    });
}
