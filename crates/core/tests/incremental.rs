//! Differential proptest harness for the incremental dirty-tile engine.
//!
//! Random interleavings of `fail`/`move`/`reseed` mutations and repair
//! points drive a warm flags state ([`IncrementalSweep`]) and warm
//! k-count states ([`KCountSweep`], k ∈ {1, 2, 3}) exactly as the
//! service layer does. After every repair each state must answer
//! **bit-identically** to the one-shot library calls over the mutated
//! network — the report, the full-view mask, glyphs and k-counts over a
//! random index range — the tentpole invariant of the engine. The
//! deterministic cases at the bottom pin interleavings that exercise each
//! repair path (PR 1 triage pattern: pinned seeds outlive the runner).

use fullview_core::{
    count_k_view_range, coverage_glyphs_range, evaluate_grid, full_view_mask_range, EffectiveAngle,
    IncrementalSweep, KCountSweep,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{CameraNetwork, NetworkProfile, SensorSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

/// One step of a mutation/query interleaving. Indices, coordinates and
/// range ends are raw random draws; `run_sequence` folds them into valid
/// arguments against the current fleet and grid so every generated
/// sequence is executable.
#[derive(Debug, Clone)]
enum Op {
    /// Remove the camera at `raw % len` (skipped on an empty fleet).
    Fail(usize),
    /// Move the camera at `raw % len` to `(x, y)`.
    Move(usize, f64, f64),
    /// Replace the fleet with a fresh `n`-camera deployment from `seed` —
    /// the geometry-changing mutation the repair must detect.
    Reseed(u64, usize),
    /// A query arrives: repair incrementally and check every state
    /// against the library, reading ranges cut at the two raw ends.
    Repair(usize, usize),
}

/// Weighted op mix (the vendored proptest has no `prop_oneof!`): 3/12
/// fail, 4/12 move, 1/12 reseed, 4/12 repair.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..12u32,
        0..1_000_000usize,
        0.0..1.0f64,
        0.0..1.0f64,
        0..1_000_000u64,
        20..120usize,
    )
        .prop_map(|(kind, raw, x, y, seed, n)| match kind {
            0..=2 => Op::Fail(raw),
            3..=6 => Op::Move(raw, x, y),
            7 => Op::Reseed(seed, n),
            _ => Op::Repair(raw, seed as usize),
        })
}

fn profile() -> NetworkProfile {
    NetworkProfile::builder()
        .group(SensorSpec::new(0.09, PI / 2.0).unwrap(), 0.6)
        .group(SensorSpec::new(0.16, PI / 3.0).unwrap(), 0.4)
        .build()
        .unwrap()
}

fn deploy(seed: u64, n: usize) -> CameraNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), &profile(), n, &mut rng).unwrap()
}

/// The multiplicity thresholds every sequence drives a k-count state for.
const KS: [usize; 3] = [1, 2, 3];

/// Checks every warm state against one-shot library calls over `net`:
/// the flags state's report and full-view mask over the whole grid, its
/// glyphs over `lo..hi`, and each k-count state over the whole grid and
/// over `lo..hi`.
fn assert_matches_library(
    flags: &IncrementalSweep,
    counts: &[KCountSweep],
    net: &CameraNetwork,
    (lo, hi): (usize, usize),
    ctx: &str,
) {
    let (theta, side) = (flags.theta(), flags.grid_side());
    let grid = UnitGrid::new(*net.torus(), side);
    let len = grid.len();
    assert_eq!(
        flags.report(),
        &evaluate_grid(net, theta, &grid, Angle::ZERO),
        "{ctx}: report drifted"
    );
    assert!(
        flags
            .mask()
            .iter()
            .eq(full_view_mask_range(net, theta, side, 0, len)),
        "{ctx}: mask drifted"
    );
    assert_eq!(
        flags.glyphs(lo, hi),
        coverage_glyphs_range(net, theta, side, lo, hi),
        "{ctx}: glyphs {lo}..{hi} drifted"
    );
    for state in counts {
        let k = state.k();
        for (a, b) in [(0, len), (lo, hi)] {
            assert_eq!(
                state.count(a, b),
                count_k_view_range(net, &grid, theta, k, a, b),
                "{ctx}: k={k} count over {a}..{b} drifted"
            );
        }
    }
}

/// Applies an op sequence, marking dirt in every state exactly as the
/// service layer does, and checks them at every repair point and at the
/// end.
fn run_sequence(seed: u64, n0: usize, grid_side: usize, theta: EffectiveAngle, ops: &[Op]) {
    let mut net = deploy(seed, n0);
    let mut flags = IncrementalSweep::new(&net, theta, Angle::ZERO, grid_side);
    let mut counts: Vec<KCountSweep> = KS
        .iter()
        .map(|&k| KCountSweep::new(&net, theta, k, grid_side))
        .collect();
    let len = grid_side * grid_side;
    let mark = |flags: &mut IncrementalSweep, counts: &mut [KCountSweep], at: Point, r: f64| {
        flags.mark_disk(at, r);
        counts.iter_mut().for_each(|state| state.mark_disk(at, r));
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Fail(raw) => {
                if net.is_empty() {
                    continue;
                }
                let id = raw % net.len();
                let victim = net.cameras()[id];
                assert!(net.remove_camera(id));
                mark(
                    &mut flags,
                    &mut counts,
                    victim.position(),
                    victim.spec().radius(),
                );
            }
            Op::Move(raw, x, y) => {
                if net.is_empty() {
                    continue;
                }
                let id = raw % net.len();
                let cam = net.cameras()[id];
                let to = Point::new(x, y);
                assert!(net.move_camera(id, to));
                mark(&mut flags, &mut counts, cam.position(), cam.spec().radius());
                mark(&mut flags, &mut counts, to, cam.spec().radius());
            }
            Op::Reseed(s, n) => {
                net = deploy(s, n);
                flags.invalidate();
                counts.iter_mut().for_each(KCountSweep::invalidate);
            }
            Op::Repair(a, b) => {
                let delta = flags.resweep_dirty(&net);
                assert_eq!(
                    &delta.after,
                    flags.report(),
                    "step {step}: delta/report mismatch"
                );
                for state in &mut counts {
                    let delta = state.resweep_dirty(&net);
                    assert_eq!(delta.after, state.count(0, len), "step {step}: k delta");
                }
                let (a, b) = (a % (len + 1), b % (len + 1));
                let range = (a.min(b), a.max(b));
                assert_matches_library(&flags, &counts, &net, range, &format!("step {step}"));
            }
        }
    }
    flags.resweep_dirty(&net);
    counts.iter_mut().for_each(|state| {
        state.resweep_dirty(&net);
    });
    assert_matches_library(&flags, &counts, &net, (len / 3, len), "final");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_stay_bit_identical(
        seed in 0..1_000_000u64,
        n0 in 10..100usize,
        grid_side in 8..32usize,
        theta_frac in 0.15..0.95f64,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let theta = EffectiveAngle::new(theta_frac * PI).unwrap();
        run_sequence(seed, n0, grid_side, theta, &ops);
    }
}

// ---------- pinned deterministic interleavings ----------

/// Raw range ends for the pinned repairs: folded per grid, they cut
/// mid-row and mid-tile.
const REPAIR_LO: usize = 1_234_567;
const REPAIR_HI: usize = 7_654_321;

/// Every mutation kind back-to-back with no intermediate repair, so one
/// repair digests fail + move dirt and then a reseed forces the rebuild
/// path on the next.
#[test]
fn pinned_fail_move_then_reseed() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    run_sequence(
        7,
        60,
        24,
        theta,
        &[
            Op::Fail(13),
            Op::Move(5, 0.91, 0.02),
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Reseed(99, 35),
            Op::Move(2, 0.5, 0.5),
            Op::Repair(REPAIR_LO, REPAIR_HI),
        ],
    );
}

/// Shrink a fleet to empty through repeated failures: the index keeps its
/// original geometry while the mask drains to all-false.
#[test]
fn pinned_drain_to_empty_fleet() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let mut ops: Vec<Op> = Vec::new();
    for i in 0..20 {
        ops.push(Op::Fail(i * 3));
        if i % 4 == 0 {
            ops.push(Op::Repair(REPAIR_LO, REPAIR_HI));
        }
    }
    run_sequence(3, 15, 12, theta, &ops);
}

/// Seam-hugging moves with a wide-radius profile: the dirty window wraps
/// every torus seam and may degrade to mark_all.
#[test]
fn pinned_seam_and_wide_radius_moves() {
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    run_sequence(
        11,
        25,
        16,
        theta,
        &[
            Op::Move(0, 0.999, 0.001),
            Op::Move(1, 0.0, 0.0),
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Move(2, 0.001, 0.999),
            Op::Repair(REPAIR_LO, REPAIR_HI),
        ],
    );
}

/// Reseed into a much denser fleet (different cell geometry) and keep
/// mutating afterwards — the rebuilt tiling must accept incremental dirt.
#[test]
fn pinned_reseed_then_incremental_again() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    run_sequence(
        21,
        20,
        28,
        theta,
        &[
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Reseed(5, 110),
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Move(17, 0.25, 0.75),
            Op::Fail(4),
            Op::Repair(REPAIR_LO, REPAIR_HI),
        ],
    );
}
