//! Differential proptest harness for the incremental dirty-rectangle
//! engine.
//!
//! Random interleavings of `fail`/`move`/`reseed` mutations — some moves
//! snapped onto index-cell corners, grid points and the torus seam — and
//! repair points drive a warm flags state ([`IncrementalSweep`]) and warm
//! k-count states ([`KCountSweep`], k ∈ {1, 2, 3}) exactly as the service
//! layer does, on fleets whose radii are arbitrary, a multiple of the
//! grid spacing, or a whole index cell. After every repair each state
//! must answer **bit-identically** to the one-shot library calls over the
//! mutated network — the report, the full-view mask, glyphs and k-counts
//! over a random index range — the tentpole invariant of the engine. The
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
    /// Move the camera at `raw % len` onto a spot where a disk's box
    /// bounds sit exactly on cell edges or grid lines: the one
    /// [`snap_point`] picks from `(spot, a, b)`.
    Snap(usize, usize, usize, usize),
    /// Replace the fleet with a fresh `n`-camera deployment from `seed` —
    /// the geometry-changing mutation the repair must detect.
    Reseed(u64, usize),
    /// A query arrives: repair incrementally and check every state
    /// against the library, reading ranges cut at the two raw ends.
    Repair(usize, usize),
}

/// Weighted op mix (the vendored proptest has no `prop_oneof!`): 3/14
/// fail, 4/14 move, 2/14 snap, 1/14 reseed, 4/14 repair.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..14u32,
        0..1_000_000usize,
        0.0..1.0f64,
        0.0..1.0f64,
        0..1_000_000u64,
        20..120usize,
    )
        .prop_map(|(kind, raw, x, y, seed, n)| match kind {
            0..=2 => Op::Fail(raw),
            3..=6 => Op::Move(raw, x, y),
            7..=8 => Op::Snap(raw, seed as usize, (x * 1e6) as usize, (y * 1e6) as usize),
            9 => Op::Reseed(seed, n),
            _ => Op::Repair(raw, seed as usize),
        })
}

/// The radii a sequence's fleets carry.
#[derive(Debug, Clone, Copy)]
enum Radii {
    /// 0.09 and 0.16, whatever the grid.
    Mixed,
    /// Two multiples of the grid spacing, near 0.1 and 0.16, so disk
    /// edges pass through grid lines.
    OnGrid,
    /// 0.125 and 0.0625: the index has 8 cells of length 0.125, so the
    /// wider group's radius equals the cell length.
    CellWide,
}

impl Radii {
    fn of(raw: usize) -> Radii {
        [Radii::Mixed, Radii::OnGrid, Radii::CellWide][raw % 3]
    }

    fn profile(self, grid_side: usize) -> NetworkProfile {
        let spacing = UnitGrid::new(Torus::unit(), grid_side).spacing();
        let on_grid = |m: usize| m.max(1) as f64 * spacing;
        let (a, b) = match self {
            Radii::Mixed => (0.09, 0.16),
            Radii::OnGrid => (on_grid(grid_side / 10), on_grid(grid_side / 6)),
            Radii::CellWide => (0.0625, 0.125),
        };
        NetworkProfile::builder()
            .group(SensorSpec::new(a, PI / 2.0).unwrap(), 0.6)
            .group(SensorSpec::new(b, PI / 3.0).unwrap(), 0.4)
            .build()
            .unwrap()
    }
}

fn deploy(profile: &NetworkProfile, seed: u64, n: usize) -> CameraNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), profile, n, &mut rng).unwrap()
}

/// The largest f64 below 1: the far side of the torus seam.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// Where a snapped move of a camera with sensing radius `radius` lands:
/// `spot % 4` picks an index-cell corner, a grid point, a point on the
/// torus seam (x = 0 or [`BELOW_ONE`], y on the seam, a grid line or a
/// cell edge), or one radius east of a grid point (the disk's edge
/// through it); `a` and `b` pick which.
fn snap_point(
    net: &CameraNetwork,
    grid_side: usize,
    spot: usize,
    a: usize,
    b: usize,
    radius: f64,
) -> Point {
    let grid = UnitGrid::new(*net.torus(), grid_side);
    let (cells, cell_len) = (net.index().cells_per_axis(), net.index().cell_len());
    let line = |i: usize| grid.point(i % grid_side).x;
    let edge = |i: usize| (i % cells) as f64 * cell_len;
    match spot % 4 {
        0 => Point::new(edge(a), edge(b)),
        1 => Point::new(line(a), line(b)),
        2 => {
            let x = [0.0, BELOW_ONE][a % 2];
            let y = [0.0, BELOW_ONE, line(b / 4), edge(b / 4)][b % 4];
            Point::new(x, y)
        }
        _ => Point::new(line(a) + radius, line(b)),
    }
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
    run_sequence_with(Radii::Mixed, seed, n0, grid_side, theta, ops);
}

/// [`run_sequence`] on fleets of the given radii.
fn run_sequence_with(
    radii: Radii,
    seed: u64,
    n0: usize,
    grid_side: usize,
    theta: EffectiveAngle,
    ops: &[Op],
) {
    let profile = radii.profile(grid_side);
    let mut net = deploy(&profile, seed, n0);
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
            Op::Snap(raw, spot, a, b) => {
                if net.is_empty() {
                    continue;
                }
                let id = raw % net.len();
                let cam = net.cameras()[id];
                let r = cam.spec().radius();
                assert!(net.move_camera(id, snap_point(&net, grid_side, spot, a, b, r)));
                let to = net.cameras()[id].position();
                mark(&mut flags, &mut counts, cam.position(), r);
                mark(&mut flags, &mut counts, to, r);
            }
            Op::Reseed(s, n) => {
                net = deploy(&profile, s, n);
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
        radii in 0..3usize,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let theta = EffectiveAngle::new(theta_frac * PI).unwrap();
        run_sequence_with(Radii::of(radii), seed, n0, grid_side, theta, &ops);
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

/// Snapped moves on radii that are multiples of the grid spacing: disk
/// edges through grid lines, centres on grid points, cell corners and
/// both sides of the seam. Three moves land in one tile before a single
/// repair, so their rectangles merge.
#[test]
fn pinned_snapped_moves_on_grid_radii() {
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    run_sequence_with(
        Radii::OnGrid,
        5,
        70,
        30,
        theta,
        &[
            Op::Snap(0, 1, 5, 9),
            Op::Snap(1, 1, 6, 9),
            Op::Snap(2, 3, 5, 8),
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Snap(3, 2, 0, 1),
            Op::Snap(4, 2, 1, 0),
            Op::Snap(5, 0, 2, 3),
            Op::Repair(REPAIR_LO, REPAIR_HI),
            Op::Snap(6, 2, 1, 6),
            Op::Snap(7, 2, 0, 11),
            Op::Snap(0, 3, 29, 29),
            Op::Repair(REPAIR_LO, REPAIR_HI),
        ],
    );
}

/// Snapped moves on a fleet whose wider radius equals the index cell
/// length, so a disk spans three cells per axis.
#[test]
fn pinned_snapped_moves_with_a_cell_wide_radius() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let ops: Vec<Op> = (0..12)
        .flat_map(|i| {
            let snap = Op::Snap(i * 7, i, i * 3, i * 5 + 1);
            if i % 3 == 2 {
                vec![snap, Op::Repair(REPAIR_LO, REPAIR_HI)]
            } else {
                vec![snap]
            }
        })
        .collect();
    run_sequence_with(Radii::CellWide, 13, 50, 24, theta, &ops);
}

/// One move re-evaluates at least the grid points inside its departure
/// or arrival disk and at most those inside the two disks' bounding
/// boxes — not the whole tiles the disks touch. The move is half the
/// torus on each axis, so no tile holds part of both boxes.
#[test]
fn one_move_resweeps_only_the_disks_bounding_boxes() {
    let mut net = deploy(&Radii::Mixed.profile(96), 17, 80);
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let mut flags = IncrementalSweep::new(&net, theta, Angle::ZERO, 96);
    let mut count = KCountSweep::new(&net, theta, 2, 96);
    let id = 3;
    let cam = net.cameras()[id];
    let (from, r) = (cam.position(), cam.spec().radius());
    assert!(net.move_camera(id, Point::new(from.x + 0.5, from.y + 0.5)));
    let to = net.cameras()[id].position();
    for at in [from, to] {
        flags.mark_disk(at, r);
        count.mark_disk(at, r);
    }
    let resweeped = [
        flags.resweep_dirty(&net).points_resweeped,
        count.resweep_dirty(&net).points_resweeped,
    ];
    let torus = *net.torus();
    let grid = UnitGrid::new(torus, 96);
    let (mut in_disks, mut in_boxes) = (0, 0);
    for p in grid.iter() {
        let near = |c: Point| {
            let (dx, dy) = torus.displacement(c, p);
            let in_box = dx.abs() <= r + 1e-6 && dy.abs() <= r + 1e-6;
            (dx * dx + dy * dy <= r * r, in_box)
        };
        let ((disk_a, box_a), (disk_b, box_b)) = (near(from), near(to));
        in_disks += usize::from(disk_a || disk_b);
        in_boxes += usize::from(box_a || box_b);
    }
    for points in resweeped {
        assert!(
            in_disks <= points && points <= in_boxes,
            "resweeped {points}, the disks hold {in_disks}, their boxes {in_boxes}"
        );
    }
    assert_matches_library(&flags, &[count], &net, (0, grid.len()), "one move");
}
