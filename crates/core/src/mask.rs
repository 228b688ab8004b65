//! The bit-packed sector-mask kernel: stage 1 of the two-stage per-point
//! analysis engine, and the viewed directions stage 2 decides from.
//!
//! Every dense-grid consumer ultimately asks, per grid point, some subset
//! of five predicates (covered, k-covered, necessary, full-view,
//! sufficient). The exact path answers them by gathering covering
//! cameras, sorting viewed directions, and scanning gaps
//! ([`PointAnalyzer`](crate::PointAnalyzer)) — `O(c log c)` of branchy
//! trigonometry per point. But the paper's §IV sufficient condition is a
//! *sector occupancy* predicate: if every one of the `⌈2π/θ⌉` closed
//! θ-sectors around a point contains a viewed direction, the point is
//! full-view covered. Occupancy is just an OR of bits.
//!
//! The kernel therefore screens a whole rectangle of a tile at once:
//!
//! 1. **Factorized distance prefilter.** For one candidate camera and one
//!    tile, the torus displacement factorizes per axis: wrap each grid
//!    column's `Δx` and each row's `Δy` once
//!    ([`Torus::wrap_coord_delta`]), and every `(column, row)` pair's
//!    squared distance is `Δx² + Δy²` — bit-identical to the
//!    [`TileCursor`](fullview_model::TileCursor) prefilter and to
//!    `Sector::contains`, which evaluate the exact same float
//!    expressions (Rust never contracts `a*a + b*b` into an FMA).
//! 2. **Conservative angular classifier.** The sector test
//!    `facing.distance(dir) ≤ φ/2 + ε` is decided without `atan2` via the
//!    dot product `a = u⃗·d⃗ = |d|·cos ∠(u⃗, d⃗)`: with `c = cos(φ/2 + ε)`,
//!    coverage is `a ≥ c·|d|`, decidable by sign tests and one squared
//!    comparison. Verdicts within a relative band of `1e-12` (vastly
//!    wider than the ~1e-15 evaluation error of either formulation) are
//!    declared *uncertain* instead of guessed, so every certain verdict
//!    matches the exact code path bit for bit.
//! 3. **Sector masks.** Each certain covering camera's viewed direction
//!    is ORed into per-point `u64` occupancy masks for the §IV
//!    (sufficient, width θ) and §III (necessary, width 2θ) partitions —
//!    one word per point for up to 64 sectors, a small multi-word layout
//!    beyond. Membership bits are set with the real [`Arc::contains`] on
//!    the real [`Angle::from_vector`] direction, so a set bit means
//!    exactly what the exact path would have computed; the wedge index
//!    only *narrows which* sectors are tested (a proven 3-candidate
//!    superset per partition).
//!
//! A point whose camera verdicts were all certain is **decided** when it
//! has no covering camera (all five predicates false) or when its
//! sufficient mask is all-ones (full-view by §IV — see DESIGN.md for the
//! ε-budget proof that the code-level predicates agree, not just the
//! ideal geometry).
//!
//! 4. **Gathered directions (stage 2).** A certain point the masks leave
//!    undecided — covered, but in the necessary-but-not-sufficient
//!    indeterminate band — was never marked done, so stage 1 gave every
//!    one of its camera pairs a certain verdict and counted its covering
//!    cameras. `SectorMaskKernel::gather_directions`
//!    sizes one flat buffer from those counts and recomputes the pending
//!    points' viewed directions in a second factorized pass over the
//!    candidates that reach the rectangle, on only the columns and rows
//!    holding a pending point — the same deltas and the same
//!    `Angle::from_vector` stage 1 evaluated, in the cursor's candidate
//!    order — then sorts each point's slice exactly as the exact analyzer
//!    sorts its own. The funnels decide the point from that list (gap
//!    scan, necessary mask, arc-depth sweep) without a cursor rescan. The
//!    buffer is capped at `GATHER_BUDGET` angles (64 Ki, 512 KiB); stage 1
//!    does not keep every direction it computes, which at `paper_check`
//!    density would be tens of MB per screened map.
//!
//! Only the rest — boundary-band verdicts, colocated candidates, points of
//! a rectangle that took the per-point camera fallback, and pending
//! points past the budget — is rescanned through the cursor by the exact
//! sort+gap analyzer, which remains the single source of truth. The
//! differential tests in `densegrid.rs`, `engine.rs`,
//! `tests/properties.rs` and `tests/mask_properties.rs` pin the
//! bit-identity.

use crate::conditions::SectorPartition;
use crate::numeric::tolerant_floor;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Arc, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::{Camera, TileCursor};
use std::f64::consts::{PI, TAU};
use std::ops::Range;

/// Most sectors a partition may have for the kernel to engage: 256 keeps
/// the multi-word masks at ≤ 4 words per point and — because it implies
/// `θ ≥ 2π/257` — guarantees the 3-candidate wedge lookup is exhaustive
/// (index arithmetic error is ≪ 1 sector for any width this large).
const MAX_SECTORS: usize = 256;

/// Squared-distance floor below which a candidate is treated as possibly
/// colocated with the point. `Angle::from_vector` returns `None` iff
/// `hypot(dx, dy) < ANGLE_EPS = 1e-9`, i.e. only when `d² < 1e-18`;
/// requiring `d² ≥ 4e-18` (hypot ≥ 2e-9, which is monotone and exact to
/// ulps) proves `from_vector` is `Some` for both the forward and the
/// reversed displacement. Below the floor the point is marked uncertain.
const D2_COLOCATED: f64 = 4e-18;

/// Relative half-width of the uncertainty band around the angular
/// boundary. Both the exact path (`atan2` + distance) and the kernel
/// (dot product + squared compare) evaluate their predicates to within a
/// few ulps (≲ 1e-15 relative); any input whose true margin exceeds this
/// band gets the same verdict from both, so certain kernel verdicts are
/// bit-identical to the exact path.
const ANG_BAND: f64 = 1e-12;

/// Most viewed directions stage 2 gathers per screened rectangle: 64 Ki
/// angles, 512 KiB. The buffer lives in the kernel's retained scratch
/// (one per evaluator, and a warm daemon state keeps its evaluator for
/// its lifetime), so the cap bounds what it can grow to; pending points
/// past it are rescanned through the cursor.
const GATHER_BUDGET: usize = 1 << 16;

/// `slot` entry of a point stage 2 did not gather.
const NOT_GATHERED: u32 = u32::MAX;

/// Stage-1 verdict for one screened point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointVerdict {
    /// Some camera verdict was uncertain, or the point sits in the
    /// indeterminate band (covered but not sufficient-mask-complete):
    /// the exact predicates must decide it.
    Undecided,
    /// Every camera verdict was certain and the masks decide the point.
    Decided {
        /// Exact covering-camera count (equals the exact path's
        /// `covering_cameras`).
        count: u32,
        /// Whether every §IV θ-sector holds a viewed direction
        /// (⇒ full-view covered; `false` here only with `count == 0`).
        suf_full: bool,
        /// Whether every §III 2θ-sector holds a viewed direction.
        nec_full: bool,
    },
}

/// What the kernel computes for a rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenMode {
    /// Occupancy masks for both partitions plus exact counts — feeds the
    /// five-predicate report sweeps.
    Report,
    /// Strict per-sector depth counters (saturating at `k`) plus exact
    /// counts — feeds the k-full-view screen.
    Depth {
        /// The multiplicity threshold being screened for (`1..=255`).
        k: u8,
    },
}

/// Running totals of screen outcomes, for the measured screen rate
/// reported in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Points decided by the mask screen alone.
    pub screened: u64,
    /// Points the masks could not decide: decided by the exact predicates,
    /// either from stage 2's gathered directions or by a rescan.
    pub exact: u64,
    /// The subset of `exact` rescanned through the cursor (boundary-band
    /// or colocated pairs, per-point camera fallbacks, past the gather
    /// budget) instead of decided from gathered directions.
    pub rescanned: u64,
}

impl ScreenStats {
    /// Fraction of points decided by the masks alone, without the exact
    /// predicates (`1.0` when nothing was evaluated).
    #[must_use]
    pub fn screen_rate(&self) -> f64 {
        let total = self.screened + self.exact;
        if total == 0 {
            1.0
        } else {
            self.screened as f64 / total as f64
        }
    }
}

/// Geometry of one sector partition, preprocessed for O(1) candidate
/// lookup: the `k_main` equal-width main sectors start at
/// `start + j·width`, so a direction's wedge index brackets the only
/// main sectors that can contain it; the extra (wedge) sector, when
/// present, is always tested.
#[derive(Debug, Clone)]
struct PartitionGeom {
    /// The partition's closed sectors, exactly as
    /// [`SectorPartition::sectors`] builds them.
    sectors: Vec<Arc>,
    /// Start line of main sector 0.
    start: Angle,
    /// `1 / width` of the main sectors.
    inv_width: f64,
    /// Number of equal-width main sectors.
    k_main: usize,
    /// Mask words per point (`⌈sectors.len() / 64⌉`).
    words: usize,
    /// The all-occupied mask, one entry per word.
    full: Vec<u64>,
}

impl PartitionGeom {
    fn new(partition: &SectorPartition) -> Self {
        let sectors = partition.sectors().to_vec();
        let width = sectors[0].width();
        let k_main = tolerant_floor(TAU / width);
        debug_assert!(sectors.len() == k_main || sectors.len() == k_main + 1);
        let n = sectors.len();
        let words = n.div_ceil(64);
        let mut full = vec![u64::MAX; words];
        let tail = n % 64;
        if tail != 0 {
            full[words - 1] = (1u64 << tail) - 1;
        }
        PartitionGeom {
            start: sectors[0].start(),
            inv_width: 1.0 / width,
            k_main,
            words,
            full,
            sectors,
        }
    }

    /// The three main-sector candidates for direction `d` (the wedge
    /// index and its neighbours, wrapped). Exhaustive for any main
    /// sector that `Arc::contains(d)` with its `ANGLE_EPS` slack: the
    /// slack plus index-arithmetic error is ≪ one sector width under the
    /// [`MAX_SECTORS`] gate, so a containing sector's index is within 1
    /// of the wedge index (mod `k_main`, which also covers the seam).
    #[inline]
    fn candidates(&self, d: Angle) -> [usize; 3] {
        let delta = self.start.ccw_delta(d);
        let j0 = ((delta * self.inv_width) as usize).min(self.k_main - 1);
        [
            j0,
            (j0 + 1) % self.k_main,
            (j0 + self.k_main - 1) % self.k_main,
        ]
    }

    /// ORs `d`'s sector memberships into `mask` (slack semantics — the
    /// real `Arc::contains`). Returns whether the mask is now full.
    #[inline]
    fn note_direction(&self, d: Angle, mask: &mut [u64]) -> bool {
        let [a, b, c] = self.candidates(d);
        for j in [a, b, c] {
            // Duplicate candidates (tiny k_main) re-OR the same bit: harmless.
            if self.sectors[j].contains(d) {
                mask[j / 64] |= 1u64 << (j % 64);
            }
        }
        if self.sectors.len() > self.k_main && self.sectors[self.k_main].contains(d) {
            let j = self.k_main;
            mask[j / 64] |= 1u64 << (j % 64);
        }
        mask == self.full
    }

    /// Bumps `d`'s **strict**-membership depth counters (no `ANGLE_EPS`
    /// slack), saturating at `sat`. Strictness is what makes "every
    /// sector at depth ≥ k" imply view multiplicity ≥ k: two directions
    /// strictly inside the same closed θ-sector are within θ of each
    /// other, so each lies in the other's counting window (whose lower
    /// edge even extends `2·ANGLE_EPS` below `−θ`), whereas a
    /// slack-contained direction can sit just outside the window.
    #[inline]
    fn note_direction_strict(&self, d: Angle, depths: &mut [u8], sat: u8) {
        let [a, b, c] = self.candidates(d);
        let mut prev = usize::MAX;
        let mut prev2 = usize::MAX;
        for j in [a, b, c] {
            if j == prev || j == prev2 {
                continue; // dedup: depths must count each direction once
            }
            let arc = &self.sectors[j];
            if arc.start().ccw_delta(d) <= arc.width() && depths[j] < sat {
                depths[j] += 1;
            }
            prev2 = prev;
            prev = j;
        }
        if self.sectors.len() > self.k_main {
            let j = self.k_main;
            let arc = &self.sectors[j];
            if arc.start().ccw_delta(d) <= arc.width() && depths[j] < sat {
                depths[j] += 1;
            }
        }
    }

    fn n_sectors(&self) -> usize {
        self.sectors.len()
    }
}

/// How one candidate camera's angular test is decided without `atan2`.
///
/// With `T = φ/2 + ANGLE_EPS` and `u⃗` the orientation unit vector, the
/// exact test `∠(u⃗, d⃗) ≤ T` is `cos ∠ ≥ cos T` (both sides in `[0, π]`),
/// i.e. `a ≥ cos T · |d⃗|` with `a = u⃗·d⃗`.
#[derive(Debug, Clone, Copy)]
enum AngClass {
    /// `φ` is a disc (or `T ≥ π`): in-radius implies covered.
    All,
    /// `|cos T| ≤ 1e-4` (φ ≈ π): the squared comparison loses too much
    /// precision near `cos T ≈ 0`, so compare against `cos T·√d²`.
    Sqrt { cos_t: f64 },
    /// `cos T > 1e-4` (narrow sector): `a ≤ 0` is certainly out;
    /// otherwise covered ⇔ `a² ≥ cos²T·d²`.
    Narrow { c2: f64 },
    /// `cos T < −1e-4` (wide sector): `a ≥ 0` is certainly in;
    /// otherwise covered ⇔ `a² ≤ cos²T·d²` (both sides negative, the
    /// inequality flips under squaring).
    Wide { c2: f64 },
}

/// One candidate camera's precomputed per-rectangle state.
#[derive(Debug, Clone, Copy)]
struct CamClass {
    ux: f64,
    uy: f64,
    class: AngClass,
}

fn classify(cam: &Camera) -> CamClass {
    let width = cam.spec().angle_of_view();
    let (ux, uy) = cam.orientation().unit_vector();
    let is_disc = width >= TAU - ANGLE_EPS;
    let t = width / 2.0 + ANGLE_EPS;
    let class = if is_disc || t >= PI {
        // Angular distance never exceeds π, so T ≥ π is vacuously met.
        AngClass::All
    } else {
        let cos_t = t.cos();
        if cos_t.abs() <= 1e-4 {
            AngClass::Sqrt { cos_t }
        } else if cos_t > 0.0 {
            AngClass::Narrow { c2: cos_t * cos_t }
        } else {
            AngClass::Wide { c2: cos_t * cos_t }
        }
    };
    CamClass { ux, uy, class }
}

/// The angular verdict for one (camera, point) pair: `Some(covered)`
/// when certain, `None` inside the uncertainty band.
#[inline]
fn angular_verdict(cc: &CamClass, fdx: f64, fdy: f64, d2: f64) -> Option<bool> {
    let a = cc.ux * fdx + cc.uy * fdy;
    match cc.class {
        AngClass::All => Some(true),
        AngClass::Sqrt { cos_t } => {
            let s = d2.sqrt();
            let rhs = cos_t * s;
            if (a - rhs).abs() <= ANG_BAND * s {
                None
            } else {
                Some(a >= rhs)
            }
        }
        AngClass::Narrow { c2 } => {
            if a <= 0.0 {
                return Some(false);
            }
            let (aa, rhs) = (a * a, c2 * d2);
            if (aa - rhs).abs() <= ANG_BAND * d2 {
                None
            } else {
                Some(aa >= rhs)
            }
        }
        AngClass::Wide { c2 } => {
            if a >= 0.0 {
                return Some(true);
            }
            let (aa, rhs) = (a * a, c2 * d2);
            if (aa - rhs).abs() <= ANG_BAND * d2 {
                None
            } else {
                Some(aa <= rhs)
            }
        }
    }
}

/// The sector-mask screening kernel for one `(θ, start_line)`
/// configuration. Reusable across tiles; all scratch is retained, so a
/// warmed kernel allocates nothing.
#[derive(Debug, Clone)]
pub struct SectorMaskKernel {
    suf: PartitionGeom,
    nec: PartitionGeom,
    // Per-rectangle scratch, laid out per point rows outer, columns
    // inner.
    xs: Vec<f64>,
    ys: Vec<f64>,
    fdx: Vec<f64>,
    fdx2: Vec<f64>,
    rdx: Vec<f64>,
    fdy: Vec<f64>,
    fdy2: Vec<f64>,
    rdy: Vec<f64>,
    counts: Vec<u32>,
    uncertain: Vec<bool>,
    done: Vec<bool>,
    suf_masks: Vec<u64>,
    nec_masks: Vec<u64>,
    depths: Vec<u8>,
    points: usize,
    mode: ScreenMode,
    /// The rectangle's first column and row and the grid's side, to map
    /// a point's local position to its grid index.
    origin: (usize, usize, usize),
    /// The candidates that can reach the rectangle, as positions in the
    /// cursor's snapshot, with their angular classes — stage 2 re-walks
    /// only these.
    live: Vec<(u32, CamClass)>,
    /// Whether some candidate took the per-point camera fallback; stage 2
    /// then leaves every pending point to the cursor.
    fallback: bool,
    // Stage-2 scratch: each gathered point's end offset into `dirs`
    // (`NOT_GATHERED` otherwise; empty when nothing was gathered), the
    // local columns and rows holding a gathered point (ascending) and the
    // flat direction buffer.
    slot: Vec<u32>,
    gcols: Vec<usize>,
    grows: Vec<usize>,
    dirs: Vec<Angle>,
}

impl SectorMaskKernel {
    /// Whether the kernel supports `theta` — partitions small enough for
    /// the packed masks and the candidate lookup proof.
    #[must_use]
    pub fn supported(theta: EffectiveAngle) -> bool {
        theta.sufficient_sector_count() <= MAX_SECTORS
    }

    /// Builds the kernel, or `None` when `theta` is below the supported
    /// range (callers then stay on the exact path wholesale).
    #[must_use]
    pub fn new(theta: EffectiveAngle, start_line: Angle) -> Option<Self> {
        if !Self::supported(theta) {
            return None;
        }
        Some(SectorMaskKernel {
            suf: PartitionGeom::new(&SectorPartition::sufficient(theta, start_line)),
            nec: PartitionGeom::new(&SectorPartition::necessary(theta, start_line)),
            xs: Vec::new(),
            ys: Vec::new(),
            fdx: Vec::new(),
            fdx2: Vec::new(),
            rdx: Vec::new(),
            fdy: Vec::new(),
            fdy2: Vec::new(),
            rdy: Vec::new(),
            counts: Vec::new(),
            uncertain: Vec::new(),
            done: Vec::new(),
            suf_masks: Vec::new(),
            nec_masks: Vec::new(),
            depths: Vec::new(),
            points: 0,
            mode: ScreenMode::Report,
            origin: (0, 0, 0),
            live: Vec::new(),
            fallback: false,
            slot: Vec::new(),
            gcols: Vec::new(),
            grows: Vec::new(),
            dirs: Vec::new(),
        })
    }

    /// Screens the grid columns `cols` × rows `rows` — a rectangle of the
    /// cell `cursor` is pinned to — through the cursor's candidate
    /// snapshot. Afterwards [`verdict`](Self::verdict) /
    /// [`k_verdict`](Self::k_verdict) answer per point, indexed rows
    /// outer, columns inner; no point has gathered directions until the
    /// crate's stage 2 gathers them.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or reaches past the grid.
    pub fn screen_tile(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        mode: ScreenMode,
    ) {
        let (ncols, nrows) = (cols.len(), rows.len());
        let side = grid.side_count();
        assert!(ncols > 0 && nrows > 0, "cannot screen an empty rectangle");
        assert!(
            cols.end <= side && rows.end <= side,
            "rectangle {cols:?} × {rows:?} outside a {side}² grid"
        );
        let n = ncols * nrows;
        self.points = n;
        self.mode = mode;
        let (c0, r0) = (cols.start, rows.start);
        self.origin = (c0, r0, side);
        self.live.clear();
        self.fallback = false;
        self.slot.clear();

        // Column x / row y coordinates, bit-identical to grid.point():
        // a lattice point's x depends only on its column, y on its row.
        self.xs.clear();
        self.xs.extend(cols.map(|i| grid.point(r0 * side + i).x));
        self.ys.clear();
        self.ys.extend(rows.map(|j| grid.point(j * side + c0).y));

        self.counts.clear();
        self.counts.resize(n, 0);
        self.uncertain.clear();
        self.uncertain.resize(n, false);
        self.done.clear();
        self.done.resize(n, false);
        let sat = match mode {
            ScreenMode::Report => {
                self.suf_masks.clear();
                self.suf_masks.resize(n * self.suf.words, 0);
                self.nec_masks.clear();
                self.nec_masks.resize(n * self.nec.words, 0);
                0u8
            }
            ScreenMode::Depth { k } => {
                self.depths.clear();
                self.depths.resize(n * self.suf.n_sectors(), 0);
                k
            }
        };

        let net = cursor.network();
        let torus = *net.torus();
        let cameras = net.cameras();
        for (at, pc) in cursor.pinned_candidates().iter().enumerate() {
            let cam = &cameras[pc.index()];
            let pos = pc.position();
            let cpos = cam.position();
            if cpos.x.to_bits() != pos.x.to_bits() || cpos.y.to_bits() != pos.y.to_bits() {
                // The pinned snapshot position (from the spatial index)
                // is not bit-equal to the camera's own — the factorized
                // prefilter would not reproduce `Sector::contains`'
                // displacement. Rare; replicate the cursor per point.
                self.fallback = true;
                self.exact_camera(&torus, pc.position(), pc.radius_sq(), cam, ncols, sat);
                continue;
            }
            let r2 = pc.radius_sq();
            let (min_fdx2, min_fdy2) = self.factor_deltas(&torus, pos, 0..ncols, 0..nrows);
            if min_fdx2 + min_fdy2 > r2 {
                continue;
            }
            let cc = classify(cam);
            self.live.push((at as u32, cc));
            for rj in 0..nrows {
                let fy2 = self.fdy2[rj];
                if fy2 + min_fdx2 > r2 {
                    continue;
                }
                let base = rj * ncols;
                for ci in 0..ncols {
                    let d2 = self.fdx2[ci] + fy2;
                    if d2 > r2 {
                        continue;
                    }
                    let local = base + ci;
                    if d2 < D2_COLOCATED {
                        self.uncertain[local] = true;
                        continue;
                    }
                    let covered = match angular_verdict(&cc, self.fdx[ci], self.fdy[rj], d2) {
                        Some(c) => c,
                        None => {
                            self.uncertain[local] = true;
                            continue;
                        }
                    };
                    if !covered {
                        continue;
                    }
                    self.counts[local] += 1;
                    if self.done[local] {
                        continue;
                    }
                    // d² ≥ D2_COLOCATED proves from_vector is Some; the
                    // unwrap-to-uncertain is belt-and-braces.
                    let Some(rd) = Angle::from_vector(self.rdx[ci], self.rdy[rj]) else {
                        self.uncertain[local] = true;
                        continue;
                    };
                    match mode {
                        ScreenMode::Report => {
                            let sw = self.suf.words;
                            let nw = self.nec.words;
                            let sfull = self
                                .suf
                                .note_direction(rd, &mut self.suf_masks[local * sw..][..sw]);
                            let nfull = self
                                .nec
                                .note_direction(rd, &mut self.nec_masks[local * nw..][..nw]);
                            self.done[local] = sfull && nfull;
                        }
                        ScreenMode::Depth { k } => {
                            let ns = self.suf.n_sectors();
                            self.suf.note_direction_strict(
                                rd,
                                &mut self.depths[local * ns..][..ns],
                                k,
                            );
                            self.done[local] =
                                self.depths[local * ns..][..ns].iter().all(|&d| d >= k);
                        }
                    }
                }
            }
        }
    }

    /// Fills the displacements of the rectangle's local columns `cols` and
    /// rows `rows` from a camera at `pos` (forward, squared and reversed;
    /// entry `i` is the `i`-th column or row given) and returns the
    /// smallest squared column and row displacement. Monotonicity of
    /// correctly-rounded f64 addition lets whole rows (or the camera) be
    /// skipped when even the nearest column cannot pass `d² ≤ r²`.
    fn factor_deltas(
        &mut self,
        torus: &Torus,
        pos: Point,
        cols: impl IntoIterator<Item = usize>,
        rows: impl IntoIterator<Item = usize>,
    ) -> (f64, f64) {
        self.fdx.clear();
        self.fdx2.clear();
        self.rdx.clear();
        for ci in cols {
            let x = self.xs[ci];
            let d = torus.wrap_coord_delta(x - pos.x);
            self.fdx.push(d);
            self.fdx2.push(d * d);
            self.rdx.push(torus.wrap_coord_delta(pos.x - x));
        }
        self.fdy.clear();
        self.fdy2.clear();
        self.rdy.clear();
        for rj in rows {
            let y = self.ys[rj];
            let d = torus.wrap_coord_delta(y - pos.y);
            self.fdy.push(d);
            self.fdy2.push(d * d);
            self.rdy.push(torus.wrap_coord_delta(pos.y - y));
        }
        let min_fdx2 = self.fdx2.iter().copied().fold(f64::INFINITY, f64::min);
        let min_fdy2 = self.fdy2.iter().copied().fold(f64::INFINITY, f64::min);
        (min_fdx2, min_fdy2)
    }

    /// Whether rectangle-local point `local` had only certain camera
    /// verdicts and the masks cannot decide it — the points whose every
    /// viewed direction stage 1 has computed (none was ever `done`).
    fn indeterminate(&self, local: usize) -> bool {
        if self.uncertain[local] {
            return false;
        }
        match self.mode {
            ScreenMode::Report => {
                let sw = self.suf.words;
                self.counts[local] > 0
                    && &self.suf_masks[local * sw..][..sw] != self.suf.full.as_slice()
            }
            ScreenMode::Depth { k } => {
                let ns = self.suf.n_sectors();
                self.counts[local] >= u32::from(k)
                    && !self.depths[local * ns..][..ns].iter().all(|&d| d >= k)
            }
        }
    }

    /// Stage 2: gathers the viewed directions of the indeterminate points
    /// of the last screen whose grid index lies in `lo..hi`, so the
    /// funnels can decide them without rescanning the cursor. `cursor`
    /// must still be pinned as it was for [`screen_tile`](Self::screen_tile).
    ///
    /// The directions are recomputed by stage 1's factorized pass — the
    /// same deltas and the same `Angle::from_vector` — over the
    /// candidates that can reach the rectangle, in the cursor's snapshot
    /// order, but only on the columns and rows that hold a gathered point:
    /// each point's list, once sorted exactly as the exact analyzer sorts
    /// its own, is bit for bit that analyzer's `viewed_directions`. A
    /// point is gathered when its directions still fit `GATHER_BUDGET`
    /// after those gathered before it; the rest, and every point of a
    /// rectangle where a candidate took the per-point camera fallback,
    /// stay undecided.
    pub(crate) fn gather_directions(&mut self, cursor: &TileCursor<'_>, lo: usize, hi: usize) {
        self.slot.clear();
        if self.fallback {
            return;
        }
        let (c0, r0, side) = self.origin;
        let (ncols, nrows) = (self.xs.len(), self.ys.len());
        let mut total = 0usize;
        for rj in 0..nrows {
            let row = (r0 + rj) * side + c0;
            for ci in 0..ncols {
                let local = rj * ncols + ci;
                if row + ci < lo || row + ci >= hi || !self.indeterminate(local) {
                    continue;
                }
                let count = self.counts[local] as usize;
                if total + count > GATHER_BUDGET {
                    continue;
                }
                if self.slot.is_empty() {
                    self.slot.resize(self.points, NOT_GATHERED);
                }
                // The point's start offset; the fill advances it to its end.
                self.slot[local] = total as u32;
                total += count;
            }
        }
        if self.slot.is_empty() {
            return;
        }
        // The columns and rows holding a gathered point.
        let slot = &self.slot;
        self.gcols.clear();
        self.gcols.extend(
            (0..ncols).filter(|&ci| (0..nrows).any(|rj| slot[rj * ncols + ci] != NOT_GATHERED)),
        );
        self.grows.clear();
        self.grows.extend((0..nrows).filter(|&rj| {
            slot[rj * ncols..][..ncols]
                .iter()
                .any(|&e| e != NOT_GATHERED)
        }));
        self.dirs.clear();
        // Exactly what this rectangle needs, so the allocation itself, not
        // only the fill, stays within the budget (growth by doubling could
        // reserve up to twice it).
        self.dirs.reserve_exact(total);
        self.dirs.resize(total, Angle::ZERO);
        let torus = *cursor.network().torus();
        let pinned = cursor.pinned_candidates();
        // Stage 1's factorized pass again, on only the gathered points'
        // columns and rows. The lists leave `self` while `factor_deltas`
        // borrows it.
        let (gcols, grows) = (
            std::mem::take(&mut self.gcols),
            std::mem::take(&mut self.grows),
        );
        for li in 0..self.live.len() {
            let (at, cc) = self.live[li];
            let pc = &pinned[at as usize];
            let r2 = pc.radius_sq();
            let (min_fdx2, min_fdy2) = self.factor_deltas(
                &torus,
                pc.position(),
                gcols.iter().copied(),
                grows.iter().copied(),
            );
            if min_fdx2 + min_fdy2 > r2 {
                continue;
            }
            for (j, &rj) in grows.iter().enumerate() {
                let fy2 = self.fdy2[j];
                if fy2 + min_fdx2 > r2 {
                    continue;
                }
                for (i, &ci) in gcols.iter().enumerate() {
                    let local = rj * ncols + ci;
                    let end = self.slot[local];
                    if end == NOT_GATHERED {
                        continue;
                    }
                    let d2 = self.fdx2[i] + fy2;
                    if d2 > r2 || angular_verdict(&cc, self.fdx[i], self.fdy[j], d2) != Some(true) {
                        continue;
                    }
                    if let Some(rd) = Angle::from_vector(self.rdx[i], self.rdy[j]) {
                        self.dirs[end as usize] = rd;
                        self.slot[local] = end + 1;
                    }
                }
            }
        }
        (self.gcols, self.grows) = (gcols, grows);
        let mut start = 0usize;
        for local in 0..self.points {
            if self.slot[local] == NOT_GATHERED {
                continue;
            }
            let end = start + self.counts[local] as usize;
            debug_assert_eq!(self.slot[local] as usize, end, "covering set changed");
            // The exact analyzer's sort, on the same list in the same
            // order: the same result, bit for bit.
            self.dirs[start..end].sort_unstable_by(Angle::cmp_by_radians);
            start = end;
        }
    }

    /// The sorted viewed directions stage 2 gathered for rectangle-local
    /// point `local`, or `None` when it gathered none for it since the
    /// last screen (a decided point, a point to rescan, or
    /// [`gather_directions`](Self::gather_directions) not run).
    #[must_use]
    pub(crate) fn directions(&self, local: usize) -> Option<&[Angle]> {
        let end = *self.slot.get(local)?;
        if end == NOT_GATHERED {
            return None;
        }
        let end = end as usize;
        Some(&self.dirs[end - self.counts[local] as usize..end])
    }

    /// Per-candidate fallback when the pinned position is not bit-equal
    /// to the camera's: replicate the cursor's per-point semantics
    /// (prefilter on the pinned position, exact `covers`, direction from
    /// the camera's own position) for this one camera.
    fn exact_camera(
        &mut self,
        torus: &Torus,
        pin_pos: Point,
        radius_sq: f64,
        cam: &Camera,
        ncols: usize,
        sat: u8,
    ) {
        for (rj, &y) in self.ys.iter().enumerate() {
            for (ci, &x) in self.xs.iter().enumerate() {
                let p = Point::new(x, y);
                if torus.distance_squared(pin_pos, p) > radius_sq || !cam.covers(torus, p) {
                    continue;
                }
                let local = rj * ncols + ci;
                self.counts[local] += 1;
                let Some(rd) = cam.viewed_direction(torus, p) else {
                    self.uncertain[local] = true;
                    continue;
                };
                if self.done[local] {
                    continue;
                }
                match self.mode {
                    ScreenMode::Report => {
                        let sw = self.suf.words;
                        let nw = self.nec.words;
                        let sfull = self
                            .suf
                            .note_direction(rd, &mut self.suf_masks[local * sw..][..sw]);
                        let nfull = self
                            .nec
                            .note_direction(rd, &mut self.nec_masks[local * nw..][..nw]);
                        self.done[local] = sfull && nfull;
                    }
                    ScreenMode::Depth { k: _ } => {
                        let ns = self.suf.n_sectors();
                        self.suf.note_direction_strict(
                            rd,
                            &mut self.depths[local * ns..][..ns],
                            sat,
                        );
                        self.done[local] =
                            self.depths[local * ns..][..ns].iter().all(|&d| d >= sat);
                    }
                }
            }
        }
    }

    /// The stage-1 verdict for rectangle-local point `local` after a
    /// [`ScreenMode::Report`] screen.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for the screened rectangle or the
    /// last screen was not `Report`.
    #[must_use]
    pub fn verdict(&self, local: usize) -> PointVerdict {
        assert!(
            local < self.points,
            "point {local} not in the screened rectangle"
        );
        assert_eq!(self.mode, ScreenMode::Report, "screened in Depth mode");
        if self.uncertain[local] {
            return PointVerdict::Undecided;
        }
        let count = self.counts[local];
        let sw = self.suf.words;
        let suf_full = &self.suf_masks[local * sw..][..sw] == self.suf.full.as_slice();
        if count > 0 && !suf_full {
            // Covered but not provably full-view: the §III/§IV
            // indeterminate band. Only the exact gap scan can decide, on
            // the gathered directions or by a rescan.
            return PointVerdict::Undecided;
        }
        PointVerdict::Decided {
            count,
            suf_full,
            nec_full: self.nec_full(local),
        }
    }

    /// Whether every §III 2θ-sector of rectangle-local point `local` holds
    /// a viewed direction, after a [`ScreenMode::Report`] screen. For a
    /// point with gathered directions this is the exact necessary verdict:
    /// the point was never done, so its mask saw every direction.
    pub(crate) fn nec_full(&self, local: usize) -> bool {
        let nw = self.nec.words;
        &self.nec_masks[local * nw..][..nw] == self.nec.full.as_slice()
    }

    /// The k-full-view screen for rectangle-local point `local` after a
    /// [`ScreenMode::Depth`] screen with the same `k`: `Some(true)` when
    /// every strict sector depth reached `k` (view multiplicity ≥ k),
    /// `Some(false)` when fewer than `k` cameras cover the point at all,
    /// `None` when only the exact depth sweep can decide — over the
    /// point's gathered directions when stage 2 gathered them, by a
    /// rescan otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range or the last screen was not
    /// `Depth` with this `k`.
    #[must_use]
    pub fn k_verdict(&self, local: usize, k: u8) -> Option<bool> {
        assert!(
            local < self.points,
            "point {local} not in the screened rectangle"
        );
        assert_eq!(self.mode, ScreenMode::Depth { k }, "mode/k mismatch");
        if self.uncertain[local] {
            return None;
        }
        if self.counts[local] < u32::from(k) {
            // Multiplicity ≤ direction count < k.
            return Some(false);
        }
        let ns = self.suf.n_sectors();
        if self.depths[local * ns..][..ns].iter().all(|&d| d >= k) {
            // Every facing direction lies strictly within some θ-sector,
            // whose ≥ k strict members are all within θ of it.
            return Some(true);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GridTiling;
    use crate::fullview::PointAnalyzer;
    use fullview_model::{CameraNetwork, GroupId, SensorSpec};

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    fn pseudo_random_net(n: usize, r_base: f64) -> CameraNetwork {
        let mut cams = Vec::new();
        for i in 0..n {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = (i as f64 * 2.399_963) % TAU;
            let r = r_base * (1.0 + (i % 5) as f64 / 5.0);
            let phi = PI / 4.0 + PI / 2.0 * ((i % 3) as f64 / 3.0);
            cams.push(Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(i % 3),
            ));
        }
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn support_gate_follows_sector_count() {
        assert!(SectorMaskKernel::supported(theta(PI)));
        assert!(SectorMaskKernel::supported(theta(TAU / 64.0)));
        assert!(SectorMaskKernel::supported(theta(TAU / 256.0)));
        assert!(!SectorMaskKernel::supported(theta(TAU / 257.0)));
        assert!(SectorMaskKernel::new(theta(TAU / 300.0), Angle::ZERO).is_none());
    }

    /// Every certain verdict must agree with the exact analyzer; this is
    /// the kernel's own unit-level differential (the cross-layer ones
    /// live in densegrid/engine/properties).
    #[test]
    fn verdicts_agree_with_exact_analysis() {
        let net = pseudo_random_net(140, 0.07);
        let grid = UnitGrid::new(Torus::unit(), 23);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let mut analyzer = PointAnalyzer::new();
        for th in [theta(PI / 3.0), theta(PI), theta(0.5)] {
            let mut kernel = SectorMaskKernel::new(th, Angle::ZERO).unwrap();
            let suf = SectorPartition::sufficient(th, Angle::ZERO);
            let nec = SectorPartition::necessary(th, Angle::ZERO);
            let mut decided = 0usize;
            for t in 0..tiling.tile_count() {
                if tiling.tile_point_count(t) == 0 {
                    continue;
                }
                let (cx, cy) = tiling.tile_cell(t);
                cursor.pin(cx, cy);
                kernel.screen_tile(
                    &cursor,
                    &grid,
                    tiling.tile_col_range(t),
                    tiling.tile_row_range(t),
                    ScreenMode::Report,
                );
                let mut local = 0usize;
                tiling.for_each_point_in_tile(t, |idx| {
                    let view = analyzer.analyze_point_with(&cursor, grid.point(idx));
                    if let PointVerdict::Decided {
                        count,
                        suf_full,
                        nec_full,
                    } = kernel.verdict(local)
                    {
                        decided += 1;
                        assert_eq!(count as usize, view.covering_cameras, "idx {idx}");
                        assert_eq!(
                            suf_full,
                            suf.is_satisfied_by(view.viewed_directions, view.has_colocated_camera),
                            "idx {idx} sufficient"
                        );
                        assert_eq!(
                            nec_full,
                            nec.is_satisfied_by(view.viewed_directions, view.has_colocated_camera),
                            "idx {idx} necessary"
                        );
                        assert_eq!(suf_full, view.is_full_view(th), "idx {idx} full-view");
                    }
                    local += 1;
                });
            }
            assert!(decided > 0, "screen decided nothing at θ={}", th.radians());
        }
    }

    #[test]
    fn depth_screen_agrees_with_min_arc_depth() {
        let net = pseudo_random_net(160, 0.09);
        let grid = UnitGrid::new(Torus::unit(), 19);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let mut analyzer = PointAnalyzer::new();
        let th = theta(PI / 3.0);
        let mut kernel = SectorMaskKernel::new(th, Angle::ZERO).unwrap();
        for k in [1u8, 2, 3] {
            for t in 0..tiling.tile_count() {
                if tiling.tile_point_count(t) == 0 {
                    continue;
                }
                let (cx, cy) = tiling.tile_cell(t);
                cursor.pin(cx, cy);
                kernel.screen_tile(
                    &cursor,
                    &grid,
                    tiling.tile_col_range(t),
                    tiling.tile_row_range(t),
                    ScreenMode::Depth { k },
                );
                let mut local = 0usize;
                tiling.for_each_point_in_tile(t, |idx| {
                    if let Some(met) = kernel.k_verdict(local, k) {
                        let view = analyzer.analyze_point_with(&cursor, grid.point(idx));
                        let colocated = view.covering_cameras - view.viewed_directions.len();
                        let exact =
                            crate::kfullview::min_arc_depth(view.viewed_directions, th.radians())
                                + colocated;
                        assert_eq!(met, exact >= usize::from(k), "idx {idx} k={k}");
                    }
                    local += 1;
                });
            }
        }
    }

    #[test]
    fn colocated_candidates_are_routed_to_exact() {
        // A camera exactly on a grid point must leave that point
        // undecided (the exact path handles colocation semantics).
        let torus = Torus::unit();
        let grid = UnitGrid::new(torus, 8);
        let p = grid.point(27);
        let spec = SensorSpec::new(0.3, PI).unwrap();
        let net = CameraNetwork::new(torus, vec![Camera::new(p, Angle::ZERO, spec, GroupId(0))]);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let th = theta(PI / 2.0);
        let mut kernel = SectorMaskKernel::new(th, Angle::ZERO).unwrap();
        let mut saw_undecided = false;
        for t in 0..tiling.tile_count() {
            if tiling.tile_point_count(t) == 0 {
                continue;
            }
            let (cx, cy) = tiling.tile_cell(t);
            cursor.pin(cx, cy);
            kernel.screen_tile(
                &cursor,
                &grid,
                tiling.tile_col_range(t),
                tiling.tile_row_range(t),
                ScreenMode::Report,
            );
            let mut local = 0usize;
            tiling.for_each_point_in_tile(t, |idx| {
                if idx == 27 {
                    assert_eq!(kernel.verdict(local), PointVerdict::Undecided);
                    saw_undecided = true;
                }
                local += 1;
            });
        }
        assert!(saw_undecided);
    }

    /// Screens and gathers every non-empty tile of `grid` in `mode` over
    /// the grid-index range `lo..hi`, then calls `check(kernel, cursor,
    /// local, idx)` for every point of the tile.
    fn for_each_gathered_tile(
        net: &CameraNetwork,
        grid: &UnitGrid,
        kernel: &mut SectorMaskKernel,
        mode: ScreenMode,
        (lo, hi): (usize, usize),
        mut check: impl FnMut(&SectorMaskKernel, &TileCursor<'_>, usize, usize),
    ) {
        let tiling = GridTiling::new(net.index(), grid);
        let mut cursor = net.tile_cursor();
        for t in 0..tiling.tile_count() {
            if tiling.tile_point_count(t) == 0 {
                continue;
            }
            let (cx, cy) = tiling.tile_cell(t);
            cursor.pin(cx, cy);
            let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
            kernel.screen_tile(&cursor, grid, cols, rows, mode);
            kernel.gather_directions(&cursor, lo, hi);
            let mut local = 0usize;
            tiling.for_each_point_in_tile(t, |idx| {
                check(kernel, &cursor, local, idx);
                local += 1;
            });
        }
    }

    /// Stage 2's contract: every in-range point the masks leave undecided
    /// with only certain verdicts gets a direction list that is the exact
    /// analyzer's sorted `viewed_directions`, bit for bit, in both modes,
    /// and a necessary mask that is the exact necessary verdict.
    #[test]
    fn gathered_directions_are_the_exact_viewed_directions() {
        let net = pseudo_random_net(140, 0.07);
        let grid = UnitGrid::new(Torus::unit(), 23);
        let mut analyzer = PointAnalyzer::new();
        let modes = [
            ScreenMode::Report,
            ScreenMode::Depth { k: 1 },
            ScreenMode::Depth { k: 3 },
        ];
        let mut gathered = [0usize; 3];
        for th in [theta(PI / 16.0), theta(PI / 4.0), theta(0.5)] {
            let nec = SectorPartition::necessary(th, Angle::ZERO);
            let mut kernel = SectorMaskKernel::new(th, Angle::ZERO).unwrap();
            for (m, mode) in modes.into_iter().enumerate() {
                for range in [(0, grid.len()), (57, 401)] {
                    for_each_gathered_tile(
                        &net,
                        &grid,
                        &mut kernel,
                        mode,
                        range,
                        |kernel, cursor, local, idx| {
                            let in_range = idx >= range.0 && idx < range.1;
                            let dirs = kernel.directions(local);
                            if !(in_range && kernel.indeterminate(local)) {
                                assert!(dirs.is_none(), "idx {idx} gathered");
                                return;
                            }
                            let dirs = dirs.expect("under the budget every pending point gathers");
                            gathered[m] += 1;
                            let view = analyzer.analyze_point_with(cursor, grid.point(idx));
                            assert!(!view.has_colocated_camera);
                            assert_eq!(view.covering_cameras, dirs.len(), "idx {idx}");
                            let bits = |d: &[Angle]| -> Vec<u64> {
                                d.iter().map(|a| a.radians().to_bits()).collect()
                            };
                            assert_eq!(bits(dirs), bits(view.viewed_directions), "idx {idx}");
                            match mode {
                                ScreenMode::Report => {
                                    let nec_full =
                                        nec.is_satisfied_by(view.viewed_directions, false);
                                    assert_eq!(kernel.nec_full(local), nec_full, "idx {idx}");
                                    assert_eq!(
                                        kernel.verdict(local),
                                        PointVerdict::Undecided,
                                        "idx {idx}"
                                    );
                                }
                                ScreenMode::Depth { k } => {
                                    assert_eq!(kernel.k_verdict(local, k), None, "idx {idx}");
                                }
                            }
                        },
                    );
                }
            }
        }
        assert!(
            gathered.iter().all(|&g| g > 0),
            "gathered per mode {gathered:?}"
        );
    }

    /// A rectangle whose pending directions exceed the budget gathers
    /// points in order while they fit and leaves the rest to the cursor.
    #[test]
    fn gather_stops_at_the_budget() {
        // 450 cameras in one clump, all facing south over the grid: a
        // covered point sees hundreds of directions from one side, so the
        // masks stay incomplete and a tile of the 2 × 2-cell index holds
        // more than the budget.
        let spec = SensorSpec::new(0.45, PI / 2.0).unwrap();
        let cams = (0..450)
            .map(|i| {
                let x = 0.4 + 0.2 * ((i as f64 * 0.618_033_98) % 1.0);
                let y = 0.85 + 0.1 * ((i as f64 * 0.414_213_56) % 1.0);
                Camera::new(Point::new(x, y), Angle::new(1.5 * PI), spec, GroupId(0))
            })
            .collect();
        let net = CameraNetwork::new(Torus::unit(), cams);
        let grid = UnitGrid::new(Torus::unit(), 60);
        let mut kernel = SectorMaskKernel::new(theta(PI / 16.0), Angle::ZERO).unwrap();
        let mut analyzer = PointAnalyzer::new();
        let (mut over_budget, mut any_gathered) = (false, false);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        for t in 0..tiling.tile_count() {
            let (cx, cy) = tiling.tile_cell(t);
            cursor.pin(cx, cy);
            let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
            kernel.screen_tile(&cursor, &grid, cols, rows, ScreenMode::Report);
            kernel.gather_directions(&cursor, 0, grid.len());
            let (mut wanted, mut held) = (0usize, 0usize);
            let mut local = 0usize;
            tiling.for_each_point_in_tile(t, |idx| {
                if kernel.indeterminate(local) {
                    wanted += kernel.counts[local] as usize;
                    if let Some(dirs) = kernel.directions(local) {
                        held += dirs.len();
                        any_gathered = true;
                        let view = analyzer.analyze_point_with(&cursor, grid.point(idx));
                        assert_eq!(dirs, view.viewed_directions, "idx {idx}");
                    }
                }
                local += 1;
            });
            assert!(held <= GATHER_BUDGET, "tile {t}: {held} directions held");
            if wanted > GATHER_BUDGET {
                over_budget = true;
                assert!(held < wanted && held > 0, "tile {t}: {held} of {wanted}");
            }
        }
        assert!(over_budget && any_gathered, "no tile exceeded the budget");
    }

    #[test]
    fn screen_stats_rate() {
        let mut s = ScreenStats::default();
        assert_eq!(s.screen_rate(), 1.0);
        s.screened = 3;
        s.exact = 1;
        assert_eq!(s.screen_rate(), 0.75);
    }
}
