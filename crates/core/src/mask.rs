//! The bit-packed sector-mask kernel: stage 1 of the two-stage per-point
//! analysis engine.
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
//! ideal geometry). Everything else — boundary-band verdicts, colocated
//! candidates, points in the necessary-but-not-sufficient indeterminate
//! band — falls through to the exact sort+gap analyzer, which remains
//! the single source of truth. The differential tests in `densegrid.rs`,
//! `engine.rs` and `tests/properties.rs` pin the bit-identity.

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

/// Stage-1 verdict for one screened point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointVerdict {
    /// Some camera verdict was uncertain, or the point sits in the
    /// indeterminate band (covered but not sufficient-mask-complete):
    /// the exact analyzer must decide it.
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

/// Running totals of stage-1 outcomes, for the measured screen rate
/// reported in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Points decided by the mask screen alone.
    pub screened: u64,
    /// Points that fell through to the exact analyzer.
    pub exact: u64,
}

impl ScreenStats {
    /// Fraction of points decided without the exact fallback (`1.0` when
    /// nothing was evaluated).
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

/// One candidate camera's precomputed per-tile state.
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
        })
    }

    /// Screens the grid columns `cols` × rows `rows` — a rectangle of the
    /// cell `cursor` is pinned to — through the cursor's candidate
    /// snapshot. Afterwards [`verdict`](Self::verdict) /
    /// [`k_verdict`](Self::k_verdict) answer per point, indexed rows
    /// outer, columns inner.
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

        // Column x / row y coordinates, bit-identical to grid.point():
        // a lattice point's x depends only on its column, y on its row.
        let (c0, r0) = (cols.start, rows.start);
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
        for pc in cursor.pinned_candidates() {
            let cam = &cameras[pc.index()];
            let pos = pc.position();
            let cpos = cam.position();
            if cpos.x.to_bits() != pos.x.to_bits() || cpos.y.to_bits() != pos.y.to_bits() {
                // The pinned snapshot position (from the spatial index)
                // is not bit-equal to the camera's own — the factorized
                // prefilter would not reproduce `Sector::contains`'
                // displacement. Rare; replicate the cursor per point.
                self.exact_camera(&torus, pc.position(), pc.radius_sq(), cam, ncols, sat);
                continue;
            }
            let r2 = pc.radius_sq();
            self.fdx.clear();
            self.fdx2.clear();
            self.rdx.clear();
            for &x in &self.xs {
                let d = torus.wrap_coord_delta(x - pos.x);
                self.fdx.push(d);
                self.fdx2.push(d * d);
                self.rdx.push(torus.wrap_coord_delta(pos.x - x));
            }
            self.fdy.clear();
            self.fdy2.clear();
            self.rdy.clear();
            for &y in &self.ys {
                let d = torus.wrap_coord_delta(y - pos.y);
                self.fdy.push(d);
                self.fdy2.push(d * d);
                self.rdy.push(torus.wrap_coord_delta(pos.y - y));
            }
            // Monotonicity of correctly-rounded f64 addition lets whole
            // rows (or the camera) be skipped when even the nearest
            // column cannot pass `d² ≤ r²`.
            let min_fdx2 = self.fdx2.iter().copied().fold(f64::INFINITY, f64::min);
            let min_fdy2 = self.fdy2.iter().copied().fold(f64::INFINITY, f64::min);
            if min_fdx2 + min_fdy2 > r2 {
                continue;
            }
            let cc = classify(cam);
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
            // indeterminate band. Only the exact gap scan can decide.
            return PointVerdict::Undecided;
        }
        let nw = self.nec.words;
        let nec_full = &self.nec_masks[local * nw..][..nw] == self.nec.full.as_slice();
        PointVerdict::Decided {
            count,
            suf_full,
            nec_full,
        }
    }

    /// The k-full-view screen for rectangle-local point `local` after a
    /// [`ScreenMode::Depth`] screen with the same `k`: `Some(true)` when
    /// every strict sector depth reached `k` (view multiplicity ≥ k),
    /// `Some(false)` when fewer than `k` cameras cover the point at all,
    /// `None` when only the exact depth sweep can decide.
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

    #[test]
    fn screen_stats_rate() {
        let mut s = ScreenStats::default();
        assert_eq!(s.screen_rate(), 1.0);
        s.screened = 3;
        s.exact = 1;
        assert_eq!(s.screen_rate(), 0.75);
    }
}
