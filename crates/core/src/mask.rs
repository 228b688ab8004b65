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
//! The kernel therefore screens a whole rectangle of a tile at once,
//! visiting the pinned candidates in **golden-ratio order** — position
//! `i·s mod m` for a stride `s` coprime to the snapshot length `m` and
//! nearest `m/φ` — so consecutive visits come from far-apart cells and a
//! point's masks fill early. Each candidate first meets a **rectangle
//! reach prefilter**: when its wrapped gap to the rectangle's column (or
//! row) extent, less a slack of `1e-9·side`, exceeds its radius, no point
//! of the rectangle is in range and it is skipped before any per-column
//! work. The rest go through:
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
//!    beyond — or, in Depth mode, bumps strict per-sector depth counters.
//!    The sector is found without trigonometry: an octant-reduced odd
//!    polynomial estimates the direction to within `EST_ERR` (2.04e-4
//!    rad), and an estimate farther than `BIN_BAND` (1.25e-3 rad) from
//!    every edge of its main sector and of the extra sector names the
//!    sectors directly. There the real direction is at least
//!    `BIN_BAND − EST_ERR` from every edge, where the slack membership
//!    ([`Arc::contains`], with `ANGLE_EPS`) and the strict one agree, so
//!    one binning serves both modes. Inside the band the real
//!    [`Angle::from_vector`] direction decides with the real
//!    `Arc::contains` (or the strict test), the wedge index narrowing
//!    which sectors are tested to a proven 3-candidate superset per
//!    partition. Either way a set bit or a bumped counter is exactly what
//!    the exact path would have computed; debug builds re-check every
//!    binned direction against its real one.
//!
//! A point whose camera verdicts were all certain is **decided** when it
//! has no covering camera (all five predicates false) or when its
//! sufficient mask is all-ones (full-view by §IV — see DESIGN.md for the
//! ε-budget proof that the code-level predicates agree, not just the
//! ideal geometry).
//!
//! **Retirement.** Each point carries one state byte. It is *active*
//! until its answer is known; in Report mode a point whose masks are both
//! full is `DONE` but stays active, counting towards the cap `⌈π/θ⌉`. A
//! point retires `FINAL` once its masks are full and its count reaches
//! the cap (Report) or every sector depth reaches `k` (Depth): all five
//! flags, or the k verdict, are then true, and since every predicate is
//! monotone in the covering set (a colocated camera only adds full view),
//! no later camera — a band or colocated verdict included — can change
//! them. A point retires `UNSURE` when a colocated candidate or a band
//! verdict reaches it before it is final. Retired points are skipped for
//! the remaining candidates, and the candidate walk ends once every point
//! of the rectangle has retired. So a decided point's count is exact
//! below the cap and at least the cap otherwise — the flags compare it
//! with nothing but 1 and the cap.
//!
//! 4. **Gathered directions (stage 2).** A certain point the masks leave
//!    undecided — covered, but in the necessary-but-not-sufficient
//!    indeterminate band — stayed active, so stage 1 walked every
//!    candidate, gave every one of its camera pairs a certain verdict and
//!    counted its covering cameras. `SectorMaskKernel::gather_directions`
//!    sizes one flat buffer from those counts and recomputes the pending
//!    points' viewed directions in a second factorized pass over the
//!    candidates that reach the rectangle, on only the columns and rows
//!    holding a pending point — stage 1's deltas, now with the real
//!    `Angle::from_vector` of each (stage 1 computed most only as
//!    estimates), in the cursor's snapshot order — then sorts each
//!    point's slice exactly as the exact analyzer sorts its own. The
//!    funnels decide the point from that list (gap scan, necessary mask,
//!    arc-depth sweep) without a cursor rescan. The buffer is capped at
//!    `GATHER_BUDGET` angles (64 Ki, 512 KiB); stage 1 does not keep
//!    every direction it computes, which at `paper_check` density would
//!    be tens of MB per screened map.
//!
//! Only the rest — `UNSURE` points (boundary-band verdicts, colocated
//! candidates) and pending points past the budget — is rescanned through
//! the cursor by the exact
//! sort+gap analyzer, which remains the single source of truth. The
//! differential tests in `densegrid.rs`, `engine.rs`,
//! `tests/properties.rs` and `tests/mask_properties.rs` pin the
//! bit-identity.

use crate::conditions::SectorPartition;
use crate::numeric::tolerant_floor;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Arc, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::{Camera, TileCursor};
use std::f64::consts::{FRAC_PI_2, PI, TAU};
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
/// reversed displacement. Below the floor the point retires `UNSURE`.
const D2_COLOCATED: f64 = 4e-18;

/// Relative half-width of the uncertainty band around the angular
/// boundary. Both the exact path (`atan2` + distance) and the kernel
/// (dot product + squared compare) evaluate their predicates to within a
/// few ulps (≲ 1e-15 relative); any input whose true margin exceeds this
/// band gets the same verdict from both, so certain kernel verdicts are
/// bit-identical to the exact path.
const ANG_BAND: f64 = 1e-12;

/// Proven bound on how far [`direction_estimate`] can lie from the real
/// [`Angle::from_vector`] direction, in radians: the polynomial's largest
/// error on `[0, 1]` is 2.032e-4 (at `a = 1`), and the division, the
/// polynomial's own rounding and the octant reflections add a few ulps of
/// 2π (≲ 1e-15), as does the real direction's `atan2`.
const EST_ERR: f64 = 2.04e-4;

/// Half-width of the band around every sector edge inside which stage 1
/// bins a viewed direction from its real [`Angle::from_vector`] instead of
/// its estimate: `1.25e-3` rad, 6.1× [`EST_ERR`]. Outside the band the
/// real direction lies more than `BIN_BAND − EST_ERR ≈ 1e-3` rad from
/// every edge — far beyond `ANGLE_EPS` (1e-9) plus the ulps each sector's
/// float start carries — so the slack membership (`Arc::contains`) and
/// the strict one agree, and both name the estimate's main sector (or
/// none, in the leftover wedge) plus at most the extra sector.
const BIN_BAND: f64 = 1.25e-3;

const _: () = assert!(
    BIN_BAND >= 5.0 * EST_ERR,
    "the band must dwarf the estimate's error"
);

/// Main-sector index of a direction in the partition's leftover wedge
/// (it lies in no main sector).
const NO_MAIN: usize = usize::MAX;

/// Estimates the direction of the nonzero vector `(x, y)` — `atan2(y, x)`
/// in `[0, 2π]` — to within [`EST_ERR`], without trigonometry: reduce to
/// the first octant, apply the odd polynomial
/// `a + a·s·(−0.327622764 + s·(0.15931422 − 0.0464964749·s))` (`s = a²`)
/// for `atan(a)`, `a ∈ [0, 1]`, and reflect back.
#[inline]
fn direction_estimate(x: f64, y: f64) -> f64 {
    let (ax, ay) = (x.abs(), y.abs());
    let steep = ay > ax;
    let a = if steep { ax / ay } else { ay / ax };
    let s = a * a;
    let mut r = a + a * s * (-0.327_622_764 + s * (0.159_314_22 - 0.046_496_474_9 * s));
    if steep {
        r = FRAC_PI_2 - r;
    }
    if x < 0.0 {
        r = PI - r;
    }
    if y < 0.0 {
        r = TAU - r;
    }
    r
}

/// Most viewed directions stage 2 gathers per screened rectangle: 64 Ki
/// angles, 512 KiB. The buffer lives in the kernel's retained scratch
/// (one per evaluator, and a warm daemon state keeps its evaluator for
/// its lifetime), so the cap bounds what it can grow to; pending points
/// past it are rescanned through the cursor.
const GATHER_BUDGET: usize = 1 << 16;

/// `slot` entry of a point stage 2 did not gather.
const NOT_GATHERED: u32 = u32::MAX;

/// Screen state of a point stage 1 still walks candidates over.
const ACTIVE: u8 = 0;
/// Report mode: both masks are full, and the covering count, still short
/// of the cap `⌈π/θ⌉`, is still being counted.
const DONE: u8 = 1;
/// Retired with its verdict: in Report mode both masks full and the count
/// at the cap, in Depth mode every sector depth at `k`. States from here
/// on are retired.
const FINAL: u8 = 2;
/// Retired undecided: a colocated candidate or an angular verdict inside
/// the band reached the point before it was final; the exact analyzer
/// rescans it.
const UNSURE: u8 = 3;

/// Slack of the rectangle reach prefilter, relative to the torus side:
/// far above the few ulps by which a wrapped delta and the rectangle's
/// extent can each be off, so the prefilter drops only candidates the
/// factorized distance test would drop at every point.
const REACH_SLACK: f64 = 1e-9;

/// The positions `0..m` in golden-ratio order: `i·s mod m` for `i` in
/// `0..m`, where `s` is the stride coprime to `m` nearest `m/φ` — a
/// permutation whose consecutive visits land far apart in the snapshot,
/// so a point's masks fill from many directions early.
fn golden_order(m: usize) -> impl Iterator<Item = usize> {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let target = (m as f64 * 0.618_033_988_749_895).round() as usize;
    let stride = (0..m)
        .flat_map(|d| [target + d, target.wrapping_sub(d)])
        .find(|&s| s >= 1 && s < m && gcd(s, m) == 1)
        .unwrap_or(1);
    let mut next = 0usize;
    (0..m).map(move |_| {
        let at = next;
        next += stride;
        if next >= m {
            next -= m;
        }
        at
    })
}

/// Stage-1 verdict for one screened point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointVerdict {
    /// Some camera verdict was uncertain, or the point sits in the
    /// indeterminate band (covered but not sufficient-mask-complete):
    /// the exact predicates must decide it.
    Undecided,
    /// Every camera verdict was certain and the masks decide the point.
    Decided {
        /// Covering-camera count: the exact path's `covering_cameras`
        /// below `⌈π/θ⌉`, and at least `⌈π/θ⌉` (not necessarily exact)
        /// otherwise — stage 1 stops counting a point once its masks are
        /// full and its count reaches the flags' k-coverage threshold, the
        /// only value the count is compared with besides 1.
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
    /// or colocated pairs, past the gather budget) instead of decided from
    /// gathered directions.
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
    /// Width of every sector.
    width: f64,
    /// `1 / width` of the main sectors.
    inv_width: f64,
    /// Start of the extra sector, in radians (unused without one).
    extra_start: f64,
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
            width,
            inv_width: 1.0 / width,
            extra_start: sectors.get(k_main).map_or(0.0, |x| x.start().radians()),
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
        self.is_full(mask)
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

    /// Where a direction whose estimate is `est` (radians in `[0, 2π]`,
    /// within [`EST_ERR`] of the real direction) falls: its main sector
    /// ([`NO_MAIN`] in the leftover wedge) and whether the extra sector
    /// holds it, or `None` when the estimate lies within [`BIN_BAND`] of
    /// an edge of either, where only the real direction can tell.
    #[inline]
    fn bin(&self, est: f64) -> Option<(usize, bool)> {
        let mut rel = est - self.start.radians();
        if rel < 0.0 {
            rel += TAU;
        }
        let j = ((rel * self.inv_width) as usize).min(self.k_main);
        let lo = j as f64 * self.width;
        let hi = if j < self.k_main {
            lo + self.width
        } else {
            TAU
        };
        if rel - lo <= BIN_BAND || hi - rel <= BIN_BAND {
            return None;
        }
        let main = if j < self.k_main { j } else { NO_MAIN };
        if self.sectors.len() == self.k_main {
            return Some((main, false));
        }
        let mut rx = est - self.extra_start;
        if rx < 0.0 {
            rx += TAU;
        }
        if rx > BIN_BAND && rx < self.width - BIN_BAND {
            Some((main, true))
        } else if rx > self.width + BIN_BAND && rx < TAU - BIN_BAND {
            Some((main, false))
        } else {
            None
        }
    }

    /// Whether `bin` names exactly the sectors the real direction `d`
    /// belongs to, under both the slack (`Arc::contains`) and the strict
    /// membership — every bit binning sets or skips checked against the
    /// real direction.
    fn bin_matches(&self, d: Angle, (main, extra): (usize, bool)) -> bool {
        (main == NO_MAIN || self.candidates(d).contains(&main))
            && self.sectors.iter().enumerate().all(|(j, arc)| {
                let held = if j < self.k_main { j == main } else { extra };
                arc.contains(d) == held && (arc.start().ccw_delta(d) <= arc.width()) == held
            })
    }

    /// ORs the sectors of `bin` into `mask`. Returns whether the mask is
    /// now full.
    #[inline]
    fn set_bin(&self, (main, extra): (usize, bool), mask: &mut [u64]) -> bool {
        if main != NO_MAIN {
            mask[main / 64] |= 1u64 << (main % 64);
        }
        if extra {
            let j = self.k_main;
            mask[j / 64] |= 1u64 << (j % 64);
        }
        self.is_full(mask)
    }

    /// Bumps the depth counters of the sectors of `bin`, saturating at
    /// `sat`.
    #[inline]
    fn bump_bin(&self, (main, extra): (usize, bool), depths: &mut [u8], sat: u8) {
        if main != NO_MAIN && depths[main] < sat {
            depths[main] += 1;
        }
        if extra && depths[self.k_main] < sat {
            depths[self.k_main] += 1;
        }
    }

    /// Whether `mask` has every sector bit set (an element loop, which
    /// inlines where a slice comparison calls `bcmp`).
    #[inline]
    fn is_full(&self, mask: &[u64]) -> bool {
        mask.iter().zip(&self.full).all(|(m, f)| m == f)
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
    /// Per-point screen state: `ACTIVE`, `DONE`, `FINAL` or `UNSURE`.
    state: Vec<u8>,
    suf_masks: Vec<u64>,
    nec_masks: Vec<u64>,
    depths: Vec<u8>,
    points: usize,
    mode: ScreenMode,
    /// The rectangle's first column and row and the grid's side, to map
    /// a point's local position to its grid index.
    origin: (usize, usize, usize),
    /// The flags' k-coverage threshold `⌈π/θ⌉`: a Report-mode point
    /// whose masks are full retires once its count reaches it.
    cap: u32,
    /// The candidates that can reach the rectangle, as positions in the
    /// cursor's snapshot, with their angular classes — stage 2 re-walks
    /// only these, in snapshot order.
    live: Vec<(u32, CamClass)>,
    // Stage-2 scratch: each gathered point's end offset into `dirs`
    // (`NOT_GATHERED` otherwise; empty when nothing was gathered), the
    // local columns and rows holding a gathered point (ascending) and the
    // flat direction buffer.
    slot: Vec<u32>,
    gcols: Vec<usize>,
    grows: Vec<usize>,
    dirs: Vec<Angle>,
    /// Viewed directions stage 1 binned from the real direction because
    /// their estimate fell within `BIN_BAND` of a sector edge.
    #[cfg(test)]
    fallbacks: u64,
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
            state: Vec::new(),
            suf_masks: Vec::new(),
            nec_masks: Vec::new(),
            depths: Vec::new(),
            points: 0,
            mode: ScreenMode::Report,
            origin: (0, 0, 0),
            cap: u32::try_from(theta.necessary_sector_count())
                .expect("a supported θ has at most 128 necessary sectors"),
            live: Vec::new(),
            slot: Vec::new(),
            gcols: Vec::new(),
            grows: Vec::new(),
            dirs: Vec::new(),
            #[cfg(test)]
            fallbacks: 0,
        })
    }

    /// Screens the grid columns `cols` × rows `rows` — a rectangle of the
    /// cell `cursor` is pinned to — through the cursor's candidate
    /// snapshot. Afterwards [`verdict`](Self::verdict) /
    /// [`k_verdict`](Self::k_verdict) answer per point, indexed rows
    /// outer, columns inner; no point has gathered directions until the
    /// crate's stage 2 gathers them.
    ///
    /// The candidates are visited in golden-ratio order, and the walk ends
    /// once every point of the rectangle has retired (the module doc's
    /// retirement).
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
        self.slot.clear();

        // Column x / row y coordinates, bit-identical to grid.point():
        // a lattice point's x depends only on its column, y on its row.
        self.xs.clear();
        self.xs.extend(cols.map(|i| grid.point(r0 * side + i).x));
        self.ys.clear();
        self.ys.extend(rows.map(|j| grid.point(j * side + c0).y));

        self.counts.clear();
        self.counts.resize(n, 0);
        self.state.clear();
        self.state.resize(n, ACTIVE);
        match mode {
            ScreenMode::Report => {
                self.suf_masks.clear();
                self.suf_masks.resize(n * self.suf.words, 0);
                self.nec_masks.clear();
                self.nec_masks.resize(n * self.nec.words, 0);
            }
            ScreenMode::Depth { .. } => {
                self.depths.clear();
                self.depths.resize(n * self.suf.n_sectors(), 0);
            }
        }
        // Points not yet retired: the candidate walk ends when none is left.
        let mut active = n;

        let net = cursor.network();
        let torus = *net.torus();
        let cameras = net.cameras();
        let pinned = cursor.pinned_candidates();
        // The rectangle's extent per axis (centre, half-width) and the
        // reach prefilter's slack.
        let extent = |v: &[f64]| (0.5 * (v[0] + v[v.len() - 1]), 0.5 * (v[v.len() - 1] - v[0]));
        let ((x_mid, x_half), (y_mid, y_half)) = (extent(&self.xs), extent(&self.ys));
        let slack = REACH_SLACK * torus.side();
        for at in golden_order(pinned.len()) {
            if active == 0 {
                break;
            }
            let pc = &pinned[at];
            let pos = pc.position();
            let r2 = pc.radius_sq();
            // A camera whose gap to the rectangle's extent on either axis,
            // less the slack, exceeds its radius reaches no point of it.
            let gx = (torus.wrap_coord_delta(pos.x - x_mid).abs() - x_half - slack).max(0.0);
            let gy = (torus.wrap_coord_delta(pos.y - y_mid).abs() - y_half - slack).max(0.0);
            if gx * gx > r2 || gy * gy > r2 {
                continue;
            }
            let cam = &cameras[pc.index()];
            debug_assert!(
                cam.position().x.to_bits() == pos.x.to_bits()
                    && cam.position().y.to_bits() == pos.y.to_bits(),
                "the index holds the camera's own position"
            );
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
                        active -= self.unsure(local);
                        continue;
                    }
                    let covered = match angular_verdict(&cc, self.fdx[ci], self.fdy[rj], d2) {
                        Some(c) => c,
                        None => {
                            active -= self.unsure(local);
                            continue;
                        }
                    };
                    if !covered {
                        continue;
                    }
                    let state = self.state[local];
                    if state >= FINAL {
                        continue;
                    }
                    self.counts[local] += 1;
                    if state == DONE {
                        if self.counts[local] >= self.cap {
                            self.state[local] = FINAL;
                            active -= 1;
                        }
                        continue;
                    }
                    let (rdx, rdy) = (self.rdx[ci], self.rdy[rj]);
                    // Bin from the estimate; near a sector edge, from the
                    // real direction. d² ≥ D2_COLOCATED proves from_vector
                    // is Some; the unwrap-to-unsure is belt-and-braces.
                    let est = direction_estimate(rdx, rdy);
                    match mode {
                        ScreenMode::Report => {
                            let sw = self.suf.words;
                            let nw = self.nec.words;
                            let suf_mask = &mut self.suf_masks[local * sw..][..sw];
                            let nec_mask = &mut self.nec_masks[local * nw..][..nw];
                            let (sfull, nfull) = match (self.suf.bin(est), self.nec.bin(est)) {
                                (Some(sb), Some(nb)) => {
                                    debug_assert!(
                                        Angle::from_vector(rdx, rdy).is_some_and(|d| {
                                            self.suf.bin_matches(d, sb)
                                                && self.nec.bin_matches(d, nb)
                                        }),
                                        "binned ({rdx:e}, {rdy:e}) into the wrong sectors"
                                    );
                                    (
                                        self.suf.set_bin(sb, suf_mask),
                                        self.nec.set_bin(nb, nec_mask),
                                    )
                                }
                                _ => {
                                    #[cfg(test)]
                                    {
                                        self.fallbacks += 1;
                                    }
                                    let Some(rd) = Angle::from_vector(rdx, rdy) else {
                                        self.state[local] = UNSURE;
                                        active -= 1;
                                        continue;
                                    };
                                    (
                                        self.suf.note_direction(rd, suf_mask),
                                        self.nec.note_direction(rd, nec_mask),
                                    )
                                }
                            };
                            if sfull && nfull {
                                if self.counts[local] >= self.cap {
                                    self.state[local] = FINAL;
                                    active -= 1;
                                } else {
                                    self.state[local] = DONE;
                                }
                            }
                        }
                        ScreenMode::Depth { k } => {
                            let ns = self.suf.n_sectors();
                            let depths = &mut self.depths[local * ns..][..ns];
                            if let Some(sb) = self.suf.bin(est) {
                                debug_assert!(
                                    Angle::from_vector(rdx, rdy)
                                        .is_some_and(|d| self.suf.bin_matches(d, sb)),
                                    "binned ({rdx:e}, {rdy:e}) into the wrong sectors"
                                );
                                self.suf.bump_bin(sb, depths, k);
                            } else {
                                #[cfg(test)]
                                {
                                    self.fallbacks += 1;
                                }
                                let Some(rd) = Angle::from_vector(rdx, rdy) else {
                                    self.state[local] = UNSURE;
                                    active -= 1;
                                    continue;
                                };
                                self.suf.note_direction_strict(rd, depths, k);
                            }
                            if depths.iter().all(|&d| d >= k) {
                                self.state[local] = FINAL;
                                active -= 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Retires rectangle-local point `local` as `UNSURE` unless it has
    /// retired already; returns the number of points it retired (0 or 1).
    /// A `FINAL` point stays final: every flag and k verdict it holds is
    /// monotone in the covering set, so no further camera can change it.
    #[inline]
    fn unsure(&mut self, local: usize) -> usize {
        let state = &mut self.state[local];
        if *state >= FINAL {
            return 0;
        }
        *state = UNSURE;
        1
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
    /// viewed direction stage 1 has computed (they stayed `ACTIVE`, so
    /// none was skipped and the walk saw every candidate).
    fn indeterminate(&self, local: usize) -> bool {
        if self.state[local] != ACTIVE {
            return false;
        }
        match self.mode {
            ScreenMode::Report => {
                let sw = self.suf.words;
                self.counts[local] > 0
                    && &self.suf_masks[local * sw..][..sw] != self.suf.full.as_slice()
            }
            // An active point's depths are not all at `k`.
            ScreenMode::Depth { k } => self.counts[local] >= u32::from(k),
        }
    }

    /// Stage 2: gathers the viewed directions of the indeterminate points
    /// of the last screen whose grid index lies in `lo..hi`, so the
    /// funnels can decide them without rescanning the cursor. `cursor`
    /// must still be pinned as it was for [`screen_tile`](Self::screen_tile).
    ///
    /// The directions are computed by stage 1's factorized pass — the
    /// same deltas, then the real `Angle::from_vector` of each — over the
    /// candidates that can reach the rectangle, in the cursor's snapshot
    /// order (stage 1 visited them in golden-ratio order; `live` is sorted
    /// back first), but only on the columns and rows that hold a gathered
    /// point: each point's list, once sorted exactly as the exact analyzer
    /// sorts its own, is bit for bit that analyzer's `viewed_directions`.
    /// A point is gathered when its directions still fit `GATHER_BUDGET`
    /// after those gathered before it; the rest stay undecided.
    pub(crate) fn gather_directions(&mut self, cursor: &TileCursor<'_>, lo: usize, hi: usize) {
        self.slot.clear();
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
        self.live.sort_unstable_by_key(|&(at, _)| at);
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
        debug_assert!(
            self.live.windows(2).all(|w| w[0].0 < w[1].0),
            "stage 2 walks the live candidates in snapshot order"
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
        if self.state[local] == UNSURE {
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
        if self.state[local] == UNSURE {
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
    use proptest::prelude::*;

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

    /// A decided point's count against the exact covering count: equal
    /// below the cap `⌈π/θ⌉`, at least the cap otherwise (a retired point
    /// stops counting), so the flags the count decides — covered and
    /// k-covered — are the exact analyzer's.
    fn assert_count_contract(count: u32, covering: usize, th: EffectiveAngle, idx: usize) {
        let cap = th.necessary_sector_count();
        let count = count as usize;
        assert_eq!(count.min(cap), covering.min(cap), "idx {idx} count");
        assert_eq!(count >= 1, covering >= 1, "idx {idx} covered");
        assert_eq!(count >= cap, covering >= cap, "idx {idx} k-covered");
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
                        assert_count_contract(count, view.covering_cameras, th, idx);
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

    /// The angle of `(x, y)` as the exact path computes it.
    fn real_direction(x: f64, y: f64) -> f64 {
        Angle::from_vector(x, y).expect("nonzero vector").radians()
    }

    /// Circular distance between two radian values.
    fn circular_gap(a: f64, b: f64) -> f64 {
        let d = (a - b).abs() % TAU;
        d.min(TAU - d)
    }

    /// The next float towards +∞ (either zero steps to the smallest
    /// positive subnormal).
    fn ulp_up(x: f64) -> f64 {
        if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    fn ulp_down(x: f64) -> f64 {
        -ulp_up(-x)
    }

    /// The estimate stays within `EST_ERR` of the real direction over 2²⁰
    /// directions around the circle at three lengths, and at every octant
    /// edge (axes and diagonals, signed zeros, a few ulps either side),
    /// where the reduction switches branch.
    #[test]
    fn direction_estimate_is_within_its_error_bound() {
        let n = 1usize << 20;
        let mut worst = 0.0f64;
        for i in 0..n {
            let a = (i as f64 + 0.37) * TAU / n as f64;
            let len = [1e-4, 0.3, 7.0][i % 3];
            let (x, y) = (len * a.cos(), len * a.sin());
            worst = worst.max(circular_gap(direction_estimate(x, y), real_direction(x, y)));
        }
        let near = |v: f64| {
            let mut vs = vec![v, ulp_up(v), ulp_down(v)];
            vs.extend([ulp_up(ulp_up(v)), ulp_down(ulp_down(v))]);
            vs
        };
        let mut edges = 0usize;
        for (x0, y0) in [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)] {
            for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
                for x in near(sx * x0) {
                    for y in near(sy * y0) {
                        if x == 0.0 && y == 0.0 {
                            continue;
                        }
                        edges += 1;
                        let gap = circular_gap(direction_estimate(x, y), real_direction(x, y));
                        assert!(gap <= EST_ERR, "({x:e}, {y:e}) off by {gap:e}");
                        worst = worst.max(gap);
                    }
                }
            }
        }
        assert!(edges > 300);
        assert!(worst <= EST_ERR, "worst error {worst:e}");
        // The bound is tight: the polynomial's own error peaks at a = 1.
        assert!(worst > 2.0e-4, "worst error {worst:e}");
    }

    /// The θ values the edge tests run at: exact divisions, a ragged extra
    /// sector (0.5: 12 + 1 sufficient and 6 + 1 necessary sectors), 2π/7
    /// a few ulps either side, necessary sectors π wide (π/2) and a whole
    /// circle (π), and the kernel's finest partition (2π/256).
    fn edge_thetas() -> Vec<f64> {
        let seventh = TAU / 7.0;
        let (mut below, mut above) = (seventh, seventh);
        for _ in 0..3 {
            (below, above) = (ulp_down(below), ulp_up(above));
        }
        vec![PI / 4.0, 0.5, below, above, PI / 2.0, PI, TAU / 256.0]
    }

    /// Every sector edge of a partition (each sector's start and end).
    fn partition_edges(geom: &PartitionGeom) -> Vec<f64> {
        geom.sectors
            .iter()
            .flat_map(|s| [s.start().radians(), s.end().radians()])
            .collect()
    }

    /// Distance from direction `d` to the nearest of `edges`.
    fn edge_distance(d: f64, edges: &[f64]) -> f64 {
        edges
            .iter()
            .map(|&e| circular_gap(d, e))
            .fold(f64::INFINITY, f64::min)
    }

    /// A camera position at distance ≈ `rho` from `p` whose viewed
    /// direction from `p` (as the exact path computes it) is as close to
    /// `target` as nudging its coordinates by up to 16 ulps reaches.
    fn camera_towards(torus: &Torus, p: Point, target: f64, rho: f64) -> Point {
        let miss = |c: Point| circular_gap(torus.direction(p, c).unwrap().radians(), target);
        let nudge = |x: f64, k: i64| f64::from_bits(x.to_bits().wrapping_add_signed(k));
        let mut best = torus.wrap(Point::new(
            p.x + rho * target.cos(),
            p.y + rho * target.sin(),
        ));
        for _ in 0..2 {
            let base = best;
            for k in -16..=16 {
                for c in [
                    Point::new(nudge(base.x, k), base.y),
                    Point::new(base.x, nudge(base.y, k)),
                ] {
                    if torus.contains(c) && miss(c) < miss(best) {
                        best = c;
                    }
                }
            }
        }
        best
    }

    /// The index cell owning grid column (or row) `c`.
    fn cell_of(tiling: &GridTiling, c: usize) -> usize {
        (0..tiling.cells_per_axis())
            .find(|&cx| tiling.cell_axis_range(cx).contains(&c))
            .expect("every column has a cell")
    }

    /// Stage 1 binning at every sector edge: one disc camera per grid
    /// point, each viewing its point from a direction on a main or extra
    /// sector edge of either partition, or ±1 ulp, ±`ANGLE_EPS`,
    /// ±`BIN_BAND` or ±2·`BIN_BAND` from it, on a non-unit torus with a
    /// start line other than 0. Each point is screened alone (a 1 × 1
    /// rectangle) in Report and Depth modes: its masks and depths are the
    /// exact `note_direction`s of the real direction, its verdict,
    /// `nec_full`, `k_verdict` and gathered list are the exact analyzer's,
    /// and the fallback counter moves exactly for the directions whose
    /// estimate can reach the band.
    #[test]
    fn binning_at_sector_edges_matches_exact() {
        let start = Angle::new(0.7);
        let rho = 0.05;
        let offsets = [
            0.0,
            1.0,
            -1.0,
            ANGLE_EPS,
            -ANGLE_EPS,
            BIN_BAND,
            -BIN_BAND,
            2.0 * BIN_BAND,
            -2.0 * BIN_BAND,
        ];
        let mut analyzer = PointAnalyzer::new();
        let (mut near_total, mut far_total) = (0usize, 0usize);
        for t in edge_thetas() {
            let th = theta(t);
            let mut kernel = SectorMaskKernel::new(th, start).unwrap();
            let suf_edges = partition_edges(&kernel.suf);
            let nec_edges = partition_edges(&kernel.nec);
            let mut all_edges = suf_edges.clone();
            all_edges.extend(&nec_edges);
            // (direction, whether it sits within ulps of an edge).
            let mut targets = Vec::new();
            for &e in &all_edges {
                for o in offsets {
                    let d = match o {
                        1.0 => ulp_up(e),
                        -1.0 => ulp_down(e),
                        _ => e + o,
                    };
                    targets.push((d, o.abs() <= ANGLE_EPS || o.abs() == 1.0));
                }
            }
            let g = (targets.len() as f64).sqrt().ceil() as usize;
            let torus = Torus::with_side(0.25 * g as f64);
            let grid = UnitGrid::new(torus, g);
            let spec = SensorSpec::disc(1.2 * rho).unwrap();
            let cams: Vec<Camera> = targets
                .iter()
                .enumerate()
                .map(|(i, &(d, _))| {
                    let pos = camera_towards(&torus, grid.point(i), d, rho);
                    Camera::new(pos, Angle::ZERO, spec, GroupId(0))
                })
                .collect();
            let net = CameraNetwork::new(torus, cams);
            let tiling = GridTiling::new(net.index(), &grid);
            let mut cursor = net.tile_cursor();
            let suf = SectorPartition::sufficient(th, start);
            let nec = SectorPartition::necessary(th, start);
            for (i, &(_, on_edge)) in targets.iter().enumerate() {
                let (c, r) = (i % g, i / g);
                cursor.pin(cell_of(&tiling, c), cell_of(&tiling, r));
                let p = grid.point(i);
                let view = analyzer.analyze_point_with(&cursor, p);
                assert_eq!(view.covering_cameras, 1, "θ={t} case {i}");
                let d = view.viewed_directions[0];
                let dirs = view.viewed_directions.to_vec();
                let m_suf = edge_distance(d.radians(), &suf_edges);
                let m_all = m_suf.min(edge_distance(d.radians(), &nec_edges));
                if on_edge {
                    assert!(m_all < 1e-8, "θ={t} case {i}: {m_all:e} from an edge");
                }
                let modes = [
                    (ScreenMode::Report, m_all),
                    (ScreenMode::Depth { k: 1 }, m_suf),
                    (ScreenMode::Depth { k: 2 }, m_suf),
                ];
                for (mode, m) in modes {
                    let before = kernel.fallbacks;
                    kernel.screen_tile(&cursor, &grid, c..c + 1, r..r + 1, mode);
                    let fell_back = kernel.fallbacks - before;
                    if m < BIN_BAND - EST_ERR {
                        assert_eq!(fell_back, 1, "θ={t} case {i} {mode:?}: {m:e} from an edge");
                        near_total += 1;
                    } else if m > BIN_BAND + EST_ERR {
                        assert_eq!(fell_back, 0, "θ={t} case {i} {mode:?}: {m:e} from an edge");
                        far_total += 1;
                    }
                    kernel.gather_directions(&cursor, 0, grid.len());
                    let gathered = kernel.directions(0).map(<[Angle]>::to_vec);
                    match mode {
                        ScreenMode::Report => {
                            let mut sm = vec![0u64; kernel.suf.words];
                            let mut nm = vec![0u64; kernel.nec.words];
                            kernel.suf.note_direction(d, &mut sm);
                            kernel.nec.note_direction(d, &mut nm);
                            assert_eq!(kernel.suf_masks, sm, "θ={t} case {i}");
                            assert_eq!(kernel.nec_masks, nm, "θ={t} case {i}");
                            let suf_full = suf.is_satisfied_by(&dirs, false);
                            let nec_full = nec.is_satisfied_by(&dirs, false);
                            assert_eq!(kernel.nec_full(0), nec_full, "θ={t} case {i}");
                            match kernel.verdict(0) {
                                PointVerdict::Decided {
                                    count,
                                    suf_full: s,
                                    nec_full: n,
                                } => {
                                    assert_eq!((count, s, n), (1, suf_full, nec_full));
                                    assert!(suf_full && gathered.is_none());
                                }
                                PointVerdict::Undecided => {
                                    assert!(!suf_full, "θ={t} case {i}");
                                    assert_eq!(gathered.as_deref(), Some(&dirs[..]));
                                }
                            }
                        }
                        ScreenMode::Depth { k } => {
                            let mut depths = vec![0u8; kernel.suf.n_sectors()];
                            kernel.suf.note_direction_strict(d, &mut depths, k);
                            assert_eq!(kernel.depths, depths, "θ={t} case {i} k={k}");
                            let exact = crate::kfullview::min_arc_depth(&dirs, th.radians());
                            match kernel.k_verdict(0, k) {
                                Some(met) => {
                                    assert_eq!(met, exact >= usize::from(k), "θ={t} case {i}");
                                }
                                None => assert_eq!(gathered.as_deref(), Some(&dirs[..])),
                            }
                        }
                    }
                }
            }
        }
        assert!(
            near_total > 100 && far_total > 100,
            "{near_total} near, {far_total} far"
        );
    }

    /// Whole-tile screens of points that each see a direction at every
    /// sector edge (or every other edge) of both partitions, shifted by
    /// one of the edge offsets: Report verdicts, counts and `nec_full`,
    /// Depth `k_verdict`s and every gathered list equal the exact
    /// analyzer's at each edge-test θ, on a non-unit torus with a start
    /// line other than 0.
    #[test]
    fn edge_crowded_points_match_exact() {
        let start = Angle::new(2.2);
        let rho = 0.05;
        let offsets = [
            0.0,
            ANGLE_EPS,
            -ANGLE_EPS,
            BIN_BAND,
            -BIN_BAND,
            2.0 * BIN_BAND,
        ];
        let mut analyzer = PointAnalyzer::new();
        let (mut decided, mut gathered_lists) = (0usize, 0usize);
        for t in edge_thetas() {
            let th = theta(t);
            let mut kernel = SectorMaskKernel::new(th, start).unwrap();
            let mut edges = partition_edges(&kernel.suf);
            edges.extend(partition_edges(&kernel.nec));
            let g = 4;
            let torus = Torus::with_side(0.25 * g as f64);
            let grid = UnitGrid::new(torus, g);
            let spec = SensorSpec::disc(1.2 * rho).unwrap();
            let mut cams = Vec::new();
            for (i, o) in offsets.into_iter().enumerate() {
                for (stride, idx) in [(1, 2 * i), (2, 2 * i + 1)] {
                    for &e in edges.iter().step_by(stride) {
                        let pos = camera_towards(&torus, grid.point(idx), e + o, rho);
                        cams.push(Camera::new(pos, Angle::ZERO, spec, GroupId(0)));
                    }
                }
            }
            let net = CameraNetwork::new(torus, cams);
            let suf = SectorPartition::sufficient(th, start);
            let nec = SectorPartition::necessary(th, start);
            let modes = [
                ScreenMode::Report,
                ScreenMode::Depth { k: 1 },
                ScreenMode::Depth { k: 2 },
            ];
            for mode in modes {
                for_each_gathered_tile(
                    &net,
                    &grid,
                    &mut kernel,
                    mode,
                    (0, grid.len()),
                    |kernel, cursor, local, idx| {
                        let view = analyzer.analyze_point_with(cursor, grid.point(idx));
                        let dirs = view.viewed_directions;
                        if let Some(list) = kernel.directions(local) {
                            assert_eq!(list, dirs, "θ={t} idx {idx}");
                            gathered_lists += 1;
                        }
                        match mode {
                            ScreenMode::Report => match kernel.verdict(local) {
                                PointVerdict::Decided {
                                    count,
                                    suf_full,
                                    nec_full,
                                } => {
                                    decided += usize::from(count > 0);
                                    assert_count_contract(count, view.covering_cameras, th, idx);
                                    assert_eq!(suf_full, suf.is_satisfied_by(dirs, false));
                                    assert_eq!(nec_full, nec.is_satisfied_by(dirs, false));
                                }
                                PointVerdict::Undecided => {
                                    assert!(kernel.directions(local).is_some(), "idx {idx}");
                                    assert_eq!(
                                        kernel.nec_full(local),
                                        nec.is_satisfied_by(dirs, false)
                                    );
                                }
                            },
                            ScreenMode::Depth { k } => {
                                let exact = crate::kfullview::min_arc_depth(dirs, th.radians());
                                match kernel.k_verdict(local, k) {
                                    Some(met) => assert_eq!(met, exact >= usize::from(k)),
                                    None => assert!(kernel.directions(local).is_some()),
                                }
                            }
                        }
                    },
                );
            }
        }
        assert!(
            decided > 0 && gathered_lists > 0,
            "{decided} decided, {gathered_lists} gathered"
        );
    }

    /// One retirement case: a fleet on a small grid, θ and the start line.
    #[derive(Debug, Clone)]
    struct RetireCase {
        net: CameraNetwork,
        side: usize,
        th: EffectiveAngle,
        start: Angle,
    }

    /// Fleets on a `side`² unit-torus grid that retire points early and
    /// late: generic directional cameras, wide discs that fill masks and
    /// counts, cameras colocated with a grid point, and cameras whose
    /// field-of-view edge (or sensing circle) passes through a grid
    /// point, so some verdicts fall inside the band. θ runs from π (cap 1)
    /// to π/8, a ragged 0.5 and 2π/7 a few ulps either side included.
    fn retire_case_strategy() -> impl Strategy<Value = RetireCase> {
        let draw = (
            0usize..8,
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..1.0f64,
        );
        (
            4usize..11,
            prop::collection::vec(draw, 1..48),
            (0usize..7, -3i64..=3),
            0.0..TAU,
        )
            .prop_map(|(side, draws, (t_sel, ulps), start)| {
                let torus = Torus::unit();
                let grid = UnitGrid::new(torus, side);
                let spec = |r: f64, phi: f64| SensorSpec::new(r, phi).unwrap();
                let cams = draws
                    .into_iter()
                    .map(|(sel, u1, u2, u3, u4)| {
                        let p = grid.point(((u1 * grid.len() as f64) as usize).min(grid.len() - 1));
                        let away = |rho: f64| {
                            let a = u3 * TAU;
                            torus.wrap(Point::new(p.x + rho * a.cos(), p.y + rho * a.sin()))
                        };
                        let (pos, facing, sp) = match sel {
                            0..=2 => (
                                Point::new(u1, u2),
                                u3 * TAU,
                                spec(0.1 + 0.3 * u4, PI / 3.0 + u4 * (TAU - PI / 3.0)),
                            ),
                            3 | 4 => (Point::new(u1, u2), 0.0, spec(0.15 + 0.3 * u4, TAU)),
                            5 => (p, u3 * TAU, spec(0.05 + 0.25 * u4, PI / 2.0)),
                            6 => {
                                // The point on the field-of-view edge.
                                let phi = PI / 4.0 + u4 * PI;
                                let pos = away(0.05 + 0.2 * u2);
                                let to_p = torus.direction(pos, p).unwrap().radians();
                                let edge = if u4 < 0.5 { 0.5 * phi } else { -0.5 * phi };
                                (pos, to_p + edge, spec(0.3, phi))
                            }
                            _ => {
                                // The point on the sensing circle.
                                let r = 0.1 + 0.2 * u2;
                                (away(r), 0.0, spec(r, TAU))
                            }
                        };
                        Camera::new(pos, Angle::new(facing), sp, GroupId(0))
                    })
                    .collect();
                let seventh = (TAU / 7.0) * (1.0 + ulps as f64 * 1e-16);
                let t = [PI, PI / 2.0, PI / 3.0, PI / 4.0, 0.5, seventh, PI / 8.0][t_sel];
                RetireCase {
                    net: CameraNetwork::new(torus, cams),
                    side,
                    th: theta(t),
                    start: Angle::new(start),
                }
            })
    }

    /// Screens every tile of `case` in Report mode and Depth mode for
    /// k = 1..=3 and checks every point against the exact analyzer: a
    /// decided point — retired `FINAL` or not — gives the exact flags and
    /// k verdicts, an undecided one is either retired `UNSURE` (the
    /// funnels rescan it) or has the exact viewed directions gathered.
    /// Returns how many checks met a `FINAL` point, a decided unretired
    /// point, an `UNSURE` one, a gathered one, and a `FINAL` point that a
    /// colocated camera also reaches.
    fn check_retirement(case: &RetireCase) -> Result<[usize; 5], TestCaseError> {
        let RetireCase {
            net,
            side,
            th,
            start,
        } = case;
        let grid = UnitGrid::new(*net.torus(), *side);
        let tiling = GridTiling::new(net.index(), &grid);
        let mut cursor = net.tile_cursor();
        let mut kernel = SectorMaskKernel::new(*th, *start).unwrap();
        let mut exact = crate::GridEvaluator::new_exact(*th, *start);
        let mut analyzer = PointAnalyzer::new();
        let cap = th.necessary_sector_count();
        let mut seen = [0usize; 5];
        let modes = [
            ScreenMode::Report,
            ScreenMode::Depth { k: 1 },
            ScreenMode::Depth { k: 2 },
            ScreenMode::Depth { k: 3 },
        ];
        for t in 0..tiling.tile_count() {
            if tiling.tile_point_count(t) == 0 {
                continue;
            }
            let (cx, cy) = tiling.tile_cell(t);
            cursor.pin(cx, cy);
            for mode in modes {
                let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
                kernel.screen_tile(&cursor, &grid, cols, rows, mode);
                kernel.gather_directions(&cursor, 0, grid.len());
                let mut points = Vec::new();
                let mut local = 0usize;
                tiling.for_each_point_in_tile(t, |idx| {
                    points.push((local, idx));
                    local += 1;
                });
                for (local, idx) in points {
                    let p = grid.point(idx);
                    let view = analyzer.analyze_point_with(net, p);
                    let dirs = view.viewed_directions.to_vec();
                    let colocated = view.covering_cameras - dirs.len();
                    let state = kernel.state[local];
                    let decided = match mode {
                        ScreenMode::Report => match kernel.verdict(local) {
                            PointVerdict::Decided {
                                count,
                                suf_full,
                                nec_full,
                            } => {
                                let flags = crate::PointFlags {
                                    covered: count >= 1,
                                    k_covered: count as usize >= cap,
                                    necessary: nec_full,
                                    full_view: suf_full,
                                    sufficient: suf_full,
                                };
                                prop_assert_eq!(
                                    flags,
                                    exact.point_flags_with(net, p),
                                    "idx {}",
                                    idx
                                );
                                true
                            }
                            PointVerdict::Undecided => false,
                        },
                        ScreenMode::Depth { k } => match kernel.k_verdict(local, k) {
                            Some(met) => {
                                let multiplicity =
                                    crate::kfullview::min_arc_depth(&dirs, th.radians())
                                        + colocated;
                                prop_assert_eq!(
                                    met,
                                    multiplicity >= usize::from(k),
                                    "idx {} k={}",
                                    idx,
                                    k
                                );
                                true
                            }
                            None => false,
                        },
                    };
                    if decided {
                        prop_assert!(state != UNSURE, "idx {} decided while unsure", idx);
                        let slot = if state == FINAL { 0 } else { 1 };
                        seen[slot] += 1;
                        seen[4] += usize::from(state == FINAL && colocated > 0);
                    } else if state == UNSURE {
                        seen[2] += 1;
                    } else {
                        let gathered = kernel.directions(local);
                        prop_assert_eq!(gathered, Some(&dirs[..]), "idx {} gathered", idx);
                        seen[3] += 1;
                    }
                }
            }
        }
        Ok(seen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Retired and unretired points alike give the exact analyzer's
        /// flags and k verdicts, in both modes.
        #[test]
        fn retired_points_keep_the_exact_verdicts(case in retire_case_strategy()) {
            check_retirement(&case)?;
        }
    }

    /// The retirement property is not vacuous: over its cases, points
    /// retire `FINAL` (some also reached by a colocated camera, which no
    /// longer reopens them), stay decided without retiring, retire
    /// `UNSURE`, and are gathered.
    #[test]
    fn retirement_cases_reach_every_state() {
        let mut rng = TestRng::for_test("retired_points_keep_the_exact_verdicts");
        let strategy = retire_case_strategy();
        let mut seen = [0usize; 5];
        for _ in 0..64 {
            let case = strategy.generate(&mut rng);
            let got = check_retirement(&case).unwrap();
            for (total, n) in seen.iter_mut().zip(got) {
                *total += n;
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "final, decided, unsure, gathered, final+colocated: {seen:?}"
        );
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
