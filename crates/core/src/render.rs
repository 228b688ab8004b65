//! Shared text rendering of coverage results.
//!
//! The one-shot CLI (`fvc map`, `fvc holes`) and the long-running
//! coverage service must produce *byte-identical* output for the same
//! query — that is what makes the service's result cache transparently
//! substitutable for a fresh computation. Centralizing the rendering
//! here is what guarantees it: both front-ends call these functions and
//! only decide where the bytes go.

use crate::densegrid::PointFlags;
use crate::engine::sweep_flags_range;
use crate::holes::HoleReport;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, UnitGrid};
use fullview_model::CameraNetwork;
use std::fmt::Write as _;

/// The legend line shared by every rendering of the coverage-map glyphs.
const MAP_LEGEND: &str =
    "legend: '#' sufficient, 'F' full-view, 'n' necessary, '.' covered, ' ' bare";

/// The five coverage-map glyphs, strongest verdict first: sufficient,
/// full-view, necessary, covered, bare (the legend's order).
pub const MAP_GLYPHS: [u8; 5] = *b"#Fn. ";

/// The coverage-map glyph of one point's predicate verdicts, as its
/// ASCII byte: the glyph of the strongest verdict that holds.
pub(crate) fn glyph_of(flags: &PointFlags) -> u8 {
    let ranked = [
        flags.sufficient,
        flags.full_view,
        flags.necessary,
        flags.covered,
        true,
    ];
    MAP_GLYPHS[ranked.iter().position(|&v| v).expect("bare always holds")]
}

/// A buffer of [`glyph_of`] bytes as a `String`, without copying it.
pub(crate) fn glyph_string(glyphs: Vec<u8>) -> String {
    String::from_utf8(glyphs).expect("coverage-map glyphs are ASCII")
}

/// The coverage-map glyphs of the row-major grid index range `lo..hi`
/// on a `side × side` grid — the scatter unit of the cluster layer.
/// Concatenating range results over a partition of `0..side²` yields the
/// exact cell buffer of [`coverage_map_text`].
///
/// # Panics
///
/// Panics if `side == 0`, `lo > hi`, or `hi > side²`.
#[must_use]
pub fn coverage_glyphs_range(
    net: &CameraNetwork,
    theta: EffectiveAngle,
    side: usize,
    lo: usize,
    hi: usize,
) -> String {
    assert!(side > 0, "map side must be positive");
    let grid = UnitGrid::new(*net.torus(), side);
    coverage_glyphs_range_with(lo, hi, |emit| {
        sweep_flags_range(net, &grid, theta, Angle::ZERO, lo, hi, emit);
    })
}

/// [`coverage_glyphs_range`] with the flags sweep supplied by the caller:
/// `sweep` must call its callback exactly once per index of `lo..hi` (any
/// order) with that point's [`PointFlags`]. The glyph mapping and buffer
/// layout are shared with [`coverage_glyphs_range`], so any sweep whose
/// flags are bit-identical to [`sweep_flags_range`] (e.g. the
/// hierarchical prover) renders byte-identical glyphs.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn coverage_glyphs_range_with<F>(lo: usize, hi: usize, sweep: F) -> String
where
    F: FnOnce(&mut dyn FnMut(usize, PointFlags)),
{
    assert!(lo <= hi, "inverted range {lo}..{hi}");
    // Sweeps visit points in tile order, so render into an index-keyed
    // buffer.
    let mut cells = vec![b' '; hi - lo];
    sweep(&mut |idx, flags| {
        cells[idx - lo] = glyph_of(&flags);
    });
    glyph_string(cells)
}

/// Renders a full glyph buffer (as produced by [`coverage_glyphs_range`]
/// over `0..side²`, or gathered from cluster shards) into the exact text
/// of [`coverage_map_text`]: legend line, blank separator, then `side`
/// `|…|`-framed rows, top row first.
///
/// # Panics
///
/// Panics unless `glyphs` is exactly `side²` ASCII glyph bytes.
#[must_use]
pub fn coverage_map_from_glyphs(side: usize, glyphs: &str) -> String {
    assert!(
        glyphs.len() == side * side && glyphs.is_ascii(),
        "glyph buffer must hold side² cells of ASCII glyph bytes"
    );
    let mut out = String::with_capacity(MAP_LEGEND.len() + 2 + side * (side + 3));
    let _ = writeln!(out, "{MAP_LEGEND}\n");
    for j in (0..side).rev() {
        out.push('|');
        out.push_str(&glyphs[j * side..(j + 1) * side]);
        out.push_str("|\n");
    }
    out
}

/// The ASCII coverage map of `net` on a `side × side` grid — legend line,
/// blank separator, then `side` rows (top row first), each `|…|`-framed.
///
/// Cell glyphs: `#` meets the sufficient condition, `F` full-view
/// covered, `n` meets the necessary condition, `.` covered by at least
/// one camera, space bare.
///
/// # Panics
///
/// Panics if `side == 0`.
#[must_use]
pub fn coverage_map_text(net: &CameraNetwork, theta: EffectiveAngle, side: usize) -> String {
    coverage_map_from_glyphs(
        side,
        &coverage_glyphs_range(net, theta, side, 0, side * side),
    )
}

/// The `fvc kfull` / service `kfull` summary line for `meeting` of
/// `total` grid points watched from every direction by at least `k`
/// cameras. Centralized so the single daemon and the cluster coordinator
/// (which sums per-shard counts) emit identical bytes.
///
/// # Panics
///
/// Panics if `total == 0`.
#[must_use]
pub fn kfull_text(k: usize, grid_side: usize, meeting: usize, total: usize) -> String {
    assert!(total > 0, "total grid points must be positive");
    format!(
        "k-full-view k={k} grid={grid_side}: fraction {:.4} ({meeting}/{total} points)\n",
        meeting as f64 / total as f64
    )
}

/// The hole summary as printed by `fvc holes`: the report line followed
/// by up to ten per-hole lines and an elision count.
#[must_use]
pub fn hole_report_text(report: &HoleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    for (i, hole) in report.holes.iter().take(10).enumerate() {
        let _ = writeln!(
            out,
            "  hole {}: {} cells (~{:.4} area) around {}",
            i + 1,
            hole.cells,
            hole.area,
            hole.centroid
        );
    }
    if report.hole_count() > 10 {
        let _ = writeln!(out, "  … and {} more", report.hole_count() - 10);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holes::find_holes;
    use fullview_geom::{Point, Torus};
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn small_net() -> CameraNetwork {
        let spec = SensorSpec::new(0.25, PI).unwrap();
        let cams = (0..9)
            .map(|i| {
                Camera::new(
                    Point::new((i % 3) as f64 / 3.0, (i / 3) as f64 / 3.0),
                    Angle::new(i as f64),
                    spec,
                    GroupId(0),
                )
            })
            .collect();
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn map_text_shape() {
        let net = small_net();
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let text = coverage_map_text(&net, theta, 12);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 12, "legend + blank + 12 rows");
        assert!(lines[0].starts_with("legend:"));
        assert!(lines[1].is_empty());
        for row in &lines[2..] {
            assert_eq!(row.len(), 14, "12 cells + 2 frame chars: {row:?}");
            assert!(row.starts_with('|') && row.ends_with('|'));
        }
        assert!(text.ends_with('\n'));
        // Deterministic: same input, same bytes.
        assert_eq!(text, coverage_map_text(&net, theta, 12));
    }

    #[test]
    fn glyph_ranges_concatenate_to_the_full_map() {
        let net = small_net();
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let side = 14;
        let total = side * side;
        let full = coverage_map_text(&net, theta, side);
        for cuts in [
            vec![0, total],
            vec![0, 50, total],
            vec![0, 1, 99, 100, total],
        ] {
            let glyphs: String = cuts
                .windows(2)
                .map(|w| coverage_glyphs_range(&net, theta, side, w[0], w[1]))
                .collect();
            assert_eq!(
                coverage_map_from_glyphs(side, &glyphs),
                full,
                "partition {cuts:?} must reassemble the exact map bytes"
            );
        }
    }

    #[test]
    fn kfull_text_format_is_stable() {
        assert_eq!(
            kfull_text(2, 24, 3, 576),
            "k-full-view k=2 grid=24: fraction 0.0052 (3/576 points)\n"
        );
        assert_eq!(
            kfull_text(1, 8, 64, 64),
            "k-full-view k=1 grid=8: fraction 1.0000 (64/64 points)\n"
        );
    }

    #[test]
    #[should_panic(expected = "side² cells")]
    fn wrong_glyph_count_panics() {
        let _ = coverage_map_from_glyphs(4, "too short");
    }

    #[test]
    #[should_panic(expected = "side² cells")]
    fn non_ascii_glyphs_panic_instead_of_rendering() {
        // Four chars for a 2 × 2 map, but eight bytes.
        let _ = coverage_map_from_glyphs(2, "éééé");
    }

    #[test]
    fn hole_text_elides_beyond_ten() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let report = find_holes(&net, theta, 6);
        let text = hole_report_text(&report);
        assert!(text.starts_with("holes[6×6]:"), "{text}");
        // An empty network has exactly one torus-spanning hole.
        assert!(text.contains("hole 1:"));
        let mut many = report;
        let hole = many.holes[0].clone();
        many.holes = vec![hole; 13];
        let text = hole_report_text(&many);
        assert!(text.contains("… and 3 more"), "{text}");
        assert_eq!(text.matches("hole ").count(), 10, "per-hole lines elided");
    }
}
