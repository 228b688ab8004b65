//! The in-process mirror of a served fleet: the same cameras, the same
//! moves, and the library's answer to every served read.
//!
//! The daemon answers `check` and `holes` from warm incremental sweeps
//! and renders `map`/`kfull` cold. The mirror keeps its own incremental
//! sweeps for the first two. For the cold reads it re-renders only the
//! bands of rows a move can change (rows within the moved camera's
//! sensing radius of its old or new position, widened to the tile bands
//! the engine sweeps whole anyway) and splices them in. The traced run
//! also times one cold `coverage_map_text` per move, the daemon's own
//! `map` call, as `core.render.map`. [`Mirror::cross_check`] recomputes
//! everything cold at the end of a run.

use crate::regime::{rows_near, Move};
use crate::trace::Tracer;
use fullview_core::canon::network_fingerprint;
use fullview_core::{
    count_k_view_range, coverage_glyphs_range, coverage_map_from_glyphs, coverage_map_text,
    dense_grid, hole_report_text, holes_from_mask, kfull_text, EffectiveAngle, GridCoverageReport,
    GridTiling, IncrementalSweep,
};
use fullview_geom::{Angle, UnitGrid};
use fullview_model::CameraNetwork;
use fullview_sim::evaluate_dense_grid_parallel;
use std::time::Duration;

/// The library's rendering of the daemon's `check` answer.
#[must_use]
pub fn check_text(cameras: usize, report: &GridCoverageReport) -> String {
    format!(
        "{cameras} cameras\n{report}\nfull-view fraction {:.4}\n",
        report.full_view_fraction()
    )
}

/// What one mirrored move cost and touched.
#[derive(Debug, Clone, Copy)]
pub struct MoveWork {
    /// Dense-grid points the incremental repair re-evaluated.
    pub points_resweeped: usize,
    /// Dense-grid points.
    pub dense_points: usize,
    /// Library time of the daemon's own calls for the move and its
    /// dependent answers: the move, the dense repair, holes and, in the
    /// traced run only, the cold map render.
    pub compute: Duration,
}

/// A served fleet's library twin.
#[derive(Debug)]
pub struct Mirror {
    net: CameraNetwork,
    theta: EffectiveAngle,
    dense: IncrementalSweep,
    small: IncrementalSweep,
    side: usize,
    /// Row ranges of the `side` grid's tile bands.
    bands: Vec<(usize, usize)>,
    glyphs: Vec<char>,
    /// `k` and per-band k-full-view counts on the `side` grid.
    kfull: Option<(usize, Vec<usize>)>,
}

impl Mirror {
    /// Builds the twin of `net`: a warm dense sweep for `check`, a warm
    /// `side` sweep for `holes`, the `side` map glyphs, and per-row
    /// `kfull` counts when `kfull_k` is set.
    pub fn new(
        tr: &mut Tracer,
        net: CameraNetwork,
        theta: EffectiveAngle,
        side: usize,
        kfull_k: Option<usize>,
    ) -> Self {
        let dense_side = dense_grid(*net.torus(), net.len()).side_count();
        let (dense, _) = tr.time("core.incremental.cold", crate::trace::NO_ROUND, || {
            IncrementalSweep::new(&net, theta, Angle::ZERO, dense_side)
        });
        let small = IncrementalSweep::new(&net, theta, Angle::ZERO, side);
        let grid = UnitGrid::new(*net.torus(), side);
        let tiling = GridTiling::new(net.index(), &grid);
        let bands: Vec<(usize, usize)> = (0..tiling.cells_per_axis())
            .map(|c| tiling.cell_axis_range(c))
            .filter(|rows| !rows.is_empty())
            .map(|rows| (rows.start, rows.end))
            .collect();
        let glyphs = coverage_glyphs_range(&net, theta, side, 0, side * side)
            .chars()
            .collect();
        let kfull = kfull_k.map(|k| {
            let counts = bands
                .iter()
                .map(|&(lo, hi)| count_k_view_range(&net, &grid, theta, k, lo * side, hi * side))
                .collect();
            (k, counts)
        });
        Mirror {
            net,
            theta,
            dense,
            small,
            side,
            bands,
            glyphs,
            kfull,
        }
    }

    /// The mirrored fleet.
    #[must_use]
    pub fn net(&self) -> &CameraNetwork {
        &self.net
    }

    /// The fleet's canonical fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        network_fingerprint(&self.net)
    }

    /// The library's `check` answer.
    #[must_use]
    pub fn check(&self) -> String {
        check_text(self.net.len(), self.dense.report())
    }

    /// The library's `holes grid=side` answer.
    #[must_use]
    pub fn holes(&self) -> String {
        hole_report_text(&holes_from_mask(
            *self.net.torus(),
            self.side,
            self.small.mask(),
        ))
    }

    /// The library's `map side=side` answer.
    #[must_use]
    pub fn map(&self) -> String {
        coverage_map_from_glyphs(self.side, &self.glyphs.iter().collect::<String>())
    }

    /// The library's `kfull k=k grid=side` answer (`None` without kfull).
    #[must_use]
    pub fn kfull(&self) -> Option<String> {
        self.kfull
            .as_ref()
            .map(|(k, rows)| kfull_text(*k, self.side, rows.iter().sum(), self.side * self.side))
    }

    /// Applies `mv` and repairs every answer: the incremental sweeps, and
    /// the map glyphs and kfull counts of the tile bands the move can
    /// change. With tracing on, also times the daemon's cold map render.
    pub fn apply(&mut self, tr: &mut Tracer, round: u64, mv: Move) -> MoveWork {
        let before = self.net.cameras()[mv.id];
        let radius = before.spec().radius();
        let ((), t_move) = tr.time("model.move", round, || {
            self.net.move_camera(mv.id, mv.to());
            std::hint::black_box(network_fingerprint(&self.net));
        });
        let after = self.net.cameras()[mv.id].position();
        let (delta, t_repair) = tr.time("core.incremental.repair", round, || {
            self.dense.mark_disk(before.position(), radius);
            self.dense.mark_disk(after, radius);
            self.dense.resweep_dirty(&self.net)
        });
        let (_, t_holes) = tr.time("core.holes", round, || {
            self.small.mark_disk(before.position(), radius);
            self.small.mark_disk(after, radius);
            self.small.resweep_dirty(&self.net);
            self.holes()
        });
        let (net, theta, side) = (&self.net, self.theta, self.side);
        let near = rows_near(net, &[before.position(), after], radius, side);
        let grid = UnitGrid::new(*net.torus(), side);
        for (band, &(lo, hi)) in self.bands.iter().enumerate() {
            if !near[lo..hi].contains(&true) {
                continue;
            }
            let fresh = coverage_glyphs_range(net, theta, side, lo * side, hi * side);
            for (cell, glyph) in self.glyphs[lo * side..hi * side]
                .iter_mut()
                .zip(fresh.chars())
            {
                *cell = glyph;
            }
            if let Some((k, counts)) = &mut self.kfull {
                counts[band] = count_k_view_range(net, &grid, theta, *k, lo * side, hi * side);
            }
        }
        let t_map = if tr.enabled() {
            let (map, t) = tr.time("core.render.map", round, || {
                coverage_map_text(net, theta, side)
            });
            std::hint::black_box(map);
            t
        } else {
            Duration::ZERO
        };
        MoveWork {
            points_resweeped: delta.points_resweeped,
            dense_points: self.dense.mask().len(),
            compute: t_move + t_repair + t_holes + t_map,
        }
    }

    /// Recomputes every answer cold and names any that differ from the
    /// maintained ones.
    #[must_use]
    pub fn cross_check(&self) -> Vec<&'static str> {
        let mut wrong = Vec::new();
        let cold = evaluate_dense_grid_parallel(&self.net, self.theta, Angle::ZERO, 1);
        if check_text(self.net.len(), &cold) != self.check() {
            wrong.push("check");
        }
        let fresh = IncrementalSweep::new(&self.net, self.theta, Angle::ZERO, self.side);
        if hole_report_text(&holes_from_mask(*self.net.torus(), self.side, fresh.mask()))
            != self.holes()
        {
            wrong.push("holes");
        }
        if coverage_map_text(&self.net, self.theta, self.side) != self.map() {
            wrong.push("map");
        }
        if let Some((k, _)) = &self.kfull {
            let grid = UnitGrid::new(*self.net.torus(), self.side);
            let meeting = count_k_view_range(&self.net, &grid, self.theta, *k, 0, grid.len());
            if Some(kfull_text(*k, self.side, meeting, grid.len())) != self.kfull() {
                wrong.push("kfull");
            }
        }
        wrong
    }
}
