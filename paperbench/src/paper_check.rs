//! `paper_check`: the body of `fvc check --threads 1`, in process.
//!
//! Each fleet is deployed at Theorem 2's sufficient CSA and checked on
//! the dense grid (m = ⌈n ln n⌉ points) twice — by the default engine and
//! by the hier prover — and then mapped by the hier prover at 4× the
//! dense side. At this density the mask screen decides every point, so
//! the exact analyzer is idle; hier proves ~95% of the dense grid but is
//! no faster there, and is ~16× faster on the 4× map. The workload thus
//! sits on both sides of the tier choice.

use crate::calibrate::{Calibration, Scaled};
use crate::regime::{self, fleet_seed};
use crate::stats::median;
use crate::trace::{median_ms, Tracer, NO_ROUND};
use crate::{once, peak_rss_mb, sampled, Ops, Outcome, RunConfig};
use fullview_core::canon::CanonicalHasher;
use fullview_core::{
    coverage_glyphs_range, dense_grid, GridCoverageReport, GridEvaluator, GridTiling,
};
use fullview_geom::Angle;
use fullview_hier::{coverage_map_text_hier, evaluate_grid_hier, ProverStats};
use fullview_sim::evaluate_dense_grid_parallel;
use std::time::Instant;

/// Reference-kernel samples taken before each fleet.
const FLEET_REFERENCE_SAMPLES: usize = 10;

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let scale = cfg.scale;
    let n = scale.n;
    let theta = regime::theta();
    let profile = regime::profile(regime::sufficient_csa(n));
    let mut tr = Tracer::new(cfg.trace);
    let mut ops = Ops::default();
    let mut digest = CanonicalHasher::new();
    let mut script = Vec::new();
    let (mut setup_cal, mut run_cal) = (Calibration::default(), Calibration::default());

    // Set-up: deploy the first fleet and run one untimed warm-up check.
    let mut setup_s = Scaled::default();
    let mut warm: Option<GridCoverageReport> = None;
    for _ in 0..scale.setups {
        setup_cal.sample(4);
        let mark = setup_cal.mark();
        let open = tr.begin("setup", NO_ROUND);
        let (net, _) = tr.time("deploy.fleet", NO_ROUND, || {
            regime::fleet(&profile, n, fleet_seed(cfg.seed, 0))
        });
        let (report, _) = tr.time("sim.check", NO_ROUND, || {
            evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, 1)
        });
        setup_s.push(tr.end(open).as_secs_f64(), mark);
        warm = Some(report);
    }
    setup_cal.sample(4);

    let mut check_s = Scaled::default();
    let mut check_hier_s = Vec::new();
    let mut map_hier_s = Vec::new();
    let mut refresh_ms = Scaled::default();
    let mut hier_check = Vec::new();
    let mut hier_map = Vec::new();
    let mut screen_rates = Vec::new();
    let mut mask_ns = Vec::new();
    let mut exact_ns = Vec::new();
    let mut threads2 = None;
    let mut dense_points = 0usize;
    let mut map_points = 0usize;

    let started = Instant::now();
    let mut fleet = 0u64;
    while (fleet as usize) < scale.min_fleets || started.elapsed().as_secs_f64() < cfg.seconds {
        let seed = fleet_seed(cfg.seed, fleet);
        run_cal.sample(FLEET_REFERENCE_SAMPLES);
        let mark = run_cal.mark();
        script.push(format!("fleet {fleet} seed {seed}"));

        // The timed body: deploy, default check, hier check, hier map.
        let open = tr.begin("fleet", fleet);
        let (net, _) = tr.time("deploy.fleet", fleet, || regime::fleet(&profile, n, seed));
        let grid = dense_grid(*net.torus(), n);
        let map_side = grid.side_count() * scale.map_factor;
        let (report, t_check) = tr.time("sim.check", fleet, || {
            evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, 1)
        });
        let ((hier_report, hstats), t_hier) = tr.time("hier.check", fleet, || {
            evaluate_grid_hier(&net, theta, &grid, Angle::ZERO)
        });
        let ((map, mstats), t_map) = tr.time("hier.map", fleet, || {
            coverage_map_text_hier(&net, theta, map_side)
        });
        refresh_ms.push(tr.end(open).as_secs_f64() * 1e3, mark);
        check_s.push(t_check.as_secs_f64(), mark);
        check_hier_s.push(t_hier.as_secs_f64());
        map_hier_s.push(t_map.as_secs_f64());
        hier_check.push(hstats);
        hier_map.push(mstats);
        dense_points = grid.len();
        map_points = map_side * map_side;

        // Every answer is checked, outside the timed body.
        ops.record(fleet != 0 || warm.as_ref() == Some(&report), || {
            format!("fleet {fleet}: check differs from the warm-up check of the same fleet")
        });
        ops.record(hier_report == report, || {
            format!("fleet {fleet}: hier report differs from the default engine's")
        });
        // The block is the tile band holding the map's middle row: the
        // engine sweeps whole bands even for a one-row range (~2 s at this
        // side), so one fleet per run gets the check.
        if fleet == 0 {
            let map_grid = fullview_geom::UnitGrid::new(*net.torus(), map_side);
            let tiling = GridTiling::new(net.index(), &map_grid);
            let band = (0..tiling.cells_per_axis())
                .map(|c| tiling.cell_axis_range(c))
                .find(|rows| rows.contains(&(map_side / 2)))
                .unwrap_or(map_side / 2..map_side / 2 + 1);
            let block_ok = map_block_matches(&map, map_side, band, |lo, hi| {
                coverage_glyphs_range(&net, theta, map_side, lo, hi)
            });
            ops.record(block_ok, || {
                format!("fleet {fleet}: hier map block differs from coverage_glyphs_range")
            });
        }
        digest.write_str(&report.to_string());
        digest.write_str(&hier_report.to_string());
        digest.write_str(&map);

        if cfg.trace {
            // Kernel probes on the same fleet: the mask-screened evaluator
            // over the dense grid, and the exact analyzer over a fixed
            // block of tiles (against the screened result on that block).
            let mut ev = GridEvaluator::new(theta, Angle::ZERO);
            let (probe, t_mask) = tr.time("core.mask.evaluate_grid", fleet, || {
                ev.evaluate_grid(&net, &grid)
            });
            ops.record(probe == report, || {
                format!("fleet {fleet}: GridEvaluator report differs from the sweep's")
            });
            screen_rates.push(ev.screen_stats().screen_rate());
            mask_ns.push(t_mask.as_nanos() as f64 / grid.len() as f64);

            let tiling = GridTiling::new(net.index(), &grid);
            let tiles: Vec<usize> = (0..tiling.tile_count())
                .filter(|&t| tiling.tile_point_count(t) > 0)
                .take(scale.exact_tiles)
                .collect();
            let points: usize = tiles.iter().map(|&t| tiling.tile_point_count(t)).sum();
            let sweep_block = |ev: &mut GridEvaluator| {
                let mut cursor = net.tile_cursor();
                let mut total = GridCoverageReport::default();
                for &t in &tiles {
                    total.merge(&ev.evaluate_tiles(&mut cursor, &tiling, &grid, t..t + 1));
                }
                total
            };
            let mut exact = GridEvaluator::new_exact(theta, Angle::ZERO);
            let (exact_block, t_exact) =
                tr.time("core.exact.tiles", fleet, || sweep_block(&mut exact));
            let screened_block = sweep_block(&mut GridEvaluator::new(theta, Angle::ZERO));
            ops.record(exact_block == screened_block, || {
                format!("fleet {fleet}: exact tile block differs from the screened one")
            });
            exact_ns.push(t_exact.as_nanos() as f64 / points.max(1) as f64);

            let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            if fleet == 0 && cpus > 1 {
                let (two, t_two) = tr.time("sim.check_threads2", fleet, || {
                    evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, 2)
                });
                ops.record(two == report, || {
                    format!("fleet {fleet}: 2-thread sweep differs from 1-thread")
                });
                threads2 = Some(t_check.as_secs_f64() / t_two.as_secs_f64());
            }
        }
        fleet += 1;
    }

    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let mut out = Outcome {
        ops,
        digest: digest.finish(),
        script,
        ..Outcome::default()
    };
    // Each fleet is scaled by the reference samples taken just before it
    // and just before the next one; each set-up by the 4 on either side.
    let (setup, setup_raw) = setup_s.medians(&setup_cal, 4);
    let (check, check_raw) = check_s.medians(&run_cal, FLEET_REFERENCE_SAMPLES);
    let (refresh, refresh_raw) = refresh_ms.medians(&run_cal, FLEET_REFERENCE_SAMPLES);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    out.e2e = vec![
        ("setup_s", setup, setup_raw),
        ("check_s", check, check_raw),
        ("refresh_p50_ms", refresh, refresh_raw),
        ("peak_rss_mb", rss, rss),
    ];
    let proved = |v: &[ProverStats]| {
        med(&v
            .iter()
            .map(ProverStats::proved_fraction)
            .collect::<Vec<_>>())
    };
    out.notes = vec![
        Calibration::note(&setup_cal, &run_cal),
        format!("fleets measured: {fleet} (dense grid {dense_points} points, hier map {map_points} points)"),
        format!(
            "check_hier_s {:.4} s, map_hier_s {:.4} s (medians over {fleet} fleets); hier proved {:.3} of the dense grid, {:.3} of the map",
            med(&check_hier_s),
            med(&map_hier_s),
            proved(&hier_check),
            proved(&hier_map)
        ),
    ];
    if cfg.trace {
        let spans = tr.spans();
        let per_point = |name: &str, points: usize| {
            let (ms, n) = median_ms(spans, name);
            (ms * 1e6 / points as f64, n)
        };
        let fleets = fleet as usize;
        let count = |v: &[ProverStats], f: fn(&ProverStats) -> usize| {
            (
                med(&v.iter().map(|s| f(s) as f64).collect::<Vec<_>>()),
                fleets,
            )
        };
        out.layers = vec![
            ("deploy.fleet_ms", median_ms(spans, "deploy.fleet")),
            ("core.mask.ns_per_point", sampled(&mask_ns)),
            ("core.mask.screen_rate", sampled(&screen_rates)),
            ("core.exact.ns_per_point", sampled(&exact_ns)),
            (
                "hier.check.ns_per_point",
                per_point("hier.check", dense_points),
            ),
            ("hier.check.proved_fraction", (proved(&hier_check), fleets)),
            ("hier.check.nodes", count(&hier_check, |s| s.nodes)),
            (
                "hier.check.visited_points",
                count(&hier_check, |s| s.points_visited),
            ),
            ("hier.map.ns_per_point", per_point("hier.map", map_points)),
            ("hier.map.proved_fraction", (proved(&hier_map), fleets)),
            ("hier.map.nodes", count(&hier_map, |s| s.nodes)),
            (
                "hier.map.visited_points",
                count(&hier_map, |s| s.points_visited),
            ),
            ("sim.threads2_speedup", once(threads2)),
        ];
        out.spans = spans.to_vec();
    }
    out
}

/// Whether `rows` of a rendered map equal the glyphs `glyphs(lo, hi)`
/// returns for the same grid indices. The map text is a legend, a blank
/// line, then rows top (j = side − 1) first, each framed as `|…|`.
fn map_block_matches(
    map: &str,
    side: usize,
    rows: std::ops::Range<usize>,
    glyphs: impl Fn(usize, usize) -> String,
) -> bool {
    let lines: Vec<&str> = map.lines().collect();
    if lines.len() != side + 2 || rows.end > side {
        return false;
    }
    let want = glyphs(rows.start * side, rows.end * side);
    let got: String = rows
        .filter_map(|j| {
            let line = lines[2 + (side - 1 - j)];
            line.strip_prefix('|').and_then(|l| l.strip_suffix('|'))
        })
        .collect();
    got == want
}
