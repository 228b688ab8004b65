//! `serve_churn`: a warm daemon under a dashboard's closed loop.
//!
//! One in-process `Server` with `fvc serve` defaults holds the §VI mix at
//! half of Theorem 1's necessary CSA, so the fleet has holes and ~29% of
//! dense-grid points fall through the mask screen to the exact analyzer —
//! the opposite load from `paper_check`. Each round moves a seeded camera
//! to a seeded point and reads `check`, `holes` and `map` (the incremental
//! repair, the holes path and a cold render), then re-reads all three as
//! cache hits. Every answer is compared with the mirror's library answer.

use crate::calibrate::{Calibration, Scaled};
use crate::mirror::Mirror;
use crate::regime::{self, fleet_seed, move_at};
use crate::stats::{median, quantile};
use crate::trace::{median_ms, Tracer, NO_ROUND};
use crate::{ask, field, once, peak_rss_mb, rss_mb, sampled, Outcome, RunConfig};
use fullview_core::canon::CanonicalHasher;
use fullview_core::{dense_grid, GridEvaluator};
use fullview_geom::Angle;
use fullview_service::{Client, Server, ServiceConfig};
use std::time::Instant;

/// Samples gathered while the run proceeds.
#[derive(Default)]
struct Samples {
    setup_cal: Calibration,
    run_cal: Calibration,
    setup_s: Scaled,
    refresh_ms: Scaled,
    check_s: Scaled,
    move_ms: Vec<f64>,
    hit_us: Vec<f64>,
    overhead_ms: Vec<f64>,
    repair_share: Vec<f64>,
    cache_hit_rate: Option<f64>,
    screen_rate: Option<f64>,
    mirror_mb: Option<f64>,
    rounds: u64,
}

/// Reference-kernel samples taken after each round.
const ROUND_REFERENCE_SAMPLES: usize = 1;

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let mut digest = CanonicalHasher::new();
    let mut s = Samples::default();
    if let Err(fatal) = drive(cfg, &mut tr, &mut out, &mut digest, &mut s) {
        out.ops.record(false, || fatal);
    }
    out.digest = digest.finish();

    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    // Each round is scaled by the reference samples of the rounds around
    // it; each set-up by the 4 on either side.
    let half = 3 * ROUND_REFERENCE_SAMPLES;
    let (setup, setup_raw) = s.setup_s.medians(&s.setup_cal, 4);
    let (check, check_raw) = s.check_s.medians(&s.run_cal, half);
    let (refresh, refresh_raw) = s.refresh_ms.medians(&s.run_cal, half);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    out.e2e = vec![
        ("setup_s", setup, setup_raw),
        ("check_s", check, check_raw),
        ("refresh_p50_ms", refresh, refresh_raw),
        ("peak_rss_mb", rss, rss),
    ];
    let p90 = quantile(s.refresh_ms.raw(), 0.9).map_or_else(
        || "n/a (under 100 rounds)".to_string(),
        |v| format!("{v:.3} ms"),
    );
    out.notes = vec![
        Calibration::note(&s.setup_cal, &s.run_cal),
        format!("rounds measured: {}", s.rounds),
        format!(
            "refresh_p90_ms {p90}; move_p50_ms {:.4} ms; cache-hit read p50 {:.1} us",
            med(&s.move_ms),
            med(&s.hit_us)
        ),
        crate::mirror_note(s.mirror_mb),
    ];
    if cfg.trace {
        let spans = tr.spans();
        let ms = |name: &str| median_ms(spans, name);
        let us = |name: &str| {
            let (v, n) = median_ms(spans, name);
            (v * 1e3, n)
        };
        out.layers = vec![
            ("core.mask.screen_rate", once(s.screen_rate)),
            ("core.incremental.cold_ms", ms("core.incremental.cold")),
            ("core.incremental.repair_ms", ms("core.incremental.repair")),
            ("core.incremental.repair_share", sampled(&s.repair_share)),
            ("core.render.map_ms", ms("core.render.map")),
            ("core.holes_ms", ms("core.holes")),
            ("model.move_us", us("model.move")),
            ("service.move_ms", ms("service.move")),
            ("service.check_ms", ms("service.check")),
            ("service.holes_ms", ms("service.holes")),
            ("service.map_ms", ms("service.map")),
            ("service.overhead_ms", sampled(&s.overhead_ms)),
            ("service.hit_us", us("service.hit")),
            ("service.cache_hit_rate", once(s.cache_hit_rate)),
        ];
        out.spans = spans.to_vec();
    }
    out
}

fn drive(
    cfg: &RunConfig,
    tr: &mut Tracer,
    out: &mut Outcome,
    digest: &mut CanonicalHasher,
    s: &mut Samples,
) -> Result<(), String> {
    let scale = cfg.scale;
    let n = scale.n;
    let theta = regime::theta();
    let profile = regime::profile(regime::below_necessary_csa(n));
    let seed = fleet_seed(cfg.seed, 0);
    let side = scale.serve_side;
    let reads = [
        ("service.check", "check".to_string()),
        ("service.holes", format!("holes grid={side}")),
        ("service.map", format!("map side={side}")),
    ];

    // The mirror is built first, so the resident set's growth across it
    // is its own share of `peak_rss_mb`.
    let rss_before = rss_mb();
    let mut mirror = Mirror::new(tr, regime::fleet(&profile, n, seed), theta, side, None);
    s.mirror_mb = rss_mb()
        .zip(rss_before)
        .map(|(after, before)| after - before);

    // Set-up: start the daemon, connect, read each answer once (building
    // the daemon's warm sweeps). Repeated; the last session is measured.
    let mut warm_answers: Vec<Vec<Result<String, String>>> = Vec::new();
    let mut session = None;
    for k in 0..scale.setups {
        s.setup_cal.sample(4);
        let mark = s.setup_cal.mark();
        let open = tr.begin("setup", NO_ROUND);
        let mut config = ServiceConfig::new(profile.clone());
        config.n = n;
        config.seed = seed;
        let (started, _) = tr.time("service.start", NO_ROUND, || Server::start(config));
        let server = started.map_err(|e| format!("daemon start: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let warm: Vec<_> = reads
            .iter()
            .map(|(_, line)| tr.time("setup.read", NO_ROUND, || ask(&mut client, line)).0)
            .collect();
        s.setup_s.push(tr.end(open).as_secs_f64(), mark);
        warm_answers.push(warm);
        if k + 1 == scale.setups {
            session = Some((server, client));
        } else {
            drop(client);
            server.shutdown();
            server.wait();
        }
    }
    s.setup_cal.sample(4);
    let (server, mut client) = session.ok_or("no set-up ran")?;

    let fingerprint = ask(&mut client, "fingerprint")?;
    out.ops.record(
        field(&fingerprint, "net_fp=", "net_fp") == Some(mirror.fingerprint()),
        || format!("daemon fingerprint {fingerprint:?} differs from the mirror's"),
    );
    let expected = |m: &Mirror| [m.check(), m.holes(), m.map()];
    for warm in &warm_answers {
        for (answer, want) in warm.iter().zip(expected(&mirror)) {
            out.ops.record(answer.as_ref() == Ok(&want), || {
                format!("warm-up read: {answer:?}")
            });
        }
    }

    let started = Instant::now();
    let mut r = 0u64;
    while (r as usize) < scale.min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        let mv = move_at(cfg.seed, n, r);
        let move_line = mv.request();
        let open = tr.begin("round", r);
        let (moved, t_move) = tr.time("service.move", r, || ask(&mut client, &move_line));
        let mut answers = Vec::new();
        let mut rtt = t_move;
        for (span, line) in &reads {
            let (answer, t) = tr.time(span, r, || ask(&mut client, line));
            if *span == "service.check" {
                s.check_s.push(t.as_secs_f64(), s.run_cal.mark());
            }
            rtt += t;
            answers.push(answer);
        }
        let refresh = tr.end(open);
        let hits: Vec<_> = reads
            .iter()
            .map(|(_, line)| {
                let (answer, t) = tr.time("service.hit", r, || ask(&mut client, line));
                s.hit_us.push(t.as_secs_f64() * 1e6);
                answer
            })
            .collect();
        out.script.push(move_line);
        for _ in 0..2 {
            out.script
                .extend(reads.iter().map(|(_, line)| line.clone()));
        }

        // The mirror replays the move outside the timed window; then
        // every answer is checked against the library's.
        let work = mirror.apply(tr, r, mv);
        let moved_ok = moved
            .as_ref()
            .is_ok_and(|p| p.starts_with(&format!("moved camera {} to ", mv.id)));
        out.ops
            .record(moved_ok, || format!("round {r}: move answered {moved:?}"));
        for ((answer, hit), want) in answers.iter().zip(&hits).zip(expected(&mirror)) {
            out.ops.record(answer.as_ref() == Ok(&want), || {
                format!("round {r}: {answer:?} differs from the library's answer")
            });
            out.ops.record(hit == answer, || {
                format!("round {r}: cache hit {hit:?} differs")
            });
            digest.write_str(answer.as_deref().unwrap_or("<failed>"));
        }
        if let Some(e) = [&moved]
            .into_iter()
            .chain(&answers)
            .chain(&hits)
            .find_map(|a| a.as_ref().err())
        {
            if e.contains("transport") {
                return Err(format!("round {r}: {e}"));
            }
        }
        s.refresh_ms
            .push(refresh.as_secs_f64() * 1e3, s.run_cal.mark());
        s.move_ms.push(t_move.as_secs_f64() * 1e3);
        s.overhead_ms
            .push((rtt.as_secs_f64() - work.compute.as_secs_f64()) * 1e3);
        s.repair_share
            .push(work.points_resweeped as f64 / work.dense_points as f64);
        s.run_cal.sample(ROUND_REFERENCE_SAMPLES);
        r += 1;
        s.rounds = r;
    }

    // End of run: the daemon's cache accounting and fleet identity, and a
    // cold recomputation of every mirrored answer.
    let stats = ask(&mut client, "stats")?;
    let hits: Option<f64> = field(&stats, "cache:", "hits");
    let misses: Option<f64> = field(&stats, "cache:", "misses");
    s.cache_hit_rate = hits.zip(misses).map(|(h, m)| h / (h + m));
    let fingerprint = ask(&mut client, "fingerprint")?;
    out.ops.record(
        field(&fingerprint, "net_fp=", "net_fp") == Some(mirror.fingerprint()),
        || "daemon fingerprint differs from the mirror's after the run".to_string(),
    );
    let wrong = mirror.cross_check();
    out.ops.record(wrong.is_empty(), || {
        format!("mirror differs from a cold recompute: {wrong:?}")
    });
    if cfg.trace {
        let grid = dense_grid(*mirror.net().torus(), n);
        let mut ev = GridEvaluator::new(theta, Angle::ZERO);
        let _ = tr.time("core.mask.evaluate_grid", NO_ROUND, || {
            ev.evaluate_grid(mirror.net(), &grid)
        });
        s.screen_rate = Some(ev.screen_stats().screen_rate());
    }
    drop(client);
    server.shutdown();
    server.wait();
    Ok(())
}
