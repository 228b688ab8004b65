//! `cluster_scatter`: the `serve_churn` fleet on two shard daemons (one
//! worker each) behind a `Coordinator` with default chunking.
//!
//! Each round broadcasts a seeded `move`, then reads `check` (forwarded to
//! one shard), `holes`, `map` and `kfull` (scattered as `mask`, `cells`
//! and `kcount` chunks and merged). It is the only workload through the
//! cluster layer: broadcast, scatter, per-shard legs and merge. Answers
//! are compared byte for byte with the mirror's library answers; the
//! traced run also replays every chunk against a daemon holding the
//! mirror fleet, to time the legs and the merge.

use crate::calibrate::{Calibration, Scaled};
use crate::mirror::Mirror;
use crate::regime::{self, fleet_seed, move_at};
use crate::trace::{median_ms, Tracer, NO_ROUND};
use crate::{ask, field, once, peak_rss_mb, rss_mb, sampled, Outcome, RunConfig};
use fullview_cluster::{chunk_ranges, ClusterConfig, Coordinator};
use fullview_core::canon::CanonicalHasher;
use fullview_core::{coverage_map_from_glyphs, hole_report_text, holes_from_mask, kfull_text};
use fullview_service::{Client, Server, ServiceConfig};
use std::time::{Duration, Instant};

/// Shard daemons behind the coordinator.
const SHARDS: usize = 2;
/// Chunks per scattered read: the coordinator's default, twice the shard
/// count (`ClusterConfig::chunks == 0`).
const CHUNKS: usize = 2 * SHARDS;

#[derive(Default)]
struct Samples {
    setup_cal: Calibration,
    run_cal: Calibration,
    setup_s: Scaled,
    refresh_ms: Scaled,
    check_s: Scaled,
    leg_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    served_balance: Option<f64>,
    shard_failures: Option<f64>,
    mirror_mb: Option<f64>,
    rounds: u64,
}

/// A running cluster: shard daemons, coordinator, one client.
struct Cluster {
    shards: Vec<Server>,
    coordinator: Coordinator,
    client: Client,
}

impl Cluster {
    fn start(tr: &mut Tracer, config: &ServiceConfig) -> Result<Cluster, String> {
        let mut shards = Vec::new();
        for _ in 0..SHARDS {
            let (started, _) = tr.time("cluster.start_shard", NO_ROUND, || {
                Server::start(config.clone())
            });
            shards.push(started.map_err(|e| format!("shard start: {e}"))?);
        }
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let (started, _) = tr.time("cluster.start_coordinator", NO_ROUND, || {
            Coordinator::start(ClusterConfig::new(addrs))
        });
        let coordinator = started.map_err(|e| format!("coordinator start: {e}"))?;
        let client =
            Client::connect(coordinator.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Cluster {
            shards,
            coordinator,
            client,
        })
    }

    fn stop(self) {
        drop(self.client);
        self.coordinator.shutdown();
        self.coordinator.wait();
        for shard in self.shards {
            shard.shutdown();
            shard.wait();
        }
    }
}

/// Reference-kernel samples taken after each round.
const ROUND_REFERENCE_SAMPLES: usize = 2;

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
    let p90 = crate::stats::quantile(s.refresh_ms.raw(), 0.9).map_or_else(
        || "n/a (under 100 rounds)".to_string(),
        |v| format!("{v:.3} ms"),
    );
    out.notes = vec![
        Calibration::note(&s.setup_cal, &s.run_cal),
        format!("rounds measured: {}", s.rounds),
        format!("refresh_p90_ms {p90}"),
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
            ("core.incremental.cold_ms", ms("core.incremental.cold")),
            ("core.incremental.repair_ms", ms("core.incremental.repair")),
            ("core.render.map_ms", ms("core.render.map")),
            ("core.holes_ms", ms("core.holes")),
            ("model.move_us", us("model.move")),
            ("cluster.move_ms", ms("cluster.move")),
            ("cluster.check_ms", ms("cluster.check")),
            ("cluster.holes_ms", ms("cluster.holes")),
            ("cluster.map_ms", ms("cluster.map")),
            ("cluster.kfull_ms", ms("cluster.kfull")),
            ("cluster.leg_ms", sampled(&s.leg_ms)),
            ("cluster.overhead_ms", sampled(&s.overhead_ms)),
            ("cluster.merge_ms", sampled(&s.merge_ms)),
            ("cluster.served_balance", once(s.served_balance)),
            ("cluster.shard_failures", once(s.shard_failures)),
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
    let (side, k) = (scale.cluster_side, scale.kfull_k);
    let reads = [
        ("cluster.check", "check".to_string()),
        ("cluster.holes", format!("holes grid={side}")),
        ("cluster.map", format!("map side={side}")),
        ("cluster.kfull", format!("kfull k={k} grid={side}")),
    ];
    let mut config = ServiceConfig::new(profile.clone());
    config.n = n;
    config.seed = seed;
    config.workers = 1;

    // The mirror is built first, so the resident set's growth across it
    // is its own share of `peak_rss_mb`.
    let rss_before = rss_mb();
    let mut mirror = Mirror::new(tr, regime::fleet(&profile, n, seed), theta, side, Some(k));
    s.mirror_mb = rss_mb()
        .zip(rss_before)
        .map(|(after, before)| after - before);

    // Set-up: shard daemons and coordinator; each shard warmed directly,
    // one after the other (`check` and `holes` build its dense and `side`
    // sweeps; side by side, the two cold builds would share the two vCPUs
    // unevenly); then the client and one untimed round of reads through
    // the coordinator. Repeated; the last cluster is measured. Each warm
    // answer is kept with the index of the read it answers.
    let mut warm_answers: Vec<(usize, Result<String, String>)> = Vec::new();
    let mut session = None;
    for i in 0..scale.setups {
        s.setup_cal.sample(4);
        let mark = s.setup_cal.mark();
        let open = tr.begin("setup", NO_ROUND);
        let mut cluster = Cluster::start(tr, &config)?;
        for shard in &cluster.shards {
            let mut direct =
                Client::connect(shard.local_addr()).map_err(|e| format!("connect: {e}"))?;
            for (read, (_, line)) in reads.iter().enumerate().take(2) {
                let (answer, _) = tr.time("setup.shard_read", NO_ROUND, || ask(&mut direct, line));
                warm_answers.push((read, answer));
            }
        }
        for (read, (_, line)) in reads.iter().enumerate() {
            let (answer, _) = tr.time("setup.read", NO_ROUND, || ask(&mut cluster.client, line));
            warm_answers.push((read, answer));
        }
        s.setup_s.push(tr.end(open).as_secs_f64(), mark);
        if i + 1 == scale.setups {
            session = Some(cluster);
        } else {
            cluster.stop();
        }
    }
    s.setup_cal.sample(4);
    let mut cluster = session.ok_or("no set-up ran")?;

    let fingerprint = ask(&mut cluster.client, "fingerprint")?;
    out.ops.record(
        field(&fingerprint, "net_fp=", "net_fp") == Some(mirror.fingerprint()),
        || format!("cluster fingerprint {fingerprint:?} differs from the mirror's"),
    );
    let expected = |m: &Mirror| [m.check(), m.holes(), m.map(), m.kfull().unwrap_or_default()];
    let warm_want = expected(&mirror);
    for (read, answer) in &warm_answers {
        out.ops
            .record(answer.as_ref() == Ok(&warm_want[*read]), || {
                format!("warm-up read: {answer:?}")
            });
    }
    // The traced run replays each scatter against a daemon of its own.
    let mut replay = if cfg.trace {
        let server = Server::start(config.clone()).map_err(|e| format!("replay daemon: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Some((server, client))
    } else {
        None
    };

    let started = Instant::now();
    let mut r = 0u64;
    while (r as usize) < scale.min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        let mv = move_at(cfg.seed, n, r);
        let move_line = mv.request();
        let open = tr.begin("round", r);
        let (moved, _) = tr.time("cluster.move", r, || ask(&mut cluster.client, &move_line));
        let mut answers = Vec::new();
        let mut rtts = Vec::new();
        for (span, line) in &reads {
            let (answer, t) = tr.time(span, r, || ask(&mut cluster.client, line));
            answers.push(answer);
            rtts.push(t);
        }
        let refresh = tr.end(open);
        out.script.push(move_line.clone());
        out.script
            .extend(reads.iter().map(|(_, line)| line.clone()));

        mirror.apply(tr, r, mv);
        let moved_ok = moved
            .as_ref()
            .is_ok_and(|p| p.starts_with(&format!("moved camera {} to ", mv.id)));
        out.ops
            .record(moved_ok, || format!("round {r}: move answered {moved:?}"));
        for (answer, want) in answers.iter().zip(expected(&mirror)) {
            out.ops.record(answer.as_ref() == Ok(&want), || {
                format!("round {r}: {answer:?} differs from the library's answer")
            });
            digest.write_str(answer.as_deref().unwrap_or("<failed>"));
        }
        if let Some(e) = [&moved]
            .into_iter()
            .chain(&answers)
            .find_map(|a| a.as_ref().err())
        {
            if e.contains("transport") {
                return Err(format!("round {r}: {e}"));
            }
        }
        if let Some((_, client)) = &mut replay {
            replay_round(
                tr,
                client,
                r,
                &move_line,
                &answers,
                &rtts[1..],
                side,
                k,
                out,
                s,
            )?;
        }
        s.refresh_ms
            .push(refresh.as_secs_f64() * 1e3, s.run_cal.mark());
        s.check_s.push(rtts[0].as_secs_f64(), s.run_cal.mark());
        s.run_cal.sample(ROUND_REFERENCE_SAMPLES);
        r += 1;
        s.rounds = r;
    }

    // End of run: shard health and read balance, fleet identity, and a
    // cold recomputation of every mirrored answer.
    let shards = ask(&mut cluster.client, "shards")?;
    s.shard_failures = Some(
        shards
            .lines()
            .filter_map(|l| field::<f64>(l, "shard ", "failures"))
            .sum(),
    );
    let stats = ask(&mut cluster.client, "stats")?;
    let served: Vec<f64> = (0..SHARDS)
        .filter_map(|i| field(&stats, "reads:", &format!("shard{i}")))
        .collect();
    if served.len() == SHARDS {
        let max = served.iter().copied().fold(0.0, f64::max);
        let min = served.iter().copied().fold(f64::INFINITY, f64::min);
        s.served_balance = Some(if max > 0.0 { min / max } else { 0.0 });
    }
    let fingerprint = ask(&mut cluster.client, "fingerprint")?;
    out.ops.record(
        field(&fingerprint, "net_fp=", "net_fp") == Some(mirror.fingerprint()),
        || "cluster fingerprint differs from the mirror's after the run".to_string(),
    );
    let wrong = mirror.cross_check();
    out.ops.record(wrong.is_empty(), || {
        format!("mirror differs from a cold recompute: {wrong:?}")
    });
    if let Some((server, client)) = replay {
        drop(client);
        server.shutdown();
        server.wait();
    }
    cluster.stop();
    Ok(())
}

/// Replays round `r`'s move and its three scattered reads chunk by chunk
/// against the replay daemon: the slowest chunk of each scatter is its
/// leg, the coordinator's round trip minus that leg its overhead, and
/// merging the chunk answers in process must give the coordinator's
/// bytes.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    tr: &mut Tracer,
    client: &mut Client,
    r: u64,
    move_line: &str,
    answers: &[Result<String, String>],
    scatter_rtts: &[Duration],
    side: usize,
    k: usize,
    out: &mut Outcome,
    s: &mut Samples,
) -> Result<(), String> {
    ask(client, move_line)?;
    let total = side * side;
    let verbs = [
        ("mask", format!("grid={side}")),
        ("cells", format!("side={side}")),
        ("kcount", format!("k={k} grid={side}")),
    ];
    let mut merge = Duration::ZERO;
    for (i, (verb, params)) in verbs.iter().enumerate() {
        let mut leg = Duration::ZERO;
        let mut parts = String::new();
        let mut counts = 0usize;
        for (lo, hi) in chunk_ranges(total, CHUNKS) {
            let line = format!("{verb} {params} lo={lo} hi={hi}");
            let (part, t) = tr.time("cluster.leg", r, || ask(client, &line));
            let part = part?;
            leg = leg.max(t);
            if *verb == "kcount" {
                counts += part
                    .trim()
                    .parse::<usize>()
                    .map_err(|e| format!("kcount {part:?}: {e}"))?;
            } else {
                parts.push_str(&part);
            }
        }
        // A gathered buffer of the wrong length is a failed merge, not a
        // panic in the renderers' length assertions.
        let whole = *verb == "kcount" || parts.chars().count() == total;
        let (merged, t_merge) = tr.time("cluster.merge", r, || match *verb {
            _ if !whole => String::new(),
            "mask" => {
                let covered: Vec<bool> = parts.chars().map(|c| c == '1').collect();
                hole_report_text(&holes_from_mask(
                    fullview_geom::Torus::unit(),
                    side,
                    &covered,
                ))
            }
            "cells" => coverage_map_from_glyphs(side, &parts),
            _ => kfull_text(k, side, counts, total),
        });
        merge += t_merge;
        s.leg_ms.push(leg.as_secs_f64() * 1e3);
        s.overhead_ms
            .push((scatter_rtts[i].as_secs_f64() - leg.as_secs_f64()) * 1e3);
        let answer = &answers[i + 1];
        out.ops.record(answer.as_ref() == Ok(&merged), || {
            format!("round {r}: replayed {verb} merge differs from the coordinator's answer")
        });
    }
    s.merge_ms.push(merge.as_secs_f64() * 1e3);
    Ok(())
}
