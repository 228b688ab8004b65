//! End-to-end daemon tests over real TCP on an ephemeral port.
//!
//! Covers the ISSUE acceptance criteria: every endpoint answers, a
//! repeated `map` is served from the cache (observed through the `stats`
//! hit counters) and is byte-identical to the library's one-shot
//! rendering of the identically-seeded deployment, `fail id=…`
//! invalidates only network-dependent entries (theory answers survive),
//! and shutdown drains gracefully.

use fullview_core::{
    coverage_map_text, find_holes, full_view_mask_range, hole_report_text, EffectiveAngle,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point};
use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Response, Server, ServiceConfig};
use fullview_sim::evaluate_dense_grid_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

const N: usize = 60;
const SEED: u64 = 7;

fn test_profile() -> NetworkProfile {
    NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("valid spec"))
}

fn small_config() -> ServiceConfig {
    let mut config = ServiceConfig::new(test_profile());
    config.n = N;
    config.seed = SEED;
    config.workers = 2;
    config
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    client
}

/// Parses the `key=value` tokens of one named line of a `stats` payload.
fn stats_line<'a>(payload: &'a str, prefix: &str) -> HashMap<&'a str, &'a str> {
    let line = payload
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{payload}"));
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect()
}

fn cache_counter(client: &mut Client, name: &str) -> u64 {
    let stats = client.request_ok("stats").expect("stats");
    stats_line(&stats, "cache:")[name].parse().expect(name)
}

#[test]
fn every_endpoint_answers_and_map_is_byte_identical_to_oneshot() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    assert_eq!(client.request_ok("ping").unwrap(), "pong\n");

    let check = client.request_ok("check").unwrap();
    assert!(check.starts_with(&format!("{N} cameras\n")), "{check}");
    assert!(check.contains("full-view fraction"), "{check}");

    let map = client.request_ok("map side=16").unwrap();
    let holes = client.request_ok("holes grid=8").unwrap();
    assert!(holes.contains("hole"), "{holes}");
    let kfull = client.request_ok("kfull k=1 grid=8").unwrap();
    assert!(kfull.contains("k-full-view k=1 grid=8"), "{kfull}");
    let prob = client.request_ok("prob density=100").unwrap();
    assert!(prob.contains("P_N (Theorem 3)"), "{prob}");
    assert!(prob.contains("exact P(full-view)"), "{prob}");

    // Byte-identity with the one-shot path: render the identically-seeded
    // deployment through the same shared routine the CLI uses.
    let theta = EffectiveAngle::new(45f64.to_radians()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let net = deploy_uniform(fullview_geom::Torus::unit(), &test_profile(), N, &mut rng).unwrap();
    assert_eq!(map, coverage_map_text(&net, theta, 16), "map bytes differ");

    // Endpoint counters reflect what we just did.
    let stats = client.request_ok("stats").unwrap();
    let requests = stats_line(&stats, "requests:");
    assert_eq!(requests["check"], "1");
    assert_eq!(requests["map"], "1");
    assert_eq!(requests["holes"], "1");
    assert_eq!(requests["kfull"], "1");
    assert_eq!(requests["prob"], "1");
    let queue = stats_line(&stats, "queue:");
    assert_eq!(queue["workers"], "2");
    assert_eq!(queue["depth"], "0");
}

#[test]
fn repeated_map_hits_the_cache_with_identical_bytes() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    let first = client.request_ok("map side=16").unwrap();
    let hits_before = cache_counter(&mut client, "hits");
    let second = client.request_ok("map side=16").unwrap();
    assert_eq!(first, second, "cached map must be byte-identical");
    let hits_after = cache_counter(&mut client, "hits");
    assert_eq!(hits_after, hits_before + 1, "second map served from cache");

    // A different parameterization is its own entry.
    let other = client.request_ok("map side=12").unwrap();
    assert_ne!(first, other);

    // Latency quantiles become available once requests flow.
    let stats = client.request_ok("stats").unwrap();
    let latency = stats_line(&stats, "latency_ms:");
    assert_ne!(latency["p50"], "na");
}

#[test]
fn fail_invalidates_network_entries_but_not_theory() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    let map_before = client.request_ok("map side=16").unwrap();
    client.request_ok("prob density=100").unwrap();

    let reply = client.request_ok("fail id=0").unwrap();
    assert!(
        reply.contains(&format!("{} cameras remain", N - 1)),
        "{reply}"
    );
    assert!(reply.contains("invalidated 1 cached results"), "{reply}");

    // prob is keyed on the (unchanged) profile: still a cache hit.
    let hits_before = cache_counter(&mut client, "hits");
    client.request_ok("prob density=100").unwrap();
    assert_eq!(
        cache_counter(&mut client, "hits"),
        hits_before + 1,
        "theory entry must survive the mutation"
    );

    // map re-computes against the mutated fleet and reflects it.
    let misses_before = cache_counter(&mut client, "misses");
    let map_after = client.request_ok("map side=16").unwrap();
    assert!(
        cache_counter(&mut client, "misses") > misses_before,
        "network entry must have been invalidated"
    );
    let theta = EffectiveAngle::new(45f64.to_radians()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut net =
        deploy_uniform(fullview_geom::Torus::unit(), &test_profile(), N, &mut rng).unwrap();
    assert!(net.remove_camera(0));
    assert_eq!(
        map_after,
        coverage_map_text(&net, theta, 16),
        "post-failure map must reflect the failed camera"
    );
    // (Usually also differs from the pre-failure map; not asserted — a
    // single camera is not always load-bearing at this resolution.)
    let _ = map_before;

    // check reports the shrunk fleet.
    let check = client.request_ok("check").unwrap();
    assert!(
        check.starts_with(&format!("{} cameras\n", N - 1)),
        "{check}"
    );
}

#[test]
fn move_and_reseed_mutate_the_fleet() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    client.request_ok("map side=12").unwrap();
    let reply = client.request_ok("move id=3 x=1.25 y=-0.25").unwrap();
    assert!(reply.contains("moved camera 3"), "{reply}");
    assert!(reply.contains("invalidated 1"), "{reply}");

    let reply = client.request_ok("reseed seed=99 n=40").unwrap();
    assert!(reply.contains("40 cameras from seed 99"), "{reply}");
    let check = client.request_ok("check").unwrap();
    assert!(check.starts_with("40 cameras\n"), "{check}");

    // Reseeding to the original seed restores the original fingerprint.
    client
        .request_ok(&format!("reseed seed={SEED} n={N}"))
        .unwrap();
    let theta = EffectiveAngle::new(45f64.to_radians()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let net = deploy_uniform(fullview_geom::Torus::unit(), &test_profile(), N, &mut rng).unwrap();
    assert_eq!(
        client.request_ok("map side=12").unwrap(),
        coverage_map_text(&net, theta, 12)
    );
}

#[test]
fn errors_are_reported_not_fatal() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    let cases = [
        ("bogus", "unknown request"),
        ("map side=0", "side/grid must be positive"),
        ("map sidr=16", "unknown parameter 'sidr'"),
        ("map side=16 side=16", "duplicate parameter"),
        ("fail", "missing required parameter 'id'"),
        ("fail id=999", "no camera with id 999"),
        ("move id=0 x=nan y=0.5", "finite"),
        ("prob density=-3", "density must be finite and positive"),
        ("check theta-deg=0.0000001", "too fine"),
    ];
    for (request, needle) in cases {
        match client.request(request).expect(request) {
            Response::Err(message) => {
                assert!(message.contains(needle), "{request}: {message}");
            }
            Response::Ok(payload) => panic!("{request} unexpectedly ok: {payload}"),
        }
    }

    // The connection is still healthy and rejections were counted.
    let stats = client.request_ok("stats").unwrap();
    let requests = stats_line(&stats, "requests:");
    assert_eq!(requests["rejected"], cases.len().to_string());
}

#[test]
fn ranged_verbs_reassemble_to_the_unranged_answers() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    // cells ranges concatenate to the glyphs inside the full map.
    let map = client.request_ok("map side=12").unwrap();
    let mut glyphs = String::new();
    for (lo, hi) in [(0usize, 50usize), (50, 144)] {
        glyphs.push_str(
            &client
                .request_ok(&format!("cells side=12 lo={lo} hi={hi}"))
                .unwrap(),
        );
    }
    // Reconstruct the map from gathered glyphs exactly like a coordinator.
    assert_eq!(fullview_core::coverage_map_from_glyphs(12, &glyphs), map);

    // mask ranges agree with the full-view mask behind `holes`.
    let mask_a = client.request_ok("mask grid=10 lo=0 hi=37").unwrap();
    let mask_b = client.request_ok("mask grid=10 lo=37 hi=100").unwrap();
    let full = client.request_ok("mask grid=10").unwrap();
    assert_eq!(format!("{mask_a}{mask_b}"), full);
    assert_eq!(full.len(), 100);
    assert!(full.chars().all(|c| c == '0' || c == '1'), "{full}");

    // kcount ranges sum to the count inside the kfull text.
    let kfull = client.request_ok("kfull k=1 grid=10").unwrap();
    let sum: usize = [(0usize, 41usize), (41, 100)]
        .iter()
        .map(|(lo, hi)| {
            client
                .request_ok(&format!("kcount k=1 grid=10 lo={lo} hi={hi}"))
                .unwrap()
                .trim()
                .parse::<usize>()
                .unwrap()
        })
        .sum();
    assert!(
        kfull.contains(&format!("({sum}/100 points)")),
        "{kfull} vs {sum}"
    );

    // Bad ranges are rejected with the range message.
    for bad in ["cells side=12 lo=5 hi=5", "mask grid=10 lo=0 hi=101"] {
        match client.request(bad).expect(bad) {
            Response::Err(message) => assert!(message.contains("must be non-empty"), "{message}"),
            Response::Ok(payload) => panic!("{bad} unexpectedly ok: {payload}"),
        }
    }
}

#[test]
fn bad_ranges_get_err_frames_and_leave_the_daemon_serving() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);
    let fp_before = client.request_ok("fingerprint").unwrap();

    // side² wraps to 0 in a raw release-mode multiply (and panics in
    // debug); the daemon must answer with an err frame instead.
    let huge = 1usize << 32;
    let cases = [
        (format!("cells side={huge} lo=0 hi=10"), "overflows"),
        (format!("mask grid={huge} lo=0 hi=10"), "overflows"),
        (format!("kcount k=1 grid={huge} lo=0 hi=10"), "overflows"),
        (format!("map side={huge}"), "overflows"),
        (format!("holes grid={huge}"), "overflows"),
        (format!("kfull k=1 grid={huge}"), "overflows"),
        (format!("barrier grid={huge}"), "overflows"),
        (format!("watch grid={huge}"), "overflows"),
        ("cells side=12 lo=9 hi=5".to_string(), "must be non-empty"),
        ("mask grid=10 lo=0 hi=101".to_string(), "must be non-empty"),
        (
            "kcount k=1 grid=10 lo=100 hi=100".to_string(),
            "must be non-empty",
        ),
    ];
    for (request, needle) in &cases {
        match client.request(request).expect(request) {
            Response::Err(message) => {
                assert!(message.contains(needle), "{request}: {message}");
            }
            Response::Ok(payload) => panic!("{request} unexpectedly ok: {payload}"),
        }
    }

    // Same connection still serves, the fleet is untouched, and a fresh
    // connection gets real answers — the worker pool never died.
    assert_eq!(client.request_ok("fingerprint").unwrap(), fp_before);
    let stats = client.request_ok("stats").unwrap();
    let requests = stats_line(&stats, "requests:");
    assert_eq!(requests["rejected"], cases.len().to_string());
    let mut fresh = connect(&server);
    let mask = fresh.request_ok("mask grid=10 lo=0 hi=100").unwrap();
    assert_eq!(mask.len(), 100);
    // The fleet and sweep locks survived too: a mutation still applies.
    let moved = fresh.request_ok("move id=0 x=0.5 y=0.5").unwrap();
    assert!(moved.starts_with("moved camera 0"), "{moved}");
}

#[test]
fn snapshot_fail_restore_preserves_fingerprint_and_cached_results() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);
    let dir = std::env::temp_dir().join(format!("fvc-service-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("warm.snap");

    // Warm the cache with a network-dependent and a theory entry.
    let map_before = client.request_ok("map side=16").unwrap();
    client.request_ok("prob density=100").unwrap();
    let fp_before = client.request_ok("fingerprint").unwrap();
    assert!(
        fp_before.contains("net_fp=") && fp_before.contains("torus=0x"),
        "{fp_before}"
    );

    let reply = client
        .request_ok(&format!("snapshot path={}", path.display()))
        .unwrap();
    assert!(reply.contains("snapshot written"), "{reply}");

    // Mutate, then restore the pre-mutation state.
    client.request_ok("fail id=0").unwrap();
    assert_ne!(client.request_ok("fingerprint").unwrap(), fp_before);
    let reply = client
        .request_ok(&format!("restore path={}", path.display()))
        .unwrap();
    assert!(reply.contains(&format!("restored {N} cameras")), "{reply}");
    assert_eq!(
        client.request_ok("fingerprint").unwrap(),
        fp_before,
        "restore must reproduce the canonical fingerprint bit for bit"
    );

    // The restored fleet recomputes the identical map, and the
    // profile-keyed theory entry survived both the fail and the restore.
    assert_eq!(client.request_ok("map side=16").unwrap(), map_before);
    let hits_before = cache_counter(&mut client, "hits");
    client.request_ok("prob density=100").unwrap();
    assert_eq!(
        cache_counter(&mut client, "hits"),
        hits_before + 1,
        "theory entry must survive snapshot/fail/restore"
    );

    // Restoring identical state is a no-op for the cache.
    let reply = client
        .request_ok(&format!("restore path={}", path.display()))
        .unwrap();
    assert!(reply.contains("invalidated 0 cached results"), "{reply}");

    let _ = std::fs::remove_dir_all(dir);
}

/// Parses the `key=value` tokens of a single-line watch/delta frame.
fn frame_fields(frame: &str) -> HashMap<&str, &str> {
    frame
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect()
}

#[test]
fn watch_streams_a_delta_frame_per_mutation() {
    let server = Server::start(small_config()).expect("start");
    let mut watcher = connect(&server);
    let mut mutator = connect(&server);

    // Subscribing returns the baseline frame on the same connection.
    let baseline = watcher.request_ok("watch grid=12").unwrap();
    assert!(baseline.starts_with("watching grid=12"), "{baseline}");
    let fields = frame_fields(&baseline);
    assert_eq!(fields["seq"], "0");
    let baseline_fraction = fields["fraction"].to_string();
    let baseline_holes = fields["holes"].to_string();

    // The subscription shows up in stats.
    let stats = mutator.request_ok("stats").unwrap();
    assert_eq!(stats_line(&stats, "service:")["watchers"], "1");

    // A mutation on another connection pushes a delta to the watcher.
    mutator.request_ok("move id=3 x=0.9 y=0.1").unwrap();
    let frame = match watcher.recv().expect("delta frame") {
        Response::Ok(frame) => frame,
        Response::Err(message) => panic!("err frame: {message}"),
    };
    assert!(frame.starts_with("delta cause=move"), "{frame}");
    let fields = frame_fields(&frame);
    assert_eq!(fields["seq"], "1");
    assert_eq!(fields["grid"], "12");
    assert_eq!(
        fields["fraction_before"], baseline_fraction,
        "delta must continue from the baseline"
    );
    assert_eq!(fields["holes_before"], baseline_holes);
    assert_eq!(fields["rebuilt"], "false", "a move repairs incrementally");
    let tiles: usize = fields["tiles"].parse().unwrap();
    assert!(tiles > 0, "a move must dirty at least one tile: {frame}");

    // Queries between mutations repair the watched state but emit no
    // frames; the next mutation's before-values still chain correctly.
    mutator.request_ok("holes grid=12").unwrap();
    mutator.request_ok("fail id=0").unwrap();
    let frame = match watcher.recv().expect("second delta") {
        Response::Ok(frame) => frame,
        Response::Err(message) => panic!("err frame: {message}"),
    };
    let fields = frame_fields(&frame);
    assert_eq!(fields["cause"], "fail");
    assert_eq!(fields["seq"], "2");

    // A reseed replaces the fleet wholesale: the delta reports a rebuild.
    mutator.request_ok("reseed seed=11 n=30").unwrap();
    let frame = match watcher.recv().expect("third delta") {
        Response::Ok(frame) => frame,
        Response::Err(message) => panic!("err frame: {message}"),
    };
    let fields = frame_fields(&frame);
    assert_eq!((fields["cause"], fields["seq"]), ("reseed", "3"));
    assert_eq!(fields["rebuilt"], "true", "{frame}");
}

#[test]
fn incremental_answers_stay_byte_identical_after_mutations() {
    // The tentpole acceptance check at the service layer: `check`,
    // `holes`, and `mask` are served from the warm incremental engine
    // after mutations dirty it, and every byte must match a cold
    // library evaluation of the identically-mutated fleet.
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);

    // Warm the incremental states pre-mutation.
    client.request_ok("check").unwrap();
    client.request_ok("holes grid=10").unwrap();
    client.request_ok("mask grid=10").unwrap();

    client.request_ok("move id=5 x=0.77 y=0.33").unwrap();
    client.request_ok("fail id=2").unwrap();

    let theta = EffectiveAngle::new(45f64.to_radians()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut net =
        deploy_uniform(fullview_geom::Torus::unit(), &test_profile(), N, &mut rng).unwrap();
    assert!(net.move_camera(5, Point::new(0.77, 0.33)));
    assert!(net.remove_camera(2));

    let report = evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, 2);
    let want_check = format!(
        "{} cameras\n{report}\nfull-view fraction {:.4}\n",
        net.len(),
        report.full_view_fraction()
    );
    assert_eq!(client.request_ok("check").unwrap(), want_check);

    let want_holes = hole_report_text(&find_holes(&net, theta, 10));
    assert_eq!(client.request_ok("holes grid=10").unwrap(), want_holes);

    let want_mask: String = full_view_mask_range(&net, theta, 10, 0, 100)
        .into_iter()
        .map(|covered| if covered { '1' } else { '0' })
        .collect();
    assert_eq!(client.request_ok("mask grid=10").unwrap(), want_mask);

    // The repairs above were incremental, not silent rebuilds: the
    // `stale` counter proves the warm entries were downgraded (not
    // evicted) and recomputed in place.
    let stats = client.request_ok("stats").unwrap();
    let cache = stats_line(&stats, "cache:");
    assert!(
        cache["stale"].parse::<u64>().unwrap() > 0,
        "mutations must downgrade entries to stale, not evict them: {stats}"
    );
}

#[test]
fn unknown_id_mutations_have_no_side_effects() {
    // Mutation-path bugfix sweep: a rejected mutation must not touch the
    // fingerprint, the cache, the warm sweep states, or the watch
    // stream.
    let server = Server::start(small_config()).expect("start");
    let mut watcher = connect(&server);
    let mut client = connect(&server);

    watcher.request_ok("watch grid=12").unwrap();
    client.request_ok("map side=16").unwrap();
    let fp_before = client.request_ok("fingerprint").unwrap();
    let invalidated_before = cache_counter(&mut client, "invalidated");

    for bad in ["fail id=999", "move id=999 x=0.5 y=0.5"] {
        match client.request(bad).expect(bad) {
            Response::Err(message) => {
                assert!(message.contains("no camera with id 999"), "{message}");
            }
            Response::Ok(payload) => panic!("{bad} unexpectedly ok: {payload}"),
        }
    }

    assert_eq!(
        client.request_ok("fingerprint").unwrap(),
        fp_before,
        "rejected mutations must not change the fleet"
    );
    assert_eq!(
        cache_counter(&mut client, "invalidated"),
        invalidated_before,
        "rejected mutations must not stale cache entries"
    );
    let hits_before = cache_counter(&mut client, "hits");
    client.request_ok("map side=16").unwrap();
    assert_eq!(
        cache_counter(&mut client, "hits"),
        hits_before + 1,
        "the cached map must still be fresh"
    );

    // The first frame the watcher sees is seq=1 from the first *valid*
    // mutation — the rejected ones emitted nothing.
    client.request_ok("move id=1 x=0.4 y=0.6").unwrap();
    let frame = match watcher.recv().expect("delta after valid mutation") {
        Response::Ok(frame) => frame,
        Response::Err(message) => panic!("err frame: {message}"),
    };
    let fields = frame_fields(&frame);
    assert_eq!((fields["cause"], fields["seq"]), ("move", "1"));
}

#[test]
fn four_client_hammer_counts_every_request_exactly_once() {
    // Regression for the striped metrics rewrite: four concurrent
    // connections hammer the daemon and the merged `stats` snapshot must
    // account for every request exactly once — no lost updates between
    // stripes, no double counting, and monotone latency quantiles.
    const CLIENTS: usize = 4;
    const PINGS: usize = 25;
    const MASKS: usize = 10;
    const CHECKS: usize = 5;
    let server = Server::start(small_config()).expect("start");
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = connect(&server);
                for i in 0..PINGS.max(MASKS).max(CHECKS) {
                    if i < PINGS {
                        assert_eq!(client.request_ok("ping").unwrap(), "pong\n");
                    }
                    if i < MASKS {
                        client.request_ok("mask grid=8").unwrap();
                    }
                    if i < CHECKS {
                        client.request_ok("check").unwrap();
                    }
                }
            });
        }
    });
    let mut client = connect(&server);
    let stats = client.request_ok("stats").unwrap();
    let requests = stats_line(&stats, "requests:");
    assert_eq!(requests["ping"], (CLIENTS * PINGS).to_string());
    assert_eq!(requests["mask"], (CLIENTS * MASKS).to_string());
    assert_eq!(requests["check"], (CLIENTS * CHECKS).to_string());
    assert_eq!(requests["rejected"], "0");
    let latency = stats_line(&stats, "latency_ms:");
    let samples: u64 = latency["samples"].parse().unwrap();
    // The stats request itself records only after rendering its payload,
    // so the sample count is exactly the hammered requests.
    assert_eq!(samples, (CLIENTS * (PINGS + MASKS + CHECKS)) as u64);
    let p50: f64 = latency["p50"].parse().unwrap();
    let p99: f64 = latency["p99"].parse().unwrap();
    assert!(
        p50 <= p99,
        "quantiles must be monotone: p50={p50} p99={p99}"
    );
}

#[test]
fn admission_gate_sheds_the_hot_client_but_serves_the_light_one() {
    // Fairness acceptance: a saturating identity is shed with `busy`
    // frames while a second, light identity's requests all complete on
    // its own token bucket.
    let mut config = small_config();
    config.admit_rate = 2.0;
    config.admit_burst = 3.0;
    let server = Server::start(config).expect("start");

    let mut hog = connect(&server);
    assert_eq!(hog.request_ok("hello client=hog").unwrap(), "hello hog\n");
    let mut hog_ok = 0u32;
    let mut hog_busy = 0u32;
    for _ in 0..30 {
        match hog.request("check").expect("transport") {
            Response::Ok(_) => hog_ok += 1,
            Response::Err(message) => {
                assert!(message.contains("busy retry_after="), "{message}");
                let after = message.split("retry_after=").nth(1).unwrap();
                assert!(after.parse::<u64>().unwrap() >= 1, "{message}");
                hog_busy += 1;
            }
        }
    }
    assert!(hog_ok >= 3, "the burst allowance was admitted: {hog_ok}");
    assert!(hog_busy > 0, "the hot client must have been shed");

    // The light client's fresh bucket admits it despite the hot one.
    let mut light = connect(&server);
    light.request_ok("hello client=light").unwrap();
    for _ in 0..3 {
        light.request_ok("check").unwrap();
    }

    // Ungated verbs stay reachable even for the exhausted identity.
    assert_eq!(hog.request_ok("ping").unwrap(), "pong\n");
    let stats = hog.request_ok("stats").unwrap();
    let requests = stats_line(&stats, "requests:");
    assert_eq!(requests["busy"], hog_busy.to_string());
    let admission = stats_line(&stats, "admission:");
    assert_eq!(admission["rate"], "2");
    assert_eq!(admission["hog"], format!("{hog_ok}/{hog_busy}"));
    assert_eq!(admission["light"], "3/0");
}

#[test]
fn shutdown_request_drains_and_stops_the_server() {
    let server = Server::start(small_config()).expect("start");
    let addr = server.local_addr();
    let mut client = connect(&server);
    client.request_ok("map side=12").unwrap();
    let reply = client.request_ok("shutdown").unwrap();
    assert!(reply.contains("draining"), "{reply}");

    // wait() returns once the acceptor, handlers, and queue are done.
    server.wait();

    // The port no longer accepts requests.
    assert!(
        Client::connect(addr)
            .and_then(|mut c| {
                c.set_timeout(Some(Duration::from_millis(500)))?;
                c.request("ping")
            })
            .is_err(),
        "server must be gone after shutdown"
    );
}

#[test]
fn programmatic_shutdown_via_drop_is_graceful() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);
    client.request_ok("check").unwrap();
    drop(server); // must not hang or panic with a live client connected
}

#[test]
fn wal_restart_replays_mutations_to_byte_identical_state() {
    let dir = std::env::temp_dir().join(format!("fvc-wal-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let base = dir.join("fleet.snap");

    // First life: journal three mutations, but never checkpoint.
    let mut config = small_config();
    config.wal = Some(base.clone());
    let server = Server::start(config).expect("start");
    let mut client = connect(&server);
    client.request_ok("fail id=3").unwrap();
    client.request_ok("move id=5 x=0.25 y=0.75").unwrap();
    client.request_ok("reseed seed=11 n=50").unwrap();
    let fp = client.request_ok("fingerprint").unwrap();
    let map = client.request_ok("map side=16").unwrap();
    drop(client);
    drop(server);

    // Second life: the startup snapshot plus the replayed journal must
    // reproduce the pre-restart fleet bit for bit.
    let mut config = small_config();
    config.wal = Some(base.clone());
    let server = Server::start(config).expect("restart with wal");
    let mut client = connect(&server);
    assert_eq!(client.request_ok("fingerprint").unwrap(), fp);
    assert_eq!(client.request_ok("map side=16").unwrap(), map);
    let stats = client.request_ok("stats").unwrap();
    let wal = stats_line(&stats, "wal:");
    assert_eq!(wal["records"], "3", "journal replayed all three records");

    // Checkpointing folds the journal into the snapshot and truncates.
    let reply = client.request_ok("snapshot").unwrap();
    assert!(
        reply.contains("journal truncated (3 records checkpointed)"),
        "{reply}"
    );
    client.request_ok("fail id=0").unwrap();
    let fp2 = client.request_ok("fingerprint").unwrap();
    drop(client);
    drop(server);

    // Third life: snapshot (checkpointed) + one fresh journal record.
    let mut config = small_config();
    config.wal = Some(base.clone());
    let server = Server::start(config).expect("restart after checkpoint");
    let mut client = connect(&server);
    assert_eq!(client.request_ok("fingerprint").unwrap(), fp2);
    let stats = client.request_ok("stats").unwrap();
    assert_eq!(stats_line(&stats, "wal:")["records"], "1");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_sheds_queued_work_but_serves_fresh_hits_and_generous_budgets() {
    // One worker: jobs queue strictly behind the pipelined heavy maps,
    // so the 1 ms budget is guaranteed spent before compute starts.
    let mut config = small_config();
    config.workers = 1;
    let server = Server::start(config).expect("start");
    let mut client = connect(&server);

    // A generous budget on an idle daemon answers normally.
    let ok = client.request_ok("check deadline_ms=60000").unwrap();
    assert!(ok.contains("full-view fraction"), "{ok}");

    // A second connection saturates the single worker with heavy maps
    // (distinct sides defeat the cache); the tiny-budget prob then
    // queues behind them and must be shed with the daemon's deadline
    // err. One connection cannot show this: its requests are read
    // sequentially, so a later request's clock starts after the earlier
    // answers are already written.
    let mut heavy = connect(&server);
    let hog = std::thread::spawn(move || {
        let reqs = ["map side=512", "map side=513", "map side=514"];
        heavy.pipeline(&reqs, reqs.len()).expect("heavy pipeline")
    });
    std::thread::sleep(Duration::from_millis(100));
    match client.request("prob density=150 deadline_ms=1").unwrap() {
        Response::Err(message) => {
            assert!(message.starts_with("deadline exceeded:"), "{message}");
        }
        other => panic!("tiny budget behind a busy worker must shed, got {other:?}"),
    }
    for resp in hog.join().expect("hog thread") {
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    }

    // The deadline is not part of the cache key: the answer computed
    // above serves a repeat with an impossible budget from cache.
    let hit = client.request_ok("check deadline_ms=1").unwrap();
    assert_eq!(hit, ok, "fresh cache hits are free and never shed");
}

#[test]
fn stats_counts_every_served_verb_once_and_totals_its_samples() {
    let server = Server::start(small_config()).expect("start");
    let mut client = connect(&server);
    let dir = std::env::temp_dir().join(format!("fvc-service-verbs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap = dir.join("verbs.snap");
    let snap = snap.display();

    // `watch` retires its connection, so it goes first on its own.
    let mut watcher = connect(&server);
    watcher.request_ok("watch grid=8").expect("watch");
    let requests = [
        "check".to_string(),
        "map side=8".to_string(),
        "holes grid=8".to_string(),
        "kfull k=1 grid=8".to_string(),
        "prob density=100".to_string(),
        "cells side=8".to_string(),
        "mask grid=8".to_string(),
        "kcount k=1 grid=8".to_string(),
        "barrier grid=8".to_string(),
        "stats".to_string(),
        "fingerprint".to_string(),
        format!("snapshot path={snap}"),
        format!("restore path={snap}"),
        "fail id=0".to_string(),
        "move id=1 x=0.5 y=0.5".to_string(),
        "reseed seed=3".to_string(),
        "hello client=probe".to_string(),
        "ping".to_string(),
    ];
    for request in &requests {
        client.request_ok(request).expect(request);
    }

    let stats = client.request_ok("stats").expect("stats");
    let counts = stats_line(&stats, "requests:");
    for verb in requests
        .iter()
        .map(|r| r.split_whitespace().next().unwrap())
        .chain(["watch"])
    {
        assert_eq!(counts.get(verb), Some(&"1"), "'{verb}' in:\n{stats}");
    }
    assert_eq!(
        counts["total"],
        stats_line(&stats, "latency_ms:")["samples"],
        "every timed request is counted:\n{stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
