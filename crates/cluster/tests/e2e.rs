//! Cluster end-to-end tests: real daemons on ephemeral loopback ports
//! fronted by a real coordinator.
//!
//! Covers the ISSUE acceptance criteria: coordinator answers for `map`,
//! `holes`, `kfull`, `check`, and `prob` are **byte-identical** to a
//! single daemon's at 1, 2, and 4 shards; a shard that starts divergent
//! is restored onto the authority state from the cluster snapshot; a
//! killed shard degrades service without changing answers; a shard that
//! rejects a broadcast mutation is forced down and resynced from the
//! refreshed snapshot (the full failover state machine); and cluster
//! stats aggregate per-shard counters.

use fullview_cluster::{ClusterConfig, Coordinator};
use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Server, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

const N: usize = 40;
const SEED: u64 = 7;

fn test_profile() -> NetworkProfile {
    NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("valid spec"))
}

fn daemon(seed: u64, n: usize) -> Server {
    let mut config = ServiceConfig::new(test_profile());
    config.n = n;
    config.seed = seed;
    config.workers = 2;
    Server::start(config).expect("daemon start")
}

fn spawn_shards(count: usize) -> (Vec<Server>, Vec<String>) {
    let shards: Vec<Server> = (0..count).map(|_| daemon(SEED, N)).collect();
    let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
    (shards, addrs)
}

/// A per-test scratch directory for the cluster snapshot.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fvc-cluster-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn fast_config(addrs: Vec<String>, snapshot_dir: Option<PathBuf>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(addrs);
    cfg.backoff_ms = 1; // keep reconnect windows test-fast
    cfg.backoff_cap_ms = 20;
    cfg.snapshot_dir = snapshot_dir;
    cfg
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    client
}

const QUERIES: &[&str] = &[
    "check",
    "map side=16",
    "map side=13 theta-deg=60",
    "holes grid=12",
    "kfull k=1 grid=10",
    "kfull k=2 grid=9 theta-deg=75",
    "prob density=100",
    "barrier grid=10",
    "barrier grid=8 theta-deg=60",
];

#[test]
fn cluster_answers_are_byte_identical_to_a_single_daemon_at_1_2_and_4_shards() {
    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    let expected: Vec<String> = QUERIES
        .iter()
        .map(|q| ref_client.request_ok(q).expect(q))
        .collect();

    for shard_count in [1usize, 2, 4] {
        let (_shards, addrs) = spawn_shards(shard_count);
        let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
        let mut client = connect(coordinator.local_addr());
        for (query, want) in QUERIES.iter().zip(&expected) {
            let got = client.request_ok(query).expect(query);
            assert_eq!(
                &got, want,
                "{query} differs from the single daemon at {shard_count} shards"
            );
        }
    }
}

#[test]
fn shards_warm_repairs_match_a_lone_daemon_after_move_and_fail() {
    // Each shard answers its chunks from warm states it repairs after
    // every broadcast mutation; the merged bytes must track a lone
    // daemon mutated the same way.
    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    let (_shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());
    // θ = 180° too: at the default 45° this fleet's k answers are all 0.
    let reads = [
        "map side=16",
        "kfull k=2 grid=9",
        "kfull k=2 grid=9 theta-deg=180",
    ];
    let mut last = Vec::new();
    for mutation in [None, Some("move id=6 x=0.31 y=0.64"), Some("fail id=11")] {
        if let Some(mutation) = mutation {
            ref_client.request_ok(mutation).expect(mutation);
            client.request_ok(mutation).expect(mutation);
        }
        let answers: Vec<String> = reads
            .iter()
            .map(|query| ref_client.request_ok(query).expect(query))
            .collect();
        for (query, want) in reads.iter().zip(&answers) {
            assert_eq!(
                &client.request_ok(query).expect(query),
                want,
                "{query} after {mutation:?}"
            );
        }
        // Each mutation changes the 180° count, so a state that missed
        // the mutation's dirt cannot match by accident.
        assert!(
            last.last() != answers.last(),
            "{mutation:?} left {} unchanged",
            reads[2]
        );
        last = answers;
    }
}

#[test]
fn divergent_shard_is_restored_onto_the_authority_state_at_startup() {
    // Shard 0 carries the canonical state; shard 1 boots with a totally
    // different fleet and must be resynced from the startup snapshot.
    let shard_a = daemon(SEED, N);
    let shard_b = daemon(99, 25);
    let addrs = vec![
        shard_a.local_addr().to_string(),
        shard_b.local_addr().to_string(),
    ];
    let dir = scratch_dir("startup-resync");
    let coordinator =
        Coordinator::start(fast_config(addrs, Some(dir.clone()))).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    // Both shards serve; answers match a seed-7 daemon bit for bit even
    // though half the chunks land on the restored shard.
    let shards = client.request_ok("shards").expect("shards");
    assert!(
        shards.contains("shard 0:") && shards.contains("shard 1:"),
        "{shards}"
    );
    assert!(!shards.contains("state=down"), "{shards}");

    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    let want = ref_client.request_ok("map side=16").unwrap();
    assert_eq!(client.request_ok("map side=16").unwrap(), want);

    // The restored shard now carries the authority fingerprint.
    let mut direct_b = connect(shard_b.local_addr());
    assert_eq!(
        direct_b.request_ok("fingerprint").unwrap(),
        client.request_ok("fingerprint").unwrap(),
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn killing_a_shard_degrades_service_without_changing_answers() {
    let (mut shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let before = client.request_ok("map side=16").unwrap();

    drop(shards.remove(1)); // graceful daemon shutdown: shard 1 is gone

    // All chunks reassign to the survivor; the merged bytes are unchanged.
    let after = client.request_ok("map side=16").unwrap();
    assert_eq!(before, after, "failover must not change answers");
    let shards_text = client.request_ok("shards").expect("shards");
    assert!(shards_text.contains("shard 0: ") && shards_text.contains("state=up"));
    assert!(shards_text.contains("state=down"), "{shards_text}");

    // Mutations still apply on the survivor.
    let reply = client.request_ok("fail id=0").unwrap();
    assert!(
        reply.contains(&format!("{} cameras remain", N - 1)),
        "{reply}"
    );
    let check = client.request_ok("check").unwrap();
    assert!(
        check.starts_with(&format!("{} cameras\n", N - 1)),
        "{check}"
    );
}

#[test]
fn rejected_broadcast_forces_resync_through_the_refreshed_snapshot() {
    let (shards, addrs) = spawn_shards(2);
    let dir = scratch_dir("mutation-resync");
    let coordinator =
        Coordinator::start(fast_config(addrs, Some(dir.clone()))).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    // Sabotage shard 1 behind the coordinator's back: a direct client
    // replaces its fleet entirely.
    let mut direct_b = connect(shards[1].local_addr());
    direct_b.request_ok("reseed seed=99 n=30").unwrap();

    // The broadcast mutation succeeds on shard 0 but is rejected by the
    // sabotaged shard (no camera 35 in a 30-camera fleet), which the
    // coordinator answers by forcing that shard down.
    let reply = client.request_ok("fail id=35").unwrap();
    assert!(reply.contains("cameras remain"), "{reply}");

    // The next query reconnects shard 1, sees the fingerprint mismatch,
    // and restores it from the refreshed (post-mutation) snapshot.
    let got = client.request_ok("map side=16").unwrap();
    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    ref_client.request_ok("fail id=35").unwrap();
    let want = ref_client.request_ok("map side=16").unwrap();
    assert_eq!(got, want, "post-failover map must match a lone daemon");

    let shards_text = client.request_ok("shards").expect("shards");
    assert!(!shards_text.contains("state=down"), "{shards_text}");
    assert_eq!(
        direct_b.request_ok("fingerprint").unwrap(),
        client.request_ok("fingerprint").unwrap(),
        "restored shard must carry the post-mutation authority fingerprint"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cluster_stats_aggregate_per_shard_counters() {
    let (_shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    client.request_ok("map side=16").unwrap();
    client.request_ok("map side=16").unwrap(); // scattered chunks hit shard caches
    client.request_ok("kfull k=1 grid=10").unwrap();

    let stats = client.request_ok("stats").unwrap();
    assert!(stats.contains("cluster: shards=2 up=2 down=0"), "{stats}");
    assert!(stats.contains(&format!("fleet: cameras={N}")), "{stats}");
    let shard_line = stats
        .lines()
        .find(|l| l.starts_with("shards: "))
        .unwrap_or_else(|| panic!("no shards line in:\n{stats}"));
    let field = |name: &str| -> u64 {
        shard_line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {shard_line}"))
    };
    assert!(field("total_requests") > 0, "{shard_line}");
    assert!(field("queue_capacity") > 0, "{shard_line}");
    assert!(
        field("cache_hits") > 0,
        "repeated identical chunks must hit shard caches: {shard_line}"
    );
    // Coordinator-side verb counters cover the client's requests.
    let requests = stats.lines().find(|l| l.starts_with("requests: ")).unwrap();
    assert!(
        requests.contains("map=2") && requests.contains("kfull=1"),
        "{requests}"
    );
}

/// Extracts `name=value` as u64 from a named stats line.
fn stats_field(stats: &str, line_prefix: &str, name: &str) -> u64 {
    let line = stats
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no '{line_prefix}' line in:\n{stats}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {line}"))
}

#[test]
fn replicated_reads_spread_across_both_replicas_with_identical_bytes() {
    // Tentpole acceptance (a): with two replicas of the same range, read
    // verbs spread across both shards and every answer stays
    // byte-identical to a lone daemon's.
    let (_shards, addrs) = spawn_shards(2);
    let mut cfg = fast_config(addrs, None);
    cfg.replication = 2;
    let coordinator = Coordinator::start(cfg).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    for query in QUERIES {
        let want = ref_client.request_ok(query).expect(query);
        assert_eq!(
            client.request_ok(query).expect(query),
            want,
            "{query} differs from the single daemon under replication"
        );
    }
    // A few repeated fan-out reads so the rotation has room to balance.
    for _ in 0..6 {
        client.request_ok("check").unwrap();
    }

    let stats = client.request_ok("stats").unwrap();
    assert_eq!(stats_field(&stats, "reads:", "replication"), 2);
    assert_eq!(stats_field(&stats, "reads:", "groups"), 1);
    let shard0 = stats_field(&stats, "reads:", "shard0");
    let shard1 = stats_field(&stats, "reads:", "shard1");
    assert!(
        shard0 > 0 && shard1 > 0,
        "both replicas must have served reads: shard0={shard0} shard1={shard1}"
    );

    // Both shards report membership in the single replica group.
    let shards_text = client.request_ok("shards").unwrap();
    assert!(shards_text.contains("shard 0:"), "{shards_text}");
    for line in shards_text.lines() {
        assert!(line.contains("group=0"), "{line}");
        assert!(line.contains("state=up"), "{line}");
    }
}

#[test]
fn killing_a_replica_mid_window_loses_no_inflight_reads() {
    // Tentpole acceptance (c): kill one replica while a bounded
    // in-flight window has queued requests on the wire; every single
    // request must be answered by the sibling, byte-identical to a lone
    // daemon — zero drops, zero duplicates, zero error frames.
    let (mut shards, addrs) = spawn_shards(2);
    let mut cfg = fast_config(addrs, None);
    cfg.replication = 2;
    let coordinator = Coordinator::start(cfg).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let reference = daemon(SEED, N);
    let mut ref_client = connect(reference.local_addr());
    let want_map = ref_client.request_ok("map side=16").unwrap();
    let want_check = ref_client.request_ok("check").unwrap();

    const WINDOW: usize = 6;
    const TOTAL: usize = 24;
    let lines: Vec<&str> = (0..TOTAL)
        .map(|i| if i % 2 == 0 { "map side=16" } else { "check" })
        .collect();
    let mut responses: Vec<fullview_service::Response> = Vec::new();
    let mut sent = 0usize;
    let mut killed = false;
    while responses.len() < TOTAL {
        while sent < TOTAL && sent - responses.len() < WINDOW {
            client.send(lines[sent]).expect("send");
            sent += 1;
        }
        if !killed && responses.len() >= TOTAL / 2 {
            // A full window is queued right now; replica 1 dies mid-load.
            drop(shards.remove(1));
            killed = true;
        }
        responses.push(client.recv().expect("every queued request answered"));
    }
    assert_eq!(responses.len(), TOTAL, "no drops");
    for (i, resp) in responses.iter().enumerate() {
        let want = if i % 2 == 0 { &want_map } else { &want_check };
        match resp {
            fullview_service::Response::Ok(payload) => {
                assert_eq!(payload, want, "request {i} diverged after failover");
            }
            fullview_service::Response::Err(message) => {
                panic!("request {i} failed instead of failing over: {message}");
            }
        }
    }

    let shards_text = client.request_ok("shards").unwrap();
    assert!(shards_text.contains("state=down"), "{shards_text}");
    assert!(shards_text.contains("state=up"), "{shards_text}");
}

#[test]
fn coordinator_rejects_bad_requests_like_a_daemon() {
    let (_shards, addrs) = spawn_shards(1);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let huge = 1usize << 32;
    for (request, needle) in [
        ("bogus".to_string(), "unknown request"),
        ("map sidr=16".to_string(), "unknown parameter 'sidr'"),
        ("map side=0".to_string(), "side/grid must be positive"),
        ("fail".to_string(), "missing required parameter 'id'"),
        ("fail id=999".to_string(), "no camera with id 999"),
        (format!("map side={huge}"), "overflows"),
        (format!("holes grid={huge}"), "overflows"),
        (format!("kfull k=1 grid={huge}"), "overflows"),
        (format!("barrier grid={huge}"), "overflows"),
        (format!("watch grid={huge}"), "overflows"),
        ("check theta-deg=0.0000001".to_string(), "too fine"),
    ] {
        let request = request.as_str();
        match client.request(request).expect(request) {
            fullview_service::Response::Err(message) => {
                assert!(message.contains(needle), "{request}: {message}");
            }
            fullview_service::Response::Ok(payload) => {
                panic!("{request} unexpectedly ok: {payload}");
            }
        }
    }
    // The connection survives rejections, like the daemon's, and the
    // shard behind it still answers a scatter.
    assert_eq!(client.request_ok("ping").unwrap(), "pong\n");
    client
        .request_ok("map side=12")
        .expect("the shard survived every rejected request");
}

#[test]
fn watch_relay_streams_deltas_through_the_coordinator() {
    // A `watch` on the coordinator is relayed 1:1 to a shard; a mutation
    // broadcast through the coordinator must surface as a delta frame on
    // the watcher's connection.
    let (_shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut watcher = connect(coordinator.local_addr());
    let mut mutator = connect(coordinator.local_addr());

    let baseline = watcher.request_ok("watch grid=10").expect("baseline");
    assert!(baseline.starts_with("watching grid=10"), "{baseline}");
    assert!(baseline.contains("seq=0"), "{baseline}");

    mutator.request_ok("move id=1 x=0.2 y=0.8").expect("move");
    let frame = match watcher.recv().expect("delta frame") {
        fullview_service::Response::Ok(frame) => frame,
        fullview_service::Response::Err(message) => panic!("err frame: {message}"),
    };
    assert!(frame.starts_with("delta cause=move"), "{frame}");
    assert!(frame.contains("seq=1"), "{frame}");

    // A second mutation keeps the stream flowing.
    mutator.request_ok("fail id=0").expect("fail");
    let frame = match watcher.recv().expect("second delta") {
        fullview_service::Response::Ok(frame) => frame,
        fullview_service::Response::Err(message) => panic!("err frame: {message}"),
    };
    assert!(frame.starts_with("delta cause=fail"), "{frame}");
    assert!(frame.contains("seq=2"), "{frame}");

    // A bad subscription is rejected without tying up the connection.
    let mut bad = connect(coordinator.local_addr());
    match bad.request("watch grid=0").expect("bad watch") {
        fullview_service::Response::Err(message) => {
            assert!(message.contains("side/grid must be positive"), "{message}");
        }
        fullview_service::Response::Ok(payload) => panic!("unexpectedly ok: {payload}"),
    }
    assert_eq!(bad.request_ok("ping").unwrap(), "pong\n");
}

#[test]
fn rejected_mutations_abort_before_any_shard_diverges() {
    // Mutation-path bugfix sweep: a mutation the daemons reject (unknown
    // camera id) must abort on the first shard *before* any state
    // changed anywhere — afterwards every shard still carries the
    // identical fingerprint and a valid mutation still converges.
    let (shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let mut direct: Vec<Client> = shards.iter().map(|s| connect(s.local_addr())).collect();
    let fp_before: Vec<String> = direct
        .iter_mut()
        .map(|c| c.request_ok("fingerprint").expect("fingerprint"))
        .collect();
    assert_eq!(fp_before[0], fp_before[1], "replicas start identical");

    for bad in ["fail id=999", "move id=999 x=0.5 y=0.5"] {
        match client.request(bad).expect(bad) {
            fullview_service::Response::Err(message) => {
                assert!(message.contains("no camera with id 999"), "{message}");
            }
            fullview_service::Response::Ok(payload) => panic!("{bad} unexpectedly ok: {payload}"),
        }
    }

    for (i, c) in direct.iter_mut().enumerate() {
        assert_eq!(
            c.request_ok("fingerprint").expect("fingerprint"),
            fp_before[i],
            "shard {i} mutated by a rejected broadcast"
        );
    }
    assert_eq!(
        client.request_ok("fingerprint").expect("fingerprint"),
        fp_before[0],
        "authority fingerprint must be untouched"
    );

    // The cluster still mutates and converges afterwards.
    client.request_ok("fail id=0").expect("valid mutation");
    let after: Vec<String> = direct
        .iter_mut()
        .map(|c| c.request_ok("fingerprint").expect("fingerprint"))
        .collect();
    assert_eq!(after[0], after[1], "replicas converged after the mutation");
    assert_ne!(after[0], fp_before[0], "the valid mutation applied");
}

#[test]
fn deadline_budgets_flow_through_the_coordinator_and_shed_distinctly() {
    let (_shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    // A generous budget answers byte-identically to the unbudgeted
    // query on every verb shape (scatter and forward alike): the
    // deadline is forwarded to the shards but never changes an answer.
    for query in ["check", "map side=16", "holes grid=12", "prob density=100"] {
        let want = client.request_ok(query).expect(query);
        let got = client
            .request_ok(&format!("{query} deadline_ms=60000"))
            .expect(query);
        assert_eq!(got, want, "{query} with a budget must not change bytes");
    }

    // A zero budget is already blown when the coordinator receives it:
    // shed with the distinct deadline err before any shard burns time.
    for query in ["check deadline_ms=0", "kfull k=1 grid=10 deadline_ms=0"] {
        let message = client.request_ok(query).expect_err(query);
        assert!(message.contains("deadline exceeded:"), "{query}: {message}");
    }

    // The coordinator still serves normally after shedding.
    assert_eq!(client.request_ok("ping").expect("ping"), "pong\n");
}

#[test]
fn breaker_state_is_reported_and_a_tripped_shard_recovers() {
    // Threshold 1 so a single kill trips the breaker immediately.
    let (mut shards, addrs) = spawn_shards(2);
    let dir = scratch_dir("breaker");
    let mut cfg = fast_config(addrs, Some(dir.clone()));
    cfg.breaker_threshold = 1;
    let coordinator = Coordinator::start(cfg).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    let before = client.request_ok("shards").expect("shards");
    assert_eq!(before.matches("breaker=closed").count(), 2, "{before}");

    // Kill shard 1: the next probe fails, trips its breaker, and the
    // shards report shows it open (or half-open once the tiny test
    // cooldown lapses) while queries keep answering from shard 0.
    drop(shards.remove(1));
    // The death is discovered lazily: the next scattered query fails on
    // the stale connection, marks the shard down, and (threshold 1)
    // trips the breaker — while the answer still arrives from shard 0.
    client
        .request_ok("map side=16")
        .expect("map with one shard");
    let during = client.request_ok("shards").expect("shards");
    assert!(during.contains("state=down"), "{during}");
    assert!(
        during.contains("breaker=open") || during.contains("breaker=half-open"),
        "{during}"
    );

    // Bring a replacement up on a fresh port? No — the address is gone
    // for good, but the breaker math is already proven; what matters is
    // the survivor keeps serving and reports closed.
    let after = client.request_ok("shards").expect("shards");
    assert!(
        after.contains("shard 0") && after.contains("breaker=closed"),
        "{after}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_max_cells_budget_rejects_before_scattering() {
    let (_shards, addrs) = spawn_shards(1);
    let mut cfg = fast_config(addrs, None);
    cfg.max_cells = 256;
    let coordinator = Coordinator::start(cfg).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    // Within budget: 12×12 = 144 ≤ 256.
    let within = client.request_ok("map side=12").expect("small map");

    // Over budget: the coordinator rejects with the daemon's named
    // frame without dispatching a single chunk.
    for query in [
        "map side=17",
        "holes grid=17",
        "kfull k=1 grid=17",
        "barrier grid=17",
        "watch grid=17",
    ] {
        match client.request(query).expect("send") {
            fullview_service::Response::Err(message) => assert!(
                message.contains("max-cells exceeded") && message.contains("256-cell budget"),
                "'{query}': {message}"
            ),
            fullview_service::Response::Ok(payload) => {
                panic!("'{query}' over budget was served: {payload}")
            }
        }
    }

    // Rejections are per-request: the connection keeps serving.
    let again = client.request_ok("map side=12").expect("map after rejects");
    assert_eq!(again, within, "served bytes changed after budget rejects");
}

#[test]
fn coordinator_stats_count_every_served_verb_once_and_total_their_samples() {
    let (_shards, addrs) = spawn_shards(2);
    let coordinator = Coordinator::start(fast_config(addrs, None)).expect("coordinator");
    let mut client = connect(coordinator.local_addr());

    // `watch` retires its connection, so it goes first on its own.
    let mut watcher = connect(coordinator.local_addr());
    watcher.request_ok("watch grid=8").expect("watch");
    let requests = [
        "check",
        "map side=8",
        "holes grid=8",
        "kfull k=1 grid=8",
        "prob density=100",
        "barrier grid=8",
        "stats",
        "shards",
        "fingerprint",
        "fail id=0",
        "move id=1 x=0.5 y=0.5",
        "reseed seed=3",
        "hello client=probe",
        "ping",
    ];
    for request in requests {
        client.request_ok(request).expect(request);
    }

    let stats = client.request_ok("stats").expect("stats");
    let field = |line: &str, key: &str| -> String {
        let line = stats
            .lines()
            .find(|l| l.starts_with(line))
            .unwrap_or_else(|| panic!("no '{line}' line in:\n{stats}"));
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no '{key}=' in '{line}'"))
            .to_string()
    };
    for verb in requests
        .iter()
        .map(|r| r.split_whitespace().next().unwrap())
        .chain(["watch"])
    {
        assert_eq!(field("requests:", verb), "1", "'{verb}' in:\n{stats}");
    }
    assert_eq!(
        field("requests:", "total"),
        field("latency_ms:", "samples"),
        "every timed request is counted:\n{stats}"
    );
}
