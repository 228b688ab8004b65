//! End-to-end tests for the hierarchical-prover daemon path, the
//! `barrier` verb, and the `max-cells` admission budget — all over real
//! TCP on ephemeral ports.
//!
//! The hier contract is the strongest one the daemon makes: flipping
//! `--hier` changes *zero* wire bytes. Every query answered by the
//! prover-backed path is compared against a plain exact daemon serving
//! the identically-seeded fleet.

use fullview_core::{barrier_full_view, EffectiveAngle};
use fullview_deploy::deploy_uniform;
use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Response, Server, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const N: usize = 60;
const SEED: u64 = 7;

fn test_profile() -> NetworkProfile {
    NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("valid spec"))
}

fn config_with(hier: bool, max_cells: usize) -> ServiceConfig {
    let mut config = ServiceConfig::new(test_profile());
    config.n = N;
    config.seed = SEED;
    config.workers = 2;
    config.hier = hier;
    config.max_cells = max_cells;
    config
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    client
}

#[test]
fn hier_daemon_answers_are_byte_identical_to_the_exact_daemon() {
    let exact = Server::start(config_with(false, 0)).expect("exact daemon");
    let hier = Server::start(config_with(true, 0)).expect("hier daemon");
    let mut exact_client = connect(&exact);
    let mut hier_client = connect(&hier);

    // Every grid-sweep verb, including the ranged scatter verbs the
    // cluster coordinator rides, at a theta that lands on a sector
    // boundary (45° → π/4 = 2θ boundary pressure).
    for query in [
        "check",
        "map side=24",
        "holes grid=16",
        "kfull k=2 grid=16",
        "cells side=20 lo=37 hi=311",
        "mask grid=20 lo=0 hi=400",
        "kcount k=1 grid=18 lo=5 hi=200",
        "map side=24 theta-deg=60",
        "barrier grid=12",
    ] {
        let want = exact_client.request_ok(query).expect(query);
        let got = hier_client.request_ok(query).expect(query);
        assert_eq!(got, want, "'{query}' bytes differ between hier and exact");
    }

    // The prover's work is visible through `stats` on the hier daemon
    // and reported idle on the exact one.
    let stats = hier_client.request_ok("stats").expect("stats");
    let line = stats
        .lines()
        .find(|l| l.starts_with("hier: "))
        .unwrap_or_else(|| panic!("no 'hier:' line in:\n{stats}"));
    assert!(line.contains("enabled=true"), "{line}");
    assert!(!line.contains("nodes 0 "), "prover never ran: {line}");
    let stats = exact_client.request_ok("stats").expect("stats");
    let line = stats
        .lines()
        .find(|l| l.starts_with("hier: "))
        .expect("exact daemon also reports the hier line");
    assert!(line.contains("enabled=false"), "{line}");
}

#[test]
fn barrier_verb_matches_the_direct_library_call() {
    let server = Server::start(config_with(false, 0)).expect("daemon");
    let mut client = connect(&server);

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut net =
        deploy_uniform(fullview_geom::Torus::unit(), &test_profile(), N, &mut rng).unwrap();

    for (query, theta_deg, grid) in [
        ("barrier grid=12", 45.0, 12),
        ("barrier grid=9 theta-deg=60", 60.0, 9),
    ] {
        let got = client.request_ok(query).expect(query);
        let theta = EffectiveAngle::new(f64::to_radians(theta_deg)).unwrap();
        let want = format!("{}\n", barrier_full_view(&net, theta, grid));
        assert_eq!(got, want, "'{query}' differs from the direct call");
    }

    // The allowlist still rejects stray parameters with the shared hint.
    let reply = client.request("barrier grid=12 side=9").expect("send");
    match reply {
        Response::Err(message) => {
            assert!(message.contains("unknown parameter 'side'"), "{message}")
        }
        Response::Ok(payload) => panic!("stray parameter accepted: {payload}"),
    }

    // On a `--hier` daemon a first `barrier` at a fresh (θ, side) builds
    // its warm sweep through the prover.
    let theta = EffectiveAngle::new(f64::to_radians(45.0)).unwrap();
    let hier = Server::start(config_with(true, 0)).expect("hier daemon");
    let mut hier_client = connect(&hier);
    let before = prover_nodes(&mut hier_client);
    let got = hier_client
        .request_ok("barrier grid=14")
        .expect("hier barrier");
    assert_eq!(got, format!("{}\n", barrier_full_view(&net, theta, 14)));
    assert!(
        prover_nodes(&mut hier_client) > before,
        "the barrier's cold build never ran the prover"
    );

    // After a move the warm state is repaired: the answer is the
    // library's on the moved fleet. At θ = 180° full view is plain
    // coverage, so the move changes the covered fraction.
    let query = "barrier grid=12 theta-deg=180";
    let theta = EffectiveAngle::new(std::f64::consts::PI).unwrap();
    let first = client.request_ok(query).expect(query);
    assert_eq!(first, format!("{}\n", barrier_full_view(&net, theta, 12)));
    let moved = client.request_ok("move id=3 x=0.6 y=0.05").expect("move");
    assert!(moved.starts_with("moved camera 3"), "{moved}");
    assert!(net.move_camera(3, fullview_geom::Point::new(0.6, 0.05)));
    let got = client.request_ok(query).expect("barrier after move");
    assert_ne!(got, first, "the move left the barrier report unchanged");
    assert_eq!(got, format!("{}\n", barrier_full_view(&net, theta, 12)));
}

#[test]
fn max_cells_budget_rejects_oversized_grids_and_daemon_keeps_serving() {
    let server = Server::start(config_with(true, 1_024)).expect("daemon");
    let mut client = connect(&server);

    // Within budget: 20×20 = 400 ≤ 1024.
    let within = client.request_ok("map side=20").expect("small map");
    assert!(!within.is_empty());

    // Over budget: every sweep verb is rejected with the named frame,
    // without the daemon attempting the allocation.
    for query in [
        "map side=64",
        "cells side=64 lo=0 hi=1",
        "mask grid=40 lo=0 hi=1",
        "kcount k=1 grid=40 lo=0 hi=1",
        "holes grid=40",
        "kfull k=1 grid=40",
        "barrier grid=40",
        "watch grid=40",
    ] {
        match client.request(query).expect("send") {
            Response::Err(message) => assert!(
                message.contains("max-cells exceeded") && message.contains("1024-cell budget"),
                "'{query}': {message}"
            ),
            Response::Ok(payload) => panic!("'{query}' over budget was served: {payload}"),
        }
    }

    // The rejection is per-request: the same connection keeps serving.
    assert_eq!(client.request_ok("ping").expect("ping"), "pong\n");
    let again = client.request_ok("map side=20").expect("map after rejects");
    assert_eq!(again, within, "served bytes changed after budget rejects");
}

/// The prover's `nodes` counter from a daemon's `hier:` stats line.
fn prover_nodes(client: &mut Client) -> u64 {
    let stats = client.request_ok("stats").expect("stats");
    let line = stats
        .lines()
        .find(|l| l.starts_with("hier: "))
        .unwrap_or_else(|| panic!("no 'hier:' line in:\n{stats}"));
    let mut tokens = line.split_whitespace().skip_while(|t| *t != "nodes");
    tokens
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no node count in: {line}"))
}

#[test]
fn hier_daemon_repairs_its_warm_sweeps_after_a_move() {
    let exact = Server::start(config_with(false, 0)).expect("exact daemon");
    let hier = Server::start(config_with(true, 0)).expect("hier daemon");
    let mut exact_client = connect(&exact);
    let mut hier_client = connect(&hier);
    let reads = [
        "check",
        "holes grid=16",
        "mask grid=20 lo=0 hi=400",
        "barrier grid=16",
        "map side=24",
        "cells side=20 lo=37 hi=311",
        "kfull k=2 grid=16",
        "kcount k=1 grid=18 lo=5 hi=200",
        // At 45° this fleet's k answers are all 0; at 180° the move
        // changes them.
        "kfull k=2 grid=16 theta-deg=180",
    ];

    // First reads build the warm states cold — through the prover.
    let mut before = Vec::new();
    for query in reads {
        let want = exact_client.request_ok(query).expect(query);
        let got = hier_client.request_ok(query).expect(query);
        assert_eq!(got, want, "'{query}' bytes differ before the move");
        before.push(want);
    }
    let cold_nodes = prover_nodes(&mut hier_client);
    assert!(cold_nodes > 0, "the cold builds never ran the prover");

    for client in [&mut exact_client, &mut hier_client] {
        let moved = client.request_ok("move id=3 x=0.41 y=0.27").expect("move");
        assert!(moved.starts_with("moved camera 3"), "{moved}");
    }
    // After the move every answer is an incremental repair: the same
    // bytes as the default daemon, and no prover work.
    let mut after = Vec::new();
    for query in reads {
        let want = exact_client.request_ok(query).expect(query);
        let got = hier_client.request_ok(query).expect(query);
        assert_eq!(got, want, "'{query}' bytes differ after the move");
        after.push(want);
    }
    assert_ne!(
        before.last(),
        after.last(),
        "the move must change the 180° count, or a stale state would pass"
    );
    assert_eq!(
        prover_nodes(&mut hier_client),
        cold_nodes,
        "a repair re-ran the prover"
    );
}
