//! Coordinator scatter-gather latency vs a single daemon for the same
//! dense-grid query.
//!
//! All daemons run with the result cache disabled (`cache_capacity = 0`)
//! and one evaluation thread each. The fleet never changes, so after the
//! first request every daemon answers from its warm per-grid flags state:
//! each iteration times the round trips and a read of the state's glyph
//! bytes, not a sweep. Every process shares this benchmark host, so what
//! the numbers pin down is the *overhead* the cluster layer adds
//! (chunked scatter, per-shard pipelining, merge) over one daemon's
//! round trip.
//!
//! * `map_single` — one daemon, one `map side=48` round-trip.
//! * `cells_half_range` — the same daemon, a `cells` read of half the
//!   grid's index range.
//! * `map_cluster/N` — N daemons behind a coordinator answering the
//!   identical query; answers are asserted byte-identical to the single
//!   daemon's before timing starts.
//!
//! Committed medians live in `BENCH_sweep.json`.

use criterion::Criterion;
use fullview_cluster::{ClusterConfig, Coordinator};
use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Server, ServiceConfig};
use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Duration;

const FLEET: usize = 400;
const QUERY: &str = "map side=48";

fn bench_profile() -> NetworkProfile {
    NetworkProfile::builder()
        .group(SensorSpec::new(0.08, PI / 2.0).expect("valid spec"), 0.7)
        .group(SensorSpec::new(0.12, PI / 3.0).expect("valid spec"), 0.3)
        .build()
        .expect("fractions sum to 1")
}

fn start_daemon() -> Server {
    let mut config = ServiceConfig::new(bench_profile());
    config.n = FLEET;
    config.cache_capacity = 0;
    config.workers = 1;
    Server::start(config).expect("start daemon")
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    client
}

fn bench_cluster(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("cluster_query");
    group.sample_size(10);

    let single = start_daemon();
    let mut single_client = connect(single.local_addr());
    let want = single_client.request_ok(QUERY).expect("reference query");
    group.bench_function("map_single", |b| {
        b.iter(|| black_box(single_client.request_ok(QUERY).expect("single query")));
    });
    group.bench_function("cells_half_range", |b| {
        b.iter(|| {
            black_box(
                single_client
                    .request_ok("cells side=48 lo=0 hi=1152")
                    .expect("half range"),
            )
        });
    });

    for shard_count in [1usize, 2, 4] {
        let shards: Vec<Server> = (0..shard_count).map(|_| start_daemon()).collect();
        let coordinator = Coordinator::start(ClusterConfig::new(
            shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ))
        .expect("start coordinator");
        let mut client = connect(coordinator.local_addr());
        assert_eq!(
            client.request_ok(QUERY).expect("cluster query"),
            want,
            "cluster must serve the single daemon's bytes"
        );
        group.bench_function(format!("map_cluster/{shard_count}"), |b| {
            b.iter(|| black_box(client.request_ok(QUERY).expect("cluster query")));
        });
    }

    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_cluster(&mut criterion);
    criterion.final_summary();
}
