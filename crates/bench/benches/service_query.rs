//! Cached vs uncached query latency through the full service stack:
//! TCP round-trip, protocol framing, job queue, and (on the cached path)
//! the content-addressed result cache.
//!
//! Two daemons are measured with the identical fleet and query:
//!
//! * `map_cached` — default cache; after one warming request every
//!   iteration is a cache hit, so the timing is the floor the service
//!   adds on top of a memoized answer (wire + dispatch + lookup).
//! * `map_uncached` — `cache_capacity = 0` disables the result cache, so
//!   every iteration runs the job queue and renders the map again. The
//!   fleet never changes, so the render reads the glyph bytes of the
//!   daemon's warm flags state for the grid (built by the first request):
//!   the timing is the queue round trip plus a warm read, not a sweep.
//!
//! The gap between the two is what the result cache saves on top of the
//! warm state; the committed medians live in `BENCH_sweep.json`.

use criterion::Criterion;
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

fn start(cache_capacity: usize) -> (Server, Client) {
    let mut config = ServiceConfig::new(bench_profile());
    config.n = FLEET;
    config.cache_capacity = cache_capacity;
    let server = Server::start(config).expect("start daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    (server, client)
}

fn bench_service(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("service_query");
    group.sample_size(10);

    let (cached_server, mut cached) = start(128);
    let warm = cached.request_ok(QUERY).expect("warming query");
    group.bench_function("map_cached", |b| {
        b.iter(|| black_box(cached.request_ok(QUERY).expect("cached query")));
    });
    // The cached path must be serving the warmed bytes, not recomputing.
    assert_eq!(cached.request_ok(QUERY).expect("recheck"), warm);
    let stats = cached.request_ok("stats").expect("stats");
    assert!(stats.contains("hits="), "{stats}");
    drop(cached_server);

    let (uncached_server, mut uncached) = start(0);
    assert_eq!(
        uncached.request_ok(QUERY).expect("uncached query"),
        warm,
        "cached and uncached daemons must serve identical bytes"
    );
    group.bench_function("map_uncached", |b| {
        b.iter(|| black_box(uncached.request_ok(QUERY).expect("uncached query")));
    });
    drop(uncached_server);

    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_service(&mut criterion);
    criterion.final_summary();
}
