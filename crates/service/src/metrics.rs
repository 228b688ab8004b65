//! Live service metrics: per-endpoint request counts and a fixed-bucket
//! latency histogram (reusing [`fullview_sim::Histogram`]) from which
//! the `stats` endpoint reports p50/p99 service latencies.
//!
//! Recording is *sharded*: each connection-handler thread hashes to one
//! of a fixed set of stripes, each with its own lock, so concurrent
//! handlers never serialize on a single metrics mutex. `snapshot` merges
//! the stripes (histograms via [`Histogram::merge`], which is
//! sample-exact) — every recorded request appears in the snapshot
//! exactly once, the invariant the 4-client hammer e2e test pins.

use fullview_sim::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Latency histogram shape: 0‥10 s in 5 ms buckets. Requests longer than
/// the range clamp into the last bucket (mass is never lost), shorter
/// ones than a bucket report the bucket midpoint — ample resolution for
/// distinguishing cached (sub-millisecond) from computed (tens of
/// milliseconds and up) service times.
const LATENCY_MAX_MS: f64 = 10_000.0;
const LATENCY_BUCKETS: usize = 2_000;

/// Lock stripes for concurrent recording. A small power of two: enough
/// that a handful of handler threads rarely collide, cheap to merge.
const STRIPES: usize = 8;

#[derive(Debug)]
struct Stripe {
    counts: Vec<u64>,
    latency: Histogram,
}

impl Stripe {
    fn new(endpoints: usize) -> Self {
        Stripe {
            counts: vec![0; endpoints],
            latency: Histogram::new(0.0, LATENCY_MAX_MS, LATENCY_BUCKETS),
        }
    }
}

/// Shared, internally-synchronized metrics sink.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// The counted endpoints, in reporting order.
    endpoints: Vec<&'static str>,
    stripes: Vec<Mutex<Stripe>>,
    rejected: AtomicU64,
    busy: AtomicU64,
}

/// A point-in-time snapshot for rendering `stats`.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// `(endpoint, requests)` in the sink's endpoint order.
    pub counts: Vec<(&'static str, u64)>,
    /// Requests rejected before dispatch (unknown verb, parse error,
    /// queue full).
    pub rejected: u64,
    /// Requests shed by admission control with a `busy` frame.
    pub busy: u64,
    /// Total accepted requests.
    pub total: u64,
    /// Median service latency in milliseconds (`None` before the first
    /// sample).
    pub p50_ms: Option<f64>,
    /// 99th-percentile service latency in milliseconds.
    pub p99_ms: Option<f64>,
    /// Latency samples recorded.
    pub samples: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The stripe the current thread records into.
fn stripe_of() -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    (hasher.finish() as usize) % STRIPES
}

impl Metrics {
    /// A fresh sink with zeroed counters for every verb the daemon serves
    /// ([`crate::verbs::VERBS`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_endpoints(crate::verbs::names(crate::verbs::Front::Daemon).collect())
    }

    /// A fresh sink counting `endpoints`, in that reporting order — for a
    /// front end serving verbs beyond the daemon's.
    #[must_use]
    pub fn with_endpoints(endpoints: Vec<&'static str>) -> Self {
        Metrics {
            started: Instant::now(),
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::new(endpoints.len())))
                .collect(),
            endpoints,
            rejected: AtomicU64::new(0),
            busy: AtomicU64::new(0),
        }
    }

    /// Records one serviced request: which endpoint and how long it took
    /// end-to-end (parse to response ready).
    pub fn record(&self, endpoint: &str, latency_ms: f64) {
        let mut stripe = self.stripes[stripe_of()].lock().expect("metrics lock");
        if let Some(i) = self.endpoints.iter().position(|e| *e == endpoint) {
            stripe.counts[i] += 1;
        }
        // Guard against non-finite timings rather than panicking the
        // histogram: a clamped sample is better than a dead server.
        if latency_ms.is_finite() {
            stripe.latency.record(latency_ms.max(0.0));
        }
    }

    /// Records a request rejected before reaching an endpoint.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed by admission control (`busy` frame).
    pub fn record_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots every counter and the latency quantiles, merging the
    /// recording stripes sample-exactly.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counts = vec![0u64; self.endpoints.len()];
        let mut latency = Histogram::new(0.0, LATENCY_MAX_MS, LATENCY_BUCKETS);
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("metrics lock");
            for (sum, c) in counts.iter_mut().zip(&stripe.counts) {
                *sum += c;
            }
            latency.merge(&stripe.latency);
        }
        let counts: Vec<(&'static str, u64)> = self.endpoints.iter().copied().zip(counts).collect();
        MetricsSnapshot {
            uptime_s: self.started.elapsed().as_secs_f64(),
            total: counts.iter().map(|(_, c)| c).sum(),
            rejected: self.rejected.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            p50_ms: latency.quantile(0.5),
            p99_ms: latency.quantile(0.99),
            samples: latency.total(),
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_per_endpoint_and_total() {
        let m = Metrics::new();
        m.record("map", 1.0);
        m.record("map", 2.0);
        m.record("prob", 0.1);
        m.record("nonsense", 0.1); // ignored endpoint, still timed
        m.record_rejected();
        m.record_busy();
        let snap = m.snapshot();
        let get = |name| snap.counts.iter().find(|(e, _)| *e == name).unwrap().1;
        assert_eq!(get("map"), 2);
        assert_eq!(get("prob"), 1);
        assert_eq!(get("check"), 0);
        assert_eq!(snap.total, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.samples, 4);
    }

    #[test]
    fn quantiles_reflect_recorded_latencies() {
        let m = Metrics::new();
        assert!(m.snapshot().p50_ms.is_none(), "no samples yet");
        for _ in 0..98 {
            m.record("check", 10.0);
        }
        m.record("check", 400.0);
        m.record("check", 500.0);
        let snap = m.snapshot();
        let p50 = snap.p50_ms.unwrap();
        let p99 = snap.p99_ms.unwrap();
        assert!((p50 - 10.0).abs() < 5.0, "p50 {p50}");
        assert!(p99 >= 395.0, "p99 {p99}");
        assert!(snap.uptime_s >= 0.0);
    }

    #[test]
    fn hostile_latencies_do_not_panic() {
        let m = Metrics::new();
        m.record("check", f64::NAN);
        m.record("check", -5.0);
        m.record("check", 1e12); // clamps into the top bucket
        let snap = m.snapshot();
        assert_eq!(snap.samples, 2);
        assert!(snap.p99_ms.unwrap() <= LATENCY_MAX_MS);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Many threads hammer the sink at once; the merged snapshot must
        // account for every single record — no lost updates across
        // stripes, no double counting.
        let m = Arc::new(Metrics::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        m.record("check", (t * 500 + i) as f64 * 0.01);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let snap = m.snapshot();
        let check = snap.counts.iter().find(|(e, _)| *e == "check").unwrap().1;
        assert_eq!(check, 8 * 500, "every record counted exactly once");
        assert_eq!(snap.samples, 8 * 500);
        assert!(snap.p50_ms.unwrap() <= snap.p99_ms.unwrap(), "monotone");
    }
}
