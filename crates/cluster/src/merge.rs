//! Deterministic merging of per-shard answers and stats.
//!
//! Gathered query payloads are checked here and rendered by
//! `fullview-core` (glyph/mask concatenation and count summation feed
//! `core::render`, so merged bytes equal a single daemon's); the rest is
//! the cluster-specific pieces: parsing a daemon's `stats` text back into
//! numbers and aggregating them cluster-wide.

use fullview_core::{
    coverage_map_from_glyphs, hole_report_text, holes_from_mask, kfull_text, MAP_GLYPHS,
};
use fullview_geom::Torus;
use fullview_service::verbs::Merge;
use std::collections::BTreeMap;

/// Merges the answers a scattered grid query gathered, in chunk order,
/// into the bytes a single daemon renders for a `side × side` grid (`k`
/// is `kfull`'s threshold). A buffer a shard got wrong is a named err,
/// never a panic in a renderer's assertion: the glyphs must be `side²`
/// of the five map glyphs, the mask `side²` cells of `0` or `1`, each
/// count an integer. Only the mask merge asks `torus_side` for the
/// fleet's torus.
///
/// # Errors
///
/// A gathered buffer of the wrong length or with a foreign byte, an
/// unparseable count, or `torus_side`'s own err.
pub fn merge_scattered(
    merge: Merge,
    side: usize,
    k: usize,
    parts: &[String],
    torus_side: impl FnOnce() -> Result<f64, String>,
) -> Result<String, String> {
    let total = side * side;
    let gathered = |what: &str, allowed: &[u8]| {
        let buf = parts.concat();
        if buf.len() != total {
            return Err(format!(
                "gathered {what} holds {} cells, want {total}",
                buf.len()
            ));
        }
        match buf.bytes().find(|b| !allowed.contains(b)) {
            Some(bad) => Err(format!("gathered {what} holds a foreign byte 0x{bad:02x}")),
            None => Ok(buf),
        }
    };
    match merge {
        Merge::Glyphs => Ok(coverage_map_from_glyphs(
            side,
            &gathered("glyphs", &MAP_GLYPHS)?,
        )),
        Merge::Mask => {
            let covered: Vec<bool> = gathered("mask", b"01")?
                .bytes()
                .map(|b| b == b'1')
                .collect();
            let report = holes_from_mask(Torus::with_side(torus_side()?), side, &covered);
            Ok(hole_report_text(&report))
        }
        Merge::Counts => {
            let mut meeting = 0usize;
            for payload in parts {
                meeting += payload
                    .trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad kcount payload {payload:?}: {e}"))?;
            }
            Ok(kfull_text(k, side, meeting, total))
        }
    }
}

/// The numeric fields of one daemon's `stats` answer that aggregate
/// meaningfully across a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Deployed cameras on the shard (replicas: identical across shards).
    pub cameras: u64,
    /// Total accepted requests.
    pub total_requests: u64,
    /// Requests rejected before dispatch.
    pub rejected: u64,
    /// Jobs waiting in the shard's bounded queue.
    pub queue_depth: u64,
    /// The shard's queue bound.
    pub queue_capacity: u64,
    /// Live result-cache entries.
    pub cache_entries: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
}

/// Parses the `key=value` tokens of one stats line (everything after the
/// `<section>:` prefix) into a map. Unparseable tokens are skipped —
/// fields like `hit_rate=0.4167` are recomputed cluster-side anyway.
fn kv_u64(rest: &str) -> BTreeMap<&str, u64> {
    rest.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k, v.parse().ok()?))
        })
        .collect()
}

/// Parses a daemon's `stats` payload into the aggregatable numbers.
///
/// # Errors
///
/// A message naming the first missing section — a daemon that answers
/// `stats` without them is not a `fullview-service`.
pub fn parse_shard_stats(text: &str) -> Result<ShardStats, String> {
    let section = |prefix: &str| -> Result<BTreeMap<&str, u64>, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(kv_u64)
            .ok_or_else(|| format!("stats payload has no '{prefix}' line"))
    };
    let service = section("service: ")?;
    let requests = section("requests: ")?;
    let queue = section("queue: ")?;
    let cache = section("cache: ")?;
    let field = |map: &BTreeMap<&str, u64>, key: &str| map.get(key).copied().unwrap_or(0);
    Ok(ShardStats {
        cameras: field(&service, "cameras"),
        total_requests: field(&requests, "total"),
        rejected: field(&requests, "rejected"),
        queue_depth: field(&queue, "depth"),
        queue_capacity: field(&queue, "capacity"),
        cache_entries: field(&cache, "entries"),
        cache_hits: field(&cache, "hits"),
        cache_misses: field(&cache, "misses"),
    })
}

/// Cluster-wide aggregation of per-shard stats: counts and depths sum,
/// the hit rate is recomputed from the pooled hit/miss counts (averaging
/// per-shard rates would weight idle shards equally with busy ones).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggregateStats {
    /// Shards that answered `stats`.
    pub shards_reporting: usize,
    /// Cameras on one replica (they all hold the same fleet; `max` is
    /// reported so a resyncing shard cannot understate the fleet).
    pub cameras: u64,
    /// Summed accepted requests.
    pub total_requests: u64,
    /// Summed rejections.
    pub rejected: u64,
    /// Summed queue depths.
    pub queue_depth: u64,
    /// Summed queue capacities.
    pub queue_capacity: u64,
    /// Summed live cache entries.
    pub cache_entries: u64,
    /// Pooled cache hits.
    pub cache_hits: u64,
    /// Pooled cache misses.
    pub cache_misses: u64,
}

impl AggregateStats {
    /// Pooled cache hit rate (0 when no lookups happened anywhere).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Folds per-shard stats into the cluster-wide view.
#[must_use]
pub fn aggregate(stats: &[ShardStats]) -> AggregateStats {
    let mut agg = AggregateStats {
        shards_reporting: stats.len(),
        ..AggregateStats::default()
    };
    for s in stats {
        agg.cameras = agg.cameras.max(s.cameras);
        agg.total_requests += s.total_requests;
        agg.rejected += s.rejected;
        agg.queue_depth += s.queue_depth;
        agg.queue_capacity += s.queue_capacity;
        agg.cache_entries += s.cache_entries;
        agg.cache_hits += s.cache_hits;
        agg.cache_misses += s.cache_misses;
    }
    agg
}

/// Splits `0..total` into `chunks` contiguous near-equal ranges (first
/// `total % chunks` ranges one longer), dropping empty ones — the
/// deterministic scatter decomposition shared by every ranged query.
/// Concatenating the ranges in order reproduces `0..total` exactly, so
/// merged answers cannot depend on how many shards served them.
#[must_use]
pub fn chunk_ranges(total: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks.min(total));
    let mut lo = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "service: uptime_s=12.3 cameras=400 profile_groups=2\n\
        requests: check=1 map=2 prob=3 total=6 rejected=1\n\
        queue: depth=2 capacity=64 workers=2\n\
        cache: entries=3 capacity=128 hits=5 misses=7 hit_rate=0.4167 evictions=0 invalidated=0\n\
        latency_ms: p50=1.000 p99=2.000 samples=6\n";

    #[test]
    fn parses_the_daemon_stats_shape() {
        let s = parse_shard_stats(SAMPLE).unwrap();
        assert_eq!(s.cameras, 400);
        assert_eq!(s.total_requests, 6);
        assert_eq!(s.rejected, 1);
        assert_eq!((s.queue_depth, s.queue_capacity), (2, 64));
        assert_eq!((s.cache_entries, s.cache_hits, s.cache_misses), (3, 5, 7));
    }

    #[test]
    fn missing_sections_are_named() {
        let err = parse_shard_stats("service: cameras=1\n").unwrap_err();
        assert!(err.contains("requests"), "{err}");
    }

    #[test]
    fn aggregation_pools_hits_not_rates() {
        let a = ShardStats {
            cache_hits: 99,
            cache_misses: 1,
            ..ShardStats::default()
        };
        let b = ShardStats {
            cache_hits: 0,
            cache_misses: 100,
            ..ShardStats::default()
        };
        let agg = aggregate(&[a, b]);
        assert_eq!(agg.shards_reporting, 2);
        // Pooled: 99/200, not the 0.745 a per-shard average would give.
        assert!((agg.cache_hit_rate() - 0.495).abs() < 1e-12);
    }

    fn merge(merge: Merge, side: usize, parts: &[&str]) -> Result<String, String> {
        let parts: Vec<String> = parts.iter().map(|p| (*p).to_string()).collect();
        merge_scattered(merge, side, 2, &parts, || Ok(1.0))
    }

    #[test]
    fn well_formed_parts_merge_into_the_daemon_renderings() {
        assert_eq!(
            merge(Merge::Glyphs, 2, &["#F", "n "]),
            Ok(coverage_map_from_glyphs(2, "#Fn "))
        );
        let covered = [true, false, false, true];
        let holes = holes_from_mask(Torus::unit(), 2, covered);
        assert_eq!(
            merge(Merge::Mask, 2, &["10", "01"]),
            Ok(hole_report_text(&holes))
        );
        assert_eq!(
            merge(Merge::Counts, 2, &["1\n", "2\n"]),
            Ok(kfull_text(2, 2, 3, 4))
        );
    }

    #[test]
    fn malformed_parts_are_named_errs_not_panics() {
        let short = merge(Merge::Glyphs, 2, &["#F", "n"]).unwrap_err();
        assert!(short.contains("3 cells, want 4"), "{short}");
        let foreign = merge(Merge::Glyphs, 2, &["#F", "nx"]).unwrap_err();
        assert!(foreign.contains("foreign byte 0x78"), "{foreign}");
        let wide = merge(Merge::Glyphs, 2, &["é", ".."]).unwrap_err();
        assert!(wide.contains("foreign byte"), "{wide}");
        let two = merge(Merge::Mask, 2, &["10", "21"]).unwrap_err();
        assert!(two.contains("foreign byte 0x32"), "{two}");
        let long = merge(Merge::Mask, 2, &["10", "011"]).unwrap_err();
        assert!(long.contains("5 cells, want 4"), "{long}");
        let count = merge(Merge::Counts, 2, &["1", "x"]).unwrap_err();
        assert!(count.contains("bad kcount payload"), "{count}");
    }

    #[test]
    fn chunks_partition_exactly() {
        for total in [0usize, 1, 7, 100, 576] {
            for chunks in [1usize, 2, 3, 5, 8, 600] {
                let ranges = chunk_ranges(total, chunks);
                let mut expect = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect, "contiguous");
                    assert!(hi > lo, "non-empty");
                    expect = hi;
                }
                assert_eq!(expect, total, "covers 0..{total} with {chunks} chunks");
                let sizes: Vec<usize> = ranges.iter().map(|(l, h)| h - l).collect();
                if let (Some(max), Some(min)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(max - min <= 1, "balanced: {sizes:?}");
                }
            }
        }
    }
}
