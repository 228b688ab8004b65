//! The benchmark's workloads and metrics — the single list that
//! `BENCHMARK.json` is rendered from (a test keeps the two identical).
//!
//! Every workload reports every metric: `BENCHMARK.json` cannot scope a
//! metric to a workload, and regressions are judged per (workload,
//! metric) pair. End-to-end metrics are therefore defined so that each
//! workload measures them on its own path; a per-layer metric whose layer
//! is not on a workload's path reads 0 there.

/// The benchmark command; the workload arguments are appended to it.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "paperbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: &[&str] = &["paperbench"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 30;

/// A workload: name and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// `--workload` value.
    pub name: &'static str,
    /// One line: what it exercises that the others do not.
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_check",
        why: "batch dense-grid check at Theorem 2's CSA: mask screen decides every point, hier proves 95%, the 4x map is hier's win",
    },
    Workload {
        name: "serve_churn",
        why: "warm daemon below Theorem 1's CSA: move then check/holes/map; 29% of points reach the exact analyzer",
    },
    Workload {
        name: "cluster_scatter",
        why: "the churn fleet on two shards behind a coordinator: broadcast, scatter, per-shard legs and merge",
    },
];

/// An end-to-end metric: what a user of the system waits for.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics (all lower-is-better), measured untraced.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "check_s",
        unit: "s",
        bound: 0.24,
    },
    EndToEnd {
        name: "refresh_p50_ms",
        unit: "ms",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.1,
    },
];

/// A per-layer metric, measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// What the value is per, or the ratio's base.
    pub base: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    base: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        base,
        moves,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    base: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
        base,
        moves,
    }
}

/// The per-layer metrics, grouped by the workload that measures them.
pub const LAYERS: &[Layer] = &[
    // paper_check
    lower(
        "deploy.fleet_ms",
        "ms",
        "per fleet, incl. spatial index",
        "setup_s@paper_check (flat)",
    ),
    lower(
        "core.mask.ns_per_point",
        "ns",
        "per dense-grid point",
        "check_s@paper_check",
    ),
    higher(
        "core.mask.screen_rate",
        "ratio",
        "screened / (screened + exact)",
        "check_s@paper_check, refresh_p50_ms@serve_churn",
    ),
    lower(
        "core.exact.ns_per_point",
        "ns",
        "per point of a fixed tile block",
        "none: the exact baseline",
    ),
    lower(
        "hier.check.ns_per_point",
        "ns",
        "per dense-grid point",
        "refresh_p50_ms@paper_check",
    ),
    higher(
        "hier.check.proved_fraction",
        "ratio",
        "points proved / points",
        "refresh_p50_ms@paper_check",
    ),
    lower(
        "hier.check.nodes",
        "count",
        "per dense check",
        "refresh_p50_ms@paper_check",
    ),
    lower(
        "hier.check.visited_points",
        "count",
        "per dense check",
        "refresh_p50_ms@paper_check",
    ),
    lower(
        "hier.map.ns_per_point",
        "ns",
        "per point of the 4x map",
        "refresh_p50_ms@paper_check",
    ),
    higher(
        "hier.map.proved_fraction",
        "ratio",
        "points proved / points",
        "refresh_p50_ms@paper_check",
    ),
    lower(
        "hier.map.nodes",
        "count",
        "per 4x map",
        "refresh_p50_ms@paper_check",
    ),
    lower(
        "hier.map.visited_points",
        "count",
        "per 4x map",
        "refresh_p50_ms@paper_check",
    ),
    higher(
        "sim.threads2_speedup",
        "ratio",
        "1-thread / 2-thread wall, 0 on one CPU",
        "none: scaling record",
    ),
    // serve_churn (the cluster mirror measures the core/model rows too)
    lower(
        "core.incremental.cold_ms",
        "ms",
        "per cold dense build",
        "setup_s@serve_churn",
    ),
    lower(
        "core.incremental.repair_ms",
        "ms",
        "per move, dense grid",
        "refresh_p50_ms@serve_churn, check_s@serve_churn",
    ),
    lower(
        "core.incremental.repair_share",
        "ratio",
        "points resweeped / grid points",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "core.render.map_ms",
        "ms",
        "per cold map render",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "core.holes_ms",
        "ms",
        "per holes answer (repair, holes, text)",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "model.move_us",
        "us",
        "per move incl. fingerprint",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "service.move_ms",
        "ms",
        "round trip",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "service.check_ms",
        "ms",
        "round trip",
        "check_s@serve_churn",
    ),
    lower(
        "service.holes_ms",
        "ms",
        "round trip",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "service.map_ms",
        "ms",
        "round trip",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "service.overhead_ms",
        "ms",
        "per round: round trips - library compute",
        "refresh_p50_ms@serve_churn",
    ),
    lower(
        "service.hit_us",
        "us",
        "round trip of a cache hit",
        "none: per-request overhead",
    ),
    higher(
        "service.cache_hit_rate",
        "ratio",
        "stats hits / lookups",
        "refresh_p50_ms@serve_churn",
    ),
    // cluster_scatter
    lower(
        "cluster.move_ms",
        "ms",
        "coordinator round trip",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.check_ms",
        "ms",
        "coordinator round trip",
        "check_s@cluster_scatter",
    ),
    lower(
        "cluster.holes_ms",
        "ms",
        "coordinator round trip",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.map_ms",
        "ms",
        "coordinator round trip",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.kfull_ms",
        "ms",
        "coordinator round trip",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.leg_ms",
        "ms",
        "slowest chunk of a scatter, replayed",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.overhead_ms",
        "ms",
        "scattered round trip - slowest leg",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.merge_ms",
        "ms",
        "per round, three merges",
        "refresh_p50_ms@cluster_scatter",
    ),
    higher(
        "cluster.served_balance",
        "ratio",
        "min / max reads served per shard",
        "refresh_p50_ms@cluster_scatter",
    ),
    lower(
        "cluster.shard_failures",
        "count",
        "consecutive breaker failures at run end",
        "refresh_p50_ms@cluster_scatter",
    ),
];

/// Renders `BENCHMARK.json` from the lists above.
#[must_use]
pub fn manifest_json() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let layers = LAYERS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n",
        list(COMMAND),
        list(PATHS)
    )
}
