//! The verb table: every verb the daemon and the cluster coordinator
//! serve, declared once, and the one validator both front ends run on
//! every request.
//!
//! A row holds a verb's accepted keys, its admission gate, its extent
//! key and whether it is ranged, what the daemon runs for it and how the
//! coordinator routes it. The `stats` request counters, the admission
//! gate, the unknown-verb hints, the daemon's dispatch, the coordinator's
//! routing and `fvc query --deadline-ms` all read this table, so none of
//! them can drift from another.

use crate::admission::ANON_CLIENT;
use crate::protocol::Request;
use crate::wal::WalOp;
use fullview_core::EffectiveAngle;
use std::fmt;
use std::time::{Duration, Instant};

/// The finest θ partition a request may ask for: the sufficient
/// partition's `⌈2π/θ⌉` sectors (θ below ≈ 0.088°) must not exceed this.
/// It is 128× the finest partition any experiment, test or benchmark
/// uses (θ = π/16, 32 sectors; Fig. 7 spans 0.1π–0.5π), and at this
/// bound both §III and §IV partitions allocate under 100 KiB. Without it
/// `theta-deg=0.0000001` asks for 28.8 GB of sectors and aborts the
/// process.
pub const MAX_THETA_SECTORS: usize = 4096;

/// Which front end is serving: the verb sets differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// A `fullview-service` daemon.
    Daemon,
    /// A `fullview-cluster` coordinator.
    Coordinator,
}

/// A cached dense-grid or theory query, computed on a daemon worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Full-view fraction over the fleet's dense grid (§III-A).
    Check,
    /// Coverage-map rendering of a `side × side` grid.
    Map,
    /// Coverage holes of a `grid × grid` mask.
    Holes,
    /// k-full-view coverage count over a grid.
    Kfull,
    /// Theorems 3–4 probabilities (profile only, no fleet).
    Prob,
    /// Raw coverage-map glyphs of a grid-index range — the coordinator's
    /// scatter unit for `map`.
    Cells,
    /// Full-view mask (`'1'`/`'0'` per cell) of a grid-index range — the
    /// scatter unit for `holes`.
    Mask,
    /// Count of k-full-view-covered points in a grid-index range — the
    /// scatter unit for `kfull`.
    Kcount,
    /// §VIII barrier full-view coverage across the grid.
    Barrier,
}

/// A fleet mutation, journaled as one [`WalOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `fail id=…`
    Fail,
    /// `move id=… x=… y=…`
    Move,
    /// `reseed seed=… [n=…]`
    Reseed,
}

impl Mutation {
    /// The journal op this mutation's parameters ask for; `reseed`
    /// without `n=` redeploys `fleet_n` cameras.
    #[must_use]
    pub(crate) fn op(self, params: &Params, fleet_n: usize) -> WalOp {
        match self {
            Mutation::Fail => WalOp::Fail { id: params.id },
            Mutation::Move => WalOp::Move {
                id: params.id,
                x: params.x,
                y: params.y,
            },
            Mutation::Reseed => WalOp::Reseed {
                seed: params.seed,
                n: params.n.unwrap_or(fleet_n),
            },
        }
    }
}

/// What the daemon runs for a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A cached query.
    Query(Query),
    /// A journaled fleet mutation.
    Mutation(Mutation),
    /// The `stats` report.
    Stats,
    /// The fleet's canonical identity.
    Fingerprint,
    /// Persist the fleet (`path=`, or the journal's base).
    Snapshot,
    /// Adopt a snapshotted fleet.
    Restore,
    /// Subscribe the connection to delta frames.
    Watch,
    /// Name the connection's client for admission control.
    Hello,
    /// Liveness probe.
    Ping,
    /// Drain and stop.
    Shutdown,
    /// The coordinator's per-shard report (coordinator only).
    Shards,
}

/// The key that sizes a verb's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// `side=N` (default 48): a `side × side` map.
    Side,
    /// `grid=N` (default 24): a `grid × grid` sweep.
    Grid,
}

impl Extent {
    /// The size an absent key stands for.
    #[must_use]
    pub fn default_size(self) -> usize {
        match self {
            Extent::Side => 48,
            Extent::Grid => 24,
        }
    }
}

/// How a coordinator's partial answers combine into the daemon's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Concatenated glyphs → `coverage_map_from_glyphs`.
    Glyphs,
    /// Concatenated mask → `holes_from_mask` + `hole_report_text`.
    Mask,
    /// Summed counts → `kfull_text`.
    Counts,
}

/// How the cluster coordinator serves a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The coordinator does not serve it.
    DaemonOnly,
    /// Cut the grid into index ranges, send each as the `unit` verb to a
    /// shard, and merge the answers.
    Scatter {
        /// The ranged daemon verb that serves one chunk.
        unit: &'static str,
        /// How the chunk answers combine.
        merge: Merge,
    },
    /// Send the whole request to one replica.
    Forward,
    /// Apply on every live shard, first shard first.
    Broadcast,
    /// Answer at the coordinator.
    Local,
    /// Relay a subscription from one shard.
    Relay,
}

/// One verb: everything a front end needs to validate, gate, run and
/// route it.
#[derive(Debug, Clone, Copy)]
pub struct Verb {
    /// The request's first token.
    pub name: &'static str,
    /// What the daemon runs.
    pub kind: Kind,
    /// Accepted keys, in the order the allowlist error names them.
    /// Absent keys take [`Params::DEFAULT`] (the extent key
    /// [`Extent::default_size`]); `theta-deg` and `reseed`'s `n` fall
    /// back to the daemon's configuration, `snapshot`'s `path` to its
    /// journal base, and a ranged `hi` to the end of the grid.
    pub keys: &'static [&'static str],
    /// Keys the request must carry.
    pub required: &'static [&'static str],
    /// Whether the verb consumes worker or mutation capacity and so
    /// passes admission control. Administrative verbs and the
    /// coordinator's resync verbs are never shed — a throttled client
    /// must still be able to observe its own throttling.
    pub gated: bool,
    /// The key sizing the verb's grid, if it has one.
    pub extent: Option<Extent>,
    /// Whether the verb takes a `lo`/`hi` grid-index range.
    pub ranged: bool,
    /// How the coordinator serves it.
    pub route: Route,
}

impl Verb {
    /// Whether `front` serves this verb.
    #[must_use]
    pub fn served_by(&self, front: Front) -> bool {
        match front {
            Front::Daemon => self.kind != Kind::Shards,
            Front::Coordinator => self.route != Route::DaemonOnly,
        }
    }
}

/// A gated query row, forwarded whole by the coordinator.
const fn query(name: &'static str, query: Query, keys: &'static [&'static str]) -> Verb {
    Verb {
        name,
        kind: Kind::Query(query),
        keys,
        required: &[],
        gated: true,
        extent: None,
        ranged: false,
        route: Route::Forward,
    }
}

/// An ungated row the coordinator answers itself.
const fn admin(name: &'static str, kind: Kind, keys: &'static [&'static str]) -> Verb {
    Verb {
        kind,
        gated: false,
        route: Route::Local,
        ..query(name, Query::Check, keys)
    }
}

/// A gated mutation row, broadcast by the coordinator.
const fn mutation(name: &'static str, m: Mutation, keys: &'static [&'static str]) -> Verb {
    Verb {
        kind: Kind::Mutation(m),
        route: Route::Broadcast,
        ..query(name, Query::Check, keys)
    }
}

impl Verb {
    const fn sized(self, extent: Extent) -> Verb {
        Verb {
            extent: Some(extent),
            ..self
        }
    }

    /// A ranged scatter unit, served by daemons only.
    const fn unit(self) -> Verb {
        Verb {
            ranged: true,
            route: Route::DaemonOnly,
            ..self
        }
    }

    const fn via(self, route: Route) -> Verb {
        Verb { route, ..self }
    }

    const fn requires(self, required: &'static [&'static str]) -> Verb {
        Verb { required, ..self }
    }
}

const fn scatter(unit: &'static str, merge: Merge) -> Route {
    Route::Scatter { unit, merge }
}

/// Every verb, in the order `stats` reports them: the daemon's twenty,
/// then the coordinator's own `shards`. Barrier coverage is a whole-grid
/// sweep with a connectivity pass on top: it does not decompose into
/// index ranges, so it is forwarded rather than scattered.
pub const VERBS: &[Verb] = &[
    query("check", Query::Check, &["theta-deg", "deadline_ms"]),
    query("map", Query::Map, &["theta-deg", "side", "deadline_ms"])
        .sized(Extent::Side)
        .via(scatter("cells", Merge::Glyphs)),
    query("holes", Query::Holes, &["theta-deg", "grid", "deadline_ms"])
        .sized(Extent::Grid)
        .via(scatter("mask", Merge::Mask)),
    query(
        "kfull",
        Query::Kfull,
        &["theta-deg", "k", "grid", "deadline_ms"],
    )
    .sized(Extent::Grid)
    .via(scatter("kcount", Merge::Counts)),
    query(
        "prob",
        Query::Prob,
        &["theta-deg", "density", "deadline_ms"],
    ),
    query(
        "cells",
        Query::Cells,
        &["theta-deg", "side", "lo", "hi", "deadline_ms"],
    )
    .sized(Extent::Side)
    .unit(),
    query(
        "mask",
        Query::Mask,
        &["theta-deg", "grid", "lo", "hi", "deadline_ms"],
    )
    .sized(Extent::Grid)
    .unit(),
    query(
        "kcount",
        Query::Kcount,
        &["theta-deg", "k", "grid", "lo", "hi", "deadline_ms"],
    )
    .sized(Extent::Grid)
    .unit(),
    query(
        "barrier",
        Query::Barrier,
        &["theta-deg", "grid", "deadline_ms"],
    )
    .sized(Extent::Grid),
    admin("stats", Kind::Stats, &[]),
    admin("fingerprint", Kind::Fingerprint, &[]),
    admin("snapshot", Kind::Snapshot, &["path"]).via(Route::DaemonOnly),
    admin("restore", Kind::Restore, &["path"])
        .requires(&["path"])
        .via(Route::DaemonOnly),
    mutation("fail", Mutation::Fail, &["id"]).requires(&["id"]),
    mutation("move", Mutation::Move, &["id", "x", "y"]).requires(&["id", "x", "y"]),
    mutation("reseed", Mutation::Reseed, &["seed", "n"]).requires(&["seed"]),
    admin("watch", Kind::Watch, &["theta-deg", "grid"])
        .sized(Extent::Grid)
        .via(Route::Relay),
    admin("hello", Kind::Hello, &["client"]),
    admin("ping", Kind::Ping, &[]),
    admin("shutdown", Kind::Shutdown, &[]),
    admin("shards", Kind::Shards, &[]),
];

/// The names of the verbs `front` serves, in [`VERBS`] order.
pub fn names(front: Front) -> impl Iterator<Item = &'static str> {
    VERBS
        .iter()
        .filter(move |v| v.served_by(front))
        .map(|v| v.name)
}

/// The row for `name`, whichever front end serves it.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.name == name)
}

/// The error text for a request whose verb `front` does not serve.
#[must_use]
pub fn unknown_verb(front: Front, verb: &str) -> String {
    format!(
        "unknown request '{verb}' (known: {})",
        names(front).collect::<Vec<_>>().join(", ")
    )
}

/// A request's typed parameters, resolved by [`validate`]. Keys the verb
/// does not accept keep their [`Params::DEFAULT`], so two requests that
/// resolve alike compare alike field by field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// `theta-deg=`, validated; `None` takes the daemon's configured θ.
    pub theta: Option<EffectiveAngle>,
    /// `side=` or `grid=`, whichever the verb's [`Extent`] names (`0` for
    /// a verb without one).
    pub extent: usize,
    /// `k=` (default 2).
    pub k: usize,
    /// `density=` (default 800).
    pub density: f64,
    /// `lo=` (default 0).
    pub lo: usize,
    /// `hi=`; a ranged verb without it ends at `extent²`.
    pub hi: usize,
    /// `deadline_ms=`: a latency budget that never changes the answer.
    pub deadline_ms: Option<u64>,
    /// `id=` of a camera.
    pub id: usize,
    /// `x=` of a move target.
    pub x: f64,
    /// `y=` of a move target.
    pub y: f64,
    /// `seed=` of a reseed.
    pub seed: u64,
    /// `n=` of a reseed; `None` keeps the daemon's fleet size.
    pub n: Option<usize>,
}

impl Params {
    /// The value of every absent key.
    pub const DEFAULT: Params = Params {
        theta: None,
        extent: 0,
        k: 2,
        density: 800.0,
        lo: 0,
        hi: usize::MAX,
        deadline_ms: None,
        id: 0,
        x: 0.0,
        y: 0.0,
        seed: 0,
        n: None,
    };

    /// The `deadline_ms=` budget as an absolute instant anchored at
    /// `received`; a budget too large to represent is no deadline.
    #[must_use]
    pub fn deadline(&self, received: Instant) -> Option<Instant> {
        received.checked_add(Duration::from_millis(self.deadline_ms?))
    }

    /// The grid's point count, `extent²`, which [`validate`] has checked
    /// does not overflow.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.extent * self.extent
    }
}

/// The `client=` a `hello` names (the shared anonymous identity when
/// absent).
#[must_use]
pub(crate) fn client_of<'a>(req: &Request<'a>) -> &'a str {
    req.raw("client").unwrap_or(ANON_CLIENT)
}

fn value<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e| format!("bad value for {key}: {e}"))
}

/// The θ rule: a `theta-deg` token parses, lies in (0°, 180°], and its
/// sufficient partition needs at most [`MAX_THETA_SECTORS`] sectors.
///
/// # Errors
///
/// The `err` frame text naming the violation.
pub fn theta_of(raw: &str) -> Result<EffectiveAngle, String> {
    let deg: f64 = value("theta-deg", raw)?;
    let theta = EffectiveAngle::new(deg.to_radians()).map_err(|e| e.to_string())?;
    let sectors = theta.sufficient_sector_count();
    if sectors > MAX_THETA_SECTORS {
        return Err(format!(
            "theta-deg={raw} is too fine: its sufficient partition needs {sectors} sectors, over the {MAX_THETA_SECTORS}-sector limit"
        ));
    }
    Ok(theta)
}

/// The extent rule: a `side`/`grid` is positive, its square does not
/// overflow, and it fits the `max_cells` budget (`0` = no budget).
/// Returns the grid's point count, `side²`.
///
/// # Errors
///
/// The `err` frame text naming the violation.
pub fn extent_cells(side: usize, max_cells: usize) -> Result<usize, String> {
    if side == 0 {
        return Err("side/grid must be positive".to_string());
    }
    // The discretization budget rejects up front, before any grid
    // allocation, with a named frame. An overflowing `side²` is over any
    // finite budget.
    let total = side.checked_mul(side);
    if max_cells > 0 && total.is_none_or(|c| c > max_cells) {
        return Err(format!(
            "max-cells exceeded: {side}×{side} grid is over the {max_cells}-cell budget"
        ));
    }
    total.ok_or_else(|| format!("side/grid {side} is too large: the squared point count overflows"))
}

/// The density rule of `prob`: a camera density is finite and positive.
///
/// # Errors
///
/// The `err` frame text naming the violation.
pub fn check_density(density: f64) -> Result<(), String> {
    if density.is_finite() && density > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "density must be finite and positive, got {density}"
        ))
    }
}

/// Validates one request for `front`: the verb is served there, every
/// key is accepted and parses, required keys are present, θ is in range
/// and no finer than [`MAX_THETA_SECTORS`], the extent is positive, its
/// square does not overflow and fits the `max_cells` budget (`0` = no
/// budget), and a range is non-empty within the grid.
///
/// # Errors
///
/// The `err` frame text naming the first violation.
pub fn validate(
    req: &Request<'_>,
    front: Front,
    max_cells: usize,
) -> Result<(&'static Verb, Params), String> {
    let verb = VERBS
        .iter()
        .find(|v| v.name == req.verb() && v.served_by(front))
        .ok_or_else(|| unknown_verb(front, req.verb()))?;
    req.allow_only(verb.keys)?;
    let mut p = Params {
        extent: verb.extent.map_or(0, Extent::default_size),
        ..Params::DEFAULT
    };
    for &(key, raw) in req.params() {
        match key {
            "theta-deg" => p.theta = Some(theta_of(raw)?),
            "side" | "grid" => p.extent = value(key, raw)?,
            "k" => p.k = value(key, raw)?,
            "density" => p.density = value(key, raw)?,
            "lo" => p.lo = value(key, raw)?,
            "hi" => p.hi = value(key, raw)?,
            "deadline_ms" => p.deadline_ms = Some(value(key, raw)?),
            "id" => p.id = value(key, raw)?,
            "x" => p.x = value(key, raw)?,
            "y" => p.y = value(key, raw)?,
            "seed" => p.seed = value(key, raw)?,
            "n" => p.n = Some(value(key, raw)?),
            _ => {} // text-valued: `path`, `client`
        }
    }
    if let Some(key) = verb.required.iter().find(|k| req.raw(k).is_none()) {
        return Err(format!("missing required parameter '{key}'"));
    }
    check_density(p.density)?;
    if verb.extent.is_none() {
        return Ok((verb, p));
    }
    let total = extent_cells(p.extent, max_cells)?;
    if verb.ranged {
        if p.hi == usize::MAX {
            p.hi = total;
        }
        if p.lo >= p.hi || p.hi > total {
            return Err(format!(
                "range [{}, {}) must be non-empty within the {total}-point grid",
                p.lo, p.hi
            ));
        }
    }
    Ok((verb, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str, front: Front, max_cells: usize) -> Result<Params, String> {
        let req = Request::parse(line).unwrap();
        validate(&req, front, max_cells).map(|(_, p)| p)
    }

    #[test]
    fn names_are_unique_and_the_hint_lists_them_all() {
        let all: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(name), "{name} listed twice");
        }
        let hint = unknown_verb(Front::Daemon, "zap");
        assert!(hint.starts_with("unknown request 'zap' (known: check, map,"));
        assert!(names(Front::Daemon).all(|name| hint.contains(name)));
        assert!(!hint.contains("shards"));
        let gated = |name| lookup(name).is_some_and(|v| v.gated);
        assert!(gated("check") && gated("barrier") && gated("move"));
        assert!(!gated("stats") && !gated("watch") && !gated("zap"));
    }

    #[test]
    fn each_front_end_serves_its_own_verb_set() {
        assert_eq!(names(Front::Daemon).count(), 20);
        let coordinator: Vec<&str> = names(Front::Coordinator).collect();
        assert_eq!(coordinator.len(), 16);
        for daemon_only in ["cells", "mask", "kcount", "snapshot", "restore"] {
            assert!(!coordinator.contains(&daemon_only), "{daemon_only}");
        }
        let err = check("cells side=4", Front::Coordinator, 0).unwrap_err();
        assert!(err.starts_with("unknown request 'cells'"), "{err}");
        let err = check("shards", Front::Daemon, 0).unwrap_err();
        assert!(err.starts_with("unknown request 'shards'"), "{err}");
        // Every scatter unit is a ranged daemon verb over the same extent.
        for verb in VERBS {
            if let Route::Scatter { unit, .. } = verb.route {
                let unit = lookup(unit).expect("unit verb");
                assert!(unit.ranged && unit.extent == verb.extent, "{}", verb.name);
            }
        }
    }

    #[test]
    fn defaults_fill_absent_keys_and_ranges_resolve_to_the_grid() {
        let p = check("map", Front::Daemon, 0).unwrap();
        assert_eq!((p.extent, p.theta, p.deadline_ms), (48, None, None));
        let p = check("kcount grid=10 lo=7", Front::Daemon, 0).unwrap();
        assert_eq!((p.extent, p.k, p.lo, p.hi), (10, 2, 7, 100));
        let p = check("move id=3 x=0.25 y=0.5", Front::Coordinator, 0).unwrap();
        assert_eq!((p.id, p.x, p.y), (3, 0.25, 0.5));
        let p = check("check theta-deg=60 deadline_ms=5", Front::Daemon, 0).unwrap();
        assert!((p.theta.unwrap().radians() - 60f64.to_radians()).abs() < 1e-15);
        assert_eq!(p.deadline_ms, Some(5));
        let anchor = Instant::now();
        assert_eq!(p.deadline(anchor), Some(anchor + Duration::from_millis(5)));
        // `reseed` without `n=` keeps the daemon's fleet size.
        let p = check("reseed seed=9", Front::Daemon, 0).unwrap();
        assert_eq!(
            Mutation::Reseed.op(&p, 40),
            WalOp::Reseed { seed: 9, n: 40 }
        );
        let p = check("reseed seed=9 n=7", Front::Daemon, 0).unwrap();
        assert_eq!(Mutation::Reseed.op(&p, 40), WalOp::Reseed { seed: 9, n: 7 });
    }

    #[test]
    fn every_extent_is_checked_on_both_front_ends() {
        let huge = 1usize << 32;
        for front in [Front::Daemon, Front::Coordinator] {
            for verb in VERBS.iter().filter(|v| v.served_by(front)) {
                let Some(extent) = verb.extent else { continue };
                let key = if extent == Extent::Side {
                    "side"
                } else {
                    "grid"
                };
                let line = |size: usize| format!("{} {key}={size}", verb.name);
                let err = check(&line(huge), front, 0).unwrap_err();
                assert!(err.contains("overflows"), "{front:?} {}: {err}", verb.name);
                let err = check(&line(0), front, 0).unwrap_err();
                assert!(err.contains("must be positive"), "{}: {err}", verb.name);
                let err = check(&line(17), front, 256).unwrap_err();
                assert!(err.contains("max-cells exceeded"), "{}: {err}", verb.name);
                assert!(check(&line(16), front, 256).is_ok(), "{}", verb.name);
            }
        }
    }

    #[test]
    fn theta_past_the_sector_limit_is_rejected_by_name() {
        // 2π / 4096 rad ≈ 0.0879°: just above is fine, just below is not.
        assert!(check("check theta-deg=0.088", Front::Daemon, 0).is_ok());
        let err = check("check theta-deg=0.087", Front::Daemon, 0).unwrap_err();
        assert!(err.contains("too fine") && err.contains("4096"), "{err}");
        let err = check("watch theta-deg=0.0000001", Front::Coordinator, 0).unwrap_err();
        assert!(err.contains("too fine"), "{err}");
        for bad in [
            "theta-deg=0",
            "theta-deg=nan",
            "theta-deg=181",
            "theta-deg=x",
        ] {
            assert!(
                check(&format!("prob {bad}"), Front::Daemon, 0).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn keys_parse_typed_and_required_keys_are_named() {
        assert_eq!(check("fail id=3", Front::Daemon, 0).unwrap().id, 3);
        let err = check("fail", Front::Daemon, 0).unwrap_err();
        assert_eq!(err, "missing required parameter 'id'");
        let err = check("move id=1 x=0.5", Front::Daemon, 0).unwrap_err();
        assert_eq!(err, "missing required parameter 'y'");
        let err = check("fail id=x", Front::Daemon, 0).unwrap_err();
        assert!(err.starts_with("bad value for id"), "{err}");
        let err = check("map sidr=3", Front::Daemon, 0).unwrap_err();
        assert!(err.contains("unknown parameter 'sidr'"), "{err}");
        let err = check("prob density=-3", Front::Daemon, 0).unwrap_err();
        assert!(err.contains("density must be finite and positive"), "{err}");
        let err = check("mask grid=10 lo=5 hi=5", Front::Daemon, 0).unwrap_err();
        assert!(err.contains("must be non-empty"), "{err}");
        assert!(check("restore", Front::Daemon, 0).is_err());
        assert!(
            check("snapshot", Front::Daemon, 0).is_ok(),
            "journal default"
        );
        let req = Request::parse("hello client=probe").unwrap();
        assert_eq!(client_of(&req), "probe");
        assert_eq!(client_of(&Request::parse("hello").unwrap()), ANON_CLIENT);
    }
}
