//! The cluster coordinator: a daemon-shaped front-end that scatters
//! work across N `fullview-service` replicas and gathers byte-identical
//! answers.
//!
//! ## Sharding model
//!
//! Every shard holds the **full fleet** (replicas of the same
//! network/profile); the coordinator shards *query work*, not state.
//! Each verb's route comes from its row in
//! [`fullview_service::verbs::VERBS`], and every request is validated
//! with the daemon's own validator before anything leaves the
//! coordinator:
//!
//! * `map` / `holes` / `kfull` — scatter: the grid index space
//!   `0..total` is cut into contiguous row-major chunks
//!   ([`crate::merge::chunk_ranges`]), each served by a shard through the
//!   row's ranged unit verb (`cells`, `mask`, `kcount`) and merged in
//!   chunk order. The engine's backend-equivalence invariant makes each
//!   range bit-identical to the same slice of a full sweep, so the
//!   merged answer is byte-identical to a single daemon's.
//! * `check` / `prob` / `barrier` — forward: any shard answers the whole
//!   query; the coordinator routes to the least-loaded live replica.
//! * `fail` / `move` / `reseed` — broadcast to every live shard, first
//!   shard first (its rejection aborts the broadcast before divergence),
//!   then the authority fingerprint and the snapshot are refreshed and
//!   every other replica that applied the mutation is fingerprint-
//!   verified against the new authority (divergence marks it down for
//!   resync).
//!
//! ## Replication
//!
//! With `replication = R`, the shard list is partitioned into
//! consecutive *replica groups* of R shards. Chunk `c` of a ranged
//! query has affinity to group `c % groups` (stable affinity keeps each
//! daemon's result cache hot for its ranges); within the owning group
//! the chunk goes to the **least-loaded live replica** (fewest in-flight
//! requests, then fewest reads served, ties rotating), and when a whole
//! group is down any live shard can stand in — every shard holds the
//! full fleet, so any replica's answer is byte-identical.
//!
//! ## Failover
//!
//! A transport failure marks a shard down; its chunks are reassigned to
//! surviving shards in retry rounds. A round that made *any* progress
//! retries the remainder immediately — a read failing over to a sibling
//! replica never waits out the reconnect backoff; the capped-backoff
//! pause applies only when an entire round produced nothing.
//! Reconnecting shards are fingerprint-checked against the *authority*
//! state (established at startup, refreshed after every mutation) and
//! resynced with the daemon's `restore` verb from the cluster snapshot
//! before they serve again — a shard that cannot be proven identical
//! never answers. The snapshot lives in `snapshot_dir`, which must be a
//! path every daemon can read and write (shared filesystem; with all
//! daemons on one host, any local directory).

use crate::merge::{aggregate, chunk_ranges, merge_scattered, parse_shard_stats, ShardStats};
use crate::shard::{is_overload, ShardError, ShardState, DEFAULT_BREAKER_THRESHOLD};
use fullview_service::frontend::{Call, Frontend, Running};
use fullview_service::protocol::{self, Request};
use fullview_service::verbs::{self, Front, Kind, Merge, Route};
use fullview_service::Metrics;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the coordinator is assembled.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address for the client-facing listener (port `0` works).
    pub addr: String,
    /// Addresses of the `fullview-service` daemons to front.
    pub shard_addrs: Vec<String>,
    /// Chunks a ranged query is cut into (`0` = twice the shard count).
    /// More chunks than shards keeps every shard busy when one runs
    /// slow; results never depend on this number.
    pub chunks: usize,
    /// Pipelining window per shard connection: how many chunk requests
    /// may be in flight before the first response is read.
    pub max_inflight: usize,
    /// Retry rounds for reassigning failed chunks / overload rejections.
    pub retries: usize,
    /// Base breaker cooldown before a tripped shard is re-probed, in
    /// milliseconds (doubles on each re-trip).
    pub backoff_ms: u64,
    /// Cooldown cap in milliseconds (doubling stops here).
    pub backoff_cap_ms: u64,
    /// Consecutive transport failures before a shard's circuit breaker
    /// trips open (clamped to ≥ 1). Below the threshold every request
    /// may still attempt a reconnect; once open, the shard is skipped
    /// outright until the cooldown admits a half-open probe.
    pub breaker_threshold: u32,
    /// Directory for the cluster snapshot (shared with the daemons).
    /// `None` disables snapshot/restore failover: a divergent shard
    /// stays down instead of being resynced.
    pub snapshot_dir: Option<PathBuf>,
    /// Replicas per grid range: the shard list is partitioned into
    /// consecutive groups of this size and ranged-read chunks are routed
    /// within their owning group (clamped to `1..=shards`; `1` = every
    /// shard its own group, the pre-replication behavior).
    pub replication: usize,
    /// Largest grid (`side × side` cells) a ranged query may request;
    /// `0` disables the budget. Oversized requests are rejected with a
    /// named `err` frame *before* any work is scattered, so one client
    /// cannot stall the whole cluster with a runaway grid.
    pub max_cells: usize,
}

impl ClusterConfig {
    /// A config with the documented defaults: ephemeral loopback port,
    /// chunks = 2× shards, window 4, 2 retries, 50 ms backoff capped at
    /// 2 s, no snapshot dir.
    #[must_use]
    pub fn new(shard_addrs: Vec<String>) -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".to_string(),
            shard_addrs,
            chunks: 0,
            max_inflight: 4,
            retries: 2,
            backoff_ms: 50,
            backoff_cap_ms: 2_000,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
            snapshot_dir: None,
            replication: 1,
            max_cells: 0,
        }
    }
}

/// The number of replica groups `shard_count` shards form at a
/// (clamped) replication factor. Groups are consecutive runs of
/// `replication` shards; a ragged tail forms a smaller final group.
fn group_count_of(shard_count: usize, replication: usize) -> usize {
    let r = replication.clamp(1, shard_count.max(1));
    shard_count.div_ceil(r)
}

/// Which replica group a shard index belongs to.
fn group_of_shard(shard: usize, shard_count: usize, replication: usize) -> usize {
    shard / replication.clamp(1, shard_count.max(1))
}

/// Per-shard read-load accounting. Lives *outside* the shard mutexes so
/// routing can observe a replica's load while a request is in flight on
/// it (the shard lock is held for the duration of a pipeline).
#[derive(Debug, Default)]
struct ShardLoad {
    /// Requests currently in flight on this shard.
    inflight: AtomicUsize,
    /// Read requests this shard has answered (the `reads:` stats line —
    /// the replica read-balance evidence the load generator reports).
    served: std::sync::atomic::AtomicU64,
}

/// The canonical identity every serving shard must match, parsed from a
/// daemon's `fingerprint` answer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Authority {
    net_fp: u64,
    profile_fp: u64,
    cameras: u64,
    torus_side: f64,
}

fn parse_fingerprint(payload: &str) -> Result<Authority, String> {
    let mut auth = Authority {
        net_fp: 0,
        profile_fp: 0,
        cameras: 0,
        torus_side: f64::NAN,
    };
    for tok in payload.split_whitespace() {
        let Some((key, value)) = tok.split_once('=') else {
            continue;
        };
        match key {
            "net_fp" => auth.net_fp = value.parse().map_err(|e| format!("bad net_fp: {e}"))?,
            "profile_fp" => {
                auth.profile_fp = value.parse().map_err(|e| format!("bad profile_fp: {e}"))?;
            }
            "cameras" => auth.cameras = value.parse().map_err(|e| format!("bad cameras: {e}"))?,
            "torus" => {
                let hex = value
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("bad torus field '{value}'"))?;
                auth.torus_side = u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|e| format!("bad torus bits: {e}"))?;
            }
            _ => {}
        }
    }
    if !auth.torus_side.is_finite() || auth.torus_side <= 0.0 {
        return Err(format!(
            "fingerprint payload lacks a usable torus side: {payload:?}"
        ));
    }
    Ok(auth)
}

struct ClusterCtx {
    cfg: ClusterConfig,
    shards: Vec<Mutex<ShardState>>,
    /// Parallel to `shards`: lock-free load counters for routing.
    loads: Vec<ShardLoad>,
    authority: Mutex<Option<Authority>>,
    /// Rotation cursor breaking least-loaded ties between equal replicas.
    rr: AtomicUsize,
    metrics: Metrics,
}

impl ClusterCtx {
    fn base(&self) -> Duration {
        Duration::from_millis(self.cfg.backoff_ms.max(1))
    }

    fn replication(&self) -> usize {
        self.cfg.replication.clamp(1, self.shards.len().max(1))
    }

    fn group_count(&self) -> usize {
        group_count_of(self.shards.len(), self.cfg.replication)
    }

    fn group_of(&self, shard: usize) -> usize {
        group_of_shard(shard, self.shards.len(), self.cfg.replication)
    }

    fn cap(&self) -> Duration {
        Duration::from_millis(self.cfg.backoff_cap_ms.max(self.cfg.backoff_ms).max(1))
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cfg
            .snapshot_dir
            .as_ref()
            .map(|d| d.join("cluster.snap"))
    }

    fn chunk_count(&self) -> usize {
        if self.cfg.chunks == 0 {
            (2 * self.shards.len()).max(1)
        } else {
            self.cfg.chunks
        }
    }
}

/// A running coordinator. Shuts down its listener on drop; the shard
/// daemons are independent processes and are left running.
#[derive(Debug)]
pub struct Coordinator {
    running: Running,
}

impl Coordinator {
    /// Binds the client-facing listener, connects to the shards,
    /// establishes the authority fingerprint (resyncing divergent shards
    /// from a fresh snapshot when a snapshot dir is configured), and
    /// spawns the acceptor.
    ///
    /// # Errors
    ///
    /// Binding errors; [`io::ErrorKind::InvalidInput`] when no shard
    /// address was given or no shard is reachable at startup.
    pub fn start(cfg: ClusterConfig) -> io::Result<Coordinator> {
        if cfg.shard_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard address",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let shards: Vec<Mutex<ShardState>> = cfg
            .shard_addrs
            .iter()
            .map(|a| Mutex::new(ShardState::with_threshold(a.clone(), cfg.breaker_threshold)))
            .collect();
        let loads = (0..shards.len()).map(|_| ShardLoad::default()).collect();
        let ctx = Arc::new(ClusterCtx {
            cfg,
            shards,
            loads,
            authority: Mutex::new(None),
            rr: AtomicUsize::new(0),
            // Every verb in the table: the daemon's plus its own `shards`.
            metrics: Metrics::with_endpoints(verbs::VERBS.iter().map(|v| v.name).collect()),
        });
        initial_sync(&ctx).map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, m))?;
        Ok(Coordinator {
            running: Running::spawn(listener, ctx)?,
        })
    }

    /// The bound client-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.running.local_addr()
    }

    /// Initiates shutdown (equivalent to a client `shutdown` request).
    pub fn shutdown(&self) {
        self.running.shutdown();
    }

    /// Blocks until the coordinator has fully stopped.
    pub fn wait(self) {
        self.running.wait();
    }
}

impl Frontend for ClusterCtx {
    const FRONT: Front = Front::Coordinator;

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn max_cells(&self) -> usize {
        self.cfg.max_cells
    }

    fn dispatch(self: &Arc<Self>, call: &Call<'_>) -> Result<String, String> {
        let deadline = call.params.deadline(call.received);
        let line = || forward_line(call.verb.name, call.req);
        match (call.verb.route, call.verb.kind) {
            (Route::Scatter { unit, merge }, _) => scatter_query(self, call, unit, merge, deadline),
            (Route::Forward, _) => forward_one(self, &line(), deadline),
            (Route::Broadcast, _) => broadcast_mutation(self, &line()),
            (_, Kind::Stats) => Ok(render_cluster_stats(self)),
            (_, Kind::Shards) => Ok(render_shards(self)),
            (_, Kind::Fingerprint) => fingerprint_text(self),
            (_, Kind::Ping) => Ok("pong\n".to_string()),
            (_, Kind::Shutdown) => {
                Ok("shutting down coordinator (shards keep running)\n".to_string())
            }
            _ => Err(verbs::unknown_verb(Front::Coordinator, call.verb.name)),
        }
    }

    fn watch(
        &self,
        call: &Call<'_>,
        stream: &TcpStream,
        stopping: &AtomicBool,
        subscribed: &dyn Fn(),
    ) -> Result<(), String> {
        let line = forward_line(call.verb.name, call.req);
        relay_watch(self, &line, stream, stopping, subscribed)
    }
}

/// Startup: connect everywhere, adopt the first reachable shard's
/// fingerprint as the authority, snapshot it, and resync the rest.
fn initial_sync(ctx: &ClusterCtx) -> Result<(), String> {
    let mut authority_shard = None;
    for i in 0..ctx.shards.len() {
        let mut state = ctx.shards[i].lock().expect("shard lock");
        let (up, _) = state.ensure(ctx.base(), ctx.cap());
        if !up {
            continue;
        }
        let payload = state
            .request("fingerprint", ctx.base(), ctx.cap())
            .map_err(|e| format!("shard {}: {e}", state.addr()))?;
        let auth = parse_fingerprint(&payload)?;
        *ctx.authority.lock().expect("authority lock") = Some(auth);
        authority_shard = Some(i);
        if let Some(path) = ctx.snapshot_path() {
            state
                .request(
                    &format!("snapshot path={}", path.display()),
                    ctx.base(),
                    ctx.cap(),
                )
                .map_err(|e| format!("startup snapshot on {}: {e}", state.addr()))?;
        }
        break;
    }
    let Some(first) = authority_shard else {
        return Err("no shard reachable at startup".to_string());
    };
    // Everyone else must match the authority (or be restored onto it).
    for i in 0..ctx.shards.len() {
        if i != first {
            let _ = ensure_shard(ctx, i);
        }
    }
    Ok(())
}

/// Brings shard `i` to a serving state: connected *and* fingerprint-
/// matched against the authority, restoring from the cluster snapshot
/// when it diverges. Returns whether the shard may serve.
fn ensure_shard(ctx: &ClusterCtx, i: usize) -> bool {
    let mut state = ctx.shards[i].lock().expect("shard lock");
    let (up, fresh) = state.ensure(ctx.base(), ctx.cap());
    if !up {
        return false;
    }
    if !fresh {
        return true; // validated when it connected
    }
    let authority = *ctx.authority.lock().expect("authority lock");
    let Some(auth) = authority else {
        return true; // startup establishes it; nothing to compare yet
    };
    let verify = |state: &mut ShardState| -> Result<bool, ShardError> {
        let payload = state.request("fingerprint", ctx.base(), ctx.cap())?;
        let fp = parse_fingerprint(&payload).map_err(ShardError::Server)?;
        Ok(fp.net_fp == auth.net_fp && fp.profile_fp == auth.profile_fp)
    };
    match verify(&mut state) {
        Ok(true) => true,
        Ok(false) => {
            // Diverged (missed a mutation while down, or restarted with
            // different state): restore the authority's snapshot.
            let Some(path) = ctx.snapshot_path() else {
                state.mark_down(ctx.base(), ctx.cap());
                return false;
            };
            let restored = state
                .request(
                    &format!("restore path={}", path.display()),
                    ctx.base(),
                    ctx.cap(),
                )
                .and_then(|_| verify(&mut state));
            match restored {
                Ok(true) => true,
                _ => {
                    state.mark_down(ctx.base(), ctx.cap());
                    false
                }
            }
        }
        Err(_) => false, // transport error already marked it down
    }
}

fn live_shards(ctx: &ClusterCtx) -> Vec<usize> {
    (0..ctx.shards.len())
        .filter(|&i| ensure_shard(ctx, i))
        .collect()
}

/// Picks the least-loaded shard among `candidates`: fewest in-flight
/// requests first, fewest reads served as the tie-break, remaining ties
/// broken by a rotating cursor so equal replicas alternate. `extra[s]`
/// adds work assigned-but-not-yet-launched this round (the scatter
/// assignment loop) to shard `s`'s score.
fn pick_least_loaded(ctx: &ClusterCtx, candidates: &[usize], extra: &[usize]) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let rot = ctx.rr.fetch_add(1, Ordering::Relaxed) % candidates.len();
    let mut best: Option<(usize, (usize, u64))> = None;
    for k in 0..candidates.len() {
        let s = candidates[(rot + k) % candidates.len()];
        let pending = extra.get(s).copied().unwrap_or(0);
        let score = (
            ctx.loads[s].inflight.load(Ordering::Relaxed) + pending,
            ctx.loads[s].served.load(Ordering::Relaxed) + pending as u64,
        );
        // Strictly-less keeps the first candidate in rotation order on a
        // tie, so back-to-back requests alternate across equal replicas.
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((s, score));
        }
    }
    best.map(|(s, _)| s)
}

/// What happened to one scattered chunk.
enum ChunkOutcome {
    Done(String),
    /// Transient (shard died or rejected for overload): reassign.
    Retry,
    /// The daemon rejected the request itself — the client's fault;
    /// retrying elsewhere would fail identically.
    Fatal(String),
}

/// Runs one shard's share of a scatter: pipeline the chunk requests over
/// its persistent connection with the bounded in-flight window. Load
/// counters bracket the pipeline so concurrent routing decisions see the
/// work in flight.
fn serve_chunks(
    ctx: &ClusterCtx,
    shard_idx: usize,
    chunk_idxs: &[usize],
    lines: &[String],
) -> Vec<(usize, ChunkOutcome)> {
    ctx.loads[shard_idx]
        .inflight
        .fetch_add(chunk_idxs.len(), Ordering::Relaxed);
    let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
    let refs: Vec<&str> = chunk_idxs.iter().map(|&c| lines[c].as_str()).collect();
    let outcomes = match state.pipeline(&refs, ctx.cfg.max_inflight.max(1), ctx.base(), ctx.cap()) {
        Err(_) => chunk_idxs
            .iter()
            .map(|&c| (c, ChunkOutcome::Retry))
            .collect(),
        Ok(responses) => chunk_idxs
            .iter()
            .zip(responses)
            .map(|(&c, resp)| {
                let outcome = match resp {
                    fullview_service::Response::Ok(payload) => ChunkOutcome::Done(payload),
                    fullview_service::Response::Err(m) if is_overload(&m) => ChunkOutcome::Retry,
                    fullview_service::Response::Err(m) => ChunkOutcome::Fatal(m),
                };
                (c, outcome)
            })
            .collect::<Vec<_>>(),
    };
    drop(state);
    ctx.loads[shard_idx]
        .inflight
        .fetch_sub(chunk_idxs.len(), Ordering::Relaxed);
    let done = outcomes
        .iter()
        .filter(|(_, o)| matches!(o, ChunkOutcome::Done(_)))
        .count() as u64;
    ctx.loads[shard_idx]
        .served
        .fetch_add(done, Ordering::Relaxed);
    outcomes
}

/// The remaining-budget token forwarded to shards, or the shed error
/// once the deadline has passed. Re-evaluated every retry round so the
/// shards always see the budget that is actually left, not the one the
/// client started with.
fn deadline_suffix(deadline: Option<Instant>, now: Instant) -> Result<String, String> {
    let Some(deadline) = deadline else {
        return Ok(String::new());
    };
    let remaining = deadline.saturating_duration_since(now);
    let remaining_ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
    if remaining_ms == 0 {
        return Err(
            "deadline exceeded: budget exhausted at the coordinator before the shards answered"
                .to_string(),
        );
    }
    Ok(format!(" deadline_ms={remaining_ms}"))
}

/// Scatter-gathers one ranged query: `make_line(lo, hi)` builds the
/// per-chunk daemon request; the returned payloads are in chunk order
/// (concatenation order == grid order).
///
/// Chunk `c` is routed to the least-loaded live replica of its owning
/// group `c % groups`; when the whole group is down, any live shard
/// stands in (full replication makes any answer byte-identical). Chunks
/// on failed shards are reassigned across up to `retries` extra rounds —
/// a round that completed *any* chunk retries the rest immediately, so
/// failing over to a live sibling never waits out a reconnect backoff.
///
/// With a `deadline`, every round rebuilds the chunk lines with the
/// *remaining* budget as `deadline_ms=` so the shards shed queued work
/// the coordinator could no longer use; once the budget is gone the
/// query fails with a `deadline exceeded:` error instead of burning
/// shard time on a dead answer. A shard's own `deadline exceeded:`
/// rejection is final (not retried): a sibling would only waste more of
/// an already-blown budget.
fn scatter(
    ctx: &ClusterCtx,
    total: usize,
    deadline: Option<Instant>,
    make_line: impl Fn(usize, usize) -> String,
) -> Result<Vec<String>, String> {
    let ranges = chunk_ranges(total, ctx.chunk_count());
    let base_lines: Vec<String> = ranges.iter().map(|&(lo, hi)| make_line(lo, hi)).collect();
    let mut results: Vec<Option<String>> = vec![None; ranges.len()];
    let groups = ctx.group_count();
    let mut progressed = true;
    for round in 0..=ctx.cfg.retries {
        let pending: Vec<usize> = (0..ranges.len())
            .filter(|&c| results[c].is_none())
            .collect();
        if pending.is_empty() {
            break;
        }
        // Only a fruitless round (nothing completed anywhere) earns a
        // backoff pause; partial progress means a sibling replica is
        // alive and the remainder should fail over to it immediately.
        if round > 0 && !progressed {
            std::thread::sleep(ctx.base());
        }
        progressed = false;
        let suffix = deadline_suffix(deadline, Instant::now())?;
        let rebuilt: Vec<String>;
        let lines: &[String] = if suffix.is_empty() {
            &base_lines
        } else {
            rebuilt = base_lines.iter().map(|l| format!("{l}{suffix}")).collect();
            &rebuilt
        };
        let live = live_shards(ctx);
        if live.is_empty() {
            continue; // maybe a backoff window expires before the last round
        }
        // Route each pending chunk to the least-loaded live replica of
        // its owning group; `assigned` counts this round's not-yet-
        // launched work so the assignment itself stays balanced.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); ctx.shards.len()];
        let mut assigned: Vec<usize> = vec![0; ctx.shards.len()];
        for &chunk in &pending {
            let owner = chunk % groups;
            let siblings: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&s| ctx.group_of(s) == owner)
                .collect();
            let candidates = if siblings.is_empty() {
                &live
            } else {
                &siblings
            };
            let Some(s) = pick_least_loaded(ctx, candidates, &assigned) else {
                continue;
            };
            assigned[s] += 1;
            per_shard[s].push(chunk);
        }
        let outcomes: Vec<Vec<(usize, ChunkOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, chunks)| !chunks.is_empty())
                .map(|(shard_idx, chunks)| {
                    scope.spawn(move || serve_chunks(ctx, shard_idx, chunks, lines))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread panicked"))
                .collect()
        });
        for (chunk, outcome) in outcomes.into_iter().flatten() {
            match outcome {
                ChunkOutcome::Done(payload) => {
                    results[chunk] = Some(payload);
                    progressed = true;
                }
                ChunkOutcome::Retry => {}
                ChunkOutcome::Fatal(m) => return Err(m),
            }
        }
    }
    results
        .into_iter()
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| "no live shards (all replicas down or overloaded)".to_string())
}

/// Forwards a whole query to the least-loaded live shard, failing over
/// across the remaining replicas within the round on transport errors.
/// With a `deadline`, each attempt carries the remaining budget as
/// `deadline_ms=` (the base `line` must not already contain one) and an
/// exhausted budget sheds with a `deadline exceeded:` error.
fn forward_one(ctx: &ClusterCtx, line: &str, deadline: Option<Instant>) -> Result<String, String> {
    for round in 0..=ctx.cfg.retries {
        if round > 0 {
            std::thread::sleep(ctx.base());
        }
        let mut remaining = live_shards(ctx);
        while let Some(shard_idx) = pick_least_loaded(ctx, &remaining, &[]) {
            remaining.retain(|&s| s != shard_idx);
            let suffix = deadline_suffix(deadline, Instant::now())?;
            let rebuilt: String;
            let line_now: &str = if suffix.is_empty() {
                line
            } else {
                rebuilt = format!("{line}{suffix}");
                &rebuilt
            };
            ctx.loads[shard_idx]
                .inflight
                .fetch_add(1, Ordering::Relaxed);
            let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
            let outcome = state.request(line_now, ctx.base(), ctx.cap());
            drop(state);
            ctx.loads[shard_idx]
                .inflight
                .fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(payload) => {
                    ctx.loads[shard_idx].served.fetch_add(1, Ordering::Relaxed);
                    return Ok(payload);
                }
                Err(ShardError::Server(m)) if is_overload(&m) => continue,
                Err(ShardError::Server(m)) => return Err(m),
                Err(ShardError::Transport(_)) => continue,
            }
        }
    }
    Err("no live shards (all replicas down or overloaded)".to_string())
}

/// Re-reads the authority fingerprint from shard `i` (after a mutation)
/// and refreshes the cluster snapshot so down shards resync to the *new*
/// state when they return.
fn refresh_authority_from(ctx: &ClusterCtx, i: usize) -> Result<(), String> {
    let mut state = ctx.shards[i].lock().expect("shard lock");
    let payload = state
        .request("fingerprint", ctx.base(), ctx.cap())
        .map_err(|e| e.to_string())?;
    let auth = parse_fingerprint(&payload)?;
    *ctx.authority.lock().expect("authority lock") = Some(auth);
    if let Some(path) = ctx.snapshot_path() {
        state
            .request(
                &format!("snapshot path={}", path.display()),
                ctx.base(),
                ctx.cap(),
            )
            .map_err(|e| format!("snapshot refresh: {e}"))?;
    }
    Ok(())
}

/// Broadcasts a mutation. The first live shard goes alone: if it rejects
/// (bad camera id, …) the broadcast aborts with zero divergence. A later
/// shard failing is marked down and will resync from the refreshed
/// snapshot when it reconnects.
fn broadcast_mutation(ctx: &ClusterCtx, line: &str) -> Result<String, String> {
    let live = live_shards(ctx);
    if live.is_empty() {
        return Err("no live shards".to_string());
    }
    let mut applied_on: Option<(usize, String)> = None;
    let mut followers: Vec<usize> = Vec::new();
    for &shard_idx in &live {
        let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
        match state.request(line, ctx.base(), ctx.cap()) {
            Ok(payload) => {
                if applied_on.is_none() {
                    applied_on = Some((shard_idx, payload));
                } else {
                    followers.push(shard_idx);
                }
            }
            Err(ShardError::Server(m)) => {
                if applied_on.is_none() {
                    // Nothing mutated anywhere yet: clean client error.
                    return Err(m);
                }
                // Replicas were identical, so a divergent verdict means
                // this shard is not the replica we thought: force a
                // reconnect + fingerprint resync before it serves again.
                state.mark_down(ctx.base(), ctx.cap());
            }
            Err(ShardError::Transport(_)) => {} // already marked down
        }
    }
    let (first, payload) = applied_on.ok_or_else(|| "no live shards".to_string())?;
    refresh_authority_from(ctx, first)?;
    // Convergence check: every follower that applied the mutation must
    // now fingerprint-match the refreshed authority. A mismatch (e.g. a
    // daemon restarted between the broadcast and here) is marked down so
    // the next `ensure_shard` restores it before it answers reads.
    let auth = *ctx.authority.lock().expect("authority lock");
    if let Some(auth) = auth {
        for shard_idx in followers {
            let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
            let converged = state
                .request("fingerprint", ctx.base(), ctx.cap())
                .map_err(|e| e.to_string())
                .and_then(|p| parse_fingerprint(&p))
                .map(|fp| fp.net_fp == auth.net_fp && fp.profile_fp == auth.profile_fp);
            if !matches!(converged, Ok(true)) {
                state.mark_down(ctx.base(), ctx.cap());
            }
        }
    }
    Ok(payload)
}

fn render_cluster_stats(ctx: &ClusterCtx) -> String {
    let live = live_shards(ctx);
    let mut shard_stats: Vec<ShardStats> = Vec::new();
    for &i in &live {
        let mut state = ctx.shards[i].lock().expect("shard lock");
        if let Ok(payload) = state.request("stats", ctx.base(), ctx.cap()) {
            if let Ok(s) = parse_shard_stats(&payload) {
                shard_stats.push(s);
            }
        }
    }
    let agg = aggregate(&shard_stats);
    let authority = *ctx.authority.lock().expect("authority lock");
    let snap = ctx.metrics.snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster: shards={} up={} down={} uptime_s={:.1}",
        ctx.shards.len(),
        agg.shards_reporting,
        ctx.shards.len() - agg.shards_reporting,
        snap.uptime_s
    );
    if let Some(auth) = authority {
        let _ = writeln!(
            out,
            "fleet: cameras={} net_fp={} profile_fp={}",
            auth.cameras, auth.net_fp, auth.profile_fp
        );
    }
    let _ = write!(out, "requests:");
    for (endpoint, count) in &snap.counts {
        let _ = write!(out, " {endpoint}={count}");
    }
    let _ = writeln!(out, " total={} rejected={}", snap.total, snap.rejected);
    let _ = write!(
        out,
        "reads: replication={} groups={}",
        ctx.replication(),
        ctx.group_count()
    );
    for (i, load) in ctx.loads.iter().enumerate() {
        let _ = write!(out, " shard{i}={}", load.served.load(Ordering::Relaxed));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shards: total_requests={} rejected={} queue_depth={} queue_capacity={} \
         cache_entries={} cache_hits={} cache_misses={} cache_hit_rate={:.4}",
        agg.total_requests,
        agg.rejected,
        agg.queue_depth,
        agg.queue_capacity,
        agg.cache_entries,
        agg.cache_hits,
        agg.cache_misses,
        agg.cache_hit_rate()
    );
    let fmt_q = |q: Option<f64>| q.map_or_else(|| "na".to_string(), |v| format!("{v:.3}"));
    let _ = writeln!(
        out,
        "latency_ms: p50={} p99={} samples={}",
        fmt_q(snap.p50_ms),
        fmt_q(snap.p99_ms),
        snap.samples
    );
    out
}

fn render_shards(ctx: &ClusterCtx) -> String {
    let mut out = String::new();
    for (i, shard) in ctx.shards.iter().enumerate() {
        // Probe liveness (reconnect + resync if due) before reporting.
        let serving = ensure_shard(ctx, i);
        let state = shard.lock().expect("shard lock");
        let breaker = state.breaker();
        let _ = writeln!(
            out,
            "shard {i}: addr={} group={} state={} breaker={} failures={} cooldown_ms={}",
            state.addr(),
            ctx.group_of(i),
            if serving { "up" } else { "down" },
            breaker.state_name(Instant::now()),
            breaker.consecutive_failures(),
            breaker.cooldown().as_millis()
        );
    }
    out
}

/// The request as a shard should see it, sent as `verb`: the client's
/// tokens verbatim (so the shards parse the identical values), minus
/// `deadline_ms=` — each leg carries the budget that is left instead.
fn forward_line(verb: &str, req: &Request<'_>) -> String {
    let mut line = verb.to_string();
    for &(key, value) in req.params() {
        if key != "deadline_ms" {
            let _ = write!(line, " {key}={value}");
        }
    }
    line
}

/// Scatter-gathers one grid query: the grid's index space is cut into
/// chunks, each chunk goes to a shard as the table's ranged `unit` verb
/// carrying the client's tokens, and the answers merge into the bytes a
/// single daemon renders.
fn scatter_query(
    ctx: &ClusterCtx,
    call: &Call<'_>,
    unit: &str,
    merge: Merge,
    deadline: Option<Instant>,
) -> Result<String, String> {
    let (side, total) = (call.params.extent, call.params.cells());
    let unit_line = forward_line(unit, call.req);
    let parts = scatter(ctx, total, deadline, |lo, hi| {
        format!("{unit_line} lo={lo} hi={hi}")
    })?;
    merge_scattered(merge, side, call.params.k, &parts, || {
        ctx.authority
            .lock()
            .expect("authority lock")
            .map(|auth| auth.torus_side)
            .ok_or_else(|| "cluster has no authority state".to_string())
    })
}

fn fingerprint_text(ctx: &ClusterCtx) -> Result<String, String> {
    let auth = ctx
        .authority
        .lock()
        .expect("authority lock")
        .ok_or("cluster has no authority state")?;
    Ok(format!(
        "net_fp={} profile_fp={} cameras={} torus=0x{:016x}\n",
        auth.net_fp,
        auth.profile_fp,
        auth.cameras,
        auth.torus_side.to_bits()
    ))
}

/// Relays a `watch` subscription 1:1 to one live shard over a dedicated
/// upstream connection, pumping every ok-frame (baseline + deltas)
/// downstream until either side disconnects or the coordinator shuts
/// down. Every shard sees every mutation (broadcast), so any single
/// replica's delta stream is the cluster's delta stream.
///
/// Runs in the connection handler thread itself; the short upstream
/// read timeout inside [`protocol::read_framed_response`] keeps the
/// relay responsive to shutdown, so the acceptor's join cannot hang.
///
/// Returns `Ok` once the downstream connection is consumed (the
/// subscription ran, or the socket broke) and an error when the
/// subscription was rejected before its baseline frame.
fn relay_watch(
    ctx: &ClusterCtx,
    line: &str,
    downstream: &TcpStream,
    stopping: &AtomicBool,
    subscribed: &dyn Fn(),
) -> Result<(), String> {
    let live = live_shards(ctx);
    let &first = live.first().ok_or("no live shards")?;
    // A fresh upstream connection: the pooled shard connection keeps
    // serving queries while this one carries the subscription.
    let addr = &ctx.cfg.shard_addrs[first];
    let upstream = TcpStream::connect(addr).map_err(|e| format!("shard {addr}: {e}"))?;
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut w = &upstream;
    use io::Write as _;
    writeln!(w, "{line}")
        .and_then(|()| w.flush())
        .map_err(|_| format!("shard {addr}: connection failed"))?;
    let mut carry: Vec<u8> = Vec::new();
    let mut writer = downstream;
    // Baseline frame: forwarded verbatim; a shard rejection is relayed
    // as an err and the connection goes back to normal request/response
    // service, matching the daemon's behavior.
    match protocol::read_framed_response(&upstream, &mut carry, stopping) {
        Some(fullview_service::Response::Ok(payload)) => {
            if protocol::write_ok(&mut writer, &payload).is_err() {
                return Ok(());
            }
        }
        Some(fullview_service::Response::Err(message)) => return Err(message),
        None => return Err(format!("shard {addr}: closed during watch setup")),
    }
    subscribed();
    while let Some(fullview_service::Response::Ok(payload)) =
        protocol::read_framed_response(&upstream, &mut carry, stopping)
    {
        if protocol::write_ok(&mut writer, &payload).is_err() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_parsing_roundtrips() {
        let auth =
            parse_fingerprint("net_fp=123 profile_fp=456 cameras=400 torus=0x3ff0000000000000\n")
                .unwrap();
        assert_eq!(
            (auth.net_fp, auth.profile_fp, auth.cameras),
            (123, 456, 400)
        );
        assert_eq!(auth.torus_side, 1.0);
        assert!(parse_fingerprint("net_fp=1 profile_fp=2 cameras=3").is_err());
        assert!(parse_fingerprint("net_fp=x torus=0x3ff0000000000000").is_err());
    }

    #[test]
    fn replica_group_math_partitions_the_shard_list() {
        // replication=1: every shard its own group (legacy behavior).
        assert_eq!(group_count_of(4, 1), 4);
        assert_eq!(group_of_shard(3, 4, 1), 3);
        // replication=2 over 4 shards: [0,1] and [2,3].
        assert_eq!(group_count_of(4, 2), 2);
        assert_eq!(group_of_shard(0, 4, 2), 0);
        assert_eq!(group_of_shard(1, 4, 2), 0);
        assert_eq!(group_of_shard(2, 4, 2), 1);
        assert_eq!(group_of_shard(3, 4, 2), 1);
        // Ragged tail: 5 shards at replication=2 form a final group of 1.
        assert_eq!(group_count_of(5, 2), 3);
        assert_eq!(group_of_shard(4, 5, 2), 2);
        // Over-replication clamps to one all-shard group; zero clamps to 1.
        assert_eq!(group_count_of(3, 99), 1);
        assert_eq!(group_of_shard(2, 3, 99), 0);
        assert_eq!(group_count_of(3, 0), 3);
        assert_eq!(group_count_of(0, 2), 0);
    }

    #[test]
    fn starting_with_no_shards_or_unreachable_shards_fails_cleanly() {
        let err = Coordinator::start(ClusterConfig::new(Vec::new())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Port 1: nothing listens; startup must fail, not hang.
        let err =
            Coordinator::start(ClusterConfig::new(vec!["127.0.0.1:1".to_string()])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("no shard reachable"), "{err}");
    }
}
