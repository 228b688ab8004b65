//! The daemon: fleet state, warm sweeps, cache, mutations and dispatch.
//!
//! One process owns one fleet. The [`CameraNetwork`] (and with it the
//! warm `SpatialGrid`/tile structures) is loaded or generated once at
//! startup and lives behind an `RwLock`: queries take cheap read locks,
//! mutations (`fail`, `move`, `reseed`, `restore`) take the write lock,
//! refresh the canonical fingerprint, mark the mutated sensing disks
//! dirty in every warm state, and downgrade (not evict) the affected
//! cache entries.
//!
//! Every dense-grid query is served from a small registry of warm
//! states, one byte per grid point each: an [`IncrementalSweep`] per
//! (θ, side) holds every point's flags and answers `check`, `holes`,
//! `mask`, `barrier`, `map` and `cells`; a [`KCountSweep`] per
//! (θ, side, k) answers `kfull` and `kcount`. A mutation marks only the
//! tiles its old/new sensing disks touch, and the next query
//! re-evaluates exactly those tiles — bit-identical to a cold sweep (the
//! invariant is differential-tested in `fullview-core`). `watch`
//! subscribers receive a delta frame per mutation built from the same
//! repair. The daemon's [`Tier`] (`--hier`) answers only the warm
//! states' cold builds.
//!
//! Locking discipline (lock order: `watches` → `fleet` → `sweeps`; the
//! cache lock is only ever held alone): a mutation applies the change,
//! marks dirt, and repairs watched states all under one continuous fleet
//! write section, so a concurrent query can never observe the
//! post-mutation network without the mutation's dirt. The cache is
//! looked up by digest *plus* current fingerprint; a job racing a
//! mutation may insert a payload under the pre-mutation fingerprint,
//! which later lookups simply report as stale and recompute.

use crate::admission::AdmissionControl;
use crate::cache::{Lookup, ResultCache};
use crate::frontend::{Call, Frontend, Running};
use crate::metrics::Metrics;
use crate::protocol;
use crate::queue::JobQueue;
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::verbs::{self, Front, Kind, Params, Query};
use crate::wal::{self, WalOp, WalRecord, WalWriter};
use fullview_core::canon::{network_fingerprint, profile_fingerprint, CanonicalHasher};
use fullview_core::{
    barrier_from_mask, coverage_map_from_glyphs, dense_grid, hole_report_text, holes_from_mask,
    kfull_text, prob_point_full_view_poisson, prob_point_meets_necessary_poisson,
    prob_point_meets_sufficient_poisson, EffectiveAngle, IncrementalSweep, KCountSweep, PointFlags,
    SweepDelta,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, UnitGrid};
use fullview_hier::{ProverStats, Tier};
use fullview_model::{CameraNetwork, NetworkProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

/// How the daemon is assembled: fleet provenance, default effective
/// angle, and the sizing of the worker pool, queue, and cache.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port `0` for an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Heterogeneous camera mix for generation and theory queries.
    pub profile: NetworkProfile,
    /// Fleet size for generation and `reseed`.
    pub n: usize,
    /// Deployment seed for generation.
    pub seed: u64,
    /// Default effective angle θ; per-request `theta-deg` overrides it.
    pub theta: EffectiveAngle,
    /// Worker pool size (`0` = one per CPU, never zero).
    pub workers: usize,
    /// Job queue bound (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Result cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Admission-control refill rate in requests per second per client
    /// identity (`0` disables the gate — the default).
    pub admit_rate: f64,
    /// Admission-control bucket capacity (burst allowance, clamped ≥ 1).
    pub admit_burst: f64,
    /// Build the warm states cold through the hierarchical certificate
    /// prover — the first use of every grid verb's state, and its rebuild
    /// after `reseed`/`restore`; repairs after a `fail`/`move` stay on the
    /// core tile funnel. Answers are bit-identical either way
    /// (differential-tested); the prover pays off on cold builds at large
    /// grid sides. Prover counters surface through `stats`.
    pub hier: bool,
    /// Largest discretization (in total grid cells, `side²`) a request
    /// may ask for; `0` means unlimited. Over-budget requests are
    /// rejected up front with a named `max-cells exceeded` err frame
    /// instead of attempting an allocation that could take the daemon
    /// down.
    pub max_cells: usize,
    /// A pre-built network (e.g. loaded from the text format). When set,
    /// it replaces generation; `reseed` still regenerates from
    /// `profile`/`n`.
    pub preloaded: Option<CameraNetwork>,
    /// Durability base path. When set, the daemon restores
    /// `<wal>` (writing it first if absent), replays `<wal>.wal`, and
    /// journals every accepted mutation there — fsync'd before the
    /// fleet mutates — so a crash loses at most un-acknowledged
    /// mutations. The `snapshot` verb (with the default path)
    /// checkpoints: it rewrites `<wal>` and truncates the journal.
    pub wal: Option<PathBuf>,
}

impl ServiceConfig {
    /// A config with the documented defaults: ephemeral loopback port,
    /// 400 cameras from seed 0, θ = 45°, 2 workers,
    /// queue bound 64, cache capacity 128.
    #[must_use]
    pub fn new(profile: NetworkProfile) -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            profile,
            n: 400,
            seed: 0,
            theta: EffectiveAngle::new(std::f64::consts::FRAC_PI_4).expect("45° is valid"),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            admit_rate: 0.0,
            admit_burst: 8.0,
            hier: false,
            max_cells: 0,
            preloaded: None,
            wal: None,
        }
    }
}

/// The durability state: the snapshot base path plus the open journal.
/// Lock order: the journal mutex is only ever taken while the fleet
/// lock is already held (write for mutations, read for snapshots).
struct WalState {
    base: PathBuf,
    writer: Mutex<WalWriter>,
}

/// The mutable fleet state guarded by the `RwLock`.
struct Fleet {
    profile: NetworkProfile,
    net: CameraNetwork,
    net_fp: u64,
    profile_fp: u64,
}

/// What a warm state holds: every point's five flags, or whether each
/// point's view multiplicity reaches `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Holds {
    Flags,
    K(usize),
}

/// Warm-state identity: θ (as exact bits), the grid side, and what the
/// state holds.
type SweepKey = (u64, usize, Holds);

fn sweep_key(theta: EffectiveAngle, grid_side: usize, holds: Holds) -> SweepKey {
    (theta.radians().to_bits(), grid_side, holds)
}

const SWEEP_REGISTRY_CAP: usize = 8;

/// One warm state of either kind.
enum Warm {
    Flags(IncrementalSweep),
    K(KCountSweep),
}

struct SweepSlot {
    key: SweepKey,
    state: Warm,
    /// Pinned slots (those a `watch` subscriber depends on) are exempt
    /// from LRU eviction, recomputed statelessly from the live
    /// subscription list on every change to it.
    pinned: bool,
    last_used: u64,
}

/// What answered the requests that read a warm state, as the `sweeps:`
/// line of `stats` reports it.
#[derive(Debug, Default)]
struct SweepCounters {
    /// Cold builds and rebuilds.
    builds: u64,
    /// Repairs that re-evaluated at least one tile.
    repairs: u64,
    /// Points those repairs re-evaluated.
    repaired_points: u64,
    /// Requests a clean state answered with no evaluation.
    reads: u64,
    /// Slots evicted to make room.
    evictions: u64,
}

impl SweepCounters {
    /// Counts one request's use of a state that was `built` for it and
    /// then repaired by `delta`.
    fn note<T>(&mut self, built: bool, delta: &SweepDelta<T>) {
        if built || delta.rebuilt {
            self.builds += 1;
        } else if delta.tiles_resweeped > 0 {
            self.repairs += 1;
            self.repaired_points += delta.points_resweeped as u64;
        } else {
            self.reads += 1;
        }
    }
}

/// A small LRU pool of warm states, flags and k-counts alike. Mutations
/// mark dirt into *every* slot (marking is cheap — a few tile bits);
/// queries repair only the slot they hit.
struct SweepRegistry {
    slots: Vec<SweepSlot>,
    tick: u64,
    counters: SweepCounters,
}

impl SweepRegistry {
    fn new() -> Self {
        SweepRegistry {
            slots: Vec::new(),
            tick: 0,
            counters: SweepCounters::default(),
        }
    }

    /// Marks one sensing disk dirty in every warm state.
    fn mark_disk_all(&mut self, center: Point, radius: f64) {
        for slot in &mut self.slots {
            match &mut slot.state {
                Warm::Flags(state) => state.mark_disk(center, radius),
                Warm::K(state) => state.mark_disk(center, radius),
            }
        }
    }

    /// Invalidates every warm state (fleet replaced wholesale: `reseed`
    /// or `restore` — the spatial-index geometry may have changed).
    fn invalidate_all(&mut self) {
        for slot in &mut self.slots {
            match &mut slot.state {
                Warm::Flags(state) => state.invalidate(),
                Warm::K(state) => state.invalidate(),
            }
        }
    }

    /// Pins the slot for `key` against LRU eviction (no-op when absent).
    fn pin(&mut self, key: SweepKey) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.pinned = true;
        }
    }

    /// Recomputes pinning from the set of keys still watched.
    fn set_pins(&mut self, watched: &[SweepKey]) {
        for slot in &mut self.slots {
            slot.pinned = watched.contains(&slot.key);
        }
    }

    /// The index of the slot for `key`, and whether `build` just built
    /// it. Evicts the least-recently-used unpinned slot when full; when
    /// every slot is pinned the pool grows past the cap rather than
    /// breaking a watcher.
    fn slot(&mut self, key: SweepKey, build: impl FnOnce() -> Warm) -> (usize, bool) {
        self.tick += 1;
        if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            self.slots[i].last_used = self.tick;
            return (i, false);
        }
        if self.slots.len() >= SWEEP_REGISTRY_CAP {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.pinned)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            if let Some(i) = victim {
                self.slots.swap_remove(i);
                self.counters.evictions += 1;
            }
        }
        self.slots.push(SweepSlot {
            key,
            state: build(),
            pinned: false,
            last_used: self.tick,
        });
        (self.slots.len() - 1, true)
    }
}

/// The warm flags state for `(theta, side)`, repaired against `net`.
/// Cold builds — the first use, and the rebuild after `reseed`/`restore`
/// — take their verdicts from the daemon's tier; dirty tiles are repaired
/// through the core tile funnel.
fn warm_sweep<'s>(
    ctx: &ServerCtx,
    sweeps: &'s mut SweepRegistry,
    net: &CameraNetwork,
    theta: EffectiveAngle,
    side: usize,
) -> (&'s mut IncrementalSweep, SweepDelta) {
    let mut prover = ProverStats::default();
    let mut cold =
        |net: &CameraNetwork, grid: &UnitGrid, emit: &mut dyn FnMut(usize, PointFlags)| {
            let stats = ctx
                .tier
                .sweep_flags(net, grid, theta, Angle::ZERO, 0, grid.len(), emit);
            prover.merge(&stats);
        };
    let (i, built) = sweeps.slot(sweep_key(theta, side, Holds::Flags), || {
        Warm::Flags(IncrementalSweep::with_cold_sweep(
            net,
            theta,
            Angle::ZERO,
            side,
            &mut cold,
        ))
    });
    let Warm::Flags(state) = &mut sweeps.slots[i].state else {
        unreachable!("a flags key holds a flags state");
    };
    let delta = state.resweep_dirty_with(net, &mut cold);
    sweeps.counters.note(built, &delta);
    ctx.note_prover(prover);
    (state, delta)
}

/// The warm k-count state for `(theta, side, k)`, repaired against `net`:
/// cold builds through the daemon's tier, repairs through the core k
/// funnel.
fn warm_k_count<'s>(
    ctx: &ServerCtx,
    sweeps: &'s mut SweepRegistry,
    net: &CameraNetwork,
    theta: EffectiveAngle,
    k: usize,
    side: usize,
) -> &'s KCountSweep {
    let mut prover = ProverStats::default();
    let mut cold = |net: &CameraNetwork, grid: &UnitGrid, emit: &mut dyn FnMut(usize, bool)| {
        let stats = ctx.tier.sweep_k(net, grid, theta, k, 0, grid.len(), emit);
        prover.merge(&stats);
    };
    let (i, built) = sweeps.slot(sweep_key(theta, side, Holds::K(k)), || {
        Warm::K(KCountSweep::with_cold_sweep(net, theta, k, side, &mut cold))
    });
    let Warm::K(state) = &mut sweeps.slots[i].state else {
        unreachable!("a k key holds a k-count state");
    };
    let delta = state.resweep_dirty_with(net, &mut cold);
    sweeps.counters.note(built, &delta);
    ctx.note_prover(prover);
    state
}

/// Reads the warm flags state for `(theta, side)` under the sweeps lock.
fn read_flags<R>(
    ctx: &ServerCtx,
    net: &CameraNetwork,
    theta: EffectiveAngle,
    side: usize,
    read: impl FnOnce(&IncrementalSweep) -> R,
) -> R {
    let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
    read(warm_sweep(ctx, &mut sweeps, net, theta, side).0)
}

/// Reads the warm k-count state for `(theta, side, k)` under the sweeps
/// lock.
fn read_k_count<R>(
    ctx: &ServerCtx,
    net: &CameraNetwork,
    theta: EffectiveAngle,
    k: usize,
    side: usize,
    read: impl FnOnce(&KCountSweep) -> R,
) -> R {
    let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
    read(warm_k_count(ctx, &mut sweeps, net, theta, k, side))
}

/// One `watch` subscriber: a cloned connection the hub writes delta
/// frames to. The original connection handler has returned; the hub
/// owns the stream's lifetime.
struct WatchSub {
    key: SweepKey,
    theta: EffectiveAngle,
    grid: usize,
    stream: TcpStream,
    /// Per-subscriber frame counter (baseline is seq 0).
    seq: u64,
}

/// Subscribers plus the last-emitted (fraction, hole count) per watched
/// config, so each delta frame's *before* values continue exactly from
/// the previous frame even when unrelated queries repaired the state in
/// between.
struct WatchHub {
    subs: Vec<WatchSub>,
    last: std::collections::HashMap<SweepKey, (f64, usize)>,
}

impl WatchHub {
    fn new() -> Self {
        WatchHub {
            subs: Vec::new(),
            last: std::collections::HashMap::new(),
        }
    }

    /// The distinct (key, θ, side) configurations currently watched.
    fn watched_configs(&self) -> Vec<(SweepKey, EffectiveAngle, usize)> {
        let mut configs: Vec<(SweepKey, EffectiveAngle, usize)> = Vec::new();
        for sub in &self.subs {
            if !configs.iter().any(|(k, _, _)| *k == sub.key) {
                configs.push((sub.key, sub.theta, sub.grid));
            }
        }
        configs
    }
}

struct ServerCtx {
    fleet: RwLock<Fleet>,
    cache: Mutex<ResultCache>,
    /// Warm states, keyed by (θ, grid side, what they hold). Locked only
    /// while `fleet` is already held (read for queries, write for
    /// mutations), never the other way round — or alone, by `stats`.
    sweeps: Mutex<SweepRegistry>,
    /// Watch subscribers. Locked first by mutations (before `fleet`), so
    /// delta emission is serialized in mutation order.
    watches: Mutex<WatchHub>,
    metrics: Metrics,
    queue: JobQueue,
    admission: AdmissionControl,
    /// Write-ahead journal (`--wal`); `None` runs without durability.
    wal: Option<WalState>,
    /// Who answers the warm states' cold builds (`--hier`).
    tier: Tier,
    /// Discretization budget in total cells (`--max-cells`; 0 = off).
    max_cells: usize,
    /// Prover counters accumulated across every sweep, reported by the
    /// `stats` verb (a screened sweep adds nothing).
    hier_stats: Mutex<ProverStats>,
    theta_default: EffectiveAngle,
    reseed_n: usize,
}

impl ServerCtx {
    /// Folds one sweep's prover counters into the totals `stats` reports.
    fn note_prover(&self, stats: ProverStats) {
        self.hier_stats
            .lock()
            .expect("hier stats lock")
            .merge(&stats);
    }
}

/// A running daemon. Dropping it (or calling [`Server::wait`] after a
/// client sent `shutdown`) drains in-flight jobs before returning.
#[derive(Debug)]
pub struct Server {
    running: Running,
}

impl Server {
    /// Binds the listener, builds (or adopts) the fleet, spawns the
    /// worker pool and the acceptor thread, and returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or a deployment error from fleet
    /// generation (surfaced as [`io::ErrorKind::InvalidInput`]).
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let mut profile = config.profile;
        let mut net = match config.preloaded {
            Some(net) => net,
            None => {
                let mut rng = StdRng::seed_from_u64(config.seed);
                deploy_uniform(fullview_geom::Torus::unit(), &profile, config.n, &mut rng)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            }
        };
        // Crash recovery: restore the base snapshot (writing it first if
        // absent, pinning the generated state), then replay the journal
        // suffix not yet folded into it.
        let wal = match &config.wal {
            None => None,
            Some(base) => {
                if base.exists() {
                    let snap = read_snapshot(base).map_err(invalid)?;
                    profile = snap.profile;
                    net = snap.net;
                } else {
                    write_snapshot(base, &profile, &net)?;
                }
                let wal_path = wal::wal_path_for(base);
                let scan = wal::read_wal(&wal_path).map_err(invalid)?;
                wal::replay_onto(&profile, &mut net, &scan.records).map_err(invalid)?;
                let writer = WalWriter::open(&wal_path, &scan)?;
                Some(WalState {
                    base: base.clone(),
                    writer: Mutex::new(writer),
                })
            }
        };
        let listener = TcpListener::bind(&config.addr)?;
        let net_fp = network_fingerprint(&net);
        let profile_fp = profile_fingerprint(&profile);
        let ctx = Arc::new(ServerCtx {
            fleet: RwLock::new(Fleet {
                profile,
                net,
                net_fp,
                profile_fp,
            }),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            sweeps: Mutex::new(SweepRegistry::new()),
            watches: Mutex::new(WatchHub::new()),
            metrics: Metrics::new(),
            queue: JobQueue::new(config.workers, config.queue_capacity),
            admission: AdmissionControl::new(config.admit_rate, config.admit_burst),
            wal,
            tier: Tier::from_hier(config.hier),
            max_cells: config.max_cells,
            hier_stats: Mutex::new(ProverStats::default()),
            theta_default: config.theta,
            reseed_n: config.n.max(1),
        });
        Ok(Server {
            running: Running::spawn(listener, ctx)?,
        })
    }

    /// The bound address (useful with an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.running.local_addr()
    }

    /// Initiates shutdown programmatically (equivalent to a client
    /// `shutdown` request). Returns without waiting; see
    /// [`wait`](Self::wait).
    pub fn shutdown(&self) {
        self.running.shutdown();
    }

    /// Blocks until the daemon has fully stopped: acceptor exited, every
    /// connection handler finished, and the job queue drained.
    pub fn wait(self) {
        self.running.wait();
    }
}

impl Frontend for ServerCtx {
    const FRONT: Front = Front::Daemon;

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn max_cells(&self) -> usize {
        self.max_cells
    }

    fn admit(&self, client: &str) -> Result<(), u64> {
        self.admission.admit(client)
    }

    fn dispatch(self: &Arc<Self>, call: &Call<'_>) -> Result<String, String> {
        match call.verb.kind {
            Kind::Query(query) => run_query(self, query, call),
            Kind::Mutation(mutation) => run_mutation(
                self,
                call.verb.name,
                mutation.op(&call.params, self.reseed_n),
            ),
            Kind::Stats => Ok(render_stats(self)),
            Kind::Fingerprint => Ok(fingerprint_text(self)),
            Kind::Snapshot => run_snapshot(self, call.req.raw("path")),
            Kind::Restore => run_restore(self, call.req.raw("path").unwrap_or_default()),
            Kind::Ping => Ok("pong\n".to_string()),
            Kind::Shutdown => Ok("shutting down: draining in-flight jobs\n".to_string()),
            // The connection loop answers `hello` and `watch` itself, and
            // `validate` never admits the coordinator's `shards` here.
            Kind::Hello | Kind::Watch | Kind::Shards => {
                Err(verbs::unknown_verb(Front::Daemon, call.verb.name))
            }
        }
    }

    fn watch(
        &self,
        call: &Call<'_>,
        stream: &TcpStream,
        _stopping: &AtomicBool,
        subscribed: &dyn Fn(),
    ) -> Result<(), String> {
        run_watch(self, &call.params, stream)?;
        subscribed();
        Ok(())
    }

    fn drained(&self) {
        // Any job a handler already submitted completes before the pool
        // stops.
        self.queue.shutdown();
    }
}

/// The canonical cache key of a query: the verb name plus every resolved
/// parameter that can change the answer (a field the verb does not take
/// always holds its default, so the key stays exact). The fleet
/// fingerprint is deliberately *not* part of the key — it rides on the
/// cache entry instead (see [`crate::cache`]), so a mutation downgrades
/// entries to stale rather than stranding them under unreachable keys,
/// and a `restore` back to a previous fingerprint revives them. Neither
/// is `deadline_ms`: a budget never changes an answer.
fn digest(name: &str, theta: EffectiveAngle, p: &Params) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str(name);
    h.write_f64(theta.radians());
    for n in [p.extent, p.k, p.lo, p.hi] {
        h.write_usize(n);
    }
    h.write_f64(p.density);
    h.finish()
}

/// The fingerprint a query's answers depend on: the profile alone for
/// the theory verb, the deployed network for every sweep.
fn fp_for(fleet: &Fleet, query: Query) -> u64 {
    if query == Query::Prob {
        fleet.profile_fp
    } else {
        fleet.net_fp
    }
}

/// Computes a query answer. Every dense-grid verb reads a warm state,
/// repaired first if a mutation dirtied it: `check` the flags state's
/// report, `holes`, `mask` and `barrier` its full-view mask, `map` and
/// `cells` its glyphs, `kfull` and `kcount` a k-count state's count.
/// Callers hold the fleet read lock; the sweeps lock is taken briefly
/// inside (lock order `fleet` → `sweeps`).
fn compute(
    ctx: &ServerCtx,
    fleet: &Fleet,
    query: Query,
    theta: EffectiveAngle,
    params: &Params,
) -> String {
    let (side, net) = (params.extent, &fleet.net);
    let (lo, hi) = (params.lo, params.hi);
    match query {
        Query::Check => {
            let side = dense_grid(*net.torus(), net.len()).side_count();
            let report = read_flags(ctx, net, theta, side, |state| state.report().clone());
            format!(
                "{} cameras\n{report}\nfull-view fraction {:.4}\n",
                net.len(),
                report.full_view_fraction()
            )
        }
        Query::Map => {
            let glyphs = read_flags(ctx, net, theta, side, |state| {
                state.glyphs(0, params.cells())
            });
            coverage_map_from_glyphs(side, &glyphs)
        }
        Query::Holes => read_flags(ctx, net, theta, side, |state| {
            hole_report_text(&holes_from_mask(*net.torus(), side, state.mask()))
        }),
        Query::Kfull => {
            let meeting = read_k_count(ctx, net, theta, params.k, side, |state| {
                state.count(0, params.cells())
            });
            kfull_text(params.k, side, meeting, params.cells())
        }
        Query::Cells => read_flags(ctx, net, theta, side, |state| state.glyphs(lo, hi)),
        Query::Mask => read_flags(ctx, net, theta, side, |state| {
            let mask = state.mask();
            (lo..hi)
                .map(|idx| if mask.get(idx) { '1' } else { '0' })
                .collect()
        }),
        Query::Kcount => {
            let meeting =
                read_k_count(ctx, net, theta, params.k, side, |state| state.count(lo, hi));
            format!("{meeting}\n")
        }
        Query::Barrier => read_flags(ctx, net, theta, side, |state| {
            format!("{}\n", barrier_from_mask(side, state.mask()))
        }),
        Query::Prob => {
            let density = params.density;
            let mut out = String::new();
            let _ = writeln!(out, "density {density}, {theta}");
            let _ = writeln!(
                out,
                "P_N (Theorem 3) = {:.4}",
                prob_point_meets_necessary_poisson(&fleet.profile, density, theta)
            );
            let _ = writeln!(
                out,
                "P_S (Theorem 4) = {:.4}",
                prob_point_meets_sufficient_poisson(&fleet.profile, density, theta)
            );
            let _ = writeln!(
                out,
                "exact P(full-view) = {:.4}",
                prob_point_full_view_poisson(&fleet.profile, density, theta)
            );
            out
        }
    }
}

/// Cache-or-queue execution of one query request. A fresh entry (same
/// digest, same fingerprint) is served directly; a stale or absent one
/// recomputes through the job queue and repairs the cache entry in
/// place.
fn run_query(ctx: &Arc<ServerCtx>, query: Query, call: &Call<'_>) -> Result<String, String> {
    let (received, params) = (call.received, call.params);
    let theta = params.theta.unwrap_or(ctx.theta_default);
    // The deadline is absolute from receipt; a fresh cache hit is free
    // and is served even with an exhausted budget — only queued compute
    // is shed.
    let deadline_at = params.deadline(received);
    let budget_ms = params.deadline_ms.unwrap_or(0);
    let key = digest(call.verb.name, theta, &params);
    let current_fp = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        fp_for(&fleet, query)
    };
    if let Lookup::Fresh(hit) = ctx.cache.lock().expect("cache lock").get(key, current_fp) {
        return Ok(hit);
    }
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_ctx = Arc::clone(ctx);
    ctx.queue
        .submit(
            call.client,
            Box::new(move || {
                // Shed the job if its budget expired while it sat in the
                // queue: computing an answer nobody is waiting for would
                // only deepen an overload.
                if let Some(at) = deadline_at {
                    let now = Instant::now();
                    if now >= at {
                        let spent = now.duration_since(received).as_millis();
                        let _ = tx.send(Err(format!(
                            "deadline exceeded: {budget_ms}ms budget spent ({spent}ms) before compute started"
                        )));
                        return;
                    }
                }
                // The fingerprint is read under the same fleet lock the
                // answer is computed under, so the cache entry always tags
                // the payload with the state it was computed from — even if
                // the fleet mutated between the lookup and this job.
                let (fp, payload) = {
                    let fleet = job_ctx.fleet.read().expect("fleet lock");
                    (
                        fp_for(&fleet, query),
                        compute(&job_ctx, &fleet, query, theta, &params),
                    )
                };
                job_ctx.cache.lock().expect("cache lock").insert(
                    key,
                    payload.clone(),
                    query != Query::Prob,
                    fp,
                );
                let _ = tx.send(Ok(payload));
            }),
        )
        .map_err(|e| e.to_string())?;
    rx.recv()
        .map_err(|_| "worker dropped the job (shutting down?)".to_string())?
}

/// Repairs every watched sweep state against the just-mutated fleet and
/// builds one delta frame per watched configuration.
///
/// Must run with the watches lock held *and* inside the mutation's
/// fleet-write section: marking dirt and repairing under the same write
/// lock guarantees no concurrent query can observe the post-mutation
/// network without the mutation's dirt (the silent-divergence bug this
/// PR's sweep closes), and holding watches across the whole mutation
/// serializes frames in mutation order.
///
/// Frame field order is fixed (see DESIGN.md): `delta cause=… grid=…
/// theta-deg=… tiles=… points=… flipped_on=… flipped_off=…
/// fraction_before=… fraction_after=… holes_before=… holes_after=…
/// holes_opened=… holes_closed=… rebuilt=…`, with the per-subscriber
/// `seq=…` appended at delivery.
fn watch_frames(
    ctx: &ServerCtx,
    watches: &mut WatchHub,
    fleet: &Fleet,
    cause: &str,
) -> Vec<(SweepKey, String)> {
    if watches.subs.is_empty() {
        return Vec::new();
    }
    let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
    let mut frames = Vec::new();
    for (key, theta, grid) in watches.watched_configs() {
        let (state, delta) = warm_sweep(ctx, &mut sweeps, &fleet.net, theta, grid);
        let fraction = state.report().full_view_fraction();
        let holes = holes_from_mask(*fleet.net.torus(), grid, state.mask())
            .holes
            .len();
        let (fraction_before, holes_before) =
            watches.last.get(&key).copied().unwrap_or((fraction, holes));
        let frame = format!(
            "delta cause={cause} grid={grid} theta-deg={:.4} tiles={} points={} flipped_on={} flipped_off={} fraction_before={fraction_before:.6} fraction_after={fraction:.6} holes_before={holes_before} holes_after={holes} holes_opened={} holes_closed={} rebuilt={}",
            theta.radians().to_degrees(),
            delta.tiles_resweeped,
            delta.points_resweeped,
            delta.flipped_on.len(),
            delta.flipped_off.len(),
            holes.saturating_sub(holes_before),
            holes_before.saturating_sub(holes),
            delta.rebuilt,
        );
        watches.last.insert(key, (fraction, holes));
        frames.push((key, frame));
    }
    frames
}

/// Writes each frame to its subscribers as a complete ok-framed
/// response, pruning subscribers whose connection died and unpinning
/// the sweep slots nobody watches any more. Runs under the watches
/// lock, after the fleet write lock is released.
fn deliver_frames(ctx: &ServerCtx, watches: &mut WatchHub, frames: &[(SweepKey, String)]) {
    if frames.is_empty() {
        return;
    }
    watches.subs.retain_mut(|sub| {
        let Some((_, frame)) = frames.iter().find(|(key, _)| *key == sub.key) else {
            return true;
        };
        sub.seq += 1;
        let payload = format!("{frame} seq={}\n", sub.seq);
        let mut writer = &sub.stream;
        protocol::write_ok(&mut writer, &payload).is_ok()
    });
    let watched: Vec<SweepKey> = watches.subs.iter().map(|sub| sub.key).collect();
    ctx.sweeps.lock().expect("sweep lock").set_pins(&watched);
}

/// Journals one validated mutation — fsync'd — before the caller
/// applies it. A journal write failure *rejects* the mutation
/// (durability before availability). No-op without `--wal`. Callers
/// hold the fleet write lock, so records land in application order.
fn journal(ctx: &ServerCtx, pre_fp: u64, op: WalOp) -> Result<(), String> {
    let Some(state) = &ctx.wal else {
        return Ok(());
    };
    state
        .writer
        .lock()
        .expect("wal lock")
        .append(&WalRecord { pre_fp, op })
        .map_err(|e| format!("journal append failed, mutation rejected: {e}"))
}

/// The one live mutation path. The op is checked against the fleet
/// ([`wal::prepare_op`]: id in range, finite target, a deployment that
/// succeeds), journaled, then committed with [`wal::commit_op`] — the two
/// halves of the [`wal::apply_op`] replay runs — so nothing can fail once
/// the record is on disk. Dirt is marked from the op: the old and new
/// sensing disks of a `fail`/`move`, everything for a `reseed`.
fn run_mutation(ctx: &ServerCtx, cause: &str, op: WalOp) -> Result<String, String> {
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (summary, net_fp, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let prepared = wal::prepare_op(&fleet.profile, &fleet.net, &op)?;
        journal(ctx, fleet.net_fp, op)?;
        let departed = match op {
            WalOp::Fail { id } | WalOp::Move { id, .. } => Some(fleet.net.cameras()[id]),
            WalOp::Reseed { .. } => None,
        };
        wal::commit_op(&mut fleet.net, prepared);
        fleet.net_fp = network_fingerprint(&fleet.net);
        let net = &fleet.net;
        let summary = match op {
            WalOp::Fail { id } => format!("failed camera {id}; {} cameras remain", net.len()),
            WalOp::Move { id, .. } => {
                format!("moved camera {id} to {}", net.cameras()[id].position())
            }
            WalOp::Reseed { seed, .. } => {
                format!("reseeded fleet: {} cameras from seed {seed}", net.len())
            }
        };
        {
            let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
            match departed {
                // Wholesale replacement: the fleet size (and with it the
                // dense grid and spatial-index geometry) may have changed,
                // so every warm state rebuilds rather than repairs.
                None => sweeps.invalidate_all(),
                Some(camera) => {
                    let radius = camera.spec().radius();
                    sweeps.mark_disk_all(camera.position(), radius);
                    if let WalOp::Move { id, .. } = op {
                        sweeps.mark_disk_all(net.cameras()[id].position(), radius);
                    }
                }
            }
        }
        let frames = watch_frames(ctx, &mut watches, &fleet, cause);
        (summary, fleet.net_fp, frames)
    };
    let invalidated = ctx.cache.lock().expect("cache lock").note_mutation(net_fp);
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "{summary}; invalidated {invalidated} cached results\n"
    ))
}

/// The `fingerprint` verb: the canonical identity of the current fleet,
/// used by the cluster coordinator to detect shard divergence. The torus
/// side rides along as exact bits so the coordinator can reconstruct
/// grid geometry (hole centroids) without guessing the region.
fn fingerprint_text(ctx: &ServerCtx) -> String {
    let fleet = ctx.fleet.read().expect("fleet lock");
    format!(
        "net_fp={} profile_fp={} cameras={} torus=0x{:016x}\n",
        fleet.net_fp,
        fleet.profile_fp,
        fleet.net.len(),
        fleet.net.torus().side().to_bits()
    )
}

/// The `snapshot` verb: persist the warm fleet to disk. With `--wal`,
/// `path` defaults to the journal's base snapshot, and snapshotting to
/// the base is a **checkpoint**: the journal truncates once the
/// snapshot rename lands. Both steps run under the fleet lock, so no
/// mutation can slip between them; a crash in the window between them
/// is healed on recovery by the replay chain skipping records the
/// snapshot already contains.
fn run_snapshot(ctx: &ServerCtx, path: Option<&str>) -> Result<String, String> {
    let path = match (path, &ctx.wal) {
        (Some(path), _) => path.to_string(),
        (None, Some(state)) => state.base.display().to_string(),
        (None, None) => return Err("missing required parameter 'path'".to_string()),
    };
    let is_checkpoint = ctx.wal.as_ref().is_some_and(|w| Path::new(&path) == w.base);
    let (net_fp, profile_fp, truncated) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        let (net_fp, profile_fp) = write_snapshot(Path::new(&path), &fleet.profile, &fleet.net)
            .map_err(|e| format!("snapshot to {path} failed: {e}"))?;
        let truncated = if is_checkpoint {
            let state = ctx.wal.as_ref().expect("checkpoint implies wal");
            let mut writer = state.writer.lock().expect("wal lock");
            let n = writer.records();
            writer
                .truncate()
                .map_err(|e| format!("journal truncate failed: {e}"))?;
            Some(n)
        } else {
            None
        };
        (net_fp, profile_fp, truncated)
    };
    match truncated {
        Some(n) => Ok(format!(
            "snapshot written to {path} (net_fp={net_fp} profile_fp={profile_fp}); journal truncated ({n} records checkpointed)\n"
        )),
        None => Ok(format!(
            "snapshot written to {path} (net_fp={net_fp} profile_fp={profile_fp})\n"
        )),
    }
}

/// The `restore` verb: adopt a snapshotted fleet. When the network
/// fingerprint actually changes, warm sweep states are invalidated and
/// watchers get a delta frame; restoring the state the daemon already
/// holds touches nothing. Cache entries are never removed — entries
/// computed against the restored fingerprint become fresh again, and
/// the mutation accounting counts only entries this restore staled.
fn run_restore(ctx: &ServerCtx, path: &str) -> Result<String, String> {
    let snap = read_snapshot(Path::new(path)).map_err(|e| format!("restore from {path}: {e}"))?;
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (cameras, changed, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let changed = fleet.net_fp != snap.net_fp;
        fleet.profile = snap.profile;
        fleet.net = snap.net;
        fleet.net_fp = snap.net_fp;
        fleet.profile_fp = snap.profile_fp;
        let frames = if changed {
            ctx.sweeps.lock().expect("sweep lock").invalidate_all();
            watch_frames(ctx, &mut watches, &fleet, "restore")
        } else {
            Vec::new()
        };
        // A wholesale restore resets the journal's chain: checkpoint
        // immediately so recovery restarts from the restored state.
        if let Some(state) = &ctx.wal {
            write_snapshot(&state.base, &fleet.profile, &fleet.net)
                .map_err(|e| format!("restore applied but checkpoint failed: {e}"))?;
            state
                .writer
                .lock()
                .expect("wal lock")
                .truncate()
                .map_err(|e| format!("restore applied but checkpoint failed: {e}"))?;
        }
        (fleet.net.len(), changed, frames)
    };
    let invalidated = if changed {
        ctx.cache
            .lock()
            .expect("cache lock")
            .note_mutation(snap.net_fp)
    } else {
        0
    };
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "restored {cameras} cameras from {path} (net_fp={} profile_fp={}); invalidated {invalidated} cached results\n",
        snap.net_fp, snap.profile_fp
    ))
}

/// The `watch` verb: registers the connection as a delta subscriber.
///
/// The baseline frame (seq 0) is written while the watches lock is
/// held, so no mutation can slip between the baseline and the first
/// delta. On success the connection belongs to the hub — the handler
/// must stop reading from it and return.
fn run_watch(ctx: &ServerCtx, params: &Params, stream: &TcpStream) -> Result<(), String> {
    let theta = params.theta.unwrap_or(ctx.theta_default);
    let grid = params.extent;
    let sub_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let mut watches = ctx.watches.lock().expect("watch lock");
    let key = sweep_key(theta, grid, Holds::Flags);
    let (fraction, holes) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
        let (state, _) = warm_sweep(ctx, &mut sweeps, &fleet.net, theta, grid);
        let fraction = state.report().full_view_fraction();
        let holes = holes_from_mask(*fleet.net.torus(), grid, state.mask())
            .holes
            .len();
        sweeps.pin(key);
        (fraction, holes)
    };
    let baseline = format!(
        "watching grid={grid} theta-deg={:.4} fraction={fraction:.6} holes={holes} seq=0\n",
        theta.radians().to_degrees()
    );
    let mut writer = stream;
    protocol::write_ok(&mut writer, &baseline).map_err(|e| e.to_string())?;
    watches.last.insert(key, (fraction, holes));
    watches.subs.push(WatchSub {
        key,
        theta,
        grid,
        stream: sub_stream,
        seq: 0,
    });
    Ok(())
}

fn render_stats(ctx: &ServerCtx) -> String {
    let (cameras, groups) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        (fleet.net.len(), fleet.profile.group_count())
    };
    let cache = ctx.cache.lock().expect("cache lock").stats();
    let watchers = ctx.watches.lock().expect("watch lock").subs.len();
    let snap = ctx.metrics.snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service: uptime_s={:.1} cameras={cameras} profile_groups={groups} watchers={watchers}",
        snap.uptime_s
    );
    let _ = write!(out, "requests:");
    for (endpoint, count) in &snap.counts {
        let _ = write!(out, " {endpoint}={count}");
    }
    let _ = writeln!(
        out,
        " total={} rejected={} busy={}",
        snap.total, snap.rejected, snap.busy
    );
    let _ = writeln!(
        out,
        "queue: depth={} capacity={} workers={}",
        ctx.queue.depth(),
        ctx.queue.capacity(),
        ctx.queue.workers()
    );
    let adm = ctx.admission.snapshot();
    let _ = write!(
        out,
        "admission: rate={} burst={} clients={} admitted={} busy={}",
        adm.rate,
        adm.burst,
        adm.clients.len(),
        adm.admitted,
        adm.busy
    );
    for (name, admitted, busy) in &adm.clients {
        let _ = write!(out, " {name}={admitted}/{busy}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "cache: entries={} capacity={} hits={} misses={} stale={} hit_rate={:.4} evictions={} invalidated={}",
        cache.entries,
        cache.capacity,
        cache.hits,
        cache.misses,
        cache.stale,
        cache.hit_rate(),
        cache.evictions,
        cache.invalidated
    );
    if let Some(state) = &ctx.wal {
        let writer = state.writer.lock().expect("wal lock");
        let _ = writeln!(
            out,
            "wal: base={} records={} appended={} truncations={}",
            state.base.display(),
            writer.records(),
            writer.appended(),
            writer.truncations()
        );
    }
    let hier_stats = *ctx.hier_stats.lock().expect("hier stats lock");
    let _ = writeln!(out, "hier: enabled={} {hier_stats}", ctx.tier == Tier::Hier);
    {
        let sweeps = ctx.sweeps.lock().expect("sweep lock");
        let c = &sweeps.counters;
        let _ = writeln!(
            out,
            "sweeps: slots={} cap={SWEEP_REGISTRY_CAP} builds={} repairs={} repaired_points={} reads={} evictions={}",
            sweeps.slots.len(),
            c.builds,
            c.repairs,
            c.repaired_points,
            c.reads,
            c.evictions
        );
    }
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
