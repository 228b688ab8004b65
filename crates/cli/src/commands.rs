//! The `fvc` subcommand implementations.
//!
//! Each command builds its inputs from [`Cli`], runs the corresponding
//! library functionality, and prints a human-readable report. All
//! commands accept `--theta-deg` (default 45) and, where relevant,
//! `--radius`, `--aov-deg`, `--n`, and `--seed`.

use crate::args::{ArgError, Cli};
use fullview_bench::loadgen::{
    append_bench_entry, parse_mix, run_load, sweep, sweep_entry_json, LoadConfig,
};
use fullview_cluster::{ClusterConfig, Coordinator};
use fullview_core::{
    analyze_point, barrier_full_view, classify_csa, coverage_map_from_glyphs, critical_esr,
    csa_necessary, csa_one_coverage, csa_sufficient, dense_grid, hole_report_text, holes_from_mask,
    is_full_view_covered, max_cameras_below_necessary, min_cameras_for_guarantee,
    prob_point_full_view_poisson, prob_point_full_view_uniform, prob_point_meets_necessary_poisson,
    prob_point_meets_sufficient_poisson, required_area_for_expected_fraction, unsafe_directions,
    EffectiveAngle,
};
use fullview_core::{evaluate_path, Path};
use fullview_deploy::{deploy_poisson, deploy_uniform};
use fullview_geom::{Angle, Point, Torus};
use fullview_hier::{ProverStats, Tier};
use fullview_model::{
    empirical_profile, network_from_text, network_to_text, profile_from_text, CameraNetwork,
    NetworkProfile, SensorSpec,
};
use fullview_plan::{greedy_place, optimize_orientations, GreedyPlacer, OrientationPlanner};
use fullview_service::{verbs, Client, Response, Server, ServiceConfig};
use fullview_sim::evaluate_dense_grid_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::io::{self, Write as _};

/// Runs the parsed command line; returns a process exit code message.
///
/// # Errors
///
/// Propagates argument and model errors with readable messages.
pub fn run(cli: &Cli) -> Result<(), Box<dyn Error>> {
    if let Some(sub) = cli.subcommand() {
        if let Some(allowed) = allowed_options(sub, cli.action()) {
            cli.reject_unknown(&allowed)?;
        }
    }
    match cli.subcommand() {
        Some("csa") => cmd_csa(cli),
        Some("check") => cmd_check(cli),
        Some("poisson") => cmd_poisson(cli),
        Some("map") => cmd_map(cli),
        Some("holes") => cmd_holes(cli),
        Some("barrier") => cmd_barrier(cli),
        Some("plan") => cmd_plan(cli),
        Some("aim") => cmd_aim(cli),
        Some("point") => cmd_point(cli),
        Some("size") => cmd_size(cli),
        Some("route") => cmd_route(cli),
        Some("failures") => cmd_failures(cli),
        Some("save") => cmd_save(cli),
        Some("serve") => cmd_serve(cli),
        Some("query") => cmd_query(cli),
        Some("watch") => cmd_watch(cli),
        Some("cluster") => cmd_cluster(cli),
        Some("bench") => cmd_bench(cli),
        Some(other) => Err(Box::new(ArgError(format!(
            "unknown subcommand '{other}'\n{USAGE}"
        )))),
        None => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

/// The options and flags each subcommand (and, for action subcommands
/// like `cluster`, each `sub action` pair) accepts; anything else is
/// rejected up front with a "did you mean" hint. `None` for a subcommand
/// or action we do not know (its own error message follows in `run`).
fn allowed_options(sub: &str, action: Option<&str>) -> Option<Vec<&'static str>> {
    /// The network-building options of every command that deploys or
    /// loads a fleet.
    const NETWORK: &[&str] = &[
        "theta-deg",
        "radius",
        "aov-deg",
        "n",
        "seed",
        "profile",
        "load",
    ];
    // Per-command extras, after the shared network options where the
    // command builds a network.
    let (network, extras): (&[&str], &[&str]) = match sub {
        "csa" => (&[], &["n", "theta-deg", "area"]),
        "check" => (NETWORK, &["threads", "hier"]),
        "poisson" => (
            &[],
            &[
                "density",
                "theta-deg",
                "radius",
                "aov-deg",
                "seed",
                "profile",
                "threads",
            ],
        ),
        "map" => (NETWORK, &["side", "hier"]),
        "holes" => (NETWORK, &["grid", "hier"]),
        "barrier" => (NETWORK, &["grid", "addr"]),
        "plan" => (&[], &["theta-deg", "radius", "aov-deg", "grid", "budget"]),
        "aim" => (NETWORK, &["grid", "candidates", "rounds"]),
        "point" => (NETWORK, &["x", "y", "verbose"]),
        "size" => (
            &[],
            &["theta-deg", "radius", "aov-deg", "n", "fraction", "profile"],
        ),
        "route" => (NETWORK, &["route", "step"]),
        "failures" => (NETWORK, &["p", "fail-seed", "threads"]),
        "save" => (
            &[],
            &["radius", "aov-deg", "n", "seed", "profile", "load", "out"],
        ),
        "serve" => (
            NETWORK,
            &[
                "addr",
                "workers",
                "queue",
                "cache",
                "admit-rate",
                "admit-burst",
                "wal",
                "hier",
                "max-cells",
            ],
        ),
        "query" => (&[], &["addr", "req", "window", "deadline-ms"]),
        "watch" => (&[], &["addr", "grid", "theta-deg", "count"]),
        "cluster" => match action {
            Some("serve") => (
                &[],
                &[
                    "addr",
                    "shards",
                    "chunks",
                    "inflight",
                    "retries",
                    "backoff-ms",
                    "backoff-cap-ms",
                    "breaker-threshold",
                    "snapshot-dir",
                    "replicas",
                    "max-cells",
                ],
            ),
            Some("status") => (&[], &["addr"]),
            _ => return None,
        },
        "bench" => match action {
            Some("load") => (
                &[],
                &[
                    "addr",
                    "clients",
                    "rate",
                    "duration-ms",
                    "mix",
                    "sweep",
                    "growth",
                    "max-steps",
                    "out",
                    "id",
                ],
            ),
            _ => return None,
        },
        _ => return None,
    };
    Some(network.iter().chain(extras).copied().collect())
}

/// Top-level usage text.
pub const USAGE: &str = "\
fvc — full-view coverage analysis (Wu & Wang, ICDCS 2012)

USAGE: fvc <COMMAND> [--key value ...]

COMMANDS:
  csa      critical sensing areas and regime classification
             --n 1000 --theta-deg 45 [--area S]
  check    deploy uniformly at random and evaluate the dense grid
             --n 1000 --theta-deg 45 --radius 0.1 --aov-deg 90 [--seed 0]
  poisson  Theorems 3-4 + exact probability under Poisson deployment
             --density 800 --theta-deg 45 --radius 0.1 --aov-deg 90
  map      ASCII coverage map of a random deployment
             --n 900 --theta-deg 45 --radius 0.1 --aov-deg 90 [--side 48]
  holes    spatial full-view coverage holes of a random deployment
             --n 900 --theta-deg 45 --radius 0.1 --aov-deg 90 [--grid 24]
  barrier  barrier full-view coverage: is there a full-view-covered
           horizontal crossing path? (--addr asks a running daemon or
           cluster instead — identical output bytes)
             --n 900 --theta-deg 45 [--grid 24] [--addr 127.0.0.1:7411]
  plan     greedy deliberate placement to full-view cover the region
             --theta-deg 45 --radius 0.15 --aov-deg 90
  aim      re-orient a random deployment's cameras (fixed positions)
             --n 400 --theta-deg 45 --radius 0.15 --aov-deg 90
  point    analyse one point of a random deployment
             --x 0.5 --y 0.5 --n 1000 --theta-deg 45 --radius 0.1 --aov-deg 90
  size     fleet sizing: Theorem 1/2 bounds and exact-fraction targets
             --radius 0.1 --aov-deg 90 --theta-deg 45 [--n 1000 --fraction 0.95]
  failures what-if: random camera failures on a deployment
             --n 1000 --p 0.3 --radius 0.1 --aov-deg 90 [--load net.txt]
  route    full-view coverage along a patrol route
             --route 0.1,0.1:0.9,0.1:0.9,0.9 [--step 0.01] [--load net.txt]
  save     write a generated deployment to the text format
             --out net.txt --n 1000 --radius 0.1 --aov-deg 90 [--seed 0]
  serve    run the coverage-evaluation daemon (TCP, line protocol)
             --addr 127.0.0.1:7411 --n 400 [--workers 2 --queue 64 --cache 128]
             [--admit-rate R --admit-burst B]  per-client admission control
             (R requests/s refill, burst B; 0 = no limit; clients identify
             with 'hello client=NAME', unnamed traffic shares 'anon')
             [--wal PATH]  crash-safe persistence: restore PATH (snapshot)
             + PATH.wal (journal) on start, journal every mutation before
             applying; 'snapshot' (no path) checkpoints and truncates
             [--hier]  build the warm grid states cold through the
             hierarchical prover (identical bytes; prover tallies
             under 'stats')
             [--max-cells N]  reject grid requests over N cells with a
             named err instead of attempting them
  query    send requests to a running daemon or cluster over one
           persistent connection; repeat --req to pipeline several
             --addr 127.0.0.1:7411 --req 'map side=24' --req stats
             (also: check, holes, kfull, prob, barrier grid=N,
             fail id=N, move id=N x=X y=Y, reseed seed=S, ping, shutdown)
             [--deadline-ms MS]  per-request budget appended to query
             verbs; queued work past the budget is shed with an err
  watch    subscribe to live coverage deltas from a daemon or cluster;
           prints the baseline then one frame per fleet mutation
             --addr 127.0.0.1:7411 [--grid 24 --theta-deg 45 --count 0]
             (--count N exits after N deltas; 0 streams forever)
  cluster  front N daemons with a scatter-gather coordinator
             serve  --shards 127.0.0.1:7411,127.0.0.1:7413
                    [--addr 127.0.0.1:7412 --snapshot-dir DIR --chunks C
                     --inflight W --retries R --backoff-ms B --replicas K
                     --breaker-threshold F]  (a shard's circuit breaker
                     trips open after F consecutive failures and re-probes
                     on a doubling cooldown capped at --backoff-cap-ms)
                    (--replicas K groups consecutive shards into replica
                     sets: reads balance across the least-loaded live
                     replica, mutations broadcast to every shard)
                    [--max-cells N]  coordinator-side grid budget: reject
                     oversized ranged queries before scattering them
             status [--addr 127.0.0.1:7412]
  bench    drive a daemon or cluster with an open-loop load generator
             load   --addr 127.0.0.1:7411 [--clients 4 --rate 200
                     --duration-ms 2000 --mix 'check=3,ping=1']
                    [--sweep --growth 2 --max-steps 6]  step rate until
                     saturation (achieved < 90% of target or >10% busy)
                    [--out BENCH_sweep.json --id bench_load/default]

Most commands accept --load FILE to analyse a saved network (see `save`)
instead of generating a random one, and --profile FILE to use a
heterogeneous mix (text format: one 'fraction radius aov_rad' per line).
Dense-grid commands (check, poisson, failures) accept --threads N to
parallelise the grid sweep (0 = one per CPU; at most one worker per CPU;
results are identical for every thread count). map, holes, and check
accept --hier to sweep via the hierarchical coverage prover:
byte-identical output, large grids (sides in the tens of thousands)
become practical, prover tallies print on stderr.";

/// `--theta-deg` (default 45) under the daemon's θ rule.
fn theta_of(cli: &Cli) -> Result<EffectiveAngle, Box<dyn Error>> {
    let raw: String = cli.get("theta-deg", "45".to_string())?;
    Ok(verbs::theta_of(&raw).map_err(ArgError)?)
}

/// A `--side`/`--grid` size under the daemon's extent rule.
fn extent_of(cli: &Cli, key: &str, default: usize) -> Result<usize, Box<dyn Error>> {
    let side = cli.get(key, default)?;
    verbs::extent_cells(side, 0).map_err(ArgError)?;
    Ok(side)
}

/// A finite `--key` value (default `default`).
fn finite_of(cli: &Cli, key: &str, default: f64) -> Result<f64, Box<dyn Error>> {
    let value: f64 = cli.get(key, default)?;
    if !value.is_finite() {
        return Err(Box::new(ArgError(format!(
            "--{key} must be finite, got {value}"
        ))));
    }
    Ok(value)
}

/// The evaluation tier of the dense-grid commands, read once from
/// `--hier`.
fn tier_of(cli: &Cli) -> Tier {
    Tier::from_hier(cli.flag("hier"))
}

/// Passes a tiered answer through, reporting the prover's work on stderr
/// (a screened sweep has none to report).
fn note_prover<T>((answer, stats): (T, ProverStats)) -> T {
    if stats != ProverStats::default() {
        eprintln!("hier: {stats}");
    }
    answer
}

/// Worker threads for dense-grid sweeps: `--threads N` (`0` = one per
/// CPU, the default; at most one worker per CPU). Bit-identical results
/// for every value.
fn threads_of(cli: &Cli) -> Result<usize, Box<dyn Error>> {
    Ok(cli.get("threads", 0usize)?)
}

fn spec_of(cli: &Cli) -> Result<SensorSpec, Box<dyn Error>> {
    let radius: f64 = cli.get("radius", 0.1)?;
    let aov: f64 = cli.get("aov-deg", 90.0)?;
    Ok(SensorSpec::new(radius, aov.to_radians())?)
}

/// The heterogeneous profile in effect: `--profile FILE` if given,
/// otherwise homogeneous from `--radius`/`--aov-deg`.
fn profile_of(cli: &Cli) -> Result<NetworkProfile, Box<dyn Error>> {
    let path: String = cli.get("profile", String::new())?;
    if path.is_empty() {
        return Ok(NetworkProfile::homogeneous(spec_of(cli)?));
    }
    let text = std::fs::read_to_string(&path)?;
    Ok(profile_from_text(&text)?)
}

fn network_of(cli: &Cli) -> Result<(NetworkProfile, CameraNetwork), Box<dyn Error>> {
    let load: String = cli.get("load", String::new())?;
    if !load.is_empty() {
        let text = std::fs::read_to_string(&load)?;
        let net = network_from_text(Torus::unit(), &text)?;
        // Prefer the as-built composition when it is recoverable.
        let profile = empirical_profile(&net).map_or_else(|| profile_of(cli), Ok)?;
        return Ok((profile, net));
    }
    let profile = profile_of(cli)?;
    let n: usize = cli.get("n", 1000)?;
    let seed: u64 = cli.get("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let net = deploy_uniform(Torus::unit(), &profile, n, &mut rng)?;
    Ok((profile, net))
}

fn parse_route(raw: &str) -> Result<Path, Box<dyn Error>> {
    let mut waypoints = Vec::new();
    for (i, part) in raw.split(':').enumerate() {
        let (x, y) = part
            .split_once(',')
            .ok_or_else(|| ArgError(format!("waypoint {} '{part}' is not 'x,y'", i + 1)))?;
        let (x, y): (f64, f64) = (x.trim().parse()?, y.trim().parse()?);
        if !(x.is_finite() && y.is_finite()) {
            return Err(Box::new(ArgError(format!(
                "waypoint {} '{part}' is not finite",
                i + 1
            ))));
        }
        waypoints.push(Point::new(x, y));
    }
    if waypoints.len() < 2 {
        return Err(Box::new(ArgError(
            "route needs at least two waypoints".into(),
        )));
    }
    Ok(Path::new(waypoints))
}

fn cmd_route(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let raw: String = cli.get("route", "0.1,0.1:0.9,0.9".to_string())?;
    let step: f64 = cli.get("step", 0.01)?;
    if !(step.is_finite() && step > 0.0) {
        return Err(Box::new(ArgError(format!(
            "--step must be finite and positive, got {step}"
        ))));
    }
    let path = parse_route(&raw)?;
    let (_, net) = network_of(cli)?;
    let report = evaluate_path(&net, &path, theta, step);
    println!("{report}");
    for (i, stretch) in report.exposed.iter().take(10).enumerate() {
        println!(
            "  exposed stretch {}: {} samples from index {}, ~{:.4} long",
            i + 1,
            stretch.samples,
            stretch.start_index,
            stretch.length
        );
    }
    Ok(())
}

fn cmd_failures(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let threads = threads_of(cli)?;
    let p: f64 = cli.get("p", 0.3)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(Box::new(ArgError(format!(
            "--p must lie in [0, 1], got {p}"
        ))));
    }
    let seed: u64 = cli.get("fail-seed", 1)?;
    let (_, net) = network_of(cli)?;
    let before = evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let failed = fullview_sim::with_random_failures(&net, p, &mut rng);
    let after = evaluate_dense_grid_parallel(&failed, theta, Angle::ZERO, threads);
    println!("before: {} cameras, {before}", net.len());
    println!("after p={p} failures: {} cameras, {after}", failed.len());
    println!(
        "full-view fraction {:.4} -> {:.4}",
        before.full_view_fraction(),
        after.full_view_fraction()
    );
    Ok(())
}

fn cmd_save(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let out: String = cli.get("out", String::new())?;
    if out.is_empty() {
        return Err(Box::new(ArgError("--out FILE is required".into())));
    }
    let (_, net) = network_of(cli)?;
    std::fs::write(&out, network_to_text(&net))?;
    println!("wrote {} cameras to {out}", net.len());
    Ok(())
}

fn cmd_csa(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let n: usize = cli.get("n", 1000)?;
    let theta = theta_of(cli)?;
    let s_nc = csa_necessary(n, theta);
    let s_sc = csa_sufficient(n, theta);
    println!("n = {n}, {theta}");
    println!("  necessary CSA  s_Nc(n) = {s_nc:.6}");
    println!(
        "  sufficient CSA s_Sc(n) = {s_sc:.6}  (ratio {:.2})",
        s_sc / s_nc
    );
    println!("  1-coverage CSA          = {:.6}", csa_one_coverage(n));
    println!("  critical ESR            = {:.6}", critical_esr(n));
    let area: f64 = cli.get("area", f64::NAN)?;
    if area.is_finite() {
        println!(
            "  your weighted area {area:.6} → regime {:?}",
            classify_csa(area, n, theta)
        );
    }
    Ok(())
}

fn cmd_check(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let (profile, net) = network_of(cli)?;
    let s_c = profile.weighted_sensing_area();
    println!(
        "deployed {} cameras (s_c = {s_c:.6}, regime {:?})",
        net.len(),
        classify_csa(s_c, net.len().max(3), theta)
    );
    let grid = dense_grid(*net.torus(), net.len());
    let report =
        note_prover(tier_of(cli).report(&net, &grid, theta, Angle::ZERO, threads_of(cli)?));
    println!("{report}");
    println!(
        "exact per-point full-view probability (theory): {:.4}",
        prob_point_full_view_uniform(&profile, net.len(), theta)
    );
    Ok(())
}

fn cmd_poisson(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let density: f64 = cli.get("density", 800.0)?;
    verbs::check_density(density).map_err(ArgError)?;
    let seed: u64 = cli.get("seed", 0)?;
    let profile = profile_of(cli)?;
    println!("density {density}, {theta}");
    println!(
        "  P_N (Theorem 3) = {:.4}",
        prob_point_meets_necessary_poisson(&profile, density, theta)
    );
    println!(
        "  P_S (Theorem 4) = {:.4}",
        prob_point_meets_sufficient_poisson(&profile, density, theta)
    );
    println!(
        "  exact P(full-view) = {:.4}",
        prob_point_full_view_poisson(&profile, density, theta)
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let net = deploy_poisson(Torus::unit(), &profile, density, &mut rng)?;
    let report = evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, threads_of(cli)?);
    println!("one sampled drop ({} cameras): {report}", net.len());
    Ok(())
}

fn cmd_map(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let side = extent_of(cli, "side", 48)?;
    let (_, net) = network_of(cli)?;
    let glyphs = note_prover(tier_of(cli).glyphs(&net, theta, side, 0, side * side));
    print!("{}", coverage_map_from_glyphs(side, &glyphs));
    Ok(())
}

fn cmd_holes(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let grid = extent_of(cli, "grid", 24)?;
    let (_, net) = network_of(cli)?;
    let mask = note_prover(tier_of(cli).mask(&net, theta, grid, 0, grid * grid));
    print!(
        "{}",
        hole_report_text(&holes_from_mask(*net.torus(), grid, &mask))
    );
    Ok(())
}

/// `fvc barrier` — barrier (weak-barrier) full-view coverage: does a
/// horizontal full-view-covered path cross the region? Runs locally on a
/// generated/loaded network, or — with `--addr` — asks a running daemon
/// or cluster coordinator and prints the identical bytes.
fn cmd_barrier(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let grid = extent_of(cli, "grid", 24)?;
    let addr: String = cli.get("addr", String::new())?;
    if !addr.is_empty() {
        // Daemon mode: only theta and grid travel; the fleet lives
        // server-side. The θ token travels as given, so the daemon's
        // validator answers it.
        let mut line = format!("barrier grid={grid}");
        if let Some(raw) = cli.get_all("theta-deg").last() {
            line.push_str(&format!(" theta-deg={raw}"));
        }
        let mut client = Client::connect(&addr)?;
        return match client.request(&line)? {
            Response::Ok(payload) => {
                print!("{payload}");
                Ok(())
            }
            Response::Err(message) => Err(Box::new(ArgError(format!("server: {message}")))),
        };
    }
    let theta = theta_of(cli)?;
    let (_, net) = network_of(cli)?;
    let report = barrier_full_view(&net, theta, grid);
    println!("{report}");
    Ok(())
}

fn cmd_plan(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let spec = spec_of(cli)?;
    let mut placer = GreedyPlacer::for_spec(spec);
    placer.grid_side = extent_of(cli, "grid", 16)?;
    placer.max_cameras = cli.get("budget", 2000)?;
    let outcome = greedy_place(Torus::unit(), theta, placer);
    println!("{outcome}");
    println!("for comparison, Theorem 2 random deployment needs s >= s_Sc(n): try `fvc csa`");
    Ok(())
}

fn cmd_aim(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let (_, net) = network_of(cli)?;
    let planner = OrientationPlanner {
        grid_side: extent_of(cli, "grid", 20)?,
        candidates: cli.get("candidates", 16)?,
        max_rounds: cli.get("rounds", 3)?,
    };
    let outcome = optimize_orientations(&net, theta, planner);
    println!("{outcome}");
    let eval_points = (planner.grid_side * planner.grid_side) as f64;
    println!(
        "covered fraction: {:.4} -> {:.4}",
        outcome.before.covered as f64 / eval_points,
        outcome.after.covered as f64 / eval_points
    );
    Ok(())
}

fn cmd_size(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let spec = spec_of(cli)?;
    let s = spec.sensing_area();
    println!("camera: {spec}, {theta}");
    match min_cameras_for_guarantee(s, theta) {
        Ok(n) => println!("  Theorem 2 guarantee:   n ≥ {n}"),
        Err(e) => println!("  Theorem 2 guarantee:   {e}"),
    }
    match max_cameras_below_necessary(s, theta)? {
        Some(n) => println!("  Theorem 1 impossible:  n ≤ {n}"),
        None => println!("  Theorem 1 impossible:  never (budget above the necessary CSA)"),
    }
    let n: usize = cli.get("n", 1000)?;
    let fraction: f64 = cli.get("fraction", 0.95)?;
    let profile = profile_of(cli)?;
    let s_needed = required_area_for_expected_fraction(&profile, n, theta, fraction)?;
    let per_camera_ratio = s_needed / s;
    println!(
        "  expected fraction ≥ {fraction} at n = {n}: total weighted area {s_needed:.5} \
         ({per_camera_ratio:.2}x this camera)"
    );
    Ok(())
}

fn cmd_point(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let theta = theta_of(cli)?;
    let p = Point::new(finite_of(cli, "x", 0.5)?, finite_of(cli, "y", 0.5)?);
    let (_, net) = network_of(cli)?;
    let analysis = analyze_point(&net, p);
    println!(
        "point {p}: {} covering cameras, largest gap {:.4} rad",
        analysis.covering_cameras, analysis.largest_gap
    );
    println!(
        "full-view covered: {}",
        is_full_view_covered(&net, p, theta)
    );
    if let Some(t) = analysis.critical_theta() {
        println!("critical effective angle here: {t:.4} rad");
    }
    let limit = if cli.flag("verbose") { usize::MAX } else { 8 };
    for hole in unsafe_directions(&net, p, theta).iter().take(limit) {
        println!(
            "  unsafe facing arc: centre {}, width {:.4} rad",
            hole.bisector(),
            hole.width()
        );
    }
    Ok(())
}

/// Builds a [`ServiceConfig`] from `fvc serve` options. Split from
/// [`cmd_serve`] so the option mapping is testable without binding a
/// socket or blocking on the daemon.
fn serve_config(cli: &Cli) -> Result<ServiceConfig, Box<dyn Error>> {
    let profile = profile_of(cli)?;
    let mut config = ServiceConfig::new(profile);
    config.addr = cli.get("addr", "127.0.0.1:7411".to_string())?;
    config.n = cli.get("n", 400)?;
    config.seed = cli.get("seed", 0)?;
    config.theta = theta_of(cli)?;
    config.workers = cli.get("workers", 2usize)?;
    config.queue_capacity = cli.get("queue", 64usize)?;
    config.cache_capacity = cli.get("cache", 128usize)?;
    config.admit_rate = cli.get("admit-rate", config.admit_rate)?;
    config.admit_burst = cli.get("admit-burst", config.admit_burst)?;
    config.hier = cli.flag("hier");
    config.max_cells = cli.get("max-cells", config.max_cells)?;
    let wal: String = cli.get("wal", String::new())?;
    if !wal.is_empty() {
        config.wal = Some(wal.into());
    }
    let load: String = cli.get("load", String::new())?;
    if !load.is_empty() {
        let text = std::fs::read_to_string(&load)?;
        let net = network_from_text(Torus::unit(), &text)?;
        // Prefer the as-built composition for theory endpoints when it
        // is recoverable (same policy as the one-shot commands).
        if let Some(profile) = empirical_profile(&net) {
            config.profile = profile;
        }
        config.preloaded = Some(net);
    }
    Ok(config)
}

fn cmd_serve(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let server = Server::start(serve_config(cli)?)?;
    let addr = server.local_addr();
    println!("fullview-service listening on {addr}");
    println!("stop with: fvc query --addr {addr} --req shutdown");
    server.wait();
    println!("fullview-service stopped");
    Ok(())
}

fn cmd_query(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let addr: String = cli.get("addr", "127.0.0.1:7411".to_string())?;
    let reqs: Vec<&str> = cli.get_all("req").collect();
    if reqs.is_empty() {
        return Err(Box::new(ArgError(
            "--req REQUEST is required (e.g. --req 'map side=24'; repeat to pipeline)".into(),
        )));
    }
    let window: usize = cli.get("window", 8usize)?;
    if window == 0 {
        return Err(Box::new(ArgError("--window must be positive".into())));
    }
    // `--deadline-ms` decorates only the verbs whose table row accepts
    // `deadline_ms`: budgets mean nothing to mutations, stats, or control
    // verbs, and the server would reject the unknown parameter there.
    let deadline_ms: u64 = cli.get("deadline-ms", u64::MAX)?;
    let reqs: Vec<String> = reqs
        .iter()
        .map(|r| {
            let verb = r.split_whitespace().next().unwrap_or("");
            let budgeted = verbs::lookup(verb).is_some_and(|v| v.keys.contains(&"deadline_ms"));
            if deadline_ms != u64::MAX && budgeted {
                format!("{r} deadline_ms={deadline_ms}")
            } else {
                (*r).to_string()
            }
        })
        .collect();
    let reqs: Vec<&str> = reqs.iter().map(String::as_str).collect();
    // One persistent connection; all requests pipelined through it with a
    // bounded in-flight window, answers printed in request order.
    let mut client = Client::connect(&addr)?;
    let responses = client.pipeline(&reqs, window)?;
    let mut failures: Vec<String> = Vec::new();
    for (req, response) in reqs.iter().zip(responses) {
        match response {
            Response::Ok(payload) => print!("{payload}"),
            Response::Err(message) => failures.push(format!("'{req}': {message}")),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(Box::new(ArgError(format!(
            "server rejected {} of {} requests: {}",
            failures.len(),
            reqs.len(),
            failures.join("; ")
        ))))
    }
}

/// `fvc watch` — subscribe to a daemon's (or cluster's) delta stream and
/// print frames as mutations land. The subscription holds the connection
/// open, so this is a dedicated command rather than a `query` request.
fn cmd_watch(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let addr: String = cli.get("addr", "127.0.0.1:7411".to_string())?;
    let grid: usize = cli.get("grid", 24usize)?;
    let count: usize = cli.get("count", 0usize)?;
    // The θ token travels as given, so the daemon's validator answers it.
    let mut line = format!("watch grid={grid}");
    if let Some(raw) = cli.get_all("theta-deg").last() {
        line.push_str(&format!(" theta-deg={raw}"));
    }
    let mut client = Client::connect(&addr)?;
    match client.request(&line)? {
        Response::Ok(baseline) => print!("{baseline}"),
        Response::Err(message) => {
            return Err(Box::new(ArgError(format!("server: {message}"))));
        }
    }
    // Frames arrive at mutation cadence, not print cadence: flush after
    // every frame so pipes and files see each delta as it lands.
    io::stdout().flush()?;
    let mut seen = 0usize;
    while count == 0 || seen < count {
        match client.recv() {
            Ok(Response::Ok(frame)) => {
                print!("{frame}");
                io::stdout().flush()?;
                seen += 1;
            }
            Ok(Response::Err(message)) => {
                return Err(Box::new(ArgError(format!("server: {message}"))));
            }
            Err(e) if count == 0 => {
                // Open-ended stream: the server going away is the normal
                // way a forever-watch ends.
                eprintln!("watch ended: {e}");
                break;
            }
            Err(e) => {
                return Err(Box::new(ArgError(format!(
                    "stream ended after {seen} of {count} deltas: {e}"
                ))));
            }
        }
    }
    Ok(())
}

/// Builds a [`ClusterConfig`] from `fvc cluster serve` options. Split
/// from [`cmd_cluster_serve`] so the mapping is testable without binding
/// sockets or blocking on the coordinator.
fn cluster_config(cli: &Cli) -> Result<ClusterConfig, Box<dyn Error>> {
    let raw: String = cli.get("shards", String::new())?;
    let shard_addrs: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if shard_addrs.is_empty() {
        return Err(Box::new(ArgError(
            "--shards ADDR[,ADDR...] is required (running fvc serve daemons to front)".into(),
        )));
    }
    let mut config = ClusterConfig::new(shard_addrs);
    config.addr = cli.get("addr", "127.0.0.1:7412".to_string())?;
    config.chunks = cli.get("chunks", config.chunks)?;
    config.max_inflight = cli.get("inflight", config.max_inflight)?;
    config.retries = cli.get("retries", config.retries)?;
    config.backoff_ms = cli.get("backoff-ms", config.backoff_ms)?;
    config.backoff_cap_ms = cli.get("backoff-cap-ms", config.backoff_cap_ms)?;
    config.breaker_threshold = cli.get("breaker-threshold", config.breaker_threshold)?;
    config.replication = cli.get("replicas", config.replication)?;
    config.max_cells = cli.get("max-cells", config.max_cells)?;
    let dir: String = cli.get("snapshot-dir", String::new())?;
    if !dir.is_empty() {
        config.snapshot_dir = Some(dir.into());
    }
    Ok(config)
}

fn cmd_cluster(cli: &Cli) -> Result<(), Box<dyn Error>> {
    match cli.action() {
        Some("serve") => cmd_cluster_serve(cli),
        Some("status") => cmd_cluster_status(cli),
        Some(other) => Err(Box::new(ArgError(format!(
            "unknown cluster action '{other}' (known: serve, status)"
        )))),
        None => Err(Box::new(ArgError(
            "cluster needs an action: serve or status".into(),
        ))),
    }
}

fn cmd_cluster_serve(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let config = cluster_config(cli)?;
    let shard_count = config.shard_addrs.len();
    let coordinator = Coordinator::start(config)?;
    let addr = coordinator.local_addr();
    println!("fullview-cluster coordinator listening on {addr} ({shard_count} shards)");
    println!("stop with: fvc query --addr {addr} --req shutdown");
    coordinator.wait();
    println!("fullview-cluster coordinator stopped");
    Ok(())
}

fn cmd_cluster_status(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let addr: String = cli.get("addr", "127.0.0.1:7412".to_string())?;
    let mut client = Client::connect(&addr)?;
    let batch = client.pipeline(&["shards", "stats"], 2)?;
    for response in batch {
        match response {
            Response::Ok(payload) => print!("{payload}"),
            Response::Err(message) => {
                return Err(Box::new(ArgError(format!("server: {message}"))));
            }
        }
    }
    Ok(())
}

/// Builds a [`LoadConfig`] from `fvc bench load` options. Split from
/// [`cmd_bench_load`] so the mapping is testable without a live daemon.
fn load_config(cli: &Cli) -> Result<LoadConfig, Box<dyn Error>> {
    let addr: String = cli.get("addr", "127.0.0.1:7411".to_string())?;
    let mut config = LoadConfig::new(addr);
    config.clients = cli.get("clients", config.clients)?;
    config.rate = cli.get("rate", config.rate)?;
    config.duration = std::time::Duration::from_millis(cli.get("duration-ms", 2000u64)?);
    let mix: String = cli.get("mix", String::new())?;
    if !mix.is_empty() {
        config.mix = parse_mix(&mix).map_err(ArgError)?;
    }
    Ok(config)
}

fn cmd_bench(cli: &Cli) -> Result<(), Box<dyn Error>> {
    match cli.action() {
        Some("load") => cmd_bench_load(cli),
        Some(other) => Err(Box::new(ArgError(format!(
            "unknown bench action '{other}' (known: load)"
        )))),
        None => Err(Box::new(ArgError("bench needs an action: load".into()))),
    }
}

fn cmd_bench_load(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let config = load_config(cli)?;
    let reports = if cli.flag("sweep") {
        let growth: f64 = cli.get("growth", 2.0)?;
        let max_steps: usize = cli.get("max-steps", 6usize)?;
        if growth <= 1.0 {
            return Err(Box::new(ArgError("--growth must be > 1".into())));
        }
        sweep(&config, growth, max_steps).map_err(ArgError)?
    } else {
        vec![run_load(&config).map_err(ArgError)?]
    };
    for report in &reports {
        println!("{}", report.summary());
    }
    // The saturation throughput is the last step the server kept up with;
    // when even the first step saturates, report that step's achieved rate.
    let last = reports.last().expect("at least one report");
    let best = reports
        .iter()
        .rev()
        .find(|r| !r.saturated())
        .unwrap_or(last);
    if last.saturated() {
        println!(
            "saturation: reached at {:.0} rps target ({:.0} rps achieved)",
            last.target_rate,
            best.achieved_rate()
        );
    } else {
        println!(
            "saturation: not reached ({:.0} rps achieved at {:.0} rps target)",
            best.achieved_rate(),
            best.target_rate
        );
    }
    // When the target keeps per-shard read tallies (a replicated
    // coordinator), show how the reads spread across the replicas.
    if let Ok(mut client) = Client::connect(&config.addr) {
        if let Ok(stats) = client.request_ok("stats") {
            if let Some(line) = stats.lines().find(|l| l.starts_with("reads: ")) {
                println!("{line}");
            }
        }
    }
    let out: String = cli.get("out", String::new())?;
    if !out.is_empty() {
        let id: String = cli.get("id", "bench_load/default".to_string())?;
        let entry = sweep_entry_json(&id, best);
        append_bench_entry(std::path::Path::new(&out), &id, &entry)?;
        println!("recorded '{id}' in {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn csa_command_runs() {
        run(&cli(&[
            "csa",
            "--n",
            "500",
            "--theta-deg",
            "45",
            "--area",
            "0.02",
        ]))
        .unwrap();
    }

    #[test]
    fn check_command_runs_small() {
        run(&cli(&[
            "check",
            "--n",
            "80",
            "--radius",
            "0.12",
            "--aov-deg",
            "120",
        ]))
        .unwrap();
    }

    #[test]
    fn check_command_accepts_threads() {
        run(&cli(&[
            "check",
            "--n",
            "80",
            "--radius",
            "0.12",
            "--threads",
            "2",
        ]))
        .unwrap();
        run(&cli(&[
            "failures",
            "--n",
            "60",
            "--p",
            "0.5",
            "--radius",
            "0.12",
            "--threads",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn poisson_command_runs_small() {
        run(&cli(&["poisson", "--density", "60", "--radius", "0.12"])).unwrap();
    }

    #[test]
    fn map_command_runs_small() {
        run(&cli(&["map", "--n", "60", "--side", "12"])).unwrap();
    }

    #[test]
    fn holes_command_runs_small() {
        run(&cli(&["holes", "--n", "60", "--grid", "8"])).unwrap();
    }

    #[test]
    fn hier_flag_runs_map_holes_check() {
        run(&cli(&["map", "--n", "60", "--side", "12", "--hier"])).unwrap();
        run(&cli(&["holes", "--n", "60", "--grid", "8", "--hier"])).unwrap();
        run(&cli(&["check", "--n", "60", "--radius", "0.12", "--hier"])).unwrap();
    }

    #[test]
    fn barrier_command_runs_small() {
        run(&cli(&["barrier", "--n", "60", "--grid", "8"])).unwrap();
    }

    #[test]
    fn barrier_command_queries_a_live_daemon() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        run(&cli(&[
            "barrier",
            "--addr",
            &addr,
            "--grid",
            "8",
            "--theta-deg",
            "60",
        ]))
        .unwrap();
        // A θ the daemon rejects is an error, not a silent default.
        assert!(run(&cli(&["barrier", "--addr", &addr, "--theta-deg", "nan"])).is_err());
        // Misspelled options keep the did-you-mean policy.
        let err = run(&cli(&["barrier", "--gird", "8"])).unwrap_err();
        assert!(err.to_string().contains("did you mean --grid?"), "{err}");
    }

    #[test]
    fn point_command_runs_small() {
        run(&cli(&["point", "--n", "60", "--x", "0.3", "--y", "0.7"])).unwrap();
    }

    #[test]
    fn aim_command_runs_small() {
        run(&cli(&[
            "aim",
            "--n",
            "25",
            "--radius",
            "0.2",
            "--grid",
            "8",
            "--candidates",
            "6",
            "--rounds",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn plan_command_runs_small() {
        run(&cli(&[
            "plan",
            "--radius",
            "0.3",
            "--aov-deg",
            "180",
            "--grid",
            "6",
            "--budget",
            "40",
        ]))
        .unwrap();
    }

    #[test]
    fn route_command_runs_small() {
        run(&cli(&[
            "route",
            "--n",
            "60",
            "--route",
            "0.1,0.1:0.9,0.9",
            "--step",
            "0.05",
        ]))
        .unwrap();
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("fvc-test-net.txt");
        let path = dir.to_string_lossy().to_string();
        run(&cli(&[
            "save", "--out", &path, "--n", "40", "--radius", "0.12",
        ]))
        .unwrap();
        run(&cli(&["holes", "--load", &path, "--grid", "6"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failures_command_runs_small() {
        run(&cli(&[
            "failures", "--n", "60", "--p", "0.5", "--radius", "0.12",
        ]))
        .unwrap();
    }

    #[test]
    fn save_requires_out() {
        assert!(run(&cli(&["save", "--n", "5"])).is_err());
    }

    #[test]
    fn bad_route_is_error() {
        assert!(run(&cli(&["route", "--n", "10", "--route", "0.5"])).is_err());
        assert!(run(&cli(&["route", "--n", "10", "--route", "nope,0:0.2,0.3"])).is_err());
        assert!(run(&cli(&["route", "--n", "10", "--route", "nan,0:0.2,0.3"])).is_err());
        assert!(run(&cli(&["route", "--n", "10", "--step", "0"])).is_err());
    }

    #[test]
    fn inputs_a_library_would_reject_get_a_named_error() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        let (huge, fine) = ("4294967296", "0.0000001");
        let positive = "side/grid must be positive";
        let density = "density must be finite and positive";
        let cases: &[(&[&str], &str)] = &[
            (&["map", "--side", "0"], positive),
            (&["holes", "--grid", "0"], positive),
            (&["barrier", "--grid", "0"], positive),
            (&["plan", "--grid", "0"], positive),
            (&["aim", "--grid", "0"], positive),
            (&["map", "--side", huge], "overflows"),
            (&["holes", "--grid", huge], "overflows"),
            (&["barrier", "--grid", huge], "overflows"),
            (&["map", "--theta-deg", fine], "too fine"),
            (&["holes", "--theta-deg", fine], "too fine"),
            (&["check", "--theta-deg", fine], "too fine"),
            (
                &["watch", "--addr", addr.as_str(), "--theta-deg", "nan"],
                "effective angle must lie in",
            ),
            (&["poisson", "--density", "nan"], density),
            (&["poisson", "--density", "0"], density),
            (&["failures", "--p", "2"], "--p must lie in [0, 1]"),
            (&["point", "--x", "nan"], "--x must be finite"),
            (&["point", "--y", "nan"], "--y must be finite"),
        ];
        for (args, phrase) in cases {
            let err = run(&cli(args)).unwrap_err().to_string();
            assert!(err.contains(phrase), "{args:?}: {err}");
        }
        // `serve` binds and blocks once its options pass, so its θ is
        // checked through the option mapping.
        let err = serve_config(&cli(&["serve", "--theta-deg", fine])).unwrap_err();
        assert!(err.to_string().contains("too fine"), "{err}");
    }

    #[test]
    fn heterogeneous_profile_file_supported() {
        let dir = std::env::temp_dir().join("fvc-test-profile.txt");
        std::fs::write(&dir, "0.7 0.1 1.5708\n0.3 0.18 0.5236\n").unwrap();
        let path = dir.to_string_lossy().to_string();
        run(&cli(&["check", "--n", "80", "--profile", &path])).unwrap();
        run(&cli(&["csa", "--n", "500"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn size_command_runs() {
        run(&cli(&[
            "size",
            "--radius",
            "0.15",
            "--aov-deg",
            "120",
            "--n",
            "300",
        ]))
        .unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&cli(&["bogus"])).is_err());
    }

    #[test]
    fn misspelled_flag_is_rejected_with_hint() {
        let err = run(&cli(&["check", "--n", "10", "--thread", "2"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("unknown option --thread"), "{message}");
        assert!(message.contains("did you mean --threads?"), "{message}");
        // The same policy covers bare flags.
        assert!(run(&cli(&["map", "--n", "10", "--cvs"])).is_err());
    }

    #[test]
    fn serve_config_maps_options() {
        let config = serve_config(&cli(&[
            "serve",
            "--addr",
            "0.0.0.0:0",
            "--n",
            "55",
            "--seed",
            "9",
            "--workers",
            "3",
            "--queue",
            "7",
            "--cache",
            "5",
        ]))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:0");
        assert_eq!((config.n, config.seed), (55, 9));
        assert_eq!((config.workers, config.queue_capacity), (3, 7));
        assert_eq!(config.cache_capacity, 5);
        assert!(config.preloaded.is_none());
    }

    #[test]
    fn serve_config_loads_a_saved_network() {
        let path = std::env::temp_dir().join("fvc-test-serve-net.txt");
        let path = path.to_string_lossy().to_string();
        run(&cli(&[
            "save", "--out", &path, "--n", "30", "--radius", "0.12",
        ]))
        .unwrap();
        let config = serve_config(&cli(&["serve", "--load", &path])).unwrap();
        assert_eq!(config.preloaded.as_ref().map(CameraNetwork::len), Some(30));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_round_trips_against_a_live_daemon() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        run(&cli(&["query", "--addr", &addr, "--req", "ping"])).unwrap();
        run(&cli(&["query", "--addr", &addr, "--req", "map side=8"])).unwrap();
        // A server-side rejection surfaces as a CLI error.
        let err = run(&cli(&["query", "--addr", &addr, "--req", "map sidr=8"])).unwrap_err();
        assert!(err.to_string().contains("unknown parameter"), "{err}");
    }

    #[test]
    fn query_requires_req() {
        assert!(run(&cli(&["query", "--addr", "127.0.0.1:1"])).is_err());
    }

    #[test]
    fn query_pipelines_repeated_reqs_over_one_connection() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        run(&cli(&[
            "query",
            "--addr",
            &addr,
            "--req",
            "ping",
            "--req",
            "map side=8",
            "--req",
            "stats",
        ]))
        .unwrap();
        // A mid-batch rejection names the failing request and the rest
        // still complete.
        let err = run(&cli(&[
            "query",
            "--addr",
            &addr,
            "--req",
            "ping",
            "--req",
            "map sidr=8",
        ]))
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("rejected 1 of 2"), "{message}");
        assert!(message.contains("unknown parameter"), "{message}");
        assert!(run(&cli(&[
            "query", "--addr", &addr, "--req", "ping", "--window", "0"
        ]))
        .is_err());
    }

    #[test]
    fn cluster_config_maps_options() {
        let config = cluster_config(&cli(&[
            "cluster",
            "serve",
            "--addr",
            "0.0.0.0:0",
            "--shards",
            "127.0.0.1:7411, 127.0.0.1:7413",
            "--chunks",
            "6",
            "--inflight",
            "2",
            "--retries",
            "5",
            "--backoff-ms",
            "10",
            "--backoff-cap-ms",
            "100",
            "--snapshot-dir",
            "/tmp/fvc-snap",
        ]))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:0");
        assert_eq!(config.shard_addrs, ["127.0.0.1:7411", "127.0.0.1:7413"]);
        assert_eq!((config.chunks, config.max_inflight), (6, 2));
        assert_eq!((config.retries, config.backoff_ms), (5, 10));
        assert_eq!(config.backoff_cap_ms, 100);
        assert_eq!(
            config.snapshot_dir.as_deref(),
            Some(std::path::Path::new("/tmp/fvc-snap"))
        );
    }

    #[test]
    fn cluster_serve_requires_shards() {
        let err = run(&cli(&["cluster", "serve"])).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }

    #[test]
    fn cluster_actions_are_validated_with_hints() {
        let err = run(&cli(&["cluster"])).unwrap_err();
        assert!(err.to_string().contains("serve or status"), "{err}");
        let err = run(&cli(&["cluster", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("unknown cluster action"), "{err}");
        let err = run(&cli(&["cluster", "serve", "--shrads", "a"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("for 'cluster serve'"), "{message}");
        assert!(message.contains("did you mean --shards?"), "{message}");
        let err = run(&cli(&["cluster", "status", "--adr", "a"])).unwrap_err();
        assert!(err.to_string().contains("did you mean --addr?"), "{err}");
    }

    #[test]
    fn cluster_status_reads_a_live_coordinator() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 30;
        let shard = Server::start(config).expect("start daemon");
        let coordinator =
            Coordinator::start(ClusterConfig::new(vec![shard.local_addr().to_string()]))
                .expect("start coordinator");
        let addr = coordinator.local_addr().to_string();
        run(&cli(&["cluster", "status", "--addr", &addr])).unwrap();
        // The coordinator speaks the daemon protocol: plain query works.
        run(&cli(&["query", "--addr", &addr, "--req", "map side=8"])).unwrap();
    }

    #[test]
    fn serve_config_maps_admission_options() {
        let config =
            serve_config(&cli(&["serve", "--admit-rate", "25", "--admit-burst", "4"])).unwrap();
        assert!((config.admit_rate - 25.0).abs() < 1e-12);
        assert!((config.admit_burst - 4.0).abs() < 1e-12);
        // Admission defaults to off.
        let config = serve_config(&cli(&["serve"])).unwrap();
        assert!(config.admit_rate.abs() < 1e-12);
    }

    #[test]
    fn serve_config_maps_hier_and_max_cells() {
        let config = serve_config(&cli(&["serve", "--hier", "--max-cells", "4096"])).unwrap();
        assert!(config.hier);
        assert_eq!(config.max_cells, 4096);
        // Both default to off.
        let config = serve_config(&cli(&["serve"])).unwrap();
        assert!(!config.hier);
        assert_eq!(config.max_cells, 0);
    }

    #[test]
    fn cluster_config_maps_max_cells() {
        let config = cluster_config(&cli(&[
            "cluster",
            "serve",
            "--shards",
            "a,b",
            "--max-cells",
            "1024",
        ]))
        .unwrap();
        assert_eq!(config.max_cells, 1024);
        let config = cluster_config(&cli(&["cluster", "serve", "--shards", "a,b"])).unwrap();
        assert_eq!(config.max_cells, 0);
    }

    #[test]
    fn serve_config_maps_wal_path() {
        let config = serve_config(&cli(&["serve", "--wal", "/tmp/fvc.snap"])).unwrap();
        assert_eq!(
            config.wal.as_deref(),
            Some(std::path::Path::new("/tmp/fvc.snap"))
        );
        // Persistence defaults to off.
        let config = serve_config(&cli(&["serve"])).unwrap();
        assert!(config.wal.is_none());
    }

    #[test]
    fn cluster_config_maps_breaker_threshold() {
        let config = cluster_config(&cli(&[
            "cluster",
            "serve",
            "--shards",
            "a,b",
            "--breaker-threshold",
            "5",
        ]))
        .unwrap();
        assert_eq!(config.breaker_threshold, 5);
        let config = cluster_config(&cli(&["cluster", "serve", "--shards", "a,b"])).unwrap();
        assert_eq!(config.breaker_threshold, 3);
    }

    #[test]
    fn query_deadline_decorates_query_verbs_only() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        // A generous budget decorates map/check but not ping/stats — the
        // daemon would reject deadline_ms on the latter, so success here
        // proves the decoration is selective.
        run(&cli(&[
            "query",
            "--addr",
            &addr,
            "--deadline-ms",
            "60000",
            "--req",
            "ping",
            "--req",
            "map side=8",
            "--req",
            "check",
            "--req",
            "stats",
        ]))
        .unwrap();
    }

    #[test]
    fn cluster_config_maps_replicas() {
        let config = cluster_config(&cli(&[
            "cluster",
            "serve",
            "--shards",
            "a,b,c,d",
            "--replicas",
            "2",
        ]))
        .unwrap();
        assert_eq!(config.replication, 2);
        let config = cluster_config(&cli(&["cluster", "serve", "--shards", "a,b"])).unwrap();
        assert_eq!(config.replication, 1);
    }

    #[test]
    fn load_config_maps_options() {
        let config = load_config(&cli(&[
            "bench",
            "load",
            "--addr",
            "127.0.0.1:9",
            "--clients",
            "6",
            "--rate",
            "350",
            "--duration-ms",
            "750",
            "--mix",
            "ping=3,check",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:9");
        assert_eq!(config.clients, 6);
        assert!((config.rate - 350.0).abs() < 1e-12);
        assert_eq!(config.duration, std::time::Duration::from_millis(750));
        let names: Vec<&str> = config.mix.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["ping", "check"]);
        // A bad mix is rejected at parse time, not mid-run.
        let err = load_config(&cli(&["bench", "load", "--mix", "nosuch"])).unwrap_err();
        assert!(err.to_string().contains("unknown mix verb"), "{err}");
    }

    #[test]
    fn bench_actions_are_validated_with_hints() {
        let err = run(&cli(&["bench"])).unwrap_err();
        assert!(err.to_string().contains("bench needs an action"), "{err}");
        let err = run(&cli(&["bench", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("unknown bench action"), "{err}");
        let err = run(&cli(&["bench", "load", "--clinets", "4"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("for 'bench load'"), "{message}");
        assert!(message.contains("did you mean --clients?"), "{message}");
    }

    #[test]
    fn bench_load_runs_against_a_live_daemon_and_records_the_entry() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, 2.0).unwrap());
        let mut config = ServiceConfig::new(profile);
        config.n = 40;
        let server = Server::start(config).expect("start daemon");
        let addr = server.local_addr().to_string();
        let out = std::env::temp_dir().join(format!("fvc-cli-load-{}.json", std::process::id()));
        let out_str = out.to_string_lossy().to_string();
        run(&cli(&[
            "bench",
            "load",
            "--addr",
            &addr,
            "--clients",
            "2",
            "--rate",
            "60",
            "--duration-ms",
            "300",
            "--mix",
            "ping",
            "--out",
            &out_str,
            "--id",
            "cli_smoke",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).expect("entry file written");
        assert!(text.contains("\"id\": \"cli_smoke\""), "{text}");
        assert!(text.contains("\"p99_ns\""), "{text}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn no_subcommand_prints_usage() {
        run(&cli(&[])).unwrap();
    }
}
