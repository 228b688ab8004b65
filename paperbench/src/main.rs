//! The benchmark command:
//!
//! ```text
//! cargo run --release -q --manifest-path paperbench/Cargo.toml -- \
//!     --workload <paper_check|serve_churn|cluster_scatter> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and the op counts, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). A traced run also prints the per-layer waterfall and the
//! tracing overhead, and writes its span dump under `paperbench/out/`.

use fullview_paperbench::catalog::{END_TO_END, LAYERS, WORKLOADS};
use fullview_paperbench::regime::Scale;
use fullview_paperbench::trace::{dump, totals_by_name};
use fullview_paperbench::{run_workload, Outcome, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: fullview-paperbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        scale: Scale::paper(),
    };
    let Some(outcome) = run_workload(&workload, &cfg) else {
        return usage(&format!("unknown workload {workload}"));
    };
    report(&workload, &cfg, &outcome);
    ExitCode::SUCCESS
}

fn value_of(list: &[(&'static str, f64)], name: &str) -> Option<f64> {
    list.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// The end-to-end metrics as reported (times at the reference speed), in
/// catalog order, NaN where a workload produced none.
fn reported(out: &Outcome) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let v = out
                .e2e
                .iter()
                .find(|e| e.0 == m.name)
                .map_or(f64::NAN, |e| e.1);
            (m.name, v)
        })
        .collect()
}

fn report(workload: &str, cfg: &RunConfig, out: &Outcome) {
    println!(
        "paperbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let e2e = reported(out);
    println!(
        "end-to-end metrics{} (times at the reference speed, see src/calibrate.rs):",
        if cfg.trace { ", traced" } else { "" }
    );
    for (m, (_, v)) in END_TO_END.iter().zip(&e2e) {
        match out.e2e.iter().find(|e| e.0 == m.name) {
            Some(&(_, _, timed)) if timed != *v => {
                println!(
                    "  {:<16} {v:>12.4} {:<4} (as timed {timed:.4})",
                    m.name, m.unit
                );
            }
            _ => println!("  {:<16} {v:>12.4} {}", m.name, m.unit),
        }
    }
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "ops: attempted {} failed {}",
        out.ops.attempted, out.ops.failed
    );
    for failure in &out.ops.failures {
        println!("  failed: {failure}");
    }

    let e2e_ok = e2e.iter().all(|(_, v)| v.is_finite() && *v > 0.0);
    let correct = out.ops.failed == 0 && out.ops.attempted > 0 && e2e_ok;
    let untraced_file = out_dir().join(format!("{workload}-untraced.txt"));
    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        print_layers(workload, cfg, out, &e2e, &untraced_file);
        LAYERS
            .iter()
            .map(|m| {
                let v = out
                    .layers
                    .iter()
                    .find(|l| l.0 == m.name)
                    .map_or(0.0, |&(_, (v, _))| v);
                (m.name, m.unit, v)
            })
            .collect()
    } else {
        let record: String = e2e
            .iter()
            .map(|(name, v)| format!("{name} {v}\n"))
            .collect();
        let _ = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&untraced_file, format!("seed {}\n{record}", cfg.seed)));
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value_of(&e2e, m.name).unwrap_or(0.0)))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.attempted,
        out.ops.failed,
        body.join(", ")
    );
}

/// The traced run's report: the per-layer table (ROADMAP's waterfall),
/// span self times, tracing overhead, and the span dump.
fn print_layers(
    workload: &str,
    cfg: &RunConfig,
    out: &Outcome,
    e2e: &[(&'static str, f64)],
    untraced_file: &PathBuf,
) {
    println!("per-layer metrics (traced; 0 = layer not on this workload's path):");
    println!(
        "  {:<30} {:>14} {:<6} {:>7}  {:<38} should move",
        "metric", "value", "unit", "samples", "per / ratio base"
    );
    for m in LAYERS {
        let (v, n) = out
            .layers
            .iter()
            .find(|l| l.0 == m.name)
            .map_or((0.0, 0), |l| l.1);
        println!(
            "  {:<30} {v:>14.4} {:<6} {n:>7}  {:<38} {}",
            m.name, m.unit, m.base, m.moves
        );
    }

    let totals = totals_by_name(&out.spans);
    let all_self: u64 = totals.iter().map(|t| t.3).sum();
    println!("span self time (waterfall):");
    println!(
        "  {:<28} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, count, total, self_ns) in &totals {
        println!(
            "  {name:<28} {count:>7} {:>12.3} {:>12.3} {:>6.1}%",
            *total as f64 / 1e6,
            *self_ns as f64 / 1e6,
            100.0 * *self_ns as f64 / all_self.max(1) as f64
        );
    }

    println!("tracing overhead (traced - untraced):");
    match std::fs::read_to_string(untraced_file) {
        Ok(text) => {
            let mut lines = text.lines();
            let seed = lines.next().unwrap_or("seed ?").to_string();
            for line in lines {
                let mut parts = line.split_whitespace();
                let (Some(name), Some(untraced)) = (parts.next(), parts.next()) else {
                    continue;
                };
                let untraced: f64 = untraced.parse().unwrap_or(f64::NAN);
                let traced = value_of(e2e, name).unwrap_or(f64::NAN);
                println!(
                    "  {name:<16} traced {traced:>12.4} untraced {untraced:>12.4} overhead {:>+9.4} ({:+.1}%) [untraced {seed}]",
                    traced - untraced,
                    100.0 * (traced - untraced) / untraced
                );
            }
        }
        Err(_) => {
            println!("  no untraced run of {workload} recorded yet: run with --trace 0 first")
        }
    }

    let path = out_dir().join(format!("trace-{workload}-seed{}.tsv", cfg.seed));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, dump(&out.spans)))
    {
        Ok(()) => println!("span dump: {} ({} spans)", path.display(), out.spans.len()),
        Err(e) => println!("span dump not written: {e}"),
    }
}
