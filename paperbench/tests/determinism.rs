//! The benchmark's own guarantees, at a toy size: a seed fixes the
//! request script and every answer, every answer checks out, the traced
//! run reports its layers, and `BENCHMARK.json` is the catalog's
//! rendering.

use fullview_paperbench::catalog::{manifest_json, LAYERS, WORKLOADS};
use fullview_paperbench::regime::Scale;
use fullview_paperbench::{run_workload, Outcome, RunConfig};

fn toy(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::toy(),
    };
    let out = run_workload(workload, &cfg).expect("known workload");
    assert!(out.ops.attempted > 0, "{workload}: no operations");
    assert_eq!(out.ops.failed, 0, "{workload}: {:?}", out.ops.failures);
    out
}

#[test]
fn same_seed_gives_the_same_script_and_answers() {
    for w in WORKLOADS {
        let a = toy(w.name, 7, false);
        let b = toy(w.name, 7, false);
        assert!(!a.script.is_empty(), "{}", w.name);
        assert_eq!(a.script, b.script, "{}", w.name);
        assert_eq!(a.digest, b.digest, "{}", w.name);
    }
}

#[test]
fn another_seed_gives_another_script() {
    for w in WORKLOADS {
        let a = toy(w.name, 7, false);
        let c = toy(w.name, 8, false);
        assert_ne!(a.script, c.script, "{}", w.name);
    }
}

#[test]
fn traced_runs_report_catalogued_layers_and_spans() {
    for w in WORKLOADS {
        let out = toy(w.name, 3, true);
        assert!(!out.spans.is_empty(), "{}", w.name);
        assert!(!out.layers.is_empty(), "{}", w.name);
        for (name, (value, _)) in &out.layers {
            assert!(
                LAYERS.iter().any(|m| m.name == *name),
                "{}: {name} not catalogued",
                w.name
            );
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }
        let e2e: Vec<&str> = out.e2e.iter().map(|m| m.0).collect();
        assert_eq!(
            e2e,
            ["setup_s", "check_s", "refresh_p50_ms", "peak_rss_mb"],
            "{}",
            w.name
        );
        assert!(
            out.e2e.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
            "{}: {:?}",
            w.name,
            out.e2e
        );
    }
}

#[test]
fn benchmark_json_is_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let rendered = manifest_json();
    assert!(
        on_disk == rendered,
        "BENCHMARK.json is out of date with src/catalog.rs; it should read:\n{rendered}"
    );
}
