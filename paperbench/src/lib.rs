//! # fullview-paperbench
//!
//! The repository's benchmark: three workloads on the paper's §VI
//! reference fleet (n = 10⁴, θ = π/4), each a closed loop driven from one
//! thread, each checking every answer it gets. See `README.md` beside this
//! crate for why each workload was chosen and what each metric should
//! move.
//!
//! * [`paper_check`] — the batch dense-grid check, default engine and
//!   hier, plus the hier map at 4× the dense side.
//! * [`serve_churn`] — a warm daemon: `move`, then `check`/`holes`/`map`.
//! * [`cluster_scatter`] — the same churn through a two-shard cluster.
//!
//! With tracing on, spans around every call into a layer give the
//! per-layer metrics ([`trace`], [`catalog::LAYERS`]).

#![warn(missing_docs)]

pub mod calibrate;
pub mod catalog;
pub mod cluster_scatter;
pub mod mirror;
pub mod paper_check;
pub mod regime;
pub mod serve_churn;
pub mod stats;
pub mod trace;

use fullview_service::{Client, Response};
use regime::Scale;
use trace::Span;

/// What one run measures: the workload seed, how long to measure, whether
/// to record spans, and the problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: fixes every fleet and every request.
    pub seed: u64,
    /// Seconds to measure for (at least the scale's minimum count of
    /// rounds or fleets is always measured).
    pub seconds: f64,
    /// Record spans and compute the per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// Operations attempted and failed. A failure is an `err` frame, a
/// transport error, or an answer that differs from the library's.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `ok == false` counts it failed, described by
    /// `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub ops: Ops,
    /// End-to-end metrics: name, value as reported (times at the
    /// reference speed, see [`calibrate`]) and value as measured.
    pub e2e: Vec<(&'static str, f64, f64)>,
    /// Per-layer metrics by name: value and sample count (traced run).
    pub layers: Vec<(&'static str, (f64, usize))>,
    /// Further figures for the human-readable report.
    pub notes: Vec<String>,
    /// Digest of every answer, in order.
    pub digest: u64,
    /// The request script as sent (one line per request), or the fleet
    /// seeds of the batch workload.
    pub script: Vec<String>,
    /// Recorded spans (traced run).
    pub spans: Vec<Span>,
}

/// Runs workload `name`, or `None` for an unknown name.
#[must_use]
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    match name {
        "paper_check" => Some(paper_check::run(cfg)),
        "serve_churn" => Some(serve_churn::run(cfg)),
        "cluster_scatter" => Some(cluster_scatter::run(cfg)),
        _ => None,
    }
}

/// The median of `samples` (NaN when there are none) and their count.
#[must_use]
pub fn sampled(samples: &[f64]) -> (f64, usize) {
    (stats::median(samples).unwrap_or(f64::NAN), samples.len())
}

/// A value measured once per run, or 0 with no sample when it was not.
#[must_use]
pub fn once(value: Option<f64>) -> (f64, usize) {
    (value.unwrap_or(0.0), usize::from(value.is_some()))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Resident set size of this process now (`VmRSS`) in MiB.
#[must_use]
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// A memory figure of `/proc/self/status`, given in kB, in MiB.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The report line on the mirror's share of `peak_rss_mb`: the serving
/// workloads' process also holds the mirror fleet and its sweeps.
#[must_use]
pub fn mirror_note(mirror_mb: Option<f64>) -> String {
    mirror_mb.map_or_else(
        || "mirror resident share: not measured".to_string(),
        |mb| {
            format!(
                "peak_rss_mb includes the mirror: the resident set grew {mb:.2} MiB building it"
            )
        },
    )
}

/// Sends one request and returns the `ok` payload, or the failure as
/// text (`err` frame or transport error).
pub fn ask(client: &mut Client, line: &str) -> Result<String, String> {
    match client.request(line) {
        Ok(Response::Ok(payload)) => Ok(payload),
        Ok(Response::Err(message)) => Err(format!("'{line}': err {message}")),
        Err(e) => Err(format!("'{line}': transport {e}")),
    }
}

/// The value of `key=` on the first line starting with `prefix` in a
/// daemon or coordinator text payload, parsed.
#[must_use]
pub fn field<T: std::str::FromStr>(payload: &str, prefix: &str, key: &str) -> Option<T> {
    let line = payload.lines().find(|l| l.starts_with(prefix))?;
    let want = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(want.as_str()))
        .and_then(|v| v.parse().ok())
}
