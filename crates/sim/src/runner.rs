//! Parallel Monte-Carlo trial execution with deterministic seeding.
//!
//! Every trial gets an independent seed derived from `(master_seed,
//! trial_index)` (see [`fullview_deploy::derive_seed`]), so results are
//! identical regardless of thread count or scheduling, and any single
//! trial can be re-run in isolation for debugging.

use crate::estimate::{MeanEstimate, ProportionEstimate};
use fullview_core::claim_units;
use fullview_deploy::derive_seed;

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; trial `i` runs with `derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Worker threads (`0` = one per CPU; at most one worker per CPU and
    /// per trial, see [`fullview_core::worker_count`]).
    pub threads: usize,
}

impl RunConfig {
    /// A run with the given trial count, seed 0, and automatic threading.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        RunConfig {
            trials,
            master_seed: 0,
            threads: 0,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Sets an explicit thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Runs `f(seed)` for every trial in parallel, collecting the results in
/// trial order.
///
/// `f` must be deterministic in its seed for reproducibility. Workers
/// claim trials one at a time through [`claim_units`], so uneven trial
/// costs still balance across threads.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn run_trials_map<T, F>(config: RunConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let seed = |i: usize| derive_seed(config.master_seed, i as u64);
    let mut indexed: Vec<(usize, T)> = claim_units(config.trials, config.threads, |trials| {
        trials.map(|i| (i, f(seed(i)))).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// Runs a boolean Monte-Carlo experiment and returns the success
/// proportion.
///
/// # Examples
///
/// ```
/// use fullview_sim::{run_proportion, RunConfig};
///
/// // Estimate P(coin lands on an even seed) — trivially deterministic.
/// let est = run_proportion(RunConfig::new(1000).with_seed(7), |seed| seed % 2 == 0);
/// assert_eq!(est.trials(), 1000);
/// assert!((est.mean() - 0.5).abs() < 0.1);
/// ```
pub fn run_proportion<F>(config: RunConfig, f: F) -> ProportionEstimate
where
    F: Fn(u64) -> bool + Sync,
{
    let outcomes = run_trials_map(config, f);
    let successes = outcomes.iter().filter(|b| **b).count();
    ProportionEstimate::new(successes, outcomes.len())
}

/// Runs a real-valued Monte-Carlo experiment and returns the sample mean
/// estimate.
pub fn run_mean<F>(config: RunConfig, f: F) -> MeanEstimate
where
    F: Fn(u64) -> f64 + Sync,
{
    MeanEstimate::from_samples(run_trials_map(config, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_trials() {
        let v = run_trials_map(RunConfig::new(0), |s| s);
        assert!(v.is_empty());
        let p = run_proportion(RunConfig::new(0), |_| true);
        assert_eq!(p.trials(), 0);
    }

    #[test]
    fn results_in_trial_order_and_deterministic() {
        let cfg = RunConfig::new(500).with_seed(42);
        let a = run_trials_map(cfg, |s| s);
        let b = run_trials_map(cfg.with_threads(3), |s| s);
        let c = run_trials_map(cfg.with_threads(1), |s| s);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Seeds are the derived sequence.
        for (i, s) in a.iter().enumerate() {
            assert_eq!(*s, fullview_deploy::derive_seed(42, i as u64));
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        // `with_threads(0)` means "one per CPU"; the worker rule itself is
        // tested in `fullview_core::engine`.
        let cfg = RunConfig::new(100).with_seed(3).with_threads(0);
        let auto = run_trials_map(cfg, |s| s);
        let one = run_trials_map(cfg.with_threads(1), |s| s);
        assert_eq!(auto, one, "thread count must not change results");
        assert_eq!(auto.len(), 100);
    }

    #[test]
    fn all_seeds_distinct() {
        let v = run_trials_map(RunConfig::new(1000), |s| s);
        let set: HashSet<u64> = v.into_iter().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let _ = run_trials_map(RunConfig::new(257).with_threads(4), |s| {
            counter.fetch_add(1, Ordering::Relaxed);
            s
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn proportion_counts_successes() {
        // Success iff derived seed is below the median — roughly half.
        let p = run_proportion(RunConfig::new(2000).with_seed(9), |s| s < u64::MAX / 2);
        assert!((p.mean() - 0.5).abs() < 0.05, "{p}");
    }

    #[test]
    fn mean_runs() {
        let m = run_mean(RunConfig::new(100).with_seed(1), |s| (s % 10) as f64);
        assert!(m.count() == 100);
        assert!((m.mean() - 4.5).abs() < 1.5);
    }

    #[test]
    fn different_master_seeds_give_different_streams() {
        let a = run_trials_map(RunConfig::new(10).with_seed(1), |s| s);
        let b = run_trials_map(RunConfig::new(10).with_seed(2), |s| s);
        assert_ne!(a, b);
    }
}
