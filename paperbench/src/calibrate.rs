//! Host-speed calibration.
//!
//! On a shared host the speed of one core drifts: the same fixed
//! computation, timed back to back, took anywhere from 192 ms to 340 ms
//! within 40 s, and thread CPU time tracked wall time (contention for the
//! core, not steal). Run-to-run drift of that size would swamp any
//! regression bound. So each run also times a fixed reference kernel that
//! shares no code with the repository — angular-gap analysis of
//! pseudo-random directions: trigonometry, a sort and a scan, like the
//! exact analyzer — interleaved with the workload, and every end-to-end
//! time is reported at the reference speed:
//!
//! `reported = median over samples of (timed × NOMINAL_MS / r)`,
//!
//! where `r` is the median of the reference timings taken just before and
//! just after that sample (set-up, fleet or round), so drift within a run
//! is corrected where it happens.
//!
//! Over 5-second windows this cut the coefficient of variation of a
//! render's median time from 11 % to 3.5 %. A change to the repository's
//! code moves the measured time and not the reference, so it shows in
//! full. The raw medians are printed beside the reported ones.

use crate::stats::median;
use std::time::Instant;

/// The reference kernel's time on this host when it is quiet (ms); the
/// scale of the reported times.
pub const NOMINAL_MS: f64 = 8.0;

/// The reference kernel: returns a value so the work cannot be elided.
#[must_use]
pub fn reference_kernel() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut acc = 0.0;
    let mut dirs = Vec::with_capacity(64);
    for _ in 0..3000 {
        dirs.clear();
        for _ in 0..48 {
            let (x, y) = (next() - 0.5, next() - 0.5);
            if x * x + y * y < 0.25 {
                dirs.push(y.atan2(x));
            }
        }
        dirs.sort_by(|a, b| a.partial_cmp(b).expect("angles are finite"));
        let mut gap: f64 = 0.0;
        for w in dirs.windows(2) {
            gap = gap.max(w[1] - w[0]);
        }
        acc += gap;
    }
    acc
}

/// Reference-kernel timings taken during one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Times the reference kernel `times` times.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let started = Instant::now();
            std::hint::black_box(reference_kernel());
            self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Reference samples taken so far: where a measurement sits among them.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.samples_ms.len()
    }

    /// The median reference time (ms), if sampled.
    #[must_use]
    pub fn median_ms(&self) -> Option<f64> {
        median(&self.samples_ms)
    }

    /// The factor that brings a time measured at `mark` to the reference
    /// speed, from the `half` samples on either side of it.
    #[must_use]
    pub fn factor_near(&self, mark: usize, half: usize) -> f64 {
        let lo = mark.saturating_sub(half);
        let hi = (mark + half).min(self.samples_ms.len());
        median(&self.samples_ms[lo.min(hi)..hi]).map_or(f64::NAN, |m| NOMINAL_MS / m)
    }

    /// One report line on the set-up and measurement phases' timings.
    #[must_use]
    pub fn note(setup: &Calibration, run: &Calibration) -> String {
        format!(
            "reference kernel (nominal {NOMINAL_MS} ms): set-up median {:.3} ms of {}, run median {:.3} ms of {}",
            setup.median_ms().unwrap_or(f64::NAN),
            setup.samples_ms.len(),
            run.median_ms().unwrap_or(f64::NAN),
            run.samples_ms.len()
        )
    }
}

/// Timings of one metric, each with the calibration mark it was taken at.
#[derive(Debug, Clone, Default)]
pub struct Scaled {
    raw: Vec<f64>,
    marks: Vec<usize>,
}

impl Scaled {
    /// Records one timing taken at calibration mark `mark`.
    pub fn push(&mut self, raw: f64, mark: usize) {
        self.raw.push(raw);
        self.marks.push(mark);
    }

    /// The timings as measured.
    #[must_use]
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// `(median at the reference speed, median as timed)`, each timing
    /// scaled by the reference samples within `half` of its mark.
    #[must_use]
    pub fn medians(&self, cal: &Calibration, half: usize) -> (f64, f64) {
        let scaled: Vec<f64> = self
            .raw
            .iter()
            .zip(&self.marks)
            .map(|(raw, &mark)| raw * cal.factor_near(mark, half))
            .collect();
        (
            median(&scaled).unwrap_or(f64::NAN),
            median(&self.raw).unwrap_or(f64::NAN),
        )
    }
}
