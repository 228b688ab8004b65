//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the round (or
//! fleet) it belongs to. Spans are kept in memory and written out once,
//! when the run ends, so recording costs a `Vec` push. With tracing off
//! [`Tracer::begin`]/[`Tracer::end`] still time the call (the untraced run
//! measures its end-to-end figures through the same code) but record
//! nothing.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `service.check`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round (serving workloads) or fleet (batch workload) id; `u64::MAX`
    /// for set-up and end-of-run work.
    pub round: u64,
}

impl Span {
    /// The span's wall time.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: where it started and, when recording, its slot.
#[derive(Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The round id of work outside any round.
pub const NO_ROUND: u64 = u64::MAX;

impl Tracer {
    /// A tracer that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, round: u64) -> Open {
        let started = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns(started),
                end_ns: 0,
                parent: self.stack.last().copied(),
                round,
            });
            self.stack.push(slot);
            slot
        });
        Open { started, slot }
    }

    /// Closes `open` and returns its wall time.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must nest");
            self.spans[slot].end_ns = self.ns(ended);
        }
        ended - open.started
    }

    /// Runs `f` inside a leaf span and returns its result and wall time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, round);
        let out = f();
        (out, self.end(open))
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children of one parent never overlap here, as
/// the benchmark is single-threaded, but overlaps are merged anyway).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(span.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals for the waterfall: `(name, count, total_ns, self_ns)`
/// in first-seen order.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selves = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selves) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => rows.push((span.name, 1, span.duration_ns(), self_ns)),
        }
    }
    rows
}

/// The median duration (ms) of the spans called `name`, and their count.
#[must_use]
pub fn median_ms(spans: &[Span], name: &str) -> (f64, usize) {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    crate::sampled(&ms)
}

/// The span dump: a header and one tab-separated line per span
/// (`id parent name round start_ns end_ns self_ns`).
#[must_use]
pub fn dump(spans: &[Span]) -> String {
    let selves = self_times_ns(spans);
    let mut out = String::from("id\tparent\tname\tround\tstart_ns\tend_ns\tself_ns\n");
    for (i, (span, self_ns)) in spans.iter().zip(selves).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let round = if span.round == NO_ROUND {
            "-".to_string()
        } else {
            span.round.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{round}\t{}\t{}\t{self_ns}",
            span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps a by 5
            span("c", 60, 70, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50, 20 - 8, 25, 10, 8]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0], ("round", 1, 100, 50));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut off = Tracer::new(false);
        let open = off.begin("x", 0);
        let _ = off.end(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.begin("outer", 3);
        let ((), _) = on.time("inner", 3, || {});
        let _ = on.end(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert!(dump(on.spans()).lines().count() == 3);
    }
}
