//! The traced pass: spans and call counters recorded by the benchmark
//! around its own calls into each layer's public functions. The engine
//! itself is not instrumented.
//!
//! Two things are kept, both in memory until the run ends:
//!
//! - **call counters** for *every* call at a boundary (calls, total ns,
//!   items moved), so per-call costs are exact means over the window;
//! - **spans** `{name, start_ns, end_ns, parent, ticket}` for one
//!   transaction in [`SAMPLE_EVERY`]: a `txn` span from the submit call
//!   to the drain call that returned the ticket, with the submit and the
//!   drain call as its children. The buffer is preallocated; when it is
//!   full further spans are counted as dropped, never reallocated.

use std::io::Write;
use std::path::Path;

use crate::stats::ratio;

/// One transaction in this many gets spans (every call gets counted).
pub const SAMPLE_EVERY: u64 = 64;
/// Span buffer capacity; three spans per sampled transaction.
const SPAN_CAPACITY: usize = 1 << 18;

/// `parent` / `ticket` value meaning "none".
pub const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the buffer, or [`NONE`].
    pub parent: u64,
    /// The transaction the span belongs to, or [`NONE`].
    pub ticket: u64,
}

/// Calls at one layer boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Transactions, completions or messages the calls moved.
    pub items: u64,
    /// Calls that moved nothing (an empty drain or poll).
    pub empty: u64,
}

impl CallStat {
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.total_ns as f64, self.items as f64)
    }

    pub fn us_per_call(&self) -> f64 {
        ratio(self.total_ns as f64 / 1e3, self.calls as f64)
    }
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
    calls: Vec<(&'static str, CallStat)>,
}

impl Tracer {
    /// A tracer that records nothing; every hook is one branch.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            spans: Vec::new(),
            dropped: 0,
            calls: Vec::new(),
        }
    }

    /// A recording tracer with its span buffer allocated and touched.
    pub fn on() -> Self {
        let filler = Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: NONE,
            ticket: NONE,
        };
        let mut spans = vec![filler; SPAN_CAPACITY];
        spans.clear();
        Tracer {
            enabled: true,
            spans,
            dropped: 0,
            calls: Vec::new(),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether `ticket` is one of the sampled transactions.
    #[inline]
    pub fn samples(&self, ticket: u64) -> bool {
        self.enabled && ticket.is_multiple_of(SAMPLE_EVERY)
    }

    /// Count one call at boundary `name` that moved `items`.
    #[inline]
    pub fn call(&mut self, name: &'static str, start_ns: u64, end_ns: u64, items: u64) {
        if !self.enabled {
            return;
        }
        let stat = match self.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s,
            None => {
                self.calls.push((name, CallStat::default()));
                &mut self.calls.last_mut().expect("just pushed").1
            }
        };
        stat.calls += 1;
        stat.total_ns += end_ns.saturating_sub(start_ns);
        stat.items += items;
        stat.empty += u64::from(items == 0);
    }

    /// Record a span; returns its index for use as a child's `parent`,
    /// or [`NONE`] if the buffer is full (or tracing is off).
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        ticket: u64,
    ) -> u64 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            ticket,
        });
        (self.spans.len() - 1) as u64
    }

    pub fn stat(&self, name: &str) -> CallStat {
        self.calls
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another tracer (one TCP connection's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u64;
        for mut s in other.spans {
            if s.parent != NONE {
                s.parent += base;
            }
            if self.spans.len() == self.spans.capacity() {
                self.dropped += 1;
            } else {
                self.spans.push(s);
            }
        }
        self.dropped += other.dropped;
        for (name, s) in other.calls {
            match self.calls.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.calls += s.calls;
                    mine.total_ns += s.total_ns;
                    mine.items += s.items;
                    mine.empty += s.empty;
                }
                None => self.calls.push((name, s)),
            }
        }
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<u32> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t.min(u32::MAX as u64) as u32)
            .collect()
    }

    /// Write `{"sample_every", "dropped", "calls", "spans"}` to `path`,
    /// replacing any previous file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"sample_every\": {SAMPLE_EVERY}, \"dropped\": {}, \"calls\": {{",
            self.dropped
        )?;
        for (i, (name, s)) in self.calls.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                w,
                "{sep}\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"items\": {}, \"empty\": {}}}",
                s.calls, s.total_ns, s.items, s.empty
            )?;
        }
        writeln!(w, "}}, \"spans\": [")?;
        let opt = |v: u64| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"ticket\": {}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.ticket)
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            ticket: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("txn", 100, 1100, NONE),
            span("submit", 100, 300, 0),
            span("drain", 900, 1100, 0),
        ];
        assert_eq!(self_times(&spans), vec![600, 200, 200]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_parent() {
        let spans = vec![
            span("txn", 1000, 2000, NONE),
            // Overlap 1200..1400 is counted once.
            span("a", 1100, 1400, 0),
            span("b", 1200, 1500, 0),
            // Starts before the parent and ends after it: clipped.
            span("c", 1900, 2500, 0),
            // Entirely outside: contributes nothing.
            span("d", 100, 200, 0),
        ];
        // Covered: 1100..1500 (400) + 1900..2000 (100).
        assert_eq!(self_times(&spans)[0], 500);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![span("p", 0, 10, NONE), span("c", 0, 10, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.call("x", 0, 10, 1);
        assert_eq!(t.span("x", 0, 10, NONE, 1), NONE);
        assert!(t.spans().is_empty());
        assert_eq!(t.stat("x"), CallStat::default());
        assert!(!t.samples(0));
    }

    #[test]
    fn call_counters_accumulate_and_absorb() {
        let mut a = Tracer::on();
        a.call("drain", 0, 100, 4);
        a.call("drain", 100, 150, 0);
        let parent = a.span("txn", 0, 100, NONE, 64);
        a.span("drain", 50, 100, parent, 64);
        let mut b = Tracer::on();
        b.call("drain", 0, 50, 1);
        let p = b.span("txn", 10, 60, NONE, 128);
        b.span("drain", 20, 60, p, 128);
        a.absorb(b);
        let s = a.stat("drain");
        assert_eq!((s.calls, s.total_ns, s.items, s.empty), (3, 200, 5, 1));
        assert_eq!(s.ns_per_item(), 40.0);
        // The absorbed child still points at its own parent.
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(a.self_times_ns("txn"), vec![50, 10]);
    }
}
