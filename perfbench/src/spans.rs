//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer, recorded from the benchmark's own
//! code: its name, start and end (nanoseconds since the tracer's origin),
//! the span that caused it, and the request it belongs to.  Spans stay in
//! memory while the run measures and are written out once at the end.  A
//! span's *self time* is its duration minus the union of its direct
//! children's intervals (clipped to the span), so overlapping children are
//! not subtracted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against one origin instant.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at` (0 for instants before it).
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from two instants taken around a call; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, parent, start, end);
        out
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let end = self.offset(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| self_time((span.start_ns, span.end_ns), kids))
            .collect()
    }

    /// Duration and self-time samples (microseconds) per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Samples, Samples)> {
        let mut out: BTreeMap<&'static str, (Samples, Samples)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry
                .0
                .push(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3);
            entry.1.push(own as f64 / 1e3);
        }
        out
    }

    /// Tab-separated dump: one header line, then one line per span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.id, parent, span.request, span.name, span.start_ns, span.end_ns, own
            );
        }
        out
    }
}

/// Duration of `span` minus the union of `children` clipped to it.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // [10, 30) and [20, 50) overlap on [20, 30): union 40, self 60.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 50)]), 60);
        // A child contained in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Disjoint children add up.
        assert_eq!(self_time((0, 100), &[(70, 80), (10, 20)]), 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((0, 100), &[(90, 130)]), 90);
        assert_eq!(self_time((50, 100), &[(0, 60), (200, 300)]), 40);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time((50, 100), &[(0, 300)]), 0);
    }

    #[test]
    fn nested_spans_only_subtract_direct_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let root = t.record("request", 7, None, at(0), at(100));
        let child = t.record("engine", 7, Some(root), at(10), at(70));
        t.record("index", 7, Some(child), at(20), at(60));
        t.record("codec", 7, Some(root), at(60), at(80)); // overlaps `engine`
        assert_eq!(t.self_times(), vec![100 - 70, 60 - 40, 40, 20]);
        let by_name = t.by_name();
        assert_eq!(by_name["engine"].1.median(), 0.02);
        assert!(t.to_tsv().lines().count() == 5);
        assert!(t.to_tsv().contains("1\t0\t7\tengine\t10\t70\t20"));
    }
}
