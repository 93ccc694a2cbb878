//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code wraps each public call into a layer in a
//! span: name, start, end, the layer that caused it, and the id of the
//! request it served (spans of one request share it). Durations are
//! aggregated per layer for the ledger; the raw spans of the first
//! [`Tracer::KEEP_REQUESTS`] requests are kept and written out when the
//! run ends.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One layer boundary crossing.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span durations (µs) and event counts, keyed by layer name.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    durations: BTreeMap<&'static str, Samples>,
    counts: BTreeMap<&'static str, f64>,
    /// Span time recorded since the last [`Tracer::mark`], in µs.
    since_mark: f64,
    /// Duration of the latest span, in µs.
    last: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
            counts: BTreeMap::new(),
            since_mark: 0.0,
            last: 0.0,
        }
    }
}

impl Tracer {
    /// Raw spans are exported for request ids below this; every
    /// request still feeds the aggregates.
    pub const KEEP_REQUESTS: u64 = 2000;

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, name, parent, start, Instant::now());
        out
    }

    /// Records a span whose endpoints were taken by the caller.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let us = (end - start).as_secs_f64() * 1e6;
        self.add(name, us);
        self.since_mark += us;
        self.last = us;
        if request < Self::KEEP_REQUESTS {
            let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                request,
                name,
                parent,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Duration of the latest span, in µs.
    pub fn last_us(&self) -> f64 {
        self.last
    }

    /// Starts a new window for [`Tracer::since_mark`].
    pub fn mark(&mut self) {
        self.since_mark = 0.0;
    }

    /// Total span time recorded since the last [`Tracer::mark`], in µs:
    /// the part of a request the traced layers account for.
    pub fn since_mark(&self) -> f64 {
        self.since_mark
    }

    /// Adds a derived per-request quantity (µs or otherwise) to a
    /// layer's samples without a span.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.durations.entry(name).or_default().push(value);
    }

    /// Adds `n` to an event counter.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The samples recorded under `name` (empty if the layer never
    /// ran).
    pub fn samples(&self, name: &str) -> Samples {
        self.durations.get(name).cloned().unwrap_or_default()
    }

    /// The counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The kept spans, one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}
