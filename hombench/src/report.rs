//! Metric definitions and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use crate::stats::ratio;
use crate::trace::Tracer;
use std::fmt::Write as _;

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Client-side metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p95_ms", "ms", "lower"),
    m("cpu_us_per_op", "us", "lower"),
    m("rss_peak_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("client.error_rate", "ratio", "lower"),
    m("client.latency_p99_ms", "ms", "lower"),
    m("codec.request_encode_us", "us", "lower"),
    m("codec.request_decode_us", "us", "lower"),
    m("codec.response_encode_us", "us", "lower"),
    m("codec.response_decode_us", "us", "lower"),
    m("codec.request_bytes", "bytes", "lower"),
    m("codec.response_bytes", "bytes", "lower"),
    m("server.solves_per_batch", "solves/batch", "higher"),
    m("server.overloaded", "count", "lower"),
    m("server.deadline_expired", "count", "lower"),
    m("server.idle_wakeups", "count", "lower"),
    m("server.unattributed_us", "us", "lower"),
    m("pool.frame_buf_growths", "count", "lower"),
    m("dispatch.acyclic.mean_us", "us", "lower"),
    m("dispatch.acyclic.p99_us", "us", "lower"),
    m("dispatch.acyclic.hit_ratio", "ratio", "higher"),
    m("pebble.establish.mean_us", "us", "lower"),
    m("pebble.establish.refuted_ratio", "ratio", "higher"),
    m("pebble.establish.deletions_per_op", "count", "lower"),
    m("treewidth.decompose.mean_us", "us", "lower"),
    m("treewidth.decompose.fit_ratio", "ratio", "higher"),
    m("treewidth.bb_probe.mean_us", "us", "lower"),
    m("treewidth.bb_probe.p99_us", "us", "lower"),
    m("treewidth.bb_probe.rescue_ratio", "ratio", "higher"),
    m("treewidth.dp.mean_us", "us", "lower"),
    m("treewidth.dp.p99_us", "us", "lower"),
    m("search.mac.mean_us", "us", "lower"),
    m("search.mac.nodes_per_op", "count", "lower"),
    m("search.mac.backtracks_per_op", "count", "lower"),
    m("session.solve_us", "us", "lower"),
    m("session.unattributed_us", "us", "lower"),
    m("watch.apply.mean_us", "us", "lower"),
    m("watch.apply.p99_us", "us", "lower"),
    m("watch.repaired_ratio", "ratio", "higher"),
    m("watch.treewidth_skip_ratio", "ratio", "higher"),
    m("watch.monotone_refutations", "count", "higher"),
];

/// The end-to-end figures of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub cpu_us_per_op: f64,
    pub rss_peak_mb: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    /// These figures, measured at host `speed` (relative to the
    /// reference; see `calib`), scaled to the reference speed: times
    /// are multiplied by it and rates divided. Memory is not scaled.
    pub fn at_speed(&self, speed: f64) -> EndToEnd {
        EndToEnd {
            ops_per_s: self.ops_per_s / speed,
            latency_p50_ms: self.latency_p50_ms * speed,
            latency_p95_ms: self.latency_p95_ms * speed,
            cpu_us_per_op: self.cpu_us_per_op * speed,
            rss_peak_mb: self.rss_peak_mb,
            setup_s: self.setup_s * speed,
        }
    }

    pub fn values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ops_per_s", self.ops_per_s),
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p95_ms", self.latency_p95_ms),
            ("cpu_us_per_op", self.cpu_us_per_op),
            ("rss_peak_mb", self.rss_peak_mb),
            ("setup_s", self.setup_s),
        ]
    }
}

/// The per-layer ledger, from the spans and counters of a traced run.
/// A layer the workload never reaches reads 0.
pub fn layer_values(t: &Tracer) -> Vec<(&'static str, f64)> {
    let mean = |n: &str| t.samples(n).mean();
    let p99 = |n: &str| t.samples(n).percentile(0.99);
    let calls = |n: &str| t.samples(n).count() as f64;
    let per_call = |c: &str, n: &str| ratio(t.counter(c), calls(n));
    let repaired = t.counter("watch.repaired_establishes");
    vec![
        (
            "client.error_rate",
            ratio(t.counter("client.failed"), t.counter("client.attempted")),
        ),
        ("client.latency_p99_ms", t.counter("client.latency_p99_ms")),
        ("codec.request_encode_us", mean("codec.request_encode")),
        ("codec.request_decode_us", mean("codec.request_decode")),
        ("codec.response_encode_us", mean("codec.response_encode")),
        ("codec.response_decode_us", mean("codec.response_decode")),
        ("codec.request_bytes", mean("codec.request_bytes")),
        ("codec.response_bytes", mean("codec.response_bytes")),
        (
            "server.solves_per_batch",
            ratio(t.counter("server.solves"), t.counter("server.batches")),
        ),
        ("server.overloaded", t.counter("server.overloaded")),
        (
            "server.deadline_expired",
            t.counter("server.deadline_expired"),
        ),
        ("server.idle_wakeups", t.counter("server.idle_wakeups")),
        ("server.unattributed_us", mean("server.unattributed")),
        (
            "pool.frame_buf_growths",
            t.counter("pool.frame_buf_growths"),
        ),
        ("dispatch.acyclic.mean_us", mean("dispatch.acyclic")),
        ("dispatch.acyclic.p99_us", p99("dispatch.acyclic")),
        (
            "dispatch.acyclic.hit_ratio",
            per_call("dispatch.acyclic.hit", "dispatch.acyclic"),
        ),
        ("pebble.establish.mean_us", mean("pebble.establish")),
        (
            "pebble.establish.refuted_ratio",
            per_call("pebble.establish.refuted", "pebble.establish"),
        ),
        (
            "pebble.establish.deletions_per_op",
            per_call("pebble.establish.deletions", "pebble.establish"),
        ),
        ("treewidth.decompose.mean_us", mean("treewidth.decompose")),
        (
            "treewidth.decompose.fit_ratio",
            per_call("treewidth.decompose.fit", "treewidth.decompose"),
        ),
        ("treewidth.bb_probe.mean_us", mean("treewidth.bb_probe")),
        ("treewidth.bb_probe.p99_us", p99("treewidth.bb_probe")),
        (
            "treewidth.bb_probe.rescue_ratio",
            per_call("treewidth.bb_probe.rescue", "treewidth.bb_probe"),
        ),
        ("treewidth.dp.mean_us", mean("treewidth.dp")),
        ("treewidth.dp.p99_us", p99("treewidth.dp")),
        ("search.mac.mean_us", mean("search.mac")),
        (
            "search.mac.nodes_per_op",
            per_call("search.mac.nodes", "search.mac"),
        ),
        (
            "search.mac.backtracks_per_op",
            per_call("search.mac.backtracks", "search.mac"),
        ),
        ("session.solve_us", mean("session.solve")),
        ("session.unattributed_us", mean("session.unattributed")),
        ("watch.apply.mean_us", mean("watch.apply")),
        ("watch.apply.p99_us", p99("watch.apply")),
        (
            "watch.repaired_ratio",
            ratio(repaired, repaired + t.counter("watch.full_establishes")),
        ),
        (
            "watch.treewidth_skip_ratio",
            ratio(
                t.counter("watch.treewidth_skips"),
                t.counter("watch.updates"),
            ),
        ),
        (
            "watch.monotone_refutations",
            t.counter("watch.monotone_refutations"),
        ),
    ]
}

/// The result object printed as the last line of standard output.
/// Refuses a value set that does not match `defs` name for name, or a
/// value that is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    if names != expected {
        return Err(format!("metrics {names:?} do not match {expected:?}"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, (_, v))) in defs.iter().zip(values).enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", def.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(*v),
            def.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Every digit Rust's shortest round-trip formatting gives, with a
/// decimal point so JSON readers see a number either way.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit, better)` triples of one metric list in
    /// `BENCHMARK.json`, read without a JSON library: each entry is one
    /// `{...}` object inside the list's brackets.
    fn declared(list: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let open = start + text[start..].find('[').expect("list opens");
        let close = open + text[open..].find(']').expect("list closes");
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let q = rest.find('"').expect("string value") + 1;
            rest[q..q + rest[q..].find('"').expect("closing quote")].to_owned()
        };
        text[open + 1..close]
            .split('}')
            .filter(|o| o.contains('{'))
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect()
    }

    fn triples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(triples(END_TO_END), declared("end_to_end"));
        assert_eq!(triples(PER_LAYER), declared("per_layer"));
        // What a run actually prints, in both modes.
        let e2e = EndToEnd::default().values();
        assert!(result_line(true, 1, 0, END_TO_END, &e2e).is_ok());
        let layers = layer_values(&Tracer::default());
        assert!(result_line(true, 1, 0, PER_LAYER, &layers).is_ok());
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        for w in crate::workloads::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} missing from BENCHMARK.json",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_rejects_missing_extra_and_non_finite_metrics() {
        let mut e2e = EndToEnd::default().values();
        e2e.pop();
        assert!(result_line(true, 1, 0, END_TO_END, &e2e).is_err());
        let mut e2e = EndToEnd::default().values();
        e2e.push(("extra", 1.0));
        assert!(result_line(true, 1, 0, END_TO_END, &e2e).is_err());
        let bad = EndToEnd {
            latency_p95_ms: f64::NAN,
            ..EndToEnd::default()
        };
        assert!(result_line(true, 1, 0, END_TO_END, &bad.values()).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let e2e = EndToEnd {
            ops_per_s: 1234.5678901234,
            setup_s: 2.0,
            ..EndToEnd::default()
        };
        let line = result_line(true, 10, 1, END_TO_END, &e2e.values()).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678901234, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn scaling_to_the_reference_speed_leaves_memory_alone() {
        let measured = EndToEnd {
            ops_per_s: 1000.0,
            latency_p50_ms: 2.0,
            latency_p95_ms: 4.0,
            cpu_us_per_op: 500.0,
            rss_peak_mb: 8.0,
            setup_s: 0.25,
        };
        // Measured on a host at half the reference speed.
        let v: std::collections::HashMap<_, _> =
            measured.at_speed(0.5).values().into_iter().collect();
        assert_eq!(v["ops_per_s"], 2000.0);
        assert_eq!(v["latency_p50_ms"], 1.0);
        assert_eq!(v["latency_p95_ms"], 2.0);
        assert_eq!(v["cpu_us_per_op"], 250.0);
        assert_eq!(v["rss_peak_mb"], 8.0);
        assert_eq!(v["setup_s"], 0.125);
    }

    #[test]
    fn layer_ratios_come_from_counters_over_calls() {
        let mut t = Tracer::default();
        for us in [10.0, 20.0, 30.0, 40.0] {
            t.add("dispatch.acyclic", us);
        }
        t.count("dispatch.acyclic.hit", 3.0);
        t.count("server.solves", 64.0);
        t.count("server.batches", 8.0);
        t.count("client.failed", 1.0);
        t.count("client.attempted", 4.0);
        let v: std::collections::HashMap<_, _> = layer_values(&t).into_iter().collect();
        assert_eq!(v["dispatch.acyclic.mean_us"], 25.0);
        assert_eq!(v["dispatch.acyclic.p99_us"], 40.0);
        assert_eq!(v["dispatch.acyclic.hit_ratio"], 0.75);
        assert_eq!(v["server.solves_per_batch"], 8.0);
        assert_eq!(v["client.error_rate"], 0.25);
        assert_eq!(v["treewidth.dp.mean_us"], 0.0);
    }
}
