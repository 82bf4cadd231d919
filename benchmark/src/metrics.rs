//! The metrics a run reports, and the result line and record it writes.
//!
//! End-to-end metrics are workload-independent names whose meaning is
//! the workload's own operation: `items_per_s` counts RIB samples
//! inferred (cold), queries answered (serve) or route updates made fresh
//! (delta); `fresh_ms` is how long new input takes to become a fresh
//! answer: one cold infer of a RIB, one snapshot reload under load, one
//! update dump refreshed.

use crate::json::{number, string};
use crate::scenario::{host_cpus, mem_total_kib};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{Measured, Run};
use asrank_core::engine::Snapshot;
use std::io::Write;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("fresh_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ppv_c2p", "fraction"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.filter(|x| x.is_finite())
        .ok_or_else(|| format!("no measurement for {what}"))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    // Serving freshens its answers by reloads; the other workloads' ops
    // are themselves the path from new input to fresh answer.
    let fresh = if m.reloads.is_empty() {
        &m.op_secs
    } else {
        &m.reloads
    };
    let values = [
        need(median(&m.setup_s), "setup_s")?,
        need(median(&m.rates), "items_per_s")? * m.concurrency,
        need(median(fresh), "fresh_ms")? * 1e3,
        m.peak_rss_kib as f64 / 1024.0,
        m.ppv.0,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect())
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Median duration of a span, s.
    Secs(&'static str),
    /// Median duration of a span, ms.
    Millis(&'static str),
    /// Median of a counter.
    Count(&'static str),
    /// Millions of items per second: counter median over span median.
    Mega(&'static str, &'static str),
    /// 1 − in-process cost per query ÷ median TCP round trip.
    WireShare,
    /// Median refresh ÷ median cold engine run.
    OverCold,
    /// Traced op median ÷ untraced op median − 1.
    Overhead,
}

/// `(name, unit, source)` of every per-layer metric, in
/// `BENCHMARK.json` order.
fn per_layer_specs() -> Vec<(String, &'static str, Source)> {
    use Source::*;
    let mut specs: Vec<(String, &'static str, Source)> = vec![
        ("topology.generate_s".into(), "s", Secs("topology.generate")),
        ("bgpsim.simulate_s".into(), "s", Secs("bgpsim.simulate")),
        (
            "bgpsim.simulate_s.t1".into(),
            "s",
            Secs("bgpsim.simulate.t1"),
        ),
        ("mrt.rib_encode_s".into(), "s", Secs("mrt.rib_encode")),
        ("mrt.rib_decode_s".into(), "s", Secs("mrt.rib_decode")),
        ("mrt.rib_decode_s.t1".into(), "s", Secs("mrt.rib_decode.t1")),
    ];
    for stage in Snapshot::stage_names() {
        let span = crate::trace::intern(&format!("engine.{stage}"));
        specs.push((format!("engine.{stage}_ms"), "ms", Millis(span)));
    }
    specs.extend([
        ("engine.total_s".into(), "s", Secs("engine.total")),
        ("engine.total_s.t1".into(), "s", Secs("engine.total.t1")),
        (
            "engine.path_arena_ms.t1".into(),
            "ms",
            Millis("engine.path_arena.t1"),
        ),
        (
            "engine.cone_bgp_observed_ms.t1".into(),
            "ms",
            Millis("engine.cone_bgp_observed.t1"),
        ),
        ("persist.write_s".into(), "s", Secs("persist.write")),
        ("persist.bytes".into(), "bytes", Count("persist.bytes")),
        ("serve.resolve_ms".into(), "ms", Millis("serve.resolve")),
        ("serve.load_ms".into(), "ms", Millis("serve.load")),
        (
            "serve.answer_mqps".into(),
            "M/s",
            Mega("serve.pool_queries", "serve.answer_batch"),
        ),
        (
            "serve.proto_mqps".into(),
            "M/s",
            Mega("serve.pool_queries", "serve.proto"),
        ),
        ("serve.wire_share".into(), "fraction", WireShare),
        (
            "mrt.update_decode_ms".into(),
            "ms",
            Millis("mrt.update_decode"),
        ),
        ("delta.apply_ms".into(), "ms", Millis("delta.apply")),
        ("delta.refresh_ms".into(), "ms", Millis("delta.refresh")),
        (
            "delta.stages_recomputed".into(),
            "count",
            Count("delta.stages_recomputed"),
        ),
        ("delta.cold_ms".into(), "ms", Millis("delta.cold")),
        ("delta.over_cold".into(), "ratio", OverCold),
        ("trace.overhead_frac".into(), "fraction", Overhead),
    ]);
    specs
}

/// The per-layer metrics of a traced run.
pub fn per_layer(trace: &Trace, m: &Measured) -> Result<Vec<Metric>, String> {
    let secs = |span: &str| median(&trace.secs(span));
    let mega =
        |counter: &str, span: &str| Some(median(&trace.counter(counter))? / secs(span)? / 1e6);
    per_layer_specs()
        .into_iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::Secs(s) => secs(s),
                Source::Millis(s) => secs(s).map(|v| v * 1e3),
                Source::Count(c) => median(&trace.counter(c)),
                Source::Mega(c, s) => mega(c, s),
                Source::WireShare => (|| {
                    let in_process = 1e-6
                        * (1.0 / mega("serve.pool_queries", "serve.answer_batch")?
                            + 1.0 / mega("serve.pool_queries", "serve.proto")?);
                    Some(1.0 - in_process / secs("serve.query")?)
                })(),
                Source::OverCold => secs("delta.refresh")
                    .zip(secs("delta.cold"))
                    .map(|(r, c)| r / c),
                Source::Overhead => median(&m.traced_op_secs)
                    .zip(median(&m.op_secs))
                    .map(|(t, u)| t / u - 1.0),
            };
            Ok(Metric {
                value: need(value, &name)?,
                name,
                unit,
            })
        })
        .collect()
}

/// Extra numbers a reader of one run wants, not gated: the RIB's size,
/// the op count, the median op and the highest of p99, p90 and p75 that
/// has at least ten ops beyond it, p2p PPV, the failed share, the reload
/// count.
pub fn detail(m: &Measured) -> Vec<(String, f64)> {
    let n = m.op_secs.len();
    let ms = |p: f64| percentile(&m.op_secs, p).map_or(f64::NAN, |v| v * 1e3);
    let mut out = vec![
        ("samples".to_string(), m.samples as f64),
        ("ops".to_string(), n as f64),
        ("traced_ops".to_string(), m.traced_op_secs.len() as f64),
        ("op_p50_ms".to_string(), ms(50.0)),
    ];
    if let Some(p) = [99.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
    {
        out.push((format!("op_p{p}_ms"), ms(p)));
    }
    out.push(("ppv_p2p".to_string(), m.ppv.1));
    out.push((
        "failed_op_share".to_string(),
        m.failed as f64 / m.attempted.max(1) as f64,
    ));
    if !m.reloads.is_empty() {
        out.push(("reloads".to_string(), m.reloads.len() as f64));
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&mt.name),
                number(mt.value),
                string(mt.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// `correct`, `attempted`, `failed` and `metrics`, as JSON members.
fn result_fields(m: &Measured, metrics: &[Metric]) -> String {
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        m.failed == 0,
        m.attempted.max(1),
        m.failed,
        metrics_json(metrics)
    )
}

/// The result line the benchmark prints last.
pub fn result_line(m: &Measured, metrics: &[Metric]) -> String {
    format!("{{{}}}", result_fields(m, metrics))
}

/// The `--out` record: the result plus what `compare` and a reader need.
pub fn record(
    run: &Run,
    m: &Measured,
    metrics: &[Metric],
    detail: &[(String, f64)],
    spans: Option<&Trace>,
) -> String {
    let join = |items: Vec<String>| items.join(", ");
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {}, \"mem_total_kib\": {}, {}, \"failures\": [{}], \"detail\": {{{}}}",
        string(run.workload.name()),
        run.seed,
        number(run.seconds),
        run.trace,
        host_cpus(),
        mem_total_kib().map_or("null".to_string(), |k| k.to_string()),
        result_fields(m, metrics),
        join(m.failures.iter().map(|f| string(f)).collect()),
        join(
            detail
                .iter()
                .map(|(k, v)| format!("{}: {}", string(k), number(*v)))
                .collect()
        ),
    );
    if let Some(trace) = spans {
        out.push_str(&format!(", \"spans\": {}", trace.spans_json()));
    }
    out.push_str("}\n");
    out
}

/// A human-readable report of one run.
pub fn print_report(
    out: &mut dyn Write,
    run: &Run,
    metrics: &[Metric],
    detail: &[(String, f64)],
    m: &Measured,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{} seed {} ({} s, {} cores, {} setups)",
        run.workload.name(),
        run.seed,
        run.seconds,
        host_cpus(),
        m.setup_s.len()
    )?;
    for mt in metrics {
        writeln!(out, "  {:<34} {:>16.6} {}", mt.name, mt.value, mt.unit)?;
    }
    for (k, v) in detail {
        writeln!(out, "  {k:<34} {v:>16.6}")?;
    }
    writeln!(out, "  attempted {} failed {}", m.attempted, m.failed)?;
    for f in &m.failures {
        writeln!(out, "  failure: {f}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::scenario::Workload;

    fn listed(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(crate::compare::SPEC).unwrap();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_specs()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let doc = Json::parse(crate::compare::SPEC).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        // Every listed metric has a rule compare can apply.
        let rules = crate::compare::rules(crate::compare::SPEC).unwrap();
        assert_eq!(rules.len(), e2e.len() + layers.len());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut m = Measured::new(vec![1.5, 1.25, 1.75]);
        m.attempted = 3;
        m.record_op(0.5, 100.0, false);
        m.peak_rss_kib = 2048;
        m.ppv = (0.99, 0.8);
        let line = result_line(&m, &end_to_end(&m).unwrap());
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        let value = |k: &str| {
            metrics
                .get(k)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("setup_s"), Some(1.5));
        assert_eq!(value("items_per_s"), Some(200.0));
        assert_eq!(value("fresh_ms"), Some(500.0));
        assert_eq!(value("peak_rss_mib"), Some(2.0));

        // The --out record is JSON too, with what compare reads.
        let run = Run {
            workload: Workload::Cold,
            seed: 7,
            seconds: 15.0,
            trace: false,
        };
        let rec = record(&run, &m, &end_to_end(&m).unwrap(), &detail(&m), None);
        let doc = Json::parse(&rec).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("cold-16k"));
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(doc.get("host_cpus").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(doc.get("metrics").and_then(|v| v.get("ppv_c2p")).is_some());
    }
}
