//! Metric catalogue, run outcome, and the printed report.
//!
//! The catalogue is the single list of metric names, units and
//! directions; `BENCHMARK.json` at the repository root mirrors it (a unit
//! test keeps the two in step). A timed run prints every end-to-end
//! metric, a traced run every per-layer metric; a layer that a workload
//! does not exercise reads 0 there.

use std::fmt::Write as _;

use crate::deit::LedgerRow;
use crate::stats::quantile;

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("transformer.block_ms_p50", "ms", "lower"),
    ("transformer.embed_ms", "ms", "lower"),
    ("transformer.head_ms", "ms", "lower"),
    ("transformer.glue_ms", "ms", "lower"),
    ("transformer.fusion_hit_ratio", "ratio", "higher"),
    ("transformer.plan_cache_hit_ratio", "ratio", "higher"),
    ("transformer.plan_cache_mb", "MB", "lower"),
    ("transformer.vpu_fp_ops", "count", "lower"),
    ("transformer.vpu_lut_ops", "count", "lower"),
    ("transformer.vpu_host_ops", "count", "lower"),
    ("node.ln_ms", "ms", "lower"),
    ("node.qkv_ms", "ms", "lower"),
    ("node.scores_ms", "ms", "lower"),
    ("node.softmax_ms", "ms", "lower"),
    ("node.ctx_ms", "ms", "lower"),
    ("node.wo_ms", "ms", "lower"),
    ("node.fc1_gelu_ms", "ms", "lower"),
    ("node.fc2_ms", "ms", "lower"),
    ("node.ln_share", "ratio", "lower"),
    ("node.qkv_share", "ratio", "lower"),
    ("node.scores_share", "ratio", "lower"),
    ("node.softmax_share", "ratio", "lower"),
    ("node.ctx_share", "ratio", "lower"),
    ("node.wo_share", "ratio", "lower"),
    ("node.fc1_gelu_share", "ratio", "lower"),
    ("node.fc2_share", "ratio", "lower"),
    ("node.coverage", "ratio", "higher"),
    ("phase.quantize_pack_ms", "ms", "lower"),
    ("phase.gemm_ms", "ms", "lower"),
    ("phase.softmax_ms", "ms", "lower"),
    ("phase.gelu_ms", "ms", "lower"),
    ("phase.layernorm_ms", "ms", "lower"),
    ("phase.unaccounted_ms", "ms", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("core.modelled_ms", "ms", "lower"),
    ("core.table4_ms", "ms", "lower"),
    ("core.drift_worst_ratio", "ratio", "lower"),
    ("core.drift_mean_abs_log2", "log2", "lower"),
    ("arith.gemm_macs_per_image", "count", "lower"),
    ("arith.packed_operand_mb_per_image", "MB", "lower"),
    ("quality.logit_sqnr_db", "dB", "higher"),
    ("serve.latency_ms_p50", "ms", "lower"),
    ("serve.latency_ms_p99", "ms", "lower"),
    ("serve.critical_ms_p99", "ms", "lower"),
    ("serve.max_rps_within_slo", "1/s", "higher"),
    ("serve.submit_us_p50", "us", "lower"),
    ("serve.submit_us_p99", "us", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p99", "ms", "lower"),
    ("serve.service_ms_p50.attn", "ms", "lower"),
    ("serve.service_ms_p50.qkv", "ms", "lower"),
    ("serve.service_ms_p50.fc1", "ms", "lower"),
    ("serve.service_ms_p50.fc2", "ms", "lower"),
    ("serve.array_busy_frac", "ratio", "lower"),
    ("serve.retries_per_request", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_missed", "count", "lower"),
    ("serve.fast_share", "ratio", "lower"),
    ("serve.brownout_transitions", "count", "lower"),
    ("serve.queue_high_water", "count", "lower"),
    ("serve.generator_lag_ms_p99", "ms", "lower"),
    ("serve.envelope_violations", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

fn catalogue_entry(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One measured metric with its in-run spread.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind `value` (1 for a single measurement or count).
    pub samples: usize,
    /// First and third quartile of the samples (both `value` for one).
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// The median of `xs`, with its quartiles.
    pub fn median_of(name: &str, xs: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            value: quantile(xs, 0.5),
            samples: xs.len(),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
        }
    }

    /// A single value resting on `samples` samples.
    pub fn single(name: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            samples,
            q1: value,
            q3: value,
        }
    }
}

/// A correctness check of the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    pub ledger: Vec<LedgerRow>,
    /// Free-form `(key, value)` facts for the report line.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64) -> Outcome {
        Outcome {
            attempted,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, m: Metric) {
        catalogue_entry(&m.name);
        self.metrics.push(m);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The value reported for `name`: measured, or 0 for a layer this
    /// workload does not exercise.
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// JSON number: shortest round-trip form; non-finite values (which JSON
/// cannot carry) become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The human-readable table and the detailed `report` JSON line.
pub fn render_report(
    o: &Outcome,
    header: &[(String, String)],
    catalogue: &[(&str, &str, &str)],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<38} {:>16} {:<6} {:<6} {:>6} {:>14} {:>14}",
        "metric", "value", "unit", "better", "n", "q1", "q3"
    );
    for &(name, unit, better) in catalogue {
        match o.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                let _ = writeln!(
                    s,
                    "{name:<38} {:>16.6} {unit:<6} {better:<6} {:>6} {:>14.6} {:>14.6}",
                    m.value, m.samples, m.q1, m.q3
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "{name:<38} {:>16} {unit:<6} {better:<6} (layer not exercised: reads 0)",
                    "-"
                );
            }
        }
    }
    if !o.ledger.is_empty() {
        let _ = writeln!(s, "\nper-node ledger (per image; modelled at 300 MHz)");
        let _ = writeln!(
            s,
            "{:<6} {:<10} {:>14} {:>14} {:>8}",
            "mode", "node", "modelled_ms", "measured_ms", "share"
        );
        for r in &o.ledger {
            let _ = writeln!(
                s,
                "{:<6} {:<10} {:>14.6} {:>14.3} {:>8.4}",
                r.mode.as_str(),
                r.kind,
                r.modelled_ms,
                r.measured_ms,
                r.share
            );
        }
        let _ = writeln!(
            s,
            "gap: under the compiled plan the GELU epilogue is billed inside node fc1_gelu, so phase.gelu_ms reads 0"
        );
    }
    for c in &o.checks {
        let _ = writeln!(
            s,
            "check {:<44} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }

    // The machine-readable report line.
    let mut j = String::from("{\"report\":{");
    for (k, v) in header.iter().chain(&o.info) {
        let _ = write!(j, "{}:{},", string(k), string(v));
    }
    j.push_str("\"checks\":[");
    for (i, c) in o.checks.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
            if i > 0 { "," } else { "" },
            string(c.name),
            c.ok,
            string(&c.detail)
        );
    }
    j.push_str("],\"metrics\":[");
    for (i, m) in o.metrics.iter().enumerate() {
        let (unit, better) = catalogue_entry(&m.name);
        let _ = write!(
            j,
            "{}{{\"name\":{},\"value\":{},\"unit\":{},\"better\":{},\"samples\":{},\"q1\":{},\"q3\":{}}}",
            if i > 0 { "," } else { "" },
            string(&m.name),
            num(m.value),
            string(unit),
            string(better),
            m.samples,
            num(m.q1),
            num(m.q3)
        );
    }
    j.push_str("],\"ledger\":[");
    for (i, r) in o.ledger.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"mode\":{},\"node\":{},\"modelled_ms\":{},\"measured_ms\":{},\"share\":{}}}",
            if i > 0 { "," } else { "" },
            string(r.mode.as_str()),
            string(r.kind),
            num(r.modelled_ms),
            num(r.measured_ms),
            num(r.share)
        );
    }
    j.push_str("]}}");
    s.push_str(&j);
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `catalogue`.
pub fn result_line(o: &Outcome, catalogue: &[(&str, &str, &str)]) -> String {
    let mut j = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, &(name, unit, _)) in catalogue.iter().enumerate() {
        let v = o.value(name);
        let _ = write!(
            j,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            string(name),
            num(v),
            string(unit)
        );
    }
    j.push_str("}}");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in the repository's BENCHMARK.json, with
    /// their units and directions (a minimal scan of the fixed layout).
    fn benchmark_json_metrics(key: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string closes") + open;
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let own = |c: &[(&str, &str, &str)]| {
            c.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(benchmark_json_metrics("end_to_end"), own(END_TO_END));
        assert_eq!(benchmark_json_metrics("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_catalogue_metric_and_nothing_else() {
        let mut o = Outcome::new(5);
        o.metric(Metric::single("latency_ms", 1.25, 5));
        let line = result_line(&o, END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"latency_ms\": {\"value\": 1.25,"));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
