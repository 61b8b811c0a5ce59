//! Results: named metrics with units, the human-readable report, and
//! the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or a diagnostic name).
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`, `MiB`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, or scans run).
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// The metrics the JSON result carries.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed in the report only (health checks, rates).
    pub extra: Vec<Metric>,
    /// Per-phase lines for the report.
    pub log: Vec<String>,
    /// The first few failures, verbatim.
    pub failures: Vec<String>,
}

/// The median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON number with every digit of `v` (non-finite values become
/// `null`, which no reader takes for a measurement).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The human-readable report: every metric by name with its unit.
pub fn table(title: &str, o: &Outcome) -> String {
    let mut s = format!("== {title}\n");
    for line in &o.log {
        let _ = writeln!(s, "   {line}");
    }
    for m in o.metrics.iter().chain(&o.extra) {
        let _ = writeln!(s, "   {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(s, "   attempted {}  failed {}", o.attempted, o.failed);
    for f in &o.failures {
        let _ = writeln!(s, "   FAILURE: {f}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s"), Metric::new("x", 1e-7, "us")],
            ..Outcome::default()
        };
        let line = result_line(true, &o);
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let serde::Value::Map(top) = v else { panic!("not an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
