//! What one benchmark run reports: operations attempted and failed,
//! failed checks, metrics by name and unit, and the detail behind them
//! (sample counts, tail percentiles, ratio bases, output digests).

use crate::stats::{Ratio, Timing};
use serde::Value;

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The accumulating result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: simulated cells and requests.
    pub attempted: u64,
    /// Operations that failed: a panicked or mis-checked cell, a non-200
    /// response or a transport error.
    pub failed: u64,
    /// Every failed check, operation-level or global.
    pub problems: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Supporting facts, in report order.
    pub detail: Vec<(String, Value)>,
}

/// A finite JSON number (failures make latencies infinite; JSON has no
/// infinity, so they are reported as a huge value and flagged by the
/// failure count).
pub fn num(v: f64) -> Value {
    Value::F64(if v.is_finite() { v } else { 1e12 })
}

impl Report {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// A check over the run as a whole (no operation of its own).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a host-time metric at the reference host speed (see
    /// `calib`): `raw` divided by the run's host `factor`, or multiplied
    /// by it for a rate. The raw value goes to the detail.
    pub fn host_metric(&mut self, name: &str, raw: f64, unit: &'static str, factor: f64) {
        let rate = unit == "MIPS";
        self.metric(name, if rate { raw * factor } else { raw / factor }, unit);
        self.detail(&format!("raw.{name}"), num(raw));
    }

    /// Record a supporting fact.
    pub fn detail(&mut self, name: &str, v: Value) {
        self.detail.push((name.to_string(), v));
    }

    /// Record a timing's median, tail percentile and sample count.
    pub fn timing(&mut self, name: &str, t: &Timing) {
        self.detail(
            name,
            Value::Map(vec![
                ("n".to_string(), Value::U64(t.n as u64)),
                ("p50".to_string(), num(t.p50)),
                (
                    "tail_pct".to_string(),
                    t.tail_pct.map_or(Value::Str("max".to_string()), Value::F64),
                ),
                ("tail".to_string(), num(t.tail)),
            ]),
        );
    }

    /// Record a ratio's numerator and denominator.
    pub fn ratio(&mut self, name: &str, r: Ratio) {
        self.detail(
            name,
            Value::Map(vec![
                ("num".to_string(), num(r.num)),
                ("den".to_string(), num(r.den)),
                ("value".to_string(), num(r.value())),
            ]),
        );
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The final one-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
        .to_string()
    }

    /// The whole report as JSON (written next to the spans).
    pub fn to_json(&self) -> String {
        let mut m = vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "problems".to_string(),
                Value::Seq(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
        ];
        m.push((
            "metrics".to_string(),
            Value::Map(
                self.metrics
                    .iter()
                    .map(|x| (x.name.clone(), num(x.value)))
                    .collect(),
            ),
        ));
        m.push(("detail".to_string(), Value::Map(self.detail.clone())));
        Value::Map(m).to_string()
    }
}
