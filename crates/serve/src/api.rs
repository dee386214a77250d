//! Request/response JSON shapes of the service.
//!
//! Parsing is strict where it guards the cache (unknown config fields
//! are rejected with 422 so a typo never silently simulates the default)
//! and tolerant where the CLI is tolerant: a `config` object is resolved
//! by the knob table, so every value accepts the CLI vocabulary —
//! `"mtvp-nostall"`, `"wf"`, `"2000:20000:1000"` — as well as the
//! canonical serialized form, exactly like scenario files.
//!
//! Response construction is centralized here so the differential test
//! can rely on one invariant: the `"stats"` subtree of a `/run` response
//! is `PipeStats::to_value()` verbatim — byte-identical to what the
//! engine would serialize directly, because the vendored `Value` keeps
//! insertion order and prints deterministically.

use mtvp_engine::{builtin, CellEntry, KnobValue, RunReport, Scale, Scenario, SimConfig};
use serde::{Deserialize, Serialize, Value};

/// Every key accepted in a `/run` request body. The keys of its `config`
/// object are the knob table's ([`KNOBS`](mtvp_engine::KNOBS)).
const RUN_KEYS: &[&str] = &["bench", "config", "scale", "wait", "timeout_ms"];
/// Every key accepted in a `/sweep` request body.
const SWEEP_KEYS: &[&str] = &["scenario", "scale", "benches", "wait", "timeout_ms"];

/// A validated `POST /run` body.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Benchmark name (existence is checked by the engine).
    pub bench: String,
    /// The fully resolved, validated configuration.
    pub config: SimConfig,
    /// Build scale (default [`Scale::Small`], matching `mtvp-sim run`).
    pub scale: Scale,
    /// Respond synchronously (default) or 202 + job id.
    pub wait: bool,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// A validated `POST /sweep` body.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// The scenario to run (built-in by name, or inline JSON).
    pub scenario: Scenario,
    /// CLI-style scale override.
    pub scale: Option<Scale>,
    /// Respond synchronously (default) or 202 + job id.
    pub wait: bool,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

fn reject_unknown_keys(v: &Value, known: &[&str], what: &str) -> Result<(), String> {
    let Value::Map(entries) = v else {
        return Err(format!("{what} must be a JSON object"));
    };
    for (k, _) in entries {
        if !known.contains(&k.as_str()) {
            return Err(format!(
                "unknown {what} field `{k}` (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

fn u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn bool_field(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

/// Parse and validate a `POST /run` body.
///
/// # Errors
/// Returns a 422-worthy message for a missing/unknown field or an
/// invalid configuration.
pub fn parse_run_request(body: &Value) -> Result<RunRequest, String> {
    reject_unknown_keys(body, RUN_KEYS, "run request")?;
    let bench = body
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("run request requires a string `bench`")?
        .to_string();
    // A sparse `{"mode": "mtvp", "contexts": 4}` resolves against the
    // mode's defaults; a full serialized `SimConfig` round-trips exactly.
    let empty = Value::Map(Vec::new());
    let config = SimConfig::from_knob_map(body.get("config").unwrap_or(&empty))
        .and_then(|c| c.validate().map(|()| c))
        .map_err(|e| e.0)?;
    let scale = match body.get("scale") {
        None | Some(Value::Null) => Scale::Small,
        Some(s) => Scale::parse_value(s).map_err(|e| e.0)?,
    };
    let wait = bool_field(body, "wait")?.unwrap_or(true);
    let timeout_ms = u64_field(body, "timeout_ms")?;
    Ok(RunRequest {
        bench,
        config,
        scale,
        wait,
        timeout_ms,
    })
}

/// Parse and validate a `POST /sweep` body. `scenario` is either the
/// name of a built-in or an inline scenario object; an optional
/// `benches` list narrows the benchmark filter.
///
/// # Errors
/// Returns a 422-worthy message for an unknown built-in, a malformed
/// inline scenario, or an invalid field.
pub fn parse_sweep_request(body: &Value) -> Result<SweepRequest, String> {
    reject_unknown_keys(body, SWEEP_KEYS, "sweep request")?;
    let mut scenario = match body.get("scenario") {
        Some(Value::Str(name)) => builtin(name)
            .ok_or_else(|| format!("unknown built-in scenario `{name}` (see GET /scenarios)"))?,
        Some(v @ Value::Map(_)) => Scenario::from_value(v).map_err(|e| e.0)?,
        _ => return Err("sweep request requires a `scenario` (name or object)".to_string()),
    };
    if let Some(b) = body.get("benches").filter(|x| !matches!(x, Value::Null)) {
        let benches: Vec<String> = Vec::from_value(b)
            .map_err(|_| "field `benches` must be a list of benchmark names".to_string())?;
        scenario.benches = benches;
    }
    // Surface expansion errors (duplicate labels, dangling baseline,
    // invalid grid points) at parse time so they map to 422, not 500.
    scenario.configs().map_err(|e| e.0)?;
    let scale = match body.get("scale") {
        None | Some(Value::Null) => None,
        Some(s) => Some(Scale::parse_value(s).map_err(|e| e.0)?),
    };
    let wait = bool_field(body, "wait")?.unwrap_or(true);
    let timeout_ms = u64_field(body, "timeout_ms")?;
    Ok(SweepRequest {
        scenario,
        scale,
        wait,
        timeout_ms,
    })
}

/// The `/run` success payload. `stats` is `PipeStats::to_value()`
/// verbatim (the differential test depends on this).
pub fn run_result_json(
    job: u64,
    entry: &CellEntry,
    cached: bool,
    coalesced: bool,
    elapsed_us: u64,
) -> Value {
    Value::Map(vec![
        ("job".to_string(), Value::U64(job)),
        ("bench".to_string(), Value::Str(entry.bench.clone())),
        ("scale".to_string(), Value::Str(entry.scale.clone())),
        ("config".to_string(), entry.config.to_value()),
        ("cached".to_string(), Value::Bool(cached)),
        ("coalesced".to_string(), Value::Bool(coalesced)),
        ("dyn_instrs".to_string(), Value::U64(entry.dyn_instrs)),
        ("ipc".to_string(), Value::F64(entry.stats.ipc())),
        ("stats".to_string(), entry.stats.to_value()),
        ("elapsed_us".to_string(), Value::U64(elapsed_us)),
    ])
}

/// The sweep report payload (shared by every coalesced `/sweep` caller;
/// the per-request `job`/`coalesced` fields are added by the wrapper).
pub fn sweep_report_json(scenario: &Scenario, report: &RunReport) -> Value {
    let mut cells = Vec::with_capacity(report.sweep.cells.len());
    for c in &report.sweep.cells {
        let mut fields = vec![
            ("bench".to_string(), Value::Str(c.bench.clone())),
            ("config".to_string(), Value::Str(c.config.clone())),
            ("ipc".to_string(), Value::F64(c.stats.ipc())),
            ("cycles".to_string(), Value::U64(c.stats.cycles)),
        ];
        if let Some(base) = &scenario.baseline {
            if let Some(s) = report.sweep.speedup(&c.bench, &c.config, base) {
                fields.push(("speedup_pct".to_string(), Value::F64(s)));
            }
        }
        cells.push(Value::Map(fields));
    }
    let mut fields = vec![
        ("scenario".to_string(), Value::Str(scenario.name.clone())),
        (
            "scale".to_string(),
            Value::Str(mtvp_engine::key::scale_tag(report.scale).to_string()),
        ),
        (
            "baseline".to_string(),
            scenario
                .baseline
                .as_ref()
                .map(|b| Value::Str(b.clone()))
                .unwrap_or(Value::Null),
        ),
        (
            "total_cells".to_string(),
            Value::U64(report.total_cells as u64),
        ),
        (
            "cache_hits".to_string(),
            Value::U64(report.cache_hits as u64),
        ),
        ("simulated".to_string(), Value::U64(report.simulated as u64)),
        ("summary".to_string(), Value::Str(report.summary())),
        ("cells".to_string(), Value::Seq(cells)),
    ];
    if let Some(base) = &scenario.baseline {
        let labels: Vec<String> = if scenario.series.is_empty() {
            report
                .sweep
                .cells
                .iter()
                .map(|c| c.config.clone())
                .filter(|l| l != base)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        } else {
            scenario.series.clone()
        };
        let geo = labels
            .into_iter()
            .map(|l| {
                let s = report.sweep.geomean_speedup(None, &l, base);
                (l, Value::F64(s))
            })
            .collect();
        fields.push(("geomean_speedup_pct".to_string(), Value::Map(geo)));
    }
    Value::Map(fields)
}

/// The 202 payload for an accepted asynchronous job.
pub fn accepted_json(job: u64) -> Value {
    Value::Map(vec![
        ("job".to_string(), Value::U64(job)),
        ("state".to_string(), Value::Str("queued".to_string())),
        ("poll".to_string(), Value::Str(format!("/jobs/{job}"))),
        (
            "result".to_string(),
            Value::Str(format!("/jobs/{job}/result")),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvp_engine::{CoreKind, Mode, SamplingParams, SpawnPolicyKind};

    /// The `config` object of a `/run` request, resolved and validated.
    fn config_from_value(v: Option<&Value>) -> Result<SimConfig, String> {
        let mut body = vec![("bench".to_string(), Value::Str("mcf".into()))];
        body.extend(v.map(|c| ("config".to_string(), c.clone())));
        parse_run_request(&Value::Map(body)).map(|r| r.config)
    }

    #[test]
    fn sparse_run_request_resolves_defaults() {
        let body = serde_json::from_str(
            r#"{"bench": "mcf", "scale": "tiny",
                "config": {"mode": "baseline"}}"#,
        )
        .unwrap();
        let r = parse_run_request(&body).unwrap();
        assert_eq!(r.bench, "mcf");
        assert_eq!(r.scale, Scale::Tiny);
        assert_eq!(r.config, SimConfig::new(Mode::Baseline));
        assert!(r.wait);
        assert_eq!(r.timeout_ms, None);
    }

    #[test]
    fn full_simconfig_round_trips_through_the_request_shape() {
        let mut cfg = SimConfig::oracle(Mode::Mtvp);
        cfg.contexts = 4;
        cfg.spawn_latency = 8;
        let back = config_from_value(Some(&cfg.to_value())).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn sampling_schedule_round_trips_and_parses_cli_form() {
        let mut cfg = SimConfig::new(Mode::Mtvp);
        cfg.sampling = Some(SamplingParams {
            window: 2_000,
            interval: 120_000,
            warmup: 4_000,
        });
        let back = config_from_value(Some(&cfg.to_value())).unwrap();
        assert_eq!(back, cfg);
        // The CLI string form is accepted too, like predictor/selector.
        let body =
            serde_json::from_str(r#"{"mode": "mtvp", "sampling": "2000:120000:4000"}"#).unwrap();
        assert_eq!(config_from_value(Some(&body)).unwrap(), cfg);
    }

    #[test]
    fn spawn_policy_round_trips_and_parses_cli_form() {
        let mut cfg = SimConfig::new(Mode::Mtvp);
        cfg.spawn_policy = SpawnPolicyKind::Static;
        let back = config_from_value(Some(&cfg.to_value())).unwrap();
        assert_eq!(back, cfg);
        // CLI vocabulary is accepted like the other enum fields.
        let body = serde_json::from_str(r#"{"mode": "mtvp", "spawn_policy": "static"}"#).unwrap();
        assert_eq!(config_from_value(Some(&body)).unwrap(), cfg);
        // The static policy is still validated against the machine shape.
        let bad =
            serde_json::from_str(r#"{"mode": "baseline", "spawn_policy": "static"}"#).unwrap();
        assert!(config_from_value(Some(&bad)).is_err());
    }

    #[test]
    fn core_field_parses_cli_form_and_validates() {
        let body = serde_json::from_str(r#"{"mode": "baseline", "core": "inorder"}"#).unwrap();
        let cfg = config_from_value(Some(&body)).unwrap();
        assert_eq!(cfg.core, CoreKind::InOrderScalar);
        let back = config_from_value(Some(&cfg.to_value())).unwrap();
        assert_eq!(back, cfg);
        // The in-order core rejects MTVP knobs at validation time.
        let body = serde_json::from_str(r#"{"mode": "mtvp", "core": "inorder"}"#).unwrap();
        let e = config_from_value(Some(&body)).unwrap_err();
        assert!(e.contains("in-order"), "{e}");
    }

    #[test]
    fn unknown_and_invalid_fields_are_rejected() {
        for bad in [
            r#"{"bench": "mcf", "confg": {}}"#,
            r#"{"bench": "mcf", "config": {"contexts": "four"}}"#,
            r#"{"bench": "mcf", "config": {"warp": 9}}"#,
            r#"{"bench": "mcf", "config": {"mode": "warp9"}}"#,
            r#"{"config": {}}"#,
            r#"{"bench": "mcf", "scale": "galactic"}"#,
            r#"{"bench": "mcf", "config": {"mode": "baseline", "contexts": 8}}"#,
        ] {
            let body = serde_json::from_str(bad).unwrap();
            assert!(parse_run_request(&body).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn sweep_requests_resolve_builtins_and_inline_scenarios() {
        let body =
            serde_json::from_str(r#"{"scenario": "smoke", "scale": "tiny", "benches": ["mcf"]}"#)
                .unwrap();
        let r = parse_sweep_request(&body).unwrap();
        assert_eq!(r.scenario.name, "smoke");
        assert_eq!(r.scenario.benches, vec!["mcf".to_string()]);
        assert_eq!(r.scale, Some(Scale::Tiny));

        let inline = serde_json::from_str(
            r#"{"scenario": {"name": "mini", "grids": [{"mode": "baseline"}]}}"#,
        )
        .unwrap();
        assert_eq!(parse_sweep_request(&inline).unwrap().scenario.name, "mini");

        for bad in [
            r#"{"scenario": "warp9"}"#,
            r#"{}"#,
            r#"{"scenario": {"name": "x", "grids": []}}"#,
        ] {
            let body = serde_json::from_str(bad).unwrap();
            assert!(parse_sweep_request(&body).is_err(), "accepted: {bad}");
        }
    }
}
