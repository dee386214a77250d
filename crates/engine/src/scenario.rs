//! Declarative experiment scenarios.
//!
//! A scenario names a figure-shaped experiment: which benchmarks, which
//! scale, and a set of *configuration grids* — each a machine mode plus
//! per-axis value lists (cores × contexts × spawn latency × store buffer
//! × MSHRs) that expand into labelled [`SimConfig`]s. The paper's figures
//! ship as built-in scenarios (see [`crate::builtin`]); users can also
//! load their own from JSON files via `mtvp-sim exp run ./my-scenario.json`.
//!
//! Scenario files are deliberately tolerant: every field except a grid's
//! `mode` has a default, and a grid's keys are the knob table's
//! ([`KNOBS`](mtvp_core::KNOBS)), so every value accepts the CLI
//! vocabulary (`"mtvp-nostall"`, `"wf"`, `"l3"`, `"2000:50000:1000"`) as
//! well as the canonical serialized form. An unknown key is an error.

use mtvp_core::{
    knob, CoreKind, KnobValue, L3Params, Mode, SamplingParams, SimConfig, SpawnPolicyKind, Workload,
};
use mtvp_pipeline::{PredictorKind, SelectorKind};
use mtvp_workloads::Scale;
use serde::{Deserialize, Serialize, Value};

/// A malformed or inconsistent scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// The list-valued axes of a grid, outermost (slowest-varying) first,
/// with their label placeholders.
const AXES: [(&str, &str); 5] = [
    ("cores", "{cores}"),
    ("contexts", "{contexts}"),
    ("spawn_latency", "{spawn}"),
    ("store_buffer", "{sb}"),
    ("mshrs", "{mshrs}"),
];

/// One grid of configurations sharing a machine mode.
///
/// Every field except `label` is a knob of the same name
/// ([`KNOBS`](mtvp_core::KNOBS)). Every empty axis and every `None`
/// override means "the mode's default value"; a non-empty axis
/// multiplies the grid. The `label` is a template rendered once per grid
/// point with `{cores}`, `{contexts}`, `{spawn}`, `{sb}` and `{mshrs}`
/// placeholders. The derived `Deserialize` reads the complete serialized
/// form; scenario files load through the tolerant [`Scenario`] reader.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfigGrid {
    /// Label template for the expanded configurations.
    pub label: String,
    /// Machine mode of every configuration in the grid.
    pub mode: Mode,
    /// Core module every configuration in the grid runs on.
    pub core: CoreKind,
    /// Start from [`SimConfig::oracle`] instead of [`SimConfig::new`].
    pub oracle: bool,
    /// Hardware-context axis.
    pub contexts: Vec<usize>,
    /// Spawn-latency axis in cycles.
    pub spawn_latency: Vec<u64>,
    /// Store-buffer-entries axis.
    pub store_buffer: Vec<usize>,
    /// MSHR-capacity axis.
    pub mshrs: Vec<usize>,
    /// Override the value predictor.
    pub predictor: Option<PredictorKind>,
    /// Override the load selector.
    pub selector: Option<SelectorKind>,
    /// Override the spawn policy.
    pub spawn_policy: Option<SpawnPolicyKind>,
    /// Override the stride prefetcher switch.
    pub prefetcher: Option<bool>,
    /// Override cache warm-start.
    pub warm_start: Option<bool>,
    /// Override values followed per load (MultiValue mode).
    pub max_values_per_load: Option<usize>,
    /// Override the architectural instruction limit.
    pub inst_limit: Option<u64>,
    /// Override the hard cycle limit.
    pub max_cycles: Option<u64>,
    /// Override idle-cycle fast-forwarding.
    pub fast_forward: Option<bool>,
    /// Two-tier sampled simulation schedule (`None`: full detailed).
    pub sampling: Option<SamplingParams>,
    /// CMP core-count axis (varies slowest).
    pub cores: Vec<usize>,
    /// Override the shared-L3 shape.
    pub l3: Option<L3Params>,
    /// Override the core-to-L3 interconnect hop latency (cycles).
    pub interconnect_hop: Option<u64>,
    /// Override cross-core speculative spawning onto idle siblings.
    pub cross_core_spawn: Option<bool>,
    /// Co-runner workload specs (`synth:<seed>`, `phases:<seed>`, or a
    /// registry benchmark name), one per occupied sibling core.
    pub co_workloads: Vec<String>,
}

impl ConfigGrid {
    /// A single-point grid for `mode` labelled `label`.
    pub fn new(label: impl Into<String>, mode: Mode) -> ConfigGrid {
        ConfigGrid {
            label: label.into(),
            mode,
            core: CoreKind::OutOfOrder,
            oracle: false,
            contexts: Vec::new(),
            spawn_latency: Vec::new(),
            store_buffer: Vec::new(),
            mshrs: Vec::new(),
            predictor: None,
            selector: None,
            spawn_policy: None,
            prefetcher: None,
            warm_start: None,
            max_values_per_load: None,
            inst_limit: None,
            max_cycles: None,
            fast_forward: None,
            sampling: None,
            cores: Vec::new(),
            l3: None,
            interconnect_hop: None,
            cross_core_spawn: None,
            co_workloads: Vec::new(),
        }
    }

    /// Expand the grid into labelled, validated configurations, nested
    /// cores → contexts → spawn → store buffer → MSHRs (outermost varies
    /// slowest).
    pub fn expand(&self) -> Result<Vec<(String, SimConfig)>, ScenarioError> {
        let err = |e: mtvp_core::ConfigError| ScenarioError(e.0);
        let Value::Map(fields) = self.to_value() else {
            unreachable!("a struct serializes to a map")
        };
        let (axes, overrides): (Vec<_>, Vec<_>) = fields
            .into_iter()
            .filter(|(key, v)| key != "label" && *v != Value::Seq(Vec::new()))
            .partition(|(key, _)| AXES.iter().any(|(axis, _)| axis == key));
        let base = SimConfig::from_knob_map(&Value::Map(overrides)).map_err(err)?;
        let defaults = base.to_value();
        let mut points = vec![(self.label.clone(), base)];
        for (key, placeholder) in AXES {
            let values = match axes.iter().find(|(axis, _)| axis == key) {
                Some((_, Value::Seq(values))) => values.clone(),
                _ => vec![defaults[key].clone()],
            };
            let knob = knob(key).map_err(err)?;
            let mut next = Vec::with_capacity(points.len() * values.len());
            for (label, cfg) in &points {
                for v in &values {
                    let mut cfg = cfg.clone();
                    knob.set(&mut cfg, v).map_err(err)?;
                    next.push((label.replace(placeholder, &v.to_string()), cfg));
                }
            }
            points = next;
        }
        for (label, cfg) in &points {
            cfg.validate()
                .map_err(|e| ScenarioError(format!("config `{label}` is invalid: {e}")))?;
        }
        Ok(points)
    }

    /// Load a grid from scenario JSON: `mode` is required, `label`
    /// defaults to the mode's name, and every other key is a knob whose
    /// value is parsed by the knob table (an axis takes a list of values,
    /// or one).
    fn from_scenario(v: &Value) -> Result<ConfigGrid, serde::Error> {
        let Value::Map(entries) = v else {
            return Err(serde::Error("config grid must be a JSON object".into()));
        };
        let mode = match v.get("mode") {
            Some(m) => {
                Mode::parse_value(m).map_err(|e| serde::Error(format!("field `mode`: {e}")))?
            }
            None => return Err(serde::Error("config grid requires a `mode`".into())),
        };
        let label = tolerant(v, "label", String::from_value, String::new())?;
        let label = if label.is_empty() {
            format!("{mode:?}").to_lowercase()
        } else {
            label
        };
        let Value::Map(mut fields) = ConfigGrid::new(label, mode).to_value() else {
            unreachable!("a struct serializes to a map")
        };
        for (key, x) in entries {
            if key == "label" || *x == Value::Null {
                continue;
            }
            let knob = knob(key).map_err(|e| serde::Error(e.0))?;
            let parsed = if AXES.iter().any(|(axis, _)| axis == key) {
                let items = match x {
                    Value::Seq(items) => items.as_slice(),
                    one => std::slice::from_ref(one),
                };
                items
                    .iter()
                    .map(|i| knob.canonical(i))
                    .collect::<Result<_, _>>()
                    .map(Value::Seq)
            } else {
                knob.canonical(x)
            };
            let parsed = parsed.map_err(|e| serde::Error(format!("field `{key}`: {e}")))?;
            let slot = fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .ok_or_else(|| serde::Error(format!("config grids have no `{key}` field")))?;
            slot.1 = parsed;
        }
        ConfigGrid::from_value(&Value::Map(fields))
    }
}

/// A named, self-describing experiment.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Scenario {
    /// Machine-friendly name (`fig2`, `storebuf`, …).
    pub name: String,
    /// Human title shown by `exp list`.
    pub title: String,
    /// One-paragraph description.
    pub description: String,
    /// Default scale (CLI `--scale` overrides; `None` means Small).
    pub scale: Option<Scale>,
    /// Benchmarks to run (empty: the full suite).
    pub benches: Vec<String>,
    /// Label of the baseline configuration for speedup reporting.
    pub baseline: Option<String>,
    /// Labels reported against the baseline (empty: all non-baseline).
    pub series: Vec<String>,
    /// The configuration grids.
    pub grids: Vec<ConfigGrid>,
}

impl Scenario {
    /// A scenario skeleton.
    pub fn new(name: &str, title: &str, description: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            title: title.to_string(),
            description: description.to_string(),
            scale: None,
            benches: Vec::new(),
            baseline: None,
            series: Vec::new(),
            grids: Vec::new(),
        }
    }

    /// The scale to run at, given an optional CLI override.
    pub fn scale_or(&self, cli: Option<Scale>) -> Scale {
        cli.or(self.scale).unwrap_or(Scale::Small)
    }

    /// Expand all grids into labelled configurations, rejecting duplicate
    /// labels and a dangling `baseline`/`series` reference.
    pub fn configs(&self) -> Result<Vec<(String, SimConfig)>, ScenarioError> {
        if self.grids.is_empty() {
            return Err(ScenarioError(format!(
                "scenario `{}` has no configuration grids",
                self.name
            )));
        }
        let mut out = Vec::new();
        for grid in &self.grids {
            out.extend(grid.expand()?);
        }
        let mut seen = std::collections::HashSet::new();
        for (label, _) in &out {
            if !seen.insert(label.as_str()) {
                return Err(ScenarioError(format!(
                    "scenario `{}` expands to duplicate config label `{label}`",
                    self.name
                )));
            }
        }
        for named in self.baseline.iter().chain(&self.series) {
            if !seen.contains(named.as_str()) {
                return Err(ScenarioError(format!(
                    "scenario `{}` references unknown config label `{named}`",
                    self.name
                )));
            }
        }
        Ok(out)
    }

    /// The benchmark filter: every benchmark when `benches` is empty.
    pub fn keeps(&self, w: &Workload) -> bool {
        self.benches.is_empty() || self.benches.iter().any(|b| b == w.name)
    }

    /// Parse a scenario from JSON text.
    ///
    /// # Errors
    /// Returns a [`ScenarioError`] describing the first malformed field.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| ScenarioError(format!("bad JSON: {e}")))?;
        Scenario::from_value(&v).map_err(|e| ScenarioError(e.0))
    }
}

// Tolerant deserialization: missing fields default. (The derive shim
// requires every field to be present, which would make scenario files
// needlessly verbose.)

fn tolerant<T, F>(v: &Value, key: &str, parse: F, default: T) -> Result<T, serde::Error>
where
    F: FnOnce(&Value) -> Result<T, serde::Error>,
{
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => parse(x).map_err(|e| serde::Error(format!("field `{key}`: {e}"))),
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let name = tolerant(v, "name", String::from_value, String::new())?;
        if name.is_empty() {
            return Err(serde::Error("scenario requires a `name`".into()));
        }
        let mut s = Scenario::new(&name, "", "");
        s.title = tolerant(v, "title", String::from_value, name.clone())?;
        s.description = tolerant(v, "description", String::from_value, String::new())?;
        s.scale = tolerant(
            v,
            "scale",
            |x| {
                Scale::parse_value(x)
                    .map(Some)
                    .map_err(|e| serde::Error(e.0))
            },
            None,
        )?;
        s.benches = tolerant(v, "benches", Vec::from_value, Vec::new())?;
        s.baseline = tolerant(v, "baseline", |x| String::from_value(x).map(Some), None)?;
        s.series = tolerant(v, "series", Vec::from_value, Vec::new())?;
        s.grids = tolerant(
            v,
            "grids",
            |x| match x {
                Value::Seq(grids) => grids.iter().map(ConfigGrid::from_scenario).collect(),
                other => Err(serde::Error(format!("expected array, got {other}"))),
            },
            Vec::new(),
        )?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_nested_axes_with_labels() {
        let grid = ConfigGrid {
            oracle: true,
            contexts: vec![2, 4],
            spawn_latency: vec![1, 8],
            ..ConfigGrid::new("mtvp{contexts}.s{spawn}", Mode::Mtvp)
        };
        let configs = grid.expand().unwrap();
        assert_eq!(
            configs.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            vec!["mtvp2.s1", "mtvp2.s8", "mtvp4.s1", "mtvp4.s8"]
        );
        assert_eq!(configs[0].1.contexts, 2);
        assert_eq!(configs[3].1.spawn_latency, 8);
        assert_eq!(configs[0].1.predictor, mtvp_pipeline::PredictorKind::Oracle);
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let mut s = Scenario::new("dup", "dup", "");
        s.grids = vec![
            ConfigGrid::new("same", Mode::Baseline),
            ConfigGrid::new("same", Mode::Mtvp),
        ];
        assert!(s.configs().is_err());
    }

    #[test]
    fn invalid_grid_points_are_rejected() {
        let grid = ConfigGrid {
            contexts: vec![8],
            ..ConfigGrid::new("bad{contexts}", Mode::Baseline)
        };
        assert!(grid.expand().is_err());
    }

    #[test]
    fn dangling_baseline_is_rejected() {
        let mut s = Scenario::new("x", "x", "");
        s.grids = vec![ConfigGrid::new("base", Mode::Baseline)];
        s.baseline = Some("nope".to_string());
        assert!(s.configs().is_err());
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let mut s = Scenario::new("fig-x", "Figure X", "speedup vs contexts");
        s.scale = Some(Scale::Tiny);
        s.benches = vec!["mcf".into(), "swim".into()];
        s.baseline = Some("base".into());
        s.grids = vec![
            ConfigGrid::new("base", Mode::Baseline),
            ConfigGrid {
                oracle: true,
                contexts: vec![2, 4, 8],
                ..ConfigGrid::new("mtvp{contexts}", Mode::Mtvp)
            },
        ];
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sparse_json_uses_cli_vocabulary_and_defaults() {
        let text = r#"{
            "name": "mini",
            "scale": "tiny",
            "benches": ["mcf"],
            "grids": [
                {"label": "base", "mode": "baseline"},
                {"label": "nostall", "mode": "mtvp-nostall",
                 "predictor": "wf-liberal", "selector": "l3",
                 "sampling": "2000:50000:1000"}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s.title, "mini");
        assert_eq!(s.scale, Some(Scale::Tiny));
        let configs = s.configs().unwrap();
        assert_eq!(configs.len(), 2);
        assert_eq!(configs[1].1.mode, Mode::MtvpNoStall);
        assert_eq!(configs[0].1.sampling, None);
        assert_eq!(
            configs[1].1.sampling,
            Some(SamplingParams {
                window: 2000,
                interval: 50_000,
                warmup: 1000,
            })
        );
        assert_eq!(
            configs[1].1.predictor,
            mtvp_pipeline::PredictorKind::WangFranklinLiberal
        );
        assert_eq!(
            configs[1].1.selector,
            mtvp_pipeline::SelectorKind::L3MissOracle
        );
        // Unlabelled grids fall back to the mode name.
        let s = Scenario::from_json(r#"{"name": "x", "grids": [{"mode": "mtvp"}]}"#).unwrap();
        assert_eq!(s.configs().unwrap()[0].0, "mtvp");
    }

    #[test]
    fn spawn_policy_axis_round_trips_and_accepts_cli_vocabulary() {
        let mut s = Scenario::new("hinted-x", "x", "");
        s.grids = vec![
            ConfigGrid::new("dynamic", Mode::Mtvp),
            ConfigGrid {
                spawn_policy: Some(SpawnPolicyKind::Static),
                ..ConfigGrid::new("static", Mode::Mtvp)
            },
        ];
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let configs = back.configs().unwrap();
        assert_eq!(configs[0].1.spawn_policy, SpawnPolicyKind::Dynamic);
        assert_eq!(configs[1].1.spawn_policy, SpawnPolicyKind::Static);

        // Sparse JSON with the CLI spelling.
        let text = r#"{
            "name": "mini",
            "grids": [
                {"label": "hints", "mode": "mtvp", "spawn_policy": "static"},
                {"label": "dyn", "mode": "mtvp"}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let configs = s.configs().unwrap();
        assert_eq!(configs[0].1.spawn_policy, SpawnPolicyKind::Static);
        assert_eq!(configs[1].1.spawn_policy, SpawnPolicyKind::Dynamic);

        // The static policy on the in-order core is rejected at expand.
        let bad = Scenario::from_json(
            r#"{"name": "bad", "grids": [
                {"label": "x", "mode": "baseline", "core": "inorder", "spawn_policy": "static"}
            ]}"#,
        )
        .unwrap();
        assert!(bad.configs().is_err());
    }

    #[test]
    fn core_axis_round_trips_and_accepts_cli_vocabulary() {
        let mut s = Scenario::new("baseline-x", "x", "");
        s.grids = vec![
            ConfigGrid {
                core: CoreKind::InOrderScalar,
                ..ConfigGrid::new("inorder", Mode::Baseline)
            },
            ConfigGrid::new("ooo", Mode::Baseline),
        ];
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let configs = back.configs().unwrap();
        assert_eq!(configs[0].1.core, CoreKind::InOrderScalar);
        assert_eq!(configs[1].1.core, CoreKind::OutOfOrder);

        // Sparse JSON: CLI spelling, and the field defaults to out-of-order.
        let text = r#"{
            "name": "mini",
            "grids": [
                {"label": "io", "mode": "baseline", "core": "inorder"},
                {"label": "base", "mode": "baseline"}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let configs = s.configs().unwrap();
        assert_eq!(configs[0].1.core, CoreKind::InOrderScalar);
        assert_eq!(configs[1].1.core, CoreKind::OutOfOrder);

        // Knobs the in-order core rejects are caught at expansion time.
        let grid = ConfigGrid {
            core: CoreKind::InOrderScalar,
            contexts: vec![4],
            ..ConfigGrid::new("io{contexts}", Mode::Baseline)
        };
        let e = grid.expand().unwrap_err();
        assert!(e.0.contains("in-order"), "{e}");
    }

    #[test]
    fn cmp_axes_round_trip_and_expand() {
        let mut s = Scenario::new("cmp-x", "x", "");
        s.grids = vec![
            ConfigGrid::new("base", Mode::Mtvp),
            ConfigGrid {
                cores: vec![2, 4],
                l3: Some(L3Params {
                    kb: 2048,
                    assoc: 8,
                    latency: 40,
                }),
                interconnect_hop: Some(6),
                cross_core_spawn: Some(true),
                ..ConfigGrid::new("cmp{cores}c", Mode::Mtvp)
            },
        ];
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let configs = back.configs().unwrap();
        assert_eq!(
            configs.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            vec!["base", "cmp2c", "cmp4c"]
        );
        assert_eq!(configs[0].1.cores, 1);
        assert_eq!(configs[2].1.cores, 4);
        assert_eq!(configs[2].1.l3.kb, 2048);
        assert_eq!(configs[2].1.interconnect_hop, 6);
        assert!(configs[2].1.cross_core_spawn);

        // Sparse JSON with the CLI l3 spelling and co-runner specs.
        let text = r#"{
            "name": "mini",
            "grids": [
                {"label": "mix{cores}", "mode": "mtvp", "cores": [2],
                 "l3": "1024:8:30", "co_workloads": ["synth:7"]}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let configs = s.configs().unwrap();
        assert_eq!(configs[0].0, "mix2");
        assert_eq!(configs[0].1.l3.assoc, 8);
        assert_eq!(configs[0].1.co_workloads, vec!["synth:7".to_string()]);

        // A mix wider than the sibling cores is caught at expansion.
        let bad = Scenario::from_json(
            r#"{"name": "bad", "grids": [
                {"label": "x", "mode": "mtvp", "cores": [2],
                 "co_workloads": ["synth:1", "synth:2"]}
            ]}"#,
        )
        .unwrap();
        assert!(bad.configs().is_err());
    }

    #[test]
    fn bad_scenarios_report_errors() {
        assert!(Scenario::from_json("not json").is_err());
        assert!(Scenario::from_json(r#"{"grids": []}"#).is_err());
        let e = Scenario::from_json(r#"{"name": "x", "grids": [{"mode": "warp9"}]}"#).unwrap_err();
        assert!(e.0.contains("unknown mode"), "{e}");
        // A misspelt knob is an error, never a silently simulated default.
        let e =
            Scenario::from_json(r#"{"name": "x", "grids": [{"mode": "mtvp", "prefetch": false}]}"#)
                .unwrap_err();
        assert!(
            e.0.contains("unknown config field `prefetch` (expected one of:"),
            "{e}"
        );
    }
}
