//! The configuration knob table: the one place a [`SimConfig`] field gets
//! its name on the command line, in a JSON request and in a scenario
//! grid, and its one parser.
//!
//! Every front end turns what the user wrote into `(knob, value)`
//! settings and resolves them with [`SimConfig::from_knobs`]: the CLI
//! passes each flag's argument as a string, serve and scenario files pass
//! JSON values. A knob's parser accepts both: the canonical serialized
//! form, or a string in the CLI vocabulary (`"4"`, `"wf"`, `"l3"`,
//! `"2000:20000:1000"`). Defaults live in [`SimConfig::new`],
//! [`SimConfig::oracle`] and [`SimConfig::in_order`]; cross-field rules
//! live in [`SimConfig::validate`].

use crate::config::{
    parse_scale, ConfigError, CoreKind, L3Params, Mode, SamplingParams, SimConfig, SpawnPolicyKind,
};
use mtvp_pipeline::{PredictorKind, SelectorKind};
use mtvp_workloads::Scale;
use serde::{Deserialize, Serialize, Value};

/// A type spelled in the configuration vocabulary: every knob value, and
/// the build scale.
pub trait KnobValue: Serialize + Deserialize {
    /// Parse the CLI spelling.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] naming the rejected input.
    fn parse_cli(s: &str) -> Result<Self, ConfigError>;

    /// Parse a JSON value: the canonical serialized form, or a string in
    /// the CLI spelling.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] naming the rejected input.
    fn parse_value(v: &Value) -> Result<Self, ConfigError> {
        match (Self::from_value(v), v) {
            (Ok(x), _) => Ok(x),
            (Err(_), Value::Str(s)) => Self::parse_cli(s),
            (Err(e), _) => Err(ConfigError(e.0)),
        }
    }
}

impl KnobValue for u64 {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        s.parse()
            .map_err(|_| ConfigError(format!("`{s}` is not a non-negative integer")))
    }
}

impl KnobValue for usize {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        s.parse()
            .map_err(|_| ConfigError(format!("`{s}` is not a non-negative integer")))
    }
}

impl KnobValue for bool {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        match s {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(ConfigError(format!("`{other}` is not true or false"))),
        }
    }
}

/// A comma-separated list (`synth:7,phases:9`).
impl KnobValue for Vec<String> {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(s.split(',').map(|x| x.trim().to_string()).collect())
    }
}

impl KnobValue for SamplingParams {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        SamplingParams::parse(s)
    }
}

impl KnobValue for L3Params {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        L3Params::parse(s)
    }
}

impl KnobValue for Scale {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        parse_scale(s)
    }
}

impl KnobValue for Mode {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(match s {
            "baseline" => Mode::Baseline,
            "stvp" => Mode::Stvp,
            "mtvp" => Mode::Mtvp,
            "mtvp-nostall" => Mode::MtvpNoStall,
            "spawn-only" => Mode::SpawnOnly,
            "wide-window" => Mode::WideWindow,
            "multi-value" => Mode::MultiValue,
            other => {
                return Err(ConfigError(format!(
                    "unknown mode `{other}` (baseline|stvp|mtvp|mtvp-nostall|spawn-only|wide-window|multi-value)"
                )))
            }
        })
    }
}

impl KnobValue for PredictorKind {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(match s {
            "none" => PredictorKind::None,
            "oracle" => PredictorKind::Oracle,
            "wang-franklin" | "wf" => PredictorKind::WangFranklin,
            "wf-liberal" => PredictorKind::WangFranklinLiberal,
            "dfcm" => PredictorKind::Dfcm,
            "stride" => PredictorKind::Stride,
            "last-value" => PredictorKind::LastValue,
            other => {
                return Err(ConfigError(format!(
                    "unknown predictor `{other}` (none|oracle|wf|wf-liberal|dfcm|stride|last-value)"
                )))
            }
        })
    }
}

impl KnobValue for SelectorKind {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(match s {
            "always" => SelectorKind::Always,
            "ilp-pred" | "ilp" => SelectorKind::IlpPred,
            "l3-miss-oracle" | "l3" => SelectorKind::L3MissOracle,
            other => {
                return Err(ConfigError(format!(
                    "unknown selector `{other}` (always|ilp-pred|l3-miss-oracle)"
                )))
            }
        })
    }
}

impl KnobValue for CoreKind {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(match s {
            "ooo" | "out-of-order" | "smt-ooo" => CoreKind::OutOfOrder,
            "inorder" | "in-order" | "in-order-scalar" => CoreKind::InOrderScalar,
            other => return Err(ConfigError(format!("unknown core `{other}` (ooo|inorder)"))),
        })
    }
}

impl KnobValue for SpawnPolicyKind {
    fn parse_cli(s: &str) -> Result<Self, ConfigError> {
        Ok(match s {
            "dynamic" | "dyn" => SpawnPolicyKind::Dynamic,
            "static" | "hints" | "static-hints" => SpawnPolicyKind::Static,
            other => {
                return Err(ConfigError(format!(
                    "unknown spawn policy `{other}` (dynamic|static)"
                )))
            }
        })
    }
}

/// One configuration knob: its names in every front end and its parser.
pub struct Knob {
    /// Key in JSON requests and scenario grids: the [`SimConfig`] field
    /// the knob sets (or `oracle`, the base-config switch).
    pub key: &'static str,
    /// CLI flags: the first is canonical, the rest are aliases.
    pub flags: &'static [&'static str],
    /// For a CLI switch (a flag without an argument), the value the
    /// switch stands for.
    pub switch: Option<&'static str>,
    set: fn(&mut SimConfig, &Value) -> Result<(), ConfigError>,
    canonical: fn(&Value) -> Result<Value, ConfigError>,
}

impl Knob {
    /// Parse `v` (a CLI string or a JSON value) and overlay it on `cfg`.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when `v` does not parse.
    pub fn set(&self, cfg: &mut SimConfig, v: &Value) -> Result<(), ConfigError> {
        (self.set)(cfg, v)
    }

    /// Parse `v` and return it in its canonical serialized form.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when `v` does not parse.
    pub fn canonical(&self, v: &Value) -> Result<Value, ConfigError> {
        (self.canonical)(v)
    }
}

/// Declares [`KNOBS`]: `key: Type = [flags]`, optionally a CLI `switch`
/// value, optionally a `set` closure when the knob does not simply assign
/// the [`SimConfig`] field named `key`.
macro_rules! knobs {
    ($($key:ident: $t:ty = [$($flag:literal),+]
       $(, switch $on:literal)? $(, set |$c:ident, $v:ident| $set:expr)?;)*) => {
        /// Every configuration knob, in the order settings are applied:
        /// `mode` and `oracle` first (they choose the base configuration),
        /// then one entry per remaining [`SimConfig`] field.
        pub static KNOBS: &[Knob] = &[$(Knob {
            key: stringify!($key),
            flags: &[$($flag),+],
            switch: knobs!(@opt $($on)?),
            set: |cfg, raw| {
                let value = <$t as KnobValue>::parse_value(raw)?;
                knobs!(@set cfg, value, $key $(, |$c, $v| $set)?);
                Ok(())
            },
            canonical: |raw| <$t as KnobValue>::parse_value(raw).map(|v| v.to_value()),
        }),*];
    };
    (@opt) => { None };
    (@opt $on:literal) => { Some($on) };
    (@set $cfg:ident, $value:ident, $key:ident) => { $cfg.$key = $value };
    (@set $cfg:ident, $value:ident, $key:ident, |$c:ident, $v:ident| $set:expr) => {{
        let ($c, $v) = ($cfg, $value);
        $set;
    }};
}

knobs! {
    mode: Mode = ["--mode"], set |cfg, mode| *cfg = SimConfig::new(mode);
    oracle: bool = ["--oracle"], switch "true",
        set |cfg, on| if on { *cfg = SimConfig::oracle(cfg.mode) };
    core: CoreKind = ["--core"];
    cores: usize = ["--cores"];
    l3: L3Params = ["--l3"];
    interconnect_hop: u64 = ["--interconnect"];
    cross_core_spawn: bool = ["--xspawn", "--cross-core-spawn"], switch "true";
    co_workloads: Vec<String> = ["--co"];
    contexts: usize = ["--contexts"];
    predictor: PredictorKind = ["--predictor"];
    selector: SelectorKind = ["--selector"];
    spawn_policy: SpawnPolicyKind = ["--spawn-policy"];
    spawn_latency: u64 = ["--spawn-latency"];
    store_buffer: usize = ["--store-buffer"];
    max_values_per_load: usize = ["--max-values-per-load"];
    inst_limit: u64 = ["--inst-limit"];
    max_cycles: u64 = ["--max-cycles"];
    prefetcher: bool = ["--no-prefetch"], switch "false";
    mshrs: usize = ["--mshrs"];
    warm_start: bool = ["--cold-start"], switch "false";
    fast_forward: bool = ["--no-fast-forward"], switch "false";
    sampling: SamplingParams = ["--sample"], set |cfg, s| cfg.sampling = Some(s);
}

/// The knob a JSON or scenario-grid key names.
///
/// # Errors
/// Returns a [`ConfigError`] listing every known key when `key` is not
/// one: a typo must never silently simulate the default.
pub fn knob(key: &str) -> Result<&'static Knob, ConfigError> {
    KNOBS.iter().find(|k| k.key == key).ok_or_else(|| {
        let known: Vec<&str> = KNOBS.iter().map(|k| k.key).collect();
        ConfigError(format!(
            "unknown config field `{key}` (expected one of: {})",
            known.join(", ")
        ))
    })
}

/// The knob a CLI flag (or one of its aliases) names.
pub fn knob_for_flag(flag: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.flags.contains(&flag))
}

impl SimConfig {
    /// Resolve knob settings into a configuration. Settings apply in
    /// [`KNOBS`] order, so `mode` (default [`Mode::Mtvp`]) and `oracle`
    /// choose the base and every other knob is overlaid on it; a knob set
    /// twice keeps its last value. Each setting carries the name the user
    /// wrote it under, for error messages. The result is not validated:
    /// call [`SimConfig::validate`].
    ///
    /// # Errors
    /// Returns a [`ConfigError`] naming the first value that does not parse.
    pub fn from_knobs(
        settings: &[(&'static Knob, String, Value)],
    ) -> Result<SimConfig, ConfigError> {
        let mut ordered: Vec<_> = settings.iter().collect();
        ordered.sort_by_key(|(k, _, _)| KNOBS.iter().position(|x| std::ptr::eq(x, *k)));
        let mut cfg = SimConfig::new(Mode::Mtvp);
        for (knob, name, value) in ordered {
            knob.set(&mut cfg, value)
                .map_err(|e| ConfigError(format!("{name}: {e}")))?;
        }
        Ok(cfg)
    }

    /// Resolve a JSON object keyed like [`KNOBS`] (a serve `config`, a
    /// scenario grid's overrides); `null` leaves a knob unset. See
    /// [`SimConfig::from_knobs`].
    ///
    /// # Errors
    /// Returns a [`ConfigError`] for a non-object, an unknown key, or a
    /// value that does not parse.
    pub fn from_knob_map(v: &Value) -> Result<SimConfig, ConfigError> {
        let Value::Map(entries) = v else {
            return Err(ConfigError("config must be a JSON object".into()));
        };
        let settings = entries
            .iter()
            .filter(|(_, x)| *x != Value::Null)
            .map(|(key, x)| Ok((knob(key)?, format!("field `{key}`"), x.clone())))
            .collect::<Result<Vec<_>, ConfigError>>()?;
        SimConfig::from_knobs(&settings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_field_has_exactly_one_knob() {
        let Value::Map(fields) = SimConfig::new(Mode::Mtvp).to_value() else {
            panic!("SimConfig serializes to a map");
        };
        let fields: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for key in &fields {
            knob(key).unwrap_or_else(|e| panic!("{e}"));
        }
        for k in KNOBS {
            assert!(
                k.key == "oracle" || fields.contains(&k.key),
                "knob `{}` names no SimConfig field",
                k.key
            );
            assert_eq!(KNOBS.iter().filter(|x| x.key == k.key).count(), 1);
            for flag in k.flags {
                assert!(std::ptr::eq(knob_for_flag(flag).unwrap(), k), "{flag}");
            }
        }
    }

    #[test]
    fn a_full_config_round_trips_through_the_table() {
        let mut cfg = SimConfig::oracle(Mode::MultiValue);
        cfg.cores = 2;
        cfg.co_workloads = vec!["synth:3".into()];
        cfg.sampling = Some(SamplingParams {
            window: 7,
            interval: 11,
            warmup: 3,
        });
        assert_eq!(SimConfig::from_knob_map(&cfg.to_value()).unwrap(), cfg);
    }

    #[test]
    fn mode_and_oracle_choose_the_base_in_any_order() {
        let json: Value =
            serde_json::from_str(r#"{"contexts": 2, "oracle": true, "mode": "stvp"}"#).unwrap();
        let mut want = SimConfig::oracle(Mode::Stvp);
        want.contexts = 2;
        assert_eq!(SimConfig::from_knob_map(&json).unwrap(), want);
        let e = SimConfig::from_knob_map(&serde_json::from_str(r#"{"contexts": "x"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.starts_with("field `contexts`"), "{e}");
        let e = SimConfig::from_knob_map(&serde_json::from_str(r#"{"contxts": 2}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("unknown config field `contxts`"), "{e}");
    }
}
