//! # mtvp-core
//!
//! Experiment-level configuration of the *Multithreaded Value Prediction*
//! reproduction (Tuck & Tullsen, HPCA-11 2005): the machine modes of the
//! paper's evaluation, their lowering onto the mechanism-level pipeline
//! and memory configurations, the knob table every front end (CLI, serve,
//! scenario files) parses configurations with, and a validator.
//!
//! Execution lives one layer up in `mtvp-engine` ([`run_program`] and
//! friends, the cached sweep driver, the scenario format); this crate is
//! the dependency-light description of *what* to simulate.
//!
//! [`run_program`]: https://docs.rs/mtvp-engine
//!
//! # Example
//!
//! ```
//! use mtvp_core::{Mode, SimConfig};
//!
//! let mut cfg = SimConfig::new(Mode::Mtvp);
//! cfg.contexts = 4;
//! cfg.validate().unwrap();
//! let pipeline = cfg.to_pipeline_config();
//! assert_eq!(pipeline.hw_contexts, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod knobs;

pub use config::{
    parse_scale, ConfigError, CoreKind, L3Params, Mode, SamplingParams, SimConfig, SpawnPolicyKind,
};
pub use knobs::{knob, knob_for_flag, Knob, KnobValue, KNOBS};

pub use mtvp_pipeline::{PipeStats, PredictorKind, SelectorKind};
pub use mtvp_workloads::{suite, Scale, Suite, Workload};
