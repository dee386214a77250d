//! # mtvp-engine
//!
//! The experiment engine of the *Multithreaded Value Prediction*
//! reproduction (Tuck & Tullsen, HPCA-11 2005): a one-call runner that
//! pairs the cycle simulator with its reference interpreter, and a
//! declarative, cached, resumable sweep driver used by the figure harness
//! and the `mtvp-sim exp` subcommands.
//!
//! The layers, bottom up:
//!
//! - [`run`] — simulate one program under one [`SimConfig`], validated
//!   against the reference interpreter.
//! - [`key`] / [`cache`] — every (benchmark × config × scale) cell is a
//!   content-addressed job; completed cells and reference traces persist
//!   under `results/cache/` keyed by a stable hash that includes a
//!   simulator version tag.
//! - [`scheduler`] — work-stealing, longest-job-first execution with a
//!   `--jobs` cap.
//! - [`scenario`] / [`builtin`] — experiments as data: serde-described
//!   config grids, with the paper's figures shipped as built-ins.
//! - [`engine`] — [`Engine`] orchestrates all of the above;
//!   [`sweep::Sweep`] holds the results and the paper's aggregation
//!   arithmetic.
//!
//! # Example
//!
//! ```
//! use mtvp_engine::{run_program, Mode, SimConfig};
//! use mtvp_workloads::{suite, Scale};
//!
//! let mcf = suite().into_iter().find(|w| w.name == "mcf").unwrap();
//! let program = mcf.build(Scale::Tiny);
//!
//! let baseline = run_program(&SimConfig::new(Mode::Baseline), &program);
//! let mut cfg = SimConfig::new(Mode::Mtvp);
//! cfg.contexts = 4;
//! let mtvp = run_program(&cfg, &program);
//! // Both executions are architecturally validated against the
//! // interpreter; compare useful IPC for the paper's "percent speedup".
//! let _speedup = mtvp.stats.speedup_over(&baseline.stats);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod cache;
pub mod coalesce;
pub mod engine;
pub mod hints;
pub mod key;
pub mod lint;
pub mod partition;
pub mod run;
pub mod sampling;
pub mod scenario;
pub mod scheduler;
pub mod sweep;

pub use builtin::{builtin, builtin_scenarios};
pub use cache::{Cache, CellEntry, Checkpoint, HintsEntry, LintEntry};
pub use coalesce::{Coalesced, Coalescer};
pub use engine::{
    render_speedup_table, CacheMode, Engine, EngineOptions, PeerFetch, RunReport, StatusReport,
};
pub use hints::{hinted_loads_for, spawn_hints_cached, spawn_hints_for, HintsOutcome};
pub use key::{
    cell_descriptor, ckpt_descriptor, hints_descriptor, key_of, lint_descriptor, trace_descriptor,
    JobKey, SIM_VERSION,
};
pub use lint::{lint_program_cached, LintOutcome};
pub use partition::{owner_of, partition};
pub use run::{
    reference_trace, run_program, run_program_at, run_program_traced, run_with_trace,
    run_with_trace_at, RunResult, TraceOptions,
};
pub use sampling::{ipc_error, relative_errors, run_sampled, CkptStore, SampledMeta, SampledRun};
pub use scenario::{ConfigGrid, Scenario, ScenarioError};
pub use scheduler::{parallel_map, Scheduler};
pub use sweep::{Cell, Sweep};

// The experiment-level vocabulary, re-exported so dependents need only
// this crate (mirrors the old `mtvp_core` surface).
pub use mtvp_core::{
    knob, knob_for_flag, parse_scale, ConfigError, CoreKind, Knob, KnobValue, L3Params, Mode,
    SamplingParams, SimConfig, SpawnPolicyKind, KNOBS,
};
pub use mtvp_obs::{chrome_trace, pipeview, Event, Registry, RingTracer};
pub use mtvp_pipeline::{PipeStats, PredictorKind, SelectorKind};
pub use mtvp_workloads::{suite, Scale, Suite, Workload};
