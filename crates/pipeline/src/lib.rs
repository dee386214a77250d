//! # mtvp-pipeline
//!
//! An execution-driven, cycle-level simultaneous-multithreading (SMT)
//! out-of-order pipeline implementing **threaded value prediction** — the
//! architecture of *Multithreaded Value Prediction* (Tuck & Tullsen,
//! HPCA-11 2005).
//!
//! The machine models, per Table 1 of the paper: ICOUNT fetch of 16
//! instructions from 2 threads, a deep front end (30-stage pipeline), a
//! 256-entry ROB and 64-entry issue queues, 8-wide issue (6 int / 2 fp /
//! 4 memory), 224 rename registers in a shared physical register file, a
//! 2bcgskew branch predictor, and the full cache hierarchy with a stride
//! prefetcher from `mtvp-mem`.
//!
//! On top of the base SMT core it implements:
//! - **single-threaded value prediction** with selective reissue recovery;
//! - **multithreaded value prediction (MTVP)**: a confident prediction for
//!   a load spawns a speculative hardware thread that executes — and
//!   commits, into a private store buffer — past the stalled load, with
//!   flash-copied rename maps and use-counted physical registers;
//! - the **single fetch path** simplification (§3.3) and the aggressive
//!   no-stall fetch policy (§5.5);
//! - **multiple-value prediction** (§5.6): several children per load;
//! - the **spawn-only** split-window comparator and the idealized
//!   **wide-window** configuration (§5.7).
//!
//! # Example
//!
//! ```
//! use mtvp_isa::{ProgramBuilder, Reg};
//! use mtvp_pipeline::{Machine, PipelineConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let (sum, i, n) = (Reg(1), Reg(2), Reg(3));
//! b.li(sum, 0).li(i, 0).li(n, 50);
//! let top = b.here_label();
//! b.add(sum, sum, i).addi(i, i, 1).blt(i, n, top).halt();
//! let program = b.build();
//!
//! let mut m = Machine::new(PipelineConfig::tiny(), &program, None);
//! let stats = m.run();
//! assert!(stats.halted);
//! assert_eq!(m.arch_int_regs()[1], (0..50).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cmp;
mod config;
mod context;
pub mod framework;
mod machine;
mod regfile;
mod stats;
mod uop;

pub use cmp::{CmpMachine, CoRunner};
pub use config::{FetchPolicy, PipelineConfig, PredictorKind, SelectorKind, VpConfig};
pub use framework::{
    Core, InOrderStages, IssueStage, SmtOooStages, SmtOooStaticHintStages, SpawnPolicy, Stage,
    StageSet, StaticHintSpawn,
};
pub use machine::{InOrderMachine, Machine, StagedCore, StaticHintMachine};
pub use regfile::{PhysRegFile, PregId, RegClass};
pub use stats::{BranchStats, CmpSummary, PipeStats, VpStats};
