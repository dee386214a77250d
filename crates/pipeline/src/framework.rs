//! The statically-dispatched microarchitecture framework.
//!
//! A concrete machine is a [`StagedCore`] monomorphized over a
//! [`StageSet`]: a compile-time bundle of stage modules (fetch,
//! rename/dispatch, issue, writeback, commit) plus a [`SpawnPolicy`]
//! deciding what happens when a load is renamed. Every hook is an
//! associated type resolved at compile time — there are no trait objects
//! anywhere on the cycle path, so a composed machine monomorphizes to
//! exactly the hand-wired loop it replaced (the `tests/framework.rs`
//! differential and the sim_bench perf guard both hold it to that).
//!
//! Two stage sets ship today:
//!
//! - [`SmtOooStages`] — the paper's SMT out-of-order core with MTVP
//!   spawn/reconcile ([`Machine`](crate::Machine) is an alias for it);
//! - [`InOrderStages`] — a single-context in-order scalar baseline
//!   ([`InOrderMachine`](crate::InOrderMachine)) that issues one
//!   instruction per cycle in strict program order.
//!
//! To add a core module: implement [`Stage`] for any stage you replace
//! (delegating to a new method on `StagedCore`; an issue stage also
//! implements [`IssueStage`]), bundle the stages in a
//! new [`StageSet`], alias `StagedCore<'p, T, YourStages>`, and wire a
//! `CoreKind` through `SimConfig` so the engine can select it. The
//! [`Core`] trait is implemented automatically for every composition,
//! which is what lets the engine, the sampled two-tier driver, serve and
//! the cluster run any stage set without knowing its concrete type.

use crate::config::PipelineConfig;
use crate::context::FetchedInst;
use crate::machine::StagedCore;
use crate::stats::PipeStats;
use crate::uop::{CtxId, UopId};
use mtvp_isa::trace::Trace;
use mtvp_isa::Program;
use mtvp_mem::{MainMemory, MemConfig};
use mtvp_obs::{NullTracer, Tracer};
use std::sync::Arc;

/// One pipeline stage of a [`StageSet`].
///
/// `tick` runs the stage for one cycle. Implementations are zero-sized
/// and stateless — all machine state lives in the [`StagedCore`]; a stage
/// is pure behaviour, so composing stages never adds data to the machine.
pub trait Stage {
    /// Advance this stage by one cycle.
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>);
}

/// The issue stage of a [`StageSet`]: a [`Stage`] that also declares how
/// it finds issuable uops.
pub trait IssueStage: Stage {
    /// Whether the stage selects from the wakeup-driven ready heaps.
    /// Rename and redispatch file queued uops into the heaps and the
    /// per-register waiter lists, and register writes wake those lists,
    /// only when it does; a stage that never reads them pays nothing.
    const WAKEUP: bool;
}

/// Policy hook invoked when the rename stage renames a load: decide
/// whether to value-predict it and/or spawn a speculative thread.
///
/// [`ValuePredictSpawn`] implements the paper's §3.1 decision tree
/// (STVP / MTVP / spawn-only, selector-gated); [`NoSpawn`] compiles the
/// whole decision point away for cores without value prediction.
pub trait SpawnPolicy {
    /// Consider the freshly renamed load `load` of context `ctx`.
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
        load: UopId,
        fi: &FetchedInst,
    );
}

/// A complete microarchitecture: the five stage modules plus the spawn
/// policy, bound together at compile time.
///
/// Stages run back-to-front each cycle (writeback, commit, issue,
/// rename, fetch) so results never skip a stage within a single cycle —
/// the framework fixes that ordering; a stage set only chooses *what*
/// each stage does.
pub trait StageSet: Sized + 'static {
    /// Stable identifier of the composition (diagnostics and lints).
    const NAME: &'static str;
    /// Instruction fetch (front end, branch prediction).
    type Fetch: Stage;
    /// Register rename and dispatch into the issue queues.
    type Rename: Stage;
    /// Instruction selection and execution start.
    type Issue: IssueStage;
    /// Completion: result write, branch resolution, load verification.
    type Writeback: Stage;
    /// In-order retirement, MTVP reconcile/promotion, squashes.
    type Commit: Stage;
    /// Load-rename decision point (value prediction, thread spawning).
    type Spawn: SpawnPolicy;
}

// ---- stage modules ------------------------------------------------------

/// ICOUNT fetch of up to `fetch_width` instructions from `fetch_threads`
/// contexts per cycle, with gskew direction prediction, BTB and RAS.
pub struct IcountFetch;

impl Stage for IcountFetch {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.fetch_stage();
    }
}

/// Rename up to `rename_width` instructions per cycle, rotating fairness
/// among contexts, dispatching into the per-class issue queues and
/// consulting the stage set's [`SpawnPolicy`] on every load.
pub struct RenameDispatch;

impl Stage for RenameDispatch {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.rename_stage();
    }
}

/// Out-of-order issue: oldest-ready-first selection per execution-unit
/// class, up to the per-class issue widths, from the ready heaps the
/// register writes wake.
pub struct OooIssue;

impl Stage for OooIssue {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.issue_stage();
    }
}

impl IssueStage for OooIssue {
    const WAKEUP: bool = true;
}

/// In-order scalar issue: at most one instruction per cycle, and only
/// the oldest dispatched instruction of the (single) context — a source
/// or MSHR stall at the head stalls everything behind it.
pub struct InOrderIssue;

impl Stage for InOrderIssue {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.in_order_issue_stage();
    }
}

impl IssueStage for InOrderIssue {
    const WAKEUP: bool = false;
}

/// Drain completion events due this cycle: write results, resolve
/// branches, replay memory-order violations, verify value predictions.
pub struct EventWriteback;

impl Stage for EventWriteback {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.writeback_stage();
    }
}

/// In-order commit with MTVP reconciliation: verify spawns at the
/// triggering load's commit, promote or kill children, retire stores.
pub struct ReconcileCommit;

impl Stage for ReconcileCommit {
    #[inline(always)]
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.commit_stage();
    }
}

// ---- spawn policies -----------------------------------------------------

/// The paper's load-rename decision tree (§3.1): query the value
/// predictor, gate on the selector, then spawn an MTVP child thread,
/// fall back to STVP, or do nothing.
pub struct ValuePredictSpawn;

impl SpawnPolicy for ValuePredictSpawn {
    #[inline(always)]
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
        load: UopId,
        fi: &FetchedInst,
    ) {
        m.maybe_value_predict(ctx, load, fi);
    }
}

/// Hint-guided spawn policy: the full §3.1 decision tree, but only at
/// loads the static spawn-site analysis selected (`VpConfig.hinted_pcs`,
/// lowered to a per-pc mask at build time). Unhinted loads rename like
/// any other instruction — the predictor is neither queried nor trained
/// on them, so spawning concentrates on regions whose live-ins were
/// proven predictable.
pub struct StaticHintSpawn;

impl SpawnPolicy for StaticHintSpawn {
    #[inline(always)]
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
        load: UopId,
        fi: &FetchedInst,
    ) {
        if m.hinted(fi.pc) {
            m.maybe_value_predict(ctx, load, fi);
        }
    }
}

/// No value prediction and no thread spawning: loads rename like any
/// other instruction. The entire decision point compiles away.
pub struct NoSpawn;

impl SpawnPolicy for NoSpawn {
    #[inline(always)]
    fn consider<T: Tracer, S: StageSet>(
        _m: &mut StagedCore<'_, T, S>,
        _ctx: CtxId,
        _load: UopId,
        _fi: &FetchedInst,
    ) {
    }
}

// ---- shipped stage sets -------------------------------------------------

/// The paper's machine: SMT out-of-order core with ICOUNT fetch and the
/// full MTVP spawn/reconcile policy. [`Machine`](crate::Machine) is
/// `StagedCore` composed with this set.
pub struct SmtOooStages;

impl StageSet for SmtOooStages {
    const NAME: &'static str = "smt-ooo";
    type Fetch = IcountFetch;
    type Rename = RenameDispatch;
    type Issue = OooIssue;
    type Writeback = EventWriteback;
    type Commit = ReconcileCommit;
    type Spawn = ValuePredictSpawn;
}

/// The SMT out-of-order core with spawning restricted to statically
/// hinted loads: identical to [`SmtOooStages`] except the spawn decision
/// point is [`StaticHintSpawn`].
/// [`StaticHintMachine`](crate::StaticHintMachine) is `StagedCore`
/// composed with this set.
pub struct SmtOooStaticHintStages;

impl StageSet for SmtOooStaticHintStages {
    const NAME: &'static str = "smt-ooo-static-hint";
    type Fetch = IcountFetch;
    type Rename = RenameDispatch;
    type Issue = OooIssue;
    type Writeback = EventWriteback;
    type Commit = ReconcileCommit;
    type Spawn = StaticHintSpawn;
}

/// A single-context in-order scalar baseline: same front end, memory
/// hierarchy and retirement as the SMT core, but strict program-order
/// scalar issue and no value prediction or thread spawning.
/// [`InOrderMachine`](crate::InOrderMachine) is `StagedCore` composed
/// with this set.
pub struct InOrderStages;

impl StageSet for InOrderStages {
    const NAME: &'static str = "in-order-scalar";
    type Fetch = IcountFetch;
    type Rename = RenameDispatch;
    type Issue = InOrderIssue;
    type Writeback = EventWriteback;
    type Commit = ReconcileCommit;
    type Spawn = NoSpawn;
}

// ---- the engine-facing core trait ---------------------------------------

/// What the engine (and the sampled two-tier driver, serve, cluster)
/// needs from a machine, independent of its stage set. Implemented
/// automatically for every `StagedCore` composition — adding a core
/// module requires no engine changes.
///
/// The state-transfer half ([`Core::drain_to_arch`],
/// [`Core::jump_arch_state`], [`Core::load_arch_state`],
/// [`Core::replace_memory`], [`Core::into_memory`]) is the sampled
/// simulation surface: any core exposing it can run under the two-tier
/// functional/detailed driver.
pub trait Core<'p, T: Tracer = NullTracer>: Sized {
    /// Stable identifier of the composed machine (diagnostics).
    const NAME: &'static str;

    /// Build a machine. `init_memory: false` skips writing the initial
    /// data image (the sampled driver's state handoff supplies it).
    fn build_core(
        cfg: PipelineConfig,
        mem_cfg: MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
        tracer: T,
        init_memory: bool,
    ) -> Self;

    /// Run to completion (halt or configured limit) and return stats.
    fn run(&mut self) -> PipeStats;
    /// Run until `target` architectural commits; returns the count reached.
    fn run_until_committed(&mut self, target: u64) -> u64;
    /// Statistics as of the current cycle (hierarchy counters folded in).
    fn stats_now(&mut self) -> PipeStats;
    /// Current cycle.
    fn now(&self) -> u64;
    /// Inject architectural state on a freshly built machine (cycle 0).
    fn load_arch_state(&mut self, pc: u64, committed: u64, int: &[u64; 32], fp: &[f64; 32]);
    /// Fast-forward a drained machine along the committed path.
    fn jump_arch_state(&mut self, pc: u64, committed: u64, int: &[u64; 32], fp: &[f64; 32]);
    /// Discard all in-flight work, leaving only architectural state.
    fn drain_to_arch(&mut self);
    /// Replace the architectural memory image before the first cycle.
    fn replace_memory(&mut self, memory: MainMemory);
    /// The architectural memory image (mutable, for the functional tier).
    fn memory_mut(&mut self) -> &mut MainMemory;
    /// The architectural memory image.
    fn memory(&self) -> &MainMemory;
    /// Consume the machine, yielding the memory image.
    fn into_memory(self) -> MainMemory;
    /// The architectural integer register file.
    fn arch_int_regs(&self) -> [u64; 32];
    /// The architectural floating-point register file.
    fn arch_fp_regs(&self) -> [f64; 32];
    /// Physical-register-file consistency check (tests).
    fn check_regfile(&self) -> Result<(), String>;
    /// Consume the machine, yielding its tracer.
    fn into_tracer(self) -> T;
}

impl<'p, T: Tracer, S: StageSet> Core<'p, T> for StagedCore<'p, T, S> {
    const NAME: &'static str = S::NAME;

    fn build_core(
        cfg: PipelineConfig,
        mem_cfg: MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
        tracer: T,
        init_memory: bool,
    ) -> Self {
        StagedCore::build(cfg, mem_cfg, program, trace, tracer, init_memory)
    }

    fn run(&mut self) -> PipeStats {
        StagedCore::run(self)
    }

    fn run_until_committed(&mut self, target: u64) -> u64 {
        StagedCore::run_until_committed(self, target)
    }

    fn stats_now(&mut self) -> PipeStats {
        StagedCore::stats_now(self)
    }

    fn now(&self) -> u64 {
        StagedCore::now(self)
    }

    fn load_arch_state(&mut self, pc: u64, committed: u64, int: &[u64; 32], fp: &[f64; 32]) {
        StagedCore::load_arch_state(self, pc, committed, int, fp)
    }

    fn jump_arch_state(&mut self, pc: u64, committed: u64, int: &[u64; 32], fp: &[f64; 32]) {
        StagedCore::jump_arch_state(self, pc, committed, int, fp)
    }

    fn drain_to_arch(&mut self) {
        StagedCore::drain_to_arch(self)
    }

    fn replace_memory(&mut self, memory: MainMemory) {
        StagedCore::replace_memory(self, memory)
    }

    fn memory_mut(&mut self) -> &mut MainMemory {
        StagedCore::memory_mut(self)
    }

    fn memory(&self) -> &MainMemory {
        StagedCore::memory(self)
    }

    fn into_memory(self) -> MainMemory {
        StagedCore::into_memory(self)
    }

    fn arch_int_regs(&self) -> [u64; 32] {
        StagedCore::arch_int_regs(self)
    }

    fn arch_fp_regs(&self) -> [f64; 32] {
        StagedCore::arch_fp_regs(self)
    }

    fn check_regfile(&self) -> Result<(), String> {
        StagedCore::check_regfile(self)
    }

    fn into_tracer(self) -> T {
        StagedCore::into_tracer(self)
    }
}
