//! The SMT out-of-order machine: state, cycle loop, and shared helpers.
//!
//! Stage logic lives in the sibling modules: [`fetch`](self) (ICOUNT fetch
//! with branch prediction), rename/dispatch (including value-prediction
//! decisions and thread spawning), issue/execute/writeback (including
//! branch resolution and selective reissue), and commit (including MTVP
//! verification, thread promotion and kills).
//!
//! Stages run back-to-front each cycle so results never skip a stage
//! within a single cycle.

mod commit;
mod exec;
mod fetch;
mod rename;
mod sched;

use crate::config::{PipelineConfig, PredictorKind, SelectorKind};
use crate::context::{Context, CtxState};
use crate::framework::{InOrderStages, SmtOooStages, Stage, StageSet};
use crate::regfile::{PhysRegFile, RegClass};
use crate::stats::{BranchStats, PipeStats, VpStats};
use crate::uop::{CtxId, UopId, UopSlab};
use mtvp_branch::{Btb, DirectionPredictor};
use mtvp_isa::trace::Trace;
use mtvp_isa::{ExecUnit, Program};
use mtvp_mem::{MainMemory, MemEvent, MemStats, MemSystem};
use mtvp_obs::{Event, KillCause, NullTracer, SquashCause, Tracer};
use mtvp_vp::{
    DfcmPredictor, IlpPred, LastValuePredictor, OraclePredictor, Prediction, PredictorCounters,
    SelectDecision, StridePredictor, ValuePredictor, WangFranklinConfig, WangFranklinPredictor,
};
use sched::Scheduler;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Instruction byte addresses live far above data so the I-cache and
/// D-cache never alias (instructions are 4 bytes in the timing model).
pub(crate) const IADDR_BASE: u64 = 0x4000_0000_0000;

/// Per-context fetch-buffer capacity (decouples fetch from rename).
pub(crate) const FETCH_BUFFER_CAP: usize = 48;

/// Watchdog: a machine that commits nothing for this many cycles is wedged.
pub(crate) const WATCHDOG_CYCLES: u64 = 2_000_000;

/// An execution-completion event: (finish cycle, uop, slab generation,
/// execution token).
type ExecEvent = Reverse<(u64, UopId, u32, u32)>;

/// Dispatch wrapper over the concrete value predictors.
pub(crate) enum AnyPredictor {
    /// No prediction.
    None,
    /// Trace oracle.
    Oracle(OraclePredictor),
    /// Wang–Franklin hybrid.
    Wf(WangFranklinPredictor),
    /// Order-3 DFCM.
    Dfcm(DfcmPredictor),
    /// Stride.
    Stride(StridePredictor),
    /// Last value.
    LastValue(LastValuePredictor),
}

impl AnyPredictor {
    fn from_config(cfg: &PipelineConfig, trace: Option<Arc<Trace>>) -> Self {
        match cfg.vp.predictor {
            PredictorKind::None => AnyPredictor::None,
            PredictorKind::Oracle => AnyPredictor::Oracle(OraclePredictor::new(
                trace.expect("oracle predictor requires a committed-path trace"),
            )),
            PredictorKind::WangFranklin => {
                AnyPredictor::Wf(WangFranklinPredictor::new(cfg.vp.wang_franklin))
            }
            PredictorKind::WangFranklinLiberal => {
                AnyPredictor::Wf(WangFranklinPredictor::new(WangFranklinConfig {
                    confidence: mtvp_vp::ConfidenceConfig::liberal(),
                    ..cfg.vp.wang_franklin
                }))
            }
            PredictorKind::Dfcm => AnyPredictor::Dfcm(DfcmPredictor::new(cfg.vp.dfcm)),
            PredictorKind::Stride => AnyPredictor::Stride(StridePredictor::new(
                cfg.vp.simple_entries,
                mtvp_vp::ConfidenceConfig::hpca2005(),
            )),
            PredictorKind::LastValue => AnyPredictor::LastValue(LastValuePredictor::new(
                cfg.vp.simple_entries,
                mtvp_vp::ConfidenceConfig::hpca2005(),
            )),
        }
    }

    /// Query for the load at `pc` believed to be at committed-path index
    /// `trace_idx`.
    pub(crate) fn predict(&mut self, trace_idx: u64, pc: u64) -> Prediction {
        match self {
            AnyPredictor::None => Prediction::none(),
            AnyPredictor::Oracle(o) => match o.predict_at(trace_idx, pc) {
                Some(v) => Prediction {
                    primary: Some(mtvp_vp::Predicted {
                        value: v,
                        confident: true,
                    }),
                    alternates: vec![],
                },
                None => Prediction::none(),
            },
            AnyPredictor::Wf(p) => p.predict(pc),
            AnyPredictor::Dfcm(p) => p.predict(pc),
            AnyPredictor::Stride(p) => p.predict(pc),
            AnyPredictor::LastValue(p) => p.predict(pc),
        }
    }

    pub(crate) fn spec_update(&mut self, pc: u64, value: u64) {
        match self {
            AnyPredictor::None | AnyPredictor::Oracle(_) => {}
            AnyPredictor::Wf(p) => p.spec_update(pc, value),
            AnyPredictor::Dfcm(p) => p.spec_update(pc, value),
            AnyPredictor::Stride(p) => p.spec_update(pc, value),
            AnyPredictor::LastValue(p) => p.spec_update(pc, value),
        }
    }

    pub(crate) fn train(&mut self, pc: u64, actual: u64) {
        match self {
            AnyPredictor::None | AnyPredictor::Oracle(_) => {}
            AnyPredictor::Wf(p) => p.train(pc, actual),
            AnyPredictor::Dfcm(p) => p.train(pc, actual),
            AnyPredictor::Stride(p) => p.train(pc, actual),
            AnyPredictor::LastValue(p) => p.train(pc, actual),
        }
    }

    fn counters(&self) -> PredictorCounters {
        match self {
            AnyPredictor::None => PredictorCounters::default(),
            AnyPredictor::Oracle(o) => {
                let (q, a) = o.counters();
                PredictorCounters {
                    queries: q,
                    confident: a,
                    trains: 0,
                }
            }
            AnyPredictor::Wf(p) => p.counters(),
            AnyPredictor::Dfcm(p) => p.counters(),
            AnyPredictor::Stride(p) => p.counters(),
            AnyPredictor::LastValue(p) => p.counters(),
        }
    }
}

/// Dispatch wrapper over the load selectors.
pub(crate) enum AnySelector {
    Always,
    Ilp(IlpPred),
    L3Miss,
}

/// The paper's SMT out-of-order MTVP machine: [`StagedCore`] composed
/// with [`SmtOooStages`].
///
/// This is a plain type alias, so every pre-framework call site
/// (`Machine::new`, `Machine::with_tracer`, …) compiles unchanged and
/// monomorphizes to exactly the machine it always did.
pub type Machine<'p, T = NullTracer> = StagedCore<'p, T, SmtOooStages>;

/// The in-order scalar baseline core: [`StagedCore`] composed with
/// [`InOrderStages`]. Single context, strict program-order scalar issue,
/// no value prediction — same front end, memory hierarchy and retirement
/// as the SMT core.
pub type InOrderMachine<'p, T = NullTracer> = StagedCore<'p, T, InOrderStages>;

/// The SMT out-of-order core with the hint-guided spawn policy:
/// [`StagedCore`] composed with
/// [`SmtOooStaticHintStages`](crate::framework::SmtOooStaticHintStages).
/// Identical to [`Machine`] except loads outside `VpConfig::hinted_pcs`
/// never consult the value predictor or spawn.
pub type StaticHintMachine<'p, T = NullTracer> =
    StagedCore<'p, T, crate::framework::SmtOooStaticHintStages>;

/// The simulated machine, borrowing the program it runs.
///
/// The machine is generic over its [`Tracer`] and its [`StageSet`]. The
/// default tracer, [`NullTracer`], compiles every emit site away (each is
/// guarded by the associated constant `T::ENABLED`), so untraced
/// simulation is bit-identical in both statistics and throughput to a
/// build without observability at all. The stage set statically selects
/// the stage modules the cycle loop dispatches to (see
/// [`crate::framework`]); [`Machine`] and [`InOrderMachine`] are the two
/// shipped compositions.
pub struct StagedCore<'p, T: Tracer = NullTracer, S: StageSet = SmtOooStages> {
    pub(crate) cfg: PipelineConfig,
    pub(crate) program: &'p Program,
    /// Timing side of the memory hierarchy.
    pub(crate) mem_sys: MemSystem,
    /// Architectural data memory.
    pub(crate) memory: MainMemory,
    pub(crate) rf: PhysRegFile,
    pub(crate) ctxs: Vec<Context>,
    pub(crate) uops: UopSlab,
    /// Issue queues: ready heaps, waiter lists and occupancy counters.
    pub(crate) sched: Scheduler,
    pub(crate) events: BinaryHeap<ExecEvent>,
    pub(crate) dir_pred: DirectionPredictor,
    pub(crate) btb: Btb,
    pub(crate) predictor: AnyPredictor,
    pub(crate) selector: AnySelector,
    pub(crate) trace: Option<Arc<Trace>>,
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    /// Processor-wide issued-instruction counter (ILP-pred's progress).
    pub(crate) issued_total: u64,
    pub(crate) stats: PipeStats,
    pub(crate) done: bool,
    /// The current architectural (non-speculative) context.
    pub(crate) root_ctx: CtxId,
    /// Round-robin cursor for rename/commit fairness.
    pub(crate) rr_cursor: usize,
    /// While a selective reissue is in progress, the misverified load that
    /// started it (it must not re-execute itself).
    pub(crate) reissue_origin: Option<UopId>,
    last_commit_cycle: u64,
    /// Reusable fetch-stage scratch: ICOUNT-sorted fetch candidates.
    pub(crate) scratch_ctxs: Vec<CtxId>,
    /// Event sink; [`NullTracer`] by default (zero cost).
    pub(crate) tracer: T,
    /// Per-pc spawn-hint mask lowered from `VpConfig::hinted_pcs` at
    /// build time; consulted by `StaticHintSpawn` (O(1), no hashing).
    pub(crate) hint_mask: Vec<bool>,
    /// Zero-sized marker binding the machine to its stage set.
    _stages: PhantomData<S>,
}

/// Snapshot of every observable-progress indicator of the machine, taken
/// before and after a cycle by [`Machine::run`]. Two equal marks mean the
/// cycle was fully idle: no stage fetched, renamed, issued, completed,
/// committed, squashed or touched the memory hierarchy, so every later
/// cycle is identical until the next scheduled event fires.
///
/// Deliberately excluded: `now` (always advances), `rr_cursor` (advances
/// unconditionally every cycle; a fast-forward jump replays the skipped
/// advances), and `stats.idle_cycles` (the counter this mechanism itself
/// maintains).
#[derive(PartialEq, Eq)]
struct ProgressMark {
    fetched: u64,
    issued: u64,
    committed: u64,
    squashed: u64,
    discarded: u64,
    halted: bool,
    vp: VpStats,
    branches: BranchStats,
    mem: MemStats,
    mem_words: (u64, u64),
    events: usize,
    iq: usize,
    fq: usize,
    mq: usize,
    rob: usize,
    fetch_buffered: usize,
    store_buffered: usize,
    lsq: usize,
    active: usize,
    last_commit: u64,
    done: bool,
    next_seq: u64,
    issued_total: u64,
    free_int: usize,
    free_fp: usize,
    reissue_origin: Option<UopId>,
}

impl<'p, S: StageSet> StagedCore<'p, NullTracer, S> {
    /// Build a machine for `program`. A committed-path `trace` is required
    /// for the oracle predictor and enables commit-time path validation in
    /// every mode.
    pub fn new(cfg: PipelineConfig, program: &'p Program, trace: Option<Arc<Trace>>) -> Self {
        let mem_cfg = mtvp_mem::MemConfig::hpca2005();
        Self::with_mem_config(cfg, mem_cfg, program, trace)
    }

    /// Build a machine with an explicit memory-hierarchy configuration.
    pub fn with_mem_config(
        cfg: PipelineConfig,
        mem_cfg: mtvp_mem::MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
    ) -> Self {
        Self::with_tracer(cfg, mem_cfg, program, trace, NullTracer)
    }

    /// Build a machine whose architectural memory will be supplied through
    /// [`Machine::replace_memory`] (the sampled driver's state handoff).
    /// Skips writing the initial data image — the handed-over image
    /// already contains it, and constant-data-heavy workloads carry tens
    /// of MiB — but still warm-starts the caches when configured, exactly
    /// as [`Machine::with_mem_config`] would.
    pub fn for_state_handoff(
        cfg: PipelineConfig,
        mem_cfg: mtvp_mem::MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
    ) -> Self {
        Self::build(cfg, mem_cfg, program, trace, NullTracer, false)
    }
}

impl<'p, T: Tracer, S: StageSet> StagedCore<'p, T, S> {
    /// Build a machine that emits lifecycle events into `tracer`.
    pub fn with_tracer(
        cfg: PipelineConfig,
        mem_cfg: mtvp_mem::MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
        tracer: T,
    ) -> Self {
        Self::build(cfg, mem_cfg, program, trace, tracer, true)
    }

    pub(crate) fn build(
        cfg: PipelineConfig,
        mem_cfg: mtvp_mem::MemConfig,
        program: &'p Program,
        trace: Option<Arc<Trace>>,
        tracer: T,
        init_memory: bool,
    ) -> Self {
        assert!(cfg.hw_contexts >= 1, "need at least one hardware context");
        let mut memory = MainMemory::new();
        if init_memory {
            program.init_memory(&mut memory);
        }
        // Warm start: the initialized data image passes through the cache
        // hierarchy (LRU keeps its tail resident), as it would be after
        // the fast-forward phase of a SimPoint-sampled simulation.
        let mut mem_sys = MemSystem::new(mem_cfg);
        if T::ENABLED {
            mem_sys.obs_enable();
        }
        if cfg.warm_start {
            mem_sys.warm_data_image(&program.data);
        }
        let mut rf = PhysRegFile::new(cfg.phys_regs_per_class());
        let sched = Scheduler::new(cfg.phys_regs_per_class());
        let mut ctxs: Vec<Context> = (0..cfg.total_contexts())
            .map(|_| Context::free(cfg.ras_entries))
            .collect();

        // Context 0 is the initial architectural thread; its maps get fresh
        // zero-valued, ready physical registers.
        let root = &mut ctxs[0];
        root.state = CtxState::Active;
        for slot in 0..32 {
            let ip = rf.alloc(RegClass::Int).expect("initial int regs");
            rf.write(RegClass::Int, ip, 0);
            root.int_map[slot] = ip;
            let fp = rf.alloc(RegClass::Fp).expect("initial fp regs");
            rf.write(RegClass::Fp, fp, 0);
            root.fp_map[slot] = fp;
        }

        let predictor = AnyPredictor::from_config(&cfg, trace.clone());
        let selector = match cfg.vp.selector {
            SelectorKind::Always => AnySelector::Always,
            SelectorKind::IlpPred => AnySelector::Ilp(IlpPred::new(cfg.vp.ilp_pred)),
            SelectorKind::L3MissOracle => AnySelector::L3Miss,
        };

        // Lower the hinted-load list into a per-pc mask once, here in the
        // (cold) constructor, so the per-rename policy check is a plain
        // indexed load.
        let mut hint_mask = vec![false; program.code.len()];
        for &pc in &cfg.vp.hinted_pcs {
            if let Some(slot) = hint_mask.get_mut(pc as usize) {
                *slot = true;
            }
        }

        StagedCore {
            mem_sys,
            memory,
            rf,
            ctxs,
            uops: UopSlab::new(),
            sched,
            events: BinaryHeap::new(),
            dir_pred: DirectionPredictor::new(cfg.gskew),
            btb: Btb::new(cfg.btb_entries),
            predictor,
            selector,
            trace,
            now: 0,
            next_seq: 1,
            issued_total: 0,
            stats: PipeStats::default(),
            done: false,
            root_ctx: 0,
            rr_cursor: 0,
            reissue_origin: None,
            last_commit_cycle: 0,
            scratch_ctxs: Vec::new(),
            hint_mask,
            cfg,
            program,
            tracer,
            _stages: PhantomData,
        }
    }

    /// Whether the static spawn-hint analysis selected the load at `pc`.
    #[inline(always)]
    pub(crate) fn hinted(&self, pc: u64) -> bool {
        self.hint_mask.get(pc as usize).copied().unwrap_or(false)
    }

    /// Consume the machine, yielding the tracer (to read its ring and
    /// registry after a run).
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Run the machine to completion (halt, instruction limit, or cycle
    /// limit) and return the statistics.
    ///
    /// # Panics
    /// Panics if the machine wedges (no commit for two million cycles) or
    /// if trace validation detects a committed-path divergence — both are
    /// simulator bugs, not program behaviours.
    pub fn run(&mut self) -> PipeStats {
        self.advance_to(u64::MAX);
        self.finalize_stats();
        // A finished machine must account for every physical register:
        // each is either free or referenced by a surviving rename map.
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_regfile() {
            panic!("post-run register-file check failed: {e}");
        }
        self.stats.clone()
    }

    /// The cycle loop shared by [`StagedCore::run`] and
    /// [`StagedCore::run_until_committed`]: step until `done`, the cycle
    /// or instruction limits, or `target` architectural commits.
    fn advance_to(&mut self, target: u64) {
        self.advance_to_inner::<true>(target);
    }

    fn advance_to_inner<const DISPATCH: bool>(&mut self, target: u64) {
        let mut before = self.progress_mark();
        while !self.done && self.stats.committed < target {
            if DISPATCH {
                self.cycle();
            } else {
                self.cycle_hand_wired();
            }
            let after = self.progress_mark();
            if after == before {
                // A fully idle cycle: every context is waiting on an
                // in-flight event (memory fill, execution completion,
                // front-end latency). Count it, and optionally jump
                // straight to the next cycle where anything can happen.
                self.stats.idle_cycles += 1;
                if self.cfg.fast_forward {
                    self.fast_forward_idle();
                }
            }
            before = after;
            if self.now.saturating_sub(self.last_commit_cycle) > WATCHDOG_CYCLES {
                panic!(
                    "machine wedged at cycle {} (committed={}, program={})",
                    self.now, self.stats.committed, self.program.name
                );
            }
            if self.now >= self.cfg.max_cycles {
                break;
            }
            if self.cfg.inst_limit > 0 && self.stats.committed >= self.cfg.inst_limit {
                break;
            }
        }
    }

    /// Run until at least `target` instructions have committed
    /// architecturally (the count may overshoot by up to a commit group
    /// plus a promoted thread's bulk credit), the program halts, or a
    /// configured limit fires. Returns the committed count reached.
    ///
    /// With state injected by [`Machine::load_arch_state`] the count is
    /// absolute (it starts at the injected instruction index), keeping
    /// commit-time trace validation and every trace-indexed structure
    /// consistent across a sampled run's windows.
    pub fn run_until_committed(&mut self, target: u64) -> u64 {
        self.advance_to(target);
        self.stats.committed
    }

    /// Statistics as of the current cycle, with the memory-hierarchy and
    /// predictor counters folded in. Sampled simulation snapshots this at
    /// warm-up end and window end; the field-wise difference is the
    /// window's measurement.
    pub fn stats_now(&mut self) -> PipeStats {
        self.finalize_stats();
        self.stats.clone()
    }

    // ---- CMP lockstep primitives (used by [`crate::CmpMachine`]) -------

    /// Attach this core to a shared last-level cache, replacing its
    /// private L3 for all demand traffic. When warm-starting, the data
    /// image is re-walked so the shared array holds the same tail a
    /// private LLC would after fast-forward; the private L1/L2 re-touch
    /// is a no-op because the walk repeats the exact access sequence, so
    /// their LRU state is unchanged.
    pub fn attach_shared_l3(&mut self, handle: mtvp_mem::SharedL3Handle, asid: u16) {
        self.mem_sys.attach_shared_l3(handle, asid);
        if self.cfg.warm_start {
            self.mem_sys.warm_data_image(&self.program.data);
        }
    }

    /// One lockstep cycle for the CMP driver: simulate a cycle and report
    /// whether it made observable progress. Idle accounting matches the
    /// single-core loop cycle-for-cycle; the *jump* over an idle stretch
    /// is the driver's job, because the next event that matters may
    /// belong to a sibling core.
    pub(crate) fn cmp_step(&mut self) -> bool {
        let before = self.progress_mark();
        self.cycle();
        let progressed = self.progress_mark() != before;
        if !progressed {
            self.stats.idle_cycles += 1;
        }
        progressed
    }

    /// Jump straight to `target` — a cycle the CMP driver chose as the
    /// earliest scheduled event on *any* core — with the same idle-cycle
    /// and round-robin bookkeeping as `fast_forward_idle`.
    pub(crate) fn cmp_fast_forward_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        #[cfg(debug_assertions)]
        self.assert_scheduler_invariants();
        let skipped = target - self.now;
        self.stats.idle_cycles += skipped;
        let n = self.ctxs.len();
        self.rr_cursor = (self.rr_cursor + (skipped % n as u64) as usize) % n;
        self.now = target;
    }

    /// Cycles since the last architectural commit (the CMP watchdog's
    /// wedge detector, mirroring the single-core loop's check).
    pub(crate) fn cycles_since_commit(&self) -> u64 {
        self.now.saturating_sub(self.last_commit_cycle)
    }

    /// Inject architectural state captured by the functional interpreter:
    /// the next PC, the absolute committed-instruction index, and both
    /// register files. Must be called on a freshly built machine (cycle 0).
    ///
    /// The committed counter and the root context's trace cursor both
    /// start at `committed`, so commit-time trace validation keeps running
    /// in absolute committed-path indices — every detailed window of a
    /// sampled run is verified instruction-for-instruction against the
    /// reference trace, which makes a botched state transfer a loud
    /// simulator panic instead of a silent accuracy loss.
    pub fn load_arch_state(
        &mut self,
        pc: u64,
        committed: u64,
        int_regs: &[u64; 32],
        fp_regs: &[f64; 32],
    ) {
        assert_eq!(self.now, 0, "inject state before running");
        assert_eq!(self.stats.committed, 0, "inject state only once");
        let (int_map, fp_map) = {
            let c = &self.ctxs[self.root_ctx];
            (c.int_map, c.fp_map)
        };
        for i in 0..32 {
            self.write_preg(RegClass::Int, int_map[i], int_regs[i]);
            self.write_preg(RegClass::Fp, fp_map[i], fp_regs[i].to_bits());
        }
        let c = &mut self.ctxs[self.root_ctx];
        c.pc = pc;
        c.trace_cursor = committed;
        self.stats.committed = committed;
    }

    /// Replace the architectural memory image. Must be called before the
    /// first cycle. The sampled driver hands the interpreter's image over
    /// wholesale — `MainMemory` implements [`mtvp_isa::interp::Bus`], so
    /// no page is copied at a window boundary.
    pub fn replace_memory(&mut self, memory: MainMemory) {
        assert_eq!(self.now, 0, "replace memory before running");
        self.memory = memory;
    }

    /// Consume the machine, yielding the architectural memory image — the
    /// return half of the zero-copy handoff with the functional
    /// interpreter. Call [`Machine::drain_to_arch`] first if the machine
    /// may still hold in-flight work.
    pub fn into_memory(self) -> MainMemory {
        self.memory
    }

    /// The architectural memory image, for the functional tier to step on
    /// between the windows of a sampled run — zero-copy in both
    /// directions. Caches track only tags, never data, so mutating memory
    /// while the pipeline is drained cannot corrupt values.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// Fast-forward a drained machine's architectural state: overwrite
    /// the root context's committed registers, PC, and committed count
    /// with the functional tier's state further along the same committed
    /// path. Micro-architectural state survives the jump ("stale state"
    /// warm-up) — caches, branch history, and predictor *confidence* are
    /// keyed by static instruction, so earlier windows' training remains
    /// largely valid across the skipped region. (A machine restarted
    /// cold each window spawns no speculative threads until its
    /// predictors re-train, which inflates sampled Mtvp cycle estimates
    /// by tens of percent.) The value predictor's *bases* are the
    /// exception: last-value and stride state goes stale as values march
    /// on, and a confidently-wrong predictor triggers wrong-spawn squash
    /// storms. So the jump functionally warms the trainer — it replays
    /// every skipped committed load's `(pc, value)` from the trace,
    /// exactly as commit would have. The replay is a pure function of
    /// the trace range, so cold and checkpoint-warm sampled runs warm
    /// identically. Call [`Machine::drain_to_arch`] first.
    pub fn jump_arch_state(
        &mut self,
        pc: u64,
        committed: u64,
        int_regs: &[u64; 32],
        fp_regs: &[f64; 32],
    ) {
        assert!(
            committed >= self.stats.committed,
            "jump must move forward along the committed path"
        );
        debug_assert!(
            self.ctxs[self.root_ctx].rob.is_empty(),
            "drain_to_arch before jumping"
        );
        if let Some(t) = &self.trace {
            for idx in self.stats.committed..committed {
                if let Some(e) = t.get(idx as usize) {
                    if e.is_load {
                        self.predictor.train(u64::from(e.pc), e.load_value);
                    }
                }
            }
        }
        let (int_map, fp_map) = {
            let c = &self.ctxs[self.root_ctx];
            (c.int_map, c.fp_map)
        };
        for i in 0..32 {
            self.write_preg(RegClass::Int, int_map[i], int_regs[i]);
            self.write_preg(RegClass::Fp, fp_map[i], fp_regs[i].to_bits());
        }
        let c = &mut self.ctxs[self.root_ctx];
        c.pc = pc;
        c.trace_cursor = committed;
        self.stats.committed = committed;
        self.note_commit_progress();
    }

    /// Discard every in-flight and speculative instruction, leaving only
    /// architectural state: the committed register files (readable through
    /// [`Machine::arch_int_regs`]), the committed memory image, and the
    /// next PC. The root context is reset to fetch from the next committed
    /// instruction, so the machine can keep running — or hand its state
    /// back to the functional interpreter at the end of a sampled window.
    ///
    /// Speculative stores only ever live in store buffers (never in
    /// memory), so after the drain the memory image is exactly the
    /// committed program state. Requires a committed-path trace (sampled
    /// runs always have one). No-op once the program has halted.
    pub fn drain_to_arch(&mut self) {
        if self.done {
            return;
        }
        let root = self.root_ctx;
        // A dying root waiting on a promotion takes control back: killing
        // the pending child resumes the root at its saved resume point.
        if let Some(child) = self.ctxs[root].pending_child {
            self.kill_subtree(child, KillCause::Drained);
        }
        debug_assert_eq!(self.ctxs[root].state, CtxState::Active);
        // Sequence numbers start at 1, so this squashes the root's entire
        // window, recursively killing every speculative thread (each is
        // reachable through an in-flight load's children list or a
        // `pending_child` link).
        self.squash_younger(root, 0, SquashCause::Drain);
        #[cfg(debug_assertions)]
        for (i, c) in self.ctxs.iter().enumerate() {
            if i == root {
                assert!(c.rob.is_empty() && c.lsq.is_empty() && c.store_buffer.is_empty());
                assert_eq!(c.queued_count, 0, "queued uops survived the drain");
            } else {
                assert_eq!(c.state, CtxState::Free, "ctx{i} survived the drain");
            }
        }
        // Everything scheduled belongs to squashed uops now.
        self.events.clear();
        self.sched.clear();
        self.reissue_origin = None;
        // Reset the front end onto the committed path. Branch history and
        // the RAS stay as they are: both are micro-architectural and
        // self-correct.
        let e = self
            .trace
            .as_ref()
            .expect("drain_to_arch requires a committed-path trace")
            .get(self.stats.committed as usize)
            .expect("trace covers the committed path");
        let next_pc = u64::from(e.pc);
        let c = &mut self.ctxs[root];
        c.pc = next_pc;
        c.trace_cursor = self.stats.committed;
        c.fetch_buffer.clear();
        c.fetch_stopped = false;
        c.wait_redirect = false;
        self.note_commit_progress();
    }

    /// Jump from a detected idle cycle to the next cycle at which any
    /// stage can make progress. Bit-identical to stepping cycle-by-cycle:
    /// idle cycles mutate nothing but `now`, the round-robin cursor
    /// (replayed below) and the idle counter (credited in bulk), and the
    /// jump target is clamped so the watchdog and `max_cycles` checks in
    /// [`Machine::run`] fire at exactly the same cycle either way.
    fn fast_forward_idle(&mut self) {
        // A lost wakeup makes the machine look idle; check the scheduler
        // before jumping over the cycles the periodic sweep would visit.
        #[cfg(debug_assertions)]
        self.assert_scheduler_invariants();
        let cap = self
            .cfg
            .max_cycles
            .min(self.last_commit_cycle.saturating_add(WATCHDOG_CYCLES + 1));
        let target = match self.next_wakeup_cycle() {
            Some(t) => t.min(cap),
            // Nothing scheduled at all: idle straight into the watchdog
            // (or the cycle limit), exactly as stepping would.
            None => cap,
        };
        if target <= self.now {
            return;
        }
        let skipped = target - self.now;
        self.stats.idle_cycles += skipped;
        let n = self.ctxs.len();
        self.rr_cursor = (self.rr_cursor + (skipped % n as u64) as usize) % n;
        self.now = target;
    }

    /// Earliest cycle strictly after `now` at which any scheduled event
    /// lands: an execution completion, a context's front end coming ready,
    /// the head of a fetch buffer maturing, or a memory-hierarchy fill.
    /// A stalled stage with none of these pending (e.g. a wrong-path
    /// context that ran off the text segment) is woken by whichever event
    /// eventually redirects it, so the set above is exhaustive.
    pub(crate) fn next_wakeup_cycle(&self) -> Option<u64> {
        // `now` is the next cycle to execute, so an event due exactly at
        // `now` must be kept (it makes the jump a no-op), not skipped.
        let mut wake: Option<u64> = None;
        let mut note = |t: u64| {
            if t >= self.now {
                wake = Some(wake.map_or(t, |w| w.min(t)));
            }
        };
        if let Some(&Reverse((t, _, _, _))) = self.events.peek() {
            note(t);
        }
        for c in &self.ctxs {
            if c.state == CtxState::Free {
                continue;
            }
            note(c.fetch_ready_at);
            note(c.rename_ready_at);
            if let Some(f) = c.fetch_buffer.front() {
                note(f.ready_at);
            }
        }
        // `next_event_cycle` is strict ("after `now`"), so probe from the
        // previous cycle to include fills landing exactly at `now`.
        if let Some(t) = self.mem_sys.next_event_cycle(self.now.saturating_sub(1)) {
            note(t);
        }
        wake
    }

    /// Snapshot the machine's observable-progress indicators (see
    /// [`ProgressMark`]).
    fn progress_mark(&self) -> ProgressMark {
        let mut rob = 0;
        let mut fetch_buffered = 0;
        let mut store_buffered = 0;
        let mut lsq = 0;
        let mut active = 0;
        for c in &self.ctxs {
            if c.state != CtxState::Free {
                active += 1;
            }
            rob += c.rob.len();
            fetch_buffered += c.fetch_buffer.len();
            store_buffered += c.store_buffer.len();
            lsq += c.lsq.len();
        }
        ProgressMark {
            fetched: self.stats.fetched,
            issued: self.stats.issued,
            committed: self.stats.committed,
            squashed: self.stats.squashed,
            discarded: self.stats.discarded_spec_commits,
            halted: self.stats.halted,
            vp: self.stats.vp,
            branches: self.stats.branches,
            mem: self.mem_sys.stats(),
            mem_words: self.memory.access_counts(),
            events: self.events.len(),
            iq: self.queue_occupancy(ExecUnit::Int),
            fq: self.queue_occupancy(ExecUnit::Fp),
            mq: self.queue_occupancy(ExecUnit::Mem),
            rob,
            fetch_buffered,
            store_buffered,
            lsq,
            active,
            last_commit: self.last_commit_cycle,
            done: self.done,
            next_seq: self.next_seq,
            issued_total: self.issued_total,
            free_int: self.rf.free_count(RegClass::Int),
            free_fp: self.rf.free_count(RegClass::Fp),
            reissue_origin: self.reissue_origin,
        }
    }

    /// Simulate one cycle, dispatching each stage through the stage set.
    ///
    /// Stages run back-to-front (the framework fixes this ordering) so
    /// results never skip a stage within a single cycle. Every `tick` is
    /// a statically-resolved associated-type call — after inlining this
    /// compiles to the same code as [`StagedCore::cycle_hand_wired`].
    pub fn cycle(&mut self) {
        S::Writeback::tick(self);
        S::Commit::tick(self);
        S::Issue::tick(self);
        S::Rename::tick(self);
        S::Fetch::tick(self);
        self.cycle_tail();
    }

    /// Simulate one cycle with the stage calls written out by hand — the
    /// exact pre-framework loop, kept as the differential reference for
    /// the framework seams. Only reachable through
    /// [`Machine::run_hand_wired`], because it is hand-wired to the
    /// default out-of-order stage methods regardless of `S`.
    pub(crate) fn cycle_hand_wired(&mut self) {
        self.writeback_stage();
        self.commit_stage();
        self.issue_stage();
        self.rename_stage();
        self.fetch_stage();
        self.cycle_tail();
    }

    /// The per-cycle epilogue shared by both cycle entry points: trace
    /// sampling, invariant sweep, clock advance, peak-context tracking.
    fn cycle_tail(&mut self) {
        if T::ENABLED {
            // Queue-occupancy sample (folded into histograms by the
            // tracer, not stored per cycle) and memory fills installed
            // during this cycle's accesses.
            let ev = Event::Occupancy {
                rob: self.rob_occupancy() as u64,
                iq: self.queue_occupancy(ExecUnit::Int) as u64,
                fq: self.queue_occupancy(ExecUnit::Fp) as u64,
                mq: self.queue_occupancy(ExecUnit::Mem) as u64,
            };
            self.tracer.record(self.now, ev);
            for fill in self.mem_sys.obs_drain() {
                let MemEvent::Fill { at, line } = fill;
                self.tracer.record(at, Event::MemFill { line });
            }
        }
        #[cfg(debug_assertions)]
        if self.now.is_multiple_of(64) {
            self.assert_invariants();
        }
        self.now += 1;
        let active = self
            .ctxs
            .iter()
            .filter(|c| c.state != CtxState::Free)
            .count();
        self.stats.peak_contexts = self.stats.peak_contexts.max(active);
    }

    /// Cycle-level invariant sweep, compiled only under debug assertions
    /// (sampled every 64 cycles from [`Machine::cycle`]). Catches
    /// bookkeeping corruption near the cycle it happens instead of at the
    /// end-of-run differential check.
    #[cfg(debug_assertions)]
    fn assert_invariants(&self) {
        for (i, c) in self.ctxs.iter().enumerate() {
            if c.state == CtxState::Free {
                continue;
            }
            let mut prev: Option<u64> = None;
            for &uid in c.rob.iter() {
                let seq = self.uops.get(uid).seq;
                if let Some(p) = prev {
                    assert!(
                        seq > p,
                        "cycle {}: ctx{i} ROB out of order (seq {seq} after {p})",
                        self.now
                    );
                }
                prev = Some(seq);
            }
        }
        if let Err(e) = self.rf.check_consistency() {
            panic!("cycle {}: physical register file corrupt: {e}", self.now);
        }
        self.assert_scheduler_invariants();
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.now;
        self.stats.mem = self.mem_sys.stats();
        self.stats.caches = self.mem_sys.cache_stats();
        let pf = self.mem_sys.prefetch_stats();
        self.stats.prefetch = (pf.trains, pf.streams_allocated, pf.issued, pf.stream_hits);
        self.stats.predictor = self.predictor.counters();
    }

    /// Statistics so far (final after [`Machine::run`] returns).
    pub fn stats(&self) -> &PipeStats {
        &self.stats
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The architectural integer register file (reads through the current
    /// root context's map). Only meaningful once the machine is idle.
    pub fn arch_int_regs(&self) -> [u64; 32] {
        let ctx = &self.ctxs[self.root_ctx];
        let mut regs = [0u64; 32];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.rf.read(RegClass::Int, ctx.int_map[i]);
        }
        regs
    }

    /// The architectural floating-point register file.
    pub fn arch_fp_regs(&self) -> [f64; 32] {
        let ctx = &self.ctxs[self.root_ctx];
        let mut regs = [0.0f64; 32];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = f64::from_bits(self.rf.read(RegClass::Fp, ctx.fp_map[i]));
        }
        regs
    }

    /// The architectural memory image (for differential tests).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Check physical-register-file bookkeeping (tests).
    pub fn check_regfile(&self) -> Result<(), String> {
        self.rf.check_consistency()
    }

    /// Multi-line diagnostic dump of the machine state (for debugging
    /// wedges; not part of the stable API).
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle={} committed={} events={} root={}",
            self.now,
            self.stats.committed,
            self.events.len(),
            self.root_ctx
        );
        for (i, c) in self.ctxs.iter().enumerate() {
            if c.state == CtxState::Free {
                continue;
            }
            let _ = writeln!(
                out,
                "ctx{i}: {:?} spec={} parent={:?} pending={:?} pc={} rob={} fb={} stopped={} wait={} halted={} sb={} kids={}",
                c.state,
                c.speculative,
                c.parent,
                c.pending_child,
                c.pc,
                c.rob.len(),
                c.fetch_buffer.len(),
                c.fetch_stopped,
                c.wait_redirect,
                c.halted,
                c.store_buffer.len(),
                c.live_children,
            );
            for uid in c.rob.iter().take(3) {
                let u = self.uops.get(*uid);
                let _ = writeln!(
                    out,
                    "   head uop pc={} {:?} seq={} {:?} kids={} in_q={}",
                    u.pc,
                    u.inst.op,
                    u.seq,
                    u.state,
                    u.vp.children.len(),
                    u.in_queue,
                );
            }
        }
        out
    }

    /// Occupancy snapshot for debugging and tests:
    /// (ROB, IQ, FQ, MQ, pending events, free int pregs, free fp pregs).
    pub fn occupancy(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        (
            self.rob_occupancy(),
            self.queue_occupancy(ExecUnit::Int),
            self.queue_occupancy(ExecUnit::Fp),
            self.queue_occupancy(ExecUnit::Mem),
            self.events.len(),
            self.rf.free_count(RegClass::Int),
            self.rf.free_count(RegClass::Fp),
        )
    }

    // ---- shared helpers -------------------------------------------------

    pub(crate) fn note_commit_progress(&mut self) {
        self.last_commit_cycle = self.now;
    }

    /// Find a free hardware context, if any. Local slots come first in
    /// `ctxs`, so a CMP machine with borrowed remote slots naturally
    /// prefers local contexts; a freed remote slot stays unavailable
    /// until its cross-core reconciliation finishes (`free_at`).
    pub(crate) fn find_free_ctx(&self) -> Option<CtxId> {
        self.ctxs
            .iter()
            .position(|c| c.state == CtxState::Free && c.free_at <= self.now)
    }

    /// Capacity of the queue for a unit class.
    pub(crate) fn queue_cap(&self, unit: ExecUnit) -> usize {
        match unit {
            ExecUnit::Int => self.cfg.iq_entries,
            ExecUnit::Fp => self.cfg.fq_entries,
            ExecUnit::Mem => self.cfg.mq_entries,
        }
    }

    /// Total in-flight uops across all contexts (ROB occupancy).
    pub(crate) fn rob_occupancy(&self) -> usize {
        self.ctxs.iter().map(|c| c.rob.len()).sum()
    }

    /// The value a load from `addr` observes at this moment, honouring the
    /// store-visibility chain: own in-flight stores, own store buffer, then
    /// each ancestor's (limited to stores older than the spawn point), and
    /// finally architectural memory.
    ///
    /// Memory dependences are *speculative*: an older store whose address
    /// is still unresolved is assumed not to alias. When it resolves and
    /// does alias, the store's completion replays the load (see
    /// `replay_younger_loads`), exactly like a load-store-queue violation
    /// replay in a real machine.
    pub(crate) fn chain_load_value(&self, ctx: CtxId, load_seq: u64, addr: u64) -> u64 {
        let mut limit = load_seq;
        let mut c = ctx;
        loop {
            let cx = &self.ctxs[c];
            // In-flight (LSQ) stores, youngest first.
            for &(sseq, uid) in cx.lsq.iter().rev() {
                if sseq >= limit {
                    continue;
                }
                let u = self.uops.get(uid);
                if u.eff_addr == Some(addr) {
                    return u.store_data.expect("resolved store has data");
                }
            }
            if let Some(v) = cx.search_store_buffer(addr, limit) {
                return v;
            }
            match cx.parent {
                Some(p) => {
                    limit = limit.min(cx.spawn_seq);
                    c = p;
                }
                None => break,
            }
        }
        self.memory.peek_u64(addr)
    }

    /// Whether the store with age `store_seq` in `store_ctx` is visible to
    /// loads of context `c` (i.e. older than every spawn point on the path
    /// from `c` up to `store_ctx`). Same-context stores are always visible.
    pub(crate) fn store_visible_to(&self, store_ctx: CtxId, store_seq: u64, c: CtxId) -> bool {
        let mut cur = c;
        let mut limit = u64::MAX;
        loop {
            if cur == store_ctx {
                return store_seq < limit;
            }
            match self.ctxs[cur].parent {
                Some(p) => {
                    limit = limit.min(self.ctxs[cur].spawn_seq);
                    cur = p;
                }
                None => return false,
            }
        }
    }

    /// Selector decision for the load at `pc` (with optional known effective
    /// address for the cache-level oracle).
    pub(crate) fn select_decision(&mut self, pc: u64, base_addr: Option<u64>) -> SelectDecision {
        match &mut self.selector {
            AnySelector::Always => SelectDecision::allow_all(),
            AnySelector::Ilp(ilp) => ilp.decide(pc),
            AnySelector::L3Miss => match base_addr {
                // Known address: MTVP only for lines not resident below L3;
                // STVP for anything that misses L1 (§5.1).
                Some(addr) => {
                    let level = self.mem_sys.probe_level(addr);
                    SelectDecision {
                        allow_stvp: level != mtvp_mem::HitLevel::L1,
                        allow_mtvp: level == mtvp_mem::HitLevel::Memory,
                    }
                }
                // Unknown base (dependent load): treat as a long-latency miss.
                None => SelectDecision::allow_all(),
            },
        }
    }

    /// Record a finished ILP-pred episode. Spawning episodes are charged
    /// the spawn latency in addition to the load's in-flight window, so
    /// the selector sees the cost of spawning for short (cache-hit) loads
    /// whose stall lands after the prediction confirms.
    pub(crate) fn record_episode(
        &mut self,
        pc: u64,
        class: mtvp_vp::VpClass,
        issued_at: u64,
        cycle_at: u64,
    ) {
        if let AnySelector::Ilp(ilp) = &mut self.selector {
            let progress = self.issued_total.saturating_sub(issued_at);
            let mut cycles = self.now.saturating_sub(cycle_at);
            if class == mtvp_vp::VpClass::Mtvp {
                cycles += self.cfg.vp.spawn_latency;
            }
            ilp.record(pc, class, progress, cycles);
        }
    }
}

impl<'p, T: Tracer> StagedCore<'p, T, SmtOooStages> {
    /// Run the machine to completion exactly like [`StagedCore::run`],
    /// but stepping with the hand-wired pre-framework cycle instead of
    /// the stage-set dispatch. This is the differential reference for
    /// `tests/framework.rs`: the pre-framework machine was this hand-wired
    /// sequence, so a framework-composed run must be bit-identical to it.
    /// Only the default stage set has this entry point — the hand-wired
    /// cycle *is* the out-of-order stage sequence, so offering it on any
    /// other stage set would silently compare the wrong machines.
    pub fn run_hand_wired(&mut self) -> PipeStats {
        self.advance_to_inner::<false>(u64::MAX);
        self.finalize_stats();
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_regfile() {
            panic!("post-run register-file check failed: {e}");
        }
        self.stats.clone()
    }
}
