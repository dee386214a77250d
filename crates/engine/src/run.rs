//! One-call simulation: reference run + traced oracle + cycle simulation,
//! with architectural validation built in.

use mtvp_core::{CoreKind, SimConfig, SpawnPolicyKind};
use mtvp_isa::interp::{Interp, SimpleBus};
use mtvp_isa::Program;
use mtvp_mem::SharedL3Handle;
use mtvp_obs::{NullTracer, RingTracer, Tracer};
use mtvp_pipeline::{
    CmpMachine, CoRunner, Core, InOrderStages, PipeStats, PipelineConfig, SmtOooStages,
    SmtOooStaticHintStages, StageSet, StagedCore,
};
use mtvp_workloads::synth::build_co_workload;
use mtvp_workloads::Scale;
use std::sync::Arc;

/// Lower `cfg` to a pipeline configuration for `program`. Under the
/// static spawn policy this is where the spawn-site analysis runs: the
/// selected sites' load PCs become `VpConfig::hinted_pcs`, the filter
/// `StaticHintSpawn` consults at rename. The analysis is deterministic,
/// so every build of the same (config, program) pair sees the same hints.
pub(crate) fn lowered_pipeline_config(cfg: &SimConfig, program: &Program) -> PipelineConfig {
    let mut p = cfg.to_pipeline_config();
    if cfg.spawn_policy == SpawnPolicyKind::Static {
        p.vp.hinted_pcs = crate::hints::hinted_loads_for(program);
    }
    p
}

/// The outcome of simulating one program under one configuration.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle-level statistics.
    pub stats: PipeStats,
    /// Dynamic instructions on the committed path (from the reference run).
    pub dyn_instrs: u64,
}

impl RunResult {
    /// Useful IPC.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Functionally pre-execute `program` to obtain its committed-path trace.
///
/// # Panics
/// Panics if the program does not halt within 200M instructions.
pub fn reference_trace(program: &Program) -> (u64, Arc<mtvp_isa::trace::Trace>) {
    let mut bus = SimpleBus::new();
    let mut interp = Interp::new(program);
    let (res, trace) = interp.run_traced(&mut bus, 200_000_000);
    assert!(res.halted, "workload {} does not halt", program.name);
    (res.dyn_instrs, Arc::new(trace))
}

/// Simulate `program` under `cfg`. The committed path is validated against
/// the reference interpreter instruction by instruction. CMP co-workloads
/// (if any) are built at [`Scale::Small`]; use [`run_program_at`] to pick
/// the scale explicitly.
pub fn run_program(cfg: &SimConfig, program: &Program) -> RunResult {
    run_program_at(cfg, program, Scale::Small)
}

/// Simulate `program` under `cfg`, building any CMP co-workloads at
/// `scale` (which only matters when `cfg.cores > 1` and
/// `cfg.co_workloads` is non-empty — pass the scale `program` itself was
/// built at so the mix's relative lengths are meaningful).
pub fn run_program_at(cfg: &SimConfig, program: &Program, scale: Scale) -> RunResult {
    let (dyn_instrs, trace) = reference_trace(program);
    run_with_trace_at(cfg, program, dyn_instrs, trace, scale)
}

/// Simulate with a pre-computed reference trace (lets sweeps amortize the
/// functional run across configurations). CMP co-workloads are built at
/// [`Scale::Small`]; see [`run_with_trace_at`].
pub fn run_with_trace(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: Arc<mtvp_isa::trace::Trace>,
) -> RunResult {
    run_with_trace_at(cfg, program, dyn_instrs, trace, Scale::Small)
}

/// Simulate with a pre-computed reference trace, building any CMP
/// co-workloads at `scale`.
///
/// # Panics
/// Panics on co-workload specs [`SimConfig::validate`] would have
/// rejected, and on generated co-workloads failing the error-severity
/// program lints (a generator bug, not a configuration).
pub fn run_with_trace_at(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: Arc<mtvp_isa::trace::Trace>,
    scale: Scale,
) -> RunResult {
    run_on(cfg, program, dyn_instrs, trace, scale, NullTracer).0
}

/// The only place the (core, spawn policy) axes become a concrete stage
/// set: every core module below this match is reached through the `Core`
/// trait. The in-order core has no spawn decision point, so its arm
/// ignores the policy (validate() rejects the combination).
fn run_on<T: Tracer>(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: Arc<mtvp_isa::trace::Trace>,
    scale: Scale,
    tracer: T,
) -> (RunResult, T) {
    match (cfg.core, cfg.spawn_policy) {
        (CoreKind::OutOfOrder, SpawnPolicyKind::Dynamic) => {
            run_staged::<T, SmtOooStages>(cfg, program, dyn_instrs, trace, scale, tracer)
        }
        (CoreKind::OutOfOrder, SpawnPolicyKind::Static) => {
            run_staged::<T, SmtOooStaticHintStages>(cfg, program, dyn_instrs, trace, scale, tracer)
        }
        (CoreKind::InOrderScalar, _) => {
            run_staged::<T, InOrderStages>(cfg, program, dyn_instrs, trace, scale, tracer)
        }
    }
}

/// Run one stage set: a single core, or (`cores > 1`) the CMP topology
/// whose primary core traces into `tracer`.
fn run_staged<T: Tracer, S: StageSet>(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: Arc<mtvp_isa::trace::Trace>,
    scale: Scale,
    tracer: T,
) -> (RunResult, T) {
    if cfg.cores > 1 {
        assert_eq!(
            cfg.core,
            CoreKind::OutOfOrder,
            "SimConfig::validate rejects CMP topologies on the in-order core"
        );
        return run_cmp_on::<T, S>(cfg, program, dyn_instrs, trace, scale, tracer);
    }
    let mut machine = StagedCore::<'_, T, S>::build_core(
        lowered_pipeline_config(cfg, program),
        cfg.to_mem_config(),
        program,
        Some(trace),
        tracer,
        true,
    );
    let stats = machine.run();
    (RunResult { stats, dyn_instrs }, machine.into_tracer())
}

/// Resolve, lint-gate, and functionally pre-execute the co-workloads of
/// a CMP configuration. Generated (synth/phases) programs must pass every
/// error-severity lint in `mtvp-analysis` before they are allowed onto a
/// sibling core — a generator that emits an uninitialized read or an
/// unreachable halt would poison the mix silently otherwise.
fn resolve_co_workloads(
    cfg: &SimConfig,
    scale: Scale,
) -> Vec<(Program, Arc<mtvp_isa::trace::Trace>)> {
    cfg.co_workloads
        .iter()
        .map(|spec| {
            let p = build_co_workload(spec, scale)
                .unwrap_or_else(|e| panic!("{e} (SimConfig::validate admits only valid specs)"));
            if spec.starts_with("synth:") || spec.starts_with("phases:") {
                let report = mtvp_analysis::lint_program(&p);
                assert_eq!(
                    report.errors(),
                    0,
                    "generated co-workload `{spec}` failed error-severity lints: {:?}",
                    report.diags
                );
            }
            let (_, trace) = reference_trace(&p);
            (p, trace)
        })
        .collect()
}

/// Assemble and run a CMP topology: the primary core under `tracer`,
/// one co-runner core per co-workload, idle siblings donating remote
/// contexts (already lowered into the primary's `PipelineConfig` by
/// `SimConfig::to_pipeline_config`), all over one shared L3.
fn run_cmp_on<T: Tracer, S: StageSet>(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: Arc<mtvp_isa::trace::Trace>,
    scale: Scale,
    tracer: T,
) -> (RunResult, T) {
    let co = resolve_co_workloads(cfg, scale);
    let mem_cfg = cfg.to_mem_config();
    let primary: StagedCore<'_, T, S> = StagedCore::with_tracer(
        lowered_pipeline_config(cfg, program),
        mem_cfg,
        program,
        Some(trace),
        tracer,
    );
    // Co-runners never borrow remote slots (only the primary spawns
    // cross-core), so lower their configs with that knob cleared.
    let mut co_cfg = cfg.clone();
    co_cfg.cross_core_spawn = false;
    let co_runners: Vec<CoRunner<'_, S>> = co
        .iter()
        .map(|(p, t)| {
            CoRunner::new(StagedCore::with_mem_config(
                lowered_pipeline_config(&co_cfg, p),
                mem_cfg,
                p,
                Some(t.clone()),
            ))
        })
        .collect();
    let shared = cfg.shared_l3_spec().map(SharedL3Handle::new);
    let mut machine = CmpMachine::assemble(cfg.cores, primary, co_runners, shared);
    let stats = machine.run();
    (RunResult { stats, dyn_instrs }, machine.into_tracer())
}

/// Options for a traced run (see [`run_program_traced`]).
#[derive(Clone, Debug)]
pub struct TraceOptions {
    /// Ring capacity: the newest `ring` events are retained.
    pub ring: usize,
    /// Optional `[start, end)` cycle window for ring retention.
    pub window: Option<(u64, u64)>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            ring: 1 << 20,
            window: None,
        }
    }
}

/// Simulate `program` under `cfg` with uop-lifecycle tracing enabled,
/// returning the result and the tracer (ring of events + counter and
/// histogram registry).
pub fn run_program_traced(
    cfg: &SimConfig,
    program: &Program,
    opts: &TraceOptions,
) -> (RunResult, RingTracer) {
    let (dyn_instrs, trace) = reference_trace(program);
    let mut tracer = RingTracer::new(opts.ring);
    if let Some((start, end)) = opts.window {
        tracer = tracer.with_window(start, end);
    }
    // On a CMP only the primary core is traced; co-runner lifecycle
    // events would interleave meaninglessly with the measured workload's.
    run_on(cfg, program, dyn_instrs, trace, Scale::Small, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvp_core::Mode;
    use mtvp_workloads::{suite, Scale};

    #[test]
    fn run_completes_and_validates() {
        let wl = suite().into_iter().find(|w| w.name == "gzip g").unwrap();
        let program = wl.build(Scale::Tiny);
        let r = run_program(&SimConfig::new(Mode::Baseline), &program);
        assert!(r.stats.halted);
        assert_eq!(r.stats.committed, r.dyn_instrs);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn static_spawn_policy_runs_and_validates() {
        let wl = suite().into_iter().find(|w| w.name == "swim").unwrap();
        let program = wl.build(Scale::Tiny);
        let (n, trace) = reference_trace(&program);
        let mut dynamic = SimConfig::new(Mode::Mtvp);
        dynamic.contexts = 4;
        let mut hinted = dynamic.clone();
        hinted.spawn_policy = SpawnPolicyKind::Static;
        hinted.validate().unwrap();
        let a = run_with_trace(&dynamic, &program, n, trace.clone());
        let b = run_with_trace(&hinted, &program, n, trace);
        // Same architectural work under either policy; the hint filter
        // can only gate spawns, never change committed-path semantics.
        assert_eq!(a.stats.committed, b.stats.committed);
        assert!(b.stats.halted);
        assert!(b.stats.vp.mtvp_spawns <= a.stats.vp.mtvp_spawns);
    }

    #[test]
    fn trace_is_reusable_across_configs() {
        let wl = suite().into_iter().find(|w| w.name == "eon r").unwrap();
        let program = wl.build(Scale::Tiny);
        let (n, trace) = reference_trace(&program);
        let a = run_with_trace(&SimConfig::new(Mode::Baseline), &program, n, trace.clone());
        let b = run_with_trace(&SimConfig::new(Mode::Mtvp), &program, n, trace);
        assert_eq!(a.stats.committed, b.stats.committed);
    }
}
