//! Two-tier sampled simulation: functional fast-forward between
//! checkpointed detailed windows (SimPoint-style systematic sampling).
//!
//! A sampled run alternates two engines over one program:
//!
//! - the **functional tier** — the reference [`Interp`] stepping directly
//!   on the machine's [`MainMemory`] image (no page is ever copied
//!   between tiers), covering the instructions between windows at
//!   interpreter speed. That image starts as a copy-on-write clone of
//!   the run's *pristine* image — the program's initial data, built once
//!   per run — so the first write to a page copies that page alone;
//! - the **detailed tier** — ONE cycle-level [`Machine`] that persists
//!   across the whole run: booted through [`Machine::load_arch_state`] +
//!   [`Machine::replace_memory`], drained to architectural state with
//!   [`Machine::drain_to_arch`] at each gap, and moved forward with
//!   [`Machine::jump_arch_state`] after every fast-forward, so caches,
//!   branch history, and value-predictor training survive between
//!   windows ("stale state" warm-up). The jump also functionally warms
//!   the value predictor by replaying every skipped committed load's
//!   `(pc, value)` from the reference trace — stale value bases would
//!   otherwise predict confidently and wrongly after the skip. Each
//!   window then runs `warmup` uncounted instructions before its
//!   `window` measured ones.
//!
//! Window `k` measures instructions `[k·interval, k·interval + window)`.
//! Every detailed window still runs under commit-time trace validation,
//! so a botched state transfer is a loud panic, not a silent bias.
//!
//! Per-window statistics deltas are accumulated and extrapolated to a
//! whole-program estimate: the region measured from true reset is an
//! exact prefix (counted once, never scaled), and every later window is
//! scaled by `(total - exact) / sampled` committed instructions
//! ([`relative_errors`] quantifies the estimate against a full-detailed
//! run — the differential mode `sim_bench` and CI use to bound the
//! error).
//!
//! The functional tier's architectural state at each warm-up start is a
//! pure function of (benchmark, scale, instruction index) — it is
//! config-independent — so it persists as a content-addressed
//! [`Checkpoint`] in the engine cache. Sweeps whose configurations share
//! a sampling schedule replay the fast-forward once and every subsequent
//! configuration fast-forwards by `install_page`, not by interpretation.
//! A checkpoint holds only the pages that differ from the pristine image
//! (pages still physically shared with it are skipped unread), and a
//! restore is a clone of the pristine image plus those pages.

use crate::cache::{Cache, Checkpoint};
use crate::key::{ckpt_descriptor, key_of};
use mtvp_core::{CoreKind, SimConfig, SpawnPolicyKind};
use mtvp_isa::interp::Interp;
use mtvp_isa::trace::Trace;
use mtvp_isa::Program;
use mtvp_mem::MainMemory;
use mtvp_obs::NullTracer;
use mtvp_pipeline::{Core, InOrderMachine, Machine, PipeStats, StaticHintMachine};
use mtvp_workloads::Scale;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Where a sampled run persists and reuses functional checkpoints.
#[derive(Clone, Copy, Debug)]
pub struct CkptStore<'a> {
    /// The engine result cache the checkpoints live in.
    pub cache: &'a Cache,
    /// Benchmark name (part of the checkpoint identity).
    pub bench: &'a str,
    /// Build scale (part of the checkpoint identity).
    pub scale: Scale,
}

/// Deterministic accounting of one sampled run, persisted in the cell
/// cache next to the extrapolated statistics. (Checkpoint hit/miss
/// counts are *not* stored: they depend on cache state, and cached
/// sampled cells must be bit-identical cold or warm.)
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampledMeta {
    /// Detailed windows measured.
    pub windows: u64,
    /// Committed instructions measured in detail (across all windows,
    /// warm-up excluded).
    pub measured_instrs: u64,
    /// Cycles spent in measured windows (warm-up excluded).
    pub measured_cycles: u64,
}

/// The outcome of one sampled simulation.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// Whole-program estimate: every counter extrapolated by
    /// `total / measured` committed instructions; `committed` is exact.
    pub stats: PipeStats,
    /// Deterministic run accounting.
    pub meta: SampledMeta,
    /// Functional checkpoints served from the cache.
    pub ckpt_hits: u64,
    /// Functional checkpoints built (and persisted) this run.
    pub ckpt_misses: u64,
}

impl SampledRun {
    /// Fraction of the program executed in the detailed tier (measured
    /// windows only; warm-up adds `warmup/interval` on top).
    pub fn detailed_fraction(&self, total_instrs: u64) -> f64 {
        if total_instrs == 0 {
            0.0
        } else {
            self.meta.measured_instrs as f64 / total_instrs as f64
        }
    }
}

/// Run `program` under `cfg`'s sampling schedule and extrapolate a
/// whole-program estimate. `dyn_instrs` and `trace` are the reference
/// run's committed path (the same artifacts full-detailed runs use).
///
/// # Panics
/// Panics if `cfg.sampling` is `None` (callers dispatch on it) or if the
/// schedule measures zero instructions.
pub fn run_sampled(
    cfg: &SimConfig,
    program: &Program,
    dyn_instrs: u64,
    trace: &Arc<Trace>,
    ckpts: Option<CkptStore<'_>>,
) -> SampledRun {
    // The detailed tier is generic over the `Core` trait — the sampling
    // state-transfer surface (drain/jump/load/replace) is part of it, so
    // two-tier simulation works for any core module.
    match (cfg.core, cfg.spawn_policy) {
        (CoreKind::OutOfOrder, SpawnPolicyKind::Dynamic) => {
            run_sampled_on::<Machine>(cfg, program, dyn_instrs, trace, ckpts)
        }
        (CoreKind::OutOfOrder, SpawnPolicyKind::Static) => {
            run_sampled_on::<StaticHintMachine>(cfg, program, dyn_instrs, trace, ckpts)
        }
        (CoreKind::InOrderScalar, _) => {
            run_sampled_on::<InOrderMachine>(cfg, program, dyn_instrs, trace, ckpts)
        }
    }
}

fn run_sampled_on<'p, C: Core<'p>>(
    cfg: &SimConfig,
    program: &'p Program,
    dyn_instrs: u64,
    trace: &Arc<Trace>,
    ckpts: Option<CkptStore<'_>>,
) -> SampledRun {
    let sp = cfg.sampling.expect("run_sampled requires cfg.sampling");
    let total = dyn_instrs;
    // The program's initial data image, built once per run. The
    // functional tier's memory, the checkpoint delta base and every
    // checkpoint restore are copy-on-write clones of it, so no image is
    // rebuilt and pages nobody writes stay shared.
    let pristine = {
        let mut m = MainMemory::new();
        program.init_memory(&mut m);
        m
    };
    let mut mem = pristine.clone();
    let mut interp = Interp::new(program);

    // Two accumulators. The first detailed region starts at instruction 0
    // on a machine from true reset, so its measurement is an *exact
    // prefix* of the full run — the program's one-time startup transient
    // (cold caches, untrained predictors) belongs in the estimate once,
    // never multiplied by the extrapolation ratio. Every later region
    // starts on a mid-program machine and is a sample of steady state.
    let mut exact_acc: Option<Value> = None;
    let mut exact_covered = 0u64;
    let mut sampled_acc: Option<Value> = None;
    let mut windows = 0u64;
    let mut peak_contexts = 0usize;
    // Checkpoint (hits, misses) served / built this run.
    let mut ckpt_counts = (0u64, 0u64);

    // ONE detailed machine persists across the whole run. Contiguous
    // windows extend it; at a gap it is drained to architectural state,
    // the functional tier interprets forward *directly on its memory*
    // (zero copy), and `jump_arch_state` moves its architectural state to
    // the next warm-up point. Micro-architectural state — caches, branch
    // history, and above all value-predictor training — deliberately
    // survives the jump ("stale state" warm-up): it is keyed by static
    // instruction, so earlier windows' training stays largely valid
    // across the skipped region. Restarting each window on a cold machine
    // instead leaves Mtvp-mode windows spawning no threads until their
    // predictors re-train, inflating the cycle estimate by tens of
    // percent. A full-coverage schedule has no gaps and no jumps, so it
    // reproduces the detailed run exactly.
    let mut machine: Option<(C, PipeStats)> = None;
    let mut from_reset = true; // becomes false at the first jump

    let mut k = 0u64;
    while let Some(start) = k.checked_mul(sp.interval) {
        k += 1;
        if start >= total {
            break;
        }
        let end = start.saturating_add(sp.window);

        let mut accumulate = |win: &PipeStats, base: &PipeStats, from_reset: bool| {
            windows += 1;
            peak_contexts = peak_contexts.max(win.peak_contexts);
            let delta = v_sub(&serde_json::to_value(win), &serde_json::to_value(base));
            let acc = if from_reset {
                exact_covered = win.committed;
                &mut exact_acc
            } else {
                &mut sampled_acc
            };
            *acc = Some(match acc.take() {
                Some(a) => v_add(&a, &delta),
                None => delta,
            });
        };

        if let Some((m, last)) = machine.as_mut() {
            if last.committed >= end {
                // The live machine's deltas already cover this window
                // (commit overshoot past the next window's end).
                continue;
            }
            if start > last.committed {
                // A gap before this window: drain to architectural state
                // and hand the resume point to the functional tier, which
                // fast-forwards in place on the machine's memory.
                m.drain_to_arch();
                let committed = last.committed;
                let mut int_regs = m.arch_int_regs();
                int_regs[0] = 0; // r0 is architecturally hardwired
                interp.int_regs = int_regs;
                interp.fp_regs = m.arch_fp_regs();
                let next_pc = trace
                    .get(committed as usize)
                    .expect("trace covers the committed path")
                    .pc;
                interp.resume_at(u64::from(next_pc), committed);
                let warm_at = start.saturating_sub(sp.warmup);
                fast_forward(
                    &mut interp,
                    m.memory_mut(),
                    &pristine,
                    warm_at,
                    ckpts,
                    &mut ckpt_counts,
                );
                m.jump_arch_state(
                    interp.pc,
                    interp.dyn_instrs(),
                    &interp.int_regs,
                    &interp.fp_regs,
                );
                from_reset = false;
                // Warm-up runs uncounted: re-snapshot at the window start.
                m.run_until_committed(start);
                *last = m.stats_now();
            }
            // Measure to the window end; the delta since the last
            // snapshot covers exactly the instructions not yet accounted
            // for.
            m.run_until_committed(end);
            let win = m.stats_now();
            let halted = win.halted;
            accumulate(&win, &*last, from_reset);
            *last = win;
            if halted {
                break;
            }
            continue;
        }

        // First window: boot the detailed machine from the functional
        // tier (the schedule starts at instruction 0, so this machine
        // starts from true reset and its region is the exact prefix).
        let warm_at = start.saturating_sub(sp.warmup);
        fast_forward(
            &mut interp,
            &mut mem,
            &pristine,
            warm_at,
            ckpts,
            &mut ckpt_counts,
        );
        from_reset = interp.dyn_instrs() == 0;
        let mut m = C::build_core(
            crate::run::lowered_pipeline_config(cfg, program),
            cfg.to_mem_config(),
            program,
            Some(trace.clone()),
            NullTracer,
            false, // state handoff supplies the memory image
        );
        m.load_arch_state(
            interp.pc,
            interp.dyn_instrs(),
            &interp.int_regs,
            &interp.fp_regs,
        );
        m.replace_memory(std::mem::replace(&mut mem, MainMemory::new()));
        m.run_until_committed(start);
        let warm = m.stats_now();
        m.run_until_committed(end);
        let win = m.stats_now();
        let halted = win.halted;
        accumulate(&win, &warm, from_reset);
        if halted {
            break;
        }
        machine = Some((m, win));
    }
    drop(machine); // past the last window, nobody needs the state back

    let acc_committed = |acc: &Option<Value>| acc.as_ref().map_or(0, |a| field_u64(a, "committed"));
    let acc_cycles = |acc: &Option<Value>| acc.as_ref().map_or(0, |a| field_u64(a, "cycles"));
    let measured_instrs = acc_committed(&exact_acc) + acc_committed(&sampled_acc);
    let measured_cycles = acc_cycles(&exact_acc) + acc_cycles(&sampled_acc);
    assert!(
        measured_instrs > 0,
        "sampling schedule measured zero instructions ({}: window {} interval {})",
        program.name,
        sp.window,
        sp.interval
    );

    // Extrapolate: the exact prefix counts once; the sampled windows
    // stand for everything past it.
    let estimate = match (&exact_acc, &sampled_acc) {
        (Some(e), Some(s)) => {
            let rest = total.saturating_sub(exact_covered);
            let ratio = rest as f64 / acc_committed(&sampled_acc) as f64;
            v_add(e, &v_scale(s, ratio))
        }
        (Some(e), None) => {
            // Degenerate schedule: one region from reset. Exact when it
            // reached the end of the program; otherwise the prefix is
            // the only evidence there is, so scale it.
            if exact_covered >= total {
                e.clone()
            } else {
                v_scale(e, total as f64 / exact_covered as f64)
            }
        }
        (None, Some(s)) => v_scale(s, total as f64 / measured_instrs as f64),
        (None, None) => panic!(
            "sampling schedule produced no windows ({}: window {} interval {})",
            program.name, sp.window, sp.interval
        ),
    };
    let mut stats = PipeStats::from_value(&estimate).expect("PipeStats round-trips through Value");
    // Exact where exactness is possible; a maximum never scales.
    stats.committed = total;
    stats.peak_contexts = peak_contexts;
    stats.halted = true;

    SampledRun {
        stats,
        meta: SampledMeta {
            windows,
            measured_instrs,
            measured_cycles,
        },
        ckpt_hits: ckpt_counts.0,
        ckpt_misses: ckpt_counts.1,
    }
}

/// Advance the functional tier to instruction index `target`, serving or
/// populating the checkpoint cache. A hit replaces interpretation with
/// `install_page` of the stored image; a miss interprets and persists the
/// reached state for every later configuration in the sweep.
fn fast_forward(
    interp: &mut Interp,
    mem: &mut MainMemory,
    pristine: &MainMemory,
    target: u64,
    ckpts: Option<CkptStore<'_>>,
    counts: &mut (u64, u64), // (checkpoint hits, misses)
) {
    if interp.dyn_instrs() >= target {
        return;
    }
    let key_desc = ckpts.map(|s| {
        let desc = ckpt_descriptor(s.bench, s.scale, target);
        (key_of(&desc), desc)
    });
    // Checkpoints are stored as a delta against the program's initial
    // data image: every run reaches its memory state from `init_memory`
    // plus the program's own stores, so pages still equal to the initial
    // image need no persisting. Workloads with large constant data (mcf's
    // arc arrays are ~tens of MiB) shrink from full-image dumps to a few
    // pages. Restoring clones the pristine image and installs the delta,
    // which reproduces content *and* page residency exactly.
    if let (Some(store), Some((key, desc))) = (ckpts, &key_desc) {
        if let Some(ck) = store.cache.load_ckpt(key, desc) {
            *mem = pristine.clone();
            for (base, bytes) in &ck.pages {
                mem.install_page(*base, bytes);
            }
            interp.int_regs = ck.int_regs;
            for (f, &bits) in ck.fp_bits.iter().enumerate() {
                interp.fp_regs[f] = f64::from_bits(bits);
            }
            interp.resume_at(ck.pc, ck.index);
            counts.0 += 1;
            return;
        }
    }
    while interp.dyn_instrs() < target && !interp.halted() {
        interp.step(mem, None);
    }
    if let (Some(store), Some((key, desc))) = (ckpts, &key_desc) {
        let mut pages: Vec<(u64, Vec<u8>)> = mem
            .pages_changed_from(pristine)
            .map(|(base, p)| (base, p.to_vec()))
            .collect();
        pages.sort_unstable_by_key(|&(base, _)| base);
        let ck = Checkpoint {
            pc: interp.pc,
            index: interp.dyn_instrs(),
            int_regs: interp.int_regs,
            fp_bits: std::array::from_fn(|f| interp.fp_regs[f].to_bits()),
            pages,
        };
        let _ = store.cache.store_ckpt(key, desc, &ck);
        counts.1 += 1;
    }
}

/// Per-field relative errors of an extrapolated estimate against a
/// full-detailed run, flattened to dotted field paths
/// (`"cycles"`, `"vp.spawns"`, `"caches.2.misses"`, …). Boolean and
/// string fields are skipped; a zero-valued reference field scores `0`
/// when the estimate agrees and `1` when it does not.
pub fn relative_errors(full: &PipeStats, est: &PipeStats) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk_errors(
        &serde_json::to_value(full),
        &serde_json::to_value(est),
        "",
        &mut out,
    );
    out
}

/// Relative IPC error of an estimate against a full-detailed run — the
/// headline number the sampled mode is judged by.
pub fn ipc_error(full: &PipeStats, est: &PipeStats) -> f64 {
    if full.ipc() == 0.0 {
        0.0
    } else {
        ((est.ipc() - full.ipc()) / full.ipc()).abs()
    }
}

fn walk_errors(full: &Value, est: &Value, path: &str, out: &mut Vec<(String, f64)>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (full, est) {
        (Value::Map(fs), Value::Map(es)) => {
            for ((key, fv), (_, ev)) in fs.iter().zip(es) {
                walk_errors(fv, ev, &join(key), out);
            }
        }
        (Value::Seq(fs), Value::Seq(es)) => {
            for (i, (fv, ev)) in fs.iter().zip(es).enumerate() {
                walk_errors(fv, ev, &join(&i.to_string()), out);
            }
        }
        _ => {
            if let (Some(f), Some(e)) = (full.as_f64(), est.as_f64()) {
                let err = if f == 0.0 {
                    if e == 0.0 {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    ((e - f) / f).abs()
                };
                out.push((path.to_string(), err));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics arithmetic over the serde value tree. `PipeStats` is all
// counters structurally (nested structs, tuples, numbers, one bool), so
// window deltas, accumulation and extrapolation are three generic walks
// instead of forty hand-maintained field updates that would silently rot
// the moment a counter is added.

fn field_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::U64(x)) => *x,
        _ => 0,
    }
}

fn v_sub(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::U64(x), Value::U64(y)) => Value::U64(x.saturating_sub(*y)),
        (Value::I64(x), Value::I64(y)) => Value::I64(x - y),
        (Value::F64(x), Value::F64(y)) => Value::F64(x - y),
        (Value::Seq(xs), Value::Seq(ys)) => {
            Value::Seq(xs.iter().zip(ys).map(|(x, y)| v_sub(x, y)).collect())
        }
        (Value::Map(xs), Value::Map(ys)) => Value::Map(
            xs.iter()
                .zip(ys)
                .map(|((k, x), (_, y))| (k.clone(), v_sub(x, y)))
                .collect(),
        ),
        // Bool/Str/Null: keep the newer snapshot's value.
        _ => a.clone(),
    }
}

fn v_add(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::U64(x), Value::U64(y)) => Value::U64(x.saturating_add(*y)),
        (Value::I64(x), Value::I64(y)) => Value::I64(x + y),
        (Value::F64(x), Value::F64(y)) => Value::F64(x + y),
        (Value::Seq(xs), Value::Seq(ys)) => {
            Value::Seq(xs.iter().zip(ys).map(|(x, y)| v_add(x, y)).collect())
        }
        (Value::Map(xs), Value::Map(ys)) => Value::Map(
            xs.iter()
                .zip(ys)
                .map(|((k, x), (_, y))| (k.clone(), v_add(x, y)))
                .collect(),
        ),
        _ => a.clone(),
    }
}

fn v_scale(v: &Value, ratio: f64) -> Value {
    match v {
        Value::U64(x) => Value::U64((*x as f64 * ratio).round() as u64),
        Value::I64(x) => Value::I64((*x as f64 * ratio).round() as i64),
        Value::F64(x) => Value::F64(x * ratio),
        Value::Seq(xs) => Value::Seq(xs.iter().map(|x| v_scale(x, ratio)).collect()),
        Value::Map(xs) => Value::Map(
            xs.iter()
                .map(|(k, x)| (k.clone(), v_scale(x, ratio)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::reference_trace;
    use mtvp_core::{Mode, SamplingParams};
    use mtvp_workloads::suite;

    fn program(name: &str, scale: Scale) -> Program {
        suite()
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("{name} not in registry"))
            .build(scale)
    }

    fn sampled_cfg(mode: Mode, sp: SamplingParams) -> SimConfig {
        let mut cfg = SimConfig::new(mode);
        cfg.sampling = Some(sp);
        cfg.validate().expect("test config valid");
        cfg
    }

    #[test]
    #[ignore = "parameter-space probe, run by hand"]
    fn probe_warmup_error() {
        for name in ["mcf", "gzip g", "mesa", "equake", "vpr r"] {
            let p = program(name, Scale::Small);
            let (n, trace) = reference_trace(&p);
            let full =
                crate::run::run_with_trace(&SimConfig::new(Mode::Mtvp), &p, n, trace.clone());
            for (w, i, u) in [
                (2_000, 10_000, 1_000),
                (2_000, 10_000, 4_000),
                (2_000, 20_000, 8_000),
                (5_000, 20_000, 5_000),
                (1_000, 20_000, 4_000),
            ] {
                let cfg = sampled_cfg(
                    Mode::Mtvp,
                    SamplingParams {
                        window: w,
                        interval: i,
                        warmup: u,
                    },
                );
                let s = run_sampled(&cfg, &p, n, &trace, None);
                println!(
                    "{name:8} n={n:7} w={w} i={i} u={u}: windows={} measured={} err={:.4}",
                    s.meta.windows,
                    s.meta.measured_instrs,
                    ipc_error(&full.stats, &s.stats)
                );
            }
        }
    }

    #[test]
    fn value_arithmetic_round_trips_pipe_stats() {
        let mut a = PipeStats {
            cycles: 1000,
            committed: 400,
            ..PipeStats::default()
        };
        a.vp.mtvp_spawns = 7;
        a.caches.2.misses = 30;
        let mut b = PipeStats {
            cycles: 400,
            committed: 100,
            ..PipeStats::default()
        };
        b.caches.2.misses = 10;
        let d = v_sub(&serde_json::to_value(&a), &serde_json::to_value(&b));
        let sum = v_add(&d, &d);
        let scaled = v_scale(&sum, 0.5);
        let back = PipeStats::from_value(&scaled).unwrap();
        assert_eq!(back.cycles, 600);
        assert_eq!(back.committed, 300);
        assert_eq!(back.vp.mtvp_spawns, 7);
        assert_eq!(back.caches.2.misses, 20);
        // Saturating subtraction never wraps a counter.
        let neg = v_sub(&serde_json::to_value(&b), &serde_json::to_value(&a));
        assert_eq!(field_u64(&neg, "cycles"), 0);
    }

    #[test]
    fn relative_errors_flatten_nested_paths() {
        let mut full = PipeStats {
            cycles: 1000,
            committed: 500,
            ..PipeStats::default()
        };
        full.mem.l1_hits = 50;
        let mut est = full.clone();
        est.cycles = 1100;
        let errs = relative_errors(&full, &est);
        let get = |p: &str| errs.iter().find(|(k, _)| k == p).map(|(_, e)| *e);
        assert!((get("cycles").unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(get("mem.l1_hits"), Some(0.0));
        assert!(errs.iter().any(|(k, _)| k.starts_with("caches.0.")));
        assert!(ipc_error(&full, &est) > 0.0);
    }

    #[test]
    fn sampled_estimate_tracks_the_full_run() {
        let p = program("gzip g", Scale::Small);
        let (n, trace) = reference_trace(&p);
        let full = crate::run::run_with_trace(&SimConfig::new(Mode::Mtvp), &p, n, trace.clone());
        let cfg = sampled_cfg(
            Mode::Mtvp,
            SamplingParams {
                window: 2_000,
                interval: 10_000,
                warmup: 1_000,
            },
        );
        let s = run_sampled(&cfg, &p, n, &trace, None);
        assert_eq!(s.stats.committed, n);
        assert!(s.stats.halted);
        assert!(
            s.meta.windows > 1,
            "schedule produced {} windows",
            s.meta.windows
        );
        assert!(
            s.meta.measured_instrs < n,
            "sampling must not run everything"
        );
        let err = ipc_error(&full.stats, &s.stats);
        assert!(
            err < 0.05,
            "sampled IPC {} vs full {} (err {err:.4})",
            s.stats.ipc(),
            full.stats.ipc()
        );
    }

    #[test]
    fn full_coverage_schedule_is_nearly_exact() {
        // window == interval, zero warm-up: every instruction is measured,
        // so the "estimate" must agree with the full run almost exactly
        // (drain restarts cost a few cycles per window boundary).
        let p = program("gzip g", Scale::Tiny);
        let (n, trace) = reference_trace(&p);
        let full =
            crate::run::run_with_trace(&SimConfig::new(Mode::Baseline), &p, n, trace.clone());
        let cfg = sampled_cfg(
            Mode::Baseline,
            SamplingParams {
                window: 5_000,
                interval: 5_000,
                warmup: 0,
            },
        );
        let s = run_sampled(&cfg, &p, n, &trace, None);
        assert_eq!(s.meta.measured_instrs, n);
        assert!(
            ipc_error(&full.stats, &s.stats) < 0.10,
            "full-coverage sampled IPC {} vs detailed {}",
            s.stats.ipc(),
            full.stats.ipc()
        );
    }

    #[test]
    fn checkpoints_are_config_independent_and_bit_exact() {
        let dir = std::env::temp_dir().join(format!("mtvp-sampling-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Cache::new(&dir);
        let p = program("mesa", Scale::Small);
        let (n, trace) = reference_trace(&p);
        let sp = SamplingParams {
            window: 1_000,
            interval: 8_000,
            warmup: 500,
        };
        let store = CkptStore {
            cache: &cache,
            bench: "mesa",
            scale: Scale::Small,
        };

        // Pure cold run, no cache: the determinism reference.
        let cfg_a = sampled_cfg(Mode::Mtvp, sp);
        let uncached = run_sampled(&cfg_a, &p, n, &trace, None);
        assert_eq!(uncached.ckpt_hits + uncached.ckpt_misses, 0);

        // Cold run with a cache populates checkpoints...
        let cold = run_sampled(&cfg_a, &p, n, &trace, Some(store));
        assert!(cold.ckpt_misses > 0);
        assert_eq!(cold.ckpt_hits, 0);
        assert_eq!(cold.stats, uncached.stats, "cache must not change stats");

        // ...a different configuration sharing the schedule hits them all
        // (architectural state is config-independent)...
        let mut cfg_b = sampled_cfg(Mode::Baseline, sp);
        cfg_b.contexts = 1;
        let warm = run_sampled(&cfg_b, &p, n, &trace, Some(store));
        assert_eq!(
            warm.ckpt_misses, 0,
            "shared-schedule run rebuilt checkpoints"
        );
        assert!(warm.ckpt_hits > 0);

        // ...and produces bit-identical statistics to its own cold run.
        let cold_b = run_sampled(&cfg_b, &p, n, &trace, None);
        assert_eq!(warm.stats, cold_b.stats);
        assert_eq!(warm.meta, cold_b.meta);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_program_degenerates_to_one_full_window() {
        let p = program("swim", Scale::Tiny);
        let (n, trace) = reference_trace(&p);
        let cfg = sampled_cfg(
            Mode::Mtvp,
            SamplingParams {
                window: 100_000_000,
                interval: 200_000_000,
                warmup: 0,
            },
        );
        let s = run_sampled(&cfg, &p, n, &trace, None);
        assert_eq!(s.meta.windows, 1);
        assert_eq!(s.meta.measured_instrs, n);
        let full = crate::run::run_with_trace(&SimConfig::new(Mode::Mtvp), &p, n, trace);
        assert_eq!(s.stats.cycles, full.stats.cycles);
        assert_eq!(s.stats.committed, full.stats.committed);
    }
}
