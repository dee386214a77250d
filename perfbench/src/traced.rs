//! The traced run: each layer's public functions called directly from
//! the benchmark, inside spans, on the workload's own inputs. The layer
//! probes run three times: a warm-up, untraced, then traced; the
//! difference in wall time between the last two is the tracing overhead.

use crate::cells::{benches_of, cells, cold_pool, scenario, Cell, Prepared};
use crate::e2e::{dyn_map, sampling_schedule, Ctx};
use crate::proc::Serve;
use crate::report::{num, Report};
use crate::servemix::{send_rung, stratified, Checker, Kind, FIXED_RATE};
use crate::spans::Spans;
use crate::stats::{ipc_err, Ratio, Timing};
use mtvp_branch::{DirectionPredictor, GskewConfig};
use mtvp_engine::{
    cell_descriptor, hinted_loads_for, key::scale_tag, key_of, reference_trace,
    render_speedup_table, run_sampled, run_with_trace_at, suite, trace_descriptor, Cache,
    CellEntry, CkptStore, Mode, PipeStats, Registry, Scale, Scheduler, SimConfig, SpawnPolicyKind,
    Sweep, SIM_VERSION,
};
use mtvp_isa::interp::{Bus, Interp, SimpleBus, Step};
use mtvp_mem::{AccessKind, MemSystem};
use mtvp_vp::{ValuePredictor, WangFranklinConfig, WangFranklinPredictor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What a workload's traced run feeds the layers.
struct Inputs {
    benches: Vec<&'static str>,
    scale: Scale,
    /// Detailed cells (every machine shape).
    cells: Vec<Cell>,
    /// Scale of the cold `/run` requests in the serve probe.
    cold_scale: Scale,
    /// Seconds the serve probe sends at the fixed rate.
    serve_s: f64,
}

fn inputs(ctx: &Ctx, workload: &str) -> Inputs {
    let shapes = scenario("figs-cold").configs().expect("figs-cold expands");
    let serve_s = if ctx.smoke {
        0.5
    } else {
        (ctx.seconds / 4.0).min(5.0)
    };
    let sc = scenario(workload);
    let scale = ctx.scale(sc.scale_or(None));
    let benches = benches_of(&sc);
    Inputs {
        cells: cells(&benches, &shapes, scale),
        benches,
        scale,
        cold_scale: ctx.scale(Scale::Small),
        serve_s,
    }
}

/// A data-memory bus that records every committed-path access.
struct Recording<'a> {
    inner: &'a mut SimpleBus,
    /// `(addr, is_write, value)` of each access of the current step.
    step: Vec<(u64, bool, u64)>,
}

impl Bus for Recording<'_> {
    fn read_u64(&mut self, addr: u64) -> u64 {
        let v = self.inner.read_u64(addr);
        self.step.push((addr, false, v));
        v
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
        self.step.push((addr, true, val));
        self.inner.write_u64(addr, val);
    }
}

/// The committed path of one program, as the layers below see it.
#[derive(Default)]
struct Events {
    /// `(pc, addr, kind)` of each data access.
    accesses: Vec<(u64, u64, AccessKind)>,
    /// `(pc, value)` of each load.
    loads: Vec<(u64, u64)>,
    /// `(pc, taken)` of each conditional branch.
    branches: Vec<(u64, bool)>,
}

fn record(p: &Prepared) -> Events {
    let mut mem = SimpleBus::new();
    p.program.init_memory(&mut mem);
    let mut interp = Interp::new(&p.program);
    let mut bus = Recording {
        inner: &mut mem,
        step: Vec::new(),
    };
    let mut ev = Events::default();
    loop {
        let pc = interp.pc;
        bus.step.clear();
        let step = interp.step(&mut bus, None);
        let inst = p.program.fetch(pc).expect("pc in text");
        for &(addr, write, value) in &bus.step {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            ev.accesses.push((pc, addr, kind));
            if !write && inst.is_load() {
                ev.loads.push((pc, value));
            }
        }
        if inst.is_cond_branch() {
            ev.branches.push((pc, interp.pc != pc + 1));
        }
        if step != Step::Continue {
            break;
        }
    }
    ev
}

/// Everything the layer probes measure.
#[derive(Default)]
struct Layers {
    interp_instrs: u64,
    interp_s: f64,
    cells: Vec<(Cell, PipeStats, f64)>,
    pipeline_wall_s: f64,
    accesses: u64,
    mem_s: f64,
    loads: u64,
    vp_s: f64,
    branches: u64,
    branch_mispredicts: u64,
    branch_s: f64,
    sampled: Vec<(
        &'static str,
        String,
        PipeStats,
        mtvp_engine::sampling::SampledMeta,
        u64,
    )>,
    sampling_cold_s: f64,
    ckpt_hits: u64,
    ckpt_misses: u64,
}

/// Run every layer probe once, inside `spans`.
fn probes(
    ctx: &Ctx,
    inp: &Inputs,
    spans: &mut Spans,
    report: &mut Report,
    cache_dir: &std::path::Path,
) -> Layers {
    let mut out = Layers::default();
    let all = suite();

    // Engine phase 1, one benchmark at a time.
    let cache = Cache::new(cache_dir);
    let prepared: Vec<Prepared> = spans.span("setup", |s| {
        inp.benches
            .iter()
            .map(|&bench| {
                let wl = all.iter().find(|w| w.name == bench).expect("known bench");
                let program = s.span("workloads.build", |_| wl.build(inp.scale));
                let (dyn_instrs, trace) = s.span("isa.trace", |_| reference_trace(&program));
                s.span("engine.trace_write", |_| {
                    let descriptor = trace_descriptor(bench, inp.scale);
                    let key = key_of(&descriptor);
                    let _ = cache.store_trace(&key, &descriptor, dyn_instrs, &trace);
                });
                Prepared {
                    bench,
                    program,
                    dyn_instrs,
                    trace,
                }
            })
            .collect()
    });
    let dyn_of: HashMap<&str, u64> = prepared.iter().map(|p| (p.bench, p.dyn_instrs)).collect();

    // The functional interpreter alone.
    spans.span("isa.interp", |_| {
        for p in &prepared {
            let t = Instant::now();
            let mut bus = SimpleBus::new();
            let r = Interp::new(&p.program).run(&mut bus, 200_000_000);
            out.interp_s += t.elapsed().as_secs_f64();
            out.interp_instrs += black_box(r).dyn_instrs;
        }
    });

    // Spawn-site analysis, as the engine runs it when it lowers each
    // static-policy cell's configuration (phase 2, not phase 1).
    spans.span("analysis.hints", |_| {
        for c in &inp.cells {
            if c.config.spawn_policy == SpawnPolicyKind::Static {
                let p = prepared
                    .iter()
                    .find(|p| p.bench == c.bench)
                    .expect("prepared");
                black_box(hinted_loads_for(&p.program));
            }
        }
    });

    // Every detailed cell, timed one by one on `jobs` threads.
    let t_pool = Instant::now();
    let timed: Vec<(PipeStats, Instant, Instant)> = spans.span("pipeline", |s| {
        let timed = Scheduler::with_jobs_cap(Some(ctx.jobs)).run(
            &inp.cells,
            |c| 1 + c.config.contexts as u64,
            |c| {
                let p = prepared
                    .iter()
                    .find(|p| p.bench == c.bench)
                    .expect("prepared");
                let t = Instant::now();
                let r = run_with_trace_at(
                    &c.config,
                    &p.program,
                    p.dyn_instrs,
                    p.trace.clone(),
                    c.scale,
                );
                (r.stats, t, Instant::now())
            },
            |_, _| {},
        );
        for (c, (_, t0, t1)) in inp.cells.iter().zip(&timed) {
            s.record(&format!("pipeline.sim.{}", c.shape()), *t0, *t1);
        }
        timed
    });
    out.pipeline_wall_s = t_pool.elapsed().as_secs_f64();
    for (c, (stats, t0, t1)) in inp.cells.iter().zip(timed) {
        report.op(
            Some(stats.committed) == dyn_of.get(c.bench).copied(),
            || {
                format!(
                    "traced {}/{}: committed {}",
                    c.bench, c.label, stats.committed
                )
            },
        );
        out.cells
            .push((c.clone(), stats, t1.duration_since(t0).as_secs_f64()));
    }

    // Memory, value predictor and branch predictor fed the committed path.
    let events: Vec<Events> = spans.span("isa.record", |_| prepared.iter().map(record).collect());
    let base = SimConfig::new(Mode::Mtvp);
    // Each replay builds its structures before the clock starts, so only
    // the per-event calls are timed.
    spans.span("mem.replay", |_| {
        for ev in &events {
            let mut mem = MemSystem::new(base.to_mem_config());
            let mut now = 0;
            let t = Instant::now();
            for &(pc, addr, kind) in &ev.accesses {
                now = mem.access_data(now, pc, addr, kind).ready_at.max(now + 1);
            }
            out.mem_s += t.elapsed().as_secs_f64();
            black_box(mem.stats());
            out.accesses += ev.accesses.len() as u64;
        }
    });
    spans.span("vp.replay", |_| {
        for ev in &events {
            let mut vp = WangFranklinPredictor::new(WangFranklinConfig::hpca2005());
            let t = Instant::now();
            for &(pc, value) in &ev.loads {
                black_box(vp.predict(pc));
                vp.train(pc, value);
            }
            out.vp_s += t.elapsed().as_secs_f64();
            out.loads += ev.loads.len() as u64;
        }
    });
    spans.span("branch.replay", |_| {
        for ev in &events {
            let mut bp = DirectionPredictor::new(GskewConfig::hpca2005());
            let mut ghist = 0u64;
            let t = Instant::now();
            for &(pc, taken) in &ev.branches {
                if bp.predict(pc, ghist) != taken {
                    out.branch_mispredicts += 1;
                }
                bp.update(pc, ghist, taken);
                ghist = (ghist << 1) | u64::from(taken);
            }
            out.branch_s += t.elapsed().as_secs_f64();
            out.branches += ev.branches.len() as u64;
        }
    });

    // The engine's result cache and report rendering.
    let cache = Cache::new(cache_dir);
    let entries: Vec<(mtvp_engine::JobKey, String, CellEntry)> = out
        .cells
        .iter()
        .map(|(c, stats, _)| {
            let descriptor = cell_descriptor(c.bench, &c.config, c.scale);
            let wl = all.iter().find(|w| w.name == c.bench).expect("known bench");
            let entry = CellEntry {
                format: "mtvp-cell-v1".to_string(),
                version: SIM_VERSION.to_string(),
                descriptor: descriptor.clone(),
                bench: c.bench.to_string(),
                suite_int: wl.suite == mtvp_engine::Suite::Int,
                scale: scale_tag(c.scale).to_string(),
                config: c.config.clone(),
                dyn_instrs: dyn_of[c.bench],
                stats: stats.clone(),
                sampled: None,
            };
            (key_of(&descriptor), descriptor, entry)
        })
        .collect();
    spans.span("engine.cache_write", |_| {
        for (key, _, entry) in &entries {
            let r = cache.store_cell(key, entry);
            report.op(r.is_ok(), || format!("store_cell: {r:?}"));
        }
    });
    spans.span("engine.cache_read", |_| {
        for (key, descriptor, entry) in &entries {
            let back = cache.load_cell(key, descriptor);
            report.op(back.as_ref() == Some(entry), || {
                format!("load_cell {} differs from what was stored", entry.bench)
            });
        }
    });
    spans.span("engine.json", |_| {
        let sweep = Sweep {
            cells: entries
                .iter()
                .zip(&inp.cells)
                .map(|((_, _, e), c)| mtvp_engine::Cell {
                    bench: e.bench.clone(),
                    suite_int: e.suite_int,
                    config: c.label.clone(),
                    stats: e.stats.clone(),
                })
                .collect(),
        };
        let json = sweep.to_json().expect("sweep serializes");
        let mut labels: Vec<&str> = inp.cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        black_box(render_speedup_table("traced", &sweep, &labels, "base"));
        black_box(json);
    });

    // Two-tier sampling with checkpoints: cold, then checkpoint-warm.
    let sp = sampling_schedule(ctx);
    let samplable: Vec<&Cell> = inp.cells.iter().filter(|c| c.shape() == "ooo").collect();
    for (pass, name) in ["sampling.cold", "sampling.warm"].into_iter().enumerate() {
        let t = Instant::now();
        spans.span(name, |_| {
            for (i, c) in samplable.iter().enumerate() {
                let p = prepared
                    .iter()
                    .find(|p| p.bench == c.bench)
                    .expect("prepared");
                let mut cfg = c.config.clone();
                cfg.sampling = Some(sp);
                let store = CkptStore {
                    cache: &cache,
                    bench: c.bench,
                    scale: c.scale,
                };
                let r = run_sampled(&cfg, &p.program, p.dyn_instrs, &p.trace, Some(store));
                out.ckpt_hits += r.ckpt_hits;
                out.ckpt_misses += r.ckpt_misses;
                if pass == 0 {
                    out.sampled
                        .push((c.bench, c.label.clone(), r.stats, r.meta, p.dyn_instrs));
                } else {
                    report.op(out.sampled[i].2 == r.stats, || {
                        format!("{}/{}: checkpoint-warm estimate differs", c.bench, c.label)
                    });
                }
            }
        });
        if pass == 0 {
            out.sampling_cold_s = t.elapsed().as_secs_f64();
        }
    }
    out
}

/// The traced run of `workload`.
///
/// # Errors
/// Returns a message when a child process cannot be run.
pub fn run(ctx: &Ctx, workload: &str) -> Result<(Report, Spans), String> {
    let inp = inputs(ctx, workload);
    let mut report = Report::default();

    // A warm-up pass, then the untraced pass: the same probes with a
    // recorder that keeps nothing.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let mut off = Spans::new(false);
        let mut scratch = Report::default();
        let t = Instant::now();
        let dir = ctx.fresh_dir("traced-cache");
        probes(ctx, &inp, &mut off, &mut scratch, &dir);
        untraced_s = t.elapsed().as_secs_f64();
        report.check(off.spans().is_empty(), || {
            "untraced pass recorded spans".to_string()
        });
        report.check(scratch.correct(), || {
            format!("untraced pass: {:?}", scratch.problems)
        });
    }

    let mut on = Spans::new(true);
    let t = Instant::now();
    let dir = ctx.fresh_dir("traced-cache");
    let l = probes(ctx, &inp, &mut on, &mut report, &dir);
    let traced_s = t.elapsed().as_secs_f64();

    let self_t = on.self_times();
    let st = |name: &str| self_t.get(name).copied().unwrap_or(0.0);
    report.metric("workloads.build_s", st("workloads.build"), "s");
    report.metric("isa.trace_s", st("isa.trace"), "s");
    report.metric("analysis.hints_s", st("analysis.hints"), "s");
    report.metric(
        "isa.interp_mips",
        l.interp_instrs as f64 / l.interp_s / 1e6,
        "MIPS",
    );

    // Pipeline: time per cell, per shape, and the exact work counts.
    let sim_s: f64 = l.cells.iter().map(|(_, _, t)| t).sum();
    report.metric("pipeline.sim_s", sim_s, "s");
    for shape in ["ooo", "inorder", "static", "cmp"] {
        let (instrs, secs) = l
            .cells
            .iter()
            .filter(|(c, _, _)| c.shape() == shape)
            .fold((0u64, 0.0), |(i, s), (_, st, t)| (i + st.committed, s + t));
        report.metric(
            &format!("pipeline.{shape}.mips"),
            instrs as f64 / secs.max(1e-12) / 1e6,
            "MIPS",
        );
    }
    let sum = |f: &dyn Fn(&PipeStats) -> u64| l.cells.iter().map(|(_, s, _)| f(s)).sum::<u64>();
    let cycles = sum(&|s| s.cycles);
    let idle = sum(&|s| s.idle_cycles);
    report.metric(
        "pipeline.ns_per_cycle",
        sim_s * 1e9 / (cycles - idle).max(1) as f64,
        "ns",
    );
    report.metric("pipeline.cycles", cycles as f64, "count");
    report.metric("pipeline.idle_cycles", idle as f64, "count");
    let fetched = sum(&|s| s.fetched);
    report.metric("pipeline.fetched", fetched as f64, "count");
    report.metric("pipeline.issued", sum(&|s| s.issued) as f64, "count");
    report.metric("pipeline.squashed", sum(&|s| s.squashed) as f64, "count");
    ratio(
        &mut report,
        "pipeline.useful_frac",
        sum(&|s| s.committed) as f64,
        fetched as f64,
    );

    // Memory hierarchy.
    report.metric("mem.l1_hits", sum(&|s| s.mem.l1_hits) as f64, "count");
    report.metric("mem.l3_hits", sum(&|s| s.mem.l3_hits) as f64, "count");
    report.metric(
        "mem.mem_accesses",
        sum(&|s| s.mem.mem_accesses) as f64,
        "count",
    );
    report.metric(
        "mem.mshr_merges",
        sum(&|s| s.mem.mshr_merges) as f64,
        "count",
    );
    let ns_access = l.mem_s * 1e9 / l.accesses.max(1) as f64;
    report.metric("mem.ns_per_access", ns_access, "ns");
    let demand = sum(&|s| {
        s.mem.l1_hits
            + s.mem.stream_hits
            + s.mem.mshr_merges
            + s.mem.l2_hits
            + s.mem.l3_hits
            + s.mem.mem_accesses
    });
    ratio(
        &mut report,
        "mem.est_share",
        demand as f64 * ns_access / 1e9,
        sim_s,
    );

    // Value prediction.
    let spawns = sum(&|s| s.vp.mtvp_spawns);
    report.metric("vp.spawns", spawns as f64, "count");
    ratio(
        &mut report,
        "vp.spawn_correct_frac",
        sum(&|s| s.vp.mtvp_correct) as f64,
        spawns as f64,
    );
    report.metric(
        "vp.reissued_uops",
        sum(&|s| s.vp.reissued_uops) as f64,
        "count",
    );
    report.metric(
        "vp.store_buffer_stalls",
        sum(&|s| s.vp.store_buffer_stalls) as f64,
        "count",
    );
    let ns_predict = l.vp_s * 1e9 / l.loads.max(1) as f64;
    report.metric("vp.ns_per_predict", ns_predict, "ns");
    let queries = sum(&|s| s.predictor.queries);
    ratio(
        &mut report,
        "vp.est_share",
        queries as f64 * ns_predict / 1e9,
        sim_s,
    );

    // Branch prediction: the simulated rate, and the host cost per call.
    ratio(
        &mut report,
        "branch.mispredict_frac",
        sum(&|s| s.branches.mispredicts) as f64,
        sum(&|s| s.branches.cond_committed) as f64,
    );
    report.metric(
        "branch.ns_per_predict",
        l.branch_s * 1e9 / l.branches.max(1) as f64,
        "ns",
    );
    report.detail(
        "branch.replay_mispredict_frac",
        num(l.branch_mispredicts as f64 / l.branches.max(1) as f64),
    );

    // Engine.
    report.metric("engine.cache_write_s", st("engine.cache_write"), "s");
    report.metric("engine.cache_read_s", st("engine.cache_read"), "s");
    report.metric("engine.json_s", st("engine.json"), "s");
    ratio(
        &mut report,
        "engine.sched_util",
        sim_s,
        l.pipeline_wall_s * ctx.jobs as f64,
    );

    // Sampling.
    report.metric("sampling.run_s", l.sampling_cold_s, "s");
    let windows: u64 = l.sampled.iter().map(|x| x.3.windows).sum();
    report.metric("sampling.windows", windows as f64, "count");
    let measured: u64 = l.sampled.iter().map(|x| x.3.measured_instrs).sum();
    let represented: u64 = l.sampled.iter().map(|x| x.4).sum();
    ratio(
        &mut report,
        "sampling.detailed_frac",
        measured as f64,
        represented as f64,
    );
    report.metric("sampling.ckpt_hits", l.ckpt_hits as f64, "count");
    report.metric("sampling.ckpt_misses", l.ckpt_misses as f64, "count");
    let sp = sampling_schedule(ctx);
    let ff: u64 = l
        .sampled
        .iter()
        .map(|x| {
            x.4.saturating_sub(x.3.measured_instrs + x.3.windows * sp.warmup)
        })
        .sum();
    let interp_s_needed = ff as f64 / (l.interp_instrs as f64 / l.interp_s);
    ratio(
        &mut report,
        "sampling.interp_share",
        interp_s_needed,
        l.sampling_cold_s,
    );
    let full: BTreeMap<(String, String), &PipeStats> = l
        .cells
        .iter()
        .map(|(c, s, _)| ((c.bench.to_string(), c.label.clone()), s))
        .collect();
    let pairs: Vec<(f64, f64)> = l
        .sampled
        .iter()
        .map(|(b, lab, est, _, _)| (full[&(b.to_string(), lab.clone())].ipc(), est.ipc()))
        .collect();
    report.ratio("sampling.ipc_err", ipc_err(&pairs));

    // Serve: the workload's traffic against the cells just cached.
    serve_probe(ctx, &inp, &dir, &mut report)?;

    report.metric("trace.overhead_s", traced_s - untraced_s, "s");
    report.detail("trace.untraced_s", num(untraced_s));
    report.detail("trace.traced_s", num(traced_s));
    report.detail("trace.spans", serde::Value::U64(on.spans().len() as u64));
    report.detail(
        "self_time_s",
        serde::Value::Map(self_t.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
    );
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.detail("ok_frac", num(ok));
    Ok((report, on))
}

fn ratio(report: &mut Report, name: &str, num: f64, den: f64) {
    let r = Ratio { num, den };
    report.metric(name, r.value(), "ratio");
    report.ratio(name, r);
}

/// `/metrics` counters the serve probe reads.
fn serve_counters(serve: &Serve) -> Result<(u64, u64, u64), String> {
    let v: serde::Value =
        serde_json::from_str(&serve.get("/metrics")?).map_err(|e| format!("/metrics: {e}"))?;
    let highwater = v
        .get("queue")
        .and_then(|q| q.get("highwater"))
        .and_then(serde::Value::as_u64)
        .unwrap_or(0);
    let reg = <Registry as serde::Deserialize>::from_value(
        v.get("registry").ok_or("/metrics lacks registry")?,
    )
    .map_err(|e| format!("/metrics registry: {e}"))?;
    Ok((
        highwater,
        reg.counter("serve.queue.rejected"),
        reg.counter("serve.coalesce.hits"),
    ))
}

fn serve_probe(
    ctx: &Ctx,
    inp: &Inputs,
    cache_dir: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut dyn_of = dyn_map(
        &crate::cells::prepare(&inp.benches, inp.scale, ctx.jobs, None),
        inp.scale,
    );
    if inp.cold_scale != inp.scale {
        dyn_of.extend(dyn_map(
            &crate::cells::prepare(&inp.benches, inp.cold_scale, ctx.jobs, None),
            inp.cold_scale,
        ));
    }
    let mut checker = Checker {
        dyn_of,
        expected: HashMap::new(),
    };
    let cold = cold_pool(&inp.benches, inp.cold_scale);
    let (mut serve, _) = Serve::start(&ctx.exe, cache_dir, ctx.jobs)?;
    let before = serve_counters(&serve)?;
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut cold = stratified(&cold, &mut rng).into_iter();
    let run = send_rung(
        &serve,
        (FIXED_RATE * inp.serve_s).round() as usize,
        FIXED_RATE,
        &inp.cells,
        &mut cold,
        ctx.jobs,
        &mut rng,
        &mut checker,
        report,
    );
    let after = serve_counters(&serve)?;
    serve.stop();
    let p50 = |k: Kind| {
        let xs = run.latencies(k);
        if xs.is_empty() {
            0.0
        } else {
            Timing::of(&xs).p50
        }
    };
    report.metric("serve.cached_p50_ms", p50(Kind::Cached), "ms");
    report.metric("serve.cold_p50_ms", p50(Kind::Cold), "ms");
    report.metric("serve.queue_highwater", after.0 as f64, "count");
    report.metric("serve.rejected", (after.1 - before.1) as f64, "count");
    report.metric("serve.coalesce_hits", (after.2 - before.2) as f64, "count");
    let lag = Timing::of(&run.lags());
    report.metric("loadgen.lag_ms", lag.tail, "ms");
    report.timing("loadgen.lag_ms", &lag);
    report.timing("serve.cached_ms", &Timing::of(&run.latencies(Kind::Cached)));
    if !run.latencies(Kind::Cold).is_empty() {
        report.timing("serve.cold_ms", &Timing::of(&run.latencies(Kind::Cold)));
    }
    Ok(())
}
