//! The untraced runs: each workload's end-to-end metrics, measured the
//! way a user meets them (the `mtvp-sim` command line and the `serve`
//! HTTP service, as child processes), with every output checked.

use crate::calib::Calib;
use crate::cells::{
    benches_of, cells, cold_pool, digest, prepare, scenario, scenario_path, Cell, Prepared,
};
use crate::proc::{run_child, Serve};
use crate::report::{num, Report};
use crate::servemix::{ladder, report_ladder, Checker, Mix};
use crate::stats::{ipc_err, median};
use mtvp_engine::{
    key::scale_tag, run_sampled, CacheMode, CoreKind, Engine, EngineOptions, PipeStats,
    SamplingParams, Scale, Scenario, SimConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Threads and connections (the host's available parallelism).
    pub jobs: usize,
    /// This executable (children run its `sim` subcommand).
    pub exe: PathBuf,
    /// Scratch directory for caches and reports.
    pub work: PathBuf,
    /// Smallest-size run: tiny scale, short phases.
    pub smoke: bool,
    /// Latency limit on the tail percentile for `max_rps_slo`, in ms.
    pub slo_ms: f64,
}

/// Engine phase 1 runs per repetition of a sweep workload, each a child
/// process on a fresh cache, so that `setup_s` is a median over samples
/// spread across the whole run.
const SETUP_PER_REP: usize = 3;

/// Warm re-runs per repetition of a cell-cached sweep; the repetition
/// keeps their mean. One re-run takes about 10 ms and its time is
/// bimodal on a shared host, so a single one reads one mode or the other.
const WARM_PER_REP: usize = 5;

impl Ctx {
    /// The scale to build at: `normal`, or tiny in a smoke run.
    pub fn scale(&self, normal: Scale) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            normal
        }
    }

    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.work.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch directory");
        d
    }

    /// Repetitions of a set-up measurement: `n`, or one in a smoke run.
    pub fn reps(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }
}

/// The sampling schedule of smallest-size runs: short enough that tiny
/// programs still hold windows.
pub const SMOKE_SAMPLING: SamplingParams = SamplingParams {
    window: 200,
    interval: 1_000,
    warmup: 100,
};

/// The sampling schedule every sampled measurement uses: the one in the
/// `sampled-ff` scenario file ([`SMOKE_SAMPLING`] at smallest size).
pub fn sampling_schedule(ctx: &Ctx) -> SamplingParams {
    if ctx.smoke {
        return SMOKE_SAMPLING;
    }
    scenario("sampled-ff").grids[0]
        .sampling
        .expect("sampled-ff grids are sampled")
}

/// Committed-path instruction counts per (bench, scale tag).
pub fn dyn_map(prepared: &[Prepared], scale: Scale) -> HashMap<(String, String), u64> {
    prepared
        .iter()
        .map(|p| {
            (
                (p.bench.to_string(), scale_tag(scale).to_string()),
                p.dyn_instrs,
            )
        })
        .collect()
}

/// One timed engine phase 1 over `benches` at `scale` on a fresh cache,
/// in a child process (as `exp run` pays it: a fresh process that
/// builds, traces and stores). Returns its seconds.
fn setup_sample(ctx: &Ctx, benches: &[&'static str], scale: Scale) -> Result<f64, String> {
    let dir = ctx.fresh_dir("setup-cache");
    let mut args = vec![
        scale_tag(scale).to_string(),
        dir.display().to_string(),
        ctx.jobs.to_string(),
    ];
    args.extend(benches.iter().map(|b| b.to_string()));
    Ok(run_child(&ctx.exe, "setup", &args)?.run_s)
}

/// The `sweep` cells of an `exp run --json-out` report.
struct SweepOut {
    cells: Vec<(String, String, PipeStats)>,
    digest: String,
    cache_hits: u64,
    simulated: u64,
}

fn parse_report(path: &Path) -> Result<SweepOut, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("report JSON: {e}"))?;
    let sweep = v.get("sweep").ok_or("report lacks `sweep`")?;
    let mut cells = Vec::new();
    for c in sweep
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("sweep lacks `cells`")?
    {
        let s = |k: &str| {
            c.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let stats: PipeStats = serde::Deserialize::from_value(c.get("stats").ok_or("no stats")?)
            .map_err(|e| format!("cell stats: {e}"))?;
        cells.push((s("bench"), s("config"), stats));
    }
    let count = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    Ok(SweepOut {
        cells,
        digest: digest(&sweep.to_string()),
        cache_hits: count("cache_hits"),
        simulated: count("simulated"),
    })
}

/// Check one sweep: every cell's committed count equals the reference
/// interpreter's, and the sweep equals the first one seen. Each cell is
/// one operation. Returns committed instructions over all cells.
fn check_sweep(
    report: &mut Report,
    what: &str,
    sweep: &SweepOut,
    dyn_of: &HashMap<&str, u64>,
    expect_cells: usize,
    first_digest: &mut Option<String>,
) -> u64 {
    report.check(sweep.cells.len() == expect_cells, || {
        format!(
            "{what}: {} cells, expected {expect_cells}",
            sweep.cells.len()
        )
    });
    let mut committed = 0;
    for (bench, label, stats) in &sweep.cells {
        let want = dyn_of.get(bench.as_str()).copied();
        report.op(Some(stats.committed) == want, || {
            format!(
                "{what} {bench}/{label}: committed {} != reference {want:?}",
                stats.committed
            )
        });
        committed += stats.committed;
    }
    match first_digest {
        Some(d) => report.check(*d == sweep.digest, || {
            format!("{what}: sweep JSON digest {} != {d}", sweep.digest)
        }),
        None => *first_digest = Some(sweep.digest.clone()),
    }
    committed
}

/// `exp run` arguments for a scenario file over a cache directory.
fn exp_args(ctx: &Ctx, name: &str, cache: &Path, json_out: &Path) -> Vec<String> {
    let mut a = vec![
        "exp".to_string(),
        "run".to_string(),
        scenario_path(name).display().to_string(),
        "--cache-dir".to_string(),
        cache.display().to_string(),
        "--jobs".to_string(),
        ctx.jobs.to_string(),
        "--json-out".to_string(),
        json_out.display().to_string(),
    ];
    if ctx.smoke {
        a.extend(["--scale".to_string(), "tiny".to_string()]);
        if scenario(name).grids.iter().any(|g| g.sampling.is_some()) {
            let sp = SMOKE_SAMPLING;
            a.extend([
                "--sample".to_string(),
                format!("{}:{}:{}", sp.window, sp.interval, sp.warmup),
            ]);
        }
    }
    a
}

/// Mean relative IPC error of sampled estimates of `cells` against the
/// full-detail `full` statistics of the same cells.
fn sampled_error(
    ctx: &Ctx,
    report: &mut Report,
    cells: &[Cell],
    full: &HashMap<(String, String), PipeStats>,
    prepared: &[Prepared],
) {
    let sp = sampling_schedule(ctx);
    let mut pairs = Vec::new();
    for c in cells {
        let p = prepared
            .iter()
            .find(|p| p.bench == c.bench)
            .expect("prepared");
        let mut cfg = c.config.clone();
        cfg.sampling = Some(sp);
        let est = run_sampled(&cfg, &p.program, p.dyn_instrs, &p.trace, None).stats;
        let reference = &full[&(c.bench.to_string(), c.label.clone())];
        pairs.push((reference.ipc(), est.ipc()));
    }
    let r = ipc_err(&pairs);
    report.metric("ipc_err", r.value(), "ratio");
    report.ratio("ipc_err", r);
}

/// Cells sampling supports: single-core, out-of-order, dynamic policy.
fn samplable(c: &SimConfig) -> bool {
    c.cores == 1
        && c.core == CoreKind::OutOfOrder
        && c.spawn_policy == mtvp_engine::SpawnPolicyKind::Dynamic
}

/// Traffic of the sweep workloads' serve phase over `secs` seconds: the
/// sweep's own cells from the cache; one request in twelve a cold
/// small-scale cell, every third of those followed by a duplicate that
/// coalesces with it; latency at 120 requests per second (a thousand
/// requests or more, so the tail is a true p99), then ladder climbs.
fn sweep_serve_mix(ctx: &Ctx, secs: f64) -> Mix {
    let secs = if ctx.smoke { 1.0 } else { secs };
    Mix {
        fixed_s: 0.3 * secs,
        climb_s: 0.7 * secs,
        rung_s: if ctx.smoke { 0.2 } else { 1.0 },
    }
}

/// A sweep workload (`figs-cold`, `sampled-ff`): a cold `exp run` of the
/// scenario file of that name, then warm re-runs (checkpoint-warm when
/// the scenario is sampled) and engine phase 1 on its own, repeated;
/// then the sweep's cells served from the cache.
pub fn sweep(ctx: &Ctx, name: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let sc: Scenario = scenario(name);
    let sampled = sc.grids.iter().any(|g| g.sampling.is_some());
    let scale = ctx.scale(sc.scale_or(None));
    let mut configs = sc.configs().map_err(|e| e.0)?;
    for (_, c) in &mut configs {
        if c.sampling.is_some() {
            c.sampling = Some(sampling_schedule(ctx));
        }
    }
    let benches = benches_of(&sc);
    let prepared = prepare(&benches, scale, ctx.jobs, None);
    let dyn_of: HashMap<&str, u64> = prepared.iter().map(|p| (p.bench, p.dyn_instrs)).collect();
    let sweep_cells = cells(&benches, &configs, scale);
    let n_cells = sweep_cells.len();

    // Full-detail statistics the sampled estimates are judged against.
    let full: HashMap<(String, String), PipeStats> = if sampled {
        let detailed: Vec<(String, SimConfig)> = configs
            .iter()
            .map(|(l, c)| {
                let mut c = c.clone();
                c.sampling = None;
                (l.clone(), c)
            })
            .collect();
        let engine = Engine::new(EngineOptions {
            cache: CacheMode::Off,
            jobs: Some(ctx.jobs),
            shard: None,
            progress: false,
        });
        engine
            .run_cells(&detailed, scale, |w| sc.keeps(w))
            .sweep
            .cells
            .into_iter()
            .map(|c| ((c.bench, c.config), c.stats))
            .collect()
    } else {
        HashMap::new()
    };

    let reports = ctx.fresh_dir("reports");
    let budget = ctx.seconds * 0.4;
    let t_loop = Instant::now();
    let (mut mips, mut warm, mut rss, mut setup) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = None;
    let mut cache = PathBuf::new();
    let mut last_cold = None;
    let min_reps = if ctx.smoke { 1 } else { 3 };
    let mut calib = Calib::new(ctx.jobs, ctx.smoke);
    while mips.len() < min_reps || t_loop.elapsed().as_secs_f64() < budget {
        for _ in 0..ctx.reps(SETUP_PER_REP) {
            calib.sample();
            setup.push(setup_sample(ctx, &benches, scale)?);
        }
        cache = ctx.fresh_dir("cache");
        let rep = repetition(ctx, name, sampled, &cache, &reports);
        let Ok((cold_wall, cold_rss, warm_wall, c, w)) = rep else {
            // A child that failed (a panicked cell, say) fails every cell
            // of its sweep.
            let e = rep.err().unwrap_or_default();
            for _ in 0..n_cells {
                report.op(false, || e.clone());
            }
            if t_loop.elapsed().as_secs_f64() > 2.0 * ctx.seconds {
                return Err(format!("{name}: no repetition succeeded: {e}"));
            }
            continue;
        };
        report.check(c.cache_hits == 0 && c.simulated == n_cells as u64, || {
            format!("{name}: cold run had {} cache hits", c.cache_hits)
        });
        let warm_ok = if sampled {
            w.simulated == n_cells as u64
        } else {
            w.cache_hits == n_cells as u64
        };
        report.check(warm_ok, || {
            format!("{name}: warm run hit {} cells", w.cache_hits)
        });
        let committed = check_sweep(&mut report, "cold", &c, &dyn_of, n_cells, &mut first_digest);
        check_sweep(&mut report, "warm", &w, &dyn_of, n_cells, &mut first_digest);
        mips.push(committed as f64 / cold_wall / 1e6);
        warm.push(warm_wall);
        rss.push(cold_rss);
        last_cold = Some(c);
    }
    let c = last_cold.expect("at least one repetition");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.detail("repetitions", Value::U64(mips.len() as u64));
    for (k, xs) in [
        ("setup_s_samples", &setup),
        ("committed_mips_samples", &mips),
        ("warm_s_samples", &warm),
    ] {
        report.detail(k, Value::Seq(xs.iter().map(|&m| num(m)).collect()));
    }
    report.detail(
        "sweep_digest",
        Value::Str(first_digest.clone().unwrap_or_default()),
    );

    // Accuracy of the sampled tier on this workload's cells.
    if sampled {
        let pairs: Vec<(f64, f64)> = c
            .cells
            .iter()
            .map(|(b, l, est)| (full[&(b.clone(), l.clone())].ipc(), est.ipc()))
            .collect();
        let r = ipc_err(&pairs);
        report.metric("ipc_err", r.value(), "ratio");
        report.ratio("ipc_err", r);
    } else {
        let full: HashMap<(String, String), PipeStats> = c
            .cells
            .iter()
            .map(|(b, l, s)| ((b.clone(), l.clone()), s.clone()))
            .collect();
        let samplable_cells: Vec<Cell> = sweep_cells
            .iter()
            .filter(|c| samplable(&c.config))
            .cloned()
            .collect();
        sampled_error(ctx, &mut report, &samplable_cells, &full, &prepared);
    }

    // The same cells, asked of the server over the warm cache; every
    // response must carry exactly the statistics the sweep reported.
    let serve_secs = ctx.seconds - t_loop.elapsed().as_secs_f64().min(budget);
    let cold_scale = ctx.scale(Scale::Small);
    let mut dyn_of = dyn_map(&prepared, scale);
    dyn_of.extend(dyn_map(
        &prepare(&benches, cold_scale, ctx.jobs, None),
        cold_scale,
    ));
    let mut checker = Checker {
        dyn_of,
        expected: HashMap::new(),
    };
    for cell in &sweep_cells {
        if let Some((_, _, stats)) = c
            .cells
            .iter()
            .find(|(b, l, _)| b == cell.bench && *l == cell.label)
        {
            let v = serde_json::to_value(stats);
            checker
                .expected
                .insert(cell.run_body(), (digest(&v.to_string()), v));
        }
    }
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let runs = ladder(
        &|| Serve::start(&ctx.exe, &cache, ctx.jobs).map(|(s, _)| s),
        &sweep_serve_mix(ctx, serve_secs),
        &sweep_cells,
        &cold_pool(&benches, cold_scale),
        ctx.jobs,
        ctx.slo_ms,
        &mut rng,
        &mut checker,
        &mut report,
    )?;

    // Host times at the reference host speed, by the calibration taken
    // between the sweeps (see `calib`).
    let f = calib.factor();
    report.host_metric("setup_s", median(&setup), "s", f);
    report.host_metric("committed_mips", median(&mips), "MIPS", f);
    report.host_metric("warm_s", median(&warm), "s", f);
    report_ladder(&mut report, &runs, ctx.slo_ms, f);
    report_calib(&mut report, &calib, f);
    finish(&mut report);
    Ok(report)
}

/// One repetition: a cold `exp run` into the empty `cache`, then the warm
/// re-run (checkpoint-warm for a sampled scenario, whose cell entries are
/// removed first). Returns the cold run's seconds and peak RSS, the warm
/// run's seconds and both reports.
fn repetition(
    ctx: &Ctx,
    name: &str,
    sampled: bool,
    cache: &Path,
    reports: &Path,
) -> Result<(f64, f64, f64, SweepOut, SweepOut), String> {
    let (cold_json, warm_json) = (reports.join("cold.json"), reports.join("warm.json"));
    let cold = run_child(&ctx.exe, "sim", &exp_args(ctx, name, cache, &cold_json))?;
    if sampled {
        // Keep checkpoints and traces; drop the cells so the re-run
        // simulates again, now checkpoint-warm.
        remove_cells(cache)?;
    }
    let times = if sampled { 1 } else { WARM_PER_REP };
    let mut walls = Vec::new();
    for _ in 0..times {
        walls.push(run_child(&ctx.exe, "sim", &exp_args(ctx, name, cache, &warm_json))?.run_s);
    }
    Ok((
        cold.run_s,
        cold.peak_rss_mb,
        walls.iter().sum::<f64>() / walls.len() as f64,
        parse_report(&cold_json)?,
        parse_report(&warm_json)?,
    ))
}

/// Remove the cell entries (`<32 hex>.json`) from a cache directory,
/// keeping traces and checkpoints.
fn remove_cells(cache: &Path) -> Result<(), String> {
    for e in std::fs::read_dir(cache).map_err(|e| e.to_string())? {
        let p = e.map_err(|e| e.to_string())?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if let Some(stem) = name.strip_suffix(".json") {
            if stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                std::fs::remove_file(&p).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// The calibration behind a run's host factor `f`.
fn report_calib(report: &mut Report, calib: &Calib, f: f64) {
    report.detail(
        "calib_s_samples",
        Value::Seq(calib.samples().iter().map(|&t| num(t)).collect()),
    );
    report.detail("host_factor", num(f));
}

/// The failure share every workload reports, as its complement so that
/// it is never 0.
fn finish(report: &mut Report) {
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("ok_frac", ok, "ratio");
}
