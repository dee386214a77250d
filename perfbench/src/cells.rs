//! The benchmark's inputs: scenario files kept next to this package,
//! the cells they expand to, and engine phase 1 (programs, reference
//! traces) run through the engine's public functions.

use mtvp_engine::{
    key::trace_descriptor, key_of, reference_trace, suite, Cache, CoreKind, Scale, Scenario,
    Scheduler, SimConfig, SpawnPolicyKind, Workload,
};
use mtvp_isa::trace::Trace;
use mtvp_isa::Program;
use std::path::PathBuf;
use std::sync::Arc;

/// Path of a scenario file shipped with the benchmark.
pub fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
}

/// Load a scenario file shipped with the benchmark.
///
/// # Panics
/// Panics if the file is missing or malformed: the benchmark's own
/// inputs are part of its build.
pub fn scenario(name: &str) -> Scenario {
    let path = scenario_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Benchmarks a scenario keeps, in suite order (the engine's order).
pub fn benches_of(sc: &Scenario) -> Vec<&'static str> {
    suite()
        .into_iter()
        .filter(|w| sc.keeps(w))
        .map(|w| w.name)
        .collect()
}

/// One (benchmark × configuration × scale) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Configuration label.
    pub label: String,
    /// Build scale.
    pub scale: Scale,
    /// Configuration.
    pub config: SimConfig,
}

impl Cell {
    /// The machine shape the engine dispatches this cell to.
    pub fn shape(&self) -> &'static str {
        if self.config.cores > 1 {
            "cmp"
        } else if self.config.core == CoreKind::InOrderScalar {
            "inorder"
        } else if self.config.spawn_policy == SpawnPolicyKind::Static {
            "static"
        } else {
            "ooo"
        }
    }

    /// The `POST /run` body for this cell (the full configuration, so the
    /// server derives the same cache key as `exp run`).
    pub fn run_body(&self) -> String {
        let scale = format!("{:?}", self.scale).to_lowercase();
        format!(
            "{{\"bench\": {:?}, \"scale\": {:?}, \"config\": {}}}",
            self.bench,
            scale,
            serde_json::to_string(&self.config).expect("config serializes")
        )
    }
}

/// Every cell of `configs` over `benches`, benchmark-major.
pub fn cells(benches: &[&'static str], configs: &[(String, SimConfig)], scale: Scale) -> Vec<Cell> {
    let mut out = Vec::new();
    for &bench in benches {
        for (label, config) in configs {
            out.push(Cell {
                bench,
                label: label.clone(),
                scale,
                config: config.clone(),
            });
        }
    }
    out
}

/// A benchmark after engine phase 1.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// Benchmark name.
    pub bench: &'static str,
    /// The built program.
    pub program: Program,
    /// Dynamic instructions on the committed path.
    pub dyn_instrs: u64,
    /// The committed-path reference trace.
    pub trace: Arc<Trace>,
}

/// The engine's relative cost of a benchmark at `scale` with `contexts`
/// hardware contexts, by which its scheduler orders jobs longest first.
/// The engine keeps this function private; this is the same formula.
pub fn workload_cost(wl: &Workload, scale: Scale, contexts: u64) -> u64 {
    let iters = wl.params.iters.max(1) * scale.iter_factor();
    let work = 1 + u64::from(
        wl.params.alu_work + wl.params.fp_work + wl.params.stream_words + wl.params.noise_loads,
    );
    iters * work * (1 + contexts)
}

/// Engine phase 1 as `Engine::run_cells` runs it on a cold cache: on
/// `jobs` threads, longest benchmark first, build each program, run its
/// reference trace and, when `cache` is given, store the trace there.
/// Spawn hints are not part of phase 1: the engine computes them per
/// static-policy cell in phase 2, when it lowers the configuration.
pub fn prepare(
    benches: &[&'static str],
    scale: Scale,
    jobs: usize,
    cache: Option<&Cache>,
) -> Vec<Prepared> {
    let all: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| benches.contains(&w.name))
        .collect();
    Scheduler::with_jobs_cap(Some(jobs)).run(
        &all,
        |wl| workload_cost(wl, scale, 1),
        |wl| {
            let program = wl.build(scale);
            let (dyn_instrs, trace) = reference_trace(&program);
            if let Some(c) = cache {
                let descriptor = trace_descriptor(wl.name, scale);
                let _ = c.store_trace(&key_of(&descriptor), &descriptor, dyn_instrs, &trace);
            }
            Prepared {
                bench: wl.name,
                program,
                dyn_instrs,
                trace,
            }
        },
        |_, _| {},
    )
}

/// Mtvp cells of `benches` at `scale` that no scenario shipped with the
/// benchmark runs: every spawn latency in `1..=40` but the default 8, at
/// 2, 4 and 8 contexts. Cold `/run` requests draw from these.
pub fn cold_pool(benches: &[&'static str], scale: Scale) -> Vec<Cell> {
    let mut out = Vec::new();
    for &bench in benches {
        for contexts in [2usize, 4, 8] {
            for latency in (1..=40u64).filter(|&l| l != 8) {
                let mut config = SimConfig::new(mtvp_engine::Mode::Mtvp);
                config.contexts = contexts;
                config.spawn_latency = latency;
                out.push(Cell {
                    bench,
                    label: format!("mtvp{contexts}@{latency}"),
                    scale,
                    config,
                });
            }
        }
    }
    out
}

/// A stable digest of JSON text (the engine's content hash).
pub fn digest(text: &str) -> String {
    mtvp_engine::key_of(text).hex().to_string()
}
