//! # mtvp-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! *Multithreaded Value Prediction* (Tuck & Tullsen, HPCA-11 2005).
//!
//! Each figure has a binary (`fig1` … `fig6`, `table1`, `storebuf`,
//! `multivalue`) that prints the same rows/series the paper reports.
//! The figure binaries are thin wrappers over the named built-in
//! scenarios in `mtvp-engine` — the same experiments `mtvp-sim exp run`
//! drives — so their cells come from (and land in) the shared results
//! cache and re-runs are incremental. Binaries accept an optional
//! `--scale tiny|small|full` argument (default `small`; the numbers in
//! EXPERIMENTS.md use `full`) plus the engine's `--jobs N` and
//! `--no-cache` flags.

use mtvp_engine::{builtin, Engine, EngineOptions, Scenario, Sweep};
use mtvp_workloads::Scale;

/// Parse `--scale` from argv (default Small).
pub fn scale_from_args() -> Scale {
    scale_opt_from_args().unwrap_or(Scale::Small)
}

/// Parse `--scale` from argv, `None` when absent (so a scenario's own
/// default scale can apply).
pub fn scale_opt_from_args() -> Option<Scale> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--scale")?;
    let v = args.get(i + 1).map_or("", String::as_str);
    Some(mtvp_engine::parse_scale(v).unwrap_or_else(|e| panic!("--scale: {e}")))
}

/// The engine every figure binary runs on: disk cache (honouring
/// `$MTVP_CACHE_DIR`) unless `--no-cache` is given, `--jobs N` respected,
/// live progress on stderr.
pub fn engine_from_args() -> Engine {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args.iter().position(|a| a == "--jobs").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("--jobs needs a positive integer"))
    });
    let mut opts = EngineOptions {
        jobs,
        progress: true,
        ..EngineOptions::default()
    };
    if args.iter().any(|a| a == "--no-cache") {
        opts.cache = mtvp_engine::CacheMode::Off;
    }
    Engine::new(opts)
}

/// Run a named built-in scenario under the argv-configured engine and
/// scale, printing the cache summary. The workhorse of the figure
/// binaries.
pub fn run_builtin(name: &str) -> (Scenario, Sweep) {
    let scenario = builtin(name).unwrap_or_else(|| panic!("no built-in scenario `{name}`"));
    let report = engine_from_args()
        .run_scenario(&scenario, scale_opt_from_args())
        .unwrap_or_else(|e| panic!("scenario {name}: {e}"));
    println!("[{name}] {}", report.summary());
    (scenario, report.sweep)
}

/// Print a per-benchmark percent-speedup table in the paper's layout:
/// integer benchmarks, then FP, each followed by its geometric mean.
pub fn print_speedup_table(title: &str, sweep: &Sweep, configs: &[&str], baseline: &str) {
    print!(
        "{}",
        mtvp_engine::render_speedup_table(title, sweep, configs, baseline)
    );
}

/// Write the sweep's raw JSON next to the binary output for bookkeeping.
pub fn dump_json(name: &str, sweep: &Sweep) {
    let path = format!("target/{name}.json");
    let json = match sweep.to_json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("[warn] cannot serialize {name} sweep: {e}");
            return;
        }
    };
    if std::fs::write(&path, json).is_ok() {
        println!("\n[raw data written to {path}]");
    }
}
