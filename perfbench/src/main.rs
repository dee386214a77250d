//! `perfbench` — the MTVP simulator's benchmark.
//!
//! ```text
//! perfbench --workload <figs-cold|sampled-ff> --seed N
//!           --seconds S --trace <0|1> [--slo-ms MS] [--smoke]
//! perfbench sim <mtvp-sim arguments...>
//! perfbench setup <tiny|small|full> <cache-dir> <jobs> <bench>...
//! ```
//!
//! The first form runs one workload and prints every metric by name and
//! unit, then one JSON result line. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the traced per-layer probes instead. The
//! `sim` form is the `mtvp-sim` command line itself; the benchmark runs
//! it as a child process for `exp run` and `serve`. The `setup` form runs
//! engine phase 1 over the named benchmarks into a cache directory; the
//! benchmark times it as a child process for `setup_s`. See `README.md`.

mod calib;
mod cells;
mod e2e;
mod loadgen;
mod proc;
mod report;
mod servemix;
mod spans;
mod stats;
mod traced;

use e2e::Ctx;
use std::path::PathBuf;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["figs-cold", "sampled-ff"];

/// Run `f` as this process's whole job: print its output, then report
/// its run time and peak RSS on stderr for the parent to read.
fn child(f: impl FnOnce() -> Result<String, String>) -> ! {
    use std::io::Write as _;
    let t0 = std::time::Instant::now();
    let code = match f() {
        Ok(out) => {
            print!("{out}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    let _ = std::io::stdout().flush();
    eprintln!("{} {}", proc::TIME_TAG, t0.elapsed().as_secs_f64());
    if let Some(kb) = proc::vmhwm_kb("self") {
        eprintln!("{} {kb}", proc::RSS_TAG);
    }
    std::process::exit(code)
}

/// Engine phase 1 over `<scale> <cache-dir> <jobs> <bench>...`.
fn setup(args: &[String]) -> Result<String, String> {
    let [scale, dir, jobs, benches @ ..] = args else {
        return Err("setup needs <scale> <cache-dir> <jobs> <bench>...".to_string());
    };
    let scale = mtvp_engine::parse_scale(scale).map_err(|e| e.0)?;
    let jobs: usize = jobs.parse().map_err(|_| format!("bad jobs {jobs}"))?;
    let known: Vec<&'static str> = mtvp_engine::suite()
        .into_iter()
        .map(|w| w.name)
        .filter(|n| benches.iter().any(|b| b == n))
        .collect();
    if known.len() != benches.len() {
        return Err(format!("unknown benchmark in {benches:?}"));
    }
    let cache = mtvp_engine::Cache::new(dir);
    let prepared = cells::prepare(&known, scale, jobs, Some(&cache));
    let total: u64 = prepared.iter().map(|p| p.dyn_instrs).sum();
    Ok(format!("{total}\n"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slo_ms: f64,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        slo_ms: 500.0,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?,
            "--trace" => a.trace = v == "1",
            "--slo-ms" => a.slo_ms = v.parse().map_err(|_| format!("bad --slo-ms {v}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sim") => child(|| {
            mtvp_cli::Command::parse(&args[1..])
                .map_err(|e| e.to_string())?
                .execute()
                .map_err(|e| e.to_string())
        }),
        Some("setup") => child(|| setup(&args[1..])),
        _ => {}
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench-out");
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        exe: std::env::current_exe().expect("own executable path"),
        work: PathBuf::from(".perfbench-work").join(format!(
            "{}-{}",
            a.workload,
            std::process::id()
        )),
        smoke: a.smoke,
        slo_ms: a.slo_ms,
    };
    let result = if a.trace {
        traced::run(&ctx, &a.workload).map(|(r, spans)| (r, Some(spans)))
    } else {
        e2e::sweep(&ctx, &a.workload).map(|r| (r, None))
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let (report, spans) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let _ = std::fs::create_dir_all(&out_dir);
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), report.to_json());
    if let Some(spans) = &spans {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.spans.jsonl")),
            spans.to_json_lines(),
        );
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{} seed {} on {} threads ({})",
        a.workload,
        a.seed,
        ctx.jobs,
        if a.trace { "traced" } else { "untraced" }
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &report.detail {
        println!("  [{k}] {v}");
    }
    println!(
        "  details: {}",
        out_dir.join(format!("{stem}.json")).display()
    );
    println!("{}", report.result_line());
}
