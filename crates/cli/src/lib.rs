//! Argument parsing and command implementations for the `mtvp-sim` CLI.
//!
//! Hand-rolled parsing (the workspace deliberately keeps its dependency
//! set to the simulation essentials). See [`Command::parse`] for the
//! grammar and `mtvp-sim help` for user documentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mtvp_engine::{
    builtin, builtin_scenarios, chrome_trace, lint_program_cached, pipeview, reference_trace,
    render_speedup_table, run_program, run_program_at, run_program_traced, run_sampled, suite,
    Cache, CacheMode, CkptStore, Engine, EngineOptions, Mode, RunReport, SamplingParams, Scale,
    Scenario, SimConfig, TraceOptions,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Tracing options parsed from `--trace[=N]`, `--trace-out` and
/// `--trace-window` (see [`Command::parse`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Ring capacity: the newest `ring` events are retained.
    pub ring: usize,
    /// Where to write the Chrome trace-event JSON (`None`: don't write).
    pub out: Option<String>,
    /// Cycle window `[start, end)` restricting ring retention.
    pub window: Option<(u64, u64)>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            ring: 1 << 20,
            out: None,
            window: None,
        }
    }
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `list` — print the workload registry.
    List,
    /// `run <bench> [options]` — simulate one workload under one config.
    Run {
        /// Benchmark name.
        bench: String,
        /// Machine configuration.
        config: SimConfig,
        /// Build scale.
        scale: Scale,
        /// Emit JSON instead of text.
        json: bool,
        /// Lifecycle tracing, when requested with `--trace`.
        trace: Option<TraceSpec>,
        /// `--no-cache` — don't read or write sampling checkpoints.
        no_cache: bool,
        /// `--cache-dir DIR` checkpoint-store override (sampled runs).
        cache_dir: Option<String>,
    },
    /// `trace <bench> [options]` — simulate with tracing and render a
    /// textual pipeline view (gem5 O3-pipeview style).
    Trace {
        /// Benchmark name.
        bench: String,
        /// Machine configuration.
        config: SimConfig,
        /// Build scale.
        scale: Scale,
        /// Ring/window/output options.
        spec: TraceSpec,
        /// Maximum uop rows in the pipeview rendering.
        rows: usize,
    },
    /// `compare <bench> [--scale s]` — run every mode on one workload.
    Compare {
        /// Benchmark name.
        bench: String,
        /// Build scale.
        scale: Scale,
    },
    /// `disasm <bench> [--limit n]` — print a kernel's assembly.
    Disasm {
        /// Benchmark name.
        bench: String,
        /// Maximum instructions to print.
        limit: usize,
    },
    /// `lint [--all | <bench>...]` — static dataflow/lint analysis over
    /// kernel programs, or (`--source`) the hot-path source lint.
    Lint {
        /// Benchmark names to lint (registry names, `matmul`,
        /// `histogram`, `string-search`, or `synth-<seed>`).
        benches: Vec<String>,
        /// `--all` — lint every registry workload plus the standalone
        /// kernels and a few synth seeds.
        all: bool,
        /// Build scale for registry workloads.
        scale: Scale,
        /// Emit JSON instead of text.
        json: bool,
        /// `--source` — run the hot-path source lint over
        /// `crates/pipeline/src` instead of analyzing programs.
        source: bool,
        /// `--spawn-hints` — emit the spawn-site analysis artifact
        /// (differentially validated) instead of the dataflow lint.
        spawn_hints: bool,
        /// `--no-cache` — ignore and don't write the lint cache.
        no_cache: bool,
        /// `--cache-dir DIR` override.
        cache_dir: Option<String>,
        /// `--root DIR` — repository root for `--source` (default `.`).
        root: Option<String>,
    },
    /// `exp <subcommand>` — the cached, resumable experiment engine.
    Exp(ExpCmd),
    /// `serve [options]` — run the multithreaded experiment HTTP service.
    Serve {
        /// `--addr HOST:PORT` listen address (default `127.0.0.1:8707`).
        addr: String,
        /// `--workers N` worker-thread override.
        workers: Option<usize>,
        /// `--queue-depth N` bounded-queue override.
        queue_depth: Option<usize>,
        /// `--no-cache` — simulate every request, persist nothing.
        no_cache: bool,
        /// `--cache-dir DIR` override (default `results/cache/`).
        cache_dir: Option<String>,
        /// `--request-timeout-ms N` default per-request deadline.
        request_timeout_ms: Option<u64>,
        /// `--peers a,b,c` — fetch warm cells from these peer workers
        /// before simulating (cluster cache peering; empty: disabled).
        peers: Vec<String>,
    },
    /// `cluster <subcommand>` — the distributed sweep fabric.
    Cluster(ClusterCmd),
    /// `help`.
    Help,
}

/// `cluster` subcommands (see [`Command::Cluster`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterCmd {
    /// `cluster coord <scenario> --workers a,b,c` — fan a scenario out
    /// to running `mtvp-sim serve` workers and merge the sweep.
    Coord {
        /// Built-in scenario name, or a path to a scenario JSON file.
        scenario: String,
        /// `--workers a,b,c` worker addresses (required).
        workers: Vec<String>,
        /// `--scale` override.
        scale: Option<Scale>,
        /// `--benches a,b,c` benchmark-subset override.
        benches: Option<Vec<String>>,
        /// `--timeout-ms N` per-cell deadline.
        timeout_ms: Option<u64>,
        /// `--retries N` attempts per cell before declaring a worker dead.
        retries: Option<u32>,
        /// `--backoff-ms N` base retry backoff.
        backoff_ms: Option<u64>,
        /// `--no-steal` — disable work stealing between worker queues.
        no_steal: bool,
        /// `--manifest FILE` — write a live progress manifest
        /// (`exp status --manifest` reads it).
        manifest: Option<String>,
        /// `--json` — print the machine-readable report to stdout.
        json: bool,
        /// `--json-out FILE` — also write the report JSON to a file.
        json_out: Option<String>,
    },
    /// `cluster bench` — boot 1..N local workers, measure cell
    /// throughput at each fleet size, and probe SLOs open-loop.
    Bench {
        /// Built-in scenario name or scenario JSON path (default `smoke`).
        scenario: String,
        /// `--fleets 1,2,4` fleet sizes to measure.
        fleets: Vec<usize>,
        /// `--scale` override.
        scale: Option<Scale>,
        /// `--benches a,b,c` benchmark-subset override.
        benches: Option<Vec<String>>,
        /// `--rate RPS` open-loop probe target rate (0 skips the probe).
        rate: f64,
        /// `--duration-ms N` open-loop probe duration.
        duration_ms: u64,
        /// `--json-out FILE` report path (default `BENCH_cluster.json`).
        json_out: String,
    },
}

/// `exp` subcommands (see [`Command::Exp`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ExpCmd {
    /// `exp list` — the built-in scenarios.
    List,
    /// `exp run <scenario>` — run a scenario through the engine.
    Run {
        /// Built-in scenario name, or a path to a scenario JSON file.
        scenario: String,
        /// `--scale` override (default: the scenario's own scale).
        scale: Option<Scale>,
        /// `--benches a,b,c` benchmark-subset override.
        benches: Option<Vec<String>>,
        /// `--jobs N` worker cap.
        jobs: Option<usize>,
        /// `--shard i/n` — run only this shard of the cells.
        shard: Option<(usize, usize)>,
        /// `--no-cache` — ignore and don't write `results/cache/`.
        no_cache: bool,
        /// `--cache-dir DIR` override.
        cache_dir: Option<String>,
        /// `--json` — print a machine-readable report to stdout.
        json: bool,
        /// `--json-out FILE` — also write the report JSON to a file.
        json_out: Option<String>,
        /// `--sample W:I:U` — run every configuration sampled (two-tier
        /// fast-forward + detailed windows), overriding the scenario.
        sample: Option<SamplingParams>,
    },
    /// `exp status [scenario]` — cached/total cells without running, or
    /// (`--manifest`) a cluster coordinator's live per-shard progress.
    Status {
        /// Scenario to inspect (`None`: all built-ins).
        scenario: Option<String>,
        /// `--scale` override.
        scale: Option<Scale>,
        /// `--cache-dir DIR` override.
        cache_dir: Option<String>,
        /// `--manifest FILE` — report a running (or finished) cluster
        /// coordinator's progress from its manifest instead.
        manifest: Option<String>,
    },
    /// `exp diff <a> <b>` — compare two scenarios' results cell by cell.
    Diff {
        /// First scenario.
        a: String,
        /// Second scenario.
        b: String,
        /// `--scale` override applied to both.
        scale: Option<Scale>,
        /// `--cache-dir DIR` override.
        cache_dir: Option<String>,
    },
}

/// Errors produced while parsing arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

fn parse_scale(s: &str) -> Result<Scale, ParseArgsError> {
    mtvp_engine::parse_scale(s).map_err(|e| ParseArgsError(e.0))
}

/// Positional value lookup for `--flag value` pairs.
fn get_flag<'a>(rest: &[&'a str], name: &str) -> Result<Option<&'a str>, ParseArgsError> {
    match rest.iter().position(|a| *a == name) {
        Some(i) => match rest.get(i + 1) {
            Some(v) => Ok(Some(*v)),
            None => Err(ParseArgsError(format!("{name} requires a value"))),
        },
        None => Ok(None),
    }
}

/// The flags `run` or `trace` handles itself, beside the knob table's.
struct OwnFlags {
    /// Flags followed by a value.
    values: &'static [&'static str],
    /// Flags without a value; one ending in `=` matches any argument it
    /// prefixes (`--trace=4096`).
    switches: &'static [&'static str],
}

const RUN_FLAGS: OwnFlags = OwnFlags {
    values: &["--scale", "--cache-dir", "--trace-out", "--trace-window"],
    switches: &[
        "--json",
        "--no-cache",
        "--trace",
        "--trace=",
        "--trace-window=",
    ],
};

const TRACE_FLAGS: OwnFlags = OwnFlags {
    values: &["--scale", "--rows", "--trace-out", "--trace-window"],
    switches: &["--trace", "--trace=", "--trace-window="],
};

/// Machine configuration for `run` and `trace`: every flag of the knob
/// table (`rest[0]` is the benchmark). The command's `own` flags are left
/// to the caller; any other argument is an error, so a misspelt flag
/// never silently simulates the default.
fn parse_sim_config(rest: &[&str], own: &OwnFlags) -> Result<(SimConfig, Scale), ParseArgsError> {
    let mut settings = Vec::new();
    let mut args = rest.iter().skip(1);
    let missing = |flag: &str| ParseArgsError(format!("{flag} requires a value"));
    while let Some(&arg) = args.next() {
        if let Some(knob) = mtvp_engine::knob_for_flag(arg) {
            let value = match knob.switch {
                Some(on) => on,
                None => args.next().ok_or_else(|| missing(arg))?,
            };
            settings.push((knob, arg.to_string(), serde::Value::Str(value.to_string())));
        } else if own.values.contains(&arg) {
            args.next().ok_or_else(|| missing(arg))?;
        } else if !own
            .switches
            .iter()
            .any(|s| arg == *s || (s.ends_with('=') && arg.starts_with(s)))
        {
            return Err(ParseArgsError(format!(
                "unknown argument `{arg}`; see `mtvp-sim help`"
            )));
        }
    }
    let config = SimConfig::from_knobs(&settings)
        .and_then(|c| c.validate().map(|()| c))
        .map_err(|e| ParseArgsError(e.0))?;
    let scale = parse_scale(get_flag(rest, "--scale")?.unwrap_or("small"))?;
    Ok((config, scale))
}

/// A `START:END` cycle window.
fn parse_trace_window(v: &str) -> Result<(u64, u64), ParseArgsError> {
    let Some((s, e)) = v.split_once(':') else {
        return Err(ParseArgsError(format!(
            "bad --trace-window `{v}` (expected START:END)"
        )));
    };
    let start: u64 = s
        .parse()
        .map_err(|_| ParseArgsError(format!("bad --trace-window start `{s}`")))?;
    let end: u64 = e
        .parse()
        .map_err(|_| ParseArgsError(format!("bad --trace-window end `{e}`")))?;
    if end <= start {
        return Err(ParseArgsError(format!(
            "empty --trace-window `{v}` (end must exceed start)"
        )));
    }
    Ok((start, end))
}

/// The `--trace[=N]`, `--trace-out FILE` and `--trace-window[=]S:E` flags.
/// `--trace-out`/`--trace-window` imply `--trace`. Returns `None` when no
/// tracing flag is present.
fn parse_trace_spec(rest: &[&str]) -> Result<Option<TraceSpec>, ParseArgsError> {
    let mut spec = TraceSpec::default();
    let mut enabled = false;
    for a in rest {
        if *a == "--trace" {
            enabled = true;
        } else if let Some(v) = a.strip_prefix("--trace=") {
            enabled = true;
            spec.ring = v
                .parse()
                .map_err(|_| ParseArgsError(format!("bad --trace ring size `{v}`")))?;
        } else if let Some(v) = a.strip_prefix("--trace-window=") {
            enabled = true;
            spec.window = Some(parse_trace_window(v)?);
        }
    }
    if let Some(v) = get_flag(rest, "--trace-window")? {
        enabled = true;
        spec.window = Some(parse_trace_window(v)?);
    }
    if let Some(v) = get_flag(rest, "--trace-out")? {
        enabled = true;
        spec.out = Some(v.to_string());
    }
    Ok(enabled.then_some(spec))
}

/// An `i/n` shard specification.
fn parse_shard(v: &str) -> Result<(usize, usize), ParseArgsError> {
    let Some((i, n)) = v.split_once('/') else {
        return Err(ParseArgsError(format!(
            "bad --shard `{v}` (expected i/n, e.g. 0/4)"
        )));
    };
    let i: usize = i
        .parse()
        .map_err(|_| ParseArgsError(format!("bad --shard index `{i}`")))?;
    let n: usize = n
        .parse()
        .map_err(|_| ParseArgsError(format!("bad --shard count `{n}`")))?;
    if n == 0 || i >= n {
        return Err(ParseArgsError(format!(
            "bad --shard `{v}` (need 0 <= i < n)"
        )));
    }
    Ok((i, n))
}

/// Flags shared by the `exp` subcommands.
fn parse_exp_common(rest: &[&str]) -> Result<(Option<Scale>, Option<String>), ParseArgsError> {
    let scale = match get_flag(rest, "--scale")? {
        Some(v) => Some(parse_scale(v)?),
        None => None,
    };
    let cache_dir = get_flag(rest, "--cache-dir")?.map(str::to_string);
    Ok((scale, cache_dir))
}

fn parse_exp(rest: &[&str]) -> Result<Command, ParseArgsError> {
    let sub = rest.first().copied().unwrap_or("list");
    let tail = &rest[1.min(rest.len())..];
    let positional = |n: usize| -> Option<String> {
        tail.iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--")
                    && (*i == 0 || {
                        let prev = tail[i - 1];
                        !matches!(
                            prev,
                            "--scale"
                                | "--benches"
                                | "--jobs"
                                | "--shard"
                                | "--cache-dir"
                                | "--json-out"
                                | "--sample"
                                | "--manifest"
                        )
                    })
            })
            .map(|(_, a)| a.to_string())
            .nth(n)
    };
    match sub {
        "list" => Ok(Command::Exp(ExpCmd::List)),
        "run" => {
            let scenario = positional(0)
                .ok_or_else(|| ParseArgsError("exp run requires a scenario name".into()))?;
            let (scale, cache_dir) = parse_exp_common(tail)?;
            let benches = get_flag(tail, "--benches")?
                .map(|v| v.split(',').map(|b| b.trim().to_string()).collect());
            let jobs = match get_flag(tail, "--jobs")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| ParseArgsError(format!("bad --jobs `{v}`")))?,
                ),
                None => None,
            };
            let shard = match get_flag(tail, "--shard")? {
                Some(v) => Some(parse_shard(v)?),
                None => None,
            };
            let sample = match get_flag(tail, "--sample")? {
                Some(v) => Some(SamplingParams::parse(v).map_err(|e| ParseArgsError(e.0))?),
                None => None,
            };
            Ok(Command::Exp(ExpCmd::Run {
                scenario,
                scale,
                benches,
                jobs,
                shard,
                no_cache: tail.contains(&"--no-cache"),
                cache_dir,
                json: tail.contains(&"--json"),
                json_out: get_flag(tail, "--json-out")?.map(str::to_string),
                sample,
            }))
        }
        "status" => {
            let (scale, cache_dir) = parse_exp_common(tail)?;
            Ok(Command::Exp(ExpCmd::Status {
                scenario: positional(0),
                scale,
                cache_dir,
                manifest: get_flag(tail, "--manifest")?.map(str::to_string),
            }))
        }
        "diff" => {
            let a = positional(0)
                .ok_or_else(|| ParseArgsError("exp diff requires two scenarios".into()))?;
            let b = positional(1)
                .ok_or_else(|| ParseArgsError("exp diff requires two scenarios".into()))?;
            let (scale, cache_dir) = parse_exp_common(tail)?;
            Ok(Command::Exp(ExpCmd::Diff {
                a,
                b,
                scale,
                cache_dir,
            }))
        }
        other => Err(ParseArgsError(format!(
            "unknown exp subcommand `{other}` (list|run|status|diff)"
        ))),
    }
}

/// A comma-separated list flag value.
fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_cluster(rest: &[&str]) -> Result<Command, ParseArgsError> {
    let sub = rest.first().copied().unwrap_or("");
    let tail = &rest[1.min(rest.len())..];
    let positional = |n: usize| -> Option<String> {
        tail.iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--")
                    && (*i == 0 || {
                        let prev = tail[i - 1];
                        !matches!(
                            prev,
                            "--workers"
                                | "--scale"
                                | "--benches"
                                | "--timeout-ms"
                                | "--retries"
                                | "--backoff-ms"
                                | "--manifest"
                                | "--json-out"
                                | "--fleets"
                                | "--rate"
                                | "--duration-ms"
                        )
                    })
            })
            .map(|(_, a)| a.to_string())
            .nth(n)
    };
    let scale = match get_flag(tail, "--scale")? {
        Some(v) => Some(parse_scale(v)?),
        None => None,
    };
    let benches = get_flag(tail, "--benches")?.map(split_list);
    let parse_u64 = |name: &str| -> Result<Option<u64>, ParseArgsError> {
        match get_flag(tail, name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ParseArgsError(format!("bad {name} `{v}`"))),
            None => Ok(None),
        }
    };
    match sub {
        "coord" => {
            let scenario = positional(0)
                .ok_or_else(|| ParseArgsError("cluster coord requires a scenario name".into()))?;
            let workers = get_flag(tail, "--workers")?
                .map(split_list)
                .filter(|w| !w.is_empty())
                .ok_or_else(|| ParseArgsError("cluster coord requires --workers a,b,c".into()))?;
            let retries = match get_flag(tail, "--retries")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| ParseArgsError(format!("bad --retries `{v}`")))?,
                ),
                None => None,
            };
            Ok(Command::Cluster(ClusterCmd::Coord {
                scenario,
                workers,
                scale,
                benches,
                timeout_ms: parse_u64("--timeout-ms")?,
                retries,
                backoff_ms: parse_u64("--backoff-ms")?,
                no_steal: tail.contains(&"--no-steal"),
                manifest: get_flag(tail, "--manifest")?.map(str::to_string),
                json: tail.contains(&"--json"),
                json_out: get_flag(tail, "--json-out")?.map(str::to_string),
            }))
        }
        "bench" => {
            let fleets = match get_flag(tail, "--fleets")? {
                Some(v) => {
                    let fleets: Vec<usize> = split_list(v)
                        .iter()
                        .map(|s| {
                            s.parse::<usize>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| ParseArgsError(format!("bad --fleets `{v}`")))
                        })
                        .collect::<Result<_, _>>()?;
                    if fleets.is_empty() {
                        return Err(ParseArgsError(format!("bad --fleets `{v}`")));
                    }
                    fleets
                }
                None => vec![1, 2, 4],
            };
            let rate = match get_flag(tail, "--rate")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| ParseArgsError(format!("bad --rate `{v}`")))?,
                None => 50.0,
            };
            Ok(Command::Cluster(ClusterCmd::Bench {
                scenario: positional(0).unwrap_or_else(|| "smoke".to_string()),
                fleets,
                scale,
                benches,
                rate,
                duration_ms: parse_u64("--duration-ms")?.unwrap_or(2_000),
                json_out: get_flag(tail, "--json-out")?
                    .unwrap_or("BENCH_cluster.json")
                    .to_string(),
            }))
        }
        other => Err(ParseArgsError(format!(
            "unknown cluster subcommand `{other}` (coord|bench)"
        ))),
    }
}

/// Resolve a scenario argument: a built-in name, else a JSON file path.
fn resolve_scenario(name: &str) -> Result<Scenario, ParseArgsError> {
    if let Some(s) = builtin(name) {
        return Ok(s);
    }
    if std::path::Path::new(name).is_file() {
        let text = std::fs::read_to_string(name)
            .map_err(|e| ParseArgsError(format!("cannot read scenario {name}: {e}")))?;
        return Scenario::from_json(&text).map_err(|e| ParseArgsError(format!("{name}: {e}")));
    }
    Err(ParseArgsError(format!(
        "unknown scenario `{name}` (not a built-in, not a file; see `exp list`)"
    )))
}

fn engine_with(
    no_cache: bool,
    cache_dir: Option<&str>,
    jobs: Option<usize>,
    shard: Option<(usize, usize)>,
    progress: bool,
) -> Engine {
    let cache = if no_cache {
        CacheMode::Off
    } else {
        CacheMode::Disk(
            cache_dir
                .map(PathBuf::from)
                .unwrap_or_else(mtvp_engine::Cache::default_dir),
        )
    };
    Engine::new(EngineOptions {
        cache,
        jobs,
        shard,
        progress,
    })
}

/// The labels reported against the baseline: the scenario's `series`, or
/// every non-baseline label.
fn series_labels(scenario: &Scenario, labels: &[String], baseline: &str) -> Vec<String> {
    if scenario.series.is_empty() {
        labels
            .iter()
            .filter(|l| l.as_str() != baseline)
            .cloned()
            .collect()
    } else {
        scenario.series.clone()
    }
}

fn report_json(scenario: &Scenario, report: &RunReport) -> serde_json::Value {
    serde_json::json!({
        "scenario": scenario.name.as_str(),
        "scale": format!("{:?}", report.scale).to_lowercase(),
        "total_cells": report.total_cells as u64,
        "cache_hits": report.cache_hits as u64,
        "simulated": report.simulated as u64,
        "skipped_by_shard": report.skipped_by_shard as u64,
        "traces_built": report.traces_built as u64,
        "traces_cached": report.traces_cached as u64,
        "elapsed_s": report.elapsed.as_secs_f64(),
        "sweep": report.sweep,
    })
}

fn execute_exp(cmd: ExpCmd) -> Result<String, ParseArgsError> {
    let mut out = String::new();
    match cmd {
        ExpCmd::List => {
            let _ = writeln!(out, "{:<12} {:<6} title", "name", "cells");
            for s in builtin_scenarios() {
                let n_configs = s.configs().map(|c| c.len()).unwrap_or(0);
                let n_benches = if s.benches.is_empty() {
                    suite().len()
                } else {
                    s.benches.len()
                };
                let _ = writeln!(
                    out,
                    "{:<12} {:<6} {}",
                    s.name,
                    n_configs * n_benches,
                    s.title
                );
            }
            let _ = writeln!(
                out,
                "\nrun one with `mtvp-sim exp run <name>` (or a path to a scenario JSON file)"
            );
        }
        ExpCmd::Run {
            scenario,
            scale,
            benches,
            jobs,
            shard,
            no_cache,
            cache_dir,
            json,
            json_out,
            sample,
        } => {
            let mut scenario = resolve_scenario(&scenario)?;
            if let Some(b) = benches {
                scenario.benches = b;
            }
            if let Some(sp) = sample {
                for grid in &mut scenario.grids {
                    grid.sampling = Some(sp);
                }
            }
            let engine = engine_with(no_cache, cache_dir.as_deref(), jobs, shard, !json);
            let report = engine
                .run_scenario(&scenario, scale)
                .map_err(|e| ParseArgsError(e.0))?;
            if let Some(path) = &json_out {
                let doc = report_json(&scenario, &report);
                std::fs::write(path, format!("{doc}"))
                    .map_err(|e| ParseArgsError(format!("cannot write {path}: {e}")))?;
            }
            if json {
                let _ = writeln!(out, "{}", report_json(&scenario, &report));
            } else {
                let _ = writeln!(out, "{}: {}", scenario.name, scenario.title);
                let _ = writeln!(out, "{}", report.summary());
                if let Some(baseline) = &scenario.baseline {
                    let labels: Vec<String> = report
                        .sweep
                        .cells
                        .iter()
                        .map(|c| c.config.clone())
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    let series = series_labels(&scenario, &labels, baseline);
                    let refs: Vec<&str> = series.iter().map(String::as_str).collect();
                    out.push_str(&render_speedup_table(
                        &scenario.title,
                        &report.sweep,
                        &refs,
                        baseline,
                    ));
                }
                if let Some(path) = &json_out {
                    let _ = writeln!(out, "\n[report JSON written to {path}]");
                }
            }
        }
        ExpCmd::Status {
            scenario,
            scale,
            cache_dir,
            manifest,
        } => {
            if let Some(path) = manifest {
                return manifest_status(&path);
            }
            let engine = engine_with(false, cache_dir.as_deref(), None, None, false);
            let scenarios = match scenario {
                Some(name) => vec![resolve_scenario(&name)?],
                None => builtin_scenarios(),
            };
            let _ = writeln!(
                out,
                "{:<12} {:<7} {:>7} {:>7}",
                "name", "scale", "cached", "total"
            );
            for s in scenarios {
                let st = engine.status(&s, scale).map_err(|e| ParseArgsError(e.0))?;
                let _ = writeln!(
                    out,
                    "{:<12} {:<7} {:>7} {:>7}",
                    st.name,
                    format!("{:?}", st.scale).to_lowercase(),
                    st.cached,
                    st.total_cells
                );
            }
        }
        ExpCmd::Diff {
            a,
            b,
            scale,
            cache_dir,
        } => {
            let sa = resolve_scenario(&a)?;
            let sb = resolve_scenario(&b)?;
            let engine = engine_with(false, cache_dir.as_deref(), None, None, true);
            let ra = engine
                .run_scenario(&sa, scale)
                .map_err(|e| ParseArgsError(e.0))?;
            let rb = engine
                .run_scenario(&sb, scale)
                .map_err(|e| ParseArgsError(e.0))?;
            let _ = writeln!(
                out,
                "diff {} vs {} at {:?}: {} vs {} cells",
                sa.name,
                sb.name,
                ra.scale,
                ra.sweep.cells.len(),
                rb.sweep.cells.len()
            );
            let mut common = 0usize;
            let mut differing = 0usize;
            for ca in &ra.sweep.cells {
                let Some(cb) = rb.sweep.cell(&ca.bench, &ca.config) else {
                    continue;
                };
                common += 1;
                if ca.stats != cb.stats {
                    differing += 1;
                    let _ = writeln!(
                        out,
                        "  {} / {:<12} ipc {:.4} -> {:.4} ({:+.1}%)",
                        ca.bench,
                        ca.config,
                        ca.stats.ipc(),
                        cb.stats.ipc(),
                        cb.stats.speedup_over(&ca.stats)
                    );
                }
            }
            let _ = writeln!(
                out,
                "{common} shared (bench, config) cells; {differing} differ, {} identical",
                common - differing
            );
            let only_a = ra.sweep.cells.len() - common;
            let only_b: usize = rb
                .sweep
                .cells
                .iter()
                .filter(|c| ra.sweep.cell(&c.bench, &c.config).is_none())
                .count();
            if only_a + only_b > 0 {
                let _ = writeln!(
                    out,
                    "{only_a} cells only in {}, {only_b} only in {}",
                    sa.name, sb.name
                );
            }
        }
    }
    Ok(out)
}

/// `serve`: bind, install SIGINT/SIGTERM handlers, and block in the
/// accept loop until a signal (or queue shutdown) triggers the graceful
/// drain. The startup banner goes to stderr immediately; the returned
/// string is the post-drain summary.
fn execute_serve(
    addr: String,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    no_cache: bool,
    cache_dir: Option<String>,
    request_timeout_ms: Option<u64>,
    peers: Vec<String>,
) -> Result<String, ParseArgsError> {
    let mut opts = mtvp_serve::ServeOptions {
        addr,
        peers,
        ..mtvp_serve::ServeOptions::default()
    };
    if let Some(n) = workers {
        opts.workers = n;
    }
    if let Some(n) = queue_depth {
        opts.queue_depth = n;
    }
    if let Some(ms) = request_timeout_ms {
        opts.request_timeout_ms = ms;
    }
    opts.cache = if no_cache {
        CacheMode::Off
    } else {
        CacheMode::Disk(
            cache_dir
                .map(PathBuf::from)
                .unwrap_or_else(Cache::default_dir),
        )
    };
    let server = mtvp_serve::Server::bind(opts.clone())
        .map_err(|e| ParseArgsError(format!("cannot serve on {}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| ParseArgsError(format!("no local address: {e}")))?;
    mtvp_serve::signal::install();
    eprintln!(
        "mtvp-serve listening on http://{addr} ({} workers, queue depth {}, cache {})",
        opts.workers,
        opts.queue_depth,
        match &opts.cache {
            CacheMode::Off => "off".to_string(),
            CacheMode::Disk(dir) => dir.display().to_string(),
        }
    );
    eprintln!(
        "endpoints: /health /scenarios /run /sweep /jobs/<id> /cache/stats \
         /cache/cell/<hash> /metrics"
    );
    if !opts.peers.is_empty() {
        eprintln!("cache peering with: {}", opts.peers.join(", "));
    }
    eprintln!("stop with SIGINT or SIGTERM for a graceful drain");
    let report = server
        .run()
        .map_err(|e| ParseArgsError(format!("serve failed: {e}")))?;
    Ok(format!(
        "drained: {} request(s) served, {} rejected under backpressure, \
         {} job(s), {} coalesce hit(s)\n",
        report.requests, report.rejected, report.jobs, report.coalesce_hits
    ))
}

/// `exp status --manifest`: render a cluster coordinator's progress
/// manifest as a per-shard table.
fn manifest_status(path: &str) -> Result<String, ParseArgsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseArgsError(format!("cannot read manifest {path}: {e}")))?;
    let v: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| ParseArgsError(format!("{path} is not valid JSON: {e}")))?;
    if v["format"].as_str() != Some(mtvp_cluster::MANIFEST_FORMAT) {
        return Err(ParseArgsError(format!(
            "{path} is not a cluster manifest (format `{}`, expected `{}`)",
            v["format"].as_str().unwrap_or("?"),
            mtvp_cluster::MANIFEST_FORMAT
        )));
    }
    let get = |k: &str| v[k].as_u64().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster sweep {} at {}: {}/{} cells done",
        v["scenario"].as_str().unwrap_or("?"),
        v["scale"].as_str().unwrap_or("?"),
        get("done"),
        get("total_cells"),
    );
    let _ = writeln!(
        out,
        "fabric: {} retr{}, {} re-shard(s) moving {} cell(s), {} steal(s)",
        get("retries"),
        if get("retries") == 1 { "y" } else { "ies" },
        get("reshards"),
        get("cells_resharded"),
        get("steals"),
    );
    let _ = writeln!(
        out,
        "{:<22} {:<6} {:>8} {:>6} {:>6} {:>8}",
        "worker", "state", "assigned", "done", "queued", "retries"
    );
    for w in v["workers"].as_array().map(Vec::as_slice).unwrap_or(&[]) {
        let wget = |k: &str| w[k].as_u64().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<22} {:<6} {:>8} {:>6} {:>6} {:>8}",
            w["addr"].as_str().unwrap_or("?"),
            if w["alive"].as_bool().unwrap_or(false) {
                "alive"
            } else {
                "dead"
            },
            wget("assigned"),
            wget("done"),
            wget("queued"),
            wget("retries"),
        );
    }
    Ok(out)
}

fn execute_cluster(cmd: ClusterCmd) -> Result<String, ParseArgsError> {
    let mut out = String::new();
    match cmd {
        ClusterCmd::Coord {
            scenario,
            workers,
            scale,
            benches,
            timeout_ms,
            retries,
            backoff_ms,
            no_steal,
            manifest,
            json,
            json_out,
        } => {
            let mut scenario = resolve_scenario(&scenario)?;
            if let Some(b) = benches {
                scenario.benches = b;
            }
            let mut opts = mtvp_cluster::CoordOptions {
                workers,
                scale,
                steal: !no_steal,
                manifest: manifest.map(PathBuf::from),
                ..mtvp_cluster::CoordOptions::default()
            };
            if let Some(ms) = timeout_ms {
                opts.timeout_ms = ms;
            }
            if let Some(n) = retries {
                opts.retries = n;
            }
            if let Some(ms) = backoff_ms {
                opts.backoff_ms = ms;
            }
            let report = mtvp_cluster::run_cluster(&scenario, &opts).map_err(ParseArgsError)?;
            let doc = mtvp_cluster::cluster_report_json(&report);
            if let Some(path) = &json_out {
                std::fs::write(path, format!("{doc}"))
                    .map_err(|e| ParseArgsError(format!("cannot write {path}: {e}")))?;
            }
            if json {
                let _ = writeln!(out, "{doc}");
            } else {
                let _ = writeln!(out, "{}: {}", scenario.name, scenario.title);
                let _ = writeln!(
                    out,
                    "{} cells over {} worker(s) in {:.2}s ({} from worker caches)",
                    report.total_cells,
                    report.workers.len(),
                    report.elapsed.as_secs_f64(),
                    report.worker_cached,
                );
                for w in &report.workers {
                    let _ = writeln!(
                        out,
                        "  {:<22} {:<6} {} assigned, {} done, {} retries",
                        w.addr,
                        if w.alive { "alive" } else { "dead" },
                        w.assigned,
                        w.done,
                        w.retries
                    );
                }
                if report.reshards > 0 || report.steals > 0 {
                    let _ = writeln!(
                        out,
                        "fabric: {} re-shard(s) moved {} cell(s), {} steal(s), {} retries",
                        report.reshards, report.cells_resharded, report.steals, report.retries
                    );
                }
                if let Some(path) = &json_out {
                    let _ = writeln!(out, "[report JSON written to {path}]");
                }
            }
        }
        ClusterCmd::Bench {
            scenario,
            fleets,
            scale,
            benches,
            rate,
            duration_ms,
            json_out,
        } => {
            let mut scenario = resolve_scenario(&scenario)?;
            if let Some(b) = benches {
                scenario.benches = b;
            }
            let opts = mtvp_cluster::ScalingOptions {
                scenario,
                scale,
                fleet_sizes: fleets,
                slo_rate: rate,
                slo_duration_ms: duration_ms,
                ..mtvp_cluster::ScalingOptions::default()
            };
            let doc = mtvp_cluster::scaling_bench(&opts).map_err(ParseArgsError)?;
            std::fs::write(&json_out, format!("{doc}"))
                .map_err(|e| ParseArgsError(format!("cannot write {json_out}: {e}")))?;
            let _ = writeln!(out, "{doc}");
            let _ = writeln!(out, "[bench JSON written to {json_out}]");
        }
    }
    Ok(out)
}

/// Resolve a lint target: a registry workload (built at `scale`), one of
/// the standalone kernels, or a `synth-<seed>` random program.
fn lint_build(name: &str, scale: Scale) -> Result<mtvp_isa::Program, ParseArgsError> {
    if let Some(w) = suite().into_iter().find(|w| w.name == name) {
        return Ok(w.build(scale));
    }
    match name {
        "matmul" => Ok(mtvp_workloads::kernels::matmul(6)),
        "histogram" => {
            let bytes: Vec<u8> = (0..256u32)
                .map(|i| (i.wrapping_mul(31) % 251) as u8)
                .collect();
            Ok(mtvp_workloads::kernels::histogram(&bytes))
        }
        "string-search" => Ok(mtvp_workloads::kernels::string_search(
            b"the quick brown fox jumps over the lazy dog; the fox won",
            b"fox",
        )),
        _ => name
            .strip_prefix("synth-")
            .and_then(|s| s.parse::<u64>().ok())
            .map(|seed| {
                mtvp_workloads::synth::random_program(
                    seed,
                    mtvp_workloads::synth::SynthParams::default(),
                )
            })
            .ok_or_else(|| {
                ParseArgsError(format!(
                    "unknown lint target `{name}`; use a registry benchmark (see \
                     `mtvp-sim list`), matmul, histogram, string-search, or synth-<seed>"
                ))
            }),
    }
}

/// The `lint --all` target set: every registry workload plus the
/// standalone kernels and a handful of synth-generator seeds.
fn lint_all_targets() -> Vec<String> {
    let mut names: Vec<String> = suite().into_iter().map(|w| w.name.to_string()).collect();
    names.extend(["matmul", "histogram", "string-search"].map(str::to_string));
    names.extend((1..=4).map(|s| format!("synth-{s}")));
    names
}

/// Per-rule counts of suppressed findings (`// hotlint: allow` escapes),
/// sorted by rule so the JSON is deterministic.
fn suppressed_by_rule(suppressed: &[mtvp_analysis::SourceDiag]) -> Vec<(String, u64)> {
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    for d in suppressed {
        *counts.entry(d.pattern.clone()).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// `lint --source`: the hot-path source lint over `crates/pipeline/src`.
fn execute_source_lint(root: Option<&str>, json: bool) -> Result<String, ParseArgsError> {
    let root = std::path::Path::new(root.unwrap_or("."));
    let (files, outcome) = mtvp_analysis::scan_pipeline(root)
        .map_err(|e| ParseArgsError(format!("source lint failed under {}: {e}", root.display())))?;
    if files == 0 {
        return Err(ParseArgsError(format!(
            "source lint found no .rs files under {}/crates/pipeline/src \
             (pass --root REPO_DIR when running outside the repository root)",
            root.display()
        )));
    }
    let suppressed: Vec<serde_json::Value> = suppressed_by_rule(&outcome.suppressed)
        .into_iter()
        .map(|(rule, count)| serde_json::json!({ "rule": rule, "count": count }))
        .collect();
    if outcome.diags.is_empty() {
        let out = if json {
            format!(
                "{}\n",
                serde_json::json!({
                    "files": files as u64,
                    "findings": Vec::<u64>::new(),
                    "suppressed": suppressed,
                    "suppressed_total": outcome.suppressed.len() as u64,
                })
            )
        } else if outcome.suppressed.is_empty() {
            format!("hot-path source lint: {files} pipeline files clean\n")
        } else {
            format!(
                "hot-path source lint: {files} pipeline files clean \
                 ({} finding(s) suppressed by `hotlint: allow`)\n",
                outcome.suppressed.len()
            )
        };
        return Ok(out);
    }
    let mut msg = format!(
        "hot-path source lint: {} finding(s):\n",
        outcome.diags.len()
    );
    for d in &outcome.diags {
        let _ = writeln!(
            msg,
            "  {}:{}: `{}` — {}",
            d.file.display(),
            d.line,
            d.pattern,
            d.message
        );
    }
    if !outcome.suppressed.is_empty() {
        let _ = writeln!(
            msg,
            "({} further finding(s) suppressed by `hotlint: allow`)",
            outcome.suppressed.len()
        );
    }
    msg.push_str("(annotate a deliberate use with `// hotlint: allow` to accept it)");
    Err(ParseArgsError(msg))
}

#[allow(clippy::too_many_arguments)] // mirrors the Command::Lint flag set one-for-one
fn execute_lint(
    benches: Vec<String>,
    all: bool,
    scale: Scale,
    json: bool,
    source: bool,
    no_cache: bool,
    cache_dir: Option<String>,
    root: Option<String>,
) -> Result<String, ParseArgsError> {
    if source {
        return execute_source_lint(root.as_deref(), json);
    }
    let names = if all { lint_all_targets() } else { benches };
    let cache = (!no_cache).then(|| {
        Cache::new(
            cache_dir
                .map(PathBuf::from)
                .unwrap_or_else(Cache::default_dir),
        )
    });
    let mut outcomes = Vec::with_capacity(names.len());
    for name in &names {
        let program = lint_build(name, scale)?;
        outcomes.push(lint_program_cached(cache.as_ref(), name, scale, &program));
    }
    let total_errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let total_warnings: usize = outcomes.iter().map(|o| o.warnings).sum();
    let mut out = String::new();
    if json {
        let programs: Vec<serde_json::Value> = outcomes
            .iter()
            .map(|o| {
                serde_json::json!({
                    "bench": o.bench.as_str(),
                    "errors": o.errors as u64,
                    "warnings": o.warnings as u64,
                    "from_cache": o.from_cache,
                    "report": o.report.clone(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "scale": format!("{scale:?}").to_lowercase(),
            "programs": programs,
            "total_errors": total_errors as u64,
            "total_warnings": total_warnings as u64,
        });
        let _ = writeln!(out, "{doc}");
    } else {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>7} {:>6} {:>6}",
            "bench", "errors", "warnings", "blocks", "loops", "insts"
        );
        for o in &outcomes {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>8} {:>7} {:>6} {:>6}{}",
                o.bench,
                o.errors,
                o.warnings,
                o.report["blocks"].as_u64().unwrap_or(0),
                o.report["loops"].as_u64().unwrap_or(0),
                o.report["insts"].as_u64().unwrap_or(0),
                if o.from_cache { "  (cached)" } else { "" }
            );
        }
        for o in &outcomes {
            if let Some(diags) = o.report["diags"].as_array() {
                for d in diags {
                    let sev = d["severity"].as_str().unwrap_or("?");
                    if sev == "info" {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "  {sev}[{}] {}: {}",
                        d["rule"].as_str().unwrap_or("?"),
                        o.bench,
                        d["message"].as_str().unwrap_or("")
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "total: {total_errors} error(s), {total_warnings} warning(s) across {} program(s)",
            outcomes.len()
        );
    }
    if total_errors > 0 {
        return Err(ParseArgsError(out));
    }
    Ok(out)
}

/// `lint --spawn-hints`: the static spawn-site analysis, differentially
/// validated against the tracing interpreter and cached like lint runs.
fn execute_spawn_hints(
    benches: Vec<String>,
    all: bool,
    scale: Scale,
    json: bool,
    no_cache: bool,
    cache_dir: Option<String>,
) -> Result<String, ParseArgsError> {
    let names = if all { lint_all_targets() } else { benches };
    let cache = (!no_cache).then(|| {
        Cache::new(
            cache_dir
                .map(PathBuf::from)
                .unwrap_or_else(Cache::default_dir),
        )
    });
    let mut outcomes = Vec::with_capacity(names.len());
    for name in &names {
        let program = lint_build(name, scale)?;
        outcomes.push(mtvp_engine::spawn_hints_cached(
            cache.as_ref(),
            name,
            scale,
            &program,
        ));
    }
    let mut out = String::new();
    if json {
        let programs: Vec<serde_json::Value> = outcomes
            .iter()
            .map(|o| {
                serde_json::json!({
                    "bench": o.bench.as_str(),
                    "selected_sites": u64::from(o.selected_sites),
                    "hinted_loads": o.hinted_loads.clone(),
                    "checks": o.checks,
                    "validated": o.validated,
                    "from_cache": o.from_cache,
                    "hints": o.hints.clone(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "scale": format!("{scale:?}").to_lowercase(),
            "programs": programs,
            "unsound": outcomes.iter().filter(|o| !o.validated).count() as u64,
        });
        let _ = writeln!(out, "{doc}");
    } else {
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>8} {:>6} {:>9} {:>10}",
            "bench", "sites", "selected", "hinted", "checks", "validated"
        );
        for o in &outcomes {
            let sites = o.hints["sites"].as_array().map(Vec::len).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>8} {:>6} {:>9} {:>10}{}",
                o.bench,
                sites,
                o.selected_sites,
                o.hinted_loads.len(),
                o.checks,
                if o.validated { "yes" } else { "NO" },
                if o.from_cache { "  (cached)" } else { "" }
            );
        }
    }
    if outcomes.iter().any(|o| !o.validated) {
        return Err(ParseArgsError(out));
    }
    Ok(out)
}

impl Command {
    /// Parse an argv tail (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
        let mut it = args.iter().map(String::as_str);
        let cmd = it.next().unwrap_or("help");
        let rest: Vec<&str> = it.collect();
        match cmd {
            "list" => Ok(Command::List),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "run" => {
                let bench = rest
                    .first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| ParseArgsError("run requires a benchmark name".into()))?
                    .to_string();
                let (config, scale) = parse_sim_config(&rest, &RUN_FLAGS)?;
                let trace = parse_trace_spec(&rest)?;
                if config.sampling.is_some() && trace.is_some() {
                    return Err(ParseArgsError(
                        "--sample is incompatible with --trace (sampled windows run \
                         without the uop-lifecycle tracer)"
                            .into(),
                    ));
                }
                Ok(Command::Run {
                    bench,
                    config,
                    scale,
                    json: rest.contains(&"--json"),
                    trace,
                    no_cache: rest.contains(&"--no-cache"),
                    cache_dir: get_flag(&rest, "--cache-dir")?.map(str::to_string),
                })
            }
            "trace" => {
                let bench = rest
                    .first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| ParseArgsError("trace requires a benchmark name".into()))?
                    .to_string();
                let (config, scale) = parse_sim_config(&rest, &TRACE_FLAGS)?;
                if config.sampling.is_some() {
                    return Err(ParseArgsError(
                        "--sample is incompatible with the trace command (sampled \
                         windows run without the uop-lifecycle tracer)"
                            .into(),
                    ));
                }
                let spec = parse_trace_spec(&rest)?.unwrap_or_default();
                let rows = match get_flag(&rest, "--rows")? {
                    Some(v) => v
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --rows `{v}`")))?,
                    None => 48,
                };
                Ok(Command::Trace {
                    bench,
                    config,
                    scale,
                    spec,
                    rows,
                })
            }
            "compare" => {
                let bench = rest
                    .first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| ParseArgsError("compare requires a benchmark name".into()))?
                    .to_string();
                let scale = parse_scale(get_flag(&rest, "--scale")?.unwrap_or("small"))?;
                Ok(Command::Compare { bench, scale })
            }
            "disasm" => {
                let bench = rest
                    .first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| ParseArgsError("disasm requires a benchmark name".into()))?
                    .to_string();
                let limit = match get_flag(&rest, "--limit")? {
                    Some(v) => v
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --limit `{v}`")))?,
                    None => 120,
                };
                Ok(Command::Disasm { bench, limit })
            }
            "lint" => {
                let all = rest.contains(&"--all");
                let source = rest.contains(&"--source");
                let spawn_hints = rest.contains(&"--spawn-hints");
                let scale = parse_scale(get_flag(&rest, "--scale")?.unwrap_or("tiny"))?;
                let cache_dir = get_flag(&rest, "--cache-dir")?.map(str::to_string);
                let root = get_flag(&rest, "--root")?.map(str::to_string);
                let benches: Vec<String> = rest
                    .iter()
                    .enumerate()
                    .filter(|(i, a)| {
                        !a.starts_with("--")
                            && (*i == 0
                                || !matches!(rest[i - 1], "--scale" | "--cache-dir" | "--root"))
                    })
                    .map(|(_, a)| a.to_string())
                    .collect();
                if !all && !source && benches.is_empty() {
                    return Err(ParseArgsError(
                        "lint requires benchmark names, --all, or --source".into(),
                    ));
                }
                if source && spawn_hints {
                    return Err(ParseArgsError(
                        "--source and --spawn-hints are mutually exclusive".into(),
                    ));
                }
                Ok(Command::Lint {
                    benches,
                    all,
                    scale,
                    json: rest.contains(&"--json"),
                    source,
                    spawn_hints,
                    no_cache: rest.contains(&"--no-cache"),
                    cache_dir,
                    root,
                })
            }
            "exp" => parse_exp(&rest),
            "cluster" => parse_cluster(&rest),
            "serve" => {
                let addr = get_flag(&rest, "--addr")?
                    .unwrap_or("127.0.0.1:8707")
                    .to_string();
                let workers = match get_flag(&rest, "--workers")? {
                    Some(v) => Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| ParseArgsError(format!("bad --workers `{v}`")))?,
                    ),
                    None => None,
                };
                let queue_depth = match get_flag(&rest, "--queue-depth")? {
                    Some(v) => Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| ParseArgsError(format!("bad --queue-depth `{v}`")))?,
                    ),
                    None => None,
                };
                let request_timeout_ms = match get_flag(&rest, "--request-timeout-ms")? {
                    Some(v) => Some(v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        ParseArgsError(format!("bad --request-timeout-ms `{v}`"))
                    })?),
                    None => None,
                };
                Ok(Command::Serve {
                    addr,
                    workers,
                    queue_depth,
                    no_cache: rest.contains(&"--no-cache"),
                    cache_dir: get_flag(&rest, "--cache-dir")?.map(str::to_string),
                    request_timeout_ms,
                    peers: get_flag(&rest, "--peers")?
                        .map(split_list)
                        .unwrap_or_default(),
                })
            }
            other => Err(ParseArgsError(format!(
                "unknown command `{other}`; try `help`"
            ))),
        }
    }

    /// Execute the command, returning the text to print.
    ///
    /// # Errors
    /// Returns an error string for unknown benchmark names.
    pub fn execute(self) -> Result<String, ParseArgsError> {
        let mut out = String::new();
        match self {
            Command::Exp(cmd) => return execute_exp(cmd),
            Command::Cluster(cmd) => return execute_cluster(cmd),
            Command::Serve {
                addr,
                workers,
                queue_depth,
                no_cache,
                cache_dir,
                request_timeout_ms,
                peers,
            } => {
                return execute_serve(
                    addr,
                    workers,
                    queue_depth,
                    no_cache,
                    cache_dir,
                    request_timeout_ms,
                    peers,
                )
            }
            Command::Lint {
                benches,
                all,
                scale,
                json,
                source,
                spawn_hints,
                no_cache,
                cache_dir,
                root,
            } => {
                return if spawn_hints {
                    execute_spawn_hints(benches, all, scale, json, no_cache, cache_dir)
                } else {
                    execute_lint(benches, all, scale, json, source, no_cache, cache_dir, root)
                }
            }
            Command::Help => out.push_str(HELP),
            Command::List => {
                let _ = writeln!(out, "{:<10} {:<6} description", "name", "suite");
                for w in suite() {
                    let _ = writeln!(
                        out,
                        "{:<10} {:<6} {}",
                        w.name,
                        if w.suite == mtvp_engine::Suite::Int {
                            "int"
                        } else {
                            "fp"
                        },
                        w.description
                    );
                }
            }
            Command::Run {
                bench,
                config,
                scale,
                json,
                trace,
                no_cache,
                cache_dir,
            } => {
                let wl = find(&bench)?;
                let program = wl.build(scale);
                if config.sampling.is_some() {
                    let (n, ref_trace) = reference_trace(&program);
                    let cache = (!no_cache).then(|| {
                        Cache::new(
                            cache_dir
                                .as_ref()
                                .map(PathBuf::from)
                                .unwrap_or_else(Cache::default_dir),
                        )
                    });
                    let store = cache.as_ref().map(|c| CkptStore {
                        cache: c,
                        bench: wl.name,
                        scale,
                    });
                    let s = run_sampled(&config, &program, n, &ref_trace, store);
                    if json {
                        let doc = serde_json::json!({
                            "bench": bench,
                            "config": config,
                            "ipc": s.stats.ipc(),
                            "stats": s.stats,
                        });
                        let sampling_doc = serde_json::json!({
                            "windows": s.meta.windows,
                            "total_instrs": n,
                            "measured_instrs": s.meta.measured_instrs,
                            "measured_cycles": s.meta.measured_cycles,
                            "detailed_fraction": s.detailed_fraction(n),
                            "ckpt_hits": s.ckpt_hits,
                            "ckpt_misses": s.ckpt_misses,
                        });
                        let doc = match doc {
                            serde_json::Value::Map(mut entries) => {
                                entries.push(("sampling".to_string(), sampling_doc));
                                serde_json::Value::Map(entries)
                            }
                            doc => doc,
                        };
                        let _ = writeln!(out, "{doc}");
                    } else {
                        let _ = writeln!(out, "bench      : {bench} ({})", wl.description);
                        let _ = writeln!(out, "mode       : {:?} (sampled)", config.mode);
                        let _ = writeln!(out, "est cycles : {}", s.stats.cycles);
                        let _ = writeln!(out, "committed  : {}", s.stats.committed);
                        let _ = writeln!(out, "useful IPC : {:.4} (estimated)", s.stats.ipc());
                        let _ = writeln!(
                            out,
                            "sampling   : {} windows, {}/{} instrs detailed ({:.1}%)",
                            s.meta.windows,
                            s.meta.measured_instrs,
                            n,
                            100.0 * s.detailed_fraction(n)
                        );
                        let _ = writeln!(
                            out,
                            "checkpoints: {} hits, {} misses{}",
                            s.ckpt_hits,
                            s.ckpt_misses,
                            if cache.is_none() { " (cache off)" } else { "" }
                        );
                    }
                    return Ok(out);
                }
                let (r, tracer) = match &trace {
                    Some(spec) => {
                        let opts = TraceOptions {
                            ring: spec.ring,
                            window: spec.window,
                        };
                        let (r, t) = run_program_traced(&config, &program, &opts);
                        (r, Some(t))
                    }
                    None => (run_program_at(&config, &program, scale), None),
                };
                if json {
                    let doc = serde_json::json!({
                        "bench": bench,
                        "config": config,
                        "ipc": r.ipc(),
                        "stats": r.stats,
                    });
                    let doc = match (&tracer, doc) {
                        (Some(t), serde_json::Value::Map(mut entries)) => {
                            let trace_doc = serde_json::json!({
                                "events_retained": t.len() as u64,
                                "events_dropped": t.dropped(),
                                "registry": t.registry(),
                            });
                            entries.push(("trace".to_string(), trace_doc));
                            serde_json::Value::Map(entries)
                        }
                        (_, doc) => doc,
                    };
                    let _ = writeln!(out, "{doc}");
                } else {
                    let _ = writeln!(out, "bench      : {bench} ({})", wl.description);
                    let _ = writeln!(out, "mode       : {:?}", config.mode);
                    let _ = writeln!(out, "cycles     : {}", r.stats.cycles);
                    let _ = writeln!(out, "committed  : {}", r.stats.committed);
                    let _ = writeln!(out, "useful IPC : {:.4}", r.ipc());
                    let _ = writeln!(
                        out,
                        "vp         : stvp {}/{} ok, spawns {} ({} ok, {} wrong)",
                        r.stats.vp.stvp_used,
                        r.stats.vp.stvp_correct,
                        r.stats.vp.mtvp_spawns,
                        r.stats.vp.mtvp_correct,
                        r.stats.vp.mtvp_wrong
                    );
                    if let Some(t) = &tracer {
                        let _ = writeln!(
                            out,
                            "trace      : {} events retained, {} dropped",
                            t.len(),
                            t.dropped()
                        );
                    }
                }
                if let (Some(spec), Some(t)) = (&trace, &tracer) {
                    if let Some(path) = &spec.out {
                        let text = chrome_trace(t.events());
                        std::fs::write(path, text).map_err(|e| {
                            ParseArgsError(format!("cannot write trace to {path}: {e}"))
                        })?;
                        // Keep stdout machine-readable under --json.
                        if !json {
                            let _ = writeln!(out, "trace JSON : {path} (open in about:tracing)");
                        }
                    }
                }
            }
            Command::Trace {
                bench,
                config,
                scale,
                spec,
                rows,
            } => {
                let wl = find(&bench)?;
                let program = wl.build(scale);
                let opts = TraceOptions {
                    ring: spec.ring,
                    window: spec.window,
                };
                let (r, t) = run_program_traced(&config, &program, &opts);
                let _ = writeln!(
                    out,
                    "bench {bench} mode {:?}: {} cycles, {} committed, IPC {:.4}",
                    config.mode,
                    r.stats.cycles,
                    r.stats.committed,
                    r.ipc()
                );
                let _ = writeln!(
                    out,
                    "{} events retained ({} dropped); spawns {} ok {} wrong {}",
                    t.len(),
                    t.dropped(),
                    r.stats.vp.mtvp_spawns,
                    r.stats.vp.mtvp_correct,
                    r.stats.vp.mtvp_wrong
                );
                out.push_str(&pipeview(t.events(), rows));
                if let Some(path) = &spec.out {
                    let text = chrome_trace(t.events());
                    std::fs::write(path, text).map_err(|e| {
                        ParseArgsError(format!("cannot write trace to {path}: {e}"))
                    })?;
                    let _ = writeln!(out, "trace JSON : {path} (open in about:tracing)");
                }
            }
            Command::Compare { bench, scale } => {
                let wl = find(&bench)?;
                let program = wl.build(scale);
                let base = run_program(&SimConfig::new(Mode::Baseline), &program);
                let _ = writeln!(
                    out,
                    "{:<14}{:>10}{:>9}{:>12}",
                    "mode", "cycles", "IPC", "speedup"
                );
                let _ = writeln!(
                    out,
                    "{:<14}{:>10}{:>9.3}{:>12}",
                    "baseline",
                    base.stats.cycles,
                    base.ipc(),
                    "-"
                );
                for mode in [
                    Mode::Stvp,
                    Mode::Mtvp,
                    Mode::MtvpNoStall,
                    Mode::SpawnOnly,
                    Mode::WideWindow,
                    Mode::MultiValue,
                ] {
                    let r = run_program(&SimConfig::new(mode), &program);
                    let _ = writeln!(
                        out,
                        "{:<14}{:>10}{:>9.3}{:>+11.1}%",
                        format!("{mode:?}"),
                        r.stats.cycles,
                        r.ipc(),
                        r.stats.speedup_over(&base.stats)
                    );
                }
            }
            Command::Disasm { bench, limit } => {
                let wl = find(&bench)?;
                let program = wl.build(Scale::Tiny);
                let _ = writeln!(
                    out,
                    "; {} — {} static instructions, {} bytes of data",
                    program.name,
                    program.len(),
                    program.data_bytes()
                );
                for (pc, inst) in program.code.iter().take(limit).enumerate() {
                    let _ = writeln!(out, "{pc:>6}: {inst}");
                }
                if program.len() > limit {
                    let _ = writeln!(out, "… ({} more)", program.len() - limit);
                }
            }
        }
        Ok(out)
    }
}

fn find(name: &str) -> Result<mtvp_engine::Workload, ParseArgsError> {
    suite()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| ParseArgsError(format!("unknown benchmark `{name}`; see `mtvp-sim list`")))
}

/// The help text.
pub const HELP: &str = "\
mtvp-sim — cycle-level SMT simulator with multithreaded value prediction

USAGE:
  mtvp-sim list
  mtvp-sim run <bench> [--mode M] [--oracle] [--core C] [--contexts N] [--predictor P]
                       [--selector S] [--spawn-policy dynamic|static] [--spawn-latency N]
                       [--store-buffer N] [--max-values-per-load N] [--mshrs N]
                       [--no-prefetch] [--cold-start] [--no-fast-forward]
                       [--inst-limit N] [--max-cycles N] [--scale tiny|small|full]
                       [--cores M] [--l3 KB:ASSOC:LAT] [--interconnect N]
                       [--xspawn] [--co spec1,spec2,...]
                       [--sample W:I:U] [--json] [--no-cache] [--cache-dir DIR]
                       [--trace[=RING]] [--trace-out FILE] [--trace-window START:END]
  mtvp-sim trace <bench> [machine options] [--scale S] [--rows N]
                         [--trace[=RING]] [--trace-out FILE] [--trace-window START:END]
  mtvp-sim compare <bench> [--scale tiny|small|full]
  mtvp-sim disasm <bench> [--limit N]
  mtvp-sim lint [--all | <bench>...] [--scale tiny|small|full] [--json]
                [--no-cache] [--cache-dir DIR]
  mtvp-sim lint --source [--root REPO_DIR] [--json]
  mtvp-sim lint --spawn-hints [--all | <bench>...] [--scale S] [--json]
                [--no-cache] [--cache-dir DIR]
  mtvp-sim exp list
  mtvp-sim exp run <scenario> [--scale S] [--benches a,b,c] [--jobs N]
                              [--shard i/n] [--no-cache] [--cache-dir DIR]
                              [--json] [--json-out FILE] [--sample W:I:U]
  mtvp-sim exp status [scenario] [--scale S] [--cache-dir DIR] [--manifest FILE]
  mtvp-sim exp diff <a> <b> [--scale S] [--cache-dir DIR]
  mtvp-sim serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
                 [--no-cache] [--cache-dir DIR] [--request-timeout-ms N]
                 [--peers HOST:PORT,...]
  mtvp-sim cluster coord <scenario> --workers a,b,c [--scale S] [--benches ...]
                         [--timeout-ms N] [--retries N] [--backoff-ms N]
                         [--no-steal] [--manifest FILE] [--json] [--json-out FILE]
  mtvp-sim cluster bench [scenario] [--fleets 1,2,4] [--scale S] [--benches ...]
                         [--rate RPS] [--duration-ms N] [--json-out FILE]

MODES:      baseline stvp mtvp mtvp-nostall spawn-only wide-window multi-value
CORES:      ooo (default SMT out-of-order) | inorder (scalar in-order baseline;
            requires --mode baseline, e.g. `run mcf --core inorder --mode baseline`)
PREDICTORS: none oracle wf wf-liberal dfcm stride last-value
SELECTORS:  always ilp-pred l3-miss-oracle
POLICIES:   dynamic (default: every confident load may spawn) | static
            (only loads inside statically selected spawn regions spawn;
            requires an out-of-order value-predicting mode)

MACHINE OPTIONS:
  Every option of `run` except --scale, --json, --no-cache, --cache-dir and
  --trace* sets one configuration knob; a serve `config` object and a
  scenario grid set the same knob under its field name (--contexts is
  `contexts`, --no-prefetch is `\"prefetcher\": false`, --sample is
  `sampling`, --interconnect is `interconnect_hop`, --co is `co_workloads`).
  --mode picks the machine and its defaults (default mtvp); --oracle starts
  from the idealized Section 5.1 machine instead (oracle predictor, 1-cycle
  spawn, unbounded store buffer). --max-values-per-load needs
  --mode multi-value. --mshrs sets the outstanding-miss capacity (default
  16). --no-fast-forward simulates idle cycles one by one (same statistics,
  slower). --inst-limit stops after N committed instructions; --max-cycles
  bounds the run (default 500000000). An unknown option is an error.

EXPERIMENTS:
  `exp run` drives a declarative scenario (the paper's figures are built
  in; `exp list` names them, or pass a path to a scenario JSON file).
  Completed cells and reference traces persist under results/cache/ (or
  $MTVP_CACHE_DIR, or --cache-dir), so re-runs are incremental and an
  interrupted sweep resumes from its completed cells. --shard i/n splits
  a sweep deterministically across machines sharing a cache directory.

SERVING:
  `serve` exposes the experiment engine as a multithreaded HTTP/1.1 JSON
  service (default 127.0.0.1:8707): GET /health, /scenarios, /metrics,
  /cache/stats; POST /run (one bench x config x scale cell) and /sweep
  (a scenario by name or inline JSON); async polling via `\"wait\": false`
  plus GET /jobs/<id> and /jobs/<id>/result?wait_ms=N. A bounded queue
  answers 503 + Retry-After under overload, identical concurrent jobs
  coalesce into one engine execution, and results share the exp cache.
  SIGINT/SIGTERM drain gracefully. `mtvp-loadgen` drives load against it
  (closed loop, or open loop with --rate for SLO reporting).

CLUSTER:
  `cluster coord` fans a scenario out to running `serve` workers: cells
  are placed by rendezvous hashing on their cache content hash, failed
  requests retry with backoff, a dead worker's remaining cells re-shard
  onto the survivors, and the merged sweep JSON is byte-identical to a
  single-node `exp run` of the same scenario. --manifest writes live
  progress that `exp status --manifest` renders. Workers started with
  `serve --peers` fetch warm cells from each other before simulating, so
  results migrate instead of being recomputed. `cluster bench` boots
  local fleets of 1..N workers, measures cell throughput at each size,
  probes SLOs open-loop, and writes BENCH_cluster.json.

LINT:
  `lint` runs the static dataflow analysis (CFG, liveness, reaching
  definitions, address ranges) over kernel programs and reports
  uninitialized reads, bad branch targets, dead stores, unreachable code
  and loop-termination smells. Targets are registry benchmarks plus
  matmul, histogram, string-search and synth-<seed>; --all lints the
  whole shipped set (the CI gate requires zero errors). Results are
  cached like experiment cells. `lint --source` instead lints the
  pipeline's hot-path source for denied collections/allocations; exit
  status is 2 when any error (or source finding) is present. With --json
  the source lint also reports per-rule counts of findings suppressed by
  `// hotlint: allow`. `lint --spawn-hints` runs the static spawn-site
  analysis instead: natural loops and call continuations are scored by
  fork-point live-in predictability (constant / affine induction /
  accumulator / memory-carried), every predictable verdict is checked
  against the tracing interpreter, and the cached artifact's selected
  load PCs are what `run --spawn-policy static` uses as its spawn filter.

CMP:
  --cores M            chip multiprocessor with M cores (default 1). Cores
                       above 1 share an L3 and require --core ooo; the primary
                       workload always runs on core 0. Cells are keyed on every
                       CMP knob, so mixes are exactly reproducible.
  --l3 KB:ASSOC:LAT    shared-L3 shape (default 4096:16:50). At --cores 1 this
                       configures the private L3 instead.
  --interconnect N     core-to-L3 hop latency in cycles (default 4); a shared
                       hit pays LAT + 2 hops.
  --xspawn             let MTVP spawn speculative threads onto idle sibling
                       cores (remote contexts): spawn and reconcile each pay
                       two extra hops. Needs a spawning mode and an idle core.
                       (Alias: --cross-core-spawn.)
  --co s1,s2,...       co-runner workloads for sibling cores, one per spec:
                       a registry benchmark name, synth:<seed>, or
                       phases:<seed> (seeded generated programs; generated
                       co-runners must pass the error-severity lints).

SAMPLING:
  --sample W:I:U       two-tier sampled simulation: functionally fast-forward
                       between detailed windows of W instructions taken every I
                       instructions, each preceded by U warm-up instructions
                       (detailed but uncounted). Reported statistics are
                       extrapolated estimates; the window at instruction 0 is
                       measured exactly. Checkpoints of architectural state at
                       each window's warm-up point persist in the cache and are
                       shared by every configuration with the same schedule
                       (`run --no-cache` disables the checkpoint store).
                       Example: --sample 2000:20000:1000 runs ~15% detailed.
                       `exp run --sample` applies the schedule to every
                       configuration in the scenario, and scenario files may
                       set \"sampling\" per grid. Incompatible with --trace.

TRACING:
  --trace[=RING]       record uop lifecycle + MTVP thread events in a ring of
                       RING entries (default 1048576); counters/histograms
                       aggregate over the whole run regardless of ring size
  --trace-out FILE     write Chrome trace-event JSON (chrome://tracing,
                       about:tracing, or https://ui.perfetto.dev)
  --trace-window S:E   keep only events from cycles [S, E) in the ring
  trace subcommand     same flags, prints a gem5-style textual pipeview
";

#[cfg(test)]
mod tests {
    use super::*;
    use mtvp_engine::PredictorKind;

    fn parse(words: &[&str]) -> Result<Command, ParseArgsError> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Command::parse(&v)
    }

    #[test]
    fn parses_basic_commands() {
        assert_eq!(parse(&["list"]).unwrap(), Command::List);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert!(matches!(
            parse(&["compare", "mcf"]).unwrap(),
            Command::Compare { .. }
        ));
        assert!(matches!(
            parse(&["disasm", "mcf"]).unwrap(),
            Command::Disasm { limit: 120, .. }
        ));
    }

    #[test]
    fn parses_run_flags() {
        let cmd = parse(&[
            "run",
            "mcf",
            "--mode",
            "mtvp",
            "--contexts",
            "4",
            "--predictor",
            "oracle",
            "--spawn-latency",
            "1",
            "--store-buffer",
            "64",
            "--scale",
            "tiny",
            "--json",
            "--no-prefetch",
            "--cold-start",
        ])
        .unwrap();
        match cmd {
            Command::Run {
                bench,
                config,
                scale,
                json,
                trace,
                ..
            } => {
                assert_eq!(bench, "mcf");
                assert_eq!(config.contexts, 4);
                assert_eq!(config.predictor, PredictorKind::Oracle);
                assert_eq!(config.spawn_latency, 1);
                assert_eq!(config.store_buffer, 64);
                assert!(!config.prefetcher);
                assert!(!config.warm_start);
                assert_eq!(scale, Scale::Tiny);
                assert!(json);
                assert_eq!(trace, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_trace_flags() {
        let cmd = parse(&[
            "run",
            "mcf",
            "--trace=4096",
            "--trace-window",
            "100:200",
            "--trace-out",
            "x.json",
        ])
        .unwrap();
        match cmd {
            Command::Run { trace, .. } => {
                let spec = trace.expect("--trace parsed");
                assert_eq!(spec.ring, 4096);
                assert_eq!(spec.window, Some((100, 200)));
                assert_eq!(spec.out.as_deref(), Some("x.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // `=` form of the window, bare --trace, and implied enabling.
        match parse(&["run", "mcf", "--trace", "--trace-window=5:9"]).unwrap() {
            Command::Run { trace, .. } => {
                let spec = trace.expect("--trace parsed");
                assert_eq!(spec.ring, 1 << 20);
                assert_eq!(spec.window, Some((5, 9)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["run", "mcf", "--trace-out", "y.json"]).unwrap() {
            Command::Run { trace, .. } => {
                assert_eq!(trace.expect("implied").out.as_deref(), Some("y.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // trace subcommand shares the run flags.
        match parse(&["trace", "mcf", "--mode", "mtvp", "--rows", "16"]).unwrap() {
            Command::Trace { bench, rows, .. } => {
                assert_eq!(bench, "mcf");
                assert_eq!(rows, 16);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["run", "mcf", "--trace=abc"]).is_err());
        assert!(parse(&["run", "mcf", "--trace-window", "9:5"]).is_err());
        assert!(parse(&["run", "mcf", "--trace-window", "nope"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["run", "mcf", "--mode", "bogus"]).is_err());
        assert!(parse(&["run", "mcf", "--contexts"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "mcf", "--scale", "gigantic"]).is_err());
        // A misspelt or foreign flag is an error naming it, never a
        // silently simulated default machine.
        for (bad, named) in [
            (
                vec!["run", "gzip g", "--scale", "tiny", "--contexs", "2"],
                "--contexs",
            ),
            (vec!["run", "mcf", "--contexts=4"], "--contexts=4"),
            (vec!["run", "mcf", "--rows", "8"], "--rows"),
            (vec!["trace", "mcf", "--json"], "--json"),
            (vec!["run", "mcf", "stray"], "stray"),
        ] {
            let e = parse(&bad).unwrap_err();
            assert!(e.0.contains(&format!("`{named}`")), "{bad:?}: {e}");
        }
        // Each command's own flags stay accepted.
        assert!(parse(&[
            "run",
            "mcf",
            "--json",
            "--no-cache",
            "--cache-dir",
            "d",
            "--trace=8",
            "--trace-out",
            "t.json",
            "--trace-window=1:2",
            "--scale",
            "tiny",
        ])
        .is_ok());
        assert!(parse(&["trace", "mcf", "--rows", "8", "--trace-window", "1:2"]).is_ok());
    }

    /// Every knob of the table means the same machine whether it comes
    /// from a CLI flag (each alias), a serve `config` key or a scenario
    /// grid key, and every flag is documented in `HELP`.
    #[test]
    fn every_knob_is_the_same_in_every_front_end() {
        use serde::Value;
        // An example value per knob in the CLI spelling, with the knobs it
        // needs to validate. A knob without an example fails the test.
        type Example = (
            &'static str,
            &'static str,
            &'static [(&'static str, &'static str)],
        );
        let examples: &[Example] = &[
            ("mode", "stvp", &[]),
            ("oracle", "true", &[]),
            ("core", "inorder", &[("mode", "baseline")]),
            ("cores", "2", &[]),
            ("l3", "2048:8:40", &[]),
            ("interconnect_hop", "6", &[("cores", "2")]),
            ("cross_core_spawn", "true", &[("cores", "2")]),
            ("co_workloads", "synth:7", &[("cores", "2")]),
            ("contexts", "4", &[]),
            ("predictor", "dfcm", &[]),
            ("selector", "always", &[]),
            ("spawn_policy", "static", &[]),
            ("spawn_latency", "16", &[]),
            ("store_buffer", "64", &[]),
            ("max_values_per_load", "2", &[("mode", "multi-value")]),
            ("inst_limit", "100000", &[]),
            ("max_cycles", "1000000", &[]),
            ("prefetcher", "false", &[]),
            ("mshrs", "4", &[]),
            ("warm_start", "false", &[]),
            ("fast_forward", "false", &[]),
            ("sampling", "2000:20000:1000", &[]),
        ];
        let help: std::collections::HashSet<&str> = HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        let cli = |settings: &[(&str, &str)], alias: usize| {
            let mut argv = vec!["run".to_string(), "mcf".to_string()];
            for (key, v) in settings {
                let knob = mtvp_engine::knob(key).unwrap();
                argv.push(knob.flags[alias.min(knob.flags.len() - 1)].to_string());
                match knob.switch {
                    Some(on) => assert_eq!(on, *v, "{key} is a switch"),
                    None => argv.push(v.to_string()),
                }
            }
            match Command::parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}")) {
                Command::Run { config, .. } => config,
                other => panic!("wrong parse: {other:?}"),
            }
        };
        for knob in mtvp_engine::KNOBS {
            let (_, value, needs) = examples
                .iter()
                .find(|(key, ..)| *key == knob.key)
                .unwrap_or_else(|| panic!("no example for knob `{}`", knob.key));
            for flag in knob.flags {
                assert!(help.contains(flag), "{flag} is missing from HELP");
            }
            let mut settings = needs.to_vec();
            settings.push((knob.key, value));
            let want = cli(&settings, 0);
            assert_ne!(want, cli(needs, 0), "`{}` changed nothing", knob.key);
            for alias in 1..knob.flags.len() {
                assert_eq!(cli(&settings, alias), want, "{}", knob.flags[alias]);
            }

            // serve: the canonical JSON form of each value.
            let config = settings
                .iter()
                .map(|(key, v)| {
                    let json = mtvp_engine::knob(key)
                        .and_then(|k| k.canonical(&Value::Str(v.to_string())))
                        .unwrap();
                    (key.to_string(), json)
                })
                .collect();
            let body = Value::Map(vec![
                ("bench".to_string(), Value::Str("mcf".to_string())),
                ("config".to_string(), Value::Map(config)),
            ]);
            let served = mtvp_serve::api::parse_run_request(&body).unwrap().config;
            assert_eq!(served, want, "serve `{}`", knob.key);

            // A scenario grid: the CLI spelling of each value.
            let mut grid: Vec<(String, Value)> = settings
                .iter()
                .map(|(key, v)| (key.to_string(), Value::Str(v.to_string())))
                .collect();
            if !settings.iter().any(|(key, _)| *key == "mode") {
                grid.push(("mode".to_string(), Value::Str("mtvp".to_string())));
            }
            let scenario = Value::Map(vec![
                ("name".to_string(), Value::Str("parity".to_string())),
                ("grids".to_string(), Value::Seq(vec![Value::Map(grid)])),
            ]);
            let scenario = <Scenario as serde::Deserialize>::from_value(&scenario).unwrap();
            assert_eq!(
                scenario.configs().unwrap()[0].1,
                want,
                "grid `{}`",
                knob.key
            );
        }
    }

    #[test]
    fn rejects_invalid_configs_before_running() {
        // validate() is wired into parsing: a baseline machine cannot have
        // eight contexts, and store_buffer 0 is meaningless.
        let err = parse(&["run", "mcf", "--mode", "baseline", "--contexts", "8"]).unwrap_err();
        assert!(err.0.contains("single-context"), "{err}");
        assert!(parse(&["run", "mcf", "--store-buffer", "0"]).is_err());
        assert!(parse(&["run", "mcf", "--mode", "stvp", "--predictor", "none"]).is_err());
    }

    #[test]
    fn parses_core_flag_and_rejects_unsupported_knobs() {
        let cmd = parse(&[
            "run", "mcf", "--core", "inorder", "--mode", "baseline", "--scale", "tiny",
        ])
        .unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.core, mtvp_engine::CoreKind::InOrderScalar);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The vocabulary accepts the long spellings too.
        let cmd = parse(&["run", "mcf", "--core", "out-of-order"]).unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.core, mtvp_engine::CoreKind::OutOfOrder);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["run", "mcf", "--core", "vliw"]).is_err());
        // validate() rejects knobs the in-order core doesn't support, with
        // an error naming the core.
        for bad in [
            vec!["run", "mcf", "--core", "inorder"], // default mode is mtvp
            vec![
                "run",
                "mcf",
                "--core",
                "inorder",
                "--mode",
                "baseline",
                "--contexts",
                "4",
            ],
            vec![
                "run",
                "mcf",
                "--core",
                "inorder",
                "--mode",
                "baseline",
                "--predictor",
                "wf",
            ],
            vec!["run", "mcf", "--core", "inorder", "--mode", "wide-window"],
        ] {
            let err = parse(&bad).unwrap_err();
            assert!(err.0.contains("in-order"), "{bad:?}: {err}");
        }
        // Sampling stays legal on the in-order core.
        assert!(parse(&[
            "run",
            "mcf",
            "--core",
            "inorder",
            "--mode",
            "baseline",
            "--sample",
            "2000:20000:1000",
        ])
        .is_ok());
    }

    #[test]
    fn parses_cmp_flags_and_rejects_unsupported_topologies() {
        let cmd = parse(&[
            "run",
            "mcf",
            "--cores",
            "4",
            "--l3",
            "2048:8:40",
            "--interconnect",
            "6",
            "--xspawn",
            "--co",
            "synth:7,phases:9",
            "--scale",
            "tiny",
        ])
        .unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.cores, 4);
                assert_eq!(config.l3.kb, 2048);
                assert_eq!(config.l3.assoc, 8);
                assert_eq!(config.l3.latency, 40);
                assert_eq!(config.interconnect_hop, 6);
                assert!(config.cross_core_spawn);
                assert_eq!(config.co_workloads, vec!["synth:7", "phases:9"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The long spelling of --xspawn works too.
        match parse(&["run", "mcf", "--cores", "2", "--cross-core-spawn"]).unwrap() {
            Command::Run { config, .. } => assert!(config.cross_core_spawn),
            other => panic!("wrong parse: {other:?}"),
        }
        // Malformed values are parse errors.
        assert!(parse(&["run", "mcf", "--cores", "lots"]).is_err());
        assert!(parse(&["run", "mcf", "--l3", "2048:8"]).is_err());
        assert!(parse(&["run", "mcf", "--interconnect", "-1"]).is_err());
        // validate() rejects CMP knobs the selected topology lacks, with an
        // error naming the offending knob.
        for (bad, needle) in [
            (
                vec![
                    "run", "mcf", "--cores", "2", "--core", "inorder", "--mode", "baseline",
                ],
                "in-order",
            ),
            (vec!["run", "mcf", "--cores", "0"], "cores"),
            (vec!["run", "mcf", "--cores", "32"], "cores"),
            (vec!["run", "mcf", "--xspawn"], "cross_core_spawn"),
            (
                vec![
                    "run", "mcf", "--cores", "2", "--mode", "baseline", "--xspawn",
                ],
                "spawn",
            ),
            (
                vec!["run", "mcf", "--cores", "2", "--xspawn", "--co", "synth:1"],
                "idle",
            ),
            (vec!["run", "mcf", "--co", "synth:1"], "sibling"),
            (
                vec!["run", "mcf", "--cores", "2", "--co", "synth:1,synth:2"],
                "exceed",
            ),
            (
                vec!["run", "mcf", "--cores", "2", "--co", "nonesuch-bench"],
                "nonesuch",
            ),
            (
                vec!["run", "mcf", "--cores", "2", "--co", "synth:notaseed"],
                "seed",
            ),
            (
                vec!["run", "mcf", "--cores", "2", "--sample", "2000:20000:1000"],
                "sampl",
            ),
        ] {
            let err = parse(&bad).unwrap_err();
            assert!(err.0.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parses_exp_commands() {
        assert_eq!(parse(&["exp", "list"]).unwrap(), Command::Exp(ExpCmd::List));
        assert_eq!(parse(&["exp"]).unwrap(), Command::Exp(ExpCmd::List));
        match parse(&[
            "exp",
            "run",
            "smoke",
            "--scale",
            "tiny",
            "--benches",
            "mcf,mesa",
            "--jobs",
            "2",
            "--shard",
            "1/4",
            "--no-cache",
            "--json",
            "--json-out",
            "r.json",
        ])
        .unwrap()
        {
            Command::Exp(ExpCmd::Run {
                scenario,
                scale,
                benches,
                jobs,
                shard,
                no_cache,
                cache_dir,
                json,
                json_out,
                sample,
            }) => {
                assert_eq!(scenario, "smoke");
                assert_eq!(sample, None);
                assert_eq!(scale, Some(Scale::Tiny));
                assert_eq!(benches, Some(vec!["mcf".to_string(), "mesa".to_string()]));
                assert_eq!(jobs, Some(2));
                assert_eq!(shard, Some((1, 4)));
                assert!(no_cache);
                assert_eq!(cache_dir, None);
                assert!(json);
                assert_eq!(json_out.as_deref(), Some("r.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["exp", "status", "fig3", "--cache-dir", "/tmp/c"]).unwrap() {
            Command::Exp(ExpCmd::Status {
                scenario,
                cache_dir,
                ..
            }) => {
                assert_eq!(scenario.as_deref(), Some("fig3"));
                assert_eq!(cache_dir.as_deref(), Some("/tmp/c"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["exp", "diff", "fig3", "fig4"]).unwrap() {
            Command::Exp(ExpCmd::Diff { a, b, .. }) => {
                assert_eq!((a.as_str(), b.as_str()), ("fig3", "fig4"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Positional scan must skip flag values.
        match parse(&["exp", "run", "--scale", "tiny", "smoke"]).unwrap() {
            Command::Exp(ExpCmd::Run { scenario, .. }) => assert_eq!(scenario, "smoke"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["exp", "run"]).is_err());
        assert!(parse(&["exp", "run", "smoke", "--shard", "4/4"]).is_err());
        assert!(parse(&["exp", "run", "smoke", "--shard", "x"]).is_err());
        assert!(parse(&["exp", "diff", "fig3"]).is_err());
        assert!(parse(&["exp", "frobnicate"]).is_err());
    }

    #[test]
    fn exp_list_and_unknown_scenario_execute() {
        let out = Command::Exp(ExpCmd::List).execute().unwrap();
        assert!(out.contains("fig1"), "{out}");
        assert!(out.contains("smoke"), "{out}");
        let err = Command::Exp(ExpCmd::Status {
            scenario: Some("nope".into()),
            scale: None,
            cache_dir: None,
            manifest: None,
        })
        .execute()
        .unwrap_err();
        assert!(err.0.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn exp_run_smoke_uncached_executes() {
        let cmd = Command::Exp(ExpCmd::Run {
            scenario: "smoke".into(),
            scale: Some(Scale::Tiny),
            benches: Some(vec!["mcf".into()]),
            jobs: Some(2),
            shard: None,
            no_cache: true,
            cache_dir: None,
            json: true,
            json_out: None,
            sample: None,
        });
        let out = cmd.execute().unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["scenario"].as_str(), Some("smoke"));
        assert_eq!(v["simulated"].as_u64(), Some(2));
        assert_eq!(v["cache_hits"].as_u64(), Some(0));
        assert!(v["sweep"]["cells"][0]["stats"]["cycles"].as_u64().unwrap() > 0);
    }

    #[test]
    fn parses_serve_commands() {
        match parse(&["serve"]).unwrap() {
            Command::Serve {
                addr,
                workers,
                queue_depth,
                no_cache,
                cache_dir,
                request_timeout_ms,
                peers,
            } => {
                assert_eq!(addr, "127.0.0.1:8707");
                assert_eq!(workers, None);
                assert_eq!(queue_depth, None);
                assert!(!no_cache);
                assert_eq!(cache_dir, None);
                assert_eq!(request_timeout_ms, None);
                assert!(peers.is_empty());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "4",
            "--queue-depth",
            "16",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
            "--request-timeout-ms",
            "5000",
            "--peers",
            "10.0.0.1:8707, 10.0.0.2:8707",
        ])
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue_depth,
                no_cache,
                cache_dir,
                request_timeout_ms,
                peers,
            } => {
                assert_eq!(addr, "0.0.0.0:9000");
                assert_eq!(workers, Some(4));
                assert_eq!(queue_depth, Some(16));
                assert!(no_cache);
                assert_eq!(cache_dir.as_deref(), Some("/tmp/c"));
                assert_eq!(request_timeout_ms, Some(5000));
                assert_eq!(peers, vec!["10.0.0.1:8707", "10.0.0.2:8707"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--queue-depth", "none"]).is_err());
        assert!(parse(&["serve", "--request-timeout-ms", "0"]).is_err());
        assert!(parse(&["serve", "--addr"]).is_err());
    }

    #[test]
    fn serve_rejects_unbindable_addresses() {
        let err = Command::Serve {
            addr: "definitely-not-an-address".into(),
            workers: Some(1),
            queue_depth: Some(1),
            no_cache: true,
            cache_dir: None,
            request_timeout_ms: None,
            peers: Vec::new(),
        }
        .execute()
        .unwrap_err();
        assert!(err.0.contains("cannot serve"), "{err}");
    }

    #[test]
    fn parses_cluster_commands() {
        match parse(&[
            "cluster",
            "coord",
            "smoke",
            "--workers",
            "a:1,b:2",
            "--scale",
            "tiny",
            "--retries",
            "5",
            "--timeout-ms",
            "9000",
            "--backoff-ms",
            "10",
            "--no-steal",
            "--manifest",
            "m.json",
            "--json",
            "--json-out",
            "c.json",
        ])
        .unwrap()
        {
            Command::Cluster(ClusterCmd::Coord {
                scenario,
                workers,
                scale,
                benches,
                timeout_ms,
                retries,
                backoff_ms,
                no_steal,
                manifest,
                json,
                json_out,
            }) => {
                assert_eq!(scenario, "smoke");
                assert_eq!(workers, vec!["a:1".to_string(), "b:2".to_string()]);
                assert_eq!(scale, Some(Scale::Tiny));
                assert_eq!(benches, None);
                assert_eq!(timeout_ms, Some(9000));
                assert_eq!(retries, Some(5));
                assert_eq!(backoff_ms, Some(10));
                assert!(no_steal);
                assert_eq!(manifest.as_deref(), Some("m.json"));
                assert!(json);
                assert_eq!(json_out.as_deref(), Some("c.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Defaults, and a positional scenario after flag values.
        match parse(&[
            "cluster", "bench", "--fleets", "1,3", "--rate", "25.5", "smoke",
        ])
        .unwrap()
        {
            Command::Cluster(ClusterCmd::Bench {
                scenario,
                fleets,
                rate,
                duration_ms,
                json_out,
                ..
            }) => {
                assert_eq!(scenario, "smoke");
                assert_eq!(fleets, vec![1, 3]);
                assert!((rate - 25.5).abs() < 1e-9);
                assert_eq!(duration_ms, 2000);
                assert_eq!(json_out, "BENCH_cluster.json");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["cluster", "coord", "smoke"]).is_err());
        assert!(parse(&["cluster", "coord", "--workers", "a:1"]).is_err());
        assert!(parse(&["cluster", "bench", "--fleets", "0"]).is_err());
        assert!(parse(&["cluster", "frobnicate"]).is_err());
        match parse(&["exp", "status", "--manifest", "m.json"]).unwrap() {
            Command::Exp(ExpCmd::Status {
                scenario, manifest, ..
            }) => {
                // The --manifest value must not be read as a positional.
                assert_eq!(scenario, None);
                assert_eq!(manifest.as_deref(), Some("m.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn cluster_coord_runs_a_fleet_and_matches_exp_run() {
        let dir = std::env::temp_dir().join(format!("mtvp-cli-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fleet: Vec<mtvp_cluster::WorkerProc> = (0..2)
            .map(|i| mtvp_cluster::spawn_worker(&dir.join(format!("w{i}")), 1, Vec::new()).unwrap())
            .collect();
        let manifest = dir.join("manifest.json").to_string_lossy().into_owned();
        let out = Command::Cluster(ClusterCmd::Coord {
            scenario: "smoke".into(),
            workers: fleet.iter().map(|w| w.addr.clone()).collect(),
            scale: None,
            benches: None,
            timeout_ms: None,
            retries: None,
            backoff_ms: None,
            no_steal: false,
            manifest: Some(manifest.clone()),
            json: true,
            json_out: None,
        })
        .execute()
        .unwrap();
        for w in fleet {
            w.stop();
        }
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["total_cells"].as_u64(), Some(4));

        // The differential gate: the coordinator's "sweep" subtree is
        // byte-identical to a single-node `exp run --json` of the same
        // scenario.
        let single = Command::Exp(ExpCmd::Run {
            scenario: "smoke".into(),
            scale: None,
            benches: None,
            jobs: Some(2),
            shard: None,
            no_cache: true,
            cache_dir: None,
            json: true,
            json_out: None,
            sample: None,
        })
        .execute()
        .unwrap();
        let sv: serde_json::Value = serde_json::from_str(single.trim()).unwrap();
        assert_eq!(format!("{}", v["sweep"]), format!("{}", sv["sweep"]));

        let status = Command::Exp(ExpCmd::Status {
            scenario: None,
            scale: None,
            cache_dir: None,
            manifest: Some(manifest),
        })
        .execute()
        .unwrap();
        assert!(status.contains("4/4 cells done"), "{status}");
        assert!(status.contains("alive"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_lint_commands() {
        match parse(&["lint", "mcf", "gzip", "--scale", "tiny", "--json"]).unwrap() {
            Command::Lint {
                benches,
                all,
                scale,
                json,
                source,
                no_cache,
                ..
            } => {
                assert_eq!(benches, vec!["mcf".to_string(), "gzip".to_string()]);
                assert!(!all);
                assert_eq!(scale, Scale::Tiny);
                assert!(json);
                assert!(!source);
                assert!(!no_cache);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["lint", "--all", "--no-cache"]).unwrap() {
            Command::Lint {
                benches,
                all,
                no_cache,
                ..
            } => {
                assert!(benches.is_empty());
                assert!(all);
                assert!(no_cache);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["lint", "--source", "--root", "/somewhere"]).unwrap() {
            Command::Lint { source, root, .. } => {
                assert!(source);
                assert_eq!(root.as_deref(), Some("/somewhere"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Flag values must not be mistaken for bench names.
        match parse(&["lint", "--scale", "tiny", "mcf"]).unwrap() {
            Command::Lint { benches, .. } => assert_eq!(benches, vec!["mcf".to_string()]),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["lint"]).is_err());
        assert!(parse(&["lint", "--scale", "gigantic", "mcf"]).is_err());
    }

    #[test]
    fn lint_executes_and_emits_valid_json() {
        let cmd = parse(&["lint", "mcf", "matmul", "synth-3", "--json", "--no-cache"]).unwrap();
        let out = cmd.execute().expect("shipped kernels lint clean");
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["total_errors"].as_u64(), Some(0));
        let programs = v["programs"].as_array().unwrap();
        assert_eq!(programs.len(), 3);
        assert_eq!(programs[0]["bench"].as_str(), Some("mcf"));
        assert!(programs[0]["report"]["blocks"].as_u64().unwrap() > 0);
        // Unknown targets fail with a lint-specific message.
        let err = parse(&["lint", "nope", "--no-cache"])
            .unwrap()
            .execute()
            .unwrap_err();
        assert!(err.0.contains("unknown lint target"), "{err}");
    }

    #[test]
    fn parses_spawn_policy_flag() {
        match parse(&["run", "mcf", "--spawn-policy", "static", "--scale", "tiny"]).unwrap() {
            Command::Run { config, .. } => {
                assert_eq!(config.spawn_policy, mtvp_engine::SpawnPolicyKind::Static);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Default policy is dynamic.
        match parse(&["run", "mcf", "--scale", "tiny"]).unwrap() {
            Command::Run { config, .. } => {
                assert_eq!(config.spawn_policy, mtvp_engine::SpawnPolicyKind::Dynamic);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The static policy is rejected on machines with no spawn path.
        assert!(parse(&[
            "run",
            "mcf",
            "--mode",
            "baseline",
            "--spawn-policy",
            "static"
        ])
        .is_err());
        assert!(parse(&["run", "mcf", "--spawn-policy", "bogus"]).is_err());
    }

    #[test]
    fn spawn_hints_executes_and_emits_valid_json() {
        match parse(&["lint", "--spawn-hints", "mcf", "--json"]).unwrap() {
            Command::Lint { spawn_hints, .. } => assert!(spawn_hints),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["lint", "--spawn-hints", "--source", "mcf"]).is_err());
        let cmd = parse(&[
            "lint",
            "--spawn-hints",
            "mcf",
            "matmul",
            "--json",
            "--no-cache",
        ])
        .unwrap();
        let out = cmd.execute().expect("hints validate on shipped kernels");
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["unsound"].as_u64(), Some(0));
        let programs = v["programs"].as_array().unwrap();
        assert_eq!(programs.len(), 2);
        assert_eq!(programs[0]["bench"].as_str(), Some("mcf"));
        assert_eq!(programs[0]["validated"].as_bool(), Some(true));
        assert!(programs[0]["hints"]["sites"].as_array().is_some());
    }

    #[test]
    fn lint_source_runs_against_this_repository() {
        // The crate lives at crates/cli, so the repo root is two up.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let out = parse(&["lint", "--source", "--root", root])
            .unwrap()
            .execute()
            .expect("pipeline hot paths lint clean");
        assert!(out.contains("clean"), "{out}");
        // A bogus root has no pipeline sources to scan.
        assert!(parse(&["lint", "--source", "--root", "/nonexistent-mtvp"])
            .unwrap()
            .execute()
            .is_err());
    }

    #[test]
    fn list_and_disasm_execute() {
        let out = Command::List.execute().unwrap();
        assert!(out.contains("mcf"));
        assert!(out.contains("swim"));
        let out = Command::Disasm {
            bench: "mcf".into(),
            limit: 40,
        }
        .execute()
        .unwrap();
        assert!(out.contains("ld "), "{out}");
        assert!(out.contains("static instructions"));
        let err = Command::Disasm {
            bench: "nope".into(),
            limit: 10,
        }
        .execute()
        .unwrap_err();
        assert!(err.0.contains("unknown benchmark"));
    }

    #[test]
    fn run_executes_tiny() {
        let cmd = parse(&["run", "crafty", "--mode", "baseline", "--scale", "tiny"]).unwrap();
        let out = cmd.execute().unwrap();
        assert!(out.contains("useful IPC"), "{out}");
    }

    #[test]
    fn run_json_is_valid() {
        let cmd = parse(&[
            "run", "crafty", "--mode", "baseline", "--scale", "tiny", "--json",
        ])
        .unwrap();
        let out = cmd.execute().unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert!(v["ipc"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn parses_sample_flag() {
        match parse(&["run", "mcf", "--sample", "2000:20000:1000"]).unwrap() {
            Command::Run { config, .. } => {
                assert_eq!(
                    config.sampling,
                    Some(SamplingParams {
                        window: 2_000,
                        interval: 20_000,
                        warmup: 1_000,
                    })
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["exp", "run", "fig2", "--sample", "500:5000:100"]).unwrap() {
            Command::Exp(ExpCmd::Run {
                scenario, sample, ..
            }) => {
                assert_eq!(scenario, "fig2");
                assert_eq!(
                    sample,
                    Some(SamplingParams {
                        window: 500,
                        interval: 5_000,
                        warmup: 100,
                    })
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Malformed schedules, validate()-rejected schedules, and the
        // tracer conflict are all caught at parse time.
        assert!(parse(&["run", "mcf", "--sample", "2000:20000"]).is_err());
        assert!(parse(&["run", "mcf", "--sample", "0:20000:0"]).is_err());
        assert!(parse(&["run", "mcf", "--sample", "1000:5000:100", "--trace"]).is_err());
        assert!(parse(&["trace", "mcf", "--sample", "1000:5000:100"]).is_err());
    }

    #[test]
    fn run_sampled_executes_and_reports() {
        let dir = std::env::temp_dir().join(format!("mtvp-cli-sample-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sampled = |json: bool| Command::Run {
            bench: "gzip g".into(),
            config: {
                let mut c = SimConfig::new(Mode::Baseline);
                c.sampling = Some(SamplingParams {
                    window: 500,
                    interval: 2_000,
                    warmup: 200,
                });
                c
            },
            scale: Scale::Tiny,
            json,
            trace: None,
            no_cache: false,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
        };
        let out = sampled(true).execute().unwrap();
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert!(v["ipc"].as_f64().unwrap() > 0.0);
        let s = &v["sampling"];
        assert!(s["windows"].as_u64().unwrap() > 1, "{out}");
        let total = s["total_instrs"].as_u64().unwrap();
        let measured = s["measured_instrs"].as_u64().unwrap();
        assert!(0 < measured && measured < total, "{out}");
        assert!(s["ckpt_misses"].as_u64().unwrap() > 0, "{out}");
        assert_eq!(s["ckpt_hits"].as_u64(), Some(0), "{out}");
        // Second run reuses every checkpoint; the text report mentions it.
        let out2 = sampled(false).execute().unwrap();
        assert!(out2.contains("(estimated)"), "{out2}");
        assert!(out2.contains("0 misses"), "{out2}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
