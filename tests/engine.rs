//! Integration tests for the experiment engine: cache-key determinism,
//! resume correctness (a half-deleted cache reconstructs bit-identical
//! results), and scenario serde round-trips.

use mtvp_engine::{
    builtin, cell_descriptor, key_of, CacheMode, CoreKind, Engine, EngineOptions, L3Params, Mode,
    SamplingParams, Scenario, SimConfig, SpawnPolicyKind,
};
use mtvp_pipeline::{PredictorKind, SelectorKind};
use mtvp_workloads::Scale;
use serde::{Serialize, Value};
use std::path::PathBuf;

/// A unique scratch cache directory per test (removed on drop).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("mtvp-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn disk_engine(dir: &ScratchDir) -> Engine {
    Engine::new(EngineOptions {
        cache: CacheMode::Disk(dir.0.clone()),
        jobs: Some(2),
        shard: None,
        progress: false,
    })
}

/// Every field of `SimConfig` must feed the cache key: a change in any
/// one of them yields a different key, so a stale cell can never be
/// served for a different experiment.
#[test]
fn cache_key_depends_on_every_config_field() {
    let base = SimConfig::new(Mode::Mtvp);
    let base_key = key_of(&cell_descriptor("mcf", &base, Scale::Tiny));

    // Same inputs, same key — twice.
    assert_eq!(
        base_key,
        key_of(&cell_descriptor("mcf", &base, Scale::Tiny))
    );

    type Mutation = Box<dyn Fn(&mut SimConfig)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("mode", Box::new(|c| c.mode = Mode::MtvpNoStall)),
        ("contexts", Box::new(|c| c.contexts = 4)),
        ("predictor", Box::new(|c| c.predictor = PredictorKind::Dfcm)),
        ("selector", Box::new(|c| c.selector = SelectorKind::Always)),
        ("spawn_latency", Box::new(|c| c.spawn_latency = 16)),
        ("store_buffer", Box::new(|c| c.store_buffer = 64)),
        (
            "max_values_per_load",
            Box::new(|c| {
                c.mode = Mode::MultiValue;
                c.max_values_per_load = 2;
            }),
        ),
        ("inst_limit", Box::new(|c| c.inst_limit = 1_000_000)),
        ("max_cycles", Box::new(|c| c.max_cycles = 1_000_000)),
        ("prefetcher", Box::new(|c| c.prefetcher = false)),
        ("mshrs", Box::new(|c| c.mshrs = 4)),
        ("warm_start", Box::new(|c| c.warm_start = false)),
        ("fast_forward", Box::new(|c| c.fast_forward = false)),
        ("cores", Box::new(|c| c.cores = 2)),
        (
            "l3",
            Box::new(|c| {
                c.l3 = L3Params {
                    kb: 512,
                    assoc: 8,
                    latency: 20,
                }
            }),
        ),
        ("interconnect_hop", Box::new(|c| c.interconnect_hop = 9)),
        ("cross_core_spawn", Box::new(|c| c.cross_core_spawn = true)),
        (
            "co_workloads",
            Box::new(|c| c.co_workloads = vec!["synth:1".to_string()]),
        ),
        ("core", Box::new(|c| c.core = CoreKind::InOrderScalar)),
        (
            "spawn_policy",
            Box::new(|c| c.spawn_policy = SpawnPolicyKind::Static),
        ),
        (
            "sampling",
            Box::new(|c| {
                c.sampling = Some(SamplingParams {
                    window: 2_000,
                    interval: 20_000,
                    warmup: 1_000,
                })
            }),
        ),
    ];
    // A field added to SimConfig must come with a mutation here.
    let Value::Map(fields) = base.to_value() else {
        panic!("SimConfig serializes to a map");
    };
    for (field, _) in &fields {
        assert!(
            mutations.iter().any(|(name, _)| name == field),
            "field `{field}` has no cache-key mutation"
        );
    }
    for (field, mutate) in &mutations {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        assert_ne!(cfg, base, "mutation `{field}` must change the config");
        let key = key_of(&cell_descriptor("mcf", &cfg, Scale::Tiny));
        assert_ne!(key, base_key, "field `{field}` is missing from the key");
    }

    // Benchmark and scale are part of the identity too.
    assert_ne!(
        base_key,
        key_of(&cell_descriptor("mesa", &base, Scale::Tiny))
    );
    assert_ne!(
        base_key,
        key_of(&cell_descriptor("mcf", &base, Scale::Small))
    );
}

fn smoke_configs() -> Vec<(String, SimConfig)> {
    let mut mtvp = SimConfig::oracle(Mode::Mtvp);
    mtvp.contexts = 4;
    vec![
        ("base".to_string(), SimConfig::new(Mode::Baseline)),
        ("mtvp4".to_string(), mtvp),
    ]
}

fn keep(w: &mtvp_workloads::Workload) -> bool {
    matches!(w.name, "mcf" | "mesa")
}

/// Interrupted-sweep resume: after deleting half the cached cells, a
/// re-run simulates only the missing ones and reconstructs a sweep
/// bit-identical to both the cold cached run and a cache-less run.
#[test]
fn half_deleted_cache_resumes_bit_identical() {
    let dir = ScratchDir::new("resume");
    let configs = smoke_configs();

    // Ground truth without any cache in the loop.
    let uncached = Engine::ephemeral().run_cells(&configs, Scale::Tiny, keep);

    // Cold run populates the cache.
    let engine = disk_engine(&dir);
    let cold = engine.run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(cold.simulated, 4);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(
        cold.sweep, uncached.sweep,
        "caching must not change results"
    );

    // Simulate an interrupted sweep: delete half the persisted cells.
    let mut cells: Vec<PathBuf> = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 4, "expected one JSON entry per cell");
    for victim in cells.iter().step_by(2) {
        std::fs::remove_file(victim).unwrap();
    }

    // Resume: only the deleted half is re-simulated; results identical.
    let resumed = engine.run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(resumed.cache_hits, 2);
    assert_eq!(resumed.simulated, 2);
    assert_eq!(
        resumed.sweep, uncached.sweep,
        "resume must be bit-identical"
    );

    // A completed scenario re-runs with zero simulations.
    let warm = engine.run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.cache_hits, 4);
    assert_eq!(warm.traces_built, 0);
    assert_eq!(warm.sweep, uncached.sweep);
}

/// The `interference` mix shape: a solo MTVP machine versus a 4-core
/// CMP whose siblings run generated co-workloads under a pressured
/// shared L3, with and without cross-core spawning.
fn interference_configs() -> Vec<(String, SimConfig)> {
    let mut solo = SimConfig::new(Mode::Mtvp);
    solo.contexts = 4;
    let mut pressured = solo.clone();
    pressured.cores = 4;
    pressured.l3 = L3Params {
        kb: 512,
        assoc: 8,
        latency: 50,
    };
    pressured.co_workloads = vec!["phases:5".to_string(), "phases:6".to_string()];
    let mut xspawn = pressured.clone();
    xspawn.cross_core_spawn = true;
    vec![
        ("solo".to_string(), solo),
        ("pressured".to_string(), pressured),
        ("pressured+xspawn".to_string(), xspawn),
    ]
}

/// A multiprogrammed CMP sweep is deterministic end to end: the sweep
/// JSON is byte-identical across `--jobs 1` vs parallel execution,
/// across cold vs warm cache, and across shards executed out of order.
#[test]
fn cmp_interference_mix_is_deterministic() {
    let dir = ScratchDir::new("cmp-mix");
    let configs = interference_configs();
    for (label, cfg) in &configs {
        cfg.validate().unwrap_or_else(|e| panic!("{label}: {e:?}"));
    }

    let serial = Engine::new(EngineOptions {
        cache: CacheMode::Off,
        jobs: Some(1),
        shard: None,
        progress: false,
    })
    .run_cells(&configs, Scale::Tiny, keep);
    let gold = serde_json::to_string(&serial.sweep).unwrap();

    let parallel = Engine::new(EngineOptions {
        cache: CacheMode::Off,
        jobs: Some(4),
        shard: None,
        progress: false,
    })
    .run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(
        gold,
        serde_json::to_string(&parallel.sweep).unwrap(),
        "--jobs must not change the sweep"
    );

    // Cold populate, then warm: byte-identical JSON, zero simulations.
    let engine = disk_engine(&dir);
    let cold = engine.run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(cold.simulated, 6);
    assert_eq!(gold, serde_json::to_string(&cold.sweep).unwrap());
    let warm = engine.run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.cache_hits, 6);
    assert_eq!(gold, serde_json::to_string(&warm.sweep).unwrap());

    // Shards executed out of order fill the same cache; the final warm
    // read-back is still byte-identical.
    let shard_dir = ScratchDir::new("cmp-mix-shards");
    for i in [2usize, 0, 1] {
        Engine::new(EngineOptions {
            cache: CacheMode::Disk(shard_dir.0.clone()),
            jobs: Some(2),
            shard: Some((i, 3)),
            progress: false,
        })
        .run_cells(&configs, Scale::Tiny, keep);
    }
    let merged = disk_engine(&shard_dir).run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(merged.simulated, 0);
    assert_eq!(merged.cache_hits, 6);
    assert_eq!(gold, serde_json::to_string(&merged.sweep).unwrap());
}

/// Scenario definitions survive a serde round-trip exactly, including
/// grids with overridden axes, and reject malformed documents.
#[test]
fn scenario_round_trips_through_json() {
    for name in [
        "fig1",
        "fig2",
        "storebuf",
        "multivalue",
        "ablation",
        "smoke",
    ] {
        let scenario = builtin(name).unwrap();
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        let back =
            Scenario::from_json(&json).unwrap_or_else(|e| panic!("{name} round-trip failed: {e}"));
        assert_eq!(back, scenario, "{name} changed across serde round-trip");
        // The expansion (the part the engine consumes) matches too.
        assert_eq!(back.configs().unwrap(), scenario.configs().unwrap());
    }
    assert!(Scenario::from_json("{]").is_err());
    assert!(Scenario::from_json("{\"title\": \"no name\"}").is_err());
}

/// The `--shard i/n` partition is complete and disjoint, and shard
/// assignment is content-addressed (stable across engines).
#[test]
fn shard_partition_is_complete_and_disjoint() {
    let dir = ScratchDir::new("shard");
    let configs = smoke_configs();
    let full = Engine::ephemeral().run_cells(&configs, Scale::Tiny, keep);

    let mut union: Vec<(String, String)> = Vec::new();
    for i in 0..3 {
        let engine = Engine::new(EngineOptions {
            cache: CacheMode::Disk(dir.0.clone()),
            jobs: None,
            shard: Some((i, 3)),
            progress: false,
        });
        let part = engine.run_cells(&configs, Scale::Tiny, keep);
        assert_eq!(part.total_cells, 4);
        assert_eq!(part.simulated + part.skipped_by_shard, 4);
        for c in &part.sweep.cells {
            union.push((c.bench.clone(), c.config.clone()));
        }
    }
    union.sort();
    let mut expected: Vec<(String, String)> = full
        .sweep
        .cells
        .iter()
        .map(|c| (c.bench.clone(), c.config.clone()))
        .collect();
    expected.sort();
    assert_eq!(union, expected, "shards must partition the sweep exactly");

    // After all shards ran against one cache dir, the whole sweep is warm.
    let warm = disk_engine(&dir).run_cells(&configs, Scale::Tiny, keep);
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.cache_hits, 4);
    assert_eq!(warm.sweep, full.sweep);
}
