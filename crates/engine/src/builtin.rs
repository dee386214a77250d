//! The paper's figures as named built-in scenarios.
//!
//! Labels match the historical `mtvp-bench` binaries exactly, so JSON
//! artifacts and cached cells stay comparable across the refactor.

use crate::scenario::{ConfigGrid, Scenario};
use mtvp_core::{CoreKind, L3Params, Mode, SamplingParams, SpawnPolicyKind};
use mtvp_pipeline::PredictorKind;
use mtvp_workloads::Scale;

/// All built-in scenarios, in presentation order.
pub fn builtin_scenarios() -> Vec<Scenario> {
    vec![
        fig1(),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        fig6(),
        storebuf(),
        multivalue(),
        predictors(),
        ablation(),
        sampled(),
        baseline(),
        hinted(),
        cmp_scaling(),
        mix_matrix(),
        interference(),
        smoke(),
    ]
}

/// Look up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

fn with_series(mut s: Scenario, baseline: &str, series: &[&str]) -> Scenario {
    s.baseline = Some(baseline.to_string());
    s.series = series.iter().map(|x| x.to_string()).collect();
    s
}

fn fig1() -> Scenario {
    let mut s = Scenario::new(
        "fig1",
        "Figure 1: oracle value-prediction potential",
        "Percent change in useful IPC for STVP and MTVP x {2,4,8} threads with an \
         oracle predictor under the idealized Section 5.1 assumptions (1-cycle \
         spawn, unbounded store buffer), ILP-pred load selection.",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            oracle: true,
            ..ConfigGrid::new("stvp", Mode::Stvp)
        },
        ConfigGrid {
            oracle: true,
            contexts: vec![2, 4, 8],
            ..ConfigGrid::new("mtvp{contexts}", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["stvp", "mtvp2", "mtvp4", "mtvp8"])
}

fn fig2() -> Scenario {
    let mut s = Scenario::new(
        "fig2",
        "Figure 2: thread-spawn latency sensitivity",
        "Suite-average speedups for STVP and MTVP x {2,4,8} at 1-, 8- and \
         16-cycle spawn latencies (oracle predictor, ILP-pred).",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            oracle: true,
            ..ConfigGrid::new("stvp", Mode::Stvp)
        },
        ConfigGrid {
            oracle: true,
            contexts: vec![2, 4, 8],
            spawn_latency: vec![1, 8, 16],
            ..ConfigGrid::new("mtvp{contexts}@{spawn}", Mode::Mtvp)
        },
    ];
    s.baseline = Some("base".to_string());
    s
}

fn fig3() -> Scenario {
    let mut s = Scenario::new(
        "fig3",
        "Figure 3: realistic Wang-Franklin predictor",
        "Change in useful IPC with the realistic Wang-Franklin value predictor \
         (8-cycle spawn latency, 128-entry store buffer, ILP-pred).",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid::new("stvp", Mode::Stvp),
        ConfigGrid {
            contexts: vec![2, 4, 8],
            ..ConfigGrid::new("mtvp{contexts}", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["stvp", "mtvp2", "mtvp4", "mtvp8"])
}

fn fig4() -> Scenario {
    let mut s = Scenario::new(
        "fig4",
        "Figure 4: fetch policy after a spawn",
        "Single fetch path (the default) vs letting the parent keep fetching \
         (no stall, Section 5.5), Wang-Franklin predictor, 8 threads.",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid::new("stvp", Mode::Stvp),
        ConfigGrid::new("mtvp sfp", Mode::Mtvp),
        ConfigGrid::new("no stall", Mode::MtvpNoStall),
    ];
    with_series(s, "base", &["stvp", "mtvp sfp", "no stall"])
}

fn fig5() -> Scenario {
    let mut s = Scenario::new(
        "fig5",
        "Figure 5: multiple-value headroom",
        "Fraction of followed predictions whose primary value was wrong but \
         whose correct value was present and over threshold, on the mtvp8 \
         Wang-Franklin configuration (Section 5.6).",
    );
    s.grids = vec![ConfigGrid::new("mtvp8", Mode::Mtvp)];
    s
}

fn fig6() -> Scenario {
    let mut s = Scenario::new(
        "fig6",
        "Figure 6: checkpoint-architecture comparison",
        "The idealized wide-window machine (8K ROB), the best MTVP \
         configuration, and spawn-only threading (Section 5.7).",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid::new("wide window", Mode::WideWindow),
        ConfigGrid::new("best mtvp", Mode::Mtvp),
        ConfigGrid::new("spawn only", Mode::SpawnOnly),
    ];
    with_series(s, "base", &["wide window", "best mtvp", "spawn only"])
}

fn storebuf() -> Scenario {
    let mut s = Scenario::new(
        "storebuf",
        "Store-buffer size sweep (Section 5.3)",
        "Speculative store buffer sensitivity on mtvp8: the paper reports \
         performance tails off at 64 entries and below while 128 is near the \
         largest buffer.",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            store_buffer: vec![4, 8, 16, 32, 64, 128, 256, 512],
            ..ConfigGrid::new("sb{sb}", Mode::Mtvp)
        },
    ];
    s.baseline = Some("base".to_string());
    s
}

fn multivalue() -> Scenario {
    let mut s = Scenario::new(
        "multivalue",
        "Multiple-value MTVP (Section 5.6)",
        "Single- vs multiple-value MTVP on the Section 5.6 candidate \
         benchmarks (swim, parser): liberal confidence, L3-miss-oracle \
         selector, several values followed per load.",
    );
    s.benches = vec!["swim".to_string(), "parser".to_string()];
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid::new("single-value", Mode::Mtvp),
        ConfigGrid::new("multi-value", Mode::MultiValue),
    ];
    with_series(s, "base", &["single-value", "multi-value"])
}

fn predictors() -> Scenario {
    let mut s = Scenario::new(
        "predictors",
        "Predictor comparison (Section 5.4)",
        "Wang-Franklin hybrid vs order-3 DFCM vs classic stride/last-value, \
         each driving mtvp8.",
    );
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            predictor: Some(PredictorKind::WangFranklin),
            ..ConfigGrid::new("wang-franklin", Mode::Mtvp)
        },
        ConfigGrid {
            predictor: Some(PredictorKind::Dfcm),
            ..ConfigGrid::new("dfcm", Mode::Mtvp)
        },
        ConfigGrid {
            predictor: Some(PredictorKind::Stride),
            ..ConfigGrid::new("stride", Mode::Mtvp)
        },
        ConfigGrid {
            predictor: Some(PredictorKind::LastValue),
            ..ConfigGrid::new("last-value", Mode::Mtvp)
        },
    ];
    with_series(
        s,
        "base",
        &["wang-franklin", "dfcm", "stride", "last-value"],
    )
}

fn ablation() -> Scenario {
    let mut s = Scenario::new(
        "ablation",
        "Reproduction ablations (DESIGN.md Section 6)",
        "Paired baseline/mtvp8 machines under prefetcher, MSHR and warm-start \
         ablations on a representative benchmark subset.",
    );
    s.benches = [
        "mcf", "vpr r", "gcc 1", "crafty", "mgrid", "applu", "art 1", "mesa",
    ]
    .iter()
    .map(|b| b.to_string())
    .collect();
    let mut grids = Vec::new();
    for (tag, prefetch, mshrs, warm) in [
        ("default", true, 16usize, true),
        ("no-prefetch", false, 16, true),
        ("mshr4", true, 4, true),
        ("mshr64", true, 64, true),
        ("cold-start", true, 16, false),
    ] {
        for (prefix, mode) in [("base", Mode::Baseline), ("mtvp", Mode::Mtvp)] {
            grids.push(ConfigGrid {
                prefetcher: Some(prefetch),
                mshrs: vec![mshrs],
                warm_start: Some(warm),
                ..ConfigGrid::new(format!("{prefix}/{tag}"), mode)
            });
        }
    }
    s.grids = grids;
    s
}

/// The fig3 machines under the default two-tier sampling schedule:
/// estimates, not exact runs — `fig3` cells are the differential
/// reference for the measured error (DESIGN.md §13).
fn sampled() -> Scenario {
    let sp = SamplingParams {
        window: 2_000,
        interval: 20_000,
        warmup: 1_000,
    };
    let mut s = Scenario::new(
        "sampled",
        "Two-tier sampled simulation (DESIGN.md Section 13)",
        "The realistic Wang-Franklin machines of fig3 under the default \
         2000:20000:1000 sampling schedule: functional fast-forward between \
         checkpointed detailed windows. Statistics are extrapolated \
         estimates; run `fig3` on the same benchmarks for the full-detailed \
         reference the error bound is measured against.",
    );
    s.grids = vec![
        ConfigGrid {
            sampling: Some(sp),
            ..ConfigGrid::new("base", Mode::Baseline)
        },
        ConfigGrid {
            sampling: Some(sp),
            ..ConfigGrid::new("stvp", Mode::Stvp)
        },
        ConfigGrid {
            contexts: vec![2, 4, 8],
            sampling: Some(sp),
            ..ConfigGrid::new("mtvp{contexts}", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["stvp", "mtvp2", "mtvp4", "mtvp8"])
}

/// The second core module of the microarchitecture framework, run
/// through the same sweep machinery as every other scenario.
fn baseline() -> Scenario {
    let mut s = Scenario::new(
        "baseline",
        "Core-module comparison: in-order scalar vs out-of-order",
        "The in-order scalar core next to the SMT out-of-order machine it is \
         the sanity floor for (both in baseline mode, no value prediction) \
         plus the realistic mtvp4 machine. Exists to exercise the pluggable \
         core axis of the framework end to end (DESIGN.md Section 15).",
    );
    s.grids = vec![
        ConfigGrid {
            core: CoreKind::InOrderScalar,
            ..ConfigGrid::new("inorder", Mode::Baseline)
        },
        ConfigGrid::new("ooo", Mode::Baseline),
        ConfigGrid {
            contexts: vec![4],
            ..ConfigGrid::new("mtvp4", Mode::Mtvp)
        },
    ];
    with_series(s, "inorder", &["ooo", "mtvp4"])
}

/// Dynamic vs hint-guided spawn policy: the same realistic mtvp4 machine
/// with the default always-consider policy next to one whose spawns are
/// gated by the static spawn-site analysis (DESIGN.md Section 16).
fn hinted() -> Scenario {
    let mut s = Scenario::new(
        "hinted",
        "Spawn policy: dynamic vs static hints (DESIGN.md Section 16)",
        "The realistic Wang-Franklin mtvp4 machine under the default dynamic \
         spawn policy and under the static hint-guided policy, where only \
         loads inside statically selected spawn regions (predictable \
         fork-point live-ins, sufficient coverage) may spawn. A baseline \
         anchors the speedup comparison.",
    );
    s.scale = Some(Scale::Tiny);
    s.benches = vec![
        "mcf".to_string(),
        "swim".to_string(),
        "mgrid".to_string(),
        "art 1".to_string(),
    ];
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            contexts: vec![4],
            ..ConfigGrid::new("dynamic", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            spawn_policy: Some(SpawnPolicyKind::Static),
            ..ConfigGrid::new("static-hints", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["dynamic", "static-hints"])
}

/// CMP scaling: the realistic mtvp4 machine with a growing pool of idle
/// sibling cores donating remote spawn slots over the shared L3
/// (DESIGN.md Section 17).
fn cmp_scaling() -> Scenario {
    let mut s = Scenario::new(
        "cmp-scaling",
        "CMP scaling: idle siblings as remote spawn slots (DESIGN.md Section 17)",
        "The realistic Wang-Franklin mtvp4 machine alone, then on 2- and \
         4-core chips whose idle siblings donate their contexts as remote \
         spawn slots. Cross-core spawn and reconcile each pay two \
         interconnect hops; all cores share one L3. A single-core machine \
         anchors the speedup comparison and doubles as the differential \
         reference for the cores=1 bit-identity guarantee.",
    );
    s.scale = Some(Scale::Tiny);
    s.benches = vec![
        "mcf".to_string(),
        "swim".to_string(),
        "art 1".to_string(),
        "mgrid".to_string(),
    ];
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            contexts: vec![4],
            ..ConfigGrid::new("solo", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            cores: vec![2, 4],
            cross_core_spawn: Some(true),
            ..ConfigGrid::new("cmp{cores}c", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["solo", "cmp2c", "cmp4c"])
}

/// The multiprogrammed mix matrix: measured benchmarks co-scheduled with
/// generated co-runner workloads over the shared L3 (DESIGN.md Section 17).
fn mix_matrix() -> Scenario {
    let mut s = Scenario::new(
        "mix-matrix",
        "Mix matrix: measured bench x generated co-runner (DESIGN.md Section 17)",
        "Each measured benchmark on a 2-core chip next to one generated \
         co-runner drawn from the seeded synth and phase-program families, \
         contending for a halved shared L3. The solo column isolates the \
         co-runner's interference; seeds are part of the cache key, so every \
         mix cell is exactly reproducible (see EXPERIMENTS.md for how to \
         cite a mix).",
    );
    s.scale = Some(Scale::Tiny);
    s.benches = vec!["mcf".to_string(), "swim".to_string(), "mesa".to_string()];
    let half_l3 = L3Params {
        kb: 2048,
        assoc: 16,
        latency: 50,
    };
    s.grids = vec![
        ConfigGrid {
            contexts: vec![4],
            l3: Some(half_l3),
            ..ConfigGrid::new("solo", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            cores: vec![2],
            l3: Some(half_l3),
            co_workloads: vec!["synth:11".to_string()],
            ..ConfigGrid::new("vs-synth", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            cores: vec![2],
            l3: Some(half_l3),
            co_workloads: vec!["phases:23".to_string()],
            ..ConfigGrid::new("vs-phases", Mode::Mtvp)
        },
    ];
    with_series(s, "solo", &["vs-synth", "vs-phases"])
}

/// Interference under pressure: phase-changing co-runners squeezing a
/// small shared L3 while the primary also borrows a third, idle core for
/// cross-core spawns (DESIGN.md Section 17).
fn interference() -> Scenario {
    let mut s = Scenario::new(
        "interference",
        "Interference: phase-changing co-runners on a small shared L3",
        "A 4-core chip under memory pressure: the measured mtvp4 machine, \
         two phase-changing co-runners cycling through memory-bound, \
         compute-bound and store-heavy profiles, and one idle core donating \
         remote spawn slots — all over a deliberately small shared L3. The \
         no-spawn twin separates capacity interference from the value of \
         cross-core spawning under that interference.",
    );
    s.scale = Some(Scale::Tiny);
    s.benches = vec!["mcf".to_string(), "art 1".to_string()];
    let small_l3 = L3Params {
        kb: 512,
        assoc: 8,
        latency: 50,
    };
    s.grids = vec![
        ConfigGrid {
            contexts: vec![4],
            l3: Some(small_l3),
            ..ConfigGrid::new("solo", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            cores: vec![4],
            l3: Some(small_l3),
            co_workloads: vec!["phases:5".to_string(), "phases:6".to_string()],
            ..ConfigGrid::new("pressured", Mode::Mtvp)
        },
        ConfigGrid {
            contexts: vec![4],
            cores: vec![4],
            l3: Some(small_l3),
            co_workloads: vec!["phases:5".to_string(), "phases:6".to_string()],
            cross_core_spawn: Some(true),
            ..ConfigGrid::new("pressured+xspawn", Mode::Mtvp)
        },
    ];
    with_series(s, "solo", &["pressured", "pressured+xspawn"])
}

/// The tiny CI scenario: two benchmarks, a baseline and one oracle MTVP
/// machine. Fast enough to run twice in the `exp-smoke` job.
fn smoke() -> Scenario {
    let mut s = Scenario::new(
        "smoke",
        "CI smoke: two benches, base vs oracle mtvp4",
        "A minimal cache-exercising scenario for CI and local sanity checks.",
    );
    s.scale = Some(Scale::Tiny);
    s.benches = vec!["mcf".to_string(), "mesa".to_string()];
    s.grids = vec![
        ConfigGrid::new("base", Mode::Baseline),
        ConfigGrid {
            oracle: true,
            contexts: vec![4],
            ..ConfigGrid::new("mtvp4", Mode::Mtvp)
        },
    ];
    with_series(s, "base", &["mtvp4"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_expands_cleanly() {
        let all = builtin_scenarios();
        assert_eq!(all.len(), 17);
        for s in &all {
            let configs = s.configs().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!configs.is_empty(), "{} expands to nothing", s.name);
        }
        assert!(builtin("fig3").is_some());
        assert!(builtin("nope").is_none());
        // The sampled scenario sets the schedule on every grid point and
        // still validates (validate() runs inside configs()).
        let sampled = builtin("sampled").unwrap().configs().unwrap();
        assert!(sampled.iter().all(|(_, c)| c.sampling.is_some()));
    }

    #[test]
    fn labels_match_the_legacy_binaries() {
        let labels = |name: &str| -> Vec<String> {
            builtin(name)
                .unwrap()
                .configs()
                .unwrap()
                .into_iter()
                .map(|(l, _)| l)
                .collect()
        };
        assert_eq!(labels("fig1"), ["base", "stvp", "mtvp2", "mtvp4", "mtvp8"]);
        assert!(labels("fig2").contains(&"mtvp4@16".to_string()));
        assert_eq!(labels("fig4"), ["base", "stvp", "mtvp sfp", "no stall"]);
        assert_eq!(
            labels("fig6"),
            ["base", "wide window", "best mtvp", "spawn only"]
        );
        assert!(labels("storebuf").contains(&"sb512".to_string()));
        assert!(labels("ablation").contains(&"mtvp/no-prefetch".to_string()));
        assert_eq!(labels("predictors").len(), 5);
    }

    #[test]
    fn fig_configs_match_legacy_parameterizations() {
        let fig1 = builtin("fig1").unwrap().configs().unwrap();
        let stvp = &fig1.iter().find(|(l, _)| l == "stvp").unwrap().1;
        assert_eq!(stvp.predictor, PredictorKind::Oracle);
        assert_eq!(stvp.spawn_latency, 1);
        let fig3 = builtin("fig3").unwrap().configs().unwrap();
        let mtvp4 = &fig3.iter().find(|(l, _)| l == "mtvp4").unwrap().1;
        assert_eq!(mtvp4.predictor, PredictorKind::WangFranklin);
        assert_eq!(mtvp4.contexts, 4);
        assert_eq!(mtvp4.spawn_latency, 8);
        let abl = builtin("ablation").unwrap().configs().unwrap();
        let cold = &abl.iter().find(|(l, _)| l == "mtvp/cold-start").unwrap().1;
        assert!(!cold.warm_start);
        assert_eq!(cold.mshrs, 16);
    }

    #[test]
    fn hinted_scenario_selects_the_static_policy() {
        let configs = builtin("hinted").unwrap().configs().unwrap();
        let stat = &configs.iter().find(|(l, _)| l == "static-hints").unwrap().1;
        assert_eq!(stat.spawn_policy, SpawnPolicyKind::Static);
        assert_eq!(stat.contexts, 4);
        let dynamic = &configs.iter().find(|(l, _)| l == "dynamic").unwrap().1;
        assert_eq!(dynamic.spawn_policy, SpawnPolicyKind::Dynamic);
        // Apart from the policy the two machines are identical.
        let mut twin = stat.clone();
        twin.spawn_policy = SpawnPolicyKind::Dynamic;
        assert_eq!(&twin, dynamic);
    }

    #[test]
    fn cmp_scenarios_lower_their_topologies() {
        let scaling = builtin("cmp-scaling").unwrap().configs().unwrap();
        let cmp4 = &scaling.iter().find(|(l, _)| l == "cmp4c").unwrap().1;
        assert_eq!(cmp4.cores, 4);
        assert!(cmp4.cross_core_spawn);
        assert_eq!(cmp4.idle_cores(), 3);
        assert!(cmp4.shared_l3_spec().is_some());
        let solo = &scaling.iter().find(|(l, _)| l == "solo").unwrap().1;
        assert_eq!(solo.cores, 1);
        assert!(solo.shared_l3_spec().is_none());

        let mix = builtin("mix-matrix").unwrap().configs().unwrap();
        let vs = &mix.iter().find(|(l, _)| l == "vs-synth").unwrap().1;
        assert_eq!(vs.co_workloads, vec!["synth:11".to_string()]);
        assert_eq!(vs.l3.kb, 2048);
        assert_eq!(vs.idle_cores(), 0);

        let intf = builtin("interference").unwrap().configs().unwrap();
        let xs = &intf
            .iter()
            .find(|(l, _)| l == "pressured+xspawn")
            .unwrap()
            .1;
        assert_eq!(xs.cores, 4);
        assert_eq!(xs.co_workloads.len(), 2);
        assert_eq!(xs.idle_cores(), 1);
        // The borrowed sibling shows up as remote context slots.
        let p = xs.to_pipeline_config();
        assert_eq!(p.remote_contexts, xs.contexts);
        assert_eq!(p.remote_spawn_extra, 2 * xs.interconnect_hop);
        let np = &intf.iter().find(|(l, _)| l == "pressured").unwrap().1;
        assert_eq!(np.to_pipeline_config().remote_contexts, 0);
    }

    #[test]
    fn baseline_scenario_selects_the_in_order_core() {
        let configs = builtin("baseline").unwrap().configs().unwrap();
        let inorder = &configs.iter().find(|(l, _)| l == "inorder").unwrap().1;
        assert_eq!(inorder.core, CoreKind::InOrderScalar);
        assert_eq!(inorder.to_pipeline_config().rename_width, 1);
        let ooo = &configs.iter().find(|(l, _)| l == "ooo").unwrap().1;
        assert_eq!(ooo.core, CoreKind::OutOfOrder);
    }
}
