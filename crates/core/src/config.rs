//! Experiment-level configuration: the machine modes of the paper's
//! evaluation, lowered onto `mtvp-pipeline`'s mechanism-level switches,
//! and a validator that rejects nonsensical combinations before they burn
//! simulation time. The names and parsers of the knobs live in the
//! [`KNOBS`](crate::KNOBS) table.

use mtvp_pipeline::{FetchPolicy, PipelineConfig, PredictorKind, SelectorKind, VpConfig};
use mtvp_workloads::Scale;
use serde::{Deserialize, Serialize};

/// An invalid configuration, or an unknown word in the configuration
/// vocabulary (mode/predictor/selector/scale names).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parse a workload scale name (`tiny`, `small`, `full`).
pub fn parse_scale(s: &str) -> Result<Scale, ConfigError> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(ConfigError(format!(
            "unknown scale `{other}` (tiny|small|full)"
        ))),
    }
}

/// The machine variants evaluated in the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Table 1 machine, no value prediction.
    Baseline,
    /// Single-threaded value prediction with selective reissue.
    Stvp,
    /// Multithreaded value prediction, single fetch path (§3.3 — the
    /// paper's default MTVP; falls back to STVP when no context is free).
    Mtvp,
    /// MTVP with the aggressive no-stall fetch policy (§5.5).
    MtvpNoStall,
    /// Thread spawning at selected loads *without* value prediction — the
    /// split-window comparator of §5.7.
    SpawnOnly,
    /// The idealized checkpoint/wide-window machine of §5.7: 8K-entry ROB
    /// and queues, unlimited rename registers, no value prediction.
    WideWindow,
    /// Multiple-value MTVP (§5.6): liberal Wang–Franklin confidence, the
    /// cache-level-oracle selector, several values followed per load.
    MultiValue,
}

/// The core module (stage-set composition) an experiment runs on. Each
/// variant names a monomorphized `StagedCore` composition in
/// `mtvp-pipeline`; the engine selects the machine type from this axis
/// and everything downstream (sampling, serve, cluster) is generic over
/// it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreKind {
    /// The paper's SMT out-of-order core (`SmtOooStages`) — supports
    /// every [`Mode`].
    OutOfOrder,
    /// The single-context in-order scalar baseline (`InOrderStages`) —
    /// supports [`Mode::Baseline`] only (it has no spawn policy, rename
    /// windows, or value-prediction hardware).
    InOrderScalar,
}

/// How spawn candidates are chosen at the load-rename decision point.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpawnPolicyKind {
    /// The paper's dynamic policy: every renamed load consults the value
    /// predictor and selector (`ValuePredictSpawn`).
    Dynamic,
    /// Hint-guided: only loads the static spawn-site analysis selected
    /// are considered (`StaticHintSpawn` + a cached `SpawnHints`
    /// artifact computed per program).
    Static,
}

/// Two-tier sampled-simulation schedule: functionally interpret between
/// sample windows, simulate in detail only inside them.
///
/// Window `k` measures architectural instructions
/// `[k·interval, k·interval + window)`; detailed execution starts
/// `warmup` instructions earlier (clamped at program start) to prime
/// caches, branch predictors and value predictors without counting
/// statistics. Parsed from the CLI as `window:interval:warmup`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingParams {
    /// Measured (detailed, counted) instructions per window.
    pub window: u64,
    /// Instructions from one window start to the next.
    pub interval: u64,
    /// Detailed-but-uncounted instructions run before each window.
    pub warmup: u64,
}

impl SamplingParams {
    /// Parse the CLI form `window:interval:warmup` (e.g. `2000:50000:1000`).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] for malformed or non-numeric input; range
    /// rules (zero window, warmup ≥ interval, …) are left to
    /// [`SimConfig::validate`].
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        let parts: Vec<&str> = s.split(':').collect();
        let [w, i, u] = parts.as_slice() else {
            return Err(ConfigError(format!(
                "--sample expects window:interval:warmup, got `{s}`"
            )));
        };
        let num = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| ConfigError(format!("--sample {name} `{v}` is not a number")))
        };
        Ok(SamplingParams {
            window: num("window", w)?,
            interval: num("interval", i)?,
            warmup: num("warmup", u)?,
        })
    }
}

/// Last-level-cache sizing and timing, parsed from the CLI as
/// `kb:assoc:latency` (e.g. `4096:16:50`, the paper's 4MB/16-way @50).
///
/// With `cores = 1` this shapes the private L3; with `cores > 1` it
/// shapes the *shared* L3 every core of the CMP attaches to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct L3Params {
    /// Capacity in KiB.
    pub kb: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Array hit latency in cycles.
    pub latency: u64,
}

impl L3Params {
    /// Table 1 of the paper: 4MB, 16-way, 50 cycles.
    pub fn hpca2005() -> Self {
        L3Params {
            kb: 4096,
            assoc: 16,
            latency: 50,
        }
    }

    /// Parse the CLI form `kb:assoc:latency` (e.g. `4096:16:50`).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] for malformed or non-numeric input;
    /// geometry rules (power-of-two sets, …) are left to
    /// [`SimConfig::validate`].
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        let parts: Vec<&str> = s.split(':').collect();
        let [kb, assoc, lat] = parts.as_slice() else {
            return Err(ConfigError(format!(
                "--l3 expects kb:assoc:latency, got `{s}`"
            )));
        };
        let num = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| ConfigError(format!("--l3 {name} `{v}` is not a number")))
        };
        Ok(L3Params {
            kb: num("kb", kb)?,
            assoc: u32::try_from(num("assoc", assoc)?)
                .map_err(|_| ConfigError(format!("--l3 assoc `{assoc}` is out of range")))?,
            latency: num("latency", lat)?,
        })
    }

    /// The cache geometry these parameters describe (64-byte lines, like
    /// every cache in the hierarchy). Call [`SimConfig::validate`] first:
    /// this panics on geometries validate would have rejected.
    pub fn geometry(&self) -> mtvp_mem::CacheGeometry {
        mtvp_mem::CacheGeometry::new(self.kb * 1024, self.assoc, 64)
    }
}

/// A complete experiment configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Machine variant.
    pub mode: Mode,
    /// Core module the experiment runs on.
    pub core: CoreKind,
    /// Cores in the chip-multiprocessor topology (1 = the paper's
    /// single-core SMT machine; >1 attaches every core to a shared L3).
    pub cores: usize,
    /// Last-level cache sizing/timing (private when `cores` is 1, shared
    /// across the CMP otherwise).
    pub l3: L3Params,
    /// One-way point-to-point interconnect hop latency in cycles; every
    /// shared-L3 access pays a round trip (2 hops) on top of the array
    /// latency. Irrelevant when `cores` is 1.
    pub interconnect_hop: u64,
    /// Let the primary core spawn speculative threads into the contexts
    /// of *idle* sibling cores (cores with no co-scheduled workload),
    /// paying the interconnect on spawn and reconcile.
    pub cross_core_spawn: bool,
    /// Workloads co-scheduled on sibling cores, at most `cores - 1`:
    /// registry benchmark names (e.g. `mcf`) or seeded synthetic
    /// programs (`synth:<seed>`, `phases:<seed>`).
    pub co_workloads: Vec<String>,
    /// Hardware thread contexts (1, 2, 4, 8).
    pub contexts: usize,
    /// Value predictor (ignored for `Baseline`/`WideWindow`/`SpawnOnly`).
    pub predictor: PredictorKind,
    /// Load selector.
    pub selector: SelectorKind,
    /// Spawn-candidate policy at the load-rename decision point.
    pub spawn_policy: SpawnPolicyKind,
    /// Thread-spawn (map flash-copy) latency in cycles (§5.2).
    pub spawn_latency: u64,
    /// Per-context speculative store buffer entries (§5.3).
    pub store_buffer: usize,
    /// Values followed per load in `MultiValue` mode.
    pub max_values_per_load: usize,
    /// Optional architectural instruction limit (0 = run to halt).
    pub inst_limit: u64,
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Enable the stride prefetcher (the paper's baseline includes it;
    /// §4 notes MTVP's effect is larger and more consistent without it).
    pub prefetcher: bool,
    /// MSHR capacity (outstanding memory misses).
    pub mshrs: usize,
    /// Warm-start the caches with the data image.
    pub warm_start: bool,
    /// Fast-forward fully idle cycles (long memory stalls). Statistics are
    /// bit-identical either way; this only changes simulator wall-clock
    /// speed. See `PipelineConfig::fast_forward`.
    pub fast_forward: bool,
    /// Two-tier sampled simulation (`None`: full detailed execution).
    /// When set, reported statistics are extrapolated estimates — see
    /// DESIGN.md §13 for the error methodology.
    pub sampling: Option<SamplingParams>,
}

impl SimConfig {
    /// The paper's default configuration for a mode: Wang–Franklin
    /// predictor, ILP-pred selector, 8-cycle spawn, 128-entry store
    /// buffer, and as many contexts as the mode meaningfully uses.
    pub fn new(mode: Mode) -> Self {
        let contexts = match mode {
            Mode::Baseline | Mode::Stvp | Mode::WideWindow => 1,
            _ => 8,
        };
        SimConfig {
            mode,
            core: CoreKind::OutOfOrder,
            cores: 1,
            l3: L3Params::hpca2005(),
            interconnect_hop: 4,
            cross_core_spawn: false,
            co_workloads: Vec::new(),
            contexts,
            predictor: match mode {
                Mode::Baseline | Mode::WideWindow | Mode::SpawnOnly => PredictorKind::None,
                Mode::MultiValue => PredictorKind::WangFranklinLiberal,
                _ => PredictorKind::WangFranklin,
            },
            selector: match mode {
                Mode::MultiValue => SelectorKind::L3MissOracle,
                _ => SelectorKind::IlpPred,
            },
            spawn_policy: SpawnPolicyKind::Dynamic,
            spawn_latency: 8,
            store_buffer: 128,
            max_values_per_load: if mode == Mode::MultiValue { 4 } else { 1 },
            inst_limit: 0,
            max_cycles: 500_000_000,
            prefetcher: true,
            mshrs: 16,
            warm_start: true,
            fast_forward: true,
            sampling: None,
        }
    }

    /// The in-order scalar baseline core: [`Mode::Baseline`] semantics on
    /// [`CoreKind::InOrderScalar`].
    pub fn in_order() -> Self {
        SimConfig {
            core: CoreKind::InOrderScalar,
            ..Self::new(Mode::Baseline)
        }
    }

    /// Same as [`SimConfig::new`] but with the oracle value predictor and
    /// the idealized §5.1 assumptions (1-cycle spawn, huge store buffer).
    pub fn oracle(mode: Mode) -> Self {
        SimConfig {
            predictor: PredictorKind::Oracle,
            spawn_latency: 1,
            store_buffer: 1 << 20,
            ..Self::new(mode)
        }
    }

    /// Reject configurations that cannot describe a meaningful experiment
    /// (they would either crash the simulator or silently measure the
    /// wrong machine). Called by the CLI before running and by scenario
    /// expansion before a sweep is scheduled.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.contexts == 0 {
            return Err(ConfigError("contexts must be at least 1".into()));
        }
        if self.contexts > 64 {
            return Err(ConfigError(format!(
                "contexts {} exceeds the 64-context SMT limit",
                self.contexts
            )));
        }
        if self.store_buffer == 0 {
            return Err(ConfigError(
                "store_buffer must be at least 1 entry (speculative threads buffer every store)"
                    .into(),
            ));
        }
        if self.max_values_per_load == 0 {
            return Err(ConfigError("max_values_per_load must be at least 1".into()));
        }
        if self.mshrs == 0 {
            return Err(ConfigError(
                "mshrs must be at least 1 (no outstanding misses means no memory)".into(),
            ));
        }
        if self.max_cycles == 0 {
            return Err(ConfigError("max_cycles must be nonzero".into()));
        }
        // CMP topology rules: the l3/interconnect/co-scheduling knobs
        // describe a chip multiprocessor, so they must form one the
        // simulator can actually build.
        if self.cores == 0 {
            return Err(ConfigError("cores must be at least 1".into()));
        }
        if self.cores > 16 {
            return Err(ConfigError(format!(
                "cores {} exceeds the 16-core CMP limit",
                self.cores
            )));
        }
        if self.l3.kb == 0 || self.l3.assoc == 0 {
            return Err(ConfigError(format!(
                "l3 {}KB/{}-way is not a cache",
                self.l3.kb, self.l3.assoc
            )));
        }
        {
            let bytes = self.l3.kb * 1024;
            let set_bytes = u64::from(self.l3.assoc) * 64;
            if !bytes.is_multiple_of(set_bytes) || !(bytes / set_bytes).is_power_of_two() {
                return Err(ConfigError(format!(
                    "l3 {}KB/{}-way does not divide into a power-of-two number of 64-byte-line \
                     sets",
                    self.l3.kb, self.l3.assoc
                )));
            }
        }
        if self.cores > 1 {
            if self.core != CoreKind::OutOfOrder {
                return Err(ConfigError(format!(
                    "cores {} needs the out-of-order core: the in-order scalar baseline has no \
                     CMP composition — use --core ooo",
                    self.cores
                )));
            }
            if self.sampling.is_some() {
                return Err(ConfigError(
                    "sampling cannot be combined with a CMP topology: the two-tier driver \
                     transfers one core's architectural state, and a sampled window cannot \
                     reconstruct sibling-core and shared-cache state (run CMP cells \
                     full-detailed)"
                        .into(),
                ));
            }
        }
        if !self.co_workloads.is_empty() && self.cores == 1 {
            return Err(ConfigError(format!(
                "{} co-workload(s) need sibling cores to run on; raise --cores",
                self.co_workloads.len()
            )));
        }
        if self.co_workloads.len() > self.cores.saturating_sub(1) {
            return Err(ConfigError(format!(
                "{} co-workloads exceed the {} sibling core(s) of a {}-core topology",
                self.co_workloads.len(),
                self.cores - 1,
                self.cores
            )));
        }
        for spec in &self.co_workloads {
            mtvp_workloads::synth::validate_co_spec(spec).map_err(ConfigError)?;
        }
        if self.cross_core_spawn {
            if self.cores == 1 {
                return Err(ConfigError(
                    "cross_core_spawn needs a CMP topology (cores > 1); on one core there is no \
                     sibling to spawn into"
                        .into(),
                ));
            }
            if !matches!(
                self.mode,
                Mode::Mtvp | Mode::MtvpNoStall | Mode::SpawnOnly | Mode::MultiValue
            ) {
                return Err(ConfigError(format!(
                    "cross_core_spawn requires a thread-spawning mode (mtvp, mtvp-nostall, \
                     spawn-only, or multi-value); {:?} never spawns",
                    self.mode
                )));
            }
            if self.co_workloads.len() >= self.cores - 1 {
                return Err(ConfigError(format!(
                    "cross_core_spawn needs at least one *idle* sibling core to borrow contexts \
                     from, but all {} sibling(s) carry co-workloads",
                    self.cores - 1
                )));
            }
        }
        // Knobs the selected core module does not support: the in-order
        // scalar baseline has no spawn policy, no value-prediction
        // hardware, and a single context, so any MTVP/STVP mode (and any
        // knob that only exists to serve one) is a configuration error,
        // not a silently-ignored setting.
        if self.core == CoreKind::InOrderScalar {
            if self.mode != Mode::Baseline {
                return Err(ConfigError(format!(
                    "the in-order scalar core supports mode baseline only; {:?} needs the \
                     out-of-order core (its spawn/value-prediction policies do not exist on an \
                     in-order pipeline) — use --core ooo",
                    self.mode
                )));
            }
            if self.contexts != 1 {
                return Err(ConfigError(format!(
                    "the in-order scalar core is single-context; got contexts {}",
                    self.contexts
                )));
            }
            if self.predictor != PredictorKind::None {
                return Err(ConfigError(format!(
                    "the in-order scalar core has no value predictor; got predictor {:?}",
                    self.predictor
                )));
            }
        }
        match self.mode {
            Mode::Baseline | Mode::Stvp | Mode::WideWindow if self.contexts != 1 => {
                return Err(ConfigError(format!(
                    "{:?} is a single-context machine; got contexts {}",
                    self.mode, self.contexts
                )));
            }
            Mode::MultiValue if self.max_values_per_load == 1 => {
                return Err(ConfigError(
                    "MultiValue with max_values_per_load 1 is just Mtvp; use mode mtvp".into(),
                ));
            }
            _ => {}
        }
        if self.mode != Mode::MultiValue && self.max_values_per_load > 1 {
            return Err(ConfigError(format!(
                "max_values_per_load {} requires mode multi-value",
                self.max_values_per_load
            )));
        }
        if matches!(
            self.mode,
            Mode::Stvp | Mode::Mtvp | Mode::MtvpNoStall | Mode::MultiValue
        ) && self.predictor == PredictorKind::None
        {
            return Err(ConfigError(format!(
                "{:?} is a value-prediction mode and needs a predictor (try wf or oracle)",
                self.mode
            )));
        }
        if self.spawn_policy == SpawnPolicyKind::Static {
            if self.core != CoreKind::OutOfOrder {
                return Err(ConfigError(
                    "--spawn-policy static needs the out-of-order core (the in-order scalar \
                     baseline has no spawn decision point to hint)"
                        .into(),
                ));
            }
            if matches!(self.mode, Mode::Baseline | Mode::WideWindow) {
                return Err(ConfigError(format!(
                    "--spawn-policy static is meaningless in mode {:?}: that machine never \
                     value-predicts or spawns, so there is nothing for hints to gate",
                    self.mode
                )));
            }
        }
        if let Some(s) = self.sampling {
            if s.window == 0 {
                return Err(ConfigError(
                    "sampling window must be nonzero (a zero-length window measures nothing)"
                        .into(),
                ));
            }
            if s.interval == 0 {
                return Err(ConfigError("sampling interval must be nonzero".into()));
            }
            if s.window > s.interval {
                return Err(ConfigError(format!(
                    "sampling window {} exceeds interval {} (windows would overlap)",
                    s.window, s.interval
                )));
            }
            if s.warmup >= s.interval {
                return Err(ConfigError(format!(
                    "sampling warmup {} must be shorter than interval {} (warm-up would reach \
                     back into the previous window)",
                    s.warmup, s.interval
                )));
            }
            if self.predictor == PredictorKind::Oracle {
                return Err(ConfigError(
                    "sampling cannot be combined with the oracle predictor: the oracle replays \
                     the committed-path trace and needs no warm-up, so sampled estimates of it \
                     measure nothing real (run it full-detailed)"
                        .into(),
                ));
            }
            if self.inst_limit > 0 {
                return Err(ConfigError(
                    "sampling and inst_limit conflict: the sampling schedule already bounds \
                     detailed execution (drop one of them)"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// The memory-hierarchy configuration this experiment uses. The `l3`
    /// knob always shapes the last-level cache: the private L3 on a
    /// single-core machine, and each core's (bypassed) private geometry
    /// on a CMP, where the shared array from [`SimConfig::shared_l3_spec`]
    /// takes over demand traffic.
    pub fn to_mem_config(&self) -> mtvp_mem::MemConfig {
        let mut m = mtvp_mem::MemConfig::hpca2005();
        m.mshrs = self.mshrs;
        m.l3 = self.l3.geometry();
        m.l3_latency = self.l3.latency;
        if !self.prefetcher {
            m.prefetch = mtvp_mem::PrefetchConfig::disabled();
        }
        m
    }

    /// The shared-L3 specification of a CMP topology (`None` when
    /// `cores` is 1 — a single core keeps its private hierarchy).
    pub fn shared_l3_spec(&self) -> Option<mtvp_mem::SharedL3Spec> {
        if self.cores <= 1 {
            return None;
        }
        Some(mtvp_mem::SharedL3Spec {
            geometry: self.l3.geometry(),
            latency: self.l3.latency,
            hop: self.interconnect_hop,
        })
    }

    /// Sibling cores with no co-scheduled workload: with
    /// `cross_core_spawn` their contexts are donated to the primary as
    /// remote spawn slots.
    pub fn idle_cores(&self) -> usize {
        self.cores.saturating_sub(1 + self.co_workloads.len())
    }

    /// Lower to the mechanism-level pipeline configuration.
    pub fn to_pipeline_config(&self) -> PipelineConfig {
        let mut p = match (self.core, self.mode) {
            (CoreKind::InOrderScalar, _) => PipelineConfig::in_order_scalar(),
            (CoreKind::OutOfOrder, Mode::WideWindow) => PipelineConfig::wide_window(),
            (CoreKind::OutOfOrder, _) => PipelineConfig::hpca2005(),
        };
        p.hw_contexts = self.contexts;
        if self.cross_core_spawn {
            // Each idle sibling core donates its full context complement
            // as remote slots; spawning into one pays the interconnect
            // round trip on top of the flash-copy, and freeing one holds
            // the slot for a round trip of store-buffer reconciliation.
            p.remote_contexts = self.idle_cores() * self.contexts;
            p.remote_spawn_extra = 2 * self.interconnect_hop;
            p.remote_reconcile = 2 * self.interconnect_hop;
        }
        p.store_buffer_entries = self.store_buffer;
        p.inst_limit = self.inst_limit;
        p.max_cycles = self.max_cycles;
        p.warm_start = self.warm_start;
        p.fast_forward = self.fast_forward;

        let mut vp = match self.mode {
            Mode::Baseline | Mode::WideWindow => VpConfig::baseline(),
            Mode::Stvp => VpConfig::stvp(self.predictor),
            Mode::Mtvp | Mode::MultiValue => VpConfig::mtvp(self.predictor),
            Mode::MtvpNoStall => {
                let mut v = VpConfig::mtvp(self.predictor);
                v.fetch_policy = FetchPolicy::NoStall;
                v
            }
            Mode::SpawnOnly => VpConfig::spawn_only(),
        };
        vp.selector = self.selector;
        vp.spawn_latency = self.spawn_latency;
        vp.max_values_per_load = self.max_values_per_load;
        p.vp = vp;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_defaults_are_sensible() {
        let b = SimConfig::new(Mode::Baseline);
        assert_eq!(b.contexts, 1);
        assert_eq!(b.predictor, PredictorKind::None);
        let m = SimConfig::new(Mode::Mtvp);
        assert_eq!(m.contexts, 8);
        assert_eq!(m.predictor, PredictorKind::WangFranklin);
        let mv = SimConfig::new(Mode::MultiValue);
        assert_eq!(mv.max_values_per_load, 4);
        assert_eq!(mv.selector, SelectorKind::L3MissOracle);
    }

    #[test]
    fn oracle_config_is_idealized() {
        let o = SimConfig::oracle(Mode::Mtvp);
        assert_eq!(o.predictor, PredictorKind::Oracle);
        assert_eq!(o.spawn_latency, 1);
        assert!(o.store_buffer > 100_000);
    }

    #[test]
    fn lowering_matches_mode() {
        let p = SimConfig::new(Mode::WideWindow).to_pipeline_config();
        assert_eq!(p.rob_entries, 8192);
        assert!(!p.vp.allow_stvp && !p.vp.allow_mtvp);

        let p = SimConfig::new(Mode::Mtvp).to_pipeline_config();
        assert!(p.vp.allow_stvp && p.vp.allow_mtvp);
        assert_eq!(p.vp.fetch_policy, FetchPolicy::SingleFetchPath);

        let p = SimConfig::new(Mode::MtvpNoStall).to_pipeline_config();
        assert_eq!(p.vp.fetch_policy, FetchPolicy::NoStall);

        let p = SimConfig::new(Mode::SpawnOnly).to_pipeline_config();
        assert!(p.vp.spawn_only);
    }

    #[test]
    fn default_configs_validate() {
        for mode in [
            Mode::Baseline,
            Mode::Stvp,
            Mode::Mtvp,
            Mode::MtvpNoStall,
            Mode::SpawnOnly,
            Mode::WideWindow,
            Mode::MultiValue,
        ] {
            SimConfig::new(mode).validate().unwrap();
            SimConfig::oracle(mode).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        let reject = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::new(Mode::Mtvp);
            f(&mut c);
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        };
        reject(&|c| c.contexts = 0);
        reject(&|c| c.contexts = 65);
        reject(&|c| c.store_buffer = 0);
        reject(&|c| c.max_values_per_load = 0);
        reject(&|c| c.max_values_per_load = 4);
        reject(&|c| c.mshrs = 0);
        reject(&|c| c.max_cycles = 0);
        reject(&|c| c.predictor = PredictorKind::None);
        // Single-context machines with several contexts.
        let mut c = SimConfig::new(Mode::Baseline);
        c.contexts = 8;
        assert!(c.validate().is_err());
        // MultiValue degenerating to Mtvp.
        let mut c = SimConfig::new(Mode::MultiValue);
        c.max_values_per_load = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn in_order_core_validates_and_lowers() {
        let c = SimConfig::in_order();
        c.validate().unwrap();
        let p = c.to_pipeline_config();
        assert_eq!(p.hw_contexts, 1);
        assert_eq!(p.rename_width, 1);
        assert_eq!(p.commit_width, 1);
        assert!(!p.vp.allow_stvp && !p.vp.allow_mtvp && !p.vp.spawn_only);

        // Knobs the in-order core does not support are rejected, not
        // silently ignored.
        let reject = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::in_order();
            f(&mut c);
            let e = c.validate().expect_err("should be invalid").0;
            assert!(e.contains("in-order"), "error should name the core: {e}");
        };
        reject(&|c| c.mode = Mode::Mtvp);
        reject(&|c| c.mode = Mode::SpawnOnly);
        reject(&|c| c.mode = Mode::WideWindow);
        reject(&|c| c.contexts = 4);
        reject(&|c| c.predictor = PredictorKind::WangFranklin);
        // Sampling stays legal: the state-transfer surface is part of the
        // core trait, so the two-tier driver works on any core.
        let mut c = SimConfig::in_order();
        c.sampling = Some(SamplingParams {
            window: 2000,
            interval: 50_000,
            warmup: 1000,
        });
        c.validate().unwrap();
    }

    #[test]
    fn core_kind_serializes_into_cache_keys() {
        let ooo = SimConfig::new(Mode::Baseline);
        let inorder = SimConfig::in_order();
        let j_ooo = serde_json::to_string(&ooo).unwrap();
        let j_in = serde_json::to_string(&inorder).unwrap();
        // Different core modules are different experiments and must get
        // different cache keys.
        assert_ne!(j_ooo, j_in);
        let back: SimConfig = serde_json::from_str(&j_in).unwrap();
        assert_eq!(back, inorder);
    }

    #[test]
    fn sampling_params_parse() {
        assert_eq!(
            SamplingParams::parse("2000:50000:1000").unwrap(),
            SamplingParams {
                window: 2000,
                interval: 50_000,
                warmup: 1000,
            }
        );
        assert!(SamplingParams::parse("2000:50000").is_err());
        assert!(SamplingParams::parse("2000:50000:1000:9").is_err());
        assert!(SamplingParams::parse("a:b:c").is_err());
    }

    #[test]
    fn validate_rejects_sampling_nonsense() {
        let sampled = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::new(Mode::Mtvp);
            c.sampling = Some(SamplingParams {
                window: 2000,
                interval: 50_000,
                warmup: 1000,
            });
            f(&mut c);
            c
        };
        assert!(sampled(&|_| {}).validate().is_ok());
        let reject = |f: &dyn Fn(&mut SimConfig)| {
            let c = sampled(f);
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        };
        // Zero-length window and degenerate schedules.
        reject(&|c| c.sampling.as_mut().unwrap().window = 0);
        reject(&|c| c.sampling.as_mut().unwrap().interval = 0);
        reject(&|c| c.sampling.as_mut().unwrap().window = 60_000);
        // Warm-up at least as long as the interval.
        reject(&|c| c.sampling.as_mut().unwrap().warmup = 50_000);
        reject(&|c| c.sampling.as_mut().unwrap().warmup = 99_999);
        // Oracle-trace modes cannot be sampled.
        reject(&|c| c.predictor = PredictorKind::Oracle);
        // Conflicting termination bounds.
        reject(&|c| c.inst_limit = 1_000_000);
        // Back-to-back windows (window == interval, zero warm-up) are the
        // degenerate-but-legal full-coverage schedule.
        let mut c = SimConfig::new(Mode::Mtvp);
        c.sampling = Some(SamplingParams {
            window: 1000,
            interval: 1000,
            warmup: 0,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sampled_config_serializes() {
        let mut cfg = SimConfig::new(Mode::Mtvp);
        cfg.sampling = Some(SamplingParams {
            window: 7,
            interval: 11,
            warmup: 3,
        });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // The sampled and unsampled forms must serialize differently (they
        // are different experiments and must get different cache keys).
        assert_ne!(
            json,
            serde_json::to_string(&SimConfig::new(Mode::Mtvp)).unwrap()
        );
    }

    #[test]
    fn vocabulary_parses_and_rejects() {
        use crate::KnobValue;
        assert_eq!(Mode::parse_cli("mtvp-nostall").unwrap(), Mode::MtvpNoStall);
        assert!(Mode::parse_cli("bogus").is_err());
        assert_eq!(
            PredictorKind::parse_cli("wf").unwrap(),
            PredictorKind::WangFranklin
        );
        assert!(PredictorKind::parse_cli("psychic").is_err());
        assert_eq!(
            SelectorKind::parse_cli("l3").unwrap(),
            SelectorKind::L3MissOracle
        );
        assert!(SelectorKind::parse_cli("never").is_err());
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert!(parse_scale("gigantic").is_err());
        assert_eq!(CoreKind::parse_cli("ooo").unwrap(), CoreKind::OutOfOrder);
        assert_eq!(
            CoreKind::parse_cli("inorder").unwrap(),
            CoreKind::InOrderScalar
        );
        assert_eq!(
            CoreKind::parse_cli("in-order-scalar").unwrap(),
            CoreKind::InOrderScalar
        );
        assert!(CoreKind::parse_cli("vliw").is_err());
        assert_eq!(
            SpawnPolicyKind::parse_cli("dynamic").unwrap(),
            SpawnPolicyKind::Dynamic
        );
        assert_eq!(
            SpawnPolicyKind::parse_cli("static").unwrap(),
            SpawnPolicyKind::Static
        );
        assert!(SpawnPolicyKind::parse_cli("psychic").is_err());
    }

    #[test]
    fn spawn_policy_validates_and_serializes() {
        // Static hints gate the spawn decision point, so they need a
        // machine that has one.
        let mut cfg = SimConfig::new(Mode::Mtvp);
        cfg.spawn_policy = SpawnPolicyKind::Static;
        cfg.validate().expect("static + mtvp is fine");

        let mut base = SimConfig::new(Mode::Baseline);
        base.spawn_policy = SpawnPolicyKind::Static;
        assert!(base.validate().is_err());

        let mut inorder = SimConfig::in_order();
        inorder.spawn_policy = SpawnPolicyKind::Static;
        assert!(inorder.validate().is_err());

        // The policy axis must reach the cache key (different policies
        // are different experiments).
        let json = serde_json::to_string(&cfg).unwrap();
        assert_ne!(
            json,
            serde_json::to_string(&SimConfig::new(Mode::Mtvp)).unwrap()
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_serializes() {
        let cfg = SimConfig::new(Mode::Mtvp);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn l3_params_parse() {
        assert_eq!(L3Params::parse("4096:16:50").unwrap(), L3Params::hpca2005());
        assert_eq!(
            L3Params::parse("64:8:20").unwrap(),
            L3Params {
                kb: 64,
                assoc: 8,
                latency: 20,
            }
        );
        assert!(L3Params::parse("4096:16").is_err());
        assert!(L3Params::parse("4096:16:50:1").is_err());
        assert!(L3Params::parse("big:16:50").is_err());
        let g = L3Params::hpca2005().geometry();
        assert_eq!(g, mtvp_mem::CacheGeometry::new(4 * 1024 * 1024, 16, 64));
    }

    #[test]
    fn cmp_defaults_are_single_core_and_validate() {
        let c = SimConfig::new(Mode::Mtvp);
        assert_eq!(c.cores, 1);
        assert_eq!(c.l3, L3Params::hpca2005());
        assert!(!c.cross_core_spawn);
        assert!(c.co_workloads.is_empty());
        assert!(c.shared_l3_spec().is_none());
        // The default l3 knob reproduces the paper's hierarchy exactly.
        assert_eq!(c.to_mem_config(), mtvp_mem::MemConfig::hpca2005());
        // Non-CMP configs lower with no remote slots.
        let p = c.to_pipeline_config();
        assert_eq!(p.remote_contexts, 0);
        assert_eq!(p.total_contexts(), c.contexts);
    }

    #[test]
    fn cmp_config_validates_and_lowers() {
        let mut c = SimConfig::new(Mode::Mtvp);
        c.cores = 4;
        c.co_workloads = vec!["mcf".into(), "synth:7".into()];
        c.cross_core_spawn = true;
        c.validate()
            .expect("4-core mix with one idle sibling is fine");
        assert_eq!(c.idle_cores(), 1);

        let spec = c.shared_l3_spec().expect("CMP topologies share an L3");
        assert_eq!(spec.geometry, c.l3.geometry());
        assert_eq!(spec.hop, 4);

        let p = c.to_pipeline_config();
        assert_eq!(p.remote_contexts, c.contexts, "one idle core donates");
        assert_eq!(p.remote_spawn_extra, 8);
        assert_eq!(p.remote_reconcile, 8);
        assert_eq!(p.total_contexts(), 2 * c.contexts);

        // Without cross-core spawning, no remote slots are borrowed.
        c.cross_core_spawn = false;
        assert_eq!(c.to_pipeline_config().remote_contexts, 0);
    }

    #[test]
    fn validate_rejects_cmp_nonsense() {
        let reject = |f: &dyn Fn(&mut SimConfig), needle: &str| {
            let mut c = SimConfig::new(Mode::Mtvp);
            c.cores = 4;
            f(&mut c);
            let e = c.validate().expect_err("should be invalid").0;
            assert!(e.contains(needle), "error `{e}` should mention `{needle}`");
        };
        reject(&|c| c.cores = 0, "cores");
        reject(&|c| c.cores = 17, "16-core");
        reject(&|c| c.l3.kb = 0, "not a cache");
        reject(&|c| c.l3.kb = 100, "power-of-two");
        // CMP knobs the selected core or mode cannot honour.
        reject(
            &|c| {
                c.cores = 4;
                c.core = CoreKind::InOrderScalar;
                c.mode = Mode::Baseline;
                c.contexts = 1;
                c.predictor = PredictorKind::None;
            },
            "out-of-order",
        );
        reject(
            &|c| {
                c.sampling = Some(SamplingParams {
                    window: 2000,
                    interval: 50_000,
                    warmup: 1000,
                });
            },
            "sampling",
        );
        // Co-workload seating and spelling.
        reject(
            &|c| {
                c.cores = 1;
                c.co_workloads = vec!["mcf".into()];
            },
            "sibling",
        );
        reject(
            &|c| c.co_workloads = vec!["a".into(), "b".into(), "c".into(), "d".into()],
            "exceed",
        );
        reject(&|c| c.co_workloads = vec!["nonesuch".into()], "unknown");
        reject(&|c| c.co_workloads = vec!["synth:zzz".into()], "seed");
        // Cross-core spawning needs a spawning mode and an idle sibling.
        reject(
            &|c| {
                c.cores = 1;
                c.cross_core_spawn = true;
            },
            "sibling",
        );
        reject(
            &|c| {
                c.mode = Mode::Baseline;
                c.contexts = 1;
                c.predictor = PredictorKind::None;
                c.cross_core_spawn = true;
            },
            "spawning mode",
        );
        reject(
            &|c| {
                c.cores = 2;
                c.co_workloads = vec!["mcf".into()];
                c.cross_core_spawn = true;
            },
            "idle",
        );
    }

    #[test]
    fn cmp_axes_reach_the_cache_key() {
        let base = serde_json::to_string(&SimConfig::new(Mode::Mtvp)).unwrap();
        let mutate = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::new(Mode::Mtvp);
            f(&mut c);
            serde_json::to_string(&c).unwrap()
        };
        assert_ne!(mutate(&|c| c.cores = 2), base);
        assert_ne!(mutate(&|c| c.l3.kb = 2048), base);
        assert_ne!(mutate(&|c| c.interconnect_hop = 9), base);
        assert_ne!(mutate(&|c| c.cross_core_spawn = true), base);
        assert_ne!(mutate(&|c| c.co_workloads = vec!["mcf".into()]), base);
        let mut c = SimConfig::new(Mode::Mtvp);
        c.cores = 3;
        c.co_workloads = vec!["phases:2".into()];
        let back: SimConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }
}
