//! Persistent, content-addressed result cache under `results/cache/`.
//!
//! Two kinds of entries, both keyed by [`crate::key::JobKey`]:
//!
//! - **cells** (`<key>.json`): the full [`PipeStats`] of one simulation,
//!   stored together with the canonical descriptor, benchmark name and
//!   configuration that produced it. On load the descriptor and config
//!   are re-verified, so a hash collision degrades to a miss.
//! - **reference traces** (`<key>.trace`): the committed-path trace of a
//!   (benchmark × scale) functional pre-execution, in a compact line
//!   format (JSON would be an order of magnitude larger).
//!
//! Writes go through a temp file + rename, so an interrupted sweep never
//! leaves a truncated entry behind — resuming simply re-simulates the
//! missing cells.

use crate::key::{JobKey, SIM_VERSION};
use mtvp_core::SimConfig;
use mtvp_isa::trace::{Trace, TraceEntry};
use mtvp_pipeline::PipeStats;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Format marker for cell entries.
const CELL_MARKER: &str = "mtvp-cell-v1";
/// Format marker (first line) for trace entries.
const TRACE_MARKER: &str = "mtvp-trace-v1";
/// Format marker for lint entries.
const LINT_MARKER: &str = "mtvp-lint-v1";
/// Format marker (first line) for functional checkpoints.
const CKPT_MARKER: &str = "mtvp-ckpt-v1";
/// Format marker for spawn-hint entries.
const HINTS_MARKER: &str = "mtvp-hints-v1";

/// One persisted simulation result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellEntry {
    /// File-format marker ([`CELL_MARKER`]).
    pub format: String,
    /// Simulator version tag ([`SIM_VERSION`]) at write time.
    pub version: String,
    /// Canonical descriptor the key was derived from.
    pub descriptor: String,
    /// Benchmark name.
    pub bench: String,
    /// Whether the benchmark is in the integer suite.
    pub suite_int: bool,
    /// Build scale tag (`tiny`/`small`/`full`).
    pub scale: String,
    /// The exact configuration simulated.
    pub config: SimConfig,
    /// Dynamic instructions on the committed path.
    pub dyn_instrs: u64,
    /// The simulation statistics. For a sampled cell these are
    /// extrapolated estimates (see `sampled`), not exact measurements.
    pub stats: PipeStats,
    /// Sampled-run accounting; `None` for full-detailed cells.
    pub sampled: Option<crate::sampling::SampledMeta>,
}

/// The reference interpreter's complete architectural state at one
/// dynamic-instruction index: PC, register files, and the memory pages
/// that differ from the program's initial data image (restorers clone
/// that image — built once per sampled run by `Program::init_memory`,
/// copy-on-write — then `MainMemory::install_page` each delta page:
/// fast-forwarding by file read instead of by interpretation).
/// Storing the delta rather than the resident set keeps checkpoints of
/// constant-data-heavy workloads to a few pages; a full-image `pages`
/// list restores identically, just slower. Stored in a compact line
/// format (hex pages; JSON would more than triple the footprint).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// PC at the checkpoint.
    pub pc: u64,
    /// Dynamic instructions executed (the checkpoint's identity index).
    pub index: u64,
    /// Integer register file.
    pub int_regs: [u64; 32],
    /// FP register file as raw bits, so the round trip is bit-exact for
    /// every value including NaNs.
    pub fp_bits: [u64; 32],
    /// Pages differing from the initial data image
    /// `(base address, 4 KiB image)`, sorted by base.
    pub pages: Vec<(u64, Vec<u8>)>,
}

/// One persisted static-lint result, stored alongside experiment cells
/// so `mtvp-sim lint` sweeps are as resumable as simulation sweeps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LintEntry {
    /// File-format marker ([`LINT_MARKER`]).
    pub format: String,
    /// Simulator version tag ([`SIM_VERSION`]) at write time.
    pub version: String,
    /// Canonical descriptor the key was derived from.
    pub descriptor: String,
    /// Benchmark name.
    pub bench: String,
    /// Build scale tag (`tiny`/`small`/`full`).
    pub scale: String,
    /// Error-severity diagnostic count.
    pub errors: usize,
    /// Warning-severity diagnostic count.
    pub warnings: usize,
    /// The full [`mtvp_analysis::LintReport`] as JSON.
    pub report: serde_json::Value,
}

impl LintEntry {
    /// Build a well-formed entry for `descriptor` from a lint report.
    pub fn new(
        descriptor: &str,
        bench: &str,
        scale: &str,
        report: &mtvp_analysis::LintReport,
    ) -> LintEntry {
        LintEntry {
            format: LINT_MARKER.to_string(),
            version: SIM_VERSION.to_string(),
            descriptor: descriptor.to_string(),
            bench: bench.to_string(),
            scale: scale.to_string(),
            errors: report.errors(),
            warnings: report.warnings(),
            report: report.to_value(),
        }
    }
}

/// One persisted spawn-site analysis result: the [`mtvp_analysis::SpawnHints`]
/// artifact of one (benchmark × scale), plus the differential-validator
/// verdict so consumers can refuse unvalidated hints without re-running
/// the interpreter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HintsEntry {
    /// File-format marker ([`HINTS_MARKER`]).
    pub format: String,
    /// Simulator version tag ([`SIM_VERSION`]) at write time.
    pub version: String,
    /// Canonical descriptor the key was derived from.
    pub descriptor: String,
    /// Benchmark name.
    pub bench: String,
    /// Build scale tag (`tiny`/`small`/`full`).
    pub scale: String,
    /// Sites the analysis selected for spawning.
    pub selected_sites: u32,
    /// Load PCs inside selected regions (the spawn filter).
    pub hinted_loads: Vec<u64>,
    /// Dynamic checks the differential validator performed (0 when
    /// validation was skipped).
    pub checks: u64,
    /// Whether the differential validator confirmed every predictable
    /// verdict against the tracing interpreter.
    pub validated: bool,
    /// The full [`mtvp_analysis::SpawnHints`] artifact as JSON.
    pub hints: serde_json::Value,
}

impl HintsEntry {
    /// Build a well-formed entry for `descriptor` from a hints artifact.
    pub fn new(
        descriptor: &str,
        bench: &str,
        scale: &str,
        hints: &mtvp_analysis::SpawnHints,
        checks: u64,
        validated: bool,
    ) -> HintsEntry {
        HintsEntry {
            format: HINTS_MARKER.to_string(),
            version: SIM_VERSION.to_string(),
            descriptor: descriptor.to_string(),
            bench: bench.to_string(),
            scale: scale.to_string(),
            selected_sites: hints.selected_sites,
            hinted_loads: hints.hinted_loads.clone(),
            checks,
            validated,
            hints: serde_json::to_value(hints),
        }
    }
}

/// Handle to a cache directory.
#[derive(Clone, Debug)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Open (and lazily create) a cache at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Cache {
        Cache { dir: dir.into() }
    }

    /// The default cache directory: `$MTVP_CACHE_DIR` if set, else
    /// `results/cache` relative to the working directory.
    pub fn default_dir() -> PathBuf {
        match std::env::var_os("MTVP_CACHE_DIR") {
            Some(d) if !d.is_empty() => PathBuf::from(d),
            _ => PathBuf::from("results").join("cache"),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn trace_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.trace"))
    }

    fn lint_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.lint.json"))
    }

    fn hints_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.hints.json"))
    }

    /// Whether a cell entry exists for `key` (no verification).
    pub fn has_cell(&self, key: &JobKey) -> bool {
        self.cell_path(key).is_file()
    }

    /// Load and verify the cell for `key`. Returns `None` on a miss, a
    /// corrupt entry, or a descriptor mismatch (hash collision or stale
    /// format) — all of which simply mean "simulate it again".
    pub fn load_cell(&self, key: &JobKey, descriptor: &str) -> Option<CellEntry> {
        let text = std::fs::read_to_string(self.cell_path(key)).ok()?;
        let entry: CellEntry = serde_json::from_str(&text).ok()?;
        (entry.format == CELL_MARKER
            && entry.version == SIM_VERSION
            && entry.descriptor == descriptor)
            .then_some(entry)
    }

    /// Raw stored JSON text of the cell for `key`, if present. The
    /// cluster peering endpoint serves this verbatim; the fetching peer
    /// re-parses and re-verifies before trusting it.
    pub fn read_cell_text(&self, key: &JobKey) -> Option<String> {
        std::fs::read_to_string(self.cell_path(key)).ok()
    }

    /// Persist a cell entry atomically (temp file + rename).
    pub fn store_cell(&self, key: &JobKey, entry: &CellEntry) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
        self.write_atomic(&self.cell_path(key), text.as_bytes())
    }

    /// Load and verify the lint entry for `key`. `None` means "lint it
    /// again" (miss, corrupt entry, or stale descriptor).
    pub fn load_lint(&self, key: &JobKey, descriptor: &str) -> Option<LintEntry> {
        let text = std::fs::read_to_string(self.lint_path(key)).ok()?;
        let entry: LintEntry = serde_json::from_str(&text).ok()?;
        (entry.format == LINT_MARKER
            && entry.version == SIM_VERSION
            && entry.descriptor == descriptor)
            .then_some(entry)
    }

    /// Persist a lint entry atomically (temp file + rename).
    pub fn store_lint(&self, key: &JobKey, entry: &LintEntry) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
        self.write_atomic(&self.lint_path(key), text.as_bytes())
    }

    /// Load and verify the spawn-hints entry for `key`. `None` means
    /// "analyze it again" (miss, corrupt entry, or stale descriptor).
    pub fn load_hints(&self, key: &JobKey, descriptor: &str) -> Option<HintsEntry> {
        let text = std::fs::read_to_string(self.hints_path(key)).ok()?;
        let entry: HintsEntry = serde_json::from_str(&text).ok()?;
        (entry.format == HINTS_MARKER
            && entry.version == SIM_VERSION
            && entry.descriptor == descriptor)
            .then_some(entry)
    }

    /// Persist a spawn-hints entry atomically (temp file + rename).
    pub fn store_hints(&self, key: &JobKey, entry: &HintsEntry) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
        self.write_atomic(&self.hints_path(key), text.as_bytes())
    }

    /// Load the reference trace for `key`, verifying the stored
    /// descriptor. Returns `(dyn_instrs, trace)` or `None`.
    pub fn load_trace(&self, key: &JobKey, descriptor: &str) -> Option<(u64, Arc<Trace>)> {
        let file = std::fs::File::open(self.trace_path(key)).ok()?;
        let mut lines = BufReader::new(file).lines();
        let marker = lines.next()?.ok()?;
        if marker != TRACE_MARKER {
            return None;
        }
        let stored_desc = lines.next()?.ok()?;
        if stored_desc != descriptor {
            return None;
        }
        let header = lines.next()?.ok()?;
        let mut parts = header.split(' ');
        let dyn_instrs: u64 = parts.next()?.parse().ok()?;
        let len: usize = parts.next()?.parse().ok()?;
        let mut trace = Trace::new();
        for line in lines {
            let line = line.ok()?;
            let mut it = line.split(' ');
            let (kind, pc) = (it.next()?, it.next()?.parse().ok()?);
            let load_value = match kind {
                "l" => it.next()?.parse().ok()?,
                "i" => 0,
                _ => return None,
            };
            trace.push(TraceEntry {
                pc,
                is_load: kind == "l",
                load_value,
            });
        }
        (trace.len() == len).then(|| (dyn_instrs, Arc::new(trace)))
    }

    /// Persist a reference trace atomically.
    pub fn store_trace(
        &self,
        key: &JobKey,
        descriptor: &str,
        dyn_instrs: u64,
        trace: &Trace,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.trace_path(key);
        let tmp = tmp_sibling(&path);
        {
            let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(w, "{TRACE_MARKER}")?;
            writeln!(w, "{descriptor}")?;
            writeln!(w, "{dyn_instrs} {}", trace.len())?;
            for e in trace.iter() {
                if e.is_load {
                    writeln!(w, "l {} {}", e.pc, e.load_value)?;
                } else {
                    writeln!(w, "i {}", e.pc)?;
                }
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, &path)
    }

    fn ckpt_path(&self, key: &JobKey) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }

    /// Load the functional checkpoint for `key`, verifying the stored
    /// descriptor. `None` means "fast-forward by interpretation instead"
    /// (miss, corrupt entry, or stale descriptor).
    pub fn load_ckpt(&self, key: &JobKey, descriptor: &str) -> Option<Checkpoint> {
        let file = std::fs::File::open(self.ckpt_path(key)).ok()?;
        let mut lines = BufReader::new(file).lines();
        if lines.next()?.ok()? != CKPT_MARKER {
            return None;
        }
        if lines.next()?.ok()? != descriptor {
            return None;
        }
        let header = lines.next()?.ok()?;
        let mut parts = header.split(' ');
        let pc: u64 = parts.next()?.parse().ok()?;
        let index: u64 = parts.next()?.parse().ok()?;
        let n_pages: usize = parts.next()?.parse().ok()?;
        let regs32 = |line: String, tag: &str| -> Option<[u64; 32]> {
            let mut it = line.split(' ');
            if it.next()? != tag {
                return None;
            }
            let mut regs = [0u64; 32];
            for r in regs.iter_mut() {
                *r = it.next()?.parse().ok()?;
            }
            it.next().is_none().then_some(regs)
        };
        let int_regs = regs32(lines.next()?.ok()?, "i")?;
        let fp_bits = regs32(lines.next()?.ok()?, "f")?;
        let mut pages = Vec::with_capacity(n_pages);
        for line in lines {
            let line = line.ok()?;
            let mut it = line.split(' ');
            if it.next()? != "p" {
                return None;
            }
            let base: u64 = it.next()?.parse().ok()?;
            let hex = it.next()?;
            if it.next().is_some() || hex.len() % 2 != 0 {
                return None;
            }
            let bytes: Option<Vec<u8>> = (0..hex.len() / 2)
                .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).ok())
                .collect();
            pages.push((base, bytes?));
        }
        (pages.len() == n_pages).then_some(Checkpoint {
            pc,
            index,
            int_regs,
            fp_bits,
            pages,
        })
    }

    /// Persist a functional checkpoint atomically.
    pub fn store_ckpt(
        &self,
        key: &JobKey,
        descriptor: &str,
        ckpt: &Checkpoint,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.ckpt_path(key);
        let tmp = tmp_sibling(&path);
        {
            let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(w, "{CKPT_MARKER}")?;
            writeln!(w, "{descriptor}")?;
            writeln!(w, "{} {} {}", ckpt.pc, ckpt.index, ckpt.pages.len())?;
            for (tag, regs) in [("i", &ckpt.int_regs), ("f", &ckpt.fp_bits)] {
                write!(w, "{tag}")?;
                for r in regs.iter() {
                    write!(w, " {r}")?;
                }
                writeln!(w)?;
            }
            let mut hex = String::new();
            for (base, bytes) in &ckpt.pages {
                hex.clear();
                for b in bytes.iter() {
                    use std::fmt::Write as _;
                    let _ = write!(hex, "{b:02x}");
                }
                writeln!(w, "p {base} {hex}")?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, &path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = tmp_sibling(path);
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }
}

/// A temp-file name next to `path`, unique per process.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{cell_descriptor, key_of, trace_descriptor};
    use mtvp_core::Mode;
    use mtvp_workloads::Scale;

    fn scratch() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("mtvp-cache-unit-{}-{n}", std::process::id()))
    }

    #[test]
    fn cell_round_trip_and_collision_guard() {
        let dir = scratch();
        let cache = Cache::new(&dir);
        let cfg = SimConfig::new(Mode::Baseline);
        let desc = cell_descriptor("mcf", &cfg, Scale::Tiny);
        let key = key_of(&desc);
        assert!(cache.load_cell(&key, &desc).is_none());
        let entry = CellEntry {
            format: CELL_MARKER.to_string(),
            version: SIM_VERSION.to_string(),
            descriptor: desc.clone(),
            bench: "mcf".to_string(),
            suite_int: true,
            scale: "tiny".to_string(),
            config: cfg.clone(),
            dyn_instrs: 1234,
            stats: PipeStats::default(),
            sampled: None,
        };
        cache.store_cell(&key, &entry).unwrap();
        let back = cache.load_cell(&key, &desc).expect("hit");
        assert_eq!(back, entry);
        // A different descriptor for the same file is rejected.
        let other = cell_descriptor("mesa", &cfg, Scale::Tiny);
        assert!(cache.load_cell(&key, &other).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_round_trip_and_descriptor_guard() {
        let dir = scratch();
        let cache = Cache::new(&dir);
        let desc = crate::key::lint_descriptor("mcf", Scale::Tiny);
        let key = key_of(&desc);
        assert!(cache.load_lint(&key, &desc).is_none());
        let mut b = mtvp_isa::ProgramBuilder::new();
        b.li(mtvp_isa::Reg(1), 1);
        b.halt();
        let report = mtvp_analysis::lint_program(&b.build());
        let entry = LintEntry::new(&desc, "mcf", "tiny", &report);
        cache.store_lint(&key, &entry).unwrap();
        let back = cache.load_lint(&key, &desc).expect("hit");
        assert_eq!(back, entry);
        assert_eq!(back.errors, 0);
        // A different descriptor for the same file is rejected.
        let other = crate::key::lint_descriptor("mesa", Scale::Tiny);
        assert!(cache.load_lint(&key, &other).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ckpt_round_trip_is_bit_exact() {
        let dir = scratch();
        let cache = Cache::new(&dir);
        let desc = crate::key::ckpt_descriptor("mcf", Scale::Tiny, 50_000);
        let key = key_of(&desc);
        assert!(cache.load_ckpt(&key, &desc).is_none());
        let mut int_regs = [0u64; 32];
        int_regs[5] = u64::MAX;
        let mut fp_bits = [0u64; 32];
        fp_bits[7] = f64::NAN.to_bits();
        let mut page = vec![0u8; 4096];
        page[0] = 0xab;
        page[4095] = 0xcd;
        let ckpt = Checkpoint {
            pc: 42,
            index: 50_000,
            int_regs,
            fp_bits,
            pages: vec![(0, page.clone()), (1 << 20, vec![0xee; 4096])],
        };
        cache.store_ckpt(&key, &desc, &ckpt).unwrap();
        let back = cache.load_ckpt(&key, &desc).expect("hit");
        assert_eq!(back, ckpt);
        // A different descriptor (other index) for the same file misses.
        let other = crate::key::ckpt_descriptor("mcf", Scale::Tiny, 60_000);
        assert!(cache.load_ckpt(&key, &other).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_round_trip() {
        let dir = scratch();
        let cache = Cache::new(&dir);
        let desc = trace_descriptor("mcf", Scale::Tiny);
        let key = key_of(&desc);
        let mut trace = Trace::new();
        trace.push(TraceEntry {
            pc: 5,
            is_load: true,
            load_value: u64::MAX,
        });
        trace.push(TraceEntry {
            pc: 6,
            is_load: false,
            load_value: 0,
        });
        cache.store_trace(&key, &desc, 2, &trace).unwrap();
        let (n, back) = cache.load_trace(&key, &desc).expect("hit");
        assert_eq!(n, 2);
        assert_eq!(back.len(), 2);
        assert_eq!(back.oracle_load_value(0, 5), Some(u64::MAX));
        assert_eq!(back.oracle_load_value(1, 6), None);
        // Descriptor mismatch is a miss.
        assert!(cache
            .load_trace(&key, &trace_descriptor("mcf", Scale::Full))
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
