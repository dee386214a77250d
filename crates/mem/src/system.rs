//! The assembled memory hierarchy (Table 1 of the paper).

use crate::cache::{CacheGeometry, CacheStats, TagCache};
use crate::mshr::Mshr;
use crate::prefetch::{PrefetchConfig, PrefetchStats, Prefetcher, StreamProbe};
use crate::shared::SharedL3Handle;
use mtvp_isa::DataSegment;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Full memory-hierarchy configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Unified L3 geometry.
    pub l3: CacheGeometry,
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// L3 hit latency (cycles).
    pub l3_latency: u64,
    /// Main-memory latency (cycles).
    pub mem_latency: u64,
    /// MSHR capacity: the maximum number of outstanding memory-level
    /// misses. Demand loads beyond it are refused and must retry
    /// (`access_data_demand` returns `None`), bounding memory-level
    /// parallelism the way real miss queues and DRAM bandwidth do.
    pub mshrs: usize,
    /// Stride prefetcher configuration.
    pub prefetch: PrefetchConfig,
}

impl MemConfig {
    /// Table 1 of the paper: 64KB/2-way L1s @2, 512KB/8-way L2 @20,
    /// 4MB/16-way L3 @50, 1000-cycle memory, aggressive stride prefetcher.
    pub fn hpca2005() -> Self {
        MemConfig {
            line_bytes: 64,
            l1i: CacheGeometry::new(64 * 1024, 2, 64),
            l1d: CacheGeometry::new(64 * 1024, 2, 64),
            l2: CacheGeometry::new(512 * 1024, 8, 64),
            l3: CacheGeometry::new(4 * 1024 * 1024, 16, 64),
            l1_latency: 2,
            l2_latency: 20,
            l3_latency: 50,
            mem_latency: 1000,
            mshrs: 16,
            prefetch: PrefetchConfig::hpca2005(),
        }
    }

    /// A scaled-down hierarchy for fast tests: tiny caches, short memory.
    pub fn tiny() -> Self {
        MemConfig {
            line_bytes: 64,
            l1i: CacheGeometry::new(4 * 1024, 2, 64),
            l1d: CacheGeometry::new(4 * 1024, 2, 64),
            l2: CacheGeometry::new(16 * 1024, 4, 64),
            l3: CacheGeometry::new(64 * 1024, 8, 64),
            l1_latency: 2,
            l2_latency: 10,
            l3_latency: 20,
            mem_latency: 100,
            mshrs: 16,
            prefetch: PrefetchConfig {
                table_entries: 64,
                ..PrefetchConfig::hpca2005()
            },
        }
    }
}

/// Which level of the hierarchy satisfied an access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// L1 (instruction or data) hit.
    L1,
    /// Satisfied by a stream buffer (prefetched line).
    Stream,
    /// Merged with an outstanding miss in the MSHRs.
    Mshr,
    /// L2 hit.
    L2,
    /// L3 hit.
    L3,
    /// Main memory.
    Memory,
}

impl HitLevel {
    /// Stable display name (observability labels).
    pub fn name(self) -> &'static str {
        match self {
            HitLevel::L1 => "L1",
            HitLevel::Stream => "Stream",
            HitLevel::Mshr => "Mshr",
            HitLevel::L2 => "L2",
            HitLevel::L3 => "L3",
            HitLevel::Memory => "Memory",
        }
    }
}

/// An observable hierarchy occurrence, recorded only when observation has
/// been switched on with [`MemSystem::obs_enable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemEvent {
    /// A pending fill arrived and its line was installed.
    Fill {
        /// Cycle the install happened (the drain cycle, not the request).
        at: u64,
        /// Cache-line byte address.
        line: u64,
    },
}

/// Kind of data access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate).
    Write,
}

/// Result of a data access: when it completes and where it hit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the data is available.
    pub ready_at: u64,
    /// Level that supplied the line.
    pub level: HitLevel,
}

/// Aggregate hierarchy statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Demand data accesses by level served.
    pub l1_hits: u64,
    /// Demand accesses served by stream buffers.
    pub stream_hits: u64,
    /// Demand accesses merged into outstanding misses.
    pub mshr_merges: u64,
    /// Demand accesses served by L2.
    pub l2_hits: u64,
    /// Demand accesses served by L3.
    pub l3_hits: u64,
    /// Demand accesses served by main memory.
    pub mem_accesses: u64,
    /// Instruction-fetch accesses that missed L1I.
    pub icache_misses: u64,
    /// Instruction-fetch accesses.
    pub icache_accesses: u64,
    /// Demand accesses refused because every MSHR was busy.
    pub mshr_rejections: u64,
}

/// Whether the lines the byte ranges cover (each `[start, end)`, `start`
/// line-aligned) are pairwise distinct: no two ranges share a line.
fn lines_disjoint(ranges: &[(u64, u64)], line: u64) -> bool {
    let mut spans: Vec<(u64, u64)> = ranges
        .iter()
        .map(|&(start, end)| (start / line, end.div_ceil(line)))
        .collect();
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].1 <= w[1].0)
}

/// Pending cache fill: (arrival cycle, line byte address, level mask, dirty).
type PendingFill = Reverse<(u64, u64, u8, bool)>;

const FILL_L1D: u8 = 1;
const FILL_L2: u8 = 2;
const FILL_L3: u8 = 4;
const FILL_L1I: u8 = 8;

/// The timing side of the memory system: caches + MSHRs + prefetcher.
///
/// Data accesses report *when* they complete ([`Access::ready_at`]); the
/// data value itself is read from [`crate::MainMemory`] (or a store
/// buffer) by the pipeline. Fills are installed when they arrive, not when
/// they are requested, so a line is not visible in L1 while its miss is
/// still outstanding (the MSHRs cover that window).
pub struct MemSystem {
    cfg: MemConfig,
    l1i: TagCache,
    l1d: TagCache,
    l2: TagCache,
    l3: TagCache,
    mshr: Mshr,
    prefetcher: Prefetcher,
    pending: BinaryHeap<PendingFill>,
    stats: MemStats,
    /// CMP topology: when attached, the private L3 is bypassed and every
    /// below-L2 access consults the shared last-level cache instead,
    /// paying the interconnect round trip. `None` (the default) leaves
    /// the single-core hierarchy byte-identical.
    shared_l3: Option<SharedAttach>,
    /// Observation log: `None` (the default) records nothing and costs one
    /// branch per fill install; `Some` accumulates events until drained.
    obs: Option<Vec<MemEvent>>,
}

/// One core's attachment to a shared L3: the handle plus timing constants
/// cached at attach time so the hot path takes the lock only for tag
/// operations.
struct SharedAttach {
    handle: SharedL3Handle,
    asid: u16,
    latency: u64,
    round_trip: u64,
}

impl MemSystem {
    /// Build the hierarchy from a configuration.
    pub fn new(cfg: MemConfig) -> Self {
        MemSystem {
            l1i: TagCache::new(cfg.l1i),
            l1d: TagCache::new(cfg.l1d),
            l2: TagCache::new(cfg.l2),
            l3: TagCache::new(cfg.l3),
            mshr: Mshr::new(cfg.mshrs),
            prefetcher: Prefetcher::new(cfg.prefetch),
            pending: BinaryHeap::new(),
            cfg,
            stats: MemStats::default(),
            shared_l3: None,
            obs: None,
        }
    }

    /// Attach this hierarchy to a shared L3 as address space `asid`. From
    /// now on the private L3 is bypassed: every access below L2 consults
    /// the shared array over the interconnect instead. Call before any
    /// timed access (the pipeline attaches at construction).
    pub fn attach_shared_l3(&mut self, handle: SharedL3Handle, asid: u16) {
        let latency = handle.latency();
        let round_trip = handle.round_trip();
        self.shared_l3 = Some(SharedAttach {
            handle,
            asid,
            latency,
            round_trip,
        });
    }

    /// Whether a shared L3 is attached.
    pub fn has_shared_l3(&self) -> bool {
        self.shared_l3.is_some()
    }

    /// Switch on event observation. Until this is called, the hierarchy
    /// records nothing beyond its aggregate statistics.
    pub fn obs_enable(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Vec::new());
        }
    }

    /// Take the events observed since the last drain (empty when
    /// observation is off).
    pub fn obs_drain(&mut self) -> Vec<MemEvent> {
        match self.obs.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Prefetcher statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher.stats()
    }

    /// Per-cache statistics: (l1i, l1d, l2, l3).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats) {
        (
            self.l1i.stats(),
            self.l1d.stats(),
            self.l2.stats(),
            self.l3.stats(),
        )
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// Install fills that have arrived by `now`.
    fn drain_pending(&mut self, now: u64) {
        while let Some(Reverse((ready, line, mask, dirty))) = self.pending.peek().copied() {
            if ready > now {
                break;
            }
            self.pending.pop();
            if mask & FILL_L3 != 0 {
                self.l3.fill(line, false);
            }
            if mask & FILL_L2 != 0 {
                self.l2.fill(line, false);
            }
            if mask & FILL_L1D != 0 {
                self.l1d.fill(line, dirty);
            }
            if mask & FILL_L1I != 0 {
                self.l1i.fill(line, false);
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.push(MemEvent::Fill { at: ready, line });
            }
        }
    }

    fn schedule_fill(&mut self, ready: u64, line: u64, mask: u8, dirty: bool) {
        self.pending.push(Reverse((ready, line, mask, dirty)));
    }

    /// Whether a new memory-level miss can be accepted right now.
    fn mshr_has_room(&mut self, now: u64) -> bool {
        self.mshr.live_count(now) < self.cfg.mshrs
    }

    /// Access below L1: probe L2, then the last level (private L3, or the
    /// shared L3 over the interconnect when attached), then memory.
    /// Returns (ready cycle, level, fill mask for the levels that missed).
    fn below_l1(&mut self, now: u64, line: u64) -> (u64, HitLevel, u8) {
        if self.l2.access(line, false) {
            (now + self.cfg.l2_latency, HitLevel::L2, 0)
        } else if let Some(sh) = &self.shared_l3 {
            if sh.handle.access(sh.asid, line) {
                (now + sh.latency + sh.round_trip, HitLevel::L3, FILL_L2)
            } else {
                // Install-at-access (see `crate::shared`): the tag goes in
                // now; the arrival window is modelled by this core's MSHR.
                sh.handle.fill(sh.asid, line);
                let ready = now + sh.round_trip + self.cfg.mem_latency;
                self.mshr.allocate(now, line, ready);
                (ready, HitLevel::Memory, FILL_L2)
            }
        } else if self.l3.access(line, false) {
            (now + self.cfg.l3_latency, HitLevel::L3, FILL_L2)
        } else {
            let ready = now + self.cfg.mem_latency;
            self.mshr.allocate(now, line, ready);
            (ready, HitLevel::Memory, FILL_L2 | FILL_L3)
        }
    }

    /// Last-level residency probe: the shared L3 when attached, the
    /// private L3 otherwise.
    fn llc_probe(&self, line: u64) -> bool {
        match &self.shared_l3 {
            Some(sh) => sh.handle.probe(sh.asid, line),
            None => self.l3.probe(line),
        }
    }

    /// Whether a demand access to `addr` would need a new memory-level
    /// miss it cannot get an MSHR for (pure check, no state change).
    fn would_block(&mut self, now: u64, addr: u64) -> bool {
        let line = self.line_of(addr);
        !self.l1d.probe(line)
            && self.mshr.lookup(now, line).is_none()
            && !self.l2.probe(line)
            && !self.llc_probe(line)
            && !self.stream_holds(line)
            && !self.mshr_has_room(now)
    }

    fn stream_holds(&self, line: u64) -> bool {
        self.prefetcher
            .streams()
            .iter()
            .any(|sb| sb.valid && sb.lines.iter().any(|&(l, _)| l == line))
    }

    /// Demand *load* access with MSHR back-pressure: returns `None` when
    /// the access would need a memory-level miss but all MSHRs are busy —
    /// the load must retry later (it stays in its issue queue).
    pub fn access_data_demand(
        &mut self,
        now: u64,
        pc: u64,
        addr: u64,
        kind: AccessKind,
    ) -> Option<Access> {
        self.drain_pending(now);
        if self.would_block(now, addr) {
            self.stats.mshr_rejections += 1;
            return None;
        }
        Some(self.access_data(now, pc, addr, kind))
    }

    /// Issue a prefetch for `addr` into stream buffer `stream`. Prefetches
    /// are dropped (not queued) when no MSHR is available.
    fn issue_prefetch(&mut self, now: u64, stream: usize, addr: u64) {
        let line = self.line_of(addr);
        // Prefetch merges with outstanding demand misses.
        let ready = if let Some(r) = self.mshr.lookup(now, line) {
            r
        } else {
            if !self.l2.probe(line) && !self.llc_probe(line) && !self.mshr_has_room(now) {
                return;
            }
            let (ready, _, mask) = self.below_l1(now, line);
            if mask != 0 {
                self.schedule_fill(ready, line, mask, false);
            }
            ready
        };
        self.prefetcher.push_line(stream, line, ready);
    }

    /// Perform a demand data access at cycle `now` from the load/store at
    /// `pc` to byte address `addr`.
    pub fn access_data(&mut self, now: u64, pc: u64, addr: u64, kind: AccessKind) -> Access {
        self.drain_pending(now);
        let write = kind == AccessKind::Write;
        let line = self.line_of(addr);

        if self.l1d.access(line, write) {
            self.stats.l1_hits += 1;
            return Access {
                ready_at: now + self.cfg.l1_latency,
                level: HitLevel::L1,
            };
        }

        // L1 miss: loads train the stride prefetcher (§5.1).
        if !write {
            if let Some((stream, addrs)) = self.prefetcher.train(now, pc, addr) {
                for a in addrs {
                    self.issue_prefetch(now, stream, a);
                }
            }
        }

        // Stream-buffer probe.
        if let StreamProbe::Hit {
            ready_at,
            stream,
            refill,
        } = self.prefetcher.probe(now, line)
        {
            self.stats.stream_hits += 1;
            let ready = ready_at.max(now + self.cfg.l1_latency);
            self.schedule_fill(ready, line, FILL_L1D, write);
            if let Some(r) = refill {
                self.issue_prefetch(now, stream, r);
            }
            return Access {
                ready_at: ready,
                level: HitLevel::Stream,
            };
        }

        // Merge with an outstanding miss.
        if let Some(ready) = self.mshr.lookup(now, line) {
            self.stats.mshr_merges += 1;
            self.schedule_fill(ready, line, FILL_L1D, write);
            return Access {
                ready_at: ready,
                level: HitLevel::Mshr,
            };
        }

        let (ready, level, mask) = self.below_l1(now, line);
        match level {
            HitLevel::L2 => self.stats.l2_hits += 1,
            HitLevel::L3 => self.stats.l3_hits += 1,
            HitLevel::Memory => self.stats.mem_accesses += 1,
            _ => unreachable!("below_l1 only returns L2/L3/Memory"),
        }
        self.schedule_fill(ready, line, mask | FILL_L1D, write);
        Access {
            ready_at: ready,
            level,
        }
    }

    /// Earliest cycle strictly after `now` at which the hierarchy's state
    /// changes on its own: a scheduled cache fill arrives or an in-flight
    /// MSHR fill completes. Returns `None` when nothing is outstanding.
    ///
    /// Pure observation — nothing is drained or pruned — so callers (the
    /// pipeline's idle fast-forward) can poll it without perturbing timing.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        let fill = self
            .pending
            .iter()
            .map(|&Reverse((ready, _, _, _))| ready)
            .filter(|&r| r > now)
            .min();
        match (fill, self.mshr.next_ready(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Warm-start fill: install the line containing `addr` into every
    /// data-side cache level (the shared array when attached). Counts no
    /// hit or miss, but a fill that displaces a valid line counts an
    /// eviction, so `CacheStats::evictions` includes warm-start
    /// displacement. [`MemSystem::warm_data_image`] walks the program's
    /// data image through this.
    pub fn warm_line(&mut self, addr: u64) {
        let line = self.line_of(addr);
        match &self.shared_l3 {
            Some(sh) => sh.handle.fill(sh.asid, line),
            None => {
                self.l3.fill(line, false);
            }
        }
        self.l2.fill(line, false);
        self.l1d.fill(line, false);
    }

    /// Warm start: walk the initialized data image `segments` through
    /// the data-side cache tags, line by line in segment order — the
    /// state after the fast-forward phase of a SimPoint-sampled run.
    ///
    /// Only the tail of the walk can survive in an LRU cache: once a set
    /// absorbs a full complement of distinct fills, whatever it held
    /// before is gone. Skipping all but the last 2×capacity lines of the
    /// walk is therefore bit-exact (the 2× margin guarantees every set
    /// sees at least `assoc` fills even when segment boundaries skew the
    /// set rotation) and keeps this O(cache) instead of O(image) —
    /// constant-data images run to tens of MiB.
    ///
    /// On a fresh private hierarchy whose walked lines are pairwise
    /// distinct (no two segments share a line), each tag array is filled
    /// in one O(1)-per-line pass with the state the walk would leave. Anything else — overlapping
    /// segments, a shared L3, a re-walk — takes the [`warm_line`] walk.
    ///
    /// [`warm_line`]: MemSystem::warm_line
    pub fn warm_data_image(&mut self, segments: &[DataSegment]) {
        let ranges = self.warm_ranges(segments);
        if self.fresh_private() && lines_disjoint(&ranges, self.cfg.line_bytes) {
            let line = self.cfg.line_bytes;
            let lines = || {
                ranges
                    .iter()
                    .flat_map(move |&(a, end)| (a..end).step_by(line as usize))
            };
            self.l3.fill_distinct_fresh(lines());
            self.l2.fill_distinct_fresh(lines());
            self.l1d.fill_distinct_fresh(lines());
        } else {
            self.warm_walk(&ranges);
        }
    }

    /// The part of the data-image walk that can survive: `[start, end)`
    /// byte ranges, `start` line-aligned, one per segment that reaches
    /// the last 2×capacity lines, in walk order.
    fn warm_ranges(&self, segments: &[DataSegment]) -> Vec<(u64, u64)> {
        let line = self.cfg.line_bytes;
        let seg_lines = |seg: &DataSegment| {
            let start = seg.base & !(line - 1);
            let end = seg.base + seg.bytes.len() as u64;
            end.saturating_sub(start).div_ceil(line)
        };
        let total: u64 = segments.iter().map(&seg_lines).sum();
        let keep = 2 * [self.cfg.l1d, self.cfg.l2, self.cfg.l3]
            .iter()
            .map(|g| g.size_bytes / g.line_bytes)
            .max()
            .expect("three levels");
        let mut skip = total.saturating_sub(keep);
        let mut ranges = Vec::new();
        for seg in segments {
            let n = seg_lines(seg);
            if skip >= n {
                skip -= n;
                continue;
            }
            let start = (seg.base & !(line - 1)) + skip * line;
            skip = 0;
            ranges.push((start, seg.base + seg.bytes.len() as u64));
        }
        ranges
    }

    /// Walk `ranges` through [`MemSystem::warm_line`], line by line.
    fn warm_walk(&mut self, ranges: &[(u64, u64)]) {
        for &(start, end) in ranges {
            let mut a = start;
            while a < end {
                self.warm_line(a);
                a += self.cfg.line_bytes;
            }
        }
    }

    /// No line filled or looked up yet, no shared L3, and every data-side
    /// cache tags at the hierarchy's line size (so distinct lines stay
    /// distinct tags).
    fn fresh_private(&self) -> bool {
        self.shared_l3.is_none()
            && [&self.l1d, &self.l2, &self.l3]
                .iter()
                .all(|c| c.is_fresh() && c.geometry().line_bytes == self.cfg.line_bytes)
    }

    /// Non-mutating probe: where would a demand access to `addr` hit right
    /// now? Used by the paper's cache-level-oracle load selector (§5.1),
    /// which assumes perfect knowledge of a load's cache behaviour.
    /// Stream buffers and MSHRs are not consulted — the selector cares
    /// about the *cache residency* of the line.
    pub fn probe_level(&self, addr: u64) -> HitLevel {
        let line = self.line_of(addr);
        if self.l1d.probe(line) {
            HitLevel::L1
        } else if self.l2.probe(line) {
            HitLevel::L2
        } else if self.llc_probe(line) {
            HitLevel::L3
        } else {
            HitLevel::Memory
        }
    }

    /// Perform an instruction fetch at cycle `now` for the cache line
    /// containing instruction-byte address `addr`. Returns the cycle at
    /// which the fetch block is available.
    pub fn access_inst(&mut self, now: u64, addr: u64) -> Access {
        self.drain_pending(now);
        self.stats.icache_accesses += 1;
        let line = self.line_of(addr);
        if self.l1i.access(line, false) {
            return Access {
                ready_at: now + self.cfg.l1_latency,
                level: HitLevel::L1,
            };
        }
        self.stats.icache_misses += 1;
        if let Some(ready) = self.mshr.lookup(now, line) {
            self.schedule_fill(ready, line, FILL_L1I, false);
            return Access {
                ready_at: ready,
                level: HitLevel::Mshr,
            };
        }
        let (ready, level, mask) = self.below_l1(now, line);
        self.schedule_fill(ready, line, mask | FILL_L1I, false);
        Access {
            ready_at: ready,
            level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::hpca2005())
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_l1() {
        let mut m = sys();
        let a = m.access_data(0, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(a.level, HitLevel::Memory);
        assert_eq!(a.ready_at, 1000);
        // Before arrival, a second access merges in the MSHR.
        let b = m.access_data(10, 4, 0x10_0008, AccessKind::Read);
        assert_eq!(b.level, HitLevel::Mshr);
        assert_eq!(b.ready_at, 1000);
        // After arrival, L1 hit.
        let c = m.access_data(1000, 4, 0x10_0010, AccessKind::Read);
        assert_eq!(c.level, HitLevel::L1);
        assert_eq!(c.ready_at, 1002);
    }

    #[test]
    fn l2_and_l3_hits_after_l1_eviction() {
        let mut m = sys();
        // Bring a line in, then evict it from L1 by filling its set.
        let base = 0x20_0000u64;
        let first = m.access_data(0, 4, base, AccessKind::Read);
        let mut now = first.ready_at;
        // L1D is 64KB 2-way: set stride = 512 sets * 64B = 32KB. Two more
        // lines in the same set evict the first.
        for i in 1..=2u64 {
            let a = m.access_data(now, 8, base + i * 32 * 1024, AccessKind::Read);
            now = a.ready_at;
        }
        let again = m.access_data(now, 4, base, AccessKind::Read);
        assert_eq!(again.level, HitLevel::L2);
        assert_eq!(again.ready_at, now + 20);
    }

    #[test]
    fn streaming_loads_get_prefetched() {
        let mut m = sys();
        let pc = 0x40;
        let mut now = 0u64;
        let mut levels = Vec::new();
        for i in 0..32u64 {
            let a = m.access_data(now, pc, 0x100_0000 + i * 64, AccessKind::Read);
            levels.push(a.level);
            now = a.ready_at + 1;
        }
        // After training, stream-buffer hits appear.
        assert!(
            levels.iter().filter(|l| **l == HitLevel::Stream).count() >= 8,
            "expected stream hits, got {levels:?}"
        );
        assert!(m.prefetch_stats().issued > 0);
        // Stream hits cost far less than memory latency.
        let tail = &levels[16..];
        assert!(
            tail.iter().all(|l| *l != HitLevel::Memory),
            "late accesses still going to memory: {tail:?}"
        );
    }

    #[test]
    fn prefetch_hides_most_of_memory_latency_in_steady_state() {
        let mut m = sys();
        let pc = 0x44;
        let mut now = 100_000u64; // avoid interactions with cycle 0
        let mut last_cost = 0;
        for i in 0..64u64 {
            let a = m.access_data(now, pc, 0x200_0000 + i * 64, AccessKind::Read);
            last_cost = a.ready_at - now;
            now = a.ready_at + 200; // ample gap for prefetches to land
        }
        assert!(
            last_cost <= m.config().l3_latency,
            "steady-state streaming access cost {last_cost} too high"
        );
    }

    #[test]
    fn writes_allocate_and_dirty() {
        let mut m = sys();
        let w = m.access_data(0, 4, 0x30_0000, AccessKind::Write);
        assert_eq!(w.level, HitLevel::Memory);
        let r = m.access_data(w.ready_at, 4, 0x30_0000, AccessKind::Read);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn icache_miss_and_hit() {
        let mut m = sys();
        let a = m.access_inst(0, 0);
        assert_eq!(a.level, HitLevel::Memory);
        let b = m.access_inst(a.ready_at, 8);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(m.stats().icache_misses, 1);
        assert_eq!(m.stats().icache_accesses, 2);
    }

    #[test]
    fn fills_are_not_visible_before_arrival() {
        let mut m = sys();
        let a = m.access_data(0, 4, 0x50_0000, AccessKind::Read);
        // At cycle 500 the line is still in flight: not an L1 hit.
        let b = m.access_data(500, 4, 0x50_0000, AccessKind::Read);
        assert_eq!(b.level, HitLevel::Mshr);
        assert_eq!(b.ready_at, a.ready_at);
    }

    #[test]
    fn next_event_cycle_tracks_fills_and_mshrs() {
        let mut m = sys();
        assert_eq!(m.next_event_cycle(0), None);
        let a = m.access_data(0, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(a.level, HitLevel::Memory);
        // The in-flight fill is the next event from any earlier cycle...
        assert_eq!(m.next_event_cycle(0), Some(a.ready_at));
        assert_eq!(m.next_event_cycle(a.ready_at - 1), Some(a.ready_at));
        // ...and is in the past once `now` reaches it ("strictly after").
        assert_eq!(m.next_event_cycle(a.ready_at), None);
        // Observation does not install the fill: the line still becomes an
        // L1 hit at arrival, exactly as without the query.
        let b = m.access_data(a.ready_at, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(m.next_event_cycle(b.ready_at), None);
    }

    fn shared_pair() -> (MemSystem, MemSystem, crate::shared::SharedL3Handle) {
        let cfg = MemConfig::hpca2005();
        let h = crate::shared::SharedL3Handle::new(crate::shared::SharedL3Spec {
            geometry: cfg.l3,
            latency: cfg.l3_latency,
            hop: 4,
        });
        let mut a = MemSystem::new(cfg);
        let mut b = MemSystem::new(cfg);
        a.attach_shared_l3(h.clone(), 0);
        b.attach_shared_l3(h.clone(), 1);
        (a, b, h)
    }

    #[test]
    fn shared_l3_pays_the_interconnect_and_isolates_asids() {
        let (mut a, mut b, h) = shared_pair();
        // Core A's cold miss travels over the link to memory and installs
        // the shared tag at access time.
        let first = a.access_data(0, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(first.ready_at, 8 + 1000, "round trip + memory latency");
        assert!(h.probe(0, 0x10_0000));
        // Core B uses the same virtual address but a different ASID: its
        // access must not hit core A's line.
        let other = b.access_data(0, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(other.level, HitLevel::Memory);
        // Once A's private copies are evicted, the shared L3 serves it
        // with the hop cost on top of the array latency. Evict from L1
        // (2-way, 32KB stride) and L2 (8-way, 64KB stride) by conflict.
        let mut now = first.ready_at;
        for i in 1..=8u64 {
            let x = a.access_data(now, 8, 0x10_0000 + i * 64 * 1024, AccessKind::Read);
            now = x.ready_at + 1;
        }
        let back = a.access_data(now, 4, 0x10_0000, AccessKind::Read);
        assert_eq!(back.level, HitLevel::L3);
        assert_eq!(back.ready_at, now + 50 + 8);
    }

    #[test]
    fn unattached_hierarchy_is_unchanged_by_the_shared_module() {
        // The single-core path must be byte-identical to the pre-CMP
        // hierarchy: exact latencies of the original cold-miss test.
        let mut m = sys();
        assert!(!m.has_shared_l3());
        let a = m.access_data(0, 4, 0x10_0000, AccessKind::Read);
        assert_eq!((a.level, a.ready_at), (HitLevel::Memory, 1000));
        let c = m.access_data(1000, 4, 0x10_0010, AccessKind::Read);
        assert_eq!((c.level, c.ready_at), (HitLevel::L1, 1002));
    }

    #[test]
    fn warm_line_fills_the_shared_array_when_attached() {
        let (mut a, _b, h) = shared_pair();
        a.warm_line(0x42_0000);
        assert!(h.probe(0, 0x42_0000));
        assert!(!h.probe(1, 0x42_0000));
        assert_eq!(a.probe_level(0x42_0000), HitLevel::L1);
    }

    /// Warm `segments` into fresh `cfg` hierarchies once through
    /// `warm_data_image` and once through the per-line walk; assert every
    /// tag array (lines, LRU stamps, clock, statistics) agrees. Returns
    /// whether `warm_data_image` took the one-pass fill.
    fn assert_warm_matches_walk(cfg: MemConfig, segments: &[DataSegment]) -> bool {
        let mut fast = MemSystem::new(cfg);
        let ranges = fast.warm_ranges(segments);
        let one_pass = lines_disjoint(&ranges, cfg.line_bytes);
        fast.warm_data_image(segments);
        let mut walked = MemSystem::new(cfg);
        walked.warm_walk(&ranges);
        assert_eq!(
            [&fast.l1i, &fast.l1d, &fast.l2, &fast.l3],
            [&walked.l1i, &walked.l1d, &walked.l2, &walked.l3]
        );
        one_pass
    }

    #[test]
    fn one_pass_warm_start_matches_the_walk_on_every_registry_program() {
        for w in mtvp_workloads::suite() {
            for scale in [mtvp_workloads::Scale::Tiny, mtvp_workloads::Scale::Small] {
                let program = w.build(scale);
                for cfg in [MemConfig::hpca2005(), MemConfig::tiny()] {
                    assert!(
                        assert_warm_matches_walk(cfg, &program.data),
                        "{} {scale:?}: expected the one-pass fill",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn segments_sharing_a_line_take_the_walk() {
        // The first segment's padded tail and the second segment share
        // line 0x1000; a third segment makes every level evict, yet is
        // short enough that the walk skips none of the first two.
        let segments = [
            DataSegment {
                base: 0x1000,
                bytes: vec![1; 9],
            },
            DataSegment {
                base: 0x1020,
                bytes: vec![2; 8],
            },
            DataSegment {
                base: 0x10_0000,
                bytes: vec![3; 96 * 1024],
            },
        ];
        assert!(!assert_warm_matches_walk(MemConfig::tiny(), &segments));
        // Without the shared line the same layout fills in one pass.
        assert!(assert_warm_matches_walk(MemConfig::tiny(), &segments[1..]));
    }

    #[test]
    fn shared_l3_attach_after_a_one_pass_warm_start_matches_the_walk() {
        let cfg = MemConfig::tiny();
        let segments = [
            DataSegment {
                base: 0x2000,
                bytes: vec![1; 40 * 1024],
            },
            DataSegment {
                base: 0x40_0000,
                bytes: vec![2; 100 * 1024],
            },
        ];
        let spec = crate::shared::SharedL3Spec {
            geometry: cfg.l3,
            latency: cfg.l3_latency,
            hop: 4,
        };
        // As a CMP builds its cores: warm each private hierarchy, then
        // attach it to the shared array, which re-walks the image.
        let build = |one_pass: bool| {
            let h = crate::shared::SharedL3Handle::new(spec);
            let systems: Vec<MemSystem> = (0..2u16)
                .map(|asid| {
                    let mut m = MemSystem::new(cfg);
                    if one_pass {
                        m.warm_data_image(&segments);
                    } else {
                        let ranges = m.warm_ranges(&segments);
                        m.warm_walk(&ranges);
                    }
                    m.attach_shared_l3(h.clone(), asid);
                    m.warm_data_image(&segments);
                    m
                })
                .collect();
            (systems, h.tags())
        };
        let (fast, fast_l3) = build(true);
        let (walked, walked_l3) = build(false);
        assert_eq!(fast_l3, walked_l3);
        for (f, w) in fast.iter().zip(&walked) {
            assert_eq!([&f.l1d, &f.l2, &f.l3], [&w.l1d, &w.l2, &w.l3]);
        }
    }

    #[test]
    fn tiny_config_is_consistent() {
        let mut m = MemSystem::new(MemConfig::tiny());
        let a = m.access_data(0, 4, 0x1000, AccessKind::Read);
        assert_eq!(a.ready_at, 100);
        let b = m.access_data(100, 4, 0x1000, AccessKind::Read);
        assert_eq!(b.ready_at, 102);
    }
}
