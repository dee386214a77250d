//! Tag-only set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};

/// Size/shape of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Construct a geometry.
    ///
    /// # Panics
    /// Panics unless `line_bytes` is a power of two and
    /// `size_bytes` is a multiple of `assoc * line_bytes`.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1, "associativity must be at least 1");
        assert_eq!(
            size_bytes % (u64::from(assoc) * line_bytes),
            0,
            "capacity must divide evenly into sets"
        );
        let sets = size_bytes / (u64::from(assoc) * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            size_bytes,
            assoc,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.assoc) * self.line_bytes)
    }
}

/// Hit/miss counters for one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fills that evicted a valid line.
    pub evictions: u64,
    /// Evictions of dirty lines (write-back traffic).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch; smallest = LRU victim.
    lru: u64,
}

/// A tag-only set-associative cache.
///
/// Tracks presence, recency, and dirtiness of lines — the data itself lives
/// in [`crate::MainMemory`] (plus speculative store buffers in the
/// pipeline). Addresses passed in are byte addresses; the cache extracts
/// set index and tag from the *line* address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl TagCache {
    /// Create an empty cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.num_sets();
        TagCache {
            geom,
            lines: vec![Line::default(); (sets * u64::from(geom.assoc)) as usize],
            set_mask: sets - 1,
            line_shift: geom.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = (line_addr & self.set_mask) as usize;
        let assoc = self.geom.assoc as usize;
        set * assoc..(set + 1) * assoc
    }

    /// Look up `addr`; on a hit, refresh LRU state and optionally mark the
    /// line dirty. Counts toward [`CacheStats`].
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        let la = self.line_addr(addr);
        let tag = la; // full line address as tag (set bits redundant but harmless)
        let range = self.set_range(la);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Check presence without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        let range = self.set_range(la);
        self.lines[range].iter().any(|l| l.valid && l.tag == la)
    }

    /// Install the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's byte address if a *dirty* line was
    /// evicted (write-back traffic). Filling an already-present line just
    /// refreshes it.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let la = self.line_addr(addr);
        let range = self.set_range(la);
        // Already present (e.g. racing fills): refresh.
        let clock = self.clock;
        for line in &mut self.lines[range.clone()] {
            if line.valid && line.tag == la {
                line.lru = clock;
                line.dirty |= dirty;
                return None;
            }
        }
        // Choose victim: invalid way first, else LRU.
        let lines = &mut self.lines[range];
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("associativity >= 1");
        let mut evicted = None;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.dirty_evictions += 1;
                evicted = Some(victim.tag << self.line_shift);
            }
        }
        *victim = Line {
            tag: la,
            valid: true,
            dirty,
            lru: clock,
        };
        evicted
    }

    /// Whether nothing has been filled into or looked up in this cache.
    pub(crate) fn is_fresh(&self) -> bool {
        self.clock == 0
    }

    /// Fill a fresh cache with the clean lines containing `addrs`, in
    /// order, in O(1) per line. No two addresses may share a line: on
    /// such input true LRU never hits, so the `k`-th fill of a set takes
    /// way `k mod assoc` — the invalid ways in order, then the line
    /// filled `assoc` fills earlier. Leaves exactly the lines, `lru`
    /// stamps, clock and evictions that [`TagCache::fill`] on each
    /// address would.
    ///
    /// # Panics
    /// Panics unless the cache [`is_fresh`](TagCache::is_fresh).
    pub(crate) fn fill_distinct_fresh(&mut self, addrs: impl IntoIterator<Item = u64>) {
        assert!(self.is_fresh(), "one-pass fill needs a fresh cache");
        let assoc = u64::from(self.geom.assoc);
        let mut fills = vec![0u64; self.set_mask as usize + 1];
        for addr in addrs {
            self.clock += 1;
            let la = self.line_addr(addr);
            let set = (la & self.set_mask) as usize;
            let way = (fills[set] % assoc) as usize;
            fills[set] += 1;
            self.lines[set * assoc as usize + way] = Line {
                tag: la,
                valid: true,
                dirty: false,
                lru: self.clock,
            };
        }
        self.stats.evictions = fills.iter().map(|&k| k.saturating_sub(assoc)).sum();
    }

    /// Invalidate the line containing `addr` if present.
    pub fn invalidate(&mut self, addr: u64) {
        let la = self.line_addr(addr);
        let range = self.set_range(la);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == la {
                line.valid = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagCache {
        // 4 sets x 2 ways x 64B lines = 512B
        TagCache::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(64 * 1024, 2, 64);
        assert_eq!(g.num_sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheGeometry::new(512, 2, 48);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        assert_eq!(c.fill(0x1000, false), None);
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1020, false)); // same 64B line
        assert!(!c.access(0x1040, false)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 sets * 64B = 256B).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, false); // a is now MRU
        c.fill(d, false); // must evict b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(0x0, true);
        c.fill(0x100, false);
        let evicted = c.fill(0x200, false); // evicts dirty 0x0
        assert_eq!(evicted, Some(0x0));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(0x0, false);
        assert!(c.access(0x0, true));
        c.fill(0x100, false);
        let evicted = c.fill(0x200, false);
        assert_eq!(evicted, Some(0x0));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x0, true); // refresh + dirty
        c.fill(0x100, false);
        c.fill(0x200, false); // evicts... 0x0 was refreshed, so 0x100 is victim? No: 0x0 lru=2, 0x100 lru=3 -> victim 0x0
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.probe(0x40));
        c.invalidate(0x40);
        assert!(!c.probe(0x40));
    }

    #[test]
    fn probe_does_not_perturb_state() {
        let mut c = small();
        c.fill(0x0, false);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }
}
