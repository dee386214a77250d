//! A shared last-level cache with a point-to-point interconnect model.
//!
//! CMP topologies replace each core's private L3 with one [`SharedL3`]
//! reached over a simple point-to-point link: every access pays a
//! round-trip `hop` latency on top of the array's hit latency. The cache
//! is tag-only, like every cache in this crate, and is shared *by
//! handle*: each core's [`crate::MemSystem`] holds a clone of the same
//! [`SharedL3Handle`] and consults it instead of its private L3.
//!
//! Address-space isolation: co-scheduled programs use overlapping virtual
//! addresses, so each attachment carries an ASID that is folded into the
//! *tag* bits (above bit 48) of every line address. Two cores never hit
//! on each other's lines, but they do contend for the same sets and ways
//! — exactly the destructive interference a shared LLC exhibits.
//!
//! Timing is install-at-access: a miss installs its tag immediately
//! rather than when the fill would arrive. The window in which a real
//! fill would still be in flight is covered by each core's private MSHRs
//! (which already model arrival), and keeping the shared array
//! request-ordered makes the lockstep CMP loop deterministic without
//! cross-core fill plumbing. See DESIGN.md §17.

use crate::cache::{CacheGeometry, CacheStats, TagCache};
use std::sync::{Arc, Mutex};

/// Sizing and timing of a shared last-level cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SharedL3Spec {
    /// Array geometry (size, associativity, line).
    pub geometry: CacheGeometry,
    /// Array hit latency in cycles (before interconnect hops).
    pub latency: u64,
    /// One-way point-to-point hop latency in cycles; every access pays
    /// `2 * hop` (request + response) on top of the array latency.
    pub hop: u64,
}

struct SharedL3 {
    cache: TagCache,
    latency: u64,
    hop: u64,
}

/// A cloneable handle to one shared L3. All clones address the same
/// array; the mutex is uncontended in practice (the CMP cycle loop steps
/// its cores from a single thread).
#[derive(Clone)]
pub struct SharedL3Handle(Arc<Mutex<SharedL3>>);

impl std::fmt::Debug for SharedL3Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.0.lock().expect("shared L3 lock");
        f.debug_struct("SharedL3Handle")
            .field("geometry", &g.cache.geometry())
            .field("latency", &g.latency)
            .field("hop", &g.hop)
            .finish()
    }
}

/// Fold an address-space id into the tag bits of a line address. Set
/// selection uses the low address bits, so lines from different ASIDs
/// still contend for the same sets — only hits are isolated.
#[inline]
pub fn asid_line(asid: u16, line: u64) -> u64 {
    line ^ (u64::from(asid) << 48)
}

impl SharedL3Handle {
    /// A fresh shared L3.
    pub fn new(spec: SharedL3Spec) -> SharedL3Handle {
        SharedL3Handle(Arc::new(Mutex::new(SharedL3 {
            cache: TagCache::new(spec.geometry),
            latency: spec.latency,
            hop: spec.hop,
        })))
    }

    /// Round-trip interconnect cost of one shared-L3 access.
    pub fn round_trip(&self) -> u64 {
        let g = self.0.lock().expect("shared L3 lock");
        2 * g.hop
    }

    /// Array hit latency (before hops).
    pub fn latency(&self) -> u64 {
        self.0.lock().expect("shared L3 lock").latency
    }

    /// LRU access for `asid`'s `line`: `true` on hit (line touched),
    /// `false` on miss (no install — pair with [`SharedL3Handle::fill`]).
    pub fn access(&self, asid: u16, line: u64) -> bool {
        let mut g = self.0.lock().expect("shared L3 lock");
        g.cache.access(asid_line(asid, line), false)
    }

    /// Install `asid`'s `line` (clean).
    pub fn fill(&self, asid: u16, line: u64) {
        let mut g = self.0.lock().expect("shared L3 lock");
        g.cache.fill(asid_line(asid, line), false);
    }

    /// Non-mutating residency probe.
    pub fn probe(&self, asid: u16, line: u64) -> bool {
        let g = self.0.lock().expect("shared L3 lock");
        g.cache.probe(asid_line(asid, line))
    }

    /// A copy of the shared tag array.
    #[cfg(test)]
    pub(crate) fn tags(&self) -> TagCache {
        self.0.lock().expect("shared L3 lock").cache.clone()
    }

    /// Aggregate statistics of the shared array (all attached cores).
    pub fn stats(&self) -> CacheStats {
        self.0.lock().expect("shared L3 lock").cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> SharedL3Handle {
        SharedL3Handle::new(SharedL3Spec {
            geometry: CacheGeometry::new(64 * 1024, 8, 64),
            latency: 20,
            hop: 4,
        })
    }

    #[test]
    fn asids_isolate_hits_but_share_capacity() {
        let h = handle();
        assert!(!h.access(0, 0x1000));
        h.fill(0, 0x1000);
        assert!(h.access(0, 0x1000), "same asid hits its own line");
        assert!(!h.access(1, 0x1000), "another asid must not hit it");
        assert!(h.probe(0, 0x1000));
        assert!(!h.probe(1, 0x1000));
        // Filling the same set from asid 1 evicts asid 0 eventually:
        // 64KB 8-way => 128 sets, set stride 128 * 64 = 8KB.
        for i in 0..8u64 {
            h.fill(1, 0x1000 + i * 8 * 1024);
        }
        assert!(
            !h.probe(0, 0x1000),
            "capacity must be shared across asids (destructive interference)"
        );
    }

    #[test]
    fn handle_clones_share_one_array() {
        let a = handle();
        let b = a.clone();
        a.fill(3, 0x40);
        assert!(b.probe(3, 0x40));
        assert_eq!(b.round_trip(), 8);
        assert_eq!(b.latency(), 20);
        assert!(b.stats().misses + b.stats().hits > 0 || b.stats().evictions == 0);
    }
}
