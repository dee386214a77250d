//! Sparse functional main memory.

use mtvp_isa::interp::{for_each_page_span, Bus};
use std::cell::Cell;
use std::sync::Arc;

const PAGE_SIZE: u64 = 4096;
/// Pages per directory group: each group table spans 64 MiB of address
/// space and costs 64 KiB of `u32` slots when touched.
const GROUP_PAGES: u64 = 1 << 14;

type Page = [u8; PAGE_SIZE as usize];

/// Sparse, paged, byte-addressable main memory holding the architectural
/// data image during a cycle-level simulation.
///
/// Implements [`mtvp_isa::interp::Bus`], so the reference interpreter and
/// the pipeline can run against identical memory semantics. Untouched
/// memory reads as zero.
///
/// Pages live in a flat arena indexed through a two-level directory
/// (group → page slot), with a one-entry cache of the last page touched.
/// Loads and stores show strong page locality, so the common case is a
/// compare + direct slice index instead of a hash-map probe. Reads of
/// absent pages never allocate, which keeps wrong-path and
/// value-speculated addresses free.
///
/// Pages are copy-on-write: `clone` copies one pointer per resident page,
/// and the first write to a page still shared with another image copies
/// that page alone. A sampled run clones one pristine data image for its
/// machine and for every checkpoint restore instead of rebuilding it.
#[derive(Clone, Debug, Default)]
pub struct MainMemory {
    /// All resident pages, in allocation order.
    arena: Vec<Arc<Page>>,
    /// Page number of each arena slot (parallel to `arena`).
    page_addrs: Vec<u64>,
    /// Group directory: `dir[page >> 14][page & 0x3fff]` is the arena
    /// slot + 1 of that page, or 0 when the page is absent.
    dir: Vec<Option<Box<[u32]>>>,
    /// `(page_number, arena_slot + 1)` of the last page touched; slot 0
    /// means the cache is empty. A `Cell` lets read paths keep `&self`.
    last_page: Cell<(u64, u32)>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arena slot of `page`, if resident.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<usize> {
        let (cached_page, cached_slot) = self.last_page.get();
        if cached_slot != 0 && cached_page == page {
            return Some(cached_slot as usize - 1);
        }
        let group = (page / GROUP_PAGES) as usize;
        let slot = *self
            .dir
            .get(group)?
            .as_ref()?
            .get((page % GROUP_PAGES) as usize)?;
        if slot == 0 {
            return None;
        }
        self.last_page.set((page, slot));
        Some(slot as usize - 1)
    }

    /// Arena slot of `page`, allocating a zero page if it is absent.
    fn slot_or_alloc(&mut self, page: u64) -> usize {
        if let Some(idx) = self.slot_of(page) {
            return idx;
        }
        let group = (page / GROUP_PAGES) as usize;
        if group >= self.dir.len() {
            self.dir.resize_with(group + 1, || None);
        }
        let table = self.dir[group]
            .get_or_insert_with(|| vec![0u32; GROUP_PAGES as usize].into_boxed_slice());
        self.arena.push(Arc::new([0; PAGE_SIZE as usize]));
        self.page_addrs.push(page);
        let slot = self.arena.len() as u32; // slot + 1 encoding
        table[(page % GROUP_PAGES) as usize] = slot;
        self.last_page.set((page, slot));
        slot as usize - 1
    }

    /// Writable contents of `page`, allocated if absent and copied first
    /// if another image still shares it.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let idx = self.slot_or_alloc(page);
        Arc::make_mut(&mut self.arena[idx])
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize);
        self.slot_of(page).map_or(0, |idx| self.arena[idx][off])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE)[off] = val;
    }

    /// Read the 64-bit word at `addr` without counting it as a simulated
    /// access (used by oracles and test assertions).
    pub fn peek_u64(&self, addr: u64) -> u64 {
        if addr % PAGE_SIZE <= PAGE_SIZE - 8 {
            let (page, off) = (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize);
            match self.slot_of(page) {
                Some(idx) => {
                    let p = &self.arena[idx];
                    u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Number of (read, write) word accesses performed through [`Bus`].
    pub fn access_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.arena.len()
    }

    /// Iterate over the resident pages as `(byte base address, contents)`,
    /// in allocation order (sort by address for a canonical image). Used
    /// to export the architectural image for sampled-simulation
    /// checkpoints.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.page_addrs
            .iter()
            .zip(self.arena.iter())
            .map(|(&page, bytes)| (page * PAGE_SIZE, &bytes[..]))
    }

    /// The resident page at byte address `base` (must be page-aligned),
    /// or `None` if absent. Does not count as an access.
    pub fn page(&self, base: u64) -> Option<&[u8]> {
        assert_eq!(base % PAGE_SIZE, 0, "page base must be aligned");
        self.slot_of(base / PAGE_SIZE)
            .map(|idx| &self.arena[idx][..])
    }

    /// Whether `self` and `other` hold the same physical copy of the
    /// page at `base` (must be page-aligned): true for every page of a
    /// clone until either image writes it.
    pub fn shares_page(&self, other: &MainMemory, base: u64) -> bool {
        assert_eq!(base % PAGE_SIZE, 0, "page base must be aligned");
        let page = base / PAGE_SIZE;
        match (self.slot_of(page), other.slot_of(page)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&self.arena[a], &other.arena[b]),
            _ => false,
        }
    }

    /// The resident pages whose contents differ from `base`'s (absent
    /// there counts as different), as `(byte base address, contents)` in
    /// allocation order: the delta a checkpoint stores against the
    /// program's initial image. Pages still shared with `base` are
    /// skipped without comparing bytes.
    pub fn pages_changed_from<'a>(
        &'a self,
        base: &'a MainMemory,
    ) -> impl Iterator<Item = (u64, &'a [u8])> {
        self.page_addrs
            .iter()
            .zip(&self.arena)
            .filter(move |&(&page, p)| match base.slot_of(page) {
                Some(b) => !Arc::ptr_eq(p, &base.arena[b]) && base.arena[b] != *p,
                None => true,
            })
            .map(|(&page, p)| (page * PAGE_SIZE, &p[..]))
    }

    /// Install a full page image at `base` (must be page-aligned, and
    /// `bytes` must be exactly one page). The import half of the
    /// checkpoint/state-transfer contract; does not count as an access.
    pub fn install_page(&mut self, base: u64, bytes: &[u8]) {
        assert_eq!(base % PAGE_SIZE, 0, "page base must be aligned");
        assert_eq!(
            bytes.len() as u64,
            PAGE_SIZE,
            "page must be {PAGE_SIZE} bytes"
        );
        let idx = self.slot_or_alloc(base / PAGE_SIZE);
        // A fresh copy: a page shared with another image is replaced,
        // never written through.
        self.arena[idx] = Arc::new(bytes.try_into().expect("one page"));
    }

    /// FNV-1a checksum over all resident page contents (page-order
    /// independent: each page hashed with its address). Used by
    /// differential tests to compare final memory images.
    pub fn checksum(&self) -> u64 {
        let mut pages: Vec<(u64, &[u8])> = self
            .page_addrs
            .iter()
            .copied()
            .zip(self.arena.iter().map(|p| &p[..]))
            .collect();
        pages.sort_by_key(|&(addr, _)| addr);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for (addr, page) in pages {
            for b in addr.to_le_bytes() {
                mix(b);
            }
            for &b in page.iter() {
                mix(b);
            }
        }
        h
    }
}

impl Bus for MainMemory {
    fn read_u64(&mut self, addr: u64) -> u64 {
        self.reads += 1;
        self.peek_u64(addr)
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
        self.writes += 1;
        let bytes = val.to_le_bytes();
        if addr % PAGE_SIZE <= PAGE_SIZE - 8 {
            let off = (addr % PAGE_SIZE) as usize;
            self.page_mut(addr / PAGE_SIZE)[off..off + 8].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Page copies; counts the words the default word loop would write.
    fn load_segment(&mut self, base: u64, bytes: &[u8]) {
        self.writes += bytes.len().div_ceil(8) as u64;
        for_each_page_span(base, bytes, PAGE_SIZE, |page, off, data, zeros| {
            let dst = &mut self.page_mut(page)[off..off + data.len() + zeros];
            dst[..data.len()].copy_from_slice(data);
            dst[data.len()..].fill(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_default() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_u64(0x4000), 0);
        m.write_u64(0x4000, 123);
        assert_eq!(m.read_u64(0x4000), 123);
        assert_eq!(m.peek_u64(0x4000), 123);
        let (r, w) = m.access_counts();
        assert_eq!((r, w), (2, 1)); // peek doesn't count
    }

    #[test]
    fn straddling_access() {
        let mut m = MainMemory::new();
        let addr = PAGE_SIZE - 4;
        m.write_u64(addr, 0xA1B2_C3D4_E5F6_0708);
        assert_eq!(m.read_u64(addr), 0xA1B2_C3D4_E5F6_0708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn checksum_distinguishes_states() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        a.write_u64(0x1000, 1);
        b.write_u64(0x1000, 1);
        assert_eq!(a.checksum(), b.checksum());
        b.write_u64(0x1008, 2);
        assert_ne!(a.checksum(), b.checksum());
        // Same contents written in different order hash equal.
        let mut c = MainMemory::new();
        c.write_u64(0x1008, 2);
        c.write_u64(0x1000, 1);
        assert_eq!(b.checksum(), c.checksum());
    }

    #[test]
    fn pages_export_and_install_round_trip() {
        let mut m = MainMemory::new();
        m.write_u64(0x2000, 11);
        m.write_u64(GROUP_PAGES * PAGE_SIZE + 8, 22);
        let mut copy = MainMemory::new();
        for (base, bytes) in m.pages() {
            copy.install_page(base, bytes);
        }
        assert_eq!(copy.peek_u64(0x2000), 11);
        assert_eq!(copy.peek_u64(GROUP_PAGES * PAGE_SIZE + 8), 22);
        assert_eq!(copy.checksum(), m.checksum());
        assert_eq!(copy.access_counts(), (0, 0)); // installs are not accesses
    }

    #[test]
    fn page_lookup() {
        let mut m = MainMemory::new();
        m.write_u64(0x3008, 7);
        let page = m.page(0x3000).expect("resident");
        assert_eq!(page.len() as u64, PAGE_SIZE);
        assert_eq!(u64::from_le_bytes(page[8..16].try_into().unwrap()), 7);
        assert!(m.page(0x5000).is_none());
    }

    #[test]
    fn writing_a_clone_leaves_the_original_unchanged() {
        let mut orig = MainMemory::new();
        orig.write_u64(0x1000, 1);
        orig.write_u64(0x2000, 2);
        let mut copy = orig.clone();
        copy.write_u64(0x1000, 10);
        copy.write_u64(PAGE_SIZE * 9, 3); // a page only the clone has
        assert_eq!(orig.peek_u64(0x1000), 1);
        assert_eq!(orig.resident_pages(), 2);
        assert_eq!(copy.peek_u64(0x1000), 10);
        assert_eq!(copy.peek_u64(0x2000), 2);
        // The original's own writes stay out of the clone too.
        orig.write_u64(0x2000, 20);
        assert_eq!(copy.peek_u64(0x2000), 2);
    }

    #[test]
    fn page_sharing_is_reported_until_the_first_write() {
        let mut orig = MainMemory::new();
        orig.write_u64(0x1000, 1);
        orig.write_u64(0x2000, 2);
        let mut copy = orig.clone();
        assert!(copy.shares_page(&orig, 0x1000));
        assert!(copy.shares_page(&orig, 0x2000));
        copy.write_u64(0x1008, 5);
        assert!(!copy.shares_page(&orig, 0x1000));
        assert!(copy.shares_page(&orig, 0x2000));
        // Absent pages are never shared; a page of equal bytes but a
        // separate copy is not shared either.
        assert!(!copy.shares_page(&orig, 0x3000));
        let mut twin = MainMemory::new();
        twin.write_u64(0x2000, 2);
        assert!(!twin.shares_page(&orig, 0x2000));
    }

    #[test]
    fn install_page_on_a_clone_never_reaches_the_original() {
        let mut orig = MainMemory::new();
        orig.write_u64(0x4000, 7);
        let before = orig.checksum();
        let mut copy = orig.clone();
        copy.install_page(0x4000, &[0xAB; PAGE_SIZE as usize]);
        copy.install_page(0x8000, &[0xCD; PAGE_SIZE as usize]);
        assert_eq!(orig.checksum(), before);
        assert_eq!(orig.peek_u64(0x4000), 7);
        assert!(orig.page(0x8000).is_none());
        assert_eq!(copy.peek_u64(0x4000), 0xABAB_ABAB_ABAB_ABAB);
        assert!(!copy.shares_page(&orig, 0x4000));
    }

    #[test]
    fn checkpoint_delta_lists_only_changed_pages() {
        let mut orig = MainMemory::new();
        for page in 0..4 {
            orig.write_u64(page * PAGE_SIZE, page + 1);
        }
        let mut copy = orig.clone();
        assert_eq!(copy.pages_changed_from(&orig).count(), 0);
        // Rewriting a page with its own contents unshares it but leaves
        // nothing to persist; a real change and a new page both count.
        copy.write_u64(0, 1);
        copy.write_u64(PAGE_SIZE * 2 + 8, 9);
        copy.write_u64(PAGE_SIZE * 7, 1);
        let changed: Vec<u64> = copy.pages_changed_from(&orig).map(|(b, _)| b).collect();
        assert_eq!(changed, vec![PAGE_SIZE * 2, PAGE_SIZE * 7]);
    }

    #[test]
    fn distant_pages_and_absent_reads() {
        let mut m = MainMemory::new();
        // Pages far apart land in different directory groups.
        let far = GROUP_PAGES * PAGE_SIZE * 3 + 8;
        m.write_u64(8, 1);
        m.write_u64(far, 2);
        assert_eq!(m.peek_u64(8), 1);
        assert_eq!(m.peek_u64(far), 2);
        assert_eq!(m.resident_pages(), 2);
        // Reading an absent page (even beyond the directory) allocates
        // nothing and yields zero.
        assert_eq!(m.peek_u64(far * 1000), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.resident_pages(), 2);
    }
}
