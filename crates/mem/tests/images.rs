//! The page-wise data-image loaders against the word-by-word default
//! they replace: same bytes, same resident pages, same write count.

use mtvp_isa::interp::{Bus, SimpleBus};
use mtvp_isa::{DataSegment, Program};
use mtvp_mem::MainMemory;
use mtvp_workloads::{suite, Scale};
use proptest::prelude::*;

/// Forwards word accesses only, so `load_segment` is the trait's
/// default word loop.
struct WordLoop<'a, B>(&'a mut B);

impl<B: Bus> Bus for WordLoop<'_, B> {
    fn read_u64(&mut self, addr: u64) -> u64 {
        self.0.read_u64(addr)
    }
    fn write_u64(&mut self, addr: u64, val: u64) {
        self.0.write_u64(addr, val)
    }
}

fn sorted_bases<'a>(pages: impl Iterator<Item = (u64, &'a [u8])>) -> Vec<u64> {
    let mut bases: Vec<u64> = pages.map(|(base, _)| base).collect();
    bases.sort_unstable();
    bases
}

/// Load `program` both ways into both paged memories and compare.
fn assert_loaders_agree(program: &Program) {
    let mut paged = MainMemory::new();
    program.init_memory(&mut paged);
    let mut words = MainMemory::new();
    program.init_memory(&mut WordLoop(&mut words));
    assert_eq!(paged.checksum(), words.checksum(), "{}", program.name);
    assert_eq!(
        sorted_bases(paged.pages()),
        sorted_bases(words.pages()),
        "{}",
        program.name
    );
    assert_eq!(
        paged.access_counts(),
        words.access_counts(),
        "{}",
        program.name
    );

    let mut paged = SimpleBus::new();
    program.init_memory(&mut paged);
    let mut words = SimpleBus::new();
    program.init_memory(&mut WordLoop(&mut words));
    assert_eq!(paged.checksum(), words.checksum(), "{}", program.name);
    assert_eq!(
        sorted_bases(paged.pages()),
        sorted_bases(words.pages()),
        "{}",
        program.name
    );
}

#[test]
fn page_loader_matches_word_loop_on_every_registry_program() {
    for w in suite() {
        assert_loaders_agree(&w.build(Scale::Tiny));
    }
}

proptest! {
    #[test]
    fn page_loader_matches_word_loop_on_random_layouts(
        segs in prop::collection::vec((0u64..3 * 4096, 0usize..9_000, any::<u8>()), 1..6)
    ) {
        // Bases within three pages of each other: unaligned bases,
        // partial trailing words, words straddling pages, and adjacent or
        // overlapping segments (a later segment's padding zeros overwrite
        // an earlier one's bytes, in both loaders).
        let data = segs
            .iter()
            .map(|&(base, len, seed)| DataSegment {
                base: 0x10_0000 + base,
                bytes: (0..len).map(|i| seed.wrapping_add((i * 31) as u8) | 1).collect(),
            })
            .collect();
        assert_loaders_agree(&Program { name: "layout".into(), code: vec![], data });
    }
}
