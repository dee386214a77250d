//! Executable program representation.

use crate::inst::Inst;
use serde::{Deserialize, Serialize};

/// A contiguous block of initialized data memory.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataSegment {
    /// Base virtual address of the segment.
    pub base: u64,
    /// Raw bytes, laid out starting at `base`.
    pub bytes: Vec<u8>,
}

/// A complete program: code, initial data image, and a name.
///
/// The program counter is an *instruction index* into [`Program::code`]
/// (not a byte address); data memory is a separate 64-bit address space.
/// Programs are produced by [`crate::ProgramBuilder`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable program name (benchmark kernels use their SPEC-like name).
    pub name: String,
    /// Instruction stream; `code[pc]` is the instruction at `pc`.
    pub code: Vec<Inst>,
    /// Initial data memory image.
    pub data: Vec<DataSegment>,
}

impl Program {
    /// Fetch the instruction at `pc`, or `None` if `pc` is outside the text
    /// segment (which happens when the pipeline fetches down a wrong path).
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        self.code.get(pc as usize)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Write the initial data image into `bus`, one
    /// [`crate::interp::Bus::load_segment`] per segment, in order.
    pub fn init_memory<B: crate::interp::Bus>(&self, bus: &mut B) {
        for seg in &self.data {
            bus.load_segment(seg.base, &seg.bytes);
        }
    }

    /// Total bytes of initialized data.
    pub fn data_bytes(&self) -> usize {
        self.data.iter().map(|s| s.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Bus, SimpleBus};
    use crate::Op;

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = Program {
            name: "t".into(),
            code: vec![
                Inst::NOP,
                Inst {
                    op: Op::Halt,
                    ..Inst::NOP
                },
            ],
            data: vec![],
        };
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.fetch(1).unwrap().is_halt());
        assert!(p.fetch(2).is_none());
        assert!(p.fetch(u64::MAX).is_none());
    }

    #[test]
    fn init_memory_writes_segments() {
        let p = Program {
            name: "t".into(),
            code: vec![],
            data: vec![
                DataSegment {
                    base: 0x1000,
                    bytes: vec![1, 0, 0, 0, 0, 0, 0, 0, 2],
                },
                DataSegment {
                    base: 0x2000,
                    bytes: 0xAAu64.to_le_bytes().to_vec(),
                },
            ],
        };
        let mut bus = SimpleBus::new();
        p.init_memory(&mut bus);
        assert_eq!(bus.read_u64(0x1000), 1);
        assert_eq!(bus.read_u64(0x1008), 2); // padded partial word
        assert_eq!(bus.read_u64(0x2000), 0xAA);
        assert_eq!(p.data_bytes(), 17);
    }
}
