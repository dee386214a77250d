//! Functional reference interpreter and shared instruction semantics.
//!
//! The pure evaluation functions in this module ([`eval_int`], [`eval_fp`],
//! [`eval_fp_cmp`], [`branch_taken`], [`effective_addr`]) are the *single*
//! definition of instruction semantics in the workspace: the out-of-order
//! pipeline in `mtvp-pipeline` calls the same functions at execute time, so
//! the cycle simulator and this interpreter can never disagree about what an
//! instruction computes — only about when.

use crate::inst::Op;
use crate::program::Program;
use crate::trace::{Trace, TraceEntry};
use std::cell::Cell;

/// Byte size of a [`SimpleBus`] page.
const PAGE_SIZE: u64 = 4096;
/// Pages per directory group: each group table spans 64 MiB of address
/// space and costs 64 KiB of `u32` slots when touched.
const GROUP_PAGES: u64 = 1 << 14;

/// Data-memory interface used by the interpreter (and implemented by the
/// cycle simulator's main memory in `mtvp-mem`).
///
/// All accesses are 64-bit; unaligned addresses are allowed and handled by
/// implementations byte-wise.
pub trait Bus {
    /// Read the 64-bit little-endian word at `addr`.
    fn read_u64(&mut self, addr: u64) -> u64;
    /// Write the 64-bit little-endian word `val` at `addr`.
    fn write_u64(&mut self, addr: u64, val: u64);

    /// Write one initialized data segment: `bytes` from `base` up, one
    /// 64-bit word at a time, the trailing partial word padded with
    /// zeros. Paged memories override this with page copies that leave
    /// the same bytes and the same resident pages
    /// (see [`for_each_page_span`]).
    fn load_segment(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            self.write_u64(
                addr,
                u64::from_le_bytes(ch.try_into().expect("8-byte chunk")),
            );
            addr += 8;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.write_u64(addr, u64::from_le_bytes(word));
        }
    }
}

/// Split the zero-padded image of a data segment — `bytes` at `base`,
/// extended with zeros to a whole number of 64-bit words, exactly what
/// [`Bus::load_segment`]'s word loop writes — into page spans, in
/// address order. `span(page, offset, data, zeros)` receives the page
/// number, the span's offset in that page, the segment bytes landing
/// there, and how many padding zeros follow them.
pub fn for_each_page_span(
    base: u64,
    bytes: &[u8],
    page_size: u64,
    mut span: impl FnMut(u64, usize, &[u8], usize),
) {
    let padded = bytes.len().next_multiple_of(8);
    let mut done = 0;
    while done < padded {
        let addr = base + done as u64;
        let off = (addr % page_size) as usize;
        let n = (page_size as usize - off).min(padded - done);
        let data = &bytes[done.min(bytes.len())..(done + n).min(bytes.len())];
        span(addr / page_size, off, data, n - data.len());
        done += n;
    }
}

/// A simple sparse paged memory, sufficient for functional execution.
///
/// Pages live in a flat arena indexed through a two-level directory
/// (group → page slot) with a one-entry cache of the last page touched —
/// the same layout as `mtvp-mem`'s `MainMemory`, for the same reason:
/// functional fast-forward does one memory access per load/store, and a
/// compare + direct slice index beats a hash-map probe on every one of
/// them. Reads of absent pages never allocate.
#[derive(Clone, Debug, Default)]
pub struct SimpleBus {
    /// All resident pages, in allocation order.
    arena: Vec<Box<[u8]>>,
    /// Page number of each arena slot (parallel to `arena`).
    page_addrs: Vec<u64>,
    /// Group directory: `dir[page >> 14][page & 0x3fff]` is the arena
    /// slot + 1 of that page, or 0 when the page is absent.
    dir: Vec<Option<Box<[u32]>>>,
    /// `(page_number, arena_slot + 1)` of the last page touched; slot 0
    /// means the cache is empty. A `Cell` lets read paths keep `&self`.
    last_page: Cell<(u64, u32)>,
}

impl SimpleBus {
    /// Create an empty memory (all bytes read as zero).
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

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        let idx = match self.slot_of(page) {
            Some(idx) => idx,
            None => {
                let group = (page / GROUP_PAGES) as usize;
                if group >= self.dir.len() {
                    self.dir.resize_with(group + 1, || None);
                }
                let table = self.dir[group]
                    .get_or_insert_with(|| vec![0u32; GROUP_PAGES as usize].into_boxed_slice());
                self.arena
                    .push(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                self.page_addrs.push(page);
                let slot = self.arena.len() as u32; // slot + 1 encoding
                table[(page % GROUP_PAGES) as usize] = slot;
                self.last_page.set((page, slot));
                slot as usize - 1
            }
        };
        &mut self.arena[idx]
    }

    /// Read a single byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize);
        self.slot_of(page).map_or(0, |idx| self.arena[idx][off])
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE)[off] = val;
    }

    /// Number of pages that have ever been written.
    pub fn touched_pages(&self) -> usize {
        self.arena.len()
    }

    /// Iterate over the resident pages as `(byte base address, contents)`,
    /// in allocation order (sort by address for a canonical image).
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.page_addrs
            .iter()
            .zip(self.arena.iter())
            .map(|(&page, bytes)| (page * PAGE_SIZE, &bytes[..]))
    }

    /// Install a full page image at `base` (must be page-aligned, and
    /// `bytes` must be exactly one page).
    pub fn install_page(&mut self, base: u64, bytes: &[u8]) {
        assert_eq!(base % PAGE_SIZE, 0, "page base must be aligned");
        assert_eq!(
            bytes.len() as u64,
            PAGE_SIZE,
            "page must be {PAGE_SIZE} bytes"
        );
        self.page_mut(base / PAGE_SIZE).copy_from_slice(bytes);
    }

    /// FNV-1a checksum over all resident page contents (page-order
    /// independent: each page hashed with its address). Matches
    /// `MainMemory::checksum` in `mtvp-mem`, so the interpreter's and the
    /// pipeline's final memory images are directly comparable.
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

impl Bus for SimpleBus {
    fn read_u64(&mut self, addr: u64) -> u64 {
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
            // Page-straddling access: byte-wise.
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
            u64::from_le_bytes(bytes)
        }
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
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

    fn load_segment(&mut self, base: u64, bytes: &[u8]) {
        for_each_page_span(base, bytes, PAGE_SIZE, |page, off, data, zeros| {
            let dst = &mut self.page_mut(page)[off..off + data.len() + zeros];
            dst[..data.len()].copy_from_slice(data);
            dst[data.len()..].fill(0);
        });
    }
}

/// Effective address of a load/store: `base + imm` with wrapping.
#[inline]
pub fn effective_addr(base: u64, imm: i64) -> u64 {
    base.wrapping_add(imm as u64)
}

/// Evaluate an integer ALU operation.
///
/// `a`/`b` are the source register values; immediate forms use `imm`.
/// Shift amounts are masked to 6 bits; division by zero yields all-ones
/// (quotient) / the dividend (remainder), Alpha-style.
///
/// # Panics
/// Panics if `op` is not an integer ALU opcode.
#[inline]
pub fn eval_int(op: Op, a: u64, b: u64, imm: i64) -> u64 {
    use Op::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Divu => a.checked_div(b).unwrap_or(u64::MAX),
        Remu => a.checked_rem(b).unwrap_or(a),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Sll => a << (b & 63),
        Srl => a >> (b & 63),
        Sra => ((a as i64) >> (b & 63)) as u64,
        Slt => ((a as i64) < (b as i64)) as u64,
        Sltu => (a < b) as u64,
        Addi => a.wrapping_add(imm as u64),
        Andi => a & (imm as u64),
        Ori => a | (imm as u64),
        Xori => a ^ (imm as u64),
        Slli => a << ((imm as u64) & 63),
        Srli => a >> ((imm as u64) & 63),
        Srai => ((a as i64) >> ((imm as u64) & 63)) as u64,
        Slti => ((a as i64) < imm) as u64,
        Li => imm as u64,
        _ => panic!("eval_int called with non-integer op {op:?}"),
    }
}

/// Evaluate a floating-point operation. `acc` is the accumulator source
/// read by `Fmadd` (the destination register's old value).
///
/// # Panics
/// Panics if `op` is not an fp-arithmetic opcode.
#[inline]
pub fn eval_fp(op: Op, a: f64, b: f64, acc: f64) -> f64 {
    use Op::*;
    match op {
        Fadd => a + b,
        Fsub => a - b,
        Fmul => a * b,
        Fdiv => a / b,
        Fmin => a.min(b),
        Fmax => a.max(b),
        Fsqrt => a.abs().sqrt(),
        Fneg => -a,
        Fabs => a.abs(),
        Fmov => a,
        Fmadd => acc + a * b,
        _ => panic!("eval_fp called with non-fp op {op:?}"),
    }
}

/// Evaluate an fp comparison, producing 0 or 1.
///
/// # Panics
/// Panics if `op` is not an fp-comparison opcode.
#[inline]
pub fn eval_fp_cmp(op: Op, a: f64, b: f64) -> u64 {
    use Op::*;
    match op {
        Fclt => (a < b) as u64,
        Fcle => (a <= b) as u64,
        Fceq => (a == b) as u64,
        _ => panic!("eval_fp_cmp called with non-compare op {op:?}"),
    }
}

/// Whether a conditional branch is taken given its source values.
///
/// # Panics
/// Panics if `op` is not a conditional-branch opcode.
#[inline]
pub fn branch_taken(op: Op, a: u64, b: u64) -> bool {
    use Op::*;
    match op {
        Beq => a == b,
        Bne => a != b,
        Blt => (a as i64) < (b as i64),
        Bge => (a as i64) >= (b as i64),
        Bltu => a < b,
        Bgeu => a >= b,
        _ => panic!("branch_taken called with non-branch op {op:?}"),
    }
}

/// Convert an f64 to the integer result of `Fcvti` (truncating, saturating,
/// NaN → 0 — matches Rust's `as` cast, which is deterministic).
#[inline]
pub fn fp_to_int(v: f64) -> u64 {
    (v as i64) as u64
}

/// Outcome of one interpreter step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Executed a normal instruction.
    Continue,
    /// Executed `Halt`; the program is finished.
    Halted,
    /// The PC left the text segment (a program bug — the reference
    /// interpreter never follows predicted wrong paths).
    OutOfText,
}

/// Final state of an interpreter run.
#[derive(Clone, Debug)]
pub struct InterpResult {
    /// Integer register file at the end of the run.
    pub int_regs: [u64; 32],
    /// Floating-point register file at the end of the run.
    pub fp_regs: [f64; 32],
    /// Dynamic instructions executed (including the final `Halt`).
    pub dyn_instrs: u64,
    /// Dynamic loads executed.
    pub loads: u64,
    /// Dynamic stores executed.
    pub stores: u64,
    /// Dynamic conditional branches executed.
    pub branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_branches: u64,
    /// Whether the program reached `Halt` (vs. hitting the step limit).
    pub halted: bool,
}

/// The functional reference interpreter.
///
/// Executes a [`Program`] one instruction at a time against a [`Bus`].
/// Used for: oracle trace generation, workload validation, and differential
/// testing of the cycle-level pipeline.
#[derive(Clone, Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    /// Integer register file (`r0` kept at zero by construction).
    pub int_regs: [u64; 32],
    /// Floating-point register file.
    pub fp_regs: [f64; 32],
    /// Current PC (instruction index).
    pub pc: u64,
    halted: bool,
    counts: Counts,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    dyn_instrs: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    taken: u64,
}

impl<'p> Interp<'p> {
    /// Create an interpreter positioned at PC 0 with zeroed registers.
    /// The caller is responsible for initializing data memory (see
    /// [`Program::init_memory`]); [`Interp::run`] does it automatically.
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            int_regs: [0; 32],
            fp_regs: [0.0; 32],
            pc: 0,
            halted: false,
            counts: Counts::default(),
        }
    }

    /// Whether `Halt` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instruction count so far.
    pub fn dyn_instrs(&self) -> u64 {
        self.counts.dyn_instrs
    }

    /// Reposition the interpreter at `pc` with `dyn_instrs` instructions
    /// already accounted for, clearing the halt flag.
    ///
    /// This is the import half of the sampled-simulation state-transfer
    /// contract: the caller is responsible for making the register files
    /// (public fields) and the memory image behind the [`Bus`] consistent
    /// with that execution point. The load/store/branch counters are *not*
    /// rewound — after a resume they describe only the functionally
    /// executed portion of the run.
    pub fn resume_at(&mut self, pc: u64, dyn_instrs: u64) {
        self.pc = pc;
        self.counts.dyn_instrs = dyn_instrs;
        self.halted = false;
    }

    #[inline]
    fn set_int(&mut self, rd: u8, val: u64) {
        if rd != 0 {
            self.int_regs[rd as usize] = val;
        }
    }

    /// Execute a single instruction. `trace`, when provided, receives the
    /// committed-path record for this instruction.
    pub fn step<B: Bus>(&mut self, bus: &mut B, mut trace: Option<&mut Trace>) -> Step {
        use Op::*;
        if self.halted {
            return Step::Halted;
        }
        let inst = match self.program.fetch(self.pc) {
            Some(i) => *i,
            None => return Step::OutOfText,
        };
        self.counts.dyn_instrs += 1;
        let pc32 = self.pc as u32;
        let mut entry = TraceEntry {
            pc: pc32,
            is_load: false,
            load_value: 0,
        };
        let mut next_pc = self.pc + 1;

        match inst.op {
            Add | Sub | Mul | Divu | Remu | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
                let a = self.int_regs[inst.rs1 as usize];
                let b = self.int_regs[inst.rs2 as usize];
                self.set_int(inst.rd, eval_int(inst.op, a, b, inst.imm));
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Li => {
                let a = self.int_regs[inst.rs1 as usize];
                self.set_int(inst.rd, eval_int(inst.op, a, 0, inst.imm));
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                self.counts.branches += 1;
                let a = self.int_regs[inst.rs1 as usize];
                let b = self.int_regs[inst.rs2 as usize];
                if branch_taken(inst.op, a, b) {
                    self.counts.taken += 1;
                    next_pc = inst.imm as u64;
                }
            }
            J => next_pc = inst.imm as u64,
            Jal => {
                self.set_int(inst.rd, self.pc + 1);
                next_pc = inst.imm as u64;
            }
            Jr => next_pc = self.int_regs[inst.rs1 as usize],
            Jalr => {
                let target = self.int_regs[inst.rs1 as usize];
                self.set_int(inst.rd, self.pc + 1);
                next_pc = target;
            }
            Ld => {
                self.counts.loads += 1;
                let addr = effective_addr(self.int_regs[inst.rs1 as usize], inst.imm);
                let v = bus.read_u64(addr);
                entry.is_load = true;
                entry.load_value = v;
                self.set_int(inst.rd, v);
            }
            Fld => {
                self.counts.loads += 1;
                let addr = effective_addr(self.int_regs[inst.rs1 as usize], inst.imm);
                let v = bus.read_u64(addr);
                entry.is_load = true;
                entry.load_value = v;
                self.fp_regs[inst.rd as usize] = f64::from_bits(v);
            }
            St => {
                self.counts.stores += 1;
                let addr = effective_addr(self.int_regs[inst.rs1 as usize], inst.imm);
                bus.write_u64(addr, self.int_regs[inst.rs2 as usize]);
            }
            Fst => {
                self.counts.stores += 1;
                let addr = effective_addr(self.int_regs[inst.rs1 as usize], inst.imm);
                bus.write_u64(addr, self.fp_regs[inst.rs2 as usize].to_bits());
            }
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fsqrt | Fneg | Fabs | Fmov | Fmadd => {
                let a = self.fp_regs[inst.rs1 as usize];
                let b = self.fp_regs[inst.rs2 as usize];
                let acc = self.fp_regs[inst.rd as usize];
                self.fp_regs[inst.rd as usize] = eval_fp(inst.op, a, b, acc);
            }
            Fclt | Fcle | Fceq => {
                let a = self.fp_regs[inst.rs1 as usize];
                let b = self.fp_regs[inst.rs2 as usize];
                self.set_int(inst.rd, eval_fp_cmp(inst.op, a, b));
            }
            Icvtf => {
                self.fp_regs[inst.rd as usize] = self.int_regs[inst.rs1 as usize] as i64 as f64;
            }
            Fcvti => {
                self.set_int(inst.rd, fp_to_int(self.fp_regs[inst.rs1 as usize]));
            }
            Nop => {}
            Halt => {
                self.halted = true;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(entry);
                }
                return Step::Halted;
            }
        }

        if let Some(t) = trace {
            t.push(entry);
        }
        self.pc = next_pc;
        Step::Continue
    }

    fn finish(&self) -> InterpResult {
        InterpResult {
            int_regs: self.int_regs,
            fp_regs: self.fp_regs,
            dyn_instrs: self.counts.dyn_instrs,
            loads: self.counts.loads,
            stores: self.counts.stores,
            branches: self.counts.branches,
            taken_branches: self.counts.taken,
            halted: self.halted,
        }
    }

    /// Initialize data memory and run until `Halt` or `max_steps`.
    pub fn run<B: Bus>(&mut self, bus: &mut B, max_steps: u64) -> InterpResult {
        self.program.init_memory(bus);
        for _ in 0..max_steps {
            match self.step(bus, None) {
                Step::Continue => {}
                Step::Halted | Step::OutOfText => break,
            }
        }
        self.finish()
    }

    /// Initialize data memory and run until `Halt` or `max_steps`, recording
    /// a committed-path [`Trace`].
    pub fn run_traced<B: Bus>(&mut self, bus: &mut B, max_steps: u64) -> (InterpResult, Trace) {
        self.program.init_memory(bus);
        let mut trace = Trace::new();
        for _ in 0..max_steps {
            match self.step(bus, Some(&mut trace)) {
                Step::Continue => {}
                Step::Halted | Step::OutOfText => break,
            }
        }
        (self.finish(), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::{FReg, Reg};

    #[test]
    fn simple_bus_roundtrip_and_straddle() {
        let mut bus = SimpleBus::new();
        bus.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(bus.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(bus.read_u64(0x9999_0000), 0); // untouched reads zero
                                                  // Page-straddling write/read.
        let addr = 2 * 4096 - 3;
        bus.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(bus.read_u64(addr), 0x0102_0304_0506_0708);
        assert!(bus.touched_pages() >= 2);
    }

    #[test]
    fn bus_pages_export_install_checksum() {
        let mut bus = SimpleBus::new();
        bus.write_u64(0x1000, 7);
        // A page in a distant directory group.
        let far = GROUP_PAGES * PAGE_SIZE * 2 + 16;
        bus.write_u64(far, 9);
        assert_eq!(bus.read_u64(0xdead_0000), 0); // absent: no allocation
        assert_eq!(bus.touched_pages(), 2);
        let mut pages: Vec<(u64, Vec<u8>)> = bus.pages().map(|(a, b)| (a, b.to_vec())).collect();
        pages.sort_by_key(|&(a, _)| a);
        assert_eq!(pages.len(), 2);
        // Installing the exported image reproduces contents and checksum
        // even when installed in the opposite order.
        let mut copy = SimpleBus::new();
        for (a, b) in pages.iter().rev() {
            copy.install_page(*a, b);
        }
        assert_eq!(copy.read_u64(0x1000), 7);
        assert_eq!(copy.read_u64(far), 9);
        assert_eq!(copy.checksum(), bus.checksum());
        copy.write_u64(far, 10);
        assert_ne!(copy.checksum(), bus.checksum());
    }

    #[test]
    fn interp_resume_at_repositions() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 5)
            .li(Reg(2), 6)
            .add(Reg(3), Reg(1), Reg(2))
            .halt();
        let p = b.build();
        let mut bus = SimpleBus::new();
        p.init_memory(&mut bus);
        let mut it = Interp::new(&p);
        while !it.halted() {
            it.step(&mut bus, None);
        }
        assert_eq!(it.dyn_instrs(), 4);
        // Rewind to just before the add, as a sampled run would after a
        // detailed window, and re-execute the tail.
        it.resume_at(2, 2);
        assert!(!it.halted());
        it.int_regs[3] = 0;
        while !it.halted() {
            it.step(&mut bus, None);
        }
        assert_eq!(it.int_regs[3], 11);
        assert_eq!(it.dyn_instrs(), 4);
    }

    #[test]
    fn unaligned_within_page() {
        let mut bus = SimpleBus::new();
        bus.write_u64(0x1001, 0x1122_3344_5566_7788);
        assert_eq!(bus.read_u64(0x1001), 0x1122_3344_5566_7788);
    }

    #[test]
    fn int_semantics() {
        assert_eq!(eval_int(Op::Add, 3, u64::MAX, 0), 2); // wrapping
        assert_eq!(eval_int(Op::Sub, 1, 2, 0), u64::MAX);
        assert_eq!(eval_int(Op::Divu, 7, 0, 0), u64::MAX);
        assert_eq!(eval_int(Op::Remu, 7, 0, 0), 7);
        assert_eq!(eval_int(Op::Sra, (-8i64) as u64, 1, 0), (-4i64) as u64);
        assert_eq!(eval_int(Op::Slt, (-1i64) as u64, 0, 0), 1);
        assert_eq!(eval_int(Op::Sltu, (-1i64) as u64, 0, 0), 0);
        assert_eq!(eval_int(Op::Slli, 1, 0, 65), 2); // shift masked to 6 bits
        assert_eq!(eval_int(Op::Li, 999, 0, -5), (-5i64) as u64);
    }

    #[test]
    fn branch_semantics() {
        assert!(branch_taken(Op::Beq, 4, 4));
        assert!(!branch_taken(Op::Bne, 4, 4));
        assert!(branch_taken(Op::Blt, (-1i64) as u64, 0));
        assert!(!branch_taken(Op::Bltu, (-1i64) as u64, 0));
        assert!(branch_taken(Op::Bge, 0, 0));
        assert!(branch_taken(Op::Bgeu, (-1i64) as u64, 0));
    }

    #[test]
    fn fp_semantics() {
        assert_eq!(eval_fp(Op::Fadd, 1.5, 2.5, 0.0), 4.0);
        assert_eq!(eval_fp(Op::Fmadd, 2.0, 3.0, 10.0), 16.0);
        assert_eq!(eval_fp(Op::Fsqrt, -4.0, 0.0, 0.0), 2.0); // |x| then sqrt
        assert_eq!(eval_fp_cmp(Op::Fclt, 1.0, 2.0), 1);
        assert_eq!(eval_fp_cmp(Op::Fceq, f64::NAN, f64::NAN), 0);
        assert_eq!(fp_to_int(f64::NAN), 0);
        assert_eq!(fp_to_int(1e300), i64::MAX as u64); // saturating
    }

    #[test]
    fn loop_program_runs() {
        let mut b = ProgramBuilder::new();
        let (sum, i, n) = (Reg(1), Reg(2), Reg(3));
        b.li(sum, 0).li(i, 0).li(n, 100);
        let top = b.here_label();
        b.add(sum, sum, i).addi(i, i, 1).blt(i, n, top).halt();
        let p = b.build();
        let mut bus = SimpleBus::new();
        let res = Interp::new(&p).run(&mut bus, 10_000);
        assert!(res.halted);
        assert_eq!(res.int_regs[1], 4950);
        assert_eq!(res.branches, 100);
        assert_eq!(res.taken_branches, 99);
    }

    #[test]
    fn memory_and_fp_program() {
        let mut b = ProgramBuilder::new();
        let arr = b.alloc_f64(&[1.0, 2.0, 3.0, 4.0]);
        let out = b.reserve(8);
        let (base, i, n, t, acc, x) = (Reg(1), Reg(2), Reg(3), Reg(4), FReg(1), FReg(2));
        b.li(base, arr as i64).li(i, 0).li(n, 4);
        let top = b.here_label();
        b.slli(t, i, 3);
        b.add(t, t, base);
        b.fld(x, t, 0);
        b.fadd(acc, acc, x);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.li(t, out as i64);
        b.fst(acc, t, 0);
        b.halt();
        let p = b.build();
        let mut bus = SimpleBus::new();
        let res = Interp::new(&p).run(&mut bus, 10_000);
        assert!(res.halted);
        assert_eq!(res.fp_regs[1], 10.0);
        assert_eq!(f64::from_bits(bus.read_u64(out)), 10.0);
        assert_eq!(res.loads, 4);
        assert_eq!(res.stores, 1);
    }

    #[test]
    fn trace_records_loads_and_path() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_u64(&[7]);
        b.li(Reg(1), a as i64);
        b.ld(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.build();
        let mut bus = SimpleBus::new();
        let (res, trace) = Interp::new(&p).run_traced(&mut bus, 100);
        assert_eq!(res.dyn_instrs, 3);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.oracle_load_value(1, 1), Some(7));
        assert_eq!(trace.oracle_load_value(0, 0), None); // li, not a load
        assert_eq!(trace.get(2).unwrap().pc, 2); // halt is recorded
    }

    #[test]
    fn jal_jr_roundtrip() {
        let mut b = ProgramBuilder::new();
        let fun = b.label();
        let ra = Reg(31);
        b.jal(ra, fun); // 0: call
        b.halt(); // 1
        b.bind(fun);
        b.li(Reg(5), 42); // 2
        b.jr(ra); // 3: return to 1
        let p = b.build();
        let mut bus = SimpleBus::new();
        let res = Interp::new(&p).run(&mut bus, 100);
        assert!(res.halted);
        assert_eq!(res.int_regs[5], 42);
        assert_eq!(res.int_regs[31], 1);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut b = ProgramBuilder::new();
        let top = b.here_label();
        b.j(top);
        let p = b.build();
        let mut bus = SimpleBus::new();
        let res = Interp::new(&p).run(&mut bus, 1000);
        assert!(!res.halted);
        assert_eq!(res.dyn_instrs, 1000);
    }

    #[test]
    fn out_of_text_stops() {
        let mut b = ProgramBuilder::new();
        b.nop(); // falls off the end
        let p = b.build();
        let mut bus = SimpleBus::new();
        let mut it = Interp::new(&p);
        p.init_memory(&mut bus);
        assert_eq!(it.step(&mut bus, None), Step::Continue);
        assert_eq!(it.step(&mut bus, None), Step::OutOfText);
    }
}
