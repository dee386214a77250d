//! In-flight micro-operations and their slab storage.

use crate::regfile::{PregId, RegClass};
use mtvp_branch::ReturnAddressStack;
use mtvp_isa::Inst;

/// Identifier of a hardware context.
pub type CtxId = usize;

/// Slab index of a [`Uop`] (stable while the uop is in flight).
pub type UopId = usize;

/// Lifecycle of a uop.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UopState {
    /// Renamed and waiting in an issue queue.
    Dispatched,
    /// Issued to a functional unit; completion event pending.
    Issued,
    /// Result written back; eligible for commit when it reaches the ROB head.
    Completed,
}

/// A renamed source operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SrcOperand {
    /// Register class.
    pub class: RegClass,
    /// Physical register holding the value.
    pub preg: PregId,
}

/// A renamed destination operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DstOperand {
    /// Register class.
    pub class: RegClass,
    /// Architectural register index (1..32 int, 0..32 fp).
    pub arch: u8,
    /// Newly allocated physical register.
    pub preg: PregId,
    /// Previous mapping of `arch` (freed at commit, restored on squash).
    pub old_preg: PregId,
}

/// Value-speculation state attached to a load.
#[derive(Clone, Debug, Default)]
pub struct VpInfo {
    /// Predicted value used for single-threaded VP, if any.
    pub stvp_value: Option<u64>,
    /// Whether the STVP prediction has been verified once (stats/episodes
    /// recorded); re-executions do not re-verify.
    pub stvp_verified: bool,
    /// Spawned children: (context, predicted value). `None` value for a
    /// spawn-only thread. Resolved at commit of this load.
    pub children: Vec<(CtxId, Option<u64>)>,
    /// Above-threshold alternate values the predictor offered (for the
    /// Fig. 5 measurement), excluding the followed values.
    pub alternates: Vec<u64>,
    /// ILP-pred episode snapshot: (class, issued counter, cycle) at
    /// prediction time.
    pub episode: Option<(mtvp_vp::VpClass, u64, u64)>,
}

impl VpInfo {
    /// Whether any value speculation is attached.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_active(&self) -> bool {
        self.stvp_value.is_some() || !self.children.is_empty()
    }
}

/// Branch state captured at fetch/rename for recovery and training.
#[derive(Clone, Debug)]
pub struct BranchInfo {
    /// Predicted target PC of the *next* instruction to fetch (encodes
    /// the predicted direction for conditional branches).
    pub pred_target: u64,
    /// Global history before this branch shifted in.
    pub ghist_prior: u64,
    /// Return-address stack contents *after* this instruction's push/pop,
    /// restored when an older squash rolls past it.
    pub ras_after: ReturnAddressStack,
    /// Set once the branch has resolved (so reissue re-resolution is
    /// recognized as a second resolution).
    pub resolved: bool,
}

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub struct Uop {
    /// The architectural instruction.
    pub inst: Inst,
    /// Its PC (instruction index).
    pub pc: u64,
    /// Owning context.
    pub ctx: CtxId,
    /// Global age (monotonic across all contexts; program order within a
    /// context's lineage).
    pub seq: u64,
    /// Committed-path dynamic index this instruction believes it occupies
    /// (drives the oracle and differential validation).
    pub trace_idx: u64,
    /// Lifecycle state.
    pub state: UopState,
    /// Renamed sources (up to 3: fmadd).
    pub srcs: [Option<SrcOperand>; 3],
    /// Renamed destination.
    pub dst: Option<DstOperand>,
    /// Branch prediction info (control instructions only).
    pub branch: Option<BranchInfo>,
    /// Value-prediction state (loads only).
    pub vp: VpInfo,
    /// Effective address once computed (loads/stores).
    pub eff_addr: Option<u64>,
    /// Store data value once read (stores).
    pub store_data: Option<u64>,
    /// Whether this uop is waiting in an issue queue (renamed or
    /// redispatched, not yet issued).
    pub in_queue: bool,
    /// The issue stage (the machine's issue epoch) that last issued this
    /// uop. An issued uop keeps its queue slot until the next issue stage
    /// starts, so it still holds one while this equals the current epoch.
    pub issue_epoch: u64,
    /// Execution token: bumped on every (re)issue so stale completion
    /// events from a superseded execution are dropped.
    pub exec_token: u32,
    /// The value the load returned (loads; set at issue time from the
    /// store-visibility chain or memory).
    pub exec_value: Option<u64>,
    /// Resolved direction of a conditional branch (valid once resolved).
    pub resolved_taken: bool,
    /// Resolved next PC of a control instruction (valid once resolved).
    pub resolved_target: u64,
}

impl Uop {
    /// Whether every source operand is ready in `rf`.
    pub fn srcs_ready(&self, rf: &crate::regfile::PhysRegFile) -> bool {
        self.unready_src(rf).is_none()
    }

    /// The first source operand not yet ready in `rf`, if any.
    #[inline]
    pub fn unready_src(&self, rf: &crate::regfile::PhysRegFile) -> Option<SrcOperand> {
        self.srcs
            .iter()
            .flatten()
            .copied()
            .find(|s| !rf.is_ready(s.class, s.preg))
    }
}

/// Generational slab of in-flight uops. IDs are reused after removal; the
/// generation counter lets completion events detect that "their" uop was
/// squashed and the slot reused.
#[derive(Default, Debug)]
pub struct UopSlab {
    slots: Vec<Option<Uop>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl UopSlab {
    /// Create an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a uop, returning its (id, generation).
    pub fn insert(&mut self, uop: Uop) -> (UopId, u32) {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id] = Some(uop);
            (id, self.gens[id])
        } else {
            self.slots.push(Some(uop));
            self.gens.push(0);
            (self.slots.len() - 1, 0)
        }
    }

    /// Remove a uop, bumping the slot's generation.
    ///
    /// # Panics
    /// Panics if the slot is already empty.
    pub fn remove(&mut self, id: UopId) -> Uop {
        let uop = self.slots[id].take().expect("removing empty uop slot");
        self.gens[id] = self.gens[id].wrapping_add(1);
        self.free.push(id);
        self.live -= 1;
        uop
    }

    /// Borrow a live uop.
    #[inline]
    pub fn get(&self, id: UopId) -> &Uop {
        self.slots[id].as_ref().expect("dead uop id")
    }

    /// Mutably borrow a live uop.
    #[inline]
    pub fn get_mut(&mut self, id: UopId) -> &mut Uop {
        self.slots[id].as_mut().expect("dead uop id")
    }

    /// Whether `(id, gen)` still refers to a live uop.
    #[inline]
    pub fn is_live(&self, id: UopId, gen: u32) -> bool {
        self.slots.get(id).is_some_and(|s| s.is_some()) && self.gens[id] == gen
    }

    /// Current generation of a slot.
    pub fn generation(&self, id: UopId) -> u32 {
        self.gens[id]
    }

    /// Number of live uops.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no uops are live.
    #[allow(dead_code)] // API symmetry with `len`
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvp_isa::Inst;

    fn dummy(seq: u64) -> Uop {
        Uop {
            inst: Inst::NOP,
            pc: 0,
            ctx: 0,
            seq,
            trace_idx: 0,
            state: UopState::Dispatched,
            srcs: [None; 3],
            dst: None,
            branch: None,
            vp: VpInfo::default(),
            eff_addr: None,
            store_data: None,
            in_queue: false,
            issue_epoch: 0,
            exec_token: 0,
            exec_value: None,
            resolved_taken: false,
            resolved_target: 0,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut s = UopSlab::new();
        let (a, ga) = s.insert(dummy(1));
        let (b, _gb) = s.insert(dummy(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).seq, 1);
        assert!(s.is_live(a, ga));
        let u = s.remove(a);
        assert_eq!(u.seq, 1);
        assert!(!s.is_live(a, ga));
        assert_eq!(s.get(b).seq, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generation_detects_reuse() {
        let mut s = UopSlab::new();
        let (a, ga) = s.insert(dummy(1));
        s.remove(a);
        let (a2, ga2) = s.insert(dummy(3));
        assert_eq!(a, a2, "slot should be reused");
        assert_ne!(ga, ga2);
        assert!(!s.is_live(a, ga));
        assert!(s.is_live(a2, ga2));
    }

    #[test]
    #[should_panic(expected = "empty uop slot")]
    fn double_remove_panics() {
        let mut s = UopSlab::new();
        let (a, _) = s.insert(dummy(1));
        s.remove(a);
        s.remove(a);
    }

    #[test]
    fn vpinfo_activity() {
        let mut v = VpInfo::default();
        assert!(!v.is_active());
        v.stvp_value = Some(1);
        assert!(v.is_active());
        let mut w = VpInfo::default();
        w.children.push((1, None));
        assert!(w.is_active());
    }
}
