//! Wakeup-driven issue queues: per-unit ready heaps, per-register waiter
//! lists, and counted queue occupancy.
//!
//! A queued uop is always in exactly one place: on its unit's ready heap
//! (ordered by `seq`, so selection is oldest first) or parked on the
//! waiter list of one source register that was not ready when it was
//! filed. Every register write that sets the ready bit wakes that
//! register's list. Heap entries are checked when popped, so a stale or
//! no-longer-ready entry costs one pop, never a wrong issue.
//!
//! Occupancy is counted, not scanned: per unit, the live queued uops
//! plus the uops the latest issue stage issued. An issued uop keeps its
//! slot until the next issue stage starts (lazy release); rename stalls
//! and idle detection both see that count.

use super::StagedCore;
use crate::framework::{IssueStage, StageSet};
use crate::regfile::{PregId, RegClass};
use crate::uop::{Uop, UopId, UopState};
use mtvp_isa::ExecUnit;
use mtvp_obs::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A ready-heap entry: (seq, uop, slab generation), smallest seq first.
pub(crate) type ReadyEntry = Reverse<(u64, UopId, u32)>;

/// Issue-queue state shared by the rename, issue, writeback and commit
/// stages. Units index as `ExecUnit as usize` (Int, Fp, Mem).
pub(crate) struct Scheduler {
    /// Per unit: queued uops whose sources were ready when filed.
    pub(crate) ready: [BinaryHeap<ReadyEntry>; 3],
    /// Per register class and physical register: queued uops parked
    /// until that register is written.
    pub(crate) waiters: [Vec<Vec<(UopId, u32)>>; 2],
    /// Per unit: live uops with `in_queue` set.
    pub(crate) queued: [usize; 3],
    /// Per unit: live uops the current issue epoch issued (their slots
    /// are released when the next issue stage starts).
    pub(crate) held: [usize; 3],
    /// Issue-stage counter, bumped as each issue stage starts.
    pub(crate) epoch: u64,
    /// Reusable scratch: loads the MSHRs refused during one selection,
    /// returned to their heap afterwards.
    pub(crate) refused: Vec<ReadyEntry>,
}

impl Scheduler {
    pub(crate) fn new(pregs_per_class: usize) -> Self {
        Scheduler {
            ready: Default::default(),
            waiters: [
                vec![Vec::new(); pregs_per_class],
                vec![Vec::new(); pregs_per_class],
            ],
            queued: [0; 3],
            held: [0; 3],
            epoch: 0,
            refused: Vec::new(),
        }
    }

    /// Forget every heap entry and waiter (all queued uops are gone).
    pub(crate) fn clear(&mut self) {
        debug_assert_eq!(self.queued, [0; 3], "queued uops survived the clear");
        debug_assert_eq!(self.held, [0; 3], "held slots survived the clear");
        for heap in &mut self.ready {
            heap.clear();
        }
        for list in self.waiters.iter_mut().flatten() {
            list.clear();
        }
    }
}

impl<T: Tracer, S: StageSet> StagedCore<'_, T, S> {
    /// Occupancy of the queue for `unit`: queued uops plus the slots the
    /// latest issue stage's uops still hold.
    #[inline]
    pub(crate) fn queue_occupancy(&self, unit: ExecUnit) -> usize {
        let u = unit as usize;
        self.sched.queued[u] + self.sched.held[u]
    }

    /// Start an issue stage: every slot held by a uop the previous stage
    /// issued is released.
    #[inline]
    pub(crate) fn begin_issue_epoch(&mut self) {
        self.sched.epoch += 1;
        self.sched.held = [0; 3];
    }

    /// Whether `uop`, no longer queued, still holds the slot of an issue
    /// in the current epoch. Uops that never issue (`nop`, `halt`) keep
    /// epoch 0, which no issue stage has: the first one runs as epoch 1,
    /// before anything is renamed.
    #[inline]
    pub(crate) fn holds_slot(&self, uop: &Uop) -> bool {
        !uop.in_queue && uop.issue_epoch == self.sched.epoch
    }

    /// `uop` is leaving the machine (commit or squash): give back the
    /// queue slot it occupies (also its context's ICOUNT share) or still
    /// holds.
    #[inline]
    pub(crate) fn release_slot(&mut self, uop: &Uop) {
        let u = uop.inst.unit() as usize;
        if uop.in_queue {
            self.sched.queued[u] -= 1;
            let c = &mut self.ctxs[uop.ctx];
            c.queued_count = c.queued_count.saturating_sub(1);
        } else if self.holds_slot(uop) {
            self.sched.held[u] -= 1;
        }
    }

    /// File the queued uop `(id, generation)` for selection: onto its
    /// unit's ready heap when every source is ready, else onto the waiter
    /// list of its first unready source.
    #[inline]
    pub(crate) fn enqueue_for_issue(&mut self, id: UopId, generation: u32) {
        let u = self.uops.get(id);
        match u.unready_src(&self.rf) {
            None => self.sched.ready[u.inst.unit() as usize].push(Reverse((u.seq, id, generation))),
            Some(s) => self.sched.waiters[s.class as usize][s.preg as usize].push((id, generation)),
        }
    }

    /// Write `value` to a physical register and mark it ready, waking
    /// the uops parked on it. Every ready-bit write after construction
    /// goes through here, so no parked uop can miss its wakeup.
    #[inline]
    pub(crate) fn write_preg(&mut self, class: RegClass, preg: PregId, value: u64) {
        self.rf.write(class, preg, value);
        if S::Issue::WAKEUP {
            self.wake_waiters(class, preg);
        }
    }

    /// Re-file every live queued uop parked on `(class, preg)`. The list
    /// is taken out and put back, so its capacity is reused.
    #[inline]
    fn wake_waiters(&mut self, class: RegClass, preg: PregId) {
        let slot = &mut self.sched.waiters[class as usize][preg as usize];
        if slot.is_empty() {
            return;
        }
        let mut list = std::mem::take(slot);
        for &(id, generation) in &list {
            if self.uops.is_live(id, generation) && self.uops.get(id).in_queue {
                self.enqueue_for_issue(id, generation);
            }
        }
        list.clear();
        // The register is ready now, so re-filing parked nothing on it.
        debug_assert!(self.sched.waiters[class as usize][preg as usize].is_empty());
        self.sched.waiters[class as usize][preg as usize] = list;
    }

    /// Select and issue up to `width` ready uops of `unit`, oldest first,
    /// examining at most `width * 4` issuable candidates: an MSHR-refused
    /// load costs an attempt, so a full miss queue cannot trigger
    /// unbounded issue work. Popped entries that are dead, already issued
    /// or waiting on a source cost no attempt; the last kind is parked on
    /// that source again.
    pub(crate) fn select_and_issue(&mut self, unit: ExecUnit, width: usize) {
        let u = unit as usize;
        let mut refused = std::mem::take(&mut self.sched.refused);
        let mut issued = 0usize;
        let mut attempts = 0usize;
        while issued < width && attempts < width * 4 {
            let Some(entry) = self.sched.ready[u].pop() else {
                break;
            };
            let Reverse((_, id, generation)) = entry;
            if !self.uops.is_live(id, generation) {
                continue;
            }
            let uop = self.uops.get(id);
            if !uop.in_queue || uop.state != UopState::Dispatched {
                continue;
            }
            if let Some(s) = uop.unready_src(&self.rf) {
                self.sched.waiters[s.class as usize][s.preg as usize].push((id, generation));
                continue;
            }
            attempts += 1;
            if self.issue_one(id) {
                issued += 1;
            } else {
                refused.push(entry);
            }
        }
        // Refused loads stay ready for the next cycle.
        self.sched.ready[u].extend(refused.drain(..));
        self.sched.refused = refused;
    }

    /// Debug-only scheduler invariant: the occupancy counters match the
    /// uops, and every live queued uop is on its heap or parked on a
    /// source that is not ready (a lost wakeup fails here).
    #[cfg(debug_assertions)]
    pub(crate) fn assert_scheduler_invariants(&self) {
        let mut queued = [0usize; 3];
        let mut held = [0usize; 3];
        for c in &self.ctxs {
            for &id in &c.rob {
                let u = self.uops.get(id);
                let unit = u.inst.unit() as usize;
                if u.in_queue {
                    queued[unit] += 1;
                } else if self.holds_slot(u) {
                    held[unit] += 1;
                }
            }
        }
        assert_eq!(
            queued, self.sched.queued,
            "cycle {}: queued counters disagree with the uops",
            self.now
        );
        assert_eq!(
            held, self.sched.held,
            "cycle {}: held-slot counters disagree with the uops",
            self.now
        );
        if !S::Issue::WAKEUP {
            return;
        }
        let mut on_heap: Vec<(UopId, u32, usize)> = Vec::new();
        for (unit, heap) in self.sched.ready.iter().enumerate() {
            on_heap.extend(heap.iter().map(|&Reverse((_, id, g))| (id, g, unit)));
        }
        let mut parked: Vec<(UopId, u32)> = Vec::new();
        for (class, lists) in [RegClass::Int, RegClass::Fp]
            .into_iter()
            .zip(&self.sched.waiters)
        {
            for (preg, list) in lists.iter().enumerate() {
                let preg = preg as PregId;
                if !self.rf.is_ready(class, preg) {
                    parked.extend(list.iter().copied().filter(|&(id, g)| {
                        self.uops.is_live(id, g)
                            && self
                                .uops
                                .get(id)
                                .srcs
                                .iter()
                                .flatten()
                                .any(|s| s.class == class && s.preg == preg)
                    }));
                }
            }
        }
        on_heap.sort_unstable();
        parked.sort_unstable();
        for c in &self.ctxs {
            for &id in &c.rob {
                let u = self.uops.get(id);
                if u.in_queue {
                    let g = self.uops.generation(id);
                    let unit = u.inst.unit() as usize;
                    assert!(
                        on_heap.binary_search(&(id, g, unit)).is_ok()
                            || parked.binary_search(&(id, g)).is_ok(),
                        "cycle {}: queued uop seq {} ({:?}) is neither on its ready heap \
                         nor parked on an unready source (lost wakeup)",
                        self.now,
                        u.seq,
                        u.inst.op
                    );
                }
            }
        }
    }
}
