//! Issue, execution, writeback, branch resolution, STVP verification and
//! selective reissue.

use super::StagedCore;
use crate::framework::{IssueStage, StageSet};
use crate::regfile::RegClass;
use crate::uop::{UopId, UopState};
use mtvp_isa::interp::{branch_taken, effective_addr, eval_fp, eval_fp_cmp, eval_int, fp_to_int};
use mtvp_isa::{ExecUnit, Op};
use mtvp_mem::AccessKind;
use mtvp_obs::{Event, KillCause, ReissueCause, SquashCause, Tracer};
use std::cmp::Reverse;

impl<T: Tracer, S: StageSet> StagedCore<'_, T, S> {
    /// Select and begin execution of ready instructions, oldest first, up
    /// to the per-class issue widths (6 int / 2 fp / 4 mem), from the
    /// ready heaps (see the `sched` module).
    pub(crate) fn issue_stage(&mut self) {
        self.begin_issue_epoch();
        self.select_and_issue(ExecUnit::Int, self.cfg.int_issue);
        self.select_and_issue(ExecUnit::Fp, self.cfg.fp_issue);
        self.select_and_issue(ExecUnit::Mem, self.cfg.mem_issue);
    }

    /// In-order scalar issue (the [`crate::framework::InOrderIssue`]
    /// stage): issue at most one instruction per cycle, and only the
    /// oldest dispatched instruction of the root context. A head stalled
    /// on sources or an MSHR stalls everything behind it — in-order
    /// issue, out-of-order completion (latencies still drain through the
    /// event heap and the shared writeback stage).
    pub(crate) fn in_order_issue_stage(&mut self) {
        // Slots are released lazily here too: a uop issued last cycle
        // gives its slot back as this stage starts.
        self.begin_issue_epoch();
        let head = self.ctxs[self.root_ctx]
            .rob
            .iter()
            .copied()
            .find(|&uid| self.uops.get(uid).state == UopState::Dispatched);
        if let Some(uid) = head {
            if self.uops.get(uid).srcs_ready(&self.rf) {
                // An MSHR-blocked load simply retries next cycle.
                let _ = self.issue_one(uid);
            }
        }
    }

    /// Begin execution of one instruction. Returns false when a load could
    /// not get an MSHR and must retry (it stays queued).
    pub(crate) fn issue_one(&mut self, id: UopId) -> bool {
        debug_assert_eq!(self.uops.get(id).state, UopState::Dispatched);
        let generation = self.uops.generation(id);
        let (ctx, seq, inst, pc) = {
            let u = self.uops.get(id);
            (u.ctx, u.seq, u.inst, u.pc)
        };

        let src_val = |m: &Self, i: usize| {
            let u = m.uops.get(id);
            u.srcs[i].map(|s| m.rf.read(s.class, s.preg)).unwrap_or(0)
        };

        let done_at = if inst.is_load() {
            let base = src_val(self, 0);
            let addr = effective_addr(base, inst.imm);
            let value = self.chain_load_value(ctx, seq, addr);
            let from_store = {
                // Forwarded if the chain produced something memory doesn't
                // hold — detect by probing whether a visible store matched.
                // (Recomputing is cheap and avoids widening the helper API.)
                self.store_forwards(ctx, seq, addr)
            };
            let done_at = if from_store {
                self.now + self.mem_sys.config().l1_latency
            } else {
                match self
                    .mem_sys
                    .access_data_demand(self.now, pc, addr, AccessKind::Read)
                {
                    Some(access) => {
                        if T::ENABLED {
                            let ev = Event::MemAccess {
                                ctx,
                                pc,
                                level: access.level.name(),
                                latency: access.ready_at.saturating_sub(self.now),
                            };
                            self.tracer.record(self.now, ev);
                        }
                        access.ready_at.max(self.now + 1)
                    }
                    None => return false, // all MSHRs busy: retry next cycle
                }
            };
            let u = self.uops.get_mut(id);
            u.eff_addr = Some(addr);
            u.exec_value = Some(value);
            done_at
        } else if inst.is_store() {
            let base = src_val(self, 0);
            let data = src_val(self, 1);
            let u = self.uops.get_mut(id);
            u.eff_addr = Some(effective_addr(base, inst.imm));
            u.store_data = Some(data);
            self.now + 1
        } else {
            self.now + u64::from(inst.base_latency())
        };

        let token = {
            let u = self.uops.get_mut(id);
            u.state = UopState::Issued;
            u.in_queue = false;
            u.issue_epoch = self.sched.epoch;
            u.exec_token = u.exec_token.wrapping_add(1);
            u.exec_token
        };
        // The uop keeps its queue slot until the next issue stage starts.
        let unit = inst.unit() as usize;
        self.sched.queued[unit] -= 1;
        self.sched.held[unit] += 1;
        self.ctxs[ctx].queued_count = self.ctxs[ctx].queued_count.saturating_sub(1);
        self.stats.issued += 1;
        self.issued_total += 1;
        self.events.push(Reverse((done_at, id, generation, token)));
        if T::ENABLED {
            self.tracer.record(self.now, Event::Issue { ctx, seq });
        }
        true
    }

    /// Whether a visible store (LSQ or store buffer along the ancestor
    /// chain) supplies the value for (`ctx`, `seq`, `addr`).
    fn store_forwards(&self, ctx: usize, load_seq: u64, addr: u64) -> bool {
        let mut limit = load_seq;
        let mut c = ctx;
        loop {
            let cx = &self.ctxs[c];
            for &(sseq, uid) in cx.lsq.iter().rev() {
                if sseq >= limit {
                    continue;
                }
                if self.uops.get(uid).eff_addr == Some(addr) {
                    return true;
                }
            }
            if cx.search_store_buffer(addr, limit).is_some() {
                return true;
            }
            match cx.parent {
                Some(p) => {
                    limit = limit.min(cx.spawn_seq);
                    c = p;
                }
                None => return false,
            }
        }
    }

    /// A store's address/data just resolved: replay every younger,
    /// already-executed load in its visibility subtree that reads the same
    /// address (speculative-disambiguation violation replay). The replay
    /// cascades through the load's consumers via the reissue machinery.
    fn replay_younger_loads(&mut self, store: UopId) {
        let (sctx, sseq, saddr, sdata) = {
            let u = self.uops.get(store);
            (
                u.ctx,
                u.seq,
                u.eff_addr.expect("resolved store"),
                u.store_data,
            )
        };
        // A speculative descendant that has already *committed* a load of
        // this address past the store cannot be replayed — the violation
        // kills the thread, like any other misspeculation (§3.2 recovery).
        // Kills run first so the replay scan below only sees survivors.
        self.kill_violating_descendants(sctx, sseq, Some(saddr));
        let victims: Vec<(UopId, u32)> = self
            .ctxs
            .iter()
            .flat_map(|c| c.rob.iter().copied())
            .filter(|&uid| {
                let u = self.uops.get(uid);
                u.inst.is_load()
                    && u.seq > sseq
                    && u.state != UopState::Dispatched
                    && u.eff_addr == Some(saddr)
                    // Skip loads that already observed the right value
                    // (e.g. via an even-younger forwarding store).
                    && u.exec_value != sdata
                    && self.store_visible_to(sctx, sseq, u.ctx)
            })
            .map(|uid| (uid, self.uops.generation(uid)))
            .collect();
        if victims.is_empty() {
            return;
        }
        let mut work = Vec::new();
        let mut tainted_stores = Vec::new();
        for (uid, generation) in victims {
            // A redispatch can kill descendant subtrees, taking other
            // collected victims with them.
            if self.uops.is_live(uid, generation) {
                self.redispatch(uid, &mut work, &mut tainted_stores);
            }
        }
        self.propagate_taint(work, tainted_stores);
    }

    /// Kill every speculative descendant of `ctx` whose spawn point is
    /// younger than `seq` — they were built from a rename map that
    /// includes the superseded result of the instruction being replayed.
    pub(crate) fn kill_descendants_after(&mut self, ctx: usize, seq: u64) {
        let candidates: Vec<usize> = (0..self.ctxs.len())
            .filter(|&d| {
                d != ctx
                    && self.ctxs[d].state != crate::context::CtxState::Free
                    && self.ctxs[d].speculative
                    && self.store_visible_to(ctx, seq, d)
            })
            .collect();
        for d in candidates {
            if self.ctxs[d].state != crate::context::CtxState::Free && self.ctxs[d].speculative {
                self.kill_subtree(d, KillCause::StaleRename);
            }
        }
    }

    /// Kill every speculative descendant of `sctx` that committed a load
    /// younger than `sseq` from `addr` (or from anywhere when `addr` is
    /// `None` — used when a reissued store's old address is unknown).
    pub(crate) fn kill_violating_descendants(&mut self, sctx: usize, sseq: u64, addr: Option<u64>) {
        let candidates: Vec<usize> = (0..self.ctxs.len())
            .filter(|&d| {
                d != sctx
                    && self.ctxs[d].state != crate::context::CtxState::Free
                    && self.ctxs[d].speculative
                    && self.store_visible_to(sctx, sseq, d)
                    && self.ctxs[d]
                        .spec_committed_loads
                        .iter()
                        .any(|&(a, q)| q > sseq && addr.is_none_or(|sa| a == sa))
            })
            .collect();
        for d in candidates {
            if self.ctxs[d].state != crate::context::CtxState::Free && self.ctxs[d].speculative {
                self.kill_subtree(d, KillCause::MemOrder);
            }
        }
    }

    /// Drain completion events due this cycle: write results, resolve
    /// branches, verify STVP predictions.
    pub(crate) fn writeback_stage(&mut self) {
        while let Some(&Reverse((t, id, generation, token))) = self.events.peek() {
            if t > self.now {
                break;
            }
            self.events.pop();
            if !self.uops.is_live(id, generation) {
                continue; // squashed
            }
            if self.uops.get(id).exec_token != token {
                continue; // superseded by a reissue
            }
            self.complete_one(id);
        }
    }

    fn complete_one(&mut self, id: UopId) {
        let (inst, pc) = {
            let u = self.uops.get(id);
            debug_assert_eq!(u.state, UopState::Issued);
            (u.inst, u.pc)
        };

        // Compute and write the result.
        let result = self.compute_result(id);
        if let Some(v) = result {
            if let Some(d) = self.uops.get(id).dst {
                self.write_preg(d.class, d.preg, v);
            }
        }
        self.uops.get_mut(id).state = UopState::Completed;
        if T::ENABLED {
            let (ctx, seq) = {
                let u = self.uops.get(id);
                (u.ctx, u.seq)
            };
            self.tracer.record(self.now, Event::Writeback { ctx, seq });
        }

        if inst.is_control() {
            self.resolve_control(id);
        }
        if inst.is_store() {
            self.replay_younger_loads(id);
        }
        if inst.is_load() {
            self.verify_load(id);
            // Record the ILP-pred episode at confirmation time (§5.1).
            if let Some((class, issued_at, cycle_at)) = self.uops.get_mut(id).vp.episode.take() {
                self.record_episode(pc, class, issued_at, cycle_at);
            }
        }
    }

    /// Result value of a uop (reads source registers at completion; they
    /// are stable because any invalidation would have re-dispatched us).
    fn compute_result(&self, id: UopId) -> Option<u64> {
        use Op::*;
        let u = self.uops.get(id);
        let src = |i: usize| {
            u.srcs[i]
                .map(|s| self.rf.read(s.class, s.preg))
                .unwrap_or(0)
        };
        let fsrc = |i: usize| f64::from_bits(src(i));
        match u.inst.op {
            Add | Sub | Mul | Divu | Remu | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
                Some(eval_int(u.inst.op, src(0), src(1), u.inst.imm))
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Li => {
                Some(eval_int(u.inst.op, src(0), 0, u.inst.imm))
            }
            Jal | Jalr => Some(u.pc + 1),
            Ld | Fld => u.exec_value,
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fsqrt | Fneg | Fabs | Fmov => {
                Some(eval_fp(u.inst.op, fsrc(0), fsrc(1), 0.0).to_bits())
            }
            Fmadd => {
                // Sources: frs1, frs2, and the accumulator (old frd).
                Some(eval_fp(Fmadd, fsrc(0), fsrc(1), fsrc(2)).to_bits())
            }
            Fclt | Fcle | Fceq => Some(eval_fp_cmp(u.inst.op, fsrc(0), fsrc(1))),
            Icvtf => Some(((src(0) as i64) as f64).to_bits()),
            Fcvti => Some(fp_to_int(fsrc(0))),
            Beq | Bne | Blt | Bge | Bltu | Bgeu | J | Jr | St | Fst | Nop | Halt => None,
        }
    }

    /// Resolve a control instruction: compute the true next PC, detect
    /// mispredictions (including re-resolutions after selective reissue),
    /// squash and redirect.
    fn resolve_control(&mut self, id: UopId) {
        use Op::*;
        let (ctx, seq, pc, inst, trace_idx) = {
            let u = self.uops.get(id);
            (u.ctx, u.seq, u.pc, u.inst, u.trace_idx)
        };
        let src = |m: &Self, i: usize| {
            let u = m.uops.get(id);
            u.srcs[i].map(|s| m.rf.read(s.class, s.preg)).unwrap_or(0)
        };
        let (taken, target) = match inst.op {
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let t = branch_taken(inst.op, src(self, 0), src(self, 1));
                (t, if t { inst.imm as u64 } else { pc + 1 })
            }
            J | Jal => (true, inst.imm as u64),
            Jr | Jalr => (true, src(self, 0)),
            _ => unreachable!("resolve_control on non-control op"),
        };

        // Fetch may have stalled waiting for this resolution.
        self.ctxs[ctx].wait_redirect = false;

        let (was_resolved, prev_target, pred_target) = {
            let u = self.uops.get_mut(id);
            let b = u.branch.as_mut().expect("control uop has branch info");
            let out = (b.resolved, u.resolved_target, b.pred_target);
            b.resolved = true;
            u.resolved_taken = taken;
            u.resolved_target = target;
            out
        };

        // First resolution compares against the fetch-time prediction;
        // re-resolutions compare against what the machine actually followed.
        let followed = if was_resolved {
            prev_target
        } else {
            pred_target
        };
        if T::ENABLED {
            let ev = Event::BranchResolve {
                ctx,
                seq,
                pc,
                mispredict: followed != target,
            };
            self.tracer.record(self.now, ev);
        }
        if followed == target {
            return;
        }

        self.stats.branches.mispredicts += 1;
        if matches!(inst.op, Jr | Jalr) {
            self.stats.branches.indirect_mispredicts += 1;
        }

        self.squash_younger(ctx, seq, SquashCause::BranchMispredict);
        let (ghist, ras) = {
            let u = self.uops.get(id);
            let b = u.branch.as_ref().expect("branch info");
            let ghist = if inst.is_cond_branch() {
                (b.ghist_prior << 1) | taken as u64
            } else {
                b.ghist_prior
            };
            (ghist, b.ras_after.clone())
        };
        let c = &mut self.ctxs[ctx];
        c.pc = target;
        c.trace_cursor = trace_idx + 1;
        c.fetch_buffer.clear();
        c.ghist = ghist;
        c.ras = ras;
        c.wait_redirect = false;
        // An SFP parent whose spawn got squashed by this mispredict must
        // resume fetching; a dying context must not.
        if c.state == crate::context::CtxState::Active {
            c.fetch_stopped = false;
        }
        c.halted = false;
    }

    /// Verify a completed load against its STVP prediction; on a mismatch,
    /// selectively reissue the dependent instructions (§3.1).
    fn verify_load(&mut self, id: UopId) {
        let (predicted, verified, actual, alternates_hit) = {
            let u = self.uops.get(id);
            let actual = u.exec_value.expect("completed load has a value");
            (
                u.vp.stvp_value,
                u.vp.stvp_verified,
                actual,
                u.vp.alternates.contains(&actual),
            )
        };
        let Some(pv) = predicted else {
            return;
        };
        if verified {
            return;
        }
        self.uops.get_mut(id).vp.stvp_verified = true;
        if pv == actual {
            self.stats.vp.stvp_correct += 1;
            return;
        }
        self.stats.vp.stvp_wrong += 1;
        self.stats.vp.followed_wrong += 1;
        if alternates_hit {
            self.stats.vp.wrong_but_alternate_held += 1;
        }
        // The correct value is already written to the destination register
        // (complete_one ran first); now re-execute everything that consumed
        // the wrong value.
        let dest = self.uops.get(id).dst;
        if let Some(d) = dest {
            self.selective_reissue(id, vec![(d.class, d.preg)]);
        }
    }

    /// Taint-propagating re-execution: every instruction (in any context —
    /// children reference parent registers) that consumed one of the
    /// invalidated registers, or a load that may have forwarded from a
    /// re-executed store, goes back to its issue queue.
    pub(crate) fn selective_reissue(
        &mut self,
        origin: UopId,
        seed: Vec<(RegClass, crate::regfile::PregId)>,
    ) {
        self.reissue_origin = Some(origin);
        self.propagate_taint(seed, Vec::new());
        self.reissue_origin = None;
    }

    /// Fixpoint taint propagation over registers and memory.
    fn propagate_taint(
        &mut self,
        seed: Vec<(RegClass, crate::regfile::PregId)>,
        stores: Vec<(usize, u64)>,
    ) {
        let origin = self.reissue_origin;
        let mut work: Vec<(RegClass, crate::regfile::PregId)> = seed;
        let mut tainted_stores: Vec<(usize, u64)> = stores;

        while !work.is_empty() || !tainted_stores.is_empty() {
            // Register taint pass.
            while let Some((class, preg)) = work.pop() {
                let victims: Vec<(UopId, u32)> = self
                    .live_uop_ids()
                    .into_iter()
                    .filter(|&uid| {
                        if Some(uid) == origin {
                            return false;
                        }
                        let u = self.uops.get(uid);
                        u.state != UopState::Dispatched
                            && u.srcs
                                .iter()
                                .flatten()
                                .any(|s| s.class == class && s.preg == preg)
                    })
                    .map(|uid| (uid, self.uops.generation(uid)))
                    .collect();
                for (uid, generation) in victims {
                    if self.uops.is_live(uid, generation) {
                        self.redispatch(uid, &mut work, &mut tainted_stores);
                    }
                }
            }
            // Memory taint pass: loads younger than a re-executed store in
            // that store's context subtree may have forwarded stale data.
            while let Some((sctx, sseq)) = tainted_stores.pop() {
                let subtree = self.subtree_of(sctx);
                let victims: Vec<(UopId, u32)> = self
                    .live_uop_ids()
                    .into_iter()
                    .filter(|&uid| {
                        let u = self.uops.get(uid);
                        u.inst.is_load()
                            && u.seq > sseq
                            && u.state != UopState::Dispatched
                            && subtree.contains(&u.ctx)
                    })
                    .map(|uid| (uid, self.uops.generation(uid)))
                    .collect();
                for (uid, generation) in victims {
                    if self.uops.is_live(uid, generation) {
                        self.redispatch(uid, &mut work, &mut tainted_stores);
                    }
                }
            }
        }
    }

    /// All live uop ids (ROB contents of every context).
    fn live_uop_ids(&self) -> Vec<UopId> {
        self.ctxs
            .iter()
            .flat_map(|c| c.rob.iter().copied())
            .collect()
    }

    /// Context ids of `root` and all its descendants.
    fn subtree_of(&self, root: usize) -> Vec<usize> {
        let mut out = vec![root];
        loop {
            let before = out.len();
            for (i, c) in self.ctxs.iter().enumerate() {
                if let Some(p) = c.parent {
                    if out.contains(&p) && !out.contains(&i) {
                        out.push(i);
                    }
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }

    /// Send a uop back to its issue queue for re-execution.
    fn redispatch(
        &mut self,
        id: UopId,
        work: &mut Vec<(RegClass, crate::regfile::PregId)>,
        tainted_stores: &mut Vec<(usize, u64)>,
    ) {
        let generation = self.uops.generation(id);
        let held = self.holds_slot(self.uops.get(id));
        let (ctx, unit, was_queued, dst, is_store, seq) = {
            let u = self.uops.get_mut(id);
            u.state = UopState::Dispatched;
            u.exec_token = u.exec_token.wrapping_add(1);
            let was_queued = u.in_queue;
            u.in_queue = true;
            if u.inst.is_load() {
                u.exec_value = None;
                u.eff_addr = None;
            }
            if u.inst.is_store() {
                u.eff_addr = None;
                u.store_data = None;
            }
            (
                u.ctx,
                u.inst.unit() as usize,
                was_queued,
                u.dst,
                u.inst.is_store(),
                u.seq,
            )
        };
        // Any speculative descendant spawned after this instruction saw a
        // rename map built on its (now superseded) result — and may have
        // *committed* consumers of it, which replay cannot reach. Kill
        // those subtrees, like any other misspeculation recovery.
        self.kill_descendants_after(ctx, seq);
        self.stats.vp.reissued_uops += 1;
        if T::ENABLED {
            let cause = if self.reissue_origin.is_some() {
                ReissueCause::ValueMispredict
            } else {
                ReissueCause::MemOrder
            };
            let ev = Event::Redispatch { ctx, seq, cause };
            self.tracer.record(self.now, ev);
        }
        if !was_queued {
            // A uop issued in the current epoch still holds its slot, and
            // takes it back; otherwise it occupies a fresh one.
            if held {
                self.sched.held[unit] -= 1;
            }
            self.sched.queued[unit] += 1;
            self.ctxs[ctx].queued_count += 1;
            if S::Issue::WAKEUP {
                self.enqueue_for_issue(id, generation);
            }
        }
        if let Some(d) = dst {
            self.rf.unready(d.class, d.preg);
            work.push((d.class, d.preg));
        }
        if is_store {
            tainted_stores.push((ctx, seq));
        }
    }
}
