//! Commit stage: in-order retirement, MTVP resolution (§3.2–§3.3),
//! thread promotion and kills, squash machinery, predictor training.

use super::StagedCore;
use crate::context::{Context, CtxState, SbEntry};
use crate::framework::StageSet;
use crate::uop::{CtxId, UopId, UopState};
use mtvp_isa::interp::Bus;
use mtvp_isa::Op;
use mtvp_mem::AccessKind;
use mtvp_obs::{Event, KillCause, SquashCause, Tracer};

impl<T: Tracer, S: StageSet> StagedCore<'_, T, S> {
    /// Commit up to `commit_width` instructions across contexts.
    pub(crate) fn commit_stage(&mut self) {
        let n = self.ctxs.len();
        let mut budget = self.cfg.commit_width;
        for k in 0..n {
            let ctx = (self.rr_cursor + k) % n;
            if self.ctxs[ctx].state == CtxState::Free {
                continue;
            }
            while budget > 0 && self.commit_one(ctx) {
                budget -= 1;
                if self.done {
                    return;
                }
            }
            // A dying parent with an empty window hands over to its child.
            if self.ctxs[ctx].state == CtxState::Dying && self.ctxs[ctx].rob.is_empty() {
                self.finalize_promotion(ctx);
            }
        }
    }

    /// Try to commit the head of `ctx`'s window. Returns false if nothing
    /// committed.
    fn commit_one(&mut self, ctx: CtxId) -> bool {
        let Some(&head) = self.ctxs[ctx].rob.front() else {
            return false;
        };
        if self.uops.get(head).state != UopState::Completed {
            return false;
        }

        // Resolve value-prediction children before retiring the load (§3.2:
        // "when the load value returns ... it either kills the spawned
        // thread or kills itself").
        if !self.uops.get(head).vp.children.is_empty() {
            self.resolve_children(ctx, head);
        }

        let speculative = self.ctxs[ctx].speculative;
        let (inst, pc, seq, trace_idx) = {
            let u = self.uops.get(head);
            (u.inst, u.pc, u.seq, u.trace_idx)
        };

        // Stores: architectural write, or hold in the speculative store
        // buffer (stalling commit when it is full — §5.3).
        if inst.is_store() {
            let (addr, value) = {
                let u = self.uops.get(head);
                (
                    u.eff_addr.expect("committed store has addr"),
                    u.store_data.expect("data"),
                )
            };
            if speculative {
                if self.ctxs[ctx].store_buffer.len() >= self.cfg.store_buffer_entries {
                    self.stats.vp.store_buffer_stalls += 1;
                    return false;
                }
                self.ctxs[ctx].store_buffer.push_back(SbEntry {
                    addr,
                    value,
                    seq,
                    pc,
                });
                if T::ENABLED {
                    let ev = Event::SpecStoreCommit { ctx, seq, addr };
                    self.tracer.record(self.now, ev);
                }
            } else {
                self.memory.write_u64(addr, value);
                self.mem_sys
                    .access_data(self.now, pc, addr, AccessKind::Write);
            }
        }

        // Trainers run at commit (§5.4).
        if inst.is_load() {
            let actual = self
                .uops
                .get(head)
                .exec_value
                .expect("committed load has value");
            self.predictor.train(pc, actual);
            if speculative {
                let addr = self
                    .uops
                    .get(head)
                    .eff_addr
                    .expect("committed load has addr");
                self.ctxs[ctx].spec_committed_loads.push((addr, seq));
            }
        }
        if inst.is_cond_branch() {
            let u = self.uops.get(head);
            let ghist_prior = u.branch.as_ref().expect("branch info").ghist_prior;
            let taken = u.resolved_taken;
            self.dir_pred.update(pc, ghist_prior, taken);
            self.stats.branches.cond_committed += 1;
        }
        if matches!(inst.op, Op::Jr | Op::Jalr) {
            let target = self.uops.get(head).resolved_target;
            self.btb.update(pc, target);
        }

        // Retire: free the previous mapping, count, validate.
        let head_exec_value = self.uops.get(head).exec_value;
        let uop = self.uops.remove(head);
        self.ctxs[ctx].rob.pop_front();
        if uop.inst.is_store() {
            let popped = self.ctxs[ctx].lsq.pop_front();
            debug_assert_eq!(
                popped.map(|(s, _)| s),
                Some(uop.seq),
                "LSQ out of sync at commit"
            );
        }
        self.release_slot(&uop);
        if let Some(d) = uop.dst {
            // The new mapping's reference lives on in the context map; only
            // the superseded mapping can now be recycled.
            self.rf.decref(d.class, d.old_preg);
        }
        self.note_commit_progress();
        if T::ENABLED {
            let ev = Event::Commit {
                ctx,
                seq,
                pc,
                spec: speculative,
            };
            self.tracer.record(self.now, ev);
        }
        if speculative {
            // Validate optimistically against the committed-path trace;
            // only fatal if this thread is eventually promoted.
            if let Some(trace) = &self.trace {
                if let Some(e) = trace.get(trace_idx as usize) {
                    let path_ok = u64::from(e.pc) == pc;
                    let value_ok = !e.is_load || head_exec_value == Some(e.load_value);
                    if path_ok && !value_ok {
                        self.ctxs[ctx].spec_commit_errors.push((
                            trace_idx,
                            pc,
                            head_exec_value.unwrap_or(0),
                            e.load_value,
                        ));
                    }
                }
            }
            self.ctxs[ctx].committed_spec += 1;
        } else {
            if let Some(trace) = &self.trace {
                if let Some(e) = trace.get(self.stats.committed as usize) {
                    assert_eq!(
                        (u64::from(e.pc), self.stats.committed),
                        (pc, trace_idx),
                        "committed-path divergence at instruction {} of {}",
                        self.stats.committed,
                        self.program.name
                    );
                    if e.is_load {
                        assert_eq!(
                            head_exec_value,
                            Some(e.load_value),
                            "committed load value divergence at instruction {} (pc {}) of {}",
                            self.stats.committed,
                            pc,
                            self.program.name
                        );
                    }
                }
            }
            self.stats.committed += 1;
        }

        if inst.is_halt() {
            if speculative {
                self.ctxs[ctx].committed_halt = true;
                self.ctxs[ctx].halted = true;
            } else {
                self.stats.halted = true;
                self.done = true;
            }
        }
        true
    }

    /// Commit-time resolution of a load's spawned children: the child whose
    /// predicted value matches survives (spawn-only children always match);
    /// all others are killed. If a child survives, the parent dies.
    fn resolve_children(&mut self, ctx: CtxId, load: UopId) {
        let (actual, children, alternates, seq, pc, trace_idx) = {
            let u = self.uops.get_mut(load);
            let children = std::mem::take(&mut u.vp.children);
            (
                u.exec_value.expect("committed load has value"),
                children,
                std::mem::take(&mut u.vp.alternates),
                u.seq,
                u.pc,
                u.trace_idx,
            )
        };

        let mut survivor: Option<CtxId> = None;
        let mut was_value_spawn = false;
        for (child, value) in &children {
            if !value.is_none() {
                was_value_spawn = true;
            }
            let correct = value.is_none_or(|v| v == actual);
            let keep = correct && survivor.is_none();
            if T::ENABLED {
                let ev = Event::Reconcile {
                    parent: ctx,
                    child: *child,
                    seq,
                    correct: keep,
                    run_len: self.ctxs[*child].committed_spec,
                };
                self.tracer.record(self.now, ev);
            }
            if keep {
                survivor = Some(*child);
            } else {
                self.kill_subtree(*child, KillCause::WrongValue);
            }
        }

        if was_value_spawn {
            if survivor.is_some() {
                self.stats.vp.mtvp_correct += 1;
            } else {
                self.stats.vp.mtvp_wrong += 1;
                self.stats.vp.followed_wrong += 1;
                if alternates.contains(&actual) {
                    self.stats.vp.wrong_but_alternate_held += 1;
                }
            }
        }

        match survivor {
            Some(child) => {
                // Kill the parent's own post-load work (a no-stall parent
                // kept fetching; a single-fetch-path parent has none) and
                // let it drain. Resume state is kept in case the child is
                // later killed by a memory-order violation.
                self.squash_younger(ctx, seq, SquashCause::SpawnResolved);
                let (resume_ghist, resume_ras) = {
                    let u = self.uops.get(load);
                    let b = u
                        .branch
                        .as_ref()
                        .expect("spawning load stored resume state");
                    (b.ghist_prior, b.ras_after.clone())
                };
                let c = &mut self.ctxs[ctx];
                c.state = CtxState::Dying;
                c.fetch_stopped = true;
                c.wait_redirect = false;
                c.fetch_buffer.clear();
                c.pending_child = Some(child);
                c.resume_pc = pc + 1;
                c.resume_trace = trace_idx + 1;
                c.resume_ghist = resume_ghist;
                c.resume_ras = resume_ras;
            }
            None => {
                // All predictions wrong: the children are gone; the parent
                // has the right value. Under single fetch path it stopped
                // fetching at the spawn and resumes after the load.
                if self.ctxs[ctx].fetch_stopped && self.ctxs[ctx].state == CtxState::Active {
                    let (ghist, ras) = {
                        let u = self.uops.get(load);
                        let b = u
                            .branch
                            .as_ref()
                            .expect("spawning load stored resume state");
                        (b.ghist_prior, b.ras_after.clone())
                    };
                    let c = &mut self.ctxs[ctx];
                    c.pc = pc + 1;
                    c.trace_cursor = trace_idx + 1;
                    c.fetch_buffer.clear();
                    c.ghist = ghist;
                    c.ras = ras;
                    c.fetch_stopped = false;
                    c.wait_redirect = false;
                }
            }
        }
    }

    /// A dying parent's window has drained: hand the architectural state to
    /// the surviving child (§3.2: "either the spawning thread or the
    /// spawned thread commits, never both").
    fn finalize_promotion(&mut self, parent: CtxId) {
        let child = self.ctxs[parent]
            .pending_child
            .expect("dying parent has a pending child");
        debug_assert_eq!(
            self.ctxs[parent].live_children, 1,
            "dying parent with stray children"
        );

        // The child takes the parent's place in the spawn tree.
        let (grand, parent_spawn_load, parent_spawn_seq) = {
            let p = &self.ctxs[parent];
            (p.parent, p.spawn_load, p.spawn_seq)
        };
        if let Some((lid, lgen)) = parent_spawn_load {
            if self.uops.is_live(lid, lgen) {
                for entry in &mut self.uops.get_mut(lid).vp.children {
                    if entry.0 == parent {
                        entry.0 = child;
                    }
                }
            }
        }
        // The parent's buffered speculative stores are all older than the
        // child's spawn point: prepend them.
        let parent_sb = std::mem::take(&mut self.ctxs[parent].store_buffer);
        for e in parent_sb.into_iter().rev() {
            self.ctxs[child].store_buffer.push_front(e);
        }
        let parent_spec_commits = self.ctxs[parent].committed_spec;
        let parent_spec_errors = std::mem::take(&mut self.ctxs[parent].spec_commit_errors);
        let parent_spec_loads = std::mem::take(&mut self.ctxs[parent].spec_committed_loads);

        // Release the parent's map references and free the context.
        let (int_map, fp_map) = (self.ctxs[parent].int_map, self.ctxs[parent].fp_map);
        for preg in int_map {
            self.rf.decref(crate::regfile::RegClass::Int, preg);
        }
        for preg in fp_map {
            self.rf.decref(crate::regfile::RegClass::Fp, preg);
        }
        self.ctxs[parent] = Context::free(self.cfg.ras_entries);

        let c = &mut self.ctxs[child];
        c.parent = grand;
        c.spawn_load = parent_spawn_load;
        c.spawn_seq = parent_spawn_seq;
        // The parent's own speculative commits (if it was speculative) now
        // belong to the child's account.
        c.committed_spec += parent_spec_commits;
        c.spec_commit_errors.extend(parent_spec_errors);
        c.spec_committed_loads.extend(parent_spec_loads);
        let promoted_run = c.committed_spec;

        if grand.is_none() {
            // Fully architectural now: credit the speculative commits,
            // release the store buffer to memory (§3.2), take over as root.
            assert!(
                c.spec_commit_errors.is_empty(),
                "promoted thread had wrong-valued speculative commits: {:?} ({})",
                &c.spec_commit_errors[..c.spec_commit_errors.len().min(4)],
                self.program.name,
            );
            c.speculative = false;
            // Architectural now: in-order commit protects it from its own
            // stores and it has no ancestors left to violate it.
            c.spec_committed_loads.clear();
            let commits = c.committed_spec;
            c.committed_spec = 0;
            let drained: Vec<SbEntry> = c.store_buffer.drain(..).collect();
            let child_halted = c.committed_halt;
            self.stats.committed += commits;
            for e in drained {
                self.memory.write_u64(e.addr, e.value);
                self.mem_sys
                    .access_data(self.now, e.pc, e.addr, AccessKind::Write);
            }
            self.root_ctx = child;
            if child_halted {
                self.stats.halted = true;
                self.done = true;
            }
        }
        if T::ENABLED {
            let ev = Event::Promote {
                parent,
                child,
                run_len: promoted_run,
            };
            self.tracer.record(self.now, ev);
        }
        self.note_commit_progress();
    }

    /// Squash every uop of `ctx` younger than `seq`, killing any threads
    /// they spawned and rolling the rename map back.
    pub(crate) fn squash_younger(&mut self, ctx: CtxId, seq: u64, cause: SquashCause) {
        while let Some(&tail) = self.ctxs[ctx].rob.back() {
            if self.uops.get(tail).seq <= seq {
                break;
            }
            self.ctxs[ctx].rob.pop_back();
            self.squash_uop(ctx, tail, cause);
        }
    }

    /// Squash one uop already removed from its ROB.
    fn squash_uop(&mut self, ctx: CtxId, id: UopId, cause: SquashCause) {
        let uop = self.uops.remove(id);
        debug_assert_eq!(uop.ctx, ctx);
        if uop.inst.is_store() {
            let popped = self.ctxs[ctx].lsq.pop_back();
            debug_assert_eq!(
                popped.map(|(s, _)| s),
                Some(uop.seq),
                "LSQ out of sync at squash"
            );
        }
        for (child, _) in &uop.vp.children {
            self.kill_subtree(*child, KillCause::ParentSquashed);
        }
        self.release_slot(&uop);
        if let Some(d) = uop.dst {
            // Roll the map back (squash walks youngest-first, so this
            // restores the precise pre-rename state).
            match d.class {
                crate::regfile::RegClass::Int => {
                    self.ctxs[ctx].int_map[d.arch as usize] = d.old_preg;
                }
                crate::regfile::RegClass::Fp => {
                    self.ctxs[ctx].fp_map[d.arch as usize] = d.old_preg;
                }
            }
            self.rf.decref(d.class, d.preg);
        }
        self.stats.squashed += 1;
        if T::ENABLED {
            let ev = Event::Squash {
                ctx,
                seq: uop.seq,
                pc: uop.pc,
                cause,
            };
            self.tracer.record(self.now, ev);
        }
    }

    /// Kill a speculative thread and every thread it spawned.
    pub(crate) fn kill_subtree(&mut self, ctx: CtxId, cause: KillCause) {
        debug_assert!(
            self.ctxs[ctx].speculative,
            "killing a non-speculative context"
        );
        // Squash the whole window (recursively killing grandchildren).
        while let Some(&tail) = self.ctxs[ctx].rob.back() {
            self.ctxs[ctx].rob.pop_back();
            self.squash_uop(ctx, tail, SquashCause::ThreadKill);
        }
        // A dying context's surviving child is not attached to any uop.
        if let Some(pending) = self.ctxs[ctx].pending_child.take() {
            self.kill_subtree(pending, cause);
        }
        debug_assert_eq!(
            self.ctxs[ctx].live_children, 0,
            "children outlived their uops"
        );
        if let Some(p) = self.ctxs[ctx].parent {
            self.ctxs[p].live_children = self.ctxs[p].live_children.saturating_sub(1);
        }
        // Unlink from the spawning load's children list (it may still be
        // in flight and must not resolve against a freed context). If that
        // leaves the load with no children, a single-fetch-path parent that
        // stopped fetching at the spawn must resume past the load now.
        if let Some((lid, lgen)) = self.ctxs[ctx].spawn_load {
            if self.uops.is_live(lid, lgen) {
                self.uops
                    .get_mut(lid)
                    .vp
                    .children
                    .retain(|(c, _)| *c != ctx);
                let (orphaned, lctx, lpc, ltrace, resume) = {
                    let u = self.uops.get(lid);
                    let resume = u
                        .branch
                        .as_ref()
                        .map(|b| (b.ghist_prior, b.ras_after.clone()));
                    (u.vp.children.is_empty(), u.ctx, u.pc, u.trace_idx, resume)
                };
                if orphaned && lctx != ctx {
                    let stalled =
                        self.ctxs[lctx].state == CtxState::Active && self.ctxs[lctx].fetch_stopped;
                    if stalled {
                        let (ghist, ras) = resume.expect("spawning load stored resume state");
                        let c = &mut self.ctxs[lctx];
                        c.pc = lpc + 1;
                        c.trace_cursor = ltrace + 1;
                        c.fetch_buffer.clear();
                        c.ghist = ghist;
                        c.ras = ras;
                        c.fetch_stopped = false;
                        c.wait_redirect = false;
                    }
                }
            }
        }
        // If a dying parent was waiting to promote this thread, it must
        // take over again from its saved resume point.
        if let Some(p) = self.ctxs[ctx].parent {
            if self.ctxs[p].pending_child == Some(ctx) {
                let pc = &mut self.ctxs[p];
                pc.pending_child = None;
                pc.state = CtxState::Active;
                pc.fetch_stopped = false;
                pc.wait_redirect = false;
                pc.halted = false;
                pc.pc = pc.resume_pc;
                pc.trace_cursor = pc.resume_trace;
                pc.ghist = pc.resume_ghist;
                pc.ras = pc.resume_ras.clone();
                pc.fetch_buffer.clear();
            }
        }
        self.stats.discarded_spec_commits += self.ctxs[ctx].committed_spec;
        if T::ENABLED {
            let ev = Event::Kill {
                ctx,
                cause,
                run_len: self.ctxs[ctx].committed_spec,
            };
            self.tracer.record(self.now, ev);
        }
        let (int_map, fp_map) = (self.ctxs[ctx].int_map, self.ctxs[ctx].fp_map);
        for preg in int_map {
            self.rf.decref(crate::regfile::RegClass::Int, preg);
        }
        for preg in fp_map {
            self.rf.decref(crate::regfile::RegClass::Fp, preg);
        }
        self.ctxs[ctx] = Context::free(self.cfg.ras_entries);
    }
}
