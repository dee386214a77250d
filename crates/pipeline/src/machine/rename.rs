//! Rename/dispatch stage: register renaming, queue insertion, and the
//! value-prediction decision point (§3.1–§3.3) including thread spawning.

use super::StagedCore;
use crate::context::{CtxState, FetchedInst};
use crate::framework::{IssueStage, SpawnPolicy, StageSet};
use crate::regfile::RegClass;
use crate::uop::{BranchInfo, CtxId, DstOperand, SrcOperand, Uop, UopId, UopState, VpInfo};
use mtvp_isa::{Def, Op};
use mtvp_obs::{Event, Tracer, VpKind};
use mtvp_vp::VpClass;

impl<T: Tracer, S: StageSet> StagedCore<'_, T, S> {
    /// Rename up to `rename_width` instructions, rotating fairness among
    /// contexts across cycles.
    pub(crate) fn rename_stage(&mut self) {
        let n = self.ctxs.len();
        let mut budget = self.cfg.rename_width;
        for k in 0..n {
            let ctx = (self.rr_cursor + k) % n;
            if self.ctxs[ctx].state != CtxState::Active || self.now < self.ctxs[ctx].rename_ready_at
            {
                continue;
            }
            while budget > 0 && self.rename_one(ctx) {
                budget -= 1;
            }
            if budget == 0 {
                break;
            }
        }
        self.rr_cursor = (self.rr_cursor + 1) % n.max(1);
    }

    /// Rename the next instruction of `ctx`. Returns false when nothing
    /// could be renamed (empty/immature buffer or structural stall).
    fn rename_one(&mut self, ctx: CtxId) -> bool {
        // Peek the head of the fetch buffer.
        let Some(front) = self.ctxs[ctx].fetch_buffer.front() else {
            return false;
        };
        if front.ready_at > self.now {
            return false;
        }
        let inst = front.inst;

        // Structural hazards: ROB space, queue space, physical registers.
        if self.rob_occupancy() >= self.cfg.rob_entries {
            return false;
        }
        let needs_queue = !matches!(inst.op, Op::Nop | Op::Halt);
        if needs_queue {
            let unit = inst.unit();
            if self.queue_occupancy(unit) >= self.queue_cap(unit) {
                return false;
            }
        }
        let dest_class = match inst.def() {
            Def::None => None,
            Def::Int(_) => Some(RegClass::Int),
            Def::Fp(_) => Some(RegClass::Fp),
        };
        if let Some(class) = dest_class {
            if self.rf.free_count(class) == 0 {
                return false;
            }
        }

        let fi = self.ctxs[ctx]
            .fetch_buffer
            .pop_front()
            .expect("peeked entry");
        let seq = self.next_seq;
        self.next_seq += 1;

        // Rename sources through the current map.
        let uses = inst.uses();
        let mut srcs: [Option<SrcOperand>; 3] = [None; 3];
        let mut si = 0;
        for r in uses.int.iter().flatten() {
            srcs[si] = Some(SrcOperand {
                class: RegClass::Int,
                preg: self.ctxs[ctx].int_map[r.index()],
            });
            si += 1;
        }
        for f in uses.fp.iter().flatten() {
            srcs[si] = Some(SrcOperand {
                class: RegClass::Fp,
                preg: self.ctxs[ctx].fp_map[f.index()],
            });
            si += 1;
        }

        // Rename the destination.
        let dst = match inst.def() {
            Def::None => None,
            Def::Int(r) => {
                let preg = self.rf.alloc(RegClass::Int).expect("checked free above");
                let old = self.ctxs[ctx].int_map[r.index()];
                self.ctxs[ctx].int_map[r.index()] = preg;
                Some(DstOperand {
                    class: RegClass::Int,
                    arch: r.0,
                    preg,
                    old_preg: old,
                })
            }
            Def::Fp(f) => {
                let preg = self.rf.alloc(RegClass::Fp).expect("checked free above");
                let old = self.ctxs[ctx].fp_map[f.index()];
                self.ctxs[ctx].fp_map[f.index()] = preg;
                Some(DstOperand {
                    class: RegClass::Fp,
                    arch: f.0,
                    preg,
                    old_preg: old,
                })
            }
        };

        let branch = if inst.is_control() {
            Some(BranchInfo {
                pred_target: fi.pred_next,
                ghist_prior: fi.ghist_prior,
                ras_after: fi.ras_after.clone(),
                resolved: false,
            })
        } else {
            None
        };

        let state = if needs_queue {
            UopState::Dispatched
        } else {
            UopState::Completed
        };
        let uop = Uop {
            inst,
            pc: fi.pc,
            ctx,
            seq,
            trace_idx: fi.trace_idx,
            state,
            srcs,
            dst,
            branch,
            vp: VpInfo::default(),
            eff_addr: None,
            store_data: None,
            in_queue: needs_queue,
            issue_epoch: 0,
            exec_token: 0,
            exec_value: None,
            resolved_taken: false,
            resolved_target: 0,
        };
        let (id, generation) = self.uops.insert(uop);
        self.ctxs[ctx].rob.push_back(id);
        if inst.is_store() {
            self.ctxs[ctx].lsq.push_back((seq, id));
        }
        if needs_queue {
            self.sched.queued[inst.unit() as usize] += 1;
            self.ctxs[ctx].queued_count += 1;
            if S::Issue::WAKEUP {
                self.enqueue_for_issue(id, generation);
            }
        }
        if T::ENABLED {
            let ev = Event::Rename {
                ctx,
                seq,
                pc: fi.pc,
                op: inst.op.mnemonic(),
                fetched_at: fi.ready_at - self.cfg.front_end_latency,
            };
            self.tracer.record(self.now, ev);
        }

        if inst.is_load() {
            // The stage set's spawn policy decides what a renamed load
            // triggers: value prediction and thread spawning on the SMT
            // core, nothing at all on cores without it.
            S::Spawn::consider(self, ctx, id, &fi);
        }
        true
    }

    /// The value-prediction decision for a freshly renamed load (§3.1).
    /// Invoked through [`crate::framework::ValuePredictSpawn`].
    pub(crate) fn maybe_value_predict(&mut self, ctx: CtxId, load: UopId, fi: &FetchedInst) {
        let vp = &self.cfg.vp;
        let vp_enabled = vp.allow_stvp || vp.allow_mtvp || vp.spawn_only;
        let (pc, trace_idx, dest_preg_class) = {
            let u = self.uops.get(load);
            (u.pc, u.trace_idx, u.dst.map(|d| (d.preg, d.class)))
        };
        if !vp_enabled {
            // Still record a no-prediction episode so ILP-pred keeps a
            // baseline if it is ever consulted.
            self.uops.get_mut(load).vp.episode = Some((VpClass::NoVp, self.issued_total, self.now));
            return;
        }

        // Effective address, if the base register already holds a value
        // (used by the cache-level-oracle selector).
        let base_addr = {
            let u = self.uops.get(load);
            match u.srcs[0] {
                Some(s) if self.rf.is_ready(s.class, s.preg) => Some(
                    mtvp_isa::interp::effective_addr(self.rf.read(s.class, s.preg), u.inst.imm),
                ),
                Some(_) => None,
                None => Some(u.inst.imm as u64), // base is r0
            }
        };

        let mut class = VpClass::NoVp;

        if self.cfg.vp.spawn_only {
            let decision = self.select_decision(pc, base_addr);
            if decision.allow_mtvp {
                if self.find_free_ctx().is_some() {
                    if self.spawn_child(ctx, load, None, fi) {
                        self.stats.vp.spawn_only_spawns += 1;
                        class = VpClass::Mtvp;
                        if T::ENABLED {
                            let ev = Event::Predict {
                                ctx,
                                pc,
                                kind: VpKind::SpawnOnly,
                                value: None,
                            };
                            self.tracer.record(self.now, ev);
                        }
                    }
                } else {
                    self.stats.vp.spawn_no_context += 1;
                }
            }
        } else {
            let prediction = self.predictor.predict(trace_idx, pc);
            if let Some(v) = prediction.confident_value() {
                self.stats.vp.confident_loads += 1;
                let decision = self.select_decision(pc, base_addr);
                let want_mtvp = self.cfg.vp.allow_mtvp && decision.allow_mtvp;
                let spawned = if want_mtvp {
                    if self.find_free_ctx().is_some() && self.spawn_child(ctx, load, Some(v), fi) {
                        self.stats.vp.mtvp_spawns += 1;
                        self.predictor.spec_update(pc, v);
                        class = VpClass::Mtvp;
                        if T::ENABLED {
                            let ev = Event::Predict {
                                ctx,
                                pc,
                                kind: VpKind::Mtvp,
                                value: Some(v),
                            };
                            self.tracer.record(self.now, ev);
                        }
                        // Multiple-value prediction (§5.6): follow alternate
                        // above-threshold values in further contexts.
                        let extra = self.cfg.vp.max_values_per_load.saturating_sub(1);
                        for alt in prediction.alternates.iter().take(extra) {
                            if self.find_free_ctx().is_none() {
                                break;
                            }
                            if self.spawn_child(ctx, load, Some(*alt), fi) {
                                self.stats.vp.multi_value_spawns += 1;
                            }
                        }
                        true
                    } else {
                        self.stats.vp.spawn_no_context += 1;
                        false
                    }
                } else {
                    false
                };
                if !spawned && self.cfg.vp.allow_stvp && decision.allow_stvp {
                    // Single-threaded VP: insert the predicted value into the
                    // load's destination register right away.
                    if let Some((preg, regclass)) = dest_preg_class {
                        self.write_preg(regclass, preg, v);
                    }
                    self.uops.get_mut(load).vp.stvp_value = Some(v);
                    self.predictor.spec_update(pc, v);
                    self.stats.vp.stvp_used += 1;
                    class = VpClass::Stvp;
                    if T::ENABLED {
                        let ev = Event::Predict {
                            ctx,
                            pc,
                            kind: VpKind::Stvp,
                            value: Some(v),
                        };
                        self.tracer.record(self.now, ev);
                    }
                }
                // Keep the over-threshold alternates for the Fig. 5
                // measurement regardless of what was followed.
                self.uops.get_mut(load).vp.alternates = prediction.alternates;
            }
        }

        self.uops.get_mut(load).vp.episode = Some((class, self.issued_total, self.now));
    }

    /// Spawn a speculative thread for the load `load` of `parent`, seeding
    /// the load's destination with `value` (`None` = spawn-only: the child
    /// shares the parent's destination register and blocks on it). Returns
    /// false if resources ran out at the last moment.
    fn spawn_child(
        &mut self,
        parent: CtxId,
        load: UopId,
        value: Option<u64>,
        fi: &FetchedInst,
    ) -> bool {
        let Some(child) = self.find_free_ctx() else {
            return false;
        };
        debug_assert_ne!(child, parent);
        let (load_seq, load_pc, load_trace_idx, dst) = {
            let u = self.uops.get(load);
            (u.seq, u.pc, u.trace_idx, u.dst)
        };
        // A value-carrying spawn needs one fresh physical register.
        let dest = match (value, dst) {
            (Some(_), Some(d)) => {
                if self.rf.free_count(d.class) == 0 {
                    return false;
                }
                Some(d)
            }
            (Some(_), None) => None, // load to r0: prediction has no register effect
            (None, d) => d,
        };

        // Flash-copy the rename maps, bumping use counts (§3.2).
        let (int_map, fp_map) = {
            let p = &self.ctxs[parent];
            (p.int_map, p.fp_map)
        };
        for preg in int_map {
            self.rf.incref(RegClass::Int, preg);
        }
        for preg in fp_map {
            self.rf.incref(RegClass::Fp, preg);
        }

        // A remote (cross-core) slot pays the interconnect on top of the
        // flash-copy: the register map travels to the sibling core.
        let remote = child >= self.cfg.hw_contexts;
        let mut spawn_lat = self.cfg.vp.spawn_latency;
        if remote {
            spawn_lat += self.cfg.remote_spawn_extra;
            self.stats.vp.cross_core_spawns += 1;
        }
        let c = &mut self.ctxs[child];
        c.state = CtxState::Active;
        c.speculative = true;
        c.parent = Some(parent);
        c.spawn_seq = load_seq;
        c.int_map = int_map;
        c.fp_map = fp_map;
        c.fetch_ready_at = self.now + spawn_lat;
        c.rename_ready_at = self.now + spawn_lat;
        c.spawn_load = Some((load, self.uops.generation(load)));
        c.committed_spec = 0;
        c.committed_halt = false;
        c.halted = false;
        c.fetch_stopped = false;
        c.wait_redirect = false;
        c.pending_child = None;

        // Substitute the predicted value for the load destination.
        if let (Some(v), Some(d)) = (value, dest) {
            // Undo the copied reference to the parent's load-dest register
            // and point the child at a fresh register holding `v`.
            self.rf.decref(d.class, d.preg);
            let fresh = self.rf.alloc(d.class).expect("checked free above");
            self.write_preg(d.class, fresh, v);
            match d.class {
                RegClass::Int => self.ctxs[child].int_map[d.arch as usize] = fresh,
                RegClass::Fp => self.ctxs[child].fp_map[d.arch as usize] = fresh,
            }
        }

        // Fetch stream handoff.
        let single_fetch_path =
            self.cfg.vp.fetch_policy == crate::config::FetchPolicy::SingleFetchPath;
        let parent_has_spawn = {
            let u = self.uops.get(load);
            !u.vp.children.is_empty()
        };
        if single_fetch_path && !parent_has_spawn {
            // The child inherits the parent's entire fetch front: buffer,
            // PC, history, RAS (§3.3 — "the currently active thread can
            // always use instructions which have already been fetched").
            let (buf, pc, cursor, ghist, ras, wait) = {
                let p = &mut self.ctxs[parent];
                let buf = std::mem::take(&mut p.fetch_buffer);
                let out = (
                    buf,
                    p.pc,
                    p.trace_cursor,
                    p.ghist,
                    p.ras.clone(),
                    p.wait_redirect,
                );
                p.fetch_stopped = true;
                p.wait_redirect = false;
                out
            };
            let c = &mut self.ctxs[child];
            c.fetch_buffer = buf;
            c.pc = pc;
            c.trace_cursor = cursor;
            c.ghist = ghist;
            c.ras = ras;
            c.wait_redirect = wait;
        } else {
            // No-stall policy, or an extra multiple-value child: start
            // fresh at the instruction after the load.
            let c = &mut self.ctxs[child];
            c.fetch_buffer.clear();
            c.pc = load_pc + 1;
            c.trace_cursor = load_trace_idx + 1;
            c.ghist = fi.ghist_prior;
            c.ras = fi.ras_after.clone();
        }

        // Record the child on the load, and resume state for a wrong
        // prediction (single fetch path resumes fetching after the load).
        {
            let u = self.uops.get_mut(load);
            u.vp.children.push((child, value));
            if u.branch.is_none() {
                u.branch = Some(BranchInfo {
                    pred_target: load_pc + 1,
                    ghist_prior: fi.ghist_prior,
                    ras_after: fi.ras_after.clone(),
                    resolved: false,
                });
            }
        }
        self.ctxs[parent].live_children += 1;
        if T::ENABLED {
            let ev = Event::Spawn {
                parent,
                child,
                pc: load_pc,
                seq: load_seq,
                value,
            };
            self.tracer.record(self.now, ev);
        }
        true
    }
}
