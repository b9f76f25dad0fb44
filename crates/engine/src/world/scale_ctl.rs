//! Scaling control: scale requests and their deployment (new instances
//! wired into the topology, or tail instances set draining), routing table
//! updates, every hand-off of a state unit (the per-sender migration links
//! that serialize units, the stop-restart restore, installation and the
//! fabricated copies of universal keys), retirement (a drained instance's
//! channels are unwired, so it leaves the topology), the stop-restart
//! pause, and the control events (`StartScale`, `DeployDone`, plugin
//! timers, checkpoint ticks) that drive them.

use super::*;
use crate::instance::Life;

/// Deferral of a checkpoint tick that lands during a scale, and twice the
/// deferral of a scale request that lands during another one.
const MICROS_PER_SEC_DEFER: SimTime = 1_000_000;

impl World {
    /// Request a rescale of `op` to `new_parallelism` at time `at`, with the
    /// paper's default uniform re-partitioning.
    pub fn schedule_scale(&mut self, at: SimTime, op: OpId, new_parallelism: usize) {
        self.schedule_scale_with(at, op, new_parallelism, Repartition::Uniform);
    }

    /// Request a rescale with an explicit re-partitioning strategy.
    pub fn schedule_scale_with(
        &mut self,
        at: SimTime,
        op: OpId,
        new_parallelism: usize,
        strategy: Repartition,
    ) {
        let ev = self.ev_control(ControlMsg::StartScale(ScalePlan {
            op,
            old_parallelism: 0,
            new_parallelism,
            strategy,
            moves: Vec::new(),
        }));
        self.q.schedule_at(at, ev);
    }

    /// Update one predecessor's routing for a set of key-groups on every
    /// keyed input edge of the scaling operator. (The touched edges are
    /// exactly [`Self::keyed_in_edges`]; callers that need them can read
    /// the cache directly.)
    pub fn reroute_groups(&mut self, op: OpId, pred: InstId, kgs: &[KeyGroup], to: InstId) {
        let n = self.ops[op.0 as usize].keyed_in_edges.len();
        for k in 0..n {
            let e = self.ops[op.0 as usize].keyed_in_edges[k];
            if let Some(t) = self.edges[e.0 as usize].table_mut(pred) {
                for &kg in kgs {
                    t.set(kg, to);
                }
            }
        }
    }

    /// Point every predecessor of `plan.op` at each move's destination at
    /// once (a single synchronization: Meces, Unbound, stop-restart).
    pub fn reroute_plan(&mut self, plan: &ScalePlan) {
        for k in 0..self.predecessors(plan.op).len() {
            let pred = self.predecessors(plan.op)[k];
            for m in &plan.moves {
                self.reroute_groups(plan.op, pred, &[m.kg], m.to);
            }
        }
    }

    /// All upstream instances feeding the keyed inputs of `op` (cached;
    /// refreshed whenever an upstream instance list changes).
    #[inline]
    pub fn predecessors(&self, op: OpId) -> &[InstId] {
        &self.ops[op.0 as usize].pred_insts
    }

    /// Rebuild the cached predecessor lists of every operator downstream
    /// of `op`. Must be called whenever `op`'s instance list changes
    /// (scale-out instance creation, retirement removal).
    fn refresh_pred_caches_after(&mut self, op: OpId) {
        let outs = self.ops[op.0 as usize].out_edges.clone();
        for e in outs {
            let to = self.edges[e.0 as usize].to;
            let preds = compute_pred_insts(&self.ops[to.0 as usize], &self.ops, &self.edges);
            self.ops[to.0 as usize].pred_insts = preds;
        }
    }

    /// Extract a whole key-group at `from` and enqueue its units for
    /// migration to `to` under `subscale`.
    pub fn migrate_group(&mut self, from: InstId, to: InstId, kg: KeyGroup, subscale: SubscaleId) {
        for sub in 0..self.insts[from.0 as usize].state.fanout() {
            self.migrate_unit(from, to, kg, sub, subscale);
        }
    }

    /// Extract a single sub-group and enqueue it. Returns whether `from`
    /// held it.
    pub fn migrate_unit(
        &mut self,
        from: InstId,
        to: InstId,
        kg: KeyGroup,
        sub: u8,
        subscale: SubscaleId,
    ) -> bool {
        let Some(unit) = self.hand_off(from, to, kg, sub) else {
            return false;
        };
        let i = from.0 as usize;
        if self.scale.links.len() <= i {
            self.scale.links.resize_with(i + 1, Default::default);
        }
        let link = &mut self.scale.links[i];
        link.push_back((to, unit, subscale));
        if link.len() == 1 {
            self.link_start(from);
        }
        true
    }

    /// Restore a whole key-group at `to` from the checkpoint store (state
    /// taken at `from`): each unit is sent and installed at this instant,
    /// with no link time, no transferred bytes and no first migration.
    pub fn restore_group(&mut self, from: InstId, to: InstId, kg: KeyGroup) {
        for sub in 0..self.insts[from.0 as usize].state.fanout() {
            if let Some(unit) = self.hand_off(from, to, kg, sub) {
                self.install_unit(to, unit);
            }
        }
    }

    /// The one send side of a unit changing hands: extract `(kg, sub)` at
    /// `from` and record it in the ledger as sent to `to`.
    fn hand_off(&mut self, from: InstId, to: InstId, kg: KeyGroup, sub: u8) -> Option<StateUnit> {
        let unit = self.insts[from.0 as usize].state.extract(kg, sub)?;
        self.scale.metrics.units.send(kg, sub, from, to);
        Some(unit)
    }

    /// Put the front unit of `from`'s link on the wire, if there is one.
    fn link_start(&mut self, from: InstId) {
        let now = self.now();
        let Some((_to, unit, ss)) = self.scale.links[from.0 as usize].front() else {
            return;
        };
        let bytes = unit.bytes();
        let ss = *ss;
        let dur = (bytes as f64 / self.cfg.ser_bytes_per_us).ceil() as SimTime
            + transfer_time(bytes, self.cfg.migration_gbps)
            + 1;
        self.scale.metrics.first_migration.entry(ss).or_insert(now);
        self.scale.metrics.bytes_transferred += bytes;
        let reg = self.reg(from);
        self.q.schedule_tagged(reg, dur, Ev::LinkSendDone { from });
    }

    /// The link at `from` finished sending its front unit: ship it to its
    /// destination as a chunk and start the next one.
    pub(super) fn on_link_done(&mut self, from: InstId) {
        let Some((to, unit, ss)) = self.scale.links[from.0 as usize].pop_front() else {
            return;
        };
        let lat = self.cfg.net_latency;
        let reg = self.reg(to);
        let ev = self.ev_priority(
            to,
            PriorityMsg::Chunk {
                unit: Box::new(unit),
                subscale: ss,
                from,
            },
        );
        self.q.schedule_tagged(reg, lat, ev);
        self.link_start(from);
    }

    /// The one arrival side of a unit changing hands: install a unit sent
    /// to `inst`, active. When `inst` holds a fabricated copy of the unit,
    /// the unit folds into it. The install that leaves the plan no
    /// outstanding unit completes it.
    pub fn install_unit(&mut self, inst: InstId, unit: StateUnit) {
        let now = self.now();
        let units = &mut self.scale.metrics.units;
        let state = &mut self.insts[inst.0 as usize].state;
        if units.install(unit.kg, unit.sub, inst, now) {
            state.fold(unit);
        } else {
            state.install(unit, true);
        }
        if self.scale.in_progress && units.outstanding() == 0 {
            self.scale.in_progress = false;
            self.scale.metrics.migration_done = Some(now);
        }
        self.wake(inst);
    }

    /// Create an empty copy of key-group `kg` at `inst`, which holds no
    /// unit of it, for a record that reached `inst` without its state
    /// (Unbound's universal keys). The ledger marks the copy fabricated.
    pub fn fabricate_group(&mut self, inst: InstId, kg: KeyGroup) {
        let state = &mut self.insts[inst.0 as usize].state;
        debug_assert!(
            (0..state.fanout()).all(|sub| !state.holds(kg, sub)),
            "{kg} fabricated at {inst}, which holds part of it"
        );
        state.ensure_group(kg);
        self.scale.metrics.units.fabricate(kg, inst);
    }

    /// Stop the whole job (stop-restart's global stop). Sources keep
    /// *generating* (the Kafka backlog grows) but nothing is drained or
    /// processed until [`Self::resume`].
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// End the global stop and wake every instance that has not retired.
    pub fn resume(&mut self) {
        self.paused = false;
        for k in 0..self.insts.len() {
            if self.insts[k].life != Life::Retired {
                self.wake(InstId(k as u32));
            }
        }
    }

    pub(super) fn on_control(&mut self, plugin: &mut dyn ScalePlugin, cmd: ControlMsg) {
        match cmd {
            ControlMsg::StartScale(plan) => self.start_scale(plan),
            ControlMsg::DeployDone { epoch } => {
                if epoch == self.scale.epoch {
                    for &i in &self.scale.new_instances {
                        self.insts[i.0 as usize].life = Life::Running;
                    }
                    self.scale.metrics.deployed_at = Some(self.now());
                    self.bus
                        .publish(self.now(), 0, BusEventKind::ScaleDeployed { epoch });
                    let plan = self.scale.plan.clone().expect("deploying plan");
                    plugin.on_scale_start(self, &plan);
                }
            }
            ControlMsg::Plugin(tag) => plugin.on_control(self, tag),
            ControlMsg::CheckpointTick => {
                // The paper (§IV-C) prevents concurrent fault tolerance and
                // scaling: defer the checkpoint until migration completes.
                if self.scale.in_progress {
                    let ev = self.ev_control(ControlMsg::CheckpointTick);
                    self.q.schedule(MICROS_PER_SEC_DEFER, ev);
                    return;
                }
                self.next_ckpt += 1;
                let id = self.next_ckpt;
                self.bus
                    .publish(self.now(), 0, BusEventKind::CheckpointStart { id });
                for i in 0..self.insts.len() {
                    if let Some(src) = self.insts[i].source.as_mut() {
                        src.pending.push_back(Record {
                            key: id,
                            value: 0,
                            event_time: self.q.now(),
                            created: self.q.now(),
                            kind: RecordKind::Data,
                            origin: (InstId(i as u32), 0),
                            count: 0, // sentinel: count==0 marks a barrier carrier
                        });
                    }
                }
                if let Some(iv) = self.cfg.checkpoint_interval {
                    let ev = self.ev_control(ControlMsg::CheckpointTick);
                    self.q.schedule(iv, ev);
                }
            }
        }
    }

    fn start_scale(&mut self, mut plan: ScalePlan) {
        assert!(
            !self.pdes(),
            "scaling operations are not supported in PDES mode \
             (resume_latency > 0, regions > 1): migration links and \
             re-routing cross regions without credit/lookahead accounting"
        );
        // Concurrent scaling requests (paper §IV-B scenario 1): the newer
        // request supersedes the older one. We realize this as deferral —
        // re-present the request once in-flight migrations have landed, so
        // no state unit is ever in two plans at once.
        if self.scale.in_progress {
            let ev = self.ev_control(ControlMsg::StartScale(plan));
            self.q.schedule(MICROS_PER_SEC_DEFER / 2, ev);
            return;
        }
        let now = self.now();
        self.scale.epoch += 1;
        let epoch = self.scale.epoch;
        let op = plan.op;
        self.suspension_op = Some(op);

        // Create the new instances (scale-out), or set the tail instances
        // draining (scale-in: no new traffic, then `maybe_retire`). One an
        // earlier scale-in left draining is no longer a member.
        let old_insts: Vec<InstId> = self.ops[op.0 as usize]
            .instances
            .iter()
            .copied()
            .filter(|&i| self.insts[i.0 as usize].life != Life::Draining)
            .collect();
        let mut all_insts = old_insts.clone();
        plan.old_parallelism = old_insts.len();
        self.scale.new_instances.clear();
        if plan.new_parallelism < old_insts.len() {
            for &i in &old_insts[plan.new_parallelism..] {
                self.insts[i.0 as usize].life = Life::Draining;
            }
            all_insts.truncate(plan.new_parallelism);
        }
        for li in old_insts.len()..plan.new_parallelism {
            let id = InstId(self.insts.len() as u32);
            let scaled = &self.ops[op.0 as usize];
            assert!(
                scaled.role == OpRole::Transform,
                "scaling a transform operator"
            );
            let mut inst = spawn_instance(&self.cfg, scaled, li, id);
            inst.life = Life::Deploying(now + self.cfg.deploy_delay);
            inst.rr_cursor = vec![0; self.edges.len()];
            self.insts.push(inst);
            self.pending_runs.push(Vec::new());
            self.ops[op.0 as usize].instances.push(id);
            self.scale.new_instances.push(id);
            all_insts.push(id);

            // Wire channels: predecessors → new instance.
            for eid in self.ops[op.0 as usize].in_edges.clone() {
                let edge = &mut self.edges[eid.0 as usize];
                for &fi in &self.ops[edge.from.0 as usize].instances {
                    wire_channel(&self.cfg, &mut self.chans, &mut self.insts, edge, fi, id);
                }
            }
            // New instance → successors.
            for eid in self.ops[op.0 as usize].out_edges.clone() {
                let edge = &mut self.edges[eid.0 as usize];
                for &ti in &self.ops[edge.to.0 as usize].instances {
                    let cid =
                        wire_channel(&self.cfg, &mut self.chans, &mut self.insts, edge, id, ti);
                    // Initialize the successor's view of this channel's
                    // watermark to its current one so downstream windows do
                    // not stall on the fresh channel.
                    self.chans[cid.0 as usize].rx_watermark = self.insts[ti.0 as usize].watermark;
                }
            }
        }

        // Fold the freshly wired channels into the dense per-edge indices —
        // the one (cold) rebuild point; per-record routing never re-indexes.
        let n_insts = self.insts.len();
        for eid in self.ops[op.0 as usize]
            .in_edges
            .iter()
            .chain(self.ops[op.0 as usize].out_edges.iter())
            .copied()
            .collect::<Vec<_>>()
        {
            self.edges[eid.0 as usize].rebuild_index(n_insts);
        }

        // The scaled operator's instance list changed: downstream operators'
        // cached predecessor lists must see the new instances.
        self.refresh_pred_caches_after(op);

        // Compute the moves with the uniform re-partitioning strategy.
        let base = self
            .keyed_in_edges(op)
            .first()
            .map(|&e| {
                let edge = &self.edges[e.0 as usize];
                let any_pred = self.ops[edge.from.0 as usize].instances[0];
                edge.table(any_pred)
                    .expect("predecessor routing table on keyed edge")
                    .clone()
            })
            .expect("scaling operator must have a keyed input");
        plan.moves = match plan.strategy {
            Repartition::Uniform => uniform_repartition(&base, &all_insts),
            Repartition::MinimalMoves => crate::keygroup::minimal_repartition(&base, &all_insts),
        };

        self.scale.plan = Some(plan);
        self.scale.in_progress = true;
        self.scale.metrics.begin_plan(now);
        {
            let p = self.scale.plan.as_ref().expect("just set");
            self.bus.publish(
                now,
                0,
                BusEventKind::ScalePlanned {
                    op: op.0,
                    old_par: p.old_parallelism as u32,
                    new_par: p.new_parallelism as u32,
                    moves: p.moves.len() as u64,
                    epoch,
                },
            );
        }
        // Every unit of a moving key-group starts at its old owner.
        let plan = self.scale.plan.as_ref().expect("just set");
        for m in &plan.moves {
            self.scale.metrics.units.plan(m.kg, m.from, m.to);
        }
        let delay = self.cfg.deploy_delay;
        let ev = self.ev_control(ControlMsg::DeployDone { epoch });
        self.q.schedule(delay, ev);
    }

    /// Retire each draining instance that is idle with every channel empty
    /// and unheld, once no unit is in transit: unwire its channels (so
    /// alignments and watermarks count only wired ones) and drop it.
    pub(super) fn maybe_retire(&mut self) {
        if self.scale.in_progress {
            return;
        }
        for k in 0..self.insts.len() {
            let i = &self.insts[k];
            if i.life != Life::Draining || i.busy {
                continue;
            }
            let chans = [&i.in_channels[..], &i.out_channels[..]].concat();
            let quiet = |c: &Channel| c.occupancy() == 0 && c.holds == 0;
            if !chans.iter().all(|c| quiet(&self.chans[c.0 as usize])) {
                continue;
            }
            let (id, op) = (i.id, i.op);
            for ch in chans {
                self.unwire_channel(ch);
            }
            self.insts[k].life = Life::Retired;
            self.ops[op.0 as usize].instances.retain(|&x| x != id);
            self.refresh_pred_caches_after(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use simcore::time::secs;

    use super::*;
    use crate::scaling::NoScale;
    use crate::world::tests_support::tiny_job;

    #[test]
    fn scale_deploys_new_instances() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 500.0, 64, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        assert_eq!(sim.world.ops[agg.0 as usize].instances.len(), 3);
        let plan = sim.world.scale.plan.as_ref().expect("plan");
        assert!(!plan.moves.is_empty());
        // NoScale never migrates: scale stays in progress.
        assert!(sim.world.scale.in_progress);
        // New instance wired: has inputs and outputs.
        let new = *sim.world.scale.new_instances.first().expect("new instance");
        assert!(!sim.world.insts[new.0 as usize].in_channels.is_empty());
        assert!(!sim.world.insts[new.0 as usize].out_channels.is_empty());
    }

    #[test]
    fn pause_and_resume_stop_and_restart_the_pipeline() {
        let (w, _) = tiny_job(EngineConfig::test(), 1000.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(1));
        let before = sim.world.metrics.sink_records;
        sim.world.pause();
        sim.run_until(secs(2));
        let during = sim.world.metrics.sink_records;
        assert_eq!(before, during, "paused pipeline must not deliver");
        sim.world.resume();
        sim.run_until(secs(3));
        assert!(sim.world.metrics.sink_records > during);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "which is not quiet")]
    fn unwiring_a_held_channel_is_a_debug_panic() {
        let (mut w, _) = tiny_job(EngineConfig::test(), 0.0, 16, 2);
        let ch = w.insts[0].out_channels[0];
        w.chans[ch.0 as usize].holds = 1;
        w.unwire_channel(ch);
    }

    #[test]
    fn migration_links_transfer_state() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 2000.0, 512, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        // Run past deployment.
        sim.run_until(secs(2));
        let plan_moves = sim.world.scale.plan.as_ref().expect("plan").moves.clone();
        // Pause processing first: NoScale never updates routing, so records
        // for extracted groups would otherwise hit the old instances' (by
        // design) missing-state panic.
        sim.world.pause();
        for m in &plan_moves {
            sim.world.migrate_group(m.from, m.to, m.kg, SubscaleId(0));
        }
        // The chunk events reach plugin.on_priority (NoScale drops them), so
        // verify the links dispatched, bytes were counted and the sources
        // no longer hold the groups.
        sim.run_until(secs(3));
        assert!(sim.world.scale.metrics.bytes_transferred > 0);
        for m in &plan_moves {
            assert!(!sim.world.insts[m.from.0 as usize].state.holds_group(m.kg));
        }
    }
}
