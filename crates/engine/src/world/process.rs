//! Instance processing: source ticks generate and drain the Kafka backlog,
//! `try_start` selects input (the plugin's selection or the engine's
//! active-channel default) and starts a quantum as a busy period, and
//! `on_proc_done` applies the quantum's records through the operator logic
//! (`invoke`), the one place an operator callback runs.

use super::*;

impl World {
    // checker:hot-path
    pub(super) fn on_source_tick(&mut self, inst: InstId) {
        let now = self.now();
        let reg = self.reg(inst);
        let pdes = self.pdes();
        {
            let i = &mut self.insts[inst.0 as usize];
            let src = i.source.as_mut().expect("source tick on non-source");
            // Generate records for this tick.
            let rate = src.gen.rate(now);
            let mut due = rate * TICK as f64 / 1_000_000.0 + src.carry;
            let limit_hit = src.gen.limit().map(|l| src.generated >= l).unwrap_or(false);
            if limit_hit {
                due = 0.0;
            }
            let n = due as u64;
            src.carry = due - n as f64;
            let batch = src.gen.batch().max(1) as u64;
            src.pending.push_tick(now, n, batch, || src.gen.next(now));
            src.generated += n;
            // Latency markers. In PDES mode the key draw comes from the
            // region's own RNG stripe: a single global stream would make
            // the draw order depend on how source ticks across regions
            // interleave, which the parallel replicas cannot reproduce.
            while src.next_marker <= now {
                src.next_marker += self.cfg.marker_interval;
                let key = if pdes {
                    self.rngs[reg].below(u32::MAX as u64)
                } else {
                    self.rng.below(u32::MAX as u64)
                };
                let mut m = Record::data(key, 0, now);
                m.kind = RecordKind::Marker;
                m.created = now;
                src.pending.push_back(m);
            }
            // Watermarks ride in pending too (in-order with the data).
            while src.next_watermark <= now {
                src.next_watermark += self.cfg.watermark_interval;
                let mut wm = Record::data(0, 0, now);
                wm.count = u32::MAX; // sentinel: watermark carrier
                src.pending.push_back(wm);
            }
        }
        self.drain_source(inst);
        self.q.schedule_tagged(reg, TICK, Ev::SourceTick { inst });
    }

    // checker:hot-path
    fn drain_source(&mut self, inst: InstId) {
        let now = self.now();
        loop {
            let rec = {
                let i = &mut self.insts[inst.0 as usize];
                if i.halted || i.blocked_out {
                    break;
                }
                match i.source.as_mut().and_then(|s| s.pending.pop_front()) {
                    Some(rec) => rec,
                    None => break,
                }
            };
            if rec.count == u32::MAX {
                // Watermark carrier.
                self.broadcast(inst, StreamElement::Watermark(rec.event_time));
            } else if rec.count == 0 {
                // Checkpoint barrier carrier.
                self.broadcast(inst, StreamElement::CheckpointBarrier(rec.key));
            } else {
                let n = rec.count as u64;
                self.emit_one(inst, rec);
                self.metrics.count_source(now, n);
                if let Some(src) = self.insts[inst.0 as usize].source.as_mut() {
                    src.emitted += n;
                }
            }
        }
    }

    /// Attempt to start work at an instance. Safe to call at any time.
    pub(super) fn try_start(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId) {
        loop {
            {
                let i = &self.insts[inst.0 as usize];
                if i.halted || i.busy || self.now() < i.operational_at {
                    return;
                }
                if i.source.is_some() {
                    break;
                }
                if i.blocked_out {
                    return;
                }
            }
            let sel = if plugin.selects(self, inst) {
                plugin.select(self, inst)
            } else {
                self.default_select(plugin, inst)
            };
            let now = self.now();
            match sel {
                Selection::Control(ch, elem) => {
                    self.handle_control_elem(plugin, inst, ch, elem);
                    // Loop: look for more work at the same instant.
                }
                Selection::Run { records, service } => {
                    self.insts[inst.0 as usize].leave_suspend(now);
                    // The slot holds an empty Vec (drained by the previous
                    // `on_proc_done`); dropping it frees nothing.
                    self.pending_runs[inst.0 as usize] = records;
                    self.start_busy(inst, service.max(1));
                    return;
                }
                Selection::Suspend => {
                    self.insts[inst.0 as usize].enter_suspend(now);
                    return;
                }
                Selection::Idle => {
                    self.insts[inst.0 as usize].leave_suspend(now);
                    return;
                }
            }
        }
        // Sources fall through to draining.
        self.drain_source(inst);
    }

    /// Mark `inst` busy for `dur` — a quantum, a window firing or a
    /// snapshot — and schedule the `ProcDone` that ends the busy period.
    #[inline]
    pub(super) fn start_busy(&mut self, inst: InstId, dur: SimTime) {
        let i = &mut self.insts[inst.0 as usize];
        i.busy = true;
        i.proc_gen += 1;
        let gen = i.proc_gen;
        let reg = self.reg(inst);
        self.q.schedule_tagged(reg, dur, Ev::ProcDone { inst, gen });
    }

    /// Engine-default input selection: active-channel discipline with the
    /// plugin's admission filter (the generalized-OTFS behaviour from the
    /// paper's Fig. 6 — suspend when the active channel's head is
    /// unprocessable, even if other channels have processable records).
    fn default_select(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId) -> Selection {
        let (n, start) = {
            let i = &self.insts[inst.0 as usize];
            (i.in_channels.len(), i.active_ch)
        };
        if n == 0 {
            return Selection::Idle;
        }
        for k in 0..n {
            let idx = (start + k) % n;
            let ch = self.insts[inst.0 as usize].in_channels[idx];
            if self.insts[inst.0 as usize].blocked_channels.contains(&ch) {
                continue;
            }
            if self.chans[ch.0 as usize].queue.is_empty() {
                continue;
            }
            // First non-empty unblocked channel becomes the active channel.
            self.insts[inst.0 as usize].active_ch = idx;
            let is_record = self.chan_front(ch).map(|e| e.is_record()).unwrap_or(false);
            if !is_record {
                let elem = self.chan_pop(ch).expect("non-empty");
                return Selection::Control(ch, elem);
            }
            // Peek admission for the head record.
            let rec = self
                .chan_front(ch)
                .and_then(|e| e.as_record())
                .cloned()
                .expect("checked record");
            let admissible = rec.kind == RecordKind::Marker || plugin.admit(self, inst, ch, &rec);
            if !admissible {
                return Selection::Suspend;
            }
            return self.build_run(plugin, inst, ch);
        }
        Selection::Idle
    }

    /// An empty quantum buffer from the recycling pool (`on_proc_done`
    /// returns every finished quantum's buffer to it). Selections that
    /// assemble their own `Selection::Run` take their `records` from here,
    /// so a run costs no allocation once the pool is warm.
    #[inline]
    pub fn take_run_buf(&mut self) -> Vec<Record> {
        let buf = self.run_buf_pool.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        buf
    }

    /// Pop a run of admissible records from `ch` bounded by the quantum.
    pub fn build_run(
        &mut self,
        plugin: &mut dyn ScalePlugin,
        inst: InstId,
        ch: ChannelId,
    ) -> Selection {
        let mut records = self.take_run_buf();
        let mut service: SimTime = 0;
        loop {
            if records.len() >= self.cfg.quantum_records || service >= self.cfg.quantum_time {
                break;
            }
            let Some(front) = self.chan_front(ch) else {
                break;
            };
            let Some(rec) = front.as_record() else { break };
            let rec = rec.clone();
            if rec.kind != RecordKind::Marker && !plugin.admit(self, inst, ch, &rec) {
                break;
            }
            service += self.service_of(inst, &rec);
            let popped = self.chan_pop(ch).expect("non-empty");
            match popped {
                StreamElement::Record(r) => records.push(r),
                _ => unreachable!("front was a record"),
            }
        }
        if records.is_empty() {
            self.run_buf_pool.push(records);
            Selection::Suspend
        } else {
            Selection::Run { records, service }
        }
    }

    /// Service time of one element at an instance.
    pub fn service_of(&self, inst: InstId, rec: &Record) -> SimTime {
        if rec.kind == RecordKind::Marker {
            return 0;
        }
        let i = &self.insts[inst.0 as usize];
        match self.ops[i.op.0 as usize].role {
            OpRole::Sink => self.ops[i.op.0 as usize].sink_service * rec.count as SimTime,
            _ => i
                .logic
                .as_ref()
                .map(|l| l.service_time(rec) * rec.count as SimTime)
                .unwrap_or(1),
        }
    }

    pub(super) fn on_proc_done(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, gen: u64) {
        if self.insts[inst.0 as usize].proc_gen != gen {
            return;
        }
        self.insts[inst.0 as usize].busy = false;
        let mut records = std::mem::take(&mut self.pending_runs[inst.0 as usize]);
        for rec in records.drain(..) {
            self.apply_record(plugin, inst, rec);
        }
        // Recycle the (now empty, capacity-preserving) buffer. Bound the
        // pool so pathological plugins cannot hoard memory through it.
        if self.run_buf_pool.len() < 64 {
            self.run_buf_pool.push(records);
        }
        self.try_start(plugin, inst);
    }

    /// Apply one record of a finished quantum at an instance (logic +
    /// emission + metrics), with the orphan guard and the plugin's
    /// `after_record` hook.
    fn apply_record(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, rec: Record) {
        let now = self.now();
        let role = self.op_of(inst).role;
        self.insts[inst.0 as usize].processed += rec.count as u64;
        match role {
            OpRole::Sink => {
                if rec.kind == RecordKind::Marker {
                    self.metrics
                        .record_latency(now, now.saturating_sub(rec.created));
                } else {
                    self.metrics.sink_records += rec.count as u64;
                }
            }
            _ => {
                if rec.kind == RecordKind::Marker {
                    // Markers bypass operator logic entirely (origin is
                    // already stamped; forward as-is).
                    self.fan_out(inst, rec);
                    return;
                }
                let kg = self.kg_of(rec.key);
                // Guard (stateful operators): the sub-group may have been
                // extracted between admission and quantum completion
                // (trigger barriers bypass in-flight work). Hand such
                // records to the mechanism.
                if self.op_of(inst).stateful {
                    let sub = self.insts[inst.0 as usize].state.sub_of(rec.key);
                    if !self.insts[inst.0 as usize].state.holds(kg, sub) {
                        if plugin.on_orphan_record(self, inst, &rec) {
                            return;
                        }
                        panic!(
                            "record for absent state {kg}/{sub} at {inst} not handled by {}",
                            plugin.name()
                        );
                    }
                }
                self.apply_record_basic(inst, rec.clone());
                plugin.after_record(self, inst, &rec);
            }
        }
    }

    /// Apply a data record's logic at a transform instance without the
    /// orphan guard or plugin hooks. Plugins call this to replay records
    /// they buffered themselves (Meces orphan replay, Unbound universal
    /// keys); semantics checking still applies.
    pub fn apply_record_basic(&mut self, inst: InstId, rec: Record) {
        let now = self.now();
        let kg = self.kg_of(rec.key);
        // Per-key order is only a guarantee of keyed (hash-partitioned)
        // edges; rebalance edges interleave keys across instances by design.
        if self.cfg.check_semantics && rec.origin.0 != InstId(u32::MAX) && self.op_of(inst).stateful
        {
            let op = self.insts[inst.0 as usize].op;
            self.semantics
                .observe(op, rec.key, rec.origin.0, rec.origin.1);
        }
        let max_key_groups = self.cfg.max_key_groups;
        self.invoke(inst, |logic, i, out| {
            let mut ctx = OpCtx {
                now,
                watermark: i.watermark,
                kg,
                state: &mut i.state,
                out,
                max_key_groups,
            };
            logic.on_record(&mut ctx, &rec);
        });
    }

    /// Run one operator callback at transform instance `inst` — its logic,
    /// the instance (for state and watermark) and the output buffer — then
    /// emit what it produced. The output buffer is the world's reused
    /// `emit_scratch`: one operator callback runs at a time, and emission
    /// drains it back to empty, keeping its capacity.
    #[inline]
    pub(super) fn invoke<R>(
        &mut self,
        inst: InstId,
        f: impl FnOnce(&mut dyn OperatorLogic, &mut Instance, &mut Vec<Record>) -> R,
    ) -> R {
        let i = &mut self.insts[inst.0 as usize];
        let mut logic = i.logic.take().expect("transform logic");
        let mut out = std::mem::take(&mut self.emit_scratch);
        debug_assert!(out.is_empty());
        let r = f(&mut *logic, i, &mut out);
        self.insts[inst.0 as usize].logic = Some(logic);
        for rec in out.drain(..) {
            self.emit_one(inst, rec);
        }
        self.emit_scratch = out;
        r
    }

    /// Handle a control element popped by an input selection.
    fn handle_control_elem(
        &mut self,
        plugin: &mut dyn ScalePlugin,
        inst: InstId,
        ch: ChannelId,
        elem: StreamElement,
    ) {
        match elem {
            StreamElement::Watermark(wm) => self.on_watermark(inst, ch, wm),
            StreamElement::CheckpointBarrier(id) => self.on_ckpt_barrier(inst, ch, id),
            StreamElement::Scale(sig) => plugin.on_signal(self, inst, ch, sig),
            StreamElement::Record(_) => unreachable!("records are not control elements"),
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
    fn records_flow_source_to_sink() {
        let (w, _agg) = tiny_job(EngineConfig::test(), 1000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        assert!(
            sim.world.metrics.sink_records > 3_000,
            "{}",
            sim.world.metrics.sink_records
        );
        // Latency markers made it through.
        assert!(sim.world.metrics.latency.len() > 50);
        // No order violations without scaling.
        assert_eq!(sim.world.semantics.violations(), 0);
    }

    #[test]
    fn latency_is_low_without_load() {
        let (w, _) = tiny_job(EngineConfig::test(), 100.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        let (peak, mean) = sim.world.metrics.latency_stats_ms(0, secs(5));
        assert!(mean < 50.0, "mean latency {mean} ms");
        assert!(peak < 200.0, "peak latency {peak} ms");
    }

    #[test]
    fn state_accumulates_per_key() {
        let (w, agg) = tiny_job(EngineConfig::test(), 1000.0, 8, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let total: u64 = sim.world.ops[agg.0 as usize]
            .instances
            .iter()
            .map(|&i| {
                sim.world.insts[i.0 as usize]
                    .state
                    .snapshot_counts()
                    .values()
                    .sum::<u64>()
            })
            .sum();
        // All data records that reached the agg are counted.
        assert!(total > 2_000, "{total}");
        // 8 keys → 8 KB nominal state.
        assert_eq!(sim.world.op_state_bytes(agg), 8_000);
    }

    #[test]
    fn markers_measure_latency_through_the_pipeline() {
        let (w, _) = tiny_job(EngineConfig::test(), 1_000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let m = &sim.world.metrics;
        assert!(m.latency.len() > 30);
        // Quantiles are available and ordered.
        let p50 = m.latency_quantile_ms(0.5).expect("samples");
        let p99 = m.latency_quantile_ms(0.99).expect("samples");
        assert!(p99 >= p50);
    }
}
