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
            // Generate this tick's records; the backlog draws them when
            // they leave it.
            let gen = src.pending.generator();
            let rate = gen.rate(now);
            let mut due = rate * TICK as f64 / 1_000_000.0 + src.carry;
            let limit_hit = gen.limit().map(|l| src.generated >= l).unwrap_or(false);
            if limit_hit {
                due = 0.0;
            }
            let n = due as u64;
            src.carry = due - n as f64;
            let batch = gen.batch().max(1) as u64;
            src.pending.push_tick(now, n, batch);
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
                if self.paused || i.blocked_out {
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
                if self.paused || i.busy || !i.life.runs(self.now()) {
                    return;
                }
                if i.source.is_some() {
                    break;
                }
                if i.blocked_out {
                    return;
                }
            }
            let sel = match plugin.select(self, inst) {
                Some(sel) => sel,
                None => self.default_select(inst),
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

    /// Engine-default input selection: active-channel discipline. The
    /// first non-empty channel an alignment does not hold becomes the
    /// active channel, and its head is the selection: a control element,
    /// or a run of every record up to the next one.
    // checker:hot-path
    fn default_select(&mut self, inst: InstId) -> Selection {
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
            let c = &self.chans[ch.0 as usize];
            if c.holds > 0 || c.queue.is_empty() {
                continue;
            }
            // First non-empty unheld channel becomes the active channel.
            self.insts[inst.0 as usize].active_ch = idx;
            let is_record = self.chan_front(ch).map(|e| e.is_record()).unwrap_or(false);
            if !is_record {
                let elem = self.chan_pop(ch).expect("non-empty");
                return Selection::Control(ch, elem);
            }
            return self.build_run(inst, ch, |_, _| true);
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

    /// Return an empty quantum buffer to the pool. Zero-capacity buffers
    /// are dropped: they are the placeholders left in `pending_runs` by
    /// busy periods that ran no quantum (window firings, snapshots), and
    /// pooling them would crowd out warm buffers. The pool is bounded so
    /// that pathological plugins cannot hoard memory through it.
    #[inline]
    fn recycle_run_buf(&mut self, buf: Vec<Record>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 && self.run_buf_pool.len() < 64 {
            self.run_buf_pool.push(buf);
        }
    }

    /// Pop the run of records at the head of `ch` that `keep` accepts,
    /// bounded by the quantum. The caller has checked that the head record
    /// passes `keep`, so the run is never empty.
    ///
    /// The quantum bounds and the instance's per-record price
    /// ([`Self::service_of`]) are read once per run. `keep` reads each
    /// record in place at the head of the queue before it is popped (which
    /// pumps the channel); the run ends at the first record it refuses or
    /// at the first control element. The engine's default selection keeps
    /// every record, so its filter compiles away and each record leaves
    /// the arena with one move.
    // checker:hot-path
    pub fn build_run(
        &mut self,
        inst: InstId,
        ch: ChannelId,
        mut keep: impl FnMut(&World, &Record) -> bool,
    ) -> Selection {
        let (max_records, max_time) = (self.cfg.quantum_records, self.cfg.quantum_time);
        let price = self.service_of(inst);
        let mut records = self.take_run_buf();
        let mut service: SimTime = 0;
        while records.len() < max_records && service < max_time {
            let Some(&r) = self.chans[ch.0 as usize].queue.front() else {
                break;
            };
            let StreamElement::Record(rec) = &self.arena[r] else {
                break;
            };
            if !keep(self, rec) {
                break;
            }
            service += rec.service(price);
            match self.chan_pop(ch) {
                Some(StreamElement::Record(rec)) => records.push(rec),
                _ => unreachable!("front was a record"),
            }
        }
        Selection::Run { records, service }
    }

    /// The per-record service price at `inst`: the sink's service at a
    /// sink, else the operator logic's
    /// [`service_time`](OperatorLogic::service_time). A record costs it
    /// times its multiplicity ([`Record::service`]).
    // checker:hot-path
    #[inline]
    pub fn service_of(&self, inst: InstId) -> SimTime {
        let op = self.op_of(inst);
        if op.role == OpRole::Sink {
            return op.sink_service;
        }
        let logic = self.insts[inst.0 as usize].logic.as_deref();
        logic.expect("transform logic").service_time()
    }

    pub(super) fn on_proc_done(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, gen: u64) {
        if self.insts[inst.0 as usize].proc_gen != gen {
            return;
        }
        self.insts[inst.0 as usize].busy = false;
        let mut records = std::mem::take(&mut self.pending_runs[inst.0 as usize]);
        if self.op_of(inst).role == OpRole::Sink {
            self.sink_run(inst, &records);
            records.clear();
        } else {
            self.apply_run(plugin, inst, &mut records);
        }
        self.recycle_run_buf(records);
        self.try_start(plugin, inst);
    }

    /// A sink's finished quantum folds to counts: the instance's processed
    /// count and the sunk-record count grow once per run, each latency
    /// marker records its latency in run order, and each data record
    /// folds into the sink-content hash.
    // checker:hot-path
    fn sink_run(&mut self, inst: InstId, records: &[Record]) {
        let now = self.now();
        let (mut processed, mut sunk) = (0u64, 0u64);
        for rec in records {
            processed += rec.count as u64;
            if rec.kind == RecordKind::Marker {
                self.metrics
                    .record_latency(now, now.saturating_sub(rec.created));
            } else {
                sunk += rec.count as u64;
                self.metrics.hash_sunk(rec);
            }
        }
        self.insts[inst.0 as usize].processed += processed;
        self.metrics.sink_records += sunk;
    }

    /// Apply a transform's finished quantum record by record, in run order:
    /// markers are forwarded, data records pass the orphan guard, then
    /// [`Self::apply_data`] runs the logic and emits its output.
    ///
    /// The operator's `stateful` flag, the semantics switch, the logic box
    /// and the output buffer are read once per run. Nothing on this path
    /// but the orphan guard reaches the plugin; around it the logic and the
    /// buffer go back into the world, so the plugin's `on_orphan_record`
    /// (which may call [`Self::apply_record_basic`]) sees the world exactly
    /// as a per-record apply would leave it.
    // checker:hot-path
    fn apply_run(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, records: &mut Vec<Record>) {
        let stateful = self.op_of(inst).stateful;
        let observe = self.cfg.check_semantics && stateful;
        let max_key_groups = self.cfg.max_key_groups;
        let ii = inst.0 as usize;
        let mut logic = self.insts[ii].logic.take().expect("transform logic");
        let mut out = std::mem::take(&mut self.emit_scratch);
        debug_assert!(out.is_empty());
        for rec in records.drain(..) {
            self.insts[ii].processed += rec.count as u64;
            if rec.kind == RecordKind::Marker {
                // Markers bypass operator logic entirely (origin is
                // already stamped; forward as-is).
                self.fan_out(inst, rec);
                continue;
            }
            let kg = key_group_of(rec.key, max_key_groups);
            // Guard (stateful operators): the sub-group may have been
            // extracted between selection and quantum completion (trigger
            // barriers bypass in-flight work). Hand such records to the
            // mechanism.
            if stateful {
                let state = &self.insts[ii].state;
                let sub = state.sub_of(rec.key);
                if !state.holds(kg, sub) {
                    self.insts[ii].logic = Some(logic);
                    self.emit_scratch = out;
                    if !plugin.on_orphan_record(self, inst, &rec) {
                        panic!(
                            "record for absent state {kg}/{sub} at {inst} not handled by {}",
                            plugin.name()
                        );
                    }
                    logic = self.insts[ii].logic.take().expect("transform logic");
                    out = std::mem::take(&mut self.emit_scratch);
                    continue;
                }
            }
            self.apply_data(inst, &mut *logic, &mut out, observe, kg, &rec);
        }
        self.insts[ii].logic = Some(logic);
        self.emit_scratch = out;
    }

    /// Apply a data record's logic at a transform instance without the
    /// orphan guard. Plugins call this to replay records they buffered
    /// themselves (Meces orphan replay, Unbound universal keys); semantics
    /// checking still applies.
    pub fn apply_record_basic(&mut self, inst: InstId, rec: Record) {
        let observe = self.cfg.check_semantics && self.op_of(inst).stateful;
        let kg = self.kg_of(rec.key);
        let ii = inst.0 as usize;
        let mut logic = self.insts[ii].logic.take().expect("transform logic");
        let mut out = std::mem::take(&mut self.emit_scratch);
        debug_assert!(out.is_empty());
        self.apply_data(inst, &mut *logic, &mut out, observe, kg, &rec);
        self.insts[ii].logic = Some(logic);
        self.emit_scratch = out;
    }

    /// The per-record apply rule of a data record in key group `kg` at
    /// transform instance `inst`, whose `logic` and output buffer `out`
    /// the caller has taken out of the world: observe the record's order
    /// when `observe` (the semantics check of a stateful operator) is on,
    /// run the logic, emit its output and leave `out` empty.
    // checker:hot-path
    #[inline]
    fn apply_data(
        &mut self,
        inst: InstId,
        logic: &mut dyn OperatorLogic,
        out: &mut Vec<Record>,
        observe: bool,
        kg: KeyGroup,
        rec: &Record,
    ) {
        // Per-key order is only a guarantee of keyed (hash-partitioned)
        // edges; rebalance edges interleave keys across instances by design.
        if observe && rec.origin.0 != InstId(u32::MAX) {
            let op = self.insts[inst.0 as usize].op;
            self.semantics
                .observe(op, rec.key, rec.origin.0, rec.origin.1);
        }
        let now = self.now();
        let max_key_groups = self.cfg.max_key_groups;
        let i = &mut self.insts[inst.0 as usize];
        let mut ctx = OpCtx {
            now,
            watermark: i.watermark,
            kg,
            state: &mut i.state,
            out,
            max_key_groups,
        };
        logic.on_record(&mut ctx, rec);
        self.emit_all(inst, out);
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
        self.emit_all(inst, &mut out);
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
    fn default_select_skips_a_held_channel() {
        let (mut w, _) = tiny_job(EngineConfig::test(), 500.0, 16, 2);
        while w.q.pop().is_some() {}
        let sink = w.insts.last().expect("a sink").id;
        let c = w.insts[sink.0 as usize].in_channels.clone();
        let r = w.arena.insert(StreamElement::Record(Record::data(1, 1, 0)));
        w.chans[c[0].0 as usize].queue.push_back(r);
        let key = BarrierKey::Checkpoint(1);
        assert_eq!(w.align(sink, key, c[0], 2), None);
        assert!(matches!(w.default_select(sink), Selection::Idle));
        assert_eq!(w.align(sink, key, c[1], 2), Some(vec![c[0], c[1]]));
        match w.default_select(sink) {
            Selection::Run { records, .. } => assert_eq!(records.len(), 1),
            _ => panic!("the freed channel's record was not selected"),
        }
    }

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

    #[test]
    fn window_firings_leave_no_placeholder_in_the_run_buffer_pool() {
        use crate::graph::JobBuilder;
        use crate::operator::WindowAgg;
        use crate::window::Agg;
        use crate::world::tests_support::FixedGen;

        let mut b = JobBuilder::new(EngineConfig::test());
        let src = b.source("src", 2, Box::new(|_| Box::new(FixedGen::new(2_000.0, 64))));
        let win = b.operator(
            "win",
            3,
            Box::new(|| Box::new(WindowAgg::new(secs(1), 100_000, Agg::Max, 20, 16))),
        );
        let sink = b.sink("sink", 1);
        b.connect(src, win, EdgeKind::Keyed);
        b.connect(win, sink, EdgeKind::Rebalance);
        let mut sim = Sim::new(b.build(), Box::new(NoScale));
        for step in 1..=30 {
            sim.run_until(step * 100_000);
            let w = &sim.world;
            assert!(
                w.run_buf_pool.iter().all(|b| b.capacity() > 0),
                "step {step}: a zero-capacity buffer in the pool"
            );
            assert!(
                w.run_buf_pool.len() <= w.insts.len(),
                "step {step}: {} pooled buffers for {} instances",
                w.run_buf_pool.len(),
                w.insts.len()
            );
        }
        // The windows fired: the sink received their outputs.
        assert!(
            sim.world.metrics.sink_records > 100,
            "{}",
            sim.world.metrics.sink_records
        );
    }
}
