//! The data plane: `send` parks an element in the arena and puts its handle
//! on the wire or in the sender backlog, `pump` refills the wire as credit
//! frees up, the `chan_*` methods pop and peek receiver queues, and
//! emission stamps operator output and routes it over every out edge. One
//! path serves every channel: a cut channel in PDES mode differs only in
//! where its credit comes from ([`Channel::take_credit`]) and which wire
//! carries it (`World::wire`).
//!
//! [`Channel::take_credit`]: crate::channel::Channel::take_credit

use super::*;

impl World {
    /// Send an element over a channel, respecting credits and backlog. The
    /// element is parked in the arena here — its single resting place until
    /// consumption — and only its handle moves through backlog, wire and
    /// receiver queue.
    pub fn send(&mut self, ch: ChannelId, elem: StreamElement) {
        let r = self.arena.insert(elem);
        let c = &mut self.chans[ch.0 as usize];
        if c.backlog.is_empty() && c.take_credit() {
            self.wire(ch, r, true);
        } else {
            c.backlog.push_back(r);
            if c.backlog.len() >= self.cfg.backlog_block {
                let from = c.from;
                if !self.insts[from.0 as usize].blocked_out {
                    self.insts[from.0 as usize].blocked_out = true;
                    let reg = self.reg(from) as u8;
                    self.bus.publish(
                        self.q.now(),
                        reg,
                        BusEventKind::BackpressureBlock { inst: from.0 },
                    );
                }
            }
        }
    }

    /// Send a control element bypassing the backlog and credits (used for
    /// barriers that are "priority in the output cache"). On a cut channel
    /// in PDES mode the element still travels as a keyed cross delivery —
    /// uncredited in both engines, so credit accounting is untouched
    /// either way.
    pub fn send_uncredited(&mut self, ch: ChannelId, elem: StreamElement) {
        let r = self.arena.insert(elem);
        self.wire(ch, r, false);
    }

    /// Put an arena-parked element on the channel's wire: a cut channel's
    /// goes to the receiver's region as a keyed cross delivery (always
    /// uncredited at the receiver — cut channels count credit on the
    /// sender side), any other's into a delivery burst.
    #[inline]
    fn wire(&mut self, ch: ChannelId, r: RecordRef, credited: bool) {
        if self.chans[ch.0 as usize].cut {
            self.cross_deliver_ref(ch, r);
        } else {
            self.put_on_wire(ch, r, credited);
        }
    }

    /// Put one arena-parked element on the wire of a channel the engine
    /// delivers itself (every channel but a cut one in PDES mode): extend
    /// the open burst when the four conditions on [`Ev::Deliver`] hold,
    /// else open a new one and schedule its event. Deliveries dispatch in
    /// the *receiver's* region.
    // checker:hot-path
    #[inline]
    fn put_on_wire(&mut self, ch: ChannelId, elem: RecordRef, credited: bool) {
        let c = &self.chans[ch.0 as usize];
        let at = self.q.now().saturating_add(c.latency);
        let reg = self.region_map.inst(c.to);
        let seq = self.q.next_seq();
        let e = WireElem { ch, elem, credited };
        if !self.bursts.extend_open(at, reg, seq, e) {
            let burst = self.bursts.open(at, reg, seq, e);
            self.q.schedule_at_tagged(reg, at, Ev::Deliver { burst });
        }
    }

    /// Move backlog elements onto the wire while credit allows, and unblock
    /// the sender if all its backlogs drained below the resume watermark.
    /// On a cut channel the credit is the sender-owned pool that
    /// `CutCredit` events refill.
    pub fn pump(&mut self, ch: ChannelId) {
        loop {
            let c = &mut self.chans[ch.0 as usize];
            if c.backlog.is_empty() || !c.take_credit() {
                break;
            }
            let r = c.backlog.pop_front().expect("non-empty");
            self.wire(ch, r, true);
        }
        // Hysteresis: unblock the sender when every outgoing backlog is low.
        let from = self.chans[ch.0 as usize].from;
        if self.insts[from.0 as usize].blocked_out {
            let resume = self.cfg.backlog_resume;
            let clear = self.insts[from.0 as usize]
                .out_channels
                .iter()
                .all(|&oc| self.chans[oc.0 as usize].backlogged() < resume);
            if clear {
                self.insts[from.0 as usize].blocked_out = false;
                let reg = self.reg(from) as u8;
                self.bus.publish(
                    self.q.now(),
                    reg,
                    BusEventKind::BackpressureResume { inst: from.0 },
                );
                self.wake(from);
            }
        }
    }

    /// Pop the front element of a channel, refilling from the backlog. The
    /// element leaves the arena here — the single payload move on the
    /// consume side.
    pub fn chan_pop(&mut self, ch: ChannelId) -> Option<StreamElement> {
        let r = self.chans[ch.0 as usize].queue.pop_front();
        self.consume(ch, r)
    }

    /// Remove the element at queue position `idx` (intra-channel
    /// scheduling). Position 0 is the front.
    pub fn chan_remove_at(&mut self, ch: ChannelId, idx: usize) -> Option<StreamElement> {
        let r = self.chans[ch.0 as usize].queue.remove(idx);
        self.consume(ch, r)
    }

    /// An element `r` just left `ch`'s receiver queue: refill the channel,
    /// then take the element out of the arena. On a cut channel in PDES
    /// mode the freed credit travels back to the sender's region as a
    /// latency-bearing `CutCredit` event; everywhere else the synchronous
    /// `pump` runs.
    #[inline]
    fn consume(&mut self, ch: ChannelId, r: Option<RecordRef>) -> Option<StreamElement> {
        let r = r?;
        if self.chans[ch.0 as usize].cut {
            self.return_cut_credit(ch);
        } else {
            self.pump(ch);
        }
        Some(self.arena.remove(r))
    }

    /// Peek the element at the front of a channel's receiver queue.
    #[inline]
    pub fn chan_front(&self, ch: ChannelId) -> Option<&StreamElement> {
        self.chans[ch.0 as usize]
            .queue
            .front()
            .map(|&r| &self.arena[r])
    }

    /// Peek the element at receiver-queue position `idx` (0 = front).
    #[inline]
    pub fn chan_peek(&self, ch: ChannelId, idx: usize) -> Option<&StreamElement> {
        self.chans[ch.0 as usize]
            .queue
            .get(idx)
            .map(|&r| &self.arena[r])
    }

    /// Channel between two instances on an edge.
    pub fn channel_between(&self, edge: EdgeId, from: InstId, to: InstId) -> Option<ChannelId> {
        self.edges[edge.0 as usize].channel(from, to)
    }

    /// Emit one record produced by `inst` (stamps the origin sequence).
    pub(super) fn emit_one(&mut self, inst: InstId, mut rec: Record) {
        let seq = self.insts[inst.0 as usize].next_seq();
        rec.origin = (inst, seq);
        self.fan_out(inst, rec);
    }

    /// Route an already-stamped record onto every out edge of `inst`,
    /// cloning only for all-but-the-last edge (single-edge operators — the
    /// common case — move the record straight through).
    pub(super) fn fan_out(&mut self, inst: InstId, rec: Record) {
        let opi = self.insts[inst.0 as usize].op.0 as usize;
        let n = self.ops[opi].out_edges.len();
        for k in 0..n {
            let e = self.ops[opi].out_edges[k];
            if k + 1 == n {
                self.route_record(inst, e, rec);
                return;
            }
            self.route_record(inst, e, rec.clone());
        }
    }

    fn route_record(&mut self, from: InstId, eid: EdgeId, rec: Record) {
        let edge = &self.edges[eid.0 as usize];
        let kind = edge.kind;
        match kind {
            EdgeKind::Keyed if rec.kind == RecordKind::Data => {
                let kg = key_group_of(rec.key, self.cfg.max_key_groups);
                let dest = edge
                    .table(from)
                    .unwrap_or_else(|| panic!("no routing table for {from} on edge {}", eid.0))
                    .route(kg);
                let ch = edge.channel_of(from, dest);
                self.send(ch, StreamElement::Record(rec));
            }
            _ => {
                // Rebalance, broadcast, and all markers: markers round-robin
                // over operational destinations so they sample every path.
                if kind == EdgeKind::Broadcast && rec.kind == RecordKind::Data {
                    let toi = edge.to.0 as usize;
                    let n = self.ops[toi].instances.len();
                    for k in 0..n {
                        let ti = self.ops[toi].instances[k];
                        let ch = self.edges[eid.0 as usize].channel_of(from, ti);
                        if k + 1 == n {
                            self.send(ch, StreamElement::Record(rec));
                            return;
                        }
                        self.send(ch, StreamElement::Record(rec.clone()));
                    }
                    return;
                }
                // Round-robin only over operational, non-retiring
                // destinations: freshly deployed instances must not swallow
                // traffic (or markers) while their container is still
                // initializing, and retiring instances receive nothing new.
                // Two in-place scans (count, then pick) keep this
                // allocation-free; destination lists are a handful of
                // instances, and the retiring probe is a bitset read.
                let now = self.now();
                let toi = self.edges[eid.0 as usize].to.0 as usize;
                let eligible = |w: &World, i: InstId| {
                    w.insts[i.0 as usize].operational_at <= now && !w.scale.retiring.contains(i)
                };
                let mut count = 0usize;
                for k in 0..self.ops[toi].instances.len() {
                    let i = self.ops[toi].instances[k];
                    if eligible(self, i) {
                        count += 1;
                    }
                }
                if count == 0 {
                    return;
                }
                let cursor = {
                    let c = &mut self.insts[from.0 as usize].rr_cursor[eid.0 as usize];
                    *c += 1;
                    *c
                };
                let pick = cursor % count;
                let mut seen = 0usize;
                for k in 0..self.ops[toi].instances.len() {
                    let i = self.ops[toi].instances[k];
                    if eligible(self, i) {
                        if seen == pick {
                            let ch = self.edges[eid.0 as usize].channel_of(from, i);
                            self.send(ch, StreamElement::Record(rec));
                            return;
                        }
                        seen += 1;
                    }
                }
                unreachable!("pick < count");
            }
        }
    }

    /// Send a control element (watermark or checkpoint barrier) from
    /// `inst` on every out channel.
    pub(super) fn broadcast(&mut self, inst: InstId, elem: StreamElement) {
        let n = self.insts[inst.0 as usize].out_channels.len();
        for k in 0..n {
            let ch = self.insts[inst.0 as usize].out_channels[k];
            self.send(ch, elem.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use simcore::time::secs;

    use super::*;
    use crate::scaling::NoScale;
    use crate::world::tests_support::{run_until_one_at_a_time, tiny_job};

    #[test]
    fn overload_creates_backpressure_and_latency() {
        // Service 50 µs/record at parallelism 1 → capacity 20K/s; drive 30K/s.
        let (w, _) = tiny_job(EngineConfig::test(), 30_000.0, 64, 1);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        let (peak, _mean) = sim.world.metrics.latency_stats_ms(secs(3), secs(5));
        assert!(
            peak > 500.0,
            "expected growing latency under overload, peak={peak} ms"
        );
    }

    #[test]
    fn backpressure_blocks_and_unblocks_sources() {
        // Overload, then watch the source block; after the input rate is
        // relieved the backlog must drain and unblock.
        struct BurstGen {
            n: u64,
        }
        impl crate::instance::SourceGen for BurstGen {
            fn rate(&self, t: SimTime) -> f64 {
                if t < secs(2) {
                    60_000.0
                } else {
                    1_000.0
                }
            }
            fn next(&mut self, _t: SimTime) -> (u64, i64) {
                self.n += 1;
                (self.n % 64, 1)
            }
        }
        use crate::graph::JobBuilder;
        use crate::operator::KeyedAgg;
        let mut b = JobBuilder::new(EngineConfig::test());
        let src = b.source("src", 1, Box::new(|_| Box::new(BurstGen { n: 0 })));
        let agg = b.operator(
            "agg",
            1,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 50,
                    bytes_per_key: 10,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink("sink", 1);
        b.connect(src, agg, crate::graph::EdgeKind::Keyed);
        b.connect(agg, sink, crate::graph::EdgeKind::Rebalance);
        let mut sim = Sim::new(b.build(), Box::new(NoScale));
        sim.run_until(secs(1));
        let src_inst = sim.world.ops[src.0 as usize].instances[0];
        assert!(
            sim.world.insts[src_inst.0 as usize].blocked_out,
            "60K/s into a 20K/s operator must block the source"
        );
        sim.run_until(secs(10));
        assert!(
            !sim.world.insts[src_inst.0 as usize].blocked_out,
            "source still blocked after relief"
        );
        let pending = sim.world.insts[src_inst.0 as usize]
            .source
            .as_ref()
            .expect("source")
            .pending
            .len();
        assert!(pending < 1_000, "Kafka backlog not drained: {pending}");
    }

    // -----------------------------------------------------------------
    // Delivery bursts (the contract on `Ev::Deliver`)
    // -----------------------------------------------------------------

    fn wm(t: SimTime) -> StreamElement {
        StreamElement::Watermark(t)
    }

    /// The watermarks sitting in `ch`'s receiver queue, front first.
    fn queued_wms(w: &World, ch: ChannelId) -> Vec<SimTime> {
        (0..w.chans[ch.0 as usize].queue.len())
            .map(|i| match w.chan_peek(ch, i) {
                Some(StreamElement::Watermark(t)) => *t,
                other => panic!("not a watermark: {other:?}"),
            })
            .collect()
    }

    /// A silent tiny job plus its source's first out channel, with that
    /// channel's receiver optionally halted so delivered elements stay
    /// queued where a test can read them.
    fn burst_fixture(net_latency: SimTime, halt_receiver: bool) -> (World, ChannelId) {
        let mut cfg = EngineConfig::test();
        cfg.net_latency = net_latency;
        let (mut w, _) = tiny_job(cfg, 0.0, 16, 2);
        let ch = w.insts[0].out_channels[0];
        let to = w.chans[ch.0 as usize].to;
        w.insts[to.0 as usize].halted = halt_receiver;
        (w, ch)
    }

    /// Which of the two public dispatch entry points a burst test drives:
    /// the plain per-element `dispatch` (the reference) or the fused
    /// `dispatch_run` the engine's loop uses.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Dispatch,
        DispatchRun,
    }

    const MODES: [Via; 2] = [Via::Dispatch, Via::DispatchRun];

    fn dispatch_via(w: &mut World, plugin: &mut dyn ScalePlugin, ev: Ev, mode: Via) {
        match mode {
            Via::Dispatch => w.dispatch(plugin, ev),
            Via::DispatchRun => w.dispatch_run(plugin, &mut vec![ev]),
        }
    }

    /// Pop everything due by `t`, dispatching only the `Deliver` events
    /// (one at a time or as one-event runs) and dropping the rest. Returns
    /// `(deliver events, other events)` popped.
    fn deliver_until(
        w: &mut World,
        plugin: &mut dyn ScalePlugin,
        t: SimTime,
        mode: Via,
    ) -> (u64, u64) {
        let (mut delivers, mut others) = (0, 0);
        while let Some((_, ev)) = w.q.pop_at_most(t) {
            if !matches!(ev, Ev::Deliver { .. }) {
                others += 1;
                continue;
            }
            delivers += 1;
            dispatch_via(w, plugin, ev, mode);
        }
        (delivers, others)
    }

    #[test]
    fn burst_extends_only_while_no_seq_was_minted_in_between() {
        for mode in MODES {
            let (mut w, ch) = burst_fixture(200, true);
            let pending = w.q.len();
            w.send(ch, wm(1));
            w.send(ch, wm(2));
            assert_eq!(w.q.len(), pending + 1, "back-to-back sends share a burst");
            w.wake(InstId(0));
            w.send(ch, wm(3));
            assert_eq!(w.q.len(), pending + 3, "a wake in between closes the burst");
            w.schedule_plugin(10, 7);
            w.send(ch, wm(4));
            w.send(ch, wm(5));
            assert_eq!(w.q.len(), pending + 5, "so does a plugin timer");
            assert_eq!(w.bursts.pending(), 3);

            let before = w.q.processed();
            let (delivers, others) = deliver_until(&mut w, &mut NoScale, 200, mode);
            assert_eq!(delivers, 3, "{mode:?}");
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 3, 4, 5], "{mode:?}");
            assert_eq!(
                w.q.processed() - before,
                others + 5,
                "{mode:?}: processed counts elements, not bursts"
            );
            assert_eq!(w.bursts.pending(), 0);
        }
    }

    #[test]
    fn credited_and_uncredited_elements_share_a_burst() {
        for mode in MODES {
            let (mut w, ch) = burst_fixture(200, true);
            let pending = w.q.len();
            w.send(ch, wm(1));
            w.send_uncredited(ch, wm(2));
            w.send(ch, wm(3));
            assert_eq!(w.q.len(), pending + 1);
            assert_eq!(w.chans[ch.0 as usize].in_flight, 2);
            deliver_until(&mut w, &mut NoScale, 200, mode);
            assert_eq!(w.chans[ch.0 as usize].in_flight, 0, "{mode:?}");
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 3], "{mode:?}");
        }
    }

    /// Sends from inside event handlers: one uncredited watermark on `ch`
    /// the first time the engine asks it to select input — i.e. from
    /// inside the walk of whichever burst woke the receiver — and one
    /// credited watermark (carrying the tag) per plugin timer.
    struct SendingPlugin {
        ch: ChannelId,
        sent_on_select: bool,
    }

    impl ScalePlugin for SendingPlugin {
        fn name(&self) -> &'static str {
            "sending"
        }
        fn on_scale_start(&mut self, _w: &mut World, _plan: &ScalePlan) {}
        fn on_signal(
            &mut self,
            _w: &mut World,
            _i: InstId,
            _c: ChannelId,
            _s: crate::record::ScaleSignal,
        ) {
        }
        fn on_chunk(
            &mut self,
            _w: &mut World,
            _i: InstId,
            _u: StateUnit,
            _s: SubscaleId,
            _f: InstId,
        ) {
        }
        fn on_control(&mut self, w: &mut World, tag: u64) {
            w.send(self.ch, wm(tag));
        }
        fn selects(&self, _w: &World, _inst: InstId) -> bool {
            true
        }
        fn select(&mut self, w: &mut World, _inst: InstId) -> Selection {
            if !self.sent_on_select {
                self.sent_on_select = true;
                w.send_uncredited(self.ch, wm(99));
            }
            Selection::Idle
        }
    }

    #[test]
    fn a_burst_taken_for_dispatch_is_never_appended_to() {
        // Zero latency: the send made while the burst is being walked has
        // the burst's own arrival instant and region, and nothing was
        // minted since — only "taken" keeps it out. Appended to the taken
        // burst it would be lost (or walked in the current run); it must
        // pop as a later event instead.
        for mode in MODES {
            let (mut w, ch) = burst_fixture(0, false);
            let mut plugin = SendingPlugin {
                ch,
                sent_on_select: false,
            };
            w.send(ch, wm(1));
            w.send(ch, wm(2));
            let pending = w.q.len();
            let (_, ev) = w.q.pop().expect("the burst is due first");
            assert!(matches!(ev, Ev::Deliver { .. }));
            dispatch_via(&mut w, &mut plugin, ev, mode);
            assert!(plugin.sent_on_select);
            assert_eq!(queued_wms(&w, ch), vec![1, 2], "{mode:?}");
            assert_eq!(
                w.q.len(),
                pending,
                "{mode:?}: the late send is its own event"
            );
            assert_eq!(w.bursts.pending(), 1);
            assert_eq!(deliver_until(&mut w, &mut plugin, 0, mode).0, 1);
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 99], "{mode:?}");
            assert_eq!(w.arena.len(), 3, "{mode:?}: delivered exactly once");
        }
    }

    #[test]
    fn a_send_landing_in_a_still_pending_burst_of_its_own_run_is_delivered_once() {
        // Zero latency again. The timer sorts before the burst at the same
        // instant, so the dispatch loop drains both into one run; the
        // timer's send extends the burst while its event already sits in
        // the drained buffer. It must come out once, after the burst's own
        // element — where its own event would have popped.
        for mode in MODES {
            let (mut w, ch) = burst_fixture(0, true);
            w.schedule_plugin(0, 2);
            w.send(ch, wm(1));
            let plugin = SendingPlugin {
                ch,
                sent_on_select: false,
            };
            let mut sim = Sim::new(w, Box::new(plugin));
            match mode {
                Via::Dispatch => run_until_one_at_a_time(&mut sim, 0),
                Via::DispatchRun => sim.run_until(0),
            }
            let w = &sim.world;
            assert_eq!(queued_wms(w, ch), vec![1, 2], "{mode:?}");
            assert_eq!(w.arena.len(), 2, "{mode:?}");
            assert_eq!(w.chans[ch.0 as usize].in_flight, 0, "{mode:?}");
            assert_eq!(w.bursts.pending(), 0, "{mode:?}");
            assert_eq!(w.bursts.high_water(), 1, "{mode:?}: one burst carried both");
        }
    }

    #[test]
    fn burst_pool_plateaus_at_the_pending_high_water_mark() {
        let (w, _) = tiny_job(EngineConfig::test(), 8_000.0, 256, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(1));
        let warm = sim.world.bursts.high_water();
        sim.run_until(secs(10));
        let w = &sim.world;
        assert_eq!(
            w.bursts.high_water(),
            warm,
            "burst slots kept growing past warm-up"
        );
        assert!(w.bursts.pending() <= warm);
        assert!(
            (warm as u64) * 1_000 < w.q.processed(),
            "{warm} slots for {} events: not recycling",
            w.q.processed()
        );
    }
}
