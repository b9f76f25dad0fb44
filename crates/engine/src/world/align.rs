//! Alignment: event-time watermarks (an instance's watermark is the min
//! over its input channels; an advance fires the operator and is forwarded
//! downstream) and barrier alignment, one primitive ([`World::align`]) for
//! checkpoint barriers (paper §IV-C, after Carbone et al. 2015) and coupled
//! scaling barriers (§III-A, Fig. 1a and 7a) alike:
//!
//! * a barrier arriving on a channel takes a hold on it
//!   ([`Channel::holds`]); input selection skips a held channel;
//! * arrivals are recorded per `(instance, barrier)` in one small table of
//!   alignments in progress;
//! * once the caller's expected count has arrived, the alignment leaves the
//!   table, releases its holds in arrival order and returns the channels
//!   that are now free.
//!
//! A channel frees only when every alignment holding it has completed, so
//! a checkpoint never frees a channel a coupled scale still holds, nor the
//! reverse. A checkpoint wakes its instance once, after its snapshot and
//! forward; a coupled barrier wakes it once per channel freed.

use super::*;

/// What a barrier aligns: a checkpoint, or one subscale of a coupled scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierKey {
    Checkpoint(u64),
    Subscale(SubscaleId),
}

/// An alignment in progress at an instance: the channels its barrier
/// arrived on, in arrival order, each holding its channel.
pub(super) type Alignment = (InstId, BarrierKey, Vec<ChannelId>);

impl World {
    /// The `key` barrier arrived at `inst` on `ch`, which it holds (once
    /// per alignment). When `expected` channels have arrived, release their
    /// holds in arrival order and return the channels now free; until then,
    /// `None`.
    pub fn align(
        &mut self,
        inst: InstId,
        key: BarrierKey,
        ch: ChannelId,
        expected: usize,
    ) -> Option<Vec<ChannelId>> {
        let at = self
            .aligning
            .iter()
            .position(|a| (a.0, a.1) == (inst, key))
            .unwrap_or_else(|| {
                self.aligning.push((inst, key, Vec::new()));
                self.aligning.len() - 1
            });
        let arrived = &mut self.aligning[at].2;
        if !arrived.contains(&ch) {
            arrived.push(ch);
            self.chans[ch.0 as usize].holds += 1;
        }
        if arrived.len() < expected {
            return None;
        }
        let mut freed = self.aligning.swap_remove(at).2;
        freed.retain(|c| {
            let holds = &mut self.chans[c.0 as usize].holds;
            *holds -= 1;
            *holds == 0
        });
        Some(freed)
    }

    pub(super) fn on_watermark(&mut self, inst: InstId, ch: ChannelId, wm: SimTime) {
        {
            let c = &mut self.chans[ch.0 as usize];
            c.rx_watermark = c.rx_watermark.max(wm);
        }
        // The operator watermark is the min across input channels; the
        // per-channel value lives on the channel itself (plain indexed
        // reads, no map lookups on this per-watermark path).
        let mut min = SimTime::MAX;
        {
            let i = &self.insts[inst.0 as usize];
            for &ic in &i.in_channels {
                min = min.min(self.chans[ic.0 as usize].rx_watermark);
            }
            if i.in_channels.is_empty() {
                min = 0;
            }
        }
        let advanced = {
            let i = &mut self.insts[inst.0 as usize];
            if min > i.watermark {
                i.watermark = min;
                true
            } else {
                false
            }
        };
        // Sinks are terminal: nothing to fire or forward.
        if !advanced || self.op_of(inst).role != OpRole::Transform {
            return;
        }
        let now = self.now();
        let cost = self.invoke(inst, |logic, i, out| {
            let mut ctx = WmCtx {
                now,
                watermark: i.watermark,
                state: &mut i.state,
                out,
            };
            logic.on_watermark(&mut ctx);
            logic.watermark_cost()
        });
        // Charge firing cost as a busy period.
        if cost > 0 {
            self.start_busy(inst, cost);
        }
        let wm_out = self.insts[inst.0 as usize].watermark;
        self.broadcast(inst, StreamElement::Watermark(wm_out));
    }

    /// Once a checkpoint barrier has arrived on every input channel: the
    /// synchronous snapshot, the forward (a sink records the checkpoint)
    /// and one wake.
    pub(super) fn on_ckpt_barrier(&mut self, inst: InstId, ch: ChannelId, id: u64) {
        let all = self.insts[inst.0 as usize].in_channels.len();
        let Some(_) = self.align(inst, BarrierKey::Checkpoint(id), ch, all) else {
            return;
        };
        let role = self.op_of(inst).role;
        // Synchronous snapshot part.
        let snapshot_bytes = self.insts[inst.0 as usize].state.total_bytes();
        let cost = (snapshot_bytes / 1_000_000) * self.cfg.snapshot_us_per_mb;
        if cost > 0 && role == OpRole::Transform {
            self.start_busy(inst, cost);
        }
        if role == OpRole::Sink {
            let now = self.now();
            self.metrics.checkpoints.push(now, id as f64);
            let reg = self.reg(inst) as u8;
            self.bus
                .publish(now, reg, BusEventKind::CheckpointDone { id });
        } else {
            self.broadcast(inst, StreamElement::CheckpointBarrier(id));
        }
        self.wake(inst);
    }
}

#[cfg(test)]
mod tests {
    use simcore::time::secs;

    use super::*;
    use crate::graph::JobBuilder;
    use crate::operator::KeyedAgg;
    use crate::scaling::NoScale;
    use crate::world::tests_support::tiny_job;

    #[test]
    fn watermarks_advance_at_operators() {
        let (w, agg) = tiny_job(EngineConfig::test(), 500.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        for &i in &sim.world.ops[agg.0 as usize].instances {
            assert!(
                sim.world.insts[i.0 as usize].watermark > secs(1),
                "watermark stalled at {}",
                sim.world.insts[i.0 as usize].watermark
            );
        }
    }

    #[test]
    fn watermark_is_min_across_channels() {
        // An instance fed by two sources only advances to the slower one.
        struct SlowWmGen;
        impl crate::instance::SourceGen for SlowWmGen {
            fn rate(&self, _t: SimTime) -> f64 {
                100.0
            }
            fn next(&mut self, _t: SimTime) -> (u64, i64) {
                (1, 1)
            }
        }
        let mut b = JobBuilder::new(EngineConfig::test());
        let s1 = b.source("s1", 1, Box::new(|_| Box::new(SlowWmGen)));
        let s2 = b.source("s2", 1, Box::new(|_| Box::new(SlowWmGen)));
        let agg = b.operator(
            "agg",
            1,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 10,
                    bytes_per_key: 0,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink("sink", 1);
        b.connect(s1, agg, EdgeKind::Keyed);
        b.connect(s2, agg, EdgeKind::Keyed);
        b.connect(agg, sink, EdgeKind::Rebalance);
        let mut w = b.build();
        // Hold source 2's channel: its watermarks stop arriving.
        let ch = w.insts[w.ops[s2.0 as usize].instances[0].0 as usize].out_channels[0];
        w.chans[ch.0 as usize].holds = 1;
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let aggi = sim.world.ops[agg.0 as usize].instances[0];
        assert_eq!(
            sim.world.insts[aggi.0 as usize].watermark, 0,
            "watermark advanced past a silent channel"
        );
        // Release it: the watermark catches up.
        sim.world.chans[ch.0 as usize].holds = 0;
        sim.world.wake(aggi);
        sim.run_until(secs(6));
        assert!(sim.world.insts[aggi.0 as usize].watermark > secs(3));
    }

    /// A tiny job's sink, its input channels (one per aggregator) and an
    /// empty event queue.
    fn quiet_sink(par: usize) -> (World, InstId, Vec<ChannelId>) {
        let (mut w, _) = tiny_job(EngineConfig::test(), 500.0, 16, par);
        while w.q.pop().is_some() {}
        let sink = w.insts.last().expect("a sink").id;
        let chans = w.insts[sink.0 as usize].in_channels.clone();
        assert_eq!(chans.len(), par);
        (w, sink, chans)
    }

    fn holds(w: &World, chans: &[ChannelId]) -> Vec<u32> {
        chans.iter().map(|c| w.chans[c.0 as usize].holds).collect()
    }

    #[test]
    fn a_channel_two_alignments_hold_frees_when_the_second_completes() {
        let (mut w, sink, c) = quiet_sink(2);
        let (ck, sub) = (
            BarrierKey::Checkpoint(1),
            BarrierKey::Subscale(SubscaleId(0)),
        );
        assert_eq!(w.align(sink, ck, c[0], 2), None);
        assert_eq!(w.align(sink, sub, c[0], 2), None);
        // A repeated arrival neither counts nor holds again.
        assert_eq!(w.align(sink, sub, c[0], 2), None);
        assert_eq!(holds(&w, &c), [2, 0]);
        // The checkpoint completes; the subscale still holds `c[0]`.
        assert_eq!(w.align(sink, ck, c[1], 2), Some(vec![c[1]]));
        assert_eq!(holds(&w, &c), [1, 0]);
        assert_eq!(w.align(sink, sub, c[1], 2), Some(vec![c[0], c[1]]));
        assert_eq!(holds(&w, &c), [0, 0]);
        assert!(w.aligning.is_empty());
    }

    #[test]
    fn releases_come_back_in_arrival_order() {
        let (mut w, sink, c) = quiet_sink(3);
        let key = BarrierKey::Subscale(SubscaleId(4));
        assert_eq!(w.align(sink, key, c[2], 3), None);
        assert_eq!(w.align(sink, key, c[0], 3), None);
        assert_eq!(w.align(sink, key, c[1], 3), Some(vec![c[2], c[0], c[1]]));
        assert_eq!(holds(&w, &c), [0, 0, 0]);
        assert!(w.aligning.is_empty());
    }

    #[test]
    fn a_checkpoint_wakes_its_instance_once() {
        let (mut w, sink, c) = quiet_sink(3);
        for &ch in &c[..2] {
            w.on_ckpt_barrier(sink, ch, 7);
            assert!(w.q.is_empty(), "a partial alignment scheduled work");
        }
        assert_eq!(holds(&w, &c), [1, 1, 0]);
        w.on_ckpt_barrier(sink, c[2], 7);
        assert_eq!(holds(&w, &c), [0, 0, 0]);
        assert_eq!(w.metrics.checkpoints.len(), 1);
        let mut wakes = 0;
        while let Some((_, ev)) = w.q.pop() {
            assert!(matches!(ev, Ev::Wake { inst } if inst == sink));
            wakes += 1;
        }
        assert_eq!(wakes, 1);
    }

    #[test]
    fn checkpoints_complete_end_to_end() {
        let mut cfg = EngineConfig::test();
        cfg.checkpoint_interval = Some(simcore::time::ms(500));
        let (w, _) = tiny_job(cfg, 500.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(4));
        assert!(
            sim.world.metrics.checkpoints.len() >= 3,
            "checkpoints completed: {}",
            sim.world.metrics.checkpoints.len()
        );
    }
}
