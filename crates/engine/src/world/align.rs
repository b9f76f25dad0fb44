//! Alignment: event-time watermarks (an instance's watermark is the min
//! over its input channels; an advance fires the operator and is forwarded
//! downstream), aligned checkpoint barriers (block each channel whose
//! barrier arrived, snapshot once all arrived) and the channel blocking
//! both of them and coupled scaling barriers use.

use super::*;

impl World {
    /// Block consumption from a channel at its receiver.
    pub fn block_channel(&mut self, ch: ChannelId) {
        let to = self.chans[ch.0 as usize].to;
        self.insts[to.0 as usize].blocked_channels.insert(ch);
    }

    /// Unblock a channel and wake the receiver.
    pub fn unblock_channel(&mut self, ch: ChannelId) {
        let to = self.chans[ch.0 as usize].to;
        self.insts[to.0 as usize].blocked_channels.remove(&ch);
        self.wake(to);
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

    pub(super) fn on_ckpt_barrier(&mut self, inst: InstId, ch: ChannelId, id: u64) {
        let role = self.op_of(inst).role;
        let (aligned, snapshot_bytes) = {
            let i = &mut self.insts[inst.0 as usize];
            if i.ckpt.is_none() {
                i.ckpt = Some(CkptAlign {
                    id,
                    arrived: Default::default(),
                });
            }
            let all = i.in_channels.len();
            let ck = i.ckpt.as_mut().expect("just set");
            if ck.id == id {
                ck.arrived.insert(ch);
            }
            i.blocked_channels.insert(ch);
            if ck.arrived.len() >= all {
                let bytes = i.state.total_bytes();
                (true, bytes)
            } else {
                (false, 0)
            }
        };
        if aligned {
            {
                let i = &mut self.insts[inst.0 as usize];
                i.ckpt = None;
                // `blocked_channels` only ever holds this instance's input
                // channels, so dropping them all is exactly the old
                // per-channel removal.
                i.blocked_channels.clear();
            }
            // Synchronous snapshot part.
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
        // Halt source 2: its watermarks stop flowing.
        let s2i = w.ops[s2.0 as usize].instances[0];
        w.insts[s2i.0 as usize].halted = true;
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let aggi = sim.world.ops[agg.0 as usize].instances[0];
        assert_eq!(
            sim.world.insts[aggi.0 as usize].watermark, 0,
            "watermark advanced past a silent channel"
        );
        // Un-halt: the watermark catches up.
        sim.world.insts[s2i.0 as usize].halted = false;
        sim.world.wake(s2i);
        sim.run_until(secs(6));
        assert!(sim.world.insts[aggi.0 as usize].watermark > secs(3));
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
