//! Event dispatch and the driver: `dispatch` is the plain one-event
//! handler, `dispatch_run` walks a whole same-instant run with fused
//! deliveries, and [`Sim`] pairs a world with the scaling plugin and runs
//! the engine's one dispatch loop.

use super::*;

impl World {
    /// Handle one event. The driver ([`Sim`]) owns the plugin.
    pub fn dispatch(&mut self, plugin: &mut dyn ScalePlugin, ev: Ev) {
        match ev {
            Ev::SourceTick { inst } => self.on_source_tick(inst),
            Ev::Deliver { burst } => {
                let mut elems = self.take_burst(burst);
                for WireElem { ch, elem, credited } in elems.drain(..) {
                    let c = &mut self.chans[ch.0 as usize];
                    if credited {
                        // A credited delivery without a matching in-flight
                        // element is a credit-accounting bug — surface it
                        // loudly in debug builds instead of silently
                        // clamping.
                        debug_assert!(
                            c.in_flight > 0,
                            "credited Deliver on {:?} with in_flight == 0",
                            c.id
                        );
                        c.in_flight = c.in_flight.saturating_sub(1);
                    }
                    c.queue.push_back(elem);
                    let to = c.to;
                    self.try_start(plugin, to);
                }
                self.bursts.give_back(burst, elems);
            }
            Ev::Priority { to, slot } => {
                let msg = self.ctrl.take_priority(slot);
                plugin.on_priority(self, to, msg);
                self.try_start(plugin, to);
            }
            Ev::ProcDone { inst, gen } => self.on_proc_done(plugin, inst, gen),
            Ev::LinkSendDone { from } => self.on_link_done(from),
            Ev::Control { slot } => {
                let cmd = self.ctrl.take_control(slot);
                self.on_control(plugin, cmd)
            }
            Ev::CutCredit { ch, n } => self.on_cut_credit(ch, n),
            Ev::Sample => self.on_sample(),
            Ev::Wake { inst } => self.try_start(plugin, inst),
        }
    }

    /// Take a burst's elements for dispatch (closing it to further sends)
    /// and count all but the first as processed in the burst's region: the
    /// pop counted the event, the logical count is per element.
    // checker:hot-path
    #[inline]
    fn take_burst(&mut self, burst: u32) -> Vec<WireElem> {
        let elems = self.bursts.take(burst);
        if elems.len() > 1 {
            let reg = self.region_map.inst(self.chans[elems[0].ch.0 as usize].to);
            self.q.note_coalesced(reg, elems.len() as u64 - 1);
        }
        elems
    }

    /// Dispatch a whole same-instant run (drained by `pop_run_at_most`).
    ///
    /// **Bursts.** A `Deliver` event stands for a whole send burst (the
    /// contract, with its four extension conditions, is on
    /// [`Ev::Deliver`]). Its elements are taken out of the
    /// [`BurstStore`]
    /// when the event's turn comes — not when the run was drained — so a
    /// send made by an earlier event of this very run may still have
    /// extended it; once taken, a burst is closed and any further send
    /// opens a new one, which pops as a later run. The elements are then
    /// walked one at a time, exactly as if each had been an event of its
    /// own: scheduled that way they would have carried consecutive `seq`s
    /// at this instant in this region, nothing could have sorted between
    /// two of them (an explicit-key `push_keyed` mints no `seq`, and
    /// `CROSS_BIT` keys sort after every minted one), so the order of
    /// every side effect is unchanged. `dispatch` walks the same elements
    /// with the plain per-element body; both count them as processed.
    ///
    /// **Fusing.** Across the elements of a burst and across consecutive
    /// `Deliver` events: while deliveries target the same channel and the
    /// receiver provably cannot start work, the per-element `try_start` is
    /// skipped and the credit decrement is batched into one channel borrow
    /// per (channel, streak).
    ///
    /// **Exactness of the fusing.** Single-pop semantics per delivery are
    /// `in_flight -= 1; queue.push_back; try_start(to)`. `try_start`
    /// returns without any side effect when the receiver is halted, busy,
    /// not yet operational, or output-blocked (for a source,
    /// `drain_source` breaks immediately on `blocked_out`) — and none of
    /// those guard fields can change while we only push handles and count
    /// credits, so skipping those calls is observationally identical. The
    /// moment a delivery's `try_start` is *not* provably a no-op, the
    /// deferred credits are flushed first — `try_start → build_run →
    /// chan_pop → pump` reads `has_credit()`, which must see the exact
    /// sequential `in_flight`. Deliveries are still pushed strictly one
    /// at a time before their own `try_start` (batching the pushes would
    /// let the first quantum see later records). The tests that drive the
    /// one-event-at-a-time loop by hand against `Sim::dispatch_until`
    /// enforce all of this.
    // checker:hot-path
    pub fn dispatch_run(&mut self, plugin: &mut dyn ScalePlugin, buf: &mut Vec<Ev>) {
        // The whole run is one instant.
        let now = self.q.now();
        // Deferred credit decrements for the current Deliver streak.
        let mut cur: Option<(ChannelId, usize)> = None;
        macro_rules! flush {
            () => {
                if let Some((ch, credits)) = cur.take() {
                    if credits > 0 {
                        let c = &mut self.chans[ch.0 as usize];
                        debug_assert!(
                            c.in_flight >= credits,
                            "batched credit underflow on {:?}",
                            c.id
                        );
                        c.in_flight = c.in_flight.saturating_sub(credits);
                    }
                }
            };
        }
        for ev in buf.drain(..) {
            if let Ev::Deliver { burst } = ev {
                let mut elems = self.take_burst(burst);
                for WireElem { ch, elem, credited } in elems.drain(..) {
                    match &mut cur {
                        Some((c, credits)) if *c == ch => *credits += credited as usize,
                        _ => {
                            flush!();
                            cur = Some((ch, credited as usize));
                        }
                    }
                    let to = self.chans[ch.0 as usize].to;
                    let noop = {
                        let i = &self.insts[to.0 as usize];
                        i.halted || i.busy || now < i.operational_at || i.blocked_out
                    };
                    self.chans[ch.0 as usize].queue.push_back(elem);
                    if !noop {
                        flush!();
                        self.try_start(plugin, to);
                    }
                }
                self.bursts.give_back(burst, elems);
            } else {
                // Any other event may observe channel credit (wakes,
                // control, proc-done all can reach `pump`): settle first.
                flush!();
                self.dispatch(plugin, ev);
            }
        }
        flush!();
    }
}

/// The simulation driver: a world plus the rescaling mechanism under test.
pub struct Sim {
    /// The world.
    pub world: World,
    /// The mechanism.
    pub plugin: Box<dyn ScalePlugin>,
    /// Scratch buffer for the dispatch loop. Owned by the driver — the
    /// future-event list only ever borrows it per `pop_run_at_most` call —
    /// and reused across runs, so the dispatch loop allocates nothing in
    /// steady state (the buffer grows to the largest same-instant run and
    /// stays there).
    batch: Vec<Ev>,
}

impl Sim {
    /// Pair a world with a mechanism.
    pub fn new(world: World, plugin: Box<dyn ScalePlugin>) -> Self {
        Self {
            world,
            plugin,
            batch: Vec::new(),
        }
    }

    /// Run until simulated time `t`. On return the clock is *at* `t`: the
    /// simulation has observed that nothing else happens in `(last event,
    /// t]`, so anything the caller schedules relative to `now()` afterwards
    /// is relative to the horizon, not to whenever the queue happened to
    /// drain (scheduling against a stale clock used to land in the past
    /// and get past-clamped).
    pub fn run_until(&mut self, t: SimTime) {
        self.dispatch_until(t);
        self.world.q.advance_clock_to(t);
    }

    /// Dispatch every pending event with `at <= t` *without* advancing the
    /// clock to `t` afterwards. The thread-per-region executor drives each
    /// epoch slice through this (the epoch cap is not the horizon — the
    /// clock must stay on the last dispatched event so the next slice's
    /// cross arrivals are still in the future); [`Self::run_until`] is
    /// this plus the final clock advance.
    ///
    /// This is the engine's one dispatch loop: drain each same-instant run
    /// with a single `pop_run_at_most` (one clock update and one scheduler
    /// cursor walk per run) and hand it to [`World::dispatch_run`]. Its
    /// reference semantics are the one-event-at-a-time loop
    /// `while let Some((_, ev)) = q.pop_at_most(t) { world.dispatch(plugin,
    /// ev) }` — both halves are public, and the tests drive exactly that
    /// loop by hand and require identical digests.
    pub fn dispatch_until(&mut self, t: SimTime) {
        // Hoisted out of the loop: one plugin re-borrow per call.
        let plugin = &mut *self.plugin;
        let buf = &mut self.batch;
        // Events scheduled while a run is being dispatched (at the run's
        // own instant or later) are never part of the drained buffer: they
        // pop as a later run, exactly where one-at-a-time popping would
        // put them, because their sequence numbers are larger than
        // everything already drained.
        while self.world.q.pop_run_at_most(t, buf).is_some() {
            self.world.dispatch_run(plugin, buf);
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
    fn run_until_leaves_the_clock_at_the_horizon() {
        // Regression: `run_until(t)` used to leave the clock at the last
        // dispatched event. With a 10 ms source-tick granularity, an
        // off-grid horizon almost always falls in an event gap, so
        // `now()` came back short of `t` — and anything the caller then
        // scheduled relative to `now()` (a follow-up scale, a plugin
        // timer) landed before the horizon it had just run to, or in the
        // past outright once the queue had drained. The driver now
        // advances the clock to the exhausted horizon.
        let horizon = secs(1) + 4_321; // deliberately off every event grid
        let (w, agg) = tiny_job(EngineConfig::test(), 2_000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(horizon);
        assert_eq!(
            sim.world.now(),
            horizon,
            "run_until must advance the clock to the horizon it exhausted"
        );
        // The original symptom: relative scheduling after the call is now
        // anchored at the horizon.
        let delay = 2_500;
        sim.world.schedule_scale(sim.world.now() + delay, agg, 3);
        sim.run_until(horizon + delay);
        assert!(
            sim.world.scale.in_progress || sim.world.scale.epoch > 0,
            "scale scheduled relative to now() after run_until never fired"
        );
        // Repeated runs to the same horizon are idempotent on the clock.
        sim.run_until(horizon + delay);
        assert_eq!(sim.world.now(), horizon + delay);
    }

    #[test]
    fn dispatch_loop_matches_one_at_a_time_popping() {
        // Draining a same-instant run in one scheduler call (and fusing its
        // deliveries) must not change the event interleaving — on the
        // sequential engine with a mid-run scale (boxed priority/control
        // events in the mix), and on the sequential PDES engine.
        let digest = |regions: usize, resume_latency: SimTime, one_at_a_time: bool| {
            let mut cfg = EngineConfig::test();
            cfg.seed = 0xBA7C;
            cfg.regions = regions;
            cfg.resume_latency = resume_latency;
            let (mut w, agg) = tiny_job(cfg, 8_000.0, 256, 2);
            if !w.pdes() {
                w.schedule_scale(secs(1), agg, 4);
            }
            let mut sim = Sim::new(w, Box::new(NoScale));
            if one_at_a_time {
                run_until_one_at_a_time(&mut sim, secs(4));
            } else {
                sim.run_until(secs(4));
            }
            (sim.world.metrics_digest(), sim.world.q.processed())
        };
        for (regions, rl) in [(1, 0), (2, 100), (3, 100)] {
            assert_eq!(
                digest(regions, rl, true),
                digest(regions, rl, false),
                "regions={regions} resume_latency={rl}: the dispatch loop changed \
                 the event interleaving"
            );
        }
    }
}
