//! PDES cross traffic. In PDES mode (the region-partitioned parallel mode:
//! `resume_latency > 0`, `regions > 1`) a cut channel's elements reach the
//! receiver's region as keyed cross deliveries, and each pop returns its
//! credit to the sender's region as a latency-bearing `CutCredit` event.
//! Cross events carry explicit keys, minted here per region pair, so the
//! sequential reference engine and the thread-per-region replicas order
//! them identically; the replicas stage them in an outbox instead.

use super::*;

/// Region-crossing event keys carry this bit (PDES mode). Cross events are
/// keyed explicitly — `CROSS_BIT | src_region << 48 | per-link counter` —
/// instead of drawing from the queue's global `seq` mint, so the
/// sequential reference engine and the thread-per-region replicas assign
/// the *same* key to the same message. Local mints stay far below this
/// bit, so at one instant inside one region all local events order before
/// all cross arrivals, identically in both engines.
pub const CROSS_BIT: u64 = 1 << 63;

/// How region-crossing deliveries travel in PDES mode
/// (`resume_latency > 0`, `regions > 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossMode {
    /// Push cross events straight into this world's own (multi-region)
    /// event list. This is the sequential PDES reference engine: one
    /// thread, one world, region-major pop order — the digest every
    /// parallel run is checked against.
    Inline,
    /// Stage cross events in [`World::take_outbox`] as plain-data
    /// [`CrossMsg`]s. The thread-per-region executor
    /// ([`crate::parallel`]) drains the outbox after each epoch slice and
    /// ships the messages over SPSC rings to the owning replica.
    Outbox,
}

/// A region-crossing message staged for the parallel executor. Plain data
/// (`Send`): the stream element travels **by value** between per-thread
/// world replicas — arena handles never cross a thread boundary.
#[derive(Debug)]
pub struct CrossMsg {
    /// Destination region.
    pub dst: usize,
    /// Absolute arrival time.
    pub at: SimTime,
    /// Explicit event key (see [`CROSS_BIT`]).
    pub key: u64,
    /// What arrives.
    pub payload: CrossPayload,
}

/// Payload of a [`CrossMsg`].
#[derive(Debug)]
pub enum CrossPayload {
    /// An element coming off the wire of a cut channel.
    Deliver {
        /// Target channel.
        ch: ChannelId,
        /// The element itself (re-parked in the receiving replica's arena).
        elem: StreamElement,
    },
    /// Credits returning to a cut channel's sender region.
    Credit {
        /// The cut channel whose sender gets the credits.
        ch: ChannelId,
        /// Number of credits returned.
        n: u32,
    },
}

impl World {
    /// Select where region-crossing events go (PDES mode only — see
    /// [`CrossMode`]). The thread-per-region executor flips its replicas
    /// to [`CrossMode::Outbox`] before running.
    pub fn set_cross_mode(&mut self, mode: CrossMode) {
        debug_assert!(
            self.pdes() || mode == CrossMode::Inline,
            "cross mode is meaningless outside PDES mode"
        );
        self.cross_mode = mode;
    }

    /// Take the staged outgoing cross messages (see [`CrossMode::Outbox`]).
    /// Returns the internal buffer by value; hand the (drained) vector
    /// back via [`Self::put_outbox_scratch`] to avoid reallocating.
    pub fn take_outbox(&mut self) -> Vec<CrossMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Return a drained outbox buffer so its allocation is reused. Only
    /// installs the buffer when no new messages were staged in between
    /// (the executor takes/puts around a dispatch-free drain, so this is
    /// always the case there).
    pub fn put_outbox_scratch(&mut self, mut scratch: Vec<CrossMsg>) {
        scratch.clear();
        if self.outbox.is_empty() && self.outbox.capacity() < scratch.capacity() {
            self.outbox = scratch;
        }
    }

    /// Apply a cross message shipped from another replica: re-park the
    /// element (or credit notice) in this world under its explicit key.
    /// Counterpart of the [`CrossMode::Outbox`] send side.
    pub fn apply_cross_msg(&mut self, m: CrossMsg) {
        match m.payload {
            CrossPayload::Deliver { ch, elem } => {
                let r = self.arena.insert(elem);
                self.deliver_keyed(m.dst, m.at, m.key, ch, r);
            }
            CrossPayload::Credit { ch, n } => {
                self.q
                    .push_keyed(m.dst, m.at, m.key, Ev::CutCredit { ch, n });
            }
        }
    }

    /// Put one arena-parked element on the wire of a cut channel: mint the
    /// explicit cross key and either push it into this world's own queue
    /// (sequential reference) or stage a by-value [`CrossMsg`] for the
    /// executor (see [`CrossMode`]). Always uncredited — cut channels
    /// account credits on the sender side only.
    pub(super) fn cross_deliver_ref(&mut self, ch: ChannelId, r: RecordRef) {
        let (lat, src, dst) = {
            let c = &self.chans[ch.0 as usize];
            (
                c.latency,
                self.region_map.inst(c.from),
                self.region_map.inst(c.to),
            )
        };
        let at = self.now() + lat;
        let key = self.mint_cross_key(src, dst);
        match self.cross_mode {
            CrossMode::Inline => self.deliver_keyed(dst, at, key, ch, r),
            CrossMode::Outbox => {
                let elem = self.arena.remove(r);
                self.outbox.push(CrossMsg {
                    dst,
                    at,
                    key,
                    payload: CrossPayload::Deliver { ch, elem },
                });
            }
        }
    }

    /// Schedule a cut-channel delivery in region `dst` under its explicit
    /// cross key: an uncredited burst of one that no send can extend (the
    /// key is per element).
    fn deliver_keyed(&mut self, dst: usize, at: SimTime, key: u64, ch: ChannelId, elem: RecordRef) {
        let burst = self.bursts.single(WireElem {
            ch,
            elem,
            credited: false,
        });
        self.q.push_keyed(dst, at, key, Ev::Deliver { burst });
    }

    /// Receiver side of the cut-credit protocol: after popping an element
    /// off a cut channel, notify the *sender's* region that one credit is
    /// free — after `resume_latency`, as a resume notice would take in a
    /// real deployment. This latency is exactly the reverse-edge lookahead
    /// in the region matrix.
    pub(super) fn return_cut_credit(&mut self, ch: ChannelId) {
        let (src, dst) = {
            let c = &self.chans[ch.0 as usize];
            (self.region_map.inst(c.to), self.region_map.inst(c.from))
        };
        let at = self.now() + self.cfg.resume_latency;
        let key = self.mint_cross_key(src, dst);
        match self.cross_mode {
            CrossMode::Inline => {
                self.q.push_keyed(dst, at, key, Ev::CutCredit { ch, n: 1 });
            }
            CrossMode::Outbox => {
                self.outbox.push(CrossMsg {
                    dst,
                    at,
                    key,
                    payload: CrossPayload::Credit { ch, n: 1 },
                });
            }
        }
    }

    /// Mint the next cross-event key for the ordered region pair
    /// `(src, dst)` (see [`CROSS_BIT`]).
    #[inline]
    fn mint_cross_key(&mut self, src: usize, dst: usize) -> u64 {
        let k = self.region_map.k();
        let ctr = &mut self.cross_seq[src * k + dst];
        let key = CROSS_BIT | ((src as u64) << 48) | *ctr;
        *ctr += 1;
        key
    }

    /// Credits returned to a cut channel's sender: grow the sender-owned
    /// pool, then `pump` drains the backlog onto the wire while it lasts.
    pub(super) fn on_cut_credit(&mut self, ch: ChannelId, n: u32) {
        self.chans[ch.0 as usize].cut_credits += n as usize;
        self.pump(ch);
    }
}

#[cfg(test)]
mod tests {
    use simcore::time::secs;

    use super::*;
    use crate::scaling::NoScale;
    use crate::world::tests_support::{tiny_job, twin_jobs};

    #[test]
    fn regions_without_resume_latency_build_the_sequential_engine() {
        // `regions` means PDES partition only: with no resume latency there
        // is no lookahead to run a partition on, so the world is the
        // single-queue engine — same digest, same logical event count, a
        // mid-run rescale included (refused under PDES, fine here) — and
        // the thread-per-region executor runs it on the calling thread.
        let build = |regions: usize| {
            let mut cfg = EngineConfig::test();
            cfg.seed = 0x7E91;
            cfg.regions = regions;
            let (mut w, agg) = tiny_job(cfg, 8_000.0, 256, 2);
            assert!(!w.pdes());
            assert_eq!(w.q.regions(), 1);
            assert_eq!(w.region_map.k(), 1);
            assert!(w.chans.iter().all(|c| !c.cut));
            w.schedule_scale(secs(1), agg, 4);
            Sim::new(w, Box::new(NoScale))
        };
        let run = |regions: usize| {
            let mut sim = build(regions);
            sim.run_until(secs(4));
            let w = &sim.world;
            assert!(w.insts.iter().all(|i| w.region_map.inst(i.id) == 0));
            assert_eq!(
                (0..regions).map(|r| w.q.region_processed(r)).sum::<u64>(),
                w.q.processed()
            );
            (w.metrics_digest(), w.q.processed())
        };
        let reference = run(1);
        assert_eq!(run(2), reference);
        assert_eq!(run(3), reference);
        let par = crate::parallel::run_parallel(|| build(2), secs(4));
        assert_eq!(par.threads, 1, "fallback must stay sequential");
        assert_eq!((par.digest(), par.obs.processed), reference);
        assert_eq!(par.per_region_events, vec![reference.1]);
    }

    #[test]
    fn disjoint_pipelines_have_no_cut() {
        let mut cfg = EngineConfig::test();
        cfg.regions = 2;
        cfg.resume_latency = 100;
        let w = twin_jobs(cfg, 4_000.0, 128, 2, 2);
        assert!(w.pdes());
        assert_eq!(
            w.region_map.cut_channels(),
            0,
            "disjoint pipelines must not be split across a cut"
        );
    }

    #[test]
    fn region_sync_stats_account_conservative_progress() {
        let mut cfg = EngineConfig::test();
        cfg.regions = 2;
        cfg.resume_latency = 100;
        let (w, _) = tiny_job(cfg, 4_000.0, 128, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(2));
        let stats = sim.world.q.region_sync_stats();
        assert!(stats.runs > 0, "no runs were accounted");
        // The cut's lookahead (ctrl/resume latency) is far below the 10 ms
        // source-tick gap, so some pops must have exceeded a region's
        // pure-lookahead bound.
        assert!(
            stats.min_rule_grants > 0,
            "a cut pipeline cannot advance on lookahead alone"
        );
        // Both regions made progress.
        assert!(sim.world.q.region_clock(0) > 0);
        assert!(sim.world.q.region_clock(1) > 0);
    }
}
