//! The simulation event vocabulary.

use simcore::SimTime;

use crate::ids::{ChannelId, InstId, KeyGroup, SubscaleId};
use crate::record::{Record, RecordRef, ScaleSignal};
use crate::scaling::ScalePlan;
use crate::state::StateUnit;

/// A priority message: delivered directly to the destination instance's
/// handler, bypassing channel queues (Flink priority events). Trigger
/// barriers, state chunks, fetch requests and re-routed items travel this
/// way.
#[derive(Debug)]
pub enum PriorityMsg {
    /// A scaling signal delivered out-of-band (DRRS trigger barriers).
    Signal(ScaleSignal),
    /// A migrated state unit arriving at its destination.
    Chunk {
        /// The state itself.
        unit: Box<StateUnit>,
        /// Which subscale (or batch) it belongs to.
        subscale: SubscaleId,
        /// The instance it came from.
        from: InstId,
    },
    /// Re-routed records (epoch `Ep`) forwarded by the old instance.
    ReroutedRecords {
        /// Origin (old) instance.
        from: InstId,
        /// The records, in their original per-channel order.
        records: Vec<Record>,
    },
    /// A re-routed confirm barrier (implicit alignment).
    ReroutedConfirm {
        /// Origin (old) instance.
        from: InstId,
        /// The original confirm signal.
        signal: ScaleSignal,
    },
    /// Meces fetch-on-demand request: "send me this state unit".
    Fetch {
        /// Key-group requested.
        kg: KeyGroup,
        /// Sub-group requested.
        sub: u8,
        /// Who wants it.
        requester: InstId,
    },
}

/// Out-of-band control commands (coordinator RPCs, plugin timers).
#[derive(Debug)]
pub enum ControlMsg {
    /// The harness requested a scaling operation (paper: user-request-based
    /// trigger in the Scale Planner).
    StartScale(ScalePlan),
    /// New containers finished initializing (after `deploy_delay`).
    DeployDone {
        /// Scale epoch this deployment belongs to.
        epoch: u32,
    },
    /// A mechanism-defined timer or command; the payload is plugin-private.
    Plugin(u64),
    /// Periodic checkpoint coordinator tick: injects barriers at sources.
    CheckpointTick,
}

/// The recycled slot table under each half of [`ControlStore`] (its docs
/// state the one-shot contract).
#[derive(Debug)]
struct Slots<T> {
    cells: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Self {
            cells: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Steady state pops a recycled index off the free list — the grow
    /// path only runs while the live-slot high-water mark is still rising.
    // checker:hot-path
    #[inline]
    fn put(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.cells[slot as usize] = Some(v);
                slot
            }
            None => {
                self.cells.push(Some(v));
                (self.cells.len() - 1) as u32
            }
        }
    }

    // checker:hot-path
    #[inline]
    fn take(&mut self, slot: u32) -> T {
        let v = self.cells[slot as usize]
            .take()
            .expect("slot taken twice or never filled");
        self.free.push(slot);
        v
    }

    /// Total slots ever grown.
    fn len(&self) -> usize {
        self.cells.len()
    }

    /// Currently occupied slots.
    fn live(&self) -> usize {
        self.cells.len() - self.free.len()
    }
}

/// A slot-allocating side-channel for the rare, large control-plane
/// payloads: `PriorityMsg` (with its boxed state chunks and re-routed
/// record vectors) and `ControlMsg` (with its embedded `ScalePlan`).
///
/// The queue-borne [`Ev::Priority`] / [`Ev::Control`] events carry only a
/// `u32` slot handle into this store; the payload parks here until the
/// dispatcher consumes the event and `take`s it back out. Compared to the
/// old `Box<PriorityMsg>` / `Box<ControlMsg>` fields this deletes the
/// per-control-event heap allocation in steady state (`events::tests` and
/// the engine-level recycling test pin the slab high-water mark). It also
/// keeps `Ev: Copy`-sized and shrinks the hot dispatch match — the control
/// arms no longer touch a pointer the branch predictor has to chase.
///
/// Slots are strictly one-shot: `put` hands out a slot, `take` consumes
/// it and recycles the index. Taking an empty slot is a logic error and
/// panics.
#[derive(Debug, Default)]
pub struct ControlStore {
    priority: Slots<PriorityMsg>,
    control: Slots<ControlMsg>,
}

impl ControlStore {
    /// An empty store (no slabs allocated until the first control event).
    pub fn new() -> Self {
        Self::default()
    }

    /// Park a priority message; returns the slot for [`Ev::Priority`].
    // checker:hot-path
    pub fn put_priority(&mut self, msg: PriorityMsg) -> u32 {
        self.priority.put(msg)
    }

    /// Consume a priority slot (dispatch time) and recycle its index.
    // checker:hot-path
    pub fn take_priority(&mut self, slot: u32) -> PriorityMsg {
        self.priority.take(slot)
    }

    /// Park a control command; returns the slot for [`Ev::Control`].
    // checker:hot-path
    pub fn put_control(&mut self, cmd: ControlMsg) -> u32 {
        self.control.put(cmd)
    }

    /// Consume a control slot (dispatch time) and recycle its index.
    // checker:hot-path
    pub fn take_control(&mut self, slot: u32) -> ControlMsg {
        self.control.take(slot)
    }

    /// Slab high-water mark (total slots ever grown), priority + control.
    /// A run with thousands of control events but a small high-water mark
    /// is the recycling proof.
    pub fn high_water(&self) -> usize {
        self.priority.len() + self.control.len()
    }

    /// Currently occupied slots (parked, not yet dispatched).
    pub fn live(&self) -> usize {
        self.priority.live() + self.control.live()
    }
}

/// One element on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireElem {
    /// Target channel.
    pub ch: ChannelId,
    /// Handle of the element in the record arena: the payload stays parked
    /// there, so a burst holds handles, not ~56-byte stream elements.
    pub elem: RecordRef,
    /// Did this element consume a credit when it was put on the wire?
    /// Credited deliveries must decrement `in_flight`; uncredited ones
    /// (priority barriers, cut-channel deliveries) bypass credit
    /// accounting entirely. The two may share a burst.
    pub credited: bool,
}

/// The burst the next send may still extend (conditions 1–3 of the
/// contract on [`Ev::Deliver`]; condition 4 is this value being dropped
/// when its slot is taken).
#[derive(Clone, Copy, Debug)]
struct OpenBurst {
    slot: u32,
    region: usize,
    at: SimTime,
    seq: u64,
}

/// Slot-recycled buffers for the elements of pending [`Ev::Deliver`]
/// bursts — the [`ControlStore`] pattern with `Vec` payloads: a slot is
/// filled by the send side, taken whole by the dispatcher and handed back
/// empty, so after warm-up neither the slot table nor the buffers
/// allocate. The table plateaus at the high-water mark of *pending*
/// bursts.
#[derive(Debug, Default)]
pub struct BurstStore {
    bufs: Vec<Vec<WireElem>>,
    free: Vec<u32>,
    open_burst: Option<OpenBurst>,
}

impl BurstStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `e` to the open burst if it may still be extended by a send
    /// arriving at `at` in `region` while the queue's next `seq` is
    /// `next_seq`. Returns whether it was.
    // checker:hot-path
    #[inline]
    pub fn extend_open(&mut self, at: SimTime, region: usize, next_seq: u64, e: WireElem) -> bool {
        match self.open_burst {
            Some(o) if o.at == at && o.region == region && o.seq + 1 == next_seq => {
                self.bufs[o.slot as usize].push(e);
                true
            }
            _ => false,
        }
    }

    /// Start a burst with `e` and leave it open for extension; `seq` is the
    /// sequence number its `Ev::Deliver` is about to be minted. Returns the
    /// slot for that event.
    // checker:hot-path
    #[inline]
    pub fn open(&mut self, at: SimTime, region: usize, seq: u64, e: WireElem) -> u32 {
        let slot = self.single(e);
        self.open_burst = Some(OpenBurst {
            slot,
            region,
            at,
            seq,
        });
        slot
    }

    /// Park a one-element burst no later send can extend (explicit-key
    /// cross deliveries). Returns the slot for its `Ev::Deliver`.
    // checker:hot-path
    #[inline]
    pub fn single(&mut self, e: WireElem) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => self.grow(),
        };
        self.bufs[slot as usize].push(e);
        slot
    }

    /// Pool growth, out of line: runs only while the high-water mark of
    /// pending bursts is still rising.
    #[cold]
    fn grow(&mut self) -> u32 {
        self.bufs.push(Vec::new());
        (self.bufs.len() - 1) as u32
    }

    /// Take a burst for dispatch, closing it to further sends. The slot
    /// stays reserved until [`give_back`](Self::give_back) returns the
    /// drained buffer.
    // checker:hot-path
    #[inline]
    pub fn take(&mut self, slot: u32) -> Vec<WireElem> {
        if self.open_burst.is_some_and(|o| o.slot == slot) {
            self.open_burst = None;
        }
        let buf = std::mem::take(&mut self.bufs[slot as usize]);
        assert!(!buf.is_empty(), "burst slot taken twice or never filled");
        buf
    }

    /// Return a taken burst's buffer (drained; its capacity is kept) and
    /// recycle the slot.
    // checker:hot-path
    #[inline]
    pub fn give_back(&mut self, slot: u32, mut buf: Vec<WireElem>) {
        buf.clear();
        self.bufs[slot as usize] = buf;
        self.free.push(slot);
    }

    /// Slot-table high-water mark (total slots ever grown).
    pub fn high_water(&self) -> usize {
        self.bufs.len()
    }

    /// Bursts parked or being dispatched right now.
    pub fn pending(&self) -> usize {
        self.bufs.len() - self.free.len()
    }
}

/// Every event the simulator can dispatch.
///
/// # Size discipline
///
/// `Ev` is what every scheduler heap sift and run-buffer copy moves,
/// millions of times per run — its size is a hot-path constant. The
/// dominant traffic (`Deliver`, `ProcDone`, `SourceTick`, `Wake`)
/// carries at most 16 bytes inline; delivery bursts park in the
/// world's [`BurstStore`] and the rare, large control-plane payloads in
/// its [`ControlStore`] side-channel, and the events carry only `u32`
/// slot handles, so they can't inflate the enum (and cost no per-event
/// allocation). `events::ev_fits_in_16_bytes` pins
/// `size_of::<Ev>() <= 16`.
#[derive(Debug)]
pub enum Ev {
    /// Rate-controlled generation tick for a source instance.
    SourceTick {
        /// The source instance.
        inst: InstId,
    },
    /// A **burst** of elements coming off the wire into their receiver
    /// queues: every element parked in one [`BurstStore`] slot, delivered
    /// in the order they were sent. The scheduler carries one entry per
    /// burst, not one per element.
    ///
    /// # The burst contract
    ///
    /// A send appends to the open burst instead of scheduling an event of
    /// its own iff all four hold:
    ///
    /// 1. same arrival instant (`now + latency`),
    /// 2. same receiver region tag,
    /// 3. the queue's next `seq` is still the one right after the burst's
    ///    own — no event was minted since the burst was scheduled,
    /// 4. the burst has not been taken for dispatch.
    ///
    /// Otherwise it opens a new burst. Exactness: scheduled one event per
    /// element, the elements of a burst would have carried consecutive
    /// `seq`s at one instant in one region, so nothing could ever sort
    /// between two of them; the dispatcher walks the burst element by
    /// element, so every side effect happens in the order the per-element
    /// events had. An explicit-key `push_keyed` between two sends mints
    /// nothing and is harmless: cross keys carry `CROSS_BIT` and sort after
    /// every minted `seq` of their instant, with or without bursts.
    /// Condition 4 is what keeps a zero-latency send made while a burst is
    /// being walked out of that walk — its event would have popped after
    /// the rest of the current run. The future-event list still counts
    /// *elements* as processed (`FutureEventList::note_coalesced`).
    Deliver {
        /// Slot of the burst's elements in the [`BurstStore`].
        burst: u32,
    },
    /// An out-of-band message arriving at an instance. The payload parks
    /// in the world's [`ControlStore`] (priority messages are
    /// control-plane-rare and far larger than the hot variants); the
    /// event carries only the slot handle.
    Priority {
        /// Destination instance.
        to: InstId,
        /// Payload slot in the [`ControlStore`].
        slot: u32,
    },
    /// An instance finished its current processing quantum.
    ProcDone {
        /// The instance.
        inst: InstId,
        /// Generation guard (stale completions are ignored).
        gen: u64,
    },
    /// A migration link finished serializing+sending its current chunk.
    LinkSendDone {
        /// Sending instance.
        from: InstId,
    },
    /// Control-plane command. `StartScale` embeds a whole `ScalePlan`, and
    /// control events are a vanishing fraction of traffic, so the command
    /// parks in the [`ControlStore`] and the event carries its slot.
    Control {
        /// Payload slot in the [`ControlStore`].
        slot: u32,
    },
    /// Credits returning to a cut channel's sender region (PDES mode,
    /// `resume_latency > 0`): the receiver popped `n` elements off the cut
    /// channel and, instead of pumping the sender's backlog synchronously,
    /// notifies the sender's region after `resume_latency` — the
    /// latency-bearing resume notice that gives reverse cut edges real
    /// lookahead.
    CutCredit {
        /// The cut channel whose sender gets the credits.
        ch: ChannelId,
        /// Number of credits returned.
        n: u32,
    },
    /// Periodic metric sampling.
    Sample,
    /// Re-examine an instance (generic wake-up; used after unblocking).
    Wake {
        /// The instance to re-examine.
        inst: InstId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_fits_in_16_bytes() {
        // The scheduler moves `Ev` through every heap sift and run-buffer
        // copy; the rare large control payloads park in the
        // `ControlStore` side-channel precisely so the enum stays at
        // the size of its hot `ProcDone` variant. A regression here is a
        // silent tax on the whole simulator — treat it like a perf bug,
        // not a style nit.
        assert!(
            std::mem::size_of::<Ev>() <= 16,
            "Ev grew to {} bytes — park the offending payload in the ControlStore",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn control_store_recycles_slots() {
        let mut s = ControlStore::new();
        // Interleaved put/take traffic must plateau at the high-water
        // mark of *live* slots, not grow with total event count.
        for round in 0..1000u64 {
            let a = s.put_control(ControlMsg::Plugin(round));
            let b = s.put_control(ControlMsg::CheckpointTick);
            match s.take_control(a) {
                ControlMsg::Plugin(v) => assert_eq!(v, round),
                other => panic!("slot mix-up: {other:?}"),
            }
            assert!(matches!(s.take_control(b), ControlMsg::CheckpointTick));
        }
        assert_eq!(s.live(), 0);
        assert!(
            s.high_water() <= 2,
            "free list not recycling: {} slots grown for 2 live max",
            s.high_water()
        );
    }

    fn elem(n: u32) -> WireElem {
        WireElem {
            ch: ChannelId(n),
            elem: crate::record::RecordArena::with_capacity(1)
                .insert(crate::record::StreamElement::Watermark(n as SimTime)),
            credited: true,
        }
    }

    #[test]
    fn burst_store_recycles_slots_and_buffers() {
        let mut s = BurstStore::new();
        // Two bursts pending at a time, a thousand times over: the table
        // must plateau at two slots.
        for round in 0..1000u64 {
            let a = s.open(round, 0, 2 * round, elem(1));
            assert!(s.extend_open(round, 0, 2 * round + 1, elem(2)));
            let b = s.single(elem(3));
            assert_eq!(s.pending(), 2);
            let buf = s.take(a);
            assert_eq!(buf.iter().map(|e| e.ch.0).collect::<Vec<_>>(), vec![1, 2]);
            s.give_back(a, buf);
            let buf = s.take(b);
            assert_eq!(buf.len(), 1);
            s.give_back(b, buf);
        }
        assert_eq!(s.pending(), 0);
        assert_eq!(s.high_water(), 2, "free list not recycling");
    }

    #[test]
    fn burst_extension_needs_all_four_conditions() {
        let mut s = BurstStore::new();
        let slot = s.open(100, 1, 40, elem(0));
        assert!(!s.extend_open(101, 1, 41, elem(1)), "other instant");
        assert!(!s.extend_open(100, 0, 41, elem(1)), "other region");
        assert!(
            !s.extend_open(100, 1, 42, elem(1)),
            "a seq was minted since"
        );
        assert!(s.extend_open(100, 1, 41, elem(1)));
        assert!(
            s.extend_open(100, 1, 41, elem(2)),
            "extending mints nothing"
        );
        let buf = s.take(slot);
        assert_eq!(buf.len(), 3);
        assert!(!s.extend_open(100, 1, 41, elem(3)), "taken for dispatch");
        s.give_back(slot, buf);
        assert!(
            !s.extend_open(100, 1, 41, elem(3)),
            "still closed once returned"
        );
        // A one-element burst is never open.
        s.single(elem(4));
        assert!(!s.extend_open(100, 1, 41, elem(5)));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn control_store_slots_are_one_shot() {
        let mut s = ControlStore::new();
        let slot = s.put_priority(PriorityMsg::Fetch {
            kg: KeyGroup(0),
            sub: 0,
            requester: InstId(0),
        });
        let _ = s.take_priority(slot);
        let _ = s.take_priority(slot);
    }
}
