//! Channels: bounded, credit-based links between instances.
//!
//! A channel has three stages, mirroring Flink's network stack:
//!
//! ```text
//!   sender backlog  ──(credit available)──►  in flight  ──►  receiver queue
//!   (output buffers)       network latency                  (input buffers)
//! ```
//!
//! The receiver queue has `capacity` slots (credits). When it is full,
//! elements accumulate in the sender backlog; when the backlog passes the
//! block watermark the *sender instance stalls*, which is how backpressure
//! propagates hop by hop back to the sources — the effect behind the paper's
//! latency spikes and post-scaling throughput overshoot.
//!
//! A channel also counts the alignments in progress at its receiver that
//! hold it (`World::align`); the receiver reads nothing from a held channel.
//!
//! Queues hold [`RecordRef`] handles, not elements: the payload lives once
//! in the world's [`RecordArena`] from `send`
//! until consumption, so moving an element between stages (backlog → wire →
//! queue) and DRRS' backlog redirection are 8-byte handle moves.

use std::collections::VecDeque;

use simcore::SimTime;

use crate::ids::{ChannelId, InstId};
use crate::record::{RecordArena, RecordRef, StreamElement};

/// Initial sender-backlog capacity, in elements.
///
/// Steady state never backlogs: under the credit model an element only
/// lands here once the receiver queue plus the wire hold `capacity`
/// elements, i.e. the link is already saturated. The backlog therefore
/// starts at a token size — enough to absorb a transient burst without
/// reallocating — and doubles only under genuine backpressure, where the
/// resize cost is noise against the stall itself. (The hard behavioural
/// bounds are `EngineConfig::{backlog_block, backlog_resume}`, not this.)
pub const BACKLOG_INITIAL_BUFFERS: usize = 16;

/// One directed channel between two instances.
pub struct Channel {
    /// Identifier (index into the world's channel table).
    pub id: ChannelId,
    /// Sending instance.
    pub from: InstId,
    /// Receiving instance.
    pub to: InstId,
    /// Receiver-side queue (input buffers) of arena handles.
    pub queue: VecDeque<RecordRef>,
    /// Sender-side backlog awaiting credit (output buffers).
    pub backlog: VecDeque<RecordRef>,
    /// Elements currently "on the wire".
    pub in_flight: usize,
    /// Receiver queue capacity (credits).
    pub capacity: usize,
    /// One-way latency.
    pub latency: SimTime,
    /// Highest watermark delivered over this channel (receiver-side view;
    /// the receiver's operator watermark is the min across its channels).
    pub rx_watermark: SimTime,
    /// Alignments in progress at the receiver that hold this channel.
    pub holds: u32,
    /// Does this channel cross a region cut in PDES mode
    /// (`resume_latency > 0`)? Set once at build time. Cut channels take
    /// credit from the sender-owned [`Self::cut_credits`] instead of
    /// reading the receiver queue ([`Self::take_credit`]) and get it back
    /// through latency-bearing `CutCredit` events, so neither side ever
    /// touches the other's fields — the property that lets the two
    /// endpoints live on different threads.
    pub cut: bool,
    /// Sender-owned credit count for a cut channel (starts at `capacity`).
    /// Decremented per element put on the wire; replenished by `CutCredit`
    /// events from the receiver's region. Unused (and untouched) when
    /// `cut` is false.
    pub cut_credits: usize,
}

impl Channel {
    /// Create an empty channel. The receiver queue is pre-sized to its
    /// credit capacity (its hard occupancy bound), so steady-state traffic
    /// never grows it; the backlog starts at
    /// [`BACKLOG_INITIAL_BUFFERS`] and doubles only under backpressure.
    pub fn new(id: ChannelId, from: InstId, to: InstId, capacity: usize, latency: SimTime) -> Self {
        Self {
            id,
            from,
            to,
            queue: VecDeque::with_capacity(capacity),
            backlog: VecDeque::with_capacity(BACKLOG_INITIAL_BUFFERS),
            in_flight: 0,
            capacity,
            latency,
            rx_watermark: 0,
            holds: 0,
            cut: false,
            cut_credits: capacity,
        }
    }

    /// Is there credit to put one more element on the wire?
    #[inline]
    pub fn has_credit(&self) -> bool {
        self.queue.len() + self.in_flight < self.capacity
    }

    /// Take the credit to put one more element on the wire, if there is
    /// one: on a cut channel from the sender-owned pool, on any other a
    /// receiver slot, counted in flight until delivery.
    #[inline]
    pub fn take_credit(&mut self) -> bool {
        if self.cut {
            if self.cut_credits == 0 {
                return false;
            }
            self.cut_credits -= 1;
        } else {
            if !self.has_credit() {
                return false;
            }
            self.in_flight += 1;
        }
        true
    }

    /// Elements queued at the receiver.
    #[inline]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Elements waiting at the sender.
    #[inline]
    pub fn backlogged(&self) -> usize {
        self.backlog.len()
    }

    /// Total occupancy across all three stages.
    pub fn occupancy(&self) -> usize {
        self.queue.len() + self.in_flight + self.backlog.len()
    }

    /// Drain records of the backlog matching `pred` into `out`, preserving
    /// relative order of both kept and drained elements. Used by DRRS'
    /// confirm-barrier output-cache redirection. Only handles move; the
    /// elements stay parked in `arena`.
    pub fn drain_backlog_matching(
        &mut self,
        arena: &RecordArena,
        pred: impl FnMut(&StreamElement) -> bool,
        out: &mut Vec<RecordRef>,
    ) {
        self.drain_backlog_matching_until(arena, pred, |_| false, out);
    }

    /// Like [`Self::drain_backlog_matching`] but stops scanning at the
    /// first element for which `fence` returns true (paper Fig. 9a: during
    /// checkpoint/scaling interplay, "redirection concludes at the
    /// checkpoint barrier").
    pub fn drain_backlog_matching_until(
        &mut self,
        arena: &RecordArena,
        mut pred: impl FnMut(&StreamElement) -> bool,
        mut fence: impl FnMut(&StreamElement) -> bool,
        out: &mut Vec<RecordRef>,
    ) {
        let mut kept = VecDeque::with_capacity(self.backlog.len());
        let mut fenced = false;
        for r in self.backlog.drain(..) {
            let e = &arena[r];
            if !fenced && fence(e) {
                fenced = true;
            }
            if !fenced && pred(e) {
                out.push(r);
            } else {
                kept.push_back(r);
            }
        }
        self.backlog = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn chan() -> Channel {
        Channel::new(ChannelId(0), InstId(0), InstId(1), 4, 100)
    }

    fn rec(arena: &mut RecordArena, key: u64) -> RecordRef {
        arena.insert(StreamElement::Record(Record::data(key, 0, 0)))
    }

    #[test]
    fn credit_accounting() {
        let mut arena = RecordArena::new();
        let mut c = chan();
        assert!(c.has_credit());
        c.in_flight = 2;
        c.queue.push_back(rec(&mut arena, 1));
        c.queue.push_back(rec(&mut arena, 2));
        assert!(!c.has_credit());
        c.in_flight = 1;
        assert!(c.has_credit());
    }

    #[test]
    fn take_credit_draws_on_the_pool_of_the_channel_kind() {
        for cut in [false, true] {
            let mut c = chan();
            c.cut = cut;
            for _ in 0..4 {
                assert!(c.take_credit(), "cut={cut}");
            }
            assert!(!c.take_credit(), "cut={cut}: capacity 4 exhausted");
            // Receiver slots count in flight; the sender pool does not.
            assert_eq!(
                (c.in_flight, c.cut_credits),
                if cut { (0, 0) } else { (4, 4) }
            );
        }
    }

    #[test]
    fn occupancy_counts_all_stages() {
        let mut arena = RecordArena::new();
        let mut c = chan();
        c.queue.push_back(rec(&mut arena, 1));
        c.in_flight = 1;
        c.backlog.push_back(rec(&mut arena, 2));
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn drain_backlog_preserves_order() {
        let mut arena = RecordArena::new();
        let mut c = chan();
        for k in 0..6u64 {
            let r = rec(&mut arena, k);
            c.backlog.push_back(r);
        }
        let mut out = Vec::new();
        // Extract even keys.
        c.drain_backlog_matching(
            &arena,
            |e| e.as_record().map(|r| r.key % 2 == 0).unwrap_or(false),
            &mut out,
        );
        let drained: Vec<u64> = out
            .iter()
            .filter_map(|&h| arena[h].as_record().map(|r| r.key))
            .collect();
        let kept: Vec<u64> = c
            .backlog
            .iter()
            .filter_map(|&h| arena[h].as_record().map(|r| r.key))
            .collect();
        assert_eq!(drained, vec![0, 2, 4]);
        assert_eq!(kept, vec![1, 3, 5]);
    }
}
