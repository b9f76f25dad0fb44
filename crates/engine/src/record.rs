//! Stream elements: data records, latency markers, watermarks, checkpoint
//! barriers and scaling signals — everything that can travel in a channel.

use simcore::SimTime;

use crate::ids::{InstId, Key, SubscaleId};

/// What a record is for. Latency markers flow like records but bypass
/// windowing (paper §V-A) and are timestamped at creation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordKind {
    /// A normal data record.
    Data,
    /// A latency marker: measured at the sink as `now - created`.
    Marker,
}

/// A data record (or marker) flowing through the dataflow.
#[derive(Clone, Debug)]
pub struct Record {
    /// Partitioning key.
    pub key: Key,
    /// Payload value; meaning is workload-specific (bid price, engagement
    /// points, join tag, ...).
    pub value: i64,
    /// Event time assigned by the source.
    pub event_time: SimTime,
    /// Wall-clock (simulated) creation time, for end-to-end latency.
    pub created: SimTime,
    /// Data or marker.
    pub kind: RecordKind,
    /// `(emitting instance, per-instance emission sequence)` — lets the
    /// semantics checker verify that per-key execution order preserves each
    /// upstream's emission order across scaling.
    pub origin: (InstId, u64),
    /// Batch multiplicity: `count` identical-key records fused into one
    /// element (simulation efficiency for the sensitivity grid). Markers are
    /// always `count == 1`.
    pub count: u32,
}

impl Record {
    /// A plain data record with multiplicity 1; origin is stamped at emission.
    pub fn data(key: Key, value: i64, event_time: SimTime) -> Self {
        Self {
            key,
            value,
            event_time,
            created: event_time,
            kind: RecordKind::Data,
            origin: (InstId(u32::MAX), 0),
            count: 1,
        }
    }

    /// This element's service time at a per-record `price`
    /// ([`World::service_of`](crate::world::World::service_of)): nothing
    /// for a latency marker, else `price` per unit of multiplicity.
    #[inline]
    pub fn service(&self, price: SimTime) -> SimTime {
        if self.kind == RecordKind::Marker {
            0
        } else {
            price * self.count as SimTime
        }
    }
}

/// The kind of a scaling signal (the vocabulary shared by all mechanisms;
/// each mechanism uses the subset it needs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignalKind {
    /// DRRS trigger barrier: priority, bypasses all in-flight data, starts
    /// migration at the scaling instance.
    Trigger,
    /// DRRS confirm barrier: in-order routing confirmation; re-routed by the
    /// old instance to the new one ("implicit alignment").
    Confirm,
    /// A conventional coupled barrier (OTFS / Megaphone): routing
    /// confirmation + migration trigger in one, requires alignment with
    /// input blocking.
    Coupled,
}

/// A scaling signal traveling in-band (or as a priority message).
#[derive(Clone, Copy, Debug)]
pub struct ScaleSignal {
    /// Which subscale / migration batch.
    pub subscale: SubscaleId,
    /// Barrier kind.
    pub kind: SignalKind,
    /// The predecessor instance that emitted it.
    pub from_pred: InstId,
}

/// Anything that can occupy a slot in a channel queue.
#[derive(Clone, Debug)]
pub enum StreamElement {
    /// Data record or latency marker.
    Record(Record),
    /// Event-time watermark.
    Watermark(SimTime),
    /// Aligned-checkpoint barrier.
    CheckpointBarrier(u64),
    /// Scaling signal (confirm/coupled travel in-band; triggers are usually
    /// delivered as priority messages instead).
    Scale(ScaleSignal),
}

/// Handle to a [`StreamElement`] parked in the world's [`RecordArena`].
/// Everything between emission and consumption — channel queues, sender
/// backlogs, the in-flight leg of `Ev::Deliver` — passes these 8-byte
/// `Copy` handles; the payload itself lives exactly once in the arena.
pub type RecordRef = simcore::SlabRef;

/// The slab owning every stream element currently queued, backlogged or on
/// the wire. Slots are generational: a handle that outlives its element is
/// caught at the access site instead of aliasing recycled storage.
pub type RecordArena = simcore::Slab<StreamElement>;

impl StreamElement {
    /// Is this a data/marker record?
    pub fn is_record(&self) -> bool {
        matches!(self, StreamElement::Record(_))
    }

    /// The record inside, if any.
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            StreamElement::Record(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_constructor_defaults() {
        let r = Record::data(7, 42, 1000);
        assert_eq!(r.key, 7);
        assert_eq!(r.count, 1);
        assert_eq!(r.kind, RecordKind::Data);
        assert_eq!(r.created, 1000);
    }

    #[test]
    fn element_record_accessors() {
        let e = StreamElement::Record(Record::data(1, 2, 3));
        assert!(e.is_record());
        assert_eq!(e.as_record().map(|r| r.key), Some(1));
        let w = StreamElement::Watermark(5);
        assert!(!w.is_record());
        assert!(w.as_record().is_none());
    }
}
