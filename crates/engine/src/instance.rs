//! Physical operator instances (parallel subtasks) and source generators.
//!
//! # Backlog footprint
//!
//! A source that falls behind keeps what it generated in its [`Backlog`],
//! the model of a Kafka topic's backlog. The backlog is unbounded on
//! purpose: the paper measures latency from record creation, so records
//! wait there while the job cannot keep up. It stores one 16-byte
//! `(key, value)` per data element, plus one header per 10 ms `TICK`.
//! The header holds the tick's instant, record count, batch and next
//! offset, and from these `pop_front` rebuilds the rest of each
//! [`Record`]. Latency markers and the watermark and barrier carriers
//! are rare, so they keep a whole `Record` in a header slot of their own.
//! On the paper's Fig. 10 cell (`q7_rescale`, seed 1) the backlog peaks at
//! 278,186 elements. As 56-byte `Record`s that was about half of the run's
//! 43 MB peak RSS, and with 16-byte payloads the peak is about 30 MB.
//!
//! The draw stays eager: `push_tick` calls the generator once per element
//! at tick time, in the same order as before. Drawing lazily at pop time
//! would make the backlog O(ticks), but `iter()` must report the exact
//! pending records, and a `SourceGen` can be neither cloned nor peeked.
//! A block deque (4,096-entry blocks and a spare pool, so growth never
//! copies) reached a 27.4 MB peak on the same cell instead of 30.4 MB.
//! That saves 3 MB for a bespoke container, so the backlog keeps two
//! std `VecDeque`s.

use std::collections::VecDeque;

use simcore::{FxHashSet, SimTime};

use crate::ids::{ChannelId, InstId, Key, OpId};
use crate::operator::OperatorLogic;
use crate::record::Record;
use crate::state::StateBackend;

/// Source generation granularity: every 10 ms a source draws the records
/// its rate is due, spreading their event times evenly over the tick.
pub(crate) const TICK: SimTime = 10_000;

/// A workload generator driving one source instance. Implementations are
/// deterministic given their construction seed.
pub trait SourceGen: Send {
    /// Demanded input rate (records/second) at simulated time `t`. This is
    /// the pre-backpressure demand, i.e. the Kafka producer rate.
    fn rate(&self, t: SimTime) -> f64;

    /// Draw the next record: `(key, value)`. Event time is assigned by the
    /// engine.
    fn next(&mut self, t: SimTime) -> (Key, i64);

    /// Optional end of stream: stop generating after this many records.
    fn limit(&self) -> Option<u64> {
        None
    }

    /// Batch multiplicity: fuse this many same-key records into one stream
    /// element (`Record::count`). 1 = fully record-granular. Large
    /// sensitivity sweeps use small batches for simulation efficiency; all
    /// admissibility decisions remain per element.
    fn batch(&self) -> u32 {
        1
    }
}

/// A source tick's data elements that are still pending. Element `j`
/// starts at record offset `j * batch`, carries `min(n - off, batch)`
/// records and has event time `at + off * TICK / n`.
#[derive(Clone, Copy)]
struct Tick {
    /// The tick's instant.
    at: SimTime,
    /// Records the tick generated (> 0).
    n: u64,
    /// Records fused per element.
    batch: u64,
    /// Record offset of the next pending element.
    off: u64,
}

impl Tick {
    /// No element left.
    fn done(&self) -> bool {
        self.off >= self.n
    }

    /// Rebuild the element at `off` from its drawn `(key, value)`, and
    /// step past it.
    #[inline]
    fn take(&mut self, (key, value): (Key, i64)) -> Record {
        let mut r = Record::data(key, value, self.at + self.off * TICK / self.n);
        r.count = (self.n - self.off).min(self.batch) as u32;
        self.off += self.batch;
        r
    }
}

/// One header slot of a [`Backlog`].
enum Head {
    /// A tick's pending data elements. Their `(key, value)`s are at the
    /// front of [`Backlog::payloads`], in order.
    Tick(Tick),
    /// A latency marker, watermark carrier or barrier carrier, kept whole.
    Verbatim(Record),
}

/// The Kafka backlog of one source: generated elements not yet emitted,
/// oldest first (module docs, "Backlog footprint").
#[derive(Default)]
pub struct Backlog {
    /// One slot per tick with pending data, and one per verbatim record.
    heads: VecDeque<Head>,
    /// The drawn `(key, value)` of every pending data element.
    payloads: VecDeque<(Key, i64)>,
    /// `Head::Verbatim` slots in `heads`.
    verbatim: usize,
}

impl Backlog {
    /// Append a tick at `at` that generated `n` records, fused `batch`
    /// (≥ 1) per element. `draw` is called once per element, in order.
    // checker:hot-path
    pub(crate) fn push_tick(
        &mut self,
        at: SimTime,
        n: u64,
        batch: u64,
        mut draw: impl FnMut() -> (Key, i64),
    ) {
        debug_assert!(batch > 0, "batch must be at least 1");
        if n == 0 {
            return;
        }
        let mut off = 0;
        while off < n {
            self.payloads.push_back(draw());
            off += batch;
        }
        self.heads.push_back(Head::Tick(Tick {
            at,
            n,
            batch,
            off: 0,
        }));
    }

    /// Append one record verbatim (a marker or a carrier).
    pub(crate) fn push_back(&mut self, r: Record) {
        self.verbatim += 1;
        self.heads.push_back(Head::Verbatim(r));
    }

    /// Remove and return the oldest element.
    // checker:hot-path
    pub(crate) fn pop_front(&mut self) -> Option<Record> {
        match self.heads.front_mut()? {
            Head::Tick(t) => {
                let payload = self.payloads.pop_front().expect("a payload per element");
                let r = t.take(payload);
                if t.done() {
                    self.heads.pop_front();
                }
                Some(r)
            }
            Head::Verbatim(_) => {
                self.verbatim -= 1;
                match self.heads.pop_front() {
                    Some(Head::Verbatim(r)) => Some(r),
                    _ => unreachable!("the front slot is verbatim"),
                }
            }
        }
    }

    /// Pending elements (data elements, markers and carriers).
    pub fn len(&self) -> usize {
        self.payloads.len() + self.verbatim
    }

    /// Nothing pending?
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Every pending element, oldest first, as `pop_front` would return it.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        let mut heads = self.heads.iter();
        let mut payloads = self.payloads.iter();
        let mut tick = Tick {
            at: 0,
            n: 0,
            batch: 1,
            off: 0,
        };
        std::iter::from_fn(move || loop {
            if !tick.done() {
                return Some(tick.take(*payloads.next().expect("a payload per element")));
            }
            match heads.next()? {
                Head::Tick(t) => tick = *t,
                Head::Verbatim(r) => return Some(r.clone()),
            }
        })
    }
}

/// Engine-managed state of one source instance: the pending queue models the
/// Kafka topic backlog, so marker latency includes "Kafka transit time" as
/// in the paper's measurement methodology.
pub struct SourceState {
    /// Generated but not yet emitted records (the Kafka backlog).
    pub pending: Backlog,
    /// The generator.
    pub gen: Box<dyn SourceGen>,
    /// Fractional-record accumulator for rate control.
    pub carry: f64,
    /// Records generated so far.
    pub generated: u64,
    /// Records emitted into the dataflow so far.
    pub emitted: u64,
    /// Next latency-marker injection time.
    pub next_marker: SimTime,
    /// Next watermark emission time.
    pub next_watermark: SimTime,
    /// Next checkpoint-barrier injection time (sources only; id counter is
    /// global in the world).
    pub next_checkpoint: Option<SimTime>,
}

impl SourceState {
    /// Wrap a generator. The backlog starts with room for 64 payloads
    /// (1 KB). With no allocation here at all, building `rescale_churn`'s
    /// 16 worlds back to back took ~10 % longer under glibc malloc. That
    /// is a heap-layout effect: it vanishes under a `GLIBC_TUNABLES` trim
    /// or tcache setting, and 64 to 3,584 payloads all measure alike.
    pub fn new(gen: Box<dyn SourceGen>, marker_offset: SimTime) -> Self {
        Self {
            pending: Backlog {
                payloads: VecDeque::with_capacity(64),
                ..Backlog::default()
            },
            gen,
            carry: 0.0,
            generated: 0,
            emitted: 0,
            next_marker: marker_offset,
            next_watermark: 0,
            next_checkpoint: None,
        }
    }
}

/// Checkpoint alignment state at an instance.
#[derive(Default)]
pub struct CkptAlign {
    /// Checkpoint id being aligned.
    pub id: u64,
    /// Channels whose barrier has arrived (and are therefore blocked).
    pub arrived: FxHashSet<ChannelId>,
}

/// One physical operator instance.
pub struct Instance {
    /// Global instance id.
    pub id: InstId,
    /// Owning logical operator.
    pub op: OpId,
    /// Index among the operator's instances.
    pub local_idx: usize,
    /// Input channels (ordered; the order defines channel rotation).
    pub in_channels: Vec<ChannelId>,
    /// Output channels.
    pub out_channels: Vec<ChannelId>,
    /// Keyed state.
    pub state: StateBackend,
    /// Operator logic (None for sources/sinks). Taken out during dispatch.
    pub logic: Option<Box<dyn OperatorLogic>>,
    /// Source machinery (sources only).
    pub source: Option<SourceState>,
    /// Is the instance mid-quantum?
    pub busy: bool,
    /// Guards stale `ProcDone` events.
    pub proc_gen: u64,
    /// Is the instance stalled on output backpressure?
    pub blocked_out: bool,
    /// Active-channel cursor (index into `in_channels`).
    pub active_ch: usize,
    /// Channels blocked by alignment (checkpoint or coupled scale barriers).
    pub blocked_channels: FxHashSet<ChannelId>,
    /// In-progress checkpoint alignment.
    pub ckpt: Option<CkptAlign>,
    /// Operator watermark (min across channels).
    pub watermark: SimTime,
    /// When the current suspension started, if suspended.
    pub suspended_since: Option<SimTime>,
    /// Total suspension time accumulated.
    pub suspended_total: SimTime,
    /// Emission sequence counter (stamps record origins).
    pub emit_seq: u64,
    /// Halted by Stop-Checkpoint-Restart.
    pub halted: bool,
    /// When this instance becomes operational (deploy delay).
    pub operational_at: SimTime,
    /// Round-robin cursors per out-edge for rebalance partitioning and
    /// marker forwarding, indexed densely by edge id (edge count is fixed
    /// at build time; a hash lookup per emitted record is pure overhead).
    pub rr_cursor: Vec<usize>,
    /// Records processed by this instance.
    pub processed: u64,
}

impl Instance {
    /// Create a fresh instance.
    pub fn new(id: InstId, op: OpId, local_idx: usize, state: StateBackend) -> Self {
        Self {
            id,
            op,
            local_idx,
            in_channels: Vec::new(),
            out_channels: Vec::new(),
            state,
            logic: None,
            source: None,
            busy: false,
            proc_gen: 0,
            blocked_out: false,
            active_ch: 0,
            blocked_channels: FxHashSet::default(),
            ckpt: None,
            watermark: 0,
            suspended_since: None,
            suspended_total: 0,
            emit_seq: 0,
            halted: false,
            operational_at: 0,
            rr_cursor: Vec::new(),
            processed: 0,
        }
    }

    /// Mark the instance suspended starting at `now` (idempotent).
    pub fn enter_suspend(&mut self, now: SimTime) {
        if self.suspended_since.is_none() {
            self.suspended_since = Some(now);
        }
    }

    /// Leave suspension, accumulating the elapsed time.
    pub fn leave_suspend(&mut self, now: SimTime) {
        if let Some(s) = self.suspended_since.take() {
            self.suspended_total += now.saturating_sub(s);
        }
    }

    /// Total suspension including a live open interval.
    pub fn suspension_as_of(&self, now: SimTime) -> SimTime {
        self.suspended_total + self.suspended_since.map_or(0, |s| now.saturating_sub(s))
    }

    /// Next emission sequence number.
    pub fn next_seq(&mut self) -> u64 {
        self.emit_seq += 1;
        self.emit_seq
    }
}

#[cfg(test)]
mod tests {
    use simcore::DetRng;

    use super::*;
    use crate::record::RecordKind;

    fn inst() -> Instance {
        Instance::new(InstId(0), OpId(0), 0, StateBackend::new(16, 1))
    }

    #[test]
    fn suspension_accumulates() {
        let mut i = inst();
        i.enter_suspend(100);
        i.enter_suspend(150); // idempotent
        assert_eq!(i.suspension_as_of(300), 200);
        i.leave_suspend(300);
        assert_eq!(i.suspended_total, 200);
        assert_eq!(i.suspension_as_of(500), 200);
        i.leave_suspend(600); // no open interval: no-op
        assert_eq!(i.suspended_total, 200);
    }

    #[test]
    fn emit_seq_monotonic() {
        let mut i = inst();
        let a = i.next_seq();
        let b = i.next_seq();
        assert!(b > a);
    }

    /// The backlog as one `Record` per element. `push_tick` is the loop
    /// `World::on_source_tick` ran before [`Backlog`] existed.
    #[derive(Default)]
    struct Oracle(VecDeque<Record>);

    impl Oracle {
        fn push_tick(
            &mut self,
            now: SimTime,
            n: u64,
            batch: u64,
            mut draw: impl FnMut() -> (Key, i64),
        ) {
            let mut left = n;
            while left > 0 {
                let c = left.min(batch);
                let (key, value) = draw();
                let et = now + (n - left) * TICK / n.max(1);
                let mut r = Record::data(key, value, et);
                r.count = c as u32;
                self.0.push_back(r);
                left -= c;
            }
        }
    }

    type Fields = (Key, i64, SimTime, SimTime, RecordKind, (InstId, u64), u32);

    fn fields(r: &Record) -> Fields {
        (
            r.key,
            r.value,
            r.event_time,
            r.created,
            r.kind,
            r.origin,
            r.count,
        )
    }

    /// The three verbatim shapes `World` pushes: a latency marker, a
    /// watermark carrier and a checkpoint-barrier carrier.
    fn verbatim(rng: &mut DetRng, now: SimTime) -> Record {
        match rng.below(3) {
            0 => {
                let mut m = Record::data(rng.below(u32::MAX as u64), 0, now);
                m.kind = RecordKind::Marker;
                m
            }
            1 => {
                let mut wm = Record::data(0, 0, now);
                wm.count = u32::MAX;
                wm
            }
            _ => Record {
                key: rng.below(1_000),
                value: 0,
                event_time: now,
                created: now,
                kind: RecordKind::Data,
                origin: (InstId(rng.below(8) as u32), 0),
                count: 0,
            },
        }
    }

    #[test]
    fn backlog_matches_the_per_record_oracle() {
        // Which tick shapes the seeds reached: n = 0, n < batch,
        // n % batch != 0, batch = 1.
        let mut shapes = [0u32; 4];
        for seed in 0..300u64 {
            let mut rng = DetRng::seed(seed);
            let (mut b, mut o) = (Backlog::default(), Oracle::default());
            let mut now = 0;
            for step in 0..120 {
                let ctx = format!("seed {seed}, step {step}");
                match rng.below(4) {
                    0 | 1 => {
                        now += TICK;
                        let batch = [1, 2, 3, 7, 16][rng.below(5) as usize];
                        let n = if rng.chance(0.1) { 0 } else { rng.below(40) };
                        shapes[0] += (n == 0) as u32;
                        shapes[1] += (n > 0 && n < batch) as u32;
                        shapes[2] += (n % batch != 0) as u32;
                        shapes[3] += (n > 0 && batch == 1) as u32;
                        let draws: Vec<(Key, i64)> = (0..n.div_ceil(batch))
                            .map(|_| (rng.below(100), rng.next_u64() as i64))
                            .collect();
                        let (mut bi, mut oi) = (draws.iter(), draws.iter());
                        b.push_tick(now, n, batch, || *bi.next().expect("draw"));
                        o.push_tick(now, n, batch, || *oi.next().expect("draw"));
                        assert!(bi.next().is_none() && oi.next().is_none(), "{ctx}: draws");
                    }
                    2 => {
                        let r = verbatim(&mut rng, now);
                        b.push_back(r.clone());
                        o.0.push_back(r);
                    }
                    _ => {
                        for _ in 0..rng.below(30) {
                            let got = b.pop_front().map(|r| fields(&r));
                            let want = o.0.pop_front().map(|r| fields(&r));
                            assert_eq!(got, want, "{ctx}: pop_front");
                        }
                    }
                }
                assert_eq!(b.len(), o.0.len(), "{ctx}: len");
                assert_eq!(b.is_empty(), o.0.is_empty(), "{ctx}: is_empty");
                let got: Vec<Fields> = b.iter().map(|r| fields(&r)).collect();
                let want: Vec<Fields> = o.0.iter().map(fields).collect();
                assert_eq!(got, want, "{ctx}: iter");
            }
            while let Some(want) = o.0.pop_front() {
                let got = b.pop_front().map(|r| fields(&r));
                assert_eq!(got, Some(fields(&want)), "seed {seed}: final drain");
            }
            assert!(
                b.pop_front().is_none() && b.is_empty(),
                "seed {seed}: drained"
            );
        }
        assert!(
            shapes.iter().all(|&s| s > 0),
            "tick shapes reached: {shapes:?}"
        );
    }

    #[test]
    fn backlog_keeps_one_payload_per_element_and_one_header_per_tick() {
        assert_eq!(std::mem::size_of::<(Key, i64)>(), 16);
        let mut b = Backlog::default();
        let ticks = [(25, 1), (10, 3), (7, 8), (64, 64), (100, 7)];
        for (t, &(n, batch)) in ticks.iter().enumerate() {
            b.push_tick(t as u64 * TICK, n, batch, || (1, 2));
        }
        let elements: u64 = ticks.iter().map(|&(n, batch)| n.div_ceil(batch)).sum();
        let payloads: &VecDeque<(Key, i64)> = &b.payloads;
        assert_eq!(payloads.len() as u64, elements);
        assert_eq!(b.heads.len(), ticks.len());
        // An empty tick leaves nothing; a verbatim record takes one slot.
        b.push_tick(9 * TICK, 0, 4, || unreachable!("no draw for an empty tick"));
        b.push_back(Record::data(0, 0, 9 * TICK));
        assert_eq!(b.heads.len(), ticks.len() + 1);
        assert_eq!(b.len() as u64, elements + 1);
    }
}
