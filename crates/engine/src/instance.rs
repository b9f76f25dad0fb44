//! Physical operator instances (parallel subtasks) and source generators.
//!
//! # Backlog footprint
//!
//! A source that falls behind keeps what it generated in its [`Backlog`],
//! the model of a Kafka topic's backlog. The backlog is unbounded on
//! purpose: the paper measures latency from record creation, so records
//! wait there while the job cannot keep up. It stores one header per
//! 10 ms `TICK`, holding the tick's instant, record count, batch and next
//! offset, and nothing per data element. Latency markers and the
//! watermark and barrier carriers are rare, so they keep a whole
//! [`Record`] in a header slot of their own.
//!
//! The draw is lazy: the backlog owns the source's [`SourceGen`], and
//! `pop_front` calls `next(tick instant)` for the element it returns. A
//! source's draws are FIFO, so the generator sees the same `next` calls,
//! in the same order and with the same `t`, as a draw at tick time would
//! make; [`SourceGen`]'s contract (draws depend only on call order and
//! `t`; `rate`, `limit` and `batch` never depend on draws) makes that the
//! same output. `iter()` must report the exact pending records, and a
//! generator can be neither cloned nor peeked, so `iter()` forces every
//! pending draw into a draw-ahead deque, oldest first, and `pop_front`
//! takes from that deque before it draws. Only observers call `iter()`;
//! a run that never does keeps the draw-ahead deque empty.
//!
//! On the paper's Fig. 10 cell (`q7_rescale`) the backlog peaks at 278,186
//! elements on seed 1. As 56-byte `Record`s that was about half of the
//! run's 43 MB peak RSS. With a 16-byte `(key, value)` per element the
//! peak was 29.4 MB, of which the payload deque took 6.3 MB while it grew
//! from 131,072 to 262,144 slots. With lazy draws it is 23.0 MB (seed
//! 7919: 25.4 → 21.1 MB). A Q7 tick carries 25 elements, so the
//! headers of the peak backlog (about 11,000 ticks of 56 bytes) take
//! under 1 MB.

use std::cell::RefCell;
use std::collections::VecDeque;

use simcore::SimTime;

use crate::ids::{ChannelId, InstId, Key, OpId};
use crate::operator::OperatorLogic;
use crate::record::Record;
use crate::state::StateBackend;

/// Source generation granularity: every 10 ms a source draws the records
/// its rate is due, spreading their event times evenly over the tick.
pub(crate) const TICK: SimTime = 10_000;

/// A workload generator driving one source instance. Implementations are
/// deterministic given their construction seed.
///
/// # Contract
///
/// The engine draws a tick's records when they leave the source's
/// [`Backlog`], not when the tick runs (module docs, "Backlog
/// footprint"), so it interleaves `next` with the `rate`, `limit` and
/// `batch` calls of later ticks. Implementations must therefore keep two
/// rules:
/// - `next(t)` depends only on how many draws came before it and on `t`;
/// - `rate`, `limit` and `batch` never depend on draws.
pub trait SourceGen: Send {
    /// Demanded input rate (records/second) at simulated time `t`. This is
    /// the pre-backpressure demand, i.e. the Kafka producer rate.
    fn rate(&self, t: SimTime) -> f64;

    /// Draw the next record: `(key, value)`. `t` is the instant of the
    /// tick that generated it. Event time is assigned by the engine.
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

    /// Pending elements.
    fn left(&self) -> usize {
        (self.n - self.off).div_ceil(self.batch) as usize
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
    /// A tick's pending data elements, drawn when they are popped.
    Tick(Tick),
    /// A latency marker, watermark carrier or barrier carrier, kept whole.
    Verbatim(Record),
}

/// The generator of a [`Backlog`] and the draws `iter()` forced ahead of
/// `pop_front`.
struct Draws {
    gen: Box<dyn SourceGen>,
    /// The drawn `(key, value)` of the oldest pending data elements.
    ahead: VecDeque<(Key, i64)>,
}

/// The Kafka backlog of one source: generated elements not yet emitted,
/// oldest first (module docs, "Backlog footprint").
pub struct Backlog {
    /// One slot per tick with pending data, and one per verbatim record.
    heads: VecDeque<Head>,
    /// Pending data elements, drawn or not.
    elements: usize,
    /// `Head::Verbatim` slots in `heads`.
    verbatim: usize,
    /// Behind a `RefCell` so that `iter(&self)` can force draws.
    draws: RefCell<Draws>,
}

impl Backlog {
    /// An empty backlog drawing from `gen`. The header deque starts with
    /// room for 16 slots (896 bytes): with no allocation here at all,
    /// building `rescale_churn`'s 16 worlds back to back took ~10 % longer
    /// under glibc malloc. That is a heap-layout effect: it vanishes under
    /// a `GLIBC_TUNABLES` trim or tcache setting.
    pub(crate) fn new(gen: Box<dyn SourceGen>) -> Self {
        Self {
            heads: VecDeque::with_capacity(16),
            elements: 0,
            verbatim: 0,
            draws: RefCell::new(Draws {
                gen,
                ahead: VecDeque::new(),
            }),
        }
    }

    /// The generator, for the tick path's `rate`, `limit` and `batch`.
    pub(crate) fn generator(&mut self) -> &dyn SourceGen {
        &*self.draws.get_mut().gen
    }

    /// Append a tick at `at` that generated `n` records, fused `batch`
    /// (≥ 1) per element. Nothing is drawn until the elements are popped.
    // checker:hot-path
    pub(crate) fn push_tick(&mut self, at: SimTime, n: u64, batch: u64) {
        debug_assert!(batch > 0, "batch must be at least 1");
        if n == 0 {
            return;
        }
        let tick = Tick {
            at,
            n,
            batch,
            off: 0,
        };
        self.elements += tick.left();
        self.heads.push_back(Head::Tick(tick));
    }

    /// Append one record verbatim (a marker or a carrier).
    pub(crate) fn push_back(&mut self, r: Record) {
        self.verbatim += 1;
        self.heads.push_back(Head::Verbatim(r));
    }

    /// Remove and return the oldest element, drawing it if `iter()` has
    /// not.
    // checker:hot-path
    pub(crate) fn pop_front(&mut self) -> Option<Record> {
        match self.heads.front_mut()? {
            Head::Tick(t) => {
                let d = self.draws.get_mut();
                let payload = match d.ahead.pop_front() {
                    Some(p) => p,
                    None => d.gen.next(t.at),
                };
                let r = t.take(payload);
                self.elements -= 1;
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
        self.elements + self.verbatim
    }

    /// Nothing pending?
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Every pending element, oldest first, as `pop_front` would return it.
    /// Draws every pending element not drawn yet, so the generator sees
    /// the calls `pop_front` would have made, in the same order.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        self.draw_ahead();
        let mut heads = self.heads.iter();
        let mut drawn = 0;
        let mut tick = Tick {
            at: 0,
            n: 0,
            batch: 1,
            off: 0,
        };
        std::iter::from_fn(move || loop {
            if !tick.done() {
                let payload = self.draws.borrow().ahead[drawn];
                drawn += 1;
                return Some(tick.take(payload));
            }
            match heads.next()? {
                Head::Tick(t) => tick = *t,
                Head::Verbatim(r) => return Some(r.clone()),
            }
        })
    }

    /// Draw every pending data element not drawn yet into the draw-ahead
    /// deque, oldest first.
    fn draw_ahead(&self) {
        if self.draws.borrow().ahead.len() == self.elements {
            return;
        }
        let mut d = self.draws.borrow_mut();
        let Draws { gen, ahead } = &mut *d;
        let mut skip = ahead.len();
        for h in &self.heads {
            let Head::Tick(t) = h else { continue };
            let left = t.left();
            let drawn = left.min(skip);
            skip -= drawn;
            for _ in drawn..left {
                ahead.push_back(gen.next(t.at));
            }
        }
        debug_assert_eq!(ahead.len(), self.elements);
    }
}

/// Engine-managed state of one source instance: the pending queue models the
/// Kafka topic backlog, so marker latency includes "Kafka transit time" as
/// in the paper's measurement methodology.
pub struct SourceState {
    /// Generated but not yet emitted records (the Kafka backlog). It owns
    /// the source's generator.
    pub pending: Backlog,
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
    /// Wrap a generator in an empty backlog.
    pub fn new(gen: Box<dyn SourceGen>, marker_offset: SimTime) -> Self {
        Self {
            pending: Backlog::new(gen),
            carry: 0.0,
            generated: 0,
            emitted: 0,
            next_marker: marker_offset,
            next_watermark: 0,
            next_checkpoint: None,
        }
    }
}

/// Where an instance is in its life. Built instances start `Running`; a
/// scale-out deploys new ones; a scale-in drains the tail ones, then
/// retires them: unwired, they never run again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Life {
    /// Its container initializes until the given time.
    Deploying(SimTime),
    /// Running.
    Running,
    /// Being removed by a scale-in: it runs what it was sent but receives
    /// no new traffic.
    Draining,
    /// Drained and unwired.
    Retired,
}

impl Life {
    /// May the instance run at `now`?
    #[inline]
    pub fn runs(self, now: SimTime) -> bool {
        match self {
            Life::Deploying(until) => until <= now,
            Life::Running | Life::Draining => true,
            Life::Retired => false,
        }
    }

    /// May round-robin routing send it new traffic at `now`?
    #[inline]
    pub fn takes_new(self, now: SimTime) -> bool {
        self != Life::Draining && self.runs(now)
    }
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
    /// Operator watermark (min across channels).
    pub watermark: SimTime,
    /// When the current suspension started, if suspended.
    pub suspended_since: Option<SimTime>,
    /// Total suspension time accumulated.
    pub suspended_total: SimTime,
    /// Emission sequence counter (stamps record origins).
    pub emit_seq: u64,
    /// Deploying, running, draining or retired.
    pub life: Life,
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
            watermark: 0,
            suspended_since: None,
            suspended_total: 0,
            emit_seq: 0,
            life: Life::Running,
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

    /// A generator whose draws depend on both call order and `t`, so a
    /// draw out of order or with the wrong instant changes a record. It
    /// panics on a draw past `budget`.
    struct Probe {
        seq: u64,
        budget: u64,
    }

    impl Probe {
        fn new() -> Self {
            Self::with_budget(u64::MAX)
        }

        fn with_budget(budget: u64) -> Self {
            Self { seq: 0, budget }
        }
    }

    impl SourceGen for Probe {
        fn rate(&self, _t: SimTime) -> f64 {
            0.0
        }
        fn next(&mut self, t: SimTime) -> (Key, i64) {
            assert!(self.seq < self.budget, "draw past the budget");
            self.seq += 1;
            (self.seq % 97, (t as i64) * 1_000_003 + self.seq as i64)
        }
    }

    /// The backlog as one `Record` per element, drawn at tick time.
    /// `push_tick` is the loop `World::on_source_tick` ran before
    /// [`Backlog`] existed.
    struct Oracle {
        records: VecDeque<Record>,
        gen: Probe,
    }

    impl Oracle {
        fn push_tick(&mut self, now: SimTime, n: u64, batch: u64) {
            let mut left = n;
            while left > 0 {
                let c = left.min(batch);
                let (key, value) = self.gen.next(now);
                let et = now + (n - left) * TICK / n.max(1);
                let mut r = Record::data(key, value, et);
                r.count = c as u32;
                self.records.push_back(r);
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
        // n % batch != 0, batch = 1; and pops served from forced draws
        // and drawn at pop time.
        let mut shapes = [0u32; 6];
        for seed in 0..300u64 {
            let mut rng = DetRng::seed(seed);
            let mut b = Backlog::new(Box::new(Probe::new()));
            let mut o = Oracle {
                records: VecDeque::new(),
                gen: Probe::new(),
            };
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
                        b.push_tick(now, n, batch);
                        o.push_tick(now, n, batch);
                    }
                    2 => {
                        let r = verbatim(&mut rng, now);
                        b.push_back(r.clone());
                        o.records.push_back(r);
                    }
                    _ => {
                        for _ in 0..rng.below(30) {
                            let data = matches!(b.heads.front(), Some(Head::Tick(_)));
                            let forced = !b.draws.get_mut().ahead.is_empty();
                            let got = b.pop_front().map(|r| fields(&r));
                            let want = o.records.pop_front().map(|r| fields(&r));
                            assert_eq!(got, want, "{ctx}: pop_front");
                            shapes[4] += (data && forced) as u32;
                            shapes[5] += (data && !forced) as u32;
                        }
                    }
                }
                assert_eq!(b.len(), o.records.len(), "{ctx}: len");
                assert_eq!(b.is_empty(), o.records.is_empty(), "{ctx}: is_empty");
                if rng.below(8) == 0 {
                    let got: Vec<Fields> = b.iter().map(|r| fields(&r)).collect();
                    let want: Vec<Fields> = o.records.iter().map(fields).collect();
                    assert_eq!(got, want, "{ctx}: iter");
                }
            }
            while let Some(want) = o.records.pop_front() {
                let got = b.pop_front().map(|r| fields(&r));
                assert_eq!(got, Some(fields(&want)), "seed {seed}: final drain");
            }
            assert!(
                b.pop_front().is_none() && b.is_empty(),
                "seed {seed}: drained"
            );
            assert_eq!(b.len(), 0, "seed {seed}: drained len");
        }
        assert!(shapes.iter().all(|&s| s > 0), "shapes reached: {shapes:?}");
    }

    /// Heap bytes of `b`'s two deques.
    fn heap_bytes(b: &Backlog) -> usize {
        b.heads.capacity() * std::mem::size_of::<Head>()
            + b.draws.borrow().ahead.capacity() * std::mem::size_of::<(Key, i64)>()
    }

    #[test]
    fn backlog_heap_grows_with_ticks_not_elements() {
        // The same 40 ticks, carrying one element each or 1,000 each.
        let mut heaps = Vec::new();
        for per_tick in [1, 1_000] {
            // Only the pops below may draw: a draw per pushed element
            // would exceed the budget.
            let mut b = Backlog::new(Box::new(Probe::with_budget(per_tick)));
            for t in 0..40 {
                b.push_tick(t * TICK, per_tick * 4, 4);
            }
            assert_eq!(b.len() as u64, 40 * per_tick);
            heaps.push(heap_bytes(&b));
            // A pop draws its element, and frees the header at a tick's end.
            for _ in 0..per_tick {
                b.pop_front();
            }
            assert_eq!(b.heads.len(), 39);
            assert_eq!(heap_bytes(&b), heaps[heaps.len() - 1]);
        }
        assert_eq!(heaps[0], heaps[1], "heap bytes per tick count");
        // An empty tick leaves nothing; a verbatim record takes one slot.
        let mut b = Backlog::new(Box::new(Probe::with_budget(0)));
        b.push_tick(0, 0, 4);
        assert!(b.is_empty());
        b.push_back(Record::data(0, 0, 0));
        assert_eq!((b.heads.len(), b.len()), (1, 1));
    }
}
