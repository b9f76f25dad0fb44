//! Operator logic: the user-defined functions that run inside instances.
//!
//! The engine gives logic a narrow, state-backend-mediated view of the world
//! (as Flink does), which is what makes state migratable behind its back.

use simcore::SimTime;

use crate::ids::{key_group_of, Key, KeyGroup};
use crate::record::Record;
use crate::state::{StateBackend, StateValue};
use crate::window::{Agg, FireScratch};

/// What role an operator plays; sources and sinks are engine-managed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpRole {
    /// Rate-controlled generator (engine-managed pending queue = "Kafka").
    Source,
    /// User logic.
    Transform,
    /// Terminal consumer; records latency markers.
    Sink,
}

/// Context handed to operator logic while processing one record.
pub struct OpCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Current operator watermark.
    pub watermark: SimTime,
    /// Key-group of the record being processed.
    pub kg: KeyGroup,
    /// Keyed state backend of this instance.
    pub state: &'a mut StateBackend,
    /// Output collector; emitted records are routed by the engine.
    pub out: &'a mut Vec<Record>,
    /// Key-group count (for re-keying helpers).
    pub max_key_groups: u16,
}

impl OpCtx<'_> {
    /// Emit a data record downstream.
    pub fn emit(&mut self, key: Key, value: i64, event_time: SimTime) {
        self.out.push(Record::data(key, value, event_time));
    }

    /// Key-group of an arbitrary key (for emitted records).
    pub fn kg_of(&self, key: Key) -> KeyGroup {
        key_group_of(key, self.max_key_groups)
    }
}

/// Context for watermark processing (window firing).
pub struct WmCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The new operator watermark.
    pub watermark: SimTime,
    /// Keyed state backend of this instance.
    pub state: &'a mut StateBackend,
    /// Output collector.
    pub out: &'a mut Vec<Record>,
}

/// User logic for a Transform operator. One boxed instance per parallel
/// subtask; keyed state must live in the [`StateBackend`] (so it can
/// migrate), per-subtask scalars may live in `self`.
pub trait OperatorLogic: Send {
    /// Process one data record (multiplicity `rec.count`).
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record);

    /// The operator watermark advanced; fire windows etc.
    fn on_watermark(&mut self, _ctx: &mut WmCtx<'_>) {}

    /// Service time of one record (multiplied by its `count`). Every
    /// record of an operator costs the same, so quantum assembly reads it
    /// once per run.
    fn service_time(&self) -> SimTime;

    /// Busy time charged per watermark advance (window firing cost).
    fn watermark_cost(&self) -> SimTime {
        0
    }
}

// ---------------------------------------------------------------------------
// Stock operators
// ---------------------------------------------------------------------------

/// Stateless pass-through with a fixed per-record cost (parse/filter stages).
pub struct Relay {
    /// Per-record service time.
    pub service: SimTime,
}

impl OperatorLogic for Relay {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        let mut r = rec.clone();
        r.origin = (crate::ids::InstId(u32::MAX), 0); // re-stamped at emission
        ctx.out.push(r);
    }
    fn service_time(&self) -> SimTime {
        self.service
    }
}

/// Stateless re-key: the emitted key becomes the record's `value` field
/// (workloads use this, e.g. user→channel in the Twitch pipeline).
pub struct ReKeyByValue {
    /// Per-record service time.
    pub service: SimTime,
}

impl OperatorLogic for ReKeyByValue {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        let mut r = rec.clone();
        r.key = rec.value.unsigned_abs();
        r.origin = (crate::ids::InstId(u32::MAX), 0);
        ctx.out.push(r);
    }
    fn service_time(&self) -> SimTime {
        self.service
    }
}

/// Keyed running aggregate (count + sum); emits the running sum per record.
///
/// This is the scaling operator of the paper's custom 3-operator workload:
/// its state size is controlled via `bytes_per_key` and the key universe.
pub struct KeyedAgg {
    /// Per-record service time.
    pub service: SimTime,
    /// Nominal state bytes added when a key is first seen.
    pub bytes_per_key: u64,
    /// Nominal state bytes added per record (0 = plateau at keys*bytes_per_key).
    pub bytes_per_record: u64,
    /// Emit one output per this many input records (1 = every record).
    pub emit_every: u32,
}

/// Keyed stateful stage that passes records through unchanged while
/// accumulating per-key state (session/engagement stages of the Twitch
/// pipeline, where downstream operators still need the original value).
pub struct KeyedTouch {
    /// Per-record service time.
    pub service: SimTime,
    /// Nominal state bytes added when a key is first seen.
    pub bytes_per_key: u64,
    /// Nominal state bytes added per record.
    pub bytes_per_record: u64,
}

impl OperatorLogic for KeyedTouch {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        let fresh = {
            let v = ctx.state.entry_or(ctx.kg, rec.key, || StateValue::Count(0));
            let fresh = matches!(v, StateValue::Count(0));
            if let StateValue::Count(c) = v {
                *c += rec.count as u64;
            }
            fresh
        };
        if fresh && self.bytes_per_key > 0 {
            ctx.state
                .add_bytes(ctx.kg, rec.key, self.bytes_per_key as i64);
        }
        if self.bytes_per_record > 0 {
            ctx.state.add_bytes(
                ctx.kg,
                rec.key,
                (self.bytes_per_record * rec.count as u64) as i64,
            );
        }
        let mut r = rec.clone();
        r.origin = (crate::ids::InstId(u32::MAX), 0);
        ctx.out.push(r);
    }
    fn service_time(&self) -> SimTime {
        self.service
    }
}

impl OperatorLogic for KeyedAgg {
    // checker:hot-path
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        // One probe of the state map per record: freshness, the update and
        // the running sum to emit all come from this borrow.
        let (fresh, total) = {
            let v = ctx
                .state
                .entry_or(ctx.kg, rec.key, || StateValue::Sum { count: 0, sum: 0 });
            let fresh = matches!(v, StateValue::Sum { count: 0, .. });
            let total = match v {
                StateValue::Sum { count, sum } => {
                    *count += rec.count as u64;
                    *sum += rec.value * rec.count as i64;
                    *sum
                }
                _ => 0,
            };
            (fresh, total)
        };
        if fresh {
            ctx.state
                .add_bytes(ctx.kg, rec.key, self.bytes_per_key as i64);
        }
        if self.bytes_per_record > 0 {
            ctx.state.add_bytes(
                ctx.kg,
                rec.key,
                (self.bytes_per_record * rec.count as u64) as i64,
            );
        }
        if self.emit_every <= 1 || rec.origin.1.is_multiple_of(self.emit_every as u64) {
            ctx.emit(rec.key, total, rec.event_time);
        }
    }
    fn service_time(&self) -> SimTime {
        self.service
    }
}

/// Keyed sliding-window aggregate (the scaling operator of NEXMark Q7 and
/// the Twitch loyalty stage).
pub struct WindowAgg {
    /// Window size (event time).
    pub size: SimTime,
    /// Slide interval.
    pub slide: SimTime,
    /// Aggregation function.
    pub agg: Agg,
    /// Per-record service time.
    pub service: SimTime,
    /// Nominal state bytes per buffered record.
    pub bytes_per_record: u64,
    /// Per-watermark firing cost.
    pub fire_cost: SimTime,
    /// Last fired window end. It is per subtask, not per key-group: a
    /// key-group that moves to a subtask whose `last_fired` lags re-fires
    /// windows its old owner fired, and one that moves to a subtask ahead
    /// of it can skip windows.
    pub last_fired: SimTime,
    scratch: FireScratch,
}

impl WindowAgg {
    /// Standard construction with `last_fired` starting at zero.
    pub fn new(
        size: SimTime,
        slide: SimTime,
        agg: Agg,
        service: SimTime,
        bytes_per_record: u64,
    ) -> Self {
        Self {
            size,
            slide,
            agg,
            service,
            bytes_per_record,
            fire_cost: service * 4,
            last_fired: 0,
            scratch: FireScratch::default(),
        }
    }
}

impl OperatorLogic for WindowAgg {
    // checker:hot-path
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        let rows = ctx.state.panes_mut(ctx.kg, rec.key);
        rows.add(
            rec.key,
            rec.event_time,
            rec.value,
            rec.count,
            self.slide,
            self.agg,
        );
        ctx.state.add_bytes(
            ctx.kg,
            rec.key,
            (self.bytes_per_record * rec.count as u64) as i64,
        );
    }

    // checker:hot-path
    fn on_watermark(&mut self, ctx: &mut WmCtx<'_>) {
        // Fire every window whose end has passed the watermark: the ends
        // `first_end, first_end + slide, ..= last_end`.
        let slide = self.slide;
        let first_end = ((self.last_fired / slide) + 1) * slide;
        if first_end > ctx.watermark {
            return;
        }
        let last_end = first_end + (ctx.watermark - first_end) / slide * slide;
        self.last_fired = last_end;
        let (size, agg, bpr) = (self.size, self.agg, self.bytes_per_record);
        let scratch = &mut self.scratch;
        let WmCtx { state, out, .. } = ctx;
        state.for_each_panes_mut(|rows| {
            let evicted = rows.fire(
                first_end,
                last_end,
                slide,
                size,
                agg,
                scratch,
                |k, v, end| out.push(Record::data(k, v, end)),
            );
            evicted * bpr
        });
    }

    fn service_time(&self) -> SimTime {
        self.service
    }
    fn watermark_cost(&self) -> SimTime {
        self.fire_cost
    }
}

/// Keyed windowed join for NEXMark Q8: side A records carry `value >= 0`
/// (persons), side B `value < 0` (auctions by that person). Emits a record
/// when an auction finds its person within the window.
pub struct WindowJoin {
    /// Window size (event time).
    pub size: SimTime,
    /// Per-record service time.
    pub service: SimTime,
    /// Nominal state bytes per buffered element.
    pub bytes_per_record: u64,
}

impl OperatorLogic for WindowJoin {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        let lo = rec.event_time.saturating_sub(self.size) as i64;
        let t = rec.event_time as i64;
        let mut emit = None;
        {
            let v = ctx
                .state
                .entry_or(ctx.kg, rec.key, || StateValue::Lists(Vec::new()));
            // One list, both sides: persons as `t`, auctions as `!t`.
            if let StateValue::Lists(l) = v {
                if rec.value >= 0 {
                    l.push(t);
                } else {
                    // New-person join: person created within the window
                    // (auctions are negative, so `>= lo` sees persons only).
                    if l.iter().any(|&e| e >= lo) {
                        emit = Some((rec.key, rec.event_time));
                    }
                    l.push(!t);
                }
            }
        }
        ctx.state.add_bytes(
            ctx.kg,
            rec.key,
            (self.bytes_per_record * rec.count as u64) as i64,
        );
        if let Some((k, et)) = emit {
            ctx.emit(k, 1, et);
        }
    }

    // checker:hot-path
    fn on_watermark(&mut self, ctx: &mut WmCtx<'_>) {
        // Trim both sides to the window horizon.
        let horizon = ctx.watermark.saturating_sub(self.size) as i64;
        let bpr = self.bytes_per_record;
        ctx.state.for_each_entry_mut(|_, v| match v {
            StateValue::Lists(l) => {
                let before = l.len();
                l.retain(|&e| (if e < 0 { !e } else { e }) >= horizon);
                (before - l.len()) as u64 * bpr
            }
            _ => 0,
        });
    }

    fn service_time(&self) -> SimTime {
        self.service
    }
    fn watermark_cost(&self) -> SimTime {
        self.service * 2
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::ids::{sub_group_of, InstId};
    use crate::window::{OnPanic, PaneSet};

    fn ctx_parts(kgs: u16) -> (StateBackend, Vec<Record>) {
        let mut b = StateBackend::new(kgs, 1);
        for g in 0..kgs {
            b.ensure_group(KeyGroup(g));
        }
        (b, Vec::new())
    }

    fn run_record(
        logic: &mut dyn OperatorLogic,
        state: &mut StateBackend,
        out: &mut Vec<Record>,
        rec: Record,
    ) {
        let kg = key_group_of(rec.key, 16);
        let mut ctx = OpCtx {
            now: rec.event_time,
            watermark: 0,
            kg,
            state,
            out,
            max_key_groups: 16,
        };
        logic.on_record(&mut ctx, &rec);
    }

    #[test]
    fn relay_passes_through() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = Relay { service: 10 };
        run_record(&mut op, &mut st, &mut out, Record::data(5, 99, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, 5);
        assert_eq!(out[0].value, 99);
    }

    #[test]
    fn rekey_by_value() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = ReKeyByValue { service: 10 };
        run_record(&mut op, &mut st, &mut out, Record::data(5, 42, 1));
        assert_eq!(out[0].key, 42);
    }

    #[test]
    fn keyed_agg_accumulates_and_tracks_bytes() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = KeyedAgg {
            service: 10,
            bytes_per_key: 1000,
            bytes_per_record: 10,
            emit_every: 1,
        };
        let mut r = Record::data(8, 3, 1);
        r.origin = (InstId(0), 0);
        run_record(&mut op, &mut st, &mut out, r.clone());
        r.origin.1 = 1;
        run_record(&mut op, &mut st, &mut out, r);
        assert_eq!(st.snapshot_counts()[&8], 2);
        // 1000 on first sight + 10 per record.
        assert_eq!(st.total_bytes(), 1020);
        assert_eq!(out.last().map(|r| r.value), Some(6));
    }

    #[test]
    fn keyed_state_allocates_no_pane_store() {
        // Only a window operator pays for pane rows: a backend fed by
        // `KeyedAgg` alone holds none in any sub-group, at fanout 1 and 4.
        for fanout in [1, 4] {
            let mut st = StateBackend::new(16, fanout);
            for g in 0..16 {
                st.ensure_group(KeyGroup(g));
            }
            let mut out = Vec::new();
            let mut op = KeyedAgg {
                service: 10,
                bytes_per_key: 100,
                bytes_per_record: 1,
                emit_every: 1,
            };
            for k in 0..200 {
                run_record(&mut op, &mut st, &mut out, Record::data(k, 1, k));
            }
            assert_eq!(st.total_keys(), 200);
            for g in (0..16).map(KeyGroup) {
                for unit in st.extract_group(g) {
                    assert!(unit.state.panes.is_none(), "{g}/{}", unit.sub);
                }
            }
        }
    }

    #[test]
    fn window_agg_fires_on_watermark() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = WindowAgg::new(100, 50, Agg::Max, 5, 100);
        run_record(&mut op, &mut st, &mut out, Record::data(1, 7, 10));
        run_record(&mut op, &mut st, &mut out, Record::data(1, 12, 60));
        assert!(out.is_empty());
        let mut wm = WmCtx {
            now: 200,
            watermark: 100,
            state: &mut st,
            out: &mut out,
        };
        op.on_watermark(&mut wm);
        // Windows ending at 50 and 100 fire; the 100-end window sees both.
        assert!(out.iter().any(|r| r.value == 12), "{out:?}");
        assert!(out.iter().any(|r| r.value == 7));
    }

    #[test]
    fn window_agg_evicts_and_frees_bytes() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = WindowAgg::new(100, 50, Agg::Sum, 5, 64);
        run_record(&mut op, &mut st, &mut out, Record::data(2, 1, 10));
        assert_eq!(st.total_bytes(), 64);
        let mut wm = WmCtx {
            now: 500,
            watermark: 400,
            state: &mut st,
            out: &mut out,
        };
        op.on_watermark(&mut wm);
        assert_eq!(st.total_bytes(), 0, "evicted pane should free bytes");
    }

    /// One `WindowAgg` subtask under test, driven in lockstep with its
    /// oracle: a `PaneSet` per key in its own map, fired with one
    /// `window_agg` per end and `evict_before` at the last end's horizon,
    /// keys visited in (key-group, sub-group, key) order. After every
    /// watermark [`Self::watermark`] compares the fired `(key, value, end)`
    /// sequence, every group's bytes, `snapshot_counts` and `total_keys`.
    struct Subtask {
        op: WindowAgg,
        state: StateBackend,
        out: Vec<Record>,
        oracle: BTreeMap<Key, PaneSet>,
        oracle_last_fired: SimTime,
    }

    impl Subtask {
        fn new(op: WindowAgg, fanout: u8, groups: std::ops::Range<u16>) -> Self {
            let mut state = StateBackend::new(16, fanout);
            for g in groups {
                state.ensure_group(KeyGroup(g));
            }
            Self {
                op,
                state,
                out: Vec::new(),
                oracle: BTreeMap::new(),
                oracle_last_fired: 0,
            }
        }

        /// A fresh operator instance (`last_fired = 0`, as after a
        /// scale-out) takes over the state.
        fn restart(&mut self) {
            let op = &self.op;
            self.op = WindowAgg::new(op.size, op.slide, op.agg, op.service, op.bytes_per_record);
            self.oracle_last_fired = 0;
        }

        fn record(&mut self, rec: Record) {
            let (slide, agg) = (self.op.slide, self.op.agg);
            let p = self.oracle.entry(rec.key).or_default();
            p.add(rec.event_time, rec.value, rec.count as u64, slide, agg);
            run_record(&mut self.op, &mut self.state, &mut self.out, rec);
        }

        fn watermark(&mut self, wm: SimTime, ctx: &str) {
            self.op.on_watermark(&mut WmCtx {
                now: wm,
                watermark: wm,
                state: &mut self.state,
                out: &mut self.out,
            });
            let (size, slide, agg) = (self.op.size, self.op.slide, self.op.agg);
            let mut expected = Vec::new();
            let first_end = (self.oracle_last_fired / slide + 1) * slide;
            if first_end <= wm {
                let last_end = first_end + (wm - first_end) / slide * slide;
                self.oracle_last_fired = last_end;
                let fanout = self.state.fanout();
                let mut keys: Vec<Key> = self.oracle.keys().copied().collect();
                keys.sort_by_key(|&k| (key_group_of(k, 16), sub_group_of(k, 16, fanout), k));
                for key in keys {
                    let p = self.oracle.get_mut(&key).expect("listed");
                    for end in (first_end..=last_end).step_by(slide as usize) {
                        if let Some((val, _)) = p.window_agg(end, size, agg) {
                            expected.push((key, val, end));
                        }
                    }
                    p.evict_before(last_end.saturating_sub(size));
                }
            }
            let fired: Vec<(Key, i64, SimTime)> = self
                .out
                .drain(..)
                .map(|r| (r.key, r.value, r.event_time))
                .collect();
            assert_eq!(fired, expected, "{ctx}, watermark {wm}: fired");
            self.check(ctx);
        }

        fn check(&self, ctx: &str) {
            let bpr = self.op.bytes_per_record;
            for g in (0..16).map(KeyGroup) {
                let records: u64 = self
                    .oracle
                    .iter()
                    .filter(|&(&k, _)| key_group_of(k, 16) == g)
                    .map(|(_, p)| p.total_count())
                    .sum();
                assert_eq!(
                    self.state.group_bytes(g),
                    records * bpr,
                    "{ctx}: bytes of {g}"
                );
            }
            let counts: BTreeMap<Key, u64> = self.state.snapshot_counts().into_iter().collect();
            let expected: BTreeMap<Key, u64> = self
                .oracle
                .iter()
                .map(|(&k, p)| (k, p.total_count()))
                .collect();
            assert_eq!(counts, expected, "{ctx}: counts");
            assert_eq!(self.state.total_keys(), self.oracle.len(), "{ctx}: keys");
        }
    }

    /// Move sub-group `kg/sub` from `from` to `to`: the backend's unit via
    /// `extract`/`install`, the oracle's keys by hand.
    fn migrate(from: &mut Subtask, to: &mut Subtask, kg: KeyGroup, sub: u8) {
        let unit = from.state.extract(kg, sub).expect("held");
        to.state.install(unit, true);
        let fanout = from.state.fanout();
        let moved: Vec<Key> = from
            .oracle
            .keys()
            .copied()
            .filter(|&k| key_group_of(k, 16) == kg && sub_group_of(k, 16, fanout) == sub)
            .collect();
        for k in moved {
            let p = from.oracle.remove(&k).expect("listed");
            to.oracle.insert(k, p);
        }
    }

    /// A random window operator for `seed`: fanout 1 and 4, every `Agg`.
    fn random_window(seed: u64, rng: &mut simcore::DetRng) -> (WindowAgg, u8) {
        let fanout = [1, 4][seed as usize % 2];
        let agg = [Agg::Max, Agg::Sum, Agg::Count][seed as usize / 2 % 3];
        let slide = 1 + rng.below(50);
        let size = slide * (1 + rng.below(8));
        let bpr = 1 + rng.below(100);
        (WindowAgg::new(size, slide, agg, 5, bpr), fanout)
    }

    /// A random record around watermark `wm`: mostly in order within three
    /// slides ahead, one in four late by up to three window sizes. Half go
    /// to three hot keys, so a key's records often share a slide interval.
    fn random_record(rng: &mut simcore::DetRng, wm: SimTime, op: &WindowAgg) -> Record {
        let t = match rng.below(4) {
            0 => wm.saturating_sub(rng.below(3 * op.size + 1)),
            _ => wm + rng.below(3 * op.slide),
        };
        let keys = [3, 40][rng.below(2) as usize];
        let key = rng.below(keys);
        let mut rec = Record::data(key, rng.below(200) as i64 - 100, t);
        rec.count = 1 + rng.below(3) as u32;
        rec
    }

    /// A random watermark step: 0, under one slide, one slide, or a jump
    /// of many slides (multi-end firings).
    fn random_step(rng: &mut simcore::DetRng, slide: SimTime) -> SimTime {
        match rng.below(5) {
            0 => 0,
            1 => rng.below(slide),
            2 => slide,
            _ => slide * (2 + rng.below(30)),
        }
    }

    #[test]
    fn window_firing_matches_the_per_end_oracle() {
        // Random keys at fanout 1 and 4, every `Agg`, in-order, late and
        // out-of-order records, watermark steps of 0, < 1, 1 and many
        // slides, and now and then a fresh subtask (`last_fired = 0`, as
        // after a scale-out) taking over the state behind a far watermark.
        for seed in 0..240u64 {
            let _case = OnPanic(format!(
                "window_firing_matches_the_per_end_oracle seed {seed}"
            ));
            let mut rng = simcore::DetRng::seed(seed);
            let (op, fanout) = random_window(seed, &mut rng);
            let mut task = Subtask::new(op, fanout, 0..16);
            let mut wm: SimTime = 0;
            for round in 0..40 {
                for _ in 0..rng.below(24) {
                    let rec = random_record(&mut rng, wm, &task.op);
                    task.record(rec);
                }
                if rng.below(10) == 0 {
                    task.restart();
                }
                wm += random_step(&mut rng, task.op.slide);
                let op = &task.op;
                let ctx = format!(
                    "seed {seed} round {round}: fanout {fanout}, {:?}, size {}, slide {}",
                    op.agg, op.size, op.slide
                );
                task.watermark(wm, &ctx);
            }
        }
    }

    #[test]
    fn window_state_migrates_mid_stream() {
        // Sub-groups move between two subtasks mid-stream, at fanout 1 and
        // 4: the receiver starts as a fresh `WindowAgg` (`last_fired = 0`)
        // and keeps adding to and firing the moved state, later moves go
        // either way, and both sides match their oracles throughout.
        for seed in 0..60u64 {
            let _case = OnPanic(format!("window_state_migrates_mid_stream seed {seed}"));
            let mut rng = simcore::DetRng::seed(seed ^ 0x5EED);
            let (op, fanout) = random_window(seed, &mut rng);
            let fresh = WindowAgg::new(op.size, op.slide, op.agg, 5, op.bytes_per_record);
            let mut tasks = [
                Subtask::new(op, fanout, 0..16),
                Subtask::new(fresh, fanout, 0..0),
            ];
            let first_move = 5 + rng.below(10);
            let mut wm: SimTime = 0;
            for round in 0..40 {
                for _ in 0..rng.below(24) {
                    let rec = random_record(&mut rng, wm, &tasks[0].op);
                    let kg = key_group_of(rec.key, 16);
                    let sub = sub_group_of(rec.key, 16, fanout);
                    let owner = usize::from(!tasks[0].state.holds(kg, sub));
                    tasks[owner].record(rec);
                }
                if round == first_move || (round > first_move && rng.below(6) == 0) {
                    let from = usize::from(round > first_move && rng.below(2) == 0);
                    let held: Vec<(KeyGroup, u8)> = (0..16)
                        .flat_map(|g| (0..fanout).map(move |s| (KeyGroup(g), s)))
                        .filter(|&(g, s)| tasks[from].state.holds(g, s))
                        .collect();
                    if !held.is_empty() {
                        let (kg, sub) = held[rng.below(held.len() as u64) as usize];
                        let [a, b] = &mut tasks;
                        let (src, dst) = if from == 0 { (a, b) } else { (b, a) };
                        migrate(src, dst, kg, sub);
                    }
                }
                wm += random_step(&mut rng, tasks[0].op.slide);
                for (i, task) in tasks.iter_mut().enumerate() {
                    // The receiver sees no watermark before its first unit,
                    // so its first firing starts from `last_fired = 0`.
                    if i == 0 || round >= first_move {
                        task.watermark(wm, &format!("seed {seed} round {round} subtask {i}"));
                    }
                }
            }
        }
    }

    #[test]
    fn join_emits_on_matching_auction() {
        let (mut st, mut out) = ctx_parts(16);
        let mut op = WindowJoin {
            size: 100,
            service: 5,
            bytes_per_record: 32,
        };
        run_record(&mut op, &mut st, &mut out, Record::data(3, 1, 10)); // person
        run_record(&mut op, &mut st, &mut out, Record::data(3, -1, 50)); // auction
        assert_eq!(out.len(), 1);
        // Auction outside window does not match.
        out.clear();
        run_record(&mut op, &mut st, &mut out, Record::data(3, -1, 500));
        assert!(out.is_empty());
    }

    #[test]
    fn join_state_survives_trims_per_key_and_group() {
        let (size, bpr) = (100, 32);
        let (mut st, mut out) = ctx_parts(16);
        let mut op = WindowJoin {
            size,
            service: 5,
            bytes_per_record: bpr,
        };
        // k1 and k2 share a key-group; k3 and k4 sit in two others.
        let kg = |k| key_group_of(k, 16);
        let k1 = 1;
        let k2 = (2..).find(|&k| kg(k) == kg(k1)).unwrap();
        let k3 = (2..).find(|&k| kg(k) != kg(k1)).unwrap();
        let k4 = (2..).find(|&k| kg(k) != kg(k1) && kg(k) != kg(k3)).unwrap();
        let person = |k, t| Record::data(k, 1, t);
        let auction = |k, t| Record::data(k, -1, t);
        for rec in [
            auction(k1, 5), // before any person: no join
            person(k1, 10),
            auction(k1, 60), // joins p10
            person(k2, 40),
            auction(k2, 140), // p40 sits exactly at the window edge: joins
            auction(k2, 141), // one past it: no join
            person(k3, 30),
            person(k3, 150),
            auction(k4, 20), // k4 never sees a person
            auction(k4, 130),
        ] {
            run_record(&mut op, &mut st, &mut out, rec);
        }
        let joins: Vec<(Key, i64, SimTime)> =
            out.iter().map(|r| (r.key, r.value, r.event_time)).collect();
        assert_eq!(joins, vec![(k1, 1, 60), (k2, 1, 140)]);

        // After each watermark: the surviving elements per key, and each
        // key-group's bytes equal to its kept elements × bytes_per_record.
        let check = |st: &StateBackend, kept: [u64; 4], when: &str| {
            let counts = st.snapshot_counts();
            for (k, n) in [k1, k2, k3, k4].into_iter().zip(kept) {
                assert_eq!(counts[&k], n, "{when}: key {k}");
            }
            for g in (0..16).map(KeyGroup) {
                let n: u64 = [k1, k2, k3, k4]
                    .into_iter()
                    .zip(kept)
                    .filter(|&(k, _)| kg(k) == g)
                    .map(|(_, n)| n)
                    .sum();
                assert_eq!(st.group_bytes(g), n * bpr, "{when}: bytes of {g}");
            }
        };
        check(&st, [3, 3, 2, 2], "before any watermark");
        for (wm, kept, when) in [
            (100, [3, 3, 2, 2], "horizon 0 trims neither side"),
            (108, [2, 3, 2, 2], "horizon 8 trims one auction"),
            (135, [1, 3, 1, 1], "horizon 35 trims persons and auctions"),
            (300, [0, 0, 0, 0], "horizon 200 trims everything"),
        ] {
            op.on_watermark(&mut WmCtx {
                now: wm,
                watermark: wm,
                state: &mut st,
                out: &mut out,
            });
            check(&st, kept, when);
        }
        assert_eq!(out.len(), 2, "trimming emits nothing");
    }
}
