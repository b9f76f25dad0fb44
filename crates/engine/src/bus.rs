//! The engine event/metrics bus: typed event classes, bounded per-class
//! channels with explicit drop policies, and an in-memory sink.
//!
//! Until now every metric left the engine *after* the run, scraped out of
//! `RunReport`. The bus is the in-flight observation layer: the world
//! publishes typed events (per-instance metrics ticks, scale-plan
//! decisions, checkpoint lifecycle, backpressure transitions, sync-stats
//! epochs) as they happen, and a configured sink consumes them — without
//! perturbing a single digest bit.
//!
//! # Event classes, capacities and drop rules
//!
//! Every event belongs to exactly one [`BusClass`], and each class is a
//! bounded channel with an explicit capacity and [`DropPolicy`], following
//! the bounded-channel capacity guidelines the exemplars converged on
//! (unit signals 1, control 8–16, value data 32–64, bursty events 64–128):
//!
//! | class | rate | capacity | policy |
//! |-------|------|----------|--------|
//! | [`BusClass::Metrics`] | one event per instance per sample | 64 | drop-oldest |
//! | [`BusClass::Scale`] | a handful per rescale | 16 | block |
//! | [`BusClass::Checkpoint`] | two per checkpoint | 16 | block |
//! | [`BusClass::Backpressure`] | bursty (block/resume transitions) | 128 | drop-oldest |
//! | [`BusClass::Sync`] | one per sample / parallel epoch | 32 | block |
//!
//! **Block** means must-deliver: when the channel is full the producer
//! "blocks" by synchronously draining the class to the sink before
//! admitting (the honest single-threaded analogue of a blocking send —
//! the producer pays the consumer's latency; `blocking_flushes` counts
//! how often). **Drop-oldest** means high-rate telemetry: the oldest
//! queued event is discarded and counted in `dropped`. Both counters —
//! plus the per-class occupancy high-water mark — are deterministic
//! functions of the simulation and are surfaced in `RunReport`, so a lossy
//! run *says* it was lossy, diffably, across reruns.
//!
//! # Sinks
//!
//! * [`BusSinkKind::Null`] — the default. The bus is disabled: `publish`
//!   is a single branch, the channels are never even allocated, and the
//!   steady-state dispatch path allocates and hashes nothing. Digests are
//!   byte-identical to a build without the bus.
//! * [`BusSinkKind::Mem`] — the channels drain into an in-memory log,
//!   taken with [`Bus::take_log`] after a final [`Bus::drain`]. The bus
//!   spawns no thread and touches no file: `scenario --events FILE` turns
//!   this sink on and writes the log as JSONL ([`BusEvent::write_jsonl`])
//!   after the run, on the sequential engine and on the thread-per-region
//!   executor alike.
//!
//! # Drain points
//!
//! Channels drain to the log at deliberately *low-rate* points, never on
//! the per-record hot path: every [`DRAIN_EVERY_SAMPLES`]-th metrics
//! sample ([`Bus::on_sample`]), at each parallel epoch end, when a
//! block-class channel fills, and at the final [`Bus::drain`] the run's
//! owner makes before taking the log. Between drains a drop-oldest class
//! that overflows genuinely drops — the counters are the honest record of
//! it.
//!
//! # Memory bound
//!
//! The log grows with the run, but slowly. Between two periodic drains
//! the drop-oldest classes pass at most their capacities to the log (64
//! metrics ticks and 128 backpressure transitions per 8 samples), and the
//! block classes carry a handful of events per rescale, checkpoint or
//! sample. The longest run in the repo, full-length
//! `fig10_11/Q7/DRRS/seed1`, sinks 11,274 events: about 0.63 MB at 56
//! bytes per [`BusEvent`], or 1.49 MB as JSONL. A streaming writer thread
//! would save that much memory and nothing else, so there is none.
//!
//! # Determinism and parallel merged emission
//!
//! Publishing never touches metrics, RNG or event ordering, so the bus is
//! digest-neutral by construction (enforced by proptests: `Null` vs `Mem`
//! produce byte-identical digests, sequentially and under `run_parallel`).
//! Every counter is a function of the deterministic event timeline, so two
//! runs of the same spec report identical drop/lag numbers.
//!
//! Under the thread-per-region executor each replica buffers its own
//! region's events in memory, and [`merge_region_logs`] folds the
//! per-region buffers in region order by stable-sorting on
//! `(at, region)` — exactly mirroring
//! [`Observables::merge`](crate::world::Observables::merge), whose
//! `(t, region)` key reproduces the sequential region-major recording
//! order. The periodic sampler is pinned to region 0, so in parallel runs
//! per-instance metrics ticks cover region-0 instances only (ticks for
//! other regions' instances would read state frozen at replica pruning
//! time); whole-fleet snapshots come from `Observables`, which merges
//! exactly.

use std::collections::VecDeque;
use std::io;

use simcore::time::SimTime;

/// Number of event classes (see the table in the module docs).
pub const CLASS_COUNT: usize = 5;

/// Drain the channels to the log every this many `Sample` events (plus
/// at block-class overflow, parallel epoch ends, and the final drain).
/// The drain interval is deliberately coarser than the publish rate so
/// the drop/lag accounting exercises real bounded-channel behavior.
pub const DRAIN_EVERY_SAMPLES: u32 = 8;

/// The typed event classes (one bounded channel each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusClass {
    /// Per-instance metrics ticks (published at each `Ev::Sample`).
    Metrics,
    /// Scale-plan decisions and deployment completions.
    Scale,
    /// Checkpoint/barrier lifecycle (barrier injection, sink completion).
    Checkpoint,
    /// Backpressure transitions (sender blocked / resumed).
    Backpressure,
    /// Synchronization accounting epochs (region scheduler / parallel
    /// executor).
    Sync,
}

impl BusClass {
    /// All classes, in channel-index order.
    pub const ALL: [BusClass; CLASS_COUNT] = [
        BusClass::Metrics,
        BusClass::Scale,
        BusClass::Checkpoint,
        BusClass::Backpressure,
        BusClass::Sync,
    ];

    /// Stable lowercase name (used in JSONL output and counters).
    pub fn name(self) -> &'static str {
        match self {
            BusClass::Metrics => "metrics",
            BusClass::Scale => "scale",
            BusClass::Checkpoint => "checkpoint",
            BusClass::Backpressure => "backpressure",
            BusClass::Sync => "sync",
        }
    }

    /// Channel capacity, per the module-docs table.
    pub fn capacity(self) -> usize {
        match self {
            BusClass::Metrics => 64,
            BusClass::Scale => 16,
            BusClass::Checkpoint => 16,
            BusClass::Backpressure => 128,
            BusClass::Sync => 32,
        }
    }

    /// Drop policy, per the module-docs table.
    pub fn policy(self) -> DropPolicy {
        match self {
            BusClass::Metrics | BusClass::Backpressure => DropPolicy::DropOldest,
            BusClass::Scale | BusClass::Checkpoint | BusClass::Sync => DropPolicy::Block,
        }
    }
}

/// What a full channel does with the next event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Must-deliver: synchronously drain the class to the sink, then
    /// admit. Nothing is ever lost; `blocking_flushes` counts the stalls.
    Block,
    /// High-rate telemetry: discard the oldest queued event and count it.
    DropOldest,
}

/// One published event. Plain `Copy` data — publishing never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Scheduler region whose dispatch recorded it (0 on single-region
    /// runs). The merge key for parallel folding, like
    /// `Observables::merge`.
    pub region: u8,
    /// The payload.
    pub kind: BusEventKind,
}

/// The typed payloads. All variants are fixed-size plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BusEventKind {
    /// Per-instance progress snapshot at a metrics sample.
    MetricsTick {
        /// Instance id.
        inst: u32,
        /// Records processed so far.
        processed: u64,
        /// Nominal state bytes held.
        state_bytes: u64,
        /// Operator watermark.
        watermark: SimTime,
    },
    /// A scale plan was computed and committed (scaling period begins).
    ScalePlanned {
        /// The scaled operator.
        op: u32,
        /// Parallelism before.
        old_par: u32,
        /// Parallelism after.
        new_par: u32,
        /// Key-group moves in the plan.
        moves: u64,
        /// Scale epoch.
        epoch: u32,
    },
    /// Newly deployed containers became operational (`DeployDone`).
    ScaleDeployed {
        /// Scale epoch.
        epoch: u32,
    },
    /// A checkpoint's barriers were injected at the sources.
    CheckpointStart {
        /// Checkpoint id.
        id: u64,
    },
    /// A sink instance completed barrier alignment for this checkpoint.
    CheckpointDone {
        /// Checkpoint id.
        id: u64,
    },
    /// A sender's output backlog crossed the block watermark.
    BackpressureBlock {
        /// The blocked sender instance.
        inst: u32,
    },
    /// A blocked sender drained below the resume watermark.
    BackpressureResume {
        /// The resumed sender instance.
        inst: u32,
    },
    /// Synchronization accounting. Sequential multi-region runs publish
    /// the cumulative region-scheduler `SyncStats` at each sample drain;
    /// the thread-per-region executor publishes per-worker cumulative
    /// counters at each epoch end (`merged` = cross messages shipped,
    /// `grants` = busy epochs).
    SyncEpoch {
        /// Barrier rounds (parallel) or dispatched runs (sequential).
        epochs: u64,
        /// Events dispatched so far.
        dispatched: u64,
        /// Merged runs (sequential) / cross messages shipped (parallel).
        merged: u64,
        /// Min-rule grants (sequential) / busy epochs (parallel).
        grants: u64,
    },
}

impl BusEvent {
    /// The class (and therefore channel) this event belongs to.
    pub fn class(&self) -> BusClass {
        match self.kind {
            BusEventKind::MetricsTick { .. } => BusClass::Metrics,
            BusEventKind::ScalePlanned { .. } | BusEventKind::ScaleDeployed { .. } => {
                BusClass::Scale
            }
            BusEventKind::CheckpointStart { .. } | BusEventKind::CheckpointDone { .. } => {
                BusClass::Checkpoint
            }
            BusEventKind::BackpressureBlock { .. } | BusEventKind::BackpressureResume { .. } => {
                BusClass::Backpressure
            }
            BusEventKind::SyncEpoch { .. } => BusClass::Sync,
        }
    }

    /// Serialize as one JSON line (the `--events` file format). Field
    /// order is fixed, so the output is byte-deterministic.
    pub fn write_jsonl(&self, w: &mut impl io::Write) -> io::Result<()> {
        let head = (self.at, self.region, self.class().name());
        match self.kind {
            BusEventKind::MetricsTick {
                inst,
                processed,
                state_bytes,
                watermark,
            } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"metrics_tick\",\
                 \"inst\":{inst},\"processed\":{processed},\"state_bytes\":{state_bytes},\
                 \"watermark\":{watermark}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::ScalePlanned {
                op,
                old_par,
                new_par,
                moves,
                epoch,
            } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"scale_planned\",\
                 \"op\":{op},\"old_par\":{old_par},\"new_par\":{new_par},\"moves\":{moves},\
                 \"epoch\":{epoch}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::ScaleDeployed { epoch } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"scale_deployed\",\
                 \"epoch\":{epoch}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::CheckpointStart { id } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"checkpoint_start\",\
                 \"id\":{id}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::CheckpointDone { id } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"checkpoint_done\",\
                 \"id\":{id}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::BackpressureBlock { inst } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"backpressure_block\",\
                 \"inst\":{inst}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::BackpressureResume { inst } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"backpressure_resume\",\
                 \"inst\":{inst}}}",
                head.0, head.1, head.2
            ),
            BusEventKind::SyncEpoch {
                epochs,
                dispatched,
                merged,
                grants,
            } => writeln!(
                w,
                "{{\"at\":{},\"region\":{},\"class\":\"{}\",\"kind\":\"sync_epoch\",\
                 \"epochs\":{epochs},\"dispatched\":{dispatched},\"merged\":{merged},\
                 \"grants\":{grants}}}",
                head.0, head.1, head.2
            ),
        }
    }
}

/// Which sink the bus feeds (selected from `EngineConfig`/`ScenarioSpec`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BusSinkKind {
    /// Bus disabled: `publish` is a single branch, nothing is allocated.
    #[default]
    Null,
    /// In-memory event log ([`Bus::take_log`]).
    Mem,
}

/// Deterministic lag/drop accounting, summed over classes where scalar.
/// Every field is a pure function of the simulated timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusSummary {
    /// Events admitted to a channel (drop-oldest discards still count —
    /// they were published; `dropped` says what never reached the sink).
    pub published: u64,
    /// Admitted events discarded by drop-oldest overflow.
    pub dropped: u64,
    /// Synchronous block-class drains forced by a full channel.
    pub blocking_flushes: u64,
    /// Highest channel occupancy observed across all classes.
    pub lag_max: u64,
    /// `dropped`, broken out per class (indexed like [`BusClass::ALL`]).
    pub class_drops: [u64; CLASS_COUNT],
}

impl BusSummary {
    /// Fold another replica's summary into this one (counters sum, the
    /// high-water mark takes the max).
    pub fn absorb(&mut self, o: &BusSummary) {
        self.published += o.published;
        self.dropped += o.dropped;
        self.blocking_flushes += o.blocking_flushes;
        self.lag_max = self.lag_max.max(o.lag_max);
        for (a, b) in self.class_drops.iter_mut().zip(o.class_drops.iter()) {
            *a += b;
        }
    }
}

/// One bounded per-class channel.
struct Chan {
    buf: VecDeque<BusEvent>,
    cap: usize,
    policy: DropPolicy,
    published: u64,
    dropped: u64,
    blocking_flushes: u64,
    max_depth: u64,
}

/// The event/metrics bus owned by a `World`. See the module docs.
pub struct Bus {
    /// Per-class channels, indexed like [`BusClass::ALL`]. Empty when the
    /// bus is disabled (`Null`): the disabled bus owns no buffers at all.
    chans: Vec<Chan>,
    /// The in-memory sink log.
    log: Vec<BusEvent>,
    /// Samples since the last periodic drain.
    samples: u32,
}

impl Bus {
    /// Build a bus for the configured sink. `Null` allocates nothing.
    pub fn new(kind: BusSinkKind) -> Self {
        let chans = if kind == BusSinkKind::Null {
            Vec::new()
        } else {
            BusClass::ALL
                .iter()
                .map(|c| Chan {
                    buf: VecDeque::with_capacity(c.capacity()),
                    cap: c.capacity(),
                    policy: c.policy(),
                    published: 0,
                    dropped: 0,
                    blocking_flushes: 0,
                    max_depth: 0,
                })
                .collect()
        };
        Self {
            chans,
            log: Vec::new(),
            samples: 0,
        }
    }

    /// Is the bus publishing (any sink but `Null`)?
    #[inline]
    pub fn enabled(&self) -> bool {
        !self.chans.is_empty()
    }

    /// Publish one event. With the `Null` sink this is a single branch —
    /// the steady-state dispatch path pays one predictable-not-taken
    /// compare and nothing else.
    // checker:hot-path
    #[inline]
    pub fn publish(&mut self, at: SimTime, region: u8, kind: BusEventKind) {
        if !self.enabled() {
            return;
        }
        self.admit(BusEvent { at, region, kind });
    }

    /// Admit an event to its class channel, applying the drop policy.
    /// Allocation-free: channels are pre-sized to their capacity and the
    /// occupancy invariant (`len <= cap <= buf.capacity()`) means the
    /// push below can never grow the buffer.
    // checker:hot-path
    fn admit(&mut self, ev: BusEvent) {
        let ci = ev.class() as usize;
        debug_assert!(
            self.chans[ci].buf.capacity() >= self.chans[ci].cap,
            "bus channel under-sized: an admit on the dispatch hot path would allocate"
        );
        if self.chans[ci].buf.len() == self.chans[ci].cap {
            match self.chans[ci].policy {
                DropPolicy::DropOldest => {
                    self.chans[ci].buf.pop_front();
                    self.chans[ci].dropped += 1;
                }
                DropPolicy::Block => {
                    self.chans[ci].blocking_flushes += 1;
                    self.flush_class(ci);
                }
            }
        }
        let c = &mut self.chans[ci];
        c.buf.push_back(ev);
        c.published += 1;
        if c.buf.len() as u64 > c.max_depth {
            c.max_depth = c.buf.len() as u64;
        }
    }

    /// Drain one class to the log (block-policy overflow, and `drain`).
    fn flush_class(&mut self, ci: usize) {
        self.log.extend(self.chans[ci].buf.drain(..));
    }

    /// Periodic drain pacing: called once per `Ev::Sample`; every
    /// [`DRAIN_EVERY_SAMPLES`]-th call drains all channels to the log.
    pub fn on_sample(&mut self) {
        if !self.enabled() {
            return;
        }
        self.samples += 1;
        if self.samples >= DRAIN_EVERY_SAMPLES {
            self.samples = 0;
            self.drain();
        }
    }

    /// Drain every class to the log, in class order (FIFO within each).
    pub fn drain(&mut self) {
        for ci in 0..self.chans.len() {
            self.flush_class(ci);
        }
    }

    /// Take the in-memory event log. Call [`Bus::drain`] first so the
    /// channels are empty.
    pub fn take_log(&mut self) -> Vec<BusEvent> {
        std::mem::take(&mut self.log)
    }

    /// The deterministic lag/drop accounting.
    pub fn summary(&self) -> BusSummary {
        let mut s = BusSummary::default();
        for (ci, c) in self.chans.iter().enumerate() {
            s.published += c.published;
            s.dropped += c.dropped;
            s.blocking_flushes += c.blocking_flushes;
            s.lag_max = s.lag_max.max(c.max_depth);
            s.class_drops[ci] = c.dropped;
        }
        s
    }
}

/// Fold per-replica event logs (indexed by region) into the deterministic
/// merged stream: concatenate in region order, then stable-sort by
/// `(at, region)` — the same key [`Observables::merge`] uses for latency
/// samples, which reproduces the sequential region-major recording order
/// for same-instant events while preserving each replica's own in-order
/// sub-sequence.
pub fn merge_region_logs(logs: Vec<Vec<BusEvent>>) -> Vec<BusEvent> {
    let mut all: Vec<BusEvent> = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for log in logs {
        all.extend(log);
    }
    all.sort_by_key(|e| (e.at, e.region));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(at: SimTime, inst: u32) -> BusEventKind {
        BusEventKind::MetricsTick {
            inst,
            processed: at,
            state_bytes: 0,
            watermark: at,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_unallocated() {
        let mut b = Bus::new(BusSinkKind::Null);
        assert!(!b.enabled());
        assert_eq!(b.chans.capacity(), 0, "disabled bus must own no buffers");
        b.publish(1, 0, tick(1, 0));
        b.on_sample();
        b.drain();
        assert_eq!(b.summary(), BusSummary::default());
        assert!(b.take_log().is_empty());
    }

    #[test]
    fn drop_oldest_overflow_counts_and_keeps_newest() {
        let mut b = Bus::new(BusSinkKind::Mem);
        let cap = BusClass::Metrics.capacity() as u64;
        for i in 0..cap + 10 {
            b.publish(i, 0, tick(i, i as u32));
        }
        let s = b.summary();
        assert_eq!(s.published, cap + 10);
        assert_eq!(s.dropped, 10);
        assert_eq!(s.class_drops[BusClass::Metrics as usize], 10);
        assert_eq!(s.lag_max, cap, "high-water mark is the full channel");
        b.drain();
        let log = b.take_log();
        assert_eq!(log.len() as u64, cap, "sink sees cap newest events");
        assert_eq!(log[0].at, 10, "the 10 oldest were dropped");
        assert_eq!(log.last().expect("non-empty").at, cap + 9);
    }

    #[test]
    fn block_policy_flushes_instead_of_dropping() {
        let mut b = Bus::new(BusSinkKind::Mem);
        let cap = BusClass::Checkpoint.capacity() as u64;
        for i in 0..cap + 3 {
            b.publish(i, 0, BusEventKind::CheckpointStart { id: i });
        }
        let s = b.summary();
        assert_eq!(s.published, cap + 3);
        assert_eq!(s.dropped, 0, "block classes never drop");
        assert_eq!(s.blocking_flushes, 1, "one forced drain at overflow");
        b.drain();
        let log = b.take_log();
        assert_eq!(log.len() as u64, cap + 3, "every event reached the sink");
        // Delivery preserves publish order within the class.
        for (i, ev) in log.iter().enumerate() {
            assert_eq!(ev.at, i as u64);
        }
    }

    #[test]
    fn periodic_drain_paces_at_the_sample_cadence() {
        let mut b = Bus::new(BusSinkKind::Mem);
        b.publish(5, 0, tick(5, 1));
        for _ in 0..DRAIN_EVERY_SAMPLES - 1 {
            b.on_sample();
        }
        assert!(b.log.is_empty(), "no drain before the cadence boundary");
        b.on_sample();
        assert_eq!(b.log.len(), 1, "cadence boundary drains the channels");
    }

    #[test]
    fn class_table_matches_capacity_guidelines() {
        // Control/lifecycle block; high-rate telemetry drops oldest.
        assert_eq!(BusClass::Scale.policy(), DropPolicy::Block);
        assert_eq!(BusClass::Checkpoint.policy(), DropPolicy::Block);
        assert_eq!(BusClass::Sync.policy(), DropPolicy::Block);
        assert_eq!(BusClass::Metrics.policy(), DropPolicy::DropOldest);
        assert_eq!(BusClass::Backpressure.policy(), DropPolicy::DropOldest);
        for c in BusClass::ALL {
            assert!((1..=128).contains(&c.capacity()), "{:?}", c);
        }
        // Class→channel indexing is the ALL order.
        for (i, c) in BusClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn jsonl_lines_are_deterministic_and_one_per_event() {
        let mut buf = Vec::new();
        let ev = BusEvent {
            at: 42,
            region: 1,
            kind: BusEventKind::ScalePlanned {
                op: 1,
                old_par: 4,
                new_par: 6,
                moves: 43,
                epoch: 1,
            },
        };
        ev.write_jsonl(&mut buf).expect("write");
        let line = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            line,
            "{\"at\":42,\"region\":1,\"class\":\"scale\",\"kind\":\"scale_planned\",\
             \"op\":1,\"old_par\":4,\"new_par\":6,\"moves\":43,\"epoch\":1}\n"
        );
    }

    #[test]
    fn bus_event_is_56_bytes_as_the_memory_bound_assumes() {
        assert_eq!(std::mem::size_of::<BusEvent>(), 56);
    }

    #[test]
    fn merge_folds_region_logs_in_at_region_order() {
        let e = |at, region| BusEvent {
            at,
            region,
            kind: tick(at, region as u32),
        };
        let merged = merge_region_logs(vec![vec![e(10, 0), e(30, 0)], vec![e(10, 1), e(20, 1)]]);
        let keys: Vec<(SimTime, u8)> = merged.iter().map(|ev| (ev.at, ev.region)).collect();
        assert_eq!(keys, vec![(10, 0), (10, 1), (20, 1), (30, 0)]);
    }

    #[test]
    fn summary_absorb_sums_counters_and_maxes_lag() {
        let mut a = BusSummary {
            published: 3,
            dropped: 1,
            blocking_flushes: 0,
            lag_max: 5,
            class_drops: [1, 0, 0, 0, 0],
        };
        let b = BusSummary {
            published: 4,
            dropped: 2,
            blocking_flushes: 1,
            lag_max: 9,
            class_drops: [0, 0, 0, 2, 0],
        };
        a.absorb(&b);
        assert_eq!(a.published, 7);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.blocking_flushes, 1);
        assert_eq!(a.lag_max, 9);
        assert_eq!(a.class_drops, [1, 0, 0, 2, 0]);
    }
}
