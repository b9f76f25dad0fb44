//! The engine event/metrics bus: typed events appended to one in-memory
//! log, in publish order.
//!
//! The world publishes typed events (per-instance metrics ticks,
//! scale-plan decisions, checkpoint lifecycle, backpressure transitions,
//! sync-stats epochs) as they happen, without perturbing a single digest
//! bit. The log keeps every published event: nothing queues, drops or
//! reorders, so `take_log().len()` equals [`BusSummary::published`].
//!
//! # Sinks
//!
//! * [`BusSinkKind::Null`] — the default. The bus is disabled: `publish`
//!   is a single branch, the log is never allocated, and the
//!   steady-state dispatch path allocates and hashes nothing. Digests are
//!   byte-identical to a build without the bus.
//! * [`BusSinkKind::Mem`] — `publish` appends to an in-memory log, taken
//!   with [`Bus::take_log`] after the run. The bus spawns no thread and
//!   touches no file: `scenario --events FILE` turns this sink on and
//!   writes the log as JSONL ([`BusEvent::write_jsonl`]) after the run,
//!   on the sequential engine and on the thread-per-region executor
//!   alike.
//!
//! # Memory bound
//!
//! The log grows with the run: one metrics tick per instance per sample,
//! one event per backpressure transition, a handful per rescale,
//! checkpoint or sync sample. The longest run in the repo, full-length
//! `fig10_11/Q7/DRRS/seed1`, publishes 17,558 events: about
//! 0.98 MB at 56 bytes per [`BusEvent`], or 2.03 MB as JSONL.
//! `QUICK=1` `perf/q7_drrs_rescale_8_to_12` publishes 528. A streaming
//! writer thread would save that much memory and nothing else, so there
//! is none.
//!
//! # Determinism and parallel merged emission
//!
//! Publishing never touches metrics, RNG or event ordering, so the bus is
//! digest-neutral by construction (enforced by proptests: `Null` vs `Mem`
//! produce byte-identical digests, sequentially and under `run_parallel`).
//! Every event is stamped with the dispatch clock, so the sequential log's
//! `at` never decreases, and two runs of the same spec log the same
//! events.
//!
//! Under the thread-per-region executor each replica logs its own
//! region's events, and [`merge_region_logs`] folds the per-region logs
//! in region order by stable-sorting on `(at, region)` — exactly
//! mirroring [`Observables::merge`](crate::world::Observables::merge),
//! whose `(t, region)` key reproduces the sequential region-major
//! recording order. The periodic sampler is pinned to region 0, so in
//! parallel runs per-instance metrics ticks cover region-0 instances only
//! (ticks for other regions' instances would read state frozen at replica
//! pruning time); whole-fleet snapshots come from `Observables`, which
//! merges exactly. `SyncEpoch` means different counters on the two
//! engines (see its docs); every other event is published by both.

use std::io;

use simcore::time::SimTime;

/// One published event: plain `Copy` data, 56 bytes.
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
    /// the event list's cumulative `SyncStats` (its `RegionSync`
    /// accounting) at each sample;
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
    /// Serialize as one JSON line (the `--events` file format). Field
    /// order is fixed, so the output is byte-deterministic.
    pub fn write_jsonl(&self, w: &mut impl io::Write) -> io::Result<()> {
        write!(w, "{{\"at\":{},\"region\":{},", self.at, self.region)?;
        match self.kind {
            BusEventKind::MetricsTick {
                inst,
                processed,
                state_bytes,
                watermark,
            } => writeln!(
                w,
                "\"kind\":\"metrics_tick\",\"inst\":{inst},\"processed\":{processed},\
                 \"state_bytes\":{state_bytes},\"watermark\":{watermark}}}"
            ),
            BusEventKind::ScalePlanned {
                op,
                old_par,
                new_par,
                moves,
                epoch,
            } => writeln!(
                w,
                "\"kind\":\"scale_planned\",\"op\":{op},\"old_par\":{old_par},\
                 \"new_par\":{new_par},\"moves\":{moves},\"epoch\":{epoch}}}"
            ),
            BusEventKind::ScaleDeployed { epoch } => {
                writeln!(w, "\"kind\":\"scale_deployed\",\"epoch\":{epoch}}}")
            }
            BusEventKind::CheckpointStart { id } => {
                writeln!(w, "\"kind\":\"checkpoint_start\",\"id\":{id}}}")
            }
            BusEventKind::CheckpointDone { id } => {
                writeln!(w, "\"kind\":\"checkpoint_done\",\"id\":{id}}}")
            }
            BusEventKind::BackpressureBlock { inst } => {
                writeln!(w, "\"kind\":\"backpressure_block\",\"inst\":{inst}}}")
            }
            BusEventKind::BackpressureResume { inst } => {
                writeln!(w, "\"kind\":\"backpressure_resume\",\"inst\":{inst}}}")
            }
            BusEventKind::SyncEpoch {
                epochs,
                dispatched,
                merged,
                grants,
            } => writeln!(
                w,
                "\"kind\":\"sync_epoch\",\"epochs\":{epochs},\"dispatched\":{dispatched},\
                 \"merged\":{merged},\"grants\":{grants}}}"
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

/// The bus's counters, a pure function of the simulated timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusSummary {
    /// Events published (each one is in the log).
    pub published: u64,
    /// Always 0: nothing queues or drops; kept only while `drrs_bench`
    /// reads it (ROADMAP item 11).
    pub dropped: u64,
    /// Always 0: nothing queues or drops; kept only while `drrs_bench`
    /// reads it (ROADMAP item 11).
    pub lag_max: u64,
}

impl BusSummary {
    /// Fold another replica's summary into this one (counters sum, the
    /// high-water mark takes the max).
    pub fn absorb(&mut self, o: &BusSummary) {
        self.published += o.published;
        self.dropped += o.dropped;
        self.lag_max = self.lag_max.max(o.lag_max);
    }
}

/// The event/metrics bus owned by a `World`. See the module docs.
pub struct Bus {
    /// Is the sink `Mem`?
    on: bool,
    /// Events published so far (the log may have been taken since).
    published: u64,
    /// The in-memory sink log, in publish order.
    log: Vec<BusEvent>,
}

impl Bus {
    /// Build a bus for the configured sink. Allocates nothing.
    pub fn new(kind: BusSinkKind) -> Self {
        Self {
            on: kind == BusSinkKind::Mem,
            published: 0,
            log: Vec::new(),
        }
    }

    /// Is the bus publishing (any sink but `Null`)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Publish one event: append it to the log. With the `Null` sink this
    /// is a single branch — the steady-state dispatch path pays one
    /// predictable-not-taken compare and nothing else.
    // checker:hot-path
    #[inline]
    pub fn publish(&mut self, at: SimTime, region: u8, kind: BusEventKind) {
        if !self.on {
            return;
        }
        self.published += 1;
        self.log.push(BusEvent { at, region, kind });
    }

    /// Take the in-memory event log: every event published since the last
    /// take, in publish order.
    pub fn take_log(&mut self) -> Vec<BusEvent> {
        std::mem::take(&mut self.log)
    }

    /// The bus's counters.
    pub fn summary(&self) -> BusSummary {
        BusSummary {
            published: self.published,
            ..BusSummary::default()
        }
    }
}

/// Fold per-replica event logs (indexed by region) into the deterministic
/// merged stream: concatenate in region order, then stable-sort by
/// `(at, region)` — the same key
/// [`Observables::merge`](crate::world::Observables::merge) uses for latency
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
        b.publish(1, 0, tick(1, 0));
        assert_eq!(b.log.capacity(), 0, "disabled bus must own no buffer");
        assert_eq!(b.summary(), BusSummary::default());
        assert!(b.take_log().is_empty());
    }

    #[test]
    fn mem_sink_logs_every_event_in_publish_order() {
        // Mixed kinds, 300 of them, with
        // `at` going backwards once: the log is exactly the publish
        // sequence, nothing dropped, regrouped or sorted.
        let mut b = Bus::new(BusSinkKind::Mem);
        let mut want = Vec::new();
        for i in 0..300u64 {
            let kind = match i % 3 {
                0 => tick(i, i as u32),
                1 => BusEventKind::CheckpointStart { id: i },
                _ => BusEventKind::BackpressureBlock { inst: i as u32 },
            };
            let at = if i == 150 { 7 } else { i };
            b.publish(at, (i % 2) as u8, kind);
            want.push(BusEvent {
                at,
                region: (i % 2) as u8,
                kind,
            });
        }
        let s = b.summary();
        assert_eq!((s.published, s.dropped, s.lag_max), (300, 0, 0));
        assert_eq!(b.take_log(), want);
        assert!(b.take_log().is_empty(), "the log was taken");
        assert_eq!(b.summary().published, 300, "taking keeps the count");
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
            "{\"at\":42,\"region\":1,\"kind\":\"scale_planned\",\
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
            lag_max: 5,
        };
        a.absorb(&BusSummary {
            published: 4,
            dropped: 2,
            lag_max: 9,
        });
        assert_eq!(
            a,
            BusSummary {
                published: 7,
                dropped: 3,
                lag_max: 9
            }
        );
    }
}
