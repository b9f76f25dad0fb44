//! Record Scheduling's cost, from its own deterministic counters
//! (`FlexScaler::sched_stats`): pinned exactly on one small job scaled out
//! and back in, and bounded per record — the scan is resumable, so a record
//! waiting in a scheduling buffer is classified once per change of the
//! mechanism's state, not once per selection attempt.

use drrs_repro::drrs::{FlexScaler, SchedStats};
use drrs_repro::engine::world::tests_support::tiny_job;
use drrs_repro::engine::{EngineConfig, OpId, ScalePlugin, World};
use drrs_repro::sim::time::{secs, SimTime};

/// Records processed so far by the instances `op` ever had.
fn processed_by(w: &World, op: OpId) -> u64 {
    w.insts
        .iter()
        .filter(|i| i.op == op)
        .map(|i| i.processed)
        .sum()
}

/// The production dispatch loop (`Sim::dispatch_until`) around a concrete
/// `FlexScaler`, so its counters stay readable. Returns how many records
/// `op` processed while the mechanism was active, and raises
/// `pending_high_water` to the most events the future-event list held (the
/// just-drained run included).
fn run_until(
    w: &mut World,
    p: &mut FlexScaler,
    op: OpId,
    t: SimTime,
    pending_high_water: &mut usize,
) -> u64 {
    let mut buf = Vec::new();
    let mut while_active = 0;
    while w.q.pop_run_at_most(t, &mut buf).is_some() {
        *pending_high_water = (*pending_high_water).max(w.q.len() + buf.len());
        let (active, before) = (p.active(), processed_by(w, op));
        w.dispatch_run(p, &mut buf);
        if active || p.active() {
            while_active += processed_by(w, op) - before;
        }
    }
    w.q.advance_clock_to(t);
    while_active
}

#[test]
fn scheduling_cost_is_pinned_and_linear_in_records() {
    let mut cfg = EngineConfig::test();
    cfg.max_key_groups = 128;
    // 64 MB of keyed state behind a 150 B/µs migration path: each plan keeps
    // state in transit for a few hundred milliseconds while the operator
    // runs at 75 % utilisation, so records do wait in scheduling buffers.
    cfg.ser_bytes_per_us = 150.0;
    let (mut w, agg) = tiny_job(cfg, 60_000.0, 65_536, 4);
    let mut p = FlexScaler::drrs();

    w.schedule_scale(secs(2), agg, 6);
    let mut pending_high_water = 0;
    let mut while_active = run_until(&mut w, &mut p, agg, secs(5), &mut pending_high_water);
    assert!(p.finished(), "scale-out did not finish");
    let out = p.sched_stats();

    w.schedule_scale(secs(5), agg, 3);
    while_active += run_until(&mut w, &mut p, agg, secs(9), &mut pending_high_water);
    assert!(p.finished(), "scale-in did not finish");
    let total = p.sched_stats();

    assert_eq!(w.semantics.violations(), 0);
    assert_eq!(w.ops[agg.0 as usize].instances.len(), 3);

    // Deterministic: any change to these is a change to what Record
    // Scheduling does per record, and must be explained (CHANGES.md keeps
    // every old → new).
    assert_eq!(
        out,
        SchedStats {
            selects: 1_517,
            classified: 33_918,
            scans: 998,
            scan_positions: 34_052,
            hint_resumes: 900,
            bypass_runs: 173,
        },
        "after 4 -> 6"
    );
    assert_eq!(
        total,
        SchedStats {
            selects: 2_148,
            classified: 63_067,
            scans: 1_333,
            scan_positions: 63_280,
            hint_resumes: 1_133,
            bypass_runs: 314,
        },
        "after 4 -> 6 -> 3"
    );
    assert_eq!(while_active, 35_204);
    // ... and to the timeline: its metrics digest.
    assert_eq!(w.metrics_digest(), 10_492_970_683_227_957_290);

    // O(1) per record (1.8 here; a scan that never resumes spent 41).
    assert!(
        total.classified <= 3 * while_active,
        "{} classifications for {while_active} records processed under a plan",
        total.classified
    );
    // Nearly every scan finds its channel as it left it.
    assert!(total.hint_resumes * 10 >= total.scans * 8, "{total:?}");

    // The traffic premise of the scheduler: with one entry per send burst
    // the pending set stays tiny, which is why a plain binary heap holds it.
    let regime = "if this grew, per-record scheduler entries are back and PR 18's choice \
                  of a plain binary heap for this list (CHANGES.md) must be re-measured";
    assert!(pending_high_water <= 64, "{pending_high_water}: {regime}");
    assert_eq!(pending_high_water, 20, "{regime}");
}
