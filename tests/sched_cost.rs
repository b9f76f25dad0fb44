//! Record Scheduling's cost, from its own deterministic counters
//! (`FlexScaler::sched_stats`): pinned exactly by the pin store's
//! `pins/sched_cost/` row, one small job scaled out and back in
//! (`bench::scenario::registry`), and bounded per record — the scan is
//! resumable, so a record waiting in a scheduling buffer is examined once
//! per change of the mechanism's state, not once per selection attempt.

use drrs_repro::bench::scenario::golden;

/// The pin store's file of hand-built runs.
const PINS: &str = include_str!("../crates/bench/golden/pins.txt");

#[test]
fn scheduling_cost_is_pinned_and_linear_in_records() {
    // Deterministic: any change to the row is a change to what Record
    // Scheduling does per record (or to the timeline: its digest), and
    // `scenario --bless` reports it old → new for CHANGES.md.
    let held = golden::check(PINS, "pins/sched_cost/").unwrap_or_else(|e| panic!("{e}"));
    let [row] = held.as_slice() else {
        panic!("one sched_cost row, got {}", held.len());
    };
    let col = |c| row.column(c).unwrap_or_else(|| panic!("no column {c}"));
    let while_active = col("while_active");

    // O(1) per record (1.8 here; a scan that never resumes spent 41).
    assert!(
        col("scan_positions") <= 3 * while_active,
        "{} scan positions for {while_active} records processed under a plan",
        col("scan_positions")
    );
    // Nearly every scan finds its channel as it left it.
    assert!(col("hint_resumes") * 10 >= col("scans") * 8, "{row:?}");

    // The traffic premise of the scheduler: with one entry per send burst
    // the pending set stays tiny, which is why a plain binary heap holds it.
    let regime = "if this grew, per-record scheduler entries are back and the choice of a \
                  plain binary heap for this list (CHANGES.md) must be re-measured";
    let pending_high_water = col("pending_high_water");
    assert!(pending_high_water <= 64, "{pending_high_water}: {regime}");
}
