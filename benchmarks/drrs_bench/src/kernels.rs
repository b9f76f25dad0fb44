//! Unit-cost kernels: each replays, against one layer's public API, the
//! operation the traced run counted, at the size the traced run observed
//! (queue depth, live arena elements, keys held, moves planned). Counts ×
//! unit costs is what the engine *would* cost if it were only its layers;
//! the gap to the measured time is reported as `bench.model_residual_share`.
//!
//! Every kernel is a few tens of milliseconds, so the whole set fits in a
//! traced pass without lengthening it noticeably.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use drrs_core::planner::{divide_subscales, greedy_pick};
use simcore::spsc::{ring, EpochBarrier};
use simcore::{DetRng, FutureEventList, Slab};
use streamflow::ids::{key_group_of, InstId, KeyGroup};
use streamflow::keygroup::{KgMove, RoutingTable};
use streamflow::record::{Record, StreamElement};
use streamflow::state::{StateBackend, StateValue};
use streamflow::window::{Agg, PaneSet};

const KEY_GROUPS: u16 = 128;

/// Unoptimised builds (`cargo test`) run a twentieth of the operations.
const SHRINK: u64 = if cfg!(debug_assertions) { 20 } else { 1 };

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Hold-model churn on the production scheduler backend, in the engine's
/// own shape: events come massed in same-instant runs (a source tick's
/// records all arrive at one instant), so the list holds `depth` pending
/// events as runs of `run_len`, and each step drains the earliest run and
/// schedules its events again, together, a random delay ahead (delays span
/// the engine's own: a 50 µs service time to a 200 µs-2 ms hop). Cost is
/// per event popped and pushed.
pub fn queue_hold(depth: usize, run_len: usize) -> f64 {
    let run_len = run_len.max(1);
    let runs = (depth / run_len).max(1);
    let mut q: FutureEventList<u64> = FutureEventList::with_capacity(depth.max(run_len) * 2);
    let mut rng = DetRng::seed(0x51ED);
    for r in 0..runs {
        let at = rng.below(2_000);
        for i in 0..run_len {
            q.schedule_at(at, (r * run_len + i) as u64);
        }
    }
    let ops = 2_000_000 / SHRINK;
    let mut buf = Vec::with_capacity(run_len);
    ns_per_op(ops, || {
        let mut done = 0;
        while done < ops {
            q.pop_run_at_most(u64::MAX, &mut buf)
                .expect("hold model never drains");
            let delay = 50 + rng.below(2_000);
            done += buf.len() as u64;
            for e in buf.drain(..) {
                q.schedule(delay, e);
            }
        }
        black_box(q.len());
    })
}

/// Arena churn at `live` parked elements: take the oldest out, park a new one.
pub fn slab_churn(live: usize) -> f64 {
    let live = live.max(1);
    let elem = |k: u64| StreamElement::Record(Record::data(k, 1, k));
    let mut slab: Slab<StreamElement> = Slab::with_capacity(live + 1);
    let mut refs: VecDeque<_> = (0..live as u64).map(|k| slab.insert(elem(k))).collect();
    let ops = 2_000_000 / SHRINK;
    ns_per_op(ops, || {
        for k in 0..ops {
            let oldest = refs.pop_front().expect("live > 0");
            black_box(slab.remove(oldest));
            refs.push_back(slab.insert(elem(k)));
        }
    })
}

fn backend_with(keys: &[u32]) -> StateBackend {
    let mut s = StateBackend::new(KEY_GROUPS, 1);
    for g in 0..KEY_GROUPS {
        s.ensure_group(KeyGroup(g));
    }
    for &k in keys {
        let key = k as u64;
        s.entry_or(key_group_of(key, KEY_GROUPS), key, || StateValue::Sum {
            count: 0,
            sum: 0,
        });
    }
    s
}

/// The keyed aggregate's state access (`entry_or` + update) over `table`,
/// whose distinct keys are the state the workload ends up holding.
pub fn state_update(table: &[u32]) -> f64 {
    let mut s = backend_with(table);
    let ops = 2_000_000 / SHRINK as usize;
    ns_per_op(ops as u64, || {
        for i in 0..ops {
            let key = table[i % table.len()] as u64;
            let kg = key_group_of(key, KEY_GROUPS);
            if let StateValue::Sum { count, sum } =
                s.entry_or(kg, key, || StateValue::Sum { count: 0, sum: 0 })
            {
                *count += 1;
                *sum += 1;
            }
        }
        black_box(s.total_keys());
    })
}

/// Moving every key-group of a backend holding `table`'s keys to another
/// backend and back: `extract_group` + `install`, per group.
pub fn extract_install(table: &[u32]) -> f64 {
    let mut a = backend_with(table);
    let mut b = StateBackend::new(KEY_GROUPS, 1);
    let rounds = 200 / SHRINK;
    ns_per_op(rounds * 2 * KEY_GROUPS as u64, || {
        for _ in 0..rounds {
            for (from, to) in [(0, 1), (1, 0)] {
                let (src, dst) = if from < to {
                    (&mut a, &mut b)
                } else {
                    (&mut b, &mut a)
                };
                for g in 0..KEY_GROUPS {
                    for unit in src.extract_group(KeyGroup(g)) {
                        dst.install(unit, true);
                    }
                }
            }
        }
        black_box(a.total_keys());
    })
}

/// Key → key-group → owning instance, as `route_record` does per record.
pub fn route(table: &[u32], parallelism: usize) -> f64 {
    let targets: Vec<InstId> = (0..parallelism.max(1) as u32).map(InstId).collect();
    let rt = RoutingTable::uniform(KEY_GROUPS, &targets);
    let ops = 2_000_000 / SHRINK as usize;
    ns_per_op(ops as u64, || {
        let mut acc = 0u32;
        for i in 0..ops {
            let key = table[i % table.len()] as u64;
            acc = acc.wrapping_add(rt.route(key_group_of(key, KEY_GROUPS)).0);
        }
        black_box(acc);
    })
}

/// Q7's pane traffic: one `add` per element into a 10 s / 500 ms sliding
/// window, with the window read and the oldest pane evicted once per slide.
pub fn pane_add() -> f64 {
    let (size, slide) = (10_000_000, 500_000);
    let per_slide = 2_500u64;
    let mut panes = PaneSet::default();
    let ops = 2_000_000 / SHRINK;
    ns_per_op(ops, || {
        for i in 0..ops {
            let t = i / per_slide * slide + i % per_slide;
            panes.add(t, (i % 97) as i64, 4, slide, Agg::Max);
            if i % per_slide == 0 {
                black_box(panes.window_agg(t, size, Agg::Max));
                panes.evict_before(t.saturating_sub(size));
            }
        }
        black_box(panes.len());
    })
}

/// The Scale Planner on a plan of `moves` key-group moves: divide into
/// DRRS's 8 subscales, then greedily pick every one under the concurrency
/// limit of 2.
pub fn planner(moves: usize, old: usize, new: usize) -> f64 {
    let moves: Vec<KgMove> = (0..moves.max(1))
        .map(|i| KgMove {
            kg: KeyGroup(i as u16),
            from: InstId((i % old.max(1)) as u32),
            to: InstId((old + i % new.max(1)) as u32),
        })
        .collect();
    let plans = 2_000 / SHRINK;
    ns_per_op(plans, || {
        for _ in 0..plans {
            let subs = divide_subscales(&moves, 8);
            let mut pending: Vec<usize> = (0..subs.len()).collect();
            let active: HashMap<InstId, usize> = HashMap::new();
            while let Some(pick) = greedy_pick(&pending, &subs, &|i| i.0 as usize, &active, 2) {
                pending.retain(|&p| p != pick);
            }
            black_box(pending.len());
        }
    })
}

/// One message through an SPSC ring between two threads (the PDES
/// executor's region-to-region path), producer and consumer both spinning.
pub fn spsc_ring() -> f64 {
    let msgs = 1_000_000 / SHRINK;
    let (mut tx, mut rx) = ring::<u64>(4096);
    ns_per_op(msgs, || {
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..msgs {
                    let mut m = i;
                    while let Err(back) = tx.push(m) {
                        m = back;
                        std::hint::spin_loop();
                    }
                }
            });
            let mut got = 0;
            while got < msgs {
                match rx.pop() {
                    Some(m) => {
                        black_box(m);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    })
}

/// One cycle of the two-party epoch barrier (the executor crosses two per
/// epoch).
pub fn epoch_barrier() -> f64 {
    let cycles = 20_000 / SHRINK;
    let barrier = EpochBarrier::new(2);
    ns_per_op(cycles, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..cycles {
                    barrier.wait();
                }
            });
            for _ in 0..cycles {
                barrier.wait();
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Debug-build smoke: every kernel runs to completion against the
    // layer's current API and yields a positive cost.
    #[test]
    fn kernels_yield_positive_unit_costs() {
        let table: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 4096)
            .collect();
        for (name, cost) in [
            ("queue", queue_hold(100, 8)),
            ("slab", slab_churn(100)),
            ("state", state_update(&table)),
            ("extract_install", extract_install(&table)),
            ("route", route(&table, 4)),
            ("pane", pane_add()),
            ("planner", planner(43, 4, 2)),
            ("ring", spsc_ring()),
            ("barrier", epoch_barrier()),
        ] {
            assert!(cost > 0.0 && cost.is_finite(), "{name}: {cost}");
        }
    }
}
